//! `predict_plan`: the model on its own. Five published profiles × three
//! designs × `predict(n)` for n = 1..=16 through `Design::predictor` —
//! 240 predictions per pass, all of the time in `core` + `mva`, none in
//! `sim`/`sidb`/`repl`. It is the control workload for any simulator or
//! storage optimisation (prediction: no change) and the target for work
//! on the single-master fixed point.

use replipred::model::{Design, Prediction, SystemConfig, WorkloadProfile};
use replipred::scenario::workload_spec;

use super::{digest_of, PassOutput, Size};
use crate::trace::Tracer;

/// Inputs: each published profile with the deployment it is planned for.
#[derive(Debug, Clone)]
pub struct PredictState {
    plans: Vec<(WorkloadProfile, SystemConfig)>,
    max_replicas: usize,
}

/// Builds the five published profiles at their published client counts.
pub fn setup(_seed: u64, size: Size) -> PredictState {
    let plans = WorkloadProfile::all_paper_profiles()
        .into_iter()
        .map(|profile| {
            let clients = workload_spec(&profile.name)
                .expect("published profiles have published workloads")
                .clients_per_replica;
            (profile, SystemConfig::lan_cluster(clients))
        })
        .collect();
    PredictState {
        plans,
        max_replicas: match size {
            Size::Full => 16,
            Size::Smoke => 8,
        },
    }
}

/// What a pass leaves for its (untimed) check: every `predict(n)`
/// call's outcome, labelled.
#[derive(Debug)]
pub struct PredictRaw(Vec<(String, Result<Prediction, String>)>);

/// One pass: every profile × design × replica count.
pub fn pass(state: &mut PredictState, tracer: &mut Tracer) -> PredictRaw {
    let mut outcomes = Vec::with_capacity(state.plans.len() * 3 * state.max_replicas);
    for (profile, config) in &state.plans {
        for design in Design::ALL {
            let span = tracer.enter("core.predictor");
            let predictor = design.predictor(profile.clone(), config.clone());
            tracer.exit(span);
            for n in 1..=state.max_replicas {
                let span = tracer.enter("core.predict");
                let prediction = match &predictor {
                    Ok(p) => p.predict(n).map_err(|e| e.to_string()),
                    Err(e) => Err(e.to_string()),
                };
                tracer.exit(span);
                outcomes.push((format!("{} {design} n={n}", profile.name), prediction));
            }
        }
    }
    PredictRaw(outcomes)
}

/// Checks that every prediction solved and is finite and positive.
pub fn check(_state: &PredictState, raw: &mut PredictRaw) -> PassOutput {
    let outcomes = &raw.0;
    let mut out = PassOutput::default();
    let mut predictions = Vec::with_capacity(outcomes.len());
    for (label, outcome) in outcomes {
        match outcome {
            Ok(p) => {
                let sane = p.throughput_tps.is_finite()
                    && p.throughput_tps > 0.0
                    && p.response_time.is_finite()
                    && p.response_time > 0.0
                    && (0.0..=1.0).contains(&p.abort_rate);
                out.checks
                    .op(sane, || format!("{label}: implausible prediction {p:?}"));
                predictions.push(p);
            }
            Err(e) => out.checks.op(false, || format!("{label}: {e}")),
        }
    }
    out.ops = outcomes.len() as u64;
    out.count("predictions", out.ops);
    out.digest = digest_of(&predictions);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_prediction_is_finite_and_positive() {
        let mut state = setup(0, Size::Smoke);
        let mut raw = pass(&mut state, &mut Tracer::disabled());
        let out = check(&state, &mut raw);
        assert_eq!(out.ops, 5 * 3 * 8);
        assert_eq!(out.checks.failed, 0, "{:?}", out.checks.notes);
        let mut tracer = Tracer::enabled();
        let mut raw = pass(&mut state, &mut tracer);
        assert_eq!(check(&state, &mut raw), out);
        assert!(tracer.spans().iter().all(|s| s.layer() == "core"));
    }
}
