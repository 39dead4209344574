//! End-to-end tests of the profiling pipeline across every published
//! workload mix: the recovered parameters must be close to the workload's
//! ground truth, and must feed the models without error.

use replipred::model::{Design, SystemConfig};
use replipred::profiler::Profiler;
use replipred::workload::spec::WorkloadSpec;
use replipred::workload::{heap, rubis, tpcw};

fn all_specs() -> Vec<WorkloadSpec> {
    let mut v: Vec<WorkloadSpec> = tpcw::Mix::ALL.iter().map(|&m| tpcw::mix(m)).collect();
    v.extend(rubis::Mix::ALL.iter().map(|&m| rubis::mix(m)));
    v
}

#[test]
fn every_mix_profiles_to_a_valid_model_input() {
    for spec in all_specs() {
        let outcome = Profiler::new(spec.clone()).seed(11).profile();
        let p = &outcome.profile;
        p.validate()
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        // Mix fractions within counting noise.
        assert!(
            (p.pw - spec.pw()).abs() < 0.03,
            "{}: Pw {} vs {}",
            spec.name,
            p.pw,
            spec.pw()
        );
        // Demands within 12% of ground truth.
        let rel = (p.cpu.read - spec.mean_read_cpu()).abs() / spec.mean_read_cpu();
        assert!(rel < 0.12, "{}: rc_cpu rel {rel}", spec.name);
        if spec.pw() > 0.0 {
            let rel = (p.cpu.write - spec.mean_write_cpu()).abs() / spec.mean_write_cpu();
            assert!(rel < 0.12, "{}: wc_cpu rel {rel}", spec.name);
            assert!(p.l1 > 0.0, "{}: L(1) missing", spec.name);
        }
    }
}

#[test]
fn profiles_drive_both_models_across_the_sweep() {
    for spec in all_specs() {
        let profile = Profiler::new(spec.clone()).seed(13).profile().profile;
        let config = SystemConfig::lan_cluster(spec.clients_per_replica);
        for design in [Design::MultiMaster, Design::SingleMaster] {
            let curve = design
                .predictor(profile.clone(), config.clone())
                .and_then(|model| model.curve(16))
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            for p in &curve.points {
                assert!(
                    p.throughput_tps.is_finite() && p.throughput_tps > 0.0,
                    "{}: bad tput at N={}",
                    spec.name,
                    p.replicas
                );
                assert!(p.response_time >= 0.0);
                assert!((0.0..1.0).contains(&p.abort_rate));
                assert!(p.bottleneck_utilization <= 1.0 + 1e-6);
            }
        }
    }
}

#[test]
fn profiled_u_matches_workload_definition() {
    let outcome = Profiler::new(tpcw::mix(tpcw::Mix::Ordering))
        .seed(17)
        .profile();
    // TPC-W update classes write 2 or 4 rows with equal weight -> U = 3.
    assert!(
        (outcome.profile.update_ops - 3.0).abs() < 0.3,
        "U = {}",
        outcome.profile.update_ops
    );
    let rubis = Profiler::new(rubis::mix(rubis::Mix::Bidding))
        .seed(17)
        .profile();
    assert!(
        (rubis.profile.update_ops - 2.0).abs() < 0.2,
        "RUBiS U = {}",
        rubis.profile.update_ops
    );
}

/// The log counts and the run's metrics are one set of books: on a mix
/// that conflicts, every tally agrees field by field.
#[test]
fn log_summary_counts_are_consistent() {
    let outcome = Profiler::new(heap::with_heap_stress(&tpcw::mix(tpcw::Mix::Ordering), 48))
        .seed(19)
        .profile();
    let (s, run) = (&outcome.log_summary, &outcome.capture_run);
    assert!(s.conflict_aborts > 0, "the heap mix must conflict");
    assert_eq!(
        (s.read_commits, s.update_commits, s.conflict_aborts),
        (run.read_commits, run.update_commits, run.conflict_aborts),
        "log and metrics must agree on read commits, update commits and conflict aborts"
    );
    assert!((s.pr + s.pw - 1.0).abs() < 1e-9);
}
