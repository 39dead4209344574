//! Cross-validation of the two independent artifacts: the analytical
//! models (replipred-core) against the mechanistic cluster simulation
//! (replipred-repl) — the reproduction of the paper's Section 6
//! validation, in miniature.

use replipred::model::Design::{self, MultiMaster as Mm, SingleMaster as Sm};
use replipred::model::{Predictor, SystemConfig, WorkloadProfile};
use replipred::profiler::Profiler;
use replipred::repl::{RunReport, SimConfig, SimulatorRegistry};
use replipred::workload::synth::SynthSpec;
use replipred::workload::{rubis, tpcw, WorkloadSpec};

/// The design's predictor over a measured profile at `c` clients a replica.
fn predictor(design: Design, profile: WorkloadProfile, c: usize) -> Predictor {
    design
        .predictor(profile, SystemConfig::lan_cluster(c))
        .unwrap()
}

/// One simulated point of the design: 15 s warm-up, 60 s measured.
fn sim(design: Design, spec: &WorkloadSpec, n: usize) -> RunReport {
    let cfg = SimConfig {
        warmup: 15.0,
        duration: 60.0,
        ..SimConfig::quick(n, 2009)
    };
    design.simulator(spec.clone(), cfg).run()
}

#[test]
fn mm_shopping_prediction_tracks_simulation() {
    let spec = tpcw::mix(tpcw::Mix::Shopping);
    let profile = Profiler::new(spec.clone()).seed(2009).profile().profile;
    let model = predictor(Mm, profile, 40);
    for n in [1usize, 4] {
        let predicted = model.predict(n).unwrap().throughput_tps;
        let simulated = sim(Mm, &spec, n).throughput_tps;
        let err = (predicted - simulated).abs() / simulated;
        assert!(
            err < 0.20,
            "N={n}: predicted {predicted:.1} vs simulated {simulated:.1} (err {:.0}%)",
            err * 100.0
        );
    }
}

#[test]
fn mm_browsing_scales_in_both_artifacts() {
    let spec = tpcw::mix(tpcw::Mix::Browsing);
    let profile = Profiler::new(spec.clone()).seed(1).profile().profile;
    let model = predictor(Mm, profile, 30);
    let p1 = model.predict(1).unwrap().throughput_tps;
    let p6 = model.predict(6).unwrap().throughput_tps;
    assert!(p6 > 5.0 * p1, "model: {p1} -> {p6}");
    let s1 = sim(Mm, &spec, 1).throughput_tps;
    let s6 = sim(Mm, &spec, 6).throughput_tps;
    assert!(s6 > 5.0 * s1, "sim: {s1} -> {s6}");
}

#[test]
fn sm_ordering_saturates_in_both_artifacts() {
    // Paper Figure 8: the ordering mix saturates the master around 4
    // replicas; model and simulation must both show the plateau.
    let spec = tpcw::mix(tpcw::Mix::Ordering);
    let profile = Profiler::new(spec.clone()).seed(3).profile().profile;
    let model = predictor(Sm, profile, 50);
    let p4 = model.predict(4).unwrap().throughput_tps;
    let p8 = model.predict(8).unwrap().throughput_tps;
    assert!(p8 < 1.25 * p4, "model should plateau: {p4} -> {p8}");
    let s4 = sim(Sm, &spec, 4).throughput_tps;
    let s8 = sim(Sm, &spec, 8).throughput_tps;
    assert!(s8 < 1.25 * s4, "sim should plateau: {s4} -> {s8}");
}

#[test]
fn mm_beats_sm_at_scale_on_ordering_in_both_artifacts() {
    // The paper's headline design comparison at an update-heavy mix.
    let spec = tpcw::mix(tpcw::Mix::Ordering);
    let profile = Profiler::new(spec.clone()).seed(5).profile().profile;
    let mm_pred = predictor(Mm, profile.clone(), 50)
        .predict(8)
        .unwrap()
        .throughput_tps;
    let sm_pred = predictor(Sm, profile, 50)
        .predict(8)
        .unwrap()
        .throughput_tps;
    assert!(mm_pred > 1.2 * sm_pred, "model: mm {mm_pred} sm {sm_pred}");
    let mm_sim = sim(Mm, &spec, 8).throughput_tps;
    let sm_sim = sim(Sm, &spec, 8).throughput_tps;
    assert!(mm_sim > 1.2 * sm_sim, "sim: mm {mm_sim} sm {sm_sim}");
}

#[test]
fn rubis_bidding_shapes_match_the_paper() {
    // RUBiS bidding is disk-write-heavy. Paper Figures 10 and 12: the MM
    // system keeps gaining (modestly) up to ~6 replicas, while the SM
    // system is pinned by the master's disk. At 6 replicas the two designs
    // are nearly tied; the distinguishing shape is the growth pattern.
    let spec = rubis::mix(rubis::Mix::Bidding);
    let mm3 = sim(Mm, &spec, 3).throughput_tps;
    let mm6 = sim(Mm, &spec, 6).throughput_tps;
    assert!(mm6 > 1.1 * mm3, "MM should still gain: {mm3} -> {mm6}");
    let sm3 = sim(Sm, &spec, 3).throughput_tps;
    let sm6 = sim(Sm, &spec, 6).throughput_tps;
    assert!(
        sm6 < 1.35 * sm3,
        "SM should be near its master-disk ceiling: {sm3} -> {sm6}"
    );
    // And the designs are within ~15% of each other at N=6.
    assert!((mm6 - sm6).abs() / sm6 < 0.15, "mm {mm6} vs sm {sm6}");
}

#[test]
fn sm_shopping_prediction_tracks_simulation_at_n8() {
    // Deep into the SM curve: at 8 replicas the shopping-mix master still
    // has update headroom (Figure 8's non-saturating regime), so the
    // prediction is dominated by the slave-tier MVA plus the master's
    // update routing rather than a hard ceiling. Measured on this seed:
    // model ~196 tps vs sim ~200 tps (~2% error). The 15% tolerance
    // leaves room for window/seed noise while still failing loudly if the
    // nested SM fixed point or the writeset-demand accounting regresses.
    let spec = tpcw::mix(tpcw::Mix::Shopping);
    let profile = Profiler::new(spec.clone()).seed(2009).profile().profile;
    let model = predictor(Sm, profile, 40);
    let predicted = model.predict(8).unwrap().throughput_tps;
    let simulated = sim(Sm, &spec, 8).throughput_tps;
    let err = (predicted - simulated).abs() / simulated;
    assert!(
        err < 0.15,
        "N=8: predicted {predicted:.1} vs simulated {simulated:.1} (err {:.0}%)",
        err * 100.0
    );
}

#[test]
fn synth_read_only_corner_scales_near_linearly_in_both_artifacts() {
    // The pure-read corner of the synthetic family: no writesets and no
    // conflicts, so every MM replica is an independent standalone system
    // and throughput must scale essentially linearly. Measured on this
    // seed: sim 24.9 -> 152.1 tps over N=1..6 (6.1x) and model 6.0x; the
    // >= 5x bar tolerates the sub-linear drift a CPU-saturated replica
    // shows in short windows, while catching any spurious coupling
    // (e.g. writeset or certifier load leaking into read-only runs).
    // Both presets keep the paper's 1.0 s think time, so the published
    // lan_cluster config describes the same closed loop the sim runs.
    let spec = SynthSpec::preset("read-only").unwrap().build().unwrap();
    let profile = Profiler::new(spec.clone()).seed(11).profile().profile;
    let model = predictor(Mm, profile, 50);
    let p1 = model.predict(1).unwrap().throughput_tps;
    let p6 = model.predict(6).unwrap().throughput_tps;
    assert!(p6 > 5.0 * p1, "model: {p1} -> {p6}");
    let s1 = sim(Mm, &spec, 1).throughput_tps;
    let s6 = sim(Mm, &spec, 6).throughput_tps;
    assert!(s6 > 5.0 * s1, "sim: {s1} -> {s6}");
}

#[test]
fn synth_write_heavy_corner_does_not_scale_linearly() {
    // The anti-corner: 60% updates whose writesets cost 60% of the
    // original update demand, so at N=6 each replica burns most of its
    // capacity applying the other five replicas' writesets. Measured on
    // this seed: sim speedup 2.7x, model 2.9x at N=6 — the < 4x ceiling
    // asserts the saturation shape (a linear-scaling bug would show ~6x),
    // with slack because the exact plateau depends on the abort feedback.
    let spec = SynthSpec::preset("write-heavy").unwrap().build().unwrap();
    let profile = Profiler::new(spec.clone()).seed(13).profile().profile;
    let model = predictor(Mm, profile, 40);
    let p1 = model.predict(1).unwrap().throughput_tps;
    let p6 = model.predict(6).unwrap().throughput_tps;
    assert!(p6 < 4.0 * p1, "model should saturate: {p1} -> {p6}");
    let s1 = sim(Mm, &spec, 1).throughput_tps;
    let s6 = sim(Mm, &spec, 6).throughput_tps;
    assert!(s6 < 4.0 * s1, "sim should saturate: {s1} -> {s6}");
    // And the model must still track the saturated simulation: ~6%
    // observed error at N=6; 20% is the repo-wide published-mix band.
    let err = (p6 - s6).abs() / s6;
    assert!(
        err < 0.20,
        "N=6: predicted {p6:.1} vs simulated {s6:.1} (err {:.0}%)",
        err * 100.0
    );
}

#[test]
fn response_time_prediction_is_sane() {
    let spec = tpcw::mix(tpcw::Mix::Shopping);
    let profile = Profiler::new(spec.clone()).seed(7).profile().profile;
    let model = predictor(Mm, profile, 40);
    let predicted = model.predict(4).unwrap().response_time;
    let simulated = sim(Mm, &spec, 4).response_time;
    let err = (predicted - simulated).abs() / simulated;
    assert!(
        err < 0.35,
        "predicted {:.1} ms vs simulated {:.1} ms",
        predicted * 1e3,
        simulated * 1e3
    );
}
