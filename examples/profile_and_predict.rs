//! The full paper pipeline, end to end:
//!
//! 1. run a workload on a *standalone* (simulated) database;
//! 2. profile it — log counting plus Utilization-Law replays
//!    (paper Section 4);
//! 3. feed the profile to the analytical models;
//! 4. validate the prediction against the mechanistic cluster simulation
//!    (our stand-in for the paper's 16-machine prototype).
//!
//! ```text
//! cargo run --release --example profile_and_predict
//! ```

use replipred::model::{Design, SystemConfig};
use replipred::profiler::Profiler;
use replipred::repl::{SimConfig, SimulatorRegistry};
use replipred::workload::tpcw;

fn main() {
    let spec = tpcw::mix(tpcw::Mix::Shopping);

    // Step 1+2: profile the standalone database.
    println!("profiling the standalone database (TPC-W shopping)...");
    let outcome = Profiler::new(spec.clone()).seed(2009).profile();
    let p = &outcome.profile;
    println!(
        "  Pr = {:.1}%  Pw = {:.1}%  A1 = {:.4}%",
        p.pr * 1e2,
        p.pw * 1e2,
        p.a1 * 1e2
    );
    println!(
        "  rc = {:.2}/{:.2} ms  wc = {:.2}/{:.2} ms  ws = {:.2}/{:.2} ms (cpu/disk)",
        p.cpu.read * 1e3,
        p.disk.read * 1e3,
        p.cpu.write * 1e3,
        p.disk.write * 1e3,
        p.cpu.writeset * 1e3,
        p.disk.writeset * 1e3
    );
    println!("  L(1) = {:.1} ms   U = {:.1}", p.l1 * 1e3, p.update_ops);

    // Step 3: predict.
    let config = SystemConfig::lan_cluster(spec.clients_per_replica);
    let model = Design::MultiMaster
        .predictor(outcome.profile.clone(), config)
        .expect("profiled inputs are valid");

    // Step 4: validate against the simulated cluster.
    println!("\nvalidating against the simulated multi-master cluster:");
    println!(
        "{:>3} {:>12} {:>12} {:>8}",
        "N", "predicted", "simulated", "error"
    );
    for n in [1usize, 2, 4, 8] {
        let predicted = model.predict(n).expect("the model solves");
        let simulated = Design::MultiMaster
            .simulator(spec.clone(), SimConfig::quick(n, 2009))
            .run();
        let err =
            (predicted.throughput_tps - simulated.throughput_tps).abs() / simulated.throughput_tps;
        println!(
            "{n:>3} {:>8.1} tps {:>8.1} tps {:>7.1}%",
            predicted.throughput_tps,
            simulated.throughput_tps,
            err * 1e2
        );
    }
    println!("\nThe paper reports model accuracy within 15%; points above that");
    println!("band are in the saturated region where the model gives an upper bound.");
}
