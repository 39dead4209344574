//! The Figure-14 story as an executable: how conflict-prone workloads
//! limit multi-master scalability.
//!
//! A heap-table stressor dials the standalone abort probability up, and
//! the example shows the predicted and simulated replicated abort rate
//! `A_N` racing upward with the replica count — the "dangers of
//! replication" [Gray 1996] made quantitative.
//!
//! ```text
//! cargo run --release --example abort_stress
//! ```

use replipred::model::{Design, SystemConfig};
use replipred::profiler::Profiler;
use replipred::repl::{SimConfig, SimulatorRegistry};
use replipred::workload::{heap, tpcw};

fn main() {
    let base = tpcw::mix(tpcw::Mix::Shopping);
    for heap_rows in [512u64, 128, 48] {
        let spec = heap::with_heap_stress(&base, heap_rows);
        // Measure the standalone abort probability with the stressor on.
        let standalone = Design::Standalone
            .simulator(spec.clone(), SimConfig::quick(1, 7))
            .run();
        let profile = Profiler::new(spec.clone())
            .seed(7)
            .profile()
            .profile
            .with_a1(standalone.abort_rate.max(1e-6));
        let model = Design::MultiMaster
            .predictor(profile, SystemConfig::lan_cluster(spec.clients_per_replica))
            .expect("profiled inputs valid");
        println!(
            "\nheap = {heap_rows} rows -> standalone A1 = {:.2}%",
            standalone.abort_rate * 1e2
        );
        println!("{:>3} {:>14} {:>14}", "N", "simulated A_N", "predicted A_N");
        for n in [2usize, 4, 8] {
            let sim = Design::MultiMaster
                .simulator(spec.clone(), SimConfig::quick(n, 7))
                .run();
            let predicted = model.predict(n).expect("the model solves");
            println!(
                "{n:>3} {:>13.2}% {:>13.2}%",
                sim.abort_rate * 1e2,
                predicted.abort_rate * 1e2
            );
        }
    }
    println!("\nSmaller heap -> more write-write conflicts -> faster A_N growth;");
    println!("the model tracks the trend while slightly under-estimating, as in the paper.");
}
