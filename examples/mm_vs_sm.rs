//! Multi-master vs single-master across every published workload —
//! the design-selection question the paper's models exist to answer.
//!
//! For each workload (TPC-W browsing/shopping/ordering, RUBiS
//! browsing/bidding), print both designs' predicted scalability and the
//! crossover where the single-master saturates at its master.
//!
//! ```text
//! cargo run --release --example mm_vs_sm
//! ```

use replipred::model::{Design, SystemConfig, WorkloadProfile};

fn clients_for(profile: &WorkloadProfile) -> usize {
    match profile.name.as_str() {
        "tpcw-browsing" => 30,
        "tpcw-shopping" => 40,
        _ => 50,
    }
}

fn main() {
    for profile in WorkloadProfile::all_paper_profiles() {
        let config = SystemConfig::lan_cluster(clients_for(&profile));
        let curve = |design: Design| {
            design
                .predictor(profile.clone(), config.clone())
                .and_then(|model| model.curve(16))
                .expect("published profile is valid")
        };
        let (mm_curve, sm_curve) = (curve(Design::MultiMaster), curve(Design::SingleMaster));
        println!("\n== {} (Pw = {:.0}%) ==", profile.name, profile.pw * 100.0);
        println!(
            "{:>3} {:>12} {:>12} {:>10}",
            "N", "MM tps", "SM tps", "MM/SM"
        );
        for n in [1usize, 2, 4, 8, 12, 16] {
            let m = mm_curve.at(n).expect("curve covers 1..=16");
            let s = sm_curve.at(n).expect("curve covers 1..=16");
            println!(
                "{n:>3} {:>12.1} {:>12.1} {:>9.2}x",
                m.throughput_tps,
                s.throughput_tps,
                m.throughput_tps / s.throughput_tps
            );
        }
        let mm_speedup = mm_curve.total_speedup().expect("non-empty");
        let sm_speedup = sm_curve.total_speedup().expect("non-empty");
        println!(
            "speedup at 16 replicas: MM {mm_speedup:.1}x, SM {sm_speedup:.1}x; SM bottleneck: {}",
            sm_curve.at(16).expect("covered").bottleneck
        );
    }
    println!("\nRead-dominated mixes scale on either design; update-heavy mixes");
    println!("saturate the single master — the paper's Figures 6-13 in one table.");
}
