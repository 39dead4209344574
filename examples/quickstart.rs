//! Quickstart: predict replicated scalability from published standalone
//! parameters.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! This is the paper's headline workflow with zero measurement effort:
//! take the standalone profile (here the published TPC-W shopping-mix
//! parameters, Tables 2-3), and print the predicted throughput, response
//! time and abort rate of both replicated designs for 1..16 replicas —
//! before deploying anything.

use replipred::model::{Design, SystemConfig, WorkloadProfile};

fn main() {
    let profile = WorkloadProfile::tpcw_shopping();
    let config = SystemConfig::lan_cluster(40);
    let mm = Design::MultiMaster
        .predictor(profile.clone(), config.clone())
        .expect("published profile is valid");
    let sm = Design::SingleMaster
        .predictor(profile, config)
        .expect("published profile is valid");

    println!("TPC-W shopping mix (80% reads), 40 clients/replica, 1 s think time");
    println!(
        "{:>3} | {:>10} {:>10} {:>9} | {:>10} {:>10} {:>9}",
        "N", "MM tps", "MM resp", "MM abort", "SM tps", "SM resp", "SM abort"
    );
    for n in 1..=16 {
        let m = mm.predict(n).expect("the model solves");
        let s = sm.predict(n).expect("the model solves");
        println!(
            "{n:>3} | {:>10.1} {:>7.1} ms {:>8.3}% | {:>10.1} {:>7.1} ms {:>8.3}%",
            m.throughput_tps,
            m.response_time * 1e3,
            m.abort_rate * 100.0,
            s.throughput_tps,
            s.response_time * 1e3,
            s.abort_rate * 100.0,
        );
    }
    let mm16 = mm.predict(16).expect("the model solves");
    let mm1 = mm.predict(1).expect("the model solves");
    println!(
        "\nMulti-master speedup at 16 replicas: {:.1}x (bottleneck: {})",
        mm16.speedup_over(&mm1),
        mm16.bottleneck
    );
}
