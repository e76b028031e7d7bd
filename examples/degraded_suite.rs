//! Fault-injection smoke: a large suite under 20% ITS frame loss.
//!
//! ```sh
//! cargo run --release --example degraded_suite
//! ```
//!
//! Runs 240 two-AP topologies through the degraded-suite runner -- one
//! `Coordinator` ITS exchange each -- with one in five ITS frames lost on
//! the wire and a tight retry budget. The run must complete without
//! panicking, some exchanges must exhaust their budget and fall back to
//! CSMA, and the `DegradationStats` accounting is
//! printed as a JSON line so `scripts/check.sh --faults-smoke` can assert
//! on it. Exits nonzero if no CSMA fallback was observed (the fault plan
//! would then not be exercising the degradation path at all).

use copa::channel::{AntennaConfig, FaultPlan, TopologySampler};
use copa::core::ScenarioParams;
use copa::num::stats::mean;
use copa::sim::json::ToJson;
use copa::sim::run_degraded_suite;

fn main() {
    let suite = TopologySampler::default().suite(0xFA11, 240, AntennaConfig::CONSTRAINED_4X2);
    let plan = FaultPlan {
        frame_loss: 0.2,
        max_retries: 2,
        ..FaultPlan::none(0xFA11)
    };
    let params = ScenarioParams::default();

    let result = run_degraded_suite(&params, &suite, &plan, 4).expect("suite evaluation succeeds");
    let s = &result.stats;

    println!(
        "{} topologies, 20% frame loss, {} retries budget:",
        suite.len(),
        plan.max_retries
    );
    println!(
        "  exchanges {} | retried {} | retries {} | CSMA fallbacks {}",
        s.exchanges, s.retried, s.retries, s.csma_fallbacks
    );
    println!(
        "  mean achieved throughput {:.1} Mbps",
        mean(&result.throughputs_mbps)
    );
    let mut json = String::new();
    result.stats.write_json(&mut json);
    println!("{json}");

    assert_eq!(s.exchanges, suite.len() as u64);
    assert!(
        s.retried > 0,
        "20% loss over {} exchanges must trigger retries",
        suite.len()
    );
    assert!(
        s.csma_fallbacks > 0,
        "expected at least one exhausted retry budget -> CSMA fallback"
    );
    println!("ok: degradation path exercised, no panics");
}
