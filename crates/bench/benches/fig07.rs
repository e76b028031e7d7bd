//! Figure 7: per-subcarrier uncoded BER with COPA's allocation vs no power
//! allocation ("NoPA"), same nulling precoder -- COPA drops bad subcarriers
//! and wins on bitrate.

use copa_alloc::stream::{equi_sinr, StreamProblem};
use copa_bench::harness::{black_box, Criterion};
use copa_channel::AntennaConfig;
use copa_core::ScenarioParams;
use copa_phy::link::ThroughputModel;
use copa_sim::{fig7, standard_suite};

fn print_reproduction() {
    let suite = standard_suite(AntennaConfig::CONSTRAINED_4X2);
    // The paper showcases a topology where COPA drops several subcarriers;
    // scan the suite for a comparable one (fall back to the first).
    let params = ScenarioParams::default();
    let f = suite
        .iter()
        .map(|t| fig7(t, &params))
        .find(|f| f.dropped.len() >= 4)
        .unwrap_or_else(|| fig7(&suite[0], &params));
    println!("== Figure 7: uncoded BER per subcarrier (stream 0, client 1) ==");
    println!(
        "COPA {:.1} Mbps vs NoPA {:.1} Mbps (paper: 32.4 vs 12.6); {} subcarriers dropped (paper: 8); MCS{}",
        f.copa_mbps,
        f.nopa_mbps,
        f.dropped.len(),
        f.mcs_index
    );
    println!("{:>4} {:>12} {:>12}", "sc", "COPA BER", "NoPA BER");
    for s in 0..f.ber_nopa.len() {
        match f.ber_copa[s] {
            Some(b) => println!("{s:>4} {:>12.2e} {:>12.2e}", b, f.ber_nopa[s]),
            None => println!("{s:>4} {:>12} {:>12.2e}", "dropped", f.ber_nopa[s]),
        }
    }
    println!();
}

fn main() {
    print_reproduction();
    let mut c = Criterion::default().configure_from_args();
    c.bench_function("equi_sinr_allocation_52sc", |b| {
        let mut rng = copa_num::SimRng::seed_from(7);
        let gains: Vec<f64> = (0..52)
            .map(|_| -rng.uniform().max(1e-12).ln() * 3e-8)
            .collect();
        let problem = StreamProblem::interference_free(&gains, 1e-9 / 52.0, 15.8);
        let model = ThroughputModel::default();
        b.iter(|| black_box(equi_sinr(&problem, &model, 0.9)))
    });
    c.final_summary();
}
