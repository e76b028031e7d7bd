//! Degraded-suite evaluation: topology suites under injected ITS faults.
//!
//! The paper's experiments assume every coordination exchange lands. This
//! runner re-runs a suite the way a deployment would experience it: each
//! topology runs [`Coordinator::run_exchange_with_faults`] -- the same
//! INIT / REQ / ACK exchange and retry policy the daemon runs -- over a
//! seeded [`FaultPlan`] medium, and a cell whose exchange exhausts the
//! budget falls back to stock CSMA for that coherence interval. Per-suite
//! [`DegradationStats`] quantify the damage.
//!
//! Each topology's engine uses the per-index seed of
//! [`crate::runner::evaluate_parallel`]. A coordinated topology reports the
//! COPA-fair outcome the Leader computed from the CSI that survived
//! compression, so a zero-fault run equals a clean
//! [`Coordinator::run_exchange`], not the plain runner's ideal-CSI
//! evaluation. A CSMA fallback needs no exchanged CSI and equals the plain
//! runner's `csma` outcome bit for bit.

use crate::json::{Obj, ToJson};
use crate::runner::{par_map_indexed, seed_for};
use copa_channel::faults::FaultPlan;
use copa_channel::Topology;
use copa_core::coordinator::Coordinator;
use copa_core::{CopaError, Engine, ScenarioParams, Strategy};

/// Per-suite accounting of how coordination degraded under faults.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DegradationStats {
    /// ITS exchanges attempted (one per topology).
    pub exchanges: u64,
    /// Exchanges that needed at least one retry.
    pub retried: u64,
    /// Total retries consumed across all exchanges.
    pub retries: u64,
    /// Exchanges that exhausted their retry budget and fell back to CSMA.
    pub csma_fallbacks: u64,
}

impl ToJson for DegradationStats {
    fn write_json(&self, out: &mut String) {
        Obj::new(out)
            .field("exchanges", &self.exchanges)
            .field("retried", &self.retried)
            .field("retries", &self.retries)
            .field("csma_fallbacks", &self.csma_fallbacks)
            .finish();
    }
}

/// One degraded suite run: the throughput each cell pair actually achieved
/// (COPA-fair when coordinated, stock CSMA when degraded) plus the fault
/// accounting.
#[derive(Clone, Debug)]
pub struct DegradedSuiteResult {
    /// Achieved aggregate throughput per topology, Mbps, in suite order.
    pub throughputs_mbps: Vec<f64>,
    /// The strategy each topology ended up running, in suite order.
    pub decisions: Vec<Strategy>,
    /// Suite-wide degradation accounting.
    pub stats: DegradationStats,
}

impl ToJson for DegradedSuiteResult {
    fn write_json(&self, out: &mut String) {
        Obj::new(out)
            .field("throughputs_mbps", &self.throughputs_mbps)
            .field("stats", &self.stats)
            .finish();
    }
}

/// Evaluates `suite` under `plan` with `threads` work-stealing workers.
///
/// Topology `idx` runs one exchange with AP 0 as Leader on an engine seeded
/// like [`crate::runner::evaluate_parallel`]'s, over the fault stream
/// `plan.for_exchange(idx)`. Both are independent of which worker claims
/// the topology, so throughputs and [`DegradationStats`] are bit-identical
/// across thread counts. Evaluation errors propagate as the first failure
/// in suite order without poisoning the worker pool.
pub fn run_degraded_suite(
    params: &ScenarioParams,
    suite: &[Topology],
    plan: &FaultPlan,
    threads: usize,
) -> Result<DegradedSuiteResult, CopaError> {
    let rows = par_map_indexed(
        suite.len(),
        threads,
        || (),
        |_, idx| {
            let mut p = *params;
            p.seed = seed_for(params, idx);
            Coordinator::new(Engine::new(p))
                .run_exchange_with_faults(&suite[idx], 0, plan, idx as u64)
                .map(|o| {
                    (
                        o.chosen().aggregate_mbps(),
                        o.decision(),
                        o.retries(),
                        o.is_degraded(),
                    )
                })
        },
    );
    let mut throughputs_mbps = Vec::with_capacity(rows.len());
    let mut decisions = Vec::with_capacity(rows.len());
    let mut stats = DegradationStats::default();
    for r in rows {
        let (mbps, decision, retries, degraded) = r?;
        throughputs_mbps.push(mbps);
        decisions.push(decision);
        stats.exchanges += 1;
        stats.retried += u64::from(retries > 0);
        stats.retries += u64::from(retries);
        stats.csma_fallbacks += u64::from(degraded);
    }
    Ok(DegradedSuiteResult {
        throughputs_mbps,
        decisions,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::evaluate_parallel;
    use copa_channel::{AntennaConfig, TopologySampler};

    fn suite(n: usize) -> Vec<Topology> {
        TopologySampler::default().suite(77, n, AntennaConfig::CONSTRAINED_4X2)
    }

    #[test]
    fn zero_fault_plan_is_bit_identical_to_plain_evaluation() {
        let suite = suite(12);
        let params = ScenarioParams::default();
        let degraded =
            run_degraded_suite(&params, &suite, &FaultPlan::none(123), 4).expect("no faults");
        assert_eq!(degraded.stats.exchanges, 12);
        assert_eq!(degraded.stats.retried, 0);
        assert_eq!(degraded.stats.retries, 0);
        assert_eq!(degraded.stats.csma_fallbacks, 0);
        for (idx, topology) in suite.iter().enumerate() {
            let mut p = params;
            p.seed = seed_for(&params, idx);
            let clean = Coordinator::new(Engine::new(p))
                .run_exchange(topology, 0)
                .expect("clean medium");
            assert_eq!(
                clean.evaluation.copa_fair.aggregate_mbps().to_bits(),
                degraded.throughputs_mbps[idx].to_bits()
            );
            assert_eq!(clean.decision, degraded.decisions[idx]);
        }

        // Under a harsh plan every CSMA fallback is the plain runner's
        // `csma` outcome: the fallback needs no exchanged CSI.
        let plan = FaultPlan {
            max_retries: 1,
            ..FaultPlan::lossy(5, 0.5)
        };
        let harsh = run_degraded_suite(&params, &suite, &plan, 4).expect("faults degrade");
        assert!(harsh.stats.csma_fallbacks > 0, "{:?}", harsh.stats);
        let plain = evaluate_parallel(&params, &suite, 4);
        for ((ev, &mbps), d) in plain
            .iter()
            .zip(&harsh.throughputs_mbps)
            .zip(&harsh.decisions)
        {
            if *d == Strategy::Csma {
                assert_eq!(ev.csma.aggregate_mbps().to_bits(), mbps.to_bits());
            }
        }
    }

    #[test]
    fn heavy_loss_causes_csma_fallbacks_without_panicking() {
        let suite = suite(16);
        let params = ScenarioParams::default();
        let plan = FaultPlan {
            max_retries: 1,
            ..FaultPlan::lossy(9, 0.6)
        };
        let r = run_degraded_suite(&params, &suite, &plan, 4).expect("faults degrade, not fail");
        assert_eq!(r.stats.exchanges, 16);
        assert!(
            r.stats.csma_fallbacks > 0,
            "60% loss with 1 retry must strand some exchanges: {:?}",
            r.stats
        );
        for (mbps, d) in r.throughputs_mbps.iter().zip(&r.decisions) {
            assert!(*mbps > 0.0, "CSMA fallback still carries traffic");
            if r.stats.csma_fallbacks == r.stats.exchanges {
                assert_eq!(*d, Strategy::Csma);
            }
        }
    }

    #[test]
    fn stats_and_throughputs_are_thread_count_invariant() {
        let suite = suite(10);
        let params = ScenarioParams::default();
        let plan = FaultPlan {
            frame_loss: 0.25,
            corruption: 0.1,
            stale_csi: 0.1,
            ..FaultPlan::none(0xFA117)
        };
        let one = run_degraded_suite(&params, &suite, &plan, 1).expect("run");
        for threads in [2, 8] {
            let many = run_degraded_suite(&params, &suite, &plan, threads).expect("run");
            assert_eq!(one.stats, many.stats, "{threads} threads");
            assert_eq!(one.decisions, many.decisions);
            for (a, b) in one.throughputs_mbps.iter().zip(&many.throughputs_mbps) {
                assert_eq!(a.to_bits(), b.to_bits(), "{threads} threads");
            }
        }
    }
}
