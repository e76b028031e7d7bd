//! Subcarrier reuse analysis.
//!
//! Section 4.2 observes that in the single-antenna case "COPA has selected
//! a form of OFDMA, with some subcarriers being used by only one AP at a
//! time ... each subcarrier is used by the AP that can best make use of
//! it", and (in 4.2's COPA+ discussion) that true concurrent reuse of the
//! *same* subcarrier by both APs occurs in a few topologies. This module
//! classifies every subcarrier of a concurrent solution as unused, used
//! exclusively by one AP, or shared -- quantifying how much of COPA's gain
//! is frequency partitioning vs true spatial reuse.

use crate::json::{Obj, ToJson};
use copa_alloc::concurrent::{allocate_concurrent, AllocatorKind, ConcurrentProblem};
use copa_channel::Topology;
use copa_core::{prepare, ScenarioParams};
use copa_num::matrix::CMat;
use copa_phy::link::ThroughputModel;
use copa_phy::ofdm::DATA_SUBCARRIERS;
use copa_precoding::beamforming::beamform;
use copa_precoding::cross_gain_grid_into;

/// Per-topology subcarrier usage classification of a concurrent solution.
#[derive(Clone, Debug)]
pub struct ReuseStats {
    /// Subcarriers carrying no power from either AP.
    pub unused: usize,
    /// Subcarriers used by exactly one AP (the OFDMA pattern).
    pub exclusive: usize,
    /// Subcarriers used by both APs concurrently (true spatial reuse).
    pub shared: usize,
}

impl ReuseStats {
    /// Fraction of the band used exclusively by one AP.
    pub fn exclusive_fraction(&self) -> f64 {
        self.exclusive as f64 / DATA_SUBCARRIERS as f64
    }

    /// Fraction of the band truly shared.
    pub fn shared_fraction(&self) -> f64 {
        self.shared as f64 / DATA_SUBCARRIERS as f64
    }
}

/// Runs the concurrent (beamforming, no nulling -- the only option for
/// single-antenna APs) Equi-SINR allocation on a topology and classifies
/// the resulting subcarrier usage.
pub fn concurrent_reuse(topology: &Topology, params: &ScenarioParams) -> ReuseStats {
    let p = prepare(topology, params);
    let noise = topology.noise_per_subcarrier_mw();
    let budget = topology.tx_budget_mw();
    let streams = topology.config.max_streams();
    let model = ThroughputModel::default();

    let pre0 = beamform(&p.est[0][0], streams);
    let pre1 = beamform(&p.est[1][1], streams);
    let evm = params.impairments.evm_factor();
    let (mut w, mut hw) = (CMat::default(), CMat::default());
    let mut cross = [Vec::new(), Vec::new()];
    cross_gain_grid_into(&p.est[0][1], &pre0, evm, &mut w, &mut hw, &mut cross[0]);
    cross_gain_grid_into(&p.est[1][0], &pre1, evm, &mut w, &mut hw, &mut cross[1]);
    let problem = ConcurrentProblem {
        own_gains: [&pre0.stream_gains, &pre1.stream_gains],
        cross_gains: [&cross[0], &cross[1]],
        noise_mw: noise,
        budgets_mw: [budget, budget],
    };
    let sol = allocate_concurrent(&problem, AllocatorKind::EquiSinr, &[], &model, 1.0);

    let mut stats = ReuseStats {
        unused: 0,
        exclusive: 0,
        shared: 0,
    };
    for s in 0..DATA_SUBCARRIERS {
        let a = !sol.powers[0].is_dropped(s);
        let b = !sol.powers[1].is_dropped(s);
        match (a, b) {
            (false, false) => stats.unused += 1,
            (true, true) => stats.shared += 1,
            _ => stats.exclusive += 1,
        }
    }
    stats
}

/// Aggregates reuse statistics over a suite.
#[derive(Clone, Debug)]
pub struct ReuseSummary {
    /// Mean fraction of the band used exclusively by one AP.
    pub mean_exclusive: f64,
    /// Mean fraction truly shared.
    pub mean_shared: f64,
    /// Mean fraction unused.
    pub mean_unused: f64,
    /// Topologies where at least one subcarrier is shared.
    pub topologies_with_sharing: usize,
}

/// Summarizes [`concurrent_reuse`] over a suite.
pub fn reuse_summary(suite: &[Topology], params: &ScenarioParams) -> ReuseSummary {
    let stats: Vec<ReuseStats> = suite.iter().map(|t| concurrent_reuse(t, params)).collect();
    let n = stats.len() as f64;
    ReuseSummary {
        mean_exclusive: stats.iter().map(|s| s.exclusive_fraction()).sum::<f64>() / n,
        mean_shared: stats.iter().map(|s| s.shared_fraction()).sum::<f64>() / n,
        mean_unused: stats
            .iter()
            .map(|s| 1.0 - s.exclusive_fraction() - s.shared_fraction())
            .sum::<f64>()
            / n,
        topologies_with_sharing: stats.iter().filter(|s| s.shared > 0).count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copa_channel::{AntennaConfig, TopologySampler};

    #[test]
    fn reuse_classification_is_exhaustive() {
        let suite = TopologySampler::default().suite(0x0FD, 5, AntennaConfig::SINGLE);
        for t in &suite {
            let r = concurrent_reuse(t, &ScenarioParams::default());
            assert_eq!(r.unused + r.exclusive + r.shared, DATA_SUBCARRIERS);
        }
    }

    #[test]
    fn strong_interference_induces_ofdma_partitioning() {
        // With very strong mutual interference and no nulling possible
        // (1x1), concurrent senders should partition the band: a
        // significant exclusive fraction.
        let sampler = TopologySampler {
            gap_mean_db: 0.0,
            gap_sigma_db: 1.0,
            ..Default::default()
        };
        let suite = sampler.suite(0x0FE, 6, AntennaConfig::SINGLE);
        let summary = reuse_summary(&suite, &ScenarioParams::default());
        assert!(
            summary.mean_exclusive > 0.15,
            "strong interference should force partitioning: exclusive {:.2}",
            summary.mean_exclusive
        );
    }

    #[test]
    fn weak_interference_allows_sharing() {
        let suite: Vec<_> = TopologySampler::default()
            .suite(0x0FF, 6, AntennaConfig::SINGLE)
            .iter()
            .map(|t| t.with_weaker_interference(25.0))
            .collect();
        let summary = reuse_summary(&suite, &ScenarioParams::default());
        assert!(
            summary.mean_shared > 0.5,
            "weak interference should let both APs use most subcarriers: {:.2}",
            summary.mean_shared
        );
    }
}

impl ToJson for ReuseStats {
    fn write_json(&self, out: &mut String) {
        Obj::new(out)
            .field("unused", &self.unused)
            .field("exclusive", &self.exclusive)
            .field("shared", &self.shared)
            .finish();
    }
}

impl ToJson for ReuseSummary {
    fn write_json(&self, out: &mut String) {
        Obj::new(out)
            .field("mean_exclusive", &self.mean_exclusive)
            .field("mean_shared", &self.mean_shared)
            .field("mean_unused", &self.mean_unused)
            .field("topologies_with_sharing", &self.topologies_with_sharing)
            .finish();
    }
}
