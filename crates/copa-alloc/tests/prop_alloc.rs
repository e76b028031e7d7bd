//! Property-based tests for the power allocators, on the in-repo
//! [`copa_num::prop`] harness.

use copa_alloc::stream::{equal_power, equi_sinr, waterfilling, StreamProblem};
use copa_num::prop::{check, Gen};
use copa_num::prop_assert;
use copa_phy::link::ThroughputModel;

const CASES: usize = 32;

/// Random per-subcarrier channel gains around a plausible indoor level.
fn gains(g: &mut Gen) -> Vec<f64> {
    (0..52).map(|_| g.f64_in(1e-10, 1e-6)).collect()
}

fn interference(g: &mut Gen) -> Vec<f64> {
    (0..52).map(|_| g.f64_in(0.0, 1e-9)).collect()
}

#[test]
fn equi_sinr_conserves_budget() {
    check("equi_sinr_conserves_budget", CASES, |gen| {
        let g = gains(gen);
        let i = interference(gen);
        let budget = gen.f64_in(1.0, 40.0);
        let p = StreamProblem {
            gains: &g,
            noise_mw: 2e-11,
            interference_mw: Some(&i),
            budget_mw: budget,
        };
        let model = ThroughputModel::default();
        let a = equi_sinr(&p, &model, 1.0);
        prop_assert!(
            (a.total_power_mw() - budget).abs() < 1e-6 * budget,
            "allocated {} of {}",
            a.total_power_mw(),
            budget
        );
        prop_assert!(a.powers.iter().all(|&x| x >= 0.0));
        Ok(())
    });
}

#[test]
fn equi_sinr_equalizes_survivors() {
    check("equi_sinr_equalizes_survivors", CASES, |gen| {
        let g = gains(gen);
        let i = interference(gen);
        let p = StreamProblem {
            gains: &g,
            noise_mw: 2e-11,
            interference_mw: Some(&i),
            budget_mw: 15.8,
        };
        let model = ThroughputModel::default();
        let a = equi_sinr(&p, &model, 1.0);
        let active: Vec<f64> = a.sinrs.iter().cloned().filter(|&x| x > 0.0).collect();
        prop_assert!(!active.is_empty());
        let first = active[0];
        for &s in &active {
            prop_assert!(
                (s / first - 1.0).abs() < 1e-6,
                "not equalized: {s} vs {first}"
            );
        }
        Ok(())
    });
}

#[test]
fn equi_sinr_never_below_equal_power() {
    check("equi_sinr_never_below_equal_power", CASES, |gen| {
        let g = gains(gen);
        let i = interference(gen);
        let p = StreamProblem {
            gains: &g,
            noise_mw: 2e-11,
            interference_mw: Some(&i),
            budget_mw: 15.8,
        };
        let model = ThroughputModel::default();
        let eq = equal_power(&p, &model, 1.0);
        let es = equi_sinr(&p, &model, 1.0);
        // Equal power with zero drops is in Equi-SINR's search space only
        // approximately (it equalizes instead); but its throughput should
        // essentially never be materially worse.
        prop_assert!(
            es.throughput_bps >= eq.throughput_bps * 0.999,
            "equi {} < equal {}",
            es.throughput_bps,
            eq.throughput_bps
        );
        Ok(())
    });
}

#[test]
fn waterfilling_conserves_budget() {
    check("waterfilling_conserves_budget", CASES, |gen| {
        let g = gains(gen);
        let budget = gen.f64_in(1.0, 40.0);
        let p = StreamProblem::interference_free(&g, 2e-11, budget);
        let model = ThroughputModel::default();
        let a = waterfilling(&p, &model, 1.0);
        prop_assert!((a.total_power_mw() - budget).abs() < 1e-4 * budget);
        prop_assert!(a.powers.iter().all(|&x| x >= 0.0));
        Ok(())
    });
}

#[test]
fn dropping_only_hurts_weakest() {
    check("dropping_only_hurts_weakest", CASES, |gen| {
        // Every dropped subcarrier must have quality <= every active one.
        let g = gains(gen);
        let p = StreamProblem::interference_free(&g, 2e-11, 15.8);
        let model = ThroughputModel::default();
        let a = equi_sinr(&p, &model, 1.0);
        let min_active_quality = (0..52)
            .filter(|&s| a.powers[s] > 0.0)
            .map(|s| p.gains[s])
            .fold(f64::MAX, f64::min);
        for s in 0..52 {
            if a.powers[s] == 0.0 {
                prop_assert!(
                    p.gains[s] <= min_active_quality + 1e-18,
                    "dropped a better subcarrier than one kept"
                );
            }
        }
        Ok(())
    });
}

#[test]
fn more_interference_never_helps() {
    check("more_interference_never_helps", CASES, |gen| {
        let g = gains(gen);
        let i = interference(gen);
        let model = ThroughputModel::default();
        let zeros = vec![0.0; 52];
        let clean = StreamProblem {
            gains: &g,
            noise_mw: 2e-11,
            interference_mw: Some(&zeros),
            budget_mw: 15.8,
        };
        let dirty = StreamProblem {
            gains: &g,
            noise_mw: 2e-11,
            interference_mw: Some(&i),
            budget_mw: 15.8,
        };
        let a_clean = equi_sinr(&clean, &model, 1.0);
        let a_dirty = equi_sinr(&dirty, &model, 1.0);
        prop_assert!(
            a_dirty.throughput_bps <= a_clean.throughput_bps + 1.0,
            "interference improved throughput?!"
        );
        Ok(())
    });
}
