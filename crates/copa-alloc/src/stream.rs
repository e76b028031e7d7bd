//! Single-stream power allocation across subcarriers.
//!
//! Implements the paper's Algorithm 1 (*Equi-SNR*) and its interference-aware
//! generalization (*Equi-SINR*, used inside the Figure 6 iteration), plus the
//! mercury/waterfilling allocator (Lozano-Tulino-Verdu) used by the COPA+
//! variants and classic Gaussian waterfilling as a baseline the paper argues
//! against.
//!
//! All allocators share the same contract: given per-subcarrier effective
//! channel gains `g`, exogenous interference `I`, noise `N` and a power
//! budget `P`, return per-subcarrier powers summing to at most `P` together
//! with the predicted throughput of the best 802.11n MCS.

use copa_num::stats::mean;
use copa_phy::link::{RateChoice, ThroughputModel};
use copa_phy::mcs::Mcs;
use copa_phy::mmse_curves::MmseCurve;
use copa_phy::modulation::Modulation;

/// The per-stream allocation problem, borrowed so callers can point straight
/// into pooled gain/interference buffers (the engine's precoder
/// `stream_gains`) without cloning them.
#[derive(Clone, Copy, Debug)]
pub struct StreamProblem<'a> {
    /// Effective channel gain of this stream on each subcarrier
    /// (`|H w|^2`, linear).
    pub gains: &'a [f64],
    /// Per-subcarrier noise power, mW.
    pub noise_mw: f64,
    /// Per-subcarrier exogenous interference power, mW. `None` is the
    /// sequential / SNR case, bit-identical to an all-zeros vector (the
    /// floor is `noise + 0.0` either way).
    pub interference_mw: Option<&'a [f64]>,
    /// Power budget for this stream, mW.
    pub budget_mw: f64,
}

impl<'a> StreamProblem<'a> {
    /// An interference-free problem (Equi-SNR setting).
    pub fn interference_free(gains: &'a [f64], noise_mw: f64, budget_mw: f64) -> Self {
        Self {
            gains,
            noise_mw,
            interference_mw: None,
            budget_mw,
        }
    }

    /// Number of subcarriers.
    pub fn len(&self) -> usize {
        self.gains.len()
    }

    /// `true` when there are no subcarriers.
    pub fn is_empty(&self) -> bool {
        self.gains.is_empty()
    }

    /// Effective noise-plus-interference on subcarrier `s`.
    #[inline]
    fn floor(&self, s: usize) -> f64 {
        self.noise_mw + self.interference_mw.map_or(0.0, |v| v[s])
    }

    /// SINR under equal power split (the stock-802.11 reference point).
    pub fn equal_power_sinrs(&self) -> Vec<f64> {
        let p = self.budget_mw / self.len() as f64;
        (0..self.len())
            .map(|s| p * self.gains[s] / self.floor(s))
            .collect()
    }
}

/// Result of allocating one stream.
#[derive(Clone, Debug)]
pub struct StreamAllocation {
    /// Per-subcarrier powers, mW (zero = dropped).
    pub powers: Vec<f64>,
    /// Resulting per-subcarrier SINRs (zero on dropped subcarriers).
    pub sinrs: Vec<f64>,
    /// Predicted goodput of the best MCS, bits/s.
    pub throughput_bps: f64,
    /// The chosen MCS.
    pub mcs: Mcs,
    /// How many subcarriers were dropped.
    pub dropped: usize,
}

impl StreamAllocation {
    /// Total allocated power (should equal the budget unless everything was
    /// dropped).
    pub fn total_power_mw(&self) -> f64 {
        self.powers.iter().sum()
    }
}

impl Default for StreamAllocation {
    /// An empty allocation, used as a reusable output slot for
    /// [`equi_sinr_into`] (buffers grow on first use, then are reused).
    fn default() -> Self {
        Self {
            powers: Vec::new(),
            sinrs: Vec::new(),
            throughput_bps: 0.0,
            mcs: Mcs::TABLE[0],
            dropped: 0,
        }
    }
}

/// Reusable scratch for [`equi_sinr_into`]: grows to the subcarrier count
/// once, then steady-state allocation-free.
#[derive(Clone, Debug, Default)]
pub struct AllocScratch {
    order: Vec<usize>,
    quality: Vec<f64>,
    ratio: Vec<f64>,
}

/// Algorithm 1 / Equi-SINR: sort subcarriers by SINR-per-unit-power, try
/// every drop count, equalize SINR on the survivors, keep the
/// throughput-maximizing choice.
///
/// With zero interference this is exactly the paper's Equi-SNR; with the
/// interference vector filled in it is the Equi-SINR step of Figure 6.
pub fn equi_sinr(
    problem: &StreamProblem<'_>,
    model: &ThroughputModel,
    airtime: f64,
) -> StreamAllocation {
    let mut scratch = AllocScratch::default();
    let mut out = StreamAllocation::default();
    equi_sinr_into(problem, model, airtime, &mut scratch, &mut out);
    out
}

/// Zero-allocation Equi-SINR (see [`equi_sinr`]) with two pruning steps that
/// are provably bit-identical to the exhaustive search:
///
/// * **Drop-loop bound**: the goodput of any drop count is capped by
///   `top_mcs_phy_rate(n - drop) * airtime` (since `0 <= 1 - FER <= 1`), and
///   that cap is decreasing in `drop`, so once it falls to the running best
///   the loop stops. Replacement uses strict `>`, so a capped candidate could
///   never have replaced the best anyway.
/// * **MCS-walk bound**: rate selection uses
///   [`ThroughputModel::best_flat_above`] with the running best as floor,
///   which walks the MCS table top-down and stops early on the same kind of
///   cap; a `None` result means "does not strictly beat the floor", which is
///   exactly the no-replacement case.
// alloc-free: begin equi_sinr_into
pub fn equi_sinr_into(
    problem: &StreamProblem<'_>,
    model: &ThroughputModel,
    airtime: f64,
    scratch: &mut AllocScratch,
    out: &mut StreamAllocation,
) {
    let n = problem.len();
    assert!(n > 0, "allocation needs at least one subcarrier");

    // Quality metric: achievable SINR per unit power. Precomputed so the
    // sort comparator is two loads instead of two divisions (same values as
    // computing inside the comparator, so the same permutation).
    let AllocScratch {
        order,
        quality,
        ratio,
    } = scratch;
    quality.clear();
    quality.extend((0..n).map(|s| problem.gains[s] / problem.floor(s)));
    // The equalization denominator's per-subcarrier term, hoisted out of the
    // drop loop: each element is the exact expression the loop used to
    // recompute (`floor / gain`, same division, same operands), so the
    // left-to-right survivor sums below are bit-identical while the O(n^2)
    // drop sweep does adds instead of divisions.
    ratio.clear();
    ratio.extend((0..n).map(|s| problem.floor(s) / problem.gains[s].max(1e-300)));
    order.clear();
    order.extend(0..n);
    order.sort_by(|&a, &b| quality[a].total_cmp(&quality[b]));

    let top_mcs = Mcs::TABLE[Mcs::TABLE.len() - 1];
    let mut best: Option<(usize, f64, RateChoice)> = None;
    // Drop the `i` worst subcarriers; equalize SINR on the rest:
    //   p_j = S * floor_j / g_j,   S = P / sum(floor_j / g_j).
    for drop in 0..n {
        if let Some((_, _, b)) = &best {
            if top_mcs.phy_rate_bps_with(n - drop) * airtime <= b.goodput_bps {
                break;
            }
        }
        let survivors = &order[drop..];
        let denom: f64 = survivors.iter().map(|&s| ratio[s]).sum();
        if !denom.is_finite() || denom <= 0.0 {
            continue;
        }
        let target_sinr = problem.budget_mw / denom;
        // Every survivor sits at the same target SINR, so rate selection
        // takes the flat fast path: one BER evaluation per MCS instead of
        // one per subcarrier (bit-identical to `best(&[target; len])`).
        let floor_bps = best
            .as_ref()
            .map_or(f64::NEG_INFINITY, |(_, _, b)| b.goodput_bps);
        if let Some(choice) =
            model.best_flat_above(target_sinr, survivors.len(), airtime, floor_bps)
        {
            best = Some((drop, target_sinr, choice));
        }
    }
    // Materialize only the winning drop count's power vector.
    let (drop, target_sinr, choice) = best.expect("at least one drop count must evaluate");
    out.powers.clear();
    out.powers.resize(n, 0.0);
    out.sinrs.clear();
    out.sinrs.resize(n, 0.0);
    for &s in &order[drop..] {
        out.powers[s] = target_sinr * problem.floor(s) / problem.gains[s].max(1e-300);
        out.sinrs[s] = target_sinr;
    }
    out.throughput_bps = choice.goodput_bps;
    out.mcs = choice.mcs;
    out.dropped = drop;
}
// alloc-free: end equi_sinr_into

/// Subcarrier *selection only*: drop the worst `i` subcarriers but split
/// power equally among the survivors (no equalization). One of the two
/// halves of Algorithm 1; the paper reports that either half alone yields
/// 60-70% of the full improvement (section 4.2).
pub fn selection_only(
    problem: &StreamProblem<'_>,
    model: &ThroughputModel,
    airtime: f64,
) -> StreamAllocation {
    let n = problem.len();
    assert!(n > 0);
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        let qa = problem.gains[a] / problem.floor(a);
        let qb = problem.gains[b] / problem.floor(b);
        qa.total_cmp(&qb)
    });
    let mut best: Option<StreamAllocation> = None;
    for drop in 0..n {
        let survivors = &order[drop..];
        let per = problem.budget_mw / survivors.len() as f64;
        let sinr_of = |s: usize| per * problem.gains[s] / problem.floor(s);
        let active: Vec<f64> = survivors.iter().map(|&s| sinr_of(s)).collect();
        let choice = model.best(&active, airtime);
        if best
            .as_ref()
            .map(|b| choice.goodput_bps > b.throughput_bps)
            .unwrap_or(true)
        {
            let mut powers = vec![0.0; n];
            let mut sinrs = vec![0.0; n];
            for &s in survivors {
                powers[s] = per;
                sinrs[s] = sinr_of(s);
            }
            best = Some(StreamAllocation {
                powers,
                sinrs,
                throughput_bps: choice.goodput_bps,
                mcs: choice.mcs,
                dropped: drop,
            });
        }
    }
    best.expect("non-empty problem")
}

/// Power *allocation only*: equalize SINR across all subcarriers but never
/// drop any. The other half of Algorithm 1 (section 4.2).
pub fn allocation_only(
    problem: &StreamProblem<'_>,
    model: &ThroughputModel,
    airtime: f64,
) -> StreamAllocation {
    let n = problem.len();
    assert!(n > 0);
    let denom: f64 = (0..n)
        .map(|s| problem.floor(s) / problem.gains[s].max(1e-300))
        .sum();
    let target = problem.budget_mw / denom;
    let powers: Vec<f64> = (0..n)
        .map(|s| target * problem.floor(s) / problem.gains[s].max(1e-300))
        .collect();
    let sinrs = vec![target; n];
    let choice = model.best_flat(target, n, airtime);
    StreamAllocation {
        powers,
        sinrs,
        throughput_bps: choice.goodput_bps,
        mcs: choice.mcs,
        dropped: 0,
    }
}

/// Stock 802.11: equal power on every subcarrier, no dropping. The starting
/// point all COPA variants improve on.
pub fn equal_power(
    problem: &StreamProblem<'_>,
    model: &ThroughputModel,
    airtime: f64,
) -> StreamAllocation {
    let n = problem.len();
    let sinrs = problem.equal_power_sinrs();
    let choice = model.best(&sinrs, airtime);
    StreamAllocation {
        powers: vec![problem.budget_mw / n as f64; n],
        sinrs,
        throughput_bps: choice.goodput_bps,
        mcs: choice.mcs,
        dropped: 0,
    }
}

/// Classic Gaussian waterfilling: `p_j = max(0, mu - floor_j / g_j)`.
/// Included as the baseline the paper notes "performs poorly for practical
/// radios ... which transmit discrete constellations".
pub fn waterfilling(
    problem: &StreamProblem<'_>,
    model: &ThroughputModel,
    airtime: f64,
) -> StreamAllocation {
    let n = problem.len();
    let inv: Vec<f64> = (0..n)
        .map(|s| problem.floor(s) / problem.gains[s].max(1e-300))
        .collect();

    // Find the water level by bisection on total power.
    let mut lo = inv.iter().cloned().fold(f64::MAX, f64::min);
    let mut hi = lo + problem.budget_mw + inv.iter().sum::<f64>();
    for _ in 0..200 {
        let mu = 0.5 * (lo + hi);
        let used: f64 = inv.iter().map(|&v| (mu - v).max(0.0)).sum();
        if used > problem.budget_mw {
            hi = mu;
        } else {
            lo = mu;
        }
    }
    let mu = 0.5 * (lo + hi);
    let powers: Vec<f64> = inv.iter().map(|&v| (mu - v).max(0.0)).collect();
    finish(problem, powers, model, airtime)
}

/// Mercury/waterfilling for a given constellation: the KKT condition is
/// `g_j / floor_j * mmse(p_j g_j / floor_j) = lambda` for active subcarriers,
/// `p_j = 0` where `g_j / floor_j <= lambda`. We bisect on `lambda` to meet
/// the power budget; subcarrier selection falls out naturally.
pub fn mercury_waterfilling(
    problem: &StreamProblem<'_>,
    curve: &MmseCurve,
    model: &ThroughputModel,
    airtime: f64,
) -> StreamAllocation {
    let n = problem.len();
    let quality: Vec<f64> = (0..n)
        .map(|s| problem.gains[s].max(1e-300) / problem.floor(s))
        .collect();
    let q_max = quality.iter().cloned().fold(0.0, f64::max);
    if q_max <= 0.0 {
        return equal_power(problem, model, airtime);
    }

    let power_for = |lambda: f64| -> Vec<f64> {
        quality
            .iter()
            .map(|&q| {
                if q <= lambda {
                    0.0
                } else {
                    // p q = mmse^{-1}(lambda / q)  =>  p = snr / q.
                    curve.mmse_inverse(lambda / q) / q
                }
            })
            .collect()
    };

    // Bisect lambda in (0, q_max): smaller lambda -> more power used.
    let mut lo = q_max * 1e-12;
    let mut hi = q_max;
    for _ in 0..80 {
        let mid = (lo * hi).sqrt();
        let used: f64 = power_for(mid).iter().sum();
        if used > problem.budget_mw {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi / lo < 1.0 + 1e-12 {
            break;
        }
    }
    let mut powers = power_for((lo * hi).sqrt());
    // Normalize exactly to the budget.
    let used: f64 = powers.iter().sum();
    if used > 0.0 {
        let scale = problem.budget_mw / used;
        for p in powers.iter_mut() {
            *p *= scale;
        }
    }
    finish_for_modulation(problem, powers, curve.modulation(), model, airtime)
}

/// Iterated mercury/waterfilling over all four constellations, with
/// additional explicit drop counts layered on top (the paper's COPA+ uses
/// "iterated mercury/waterfilling (including subcarrier selection)").
pub fn mercury_best(
    problem: &StreamProblem<'_>,
    curves: &[MmseCurve],
    model: &ThroughputModel,
    airtime: f64,
) -> StreamAllocation {
    let mut best: Option<StreamAllocation> = None;
    for curve in curves {
        let alloc = mercury_waterfilling(problem, curve, model, airtime);
        if best
            .as_ref()
            .map(|b| alloc.throughput_bps > b.throughput_bps)
            .unwrap_or(true)
        {
            best = Some(alloc);
        }
    }
    // Also consider the Equi-SINR solution; mercury is not always better
    // once the single-MCS constraint and FER model are applied.
    let eq = equi_sinr(problem, model, airtime);
    match best {
        Some(b) if b.throughput_bps >= eq.throughput_bps => b,
        _ => eq,
    }
}

/// Evaluates a raw power vector: computes SINRs, picks the best MCS
/// (restricted to `modulation` if given), and packages the allocation.
fn finish(
    problem: &StreamProblem<'_>,
    powers: Vec<f64>,
    model: &ThroughputModel,
    airtime: f64,
) -> StreamAllocation {
    let sinrs: Vec<f64> = (0..problem.len())
        .map(|s| powers[s] * problem.gains[s] / problem.floor(s))
        .collect();
    let active: Vec<f64> = sinrs.iter().cloned().filter(|&x| x > 0.0).collect();
    let choice = model.best(&active, airtime);
    let dropped = problem.len() - active.len();
    StreamAllocation {
        powers,
        sinrs,
        throughput_bps: choice.goodput_bps,
        mcs: choice.mcs,
        dropped,
    }
}

fn finish_for_modulation(
    problem: &StreamProblem<'_>,
    powers: Vec<f64>,
    modulation: Modulation,
    model: &ThroughputModel,
    airtime: f64,
) -> StreamAllocation {
    let sinrs: Vec<f64> = (0..problem.len())
        .map(|s| powers[s] * problem.gains[s] / problem.floor(s))
        .collect();
    let active: Vec<f64> = sinrs.iter().cloned().filter(|&x| x > 0.0).collect();
    let dropped = problem.len() - active.len();
    let choice = Mcs::TABLE
        .iter()
        .filter(|m| m.modulation == modulation)
        .map(|&m| model.evaluate(m, &active, airtime))
        .max_by(|a, b| a.goodput_bps.total_cmp(&b.goodput_bps))
        .expect("every modulation appears in the MCS table");
    StreamAllocation {
        powers,
        sinrs,
        throughput_bps: choice.goodput_bps,
        mcs: choice.mcs,
        dropped,
    }
}

/// Convenience: mean SINR in dB of an allocation's active subcarriers.
pub fn mean_active_sinr_db(alloc: &StreamAllocation) -> f64 {
    let active: Vec<f64> = alloc.sinrs.iter().cloned().filter(|&x| x > 0.0).collect();
    copa_num::special::lin_to_db(mean(&active))
}

#[cfg(test)]
mod tests {
    use super::*;
    use copa_num::special::db_to_lin;
    use copa_num::SimRng;
    use copa_phy::ofdm::DATA_SUBCARRIERS;

    const NOISE: f64 = 1e-9;
    const BUDGET: f64 = 31.6 / 2.0; // half the 15 dBm budget (one of 2 streams)

    /// Gains of one exponential (Rayleigh-power) draw repeated on every
    /// subcarrier: mean gain ~ -60 dBm rx at 15 dBm tx => gain ~ 3e-8.
    fn rayleigh_gains(seed: u64) -> Vec<f64> {
        let mut rng = SimRng::seed_from(seed);
        vec![-rng.uniform().ln() * 3e-8; DATA_SUBCARRIERS]
    }

    fn fading_gains(seed: u64) -> Vec<f64> {
        let mut rng = SimRng::seed_from(seed);
        (0..DATA_SUBCARRIERS)
            .map(|_| {
                let u: f64 = rng.uniform().max(1e-9);
                -u.ln() * 3e-8
            })
            .collect()
    }

    fn clean(gains: &[f64]) -> StreamProblem<'_> {
        StreamProblem::interference_free(gains, NOISE, BUDGET)
    }

    #[test]
    fn equi_snr_conserves_power() {
        let g = fading_gains(1);
        let p = clean(&g);
        let model = ThroughputModel::default();
        let a = equi_sinr(&p, &model, 1.0);
        assert!((a.total_power_mw() - BUDGET).abs() < 1e-9 * BUDGET);
    }

    #[test]
    fn equi_snr_equalizes_active_sinrs() {
        let g = fading_gains(2);
        let p = clean(&g);
        let model = ThroughputModel::default();
        let a = equi_sinr(&p, &model, 1.0);
        let active: Vec<f64> = a.sinrs.iter().cloned().filter(|&x| x > 0.0).collect();
        assert!(!active.is_empty());
        let first = active[0];
        for &s in &active {
            assert!((s / first - 1.0).abs() < 1e-9, "SINRs not equalized");
        }
    }

    #[test]
    fn equi_snr_beats_equal_power_on_faded_channel() {
        let model = ThroughputModel::default();
        let mut wins = 0;
        for seed in 0..20 {
            let g = fading_gains(seed + 100);
            let p = clean(&g);
            let eq = equal_power(&p, &model, 1.0);
            let es = equi_sinr(&p, &model, 1.0);
            assert!(
                es.throughput_bps >= eq.throughput_bps - 1.0,
                "Equi-SNR must never lose to equal power (seed {seed})"
            );
            if es.throughput_bps > eq.throughput_bps * 1.001 {
                wins += 1;
            }
        }
        assert!(
            wins > 5,
            "Equi-SNR should strictly win on most faded channels, won {wins}/20"
        );
    }

    #[test]
    fn flat_channel_needs_no_dropping() {
        let g = vec![3e-8; DATA_SUBCARRIERS];
        let p = clean(&g);
        let model = ThroughputModel::default();
        let a = equi_sinr(&p, &model, 1.0);
        assert_eq!(a.dropped, 0);
        let eq = equal_power(&p, &model, 1.0);
        assert!((a.throughput_bps / eq.throughput_bps - 1.0).abs() < 1e-6);
    }

    #[test]
    fn deep_fades_get_dropped() {
        // A handful of catastrophic subcarriers should be dropped.
        let mut gains = vec![3e-8; DATA_SUBCARRIERS];
        for g in gains.iter_mut().take(6) {
            *g = 3e-12; // 40 dB fade
        }
        let p = clean(&gains);
        let model = ThroughputModel::default();
        let a = equi_sinr(&p, &model, 1.0);
        assert!(
            a.dropped >= 4,
            "expected deep fades dropped, got {}",
            a.dropped
        );
        for s in 0..6 {
            assert_eq!(
                a.powers[s], 0.0,
                "deep-faded subcarrier {s} should get no power"
            );
        }
    }

    #[test]
    fn equi_sinr_avoids_interfered_subcarriers() {
        // Strong interference on half the band: those subcarriers should be
        // dropped or heavily compensated.
        let g = vec![3e-8; DATA_SUBCARRIERS];
        let i: Vec<f64> = (0..DATA_SUBCARRIERS)
            .map(|s| if s < 26 { 1e-7 } else { 0.0 })
            .collect();
        let p = StreamProblem {
            interference_mw: Some(&i),
            ..clean(&g)
        };
        let model = ThroughputModel::default();
        let a = equi_sinr(&p, &model, 1.0);
        // Equalization puts more power where interference is, OR drops them;
        // either way the clean half never gets less power than a dirty
        // active subcarrier's clean-equivalent.
        assert!(a.throughput_bps > 0.0);
        let interfered_active: Vec<usize> = (0..26).filter(|&s| a.powers[s] > 0.0).collect();
        for &s in &interfered_active {
            assert!(
                a.powers[s] > a.powers[30],
                "interfered active subcarriers need more power"
            );
        }
    }

    #[test]
    fn waterfilling_conserves_power_and_fills_strong_subcarriers() {
        let g = fading_gains(7);
        let p = clean(&g);
        let model = ThroughputModel::default();
        let a = waterfilling(&p, &model, 1.0);
        assert!((a.total_power_mw() - BUDGET).abs() < 1e-6 * BUDGET);
        // Waterfilling gives MORE power to better subcarriers (opposite of
        // Equi-SNR's inversion) -- check correlation sign.
        let mut cov = 0.0;
        let gm = mean(p.gains);
        let pm = mean(&a.powers);
        for s in 0..p.len() {
            cov += (p.gains[s] - gm) * (a.powers[s] - pm);
        }
        assert!(cov > 0.0, "waterfilling should favor strong subcarriers");
    }

    #[test]
    fn mercury_conserves_budget_and_is_competitive() {
        let model = ThroughputModel::default();
        let curves: Vec<MmseCurve> = Modulation::ALL.iter().map(|&m| MmseCurve::new(m)).collect();
        for seed in 0..5 {
            let g = fading_gains(seed + 300);
            let p = clean(&g);
            let a = mercury_best(&p, &curves, &model, 1.0);
            assert!(a.total_power_mw() <= BUDGET * (1.0 + 1e-6));
            let eq = equal_power(&p, &model, 1.0);
            assert!(
                a.throughput_bps >= eq.throughput_bps * 0.99,
                "mercury should not lose to equal power (seed {seed})"
            );
        }
    }

    #[test]
    fn low_snr_drops_more() {
        let model = ThroughputModel::default();
        let g = fading_gains(42);
        let p_hi = clean(&g);
        let mut p_lo = p_hi;
        // 25 dB less power available.
        p_lo.budget_mw *= db_to_lin(-25.0);
        let a_hi = equi_sinr(&p_hi, &model, 1.0);
        let a_lo = equi_sinr(&p_lo, &model, 1.0);
        assert!(a_lo.throughput_bps < a_hi.throughput_bps);
        assert!(a_lo.dropped >= a_hi.dropped);
    }

    #[test]
    fn halves_of_algorithm1_are_partial() {
        // Section 4.2: "either one, by itself gives about 60-70% of the
        // improvement, but both are needed together for the full benefits".
        // On faded channels the combined allocator must dominate both
        // halves, and each half must dominate equal power.
        let model = ThroughputModel::default();
        let mut sel_wins = 0.0;
        let mut alloc_wins = 0.0;
        let mut n = 0.0;
        for seed in 0..25 {
            let g = fading_gains(seed + 900);
            let p = clean(&g);
            let eq = equal_power(&p, &model, 1.0).throughput_bps;
            let full = equi_sinr(&p, &model, 1.0).throughput_bps;
            let sel = selection_only(&p, &model, 1.0).throughput_bps;
            let alloc = allocation_only(&p, &model, 1.0).throughput_bps;
            assert!(
                sel >= eq - 1.0,
                "selection-only should not lose to equal power"
            );
            assert!(full >= sel - 1.0, "full algorithm dominates selection-only");
            assert!(
                full >= alloc - 1.0,
                "full algorithm dominates allocation-only"
            );
            if full > eq * 1.001 {
                sel_wins += (sel - eq) / (full - eq);
                alloc_wins += (alloc - eq) / (full - eq);
                n += 1.0;
            }
        }
        assert!(n > 5.0, "need improving cases to measure");
        let sel_frac = sel_wins / n;
        let alloc_frac = alloc_wins / n;
        // Selection alone captures the majority of the gain. (The paper
        // reports 60-70% for *each* half on its testbed channels; in our
        // more deeply faded synthetic channels, equalization without
        // dropping wastes its budget on 40 dB fades and captures much
        // less -- see EXPERIMENTS.md.)
        assert!(
            sel_frac > 0.5 && sel_frac <= 1.0,
            "selection-only share {sel_frac:.2}"
        );
        assert!(
            (0.0..=1.0).contains(&alloc_frac),
            "allocation-only share {alloc_frac:.2}"
        );
    }

    #[test]
    fn allocation_only_never_drops() {
        let g = fading_gains(55);
        let p = clean(&g);
        let model = ThroughputModel::default();
        let a = allocation_only(&p, &model, 1.0);
        assert_eq!(a.dropped, 0);
        assert!(a.powers.iter().all(|&x| x > 0.0));
        assert!((a.total_power_mw() - p.budget_mw).abs() < 1e-9 * p.budget_mw);
    }

    #[test]
    fn selection_only_splits_equally_among_survivors() {
        let g = fading_gains(56);
        let p = clean(&g);
        let model = ThroughputModel::default();
        let a = selection_only(&p, &model, 1.0);
        let active: Vec<f64> = a.powers.iter().cloned().filter(|&x| x > 0.0).collect();
        let first = active[0];
        assert!(active.iter().all(|&x| (x - first).abs() < 1e-12));
        assert!((a.total_power_mw() - p.budget_mw).abs() < 1e-9 * p.budget_mw);
    }

    /// The original exhaustive Equi-SINR search (no drop-loop bound, full
    /// MCS scan per drop count), kept verbatim as the bit-identity oracle
    /// for the pruned production path.
    fn exhaustive_reference(
        problem: &StreamProblem<'_>,
        model: &ThroughputModel,
        airtime: f64,
    ) -> StreamAllocation {
        let n = problem.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            let qa = problem.gains[a] / problem.floor(a);
            let qb = problem.gains[b] / problem.floor(b);
            qa.total_cmp(&qb)
        });
        let mut best: Option<(usize, f64, RateChoice)> = None;
        for drop in 0..n {
            let survivors = &order[drop..];
            let denom: f64 = survivors
                .iter()
                .map(|&s| problem.floor(s) / problem.gains[s].max(1e-300))
                .sum();
            if !denom.is_finite() || denom <= 0.0 {
                continue;
            }
            let target_sinr = problem.budget_mw / denom;
            let choice = model.best_flat(target_sinr, survivors.len(), airtime);
            if best
                .as_ref()
                .map(|(_, _, b)| choice.goodput_bps > b.goodput_bps)
                .unwrap_or(true)
            {
                best = Some((drop, target_sinr, choice));
            }
        }
        let (drop, target_sinr, choice) = best.expect("at least one drop count must evaluate");
        let mut powers = vec![0.0; n];
        let mut sinrs = vec![0.0; n];
        for &s in &order[drop..] {
            powers[s] = target_sinr * problem.floor(s) / problem.gains[s].max(1e-300);
            sinrs[s] = target_sinr;
        }
        StreamAllocation {
            powers,
            sinrs,
            throughput_bps: choice.goodput_bps,
            mcs: choice.mcs,
            dropped: drop,
        }
    }

    fn assert_allocs_bit_identical(a: &StreamAllocation, b: &StreamAllocation, ctx: &str) {
        assert_eq!(a.dropped, b.dropped, "{ctx}: dropped");
        assert_eq!(a.mcs.index, b.mcs.index, "{ctx}: mcs");
        assert_eq!(
            a.throughput_bps.to_bits(),
            b.throughput_bps.to_bits(),
            "{ctx}: throughput"
        );
        for s in 0..a.powers.len() {
            assert_eq!(
                a.powers[s].to_bits(),
                b.powers[s].to_bits(),
                "{ctx}: p[{s}]"
            );
            assert_eq!(
                a.sinrs[s].to_bits(),
                b.sinrs[s].to_bits(),
                "{ctx}: sinr[{s}]"
            );
        }
    }

    #[test]
    fn pruned_equi_sinr_is_bit_identical_to_exhaustive() {
        let model = ThroughputModel::default();
        for seed in 0..40 {
            // Mix of clean, interfered, and power-starved problems so the
            // pruning is exercised across very different drop counts.
            let interfered = seed % 3 == 0;
            let g = if interfered {
                rayleigh_gains(seed + 7000)
            } else {
                fading_gains(seed + 7000)
            };
            let i: Vec<f64> = (0..DATA_SUBCARRIERS)
                .map(|s| if interfered && s % 4 == 0 { 2e-8 } else { 0.0 })
                .collect();
            let mut p = StreamProblem {
                interference_mw: Some(&i),
                ..clean(&g)
            };
            if seed % 5 == 0 {
                p.budget_mw *= db_to_lin(-25.0);
            }
            for &airtime in &[1.0, 0.88] {
                let fast = equi_sinr(&p, &model, airtime);
                let slow = exhaustive_reference(&p, &model, airtime);
                assert_allocs_bit_identical(&fast, &slow, &format!("seed {seed} at {airtime}"));
            }
        }
    }

    #[test]
    fn equi_sinr_into_with_none_interference_matches_zero_vector() {
        let model = ThroughputModel::default();
        let mut scratch = AllocScratch::default();
        for seed in 0..10 {
            let g = fading_gains(seed + 5500);
            let p = clean(&g);
            let zeros = vec![0.0; DATA_SUBCARRIERS];
            let via_zeros = equi_sinr(
                &StreamProblem {
                    interference_mw: Some(&zeros),
                    ..p
                },
                &model,
                0.88,
            );
            let mut out = StreamAllocation::default();
            equi_sinr_into(&p, &model, 0.88, &mut scratch, &mut out);
            assert_allocs_bit_identical(&out, &via_zeros, &format!("seed {seed}"));
        }
    }

    #[test]
    fn rayleigh_smoke() {
        // Just ensure the randomized constructor path works end to end.
        let g = rayleigh_gains(9);
        let p = clean(&g);
        let model = ThroughputModel::default();
        let a = equi_sinr(&p, &model, 0.88);
        assert!(a.throughput_bps > 0.0);
        assert!(mean_active_sinr_db(&a).is_finite());
    }
}
