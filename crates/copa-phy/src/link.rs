//! Link-level throughput prediction.
//!
//! Mirrors the paper's methodology (section 4.1): per-subcarrier SINR ->
//! uncoded BER -> coded BER -> frame error rate -> expected goodput over a
//! 4 ms transmit opportunity, including the MAC airtime efficiency supplied
//! by the caller (`copa-mac` computes it per scheme).
//!
//! The key 802.11 constraint is modeled faithfully: a single modulation and
//! convolutional code covers every active subcarrier, and the bit
//! interleaver spreads coded bits across subcarriers, so the decoder sees
//! the *average* of the per-subcarrier raw BERs. A few terrible subcarriers
//! therefore drag the whole frame down -- the effect COPA exploits by
//! dropping them.

use crate::coding::{coded_ber, frame_error_rate, Crossover};
use crate::mcs::Mcs;
use crate::modulation::Modulation;
use crate::ofdm::DATA_SUBCARRIERS;
use std::sync::OnceLock;

/// Default MPDU size used for frame-error conversion (a full-size data
/// frame; the paper aggregates MPDUs into 4 ms A-MPDUs with per-MPDU
/// delivery via block ACK).
pub const DEFAULT_MPDU_BYTES: usize = 1500;

/// Throughput model parameters.
#[derive(Clone, Copy, Debug)]
pub struct ThroughputModel {
    /// MPDU size in bytes for FER conversion.
    pub mpdu_bytes: usize,
}

impl Default for ThroughputModel {
    fn default() -> Self {
        Self {
            mpdu_bytes: DEFAULT_MPDU_BYTES,
        }
    }
}

/// Outcome of rate selection for one transmission.
#[derive(Clone, Copy, Debug)]
pub struct RateChoice {
    /// Chosen MCS.
    pub mcs: Mcs,
    /// Expected goodput in bits/s (PHY rate x (1 - FER) x airtime efficiency).
    pub goodput_bps: f64,
    /// Effective (subcarrier-averaged) uncoded BER at the chosen MCS.
    pub uncoded_ber: f64,
    /// Coded BER after Viterbi at the chosen MCS.
    pub coded_ber: f64,
    /// Frame error rate for an MPDU.
    pub fer: f64,
}

impl ThroughputModel {
    /// Effective raw BER seen by the (single) decoder: the mean of the
    /// per-active-subcarrier uncoded BERs (the interleaver mixes them).
    pub fn effective_uncoded_ber(&self, mcs: Mcs, sinrs: &[f64]) -> f64 {
        if sinrs.is_empty() {
            return 0.5;
        }
        sinrs
            .iter()
            .map(|&g| mcs.modulation.uncoded_ber(g))
            .sum::<f64>()
            / sinrs.len() as f64
    }

    /// Predicted goodput of one MCS over the given active cells.
    ///
    /// `sinrs` holds the linear SINR of every *active* (stream, subcarrier)
    /// cell; dropped subcarriers are simply absent and reduce the PHY rate
    /// proportionally. `airtime_efficiency` is the fraction of wall-clock
    /// time spent sending data symbols (from the MAC overhead model).
    pub fn evaluate(&self, mcs: Mcs, sinrs: &[f64], airtime_efficiency: f64) -> RateChoice {
        if sinrs.is_empty() {
            return RateChoice::no_cells(mcs);
        }
        let p = self.effective_uncoded_ber(mcs, sinrs);
        self.choice(mcs, sinrs.len(), p, &Crossover::new(p), airtime_efficiency)
    }

    /// The tail every evaluation shares: `mcs`'s choice over `n` active
    /// cells from its modulation's effective uncoded BER `p` and the
    /// crossover tables built from it.
    fn choice(
        &self,
        mcs: Mcs,
        n: usize,
        p: f64,
        crossover: &Crossover,
        airtime_efficiency: f64,
    ) -> RateChoice {
        let pb = crossover.coded_ber(mcs.rate);
        let fer = frame_error_rate(pb, self.mpdu_bytes);
        let goodput = mcs.phy_rate_bps_with(n) * (1.0 - fer) * airtime_efficiency;
        RateChoice {
            mcs,
            goodput_bps: goodput,
            uncoded_ber: p,
            coded_ber: pb,
            fer,
        }
    }

    /// Rate adaptation: the goodput-max MCS.
    ///
    /// Selects exactly what `max_by(total_cmp)` over every MCS's
    /// [`ThroughputModel::evaluate`] in table order selects (the *last* of
    /// equal maxima), by walking the table top-down and keeping the
    /// *first* strict maximum. For a positive finite airtime every goodput
    /// lies in `[0, phy_rate * airtime]` and that cap falls down the table,
    /// so the walk stops at the first MCS whose cap cannot beat the running
    /// best; for any other airtime it evaluates every MCS. MCSes sharing a
    /// modulation share its effective uncoded BER and crossover tables.
    pub fn best(&self, sinrs: &[f64], airtime_efficiency: f64) -> RateChoice {
        let n = sinrs.len();
        let prune = airtime_efficiency > 0.0 && airtime_efficiency.is_finite();
        let mut shared = PerModulation::new();
        let mut best: Option<RateChoice> = None;
        for &m in Mcs::TABLE.iter().rev() {
            if let Some(b) = &best {
                if prune && m.phy_rate_bps_with(n) * airtime_efficiency <= b.goodput_bps {
                    break;
                }
            }
            let c = if n == 0 {
                RateChoice::no_cells(m)
            } else {
                let (p, crossover) = shared.get(m, |m| self.effective_uncoded_ber(m, sinrs));
                self.choice(m, n, p, crossover, airtime_efficiency)
            };
            if best.is_none_or(|b| c.goodput_bps.total_cmp(&b.goodput_bps).is_gt()) {
                best = Some(c);
            }
        }
        best.expect("MCS table is non-empty")
    }

    /// [`ThroughputModel::effective_uncoded_ber`] for the flat SINR vector
    /// `[g; n]`, without materializing it. Every entry maps to the same
    /// per-subcarrier BER, so it is computed once and folded `n` times with
    /// the same left-to-right sum as the iterator version -- the result is
    /// bit-identical, at one `erfc` evaluation instead of `n`.
    pub fn effective_uncoded_ber_flat(&self, mcs: Mcs, g: f64, n: usize) -> f64 {
        if n == 0 {
            return 0.5;
        }
        let ber = mcs.modulation.uncoded_ber(g);
        let mut sum = 0.0f64;
        for _ in 0..n {
            sum += ber;
        }
        sum / n as f64
    }

    /// [`ThroughputModel::evaluate`] for the flat SINR vector `[g; n]`
    /// (bit-identical, allocation-free, one BER evaluation).
    pub fn evaluate_flat(&self, mcs: Mcs, g: f64, n: usize, airtime_efficiency: f64) -> RateChoice {
        if n == 0 {
            return RateChoice::no_cells(mcs);
        }
        let p = self.effective_uncoded_ber_flat(mcs, g, n);
        self.choice(mcs, n, p, &Crossover::new(p), airtime_efficiency)
    }

    /// [`ThroughputModel::best`] for the flat SINR vector `[g; n]`.
    ///
    /// This is the hot call in COPA's equi-SINR allocation: every surviving
    /// subcarrier is driven to the *same* target SINR, so rate selection
    /// there never needs a heterogeneous vector. Bit-identical to
    /// `best(&vec![g; n], airtime_efficiency)` (asserted by a unit test)
    /// while skipping `n - 1` of the `n` BER evaluations per MCS and the
    /// temporary vector.
    pub fn best_flat(&self, g: f64, n: usize, airtime_efficiency: f64) -> RateChoice {
        Mcs::TABLE
            .iter()
            .map(|&m| self.evaluate_flat(m, g, n, airtime_efficiency))
            .max_by(|a, b| a.goodput_bps.total_cmp(&b.goodput_bps))
            .expect("MCS table is non-empty")
    }

    /// Pruned [`ThroughputModel::best_flat`]: returns the goodput-max
    /// choice only when its goodput *strictly* exceeds `floor_bps`, and
    /// `None` otherwise.
    ///
    /// Walks the MCS table from the top. `phy_rate * airtime` caps any
    /// MCS's goodput (since `0 <= 1 - FER <= 1`), and bits-per-subcarrier
    /// is strictly decreasing down the table, so the walk stops at the
    /// first MCS whose cap cannot strictly beat the running best — usually
    /// after one or two BER evaluations instead of eight.
    ///
    /// Two further savings leave every result bit-identical:
    ///
    /// * **Bracket rejection.** A process-wide table bounds `1 - FER` for
    ///   each MCS over `g`'s SINR bin, so `phy_rate * ub * airtime` bounds
    ///   the goodput; an MCS whose bound cannot strictly beat the running
    ///   best is skipped without evaluating it (it could never have
    ///   replaced the best). Only the default MPDU size and a positive
    ///   airtime are bracketed.
    /// * **Per-modulation sharing.** MCSes 7/6/5, 4/3 and 2/1 each share a
    ///   constellation, so the walk computes the effective uncoded BER and
    ///   its crossover tables once per modulation and reuses them for each
    ///   code rate.
    ///
    /// Selection is bit-identical to `best_flat`: `max_by(total_cmp)` over
    /// the ascending table keeps the *last* of equal maxima, i.e. the
    /// highest-index maximal MCS, which is exactly what a descending walk
    /// keeping the *first* strict maximum returns; and any MCS skipped via
    /// its cap or its bracket could never strictly exceed `floor_bps`, so a
    /// `None` here means `best_flat(..).goodput_bps <= floor_bps` exactly.
    /// Both facts are locked down by unit tests below.
    pub fn best_flat_above(
        &self,
        g: f64,
        n: usize,
        airtime_efficiency: f64,
        floor_bps: f64,
    ) -> Option<RateChoice> {
        let bounds = if airtime_efficiency > 0.0 {
            self.bracket(g)
        } else {
            None
        };
        let mut shared = PerModulation::new();
        let mut best: Option<RateChoice> = None;
        let mut best_val = floor_bps;
        for &m in Mcs::TABLE.iter().rev() {
            let rate = m.phy_rate_bps_with(n);
            if rate * airtime_efficiency <= best_val {
                break;
            }
            // Same operation order as the goodput itself, so with
            // `ub >= 1 - FER` monotone rounding makes the bound exact.
            if bounds.is_some_and(|ub| rate * ub[m.index as usize] * airtime_efficiency <= best_val)
            {
                continue;
            }
            let c = if n == 0 {
                RateChoice::no_cells(m)
            } else {
                let (p, crossover) = shared.get(m, |m| self.effective_uncoded_ber_flat(m, g, n));
                self.choice(m, n, p, crossover, airtime_efficiency)
            };
            if c.goodput_bps > best_val {
                best_val = c.goodput_bps;
                best = Some(c);
            }
        }
        best
    }

    /// Upper bounds on `1 - FER` for every MCS (by index) at any SINR in
    /// `g`'s [`bracket_table`] bin, or `None` when there is no bound: SINRs
    /// outside the table, non-positive or NaN SINRs, and a non-default
    /// `mpdu_bytes` (the table is built for [`DEFAULT_MPDU_BYTES`]).
    fn bracket(&self, g: f64) -> Option<&'static McsBounds> {
        if self.mpdu_bytes != DEFAULT_MPDU_BYTES {
            return None;
        }
        let bin = g.to_bits() >> BRACKET_SHIFT;
        if !(BRACKET_LO..BRACKET_HI).contains(&bin) {
            return None;
        }
        Some(&bracket_table()[(bin - BRACKET_LO) as usize])
    }

    /// Section 4.6 "multiple decoders": an independent MCS per subcarrier
    /// (one decoder per coding rate). Upper-bounds per-subcarrier rate
    /// adaptation by treating each subcarrier's coded stream independently.
    pub fn multi_decoder_goodput(&self, sinrs: &[f64], airtime_efficiency: f64) -> f64 {
        sinrs
            .iter()
            .map(|&g| {
                Mcs::TABLE
                    .iter()
                    .map(|&m| {
                        let pb = coded_ber(m.modulation.uncoded_ber(g), m.rate);
                        let fer = frame_error_rate(pb, self.mpdu_bytes);
                        m.bits_per_subcarrier() / crate::ofdm::SYMBOL_DURATION_S * (1.0 - fer)
                    })
                    .fold(0.0, f64::max)
            })
            .sum::<f64>()
            * airtime_efficiency
    }
}

impl RateChoice {
    /// The choice over no active cells: nothing is sent.
    fn no_cells(mcs: Mcs) -> Self {
        RateChoice {
            mcs,
            goodput_bps: 0.0,
            uncoded_ber: 0.5,
            coded_ber: 0.5,
            fer: 1.0,
        }
    }
}

/// The top-down MCS walks' per-modulation memo: the effective uncoded BER
/// of the modulation last evaluated and its crossover tables. Consecutive
/// MCSes sharing a constellation reuse both, which is the same arithmetic
/// the per-MCS path repeats, so every result keeps its bits.
struct PerModulation {
    key: Option<Modulation>,
    p: f64,
    crossover: Crossover,
}

impl PerModulation {
    fn new() -> Self {
        Self {
            key: None,
            p: 0.0,
            crossover: Crossover::new(0.0),
        }
    }

    /// The uncoded BER of `mcs`'s modulation (computed by `ber` on a
    /// miss) and its crossover tables.
    fn get(&mut self, mcs: Mcs, ber: impl FnOnce(Mcs) -> f64) -> (f64, &Crossover) {
        if self.key != Some(mcs.modulation) {
            self.p = ber(mcs);
            self.crossover = Crossover::new(self.p);
            self.key = Some(mcs.modulation);
        }
        (self.p, &self.crossover)
    }
}

/// SINR bins of the [`bracket_table`] are the high 16 bits of the f64
/// (sign, exponent, 4 mantissa bits): 16 bins per octave, every bin a
/// half-open interval `[lo, hi)` of SINRs whose bounds are exact f64s.
const BRACKET_SHIFT: u32 = 48;
/// First bin: `2^-4` (-12 dB).
const BRACKET_LO: u64 = (1023 - 4) << 4;
/// One past the last bin: `2^20` (60.2 dB).
const BRACKET_HI: u64 = (1023 + 20) << 4;
const BRACKET_BINS: usize = (BRACKET_HI - BRACKET_LO) as usize;

/// One value per MCS, indexed by [`Mcs::index`].
type McsBounds = [f64; Mcs::TABLE.len()];

/// The bracket table: for every SINR bin of `[2^-4, 2^20)` and every MCS, an
/// upper bound on `1 - FER` at [`DEFAULT_MPDU_BYTES`], built lazily once
/// per process (~3k exact evaluations, well under a millisecond).
///
/// Soundness: `1 - FER` rises with SINR for every MCS (the uncoded BER
/// falls; the union bound and the FER rise with it), so its value at a
/// bin's upper edge bounds every SINR in the bin. That edge value comes
/// from the exact [`ThroughputModel::evaluate_flat`] at `n = 1`. The margin
/// (relative `1e-6`, absolute `1e-12`) covers what floating point adds: the
/// `n`-fold BER sum's rounding (below `52` ulp relative, amplified by the
/// union bound's degree and the 12,000-bit frame exponent to well under
/// `1e-9`), last-ulp wobble in `erfc` and the union-bound terms, and one ulp
/// of `1.0` where `1 - FER` is near zero. A unit property test checks the
/// bound at random and bin-edge SINRs for every MCS and `n` in `0..=52`.
fn bracket_table() -> &'static [McsBounds; BRACKET_BINS] {
    static TABLE: OnceLock<[McsBounds; BRACKET_BINS]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let model = ThroughputModel::default();
        let mut t = [[0.0; Mcs::TABLE.len()]; BRACKET_BINS];
        for (i, row) in t.iter_mut().enumerate() {
            let edge = f64::from_bits((BRACKET_LO + i as u64 + 1) << BRACKET_SHIFT);
            for (ub, &m) in row.iter_mut().zip(Mcs::TABLE.iter()) {
                let v = 1.0 - model.evaluate_flat(m, edge, 1, 1.0).fer;
                *ub = (v + v * 1e-6 + 1e-12).min(1.0);
            }
        }
        t
    })
}

/// Minimum SINR (dB) at which each MCS achieves ~90% frame delivery on a
/// flat channel -- a convenience for quick sanity checks and examples.
pub fn mcs_sensitivity_db(model: &ThroughputModel, mcs: Mcs) -> f64 {
    let mut lo = -5.0;
    let mut hi = 40.0;
    let flat = |db: f64| {
        let g = copa_num::special::db_to_lin(db);
        let sinrs = vec![g; DATA_SUBCARRIERS];
        model.evaluate(mcs, &sinrs, 1.0).fer
    };
    if flat(hi) > 0.1 {
        return f64::INFINITY;
    }
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if flat(mid) > 0.1 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use copa_num::prop::{check, Gen};
    use copa_num::prop_assert;
    use copa_num::special::db_to_lin;

    fn flat(db: f64) -> Vec<f64> {
        vec![db_to_lin(db); DATA_SUBCARRIERS]
    }

    #[test]
    fn high_snr_picks_top_mcs_at_full_rate() {
        let model = ThroughputModel::default();
        let choice = model.best(&flat(35.0), 1.0);
        assert_eq!(choice.mcs.index, 7);
        assert!(
            (choice.goodput_bps / 1e6 - 65.0).abs() < 0.5,
            "{}",
            choice.goodput_bps / 1e6
        );
        assert!(choice.fer < 1e-3);
    }

    #[test]
    fn low_snr_picks_robust_mcs() {
        let model = ThroughputModel::default();
        let choice = model.best(&flat(4.0), 1.0);
        assert!(choice.mcs.index <= 1, "picked {}", choice.mcs);
        assert!(choice.goodput_bps > 0.0);
    }

    #[test]
    fn goodput_monotone_in_snr() {
        let model = ThroughputModel::default();
        let mut prev = 0.0;
        for db in (0..40).step_by(2) {
            let g = model.best(&flat(db as f64), 1.0).goodput_bps;
            assert!(g >= prev - 1.0, "goodput dropped at {db} dB");
            prev = g;
        }
    }

    #[test]
    fn one_bad_subcarrier_drags_down_throughput() {
        // The single-decoder effect that motivates COPA: 51 great subcarriers
        // + 1 terrible one forces a lower MCS / higher FER.
        let model = ThroughputModel::default();
        let clean = model.best(&flat(30.0), 1.0);
        let mut dirty = flat(30.0);
        for s in dirty.iter_mut().take(4) {
            *s = db_to_lin(2.0);
        }
        let dirty_choice = model.best(&dirty, 1.0);
        assert!(
            dirty_choice.goodput_bps < 0.8 * clean.goodput_bps,
            "bad subcarriers should hurt: {} vs {}",
            dirty_choice.goodput_bps,
            clean.goodput_bps
        );
        // Dropping them (COPA's move) recovers most of the loss.
        let dropped: Vec<f64> = flat(30.0).into_iter().take(48).collect();
        let dropped_choice = model.best(&dropped, 1.0);
        assert!(dropped_choice.goodput_bps > dirty_choice.goodput_bps);
    }

    #[test]
    fn airtime_efficiency_scales_linearly() {
        let model = ThroughputModel::default();
        let full = model.best(&flat(25.0), 1.0).goodput_bps;
        let half = model.best(&flat(25.0), 0.5).goodput_bps;
        assert!((half / full - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_cells_give_zero() {
        let model = ThroughputModel::default();
        assert_eq!(model.best(&[], 1.0).goodput_bps, 0.0);
        assert_eq!(model.multi_decoder_goodput(&[], 1.0), 0.0);
    }

    #[test]
    fn multi_decoder_never_worse_on_dispersive_channel() {
        let model = ThroughputModel::default();
        // Alternating strong/weak subcarriers.
        let sinrs: Vec<f64> = (0..DATA_SUBCARRIERS)
            .map(|i| db_to_lin(if i % 2 == 0 { 30.0 } else { 8.0 }))
            .collect();
        let single = model.best(&sinrs, 1.0).goodput_bps;
        let multi = model.multi_decoder_goodput(&sinrs, 1.0);
        assert!(
            multi >= single,
            "multi-decoder {multi} should be >= single {single}"
        );
    }

    #[test]
    fn best_flat_is_bit_identical_to_best() {
        // The equi-SINR allocator relies on this exactly: `best_flat(g, n)`
        // must reproduce `best(&[g; n])` to the last bit, not approximately.
        let model = ThroughputModel::default();
        for n in [0usize, 1, 2, 13, DATA_SUBCARRIERS] {
            for db in [-3.0, 0.0, 4.7, 11.2, 19.9, 27.3, 38.0] {
                let g = db_to_lin(db);
                let vec_choice = model.best(&vec![g; n], 1.0);
                let flat_choice = model.best_flat(g, n, 1.0);
                assert_eq!(vec_choice.mcs.index, flat_choice.mcs.index);
                assert_eq!(
                    vec_choice.goodput_bps.to_bits(),
                    flat_choice.goodput_bps.to_bits(),
                    "goodput differs at n={n} db={db}"
                );
                assert_eq!(
                    vec_choice.uncoded_ber.to_bits(),
                    flat_choice.uncoded_ber.to_bits()
                );
                assert_eq!(
                    vec_choice.coded_ber.to_bits(),
                    flat_choice.coded_ber.to_bits()
                );
                assert_eq!(vec_choice.fer.to_bits(), flat_choice.fer.to_bits());
            }
        }
    }

    #[test]
    fn best_flat_above_is_bit_identical_to_best_flat() {
        // The pruned walk must reproduce `best_flat`'s winner exactly
        // (including the descending-first-max == ascending-last-max tie
        // rule) whenever the winner strictly beats the floor, and return
        // `None` exactly when it does not.
        let model = ThroughputModel::default();
        for n in [0usize, 1, 2, 13, DATA_SUBCARRIERS] {
            for db in [-10.0, -3.0, 0.0, 4.7, 11.2, 19.9, 27.3, 38.0, 60.0] {
                let g = db_to_lin(db);
                for airtime in [1.0, 0.88] {
                    let full = model.best_flat(g, n, airtime);
                    // Floors spanning "always wins" to "never wins", plus
                    // the exact winner value (strictness boundary).
                    for floor in [
                        f64::NEG_INFINITY,
                        0.0,
                        full.goodput_bps * 0.5,
                        full.goodput_bps,
                        full.goodput_bps * 2.0 + 1.0,
                    ] {
                        let pruned = model.best_flat_above(g, n, airtime, floor);
                        if full.goodput_bps > floor {
                            let p = pruned.expect("winner beats floor");
                            assert_eq!(p.mcs.index, full.mcs.index, "n={n} db={db}");
                            assert_eq!(p.goodput_bps.to_bits(), full.goodput_bps.to_bits());
                            assert_eq!(p.uncoded_ber.to_bits(), full.uncoded_ber.to_bits());
                            assert_eq!(p.coded_ber.to_bits(), full.coded_ber.to_bits());
                            assert_eq!(p.fer.to_bits(), full.fer.to_bits());
                        } else {
                            assert!(pruned.is_none(), "n={n} db={db} floor={floor}");
                        }
                    }
                }
            }
        }
    }

    /// Rate selection as `max_by(total_cmp)` over the ascending table, every
    /// MCS evaluated: the reference the top-down [`ThroughputModel::best`]
    /// walk must match.
    fn best_ascending(model: &ThroughputModel, sinrs: &[f64], airtime: f64) -> RateChoice {
        Mcs::TABLE
            .iter()
            .map(|&m| model.evaluate(m, sinrs, airtime))
            .max_by(|a, b| a.goodput_bps.total_cmp(&b.goodput_bps))
            .expect("MCS table is non-empty")
    }

    fn assert_same_choice(a: &RateChoice, b: &RateChoice) -> Result<(), String> {
        let same = a.mcs.index == b.mcs.index
            && a.goodput_bps.to_bits() == b.goodput_bps.to_bits()
            && a.uncoded_ber.to_bits() == b.uncoded_ber.to_bits()
            && a.coded_ber.to_bits() == b.coded_ber.to_bits()
            && a.fer.to_bits() == b.fer.to_bits();
        if same {
            Ok(())
        } else {
            Err(format!("{a:?} != {b:?}"))
        }
    }

    /// SINRs the walks must handle: a log-uniform draw over -20..70 dB,
    /// or one of the awkward values.
    fn any_sinr(gen: &mut Gen) -> f64 {
        const ODD: [f64; 9] = [
            0.0,
            -0.0,
            -1.5,
            5e-324,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        if gen.usize_in(0, 8) == 0 {
            *gen.pick(&ODD)
        } else {
            10f64.powf(gen.f64_in(-2.0, 7.0))
        }
    }

    #[test]
    fn best_walk_is_bit_identical_to_ascending_max_by() {
        let model = ThroughputModel::default();
        let airtimes = [1.0, 0.88, 1e-300, 0.0, -0.0, -0.5, f64::INFINITY, f64::NAN];
        check("best() walk == ascending max_by(total_cmp)", 512, |gen| {
            let n = gen.usize_in(0, DATA_SUBCARRIERS + 1);
            let sinrs: Vec<f64> = (0..n).map(|_| any_sinr(gen)).collect();
            let airtime = if gen.bool() {
                *gen.pick(&airtimes)
            } else {
                gen.f64_in(1e-3, 1.0)
            };
            assert_same_choice(
                &model.best(&sinrs, airtime),
                &best_ascending(&model, &sinrs, airtime),
            )
        });
        // Constant vectors across every MCS's waterfall, where a
        // non-positive or infinite airtime would defeat cap pruning.
        let sweep = (-20..=160).map(|i| db_to_lin(i as f64 * 0.25));
        let gs: Vec<f64> = sweep.chain([f64::NAN, f64::INFINITY, 0.0, -1.0]).collect();
        for airtime in airtimes {
            assert_same_choice(
                &model.best(&[], airtime),
                &best_ascending(&model, &[], airtime),
            )
            .expect("empty vector");
            for &g in &gs {
                let cells = [g; 5];
                assert_same_choice(
                    &model.best(&cells, airtime),
                    &best_ascending(&model, &cells, airtime),
                )
                .expect("constant vector");
            }
        }
    }

    #[test]
    fn bracket_bounds_every_flat_goodput() {
        // `best_flat_above` skips an MCS when `rate * ub * airtime` cannot
        // beat the running best; that is only exact if the bound holds for
        // every SINR, cell count and airtime the walk can see.
        let model = ThroughputModel::default();
        let bound_holds = |g: f64, n: usize, airtime: f64| -> Result<(), String> {
            let bounds = model.bracket(g);
            for m in Mcs::TABLE {
                let ub = bounds.map_or(1.0, |b| b[m.index as usize]);
                let c = model.evaluate_flat(m, g, n, airtime);
                let rate = m.phy_rate_bps_with(n);
                prop_assert!(
                    1.0 - c.fer <= ub,
                    "1 - FER {} > ub {ub} for {m} at g={g:e}, n={n}",
                    1.0 - c.fer
                );
                prop_assert!(
                    c.goodput_bps <= rate * ub * airtime,
                    "goodput {} > cap x ub for {m} at g={g:e}, n={n}, airtime={airtime:e}",
                    c.goodput_bps
                );
            }
            Ok(())
        };
        check("bracket upper-bounds 1 - FER", 2048, |gen| {
            let g = any_sinr(gen);
            let n = gen.usize_in(0, DATA_SUBCARRIERS + 1);
            let airtime = if gen.bool() {
                gen.f64_in(1e-6, 1.0)
            } else {
                *gen.pick(&[1.0, 5e-324, f64::MIN_POSITIVE, 0.5])
            };
            bound_holds(g, n, airtime)
        });
        // Every bin edge, and one ulp either side, across the whole table
        // and a few bins past both ends.
        for bin in BRACKET_LO - 2..=BRACKET_HI + 2 {
            let edge = f64::from_bits(bin << BRACKET_SHIFT);
            for g in [
                edge,
                f64::from_bits(edge.to_bits() - 1),
                f64::from_bits(edge.to_bits() + 1),
            ] {
                for n in [1, 2, 7, 13, 31, 48, DATA_SUBCARRIERS] {
                    bound_holds(g, n, 1.0).expect("bin edge");
                }
            }
        }
        // A non-default MPDU size is never bracketed.
        let long = ThroughputModel { mpdu_bytes: 4000 };
        assert!(long.bracket(db_to_lin(20.0)).is_none());
        assert!(model.bracket(db_to_lin(20.0)).is_some());
    }

    #[test]
    fn sensitivity_thresholds_increase_with_mcs() {
        let model = ThroughputModel::default();
        let mut prev = f64::NEG_INFINITY;
        for mcs in Mcs::TABLE {
            let t = mcs_sensitivity_db(&model, mcs);
            assert!(t > prev, "{mcs} threshold {t} <= previous {prev}");
            prev = t;
        }
        // MCS0 decodes somewhere in the low single digits of dB.
        let t0 = mcs_sensitivity_db(&model, Mcs::TABLE[0]);
        assert!((0.0..8.0).contains(&t0), "MCS0 threshold {t0}");
    }
}
