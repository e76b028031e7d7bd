//! 802.11 convolutional coding: encoder, puncturing, Viterbi decoder, and
//! the union-bound coded-BER model.
//!
//! The paper's throughput predictor turns measured SINR into uncoded BER and
//! then into coded BER "for 802.11n's different coding rates" using the
//! standard convolutional-code analysis (Tse & Viswanath). We implement the
//! same union bound, plus a real K=7 (133, 171) encoder and hard-decision
//! Viterbi decoder so tests can validate the analytic model bit-by-bit.

/// 802.11 convolutional code rates (mother code K=7, generators 133/171
/// octal; higher rates by puncturing).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CodeRate {
    /// Rate 1/2 (unpunctured mother code).
    R12,
    /// Rate 2/3.
    R23,
    /// Rate 3/4.
    R34,
    /// Rate 5/6.
    R56,
}

impl CodeRate {
    /// All rates, most to least robust.
    pub const ALL: [CodeRate; 4] = [CodeRate::R12, CodeRate::R23, CodeRate::R34, CodeRate::R56];

    /// The code rate as a fraction.
    pub fn fraction(self) -> f64 {
        match self {
            CodeRate::R12 => 0.5,
            CodeRate::R23 => 2.0 / 3.0,
            CodeRate::R34 => 0.75,
            CodeRate::R56 => 5.0 / 6.0,
        }
    }

    /// `(numerator, denominator)` of the rate.
    pub fn ratio(self) -> (usize, usize) {
        match self {
            CodeRate::R12 => (1, 2),
            CodeRate::R23 => (2, 3),
            CodeRate::R34 => (3, 4),
            CodeRate::R56 => (5, 6),
        }
    }

    /// Puncturing pattern pairs `(keep_a, keep_b)` per input bit, cycling.
    /// `a` is the output of generator 133, `b` of generator 171.
    /// (Public alias for the soft decoder.)
    pub fn puncture_pattern_public(self) -> &'static [(bool, bool)] {
        self.puncture_pattern()
    }

    /// Puncturing pattern pairs `(keep_a, keep_b)` per input bit, cycling.
    fn puncture_pattern(self) -> &'static [(bool, bool)] {
        match self {
            CodeRate::R12 => &[(true, true)],
            CodeRate::R23 => &[(true, true), (true, false)],
            CodeRate::R34 => &[(true, true), (false, true), (true, false)],
            CodeRate::R56 => &[
                (true, true),
                (false, true),
                (true, false),
                (false, true),
                (true, false),
            ],
        }
    }

    /// Free distance and information-bit-error weight spectrum `(d, c_d)` of
    /// the punctured K=7 codes (standard tables used throughout the 802.11
    /// literature, e.g. Haccoun & Begin 1989).
    pub fn weight_spectrum(self) -> &'static [(u32, f64)] {
        match self {
            CodeRate::R12 => &[
                (10, 36.0),
                (12, 211.0),
                (14, 1404.0),
                (16, 11633.0),
                (18, 77433.0),
            ],
            CodeRate::R23 => &[
                (6, 3.0),
                (7, 70.0),
                (8, 285.0),
                (9, 1276.0),
                (10, 6160.0),
                (11, 27128.0),
            ],
            CodeRate::R34 => &[
                (5, 42.0),
                (6, 201.0),
                (7, 1492.0),
                (8, 10469.0),
                (9, 62935.0),
                (10, 379546.0),
            ],
            CodeRate::R56 => &[
                (4, 92.0),
                (5, 528.0),
                (6, 8694.0),
                (7, 79453.0),
                (8, 792114.0),
            ],
        }
    }
}

impl std::fmt::Display for CodeRate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (n, d) = self.ratio();
        write!(f, "{n}/{d}")
    }
}

/// Constraint length of the 802.11 mother code.
pub const CONSTRAINT_LENGTH: usize = 7;
/// Generator polynomial 133 (octal).
const G0: u32 = 0o133;
/// Generator polynomial 171 (octal).
const G1: u32 = 0o171;
const STATES: usize = 1 << (CONSTRAINT_LENGTH - 1); // 64

/// Encodes `bits` with the K=7 (133,171) code at `rate`, appending
/// `CONSTRAINT_LENGTH - 1` zero tail bits to terminate the trellis.
///
/// Punctured positions are simply omitted from the output, as transmitted on
/// air. The output length is therefore
/// `ceil((bits.len() + 6) * 2 * kept / (2 * pattern_len))` give or take the
/// cycle phase.
pub fn encode(bits: &[u8], rate: CodeRate) -> Vec<u8> {
    let mut out = Vec::with_capacity(bits.len() * 2);
    encode_append(bits, rate, &mut out);
    out
}

/// Number of coded (on-air) bits [`encode`] produces for `info_len`
/// information bits at `rate`: walks the puncture pattern arithmetically,
/// so the receiver can size/truncate buffers without a throwaway encode.
pub fn coded_len(info_len: usize, rate: CodeRate) -> usize {
    let pattern = rate.puncture_pattern();
    let per_cycle: usize = pattern.iter().map(|&(a, b)| a as usize + b as usize).sum();
    let steps = info_len + CONSTRAINT_LENGTH - 1;
    let mut n = (steps / pattern.len()) * per_cycle;
    for &(a, b) in &pattern[..steps % pattern.len()] {
        n += a as usize + b as usize;
    }
    n
}

// alloc-free: begin encode_append (kernel -- caller-owned output buffer)
/// [`encode`] appending to a caller-owned buffer (bit-identical output;
/// no allocation once `out` has capacity).
pub fn encode_append(bits: &[u8], rate: CodeRate, out: &mut Vec<u8>) {
    let pattern = rate.puncture_pattern();
    let mut state: u32 = 0;
    for (i, &bit) in bits
        .iter()
        .chain(std::iter::repeat(&0u8).take(CONSTRAINT_LENGTH - 1))
        .enumerate()
    {
        debug_assert!(bit <= 1);
        let reg = (state << 1) | bit as u32;
        let a = (reg & G0).count_ones() & 1;
        let b = (reg & G1).count_ones() & 1;
        let (keep_a, keep_b) = pattern[i % pattern.len()];
        if keep_a {
            out.push(a as u8);
        }
        if keep_b {
            out.push(b as u8);
        }
        state = reg & ((1 << (CONSTRAINT_LENGTH - 1)) - 1);
    }
}
// alloc-free: end encode_append

/// Hard-decision Viterbi decoder matching [`encode`] (same rate, same
/// termination). Returns the decoded information bits (tail removed).
///
/// # Panics
/// Panics if `coded` is shorter than the encoder would have produced for
/// `info_len` bits.
pub fn viterbi_decode(coded: &[u8], info_len: usize, rate: CodeRate) -> Vec<u8> {
    let mut scratch = ViterbiScratch::new();
    let mut out = Vec::with_capacity(info_len);
    viterbi_decode_into(coded, info_len, rate, &mut scratch, &mut out);
    out
}

/// Reusable state for [`viterbi_decode_into`]: one survivor-decision row
/// per trellis step. The buffer grows to the longest frame decoded, then
/// the warmed Monte-Carlo loop never touches the allocator.
#[derive(Clone, Debug, Default)]
pub struct ViterbiScratch {
    /// Entry `[i][s]` is 1 when state `s` after step `i` was reached from
    /// the upper predecessor `(s >> 1) | 32`, 0 for the lower `s >> 1`.
    decisions: Vec<[u8; STATES]>,
}

impl ViterbiScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Butterflies per trellis step: one per lower predecessor state.
const BUTTERFLIES: usize = STATES / 2;

/// For each butterfly `j`, all ones where generator `g` outputs 1 for the
/// register `j << 1` (state `j`, input bit 0), else all zeros.
const fn butterfly_outputs(g: u32) -> [u32; BUTTERFLIES] {
    let mut masks = [0; BUTTERFLIES];
    let mut j = 0;
    while j < BUTTERFLIES {
        if ((j as u32) << 1 & g).count_ones() & 1 == 1 {
            masks[j] = u32::MAX;
        }
        j += 1;
    }
    masks
}

/// Output `a` (generator 133) of each butterfly's reference branch.
const OUT_A: [u32; BUTTERFLIES] = butterfly_outputs(G0);
/// Output `b` (generator 171) of each butterfly's reference branch.
const OUT_B: [u32; BUTTERFLIES] = butterfly_outputs(G1);

// alloc-free: begin viterbi_decode_into (kernel -- caller-owned scratch)
/// [`viterbi_decode`] writing into a caller-owned buffer with all working
/// state in `scratch`. Bit-identical to the owned version.
///
/// Each trellis step is 32 radix-2 add-compare-select butterflies:
/// butterfly `j` joins predecessors `j` and `j + 32` into states `2j` and
/// `2j + 1`. Both generators have bits 0 and 6 set, so flipping the input
/// bit or the register's top bit flips both outputs. With `(a, b)` the
/// output of register `j << 1`, the branches `j -> 2j` and
/// `j + 32 -> 2j + 1` emit `(a, b)` and the other two emit `(!a, !b)`.
/// The step's branch metrics (erased, punctured positions cost 0) thus
/// give each butterfly a `same` cost and a `flip = total - same` cost.
///
/// Exact against the plain scan it replaces, which visited predecessors in
/// ascending order, skipped unreachable ones and kept a candidate only on
/// a strictly smaller metric:
/// * Ties go to the lower predecessor `j`, so the upper one is selected
///   only when its metric is strictly smaller.
/// * Unreachable states start at `INF = u32::MAX / 2` and only grow, while
///   a reachable metric is at most twice the step count, so an unreachable
///   predecessor never beats a reachable one. Every state is reachable
///   after six steps, so no metric exceeds `INF + 12`.
/// * The traceback starts at the terminated state 0 and follows
///   survivors, so it visits only reachable states, whose decisions are
///   the scan's.
///
/// # Panics
/// Panics if `coded` is shorter than the encoder would have produced for
/// `info_len` bits.
pub fn viterbi_decode_into(
    coded: &[u8],
    info_len: usize,
    rate: CodeRate,
    scratch: &mut ViterbiScratch,
    out: &mut Vec<u8>,
) {
    const INF: u32 = u32::MAX / 2;
    let pattern = rate.puncture_pattern();
    let total_steps = info_len + CONSTRAINT_LENGTH - 1;

    let mut metric = [INF; STATES];
    metric[0] = 0;
    scratch.decisions.clear();
    scratch.decisions.resize(total_steps, [0; STATES]);

    // Walk the puncture pattern to find which coded positions exist;
    // erased positions contribute no metric.
    let mut idx = 0usize;
    for (i, upper) in scratch.decisions.iter_mut().enumerate() {
        let (keep_a, keep_b) = pattern[i % pattern.len()];
        let ra = if keep_a {
            let v = coded.get(idx).copied();
            idx += 1;
            v
        } else {
            None
        };
        let rb = if keep_b {
            let v = coded.get(idx).copied();
            idx += 1;
            v
        } else {
            None
        };
        assert!(
            (!keep_a || ra.is_some()) && (!keep_b || rb.is_some()),
            "coded sequence too short"
        );

        // Cost of each output bit value; `x ^ ((x ^ y) & mask)` picks `y`
        // where the mask is set, keeping the butterfly loop branch-free.
        let cost = |r: Option<u8>, bit: u8| r.map_or(0, |r| (r != bit) as u32);
        let (a0, a1, b0, b1) = (cost(ra, 0), cost(ra, 1), cost(rb, 0), cost(rb, 1));
        let total = a0 + a1 + b0 + b1;
        let mut next = [0u32; STATES];
        let (lo, hi) = metric.split_at(BUTTERFLIES);
        for j in 0..BUTTERFLIES {
            let same = (a0 ^ ((a0 ^ a1) & OUT_A[j])) + (b0 ^ ((b0 ^ b1) & OUT_B[j]));
            let flip = total - same;
            let (lo0, hi0) = (lo[j] + same, hi[j] + flip);
            let (lo1, hi1) = (lo[j] + flip, hi[j] + same);
            next[2 * j] = lo0.min(hi0);
            next[2 * j + 1] = lo1.min(hi1);
            upper[2 * j] = (hi0 < lo0) as u8;
            upper[2 * j + 1] = (hi1 < lo1) as u8;
        }
        metric = next;
    }

    // Terminated trellis: trace back from state 0. The input bit is the
    // state's LSB; the decision restores the bit shifted out on top.
    let mut state = 0usize;
    out.clear();
    out.resize(total_steps, 0);
    for i in (0..total_steps).rev() {
        out[i] = (state & 1) as u8;
        let upper = scratch.decisions[i][state] as usize;
        state = (state >> 1) | (upper << (CONSTRAINT_LENGTH - 2));
    }
    out.truncate(info_len);
}
// alloc-free: end viterbi_decode_into

/// The crossover probability of one uncoded BER `p`, with `p^k` / `q^k`
/// tabled for every exponent the union bound touches (`p^k` needs
/// `k <= d`, `q^(d-k)` only `d - k <= d/2`). Each entry is the exact `powi`
/// the direct expression evaluated, so one table serves every weight of
/// every [`CodeRate`]: [`coded_ber`] builds it for a single rate, and the
/// rate walk builds it once per modulation and reuses it for each code rate
/// of that modulation, without changing a bit.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Crossover {
    /// `p <= 0`: every rate decodes perfectly.
    clean: bool,
    pk: [f64; MAX_WEIGHT + 1],
    qk: [f64; MAX_WEIGHT / 2 + 1],
}

impl Crossover {
    pub(crate) fn new(p: f64) -> Self {
        let mut pk = [0.0f64; MAX_WEIGHT + 1];
        let mut qk = [0.0f64; MAX_WEIGHT / 2 + 1];
        if p <= 0.0 {
            return Self {
                clean: true,
                pk,
                qk,
            };
        }
        // Same clamp `pairwise_error` applies per term, hoisted with the
        // power tables (every term sees the same crossover probability).
        let pc = p.min(0.5);
        let q = 1.0 - pc;
        for (k, cell) in pk.iter_mut().enumerate() {
            *cell = pc.powi(k as i32);
        }
        for (k, cell) in qk.iter_mut().enumerate() {
            *cell = q.powi(k as i32);
        }
        Self {
            clean: false,
            pk,
            qk,
        }
    }

    /// [`coded_ber`] of this crossover probability at `rate`.
    pub(crate) fn coded_ber(&self, rate: CodeRate) -> f64 {
        if self.clean {
            return 0.0;
        }
        let (k_num, _) = rate.ratio();
        let sum: f64 = rate
            .weight_spectrum()
            .iter()
            .map(|&(d, c)| c * pairwise_error_tab(d, &self.pk, &self.qk))
            .sum();
        (sum / k_num as f64).clamp(0.0, 0.5)
    }
}

/// Pairwise error probability of a weight-`d` error event on a binary
/// symmetric channel (hard-decision Viterbi), reading the hoisted power
/// tables (same op sequence as the direct per-term expression).
fn pairwise_error_tab(d: u32, pk: &[f64], qk: &[f64]) -> f64 {
    let d = d as i64;
    let mut sum = 0.0;
    if d % 2 == 0 {
        let k = d / 2;
        sum += 0.5 * binom(d, k) * pk[k as usize] * qk[(d - k) as usize];
        for k in (d / 2 + 1)..=d {
            sum += binom(d, k) * pk[k as usize] * qk[(d - k) as usize];
        }
    } else {
        for k in ((d + 1) / 2)..=d {
            sum += binom(d, k) * pk[k as usize] * qk[(d - k) as usize];
        }
    }
    sum.min(1.0)
}

/// Largest error-event weight in any [`CodeRate::weight_spectrum`], bounding
/// the binomial table below.
const MAX_WEIGHT: usize = 18;

/// `C(n, k)` for the small arguments the union bound needs, from a table
/// computed once by [`binom_compute`] -- the rate predictor evaluates
/// `pairwise_error` inside the equi-SINR drop loop, so these coefficients
/// are read millions of times per suite. Values are the exact f64s the
/// direct computation produces (same op sequence at fill time), so tabling
/// them is bit-identical.
fn binom(n: i64, k: i64) -> f64 {
    static TABLE: std::sync::OnceLock<[[f64; MAX_WEIGHT + 1]; MAX_WEIGHT + 1]> =
        std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [[0.0; MAX_WEIGHT + 1]; MAX_WEIGHT + 1];
        for (n, row) in t.iter_mut().enumerate() {
            for (k, cell) in row.iter_mut().enumerate().take(n + 1) {
                *cell = binom_compute(n as i64, k as i64);
            }
        }
        t
    });
    debug_assert!((0..=n).contains(&k));
    match table.get(n as usize).and_then(|row| row.get(k as usize)) {
        Some(&v) => v,
        None => binom_compute(n, k),
    }
}

fn binom_compute(n: i64, k: i64) -> f64 {
    let k = k.min(n - k);
    let mut r = 1.0f64;
    for i in 0..k {
        r = r * (n - i) as f64 / (i + 1) as f64;
    }
    r
}

/// Coded BER after Viterbi decoding, from the channel (uncoded) BER `p`, via
/// the union bound with the code's weight spectrum. Clamped to `[0, 0.5]`.
pub fn coded_ber(p: f64, rate: CodeRate) -> f64 {
    Crossover::new(p).coded_ber(rate)
}

/// Frame error rate of an `len_bytes`-byte MPDU at coded BER `pb`:
/// `1 - (1 - pb)^(8 * len_bytes)`.
pub fn frame_error_rate(pb: f64, len_bytes: usize) -> f64 {
    frame_error_rate_bits(pb, len_bytes * 8)
}

/// [`frame_error_rate`] for a payload measured in bits rather than whole
/// bytes (the waveform validator's frames are sized by OFDM symbol count,
/// so their payloads are not byte multiples).
pub fn frame_error_rate_bits(pb: f64, len_bits: usize) -> f64 {
    let bits = len_bits as f64;
    if pb <= 0.0 {
        return 0.0;
    }
    if pb >= 1.0 {
        return 1.0;
    }
    // ln1p for numerical accuracy at tiny pb.
    1.0 - (bits * (-pb).ln_1p()).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use copa_num::prop::check;
    use copa_num::{prop_assert_eq, SimRng};

    #[test]
    fn encode_rate_half_length() {
        let bits = vec![1, 0, 1, 1, 0, 0, 1, 0];
        let coded = encode(&bits, CodeRate::R12);
        assert_eq!(coded.len(), (bits.len() + 6) * 2);
    }

    #[test]
    fn punctured_lengths() {
        // 60 info bits + 6 tail = 66 steps.
        let bits = vec![0u8; 60];
        // R23: per 2 steps keep 3 -> 66/2*3 = 99.
        assert_eq!(encode(&bits, CodeRate::R23).len(), 99);
        // R34: per 3 steps keep 4 -> 66/3*4 = 88.
        assert_eq!(encode(&bits, CodeRate::R34).len(), 88);
        // R56: per 5 steps keep 6 -> 66 = 13*5+1; 13*6 + 2(first step keeps both) = 80.
        assert_eq!(encode(&bits, CodeRate::R56).len(), 80);
    }

    #[test]
    fn viterbi_decodes_clean_channel() {
        let mut rng = SimRng::seed_from(4);
        for rate in CodeRate::ALL {
            let bits: Vec<u8> = (0..120).map(|_| (rng.next_u64() & 1) as u8).collect();
            let coded = encode(&bits, rate);
            let decoded = viterbi_decode(&coded, bits.len(), rate);
            assert_eq!(decoded, bits, "clean decode failed at rate {rate}");
        }
    }

    #[test]
    fn viterbi_corrects_errors_at_rate_half() {
        // Rate 1/2, dfree = 10: up to 4 well-separated bit flips correctable.
        let mut rng = SimRng::seed_from(5);
        let bits: Vec<u8> = (0..200).map(|_| (rng.next_u64() & 1) as u8).collect();
        let mut coded = encode(&bits, CodeRate::R12);
        for &pos in &[10usize, 100, 200, 300] {
            coded[pos] ^= 1;
        }
        let decoded = viterbi_decode(&coded, bits.len(), CodeRate::R12);
        assert_eq!(decoded, bits);
    }

    #[test]
    fn viterbi_beats_uncoded_on_noisy_channel() {
        // Empirical check that the decoder actually corrects: BSC with p=0.02,
        // rate 1/2 should decode with far fewer errors than 2%.
        let mut rng = SimRng::seed_from(6);
        let n = 2000;
        let bits: Vec<u8> = (0..n).map(|_| (rng.next_u64() & 1) as u8).collect();
        let mut coded = encode(&bits, CodeRate::R12);
        let mut flips = 0;
        for b in coded.iter_mut() {
            if rng.uniform() < 0.02 {
                *b ^= 1;
                flips += 1;
            }
        }
        assert!(flips > 0);
        let decoded = viterbi_decode(&coded, n, CodeRate::R12);
        let errs = decoded.iter().zip(&bits).filter(|(a, b)| a != b).count();
        assert!(
            (errs as f64 / n as f64) < 0.002,
            "decoder left {errs}/{n} errors"
        );
    }

    #[test]
    fn coded_ber_ordering_and_limits() {
        // More redundancy -> lower coded BER at the same channel BER.
        for &p in &[1e-3, 5e-3, 1e-2] {
            let bers: Vec<f64> = CodeRate::ALL.iter().map(|&r| coded_ber(p, r)).collect();
            for w in bers.windows(2) {
                assert!(w[0] <= w[1], "rate ordering violated at p={p}: {bers:?}");
            }
        }
        assert_eq!(coded_ber(0.0, CodeRate::R12), 0.0);
        assert!(coded_ber(0.4, CodeRate::R12) <= 0.5);
    }

    #[test]
    fn coded_ber_monotone_in_channel_ber() {
        for rate in CodeRate::ALL {
            let mut prev = 0.0;
            for i in 0..60 {
                let p = 10f64.powf(-6.0 + i as f64 * 0.1);
                let c = coded_ber(p, rate);
                assert!(c >= prev - 1e-18, "not monotone at p={p}, rate {rate}");
                prev = c;
            }
        }
    }

    #[test]
    fn union_bound_tracks_simulation() {
        // At channel BER 1%, rate 1/2: simulate and compare order of magnitude.
        let p = 0.01;
        let predicted = coded_ber(p, CodeRate::R12);
        let mut rng = SimRng::seed_from(77);
        let n = 40_000;
        let bits: Vec<u8> = (0..n).map(|_| (rng.next_u64() & 1) as u8).collect();
        let mut coded = encode(&bits, CodeRate::R12);
        for b in coded.iter_mut() {
            if rng.uniform() < p {
                *b ^= 1;
            }
        }
        let decoded = viterbi_decode(&coded, n, CodeRate::R12);
        let errs = decoded.iter().zip(&bits).filter(|(a, b)| a != b).count();
        let sim = errs as f64 / n as f64;
        // Union bound is an upper bound; it should not be below the simulation
        // by much, nor absurdly far above.
        assert!(
            predicted >= sim * 0.3 && predicted <= sim * 50.0 + 1e-6,
            "union bound {predicted:e} vs simulated {sim:e}"
        );
    }

    #[test]
    fn fer_properties() {
        assert_eq!(frame_error_rate(0.0, 1500), 0.0);
        assert_eq!(frame_error_rate(1.0, 1500), 1.0);
        let f1 = frame_error_rate(1e-6, 1500);
        let f2 = frame_error_rate(1e-5, 1500);
        assert!(f1 < f2 && f2 < 1.0);
        // ~ bits * pb for tiny pb.
        assert!((f1 / (12000.0 * 1e-6) - 1.0).abs() < 0.01);
    }

    #[test]
    fn coded_len_matches_encode() {
        for rate in CodeRate::ALL {
            for info in [0usize, 1, 7, 60, 100, 731] {
                assert_eq!(
                    coded_len(info, rate),
                    encode(&vec![0u8; info], rate).len(),
                    "rate {rate}, {info} info bits"
                );
            }
        }
    }

    #[test]
    fn pooled_viterbi_is_bit_identical_and_reusable() {
        let mut rng = SimRng::seed_from(17);
        let mut scratch = ViterbiScratch::new();
        let mut out = Vec::new();
        // Reuse scratch across rates and frame lengths, with injected errors.
        for rate in CodeRate::ALL {
            for info in [40usize, 173] {
                let bits: Vec<u8> = (0..info).map(|_| (rng.next_u64() & 1) as u8).collect();
                let mut coded = encode(&bits, rate);
                for b in coded.iter_mut() {
                    if rng.uniform() < 0.02 {
                        *b ^= 1;
                    }
                }
                let owned = viterbi_decode(&coded, info, rate);
                viterbi_decode_into(&coded, info, rate, &mut scratch, &mut out);
                assert_eq!(owned, out, "rate {rate}, {info} info bits");
            }
        }
    }

    /// The decoder before the butterfly rewrite, body kept verbatim: a
    /// scan over all 64 states x 2 input bits per step that skips
    /// unreachable states and stores a 64-byte predecessor row per step.
    /// It is the oracle the butterfly decoder must match bit for bit.
    fn viterbi_decode_reference(coded: &[u8], info_len: usize, rate: CodeRate) -> Vec<u8> {
        struct Scratch {
            metric: Vec<u32>,
            next: Vec<u32>,
            pred: Vec<u8>,
        }
        let scratch = &mut Scratch {
            metric: Vec::new(),
            next: Vec::new(),
            pred: Vec::new(),
        };
        let out = &mut Vec::new();
        let pattern = rate.puncture_pattern();
        let total_steps = info_len + CONSTRAINT_LENGTH - 1;

        const INF: u32 = u32::MAX / 2;
        scratch.metric.clear();
        scratch.metric.resize(STATES, INF);
        scratch.metric[0] = 0;
        scratch.next.clear();
        scratch.next.resize(STATES, INF);
        scratch.pred.clear();
        scratch.pred.resize(total_steps * STATES, 0);

        // Walk the puncture pattern to find which coded positions exist;
        // erased positions contribute no metric.
        let mut idx = 0usize;
        for i in 0..total_steps {
            let (keep_a, keep_b) = pattern[i % pattern.len()];
            let ra = if keep_a {
                let v = coded.get(idx).copied();
                idx += 1;
                v
            } else {
                None
            };
            let rb = if keep_b {
                let v = coded.get(idx).copied();
                idx += 1;
                v
            } else {
                None
            };
            assert!(
                (!keep_a || ra.is_some()) && (!keep_b || rb.is_some()),
                "coded sequence too short"
            );

            let choice = &mut scratch.pred[i * STATES..(i + 1) * STATES];
            for v in scratch.next.iter_mut() {
                *v = INF;
            }
            for s in 0..STATES {
                if scratch.metric[s] == INF {
                    continue;
                }
                for bit in 0..2u32 {
                    let reg = ((s as u32) << 1) | bit;
                    let a = ((reg & G0).count_ones() & 1) as u8;
                    let b = ((reg & G1).count_ones() & 1) as u8;
                    let ns = (reg & (STATES as u32 - 1)) as usize;
                    let mut m = scratch.metric[s];
                    if let Some(ra) = ra {
                        m += (ra != a) as u32;
                    }
                    if let Some(rb) = rb {
                        m += (rb != b) as u32;
                    }
                    if m < scratch.next[ns] {
                        scratch.next[ns] = m;
                        // Predecessor state fits in u8 for K=7 (64 states).
                        choice[ns] = s as u8;
                    }
                }
            }
            std::mem::swap(&mut scratch.metric, &mut scratch.next);
        }

        // Terminated trellis: trace back from state 0.
        let mut state = 0usize;
        out.clear();
        out.resize(total_steps, 0);
        for i in (0..total_steps).rev() {
            let prev = scratch.pred[i * STATES + state] as usize;
            // state = ((prev << 1) | bit) & mask, so the input bit is state's LSB.
            out[i] = (state & 1) as u8;
            state = prev;
        }
        out.truncate(info_len);
        std::mem::take(out)
    }

    /// Hard decisions of `bits` encoded at `rate` after a binary symmetric
    /// channel that flips each coded bit with probability `p`.
    fn bsc(bits: &[u8], rate: CodeRate, p: f64, rng: &mut SimRng) -> Vec<u8> {
        let mut coded = encode(bits, rate);
        for b in coded.iter_mut() {
            if rng.uniform() < p {
                *b ^= 1;
            }
        }
        coded
    }

    #[test]
    fn butterfly_viterbi_matches_reference_decoder() {
        const FLIP: [f64; 6] = [0.0, 0.01, 0.05, 0.15, 0.3, 0.5];
        let mut rng = SimRng::seed_from(0xB077);
        let mut scratch = ViterbiScratch::new();
        let mut out = Vec::new();
        // Every length up to 96 (all puncture phases of short frames), then
        // every 8th up to 1100. The rate cycles per frame and the flip rate
        // every four frames, so all 24 (rate, p) pairs recur across the
        // length range. Every third frame carries surplus trailing bits,
        // which both decoders must ignore.
        let lengths = (0..=96usize).chain((100..=1100).step_by(8));
        for (k, info) in lengths.enumerate() {
            let rate = CodeRate::ALL[k % 4];
            let p = FLIP[(k / 4) % FLIP.len()];
            let bits: Vec<u8> = (0..info).map(|_| (rng.next_u64() & 1) as u8).collect();
            let mut coded = bsc(&bits, rate, p, &mut rng);
            if k % 3 == 0 {
                let extra = 1 + (rng.next_u64() % 24) as usize;
                coded.extend((0..extra).map(|_| (rng.next_u64() & 1) as u8));
            }
            let want = viterbi_decode_reference(&coded, info, rate);
            viterbi_decode_into(&coded, info, rate, &mut scratch, &mut out);
            assert_eq!(out, want, "rate {rate}, {info} info bits, p={p}");
        }
    }

    #[test]
    fn butterfly_viterbi_matches_reference_on_arbitrary_bytes() {
        // Received bytes need not be 0/1: any other value mismatches both
        // branch outputs, in either decoder.
        check("butterfly_viterbi_arbitrary_bytes", 64, |g| {
            let rate = *g.pick(&CodeRate::ALL);
            let info = g.usize_in(0, 300);
            let len = coded_len(info, rate) + g.usize_in(0, 8);
            let coded: Vec<u8> = (0..len)
                .map(|_| if g.bool() { g.u8() & 1 } else { g.u8() })
                .collect();
            prop_assert_eq!(
                viterbi_decode(&coded, info, rate),
                viterbi_decode_reference(&coded, info, rate)
            );
            Ok(())
        });
    }

    #[test]
    #[should_panic(expected = "coded sequence too short")]
    fn viterbi_rejects_short_coded_sequence() {
        let coded = encode(&[1, 0, 1, 1, 0, 1, 0, 0, 1, 1], CodeRate::R34);
        viterbi_decode(&coded[..coded.len() - 1], 10, CodeRate::R34);
    }

    #[test]
    fn reused_scratch_matches_fresh_across_long_short_long() {
        let mut rng = SimRng::seed_from(23);
        let mut scratch = ViterbiScratch::new();
        let mut out = Vec::new();
        for (info, rate) in [
            (954usize, CodeRate::R56),
            (17, CodeRate::R12),
            (0, CodeRate::R23),
            (1100, CodeRate::R34),
        ] {
            let bits: Vec<u8> = (0..info).map(|_| (rng.next_u64() & 1) as u8).collect();
            let coded = bsc(&bits, rate, 0.05, &mut rng);
            viterbi_decode_into(&coded, info, rate, &mut scratch, &mut out);
            let fresh = viterbi_decode(&coded, info, rate);
            assert_eq!(out, fresh, "rate {rate}, {info} info bits");
        }
    }

    #[test]
    fn frame_error_rate_bits_consistent_with_bytes() {
        for pb in [1e-7, 1e-4, 0.02] {
            assert_eq!(
                frame_error_rate(pb, 1500),
                frame_error_rate_bits(pb, 1500 * 8)
            );
        }
        assert_eq!(frame_error_rate_bits(0.0, 999), 0.0);
        assert_eq!(frame_error_rate_bits(1.0, 999), 1.0);
    }

    /// The union bound written out term by term, every power evaluated in
    /// place: the reference the shared [`Crossover`] tables must reproduce.
    fn coded_ber_direct(p: f64, rate: CodeRate) -> f64 {
        if p <= 0.0 {
            return 0.0;
        }
        let pc = p.min(0.5);
        let q = 1.0 - pc;
        let term = |d: i64, k: i64| binom(d, k) * pc.powi(k as i32) * q.powi((d - k) as i32);
        let (k_num, _) = rate.ratio();
        let sum: f64 = rate
            .weight_spectrum()
            .iter()
            .map(|&(d, c)| {
                let d = d as i64;
                let mut pe = 0.0;
                if d % 2 == 0 {
                    pe += 0.5 * term(d, d / 2);
                    for k in (d / 2 + 1)..=d {
                        pe += term(d, k);
                    }
                } else {
                    for k in ((d + 1) / 2)..=d {
                        pe += term(d, k);
                    }
                }
                c * pe.min(1.0)
            })
            .sum();
        (sum / k_num as f64).clamp(0.0, 0.5)
    }

    #[test]
    fn shared_crossover_is_bit_identical_to_direct_union_bound() {
        let mut ps = vec![
            0.0,
            -0.0,
            -1e-3,
            f64::MIN_POSITIVE,
            5e-324,
            0.5,
            0.5000001,
            1.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        // Dense log sweep over every BER the rate walk can produce.
        ps.extend((0..=4000).map(|i| 10f64.powf(-320.0 + i as f64 * 0.08)));
        for p in ps {
            let shared = Crossover::new(p);
            for rate in CodeRate::ALL {
                let want = coded_ber_direct(p, rate);
                assert_eq!(
                    coded_ber(p, rate).to_bits(),
                    want.to_bits(),
                    "coded_ber, p={p:e}, rate {rate}"
                );
                assert_eq!(
                    shared.coded_ber(rate).to_bits(),
                    want.to_bits(),
                    "reused crossover, p={p:e}, rate {rate}"
                );
            }
        }
    }

    #[test]
    fn spectra_start_at_free_distance() {
        assert_eq!(CodeRate::R12.weight_spectrum()[0].0, 10);
        assert_eq!(CodeRate::R23.weight_spectrum()[0].0, 6);
        assert_eq!(CodeRate::R34.weight_spectrum()[0].0, 5);
        assert_eq!(CodeRate::R56.weight_spectrum()[0].0, 4);
    }
}
