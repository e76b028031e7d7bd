//! Frequency-selective MIMO multipath channel synthesis.
//!
//! The paper's testbed observes strong narrow-band fading indoors (its
//! Figure 2): different subcarriers fade differently, and the pattern
//! decorrelates across antennas separated by half a wavelength. We reproduce
//! the same physics with the standard tapped-delay-line model: each
//! (tx antenna, rx antenna) pair gets an impulse response of i.i.d. complex
//! Gaussian taps with an exponential power-delay profile, and the 64-point
//! FFT of that impulse response yields the per-subcarrier channel gains.

use copa_num::complex::C64;
use copa_num::fft::{fft, fft_in_place};
use copa_num::matrix::CMat;
use copa_num::rng::SimRng;
use copa_phy::ofdm::{data_subcarrier_bins, DATA_SUBCARRIERS, FFT_SIZE};

/// Sample period of a 20 MHz channel (50 ns), in seconds.
pub const SAMPLE_PERIOD_S: f64 = 1.0 / 20.0e6;

/// Parameters of the tapped-delay-line model.
#[derive(Clone, Copy, Debug)]
pub struct MultipathProfile {
    /// Number of taps in the impulse response.
    pub taps: usize,
    /// RMS delay spread in seconds (indoor office: 50-100 ns).
    pub rms_delay_spread_s: f64,
    /// Rician K-factor (linear) for the first tap; 0 = pure Rayleigh.
    pub rician_k: f64,
}

impl Default for MultipathProfile {
    /// Indoor office: 10 taps, 90 ns RMS delay spread, weak line-of-sight
    /// component (K = 0.7) -- calibrated to reproduce the ~30 dB
    /// per-subcarrier fading swings of the paper's Figure 2.
    fn default() -> Self {
        Self {
            taps: 10,
            rms_delay_spread_s: 90e-9,
            rician_k: 0.7,
        }
    }
}

impl MultipathProfile {
    /// Normalized per-tap powers (exponential profile, summing to 1).
    pub fn tap_powers(&self) -> Vec<f64> {
        let mut out = Vec::new();
        self.tap_powers_into(&mut out);
        out
    }

    /// [`MultipathProfile::tap_powers`] writing into a reused buffer
    /// (bit-identical: same per-tap `p / sum`).
    pub fn tap_powers_into(&self, out: &mut Vec<f64>) {
        assert!(self.taps >= 1);
        let decay = SAMPLE_PERIOD_S / self.rms_delay_spread_s.max(1e-12);
        out.clear();
        out.extend((0..self.taps).map(|l| (-(l as f64) * decay).exp()));
        let sum: f64 = out.iter().sum();
        for p in out.iter_mut() {
            *p /= sum;
        }
    }
}

/// Draws the tapped-delay impulse response of one antenna pair, preserving
/// the exact RNG consumption and floating-point op order shared by
/// [`FreqChannel::random`], [`FreqChannel::random_into`], and the
/// time-domain channel -- every consumer realizes bit-identical taps from
/// the same RNG state.
pub(crate) fn draw_pair_taps(
    rng: &mut SimRng,
    tap_powers: &[f64],
    amp: f64,
    los_frac: f64,
    los_phase: f64,
    r: usize,
    t: usize,
    mut sink: impl FnMut(usize, C64),
) {
    for (l, &p) in tap_powers.iter().enumerate() {
        let scatter = rng
            .randc()
            .scale((p * if l == 0 { 1.0 - los_frac } else { 1.0 }).sqrt());
        let mut tap = scatter;
        if l == 0 && los_frac > 0.0 {
            // Deterministic LoS component with antenna-dependent phase
            // (half-wavelength spacing approximated by a random but fixed
            // per-pair offset).
            let pair_phase = los_phase + std::f64::consts::PI * (r as f64 * 0.73 + t as f64 * 1.31);
            tap += C64::cis(pair_phase).scale((p * los_frac).sqrt());
        }
        sink(l, tap.scale(amp));
    }
}

/// Reusable scratch for the pooled channel-synthesis entry points
/// ([`FreqChannel::random_into`], [`FreqChannel::evolve_in_place`]): the tap
/// powers, FFT impulse buffer, data-bin map and innovation channel all live
/// here, so steady-state synthesis (the daemon's per-coherence-block truth
/// updates) never touches the allocator after warm-up.
#[derive(Clone, Debug)]
pub struct ChannelScratch {
    pub(crate) tap_powers: Vec<f64>,
    pub(crate) impulse: Vec<C64>,
    pub(crate) bins: Vec<usize>,
    innovation: FreqChannel,
}

impl Default for ChannelScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl ChannelScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self {
            tap_powers: Vec::new(),
            impulse: Vec::new(),
            bins: data_subcarrier_bins(),
            innovation: FreqChannel::empty(),
        }
    }
}

/// A frequency-domain MIMO channel: one `rx x tx` complex matrix per data
/// subcarrier, scaled so `E|H_ij|^2` equals the link's average path gain.
#[derive(Clone, Debug, Default)]
pub struct FreqChannel {
    pub(crate) rx: usize,
    pub(crate) tx: usize,
    pub(crate) subcarriers: Vec<CMat>,
}

impl FreqChannel {
    /// Draws a random channel with `E|H_ij|^2 = path_gain` (linear power
    /// ratio between received and transmitted power per antenna pair).
    pub fn random(
        rng: &mut SimRng,
        rx: usize,
        tx: usize,
        path_gain: f64,
        profile: &MultipathProfile,
    ) -> Self {
        assert!(rx >= 1 && tx >= 1);
        assert!(path_gain >= 0.0);
        let tap_powers = profile.tap_powers();
        let amp = path_gain.sqrt();
        // LoS fraction of the first tap's power.
        let k = profile.rician_k;
        let los_frac = k / (k + 1.0);

        // Per antenna pair: impulse response -> 64-point FFT -> pick the
        // 52 data bins.
        let bins = data_subcarrier_bins();
        let mut per_pair: Vec<Vec<C64>> = Vec::with_capacity(rx * tx);
        // A common LoS phase ramp, with per-antenna geometric phase offsets.
        let los_phase = rng.uniform_range(0.0, std::f64::consts::TAU);
        for r in 0..rx {
            for t in 0..tx {
                let mut impulse = vec![copa_num::complex::ZERO; FFT_SIZE];
                draw_pair_taps(
                    rng,
                    &tap_powers,
                    amp,
                    los_frac,
                    los_phase,
                    r,
                    t,
                    |l, tap| {
                        impulse[l] = tap;
                    },
                );
                let freq = fft(&impulse);
                per_pair.push(bins.iter().map(|&b| freq[b]).collect());
            }
        }

        let subcarriers = (0..DATA_SUBCARRIERS)
            .map(|s| CMat::from_fn(rx, tx, |r, t| per_pair[r * tx + t][s]))
            .collect();
        Self {
            rx,
            tx,
            subcarriers,
        }
    }

    /// Pooled [`FreqChannel::random`]: draws the same channel (same RNG
    /// consumption, bit-identical entries) into `out`'s reused buffers, with
    /// every intermediate living in `scratch`.
    // alloc-free: begin channel_synthesis_into
    pub fn random_into(
        rng: &mut SimRng,
        rx: usize,
        tx: usize,
        path_gain: f64,
        profile: &MultipathProfile,
        scratch: &mut ChannelScratch,
        out: &mut FreqChannel,
    ) {
        assert!(rx >= 1 && tx >= 1);
        assert!(path_gain >= 0.0);
        profile.tap_powers_into(&mut scratch.tap_powers);
        let amp = path_gain.sqrt();
        let k = profile.rician_k;
        let los_frac = k / (k + 1.0);

        out.rx = rx;
        out.tx = tx;
        out.subcarriers.truncate(DATA_SUBCARRIERS);
        out.subcarriers.resize_with(DATA_SUBCARRIERS, CMat::default);
        for m in &mut out.subcarriers {
            m.reset(rx, tx);
        }

        let los_phase = rng.uniform_range(0.0, std::f64::consts::TAU);
        let ChannelScratch {
            tap_powers,
            impulse,
            bins,
            ..
        } = scratch;
        for r in 0..rx {
            for t in 0..tx {
                impulse.clear();
                impulse.resize(FFT_SIZE, copa_num::complex::ZERO);
                draw_pair_taps(rng, tap_powers, amp, los_frac, los_phase, r, t, |l, tap| {
                    impulse[l] = tap;
                });
                fft_in_place(impulse);
                for (s, &b) in bins.iter().enumerate() {
                    out.subcarriers[s][(r, t)] = impulse[b];
                }
            }
        }
    }

    /// Pooled [`FreqChannel::evolve`] mutating `self` in place: same
    /// innovation draw and per-entry arithmetic, so the evolved channel is
    /// bit-identical to the owned version while the innovation lives in
    /// `scratch`.
    pub fn evolve_in_place(
        &mut self,
        rng: &mut SimRng,
        rho: f64,
        profile: &MultipathProfile,
        scratch: &mut ChannelScratch,
    ) {
        assert!((0.0..=1.0).contains(&rho));
        let gain = self.mean_gain();
        let mut w = std::mem::take(&mut scratch.innovation);
        Self::random_into(rng, self.rx, self.tx, gain, profile, scratch, &mut w);
        let a = rho;
        let b = (1.0 - rho * rho).sqrt();
        for (h, inno) in self.subcarriers.iter_mut().zip(w.subcarriers.iter()) {
            for (z, wz) in h.as_mut_slice().iter_mut().zip(inno.as_slice()) {
                *z = z.scale(a) + wz.scale(b);
            }
        }
        scratch.innovation = w;
    }
    // alloc-free: end channel_synthesis_into

    /// Builds a channel directly from per-subcarrier matrices (testing and
    /// trace-driven emulation).
    pub fn from_matrices(subcarriers: Vec<CMat>) -> Self {
        assert_eq!(
            subcarriers.len(),
            DATA_SUBCARRIERS,
            "need one matrix per data subcarrier"
        );
        let rx = subcarriers[0].rows();
        let tx = subcarriers[0].cols();
        assert!(subcarriers.iter().all(|m| m.rows() == rx && m.cols() == tx));
        Self {
            rx,
            tx,
            subcarriers,
        }
    }

    /// Number of receive antennas.
    pub fn rx(&self) -> usize {
        self.rx
    }

    /// Number of transmit antennas.
    pub fn tx(&self) -> usize {
        self.tx
    }

    /// The channel matrix of data subcarrier `s` (`rx x tx`).
    pub fn at(&self, s: usize) -> &CMat {
        &self.subcarriers[s]
    }

    /// Iterates over all per-subcarrier matrices.
    pub fn iter(&self) -> impl Iterator<Item = &CMat> {
        self.subcarriers.iter()
    }

    /// Average per-antenna-pair gain `mean_{s,i,j} |H_ij[s]|^2`; equals the
    /// link path gain in expectation.
    pub fn mean_gain(&self) -> f64 {
        let cells = (self.rx * self.tx * DATA_SUBCARRIERS) as f64;
        self.subcarriers
            .iter()
            .map(|m| m.frobenius_norm_sqr())
            .sum::<f64>()
            / cells
    }

    /// An empty channel (0 antennas, no subcarriers), used as a reusable
    /// output slot for the `_into` methods: buffers grow on first use, then
    /// are reused without touching the allocator.
    pub fn empty() -> Self {
        Self {
            rx: 0,
            tx: 0,
            subcarriers: Vec::new(),
        }
    }

    /// Pooled [`FreqChannel::map`]: applies `f(s, src, dst)` to every
    /// subcarrier matrix, writing into `out`'s reused buffers. `f` must set
    /// `dst` to an `rx x tx` matrix (checked).
    // alloc-free: begin freq_channel_into
    pub fn map_into(&self, mut f: impl FnMut(usize, &CMat, &mut CMat), out: &mut FreqChannel) {
        out.rx = self.rx;
        out.tx = self.tx;
        out.subcarriers.truncate(self.subcarriers.len());
        out.subcarriers
            .resize_with(self.subcarriers.len(), CMat::default);
        for (s, (src, dst)) in self
            .subcarriers
            .iter()
            .zip(&mut out.subcarriers)
            .enumerate()
        {
            f(s, src, dst);
            assert_eq!((dst.rows(), dst.cols()), (self.rx, self.tx));
        }
    }

    /// Pooled [`FreqChannel::scale_power`]: writes the scaled channel into
    /// `out`'s reused buffers. Bit-identical to `scale_power` (same per-entry
    /// `z.scale(sqrt(factor))`).
    pub fn scale_power_into(&self, factor: f64, out: &mut FreqChannel) {
        let amp = factor.sqrt();
        self.map_into(
            |_, src, dst| {
                dst.copy_from(src);
                for z in dst.as_mut_slice() {
                    *z = z.scale(amp);
                }
            },
            out,
        );
    }

    /// In-place [`FreqChannel::scale_power`], for channels the caller already
    /// owns (no clone of the 52 matrices). Bit-identical to `scale_power`.
    pub fn scale_power_in_place(&mut self, factor: f64) {
        let amp = factor.sqrt();
        for m in &mut self.subcarriers {
            for z in m.as_mut_slice() {
                *z = z.scale(amp);
            }
        }
    }
    // alloc-free: end freq_channel_into

    /// Applies `f` to every subcarrier matrix, producing a new channel.
    pub fn map(&self, mut f: impl FnMut(usize, &CMat) -> CMat) -> FreqChannel {
        let subcarriers: Vec<CMat> = self
            .subcarriers
            .iter()
            .enumerate()
            .map(|(s, m)| {
                let out = f(s, m);
                assert_eq!((out.rows(), out.cols()), (self.rx, self.tx));
                out
            })
            .collect();
        FreqChannel {
            rx: self.rx,
            tx: self.tx,
            subcarriers,
        }
    }

    /// Scales the whole channel by a linear power factor (amplitudes scale
    /// by its square root). Used by the weak-interference emulation
    /// (Figure 12 reduces interference by 10 dB).
    pub fn scale_power(&self, factor: f64) -> FreqChannel {
        let amp = factor.sqrt();
        self.map(|_, m| m.scale(amp))
    }

    /// First-order Gauss-Markov time evolution: each tap-domain coefficient
    /// decorrelates as `H' = rho H + sqrt(1 - rho^2) W` with `W` a fresh
    /// channel of the same average gain. Models CSI aging within/beyond the
    /// coherence time.
    pub fn evolve(&self, rng: &mut SimRng, rho: f64, profile: &MultipathProfile) -> FreqChannel {
        assert!((0.0..=1.0).contains(&rho));
        let innovation = FreqChannel::random(rng, self.rx, self.tx, self.mean_gain(), profile);
        let a = rho;
        let b = (1.0 - rho * rho).sqrt();
        FreqChannel {
            rx: self.rx,
            tx: self.tx,
            subcarriers: self
                .subcarriers
                .iter()
                .zip(innovation.subcarriers.iter())
                .map(|(h, w)| &h.scale(a) + &w.scale(b))
                .collect(),
        }
    }

    /// Applies Kronecker antenna correlation: `H' = L_rx H L_tx^H`, where
    /// `L` are Cholesky factors of exponential correlation matrices
    /// `R_ij = rho^|i-j|`. Unit-diagonal `R` preserves the per-entry mean
    /// gain. Correlated arrays (closely spaced or poorly scattered
    /// antennas) lose effective degrees of freedom, degrading both MIMO
    /// multiplexing and nulling depth.
    ///
    /// # Panics
    /// Panics if either `rho` is outside `[0, 1)`.
    pub fn with_antenna_correlation(&self, rho_rx: f64, rho_tx: f64) -> FreqChannel {
        assert!((0.0..1.0).contains(&rho_rx) && (0.0..1.0).contains(&rho_tx));
        if rho_rx == 0.0 && rho_tx == 0.0 {
            return self.clone();
        }
        let corr = |n: usize, rho: f64| {
            CMat::from_fn(n, n, |i, j| {
                C64::real(rho.powi((i as i32 - j as i32).abs()))
            })
        };
        let l_rx = copa_num::solve::cholesky(&corr(self.rx, rho_rx))
            .expect("exponential correlation is PD for rho < 1");
        let l_tx = copa_num::solve::cholesky(&corr(self.tx, rho_tx))
            .expect("exponential correlation is PD for rho < 1");
        let l_tx_h = l_tx.hermitian();
        let colored = self.map(|_, h| l_rx.matmul(h).matmul(&l_tx_h));
        // The Rician LoS component transforms coherently, so the realized
        // gain can drift slightly; renormalize to preserve the link budget
        // exactly.
        colored.scale_power(self.mean_gain() / colored.mean_gain().max(1e-300))
    }

    /// Restricts the channel to a subset of receive antennas (COPA's
    /// shut-down-antenna move for overconstrained nulling).
    pub fn select_rx(&self, rows: &[usize]) -> FreqChannel {
        let mut out = FreqChannel::default();
        self.select_rx_into(rows, &mut out);
        out
    }

    /// [`FreqChannel::select_rx`] into a caller-owned channel, reusing its
    /// per-subcarrier buffers: no allocation once `out` has held a channel
    /// of this shape.
    pub fn select_rx_into(&self, rows: &[usize], out: &mut FreqChannel) {
        out.rx = rows.len();
        out.tx = self.tx;
        out.subcarriers
            .resize_with(self.subcarriers.len(), CMat::default);
        for (dst, src) in out.subcarriers.iter_mut().zip(&self.subcarriers) {
            dst.reset(rows.len(), self.tx);
            for (i, &r) in rows.iter().enumerate() {
                for j in 0..self.tx {
                    dst[(i, j)] = src[(r, j)];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copa_num::stats::mean;

    #[test]
    fn tap_powers_normalized_and_decaying() {
        let p = MultipathProfile::default().tap_powers();
        assert_eq!(p.len(), MultipathProfile::default().taps);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        for w in p.windows(2) {
            assert!(w[0] > w[1]);
        }
    }

    #[test]
    fn mean_gain_matches_path_gain() {
        let mut rng = SimRng::seed_from(1);
        let profile = MultipathProfile::default();
        let gains: Vec<f64> = (0..200)
            .map(|_| FreqChannel::random(&mut rng, 2, 4, 1e-6, &profile).mean_gain())
            .collect();
        let avg = mean(&gains);
        assert!(
            (avg / 1e-6 - 1.0).abs() < 0.1,
            "mean gain {avg:e} should be ~1e-6"
        );
    }

    #[test]
    fn channel_is_frequency_selective() {
        // Per-subcarrier power must vary by many dB across the band --
        // Figure 2 of the paper shows ~30 dB swings.
        let mut rng = SimRng::seed_from(2);
        let ch = FreqChannel::random(&mut rng, 1, 1, 1.0, &MultipathProfile::default());
        let powers: Vec<f64> = ch.iter().map(|m| m[(0, 0)].norm_sqr()).collect();
        let max = powers.iter().cloned().fold(0.0, f64::max);
        let min = powers.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            max / min.max(1e-12) > 10.0,
            "expected >10 dB fading range, got {:.1} dB",
            10.0 * (max / min).log10()
        );
    }

    #[test]
    fn antennas_fade_differently() {
        // Figure 2: two receive antennas see materially different patterns.
        let mut rng = SimRng::seed_from(3);
        let ch = FreqChannel::random(&mut rng, 2, 1, 1.0, &MultipathProfile::default());
        let diff: f64 = ch
            .iter()
            .map(|m| (m[(0, 0)] - m[(1, 0)]).norm_sqr())
            .sum::<f64>()
            / DATA_SUBCARRIERS as f64;
        assert!(
            diff > 0.3,
            "antenna channels should decorrelate, diff={diff}"
        );
    }

    #[test]
    fn flat_channel_with_single_tap() {
        let mut rng = SimRng::seed_from(4);
        let profile = MultipathProfile {
            taps: 1,
            rms_delay_spread_s: 50e-9,
            rician_k: 0.0,
        };
        let ch = FreqChannel::random(&mut rng, 1, 1, 1.0, &profile);
        let powers: Vec<f64> = ch.iter().map(|m| m[(0, 0)].norm_sqr()).collect();
        let first = powers[0];
        assert!(powers.iter().all(|&p| (p - first).abs() < 1e-9 * first));
    }

    #[test]
    fn scale_power_scales_gain() {
        let mut rng = SimRng::seed_from(5);
        let ch = FreqChannel::random(&mut rng, 2, 2, 1e-5, &MultipathProfile::default());
        let scaled = ch.scale_power(0.1);
        assert!((scaled.mean_gain() / ch.mean_gain() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn evolve_preserves_statistics_and_interpolates() {
        let mut rng = SimRng::seed_from(6);
        let profile = MultipathProfile::default();
        let ch = FreqChannel::random(&mut rng, 2, 2, 1.0, &profile);
        // rho = 1: identical.
        let same = ch.evolve(&mut rng, 1.0, &profile);
        assert!((same.mean_gain() - ch.mean_gain()).abs() < 1e-9);
        for s in 0..DATA_SUBCARRIERS {
            assert!(same.at(s).approx_eq(ch.at(s), 1e-9));
        }
        // rho = 0: fresh channel, decorrelated. Subcarriers are correlated
        // across frequency (few taps), so average over many realizations.
        let mut corr = 0.0;
        let trials = 60;
        for _ in 0..trials {
            let base = FreqChannel::random(&mut rng, 2, 2, 1.0, &profile);
            let fresh = base.evolve(&mut rng, 0.0, &profile);
            corr += (0..DATA_SUBCARRIERS)
                .map(|s| {
                    (0..2)
                        .flat_map(|r| (0..2).map(move |t| (r, t)))
                        .map(|(r, t)| (base.at(s)[(r, t)].conj() * fresh.at(s)[(r, t)]).re)
                        .sum::<f64>()
                })
                .sum::<f64>()
                / (4.0 * DATA_SUBCARRIERS as f64);
        }
        corr /= trials as f64;
        assert!(corr.abs() < 0.1, "rho=0 should decorrelate, corr={corr}");
    }

    #[test]
    fn select_rx_subsets_rows() {
        let mut rng = SimRng::seed_from(7);
        let ch = FreqChannel::random(&mut rng, 2, 3, 1.0, &MultipathProfile::default());
        let one = ch.select_rx(&[1]);
        assert_eq!(one.rx(), 1);
        assert_eq!(one.tx(), 3);
        for s in 0..DATA_SUBCARRIERS {
            for t in 0..3 {
                assert_eq!(one.at(s)[(0, t)], ch.at(s)[(1, t)]);
            }
        }
    }

    #[test]
    fn select_rx_into_reuses_a_slot_across_shapes() {
        let mut rng = SimRng::seed_from(8);
        let wide = FreqChannel::random(&mut rng, 4, 4, 1.0, &MultipathProfile::default());
        let narrow = FreqChannel::random(&mut rng, 2, 3, 1.0, &MultipathProfile::default());
        let mut slot = FreqChannel::default();
        for (ch, rows) in [(&wide, &[3, 0][..]), (&narrow, &[1][..]), (&wide, &[2][..])] {
            ch.select_rx_into(rows, &mut slot);
            let fresh = ch.select_rx(rows);
            assert_eq!((slot.rx(), slot.tx()), (fresh.rx(), fresh.tx()));
            for s in 0..DATA_SUBCARRIERS {
                assert_eq!(slot.at(s), fresh.at(s), "subcarrier {s}, rows {rows:?}");
            }
        }
    }

    #[test]
    fn antenna_correlation_preserves_mean_gain() {
        let mut rng = SimRng::seed_from(91);
        let mut uncorr_sum = 0.0;
        let mut corr_sum = 0.0;
        for i in 0..100 {
            let ch =
                FreqChannel::random(&mut rng.fork(i), 2, 4, 1e-6, &MultipathProfile::default());
            uncorr_sum += ch.mean_gain();
            corr_sum += ch.with_antenna_correlation(0.8, 0.8).mean_gain();
        }
        assert!(
            (corr_sum / uncorr_sum - 1.0).abs() < 0.05,
            "correlation should preserve average gain: ratio {}",
            corr_sum / uncorr_sum
        );
    }

    #[test]
    fn correlation_reduces_effective_rank() {
        // High correlation squeezes the singular value spread: the
        // condition number of the per-subcarrier matrices grows.
        let mut rng = SimRng::seed_from(92);
        let mut cond_lo = 0.0;
        let mut cond_hi = 0.0;
        for i in 0..30 {
            let ch = FreqChannel::random(&mut rng.fork(i), 2, 4, 1.0, &MultipathProfile::default());
            let hi = ch.with_antenna_correlation(0.95, 0.95);
            let cond = |c: &FreqChannel| {
                let d = copa_num::svd::svd(c.at(0));
                d.s[0] / d.s[1].max(1e-12)
            };
            cond_lo += cond(&ch);
            cond_hi += cond(&hi);
        }
        assert!(
            cond_hi > cond_lo * 1.5,
            "correlation should worsen conditioning: {cond_hi} vs {cond_lo}"
        );
    }

    #[test]
    fn zero_correlation_is_identity() {
        let mut rng = SimRng::seed_from(93);
        let ch = FreqChannel::random(&mut rng, 2, 3, 1.0, &MultipathProfile::default());
        let same = ch.with_antenna_correlation(0.0, 0.0);
        for s in [0usize, 25, 51] {
            assert!(same.at(s).approx_eq(ch.at(s), 1e-15));
        }
    }

    #[test]
    fn scale_power_variants_are_bit_identical() {
        let mut rng = SimRng::seed_from(21);
        let ch = FreqChannel::random(&mut rng, 2, 4, 1e-6, &MultipathProfile::default());
        let owned = ch.scale_power(0.316);
        let mut pooled = FreqChannel::empty();
        ch.scale_power_into(0.316, &mut pooled);
        let mut in_place = ch.clone();
        in_place.scale_power_in_place(0.316);
        for s in 0..DATA_SUBCARRIERS {
            for r in 0..2 {
                for t in 0..4 {
                    let want = owned.at(s)[(r, t)];
                    for got in [pooled.at(s)[(r, t)], in_place.at(s)[(r, t)]] {
                        assert_eq!(want.re.to_bits(), got.re.to_bits());
                        assert_eq!(want.im.to_bits(), got.im.to_bits());
                    }
                }
            }
        }
        assert_eq!(pooled.rx(), 2);
        assert_eq!(pooled.tx(), 4);
    }

    #[test]
    fn map_into_matches_map() {
        let mut rng = SimRng::seed_from(22);
        let ch = FreqChannel::random(&mut rng, 3, 2, 1.0, &MultipathProfile::default());
        let owned = ch.map(|s, m| m.scale(1.0 + s as f64 * 0.01));
        let mut pooled = FreqChannel::empty();
        // Reuse across two calls to prove statelessness of the pool.
        ch.map_into(|_, src, dst| dst.copy_from(src), &mut pooled);
        ch.map_into(
            |s, src, dst| {
                dst.copy_from(src);
                let f = 1.0 + s as f64 * 0.01;
                for z in dst.as_mut_slice() {
                    *z = z.scale(f);
                }
            },
            &mut pooled,
        );
        for s in 0..DATA_SUBCARRIERS {
            for r in 0..3 {
                for t in 0..2 {
                    let a = owned.at(s)[(r, t)];
                    let b = pooled.at(s)[(r, t)];
                    assert_eq!(a.re.to_bits(), b.re.to_bits(), "({s},{r},{t})");
                    assert_eq!(a.im.to_bits(), b.im.to_bits(), "({s},{r},{t})");
                }
            }
        }
    }

    #[test]
    fn random_into_matches_random_bitwise() {
        let profile = MultipathProfile::default();
        let mut scratch = ChannelScratch::new();
        let mut pooled = FreqChannel::empty();
        for (rx, tx, gain) in [(1usize, 1usize, 1.0), (2, 4, 1e-6), (3, 2, 2.5e-7)] {
            let owned = FreqChannel::random(&mut SimRng::seed_from(77), rx, tx, gain, &profile);
            FreqChannel::random_into(
                &mut SimRng::seed_from(77),
                rx,
                tx,
                gain,
                &profile,
                &mut scratch,
                &mut pooled,
            );
            assert_eq!((pooled.rx(), pooled.tx()), (rx, tx));
            for s in 0..DATA_SUBCARRIERS {
                for r in 0..rx {
                    for t in 0..tx {
                        let a = owned.at(s)[(r, t)];
                        let b = pooled.at(s)[(r, t)];
                        assert_eq!(a.re.to_bits(), b.re.to_bits(), "({s},{r},{t})");
                        assert_eq!(a.im.to_bits(), b.im.to_bits(), "({s},{r},{t})");
                    }
                }
            }
        }
    }

    #[test]
    fn evolve_in_place_matches_evolve_bitwise() {
        let profile = MultipathProfile::default();
        let base = FreqChannel::random(&mut SimRng::seed_from(78), 2, 4, 1e-6, &profile);
        let mut scratch = ChannelScratch::new();
        for rho in [0.0, 0.5, 0.97] {
            let owned = base.evolve(&mut SimRng::seed_from(79), rho, &profile);
            let mut pooled = base.clone();
            pooled.evolve_in_place(&mut SimRng::seed_from(79), rho, &profile, &mut scratch);
            for s in 0..DATA_SUBCARRIERS {
                for r in 0..2 {
                    for t in 0..4 {
                        let a = owned.at(s)[(r, t)];
                        let b = pooled.at(s)[(r, t)];
                        assert_eq!(a.re.to_bits(), b.re.to_bits(), "rho={rho} ({s},{r},{t})");
                        assert_eq!(a.im.to_bits(), b.im.to_bits(), "rho={rho} ({s},{r},{t})");
                    }
                }
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let profile = MultipathProfile::default();
        let a = FreqChannel::random(&mut SimRng::seed_from(42), 2, 2, 1.0, &profile);
        let b = FreqChannel::random(&mut SimRng::seed_from(42), 2, 2, 1.0, &profile);
        for s in 0..DATA_SUBCARRIERS {
            assert!(a.at(s).approx_eq(b.at(s), 0.0_f64.max(1e-15)));
        }
    }
}
