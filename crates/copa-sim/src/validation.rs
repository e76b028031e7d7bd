//! Monte-Carlo validation of the analytic PHY models.
//!
//! The paper predicts throughput analytically from measured SINR (uncoded
//! BER formulas -> convolutional union bound -> FER). This module runs the
//! *bit-true* 802.11 pipeline (`copa-phy::baseband`: scramble, K=7 encode,
//! puncture, interleave, Gray-map) through simulated channels and compares
//! measured error rates against the analytic chain, so the reproduction's
//! prediction machinery is itself verified end to end.

use crate::json::{Obj, ToJson};
use crate::runner::par_map_indexed;
use copa_channel::{ChannelScratch, FreqChannel, MultipathProfile, TimeChannel};
use copa_num::complex::{C64, ZERO};
use copa_num::rng::SimRng;
use copa_num::special::db_to_lin;
use copa_phy::baseband::{Chain, ChainScratch, FlatSymbols};
use copa_phy::coding::{coded_ber, frame_error_rate_bits};
use copa_phy::mapper::Mapper;
use copa_phy::mcs::Mcs;
use copa_phy::modulation::Modulation;
use copa_phy::ofdm::{DATA_SUBCARRIERS, FFT_SIZE};
use copa_phy::waveform::{
    apply_cfo, demodulate_data_into, estimate_channel_into, modulate_frame_into, resample_sfo_into,
    synchronize, Preamble, WaveformImpairments, WaveformScratch, SYMBOL_SAMPLES,
};

/// The seeded ingredients every validator builds its bit-true pipeline
/// from. Constructed only by [`validator_setup`], so the frequency-domain
/// and waveform validators can never drift apart in MCS wiring, frame
/// sizing, or RNG seeding.
#[derive(Clone, Debug)]
pub struct ValidatorSetup {
    /// The bit-true 802.11 pipeline under test.
    pub chain: Chain,
    /// Payload bits per frame for the chosen frame length.
    pub payload_len: usize,
    /// The master RNG: payloads and noise draw from it directly, per-frame
    /// channels fork from it.
    pub rng: SimRng,
}

/// One shared, seeded constructor for both validation pipelines.
pub fn validator_setup(mcs: Mcs, symbols_per_frame: usize, seed: u64) -> ValidatorSetup {
    let chain = Chain::new(mcs);
    let payload_len = chain.payload_capacity(symbols_per_frame);
    ValidatorSetup {
        chain,
        payload_len,
        rng: SimRng::seed_from(seed),
    }
}

/// One uncoded-BER validation point.
#[derive(Clone, Debug)]
pub struct UncodedPoint {
    /// Constellation.
    pub modulation: String,
    /// Symbol SNR in dB.
    pub snr_db: f64,
    /// Analytic BER (the Gray-coding approximation).
    pub analytic: f64,
    /// Monte-Carlo BER from the real mapper over AWGN.
    pub simulated: f64,
}

/// Simulates hard-decision symbol detection over AWGN and compares with the
/// analytic uncoded BER at each `(modulation, snr_db)` pair.
pub fn validate_uncoded_ber(
    points: &[(Modulation, f64)],
    bits_per_point: usize,
    seed: u64,
) -> Vec<UncodedPoint> {
    let mut rng = SimRng::seed_from(seed);
    points
        .iter()
        .map(|&(m, snr_db)| {
            let mapper = Mapper::new(m);
            let bps = mapper.bits_per_symbol();
            let n_sym = bits_per_point / bps;
            let snr = db_to_lin(snr_db);
            let sigma = (1.0 / snr).sqrt();
            let mut errors = 0usize;
            let mut total = 0usize;
            let mut buf = Vec::with_capacity(bps);
            for _ in 0..n_sym {
                let bits: Vec<u8> = (0..bps).map(|_| (rng.next_u64() & 1) as u8).collect();
                let x = mapper.map_symbol(&bits);
                let y = x + rng.randc().scale(sigma);
                buf.clear();
                mapper.demap_symbol(y, &mut buf);
                errors += buf.iter().zip(&bits).filter(|(a, b)| a != b).count();
                total += bps;
            }
            UncodedPoint {
                modulation: m.to_string(),
                snr_db,
                analytic: m.uncoded_ber(snr),
                simulated: errors as f64 / total as f64,
            }
        })
        .collect()
}

/// One coded-chain validation point.
#[derive(Clone, Debug)]
pub struct CodedPoint {
    /// MCS description.
    pub mcs: String,
    /// Mean per-subcarrier SNR in dB (frequency-selective around it).
    pub mean_snr_db: f64,
    /// Analytic post-Viterbi BER from the subcarrier-averaged raw BER.
    pub analytic_ber: f64,
    /// Monte-Carlo post-Viterbi BER through the bit-true chain.
    pub simulated_ber: f64,
    /// Fraction of frames with at least one bit error (measured).
    pub simulated_fer: f64,
}

/// Runs whole frames through the bit-true chain over a frequency-selective
/// channel with per-subcarrier equalization, and compares the measured
/// post-Viterbi BER with the analytic union-bound prediction computed from
/// the same per-subcarrier SINRs.
pub fn validate_coded_chain(
    mcs: Mcs,
    mean_snr_db: f64,
    frames: usize,
    symbols_per_frame: usize,
    seed: u64,
) -> CodedPoint {
    let ValidatorSetup {
        chain,
        payload_len,
        mut rng,
    } = validator_setup(mcs, symbols_per_frame, seed);
    let noise = 1.0;
    let mean_gain = db_to_lin(mean_snr_db);

    let mut bit_errors = 0usize;
    let mut bits_total = 0usize;
    let mut frame_errors = 0usize;
    let mut analytic_sum = 0.0;

    for f in 0..frames {
        let mut ch_rng = rng.fork(f as u64);
        // Fresh frequency-selective SISO channel per frame.
        let ch = FreqChannel::random(&mut ch_rng, 1, 1, mean_gain, &MultipathProfile::default());
        let h: Vec<C64> = (0..DATA_SUBCARRIERS).map(|s| ch.at(s)[(0, 0)]).collect();
        let sinrs: Vec<f64> = h.iter().map(|hk| hk.norm_sqr() / noise).collect();

        // Analytic prediction for this channel realization.
        let raw: f64 = sinrs
            .iter()
            .map(|&g| mcs.modulation.uncoded_ber(g))
            .sum::<f64>()
            / sinrs.len() as f64;
        analytic_sum += coded_ber(raw, mcs.rate);

        // Bit-true transmission.
        let payload: Vec<u8> = (0..payload_len)
            .map(|_| (rng.next_u64() & 1) as u8)
            .collect();
        let tx = chain.transmit(&payload);
        let rx: Vec<Vec<C64>> = tx
            .symbols
            .iter()
            .map(|sym| {
                sym.iter()
                    .enumerate()
                    .map(|(s, &x)| {
                        let y = h[s] * x + rng.randc().scale(noise.sqrt());
                        y / h[s] // zero-forcing equalizer (exact CSI)
                    })
                    .collect()
            })
            .collect();
        let decoded = chain.receive(&rx, payload.len());
        let errs = decoded.iter().zip(&payload).filter(|(a, b)| a != b).count();
        bit_errors += errs;
        bits_total += payload.len();
        if errs > 0 {
            frame_errors += 1;
        }
    }

    CodedPoint {
        mcs: mcs.to_string(),
        mean_snr_db,
        analytic_ber: analytic_sum / frames as f64,
        simulated_ber: bit_errors as f64 / bits_total as f64,
        simulated_fer: frame_errors as f64 / frames as f64,
    }
}

/// Outcome of one waveform Monte-Carlo frame.
#[derive(Clone, Copy, Debug)]
pub struct WaveformOutcome {
    /// Payload bit errors after Viterbi decoding.
    pub bit_errors: usize,
    /// Whether any payload bit was wrong.
    pub frame_error: bool,
    /// The analytic union-bound FER for this channel realization.
    pub analytic_fer: f64,
    /// The frame start the receiver locked to (before residual offset).
    pub sync_start: usize,
}

/// A reusable bit-true waveform simulator for one `(MCS, SNR)` operating
/// point: every [`run_frame`] sends a fresh payload through IFFT/CP
/// framing, the tapped-delay channel, injected CFO/SFO/timing impairments,
/// sync, equalization and Viterbi decoding -- allocation-free once warmed.
///
/// Noise bookkeeping matches [`validate_coded_chain`] exactly: per-bin
/// noise variance is 1 (time-domain variance `1/FFT_SIZE` per sample) and
/// the channel is drawn with mean gain `db_to_lin(mean_snr_db)`, so the
/// analytic SINRs are the same quantity in both validators.
///
/// [`run_frame`]: WaveformSim::run_frame
#[derive(Clone, Debug)]
pub struct WaveformSim {
    chain: Chain,
    mcs: Mcs,
    payload_len: usize,
    mean_gain: f64,
    profile: MultipathProfile,
    imp: WaveformImpairments,
    preamble: Preamble,
    rng: SimRng,
    frame_idx: u64,
    // Pooled per-frame state.
    channel: TimeChannel,
    freq: FreqChannel,
    ch_scratch: ChannelScratch,
    chain_scratch: ChainScratch,
    wscratch: WaveformScratch,
    payload: Vec<u8>,
    decoded: Vec<u8>,
    tx_syms: FlatSymbols,
    clean: Vec<C64>,
    tx_wave: Vec<C64>,
    rx_wave: Vec<C64>,
    resampled: Vec<C64>,
    corrected: Vec<C64>,
    h_est: Vec<C64>,
    eq: Vec<C64>,
}

impl WaveformSim {
    /// Builds the simulator through the shared [`validator_setup`].
    pub fn new(
        mcs: Mcs,
        mean_snr_db: f64,
        symbols_per_frame: usize,
        profile: MultipathProfile,
        imp: WaveformImpairments,
        seed: u64,
    ) -> Self {
        let ValidatorSetup {
            chain,
            payload_len,
            rng,
        } = validator_setup(mcs, symbols_per_frame, seed);
        Self {
            chain,
            mcs,
            payload_len,
            mean_gain: db_to_lin(mean_snr_db),
            profile,
            imp,
            preamble: Preamble::standard(),
            rng,
            frame_idx: 0,
            channel: TimeChannel::empty(),
            freq: FreqChannel::empty(),
            ch_scratch: ChannelScratch::new(),
            chain_scratch: ChainScratch::new(),
            wscratch: WaveformScratch::new(),
            payload: Vec::new(),
            decoded: Vec::new(),
            tx_syms: FlatSymbols::new(),
            clean: Vec::new(),
            tx_wave: Vec::new(),
            rx_wave: Vec::new(),
            resampled: Vec::new(),
            corrected: Vec::new(),
            h_est: Vec::new(),
            eq: Vec::new(),
        }
    }

    /// Payload bits per frame.
    pub fn payload_len(&self) -> usize {
        self.payload_len
    }

    /// The equalized data symbols of the last frame (52 per OFDM symbol).
    pub fn equalized(&self) -> &[C64] {
        &self.eq
    }

    /// The transmitted per-subcarrier symbols of the last frame.
    pub fn tx_symbols(&self) -> &FlatSymbols {
        &self.tx_syms
    }

    // alloc-free: begin waveform_sim_frame (hot loop -- pooled buffers only)
    /// Runs one Monte-Carlo frame. Deterministic: the `n`-th call after
    /// construction depends only on the seed and configuration.
    pub fn run_frame(&mut self) -> WaveformOutcome {
        let f = self.frame_idx;
        self.frame_idx += 1;
        // Fresh tapped-delay SISO channel per frame, forked exactly like
        // the frequency-domain validator forks its FreqChannel.
        let mut ch_rng = self.rng.fork(f);
        TimeChannel::random_into(
            &mut ch_rng,
            1,
            1,
            self.mean_gain,
            &self.profile,
            &mut self.channel,
        );
        self.channel
            .freq_response_into(&mut self.ch_scratch, &mut self.freq);

        // Analytic prediction from the same realization's subcarrier SINRs
        // (per-bin noise variance is 1 by construction).
        let mut raw = 0.0;
        for s in 0..DATA_SUBCARRIERS {
            raw += self
                .mcs
                .modulation
                .uncoded_ber(self.freq.at(s)[(0, 0)].norm_sqr());
        }
        raw /= DATA_SUBCARRIERS as f64;
        let analytic_fer = frame_error_rate_bits(coded_ber(raw, self.mcs.rate), self.payload_len);

        // Bit-true transmit: payload -> symbols -> waveform.
        self.payload.clear();
        for _ in 0..self.payload_len {
            self.payload.push((self.rng.next_u64() & 1) as u8);
        }
        self.chain
            .transmit_into(&self.payload, &mut self.chain_scratch, &mut self.tx_syms);
        modulate_frame_into(
            &self.preamble,
            self.tx_syms.as_slice(),
            &mut self.wscratch,
            &mut self.clean,
        );

        // True timing offset in front, slack for sync windows behind.
        self.tx_wave.clear();
        self.tx_wave.resize(self.imp.timing_offset, ZERO);
        self.tx_wave.extend_from_slice(&self.clean);
        let tail = self.imp.search + SYMBOL_SAMPLES;
        let padded = self.tx_wave.len() + tail;
        self.tx_wave.resize(padded, ZERO);

        // Through the channel, then the receiver front end's impairments.
        self.channel.convolve_into(&self.tx_wave, &mut self.rx_wave);
        apply_cfo(&mut self.rx_wave, self.imp.cfo_hz);
        if self.imp.sfo_ppm != 0.0 {
            resample_sfo_into(&self.rx_wave, self.imp.sfo_ppm, &mut self.resampled);
            std::mem::swap(&mut self.rx_wave, &mut self.resampled);
        }
        let sigma = (1.0 / FFT_SIZE as f64).sqrt();
        for v in self.rx_wave.iter_mut() {
            *v += self.rng.randc().scale(sigma);
        }

        // Sync (or oracle timing), channel estimation, equalization.
        let sync_start = if self.imp.oracle_timing {
            self.corrected.clear();
            self.corrected.extend_from_slice(&self.rx_wave);
            self.imp.timing_offset
        } else {
            synchronize(
                &self.rx_wave,
                &self.preamble,
                self.imp.search,
                self.imp.correct_cfo,
                &mut self.corrected,
            )
            .start
        };
        let start = (sync_start as i64 + self.imp.residual_timing).max(0) as usize;
        estimate_channel_into(
            &self.corrected,
            start,
            &self.preamble,
            &mut self.wscratch,
            &mut self.h_est,
        );
        demodulate_data_into(
            &self.corrected,
            start,
            self.tx_syms.n_symbols(),
            &self.h_est,
            self.imp.track_phase,
            &mut self.wscratch,
            &mut self.eq,
        );

        // Decode and count.
        self.chain.receive_into(
            &self.eq,
            self.payload_len,
            &mut self.chain_scratch,
            &mut self.decoded,
        );
        let bit_errors = self
            .decoded
            .iter()
            .zip(&self.payload)
            .filter(|(a, b)| a != b)
            .count();
        WaveformOutcome {
            bit_errors,
            frame_error: bit_errors > 0,
            analytic_fer,
            sync_start,
        }
    }
    // alloc-free: end waveform_sim_frame
}

/// Configuration of a waveform validation grid (MCS x SNR).
#[derive(Clone, Debug)]
pub struct WaveformGridConfig {
    /// Indices into [`Mcs::TABLE`].
    pub mcs_indices: Vec<usize>,
    /// Mean per-subcarrier SNR grid in dB.
    pub snr_db: Vec<f64>,
    /// Monte-Carlo frames per grid point.
    pub frames: usize,
    /// OFDM data symbols per frame.
    pub symbols_per_frame: usize,
    /// Multipath profile (delay spread must fit the cyclic prefix).
    pub profile: MultipathProfile,
    /// Front-end impairments and receiver knobs.
    pub impairments: WaveformImpairments,
    /// Master seed; each grid point derives its own stream from it.
    pub seed: u64,
}

impl Default for WaveformGridConfig {
    /// A small smoke-sized grid: three MCS classes around their operating
    /// SNRs, benign impairments.
    fn default() -> Self {
        Self {
            mcs_indices: vec![0, 3, 7],
            snr_db: vec![4.0, 12.0, 24.0],
            frames: 40,
            symbols_per_frame: 4,
            profile: MultipathProfile::default(),
            impairments: WaveformImpairments::clean(),
            seed: 0x57A7_E001,
        }
    }
}

/// One measured grid point of the waveform validator.
#[derive(Clone, Debug)]
pub struct WaveformPoint {
    /// MCS description.
    pub mcs: String,
    /// Index into [`Mcs::TABLE`].
    pub mcs_index: usize,
    /// Mean per-subcarrier SNR in dB.
    pub snr_db: f64,
    /// Frames simulated.
    pub frames: usize,
    /// Frames with at least one payload bit error.
    pub frame_errors: usize,
    /// Total payload bit errors.
    pub bit_errors: usize,
    /// Total payload bits.
    pub bits: usize,
    /// Measured frame error rate.
    pub measured_fer: f64,
    /// Measured post-Viterbi bit error rate.
    pub measured_ber: f64,
    /// Analytic union-bound FER averaged over the same realizations.
    pub analytic_fer: f64,
}

/// Runs the waveform Monte-Carlo grid with `threads` workers. Each grid
/// point derives its own seed from `cfg.seed` and is simulated entirely by
/// whichever worker claims it, so results are bit-identical for any thread
/// count and across replays (points are returned in grid order: MCS outer,
/// SNR inner).
pub fn run_waveform_grid(cfg: &WaveformGridConfig, threads: usize) -> Vec<WaveformPoint> {
    let points: Vec<(usize, f64)> = cfg
        .mcs_indices
        .iter()
        .flat_map(|&m| cfg.snr_db.iter().map(move |&s| (m, s)))
        .collect();
    par_map_indexed(
        points.len(),
        threads,
        || (),
        |_, idx| {
            let (mcs_index, snr_db) = points[idx];
            let seed = cfg.seed.wrapping_add(idx as u64).wrapping_mul(0x9E37_79B9);
            let mcs = Mcs::TABLE[mcs_index];
            let mut sim = WaveformSim::new(
                mcs,
                snr_db,
                cfg.symbols_per_frame,
                cfg.profile,
                cfg.impairments,
                seed,
            );
            let mut frame_errors = 0usize;
            let mut bit_errors = 0usize;
            let mut analytic = 0.0;
            for _ in 0..cfg.frames {
                let o = sim.run_frame();
                if o.frame_error {
                    frame_errors += 1;
                }
                bit_errors += o.bit_errors;
                analytic += o.analytic_fer;
            }
            let bits = cfg.frames * sim.payload_len();
            WaveformPoint {
                mcs: mcs.to_string(),
                mcs_index,
                snr_db,
                frames: cfg.frames,
                frame_errors,
                bit_errors,
                bits,
                measured_fer: frame_errors as f64 / cfg.frames as f64,
                measured_ber: bit_errors as f64 / bits.max(1) as f64,
                analytic_fer: analytic / cfg.frames as f64,
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncoded_ber_formulas_match_simulation() {
        let points = [
            (Modulation::Bpsk, 6.0),
            (Modulation::Qpsk, 8.0),
            (Modulation::Qam16, 14.0),
            (Modulation::Qam64, 20.0),
        ];
        for p in validate_uncoded_ber(&points, 400_000, 0xBE12) {
            assert!(
                p.simulated > 0.0,
                "{} at {} dB: need measurable errors",
                p.modulation,
                p.snr_db
            );
            let ratio = p.analytic / p.simulated;
            assert!(
                (0.5..2.0).contains(&ratio),
                "{} at {} dB: analytic {:.2e} vs simulated {:.2e}",
                p.modulation,
                p.snr_db,
                p.analytic,
                p.simulated
            );
        }
    }

    #[test]
    fn coded_chain_tracks_union_bound() {
        // Pick an operating point with measurable errors: QPSK 1/2 around
        // 4 dB mean SNR on faded channels.
        let point = validate_coded_chain(Mcs::TABLE[1], 4.0, 60, 4, 0xC0DE);
        assert!(
            point.simulated_ber > 0.0,
            "need errors to compare: {point:?}"
        );
        // The union bound is an upper bound on average, and the analytic
        // chain ignores frequency-selective interleaving detail; require
        // order-of-magnitude agreement.
        let ratio = point.analytic_ber / point.simulated_ber;
        assert!(
            (0.05..100.0).contains(&ratio),
            "analytic {:.2e} vs simulated {:.2e}",
            point.analytic_ber,
            point.simulated_ber
        );
    }

    #[test]
    fn clean_snr_gives_clean_frames() {
        let point = validate_coded_chain(Mcs::TABLE[0], 25.0, 20, 4, 0xC1EA);
        assert_eq!(point.simulated_fer, 0.0, "{point:?}");
        assert_eq!(point.simulated_ber, 0.0);
    }

    #[test]
    fn waveform_decodes_cleanly_at_high_snr() {
        // MCS0 at 25 dB through the full waveform pipeline (sync, channel
        // estimation, equalization) must produce zero frame errors, like
        // the frequency-domain path at the same operating point.
        let mut sim = WaveformSim::new(
            Mcs::TABLE[0],
            25.0,
            4,
            MultipathProfile::default(),
            WaveformImpairments::clean(),
            0x3A5E,
        );
        for f in 0..10 {
            let o = sim.run_frame();
            assert_eq!(o.bit_errors, 0, "frame {f}: {o:?}");
        }
    }

    #[test]
    fn waveform_equalized_symbols_match_frequency_path_at_zero_impairment() {
        // The stated zero-impairment equivalence: at negligible noise and
        // oracle timing, the equalized waveform symbols equal the
        // transmitted per-subcarrier symbols (which is exactly what the
        // frequency-domain validator's zero-forcing path returns at zero
        // noise) to FFT round-trip precision.
        let mut imp = WaveformImpairments::clean();
        imp.oracle_timing = true;
        let mut sim = WaveformSim::new(
            Mcs::TABLE[4],
            160.0,
            3,
            MultipathProfile::default(),
            imp,
            0x51AB,
        );
        let o = sim.run_frame();
        assert_eq!(o.bit_errors, 0);
        let tx = sim.tx_symbols().as_slice().to_vec();
        for (a, b) in tx.iter().zip(sim.equalized()) {
            assert!((*a - *b).abs() < 1e-6, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn waveform_sync_locks_near_true_offset() {
        let mut sim = WaveformSim::new(
            Mcs::TABLE[1],
            18.0,
            4,
            MultipathProfile::default(),
            WaveformImpairments::clean(),
            0x5C4A,
        );
        for _ in 0..8 {
            let o = sim.run_frame();
            // Multipath may pull the lock a few taps late (first strong
            // tap), never before the true start at this SNR.
            let d = o.sync_start as i64 - 12;
            assert!((0..=6).contains(&d), "sync at {} vs true 12", o.sync_start);
        }
    }

    #[test]
    fn waveform_grid_orders_points_and_counts_bits() {
        let cfg = WaveformGridConfig {
            mcs_indices: vec![0, 1],
            snr_db: vec![6.0, 10.0],
            frames: 4,
            symbols_per_frame: 3,
            ..WaveformGridConfig::default()
        };
        let grid = run_waveform_grid(&cfg, 2);
        assert_eq!(grid.len(), 4);
        assert_eq!(
            grid.iter()
                .map(|p| (p.mcs_index, p.snr_db))
                .collect::<Vec<_>>(),
            vec![(0, 6.0), (0, 10.0), (1, 6.0), (1, 10.0)]
        );
        for p in &grid {
            assert_eq!(p.frames, 4);
            assert!(p.bits > 0);
            assert!(p.measured_fer >= 0.0 && p.measured_fer <= 1.0);
            assert!(p.analytic_fer >= 0.0 && p.analytic_fer <= 1.0);
        }
    }
}

impl ToJson for UncodedPoint {
    fn write_json(&self, out: &mut String) {
        Obj::new(out)
            .field("modulation", &self.modulation)
            .field("snr_db", &self.snr_db)
            .field("analytic", &self.analytic)
            .field("simulated", &self.simulated)
            .finish();
    }
}

impl ToJson for CodedPoint {
    fn write_json(&self, out: &mut String) {
        Obj::new(out)
            .field("mcs", &self.mcs)
            .field("mean_snr_db", &self.mean_snr_db)
            .field("analytic_ber", &self.analytic_ber)
            .field("simulated_ber", &self.simulated_ber)
            .field("simulated_fer", &self.simulated_fer)
            .finish();
    }
}

impl ToJson for WaveformPoint {
    fn write_json(&self, out: &mut String) {
        Obj::new(out)
            .field("mcs", &self.mcs)
            .field("mcs_index", &self.mcs_index)
            .field("snr_db", &self.snr_db)
            .field("frames", &self.frames)
            .field("frame_errors", &self.frame_errors)
            .field("bit_errors", &self.bit_errors)
            .field("bits", &self.bits)
            .field("measured_fer", &self.measured_fer)
            .field("measured_ber", &self.measured_ber)
            .field("analytic_fer", &self.analytic_fer)
            .finish();
    }
}
