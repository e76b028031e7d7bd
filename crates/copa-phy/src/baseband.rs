//! Symbol-level OFDM baseband: the full 802.11 bit pipeline.
//!
//! `scramble -> convolutional encode (punctured) -> interleave per OFDM
//! symbol -> Gray-map -> subcarriers` and the exact reverse. The analytic
//! BER/throughput models in [`crate::link`] are validated against this
//! bit-true chain by Monte-Carlo tests in `copa-sim`.
//!
//! A time-domain OFDM modulator (64-point IFFT + 16-sample cyclic prefix at
//! 20 MHz) is included for completeness; over a CP-contained multipath
//! channel it is equivalent to per-subcarrier complex multiplication, which
//! is what the link simulations use.

use crate::coding::{
    coded_len, encode, encode_append, viterbi_decode, viterbi_decode_into, ViterbiScratch,
    CONSTRAINT_LENGTH,
};
use crate::interleaver::Interleaver;
use crate::mapper::Mapper;
use crate::mcs::Mcs;
use crate::ofdm::{data_subcarrier_bins, DATA_SUBCARRIERS, FFT_SIZE};
use crate::scrambler::Scrambler;
use copa_num::complex::{C64, ZERO};
use copa_num::fft::{fft, ifft};

/// Cyclic prefix length in samples (800 ns at 20 MHz).
pub const CP_SAMPLES: usize = 16;

/// One modulated frame: per OFDM symbol, the 52 data-subcarrier symbols.
#[derive(Clone, Debug)]
pub struct TxFrame {
    /// `symbols[t][s]`: complex symbol on data subcarrier `s` of OFDM
    /// symbol `t`. Unit average energy per subcarrier.
    pub symbols: Vec<Vec<C64>>,
    /// Number of payload bits carried (before padding).
    pub payload_bits: usize,
}

/// A frame of per-subcarrier symbols in one flat buffer
/// (`data[t * DATA_SUBCARRIERS + s]`), reusable across frames without
/// reallocation -- the waveform Monte-Carlo path uses this instead of the
/// nested [`TxFrame`] layout.
#[derive(Clone, Debug, Default)]
pub struct FlatSymbols {
    data: Vec<C64>,
    n_symbols: usize,
    payload_bits: usize,
}

impl FlatSymbols {
    /// An empty buffer; grows on first use and is then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of OFDM symbols held.
    pub fn n_symbols(&self) -> usize {
        self.n_symbols
    }

    /// Payload bits carried (before padding).
    pub fn payload_bits(&self) -> usize {
        self.payload_bits
    }

    /// The 52 data-subcarrier symbols of OFDM symbol `t`.
    pub fn symbol(&self, t: usize) -> &[C64] {
        &self.data[t * DATA_SUBCARRIERS..(t + 1) * DATA_SUBCARRIERS]
    }

    /// All symbols, flat.
    pub fn as_slice(&self) -> &[C64] {
        &self.data
    }
}

/// Reusable working buffers for [`Chain::transmit_into`] /
/// [`Chain::receive_into`]: one scratch serves any MCS, growing to the
/// largest frame seen and allocation-free thereafter.
#[derive(Clone, Debug, Default)]
pub struct ChainScratch {
    bits: Vec<u8>,
    coded: Vec<u8>,
    inter: Vec<u8>,
    hard: Vec<u8>,
    viterbi: ViterbiScratch,
}

impl ChainScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The 802.11 transmit/receive bit pipeline for one MCS.
#[derive(Clone, Debug)]
pub struct Chain {
    mcs: Mcs,
    mapper: Mapper,
    interleaver: Interleaver,
    scrambler_seed: u8,
}

impl Chain {
    /// Builds the pipeline for an MCS (scrambler seed fixed for
    /// reproducibility; any nonzero value works).
    pub fn new(mcs: Mcs) -> Self {
        Self {
            mcs,
            mapper: Mapper::new(mcs.modulation),
            interleaver: Interleaver::new(mcs.modulation),
            scrambler_seed: 0x5D,
        }
    }

    /// The MCS this chain implements.
    pub fn mcs(&self) -> Mcs {
        self.mcs
    }

    /// Encodes payload bits into per-subcarrier symbols.
    pub fn transmit(&self, payload: &[u8]) -> TxFrame {
        // Scramble.
        let mut bits = payload.to_vec();
        Scrambler::new(self.scrambler_seed).process(&mut bits);
        // Convolutional encode (adds tail, applies puncturing).
        let mut coded = encode(&bits, self.mcs.rate);
        // Pad to a whole number of OFDM symbols.
        let block = self.interleaver.block_len();
        let pad = (block - coded.len() % block) % block;
        coded.extend(std::iter::repeat_n(0u8, pad));
        // Interleave + map per OFDM symbol.
        let symbols = coded
            .chunks(block)
            .map(|chunk| self.mapper.map(&self.interleaver.interleave(chunk)))
            .collect();
        TxFrame {
            symbols,
            payload_bits: payload.len(),
        }
    }

    /// Decodes received per-subcarrier symbols (after equalization) back to
    /// payload bits. `payload_bits` must match the transmitted frame.
    pub fn receive(&self, received: &[Vec<C64>], payload_bits: usize) -> Vec<u8> {
        let mut coded = Vec::new();
        for sym in received {
            assert_eq!(sym.len(), DATA_SUBCARRIERS, "need all data subcarriers");
            let hard = self.mapper.demap(sym);
            coded.extend(self.interleaver.deinterleave(&hard));
        }
        // Trim the padding: reconstruct the exact punctured length.
        coded.truncate(coded_len(payload_bits, self.mcs.rate));
        let mut bits = viterbi_decode(&coded, payload_bits, self.mcs.rate);
        Scrambler::new(self.scrambler_seed).process(&mut bits);
        bits
    }

    // alloc-free: begin chain_into (kernel -- caller-owned scratch)
    /// [`transmit`] writing into caller-owned buffers: bit-identical symbols
    /// (same scramble/encode/pad/interleave/map sequence), no allocation
    /// once the scratch has grown to the frame size.
    ///
    /// [`transmit`]: Chain::transmit
    pub fn transmit_into(&self, payload: &[u8], scratch: &mut ChainScratch, out: &mut FlatSymbols) {
        scratch.bits.clear();
        scratch.bits.extend_from_slice(payload);
        Scrambler::new(self.scrambler_seed).process(&mut scratch.bits);
        scratch.coded.clear();
        encode_append(&scratch.bits, self.mcs.rate, &mut scratch.coded);
        let block = self.interleaver.block_len();
        let pad = (block - scratch.coded.len() % block) % block;
        let padded = scratch.coded.len() + pad;
        scratch.coded.resize(padded, 0);
        out.data.clear();
        out.n_symbols = padded / block;
        out.payload_bits = payload.len();
        let bps = self.mapper.bits_per_symbol();
        for chunk_start in (0..padded).step_by(block) {
            self.interleaver.interleave_into(
                &scratch.coded[chunk_start..chunk_start + block],
                &mut scratch.inter,
            );
            for group in scratch.inter.chunks(bps) {
                out.data.push(self.mapper.map_symbol(group));
            }
        }
    }

    /// [`receive`] from a flat (post-equalization) symbol buffer into
    /// caller-owned scratch: bit-identical decisions, no allocation once
    /// warmed. `symbols.len()` must be a multiple of 52.
    ///
    /// [`receive`]: Chain::receive
    pub fn receive_into(
        &self,
        symbols: &[C64],
        payload_bits: usize,
        scratch: &mut ChainScratch,
        out: &mut Vec<u8>,
    ) {
        assert_eq!(symbols.len() % DATA_SUBCARRIERS, 0, "need whole symbols");
        scratch.coded.clear();
        for sym in symbols.chunks(DATA_SUBCARRIERS) {
            scratch.hard.clear();
            for &y in sym {
                self.mapper.demap_symbol(y, &mut scratch.hard);
            }
            self.interleaver
                .deinterleave_into(&scratch.hard, &mut scratch.inter);
            scratch.coded.extend_from_slice(&scratch.inter);
        }
        scratch
            .coded
            .truncate(coded_len(payload_bits, self.mcs.rate));
        viterbi_decode_into(
            &scratch.coded,
            payload_bits,
            self.mcs.rate,
            &mut scratch.viterbi,
            out,
        );
        Scrambler::new(self.scrambler_seed).process(out);
    }
    // alloc-free: end chain_into

    /// Payload bits that fit in `n_symbols` OFDM symbols (ignoring tail
    /// rounding; useful for sizing test frames).
    pub fn payload_capacity(&self, n_symbols: usize) -> usize {
        let coded = n_symbols * self.interleaver.block_len();
        let (k, n) = self.mcs.rate.ratio();
        (coded * k / n).saturating_sub(CONSTRAINT_LENGTH - 1)
    }

    /// Soft-decision receive: per-subcarrier LLR demapping followed by a
    /// soft Viterbi pass (the ~2 dB-better path real receivers use).
    ///
    /// `noise_var[t][s]` is the post-equalization complex noise variance of
    /// OFDM symbol `t`, subcarrier `s` (for zero-forcing equalization this
    /// is `noise / |h_s|^2`, so faded subcarriers contribute weak LLRs --
    /// exactly the per-subcarrier reliability information hard decisions
    /// throw away).
    pub fn receive_soft(
        &self,
        received: &[Vec<C64>],
        noise_var: &[Vec<f64>],
        payload_bits: usize,
    ) -> Vec<u8> {
        assert_eq!(received.len(), noise_var.len());
        let block = self.interleaver.block_len();
        let bps = self.mapper.bits_per_symbol();
        let mut llrs: Vec<f64> = Vec::new();
        for (sym, nv) in received.iter().zip(noise_var) {
            assert_eq!(sym.len(), DATA_SUBCARRIERS);
            // LLRs in interleaved order...
            let mut sym_llrs = Vec::with_capacity(block);
            for (s, &y) in sym.iter().enumerate() {
                crate::soft::soft_demap(&self.mapper, y, nv[s], &mut sym_llrs);
            }
            debug_assert_eq!(sym_llrs.len(), DATA_SUBCARRIERS * bps);
            // ...deinterleaved back to coded order.
            let mut deint = vec![0.0; block];
            for (j, llr) in sym_llrs.iter().enumerate() {
                deint[self.interleaver.deinterleave_index(j)] = *llr;
            }
            llrs.extend(deint);
        }
        llrs.truncate(coded_len(payload_bits, self.mcs.rate));
        let mut bits = crate::soft::soft_viterbi_decode(&llrs, payload_bits, self.mcs.rate);
        Scrambler::new(self.scrambler_seed).process(&mut bits);
        bits
    }
}

/// Time-domain OFDM modulation of one symbol: places the 52 data symbols on
/// their FFT bins, IFFTs, and prepends the cyclic prefix
/// (returns `FFT_SIZE + CP_SAMPLES` samples).
pub fn ofdm_modulate(data: &[C64]) -> Vec<C64> {
    assert_eq!(data.len(), DATA_SUBCARRIERS);
    let bins = data_subcarrier_bins();
    let mut freq = vec![ZERO; FFT_SIZE];
    for (&bin, &x) in bins.iter().zip(data) {
        freq[bin] = x;
    }
    let time = ifft(&freq);
    let mut out = Vec::with_capacity(FFT_SIZE + CP_SAMPLES);
    out.extend_from_slice(&time[FFT_SIZE - CP_SAMPLES..]);
    out.extend_from_slice(&time);
    out
}

/// Inverse of [`ofdm_modulate`]: strips the CP, FFTs, extracts data bins.
pub fn ofdm_demodulate(samples: &[C64]) -> Vec<C64> {
    assert_eq!(samples.len(), FFT_SIZE + CP_SAMPLES);
    let freq = fft(&samples[CP_SAMPLES..]);
    let bins = data_subcarrier_bins();
    bins.iter().map(|&b| freq[b]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use copa_num::SimRng;

    fn random_bits(rng: &mut SimRng, n: usize) -> Vec<u8> {
        (0..n).map(|_| (rng.next_u64() & 1) as u8).collect()
    }

    #[test]
    fn clean_channel_round_trip_all_mcs() {
        let mut rng = SimRng::seed_from(1);
        for mcs in Mcs::TABLE {
            let chain = Chain::new(mcs);
            let payload = random_bits(&mut rng, chain.payload_capacity(6));
            let frame = chain.transmit(&payload);
            let decoded = chain.receive(&frame.symbols, payload.len());
            assert_eq!(decoded, payload, "{mcs}");
        }
    }

    #[test]
    fn survives_additive_noise_within_margin() {
        // MCS0 (BPSK 1/2) at 10 dB SNR decodes error-free with
        // overwhelming probability.
        let mut rng = SimRng::seed_from(2);
        let chain = Chain::new(Mcs::TABLE[0]);
        let payload = random_bits(&mut rng, chain.payload_capacity(10));
        let frame = chain.transmit(&payload);
        let sigma = copa_num::special::db_to_lin(-10.0).sqrt();
        let noisy: Vec<Vec<C64>> = frame
            .symbols
            .iter()
            .map(|sym| sym.iter().map(|&x| x + rng.randc().scale(sigma)).collect())
            .collect();
        let decoded = chain.receive(&noisy, payload.len());
        assert_eq!(decoded, payload);
    }

    #[test]
    fn high_mcs_fails_at_low_snr() {
        // MCS7 (64-QAM 5/6) at 8 dB must produce bit errors -- the chain is
        // honest about its limits.
        let mut rng = SimRng::seed_from(3);
        let chain = Chain::new(Mcs::TABLE[7]);
        let payload = random_bits(&mut rng, chain.payload_capacity(10));
        let frame = chain.transmit(&payload);
        let sigma = copa_num::special::db_to_lin(-8.0).sqrt();
        let noisy: Vec<Vec<C64>> = frame
            .symbols
            .iter()
            .map(|sym| sym.iter().map(|&x| x + rng.randc().scale(sigma)).collect())
            .collect();
        let decoded = chain.receive(&noisy, payload.len());
        let errs = decoded.iter().zip(&payload).filter(|(a, b)| a != b).count();
        assert!(errs > 0, "MCS7 at 8 dB should not decode cleanly");
    }

    #[test]
    fn soft_receive_round_trips_cleanly() {
        let mut rng = SimRng::seed_from(7);
        for mcs in [Mcs::TABLE[0], Mcs::TABLE[4], Mcs::TABLE[7]] {
            let chain = Chain::new(mcs);
            let payload = random_bits(&mut rng, chain.payload_capacity(5));
            let frame = chain.transmit(&payload);
            let nv = vec![vec![1e-4; DATA_SUBCARRIERS]; frame.symbols.len()];
            let decoded = chain.receive_soft(&frame.symbols, &nv, payload.len());
            assert_eq!(decoded, payload, "{mcs}");
        }
    }

    #[test]
    fn soft_receive_beats_hard_at_marginal_snr() {
        // MCS3 (16-QAM 1/2) near its sensitivity threshold: soft decoding
        // should leave fewer bit errors than hard decoding on the same
        // received symbols, aggregated over several frames.
        let mut rng = SimRng::seed_from(8);
        let chain = Chain::new(Mcs::TABLE[3]);
        let snr_db = 7.0;
        let sigma2 = copa_num::special::db_to_lin(-snr_db);
        let mut hard_errs = 0usize;
        let mut soft_errs = 0usize;
        for _ in 0..8 {
            let payload = random_bits(&mut rng, chain.payload_capacity(6));
            let frame = chain.transmit(&payload);
            let noisy: Vec<Vec<C64>> = frame
                .symbols
                .iter()
                .map(|sym| {
                    sym.iter()
                        .map(|&x| x + rng.randc().scale(sigma2.sqrt()))
                        .collect()
                })
                .collect();
            let hard = chain.receive(&noisy, payload.len());
            let nv = vec![vec![sigma2; DATA_SUBCARRIERS]; noisy.len()];
            let soft = chain.receive_soft(&noisy, &nv, payload.len());
            hard_errs += hard.iter().zip(&payload).filter(|(a, b)| a != b).count();
            soft_errs += soft.iter().zip(&payload).filter(|(a, b)| a != b).count();
        }
        assert!(
            soft_errs < hard_errs,
            "soft ({soft_errs}) should beat hard ({hard_errs}) at {snr_db} dB"
        );
    }

    #[test]
    fn ofdm_time_domain_round_trip() {
        let mut rng = SimRng::seed_from(4);
        let data: Vec<C64> = (0..DATA_SUBCARRIERS).map(|_| rng.randc()).collect();
        let time = ofdm_modulate(&data);
        assert_eq!(time.len(), 80);
        let back = ofdm_demodulate(&time);
        for (a, b) in data.iter().zip(&back) {
            assert!((*a - *b).abs() < 1e-10);
        }
    }

    #[test]
    fn cyclic_prefix_is_a_copy_of_the_tail() {
        let mut rng = SimRng::seed_from(5);
        let data: Vec<C64> = (0..DATA_SUBCARRIERS).map(|_| rng.randc()).collect();
        let time = ofdm_modulate(&data);
        for i in 0..CP_SAMPLES {
            assert!((time[i] - time[FFT_SIZE + i]).abs() < 1e-12);
        }
    }

    #[test]
    fn cp_absorbs_channel_delay() {
        // A two-tap channel (delay < CP) applied in the time domain equals
        // per-subcarrier multiplication by the channel's frequency response.
        let mut rng = SimRng::seed_from(6);
        let data: Vec<C64> = (0..DATA_SUBCARRIERS).map(|_| rng.randc()).collect();
        let time = ofdm_modulate(&data);
        let h0 = C64::new(0.8, 0.1);
        let h3 = C64::new(-0.3, 0.4);
        // Convolve (circularly valid thanks to the CP; ignore the first
        // CP samples which carry inter-symbol junk in a real stream).
        let mut rx = vec![ZERO; time.len()];
        for (i, &x) in time.iter().enumerate() {
            rx[i] += h0 * x;
            if i + 3 < time.len() {
                rx[i + 3] += h3 * x;
            }
        }
        let received = ofdm_demodulate(&rx);
        // Expected: H[k] * data[k] with H from the tapped delay line.
        let resp = copa_num::fft::tapped_delay_response(&[(0, h0), (3, h3)], FFT_SIZE);
        let bins = data_subcarrier_bins();
        for ((r, &bin), d) in received.iter().zip(&bins).zip(&data) {
            let expect = resp[bin] * *d;
            assert!(
                (*r - expect).abs() < 1e-9,
                "subcarrier at bin {bin}: {r:?} vs {expect:?}"
            );
        }
    }

    #[test]
    fn pooled_chain_is_bit_identical_and_reusable() {
        // One scratch reused across every MCS: the pooled transmit/receive
        // must reproduce the owned paths bit for bit, including through
        // noise-corrupted symbols.
        let mut rng = SimRng::seed_from(9);
        let mut scratch = ChainScratch::new();
        let mut flat = FlatSymbols::new();
        let mut decoded_pooled = Vec::new();
        for mcs in Mcs::TABLE {
            let chain = Chain::new(mcs);
            let payload = random_bits(&mut rng, chain.payload_capacity(5));
            let frame = chain.transmit(&payload);
            chain.transmit_into(&payload, &mut scratch, &mut flat);
            assert_eq!(flat.n_symbols(), frame.symbols.len(), "{mcs}");
            assert_eq!(flat.payload_bits(), payload.len());
            for (t, sym) in frame.symbols.iter().enumerate() {
                for (a, b) in sym.iter().zip(flat.symbol(t)) {
                    assert_eq!(a.re.to_bits(), b.re.to_bits(), "{mcs}");
                    assert_eq!(a.im.to_bits(), b.im.to_bits(), "{mcs}");
                }
            }
            // Corrupt the symbols and compare the decoded bits.
            let sigma = 0.15;
            let noisy: Vec<Vec<C64>> = frame
                .symbols
                .iter()
                .map(|sym| sym.iter().map(|&x| x + rng.randc().scale(sigma)).collect())
                .collect();
            let noisy_flat: Vec<C64> = noisy.iter().flatten().copied().collect();
            let owned = chain.receive(&noisy, payload.len());
            chain.receive_into(
                &noisy_flat,
                payload.len(),
                &mut scratch,
                &mut decoded_pooled,
            );
            assert_eq!(owned, decoded_pooled, "{mcs}");
        }
    }

    #[test]
    fn payload_capacity_consistent() {
        for mcs in Mcs::TABLE {
            let chain = Chain::new(mcs);
            let cap = chain.payload_capacity(8);
            let frame = chain.transmit(&vec![0u8; cap]);
            assert!(
                frame.symbols.len() <= 8,
                "{mcs}: {} symbols for capacity payload",
                frame.symbols.len()
            );
        }
    }
}
