//! Bit-true multi-stream (MIMO) transmission.
//!
//! Extends the single-stream baseband [`crate::baseband::Chain`] to spatial
//! multiplexing the way 802.11n does with equal modulation per stream: one
//! scrambler + encoder feeds a round-robin *stream parser*, each spatial
//! stream gets its own interleaver and Gray mapper, and the receiver
//! zero-forces the per-subcarrier effective channel (`H x precoder`) before
//! per-stream soft demapping and a single soft Viterbi pass.
//!
//! Together with `copa-precoding` this closes the loop: actual bits travel
//! through an actual beamformed 2x4 MIMO channel, validating end to end the
//! spatial-multiplexing assumptions behind every throughput number in the
//! evaluation.

use crate::coding::{coded_len, encode, CONSTRAINT_LENGTH};
use crate::interleaver::Interleaver;
use crate::mapper::Mapper;
use crate::mcs::Mcs;
use crate::ofdm::DATA_SUBCARRIERS;
use crate::scrambler::Scrambler;
use crate::soft::{soft_demap, soft_viterbi_decode};
use copa_num::complex::C64;
use copa_num::matrix::CMat;
use copa_num::solve::inverse_loaded;

/// A modulated MIMO frame.
#[derive(Clone, Debug)]
pub struct MimoFrame {
    /// `symbols[t][k][s]`: OFDM symbol `t`, spatial stream `k`,
    /// subcarrier `s`.
    pub symbols: Vec<Vec<Vec<C64>>>,
    /// Payload bits carried.
    pub payload_bits: usize,
}

/// The multi-stream bit pipeline.
#[derive(Clone, Debug)]
pub struct MimoChain {
    mcs: Mcs,
    streams: usize,
    mapper: Mapper,
    interleaver: Interleaver,
    scrambler_seed: u8,
    /// Stream-parser block size: `max(N_BPSC / 2, 1)` bits round-robin.
    parse_block: usize,
}

impl MimoChain {
    /// Builds an equal-modulation chain with `streams` spatial streams.
    pub fn new(mcs: Mcs, streams: usize) -> Self {
        assert!(streams >= 1 && streams <= 4);
        let bpsc = mcs.modulation.bits_per_symbol() as usize;
        Self {
            mcs,
            streams,
            mapper: Mapper::new(mcs.modulation),
            interleaver: Interleaver::new(mcs.modulation),
            scrambler_seed: 0x5D,
            parse_block: (bpsc / 2).max(1),
        }
    }

    /// Spatial streams.
    pub fn streams(&self) -> usize {
        self.streams
    }

    /// Payload bits that fit in `n_symbols` OFDM symbols across all streams.
    pub fn payload_capacity(&self, n_symbols: usize) -> usize {
        let coded = n_symbols * self.streams * self.interleaver.block_len();
        let (k, n) = self.mcs.rate.ratio();
        (coded * k / n).saturating_sub(CONSTRAINT_LENGTH - 1)
    }

    /// Round-robin stream parser (802.11n 22.3.10.6, equal modulation):
    /// `parse_block`-bit groups go to streams 0, 1, ... cyclically.
    fn stream_parse(&self, coded: &[u8]) -> Vec<Vec<u8>> {
        let mut out = vec![Vec::with_capacity(coded.len() / self.streams + 8); self.streams];
        for (g, chunk) in coded.chunks(self.parse_block).enumerate() {
            out[g % self.streams].extend_from_slice(chunk);
        }
        out
    }

    /// Inverse of [`stream_parse`] for per-stream LLRs.
    ///
    /// [`stream_parse`]: MimoChain::stream_parse
    fn stream_merge(&self, per_stream: &[Vec<f64>], total: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(total);
        let mut cursors = vec![0usize; self.streams];
        let mut g = 0usize;
        while out.len() < total {
            let k = g % self.streams;
            let take = self.parse_block.min(total - out.len());
            for i in 0..take {
                out.push(per_stream[k][cursors[k] + i]);
            }
            cursors[k] += take;
            g += 1;
        }
        out
    }

    /// Encodes payload bits into per-stream, per-subcarrier symbols.
    pub fn transmit(&self, payload: &[u8]) -> MimoFrame {
        let mut bits = payload.to_vec();
        Scrambler::new(self.scrambler_seed).process(&mut bits);
        let mut coded = encode(&bits, self.mcs.rate);
        // Pad so every stream fills whole OFDM symbols, equally.
        let per_symbol = self.streams * self.interleaver.block_len();
        let pad = (per_symbol - coded.len() % per_symbol) % per_symbol;
        coded.extend(std::iter::repeat_n(0u8, pad));
        let stream_bits = self.stream_parse(&coded);

        let n_symbols = stream_bits[0].len() / self.interleaver.block_len();
        let mut symbols = vec![vec![Vec::new(); self.streams]; n_symbols];
        for (k, bits_k) in stream_bits.iter().enumerate() {
            for (t, chunk) in bits_k.chunks(self.interleaver.block_len()).enumerate() {
                symbols[t][k] = self.mapper.map(&self.interleaver.interleave(chunk));
            }
        }
        MimoFrame {
            symbols,
            payload_bits: payload.len(),
        }
    }

    /// Receives raw antenna observations.
    ///
    /// `received[t][s]` is the rx-antenna vector on OFDM symbol `t`,
    /// subcarrier `s`; `effective[s]` the effective channel `H_s P_s
    /// diag(sqrt(p))` (rx x streams); `noise_var` the per-antenna complex
    /// noise variance. Zero-forcing separates the streams; per-stream
    /// post-ZF noise (`noise_var * [(Q^H Q)^{-1}]_kk`) weights the LLRs.
    pub fn receive(
        &self,
        received: &[Vec<CMat>],
        effective: &[CMat],
        noise_var: f64,
        payload_bits: usize,
    ) -> Vec<u8> {
        assert_eq!(effective.len(), DATA_SUBCARRIERS);
        // Precompute per-subcarrier pseudo-inverse and post-ZF noise.
        let mut pinv = Vec::with_capacity(DATA_SUBCARRIERS);
        let mut zf_noise = Vec::with_capacity(DATA_SUBCARRIERS);
        for q in effective {
            assert_eq!(q.cols(), self.streams);
            let gram = q.gram();
            let gram_inv = inverse_loaded(&gram, noise_var.max(1e-18) * 1e-6);
            pinv.push(gram_inv.matmul(&q.hermitian()));
            zf_noise.push(
                (0..self.streams)
                    .map(|k| noise_var * gram_inv[(k, k)].re.max(1e-30))
                    .collect::<Vec<f64>>(),
            );
        }

        // Per-stream LLR pipelines.
        let block = self.interleaver.block_len();
        let mut per_stream_llrs: Vec<Vec<f64>> = vec![Vec::new(); self.streams];
        for obs in received {
            assert_eq!(obs.len(), DATA_SUBCARRIERS);
            let mut sym_llrs: Vec<Vec<f64>> = vec![Vec::with_capacity(block); self.streams];
            for (s, y) in obs.iter().enumerate() {
                let xhat = pinv[s].matmul(y); // streams x 1
                for k in 0..self.streams {
                    soft_demap(&self.mapper, xhat[(k, 0)], zf_noise[s][k], &mut sym_llrs[k]);
                }
            }
            for k in 0..self.streams {
                let mut deint = vec![0.0; block];
                for (j, llr) in sym_llrs[k].iter().enumerate() {
                    deint[self.interleaver.deinterleave_index(j)] = *llr;
                }
                per_stream_llrs[k].extend(deint);
            }
        }

        let llrs = self.stream_merge(&per_stream_llrs, coded_len(payload_bits, self.mcs.rate));
        let mut bits = soft_viterbi_decode(&llrs, payload_bits, self.mcs.rate);
        Scrambler::new(self.scrambler_seed).process(&mut bits);
        bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copa_num::SimRng;

    fn random_bits(rng: &mut SimRng, n: usize) -> Vec<u8> {
        (0..n).map(|_| (rng.next_u64() & 1) as u8).collect()
    }

    /// Sends a frame through per-subcarrier effective channels with AWGN and
    /// returns raw antenna observations.
    fn through_channel(
        frame: &MimoFrame,
        effective: &[CMat],
        noise_var: f64,
        rng: &mut SimRng,
    ) -> Vec<Vec<CMat>> {
        frame
            .symbols
            .iter()
            .map(|per_stream| {
                (0..DATA_SUBCARRIERS)
                    .map(|s| {
                        let q = &effective[s];
                        let x = CMat::from_fn(q.cols(), 1, |k, _| per_stream[k][s]);
                        let mut y = q.matmul(&x);
                        for r in 0..y.rows() {
                            y[(r, 0)] += rng.randc().scale(noise_var.sqrt());
                        }
                        y
                    })
                    .collect()
            })
            .collect()
    }

    fn random_effective(rng: &mut SimRng, rx: usize, streams: usize) -> Vec<CMat> {
        // Well-conditioned effective channels (unit-ish singular values).
        (0..DATA_SUBCARRIERS)
            .map(|_| {
                let a = CMat::from_fn(rx, streams, |_, _| rng.randc());
                // Normalize columns to unit norm so per-stream SNR ~ 1/noise.
                CMat::from_fn(rx, streams, |i, j| {
                    let n: f64 = (0..rx).map(|r| a[(r, j)].norm_sqr()).sum::<f64>().sqrt();
                    a[(i, j)].scale(1.0 / n.max(1e-12))
                })
            })
            .collect()
    }

    #[test]
    fn two_streams_round_trip_cleanly() {
        let mut rng = SimRng::seed_from(1);
        for mcs in [Mcs::TABLE[0], Mcs::TABLE[4]] {
            let chain = MimoChain::new(mcs, 2);
            let payload = random_bits(&mut rng, chain.payload_capacity(4));
            let frame = chain.transmit(&payload);
            let eff = random_effective(&mut rng, 2, 2);
            let rx = through_channel(&frame, &eff, 1e-6, &mut rng);
            let decoded = chain.receive(&rx, &eff, 1e-6, payload.len());
            assert_eq!(decoded, payload, "{mcs} x2 streams");
        }
    }

    #[test]
    fn single_stream_reduces_to_baseline_capacity() {
        let chain1 = MimoChain::new(Mcs::TABLE[3], 1);
        let base = crate::baseband::Chain::new(Mcs::TABLE[3]);
        assert_eq!(chain1.payload_capacity(6), base.payload_capacity(6));
        // Two streams carry ~2x per symbol period.
        let chain2 = MimoChain::new(Mcs::TABLE[3], 2);
        let c1 = chain1.payload_capacity(6) as f64;
        let c2 = chain2.payload_capacity(6) as f64;
        assert!(
            (c2 / c1 - 2.0).abs() < 0.05,
            "2 streams should ~double capacity"
        );
    }

    #[test]
    fn stream_parse_merge_inverse() {
        let chain = MimoChain::new(Mcs::TABLE[7], 2); // 64-QAM: 3-bit parse blocks
        let coded: Vec<u8> = (0..624).map(|i| (i % 2) as u8).collect();
        let parsed = chain.stream_parse(&coded);
        // Rebuild via merge using identity LLRs encoding positions.
        let as_llrs: Vec<Vec<f64>> = parsed
            .iter()
            .map(|v| v.iter().map(|&b| b as f64).collect())
            .collect();
        let merged = chain.stream_merge(&as_llrs, coded.len());
        let back: Vec<u8> = merged.iter().map(|&x| x as u8).collect();
        assert_eq!(back, coded);
    }

    #[test]
    fn noisy_mimo_link_fails_then_recovers_with_more_rx_antennas() {
        // 2 streams into 2 rx antennas at moderate noise struggles more
        // than 2 streams into 4 rx antennas (diversity + better ZF
        // conditioning) -- aggregated over frames.
        let mut rng = SimRng::seed_from(5);
        let chain = MimoChain::new(Mcs::TABLE[4], 2);
        let noise = copa_num::special::db_to_lin(-11.0);
        let mut errs2 = 0usize;
        let mut errs4 = 0usize;
        for _ in 0..6 {
            let payload = random_bits(&mut rng, chain.payload_capacity(4));
            let frame = chain.transmit(&payload);
            let eff2 = random_effective(&mut rng, 2, 2);
            let rx2 = through_channel(&frame, &eff2, noise, &mut rng);
            let d2 = chain.receive(&rx2, &eff2, noise, payload.len());
            errs2 += d2.iter().zip(&payload).filter(|(a, b)| a != b).count();
            let eff4 = random_effective(&mut rng, 4, 2);
            let rx4 = through_channel(&frame, &eff4, noise, &mut rng);
            let d4 = chain.receive(&rx4, &eff4, noise, payload.len());
            errs4 += d4.iter().zip(&payload).filter(|(a, b)| a != b).count();
        }
        assert!(
            errs4 <= errs2,
            "more rx antennas should not hurt: {errs4} vs {errs2}"
        );
    }

    #[test]
    fn end_to_end_with_real_precoder_and_channel() {
        // The capstone: bits through a beamformed 2x4 MIMO channel drawn
        // from the actual channel model.
        use copa_num::svd::svd;
        let mut rng = SimRng::seed_from(9);
        let chain = MimoChain::new(Mcs::TABLE[3], 2);
        let payload = random_bits(&mut rng, chain.payload_capacity(4));
        let frame = chain.transmit(&payload);

        // A 2x4 channel at high SNR; SVD beamforming precoder per subcarrier.
        let h: Vec<CMat> = (0..DATA_SUBCARRIERS)
            .map(|_| CMat::from_fn(2, 4, |_, _| rng.randc()))
            .collect();
        let effective: Vec<CMat> = h
            .iter()
            .map(|hs| {
                let d = svd(hs);
                let v2 = d.v.select_columns(&[0, 1]);
                hs.matmul(&v2) // rx x streams
            })
            .collect();
        let noise = 1e-4;
        let rx = through_channel(&frame, &effective, noise, &mut rng);
        let decoded = chain.receive(&rx, &effective, noise, payload.len());
        assert_eq!(
            decoded, payload,
            "beamformed MIMO link should decode cleanly"
        );
    }
}
