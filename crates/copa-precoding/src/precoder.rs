//! Precoding data model shared by beamforming, nulling and the allocators.

use copa_channel::FreqChannel;
use copa_num::batch::{CBatch, SvdBatch, SvdBatchScratch};
use copa_num::matrix::CMat;
use copa_num::svd::{Svd, SvdScratch};
use copa_phy::ofdm::DATA_SUBCARRIERS;

/// Reusable working storage for the per-subcarrier precoding kernels
/// ([`crate::beamforming::beamform_with`] and
/// [`crate::nulling::null_toward_with`]).
///
/// One instance serves every subcarrier of every link of every topology a
/// worker evaluates: the buffers grow to the largest shape in play and are
/// then reused without touching the allocator.
#[derive(Clone, Debug, Default)]
pub struct PrecodeScratch {
    /// Jacobi SVD working storage.
    pub(crate) svd: SvdScratch,
    /// Output slot for the own-channel SVD.
    pub(crate) dec: Svd,
    /// Output slot for the victim-channel SVD (nulling only).
    pub(crate) vic_dec: Svd,
    /// Nullspace basis of the victim channel (`tx x dof`).
    pub(crate) v0: CMat,
    /// Projected channel `H_own * V0`.
    pub(crate) h_eff: CMat,
    /// Beamformer within the nullspace.
    pub(crate) v1: CMat,
    /// Selected column indices `0..streams`.
    pub(crate) cols: Vec<usize>,
    /// SoA gather of the own channel (one lane per subcarrier).
    pub(crate) h_b: CBatch,
    /// SoA gather of the victim channel (nulling only).
    pub(crate) vic_b: CBatch,
    /// Batched Jacobi SVD working storage.
    pub(crate) svd_b: SvdBatchScratch,
    /// Output slot for the batched own-channel SVD.
    pub(crate) dec_b: SvdBatch,
    /// Output slot for the batched victim-channel SVD (nulling only).
    pub(crate) vic_dec_b: SvdBatch,
    /// Batched nullspace basis of the victim channel (`tx x dof` per lane).
    pub(crate) v0_b: CBatch,
    /// Batched projected channel `H_own * V0`.
    pub(crate) h_eff_b: CBatch,
    /// Batched beamformer within the nullspace.
    pub(crate) v1_b: CBatch,
    /// Batched composite precoder `V0 * V1`.
    pub(crate) pre_b: CBatch,
}

impl PrecodeScratch {
    /// A fresh scratch; buffers are allocated lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A per-subcarrier linear precoder for one AP->client link.
///
/// For each data subcarrier there is a `tx_antennas x streams` matrix with
/// unit-norm columns, so transmitting stream `k` with power `p` radiates
/// exactly `p` mW of antenna power on that subcarrier. `stream_gains` holds
/// the nominal post-combining channel gain of each stream (the squared
/// singular value of the effective channel), which the power allocators use
/// as the scalar per-subcarrier gain `g` in `SINR = p g / (noise + I)`.
#[derive(Clone, Debug, Default)]
pub struct LinkPrecoding {
    /// Per-subcarrier precoding matrices (`tx x streams`, unit-norm columns).
    pub precoder: Vec<CMat>,
    /// `stream_gains[k][s]`: nominal gain of stream `k` on subcarrier `s`.
    pub stream_gains: Vec<Vec<f64>>,
}

impl LinkPrecoding {
    /// An empty precoding, used as a reusable output slot for the `_with`
    /// kernels (buffers grow on first use, then are reused).
    pub fn empty() -> Self {
        Self {
            precoder: Vec::new(),
            stream_gains: Vec::new(),
        }
    }

    /// Reshapes for `n_sub` subcarriers x `streams` streams, reusing every
    /// existing buffer (per-subcarrier matrices keep their allocations).
    pub(crate) fn reset_shape(&mut self, n_sub: usize, streams: usize) {
        self.precoder.truncate(n_sub);
        self.precoder.resize_with(n_sub, CMat::default);
        self.stream_gains.truncate(streams);
        self.stream_gains.resize_with(streams, Vec::new);
        for g in &mut self.stream_gains {
            g.clear();
            g.resize(n_sub, 0.0);
        }
    }

    /// Number of spatial streams.
    pub fn streams(&self) -> usize {
        self.stream_gains.len()
    }

    /// Number of transmit antennas.
    pub fn tx_antennas(&self) -> usize {
        self.precoder[0].rows()
    }

    /// Checks the unit-column-norm invariant (within `tol`).
    pub fn columns_are_unit_norm(&self, tol: f64) -> bool {
        self.precoder.iter().all(|p| {
            (0..p.cols()).all(|j| {
                let n: f64 = (0..p.rows()).map(|i| p[(i, j)].norm_sqr()).sum();
                (n - 1.0).abs() < tol
            })
        })
    }
}

// alloc-free: begin cross_gain_grid (per-subcarrier kernel -- no vec! / .to_vec / with_capacity)
/// Predicted gain of each of `pre`'s streams at the victim behind the cross
/// channel `hx`: residual nulling leakage `|H_x w_k|^2` plus the EVM floor
/// the radio specs promise. This is the cross-gain model the Figure 6
/// allocator iterates on. The outer `streams x DATA_SUBCARRIERS` grid lands
/// in the pooled `out` (rows cleared and refilled, capacity retained across
/// calls); the per-subcarrier matrix products go through caller-owned
/// scratch `w` and `hw`.
pub fn cross_gain_grid_into(
    hx: &FreqChannel,
    pre: &LinkPrecoding,
    evm: f64,
    w: &mut CMat,
    hw: &mut CMat,
    out: &mut Vec<Vec<f64>>,
) {
    let streams = pre.streams();
    out.truncate(streams);
    out.resize_with(streams, Default::default);
    for (k, row) in out.iter_mut().enumerate() {
        row.clear();
        for s in 0..DATA_SUBCARRIERS {
            pre.precoder[s].column_into(k, w);
            hx.at(s).mul_into(w, hw);
            let leak = hw.frobenius_norm_sqr();
            let evm_floor = evm * hx.at(s).frobenius_norm_sqr() / hx.tx() as f64;
            row.push(leak + evm_floor);
        }
    }
}
// alloc-free: end cross_gain_grid

/// Per-stream, per-subcarrier transmit powers in mW.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TxPowers {
    /// `powers[k][s]`: power of stream `k` on subcarrier `s`, mW.
    pub powers: Vec<Vec<f64>>,
}

impl TxPowers {
    /// Equal split of `budget_mw` across `streams x DATA_SUBCARRIERS` cells
    /// -- what stock 802.11 does.
    pub fn equal(streams: usize, budget_mw: f64) -> Self {
        let mut p = Self::default();
        p.set_equal(streams, budget_mw);
        p
    }

    /// Pooled [`TxPowers::equal`]: reshapes in place, reusing row buffers.
    pub fn set_equal(&mut self, streams: usize, budget_mw: f64) {
        assert!(streams > 0);
        let per = budget_mw / (streams * DATA_SUBCARRIERS) as f64;
        self.powers.truncate(streams);
        self.powers.resize_with(streams, Vec::new);
        for row in &mut self.powers {
            row.clear();
            row.resize(DATA_SUBCARRIERS, per);
        }
    }

    /// Pooled deep copy (reuses this value's row buffers).
    pub fn copy_from(&mut self, other: &TxPowers) {
        self.powers.truncate(other.powers.len());
        self.powers.resize_with(other.powers.len(), Vec::new);
        for (dst, src) in self.powers.iter_mut().zip(&other.powers) {
            dst.clear();
            dst.extend_from_slice(src);
        }
    }

    /// All-zero allocation (an AP that stays silent).
    pub fn silent(streams: usize) -> Self {
        Self {
            powers: vec![vec![0.0; DATA_SUBCARRIERS]; streams],
        }
    }

    /// Number of streams.
    pub fn streams(&self) -> usize {
        self.powers.len()
    }

    /// Total allocated power in mW.
    pub fn total_mw(&self) -> f64 {
        self.powers.iter().map(|s| s.iter().sum::<f64>()).sum()
    }

    /// Total power on subcarrier `s` across streams.
    pub fn subcarrier_total_mw(&self, s: usize) -> f64 {
        self.powers.iter().map(|k| k[s]).sum()
    }

    /// `true` if subcarrier `s` carries no power on any stream.
    pub fn is_dropped(&self, s: usize) -> bool {
        self.subcarrier_total_mw(s) == 0.0
    }

    /// Indices of active (non-dropped) subcarriers for stream `k`.
    pub fn active_subcarriers(&self, k: usize) -> Vec<usize> {
        self.powers[k]
            .iter()
            .enumerate()
            .filter(|(_, &p)| p > 0.0)
            .map(|(s, _)| s)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_split_conserves_budget() {
        let p = TxPowers::equal(2, 31.6);
        assert_eq!(p.streams(), 2);
        assert!((p.total_mw() - 31.6).abs() < 1e-9);
        assert!((p.powers[0][0] - 31.6 / 104.0).abs() < 1e-12);
    }

    #[test]
    fn silent_is_all_dropped() {
        let p = TxPowers::silent(2);
        assert_eq!(p.total_mw(), 0.0);
        for s in 0..DATA_SUBCARRIERS {
            assert!(p.is_dropped(s));
        }
        assert!(p.active_subcarriers(0).is_empty());
    }

    #[test]
    fn active_subcarriers_filter() {
        let mut p = TxPowers::silent(1);
        p.powers[0][3] = 1.0;
        p.powers[0][10] = 2.0;
        assert_eq!(p.active_subcarriers(0), vec![3, 10]);
        assert!(!p.is_dropped(3));
        assert!(p.is_dropped(4));
        assert!((p.subcarrier_total_mw(10) - 2.0).abs() < 1e-12);
    }
}
