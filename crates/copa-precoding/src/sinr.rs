//! Post-MMSE SINR evaluation at a receiver.
//!
//! "On the receiving side, hosts use a Minimum Mean Square Error filter to
//! maximize the received power without amplifying noise" (section 4.1).
//! Given the *true* channels (precoders were computed from noisy estimates),
//! this module computes the per-stream, per-subcarrier SINR each client
//! actually experiences, including transmit-EVM noise and the carrier
//! leakage of dropped subcarriers.

use crate::precoder::{LinkPrecoding, TxPowers};
use copa_channel::{FreqChannel, Impairments};
use copa_num::batch::{inverse_loaded_batch_into, CBatch, LuBatchScratch};
use copa_num::complex::ONE;
use copa_num::matrix::CMat;
use copa_num::C64;
use copa_phy::ofdm::DATA_SUBCARRIERS;

/// Buffers for one transmitter's covariance contribution.
#[derive(Clone, Debug, Default)]
struct CovScratch {
    /// Effective transmitted matrix `P diag(sqrt(p))`.
    txm: CMat,
    /// `H * txm` (received signal matrix).
    b: CMat,
    /// `b^H`.
    bh: CMat,
    /// `b * b^H`.
    bbh: CMat,
    /// Per-antenna transmitted powers.
    pant: Vec<f64>,
    /// EVM noise diagonal.
    diag: CMat,
    /// `H * diag`.
    hd: CMat,
    /// `H^H`.
    hh: CMat,
    /// `H * diag * H^H` (EVM term).
    hdh: CMat,
    /// `H * H^H` (leakage term).
    hhh: CMat,
}

/// Batched (one lane per subcarrier) counterpart of [`CovScratch`].
#[derive(Clone, Debug, Default)]
struct CovBatchScratch {
    /// Effective transmitted matrices `P diag(sqrt(p))`, all lanes.
    txm: CBatch,
    /// `H * txm` per lane.
    b: CBatch,
    bh: CBatch,
    bbh: CBatch,
    /// Lanes whose EVM term is non-zero (any antenna transmitting).
    evm_mask: Vec<bool>,
    /// EVM noise diagonals per lane.
    diag: CBatch,
    hd: CBatch,
    hh: CBatch,
    hdh: CBatch,
    hhh: CBatch,
    /// Lanes that are dropped subcarriers (leakage applies).
    drop_mask: Vec<bool>,
}

/// Reusable working storage for [`mmse_sinr_grid_with`]: every temporary of
/// the per-subcarrier MMSE chain, owned once per worker and reused across
/// subcarriers, strategies and topologies.
#[derive(Clone, Debug, Default)]
pub struct SinrScratch {
    /// Covariance temporaries of one transmitter.
    cov_batch: CovBatchScratch,
    /// One transmitter's covariance contribution.
    cov_b: CBatch,
    /// Base covariance (noise + own EVM + interferer).
    base_b: CBatch,
    /// Own effective transmitted matrix.
    txm_b: CBatch,
    /// SoA gathers of the own and interfering channels.
    h_own_b: CBatch,
    h_int_b: CBatch,
    /// Received stream signatures `H * txm`.
    a_b: CBatch,
    /// Per-stream covariance `R_k`.
    rk_b: CBatch,
    /// Interfering stream signature and products.
    aj_b: CBatch,
    ajh_b: CBatch,
    ajajh_b: CBatch,
    /// Desired stream signature and products.
    ak_b: CBatch,
    akh_b: CBatch,
    t1_b: CBatch,
    t2_b: CBatch,
    /// LU working storage and the inverse.
    lu_b: LuBatchScratch,
    rinv_b: CBatch,
}

impl SinrScratch {
    /// A fresh scratch; buffers are allocated lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// One transmitter as seen from a particular receiver: the true channel to
/// that receiver plus what the transmitter is sending.
pub struct TxSide<'a> {
    /// True channel from this AP to the receiver being evaluated.
    pub channel: &'a FreqChannel,
    /// The AP's precoder.
    pub precoding: &'a LinkPrecoding,
    /// The AP's power allocation.
    pub powers: &'a TxPowers,
    /// The AP's total power budget in mW (sets the leakage reference).
    pub budget_mw: f64,
}

impl<'a> TxSide<'a> {
    /// Effective transmitted matrix `P diag(sqrt(p))` on subcarrier `s`
    /// (tx x streams), written into `out`.
    fn tx_matrix_into(&self, s: usize, out: &mut CMat) {
        let p = &self.precoding.precoder[s];
        out.reset(p.rows(), p.cols());
        for i in 0..p.rows() {
            for k in 0..p.cols() {
                out[(i, k)] = p[(i, k)].scale(self.powers.powers[k][s].sqrt());
            }
        }
    }

    /// Covariance contribution of this transmitter at the receiver on
    /// subcarrier `s` (allocating convenience wrapper; see
    /// [`TxSide::covariance_into`]).
    fn covariance(&self, s: usize, imp: &Impairments, include_signal: bool) -> CMat {
        let mut ws = CovScratch::default();
        let mut r = CMat::default();
        self.covariance_into(s, imp, include_signal, &mut ws, &mut r);
        r
    }

    // alloc-free: begin covariance_into (per-subcarrier kernel -- no Vec::new / vec!)
    /// Covariance contribution of this transmitter at the receiver on
    /// subcarrier `s`, *excluding* the desired-signal columns unless
    /// `include_signal` (excluded when this is the receiver's own AP).
    /// Written into `r` using only caller-owned buffers.
    fn covariance_into(
        &self,
        s: usize,
        imp: &Impairments,
        include_signal: bool,
        ws: &mut CovScratch,
        r: &mut CMat,
    ) {
        let h = self.channel.at(s);
        let rx = h.rows();
        r.reset(rx, rx);
        self.tx_matrix_into(s, &mut ws.txm);

        if include_signal {
            h.mul_into(&ws.txm, &mut ws.b);
            ws.b.hermitian_into(&mut ws.bh);
            ws.b.mul_into(&ws.bh, &mut ws.bbh);
            r.add_in_place(&ws.bbh);
        }

        // Transmit EVM: unprecoded noise radiated per antenna.
        let evm = imp.evm_factor();
        if evm > 0.0 {
            let pw = &mut ws.pant;
            pw.clear();
            pw.extend((0..ws.txm.rows()).map(|i| {
                (0..ws.txm.cols())
                    .map(|k| ws.txm[(i, k)].norm_sqr())
                    .sum::<f64>()
            }));
            if pw.iter().any(|&p| p > 0.0) {
                ws.diag.reset(pw.len(), pw.len());
                for (i, &p) in pw.iter().enumerate() {
                    ws.diag[(i, i)] = C64::real(p * evm);
                }
                h.mul_into(&ws.diag, &mut ws.hd);
                h.hermitian_into(&mut ws.hh);
                ws.hd.mul_into(&ws.hh, &mut ws.hdh);
                r.add_in_place(&ws.hdh);
            }
        }

        // Carrier leakage: a dropped subcarrier still radiates
        // `leakage_db` below the average per-subcarrier level,
        // omnidirectionally (unprecoded).
        if self.powers.is_dropped(s) {
            let leak_mw = imp.leakage_factor() * self.budget_mw / DATA_SUBCARRIERS as f64;
            if leak_mw > 0.0 {
                let per_ant = leak_mw / h.cols() as f64;
                h.hermitian_into(&mut ws.hh);
                h.mul_into(&ws.hh, &mut ws.hhh);
                for (dst, src) in r.as_mut_slice().iter_mut().zip(ws.hhh.as_slice()) {
                    *dst = *dst + src.scale(per_ant);
                }
            }
        }
    }
    // alloc-free: end covariance_into

    // alloc-free: begin covariance_batch (batched subcarrier kernels -- no Vec::new / vec!)
    /// Batched [`TxSide::tx_matrix_into`]: one lane per subcarrier, each
    /// entry computed with the exact scalar op (`p * sqrt(power)`).
    fn tx_matrix_batch_into(&self, out: &mut CBatch) {
        let n_sub = self.precoding.precoder.len();
        let p0 = &self.precoding.precoder[0];
        out.reset(p0.rows(), p0.cols(), n_sub);
        for (l, p) in self.precoding.precoder.iter().enumerate() {
            for i in 0..p.rows() {
                for k in 0..p.cols() {
                    out.set(i, k, l, p[(i, k)].scale(self.powers.powers[k][l].sqrt()));
                }
            }
        }
    }

    /// Batched [`TxSide::covariance_into`] over all subcarrier lanes of the
    /// pre-gathered channel `h_b`. Per-subcarrier branches of the scalar
    /// path (EVM active, dropped-subcarrier leakage) become per-lane masks
    /// on the adds, so every lane accumulates exactly the scalar terms in
    /// the scalar order.
    fn covariance_batch_into(
        &self,
        imp: &Impairments,
        include_signal: bool,
        h_b: &CBatch,
        ws: &mut CovBatchScratch,
        r: &mut CBatch,
    ) {
        let rx = h_b.rows();
        let lanes = h_b.lanes();
        r.reset(rx, rx, lanes);
        self.tx_matrix_batch_into(&mut ws.txm);

        if include_signal {
            h_b.mul_into(&ws.txm, &mut ws.b);
            ws.b.hermitian_into(&mut ws.bh);
            ws.b.mul_into(&ws.bh, &mut ws.bbh);
            r.add_in_place(&ws.bbh);
        }

        // Transmit EVM: unprecoded noise radiated per antenna.
        let evm = imp.evm_factor();
        if evm > 0.0 {
            let nt = ws.txm.rows();
            ws.diag.reset(nt, nt, lanes);
            ws.evm_mask.clear();
            ws.evm_mask.resize(lanes, false);
            for l in 0..lanes {
                let mut any = false;
                for i in 0..nt {
                    let p: f64 = (0..ws.txm.cols())
                        .map(|k| ws.txm.get(i, k, l).norm_sqr())
                        .sum();
                    if p > 0.0 {
                        any = true;
                    }
                    ws.diag.set(i, i, l, C64::real(p * evm));
                }
                ws.evm_mask[l] = any;
            }
            if ws.evm_mask.iter().any(|&m| m) {
                h_b.mul_into(&ws.diag, &mut ws.hd);
                h_b.hermitian_into(&mut ws.hh);
                ws.hd.mul_into(&ws.hh, &mut ws.hdh);
                r.add_in_place_masked(&ws.hdh, &ws.evm_mask);
            }
        }

        // Carrier leakage on dropped subcarriers, per-lane masked.
        let leak_mw = imp.leakage_factor() * self.budget_mw / DATA_SUBCARRIERS as f64;
        if leak_mw > 0.0 {
            ws.drop_mask.clear();
            ws.drop_mask.resize(lanes, false);
            let mut any = false;
            for (l, m) in ws.drop_mask.iter_mut().enumerate() {
                *m = self.powers.is_dropped(l);
                any |= *m;
            }
            if any {
                let per_ant = leak_mw / h_b.cols() as f64;
                h_b.hermitian_into(&mut ws.hh);
                h_b.mul_into(&ws.hh, &mut ws.hhh);
                r.add_scaled_in_place_masked(&ws.hhh, per_ant, &ws.drop_mask);
            }
        }
    }
    // alloc-free: end covariance_batch
}

/// Per-stream post-MMSE SINR grid (`[stream][subcarrier]`, linear) at the
/// receiver served by `own`, with optional concurrent `interferer`.
///
/// For each stream `k` with received signature `a_k = H P_k sqrt(p_k)`:
/// `SINR_k = a_k^H R_k^{-1} a_k`, where `R_k` collects thermal noise, the
/// other streams of the own AP, all of the interferer's signal, and both
/// transmitters' EVM/leakage noise. This is the standard MMSE output SINR.
pub fn mmse_sinr_grid(
    own: &TxSide,
    interferer: Option<&TxSide>,
    noise_mw: f64,
    imp: &Impairments,
) -> Vec<Vec<f64>> {
    let mut ws = SinrScratch::new();
    let mut grid = Vec::new();
    mmse_sinr_grid_with(own, interferer, noise_mw, imp, &mut ws, &mut grid);
    grid
}

// alloc-free: begin mmse_sinr_grid_with (per-subcarrier kernel -- no Vec::new / vec!)
/// [`mmse_sinr_grid`] writing into caller-owned buffers: `ws` holds every
/// matrix temporary and `grid` is reshaped in place. After warm-up the whole
/// MMSE chain runs without heap allocation.
///
/// Batched implementation: channels are gathered once into SoA lanes and
/// every step of the scalar chain (covariances, stream signatures, `R_k`
/// assembly, loaded inversion, quadratic form) runs across all 52 lanes at
/// once. Per lane the op sequence is exactly the per-subcarrier scalar one
/// (`covariance_into`, `inverse_loaded_into`), so the grid is bit-identical
/// to a scalar loop over subcarriers. Lanes whose stream power is zero are
/// computed but not written back, matching the scalar skip.
pub fn mmse_sinr_grid_with(
    own: &TxSide,
    interferer: Option<&TxSide>,
    noise_mw: f64,
    imp: &Impairments,
    ws: &mut SinrScratch,
    grid: &mut Vec<Vec<f64>>,
) {
    let streams = own.precoding.streams();
    let rx = own.channel.rx();
    grid.truncate(streams);
    grid.resize_with(streams, Vec::new);
    for row in grid.iter_mut() {
        row.clear();
        row.resize(DATA_SUBCARRIERS, 0.0);
    }

    let lanes = DATA_SUBCARRIERS;
    ws.h_own_b.reset(rx, own.channel.tx(), lanes);
    for (s, h) in own.channel.iter().enumerate() {
        ws.h_own_b.load_lane(s, h);
    }

    // Base covariance: thermal noise + own EVM + interferer everything.
    ws.base_b.reset(rx, rx, lanes);
    for i in 0..rx {
        for l in 0..lanes {
            ws.base_b.set(i, i, l, ONE.scale(noise_mw));
        }
    }
    own.covariance_batch_into(imp, false, &ws.h_own_b, &mut ws.cov_batch, &mut ws.cov_b);
    ws.base_b.add_in_place(&ws.cov_b);
    if let Some(int) = interferer {
        ws.h_int_b.reset(int.channel.rx(), int.channel.tx(), lanes);
        for (s, h) in int.channel.iter().enumerate() {
            ws.h_int_b.load_lane(s, h);
        }
        int.covariance_batch_into(imp, true, &ws.h_int_b, &mut ws.cov_batch, &mut ws.cov_b);
        ws.base_b.add_in_place(&ws.cov_b);
    }

    own.tx_matrix_batch_into(&mut ws.txm_b);
    ws.h_own_b.mul_into(&ws.txm_b, &mut ws.a_b); // rx x streams per lane
    for k in 0..streams {
        if own.powers.powers[k].iter().all(|&p| p <= 0.0) {
            continue;
        }
        // R_k = base + sum_{j != k} a_j a_j^H, all lanes at once.
        ws.rk_b.copy_from(&ws.base_b);
        for j in 0..streams {
            if j == k {
                continue;
            }
            ws.a_b.column_into(j, &mut ws.aj_b);
            ws.aj_b.hermitian_into(&mut ws.ajh_b);
            ws.aj_b.mul_into(&ws.ajh_b, &mut ws.ajajh_b);
            ws.rk_b.add_in_place(&ws.ajajh_b);
        }
        ws.a_b.column_into(k, &mut ws.ak_b);
        inverse_loaded_batch_into(
            &ws.rk_b,
            noise_mw.max(1e-18) * 1e-9,
            &mut ws.lu_b,
            &mut ws.rinv_b,
        );
        ws.ak_b.hermitian_into(&mut ws.akh_b);
        ws.akh_b.mul_into(&ws.rinv_b, &mut ws.t1_b);
        ws.t1_b.mul_into(&ws.ak_b, &mut ws.t2_b);
        for s in 0..lanes {
            if own.powers.powers[k][s] <= 0.0 {
                continue;
            }
            grid[k][s] = ws.t2_b.get(0, 0, s).re.max(0.0);
        }
    }
}

// alloc-free: end mmse_sinr_grid_with

/// Total received power (mW, summed over receive antennas) from a
/// transmitter on each subcarrier -- the paper's INR / signal-power
/// measurements (Figures 3 and 9).
pub fn received_power_per_subcarrier(tx: &TxSide, imp: &Impairments) -> Vec<f64> {
    (0..DATA_SUBCARRIERS)
        .map(|s| {
            let r = tx.covariance(s, imp, true);
            r.trace().re.max(0.0)
        })
        .collect()
}

/// Collects the SINRs of all active (stream, subcarrier) cells into the
/// flat vector the throughput model consumes.
pub fn active_cells(grid: &[Vec<f64>], powers: &TxPowers) -> Vec<f64> {
    let mut out = Vec::new();
    active_cells_into(grid, powers, &mut out);
    out
}

/// [`active_cells`] appending into a caller-owned buffer (cleared first).
pub fn active_cells_into(grid: &[Vec<f64>], powers: &TxPowers, out: &mut Vec<f64>) {
    out.clear();
    for (k, row) in grid.iter().enumerate() {
        for (s, &sinr) in row.iter().enumerate() {
            if powers.powers[k][s] > 0.0 {
                out.push(sinr);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::beamforming::beamform;
    use crate::nulling::null_toward;
    use copa_channel::MultipathProfile;
    use copa_num::solve::{inverse_loaded_into, LuScratch};
    use copa_num::SimRng;

    /// Temporaries of the per-subcarrier reference below.
    #[derive(Default)]
    struct ScalarScratch {
        cov_scratch: CovScratch,
        cov: CMat,
        base: CMat,
        txm: CMat,
        a: CMat,
        rk: CMat,
        aj: CMat,
        ajh: CMat,
        ajajh: CMat,
        ak: CMat,
        akh: CMat,
        t1: CMat,
        t2: CMat,
        lu: LuScratch,
        rinv: CMat,
    }

    /// Per-subcarrier reference for the bit-identity test: the MMSE chain
    /// of [`mmse_sinr_grid_with`] one subcarrier at a time.
    fn mmse_sinr_grid_scalar_with(
        own: &TxSide,
        interferer: Option<&TxSide>,
        noise_mw: f64,
        imp: &Impairments,
        ws: &mut ScalarScratch,
        grid: &mut Vec<Vec<f64>>,
    ) {
        let streams = own.precoding.streams();
        let rx = own.channel.rx();
        grid.truncate(streams);
        grid.resize_with(streams, Vec::new);
        for row in grid.iter_mut() {
            row.clear();
            row.resize(DATA_SUBCARRIERS, 0.0);
        }

        for s in 0..DATA_SUBCARRIERS {
            // Base covariance: thermal noise + own EVM + interferer everything.
            ws.base.reset(rx, rx);
            for i in 0..rx {
                ws.base[(i, i)] = ONE.scale(noise_mw);
            }
            own.covariance_into(s, imp, false, &mut ws.cov_scratch, &mut ws.cov);
            ws.base.add_in_place(&ws.cov);
            if let Some(int) = interferer {
                int.covariance_into(s, imp, true, &mut ws.cov_scratch, &mut ws.cov);
                ws.base.add_in_place(&ws.cov);
            }

            own.tx_matrix_into(s, &mut ws.txm);
            own.channel.at(s).mul_into(&ws.txm, &mut ws.a); // rx x streams
            for k in 0..streams {
                if own.powers.powers[k][s] <= 0.0 {
                    continue;
                }
                // R_k = base + sum_{j != k} a_j a_j^H.
                ws.rk.copy_from(&ws.base);
                for j in 0..streams {
                    if j == k {
                        continue;
                    }
                    ws.a.column_into(j, &mut ws.aj);
                    ws.aj.hermitian_into(&mut ws.ajh);
                    ws.aj.mul_into(&ws.ajh, &mut ws.ajajh);
                    ws.rk.add_in_place(&ws.ajajh);
                }
                ws.a.column_into(k, &mut ws.ak);
                inverse_loaded_into(&ws.rk, noise_mw.max(1e-18) * 1e-9, &mut ws.lu, &mut ws.rinv);
                ws.ak.hermitian_into(&mut ws.akh);
                ws.akh.mul_into(&ws.rinv, &mut ws.t1);
                ws.t1.mul_into(&ws.ak, &mut ws.t2);
                let sinr = ws.t2[(0, 0)];
                grid[k][s] = sinr.re.max(0.0);
            }
        }
    }

    fn ch(rng: &mut SimRng, rx: usize, tx: usize, gain: f64) -> FreqChannel {
        FreqChannel::random(rng, rx, tx, gain, &MultipathProfile::default())
    }

    const NOISE: f64 = 1e-9;

    #[test]
    fn siso_sinr_matches_closed_form() {
        // 1x1 link, no interferer, ideal radio: SINR = p |h|^2 / noise.
        let mut rng = SimRng::seed_from(70);
        let truth = ch(&mut rng, 1, 1, 1e-6);
        let imp = Impairments::ideal();
        let pre = beamform(&truth, 1);
        let powers = TxPowers::equal(1, 31.6);
        let own = TxSide {
            channel: &truth,
            precoding: &pre,
            powers: &powers,
            budget_mw: 31.6,
        };
        let grid = mmse_sinr_grid(&own, None, NOISE, &imp);
        for s in 0..DATA_SUBCARRIERS {
            let expect = powers.powers[0][s] * truth.at(s)[(0, 0)].norm_sqr() / NOISE;
            assert!(
                (grid[0][s] / expect - 1.0).abs() < 1e-6,
                "s={s}: {} vs {}",
                grid[0][s],
                expect
            );
        }
    }

    #[test]
    fn interference_reduces_sinr() {
        let mut rng = SimRng::seed_from(71);
        let truth = ch(&mut rng, 2, 4, 1e-6);
        let cross = ch(&mut rng, 2, 4, 1e-7);
        let imp = Impairments::ideal();
        let pre = beamform(&truth, 2);
        let powers = TxPowers::equal(2, 31.6);
        let own = TxSide {
            channel: &truth,
            precoding: &pre,
            powers: &powers,
            budget_mw: 31.6,
        };

        let clean = mmse_sinr_grid(&own, None, NOISE, &imp);

        let int_pre = beamform(&cross, 2); // arbitrary precoder for interferer
        let int_powers = TxPowers::equal(2, 31.6);
        let int = TxSide {
            channel: &cross,
            precoding: &int_pre,
            powers: &int_powers,
            budget_mw: 31.6,
        };
        let dirty = mmse_sinr_grid(&own, Some(&int), NOISE, &imp);

        let mean =
            |g: &Vec<Vec<f64>>| g.iter().flatten().sum::<f64>() / (2.0 * DATA_SUBCARRIERS as f64);
        assert!(
            mean(&dirty) < mean(&clean) * 0.8,
            "interference should reduce SINR: {} vs {}",
            mean(&dirty),
            mean(&clean)
        );
    }

    #[test]
    fn perfect_nulling_removes_interference() {
        // With ideal CSI and no EVM, a nulled interferer is invisible.
        let mut rng = SimRng::seed_from(72);
        let own_truth = ch(&mut rng, 2, 4, 1e-6);
        let cross_truth = ch(&mut rng, 2, 4, 1e-6); // interferer -> this client
        let int_own = ch(&mut rng, 2, 4, 1e-6); // interferer -> its own client
        let imp = Impairments::ideal();

        let pre = beamform(&own_truth, 2);
        let powers = TxPowers::equal(2, 31.6);
        let own = TxSide {
            channel: &own_truth,
            precoding: &pre,
            powers: &powers,
            budget_mw: 31.6,
        };
        let clean = mmse_sinr_grid(&own, None, NOISE, &imp);

        // Interferer nulls toward *this* client (cross_truth is its channel
        // to us) while beamforming to its own client.
        let int_pre = null_toward(&int_own, &cross_truth, 2).unwrap();
        let int_powers = TxPowers::equal(2, 31.6);
        let int = TxSide {
            channel: &cross_truth,
            precoding: &int_pre,
            powers: &int_powers,
            budget_mw: 31.6,
        };
        let nulled = mmse_sinr_grid(&own, Some(&int), NOISE, &imp);

        for s in 0..DATA_SUBCARRIERS {
            for k in 0..2 {
                assert!(
                    (nulled[k][s] / clean[k][s] - 1.0).abs() < 1e-3,
                    "perfect null should preserve SINR at s={s},k={k}: {} vs {}",
                    nulled[k][s],
                    clean[k][s]
                );
            }
        }
    }

    #[test]
    fn evm_floors_the_null() {
        // With TX EVM, even a perfect-CSI null leaks noise.
        let mut rng = SimRng::seed_from(73);
        let own_truth = ch(&mut rng, 2, 4, 1e-6);
        let cross_truth = ch(&mut rng, 2, 4, 1e-6);
        let int_own = ch(&mut rng, 2, 4, 1e-6);
        let imp = Impairments {
            csi_error_db: -300.0,
            tx_evm_db: -30.0,
            leakage_db: -300.0,
        };

        let int_pre = null_toward(&int_own, &cross_truth, 2).unwrap();
        let int_powers = TxPowers::equal(2, 31.6);
        let int = TxSide {
            channel: &cross_truth,
            precoding: &int_pre,
            powers: &int_powers,
            budget_mw: 31.6,
        };
        let rx_power = received_power_per_subcarrier(&int, &imp);
        let total: f64 = rx_power.iter().sum();

        // Compare with the unprecoded (equal power) interference level.
        let bf_pre = beamform(&int_own, 2);
        let unp = TxSide {
            channel: &cross_truth,
            precoding: &bf_pre,
            powers: &int_powers,
            budget_mw: 31.6,
        };
        let unp_power: f64 = received_power_per_subcarrier(&unp, &Impairments::ideal())
            .iter()
            .sum();

        let depth_db = 10.0 * (total / unp_power).log10();
        assert!(
            (-35.0..=-22.0).contains(&depth_db),
            "EVM should floor the null near -30 dB, got {depth_db:.1} dB"
        );
    }

    #[test]
    fn dropped_subcarrier_leaks() {
        let mut rng = SimRng::seed_from(74);
        let cross = ch(&mut rng, 2, 4, 1e-6);
        let int_own = ch(&mut rng, 2, 4, 1e-6);
        let pre = beamform(&int_own, 2);
        let mut powers = TxPowers::equal(2, 31.6);
        // Drop subcarrier 5 entirely.
        powers.powers[0][5] = 0.0;
        powers.powers[1][5] = 0.0;
        let tx = TxSide {
            channel: &cross,
            precoding: &pre,
            powers: &powers,
            budget_mw: 31.6,
        };

        let imp = Impairments {
            csi_error_db: -300.0,
            tx_evm_db: -300.0,
            leakage_db: -27.0,
        };
        let with_leak = received_power_per_subcarrier(&tx, &imp);
        assert!(with_leak[5] > 0.0, "dropped subcarrier should still leak");
        let ideal = received_power_per_subcarrier(&tx, &Impairments::ideal());
        // "ideal" is -300 dB, i.e. numerically zero.
        assert!(ideal[5] < with_leak[5] * 1e-20);
        // Leakage is far below an active subcarrier.
        assert!(with_leak[5] < with_leak[6] * 0.1);
    }

    #[test]
    fn batched_grid_is_bit_identical_to_scalar() {
        // Exercise every scalar branch: interferer on/off, real impairments
        // (EVM + leakage) vs ideal, dropped subcarriers, zero-power streams.
        let mut rng = SimRng::seed_from(80);
        let truth = ch(&mut rng, 2, 4, 1e-6);
        let cross = ch(&mut rng, 2, 4, 1e-7);
        let int_own = ch(&mut rng, 2, 4, 1e-6);
        let pre = beamform(&truth, 2);
        let int_pre = beamform(&int_own, 2);
        let mut powers = TxPowers::equal(2, 31.6);
        powers.powers[0][5] = 0.0;
        powers.powers[1][5] = 0.0; // dropped subcarrier
        powers.powers[1][17] = 0.0; // zero-power cell, stream still active
        let mut int_powers = TxPowers::equal(2, 31.6);
        int_powers.powers[0][30] = 0.0;
        int_powers.powers[1][30] = 0.0;
        let own = TxSide {
            channel: &truth,
            precoding: &pre,
            powers: &powers,
            budget_mw: 31.6,
        };
        let int = TxSide {
            channel: &cross,
            precoding: &int_pre,
            powers: &int_powers,
            budget_mw: 31.6,
        };
        let mut ws = SinrScratch::new();
        let mut scalar_ws = ScalarScratch::default();
        for imp in [Impairments::default(), Impairments::ideal()] {
            for with_int in [false, true] {
                let interferer = with_int.then_some(&int);
                let mut batched = Vec::new();
                mmse_sinr_grid_with(&own, interferer, NOISE, &imp, &mut ws, &mut batched);
                let mut scalar = Vec::new();
                mmse_sinr_grid_scalar_with(
                    &own,
                    interferer,
                    NOISE,
                    &imp,
                    &mut scalar_ws,
                    &mut scalar,
                );
                assert_eq!(batched.len(), scalar.len());
                for k in 0..batched.len() {
                    for s in 0..DATA_SUBCARRIERS {
                        assert_eq!(
                            batched[k][s].to_bits(),
                            scalar[k][s].to_bits(),
                            "with_int={with_int} k={k} s={s}: {} vs {}",
                            batched[k][s],
                            scalar[k][s]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn active_cells_respects_dropping() {
        let grid = vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]];
        let powers = TxPowers {
            powers: vec![vec![1.0, 0.0, 1.0], vec![0.0, 1.0, 1.0]],
        };
        let cells = active_cells(&grid, &powers);
        assert_eq!(cells, vec![1.0, 3.0, 5.0, 6.0]);
    }

    #[test]
    fn two_streams_interfere_without_enough_rx_antennas() {
        // A 1-antenna receiver cannot separate 2 streams: SINR saturates.
        let mut rng = SimRng::seed_from(75);
        let truth = ch(&mut rng, 1, 4, 1e-6);
        // Force a 2-stream precoder from a fake 2-row estimate, then send to
        // a 1-antenna receiver.
        let fake = ch(&mut rng, 2, 4, 1e-6);
        let pre = beamform(&fake, 2);
        let powers = TxPowers::equal(2, 31.6);
        let own = TxSide {
            channel: &truth,
            precoding: &pre,
            powers: &powers,
            budget_mw: 31.6,
        };
        let grid = mmse_sinr_grid(&own, None, NOISE, &Impairments::ideal());
        // Streams mutually interfere: SINR can't exceed ~1/(inter-stream
        // leakage), far below the interference-free level.
        let mean: f64 = grid.iter().flatten().sum::<f64>() / (2.0 * DATA_SUBCARRIERS as f64);
        assert!(
            mean < 100.0,
            "1-antenna rx should choke on 2 streams, mean SINR {mean}"
        );
    }
}
