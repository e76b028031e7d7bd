//! Interference nulling via nullspace projection.
//!
//! "To send multiple streams, hosts use the singular value decomposition of
//! the channel and to null we project onto the appropriate nullspace"
//! (section 4.1). On each subcarrier the precoder is confined to the
//! nullspace of the *victim's* channel (the other AP's client), then SVD
//! beamformed toward the own client within that subspace. Computed from
//! estimated CSI, so against the true channel the null is imperfect --
//! exactly the residual-interference effect of section 2.2.

use crate::precoder::{LinkPrecoding, PrecodeScratch};
use copa_channel::FreqChannel;
use copa_num::batch::svd_batch_into;
use copa_num::svd::svd_into;

/// Relative singular-value threshold separating signal space from nullspace.
const NULL_TOL: f64 = 1e-9;

/// Degrees of freedom left for the own client after nulling toward a victim
/// with `victim_rx` antennas: `tx - victim_rx` (0 or negative means the
/// problem is overconstrained -- see section 3.4).
pub fn nulling_dof(tx: usize, victim_rx: usize) -> isize {
    tx as isize - victim_rx as isize
}

/// Builds a nulling precoder: `streams` streams toward the own client while
/// placing nulls at every antenna of the victim client.
///
/// Returns `None` when the problem is overconstrained
/// (`streams > tx - victim_rx`), e.g. two 3-antenna APs cannot send two
/// streams each while nulling at a 2-antenna client.
pub fn null_toward(
    est_own: &FreqChannel,
    est_victim: &FreqChannel,
    streams: usize,
) -> Option<LinkPrecoding> {
    let mut ws = PrecodeScratch::new();
    let mut out = LinkPrecoding::empty();
    null_toward_with(est_own, est_victim, streams, &mut ws, &mut out).then_some(out)
}

// alloc-free: begin null_toward_with (per-subcarrier kernel -- no Vec::new / vec!)
/// [`null_toward`] writing into caller-owned buffers. Returns `false` (with
/// `out` untouched beyond its shape) when the problem is overconstrained.
///
/// Batched implementation: victim SVD, nullspace projection and in-nullspace
/// beamforming each run once across all subcarrier lanes. When the numerical
/// nullity differs between subcarriers (possible only for degenerate
/// channels) the kernel falls back to a per-subcarrier scalar loop; either
/// way the output is the same, because every batched lane replays the
/// scalar op sequence exactly.
pub fn null_toward_with(
    est_own: &FreqChannel,
    est_victim: &FreqChannel,
    streams: usize,
    ws: &mut PrecodeScratch,
    out: &mut LinkPrecoding,
) -> bool {
    assert_eq!(
        est_own.tx(),
        est_victim.tx(),
        "both channels share the AP's antennas"
    );
    let tx = est_own.tx();
    let dof = nulling_dof(tx, est_victim.rx());
    if dof < streams as isize || streams == 0 || streams > est_own.rx() {
        return false;
    }

    let n_sub = est_own.iter().count();
    // Orthonormal bases of null(H_victim), one batched SVD for all lanes.
    ws.vic_b.reset(est_victim.rx(), tx, n_sub);
    for (s, h) in est_victim.iter().enumerate() {
        ws.vic_b.load_lane(s, h);
    }
    svd_batch_into(&ws.vic_b, &mut ws.svd_b, &mut ws.vic_dec_b);
    // The batched projection needs one common nullity across lanes; rank is
    // computed with the same rule as `Svd::rank`, so any mismatch sends us
    // to the scalar path with identical results.
    let nullity = tx - ws.vic_dec_b.rank_lane(NULL_TOL, 0);
    let uniform = (1..n_sub).all(|l| tx - ws.vic_dec_b.rank_lane(NULL_TOL, l) == nullity);
    if !uniform {
        return null_toward_scalar_with(est_own, est_victim, streams, ws, out);
    }
    debug_assert!(nullity >= streams);
    let rank = tx - nullity;
    // V0 = trailing columns of the victim's V (same copy order as
    // `Svd::nullspace_into`: row-outer, column-inner).
    ws.v0_b.reset(tx, nullity, n_sub);
    for i in 0..tx {
        for j in 0..nullity {
            for l in 0..n_sub {
                ws.v0_b.set(i, j, l, ws.vic_dec_b.v.get(i, rank + j, l));
            }
        }
    }
    // Beamform the projected channel H_own * V0 (rx_own x nullity).
    ws.h_b.reset(est_own.rx(), tx, n_sub);
    for (s, h) in est_own.iter().enumerate() {
        ws.h_b.load_lane(s, h);
    }
    ws.h_b.mul_into(&ws.v0_b, &mut ws.h_eff_b);
    svd_batch_into(&ws.h_eff_b, &mut ws.svd_b, &mut ws.dec_b);
    ws.v1_b.reset(nullity, streams, n_sub);
    for i in 0..nullity {
        for k in 0..streams {
            for l in 0..n_sub {
                ws.v1_b.set(i, k, l, ws.dec_b.v.get(i, k, l));
            }
        }
    }
    ws.v0_b.mul_into(&ws.v1_b, &mut ws.pre_b);
    out.reset_shape(n_sub, streams);
    for s in 0..n_sub {
        ws.pre_b.store_lane(s, &mut out.precoder[s]);
        for (k, gains) in out.stream_gains.iter_mut().enumerate() {
            let sv = ws.dec_b.s_at(k, s);
            gains[s] = sv * sv;
        }
    }
    true
}

/// The per-subcarrier scalar path: the non-uniform-nullity fallback of
/// [`null_toward_with`] and the reference of its bit-identity tests.
/// Semantics and output are identical.
fn null_toward_scalar_with(
    est_own: &FreqChannel,
    est_victim: &FreqChannel,
    streams: usize,
    ws: &mut PrecodeScratch,
    out: &mut LinkPrecoding,
) -> bool {
    assert_eq!(
        est_own.tx(),
        est_victim.tx(),
        "both channels share the AP's antennas"
    );
    let tx = est_own.tx();
    let dof = nulling_dof(tx, est_victim.rx());
    if dof < streams as isize || streams == 0 || streams > est_own.rx() {
        return false;
    }

    ws.cols.clear();
    ws.cols.extend(0..streams);
    out.reset_shape(est_own.iter().count(), streams);
    for (s, (h_own, h_vic)) in est_own.iter().zip(est_victim.iter()).enumerate() {
        // Orthonormal basis of null(H_victim): tx x dof.
        svd_into(h_vic, &mut ws.svd, &mut ws.vic_dec);
        ws.vic_dec.nullspace_into(NULL_TOL, &mut ws.v0);
        debug_assert!(ws.v0.cols() >= streams);
        // Beamform the projected channel H_own * V0 (rx_own x dof).
        h_own.mul_into(&ws.v0, &mut ws.h_eff);
        svd_into(&ws.h_eff, &mut ws.svd, &mut ws.dec);
        ws.dec.v.select_columns_into(&ws.cols, &mut ws.v1);
        ws.v0.mul_into(&ws.v1, &mut out.precoder[s]);
        for (k, gains) in out.stream_gains.iter_mut().enumerate() {
            gains[s] = ws.dec.s[k] * ws.dec.s[k];
        }
    }
    true
}
// alloc-free: end null_toward_with

#[cfg(test)]
mod tests {
    use super::*;
    use crate::beamforming::beamform;
    use copa_channel::MultipathProfile;
    use copa_num::SimRng;
    use copa_phy::ofdm::DATA_SUBCARRIERS;

    fn ch(rng: &mut SimRng, rx: usize, tx: usize) -> FreqChannel {
        FreqChannel::random(rng, rx, tx, 1.0, &MultipathProfile::default())
    }

    #[test]
    fn dof_accounting() {
        assert_eq!(nulling_dof(4, 2), 2);
        assert_eq!(nulling_dof(3, 2), 1);
        assert_eq!(nulling_dof(1, 1), 0);
        assert_eq!(nulling_dof(2, 4), -2);
    }

    #[test]
    fn perfect_csi_gives_perfect_null() {
        let mut rng = SimRng::seed_from(60);
        let own = ch(&mut rng, 2, 4);
        let victim = ch(&mut rng, 2, 4);
        let pre = null_toward(&own, &victim, 2).expect("4x2 has enough DoF");
        assert!(pre.columns_are_unit_norm(1e-9));
        for s in 0..DATA_SUBCARRIERS {
            // Signal arriving at the victim through the *same* (estimated)
            // channel is exactly nulled.
            let at_victim = victim.at(s).matmul(&pre.precoder[s]);
            assert!(
                at_victim.max_abs() < 1e-8,
                "residual at victim on subcarrier {s}: {}",
                at_victim.max_abs()
            );
        }
    }

    #[test]
    fn imperfect_csi_leaves_residual() {
        // Nulling computed on a noisy estimate leaves ~csi_error_db residual
        // at the victim -- the core observation of section 2.2.
        use copa_channel::Impairments;
        let mut rng = SimRng::seed_from(61);
        let own_true = ch(&mut rng, 2, 4);
        let vic_true = ch(&mut rng, 2, 4);
        let imp = Impairments {
            csi_error_db: -25.0,
            ..Default::default()
        };
        let own_est = imp.estimate_channel(&mut rng, &own_true);
        let vic_est = imp.estimate_channel(&mut rng, &vic_true);
        let pre = null_toward(&own_est, &vic_est, 2).unwrap();
        // Average residual power at victim relative to un-precoded level.
        let mut residual = 0.0;
        let mut reference = 0.0;
        for s in 0..DATA_SUBCARRIERS {
            residual += vic_true.at(s).matmul(&pre.precoder[s]).frobenius_norm_sqr();
            reference += vic_true.at(s).frobenius_norm_sqr() / 4.0 * 2.0; // equal-power 2 streams
        }
        let ratio_db = 10.0 * (residual / reference).log10();
        assert!(
            (-35.0..=-12.0).contains(&ratio_db),
            "residual should be roughly the CSI error level, got {ratio_db:.1} dB"
        );
    }

    #[test]
    fn nulling_costs_own_gain() {
        // Collateral damage: gains within the nullspace are lower than
        // unconstrained beamforming gains.
        let mut rng = SimRng::seed_from(62);
        let own = ch(&mut rng, 2, 4);
        let victim = ch(&mut rng, 2, 4);
        let bf = beamform(&own, 2);
        let null = null_toward(&own, &victim, 2).unwrap();
        let sum_bf: f64 = bf.stream_gains.iter().flatten().sum();
        let sum_null: f64 = null.stream_gains.iter().flatten().sum();
        assert!(
            sum_null < sum_bf,
            "nulling should cost beamforming gain: {sum_null} vs {sum_bf}"
        );
        // But not everything: with 2 spare DoF the loss is a few dB, not 20.
        assert!(sum_null > sum_bf * 0.05);
    }

    #[test]
    fn overconstrained_returns_none() {
        let mut rng = SimRng::seed_from(63);
        let own = ch(&mut rng, 2, 3);
        let victim = ch(&mut rng, 2, 3);
        // 3 tx antennas - 2 victim antennas = 1 DoF: two streams impossible...
        assert!(null_toward(&own, &victim, 2).is_none());
        // ...but one stream is fine.
        assert!(null_toward(&own, &victim, 1).is_some());
        // Single-antenna APs cannot null at all.
        let own1 = ch(&mut rng, 1, 1);
        let vic1 = ch(&mut rng, 1, 1);
        assert!(null_toward(&own1, &vic1, 1).is_none());
    }

    /// Asserts two precodings agree to the last mantissa bit.
    fn assert_bit_identical(a: &LinkPrecoding, b: &LinkPrecoding, ctx: &str) {
        assert_eq!(a.streams(), b.streams(), "{ctx}: stream count");
        for s in 0..DATA_SUBCARRIERS {
            let (x, y) = (&a.precoder[s], &b.precoder[s]);
            assert_eq!((x.rows(), x.cols()), (y.rows(), y.cols()), "{ctx}: shape");
            for (i, (u, v)) in x.as_slice().iter().zip(y.as_slice()).enumerate() {
                assert_eq!(u.re.to_bits(), v.re.to_bits(), "{ctx}: s={s} entry {i}.re");
                assert_eq!(u.im.to_bits(), v.im.to_bits(), "{ctx}: s={s} entry {i}.im");
            }
            for k in 0..a.streams() {
                assert_eq!(
                    a.stream_gains[k][s].to_bits(),
                    b.stream_gains[k][s].to_bits(),
                    "{ctx}: gain k={k} s={s}"
                );
            }
        }
    }

    /// Runs the batched kernel and the scalar reference on one problem and
    /// requires bit-identical precoders; returns the batched one.
    fn batched_matches_scalar(
        own: &FreqChannel,
        victim: &FreqChannel,
        streams: usize,
        ctx: &str,
    ) -> LinkPrecoding {
        let mut ws = PrecodeScratch::new();
        let mut batched = LinkPrecoding::empty();
        assert!(null_toward_with(
            own,
            victim,
            streams,
            &mut ws,
            &mut batched
        ));
        let mut scalar = LinkPrecoding::empty();
        assert!(null_toward_scalar_with(
            own,
            victim,
            streams,
            &mut ws,
            &mut scalar
        ));
        assert_bit_identical(&batched, &scalar, ctx);
        batched
    }

    #[test]
    fn batched_is_bit_identical_to_scalar() {
        for (seed, rx, tx, vic_rx, streams) in [
            (70u64, 2usize, 4usize, 2usize, 2usize),
            (71, 2, 4, 2, 1),
            (72, 1, 3, 2, 1),
            (73, 2, 3, 1, 2),
        ] {
            let mut rng = SimRng::seed_from(seed);
            let own = ch(&mut rng, rx, tx);
            let victim = ch(&mut rng, vic_rx, tx);
            batched_matches_scalar(&own, &victim, streams, &format!("seed={seed}"));
        }
    }

    #[test]
    fn non_uniform_victim_nullity_falls_back_bit_identically() {
        // A victim channel that is rank-deficient on a few subcarriers only
        // (its two receive antennas see the same channel there), so the
        // numerical nullity differs between lanes and the batched kernel
        // must take the scalar fallback.
        let mut rng = SimRng::seed_from(74);
        let own = ch(&mut rng, 2, 4);
        let full = ch(&mut rng, 2, 4);
        let deficient = [3usize, 17, 40];
        let victim = full.map(|s, h| {
            let mut m = h.clone();
            if deficient.contains(&s) {
                for t in 0..m.cols() {
                    m[(1, t)] = m[(0, t)];
                }
            }
            m
        });
        for (s, h) in victim.iter().enumerate() {
            let rank = copa_num::svd::svd(h).rank(NULL_TOL);
            assert_eq!(rank, if deficient.contains(&s) { 1 } else { 2 }, "s={s}");
        }

        let pre = batched_matches_scalar(&own, &victim, 2, "rank-deficient victim");
        assert!(pre.columns_are_unit_norm(1e-9));
        for s in 0..DATA_SUBCARRIERS {
            let leaked = victim.at(s).matmul(&pre.precoder[s]).max_abs();
            assert!(
                leaked < 1e-8,
                "residual at victim on subcarrier {s}: {leaked}"
            );
        }
    }

    #[test]
    fn nulled_gains_match_realized_power() {
        let mut rng = SimRng::seed_from(64);
        let own = ch(&mut rng, 2, 4);
        let victim = ch(&mut rng, 2, 4);
        let pre = null_toward(&own, &victim, 2).unwrap();
        for s in [0, 13, 51] {
            for k in 0..2 {
                let w = pre.precoder[s].column(k);
                let realized = own.at(s).matmul(&w).frobenius_norm_sqr();
                assert!((realized - pre.stream_gains[k][s]).abs() < 1e-9 * realized.max(1e-12));
            }
        }
    }
}
