//! Property suite: the batched SoA kernels are *bit-identical* to the scalar
//! kernels they replace.
//!
//! The batched kernels (`svd_batch_into`, `inverse_loaded_batch_into`,
//! `CBatch::mul_into` / `hermitian_into`) are required by design to replay
//! the scalar complex operation sequence per lane, so the engine -- which
//! runs only the batched kernels -- produces the same figures as a
//! per-subcarrier scalar loop would. These tests lock that contract down over randomized shapes and
//! seeds — any reassociation, fused multiply-add, or reordering sneaking
//! into the batch code shows up here as a `to_bits` mismatch.

use copa_num::{
    inverse_loaded_batch_into, svd_batch_into, CBatch, CMat, LuBatchScratch, LuScratch, SimRng,
    SvdBatch, SvdBatchScratch, SvdScratch,
};

/// Fills a `rows x cols` matrix with unit-variance complex Gaussians.
fn random_cmat(rng: &mut SimRng, rows: usize, cols: usize) -> CMat {
    let mut m = CMat::zeros(rows, cols);
    for i in 0..rows {
        for j in 0..cols {
            m[(i, j)] = rng.randc();
        }
    }
    m
}

/// Loads `mats` as the lanes of a fresh `CBatch`.
fn to_batch(mats: &[CMat]) -> CBatch {
    let rows = mats[0].rows();
    let cols = mats[0].cols();
    let mut b = CBatch::new();
    b.reset(rows, cols, mats.len());
    for (l, m) in mats.iter().enumerate() {
        b.load_lane(l, m);
    }
    b
}

fn assert_lane_eq(batch: &CBatch, lane: usize, scalar: &CMat, what: &str) {
    assert_eq!(
        (batch.rows(), batch.cols()),
        (scalar.rows(), scalar.cols()),
        "{what}: shape"
    );
    for i in 0..scalar.rows() {
        for j in 0..scalar.cols() {
            let b = batch.get(i, j, lane);
            let s = scalar[(i, j)];
            assert_eq!(
                (b.re.to_bits(), b.im.to_bits()),
                (s.re.to_bits(), s.im.to_bits()),
                "{what}: lane {lane} entry ({i},{j}): batch {b:?} vs scalar {s:?}"
            );
        }
    }
}

/// Shapes covering every antenna configuration the engine can produce
/// (1..=4 antennas per side), tall, wide and square.
const SHAPES: &[(usize, usize)] = &[
    (1, 1),
    (2, 2),
    (2, 4),
    (4, 2),
    (3, 3),
    (4, 4),
    (1, 4),
    (4, 1),
];

/// Lane counts: degenerate, odd, and the full 52-subcarrier plane.
const LANES: &[usize] = &[1, 3, 52];

#[test]
fn svd_batch_is_bit_identical_to_scalar() {
    let mut scratch = SvdBatchScratch::new();
    let mut out = SvdBatch::default();
    let mut sc_scratch = SvdScratch::new();
    let mut sc_out = copa_num::Svd::default();
    for seed in [1u64, 0xC0FFEE, 0xDEAD_BEEF] {
        for &(m, n) in SHAPES {
            for &lanes in LANES {
                let mut rng =
                    SimRng::seed_from(seed ^ ((m as u64) << 8) ^ (n as u64 * lanes as u64));
                let mats: Vec<CMat> = (0..lanes).map(|_| random_cmat(&mut rng, m, n)).collect();
                let a = to_batch(&mats);
                svd_batch_into(&a, &mut scratch, &mut out);
                for (l, mat) in mats.iter().enumerate() {
                    copa_num::svd_into(mat, &mut sc_scratch, &mut sc_out);
                    assert_lane_eq(&out.u, l, &sc_out.u, "svd u");
                    assert_lane_eq(&out.v, l, &sc_out.v, "svd v");
                    assert_eq!(sc_out.s.len(), n, "scalar singular value count");
                    for (j, &s) in sc_out.s.iter().enumerate() {
                        assert_eq!(
                            out.s_at(j, l).to_bits(),
                            s.to_bits(),
                            "svd s: lane {l} value {j} ({m}x{n}, seed {seed:#x})"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn svd_batch_rank_matches_scalar_rank() {
    let mut scratch = SvdBatchScratch::new();
    let mut out = SvdBatch::default();
    for &(m, n) in &[(2usize, 2usize), (4, 2), (3, 3)] {
        for &lanes in LANES {
            let mut rng = SimRng::seed_from(0xBADC_0DE ^ (m * 31 + n * 7 + lanes) as u64);
            let mats: Vec<CMat> = (0..lanes).map(|_| random_cmat(&mut rng, m, n)).collect();
            let a = to_batch(&mats);
            svd_batch_into(&a, &mut scratch, &mut out);
            for (l, mat) in mats.iter().enumerate() {
                let sc = copa_num::svd(mat);
                let smax = sc.s.first().copied().unwrap_or(0.0);
                let scalar_rank = sc.s.iter().filter(|&&s| s > 1e-12 * smax).count();
                assert_eq!(
                    out.rank_lane(1e-12, l),
                    scalar_rank,
                    "rank lane {l} ({m}x{n})"
                );
            }
        }
    }
}

#[test]
fn inverse_loaded_batch_is_bit_identical_to_scalar() {
    let mut scratch = LuBatchScratch::new();
    let mut out = CBatch::new();
    let mut sc_scratch = LuScratch::default();
    let mut sc_out = CMat::zeros(0, 0);
    // Engine-realistic loadings: the MMSE path uses noise_mw.max(1e-18) * 1e-9.
    for &eps in &[1e-9f64, 1e-12, 1e-27] {
        for &n in &[1usize, 2, 3, 4] {
            for &lanes in LANES {
                let mut rng =
                    SimRng::seed_from(0xA11CE ^ (n * 1024 + lanes) as u64 ^ eps.to_bits());
                // Hermitian PSD-ish inputs, as produced by H * H^H on the MMSE path.
                let mats: Vec<CMat> = (0..lanes)
                    .map(|_| {
                        let h = random_cmat(&mut rng, n, n);
                        let mut g = CMat::zeros(n, n);
                        for i in 0..n {
                            for j in 0..n {
                                let mut acc = copa_num::C64::new(0.0, 0.0);
                                for k in 0..n {
                                    acc = acc + h[(i, k)] * h[(j, k)].conj();
                                }
                                g[(i, j)] = acc;
                            }
                        }
                        g
                    })
                    .collect();
                let a = to_batch(&mats);
                inverse_loaded_batch_into(&a, eps, &mut scratch, &mut out);
                for (l, mat) in mats.iter().enumerate() {
                    inverse_loaded_into(mat, eps, &mut sc_scratch, &mut sc_out);
                    assert_lane_eq(&out, l, &sc_out, "inverse");
                }
            }
        }
    }
}

use copa_num::inverse_loaded_into;

#[test]
fn batch_mul_and_hermitian_are_bit_identical_to_scalar() {
    let mut rng = SimRng::seed_from(0x5EED);
    for &(m, k, n) in &[(2usize, 2usize, 2usize), (4, 2, 3), (1, 4, 1), (3, 3, 4)] {
        for &lanes in LANES {
            let a_mats: Vec<CMat> = (0..lanes).map(|_| random_cmat(&mut rng, m, k)).collect();
            let b_mats: Vec<CMat> = (0..lanes).map(|_| random_cmat(&mut rng, k, n)).collect();
            let a = to_batch(&a_mats);
            let b = to_batch(&b_mats);
            let mut c = CBatch::new();
            a.mul_into(&b, &mut c);
            let mut ah = CBatch::new();
            a.hermitian_into(&mut ah);
            for l in 0..lanes {
                let sc = a_mats[l].matmul(&b_mats[l]);
                assert_lane_eq(&c, l, &sc, "mul");
                let sch = a_mats[l].hermitian();
                assert_lane_eq(&ah, l, &sch, "hermitian");
            }
        }
    }
}
