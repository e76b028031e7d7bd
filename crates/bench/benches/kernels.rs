//! Micro-benchmarks of the numeric kernels underlying every experiment:
//! SVD, LU solves, FFT, BER/coding models, allocators, and CSI compression.
//! Not tied to a specific figure; useful for tracking performance when the
//! numerics change.

use copa_alloc::stream::{equi_sinr, mercury_best, waterfilling, StreamProblem};
use copa_bench::harness::{black_box, Criterion};
use copa_mac::csi_codec::{compress_csi, decompress_csi};
use copa_num::complex::C64;
use copa_num::fft::fft_in_place;
use copa_num::matrix::CMat;
use copa_num::solve::inverse;
use copa_num::svd::svd;
use copa_num::SimRng;
use copa_phy::coding::{coded_ber, encode, viterbi_decode, CodeRate};
use copa_phy::link::ThroughputModel;
use copa_phy::mmse_curves::MmseCurve;
use copa_phy::modulation::Modulation;

fn random_mat(rng: &mut SimRng, m: usize, n: usize) -> CMat {
    CMat::from_fn(m, n, |_, _| rng.randc())
}

fn main() {
    let mut c = Criterion::default().configure_from_args();

    c.bench_function("svd_2x4_complex", |b| {
        let mut rng = SimRng::seed_from(1);
        let a = random_mat(&mut rng, 2, 4);
        b.iter(|| black_box(svd(&a)))
    });

    c.bench_function("svd_4x4_complex", |b| {
        let mut rng = SimRng::seed_from(2);
        let a = random_mat(&mut rng, 4, 4);
        b.iter(|| black_box(svd(&a)))
    });

    c.bench_function("lu_inverse_4x4", |b| {
        let mut rng = SimRng::seed_from(3);
        let a = random_mat(&mut rng, 4, 4);
        b.iter(|| black_box(inverse(&a).unwrap()))
    });

    c.bench_function("fft_64", |b| {
        let mut rng = SimRng::seed_from(4);
        let x: Vec<C64> = (0..64).map(|_| rng.randc()).collect();
        b.iter(|| {
            let mut y = x.clone();
            fft_in_place(&mut y);
            black_box(y)
        })
    });

    c.bench_function("coded_ber_all_rates", |b| {
        b.iter(|| {
            for r in CodeRate::ALL {
                black_box(coded_ber(1e-3, r));
            }
        })
    });

    c.bench_function("viterbi_decode_1000bits_r12", |b| {
        let mut rng = SimRng::seed_from(5);
        let bits: Vec<u8> = (0..1000).map(|_| (rng.next_u64() & 1) as u8).collect();
        let coded = encode(&bits, CodeRate::R12);
        b.iter(|| black_box(viterbi_decode(&coded, 1000, CodeRate::R12)))
    });

    let mk_gains = |seed: u64| -> Vec<f64> {
        let mut rng = SimRng::seed_from(seed);
        (0..52)
            .map(|_| -rng.uniform().max(1e-12).ln() * 3e-8)
            .collect()
    };

    c.bench_function("alloc_equi_sinr", |b| {
        let g = mk_gains(6);
        let p = StreamProblem::interference_free(&g, 1e-9 / 52.0, 15.8);
        let model = ThroughputModel::default();
        b.iter(|| black_box(equi_sinr(&p, &model, 0.9)))
    });

    c.bench_function("alloc_waterfilling", |b| {
        let g = mk_gains(7);
        let p = StreamProblem::interference_free(&g, 1e-9 / 52.0, 15.8);
        let model = ThroughputModel::default();
        b.iter(|| black_box(waterfilling(&p, &model, 0.9)))
    });

    c.bench_function("alloc_mercury_best", |b| {
        let g = mk_gains(8);
        let p = StreamProblem::interference_free(&g, 1e-9 / 52.0, 15.8);
        let model = ThroughputModel::default();
        let curves: Vec<MmseCurve> = Modulation::ALL.iter().map(|&m| MmseCurve::new(m)).collect();
        b.iter(|| black_box(mercury_best(&p, &curves, &model, 0.9)))
    });

    c.bench_function("csi_compress_decompress_2x4", |b| {
        let mut rng = SimRng::seed_from(9);
        let ch = copa_channel::FreqChannel::random(
            &mut rng,
            2,
            4,
            1e-6,
            &copa_channel::MultipathProfile::default(),
        );
        b.iter(|| black_box(decompress_csi(&compress_csi(&ch))))
    });

    c.final_summary();
}
