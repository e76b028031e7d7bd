//! Golden-figure regressions over the standard 30-topology suites.
//!
//! These lock in the paper's *qualitative* claims -- scheme orderings and
//! coarse population ratios -- on the canonical seeded suites, so a
//! numerics change that silently flips a figure's story fails tier-1.
//! Absolute Mbps are deliberately not asserted: they move with every
//! legitimate PHY-model refinement; the orderings must not.

use copa::channel::{AntennaConfig, TopologySampler};
use copa::core::{Evaluation, Outcome, ScenarioParams};
use copa::sim::reuse::reuse_summary;
use copa::sim::{
    allocator_comparison, evaluate_serial, fig10, fig11, fig12, fig7, headline_stats,
    run_campus_suite, standard_suite, CampusParams, CampusScheme, SuiteConfig,
};

const THREADS: usize = 4;

fn mean(exp: &copa::sim::ThroughputExperiment, name: &str) -> f64 {
    let missing = format!("series {name} missing from {}", exp.label);
    exp.series(name).expect(&missing).mean_mbps()
}

/// Figure 10 (1x1): the full scheme ladder. Cooperation beats contention
/// (COPA-SEQ > CSMA), concurrency beats pure sequencing (COPA >
/// COPA-SEQ), and the mercury menu never trails plain COPA.
#[test]
fn fig10_scheme_ordering_holds_on_standard_suite() {
    let suite = standard_suite(AntennaConfig::SINGLE);
    let params = ScenarioParams {
        include_mercury: true,
        ..Default::default()
    };
    let exp = fig10(&suite, &params, THREADS);
    let csma = mean(&exp, "CSMA");
    let seq = mean(&exp, "COPA-SEQ");
    let copa = mean(&exp, "COPA");
    let plus = mean(&exp, "COPA+");
    assert!(
        seq > csma,
        "COPA-SEQ {seq:.1} must beat CSMA {csma:.1} on average"
    );
    assert!(
        copa > seq,
        "COPA {copa:.1} must beat COPA-SEQ {seq:.1} on average"
    );
    assert!(
        plus >= copa,
        "COPA+ {plus:.1} has a strict superset menu of COPA {copa:.1}"
    );
    // Coarse ratio: cooperation is worth tens of percent over CSMA here,
    // not a rounding error and not a 10x miracle.
    let gain = copa / csma;
    assert!(
        (1.05..3.0).contains(&gain),
        "COPA/CSMA ratio {gain:.2} left the plausible band"
    );
}

/// Figure 11 (4x2 constrained): the paper's central negative result --
/// vanilla nulling *loses* to CSMA in most topologies -- and its positive
/// one: COPA still wins a majority.
#[test]
fn fig11_nulling_loses_and_copa_wins_on_standard_suite() {
    let suite = standard_suite(AntennaConfig::CONSTRAINED_4X2);
    let params = ScenarioParams::default();
    let exp = fig11(&suite, &params, THREADS);
    let csma = mean(&exp, "CSMA");
    let null = mean(&exp, "Null");
    assert!(
        null < csma,
        "vanilla nulling {null:.1} must underperform CSMA {csma:.1} on average"
    );
    let h = headline_stats(&exp).expect("fig11 has CSMA/Null/COPA series");
    assert!(
        h.null_worse_than_csma > 0.7,
        "nulling should lose to CSMA in >70% of 4x2 topologies, got {:.0}%",
        h.null_worse_than_csma * 100.0
    );
    assert!(
        h.copa_beats_csma > 0.5,
        "COPA should beat CSMA in a majority of topologies, got {:.0}%",
        h.copa_beats_csma * 100.0
    );
    assert!(
        h.copa_over_null_mean > 0.2,
        "COPA should improve on nulling by tens of percent, got {:.0}%",
        h.copa_over_null_mean * 100.0
    );
}

/// Campus-scale sanity band: the headline gain must survive densification.
/// On seeded 50-AP campuses, mean per-cell rate under clustered COPA
/// (pairwise coordination inside clusters, residual noise across
/// boundaries) must meet or beat the all-CSMA baseline -- same partition,
/// same residual-noise model, contention outcomes everywhere -- on at
/// least 70% of campuses. Absolute rates are deliberately not asserted.
#[test]
fn campus_clustered_copa_beats_all_csma_on_most_seeds() {
    let params = ScenarioParams::default();
    let cfg = SuiteConfig {
        threads: THREADS,
        ..Default::default()
    };
    let seeds: Vec<u64> = (0..8).map(|s| 0xCA_F160 + s).collect();
    let mut wins = 0usize;
    for &seed in &seeds {
        let cp = CampusParams::dense(50, seed, AntennaConfig::SINGLE);
        let copa = run_campus_suite(&cp, &params, CampusScheme::Copa, &cfg);
        let csma = run_campus_suite(&cp, &params, CampusScheme::AllCsma, &cfg);
        assert_eq!(
            copa.suite.health.completed,
            copa.clusters.len() as u64,
            "seed {seed:#x}: every cluster must complete"
        );
        assert!(copa.stats.clusters > 1, "seed {seed:#x}: dense campus");
        assert!(
            copa.mean_per_cell_mbps > 0.0 && csma.mean_per_cell_mbps > 0.0,
            "seed {seed:#x}: rates must be positive"
        );
        if copa.mean_per_cell_mbps >= csma.mean_per_cell_mbps {
            wins += 1;
        }
    }
    assert!(
        wins * 10 >= seeds.len() * 7,
        "clustered COPA must beat all-CSMA on >=70% of 50-AP campuses, \
         got {wins}/{}",
        seeds.len()
    );
}

/// Figure 12: force interference 10 dB down and vanilla nulling recovers
/// -- the ordering flip that motivates power *allocation* over pure
/// nulling.
#[test]
fn fig12_nulling_recovers_under_weak_interference() {
    let suite = standard_suite(AntennaConfig::CONSTRAINED_4X2);
    let params = ScenarioParams::default();
    let strong = fig11(&suite, &params, THREADS);
    let weak = fig12(&suite, &params, THREADS);
    let null_strong = mean(&strong, "Null");
    let null_weak = mean(&weak, "Null");
    let csma_weak = mean(&weak, "CSMA");
    assert!(
        null_weak > null_strong,
        "-10 dB interference must help nulling: {null_weak:.1} vs {null_strong:.1}"
    );
    assert!(
        null_weak > csma_weak * 0.95,
        "with weak interference nulling becomes competitive with CSMA: \
         {null_weak:.1} vs {csma_weak:.1}"
    );
    // And COPA's lead over nulling narrows: the coordination gain comes
    // precisely from handling strong cross-links.
    let copa_strong = mean(&strong, "COPA");
    let copa_weak = mean(&weak, "COPA");
    let lead_strong = copa_strong / null_strong;
    let lead_weak = copa_weak / null_weak;
    assert!(
        lead_weak < lead_strong,
        "COPA's lead over nulling should narrow when interference weakens: \
         {lead_weak:.2}x vs {lead_strong:.2}x"
    );
}

/// Waveform-vs-analytic golden band: on the seeded per-MCS SNR grid the
/// bit-true waveform FER (IFFT/CP, tapped-delay convolution, sync,
/// equalization, Viterbi) must sit within a fixed band of the analytic
/// union-bound FER computed from the *same* channel realizations -- at
/// most 0.25 apart in absolute FER, and within [0.3x, 1.7x] wherever the
/// analytic prediction is non-negligible. The union bound overestimates
/// by design (it is an upper bound), so the band is asymmetric around 1.
/// FER must also fall with SNR within each MCS.
#[test]
fn waveform_fer_tracks_analytic_union_bound_per_mcs() {
    use copa::sim::{run_waveform_grid, WaveformGridConfig};
    for (m, lo, hi) in [(0usize, 4.0, 8.0), (3, 12.0, 16.0), (7, 24.0, 28.0)] {
        let cfg = WaveformGridConfig {
            mcs_indices: vec![m],
            snr_db: vec![lo, hi],
            frames: 80,
            symbols_per_frame: 4,
            ..Default::default()
        };
        let grid = run_waveform_grid(&cfg, THREADS);
        for p in &grid {
            assert!(
                (p.measured_fer - p.analytic_fer).abs() <= 0.25,
                "MCS{m} @ {} dB: measured FER {:.3} strayed more than 0.25 \
                 from analytic {:.3}",
                p.snr_db,
                p.measured_fer,
                p.analytic_fer
            );
            if p.analytic_fer > 0.05 {
                let ratio = p.measured_fer / p.analytic_fer;
                assert!(
                    (0.3..=1.7).contains(&ratio),
                    "MCS{m} @ {} dB: measured/analytic ratio {ratio:.2} left \
                     the [0.3, 1.7] band ({:.3} vs {:.3})",
                    p.snr_db,
                    p.measured_fer,
                    p.analytic_fer
                );
            }
        }
        assert!(
            grid[1].measured_fer < grid[0].measured_fer,
            "MCS{m}: FER must fall with SNR ({:.3} @ {lo} dB vs {:.3} @ {hi} dB)",
            grid[0].measured_fer,
            grid[1].measured_fer
        );
    }
}

/// Waveform impairment monotonicity: with the receiver's CFO correction
/// off, growing carrier offset strictly degrades FER until frames are
/// unrecoverable; growing residual timing error (the FFT window sliding
/// past the cyclic prefix into inter-symbol interference) does the same.
#[test]
fn waveform_fer_degrades_monotonically_with_impairments() {
    use copa::phy::waveform::WaveformImpairments;
    use copa::sim::{run_waveform_grid, WaveformGridConfig};

    let point = |imp: WaveformImpairments| {
        let cfg = WaveformGridConfig {
            mcs_indices: vec![1],
            snr_db: vec![10.0],
            frames: 60,
            symbols_per_frame: 4,
            impairments: imp,
            ..Default::default()
        };
        run_waveform_grid(&cfg, 2)[0].measured_fer
    };

    let cfo_fers: Vec<f64> = [0.0, 4_000.0, 12_000.0]
        .iter()
        .map(|&cfo| {
            let mut imp = WaveformImpairments::clean();
            imp.correct_cfo = false;
            imp.cfo_hz = cfo;
            point(imp)
        })
        .collect();
    for w in cfo_fers.windows(2) {
        assert!(
            w[1] >= w[0],
            "FER must not improve as uncorrected CFO grows: {cfo_fers:?}"
        );
    }
    assert!(
        cfo_fers[2] > cfo_fers[0] + 0.2,
        "12 kHz of uncorrected CFO must clearly degrade FER: {cfo_fers:?}"
    );

    let timing_fers: Vec<f64> = [0, 2, 4, 8]
        .iter()
        .map(|&rt| {
            let mut imp = WaveformImpairments::clean();
            imp.residual_timing = rt;
            point(imp)
        })
        .collect();
    for w in timing_fers.windows(2) {
        assert!(
            w[1] >= w[0],
            "FER must not improve as residual timing grows: {timing_fers:?}"
        );
    }
    assert!(
        timing_fers[3] > timing_fers[0] + 0.2,
        "8 samples of late timing must clearly degrade FER: {timing_fers:?}"
    );
}

/// FNV-1a over a stream of 64-bit words: a compact bit-exact fingerprint.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn outcome(&mut self, o: &Outcome) {
        self.word(o.strategy as u64);
        self.f64(o.per_client_bps[0]);
        self.f64(o.per_client_bps[1]);
    }

    fn evaluation(&mut self, e: &Evaluation) {
        for o in &e.outcomes {
            self.outcome(o);
        }
        for o in [&e.csma, &e.copa_seq, &e.copa, &e.copa_fair] {
            self.outcome(o);
        }
        for o in [&e.vanilla_null, &e.copa_plus, &e.copa_plus_fair] {
            match o {
                Some(o) => self.outcome(o),
                None => self.word(u64::MAX),
            }
        }
    }
}

/// Bit-exact pins on the allocator-facing paths: Figure 7's concurrent
/// Equi-SINR on nulling precoders, the 1x1 subcarrier-reuse analysis, the
/// single-stream allocator ablation, and full engine evaluations with the
/// mercury (COPA+) menu on 1x1 and 4x2 topologies. Any change to the
/// leakage-gain model, the allocators or the Figure 6 iteration that moves
/// a single bit of these outputs fails here.
#[test]
fn allocation_paths_are_bit_pinned() {
    let params = ScenarioParams::default();

    let mut d = Digest::new();
    let f = fig7(&standard_suite(AntennaConfig::CONSTRAINED_4X2)[1], &params);
    for b in &f.ber_copa {
        match b {
            Some(b) => d.f64(*b),
            None => d.word(u64::MAX),
        }
    }
    for &b in &f.ber_nopa {
        d.f64(b);
    }
    for &s in &f.dropped {
        d.word(s as u64);
    }
    d.f64(f.copa_mbps);
    d.f64(f.nopa_mbps);
    d.word(u64::from(f.mcs_index));
    let fig7_digest = d.0;

    let mut d = Digest::new();
    let suite = TopologySampler::default().suite(0x0FD, 5, AntennaConfig::SINGLE);
    let r = reuse_summary(&suite, &params);
    d.f64(r.mean_exclusive);
    d.f64(r.mean_shared);
    d.f64(r.mean_unused);
    d.word(r.topologies_with_sharing as u64);
    let reuse_digest = d.0;

    let mut d = Digest::new();
    for &m in &allocator_comparison(0x1BEA, 20, 22.0).mean_mbps {
        d.f64(m);
    }
    let ablation_digest = d.0;

    let mut d = Digest::new();
    let mercury = ScenarioParams {
        include_mercury: true,
        ..Default::default()
    };
    let sampler = TopologySampler::default();
    for config in [AntennaConfig::SINGLE, AntennaConfig::CONSTRAINED_4X2] {
        let suite = sampler.suite(0xD16E, 2, config);
        for e in &evaluate_serial(&mercury, &suite) {
            assert!(e.copa_plus.is_some() && e.copa_plus_fair.is_some());
            d.evaluation(e);
        }
    }
    let engine_digest = d.0;

    let got = [fig7_digest, reuse_digest, ablation_digest, engine_digest];
    let want: [u64; 4] = [
        0x6b16_70c7_74cb_fe50,
        0xbdfc_9ae9_c384_cc47,
        0x23f1_1ebe_b973_9c4b,
        0x4177_9a20_59d4_8e4f,
    ];
    assert_eq!(
        got, want,
        "allocation-path digests moved: got {got:#018x?} (fig7, reuse, ablation, engine)"
    );
}
