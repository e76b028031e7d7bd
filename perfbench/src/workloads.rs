//! The four workloads: inputs generated from the seed, one timed round,
//! and the checks on a round's output.
//!
//! Each workload holds a pool of inputs. A round runs one pool entry
//! through the program; the measured loop cycles through the pool, so a
//! run covers several independent draws of the seed's inputs and the
//! per-round median is steadier across seeds.

use crate::stats::Digest;
use copa::channel::{AntennaConfig, FaultPlan, Topology, TopologySampler};
use copa::core::{CopaError, Evaluation, Outcome, ScenarioParams};
use copa::obs::json::{Obj, ToJson};
use copa::sim::churn::{ChurnConfig, ChurnSource};
use copa::sim::{
    run_campus_suite, run_daemon, run_waveform_grid, try_evaluate_parallel, CampusParams,
    CampusReport, CampusScheme, DaemonConfig, DaemonReport, SuiteClock, SuiteConfig,
    SuiteTelemetry, TopologyOutcome, WaveformGridConfig, WaveformPoint,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Worker threads every parallel call gets (the benchmark host's core
/// count; every program path it drives is thread-count invariant).
pub const THREADS: usize = 2;

/// The antenna configurations `suite_mixed` mixes, in pool order.
pub const SUITE_CONFIGS: [AntennaConfig; 3] = [
    AntennaConfig::CONSTRAINED_4X2,
    AntennaConfig::SINGLE,
    AntennaConfig::OVERCONSTRAINED_3X2,
];

/// The MCS indices and SNRs (dB) of the waveform grid: three MCS classes,
/// each around the knee of its FER curve.
const WAVE_MCS: [usize; 3] = [0, 3, 7];
const WAVE_SNR_DB: [f64; 6] = [4.0, 8.0, 12.0, 16.0, 24.0, 28.0];

/// Per-MCS operating points `(mcs, snr_db)` where the measured FER must
/// stay within [`FER_BAND`] of the analytic union bound.
const WAVE_OPERATING: [(usize, f64); 6] = [
    (0, 4.0),
    (0, 8.0),
    (3, 12.0),
    (3, 16.0),
    (7, 24.0),
    (7, 28.0),
];

/// Absolute measured-vs-analytic FER band at the operating points.
const FER_BAND: f64 = 0.25;

/// One workload of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Heterogeneous topology suite through `evaluate_parallel`.
    SuiteMixed,
    /// The lossy, churning 6-cell coordination daemon.
    DaemonChaos,
    /// 500-AP dense campuses planned and evaluated under supervision.
    CampusDense,
    /// The bit-true waveform Monte-Carlo grid.
    WaveformGrid,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::SuiteMixed,
        Workload::DaemonChaos,
        Workload::CampusDense,
        Workload::WaveformGrid,
    ];

    /// The name the command line and the metrics use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SuiteMixed => "suite_mixed",
            Workload::DaemonChaos => "daemon_chaos",
            Workload::CampusDense => "campus_dense",
            Workload::WaveformGrid => "waveform_grid",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What this workload's operations are, plural.
    pub fn ops_name(self) -> &'static str {
        match self {
            Workload::SuiteMixed => "topologies",
            Workload::DaemonChaos => "cell-epochs",
            Workload::CampusDense => "AP cells",
            Workload::WaveformGrid => "frames",
        }
    }
}

/// How much input one pool holds. The timed runs and the traced run use
/// different sizes; both are fixed, so counts repeat exactly per seed.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Topologies per antenna configuration in the suite.
    pub suite_per_config: usize,
    /// Daemon configurations in the pool.
    pub daemon_pool: usize,
    /// Epochs per daemon run.
    pub daemon_epochs: u64,
    /// Campuses in the pool.
    pub campus_pool: usize,
    /// Monte-Carlo frames per waveform grid point.
    pub wave_frames: usize,
}

/// Pool sizes of the timed (untraced) runs.
pub const MEASURE: Sizes = Sizes {
    suite_per_config: 200,
    daemon_pool: 32,
    daemon_epochs: 2_000,
    campus_pool: 8,
    wave_frames: 200,
};

/// Pool sizes of the traced run, which visits every workload.
pub const TRACE: Sizes = Sizes {
    suite_per_config: 40,
    daemon_pool: 1,
    daemon_epochs: 6_000,
    campus_pool: 1,
    wave_frames: 40,
};

/// Cells of the chaos daemon.
pub const DAEMON_CELLS: usize = 6;
/// APs per dense campus.
pub const CAMPUS_CELLS: usize = 500;
/// Frame-loss probability of the chaos daemon's ITS exchanges.
pub const DAEMON_LOSS: f64 = 0.2;
/// Degraded epochs within which a session still pinned to CSMA at the
/// last epoch counts as recovering rather than stuck: 10 s of simulated
/// time, past the 6.4 s cap of the default recovery backoff.
const RECOVERY_WINDOW_EPOCHS: u64 = 1_000;

/// Derives an independent 64-bit seed for input `tag` (splitmix64).
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One daemon input: the CSI/drift/churn/fault seed and six 4x2 cells.
pub struct DaemonInput {
    /// Scenario parameters; `seed` drives drift, churn and faults.
    pub params: ScenarioParams,
    /// The cells' starting topologies.
    pub suite: Vec<Topology>,
}

/// Optional observation the traced passes attach to a round.
#[derive(Clone, Copy, Default)]
pub struct Hooks<'a> {
    /// Program telemetry (daemon and campus accept it).
    pub telemetry: Option<&'a SuiteTelemetry>,
    /// Clock for the daemon's round timing.
    pub clock: Option<&'a dyn SuiteClock>,
}

/// A workload's generated inputs.
pub enum Pool {
    /// One suite: every round evaluates all of it.
    Suite {
        /// Default scenario parameters.
        params: ScenarioParams,
        /// The mixed topologies, configuration-major.
        suite: Vec<Topology>,
    },
    /// Daemon inputs and their run length.
    Daemon {
        /// Epochs per run.
        epochs: u64,
        /// One entry per pool slot.
        inputs: Vec<DaemonInput>,
    },
    /// Campus inputs.
    Campus {
        /// Default scenario parameters.
        params: ScenarioParams,
        /// One campus per pool slot.
        campuses: Vec<CampusParams>,
    },
    /// One waveform grid.
    Wave(WaveformGridConfig),
}

/// What one round produced.
pub enum Output {
    /// Per-topology evaluations, or the first error.
    Suite(Result<Vec<Evaluation>, CopaError>),
    /// The daemon report, or its error.
    Daemon(Result<DaemonReport, CopaError>),
    /// The campus report.
    Campus(Box<CampusReport>),
    /// The measured grid points.
    Wave(Vec<WaveformPoint>),
    /// The round panicked; the payload as text.
    Panicked(String),
}

/// The checks' verdict on one round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Checked {
    /// Operations whose output failed a check.
    pub failed: u64,
    /// Digest of the round's report JSON (`None` when there is none).
    pub digest: Option<u64>,
}

/// The chaos daemon's policy: the `daemon_soak --chaos` configuration
/// (20% frame loss, seeded churn) at [`THREADS`] workers.
pub fn daemon_config<'a>(
    params: &ScenarioParams,
    epochs: u64,
    hooks: Hooks<'a>,
) -> DaemonConfig<'a> {
    DaemonConfig {
        epoch_us: 10_000,
        epochs,
        staleness_us: 1_000_000,
        coherence_us: 1_000_000,
        threads: THREADS,
        checkpoint_every: 1_000,
        faults: Some(FaultPlan::lossy(params.seed, DAEMON_LOSS)),
        churn: Some(ChurnSource::Process(ChurnConfig {
            mean_gap_epochs: 4_000,
            ..ChurnConfig::default()
        })),
        clock: hooks.clock,
        telemetry: hooks.telemetry,
        ..DaemonConfig::default()
    }
}

/// The supervisor policy campus rounds run under.
pub fn campus_suite_config(telemetry: Option<&SuiteTelemetry>) -> SuiteConfig<'_> {
    SuiteConfig {
        threads: THREADS,
        telemetry,
        ..SuiteConfig::default()
    }
}

impl Pool {
    /// Generates `w`'s inputs from `seed`.
    pub fn generate(w: Workload, seed: u64, sizes: &Sizes) -> Pool {
        match w {
            Workload::SuiteMixed => {
                let sampler = TopologySampler::default();
                let suite = SUITE_CONFIGS
                    .iter()
                    .enumerate()
                    .flat_map(|(k, &cfg)| {
                        sampler.suite(sub_seed(seed, 10 + k as u64), sizes.suite_per_config, cfg)
                    })
                    .collect();
                Pool::Suite {
                    params: ScenarioParams::default(),
                    suite,
                }
            }
            Workload::DaemonChaos => Pool::Daemon {
                epochs: sizes.daemon_epochs,
                inputs: (0..sizes.daemon_pool as u64)
                    .map(|k| DaemonInput {
                        params: ScenarioParams {
                            seed: sub_seed(seed, 20 + k),
                            ..ScenarioParams::default()
                        },
                        suite: TopologySampler::default().suite(
                            sub_seed(seed, 30 + k),
                            DAEMON_CELLS,
                            AntennaConfig::CONSTRAINED_4X2,
                        ),
                    })
                    .collect(),
            },
            Workload::CampusDense => Pool::Campus {
                params: ScenarioParams::default(),
                campuses: (0..sizes.campus_pool as u64)
                    .map(|k| {
                        CampusParams::dense(
                            CAMPUS_CELLS,
                            sub_seed(seed, 40 + k),
                            AntennaConfig::SINGLE,
                        )
                    })
                    .collect(),
            },
            Workload::WaveformGrid => Pool::Wave(WaveformGridConfig {
                mcs_indices: WAVE_MCS.to_vec(),
                snr_db: WAVE_SNR_DB.to_vec(),
                frames: sizes.wave_frames,
                symbols_per_frame: 4,
                seed: sub_seed(seed, 50),
                ..WaveformGridConfig::default()
            }),
        }
    }

    /// Pays one-time costs (lazy tables, first-touch pages, thread
    /// start-up) on a small slice of the same kind of work.
    pub fn warm_up(&self) {
        match self {
            Pool::Suite { params, suite } => {
                let per = suite.len() / SUITE_CONFIGS.len();
                let slice: Vec<Topology> = (0..SUITE_CONFIGS.len())
                    .flat_map(|k| suite[k * per..k * per + 2].iter().cloned())
                    .collect();
                let _ = try_evaluate_parallel(params, &slice, THREADS);
            }
            Pool::Daemon { inputs, .. } => {
                let d = &inputs[0];
                let _ = run_daemon(
                    &d.params,
                    &d.suite,
                    &daemon_config(&d.params, 200, Hooks::default()),
                );
            }
            Pool::Campus { params, campuses } => {
                let small = CampusParams::dense(100, campuses[0].campus_seed, campuses[0].config);
                let _ = run_campus_suite(
                    &small,
                    params,
                    CampusScheme::Copa,
                    &campus_suite_config(None),
                );
            }
            Pool::Wave(cfg) => {
                let small = WaveformGridConfig {
                    frames: 8,
                    ..cfg.clone()
                };
                let _ = run_waveform_grid(&small, THREADS);
            }
        }
    }

    /// Number of pool entries a round can run.
    pub fn len(&self) -> usize {
        match self {
            Pool::Suite { .. } | Pool::Wave(_) => 1,
            Pool::Daemon { inputs, .. } => inputs.len(),
            Pool::Campus { campuses, .. } => campuses.len(),
        }
    }

    /// Operations one round over entry `i` performs.
    pub fn ops(&self, i: usize) -> u64 {
        match self {
            Pool::Suite { suite, .. } => suite.len() as u64,
            Pool::Daemon { epochs, inputs } => epochs * inputs[i].suite.len() as u64,
            Pool::Campus { campuses, .. } => campuses[i].cells as u64,
            Pool::Wave(cfg) => (cfg.mcs_indices.len() * cfg.snr_db.len() * cfg.frames) as u64,
        }
    }

    /// Runs pool entry `i` once: the timed unit of work. A panic is caught
    /// and reported as an output, so it counts as failed operations.
    pub fn run(&self, i: usize, hooks: Hooks<'_>) -> Output {
        catch_unwind(AssertUnwindSafe(|| match self {
            Pool::Suite { params, suite } => {
                Output::Suite(try_evaluate_parallel(params, suite, THREADS))
            }
            Pool::Daemon { epochs, inputs } => {
                let d = &inputs[i];
                let cfg = daemon_config(&d.params, *epochs, hooks);
                Output::Daemon(run_daemon(&d.params, &d.suite, &cfg))
            }
            Pool::Campus { params, campuses } => Output::Campus(Box::new(run_campus_suite(
                &campuses[i],
                params,
                CampusScheme::Copa,
                &campus_suite_config(hooks.telemetry),
            ))),
            Pool::Wave(cfg) => Output::Wave(run_waveform_grid(cfg, THREADS)),
        }))
        .unwrap_or_else(|payload| {
            let text = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-text panic".into());
            Output::Panicked(text)
        })
    }

    /// Checks the output of a round over entry `i`: how many operations
    /// failed, and the digest of the report JSON.
    pub fn check(&self, i: usize, out: &Output) -> Checked {
        let all = self.ops(i);
        let failed_all = Checked {
            failed: all,
            digest: None,
        };
        match (self, out) {
            (Pool::Suite { suite, .. }, Output::Suite(Ok(evals))) => {
                if evals.len() != suite.len() {
                    return failed_all;
                }
                Checked {
                    failed: evals.iter().filter(|e| !evaluation_ok(e)).count() as u64,
                    digest: Some(Digest::of(suite_json(evals).as_bytes()).value()),
                }
            }
            (Pool::Daemon { epochs, inputs }, Output::Daemon(Ok(report))) => {
                let cfg = daemon_config(&inputs[i].params, *epochs, Hooks::default());
                let whole_run_ok = report.epochs == *epochs
                    && report.sim_time_us == report.epochs * cfg.epoch_us
                    && report.cells == inputs[i].suite.len()
                    && report.per_cell.len() == report.cells
                    && report.live_cells >= 1;
                if !whole_run_ok {
                    return Checked {
                        failed: all,
                        digest: Some(Digest::of(report.to_json().as_bytes()).value()),
                    };
                }
                // A session still pinned to CSMA at the last epoch has not
                // recovered. Its open bout is no longer than the cell's
                // degraded epochs; within the recovery window it is still
                // recovering, past it the session is stuck and the cell's
                // epochs count as failed.
                let stuck = report
                    .per_cell
                    .iter()
                    .filter(|c| c.degraded && c.degraded_epochs > RECOVERY_WINDOW_EPOCHS)
                    .count() as u64;
                Checked {
                    failed: stuck * epochs,
                    digest: Some(Digest::of(report.to_json().as_bytes()).value()),
                }
            }
            (Pool::Campus { campuses, .. }, Output::Campus(report)) => {
                let cp = &campuses[i];
                let h = &report.suite.health;
                let partition_ok = report.clusters.iter().map(Vec::len).sum::<usize>() == cp.cells
                    && report.suite.records.len() == report.clusters.len();
                if !partition_ok {
                    return failed_all;
                }
                let mut failed: u64 = report
                    .suite
                    .records
                    .iter()
                    .filter(|r| {
                        !matches!(r.outcome, TopologyOutcome::Done { mbps, .. }
                            if mbps.is_finite() && mbps >= 0.0)
                    })
                    .map(|r| report.clusters[r.index as usize].len() as u64)
                    .sum();
                if h.panicked + h.quarantined + h.abandoned + h.failed > 0 && failed == 0 {
                    failed = all;
                }
                Checked {
                    failed,
                    digest: Some(Digest::of(report.to_json().as_bytes()).value()),
                }
            }
            (Pool::Wave(cfg), Output::Wave(points)) => {
                if points.len() != cfg.mcs_indices.len() * cfg.snr_db.len() {
                    return failed_all;
                }
                let failed = points
                    .iter()
                    .filter(|p| !wave_point_ok(p, cfg.frames))
                    .map(|p| p.frames as u64)
                    .sum();
                Checked {
                    failed,
                    digest: Some(Digest::of(points.to_json().as_bytes()).value()),
                }
            }
            (_, Output::Panicked(payload)) => {
                println!("round over pool entry {i} panicked: {payload}");
                failed_all
            }
            _ => failed_all,
        }
    }
}

/// Structural checks on one topology's evaluation. COPA is deliberately
/// not required to beat CSMA: it picks its strategy on estimated CSI and
/// loses to CSMA on some topologies.
fn evaluation_ok(e: &Evaluation) -> bool {
    let finite = |o: &Outcome| o.per_client_bps.iter().all(|b| b.is_finite() && *b >= 0.0);
    let listed = |o: &Outcome| e.outcomes.iter().any(|x| x.strategy == o.strategy);
    e.outcomes.iter().count() > 0
        && e.outcomes.iter().all(finite)
        && [&e.csma, &e.copa_seq, &e.copa, &e.copa_fair]
            .into_iter()
            .all(|o| finite(o) && listed(o))
        && e.vanilla_null.as_ref().is_none_or(finite)
}

/// A grid point is whole, and at an operating point its measured FER
/// stays inside the analytic union-bound band.
fn wave_point_ok(p: &WaveformPoint, frames: usize) -> bool {
    let whole = p.frames == frames
        && p.frame_errors <= p.frames
        && p.bit_errors <= p.bits
        && p.measured_fer.is_finite()
        && p.analytic_fer.is_finite();
    let operating = WAVE_OPERATING
        .iter()
        .any(|&(m, s)| p.mcs_index == m && p.snr_db == s);
    whole && (!operating || (p.measured_fer - p.analytic_fer).abs() <= FER_BAND)
}

/// Canonical JSON of a suite's evaluations: every outcome's strategy and
/// per-client rates, which is everything the figure suites read.
pub fn suite_json(evals: &[Evaluation]) -> String {
    struct O<'a>(&'a Outcome);
    impl ToJson for O<'_> {
        fn write_json(&self, out: &mut String) {
            Obj::new(out)
                .field("strategy", &self.0.strategy.to_string())
                .field("bps", &self.0.per_client_bps.as_slice())
                .finish();
        }
    }
    struct E<'a>(&'a Evaluation);
    impl ToJson for E<'_> {
        fn write_json(&self, out: &mut String) {
            let e = self.0;
            let outcomes: Vec<O> = e.outcomes.iter().map(O).collect();
            Obj::new(out)
                .field("outcomes", &outcomes.as_slice())
                .field("csma", &O(&e.csma))
                .field("copa_seq", &O(&e.copa_seq))
                .field("copa", &O(&e.copa))
                .field("copa_fair", &O(&e.copa_fair))
                .field("vanilla_null", &e.vanilla_null.as_ref().map(O))
                .finish();
        }
    }
    let all: Vec<E> = evals.iter().map(E).collect();
    all.as_slice().to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn sub_seeds_are_distinct_and_stable() {
        assert_eq!(sub_seed(1, 10), sub_seed(1, 10));
        assert_ne!(sub_seed(1, 10), sub_seed(1, 11));
        assert_ne!(sub_seed(1, 10), sub_seed(2, 10));
    }

    #[test]
    fn wave_band_applies_only_at_operating_points() {
        let p = WaveformPoint {
            mcs: "x".into(),
            mcs_index: 7,
            snr_db: 4.0,
            frames: 10,
            frame_errors: 10,
            bit_errors: 5,
            bits: 100,
            measured_fer: 1.0,
            measured_ber: 0.05,
            analytic_fer: 0.2,
        };
        assert!(wave_point_ok(&p, 10), "off the operating points");
        let at_op = WaveformPoint {
            snr_db: 24.0,
            ..p.clone()
        };
        assert!(!wave_point_ok(&at_op, 10), "0.8 gap at an operating point");
        let close = WaveformPoint {
            analytic_fer: 0.9,
            ..at_op
        };
        assert!(wave_point_ok(&close, 10));
        assert!(!wave_point_ok(&close, 11), "frame count mismatch");
    }
}
