//! Acceptance tests for the event-driven coordination daemon: hour-long
//! simulated runs must be byte-identical across thread counts and across
//! kill-and-resume (including a kill mid-degradation under a lossy fault
//! plan with churn), the zero fault plan must be bit-transparent down to
//! the journal bytes, evaluations must amortize far below epochs, and a
//! single forced epoch must reproduce the batch supervisor bit for bit.

use copa::channel::{AntennaConfig, FaultPlan, Topology, TopologySampler};
use copa::core::ScenarioParams;
use copa::sim::churn::{ChurnConfig, ChurnSource};
use copa::sim::json::ToJson;
use copa::sim::{
    run_daemon, run_daemon_journaled, run_daemon_resumed, run_suite_journaled, DaemonConfig,
    SuiteConfig, TopologyOutcome,
};
use std::path::Path;

fn suite(n: usize) -> Vec<Topology> {
    TopologySampler::default().suite(0x0DAE, n, AntennaConfig::CONSTRAINED_4X2)
}

/// Every on-disk byte of the journal at `prefix`: sealed segments in
/// order, then the active part.
fn journal_bytes(prefix: &Path) -> Vec<u8> {
    let name = prefix
        .file_name()
        .expect("journal prefix has a file name")
        .to_string_lossy()
        .into_owned();
    let mut bytes = Vec::new();
    for i in 0u32.. {
        let seg = prefix.with_file_name(format!("{name}.seg{i:04}"));
        match std::fs::read(&seg) {
            Ok(b) => bytes.extend_from_slice(&b),
            Err(_) => break,
        }
    }
    let part = prefix.with_file_name(format!("{name}.part"));
    if let Ok(b) = std::fs::read(&part) {
        bytes.extend_from_slice(&b);
    }
    bytes
}

/// One hour of simulated time in coarse 100 ms epochs: long enough that
/// channels decorrelate many times over and traffic cycles through many
/// busy periods, coarse enough to stay test-sized.
fn hour_cfg() -> DaemonConfig<'static> {
    DaemonConfig {
        epoch_us: 100_000,
        epochs: 36_000,
        staleness_us: 30_000_000,
        coherence_us: 60_000_000,
        checkpoint_every: 4_000,
        ..DaemonConfig::default()
    }
}

#[test]
fn hour_long_run_is_byte_identical_across_threads_and_resume() {
    let params = ScenarioParams::default();
    let cells = suite(2);
    let cfg = hour_cfg();
    let prefix = std::env::temp_dir().join(format!("copa-daemon-hour-{}", std::process::id()));

    let reference = run_daemon_journaled(&params, &cells, &cfg, &prefix).expect("full run");
    let want = reference.to_json();
    assert_eq!(reference.sim_time_us, 3_600_000_000, "one hour simulated");

    // Re-exchange amortization: the whole point of the daemon. Exchanges
    // fire on staleness/churn only, so they sit far below cell-epochs.
    let cell_epochs = reference.epochs * cells.len() as u64;
    assert!(reference.exchanges > 10, "an hour must re-exchange");
    assert!(
        reference.exchanges * 50 < cell_epochs,
        "exchanges ({}) must be far below cell-epochs ({cell_epochs})",
        reference.exchanges
    );
    assert!(
        reference.evals * 10 < cell_epochs,
        "evals ({}) must amortize far below cell-epochs ({cell_epochs})",
        reference.evals
    );

    // Thread invariance: contiguous cell partitions, merged in order.
    for threads in [2usize, 8] {
        let cfg_t = DaemonConfig { threads, ..cfg };
        let got = run_daemon(&params, &cells, &cfg_t).expect("threaded run");
        assert_eq!(got.to_json(), want, "threads={threads}");
    }

    // Kill at an epoch that is not a checkpoint multiple, then resume:
    // the journal's last checkpoint plus deterministic replay must land
    // on the same bytes.
    let killed = DaemonConfig {
        stop_after: Some(17_500),
        ..cfg
    };
    let partial = run_daemon_journaled(&params, &cells, &killed, &prefix).expect("killed run");
    assert_eq!(partial.epochs, 17_500);
    let resumed = run_daemon_resumed(&params, &cells, &cfg, &prefix).expect("resumed run");
    assert_eq!(resumed.to_json(), want, "kill-and-resume replay");

    copa::sim::journal::wipe_journal(&prefix).expect("cleanup");
}

/// The zero fault plan routes every exchange through the real ITS wire
/// protocol yet must stay bit-transparent: same report bytes, same
/// checkpoint journal bytes on disk as the oracle (`faults: None`) path.
#[test]
fn zero_fault_plan_is_bit_transparent_to_the_oracle_daemon() {
    let params = ScenarioParams::default();
    let cells = suite(3);
    let cfg = DaemonConfig {
        epoch_us: 10_000,
        epochs: 3_000,
        staleness_us: 1_000_000,
        coherence_us: 1_000_000,
        checkpoint_every: 500,
        ..DaemonConfig::default()
    };
    let pid = std::process::id();
    let oracle_prefix = std::env::temp_dir().join(format!("copa-daemon-oracle-{pid}"));
    let wired_prefix = std::env::temp_dir().join(format!("copa-daemon-wired-{pid}"));

    let oracle = run_daemon_journaled(&params, &cells, &cfg, &oracle_prefix).expect("oracle");
    let wired_cfg = DaemonConfig {
        faults: Some(FaultPlan::none(params.seed)),
        ..cfg
    };
    let wired = run_daemon_journaled(&params, &cells, &wired_cfg, &wired_prefix).expect("wired");

    assert_eq!(oracle.to_json(), wired.to_json(), "reports must match");
    let oracle_bytes = journal_bytes(&oracle_prefix);
    assert!(!oracle_bytes.is_empty(), "journal must exist");
    assert_eq!(
        oracle_bytes,
        journal_bytes(&wired_prefix),
        "checkpoint journals must be byte-identical on disk"
    );

    copa::sim::journal::wipe_journal(&oracle_prefix).expect("cleanup");
    copa::sim::journal::wipe_journal(&wired_prefix).expect("cleanup");
}

/// A genuinely hostile run — heavy frame loss plus membership churn —
/// must stay a pure function of `(seed, cell, epoch)`: byte-identical
/// across thread counts and across a kill landing mid-degradation.
#[test]
fn chaos_run_is_byte_identical_across_threads_and_mid_degradation_resume() {
    let params = ScenarioParams::default();
    let cells = suite(4);
    let cfg = DaemonConfig {
        epoch_us: 10_000,
        epochs: 6_000,
        staleness_us: 300_000,
        coherence_us: 1_000_000,
        checkpoint_every: 250,
        faults: Some(FaultPlan::lossy(params.seed, 0.45)),
        churn: Some(ChurnSource::Process(ChurnConfig {
            mean_gap_epochs: 400,
            ..ChurnConfig::default()
        })),
        recovery_backoff_us: 400_000,
        ..DaemonConfig::default()
    };
    let prefix = std::env::temp_dir().join(format!("copa-daemon-chaos-{}", std::process::id()));

    let reference = run_daemon_journaled(&params, &cells, &cfg, &prefix).expect("full run");
    let want = reference.to_json();
    assert!(
        reference.degraded_cell_epochs > 0,
        "45% loss must degrade some exchanges"
    );
    assert!(reference.recoveries > 0, "degraded sessions must recover");
    assert!(reference.churn_events > 0, "the process must churn");

    for threads in [2usize, 8] {
        let cfg_t = DaemonConfig { threads, ..cfg };
        let got = run_daemon(&params, &cells, &cfg_t).expect("threaded run");
        assert_eq!(got.to_json(), want, "threads={threads}");
    }

    // Kill while at least one cell sits mid-degradation (pinned to CSMA,
    // backoff pending), then resume: the v2 checkpoint must carry the
    // bout so the replayed run lands on the same bytes. The search kills
    // once at 250 and then advances the same journal one 250-epoch leg
    // at a time, each leg a resume that is killed again at its stop, so
    // the cost stays linear in the horizon.
    let mut killed_mid_bout = false;
    let mut partial = run_daemon_journaled(
        &params,
        &cells,
        &DaemonConfig {
            stop_after: Some(250),
            ..cfg
        },
        &prefix,
    )
    .expect("killed run");
    for stop in (250..6_000).step_by(250) {
        if stop > 250 {
            let leg = DaemonConfig {
                stop_after: Some(stop),
                ..cfg
            };
            partial = run_daemon_resumed(&params, &cells, &leg, &prefix).expect("resumed leg");
        }
        assert_eq!(partial.epochs, stop, "leg must stop at its kill point");
        if partial.per_cell.iter().any(|c| c.degraded) {
            killed_mid_bout = true;
            let resumed = run_daemon_resumed(&params, &cells, &cfg, &prefix).expect("resumed run");
            assert_eq!(resumed.to_json(), want, "mid-degradation resume @ {stop}");
            break;
        }
    }
    assert!(
        killed_mid_bout,
        "no checkpoint boundary caught a degradation bout in flight"
    );

    copa::sim::journal::wipe_journal(&prefix).expect("cleanup");
}

#[test]
fn single_epoch_daemon_matches_batch_supervisor_bitwise() {
    let params = ScenarioParams::default();
    let cells = suite(6);
    let prefix = std::env::temp_dir().join(format!("copa-daemon-parity-{}", std::process::id()));

    // The batch path: one supervised, journaled pass over the suite.
    let batch = run_suite_journaled(
        &params,
        &cells,
        &SuiteConfig {
            threads: 1,
            ..Default::default()
        },
        &prefix,
    )
    .expect("batch suite");
    copa::sim::journal::wipe_journal(&prefix).expect("cleanup");

    // The daemon path: one forced-active epoch over the same suite.
    let cfg = DaemonConfig {
        epochs: 1,
        force_active: true,
        ..DaemonConfig::default()
    };
    let daemon = run_daemon(&params, &cells, &cfg).expect("single-epoch daemon");

    assert_eq!(batch.records.len(), cells.len());
    assert_eq!(daemon.per_cell.len(), cells.len());
    for (rec, cell) in batch.records.iter().zip(&daemon.per_cell) {
        let (mbps, strategy) = match &rec.outcome {
            TopologyOutcome::Done { mbps, strategy } => Some((*mbps, *strategy)),
            _ => None,
        }
        .expect("every batch suite record must be Done");
        assert_eq!(
            cell.last_mbps.to_bits(),
            mbps.to_bits(),
            "cell {} throughput must match the batch path bitwise",
            cell.cell
        );
        assert_eq!(
            cell.last_strategy,
            Some(strategy),
            "cell {} strategy must match the batch path",
            cell.cell
        );
    }
}
