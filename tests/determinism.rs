//! Determinism regression: the whole evaluation pipeline must be a pure
//! function of (topology suite, seed). Two runs -- and a multi-threaded
//! run vs a single-threaded one -- must agree to the last bit, or CDFs
//! stop being reproducible across machines and thread counts.

use copa::channel::{AntennaConfig, TopologySampler};
use copa::core::{Engine, EvalRequest, Evaluation, ScenarioParams};
use copa::sim::{evaluate_parallel, evaluate_serial};

/// Byte-exact fingerprint of an evaluation: every outcome's strategy and
/// the raw bits of every throughput number (`Evaluation` has no `Eq`;
/// float bits are the strictest possible comparison).
fn fingerprint(e: &Evaluation) -> String {
    let mut s = String::new();
    let mut push = |o: &copa::core::Outcome| {
        s.push_str(&format!(
            "{:?}:{:016x}:{:016x};",
            o.strategy,
            o.per_client_bps[0].to_bits(),
            o.per_client_bps[1].to_bits()
        ));
    };
    for o in &e.outcomes {
        push(o);
    }
    push(&e.csma);
    push(&e.copa_seq);
    push(&e.copa);
    push(&e.copa_fair);
    if let Some(o) = &e.vanilla_null {
        push(o);
    }
    if let Some(o) = &e.copa_plus {
        push(o);
    }
    if let Some(o) = &e.copa_plus_fair {
        push(o);
    }
    s
}

#[test]
fn engine_evaluate_is_byte_identical_across_runs() {
    let suite = TopologySampler::default().suite(0xDE7, 6, AntennaConfig::CONSTRAINED_4X2);
    let params = ScenarioParams::default();
    for t in &suite {
        let a = Engine::new(params)
            .run(&mut EvalRequest::topology(t))
            .expect("valid topology");
        let b = Engine::new(params)
            .run(&mut EvalRequest::topology(t))
            .expect("valid topology");
        assert_eq!(
            fingerprint(&a),
            fingerprint(&b),
            "same engine params, same topology"
        );
    }
}

#[test]
fn runner_thread_count_does_not_change_results() {
    let suite = TopologySampler::default().suite(0xDE8, 6, AntennaConfig::SINGLE);
    let params = ScenarioParams::default();
    let serial = evaluate_serial(&params, &suite);
    let parallel = evaluate_parallel(&params, &suite, 4);
    assert_eq!(serial.len(), parallel.len());
    for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(
            fingerprint(a),
            fingerprint(b),
            "topology {i}: serial and 4-thread runs must be byte-identical"
        );
    }
    // And an odd thread count that does not divide the suite evenly.
    let three = evaluate_parallel(&params, &suite, 3);
    for (a, b) in serial.iter().zip(&three) {
        assert_eq!(fingerprint(a), fingerprint(b));
    }
}

#[test]
fn work_stealing_runner_is_byte_identical_across_1_2_8_threads() {
    // Mixed antenna configs exercise every engine path (full-rank nulling,
    // SDA, beamforming-only) while workers race for indices.
    let mut suite = TopologySampler::default().suite(0xDEA, 4, AntennaConfig::CONSTRAINED_4X2);
    suite.extend(TopologySampler::default().suite(0xDEB, 4, AntennaConfig::SINGLE));
    suite.extend(TopologySampler::default().suite(0xDEC, 4, AntennaConfig::OVERCONSTRAINED_3X2));
    let params = ScenarioParams::default();
    let one = evaluate_parallel(&params, &suite, 1);
    for threads in [2, 8] {
        let many = evaluate_parallel(&params, &suite, threads);
        assert_eq!(one.len(), many.len());
        for (i, (a, b)) in one.iter().zip(&many).enumerate() {
            assert_eq!(
                fingerprint(a),
                fingerprint(b),
                "topology {i}: 1-thread vs {threads}-thread runs must be byte-identical"
            );
        }
    }
}

#[test]
fn mercury_variants_are_deterministic_too() {
    let suite = TopologySampler::default().suite(0xDE9, 2, AntennaConfig::SINGLE);
    let params = ScenarioParams {
        include_mercury: true,
        ..Default::default()
    };
    let a = evaluate_serial(&params, &suite);
    let b = evaluate_parallel(&params, &suite, 2);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(fingerprint(x), fingerprint(y));
        assert!(x.copa_plus.is_some(), "mercury outcomes requested");
    }
}

#[test]
fn degraded_suite_is_byte_identical_across_1_2_8_threads() {
    // Fault injection must not break the determinism contract: the same
    // FaultPlan seed produces bit-identical throughputs, decisions, and
    // DegradationStats no matter how workers race for topologies.
    use copa::channel::FaultPlan;
    use copa::sim::run_degraded_suite;
    let suite = TopologySampler::default().suite(0xFA01, 16, AntennaConfig::CONSTRAINED_4X2);
    let params = ScenarioParams::default();
    let plan = FaultPlan {
        frame_loss: 0.3,
        corruption: 0.1,
        stale_csi: 0.1,
        max_retries: 2,
        ..FaultPlan::none(7)
    };
    let one = run_degraded_suite(&params, &suite, &plan, 1).expect("degraded suite");
    assert!(
        one.stats.csma_fallbacks > 0,
        "plan should be harsh enough to force fallbacks"
    );
    for threads in [2, 8] {
        let many = run_degraded_suite(&params, &suite, &plan, threads).expect("degraded suite");
        assert_eq!(one.stats, many.stats, "{threads}-thread stats drifted");
        assert_eq!(one.decisions, many.decisions);
        for (i, (a, b)) in one
            .throughputs_mbps
            .iter()
            .zip(&many.throughputs_mbps)
            .enumerate()
        {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "topology {i}: 1-thread vs {threads}-thread throughput"
            );
        }
    }
}

#[test]
fn killed_and_resumed_suite_reproduces_uninterrupted_json() {
    // Crash-safety contract of the supervised runner: kill a journaled run
    // mid-suite, resume from the journal, and the combined report is
    // byte-identical (as JSON) to an uninterrupted 1-thread run -- at any
    // thread count, at any crash point.
    use copa::sim::journal::wipe_journal;
    use copa::sim::json::ToJson;
    use copa::sim::{run_suite_journaled, run_suite_resumed, SuiteConfig};
    let mut suite = TopologySampler::default().suite(0xFB01, 6, AntennaConfig::CONSTRAINED_4X2);
    suite.extend(TopologySampler::default().suite(0xFB02, 6, AntennaConfig::SINGLE));
    let params = ScenarioParams::default();
    let prefix = std::env::temp_dir().join(format!("copa-det-resume-{}", std::process::id()));

    let baseline = {
        let cfg = SuiteConfig {
            threads: 1,
            records_per_segment: 4,
            ..Default::default()
        };
        let report = run_suite_journaled(&params, &suite, &cfg, &prefix).expect("baseline run");
        report.to_json()
    };

    for threads in [1, 2, 8] {
        for crash_after in [1, 5, 11] {
            let cfg = SuiteConfig {
                threads,
                records_per_segment: 4,
                stop_after: Some(crash_after),
                ..Default::default()
            };
            let partial =
                run_suite_journaled(&params, &suite, &cfg, &prefix).expect("interrupted run");
            assert_eq!(
                partial.records.len(),
                crash_after,
                "{threads} threads, crash after {crash_after}"
            );
            let cfg = SuiteConfig {
                threads,
                records_per_segment: 4,
                ..Default::default()
            };
            let resumed = run_suite_resumed(&params, &suite, &cfg, &prefix).expect("resumed run");
            assert_eq!(
                resumed.to_json(),
                baseline,
                "{threads} threads, crash after {crash_after}: resumed JSON must be \
                 byte-identical to the uninterrupted 1-thread run"
            );
        }
    }
    wipe_journal(&prefix).expect("cleanup");
}

#[test]
fn supervised_health_is_thread_count_invariant() {
    use copa::sim::json::ToJson;
    use copa::sim::{run_suite, SuiteConfig};
    let mut suite = TopologySampler::default().suite(0xFB03, 8, AntennaConfig::CONSTRAINED_4X2);
    suite.extend(TopologySampler::default().suite(0xFB04, 4, AntennaConfig::OVERCONSTRAINED_3X2));
    // A finite conditioning limit makes some outcomes quarantine, so the
    // invariance claim covers the mixed-outcome path too.
    let params = ScenarioParams {
        cond_limit: 50.0,
        ..Default::default()
    };
    let one = run_suite(
        &params,
        &suite,
        &SuiteConfig {
            threads: 1,
            ..Default::default()
        },
    );
    assert_eq!(
        one.health.completed + one.health.quarantined,
        suite.len() as u64
    );
    for threads in [2, 8] {
        let many = run_suite(
            &params,
            &suite,
            &SuiteConfig {
                threads,
                ..Default::default()
            },
        );
        assert_eq!(one.health, many.health, "{threads}-thread health drifted");
        assert_eq!(
            one.to_json(),
            many.to_json(),
            "{threads}-thread report drifted"
        );
    }
}

#[test]
fn telemetry_enabled_suite_is_bit_transparent_and_thread_invariant() {
    // Two contracts at once. (1) Pay-for-what-you-use: a journaled,
    // supervised run with a live telemetry bundle produces a report
    // byte-identical (as JSON) to the telemetry-disabled run. (2) The
    // merged telemetry itself is thread-count invariant once every
    // scheduling-sensitive sample is pinned: a FrozenClock zeroes span
    // durations and a scripted SuiteClock makes attempt times a pure
    // function of the suite index.
    use copa::obs::FrozenClock;
    use copa::sim::journal::wipe_journal;
    use copa::sim::json::ToJson;
    use copa::sim::{run_suite_journaled, SuiteClock, SuiteConfig, SuiteTelemetry};
    use std::sync::atomic::{AtomicU64, Ordering};

    struct StepClock {
        now: AtomicU64,
    }
    impl SuiteClock for StepClock {
        fn now_us(&self) -> u64 {
            self.now.load(Ordering::SeqCst)
        }
        fn sleep_us(&self, us: u64) {
            self.now.fetch_add(us, Ordering::SeqCst);
        }
        fn attempt_us(&self, idx: usize, _attempt: u32, _start: u64, _end: u64) -> u64 {
            1 + idx as u64
        }
    }

    let mut suite = TopologySampler::default().suite(0xFC01, 6, AntennaConfig::CONSTRAINED_4X2);
    suite.extend(TopologySampler::default().suite(0xFC02, 6, AntennaConfig::SINGLE));
    let params = ScenarioParams::default();
    let prefix = std::env::temp_dir().join(format!("copa-det-telemetry-{}", std::process::id()));

    let baseline = {
        let clock = StepClock {
            now: AtomicU64::new(0),
        };
        let cfg = SuiteConfig {
            threads: 1,
            records_per_segment: 4,
            clock: Some(&clock),
            ..Default::default()
        };
        run_suite_journaled(&params, &suite, &cfg, &prefix)
            .expect("telemetry-disabled run")
            .to_json()
    };

    let mut first_telemetry: Option<String> = None;
    for threads in [1, 2, 8] {
        let tel = SuiteTelemetry::new().with_clock(Box::new(FrozenClock(0)));
        let clock = StepClock {
            now: AtomicU64::new(0),
        };
        let cfg = SuiteConfig {
            threads,
            records_per_segment: 4,
            clock: Some(&clock),
            telemetry: Some(&tel),
            ..Default::default()
        };
        let report =
            run_suite_journaled(&params, &suite, &cfg, &prefix).expect("telemetry-enabled run");
        assert_eq!(
            report.to_json(),
            baseline,
            "{threads} threads: a live telemetry bundle must not change the report bits"
        );
        let by_name = |n: &str| tel.registry().counter_by_name(n);
        assert_eq!(by_name("suite.completed"), Some(12), "{threads} threads");
        assert_eq!(by_name("engine.evaluations"), Some(12));
        assert_eq!(by_name("suite.requeues"), Some(0), "no deadline pressure");
        assert_eq!(by_name("journal.records_appended"), Some(12));
        assert_eq!(by_name("journal.segments_sealed"), Some(3), "12 / 4");
        let json = tel.to_json();
        match &first_telemetry {
            None => first_telemetry = Some(json),
            Some(first) => assert_eq!(
                &json, first,
                "{threads} threads: merged telemetry JSON must be thread-count invariant"
            ),
        }
    }
    wipe_journal(&prefix).expect("cleanup");
}

#[test]
fn campus_suite_is_byte_identical_across_1_2_8_threads() {
    // The N-cell layer inherits the determinism contract wholesale: a
    // 64-AP campus -- graph build, clustering, residual scaling, and
    // every per-cluster evaluation -- is a pure function of the params,
    // no matter how workers race for cluster units.
    use copa::sim::json::ToJson;
    use copa::sim::{run_campus_suite, CampusParams, CampusScheme, SuiteConfig};
    let cp = CampusParams::dense(64, 0xCA_3D05, AntennaConfig::SINGLE);
    let params = ScenarioParams::default();
    let one = run_campus_suite(
        &cp,
        &params,
        CampusScheme::Copa,
        &SuiteConfig {
            threads: 1,
            ..Default::default()
        },
    );
    assert_eq!(
        one.suite.health.completed,
        one.clusters.len() as u64,
        "every cluster unit must complete"
    );
    assert!(one.stats.pairs > 0, "a dense campus must form pairs");
    let baseline = one.to_json();
    for threads in [2, 8] {
        let many = run_campus_suite(
            &cp,
            &params,
            CampusScheme::Copa,
            &SuiteConfig {
                threads,
                ..Default::default()
            },
        );
        assert_eq!(
            many.to_json(),
            baseline,
            "{threads}-thread campus report must be byte-identical to 1-thread"
        );
    }
}

#[test]
fn killed_and_resumed_campus_run_matches_uninterrupted_json() {
    // Checkpoint/resume carries over to the campus layer unchanged: kill
    // a journaled campus run mid-partition, resume it, and the combined
    // report is byte-identical to the uninterrupted run.
    use copa::sim::journal::wipe_journal;
    use copa::sim::json::ToJson;
    use copa::sim::{
        run_campus_suite_journaled, run_campus_suite_resumed, CampusParams, CampusScheme,
        SuiteConfig,
    };
    let cp = CampusParams::dense(64, 0xCA_3D06, AntennaConfig::SINGLE);
    let params = ScenarioParams::default();
    let prefix = std::env::temp_dir().join(format!("copa-det-campus-{}", std::process::id()));

    let baseline = {
        let cfg = SuiteConfig {
            threads: 1,
            records_per_segment: 4,
            ..Default::default()
        };
        run_campus_suite_journaled(&cp, &params, CampusScheme::Copa, &cfg, &prefix)
            .expect("baseline campus run")
            .to_json()
    };

    for threads in [2, 8] {
        let cfg = SuiteConfig {
            threads,
            records_per_segment: 4,
            stop_after: Some(7),
            ..Default::default()
        };
        let partial = run_campus_suite_journaled(&cp, &params, CampusScheme::Copa, &cfg, &prefix)
            .expect("interrupted campus run");
        assert_eq!(partial.suite.records.len(), 7, "{threads} threads");
        let cfg = SuiteConfig {
            threads,
            records_per_segment: 4,
            ..Default::default()
        };
        let resumed = run_campus_suite_resumed(&cp, &params, CampusScheme::Copa, &cfg, &prefix)
            .expect("resumed campus run");
        assert_eq!(
            resumed.to_json(),
            baseline,
            "{threads} threads: resumed campus JSON must match the uninterrupted run"
        );
    }
    wipe_journal(&prefix).expect("cleanup");
}

#[test]
fn waveform_grid_is_byte_identical_across_1_2_8_threads_and_replay() {
    // The bit-true waveform validator inherits the determinism contract:
    // every Monte-Carlo grid point (sync, tapped-delay convolution, Viterbi
    // decode and all) is a pure function of (config, seed), no matter how
    // workers race for points -- and a seed replay reproduces the same bits.
    use copa::sim::{run_waveform_grid, WaveformGridConfig, WaveformPoint};

    fn wf_fingerprint(points: &[WaveformPoint]) -> String {
        let mut s = String::new();
        for p in points {
            s.push_str(&format!(
                "{}:{}:{:016x}:{}:{}:{}:{}:{:016x}:{:016x}:{:016x};",
                p.mcs,
                p.mcs_index,
                p.snr_db.to_bits(),
                p.frames,
                p.frame_errors,
                p.bit_errors,
                p.bits,
                p.measured_fer.to_bits(),
                p.measured_ber.to_bits(),
                p.analytic_fer.to_bits()
            ));
        }
        s
    }

    let cfg = WaveformGridConfig {
        mcs_indices: vec![0, 4],
        snr_db: vec![6.0, 14.0],
        frames: 6,
        symbols_per_frame: 3,
        ..Default::default()
    };
    let one = run_waveform_grid(&cfg, 1);
    assert_eq!(one.len(), 4);
    assert!(
        one.iter().any(|p| p.frame_errors > 0),
        "grid should include operating points with measurable errors"
    );
    let baseline = wf_fingerprint(&one);
    for threads in [2, 8] {
        let many = run_waveform_grid(&cfg, threads);
        assert_eq!(
            wf_fingerprint(&many),
            baseline,
            "{threads}-thread waveform grid must be byte-identical to 1-thread"
        );
    }
    // Seed replay: a fresh run of the same config lands on the same bits; a
    // different master seed must not (the grid really depends on the seed).
    assert_eq!(wf_fingerprint(&run_waveform_grid(&cfg, 4)), baseline);
    let reseeded = WaveformGridConfig {
        seed: cfg.seed ^ 0xFFFF,
        ..cfg
    };
    assert_ne!(wf_fingerprint(&run_waveform_grid(&reseeded, 4)), baseline);
}

#[test]
fn zero_fault_plan_is_bit_transparent_over_the_plain_runner() {
    // A FaultPlan that cannot inject anything must leave the evaluation
    // pipeline untouched: same throughput bits as evaluate_parallel, no
    // degradation accounting, and all-coordinated decisions.
    use copa::channel::FaultPlan;
    use copa::sim::run_degraded_suite;
    let suite = TopologySampler::default().suite(0xFA02, 10, AntennaConfig::CONSTRAINED_4X2);
    let params = ScenarioParams::default();
    let plain = evaluate_parallel(&params, &suite, 4);
    let degraded =
        run_degraded_suite(&params, &suite, &FaultPlan::none(99), 4).expect("degraded suite");
    assert_eq!(degraded.stats.retries, 0);
    assert_eq!(degraded.stats.failed, 0);
    assert_eq!(degraded.stats.csma_fallbacks, 0);
    for (i, (ev, got)) in plain.iter().zip(&degraded.throughputs_mbps).enumerate() {
        assert_eq!(
            ev.copa_fair.aggregate_mbps().to_bits(),
            got.to_bits(),
            "topology {i}: zero-fault suite must match the plain runner bit for bit"
        );
    }
}
