//! The COPA workspace benchmark: four seeded workloads, end-to-end
//! throughput with tracing off, and a traced run that maps every layer.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload suite_mixed --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See `README.md` in
//! this directory for the workloads and the layer map.

mod alloc;
mod stats;
mod traced;
mod workloads;

use stats::{median, Digest};
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use workloads::{Hooks, Pool, Workload, MEASURE};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// The seed the stored output digests were recorded with.
const RECORDED_SEED: u64 = 1;

/// Digest of each workload's report JSON over its whole pool on
/// [`RECORDED_SEED`].
const RECORDED_DIGESTS: [(Workload, u64); 4] = [
    (Workload::SuiteMixed, 0x2abf_6909_738a_ea17),
    (Workload::DaemonChaos, 0x5cda_2784_5fe7_9fe3),
    (Workload::CampusDense, 0x29e1_607f_5a44_fde2),
    (Workload::WaveformGrid, 0xa1c2_ebd4_bba4_afb7),
];

/// Times the set-up is repeated; its median is `setup_s`.
const SETUP_REPS: usize = 9;

/// End-to-end metrics (tracing off): name and unit.
const END_TO_END: [(&str, &str); 3] = [
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run): name and unit, in report order.
const PER_LAYER: &[(&str, &str)] = &[
    ("runner.busy_frac", "frac"),
    ("engine.run_us.p50", "us"),
    ("engine.run_us.tail", "us"),
    ("engine.run_us.tail_pct", "%"),
    ("engine.run_us.n", "count"),
    ("engine.csi_prep_us.total", "us"),
    ("engine.csi_prep_us.tail", "us"),
    ("engine.csi_prep_us.tail_pct", "%"),
    ("engine.csi_prep_us.n", "count"),
    ("engine.precoding_us.total", "us"),
    ("engine.precoding_us.tail", "us"),
    ("engine.precoding_us.tail_pct", "%"),
    ("engine.precoding_us.n", "count"),
    ("engine.allocation_us.total", "us"),
    ("engine.allocation_us.tail", "us"),
    ("engine.allocation_us.tail_pct", "%"),
    ("engine.allocation_us.n", "count"),
    ("engine.sinr_us.total", "us"),
    ("engine.sinr_us.tail", "us"),
    ("engine.sinr_us.tail_pct", "%"),
    ("engine.sinr_us.n", "count"),
    ("engine.self_us.total", "us"),
    ("engine.evaluations", "count"),
    ("supervisor.busy_frac", "frac"),
    ("supervisor.retries", "count"),
    ("supervisor.deadline_misses", "count"),
    ("supervisor.panicked", "count"),
    ("supervisor.quarantined", "count"),
    ("campus.plan_ms", "ms"),
    ("cluster.graph_ms", "ms"),
    ("cluster.partition_ms", "ms"),
    ("cluster.coloring_ms", "ms"),
    ("daemon.round_us.p50", "us"),
    ("daemon.round_us.tail", "us"),
    ("daemon.round_us.tail_pct", "%"),
    ("daemon.round_us.n", "count"),
    ("daemon.evals", "count"),
    ("daemon.exchanges", "count"),
    ("daemon.evals_per_cell_epoch", "1/cell-epoch"),
    ("daemon.exchanges_per_cell_epoch", "1/cell-epoch"),
    ("daemon.degraded_cell_epochs", "count"),
    ("daemon.recoveries", "count"),
    ("daemon.churn_events", "count"),
    ("exchange.frames_sent", "count"),
    ("exchange.retry_frac", "frac"),
    ("exchange.degraded", "count"),
    ("coordinator.exchange_us.p50", "us"),
    ("coordinator.exchange_us.tail", "us"),
    ("coordinator.exchange_us.tail_pct", "%"),
    ("coordinator.exchange_us.n", "count"),
    ("validation.busy_frac", "frac"),
    ("waveform.frame_us.p50", "us"),
    ("waveform.frame_us.tail", "us"),
    ("waveform.frame_us.tail_pct", "%"),
    ("waveform.frame_us.n", "count"),
    ("waveform.frames", "count"),
    ("waveform.bit_errors", "count"),
    ("precoding.beamform_us.p50", "us"),
    ("precoding.null_toward_us.p50", "us"),
    ("precoding.sinr_grid_us.p50", "us"),
    ("phy.rate_best_ns", "ns"),
    ("phy.rate_best_flat_ns", "ns"),
    ("num.svd_ns.2x4", "ns"),
    ("num.svd_ns.1x1", "ns"),
    ("num.svd_ns.2x3", "ns"),
    ("num.fft64_ns", "ns"),
    ("channel.advance_topology_us", "us"),
    ("channel.topology_sample_us", "us"),
    ("mac.compress_csi_us", "us"),
    ("mac.decompress_csi_us", "us"),
    ("mac.csi_bytes_ratio", "frac"),
    ("obs.overhead_frac.suite_mixed", "frac"),
    ("obs.overhead_frac.daemon_chaos", "frac"),
    ("obs.overhead_frac.campus_dense", "frac"),
    ("obs.overhead_frac.waveform_grid", "frac"),
    ("alloc.warm_per_op.suite_mixed", "allocs/op"),
    ("alloc.warm_per_op.daemon_chaos", "allocs/op"),
    ("alloc.warm_per_op.campus_dense", "allocs/op"),
    ("alloc.warm_per_op.waveform_grid", "allocs/op"),
    ("trace.events", "count"),
    ("checks.failed_frac", "frac"),
];

/// Parsed command line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: copa-perfbench --workload <suite_mixed|daemon_chaos|campus_dense|waveform_grid> \
     [--seed <u64>] [--seconds <1..=3600>] [--trace <0|1>]";

/// Parses `--workload <name> --seed <n> --seconds <n> --trace <0|1>`
/// (any order; all but `--workload` have defaults).
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = RECORDED_SEED;
    let mut seconds = 20;
    let mut trace = false;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=3600).contains(s))
                    .ok_or_else(|| format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The result line's content.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// Attaches units from `declared` to measured metrics, and fails when the
/// two sets differ or a value is not finite.
fn declare(
    measured: Vec<(String, f64)>,
    declared: &[(&str, &'static str)],
) -> Result<Vec<(String, f64, &'static str)>, String> {
    if measured.len() != declared.len() {
        return Err(format!(
            "{} metrics measured, {} declared",
            measured.len(),
            declared.len()
        ));
    }
    measured
        .into_iter()
        .map(|(name, value)| {
            let unit = declared
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, u)| u)
                .ok_or_else(|| format!("undeclared metric {name}"))?;
            if !value.is_finite() {
                return Err(format!("{name} is not finite"));
            }
            Ok((name, value, unit))
        })
        .collect()
}

/// Peak resident set size of this process, MiB (Linux `VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// The untraced run: set up [`SETUP_REPS`] times, then time rounds over
/// the pool for `seconds`, checking every round's output.
fn run_measured(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut pool = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let p = Pool::generate(w, args.seed, &MEASURE);
        p.warm_up();
        setup_s.push(t.elapsed().as_secs_f64());
        pool = Some(p);
    }
    let pool = pool.expect("set-up ran");

    let budget = Duration::from_secs(args.seconds);
    let mut rates = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    let mut digests: Vec<Option<u64>> = vec![None; pool.len()];
    let mut ran = vec![false; pool.len()];
    let mut deterministic = true;
    let mut check = |k: usize, out: &workloads::Output, ran: &mut Vec<bool>| {
        let c = pool.check(k, out);
        attempted += pool.ops(k);
        failed += c.failed;
        if ran[k] {
            deterministic &= c.digest.is_some() && c.digest == digests[k];
        } else {
            digests[k] = c.digest;
            ran[k] = true;
        }
    };
    let start = Instant::now();
    let mut round = 0;
    while rates.is_empty() || start.elapsed() < budget {
        let k = round % pool.len();
        let t = Instant::now();
        let out = pool.run(k, Hooks::default());
        let dt = t.elapsed().as_secs_f64();
        rates.push(pool.ops(k) as f64 / dt);
        check(k, &out, &mut ran);
        round += 1;
    }
    // Entries the timed loop did not reach are still checked once, so the
    // digest always covers the whole pool.
    for k in 0..pool.len() {
        if !ran[k] {
            let out = pool.run(k, Hooks::default());
            check(k, &out, &mut ran);
        }
    }

    let mut digest = Digest::default();
    for d in &digests {
        digest.update(&d.unwrap_or(0).to_le_bytes());
    }
    let digest = digest.value();
    let digest_ok = digests.iter().all(Option::is_some)
        && (args.seed != RECORDED_SEED
            || RECORDED_DIGESTS
                .iter()
                .any(|&(rw, d)| rw == w && d == digest));
    println!(
        "{}: {} rounds, {} {}, digest {digest:#018x}{}",
        w.name(),
        rates.len(),
        attempted,
        w.ops_name(),
        if args.seed == RECORDED_SEED {
            if digest_ok {
                " (matches the recorded digest)"
            } else {
                " (DIFFERS from the recorded digest)"
            }
        } else {
            ""
        }
    );
    let mut sorted = rates.clone();
    sorted.sort_by(f64::total_cmp);
    println!(
        "{}: {} per second by round: min {:.1} p25 {:.1} p50 {:.1} p75 {:.1} max {:.1}",
        w.name(),
        w.ops_name(),
        sorted[0],
        stats::quantile_sorted(&sorted, 0.25),
        stats::quantile_sorted(&sorted, 0.5),
        stats::quantile_sorted(&sorted, 0.75),
        sorted[sorted.len() - 1],
    );
    if !deterministic {
        println!("{}: repeated rounds disagreed", w.name());
    }
    let metrics = declare(
        vec![
            ("ops_per_s".into(), median(&rates)),
            ("setup_s".into(), median(&setup_s)),
            ("peak_rss_mb".into(), peak_rss_mb()?),
        ],
        &END_TO_END,
    )?;
    Ok(Report {
        correct: failed == 0 && deterministic && digest_ok,
        attempted,
        failed,
        metrics,
    })
}

/// The traced run: the per-layer map over every workload, with the
/// chrome trace written under `out/` in this package's directory.
fn run_traced(args: &Args) -> Result<Report, String> {
    let (map, trace_json) = traced::run_traced(args.seed, args.seconds);
    for e in &map.errors {
        println!("trace: {e}");
    }
    let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    let path = out_dir.join(format!("trace_{}_{}.json", args.workload.name(), args.seed));
    std::fs::write(&path, &trace_json).map_err(|e| e.to_string())?;
    println!("trace: wrote {}", path.display());
    let metrics = declare(map.metrics, PER_LAYER)?;
    Ok(Report {
        correct: map.failed == 0 && map.errors.is_empty(),
        attempted: map.attempted,
        failed: map.failed,
        metrics,
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let report = if args.trace {
        run_traced(&args)
    } else {
        run_measured(&args)
    };
    match report {
        Ok(r) => println!("{}", r.to_json()),
        Err(e) => {
            eprintln!("benchmark error: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copa::obs::json::{parse, Value};

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        assert_eq!(
            args("--workload daemon_chaos --seed 7 --seconds 3 --trace 1"),
            Ok(Args {
                workload: Workload::DaemonChaos,
                seed: 7,
                seconds: 3,
                trace: true,
            })
        );
        assert_eq!(
            args("--trace 0 --workload waveform_grid"),
            Ok(Args {
                workload: Workload::WaveformGrid,
                seed: RECORDED_SEED,
                seconds: 20,
                trace: false,
            })
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--seed 3",
            "--workload nope",
            "--workload suite_mixed --seconds 0",
            "--workload suite_mixed --seconds x",
            "--workload suite_mixed --trace 2",
            "--workload suite_mixed --seed -1",
            "--workload suite_mixed --frobnicate 1",
            "--workload",
        ] {
            assert!(args(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn report_line_is_json_with_the_contract_keys() {
        let r = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("ops_per_s".into(), 12.5, "1/s")],
        };
        let v = parse(&r.to_json()).expect("valid JSON");
        assert_eq!(v.get("attempted").and_then(Value::as_u64), Some(3));
        let m = v.get("metrics").and_then(|m| m.get("ops_per_s")).unwrap();
        assert_eq!(m.get("value").and_then(Value::as_f64), Some(12.5));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some("1/s"));
    }

    #[test]
    fn declare_requires_exactly_the_declared_set() {
        let decl = [("a", "s"), ("b", "ms")];
        assert!(declare(vec![("a".into(), 1.0), ("b".into(), 2.0)], &decl).is_ok());
        assert!(declare(vec![("a".into(), 1.0)], &decl).is_err());
        assert!(declare(vec![("a".into(), 1.0), ("c".into(), 2.0)], &decl).is_err());
        assert!(declare(vec![("a".into(), 1.0), ("b".into(), f64::NAN)], &decl).is_err());
    }

    /// The metric lists here are the ones `BENCHMARK.json` declares.
    #[test]
    fn benchmark_json_declares_these_metrics() {
        let doc = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Value::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Value::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter().map(|&(n, u)| (n.into(), u.into())).collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().into()).collect();
        assert_eq!(workloads, ours);
    }
}
