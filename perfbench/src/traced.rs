//! The traced run: spans around the benchmark's calls into every layer,
//! the program's own telemetry read back, and the per-layer map built
//! from both.
//!
//! Spans are recorded by the benchmark, around its own calls; the only
//! spans from inside the program are the engine phase spans it already
//! reports through `EngineObs`. Everything stays in memory until the end,
//! when it is written out as one chrome trace through
//! `copa_obs::TraceBuffer` and validated with
//! `copa_obs::validate_chrome_trace`.

use crate::alloc::count_allocs;
use crate::stats::{busy_frac, median, self_time, Dist};
use crate::workloads::{
    suite_json, Checked, Hooks, Output, Pool, Workload, DAEMON_LOSS, SUITE_CONFIGS, THREADS, TRACE,
};
use copa::channel::{
    AntennaConfig, ChannelDrift, ChannelScratch, FaultPlan, MultipathProfile, TopologySampler,
};
use copa::core::coordinator::Coordinator;
use copa::core::{
    cluster_greedy, greedy_coloring, prepare, Engine, EngineMetrics, EngineObs, EngineWorkspace,
    EvalRequest, Evaluation, InterferenceGraph,
};
use copa::mac::csi_codec::{compress_csi, decompress_csi, raw_csi_bytes};
use copa::num::fft::fft_into;
use copa::num::{svd_into, SimRng, Svd, SvdScratch, C64};
use copa::obs::{
    validate_chrome_trace, CounterId, HistogramId, ObsClock, Sink, Telemetry, TraceBuffer,
    TraceEvent,
};
use copa::phy::Mcs;
use copa::precoding::{
    beamform_with, mmse_sinr_grid_with, null_toward_with, LinkPrecoding, PrecodeScratch,
    SinrScratch, TxPowers, TxSide,
};
use copa::sim::{plan_campus, SuiteClock, SuiteTelemetry, WaveformSim};
use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Repetitions behind each micro-timing sample.
const REPS: usize = 5;
/// ITS exchanges timed on the daemon's topologies and fault plan.
const EXCHANGES: u64 = 120;
/// Untraced/traced pass pairs per workload, at least.
const MIN_PAIRS: usize = 2;

/// Microseconds since a shared origin: the clock of the benchmark's own
/// spans and of the engine phase spans it collects, so both line up.
#[derive(Clone, Copy)]
pub struct BenchClock {
    origin: Instant,
}

impl BenchClock {
    fn new() -> Self {
        Self {
            origin: Instant::now(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }
}

impl ObsClock for BenchClock {
    fn now_us(&self) -> u64 {
        self.now()
    }
}

/// A supervisor clock that keeps every reading. The daemon reads its
/// clock exactly at the start and end of each telemetry round, so
/// consecutive pairs of readings are the exact round durations (its own
/// histogram keeps them only to a power of two).
struct RoundClock {
    base: BenchClock,
    reads: Mutex<Vec<u64>>,
}

impl SuiteClock for RoundClock {
    fn now_us(&self) -> u64 {
        let t = self.base.now();
        self.reads.lock().expect("round clock poisoned").push(t);
        t
    }

    fn sleep_us(&self, us: u64) {
        std::thread::sleep(Duration::from_micros(us));
    }
}

impl RoundClock {
    /// Durations of the rounds read since the last call, or `None` when
    /// the readings do not pair up into rounds.
    fn take_rounds(&self) -> Option<Vec<f64>> {
        let reads = std::mem::take(&mut *self.reads.lock().expect("round clock poisoned"));
        reads.len().is_multiple_of(2).then(|| {
            reads
                .chunks(2)
                .map(|p| p[1].saturating_sub(p[0]) as f64)
                .collect()
        })
    }
}

/// One recorded span. `op` is shared by the spans of one topology,
/// exchange, cluster or frame; it is the track id in the chrome trace.
#[derive(Clone, Copy, Debug)]
pub struct SpanRec {
    /// Span name, `layer.call`.
    pub name: &'static str,
    /// Layer (crate) the call goes into.
    pub cat: &'static str,
    /// Start, microseconds.
    pub start_us: u64,
    /// End, microseconds.
    pub end_us: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Operation id.
    pub op: u64,
}

/// The benchmark's span recorder (main thread only; the program's worker
/// threads report through [`PhaseSink`]).
pub struct Spans {
    clock: BenchClock,
    recs: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Spans {
    fn new(clock: BenchClock) -> Self {
        Self {
            clock,
            recs: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span; spans opened by `f` become its children.
    fn span<R>(
        &mut self,
        name: &'static str,
        cat: &'static str,
        op: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let idx = self.recs.len();
        self.recs.push(SpanRec {
            name,
            cat,
            start_us: self.clock.now(),
            end_us: 0,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.recs[idx].end_us = self.clock.now();
        out
    }

    /// Duration of span `idx`, microseconds.
    fn dur(&self, idx: usize) -> f64 {
        (self.recs[idx].end_us - self.recs[idx].start_us) as f64
    }

    /// Adopts spans the program reported, as children of the recorded span
    /// with the same op id whose interval contains them.
    fn adopt(&mut self, events: &[TraceEvent], parents: &[usize]) {
        for e in events {
            let end = e.ts_us + e.dur_us;
            let parent = parents.iter().copied().find(|&p| {
                let r = &self.recs[p];
                r.op == u64::from(e.tid) && r.start_us <= e.ts_us && end <= r.end_us
            });
            self.recs.push(SpanRec {
                name: e.name,
                cat: e.cat,
                start_us: e.ts_us,
                end_us: end,
                parent,
                op: u64::from(e.tid),
            });
        }
    }

    /// Self time of span `idx`: its duration minus what its children
    /// cover.
    fn self_us(&self, idx: usize) -> u64 {
        let r = &self.recs[idx];
        let children: Vec<(u64, u64)> = self
            .recs
            .iter()
            .filter(|c| c.parent == Some(idx))
            .map(|c| (c.start_us, c.end_us))
            .collect();
        self_time((r.start_us, r.end_us), &children)
    }

    /// Writes every span into a chrome trace, validates it, and returns
    /// the document with its event count.
    fn export(&self) -> Result<(String, usize), String> {
        let buf = TraceBuffer::new(self.recs.len());
        for r in &self.recs {
            buf.push(TraceEvent {
                name: r.name,
                cat: r.cat,
                ts_us: r.start_us,
                dur_us: r.end_us - r.start_us,
                tid: r.op as u32,
            });
        }
        if buf.dropped() > 0 {
            return Err(format!("{} spans dropped", buf.dropped()));
        }
        let doc = buf.to_chrome_json();
        let n = validate_chrome_trace(&doc)?;
        if n != self.recs.len() {
            return Err(format!("{n} events exported of {}", self.recs.len()));
        }
        Ok((doc, n))
    }
}

/// A telemetry sink that forwards to a registry and keeps every span the
/// program reports, exactly (the registry's histograms round to powers of
/// two).
struct PhaseSink {
    registry: Telemetry,
    spans: Mutex<Vec<TraceEvent>>,
}

impl Sink for PhaseSink {
    fn enabled(&self) -> bool {
        true
    }

    fn add(&self, id: CounterId, delta: u64) {
        self.registry.add(id, delta);
    }

    fn record(&self, id: HistogramId, value: u64) {
        self.registry.record(id, value);
    }

    fn span(
        &self,
        hist: HistogramId,
        name: &'static str,
        cat: &'static str,
        start_us: u64,
        dur_us: u64,
        tid: u32,
    ) {
        self.registry.record(hist, dur_us);
        self.spans
            .lock()
            .expect("phase sink poisoned")
            .push(TraceEvent {
                name,
                cat,
                ts_us: start_us,
                dur_us,
                tid,
            });
    }
}

/// The per-layer map as `(name, value)` pairs, plus how the traced run's
/// own checks went.
pub struct LayerMap {
    /// Metric name and value, in report order.
    pub metrics: Vec<(String, f64)>,
    /// Operations attempted across every pass and replay.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Problems that are not per-operation (trace export, replays).
    pub errors: Vec<String>,
}

impl LayerMap {
    fn put(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    fn dist(&mut self, name: &str, d: &Dist, centre: &str) {
        let c = if centre == "total" { d.total } else { d.p50 };
        self.put(format!("{name}.{centre}"), c);
        self.put(format!("{name}.tail"), d.tail);
        self.put(format!("{name}.tail_pct"), d.tail_pct as f64);
        self.put(format!("{name}.n"), d.n as f64);
    }

    /// Counts one checked pass of `ops` operations.
    fn checked(&mut self, ops: u64, c: &Checked) {
        self.attempted += ops;
        self.failed += c.failed;
    }

    /// Records a replay whose result must equal the pass it replays.
    fn replay(&mut self, what: &str, ops: u64, same: bool) {
        self.attempted += ops;
        if !same {
            self.failed += ops;
            self.errors
                .push(format!("{what} replay disagrees with the run"));
        }
    }
}

/// Times `f` over `reps` calls and returns nanoseconds per call.
fn ns_per_call(reps: usize, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        f();
    }
    t.elapsed().as_nanos() as f64 / reps as f64
}

/// Median wall time of `f` over three calls, milliseconds.
fn median_ms(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..3).map(|_| ns_per_call(1, &mut f) / 1e6).collect();
    median(&samples)
}

/// What the untraced/traced passes over one workload measured.
struct Passes {
    untraced_wall_us: Vec<f64>,
    traced_wall_us: Vec<f64>,
    /// Telemetry and output of the first traced pass.
    first_tel: SuiteTelemetry,
    first_out: Output,
    /// Exact daemon round durations across every traced pass.
    rounds_us: Vec<f64>,
}

/// Alternates untraced and traced passes over pool entry 0 of `pool`
/// until `budget` is spent (at least [`MIN_PAIRS`] pairs). The traced
/// pass is the same call inside a span, with the program's telemetry on
/// where the call accepts it.
fn passes(
    w: Workload,
    pool: &Pool,
    budget: Duration,
    spans: &mut Spans,
    map: &mut LayerMap,
) -> Passes {
    let ops = pool.ops(0);
    let round_clock = RoundClock {
        base: spans.clock,
        reads: Mutex::new(Vec::new()),
    };
    let mut first: Option<(SuiteTelemetry, Output)> = None;
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut rounds_us = Vec::new();
    let mut digest = None;
    let start = Instant::now();
    while untraced.len() < MIN_PAIRS || start.elapsed() < budget {
        let t = Instant::now();
        let out = pool.run(0, Hooks::default());
        untraced.push(t.elapsed().as_secs_f64() * 1e6);
        let c = pool.check(0, &out);
        map.checked(ops, &c);
        digest = digest.or(c.digest);

        let tel = SuiteTelemetry::new();
        let hooks = Hooks {
            telemetry: Some(&tel),
            clock: Some(&round_clock),
        };
        let t = Instant::now();
        let out = spans.span(w.name(), "workload", 0, |_| pool.run(0, hooks));
        traced.push(t.elapsed().as_secs_f64() * 1e6);
        let c = pool.check(0, &out);
        map.checked(ops, &c);
        if c.digest != digest {
            map.errors
                .push(format!("{}: tracing changed the output", w.name()));
        }
        match round_clock.take_rounds() {
            Some(r) => rounds_us.extend(r),
            None => map.errors.push("daemon clock reads do not pair".into()),
        }
        if first.is_none() {
            first = Some((tel, out));
        }
    }
    let (first_tel, first_out) = first.expect("at least one traced pass ran");
    Passes {
        untraced_wall_us: untraced,
        traced_wall_us: traced,
        first_tel,
        first_out,
        rounds_us,
    }
}

/// Runs the traced benchmark over every workload with `seed`, spending
/// about `seconds` on the untraced/traced pass pairs. Returns the map and
/// the validated chrome-trace document.
pub fn run_traced(seed: u64, seconds: u64) -> (LayerMap, String) {
    let clock = BenchClock::new();
    let mut spans = Spans::new(clock);
    let mut map = LayerMap {
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };
    let budget = Duration::from_secs_f64(seconds as f64 / Workload::ALL.len() as f64);
    let pools: Vec<Pool> = Workload::ALL
        .iter()
        .map(|&w| {
            let p = Pool::generate(w, seed, &TRACE);
            p.warm_up();
            p
        })
        .collect();
    let [suite_pool, daemon_pool, campus_pool, wave_pool] = &pools[..] else {
        unreachable!("four workloads")
    };

    let mut overhead = Vec::new();
    let mut allocs = Vec::new();
    let mut all_passes = Vec::new();
    for (&w, pool) in Workload::ALL.iter().zip(&pools) {
        let p = passes(w, pool, budget, &mut spans, &mut map);
        overhead.push((
            w,
            1.0 - median(&p.untraced_wall_us) / median(&p.traced_wall_us),
        ));
        // The passes above warmed every cache and pool; count one more.
        let (out, n) = count_allocs(|| pool.run(0, Hooks::default()));
        map.checked(pool.ops(0), &pool.check(0, &out));
        allocs.push((w, n as f64 / pool.ops(0) as f64));
        all_passes.push(p);
    }
    let [suite_p, daemon_p, campus_p, wave_p] = &all_passes[..] else {
        unreachable!("four workloads")
    };

    engine_and_runner(suite_pool, suite_p, &mut spans, &mut map);
    supervisor_and_campus(campus_pool, campus_p, &mut spans, &mut map);
    daemon_and_exchange(daemon_pool, daemon_p, &mut spans, &mut map);
    validation_and_waveform(wave_pool, wave_p, &mut spans, &mut map);
    kernels(suite_pool, daemon_pool, seed, &mut spans, &mut map);

    for (w, v) in overhead {
        map.put(format!("obs.overhead_frac.{}", w.name()), v);
    }
    for (w, v) in allocs {
        map.put(format!("alloc.warm_per_op.{}", w.name()), v);
    }
    let trace_json = match spans.export() {
        Ok((doc, n)) => {
            map.put("trace.events", n as f64);
            doc
        }
        Err(e) => {
            map.errors.push(format!("chrome trace: {e}"));
            map.put("trace.events", 0.0);
            String::new()
        }
    };
    map.put(
        "checks.failed_frac",
        map.failed as f64 / map.attempted.max(1) as f64,
    );
    (map, trace_json)
}

/// `copa-core` engine and the `copa-sim` runner: a serial replay of the
/// suite, one `Engine::run` per topology with `EngineObs` attached.
fn engine_and_runner(pool: &Pool, p: &Passes, spans: &mut Spans, map: &mut LayerMap) {
    let Pool::Suite { params, suite } = pool else {
        unreachable!("suite pool")
    };
    let mut registry = Telemetry::new();
    let metrics = EngineMetrics::register(&mut registry);
    let sink = PhaseSink {
        registry,
        spans: Mutex::new(Vec::new()),
    };
    let clock = spans.clock;
    let mut ws = EngineWorkspace::new();
    let _ = Engine::new(*params).run(&mut EvalRequest::topology(&suite[0]).workspace(&mut ws));
    let mut run_spans = Vec::with_capacity(suite.len());
    let mut evals: Vec<Evaluation> = Vec::with_capacity(suite.len());
    let mut ok = true;
    for (idx, t) in suite.iter().enumerate() {
        // The runner's per-index seed derivation, so the replay evaluates
        // exactly what `evaluate_parallel` did.
        let mut pi = *params;
        pi.seed = params
            .seed
            .wrapping_add(idx as u64)
            .wrapping_mul(0x9E37_79B9);
        let engine = Engine::new(pi);
        let obs = EngineObs::new(&sink, &clock, metrics).tid(idx as u32);
        let span_idx = spans.recs.len();
        let r = spans.span("engine.run", "copa-core", idx as u64, |_| {
            engine.run(&mut EvalRequest::topology(t).workspace(&mut ws).observe(obs))
        });
        run_spans.push(span_idx);
        match r {
            Ok(e) => evals.push(e),
            Err(_) => ok = false,
        }
    }
    let same = ok
        && matches!(&p.first_out, Output::Suite(Ok(run)) if suite_json(run) == suite_json(&evals));
    map.replay("engine", suite.len() as u64, same);

    let phases = std::mem::take(&mut *sink.spans.lock().expect("phase sink poisoned"));
    spans.adopt(&phases, &run_spans);
    let run_us: Vec<f64> = run_spans.iter().map(|&i| spans.dur(i)).collect();
    map.put(
        "runner.busy_frac",
        busy_frac(run_us.iter().sum(), THREADS, median(&p.untraced_wall_us)),
    );
    map.dist("engine.run_us", &Dist::of(&run_us), "p50");
    for phase in ["csi_prep", "precoding", "allocation", "sinr"] {
        let d: Vec<f64> = phases
            .iter()
            .filter(|e| e.name == phase)
            .map(|e| e.dur_us as f64)
            .collect();
        if d.is_empty() {
            map.errors.push(format!("no {phase} spans"));
            map.dist(&format!("engine.{phase}_us"), &Dist::of(&[0.0]), "total");
        } else {
            map.dist(&format!("engine.{phase}_us"), &Dist::of(&d), "total");
        }
    }
    let self_total: u64 = run_spans.iter().map(|&i| spans.self_us(i)).sum();
    map.put("engine.self_us.total", self_total as f64);
    map.put(
        "engine.evaluations",
        sink.registry.counter_value(metrics.evaluations) as f64,
    );
}

/// `copa-sim` supervisor and campus planning, and `copa-core` clustering.
fn supervisor_and_campus(pool: &Pool, p: &Passes, spans: &mut Spans, map: &mut LayerMap) {
    let Pool::Campus { campuses, .. } = pool else {
        unreachable!("campus pool")
    };
    let cp = &campuses[0];
    let tel = &p.first_tel;
    let reg = tel.registry();
    let attempt_us = reg.histogram_ref(tel.suite.attempt_us).sum() as f64;
    map.put(
        "supervisor.busy_frac",
        busy_frac(attempt_us, THREADS, p.traced_wall_us[0]),
    );
    for (name, id) in [
        ("supervisor.retries", tel.suite.requeues),
        ("supervisor.deadline_misses", tel.suite.deadline_misses),
        ("supervisor.panicked", tel.suite.panicked),
        ("supervisor.quarantined", tel.suite.quarantined),
    ] {
        map.put(name, reg.counter_value(id) as f64);
    }
    let plan_ms = spans.span("campus.plan", "copa-sim", 0, |_| {
        median_ms(|| {
            black_box(plan_campus(cp));
        })
    });
    map.put("campus.plan_ms", plan_ms);

    let campus = cp.sampler.sample(cp.campus_seed, cp.cells, cp.config);
    let graph = InterferenceGraph::from_campus(&campus, cp.edge_threshold_db);
    let graph_ms = spans.span("cluster.graph", "copa-core", 0, |_| {
        median_ms(|| {
            black_box(InterferenceGraph::from_campus(
                &campus,
                cp.edge_threshold_db,
            ));
        })
    });
    let partition_ms = spans.span("cluster.partition", "copa-core", 0, |_| {
        median_ms(|| {
            black_box(cluster_greedy(&graph, cp.max_cluster_size));
        })
    });
    let coloring_ms = spans.span("cluster.coloring", "copa-core", 0, |_| {
        median_ms(|| {
            black_box(greedy_coloring(&graph));
        })
    });
    map.put("cluster.graph_ms", graph_ms);
    map.put("cluster.partition_ms", partition_ms);
    map.put("cluster.coloring_ms", coloring_ms);
}

/// `copa-sim` daemon counts and rounds, `copa-core` ITS exchanges, and
/// the `its.*` counters the daemon's telemetry exported.
fn daemon_and_exchange(pool: &Pool, p: &Passes, spans: &mut Spans, map: &mut LayerMap) {
    let Pool::Daemon { inputs, .. } = pool else {
        unreachable!("daemon pool")
    };
    map.dist("daemon.round_us", &Dist::of(&p.rounds_us), "p50");
    match &p.first_out {
        Output::Daemon(Ok(r)) => {
            let cell_epochs = (r.epochs * r.cells as u64) as f64;
            map.put("daemon.evals", r.evals as f64);
            map.put("daemon.exchanges", r.exchanges as f64);
            map.put("daemon.evals_per_cell_epoch", r.evals as f64 / cell_epochs);
            map.put(
                "daemon.exchanges_per_cell_epoch",
                r.exchanges as f64 / cell_epochs,
            );
            map.put("daemon.degraded_cell_epochs", r.degraded_cell_epochs as f64);
            map.put("daemon.recoveries", r.recoveries as f64);
            map.put("daemon.churn_events", r.churn_events as f64);
        }
        _ => map.errors.push("traced daemon run failed".into()),
    }
    let tel = &p.first_tel;
    let reg = tel.registry();
    let sent = reg.counter_value(tel.exchange.frames_sent);
    let retried = reg.counter_value(tel.exchange.frames_retried);
    map.put("exchange.frames_sent", sent as f64);
    map.put("exchange.retry_frac", retried as f64 / sent.max(1) as f64);
    map.put(
        "exchange.degraded",
        reg.counter_value(tel.exchange.exchanges_degraded) as f64,
    );

    let d = &inputs[0];
    let coord = Coordinator::new(Engine::new(d.params));
    let plan = FaultPlan::lossy(d.params.seed, DAEMON_LOSS);
    let mut us = Vec::with_capacity(EXCHANGES as usize);
    for k in 0..EXCHANGES {
        let t = &d.suite[k as usize % d.suite.len()];
        let idx = spans.recs.len();
        let r = spans.span("coordinator.exchange", "copa-core", k, |_| {
            coord.run_exchange_with_faults(t, 0, &plan, k)
        });
        us.push(spans.dur(idx));
        map.attempted += 1;
        if r.is_err() {
            map.failed += 1;
        }
    }
    map.dist("coordinator.exchange_us", &Dist::of(&us), "p50");
}

/// `copa-sim` validation and `copa-phy` waveform: a serial replay of the
/// grid, one span per `WaveformSim::run_frame`.
fn validation_and_waveform(pool: &Pool, p: &Passes, spans: &mut Spans, map: &mut LayerMap) {
    let Pool::Wave(cfg) = pool else {
        unreachable!("wave pool")
    };
    let Output::Wave(points) = &p.first_out else {
        map.errors.push("traced waveform grid failed".into());
        return;
    };
    let mut frame_us = Vec::new();
    let mut same = points.len() == cfg.mcs_indices.len() * cfg.snr_db.len();
    let mut bit_errors = 0u64;
    let grid = cfg
        .mcs_indices
        .iter()
        .flat_map(|&m| cfg.snr_db.iter().map(move |&s| (m, s)));
    for (idx, ((m, s), point)) in grid.zip(points).enumerate() {
        // The grid's per-point seed derivation.
        let seed = cfg.seed.wrapping_add(idx as u64).wrapping_mul(0x9E37_79B9);
        let mut sim = WaveformSim::new(
            Mcs::TABLE[m],
            s,
            cfg.symbols_per_frame,
            cfg.profile,
            cfg.impairments,
            seed,
        );
        let mut errs = 0;
        let mut frame_errors = 0;
        for _ in 0..cfg.frames {
            let i = spans.recs.len();
            let o = spans.span("waveform.run_frame", "copa-phy", idx as u64, |_| {
                sim.run_frame()
            });
            frame_us.push(spans.dur(i));
            errs += o.bit_errors;
            frame_errors += usize::from(o.frame_error);
        }
        same &= errs == point.bit_errors && frame_errors == point.frame_errors;
        bit_errors += errs as u64;
    }
    map.replay("waveform", frame_us.len() as u64, same);
    map.put(
        "validation.busy_frac",
        busy_frac(frame_us.iter().sum(), THREADS, median(&p.untraced_wall_us)),
    );
    map.dist("waveform.frame_us", &Dist::of(&frame_us), "p50");
    map.put("waveform.frames", frame_us.len() as f64);
    map.put("waveform.bit_errors", bit_errors as f64);
}

/// Per-call costs of the kernels the engine and daemon sit on: precoding,
/// rate selection, SVD/FFT, channel drift and sampling, the CSI codec.
fn kernels(
    suite_pool: &Pool,
    daemon_pool: &Pool,
    seed: u64,
    spans: &mut Spans,
    map: &mut LayerMap,
) {
    let (Pool::Suite { params, suite }, Pool::Daemon { inputs, .. }) = (suite_pool, daemon_pool)
    else {
        unreachable!("suite and daemon pools")
    };
    let per = suite.len() / SUITE_CONFIGS.len();
    let four_by_two = &suite[..per];

    // copa-precoding, on each 4x2 topology's estimated CSI; the SINR grid
    // rows feed copa-phy rate selection below.
    let mut ws = PrecodeScratch::new();
    let mut sws = SinrScratch::new();
    let (mut bf0, mut bf1, mut null) = (
        LinkPrecoding::empty(),
        LinkPrecoding::empty(),
        LinkPrecoding::empty(),
    );
    let mut grid = Vec::new();
    let mut rows: Vec<Vec<f64>> = Vec::new();
    let (mut bf_ns, mut null_ns, mut sinr_ns) = (Vec::new(), Vec::new(), Vec::new());
    for (idx, t) in four_by_two.iter().enumerate() {
        let prep = prepare(t, params);
        let streams = t.config.max_streams();
        spans.span("precoding", "copa-precoding", idx as u64, |_| {
            beamform_with(&prep.est[1][1], streams, &mut ws, &mut bf1);
            bf_ns.push(ns_per_call(REPS, || {
                beamform_with(&prep.est[0][0], streams, &mut ws, &mut bf0)
            }));
            null_ns.push(ns_per_call(REPS, || {
                black_box(null_toward_with(
                    &prep.est[0][0],
                    &prep.est[0][1],
                    streams,
                    &mut ws,
                    &mut null,
                ));
            }));
            let budget = t.tx_budget_mw();
            let powers = TxPowers::equal(streams, budget);
            let own = TxSide {
                channel: &t.links[0][0],
                precoding: &bf0,
                powers: &powers,
                budget_mw: budget,
            };
            let int = TxSide {
                channel: &t.links[1][0],
                precoding: &bf1,
                powers: &powers,
                budget_mw: budget,
            };
            let noise = t.noise_per_subcarrier_mw();
            sinr_ns.push(ns_per_call(REPS, || {
                mmse_sinr_grid_with(
                    &own,
                    Some(&int),
                    noise,
                    &params.impairments,
                    &mut sws,
                    &mut grid,
                )
            }));
        });
        rows.extend(grid.iter().cloned());
    }
    map.put("precoding.beamform_us.p50", median(&bf_ns) / 1e3);
    map.put("precoding.null_toward_us.p50", median(&null_ns) / 1e3);
    map.put("precoding.sinr_grid_us.p50", median(&sinr_ns) / 1e3);

    // copa-phy rate selection on those SINR grids.
    let model = params.model;
    let eff = 0.8;
    let (best_ns, flat_ns) = spans.span("phy.rate_selection", "copa-phy", 0, |_| {
        let best: Vec<f64> = rows
            .iter()
            .map(|r| {
                ns_per_call(REPS, || {
                    let _ = black_box(model.best(r, eff));
                })
            })
            .collect();
        let flat: Vec<f64> = rows
            .iter()
            .map(|r| {
                let g = r.iter().sum::<f64>() / r.len() as f64;
                ns_per_call(REPS, || {
                    let _ = black_box(model.best_flat(g, r.len(), eff));
                })
            })
            .collect();
        (median(&best), median(&flat))
    });
    map.put("phy.rate_best_ns", best_ns);
    map.put("phy.rate_best_flat_ns", flat_ns);

    // copa-num: SVD per channel shape the suite draws, and a 64-point FFT.
    let mut scratch = SvdScratch::default();
    let mut out = Svd::default();
    for k in 0..SUITE_CONFIGS.len() {
        let block = &suite[k * per..(k + 1) * per];
        let first = block[0].links[0][0].at(0);
        let shape = format!("{}x{}", first.rows(), first.cols());
        let samples: Vec<f64> = spans.span("num.svd", "copa-num", k as u64, |_| {
            (0..REPS)
                .map(|_| {
                    let mut calls = 0;
                    let t = Instant::now();
                    for top in block {
                        for m in top.links[0][0].iter() {
                            svd_into(m, &mut scratch, &mut out);
                            calls += 1;
                        }
                    }
                    t.elapsed().as_nanos() as f64 / calls as f64
                })
                .collect()
        });
        map.put(format!("num.svd_ns.{shape}"), median(&samples));
    }
    let mut rng = SimRng::seed_from(seed);
    let inputs64: Vec<Vec<C64>> = (0..64)
        .map(|_| (0..64).map(|_| rng.randc()).collect())
        .collect();
    let mut spectrum = Vec::new();
    let fft_ns = spans.span("num.fft64", "copa-num", 0, |_| {
        let samples: Vec<f64> = (0..REPS)
            .map(|_| {
                let t = Instant::now();
                for x in &inputs64 {
                    fft_into(x, &mut spectrum);
                    black_box(&spectrum);
                }
                t.elapsed().as_nanos() as f64 / inputs64.len() as f64
            })
            .collect();
        median(&samples)
    });
    map.put("num.fft64_ns", fft_ns);

    // copa-channel: one coherence-block drift step per daemon cell, and
    // topology sampling (the suite's set-up cost).
    let d = &inputs[0];
    let drift = ChannelDrift::new(
        d.params.seed,
        ChannelDrift::RHO_HALF_LIFE,
        MultipathProfile::default(),
    );
    let mut chs = ChannelScratch::new();
    let mut advance_us = Vec::new();
    for (cell, t) in d.suite.iter().enumerate() {
        let mut truth = t.clone();
        spans.span(
            "channel.advance_topology",
            "copa-channel",
            cell as u64,
            |_| {
                for block in 0..REPS as u64 {
                    advance_us.push(
                        ns_per_call(1, || {
                            drift.advance_topology(
                                cell as u64,
                                block,
                                block + 1,
                                &mut truth,
                                &mut chs,
                            )
                        }) / 1e3,
                    );
                }
            },
        );
    }
    map.put("channel.advance_topology_us", median(&advance_us));
    let sampler = TopologySampler::default();
    let sample_us: Vec<f64> = spans.span("channel.topology_sample", "copa-channel", 0, |_| {
        SUITE_CONFIGS
            .iter()
            .map(|&cfg: &AntennaConfig| {
                ns_per_call(1, || drop(black_box(sampler.suite(seed, per, cfg)))) / 1e3 / per as f64
            })
            .collect()
    });
    map.put("channel.topology_sample_us", median(&sample_us));

    // copa-mac: the CSI codec on every daemon link.
    let (mut comp_us, mut decomp_us) = (Vec::new(), Vec::new());
    let (mut bytes, mut raw) = (0usize, 0usize);
    spans.span("mac.csi_codec", "copa-mac", 0, |_| {
        for t in &d.suite {
            for ch in t.links.iter().flatten() {
                let packed = compress_csi(ch);
                comp_us.push(ns_per_call(REPS, || drop(black_box(compress_csi(ch)))) / 1e3);
                decomp_us
                    .push(ns_per_call(REPS, || drop(black_box(decompress_csi(&packed)))) / 1e3);
                bytes += packed.len();
                raw += raw_csi_bytes(ch.rx(), ch.tx());
            }
        }
    });
    map.put("mac.compress_csi_us", median(&comp_us));
    map.put("mac.decompress_csi_us", median(&decomp_us));
    map.put("mac.csi_bytes_ratio", bytes as f64 / raw as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_adopt_program_spans() {
        let mut spans = Spans::new(BenchClock::new());
        let outer = spans.span("outer", "t", 7, |s| {
            s.span("inner", "t", 7, |_| ());
            s.recs.len() - 1
        });
        assert_eq!(outer, 1);
        assert_eq!(spans.recs[1].parent, Some(0));
        assert_eq!(spans.recs[0].parent, None);
        let (s, e) = (spans.recs[0].start_us, spans.recs[0].end_us);
        spans.adopt(
            &[TraceEvent {
                name: "phase",
                cat: "engine",
                ts_us: s,
                dur_us: e - s,
                tid: 7,
            }],
            &[0],
        );
        assert_eq!(spans.recs[2].parent, Some(0));
        assert_eq!(spans.self_us(0), 0, "the adopted child covers the span");
        let (doc, n) = spans.export().expect("valid trace");
        assert_eq!(n, 3);
        assert!(doc.contains("\"traceEvents\""));
    }

    #[test]
    fn round_clock_pairs_reads() {
        let c = RoundClock {
            base: BenchClock::new(),
            reads: Mutex::new(vec![10, 25, 30, 70]),
        };
        assert_eq!(c.take_rounds(), Some(vec![15.0, 40.0]));
        assert_eq!(c.take_rounds(), Some(vec![]));
        c.reads.lock().unwrap().push(1);
        assert_eq!(c.take_rounds(), None);
    }
}
