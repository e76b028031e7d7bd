//! Parallel evaluation of topology suites.
//!
//! Every CDF in the paper is "across topologies", so the basic operation is
//! mapping the strategy engine over a suite. Evaluations are independent,
//! so they run on [`par_map_indexed`], the crate's work-stealing pool of
//! std scoped threads.

use copa_channel::Topology;
use copa_core::{CopaError, Engine, EngineWorkspace, EvalRequest, Evaluation, ScenarioParams};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The per-topology params seed: distinct and deterministic per suite
/// index, so results are byte-identical regardless of thread count or which
/// worker claims which topology. Shared with the degraded-suite runner so
/// zero-fault degraded runs are bit-identical to plain evaluation.
pub(crate) fn seed_for(params: &ScenarioParams, idx: usize) -> u64 {
    params
        .seed
        .wrapping_add(idx as u64)
        .wrapping_mul(0x9E37_79B9)
}

/// Deterministic parallel map over the indices `0..n`, results in index
/// order.
///
/// `threads` scoped workers (at most `n`; none for `n == 0`) pull indices
/// from a shared atomic counter, so a few slow items cannot idle the other
/// workers the way static chunking could. Each worker builds its own state
/// with `init_state` (an engine workspace, say) and reuses it across every
/// index it claims. Whenever `f(state, idx)` depends only on `idx` -- not on
/// which worker ran it or what that worker ran before -- the output is
/// identical for any thread count.
///
/// This is the pool of the plain suite runner, the degraded-suite runner
/// and the waveform grid. Two pools in this crate deliberately stay apart:
/// the daemon steps contiguous `&mut` chunks of long-lived cells in place,
/// and the supervisor interleaves a clocked retry queue with fresh indices;
/// neither is a map from an index to a value.
pub(crate) fn par_map_indexed<S, T: Send>(
    n: usize,
    threads: usize,
    init_state: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize) -> T + Sync,
) -> Vec<T> {
    if n == 0 {
        return Vec::new();
    }
    let workers = threads.max(1).min(n);
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (next, init_state, f) = (&next, &init_state, &f);
                scope.spawn(move || {
                    let mut state = init_state();
                    let mut done: Vec<(usize, T)> = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= n {
                            break;
                        }
                        done.push((idx, f(&mut state, idx)));
                    }
                    done
                })
            })
            .collect();
        for h in handles {
            // invariant: callers' `f` returns values rather than panicking
            for (idx, v) in h.join().expect("worker panicked") {
                slots[idx] = Some(v);
            }
        }
    });

    slots
        .into_iter()
        .map(|v| {
            // invariant: the atomic counter hands out every index exactly once
            v.expect("every index was claimed exactly once")
        })
        .collect()
}

/// Evaluates `suite` in parallel with `threads` workers (results in suite
/// order), propagating the first failure (in suite order) instead of
/// panicking. A failed topology does not poison the pool: every worker
/// records its `Result` and keeps pulling indices. Spawns at most
/// `suite.len()` workers; an empty suite returns `Ok(vec![])` without
/// spawning anything.
pub fn try_evaluate_parallel(
    params: &ScenarioParams,
    suite: &[Topology],
    threads: usize,
) -> Result<Vec<Evaluation>, CopaError> {
    // One reusable workspace per worker: buffers grow to the largest
    // topology shape, then evaluation is alloc-free.
    par_map_indexed(suite.len(), threads, EngineWorkspace::new, |ws, idx| {
        let mut p = *params;
        p.seed = seed_for(params, idx);
        Engine::new(p).run(&mut EvalRequest::topology(&suite[idx]).workspace(ws))
    })
    .into_iter()
    .collect()
}

/// Infallible convenience wrapper over [`try_evaluate_parallel`] for suites
/// of engine-prepared topologies (which cannot fail validation).
pub fn evaluate_parallel(
    params: &ScenarioParams,
    suite: &[Topology],
    threads: usize,
) -> Vec<Evaluation> {
    try_evaluate_parallel(params, suite, threads).expect("infallible: engine-prepared CSI")
    // allowlisted legacy wrapper
}

/// Sequential fallback used by tests and tiny suites.
pub fn evaluate_serial(params: &ScenarioParams, suite: &[Topology]) -> Vec<Evaluation> {
    evaluate_parallel(params, suite, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use copa_channel::{AntennaConfig, TopologySampler};

    #[test]
    fn parallel_matches_serial() {
        let suite = TopologySampler::default().suite(60, 4, AntennaConfig::SINGLE);
        let params = ScenarioParams::default();
        let serial = evaluate_serial(&params, &suite);
        let parallel = evaluate_parallel(&params, &suite, 4);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.copa.aggregate_bps(), b.copa.aggregate_bps());
            assert_eq!(a.csma.aggregate_bps(), b.csma.aggregate_bps());
        }
    }

    #[test]
    fn more_threads_than_topologies() {
        // Requesting far more workers than there is work must not panic,
        // must not leave holes, and must match the serial result exactly.
        let suite = TopologySampler::default().suite(62, 3, AntennaConfig::SINGLE);
        let params = ScenarioParams::default();
        let serial = evaluate_serial(&params, &suite);
        let wide = evaluate_parallel(&params, &suite, 64);
        assert_eq!(wide.len(), suite.len());
        for (a, b) in serial.iter().zip(&wide) {
            assert_eq!(
                a.copa.aggregate_bps().to_bits(),
                b.copa.aggregate_bps().to_bits()
            );
        }
    }

    #[test]
    fn empty_suite_is_fine() {
        let params = ScenarioParams::default();
        for threads in [1, 2, 8] {
            assert!(evaluate_parallel(&params, &[], threads).is_empty());
        }
    }

    #[test]
    fn par_map_indexed_keeps_index_order_for_any_thread_count() {
        for n in [0usize, 1, 5, 64] {
            for threads in [0, 1, 2, 8, 100] {
                // A reused per-worker scratch buffer, as an engine
                // workspace would be: the output must not depend on it.
                let out = par_map_indexed(n, threads, Vec::new, |buf: &mut Vec<usize>, idx| {
                    buf.clear();
                    buf.extend(0..=idx);
                    buf.iter().sum::<usize>()
                });
                let expect: Vec<usize> = (0..n).map(|i| i * (i + 1) / 2).collect();
                assert_eq!(out, expect, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn per_topology_seeds_differ() {
        // Two identical topologies at different indices should still get
        // different CSI noise (different seeds).
        let one = TopologySampler::default().suite(61, 1, AntennaConfig::SINGLE);
        let twice = vec![one[0].clone(), one[0].clone()];
        let evals = evaluate_serial(&ScenarioParams::default(), &twice);
        // Outcomes differ slightly because the estimation noise differs.
        let a = evals[0].copa.aggregate_bps();
        let b = evals[1].copa.aggregate_bps();
        assert!(a > 0.0 && b > 0.0);
        assert_ne!(a, b);
    }
}
