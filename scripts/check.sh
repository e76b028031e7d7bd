#!/usr/bin/env bash
# Tier-1 verification gate for the COPA workspace.
#
# The workspace is hermetic: every dependency is a `path = ...` crate
# inside this repo, so the whole gate runs with `--offline` and must
# succeed on a machine with no crates.io access at all. This script is
# what CI (and the PR driver) runs; keep it green.
#
# Usage: scripts/check.sh [--bench-smoke] [--faults-smoke] [--resume-smoke]
#                         [--obs-smoke] [--campus-smoke] [--daemon-smoke]
#                         [--chaos-smoke] [--waveform-smoke]
#   --bench-smoke   additionally run the hotpath benchmark in --quick mode
#                   and leave its JSON lines in BENCH_hotpath.json; every
#                   warmed-path alloc report must read exactly 0 (the bench
#                   itself also hard-asserts this and the >= 540 topo/s
#                   throughput floor).
#   --faults-smoke  additionally run one degraded-suite episode offline
#                   (240 topologies, 20% ITS frame loss) and require CSMA
#                   fallbacks to be reported without any panic.
#   --resume-smoke  additionally kill a journaled suite at 50% and resume
#                   it (examples/resumable_suite.rs), requiring the resumed
#                   JSON to be byte-identical, then run the hotpath bench's
#                   zero-allocation supervision guard.
#   --obs-smoke     additionally run the observed standard suite
#                   (examples/telemetry_suite.rs), requiring the merged
#                   registry JSON and chrome-trace export to validate, then
#                   run the hotpath bench's zero-allocation telemetry
#                   guards.
#   --campus-smoke  additionally run the dense-campus suite
#                   (examples/dense_campus.rs): a 50-AP clustered run with
#                   telemetry validated and a journaled 500-AP campus
#                   byte-identical across 1/2/8 threads, then run the
#                   hotpath bench's pair-cluster zero-allocation guard.
#   --daemon-smoke  additionally run the daemon soak
#                   (examples/daemon_soak.rs): ten simulated minutes of
#                   the event-driven coordination loop with bounded
#                   journal growth, byte-identical kill-and-resume, and
#                   zero heap allocations across warmed epochs.
#   --chaos-smoke   additionally run the chaos soak
#                   (examples/daemon_soak.rs --chaos): the same ten
#                   simulated minutes at 20% ITS frame loss with a seeded
#                   membership process — sessions degrade to CSMA and all
#                   recover, churn tears down / cold-starts sessions,
#                   kill-and-resume stays byte-identical, and warmed
#                   epochs between exchanges still allocate nothing.
#   --waveform-smoke additionally run the waveform validation example
#                   (examples/waveform_validation.rs): the Monte-Carlo
#                   IFFT/CP/sync/Viterbi grid re-parsed from its JSON,
#                   byte-identical across thread counts, measured FER
#                   within the stated band of the analytic union bound,
#                   and zero allocations across warmed frames.
#
# --bench-smoke, --resume-smoke, --obs-smoke and --campus-smoke all gate on
# lines of the hotpath bench; it runs at most once per invocation and every
# one of those guards greps the same output.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH_SMOKE=0
FAULTS_SMOKE=0
RESUME_SMOKE=0
OBS_SMOKE=0
CAMPUS_SMOKE=0
DAEMON_SMOKE=0
CHAOS_SMOKE=0
WAVEFORM_SMOKE=0
for arg in "$@"; do
    case "$arg" in
        --bench-smoke) BENCH_SMOKE=1 ;;
        --faults-smoke) FAULTS_SMOKE=1 ;;
        --resume-smoke) RESUME_SMOKE=1 ;;
        --obs-smoke) OBS_SMOKE=1 ;;
        --campus-smoke) CAMPUS_SMOKE=1 ;;
        --daemon-smoke) DAEMON_SMOKE=1 ;;
        --chaos-smoke) CHAOS_SMOKE=1 ;;
        --waveform-smoke) WAVEFORM_SMOKE=1 ;;
        *) echo "unknown argument: $arg" >&2; exit 2 ;;
    esac
done

# Runs the hotpath bench in --quick mode once and keeps its output in
# HOTPATH_OUT; later calls reuse it.
HOTPATH_OUT=""
hotpath_quick() {
    if [ -z "$HOTPATH_OUT" ]; then
        HOTPATH_OUT=$(cargo bench --offline -p copa-bench --bench hotpath -- --quick)
    fi
}

# Size report (no gate): the simplicity aim tracks these two numbers.
echo "==> info: $(find crates -name '*.rs' | xargs cat | wc -l | tr -d ' ') lines of Rust under crates/," \
     "$(grep -rhE --include='*.rs' '\bpub fn\b' crates | wc -l | tr -d ' ') pub fn"

echo "==> 1/7 hermeticity: no registry dependencies in any Cargo.toml"
bad=0
while IFS= read -r toml; do
    # Reject dotted dependency tables ([dependencies.foo]) outright --
    # the workspace convention is inline `foo = { path = "..." }`.
    if grep -nE '^\[(dev-|build-)?dependencies\.' "$toml"; then
        echo "error: $toml uses a dotted dependency table (use inline path deps)" >&2
        bad=1
    fi
    # Inside [dependencies]/[dev-dependencies]/[build-dependencies]
    # sections, every entry must carry `path` or `workspace = true`
    # (and [workspace.dependencies] entries must carry `path`).
    if ! awk -v toml="$toml" '
        /^\[/ {
            dep = ($0 ~ /^\[(workspace\.)?(dev-|build-)?dependencies\]/)
            next
        }
        dep && NF && $0 !~ /^[[:space:]]*#/ {
            if ($0 !~ /path[[:space:]]*=/ && $0 !~ /workspace[[:space:]]*=[[:space:]]*true/) {
                printf "error: %s:%d: non-path dependency: %s\n", toml, NR, $0 > "/dev/stderr"
                exit 1
            }
        }
    ' "$toml"; then
        bad=1
    fi
done < <(find . -name Cargo.toml -not -path './target/*')
if [ "$bad" -ne 0 ]; then
    echo "hermeticity check FAILED: external dependencies are not allowed" >&2
    exit 1
fi
echo "    ok: all dependencies are in-repo path deps"

echo "==> 2/7 alloc-free kernel regions: no Vec::new / vec! reintroduced"
# Per-subcarrier kernels are bracketed by "alloc-free: begin <name>" /
# "alloc-free: end <name>" markers. Inside those regions, constructs that
# allocate per call are banned; scratch buffers must come from the caller.
if ! awk '
    /alloc-free: begin/ { inside = 1; region = $0 }
    inside && !/alloc-free:/ && !/^[[:space:]]*\/\// {
        if ($0 ~ /Vec::new\(|vec!|\.to_vec\(|with_capacity\(|Vec::from|CMat::zeros\(|\.clone\(\)/) {
            printf "error: %s:%d: allocation in alloc-free region (%s): %s\n", \
                FILENAME, FNR, region, $0 > "/dev/stderr"
            bad = 1
        }
    }
    /alloc-free: end/ { inside = 0 }
    END { exit bad }
' $(grep -rl 'alloc-free: begin' crates --include='*.rs'); then
    echo "alloc-free gate FAILED: per-subcarrier kernels must not allocate" >&2
    exit 1
fi
echo "    ok: $(grep -rh 'alloc-free: begin' crates --include='*.rs' | wc -l | tr -d ' ') marked kernel regions are allocation-free"

echo "==> 3/7 panic gate: no new unwrap()/panic! in library, example or test code"
# Library (non-test) code must not panic on user-reachable paths: fallible
# APIs return copa_core::CopaError, internal invariants use expect /
# debug_assert! with an "// invariant:" comment. The few deliberate panic
# sites carry an "// allowlisted:" comment and a file:count budget in
# scripts/panic_allowlist.txt; this gate fails when any crates/*/src,
# examples/ or tests/ file exceeds its budget (modules after #[cfg(test)]
# are exempt, as are #[test] assert! macros -- only unwrap()/panic! count).
panic_bad=0
while IFS= read -r f; do
    n=$(awk '/#\[cfg\(test\)\]/ { exit } { print }' "$f" \
        | grep -c 'unwrap(\|panic!' || true)
    budget=$( (grep "^$f:" scripts/panic_allowlist.txt || true) | tail -n1 | awk -F: '{print $NF}')
    budget=${budget:-0}
    if [ "$n" -gt "$budget" ]; then
        echo "error: $f: $n unwrap()/panic! site(s) in non-test code," \
             "budget $budget (scripts/panic_allowlist.txt)" >&2
        panic_bad=1
    fi
done < <({ find crates -path '*/src/*' -name '*.rs'; find examples tests -name '*.rs'; } | sort)
while IFS= read -r entry; do
    path=${entry%:*}
    if [ ! -f "$path" ]; then
        echo "error: stale allowlist entry: $path" >&2
        panic_bad=1
    fi
done < <(grep -v '^\s*#' scripts/panic_allowlist.txt | grep -v '^\s*$')
if [ "$panic_bad" -ne 0 ]; then
    echo "panic gate FAILED: convert to CopaError or budget the site in scripts/panic_allowlist.txt" >&2
    exit 1
fi
echo "    ok: library crates stay within the panic allowlist"

echo "==> 4/7 cargo fmt --check"
cargo fmt --check

echo "==> 5/7 cargo build --release --offline (workspace, benches included)"
cargo build --release --offline --workspace --benches

echo "==> 6/7 cargo test -q --offline (workspace)"
cargo test -q --offline --workspace

echo "==> 7/7 deprecation gate: no in-repo callers of deprecated APIs"
# The workspace currently has no #[deprecated] items. Any future shim
# exists only for downstream compatibility: in-repo code must use its
# replacement, and only the shim's own unit tests may opt out with
# #[allow(deprecated)]. A separate target dir keeps -D deprecated from
# thrashing the main build cache.
RUSTFLAGS="-D deprecated" CARGO_TARGET_DIR=target/deprecated \
    cargo check -q --offline --workspace --all-targets || {
    echo "deprecation gate FAILED: migrate off deprecated APIs (or #[allow(deprecated)] inside the shim's own tests)" >&2
    exit 1
}
echo "    ok: no deprecated-API uses outside allowed shims"

if [ "$BENCH_SMOKE" -eq 1 ]; then
    echo "==> bench smoke: hotpath --quick (JSON -> BENCH_hotpath.json)"
    hotpath_quick
    printf '%s\n' "$HOTPATH_OUT" | tee BENCH_hotpath.json
    grep -q '"name"' BENCH_hotpath.json || {
        echo "bench smoke FAILED: no JSON lines in BENCH_hotpath.json" >&2
        exit 1
    }
    # Hard alloc gate: every warmed-path alloc report must read exactly 0.
    # (The bench asserts this too; re-checking the emitted JSON keeps the
    # gate honest even if the bench's own asserts are ever refactored.)
    for guard in evaluate_4x2_warm_ws evaluate_1x1_warm_ws evaluate_3x2_warm_ws \
                 evaluate_4x2_guarded evaluate_4x2_noop_obs evaluate_4x2_live_obs \
                 evaluate_pair_cluster_warm daemon_warm_epochs viterbi_r56_954; do
        grep -q "\"name\":\"$guard\",\"allocs\":0}" BENCH_hotpath.json || {
            echo "bench smoke FAILED: warmed path '$guard' is not allocation-free" >&2
            exit 1
        }
    done
    grep -q '"type":"throughput","name":"suite_mixed_12"' BENCH_hotpath.json || {
        echo "bench smoke FAILED: suite throughput line missing" >&2
        exit 1
    }
    grep -q '"type":"throughput","name":"daemon_epochs"' BENCH_hotpath.json || {
        echo "bench smoke FAILED: daemon epoch-throughput line missing" >&2
        exit 1
    }
fi

if [ "$RESUME_SMOKE" -eq 1 ]; then
    echo "==> resume smoke: journaled suite killed at 50%, resumed, byte-diffed"
    out=$(cargo run --release --offline --example resumable_suite)
    printf '%s\n' "$out"
    printf '%s\n' "$out" | grep -q '^ok: kill-and-resume is byte-identical' || {
        echo "resume smoke FAILED: resumed run diverged from the reference" >&2
        exit 1
    }
    echo "==> resume smoke: supervision wrapper zero-allocation guard"
    hotpath_quick
    printf '%s\n' "$HOTPATH_OUT" | grep '^alloc '
    printf '%s\n' "$HOTPATH_OUT" | grep -q '"name":"evaluate_4x2_guarded"' || {
        echo "resume smoke FAILED: guarded-evaluation alloc report missing" >&2
        exit 1
    }
fi

if [ "$OBS_SMOKE" -eq 1 ]; then
    echo "==> obs smoke: observed standard suite, registry + trace validated"
    out=$(cargo run --release --offline --example telemetry_suite)
    printf '%s\n' "$out"
    printf '%s\n' "$out" | grep -q '^ok: telemetry export validated' || {
        echo "obs smoke FAILED: telemetry export did not validate" >&2
        exit 1
    }
    printf '%s\n' "$out" | grep -q '"suite.completed":30' || {
        echo "obs smoke FAILED: supervisor counters missing from registry JSON" >&2
        exit 1
    }
    echo "==> obs smoke: telemetry zero-allocation guards"
    hotpath_quick
    printf '%s\n' "$HOTPATH_OUT" | grep '^alloc '
    printf '%s\n' "$HOTPATH_OUT" | grep -q '"name":"evaluate_4x2_noop_obs"' || {
        echo "obs smoke FAILED: noop-sink alloc report missing" >&2
        exit 1
    }
    printf '%s\n' "$HOTPATH_OUT" | grep -q '"name":"evaluate_4x2_live_obs"' || {
        echo "obs smoke FAILED: live-sink alloc report missing" >&2
        exit 1
    }
fi

if [ "$CAMPUS_SMOKE" -eq 1 ]; then
    echo "==> campus smoke: 50-AP clustered suite + journaled 500-AP thread invariance"
    out=$(cargo run --release --offline --example dense_campus)
    printf '%s\n' "$out"
    printf '%s\n' "$out" | grep -q '^ok: dense campus smoke validated' || {
        echo "campus smoke FAILED: 50-AP clustered run did not validate" >&2
        exit 1
    }
    printf '%s\n' "$out" | grep -q '^ok: 500-AP campus byte-identical' || {
        echo "campus smoke FAILED: 500-AP report diverged across thread counts" >&2
        exit 1
    }
    echo "==> campus smoke: pair-cluster zero-allocation guard"
    hotpath_quick
    printf '%s\n' "$HOTPATH_OUT" | grep '^alloc '
    printf '%s\n' "$HOTPATH_OUT" | grep -q '"name":"evaluate_pair_cluster_warm"' || {
        echo "campus smoke FAILED: pair-cluster alloc report missing" >&2
        exit 1
    }
fi

if [ "$DAEMON_SMOKE" -eq 1 ]; then
    echo "==> daemon smoke: ten simulated minutes of the coordination daemon"
    out=$(cargo run --release --offline --example daemon_soak)
    printf '%s\n' "$out"
    printf '%s\n' "$out" | grep -q '^ok: daemon soak journal growth bounded' || {
        echo "daemon smoke FAILED: journal grew past its per-checkpoint budget" >&2
        exit 1
    }
    printf '%s\n' "$out" | grep -q '^ok: daemon kill-and-resume byte-identical' || {
        echo "daemon smoke FAILED: resumed daemon diverged from the reference" >&2
        exit 1
    }
    printf '%s\n' "$out" | grep -q '^ok: warmed daemon epochs allocation-free' || {
        echo "daemon smoke FAILED: warmed epochs allocated" >&2
        exit 1
    }
    printf '%s\n' "$out" | grep -q '^ok: daemon soak validated end to end' || {
        echo "daemon smoke FAILED: soak did not validate" >&2
        exit 1
    }
fi

if [ "$CHAOS_SMOKE" -eq 1 ]; then
    echo "==> chaos smoke: ten lossy, churning minutes of the coordination daemon"
    out=$(cargo run --release --offline --example daemon_soak -- --chaos)
    printf '%s\n' "$out"
    printf '%s\n' "$out" | grep -q '^ok: chaos degradations observed and recovered' || {
        echo "chaos smoke FAILED: no degradation/recovery cycle observed" >&2
        exit 1
    }
    printf '%s\n' "$out" | grep -q '^ok: chaos churn events exercised' || {
        echo "chaos smoke FAILED: the membership process did not fire" >&2
        exit 1
    }
    printf '%s\n' "$out" | grep -q '^ok: chaos kill-and-resume byte-identical' || {
        echo "chaos smoke FAILED: resumed chaos daemon diverged from the reference" >&2
        exit 1
    }
    printf '%s\n' "$out" | grep -q '^ok: warmed chaos epochs allocation-free' || {
        echo "chaos smoke FAILED: warmed chaos epochs allocated" >&2
        exit 1
    }
    printf '%s\n' "$out" | grep -q '^ok: daemon chaos soak validated end to end' || {
        echo "chaos smoke FAILED: chaos soak did not validate" >&2
        exit 1
    }
fi

if [ "$WAVEFORM_SMOKE" -eq 1 ]; then
    echo "==> waveform smoke: Monte-Carlo waveform FER vs the analytic model"
    out=$(cargo run --release --offline --example waveform_validation)
    printf '%s\n' "$out"
    printf '%s\n' "$out" | grep -q '^ok: waveform grid JSON re-parses' || {
        echo "waveform smoke FAILED: grid JSON did not re-parse" >&2
        exit 1
    }
    printf '%s\n' "$out" | grep -q '^ok: waveform grid byte-identical across thread counts' || {
        echo "waveform smoke FAILED: grid diverged across thread counts" >&2
        exit 1
    }
    printf '%s\n' "$out" | grep -q '^ok: waveform FER tracks the analytic union bound' || {
        echo "waveform smoke FAILED: measured FER left the analytic band" >&2
        exit 1
    }
    printf '%s\n' "$out" | grep -q '^ok: warmed waveform frames allocation-free' || {
        echo "waveform smoke FAILED: warmed frames allocated" >&2
        exit 1
    }
    printf '%s\n' "$out" | grep -q '^ok: waveform validation smoke passed' || {
        echo "waveform smoke FAILED: smoke did not validate" >&2
        exit 1
    }
fi

if [ "$FAULTS_SMOKE" -eq 1 ]; then
    echo "==> faults smoke: 240-topology degraded suite at 20% frame loss"
    out=$(cargo run --release --offline --example degraded_suite)
    printf '%s\n' "$out"
    printf '%s\n' "$out" | grep -q '"csma_fallbacks":[1-9]' || {
        echo "faults smoke FAILED: no CSMA fallbacks reported" >&2
        exit 1
    }
fi

echo "==> all checks passed"
