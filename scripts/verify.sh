#!/usr/bin/env bash
# Tier-1 verify plus perf-plumbing smoke, intended to run on every PR.
#
#   scripts/verify.sh
#
# Stages:
#   1. tier-1: cargo build --release && cargo test -q  (ROADMAP.md)
#   2. clippy: the whole workspace must be warning-free.
#   3. smoke all_figures: seconds-scale figure regeneration through the
#      parallel scenario runner, into a throwaway results dir so committed
#      bench_results/ artifacts are not clobbered by smoke-scale numbers.
#   4. sim_kernel bench in --test mode: one iteration per measurement,
#      exercising the FxHash/std and raw/coalesced ablations plus the
#      BENCH_sim_kernel.json emission path.
#   5. ingest bench smoke: the telemetry-ingestion benchmark runs at smoke
#      scale (its drain-equivalence asserts run inside the binary) and the
#      emitted BENCH_ingest.json is checked to be stable (obs_diff --lint):
#      valid JSON, metric names sorted and unique, and no wall-clock
#      timestamp fields that would make successive runs diff dirty.
#   6. chaos determinism: the fault-injected scenario grid runs twice with
#      the same seed (at different worker-thread counts) and the two
#      fault-counter reports are diffed byte-for-byte; any nondeterminism
#      in the fault layer fails the build. The binary itself exits
#      non-zero if graceful degradation (retries/reroutes/abandons) was
#      not observed.
#   7. trace determinism: the fig5 decision trace (--bin trace, with
#      --format perfetto) runs twice at different worker-thread counts and
#      all four artifacts (JSONL decision trace, merged ObsReport,
#      occupancy timeline, Perfetto JSON) are diffed byte-for-byte — the
#      observability layer must be sim-clock pure. The ObsReport is then
#      checked to be stable (obs_diff --lint): valid JSON, keys sorted and
#      unique within every section, and no wall-clock fields.
#   8. obs-diff regression gate: fresh smoke ObsReports for every traced
#      figure (fig3b/fig5/fig6a/fig6b) are compared against the committed
#      golden baselines (crates/bench/tests/golden/*.obs.json) under the
#      DESIGN.md §5.11 tolerance rules — counters/gauges exact, histograms
#      relative. Any intended behaviour change must re-bless the baselines
#      with HFETCH_BLESS=1 cargo test -p hfetch-bench --test golden_trace.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test -q =="
cargo test -q

echo "== clippy: workspace, deny warnings =="
cargo clippy --workspace -- -D warnings

SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT

echo "== smoke all_figures (results -> $SMOKE_DIR) =="
HFETCH_BENCH_SCALE=smoke \
HFETCH_BENCH_RESULTS="$SMOKE_DIR" \
cargo run -p hfetch-bench --release --bin all_figures

echo "== sim_kernel bench, --test mode (results -> $SMOKE_DIR) =="
HFETCH_BENCH_RESULTS="$SMOKE_DIR" \
cargo bench -p hfetch-bench --bench sim_kernel -- --test

echo "== ingest bench smoke (results -> $SMOKE_DIR) =="
HFETCH_BENCH_SCALE=smoke \
HFETCH_BENCH_RESULTS="$SMOKE_DIR" \
cargo run -p hfetch-bench --release --bin ingest

for f in BENCH_figures.json BENCH_sim_kernel.json BENCH_ingest.json; do
    test -s "$SMOKE_DIR/$f" || { echo "missing perf record: $f" >&2; exit 1; }
done

echo "== BENCH_ingest.json stability check =="
cargo run -p hfetch-bench --release --bin obs_diff -- --lint "$SMOKE_DIR/BENCH_ingest.json"

echo "== chaos determinism: same seed, twice, different thread counts =="
CHAOS_SEED=42
HFETCH_BENCH_THREADS=1 \
cargo run -p hfetch-bench --release --bin chaos -- \
    --seed "$CHAOS_SEED" --out "$SMOKE_DIR/chaos_a.txt" > /dev/null
HFETCH_BENCH_THREADS=4 \
cargo run -p hfetch-bench --release --bin chaos -- \
    --seed "$CHAOS_SEED" --out "$SMOKE_DIR/chaos_b.txt" > /dev/null
if ! diff -u "$SMOKE_DIR/chaos_a.txt" "$SMOKE_DIR/chaos_b.txt"; then
    echo "chaos scenario is nondeterministic across runs/thread counts" >&2
    exit 1
fi

echo "== trace determinism: fig5, twice, different thread counts =="
HFETCH_BENCH_SCALE=smoke HFETCH_BENCH_THREADS=1 \
cargo run -p hfetch-bench --release --bin trace -- \
    fig5 --format perfetto --out "$SMOKE_DIR/trace_a" > /dev/null
HFETCH_BENCH_SCALE=smoke HFETCH_BENCH_THREADS=4 \
cargo run -p hfetch-bench --release --bin trace -- \
    fig5 --format perfetto --out "$SMOKE_DIR/trace_b" > /dev/null
for ext in trace.jsonl obs.json timeline.txt perfetto.json; do
    if ! diff -u "$SMOKE_DIR/trace_a.$ext" "$SMOKE_DIR/trace_b.$ext"; then
        echo "trace artifact $ext is nondeterministic across thread counts" >&2
        exit 1
    fi
done

echo "== ObsReport stability check =="
cargo run -p hfetch-bench --release --bin obs_diff -- --lint "$SMOKE_DIR/trace_a.obs.json"

echo "== obs-diff regression gate: figures vs committed baselines =="
# Counters/gauges/trace_events exact, histograms within 10% relative
# tolerance (DESIGN.md §5.11). Intended changes: re-bless with
#   HFETCH_BLESS=1 cargo test -p hfetch-bench --test golden_trace
cargo run -p hfetch-bench --release --bin obs_diff -- \
    crates/bench/tests/golden/fig5.obs.json "$SMOKE_DIR/trace_a.obs.json"
for fig in fig3b fig6a fig6b; do
    HFETCH_BENCH_SCALE=smoke HFETCH_BENCH_THREADS=2 \
    cargo run -p hfetch-bench --release --bin trace -- \
        "$fig" --out "$SMOKE_DIR/$fig" > /dev/null
    cargo run -p hfetch-bench --release --bin obs_diff -- \
        "crates/bench/tests/golden/$fig.obs.json" "$SMOKE_DIR/$fig.obs.json"
done

echo "== verify OK =="
