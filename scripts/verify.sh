#!/usr/bin/env bash
# Tier-1 verify plus perf-plumbing smoke, intended to run on every PR.
#
#   scripts/verify.sh
#
# Stages:
#   1. tier-1: cargo build --release && cargo test -q  (ROADMAP.md), then
#      the other workspace members' tests (cargo test --workspace
#      --exclude hfetch -q, so the root suite runs once): the member
#      crates' unit and integration suites (golden traces, thread-count
#      equivalence, fault invariants, obs-on/off agreement) run only there.
#      They include crates/bench/tests/full_shape.rs, which regenerates
#      Fig. 4(a), Fig. 5 and Fig. 6 at full scale (~30 s) and fails unless
#      Fig. 4(a) orders parallel < HFetch < serial < none, Fig. 5's
#      data-centric HFetch beats the app-centric cache on repetitive and
#      irregular, Fig. 6(a)'s HFetch is never slower than no prefetching,
#      Fig. 6(b)'s is at most 0.1% slower (320 ranks ties), and from 640
#      ranks up HFetch beats Stacker and KnowAc+profile in both.
#   2. clippy: the whole workspace must be warning-free, test, bench and
#      example targets included. Then rustdoc over the workspace with
#      warnings denied, so a doc link to a renamed or deleted item fails.
#   3. smoke all_figures: seconds-scale figure regeneration through the
#      parallel scenario runner, into a throwaway results dir so committed
#      bench_results/ artifacts are not clobbered by smoke-scale numbers.
#   4. sim_kernel bench in --test mode: one iteration per measurement,
#      exercising the DES throughput and obs_{off,on} measurements plus the
#      BENCH_sim_kernel.json emission path.
#   5. ingest bench smoke: the telemetry-ingestion benchmark measures the
#      auditor's one ingestion path at smoke scale (events/s, locks/event;
#      its 1/2/4-thread drain-digest assert runs inside the binary) and the
#      emitted BENCH_ingest.json is checked to be stable (obs_diff --lint):
#      valid JSON, metric names sorted and unique, and no wall-clock
#      timestamp fields that would make successive runs diff dirty.
#   6. chaos determinism: the fault-injected scenario grid runs twice with
#      the same seed (at different worker-thread counts) and the two
#      fault-counter reports are diffed byte-for-byte; any nondeterminism
#      in the fault layer fails the build. The report is also diffed
#      against the committed seed-42 golden
#      (crates/bench/tests/golden/chaos_seed42.txt), which pins the fault
#      counters themselves. The binary itself exits non-zero if graceful
#      degradation (retries/reroutes/abandons) was not observed.
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
#   9. hfbench self-tests: the standalone benchmark package builds against
#      the workspace crates' current public API, and its own tests pass.
#  10. sim_large_file gate: a short seed-7 benchmark run must reach a hit
#      ratio of at least 0.90 and a makespan of at most 1.88 s (the
#      sim-clock metrics are exact for a seed; it reads 0.916 and 1.843 s).
#      When a read that missed on a segment whose demand fetch still waited
#      for a slot did not land that fetch, the fetch read the same bytes
#      from the PFS again: 0.901 and 1.914 s. Staging only the heatmap's
#      history, with no readahead past each run of observed segments,
#      reads 0.825 and 2.070 s. Evicting a closed
#      file instead of cooling it reads a hit ratio of 0.275, and issuing
#      staging ahead of demand ~0.04. Issuing staging while the PFS has no
#      free channel reads a makespan of 2.307 s, later than NoPrefetch's
#      2.269 s.
#  11. server_agents memory and write gate: a short seed-7 run of the real-thread
#      server must report correct and a peak RSS of at most 90 MiB. A
#      memory tier that held a dense buffer per file up to its highest
#      offset, and kept evicted bytes until the file's last byte left,
#      read 175-195 MiB across seeds 1-10; the extent store that copied
#      each payload in and out read 123-129; with cache tiers holding the
#      backing store's extent handles and hits handing them out, it reads
#      60.3-60.6, and 55.6-56.8 since memory tiers hand the 1 MiB buffers
#      they let go of to a process-wide pool. A traced run of the same seed
#      (--trace 1) must then report a shim.write_us median of at most
#      250 us: with the shim's writes copying into a buffer from the pool
#      it reads 73-92 us, and 545-695 us when every 1 MiB write copied
#      into freshly faulted pages.
#  12. sim_pipeline gate: a short seed-7 benchmark run must reach a hit
#      ratio of at least 0.95 (sim-clock exact; it reads 0.965). When one
#      in-flight window counted staged fills and demand fetches together,
#      staged fills held the slots the readers' fetches needed, and it read
#      0.862. A traced run of the same seed (--trace 1) must then report
#      exactly ingest.locks_per_event = 6.709 (sim-exact): with separate
#      queue stripes beside the statistics shards, a separate last-segment
#      lookup and the drain's hash-map collapse it read 12.571, so a lock
#      that comes back fails here.
#  13. sim_large_file layer counts: a short seed-7 traced benchmark run
#      (--trace 1) must report the sim-exact counts engine.passes = 209,
#      placement.events = 13931, sim.fetch.transfers = 3844 and
#      effect.prefetch.wasted = 1438. The engine's shortcuts (re-keying a
#      segment where it sits, jumping over fill entries that change
#      nothing) must make exactly the decisions a full settle of every
#      update would; a count that moves is a decision that moved. The same
#      run must report ingest.locks_per_event = 8.089 exactly (14.311 with
#      separate queue stripes and last-segment lookups). The wall-clock
#      layer times of the same run are not gated.
#  14. examples: every file under examples/ runs to a zero exit (clippy
#      only compiles them). access_patterns drives the app-centric
#      baseline, montage_workflow the Stacker- and KnowAc-like ones.
#  15. line count: scripts/loc.sh prints the non-test lines of each crate's
#      sources and their total. It is a report, not a gate.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test -q =="
cargo test -q

echo "== workspace tests: cargo test --workspace --exclude hfetch -q =="
cargo test --workspace --exclude hfetch -q

echo "== clippy: workspace, all targets, deny warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc: workspace, deny warnings =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

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
if ! diff -u crates/bench/tests/golden/chaos_seed42.txt "$SMOKE_DIR/chaos_a.txt"; then
    echo "chaos fault counters drifted from the committed seed-$CHAOS_SEED golden" >&2
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

echo "== hfbench self-tests: build against the current API =="
CARGO_TARGET_DIR=.bench_build cargo test --release --manifest-path hfbench/Cargo.toml

echo "== sim_large_file gate: hit ratio and makespan, seed 7 =="
CARGO_TARGET_DIR=.bench_build \
python3 hfbench/run.py --workload sim_large_file --seed 7 --seconds 0.1 --trace 0 \
    | tail -n 1 \
    | python3 -c 'import json, sys
metrics = json.load(sys.stdin)["metrics"]
hit = metrics["hit_ratio"]["value"]
makespan = metrics["makespan_s"]["value"]
print(f"hit_ratio {hit:.3f} (floor 0.90), makespan_s {makespan:.3f} (ceiling 1.88)")
sys.exit(0 if hit >= 0.90 and makespan <= 1.88 else 1)'

echo "== server_agents gate: correct, peak RSS and write latency, seed 7 =="
CARGO_TARGET_DIR=.bench_build \
python3 hfbench/run.py --workload server_agents --seed 7 --seconds 1 --trace 0 \
    | tail -n 1 \
    | python3 -c 'import json, sys
result = json.load(sys.stdin)
correct = result["correct"]
rss = result["metrics"]["peak_rss_mib"]["value"]
print(f"correct {correct}, peak_rss_mib {rss:.1f} (ceiling 90)")
sys.exit(0 if correct and rss <= 90 else 1)'
CARGO_TARGET_DIR=.bench_build \
python3 hfbench/run.py --workload server_agents --seed 7 --seconds 1 --trace 1 \
    | tail -n 1 \
    | python3 -c 'import json, sys
write = json.load(sys.stdin)["metrics"]["shim.write_us"]["value"]
print(f"shim.write_us {write:.0f} (ceiling 250)")
sys.exit(0 if write <= 250 else 1)'

echo "== sim_pipeline gate: hit ratio and ingest locks per event, seed 7 =="
CARGO_TARGET_DIR=.bench_build \
python3 hfbench/run.py --workload sim_pipeline --seed 7 --seconds 0.1 --trace 0 \
    | tail -n 1 \
    | python3 -c 'import json, sys
hit = json.load(sys.stdin)["metrics"]["hit_ratio"]["value"]
print(f"hit_ratio {hit:.3f} (floor 0.95)")
sys.exit(0 if hit >= 0.95 else 1)'
CARGO_TARGET_DIR=.bench_build \
python3 hfbench/run.py --workload sim_pipeline --seed 7 --seconds 0.1 --trace 1 \
    | tail -n 1 \
    | python3 -c 'import json, sys
locks = json.load(sys.stdin)["metrics"]["ingest.locks_per_event"]["value"]
print(f"ingest.locks_per_event {locks:.3f} (want 6.709)")
sys.exit(0 if round(locks, 3) == 6.709 else 1)'

echo "== sim_large_file layer counts: decisions unchanged, seed 7 =="
CARGO_TARGET_DIR=.bench_build \
python3 hfbench/run.py --workload sim_large_file --seed 7 --seconds 0.1 --trace 1 \
    | tail -n 1 \
    | python3 -c 'import json, sys
metrics = json.load(sys.stdin)["metrics"]
want = {"engine.passes": 209, "placement.events": 13931,
        "sim.fetch.transfers": 3844, "effect.prefetch.wasted": 1438,
        "ingest.locks_per_event": 8.089}
got = {name: round(metrics[name]["value"], 3) for name in want}
print(" ".join(f"{name} {got[name]:g} (want {want[name]})" for name in want))
sys.exit(0 if got == want else 1)'

echo "== examples: run each, fail on a non-zero exit =="
for example in examples/*.rs; do
    name=$(basename "$example" .rs)
    echo "-- $name"
    cargo run -q --release --example "$name" > /dev/null
done

echo "== non-test line count (report, not a gate) =="
scripts/loc.sh

echo "== verify OK =="
