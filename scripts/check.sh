#!/usr/bin/env bash
# Local CI gate: formatting, lints, tests. Everything runs offline —
# dependencies are vendored path crates (see vendor/), so no network or
# registry access is needed.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo build --examples"
cargo build --workspace --examples --offline -q

echo "== cargo test"
cargo test -q --workspace --offline

# The campaign-heavy suites run again in release mode with per-suite
# wall-clock, so the checkpointed fast path's speedup stays visible in
# the gate and a perf regression shows up as a number, not a feeling.
echo "== cargo test --release (heavy campaign suites, timed)"
cargo build --release --tests --offline -q
for suite in "-p fades-core" "-p fades-dispatch" "-p fades-repro"; do
    echo "-- cargo test --release $suite"
    start=$(date +%s%N)
    # shellcheck disable=SC2086  # word-splitting the package flag is intended
    cargo test -q --release --offline $suite
    end=$(date +%s%N)
    echo "-- $suite: $(((end - start) / 1000000)) ms"
done

# The lane-engine differential suite once more in release (compiler
# optimisations must not break scalar/batched bit-identity), then the
# settle and batch throughput microbenches.
echo "== lane-engine differential suite (release)"
cargo test -q --release --offline -p fades-core --test batch_equiv
cargo test -q --release --offline -p fades-core --test batch_props

echo "== settle/batch throughput microbenches (release)"
cargo bench -q --offline -p fades-bench --bench microbench -- settle_throughput 2>&1 | tail -n +1
cargo bench -q --offline -p fades-bench --bench microbench -- batch_throughput 2>&1 | tail -n +1

# The benchmark (fadesbench/) is a package of its own, outside the
# workspace, so nothing above builds it. Build it and run its smoke test,
# so an API change in core, fpga, dispatch or service cannot break it
# unnoticed.
echo "== benchmark build + smoke test (release)"
cargo test --release --offline --manifest-path fadesbench/Cargo.toml

# Observability smoke gate: a real sharded campaign with the metrics
# endpoint and Chrome-trace export enabled, scraped live by the test's
# built-in HTTP client, with the emitted trace validated as JSON with
# monotonic ts (crates/experiments/tests/monitor_smoke.rs).
echo "== observability smoke gate (release)"
cargo test -q --release --offline -p fades-experiments --test monitor_smoke

# Campaign-service end-to-end gate: HTTP submit, SIGKILL mid-campaign,
# restart on the same queue dir, resumed merge bit-identical to the
# monolithic run (crates/experiments/tests/service_e2e.rs).
echo "== campaign service end-to-end gate (release)"
cargo test -q --release --offline -p fades-experiments --test service_e2e

# Sharded-batched chaos gate: a chaos panic landing *inside a lane
# cohort* must not cost the shard. Both engines run the same 2-shard
# campaign with `FADES_CHAOS_PANIC=5` (index 5 lives in shard 1), resume
# of a finished journal must be a no-op, and the merges must agree to
# the bit — quarantine included.
echo "== sharded-batched chaos gate (release)"
gate_dir=$(mktemp -d)
run_exp() { cargo run -q --release --offline -p fades-experiments -- "$@"; }
for engine_flag in "lane --batch" "scalar --no-batch"; do
    # shellcheck disable=SC2086  # splitting engine/flag pair is intended
    set -- $engine_flag
    engine=$1 flag=$2
    for shard in 0 1; do
        FADES_FAULTS=40 FADES_SEED=7 FADES_CHAOS_PANIC=5 \
            run_exp shard "$shard/2" "$gate_dir/$engine-s$shard.jsonl" pulse-luts "$flag" \
            >"$gate_dir/$engine-s$shard.txt" 2>/dev/null
    done
    run_exp resume "$gate_dir/$engine-s1.jsonl" "$flag" >"$gate_dir/$engine-resume.txt"
    grep -q "0 executed, 20 skipped" "$gate_dir/$engine-resume.txt" \
        || { echo "FAIL: $engine resume of a finished shard re-ran work"; exit 1; }
    run_exp merge "$gate_dir/$engine-s0.jsonl" "$gate_dir/$engine-s1.jsonl" \
        >"$gate_dir/$engine-merge.txt"
    grep -q 'quarantined #5:' "$gate_dir/$engine-merge.txt" \
        || { echo "FAIL: $engine merge lost the chaos quarantine"; exit 1; }
done
lane_bits=$(grep -o '([0-9a-f]\{16\})' "$gate_dir/lane-merge.txt")
scalar_bits=$(grep -o '([0-9a-f]\{16\})' "$gate_dir/scalar-merge.txt")
echo "lane merge bits $lane_bits, scalar merge bits $scalar_bits"
if [ -z "$lane_bits" ] || [ "$lane_bits" != "$scalar_bits" ]; then
    echo "FAIL: sharded-batched merge is not bit-identical to the scalar-isolated merge"
    exit 1
fi
rm -rf "$gate_dir"

# Campaign-service CLI smoke gate: the serve/submit/jobs/results/shutdown
# loop through the real binary and a real (tiny) campaign, on a throwaway
# queue dir and an ephemeral port.
echo "== campaign service CLI smoke gate (release)"
svc_dir=$(mktemp -d)
FADES_THREADS=2 FADES_PROGRESS=0 \
    run_exp serve --addr 127.0.0.1:0 --workers 2 --jobs 2 \
    --queue-dir "$svc_dir/queue" --addr-file "$svc_dir/addr" \
    >"$svc_dir/serve.log" 2>&1 &
serve_pid=$!
for _ in $(seq 1 600); do [ -s "$svc_dir/addr" ] && break; sleep 0.1; done
[ -s "$svc_dir/addr" ] || { echo "FAIL: service never published its address"; cat "$svc_dir/serve.log"; exit 1; }
addr=$(cat "$svc_dir/addr")
run_exp submit pulse-luts --faults 400 --seed 11 --shards 2 --addr "$addr" \
    | tee "$svc_dir/submit.txt"
job=$(grep -o 'job-[0-9]*' "$svc_dir/submit.txt" | head -1)
[ -n "$job" ] || { echo "FAIL: submit printed no job id"; exit 1; }
for _ in $(seq 1 600); do
    run_exp jobs --addr "$addr" >"$svc_dir/jobs.txt"
    grep -q "$job \[completed\]" "$svc_dir/jobs.txt" && break
    sleep 0.2
done
grep -q "$job \[completed\]" "$svc_dir/jobs.txt" \
    || { echo "FAIL: $job never completed"; cat "$svc_dir/jobs.txt" "$svc_dir/serve.log"; exit 1; }
run_exp results "$job" --addr "$addr" | tee "$svc_dir/results.txt"
grep -q 'bit-identical' "$svc_dir/results.txt" \
    || { echo "FAIL: $job results are not a complete merge"; exit 1; }
run_exp shutdown --addr "$addr"
# A graceful shutdown must let the process exit cleanly on its own; the
# watchdog SIGKILL only fires (and fails the wait) if it hangs.
( sleep 120; kill -9 "$serve_pid" 2>/dev/null ) &
watchdog_pid=$!
wait "$serve_pid" || { echo "FAIL: serve did not exit cleanly after shutdown"; cat "$svc_dir/serve.log"; exit 1; }
kill "$watchdog_pid" 2>/dev/null || true
rm -rf "$svc_dir"

# The PR 1 overhead contract: with telemetry disabled, the hot path pays
# one relaxed atomic load. The disabled-path bench must stay within
# noise (15%) of the enabled path — if "disabled" got *slower* than
# doing the counting, the gate fails.
echo "== telemetry disabled-path overhead gate"
cargo bench -q --offline -p fades-bench --bench microbench -- telemetry_overhead 2>&1 \
    | tee /tmp/fades-telemetry-overhead.txt | grep telemetry_overhead
python3 - <<'EOF'
import re

scale = {"ns": 1, "µs": 1_000, "us": 1_000, "ms": 1_000_000, "s": 1_000_000_000}
times = {}
with open("/tmp/fades-telemetry-overhead.txt") as f:
    for line in f:
        m = re.search(
            r"telemetry_overhead/sim_256_cycles_(disabled|enabled)\s+([\d.]+)(ns|µs|us|ms|s) /iter",
            line,
        )
        if m:
            times[m.group(1)] = float(m.group(2)) * scale[m.group(3)]
missing = {"disabled", "enabled"} - set(times)
if missing:
    raise SystemExit(f"FAIL: telemetry_overhead bench lines not found: {missing}")
ratio = times["disabled"] / times["enabled"]
print(f"disabled {times['disabled']:.0f} ns/iter, enabled {times['enabled']:.0f} ns/iter "
      f"(disabled/enabled = {ratio:.3f})")
if ratio > 1.15:
    raise SystemExit("FAIL: disabled-path telemetry cost regressed beyond 15% of enabled")
EOF

# The lane engine's reason to exist is host wall-clock: with
# golden-checkpoint warm-start on top of 63-wide lanes, the batched
# 64-fault campaign must beat the scalar one by at least 4x, or the gate
# fails.
echo "== batched campaign must outrun the scalar campaign by >= 4x"
FADES_FAULTS=64 cargo run -q --release --offline -p fades-experiments -- batch
python3 - <<'EOF'
import json

with open("BENCH_campaign.json") as f:
    bench = json.load(f)
rates = {c["campaign"]: c["faults_per_sec"] for c in bench["campaigns"]}
scalar, batched = rates["ff-flip-scalar"], rates["ff-flip-batched"]
ratio = batched / scalar if scalar else float("inf")
print(f"scalar {scalar:.1f} faults/s, batched {batched:.1f} faults/s ({ratio:.1f}x)")
if batched < scalar * 4:
    raise SystemExit("FAIL: batched campaign is not >= 4x faster than scalar")
EOF

# Static-analysis gate. Three promises: the 8051 design lints clean
# enough to campaign (no error-severity diagnostics, any load), the
# statically-Silent soundness/bit-identity suite holds under release
# optimisation, and the pre-classifier actually finds the dead logic in
# the demo-dead fixture — a zero count there would mean the cone
# analysis went blind while the skip machinery still trusts it.
echo "== static analysis gate (release)"
run_exp analyze all
cargo test -q --release --offline -p fades-core --test static_analysis
run_exp analyze all --design demo-dead --json >/tmp/fades-analyze-dead.json
python3 - <<'EOF'
import json

with open("/tmp/fades-analyze-dead.json") as f:
    report = json.load(f)
silent = sum(load.get("static_silent", 0) for load in report["loads"])
per_load = {load["load"]: load.get("static_silent") for load in report["loads"]}
print(f"demo-dead statically-Silent counts: {per_load} (total {silent})")
if report["worst"] == "error":
    raise SystemExit("FAIL: the demo-dead fixture has error-severity lint diagnostics")
if silent == 0:
    raise SystemExit("FAIL: static pre-classifier found no dead faults on the demo-dead fixture")
EOF

echo "All checks passed."
