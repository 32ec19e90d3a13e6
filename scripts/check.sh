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

# The scalar device (oracle, golden capture, routing-delay faults) is
# printed beside the lane engine so a regression in either shows up as a
# number; `batch_device_new_w{1,4,8}` time one lane-engine build (the
# fixed cost every shard and every batched execution pays). The offline
# criterion stand-in takes no filter, so one run prints every bench and
# the relevant lines are picked out.
echo "== scalar device, lane build and batch throughput microbenches (release)"
cargo bench -q --offline -p fades-bench --bench microbench 2>&1 \
    | grep -E 'substrate/device_|settle_throughput|batch_device_new_w|batch_throughput'
# The lane engine's kernels per word width: one settle sweep (with ns per
# combinational node), one clock edge and one scan for lanes to merge (a
# cohort runs one every 16 cycles), each the fastest of 400 interleaved
# timings, which ranks two builds where a criterion mean of a few samples
# cannot. The level column is the instruction-set level each width runs
# at (`fades_fpga::LaneKernel`).
echo "== lane-engine kernel timings (release)"
cargo run -q --release --offline -p fades-experiments -- kernels

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
# the bit — quarantine included. `bitflip-mem` runs too: the lane driver
# collapses memory flips by golden access, and the chaos target must
# still run, panic and be quarantined, never be decided with a class.
# `delay-wires` runs on the scalar engine under both flags, and most of
# its delays are decided before simulation: those decided results must
# pass through journal, resume and merge like simulated ones.
echo "== sharded-batched chaos gate (release)"
gate_dir=$(mktemp -d)
run_exp() { cargo run -q --release --offline -p fades-experiments -- "$@"; }
for load in pulse-luts bitflip-mem delay-wires; do
    for engine_flag in "lane --batch" "scalar --no-batch"; do
        # shellcheck disable=SC2086  # splitting engine/flag pair is intended
        set -- $engine_flag
        engine=$1 flag=$2
        run="$gate_dir/$load-$engine"
        for shard in 0 1; do
            FADES_FAULTS=40 FADES_SEED=7 FADES_CHAOS_PANIC=5 \
                run_exp shard "$shard/2" "$run-s$shard.jsonl" "$load" "$flag" \
                >"$run-s$shard.txt" 2>/dev/null
        done
        run_exp resume "$run-s1.jsonl" "$flag" >"$run-resume.txt"
        grep -q "0 executed, 20 skipped" "$run-resume.txt" \
            || { echo "FAIL: $load $engine resume of a finished shard re-ran work"; exit 1; }
        run_exp merge "$run-s0.jsonl" "$run-s1.jsonl" >"$run-merge.txt"
        grep -q 'quarantined #5:' "$run-merge.txt" \
            || { echo "FAIL: $load $engine merge lost the chaos quarantine"; exit 1; }
    done
    lane_bits=$(grep -o '([0-9a-f]\{16\})' "$gate_dir/$load-lane-merge.txt")
    scalar_bits=$(grep -o '([0-9a-f]\{16\})' "$gate_dir/$load-scalar-merge.txt")
    echo "$load: lane merge bits $lane_bits, scalar merge bits $scalar_bits"
    if [ -z "$lane_bits" ] || [ "$lane_bits" != "$scalar_bits" ]; then
        echo "FAIL: $load sharded-batched merge is not bit-identical to the scalar-isolated merge"
        exit 1
    fi
done
rm -rf "$gate_dir"

# Campaign-service CLI smoke gate: the serve/submit/jobs/results/shutdown
# loop through the real binary and a real (tiny) campaign, on a throwaway
# queue dir and an ephemeral port, after an oversized submission is
# refused.
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
# A fault count whose plan cannot fit in memory must be refused with a
# 400, and the server must go on to serve the real job below.
if run_exp submit pulse-luts --faults 1000000000000000 --addr "$addr" >"$svc_dir/huge.txt" 2>&1; then
    echo "FAIL: an oversized job was accepted"; cat "$svc_dir/huge.txt"; exit 1
fi
grep -q 'HTTP 400' "$svc_dir/huge.txt" \
    || { echo "FAIL: oversized job not refused with a 400"; cat "$svc_dir/huge.txt" "$svc_dir/serve.log"; exit 1; }
# The same job with 2 and with 4 shards: one call settles every shard of
# a job, and the merge must not depend on how many shards that call ran.
for shards in 2 4; do
    run_exp submit pulse-luts --faults 400 --seed 11 --shards "$shards" --addr "$addr" \
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
    run_exp results "$job" --addr "$addr" | tee "$svc_dir/results-$shards.txt"
    grep -q 'bit-identical' "$svc_dir/results-$shards.txt" \
        || { echo "FAIL: $job results are not a complete merge"; exit 1; }
done
for pattern in 'outcomes: .*' 'total ([0-9a-f]*)'; do
    got2=$(grep -o "$pattern" "$svc_dir/results-2.txt")
    got4=$(grep -o "$pattern" "$svc_dir/results-4.txt")
    echo "2-shard results: $got2; 4-shard results: $got4"
    if [ -z "$got2" ] || [ "$got2" != "$got4" ]; then
        echo "FAIL: the 4-shard job's results differ from the 2-shard job's"
        exit 1
    fi
done
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
# doing the counting, the gate fails. Each side is the fastest of many
# interleaved timings (a mean of a few samples flaps on a shared host).
echo "== telemetry disabled-path overhead gate"
cargo bench -q --offline -p fades-bench --bench microbench -- telemetry_overhead 2>&1 \
    | tee /tmp/fades-telemetry-overhead.txt | grep telemetry_overhead
python3 - <<'EOF'
import re

times = {}
with open("/tmp/fades-telemetry-overhead.txt") as f:
    for line in f:
        m = re.search(
            r"telemetry_overhead/sim_256_cycles_(disabled|enabled)\s+fastest of \d+: (\d+) ns",
            line,
        )
        if m:
            times[m.group(1)] = int(m.group(2))
missing = {"disabled", "enabled"} - set(times)
if missing:
    raise SystemExit(f"FAIL: telemetry_overhead bench lines not found: {missing}")
ratio = times["disabled"] / times["enabled"]
print(f"disabled {times['disabled']} ns, enabled {times['enabled']} ns "
      f"(fastest of each; disabled/enabled = {ratio:.3f})")
if ratio > 1.15:
    raise SystemExit("FAIL: disabled-path telemetry cost regressed beyond 15% of enabled")
EOF

# The lane engine's reason to exist is host wall-clock: with
# golden-checkpoint warm-start on top of bit-parallel lanes, the batched
# campaign must beat the scalar one by at least 4x, or the gate fails.
# 64 faults run on the 64-lane word (63 faulty lanes); 640 faults fill
# the 256-lane word twice, which the campaign layer then selects. Both
# ratios are printed.
echo "== batched campaign must outrun the scalar campaign by >= 4x (64 and 640 faults)"
for faults in 64 640; do
    FADES_FAULTS=$faults cargo run -q --release --offline -p fades-experiments -- batch
    FAULTS=$faults python3 - <<'EOF'
import json
import os

with open("BENCH_campaign.json") as f:
    bench = json.load(f)
rates = {c["campaign"]: c["faults_per_sec"] for c in bench["campaigns"]}
scalar, batched = rates["ff-flip-scalar"], rates["ff-flip-batched"]
ratio = batched / scalar if scalar else float("inf")
faults = os.environ["FAULTS"]
print(f"{faults} faults: scalar {scalar:.1f} faults/s, batched {batched:.1f} faults/s ({ratio:.1f}x)")
if batched < scalar * 4:
    raise SystemExit(f"FAIL: the {faults}-fault batched campaign is not >= 4x faster than scalar")
EOF
done

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
