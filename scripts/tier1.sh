#!/usr/bin/env bash
# Tier-1 gate: everything a change must pass before merging.
#
#   scripts/tier1.sh            # build + tests + clippy + determinism + fmt
#
# Fully offline — no registry access, no network.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test =="
cargo test -q --workspace

echo "== exp and NDT under glibc's non-FMA exp: the probe must reject the inline path =="
# glibc picks an FMA or a non-FMA build of exp when it loads; this
# tunable hides the FMA one. The inline exp (av_des::exp_sub_each) must
# then stand down (inline_path_is_selected_where_libm_fuses checks it),
# and every exp and NDT bit-equality test must still hold.
tunables=glibc.cpu.hwcaps=-AVX2,-FMA
GLIBC_TUNABLES=$tunables cargo test -q -p av-des exp::
GLIBC_TUNABLES=$tunables cargo test -q -p av-perception ndt::
GLIBC_TUNABLES=$tunables cargo test -q -p av-core kept_ndt_workspace

echo "== threaded map build on one core: equal to the one-thread reference, maps pinned =="
# map_builder scans on a helper thread while the calling thread folds.
# Pinned to one CPU the two time-slice, so the fold meets the sweeps in
# other interleavings; the map must not move.
if command -v taskset >/dev/null; then
    taskset -c 0 cargo test -q -p av-core --lib -- \
        map::tests::threaded_map_build_equals_one_thread_reference map::tests::maps_are_pinned
else
    echo "taskset not found: skipped"
fi

echo "== LiDAR front end on one core: the chain pins and determinism hold =="
# drive() computes each LiDAR frame a tick ahead on a helper thread. On
# one CPU the helper often has not started a frame when its tick comes,
# so the engine steals the job back and computes it inline; the pins
# must hold on that path too.
if command -v taskset >/dev/null; then
    taskset -c 0 cargo test -q -p av-core --test lidar_chain_pins --test determinism
else
    echo "taskset not found: skipped"
fi

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== determinism: traced matrix across --jobs 1 vs --jobs 8 =="
# One shipped-binary invocation covers the whole check: repro itself
# reruns the traced matrix at each --check-jobs level and exits nonzero
# if the golden hash or any rendered trace/metrics byte differs.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
./target/release/repro --duration 10 --trace --check-jobs 1,8 --results "$tmp/res" \
    >"$tmp/repro.log" 2>/dev/null
grep 'golden determinism hash' "$tmp/repro.log"
grep 'determinism check passed' "$tmp/repro.log"

echo "== trace oracle: tables recomputed from the trace match the recorder =="
./target/release/trace_report --verify --duration 8 >"$tmp/verify.log" 2>/dev/null
grep 'verify passed' "$tmp/verify.log"

echo "== trace_report file mode: tables recomputed from the repro step's trace =="
# The file-mode path the verify step skips: read an exported trace back
# from disk, reprint the tables, and exit nonzero on an unanchored path.
./target/release/trace_report "$tmp/res/trace_ssd512.json" >"$tmp/trace_file.log"
grep -q 'Fig 6' "$tmp/trace_file.log"

echo "== sweep determinism: 4-point smoke sweep across --jobs 1 vs --jobs 8 =="
./target/release/sweep --spec specs/smoke.json --trace --check-jobs 1,8 \
    --results "$tmp/sweep" >"$tmp/sweep.log" 2>/dev/null
grep 'sweep golden hash' "$tmp/sweep.log"
grep 'sweep determinism check passed' "$tmp/sweep.log"

echo "== sched policies: FIFO pin + EDF smoke sweep across --jobs 1 vs --jobs 8 =="
# The sched-smoke builtin interleaves FIFO and EDF points on the same
# configs: the cross-jobs check must hold for both policies, and the
# FIFO points must still land on the golden hashes the identical
# configs produced before scheduling policies existed (p00/p02 here
# equal the traced smoke sweep's p00/p01 — the sched axis must be
# invisible at fifo). The untraced pins live in sched_determinism.rs;
# traced runs fold trace bytes into the hash, so the constants differ.
./target/release/sweep --builtin sched-smoke --trace --check-jobs 1,8 \
    --results "$tmp/sched" >"$tmp/sched.log" 2>/dev/null
grep 'sweep golden hash' "$tmp/sched.log"
grep 'sweep determinism check passed' "$tmp/sched.log"
grep -q '"id": "p00".*"hash": "0xb6f15c64078c718c"' "$tmp/sched/SWEEP_hashes.json" \
    || { echo "FIFO point p00 broke the pre-policy golden hash pin" >&2; exit 1; }
grep -q '"id": "p02".*"hash": "0x8a905cfa8be57c1b"' "$tmp/sched/SWEEP_hashes.json" \
    || { echo "FIFO point p02 broke the pre-policy golden hash pin" >&2; exit 1; }
# EDF traces carry the policy header and decision events; FIFO traces
# carry neither.
grep -q '"sched_policy":"edf"' "$tmp/sched/trace_p01.json"
grep -q '"cat":"sched"' "$tmp/sched/trace_p01.json"
if grep -q '"sched' "$tmp/sched/trace_p00.json"; then
    echo "FIFO trace must carry no sched header or decision events" >&2; exit 1
fi
echo "FIFO pin holds; EDF sweep byte-stable across jobs levels"

echo "== fault determinism: clean + crash point across --jobs 1 vs --jobs 8 =="
# One clean point and one supervised ndt_matching crash: the faulted
# run's golden hash and trace bytes must reproduce at any jobs level.
./target/release/sweep --spec specs/fault_smoke.json --trace --check-jobs 1,8 \
    --results "$tmp/fault" >"$tmp/fault.log" 2>/dev/null
grep 'sweep golden hash' "$tmp/fault.log"
grep 'sweep determinism check passed' "$tmp/fault.log"
# Fault and restart events are first-class citizens of the exported
# trace on the faulted point, and absent from the clean one.
grep -q '"fault:crash"' "$tmp/fault/trace_p01.json"
grep -q '"fault:restart"' "$tmp/fault/trace_p01.json"
grep -q '"fault:fallback_enter"' "$tmp/fault/trace_p01.json"
if grep -q '"fault:' "$tmp/fault/trace_p00.json"; then
    echo "clean trace must carry no fault events" >&2; exit 1
fi
echo "fault/restart events present in the faulted trace only"

echo "== trace_diff: faulted-vs-clean traces must be flagged as different =="
if ./target/release/trace_diff "$tmp/fault/trace_p00.json" "$tmp/fault/trace_p01.json" \
    >"$tmp/fault_diff.log"; then
    echo "trace_diff failed to flag a faulted trace" >&2; exit 1
fi
grep -m1 -v 'traces identical' "$tmp/fault_diff.log"

echo "== search determinism: smoke boundary search across --jobs 1 vs --jobs 8 =="
# The whole optimizer trajectory — every batch decision, every artifact
# byte — must reproduce at any jobs level; search exits nonzero if not.
./target/release/search --spec specs/search_smoke.json --check-jobs 1,8 \
    --results "$tmp/search" >"$tmp/search.log" 2>/dev/null
grep 'search golden hash' "$tmp/search.log"
grep 'search determinism check passed' "$tmp/search.log"
grep -q 'boundary: camera_rate_hz crosses' "$tmp/search.log"

echo "== search resume: replaying the trajectory is byte-identical and free =="
./target/release/search --spec specs/search_smoke.json \
    --resume "$tmp/search/search_trajectory.json" \
    --results "$tmp/search_resume" >"$tmp/resume.log" 2>/dev/null
diff -r "$tmp/search" "$tmp/search_resume"

echo "== warm search: checkpointed halving matches cold search, simulates less =="
# The same halving search run cold and warm must land on the identical
# search hash; search --bench-resume exits nonzero on any divergence.
./target/release/search --spec specs/search_resume_bench.json --jobs 4 \
    --bench-resume "$tmp/bench_resume.json" \
    --results "$tmp/search_warm" >"$tmp/warm.log" 2>/dev/null
grep 'identical search hash' "$tmp/warm.log"
grep -q '"virtual_seconds_saved": 32.000' "$tmp/bench_resume.json"
# Every candidate shares one scenario, LiDAR model and seed, so each
# pass builds its HD map exactly once, whatever the worker count.
grep -q '^cold: .* 1 map build(s),' "$tmp/warm.log"
grep -q '^warm: .* 1 map build(s),' "$tmp/warm.log"

echo "== trace_diff self-diff: a trace diffed against itself is empty =="
./target/release/trace_diff "$tmp/sweep/trace_p00.json" "$tmp/sweep/trace_p00.json" \
    >"$tmp/diff.log"
grep 'traces identical: 0 differences' "$tmp/diff.log"

echo "== blame oracle: decomposition is exact, additive and byte-stable =="
# One clean and one crash-faulted traced drive: every path instance's
# components must sum exactly to the recorded end-to-end latency, the
# blame-side distribution must match the live recorder bit-for-bit, and
# the exports must survive a Chrome-JSON round trip byte-identically.
./target/release/blame_report --verify --duration 8 >"$tmp/blame.log" 2>/dev/null
grep 'blame verify passed' "$tmp/blame.log"

echo "== blame export determinism: attribution bytes across --jobs 1 vs --jobs 8 =="
# The smoke sweep rerun at each jobs level must yield byte-identical
# blame CSVs and critical-path tracks from its traces.
./target/release/sweep --spec specs/smoke.json --trace --jobs 1 \
    --results "$tmp/blame_j1" >/dev/null 2>&1
./target/release/sweep --spec specs/smoke.json --trace --jobs 8 \
    --results "$tmp/blame_j8" >/dev/null 2>&1
for point in p00 p01 p02 p03; do
    for side in j1 j8; do
        ./target/release/blame_report "$tmp/blame_$side/trace_$point.json" \
            --csv "$tmp/blame_$side/blame_$point.csv" \
            --track "$tmp/blame_$side/track_$point.json" >/dev/null 2>&1
    done
    cmp "$tmp/blame_j1/blame_$point.csv" "$tmp/blame_j8/blame_$point.csv"
    cmp "$tmp/blame_j1/track_$point.json" "$tmp/blame_j8/track_$point.json"
done
echo "blame exports byte-identical across jobs levels"

echo "== durable checkpoint store: cross-process resume, quarantine, GC =="
# Round trip: process one checkpoints a traced drive every 2 s into a
# durable store; a torn write corrupts the newest (6 s) barrier; process
# two quarantines it on open (loudly, never silently deleting), resumes
# from the newest intact barrier (4 s), and must reproduce the
# straight-through run's trace bytes and summary (golden hash) exactly.
mkdir -p "$tmp/ckpt"
./target/release/drive --duration 6 --trace \
    --trace-out "$tmp/ckpt/cold.trace" --summary-out "$tmp/ckpt/cold.json" >/dev/null
./target/release/drive --duration 6 --trace --ckpt-dir "$tmp/ckpt/store" \
    --ckpt-every 2 >/dev/null 2>&1
newest=$(ls "$tmp/ckpt/store"/*.ckpt | sort | tail -1)
# Flip a payload byte (offset 40 is inside the "av-checkpoint" header
# text, never already 0xff) so the entry's checksum no longer matches.
printf '\xff' | dd of="$newest" bs=1 seek=40 count=1 conv=notrunc status=none
./target/release/drive --duration 6 --trace --ckpt-dir "$tmp/ckpt/store" \
    --trace-out "$tmp/ckpt/warm.trace" --summary-out "$tmp/ckpt/warm.json" \
    >"$tmp/ckpt/warm.log" 2>"$tmp/ckpt/warm.err"
grep -q 'QUARANTINED' "$tmp/ckpt/warm.err"
grep -q 'resumed at 4.0 s' "$tmp/ckpt/warm.log"
cmp "$tmp/ckpt/cold.trace" "$tmp/ckpt/warm.trace"
cmp "$tmp/ckpt/cold.json" "$tmp/ckpt/warm.json"
# The operator gate stays red while quarantine holds entries.
if ./target/release/ckpt verify --dir "$tmp/ckpt/store" >/dev/null 2>&1; then
    echo "ckpt verify must exit nonzero on a quarantined store" >&2; exit 1
fi
# GC determinism: identically-populated stores under the same budget
# evict the same entries and keep the same survivor set.
for side in a b; do
    ./target/release/drive --duration 3 --ckpt-every 1 \
        --ckpt-dir "$tmp/ckpt/gc_$side" >/dev/null 2>&1
    ./target/release/ckpt gc --dir "$tmp/ckpt/gc_$side" --max-bytes 2048 \
        >"$tmp/ckpt/gc_$side.log"
    ./target/release/ckpt ls --dir "$tmp/ckpt/gc_$side" | tail -n +2 >"$tmp/ckpt/ls_$side.log"
done
cmp "$tmp/ckpt/gc_a.log" "$tmp/ckpt/gc_b.log"
cmp "$tmp/ckpt/ls_a.log" "$tmp/ckpt/ls_b.log"
./target/release/ckpt verify --dir "$tmp/ckpt/gc_a" >/dev/null
echo "cross-process resume byte-identical; corruption quarantined; GC deterministic"

echo "== bag replay: record and reload a drive through a real file =="
# The bag codec is the checkpoint payload codec; this sends one second of
# sensor streams at the default 16x360 LiDAR size through an AVBAG03 file
# and back (the example asserts the reload equals the recording).
cargo run --release --quiet --example bag_replay -- 1 "$tmp/drive.avbag" >"$tmp/bag.log"
grep 'replayed:' "$tmp/bag.log"

echo "== scenario service: serve --check self-test =="
# In-process end-to-end: ping, malformed frame -> error, cold streamed
# drive, store-served repeat byte-identical, oversized frame bounded,
# graceful drain, extend-from-checkpoint byte-identical to a cold run
# of the longer horizon. serve --check exits nonzero on any failure.
./target/release/serve --check >"$tmp/serve_check.log"
grep 'serve check ok' "$tmp/serve_check.log"
grep -q 'extend-from-checkpoint byte-identical' "$tmp/serve_check.log"

echo "== scenario service: store-served repeat is byte-identical over the wire =="
# A live daemon on a loopback port: the same drive request sent twice
# must be answered cold then from the content-addressed store, with the
# result body and the streamed event payloads matching byte-for-byte.
mkdir -p "$tmp/serve_spool"
./target/release/serve --port-file "$tmp/serve_port" --workers 2 \
    --spool "$tmp/serve_spool" >/dev/null 2>&1 &
serve_pid=$!
for _ in $(seq 50); do [ -s "$tmp/serve_port" ] && break; sleep 0.1; done
serve_addr=$(cat "$tmp/serve_port")
./target/release/av_client --addr "$serve_addr" --quiet --request specs/serve_drive.json \
    --out "$tmp/serve_body1" --events "$tmp/serve_events1" >/dev/null 2>"$tmp/serve_stats1"
./target/release/av_client --addr "$serve_addr" --quiet --request specs/serve_drive.json \
    --out "$tmp/serve_body2" --events "$tmp/serve_events2" >/dev/null 2>"$tmp/serve_stats2"
grep -q 'cached=false' "$tmp/serve_stats1"
grep -q 'cached=true' "$tmp/serve_stats2"
cmp "$tmp/serve_body1" "$tmp/serve_body2"
cmp "$tmp/serve_events1" "$tmp/serve_events2"
./target/release/av_client --addr "$serve_addr" --shutdown >/dev/null
wait "$serve_pid"
echo "store-served drive byte-identical over the wire"

# avbench/Cargo.lock lacks the av-des edges, so every avbench build
# below rewrites it. Keep the committed lock: save it now, show the drift
# and restore it after the avbench steps (or on exit, if one fails).
cp avbench/Cargo.lock "$tmp/avbench.Cargo.lock"
trap 'cp "$tmp/avbench.Cargo.lock" avbench/Cargo.lock; rm -rf "$tmp"' EXIT

echo "== benchmark pins: every avbench workload's digest at check size =="
# avbench is a separate package (its own workspace), so the root cargo
# test never builds it. --check runs each workload once at tiny sizes and
# exits nonzero if a drive/sweep/serve/search digest leaves its pin.
cargo run --release --quiet --offline --manifest-path avbench/Cargo.toml -- --check

echo "== paper-world pin: one drive-paper cycle against its full-size digest =="
# --check runs smoke sizes only; this is the one step that drives the
# default 16x360 LiDAR, the paper map and the full NDT/tracker load. One
# cycle (~10 s), exiting nonzero if the `full drive-paper` pin moves.
# The cycle's peak live heap (the final JSON line's heap_mb) must also
# stay at or below 12.5 MB. The paper map build sets it, and it depends
# on how far the build's scan thread runs ahead of the fold: the fold's
# own peak (9.74 MB, the 14th batch of eight sweeps) plus at most six
# sweeps in the channel (160 kB each at most) and one being scanned
# (0.32 MB), 11.0 MB in the worst case. Runs read 10.68-10.97 MB.
cargo run --release --quiet --offline --manifest-path avbench/Cargo.toml -- \
    --workload drive-paper --seed 1 --seconds 1 --trace 0 >"$tmp/paper.log"
heap=$(tail -n 1 "$tmp/paper.log" | grep -o '"heap_mb":{"value":[0-9.eE+-]*' | sed 's/.*://' || true)
awk -v h="$heap" 'BEGIN { exit !(h != "" && h + 0 <= 12.5) }' \
    || { echo "drive-paper peak heap ${heap:-missing} MB exceeds 12.5 MB" >&2; exit 1; }
echo "drive-paper peak heap $heap MB (gate: 12.5 MB)"

echo "== smoke-world pin: one sweep-smoke cycle against its full-size digest =="
# --check runs a 4-point batch of 2 s smoke drives; this runs one full-size
# batch (12 points, 8 s drives, one fresh smoke map; ~2 s), exiting nonzero
# if the `full sweep-smoke` pin moves.
cargo run --release --quiet --offline --manifest-path avbench/Cargo.toml -- \
    --workload sweep-smoke --seed 1 --seconds 1 --trace 0 >"$tmp/smoke.log"

echo "== avbench/Cargo.lock: drift from the committed lock (restored) =="
git diff --stat -- avbench/Cargo.lock 2>/dev/null || true
cp "$tmp/avbench.Cargo.lock" avbench/Cargo.lock

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "tier1: OK"
