#!/usr/bin/env bash
# Tier-1 gate: everything that must stay green on every commit.
#
#   1. release build of the whole workspace
#   2. the whole workspace test suite (the root `Cargo.toml` sets
#      `default-members` to every crate): determinism, integration,
#      kill-and-resume, fault-injection, cuts, and degradation-ladder tests
#   3. clippy on every target with warnings promoted to errors, then the
#      benchmark's own tests (`perfbench` is a separate workspace that
#      builds against these crates, so an API change it relies on fails
#      here, not only when the benchmark runs)
#   4. table3 [50/20] gates: the Table 3 [50/20] row and its pricing pair
#      run under a 30 s solver budget, the heuristic (root heuristics on
#      vs off) pair under 10 s (it checks the default solver), and the cuts
#      and checkpoint pairs on one worker under a fixed node budget, so
#      those two repeat exactly; table3 checks its own
#      records and exits non-zero when a gate fails (see `check_gates` in
#      crates/bench/src/bin/table3.rs for each condition, and which ones
#      only warn)
#   5. durability smoke: a checkpointed one-worker [50/20] solve is
#      SIGKILLed mid-search and resumed from its frame; the resume must
#      prove Optimal with a verified design at the row's proven optimum
#   6. service smoke: a short request storm against the design-session
#      service with seeded clients, injected mid-request cancellations,
#      a simulated worker death, and one poisoned delta — the binary
#      itself exits non-zero on any panic, any missed deadline without a
#      degraded/shed outcome, or served p99 over the deadline budget
#   7. scale smoke: a small 4-building campus solved by spatial
#      decomposition under a 30 s budget — the stitched design must pass
#      verify_design on the full un-partitioned instance and land within
#      10% of the monolithic solve's objective
#
# Run from the repository root:  ./scripts/tier1.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier1: cargo build --release =="
cargo build --release

echo "== tier1: cargo test -q =="
cargo test -q

echo "== tier1: cargo clippy --workspace -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier1: perfbench tests =="
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== tier1: table3 [50/20] gates (row, cuts, pricing, checkpoint, heuristics) =="
# One table3 run emits the [50/20] row record and the four ablation pairs,
# then gates them itself. The row must yield a feasible design within the
# 30 s budget; solving to Optimal only warns, because the row runs the
# default worker count (two workers on a 2-core host), and above one worker
# the trajectory varies run to run (see README "Parallel solving"). The
# heuristic pair gets 10 s, far too little for the proof, which is the
# point: the default solver (root heuristics on) must still hand back a
# verified design. The cuts and checkpoint pairs ignore T3_TL: they run
# one worker under table3's `PAIR_NODES` budget with no time limit, so
# their statuses do not depend on how fast the host runs, and the
# checkpointed side must explore exactly the plain side's tree. The JSON
# goes to a temp file so the checked-in
# BENCH_solver.json stays as recorded.
T3_SMOKE_JSON="$(mktemp)"
trap 'rm -f "$T3_SMOKE_JSON"' EXIT
if ! T3_SKIP_FULL=1 T3_ROWS=1 T3_TL=30 T3_HEUR_TL=10 T3_THREADS= T3_JSON="$T3_SMOKE_JSON" \
    cargo run --release -q -p bench --bin table3; then
    echo "tier1: table3 gates FAILED" >&2
    exit 1
fi
echo "tier1: table3 gates OK"

echo "== tier1: durability smoke (SIGKILL mid-search, resume from frame) =="
# A checkpointed one-worker [50/20] solve at the default gap is killed hard
# a few seconds in — exactly the failure the subsystem exists for — then
# resumed from its last durable frame. The resume run gates itself (see
# crates/bench/src/bin/durability.rs): it exits non-zero unless it
# continued from the frame, its design survives independent
# re-verification, it proves Optimal, and its objective matches the
# row's proven optimum. DUR_TL is only a hang guard: the proof takes
# about 90 s on a 2-core host.
DUR_FRAME="$(mktemp -u).frame"
trap 'rm -f "$T3_SMOKE_JSON" "$DUR_FRAME" "$DUR_FRAME.prev" "$DUR_FRAME.tmp"' EXIT
# The victim is exec'd directly (not through `cargo run`) so the SIGKILL
# hits the solver process itself; step 1 built it.
DUR_MODE=victim DUR_TL=600 DUR_CKPT="$DUR_FRAME" ./target/release/durability &
victim_pid=$!
sleep 5
kill -9 "$victim_pid" 2>/dev/null || true
wait "$victim_pid" 2>/dev/null || true
if [ ! -f "$DUR_FRAME" ]; then
    echo "tier1: durability smoke FAILED — the killed victim left no frame at $DUR_FRAME" >&2
    exit 1
fi
if ! DUR_MODE=resume DUR_TL=600 DUR_CKPT="$DUR_FRAME" ./target/release/durability; then
    echo "tier1: durability smoke FAILED" >&2
    exit 1
fi
echo "tier1: durability smoke OK"

echo "== tier1: service smoke (fault-injected request storm) =="
# 24 seeded clients x 3 rounds of typed spec deltas against the
# design-session service, with two injected mid-request cancellations,
# one simulated worker death (session rebuilt from snapshot), and one
# poisoned delta. The storm binary does its own gating and exits
# non-zero on any panic, any request served past its deadline without a
# degraded/shed outcome, a served p99 over the deadline budget, or a
# fault that failed to land (see crates/bench/src/bin/storm.rs).
if ! STORM_MODE=smoke STORM_JSON= ./target/release/storm; then
    echo "tier1: service smoke FAILED" >&2
    exit 1
fi
echo "tier1: service smoke OK"

echo "== tier1: scale smoke (4-building campus, decomposed, 30 s budget) =="
# The city-scale bench in smoke mode runs only the small campus: a
# spatially decomposed solve (one-shot gateway choice + spanning-tree
# backbone routes + zone MILPs in parallel + stitch) whose stitched design
# must re-verify on the full un-partitioned instance and land within
# SCALE_SMOKE_GAP (10%) of the monolithic resilient-ladder baseline. The
# binary gates itself and exits non-zero on a missing/unverified design or
# an excessive gap.
SCALE_SMOKE_JSON="$(mktemp)"
trap 'rm -f "$T3_SMOKE_JSON" "$DUR_FRAME" "$DUR_FRAME.prev" "$DUR_FRAME.tmp" "$SCALE_SMOKE_JSON"' EXIT
if ! SCALE_MODE=smoke SCALE_JSON="$SCALE_SMOKE_JSON" \
    cargo run --release -q -p bench --bin scale; then
    echo "tier1: scale smoke FAILED" >&2
    exit 1
fi
echo "tier1: scale smoke OK"

echo "tier1: OK"
