#!/usr/bin/env bash
# Tier-1 gate: everything that must stay green on every commit.
#
#   1. release build of the whole workspace
#   2. the whole workspace test suite (the root `Cargo.toml` sets
#      `default-members` to every crate): determinism, integration,
#      kill-and-resume, fault-injection, cuts, and degradation-ladder tests
#   3. clippy on every target with warnings promoted to errors
#   4. perf smoke: the Table 3 [50/20] row must yield a feasible design
#      within a 30 s solver budget (warns when short of Optimal)
#   5. cuts smoke: root separation must apply cuts on that row and must
#      not degrade the solve status vs cuts-off
#   6. pricing smoke: branch-and-price from a two-candidate seed must
#      price columns on that row and deliver a verified feasible design
#      within the budget; when both sides prove optimality the priced
#      objective must match or beat the plain one (priced bundles
#      recombine link-universe edges into paths the Yen truncation never
#      saw, so the design may beat K* = 10 while the optimality proof
#      over the larger space lags — that regime only warns)
#   7. checkpoint smoke: the [50/20] ckpt_on run must write frames, and
#      its wall-time overhead vs ckpt_off only warns past 5% (wall time
#      swings ~2x run-to-run on this row)
#   8. heuristic smoke: the [50/20] heur_on run gets a 10 s budget and
#      must still deliver a verified feasible design through the LNS +
#      tabu primal engine (LimitFeasible is fine; the engine exists
#      precisely so a truncated run has something good to return), and
#      enabling the engine must not degrade the final status vs heur_off
#   9. durability smoke: a checkpointed [50/20] solve is SIGKILLed
#      mid-search, resumed from its frame, and must deliver a verified
#      design that matches or beats the uninterrupted reference when
#      both prove optimality
#  10. service smoke: a short request storm against the design-session
#      service with seeded clients, injected mid-request cancellations,
#      a simulated worker death, and one poisoned delta — the binary
#      itself exits non-zero on any panic, any missed deadline without a
#      degraded/shed outcome, or served p99 over the deadline budget
#  11. scale smoke: a small 4-building campus solved by spatial
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

echo "== tier1: perf smoke (table3 [50/20] row, 30 s budget) =="
# Hard gate: the row must produce a feasible design (an objective) within
# the 30 s solver budget without crashing, going infeasible, or failing
# numerically. Solving all the way to Optimal inside 30 s is the
# aspirational bar, but wall time on this row swings ~2x run-to-run (the
# solver's diving heuristics are wall-clock-windowed; see README
# "Parallel solving"), so non-Optimal only warns.
T3_SMOKE_JSON="$(mktemp)"
trap 'rm -f "$T3_SMOKE_JSON"' EXIT
T3_SKIP_FULL=1 T3_ROWS=1 T3_TL=30 T3_HEUR_TL=10 T3_THREADS= T3_JSON="$T3_SMOKE_JSON" \
    cargo run --release -q -p bench --bin table3
if ! grep -Eq '"kind":"row".*"status":"(Optimal|LimitFeasible)","objective":[0-9]' \
    "$T3_SMOKE_JSON"; then
    echo "tier1: perf smoke FAILED — [50/20] row found no feasible design in 30 s:" >&2
    cat "$T3_SMOKE_JSON" >&2
    exit 1
fi
if ! grep -q '"kind":"row".*"status":"Optimal"' "$T3_SMOKE_JSON"; then
    echo "tier1: perf smoke WARNING — [50/20] row feasible but not Optimal in 30 s" >&2
fi

echo "== tier1: cuts smoke ([50/20] row, cuts on vs off) =="
# The table3 run above also emits the cut ablation records. Root
# separation must actually fire on this workload, and enabling cuts must
# not degrade the solve status.
cuts_on_rec="$(grep -o '"kind":"cuts_on"[^}]*' "$T3_SMOKE_JSON")"
cuts_off_rec="$(grep -o '"kind":"cuts_off"[^}]*' "$T3_SMOKE_JSON")"
applied="$(echo "$cuts_on_rec" | sed -n 's/.*"cuts_applied":\([0-9]*\).*/\1/p')"
if [ -z "${applied:-}" ] || [ "$applied" -eq 0 ]; then
    echo "tier1: cuts smoke FAILED — no cuts applied on the [50/20] row:" >&2
    echo "$cuts_on_rec" >&2
    exit 1
fi
status_rank() {
    case "$1" in
        Optimal) echo 2 ;;
        LimitFeasible) echo 1 ;;
        *) echo 0 ;;
    esac
}
on_status="$(echo "$cuts_on_rec" | sed -n 's/.*"status":"\([A-Za-z]*\)".*/\1/p')"
off_status="$(echo "$cuts_off_rec" | sed -n 's/.*"status":"\([A-Za-z]*\)".*/\1/p')"
if [ "$(status_rank "$on_status")" -lt "$(status_rank "$off_status")" ]; then
    echo "tier1: cuts smoke FAILED — cuts-on status $on_status worse than cuts-off $off_status" >&2
    exit 1
fi
echo "tier1: cuts smoke OK ($applied cuts applied, $on_status vs $off_status)"

echo "== tier1: pricing smoke ([50/20] row, branch-and-price from K*=2) =="
# The same table3 run also emits the pricing ablation records. The
# dual-driven path oracle must actually price columns on this workload (a
# two-candidate seed is not optimal on its own), pricing must not degrade
# the solve status vs the plain K*=10 encoding, and when both sides prove
# optimality the priced objective must match or beat the plain one —
# branch-and-price recovers what the truncation dropped and may improve
# on it by recombining link-universe edges into unseen paths (table3
# independently re-verifies every priced design before recording it).
pr_on_rec="$(grep -o '"kind":"pricing_on"[^}]*' "$T3_SMOKE_JSON")"
pr_off_rec="$(grep -o '"kind":"pricing_off"[^}]*' "$T3_SMOKE_JSON")"
priced="$(echo "$pr_on_rec" | sed -n 's/.*"cols_priced":\([0-9]*\).*/\1/p')"
if [ -z "${priced:-}" ] || [ "$priced" -eq 0 ]; then
    echo "tier1: pricing smoke FAILED — no columns priced on the [50/20] row:" >&2
    echo "$pr_on_rec" >&2
    exit 1
fi
pron_status="$(echo "$pr_on_rec" | sed -n 's/.*"status":"\([A-Za-z]*\)".*/\1/p')"
proff_status="$(echo "$pr_off_rec" | sed -n 's/.*"status":"\([A-Za-z]*\)".*/\1/p')"
pron_obj="$(echo "$pr_on_rec" | sed -n 's/.*"objective":\([0-9.eE+-]*\).*/\1/p')"
proff_obj="$(echo "$pr_off_rec" | sed -n 's/.*"objective":\([0-9.eE+-]*\).*/\1/p')"
# The priced side must deliver *a* verified design within the budget
# (table3 aborts on any design that fails independent re-verification).
if [ -z "${pron_obj:-}" ]; then
    echo "tier1: pricing smoke FAILED — pricing_on produced no feasible design (status $pron_status):" >&2
    echo "$pr_on_rec" >&2
    exit 1
fi
# When both sides prove optimality, match-or-beat is a hard guarantee.
# Under the 30 s smoke budget the priced model — which optimizes over a
# strictly larger path space — often cannot finish its proof while the
# plain K* = 10 encoding can, and its incumbent at the cutoff is
# trajectory-dependent; that regime only warns (the deterministic
# small-instance tests in crates/core pin the match-or-beat guarantee).
if [ "$pron_status" = "Optimal" ] && [ "$proff_status" = "Optimal" ]; then
    if ! awk -v a="$pron_obj" -v b="$proff_obj" \
        'BEGIN { exit !(a <= b + 1e-4 * (1 + (b < 0 ? -b : b))) }'; then
        echo "tier1: pricing smoke FAILED — pricing_on objective $pron_obj worse than pricing_off $proff_obj" >&2
        exit 1
    fi
elif [ "$(status_rank "$pron_status")" -lt "$(status_rank "$proff_status")" ]; then
    echo "tier1: pricing smoke WARNING — pricing_on status $pron_status (obj $pron_obj) vs pricing_off $proff_status (obj ${proff_obj:-none}) within the smoke budget" >&2
fi
echo "tier1: pricing smoke OK ($priced cols priced, $pron_status vs $proff_status)"

echo "== tier1: checkpoint smoke ([50/20] row, ckpt on vs off) =="
# The table3 run also emits the checkpoint ablation records. Frames must
# actually be written at the 250 ms cadence, and enabling checkpointing
# must not degrade the solve status. The < 5% wall-overhead acceptance
# bar only warns here — wall time on this row swings ~2x run-to-run, so
# a hard gate would flap; BENCH_solver.json records the numbers for the
# deterministic EXPERIMENTS.md ablation.
ck_on_rec="$(grep -o '"kind":"ckpt_on"[^}]*' "$T3_SMOKE_JSON")"
ck_off_rec="$(grep -o '"kind":"ckpt_off"[^}]*' "$T3_SMOKE_JSON")"
frames="$(echo "$ck_on_rec" | sed -n 's/.*"checkpoints_written":\([0-9]*\).*/\1/p')"
if [ -z "${frames:-}" ] || [ "$frames" -eq 0 ]; then
    echo "tier1: checkpoint smoke FAILED — no frames written on the [50/20] row:" >&2
    echo "$ck_on_rec" >&2
    exit 1
fi
ckon_status="$(echo "$ck_on_rec" | sed -n 's/.*"status":"\([A-Za-z]*\)".*/\1/p')"
ckoff_status="$(echo "$ck_off_rec" | sed -n 's/.*"status":"\([A-Za-z]*\)".*/\1/p')"
if [ "$(status_rank "$ckon_status")" -lt "$(status_rank "$ckoff_status")" ]; then
    echo "tier1: checkpoint smoke FAILED — ckpt_on status $ckon_status worse than ckpt_off $ckoff_status" >&2
    exit 1
fi
ckon_wall="$(echo "$ck_on_rec" | sed -n 's/.*"wall_s":\([0-9.eE+-]*\).*/\1/p')"
ckoff_wall="$(echo "$ck_off_rec" | sed -n 's/.*"wall_s":\([0-9.eE+-]*\).*/\1/p')"
if ! awk -v on="$ckon_wall" -v off="$ckoff_wall" 'BEGIN { exit !(on <= off * 1.05) }'; then
    echo "tier1: checkpoint smoke WARNING — ckpt_on wall $ckon_wall s vs ckpt_off $ckoff_wall s (> 5% overhead)" >&2
fi
echo "tier1: checkpoint smoke OK ($frames frames written, $ckon_status vs $ckoff_status)"

echo "== tier1: heuristic smoke ([50/20] row, LNS engine under a 10 s budget) =="
# The table3 run also emits the anytime-heuristics ablation records,
# solved under T3_HEUR_TL=10 — far too little for this row's optimality
# proof, which is the point: the LNS + tabu engine must still hand back
# a verified feasible design (table3 aborts on any design that fails
# independent re-verification, so an objective in the record *is* a
# verified design), and turning the engine on must never degrade the
# final status vs heur_off.
heur_on_rec="$(grep -o '"kind":"heur_on"[^}]*' "$T3_SMOKE_JSON")"
heur_off_rec="$(grep -o '"kind":"heur_off"[^}]*' "$T3_SMOKE_JSON")"
hon_status="$(echo "$heur_on_rec" | sed -n 's/.*"status":"\([A-Za-z]*\)".*/\1/p')"
hoff_status="$(echo "$heur_off_rec" | sed -n 's/.*"status":"\([A-Za-z]*\)".*/\1/p')"
hon_obj="$(echo "$heur_on_rec" | sed -n 's/.*"objective":\([0-9.eE+-]*\).*/\1/p')"
hon_1pct="$(echo "$heur_on_rec" | sed -n 's/.*"time_to_within_1pct_s":\([0-9.eE+-]*\).*/\1/p')"
if [ -z "${hon_obj:-}" ]; then
    echo "tier1: heuristic smoke FAILED — heur_on found no feasible design in 10 s (status $hon_status):" >&2
    echo "$heur_on_rec" >&2
    exit 1
fi
if [ "$(status_rank "$hon_status")" -lt "$(status_rank "$hoff_status")" ]; then
    echo "tier1: heuristic smoke FAILED — heur_on status $hon_status worse than heur_off $hoff_status" >&2
    exit 1
fi
echo "tier1: heuristic smoke OK (heur_on $hon_status obj $hon_obj, within-1% ${hon_1pct:-n/a} s, vs heur_off $hoff_status)"

echo "== tier1: durability smoke (SIGKILL mid-search, resume from frame) =="
# A checkpointed [50/20] solve is killed hard a few seconds in — exactly
# the failure the subsystem exists for — then resumed from its last
# durable frame. The resume must (a) actually continue from the frame,
# (b) deliver a design that survives independent re-verification, and
# (c) match or beat the uninterrupted reference when both prove
# optimality (a resumed search explores the identical node space).
DUR_FRAME="$(mktemp -u).frame"
trap 'rm -f "$T3_SMOKE_JSON" "$DUR_FRAME" "$DUR_FRAME.prev" "$DUR_FRAME.tmp"' EXIT
# The victim is exec'd directly (not through `cargo run`) so the SIGKILL
# hits the solver process itself.
cargo build --release -q -p bench --bin durability
ref_line="$(DUR_MODE=reference DUR_TL=60 ./target/release/durability | grep '^DUR ')"
DUR_MODE=victim DUR_TL=120 DUR_CKPT="$DUR_FRAME" ./target/release/durability &
victim_pid=$!
sleep 5
kill -9 "$victim_pid" 2>/dev/null || true
wait "$victim_pid" 2>/dev/null || true
if [ ! -f "$DUR_FRAME" ]; then
    echo "tier1: durability smoke FAILED — the killed victim left no frame at $DUR_FRAME" >&2
    exit 1
fi
res_line="$(DUR_MODE=resume DUR_TL=60 DUR_CKPT="$DUR_FRAME" ./target/release/durability | grep '^DUR ')"
echo "  reference: $ref_line"
echo "  resumed:   $res_line"
case "$res_line" in
    *"resumed=true"*) ;;
    *)
        echo "tier1: durability smoke FAILED — the resume run fell back to a cold solve" >&2
        exit 1 ;;
esac
case "$res_line" in
    *"verified=ok"*) ;;
    *)
        echo "tier1: durability smoke FAILED — resumed run produced no verified design" >&2
        exit 1 ;;
esac
ref_status="$(echo "$ref_line" | sed -n 's/.*status=\([A-Za-z]*\).*/\1/p')"
res_status="$(echo "$res_line" | sed -n 's/.*status=\([A-Za-z]*\).*/\1/p')"
ref_obj="$(echo "$ref_line" | sed -n 's/.*objective=\([0-9.eE+-]*\).*/\1/p')"
res_obj="$(echo "$res_line" | sed -n 's/.*objective=\([0-9.eE+-]*\).*/\1/p')"
if [ "$ref_status" = "Optimal" ] && [ "$res_status" = "Optimal" ]; then
    if ! awk -v a="$res_obj" -v b="$ref_obj" \
        'BEGIN { exit !(a <= b + 1e-4 * (1 + (b < 0 ? -b : b))) }'; then
        echo "tier1: durability smoke FAILED — resumed objective $res_obj worse than reference $ref_obj" >&2
        exit 1
    fi
elif [ "$(status_rank "$res_status")" -lt "$(status_rank "$ref_status")" ]; then
    echo "tier1: durability smoke WARNING — resumed status $res_status vs reference $ref_status within the smoke budget" >&2
fi
echo "tier1: durability smoke OK (resumed $res_status obj ${res_obj:-none} vs reference $ref_status obj ${ref_obj:-none})"

echo "== tier1: service smoke (fault-injected request storm) =="
# 24 seeded clients x 3 rounds of typed spec deltas against the
# design-session service, with two injected mid-request cancellations,
# one simulated worker death (session rebuilt from snapshot), and one
# poisoned delta. The storm binary does its own gating and exits
# non-zero on any panic, any request served past its deadline without a
# degraded/shed outcome, a served p99 over the deadline budget, or a
# fault that failed to land (see crates/bench/src/bin/storm.rs).
cargo build --release -q -p bench --bin storm
if ! STORM_MODE=smoke STORM_JSON= ./target/release/storm; then
    echo "tier1: service smoke FAILED" >&2
    exit 1
fi
echo "tier1: service smoke OK"

echo "== tier1: scale smoke (4-building campus, decomposed, 30 s budget) =="
# The city-scale bench in smoke mode runs only the small campus: a
# spatially decomposed solve (one-shot gateway choice + zone MILPs in
# parallel + backbone stitch) whose stitched design must re-verify on the full
# un-partitioned instance and land within SCALE_SMOKE_GAP (10%) of the
# monolithic resilient-ladder baseline. The binary gates itself and
# exits non-zero on a missing/unverified design or an excessive gap.
SCALE_SMOKE_JSON="$(mktemp)"
trap 'rm -f "$T3_SMOKE_JSON" "$DUR_FRAME" "$DUR_FRAME.prev" "$DUR_FRAME.tmp" "$SCALE_SMOKE_JSON"' EXIT
if ! SCALE_MODE=smoke SCALE_JSON="$SCALE_SMOKE_JSON" \
    cargo run --release -q -p bench --bin scale; then
    echo "tier1: scale smoke FAILED" >&2
    exit 1
fi
echo "tier1: scale smoke OK"

echo "tier1: OK"
