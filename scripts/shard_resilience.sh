#!/bin/sh
# Distributed shard resilience check, run in CI and locally:
#
#  1. Run an uninterrupted single-process sweep with a checkpoint and
#     keep its journal + result JSON as the ground truth.
#  2. Run the same grid through `--coordinate` on a unix socket with
#     three workers: one armed with deterministic stall faults (the
#     straggler), one SIGKILLed mid-run (the lost worker), one clean.
#     SIGTERM the coordinator mid-run and require a graceful drain:
#     exit 5 and a manifest that records the interrupt.
#  3. Relaunch the coordinator with --resume and two fresh workers and
#     require the final journal AND result JSON to be byte-identical
#     to the uninterrupted single-process run.
#  4. Run a coordinator against a worker whose every reply tears
#     mid-frame (reply-tear=1.0): the survivor must still finish the
#     grid with the baseline answer.
#  5. vrc-merge: partial journals split from the baseline merge back
#     -- in any input order -- to the canonical original; a
#     relabelled (conflicting) line is refused with exit 6.
#
# Usage: shard_resilience.sh <path-to-vrc-sim> <path-to-vrc-merge> [scale]
set -eu

SIM=${1:?usage: shard_resilience.sh <vrc-sim> <vrc-merge> [scale]}
MERGE=${2:?usage: shard_resilience.sh <vrc-sim> <vrc-merge> [scale]}
SCALE=${3:-0.01}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

# Wait until the journal at $1 has at least $2 completed cell lines,
# or the process $3 exits. Returns 1 if $3 is gone, dies after 60s.
wait_cells() {
    TRIES=0
    while :; do
        DONE=$(grep -c ' end$' "$1" 2>/dev/null || true)
        [ "${DONE:-0}" -ge "$2" ] && return 0
        if ! kill -0 "$3" 2>/dev/null; then
            return 1
        fi
        TRIES=$((TRIES + 1))
        if [ "$TRIES" -gt 600 ]; then
            echo "FAIL: no journal progress after 60s" >&2
            exit 1
        fi
        sleep 0.1
    done
}

echo "== baseline single-process sweep =="
"$SIM" --profile=pops --scale="$SCALE" --sweep --jobs=4 \
    --checkpoint="$WORK/base.ckpt" --out="$WORK/base.json" > /dev/null

echo "== coordinated run: straggler + killed worker + SIGTERM =="
"$SIM" --profile=pops --scale="$SCALE" --coordinate \
    --listen-unix="$WORK/coord.sock" --shard-cells=1 \
    --deadline=0.5 --max-retries=10 \
    --checkpoint="$WORK/dist.ckpt" --manifest="$WORK/dist.manifest" \
    --out="$WORK/dist.json" > "$WORK/coord.log" 2>&1 &
CO=$!
TRIES=0
while [ ! -S "$WORK/coord.sock" ]; do
    kill -0 "$CO" 2>/dev/null || {
        echo "FAIL: coordinator died before binding" >&2
        cat "$WORK/coord.log" >&2
        exit 1
    }
    TRIES=$((TRIES + 1))
    [ "$TRIES" -gt 100 ] && {
        echo "FAIL: no coordinator socket after 10s" >&2
        exit 1
    }
    sleep 0.1
done
# w1: clean survivor.  w2: will be SIGKILLed.  w3: deterministic
# stalls, long enough that the 0.5 s deadline fires and the range is
# speculatively re-dispatched to a live worker.
"$SIM" --shard-worker --connect-unix="$WORK/coord.sock" \
    --worker-name=w1 --heartbeat=0.1 > "$WORK/w1.log" 2>&1 &
W1=$!
"$SIM" --shard-worker --connect-unix="$WORK/coord.sock" \
    --worker-name=w2 --heartbeat=0.1 > "$WORK/w2.log" 2>&1 &
W2=$!
"$SIM" --shard-worker --connect-unix="$WORK/coord.sock" \
    --worker-name=w3 --heartbeat=0.1 \
    --inject-faults=seed=5,worker-stall=0.4,stall_ms=2500 \
    > "$WORK/w3.log" 2>&1 &
W3=$!

if wait_cells "$WORK/dist.ckpt" 1 "$CO"; then
    kill -9 "$W2" 2>/dev/null || true
    echo "  SIGKILLed worker w2 with $(grep -c ' end$' \
        "$WORK/dist.ckpt") cells journaled"
fi
FINISHED=0
if wait_cells "$WORK/dist.ckpt" 3 "$CO"; then
    kill -TERM "$CO" 2>/dev/null || FINISHED=1
else
    FINISHED=1
fi
STATUS=0
wait "$CO" || STATUS=$?
wait "$W1" 2>/dev/null || true
wait "$W2" 2>/dev/null || true
wait "$W3" 2>/dev/null || true
if [ "$FINISHED" -eq 1 ] || [ "$STATUS" -eq 0 ]; then
    echo "  (coordinator finished before the signal; resuming anyway)"
else
    if [ "$STATUS" -ne 5 ]; then
        echo "FAIL: drained coordinator exited with $STATUS, want 5" >&2
        cat "$WORK/coord.log" >&2
        exit 1
    fi
    grep -q '"interrupted":true' "$WORK/dist.manifest" || {
        echo "FAIL: manifest does not record the interrupt" >&2
        cat "$WORK/dist.manifest" >&2
        exit 1
    }
    echo "  drained cleanly: exit 5, manifest records the interrupt"
fi

echo "== resume with fresh workers =="
"$SIM" --profile=pops --scale="$SCALE" --coordinate \
    --listen-unix="$WORK/coord.sock" --shard-cells=1 \
    --deadline=5 --max-retries=10 \
    --checkpoint="$WORK/dist.ckpt" --resume \
    --out="$WORK/dist.json" > "$WORK/coord2.log" 2>&1 &
CO=$!
TRIES=0
while [ ! -S "$WORK/coord.sock" ]; do
    kill -0 "$CO" 2>/dev/null && [ "$TRIES" -le 100 ] || break
    TRIES=$((TRIES + 1))
    sleep 0.1
done
"$SIM" --shard-worker --connect-unix="$WORK/coord.sock" \
    --worker-name=r1 > /dev/null 2>&1 &
R1=$!
"$SIM" --shard-worker --connect-unix="$WORK/coord.sock" \
    --worker-name=r2 > /dev/null 2>&1 &
R2=$!
STATUS=0
wait "$CO" || STATUS=$?
wait "$R1" 2>/dev/null || true
wait "$R2" 2>/dev/null || true
if [ "$STATUS" -ne 0 ]; then
    echo "FAIL: resumed coordinator exited with $STATUS" >&2
    cat "$WORK/coord2.log" >&2
    exit 1
fi
cmp -s "$WORK/base.json" "$WORK/dist.json" || {
    echo "FAIL: resumed distributed result differs from baseline" >&2
    diff "$WORK/base.json" "$WORK/dist.json" >&2 || true
    exit 1
}
cmp -s "$WORK/base.ckpt" "$WORK/dist.ckpt" || {
    echo "FAIL: resumed journal differs from baseline journal" >&2
    diff "$WORK/base.ckpt" "$WORK/dist.ckpt" >&2 || true
    exit 1
}
echo "  resumed journal and result are bit-identical to the baseline"

echo "== torn replies: every frame from one worker tears =="
"$SIM" --profile=pops --scale="$SCALE" --coordinate \
    --listen-unix="$WORK/coord.sock" --shard-cells=2 \
    --deadline=5 --max-retries=10 \
    --out="$WORK/tear.json" > "$WORK/coord3.log" 2>&1 &
CO=$!
TRIES=0
while [ ! -S "$WORK/coord.sock" ]; do
    kill -0 "$CO" 2>/dev/null && [ "$TRIES" -le 100 ] || break
    TRIES=$((TRIES + 1))
    sleep 0.1
done
"$SIM" --shard-worker --connect-unix="$WORK/coord.sock" \
    --worker-name=torn \
    --inject-faults=seed=3,reply-tear=1.0 > /dev/null 2>&1 &
T1=$!
"$SIM" --shard-worker --connect-unix="$WORK/coord.sock" \
    --worker-name=survivor > /dev/null 2>&1 &
T2=$!
STATUS=0
wait "$CO" || STATUS=$?
wait "$T1" 2>/dev/null || true
wait "$T2" 2>/dev/null || true
if [ "$STATUS" -ne 0 ]; then
    echo "FAIL: coordinator exited with $STATUS despite a survivor" >&2
    cat "$WORK/coord3.log" >&2
    exit 1
fi
cmp -s "$WORK/base.json" "$WORK/tear.json" || {
    echo "FAIL: result after torn replies differs from baseline" >&2
    exit 1
}
echo "  survivor completed the grid with the baseline answer"

echo "== vrc-merge: shuffled partials and a conflicting line =="
# The journal's second line reads "key <hex> cells <N>": split its N
# cell lines (3 .. N+2) into the first three cells and the rest.
CELLS=$(sed -n '2s/.* cells //p' "$WORK/base.ckpt")
head -2 "$WORK/base.ckpt" > "$WORK/a.ckpt"
head -2 "$WORK/base.ckpt" > "$WORK/b.ckpt"
sed -n '3,5p' "$WORK/base.ckpt" >> "$WORK/a.ckpt"
sed -n "6,$((CELLS + 2))p" "$WORK/base.ckpt" >> "$WORK/b.ckpt"
"$MERGE" --out="$WORK/merged.ckpt" "$WORK/b.ckpt" "$WORK/a.ckpt" \
    > /dev/null
cmp -s "$WORK/base.ckpt" "$WORK/merged.ckpt" || {
    echo "FAIL: merged journal differs from the original" >&2
    diff "$WORK/base.ckpt" "$WORK/merged.ckpt" >&2 || true
    exit 1
}
# Relabel a cell line: same key, same grid, conflicting content.
sed 's/^cell 1 /cell 0 /' "$WORK/a.ckpt" > "$WORK/tamper.ckpt"
STATUS=0
"$MERGE" --out="$WORK/bad.ckpt" "$WORK/tamper.ckpt" "$WORK/b.ckpt" \
    > /dev/null 2>&1 || STATUS=$?
if [ "$STATUS" -ne 6 ]; then
    echo "FAIL: conflicting merge exited with $STATUS, want 6" >&2
    exit 1
fi
echo "  merge is order-independent; conflicts refused with exit 6"

echo "shard resilience: OK"
