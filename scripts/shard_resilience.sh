#!/bin/sh
# Distributed shard resilience check, run in CI and locally:
#
#  1. Run an uninterrupted single-process sweep with a checkpoint and
#     keep its journal + result JSON as the ground truth.
#  2. Run the same grid through `--coordinate` on three `--serve`
#     processes: one armed with deterministic stall faults (the
#     straggler), one SIGKILLed mid-run (the lost server), one clean.
#     SIGTERM the coordinator mid-run and require a graceful drain:
#     exit 5 and a manifest that records the interrupt.
#  3. Relaunch the coordinator with --resume on two fresh servers, the
#     first stalling every cell, and require its cell to be speculated
#     onto the second and the final journal AND result JSON to be
#     byte-identical to the uninterrupted single-process run.
#  4. Run a coordinator against a server whose every reply tears
#     mid-frame (tear=1.0): the survivor must still finish the grid
#     with the baseline answer.
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
PIDS=""
trap 'kill -9 $PIDS 2>/dev/null || true; rm -rf "$WORK"' EXIT

# Start a server on the unix socket $WORK/$1.sock with any further
# flags, logging to $WORK/$1.log, and wait for its socket. Its pid
# lands in $SERVER.
start_server() {
    NAME=$1
    shift
    "$SIM" --serve --listen-unix="$WORK/$NAME.sock" "$@" \
        > "$WORK/$NAME.log" 2>&1 &
    SERVER=$!
    PIDS="$PIDS $SERVER"
    TRIES=0
    while [ ! -S "$WORK/$NAME.sock" ]; do
        kill -0 "$SERVER" 2>/dev/null || {
            echo "FAIL: server $NAME died before binding" >&2
            cat "$WORK/$NAME.log" >&2
            exit 1
        }
        TRIES=$((TRIES + 1))
        [ "$TRIES" -gt 100 ] && {
            echo "FAIL: no socket for server $NAME after 10s" >&2
            exit 1
        }
        sleep 0.1
    done
}

# SIGTERM the servers with pids $@, every one still running, and reap
# them (a drained server exits 5; a SIGKILLed one is already gone).
stop_servers() {
    for P in "$@"; do
        kill -TERM "$P" 2>/dev/null || true
    done
    for P in "$@"; do
        wait "$P" 2>/dev/null || true
    done
    PIDS=""
}

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

echo "== coordinated run: straggler + killed server + SIGTERM =="
# w1: clean survivor.  w2: will be SIGKILLed.  w3: deterministic
# stalls, long enough that the 0.5 s deadline fires and the cell is
# speculatively re-dispatched to a live server.
start_server w1
W1=$SERVER
start_server w2
W2=$SERVER
start_server w3 --inject-faults=seed=5,stall=0.4,stall_ms=2500
W3=$SERVER
"$SIM" --profile=pops --scale="$SCALE" --coordinate \
    --connect-unix="$WORK/w1.sock,$WORK/w2.sock,$WORK/w3.sock" \
    --deadline=0.5 --max-retries=10 \
    --checkpoint="$WORK/dist.ckpt" --manifest="$WORK/dist.manifest" \
    --out="$WORK/dist.json" > "$WORK/coord.log" 2>&1 &
CO=$!

if wait_cells "$WORK/dist.ckpt" 1 "$CO"; then
    kill -9 "$W2" 2>/dev/null || true
    echo "  SIGKILLed server w2 with $(grep -c ' end$' \
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
stop_servers "$W1" "$W2" "$W3"
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

echo "== resume on fresh servers, one a certain straggler =="
# r1 stalls every cell it is given and is dialled first, so the first
# missing cell goes to it and must be speculated onto r2.
start_server r1 --inject-faults=seed=5,stall=1.0,stall_ms=2500
R1=$SERVER
start_server r2
R2=$SERVER
STATUS=0
"$SIM" --profile=pops --scale="$SCALE" --coordinate \
    --connect-unix="$WORK/r1.sock,$WORK/r2.sock" \
    --deadline=0.5 --max-retries=10 \
    --checkpoint="$WORK/dist.ckpt" --resume \
    --out="$WORK/dist.json" > "$WORK/coord2.log" 2>&1 || STATUS=$?
stop_servers "$R1" "$R2"
if [ "$STATUS" -ne 0 ]; then
    echo "FAIL: resumed coordinator exited with $STATUS" >&2
    cat "$WORK/coord2.log" >&2
    exit 1
fi
grep -q 'is a straggler on cell' "$WORK/coord2.log" || {
    echo "FAIL: the stalled cell was not speculated onto r2" >&2
    cat "$WORK/coord2.log" >&2
    exit 1
}
echo "  the straggler's cell was speculated onto the other server"
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

echo "== torn replies: every frame from one server tears =="
start_server torn --inject-faults=seed=3,tear=1.0
T1=$SERVER
start_server survivor
T2=$SERVER
STATUS=0
"$SIM" --profile=pops --scale="$SCALE" --coordinate \
    --connect-unix="$WORK/torn.sock,$WORK/survivor.sock" \
    --deadline=5 --max-retries=10 \
    --out="$WORK/tear.json" > "$WORK/coord3.log" 2>&1 || STATUS=$?
stop_servers "$T1" "$T2"
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
