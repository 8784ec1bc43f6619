#!/bin/sh
# Chaos soak for the simulation service (vrc-sim --serve), run in CI
# and locally -- ideally against an ASan/UBSan build:
#
#  1. Start a server with deterministic service faults armed (dropped
#     responses, torn frames), an aggressive read timeout, and a low
#     quarantine threshold.
#  2. Throw a mixed fleet at it: well-behaved verifying clients plus
#     malformed-frame, mid-segment-disconnect, and slowloris chaos
#     clients, all concurrently.
#  3. Require: every well-behaved segment completes with a summary
#     byte-identical to batch mode, only the malicious clients get
#     quarantined, and a SIGTERM drains the server cleanly (documented
#     exit code, atomic manifest with "drained":true).
#  4. Require the loadgen summary to report latency over exactly the
#     segments it counted ok.
#
# Usage: service_soak.sh <path-to-vrc-sim> <path-to-vrc-loadgen> [scale]
set -eu

SIM=${1:?usage: service_soak.sh <vrc-sim> <vrc-loadgen> [scale]}
GEN=${2:?usage: service_soak.sh <vrc-sim> <vrc-loadgen> [scale]}
SCALE=${3:-0.002}
WORK=$(mktemp -d)
SRV=
cleanup() {
    [ -n "$SRV" ] && kill -9 "$SRV" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

SOCK="$WORK/soak.sock"
MANIFEST="$WORK/soak.manifest"

echo "== start server (faults armed) =="
"$SIM" --serve --listen-unix="$SOCK" --workers=4 \
    --inject-faults=seed=3,drop=0.1,tear=0.05 \
    --read-timeout=1 --quarantine-threshold=2 \
    --deadline=60 --max-retries=2 \
    --manifest="$MANIFEST" > "$WORK/server.log" 2>&1 &
SRV=$!
TRIES=0
while [ ! -S "$SOCK" ]; do
    TRIES=$((TRIES + 1))
    if [ "$TRIES" -gt 100 ]; then
        echo "FAIL: server never bound $SOCK" >&2
        cat "$WORK/server.log" >&2
        exit 1
    fi
    sleep 0.1
done

echo "== chaos mix: 8 good + 2 malformed + 1 disconnect + 1 slowloris =="
GEN_STATUS=0
"$GEN" --connect-unix="$SOCK" --profile=pops --scale="$SCALE" \
    --clients=8 --segments=16 \
    --malformed=2 --disconnect=1 --slowloris=1 \
    --verify --retry=8 --timeout=120 2> "$WORK/loadgen.log" ||
    GEN_STATUS=$?
cat "$WORK/loadgen.log" >&2
if [ "$GEN_STATUS" -ne 0 ]; then
    echo "FAIL: loadgen exited with $GEN_STATUS" >&2
    exit 1
fi

echo "== loadgen must report latency over every ok segment =="
LINE='^loadgen: .*; latency p50=.* p99=.* max=.* ms (n=\([0-9]*\))$'
OK=$(sed -n 's|^loadgen: \([0-9]*\)/.*|\1|p' "$WORK/loadgen.log")
N=$(sed -n "s|$LINE|\\1|p" "$WORK/loadgen.log")
if [ -z "$OK" ] || [ -z "$N" ] || [ "$N" -ne "$OK" ]; then
    echo "FAIL: no latency line whose n equals the ok count ($OK)" >&2
    exit 1
fi

echo "== server must still be alive after the abuse =="
if ! kill -0 "$SRV" 2>/dev/null; then
    echo "FAIL: server died during the soak" >&2
    cat "$WORK/server.log" >&2
    exit 1
fi

echo "== SIGTERM: graceful drain =="
kill -TERM "$SRV"
STATUS=0
wait "$SRV" || STATUS=$?
SRV=
if [ "$STATUS" -ne 5 ]; then
    echo "FAIL: drain exited with $STATUS, want 5 (interrupted)" >&2
    cat "$WORK/server.log" >&2
    exit 1
fi
[ -f "$MANIFEST" ] || {
    echo "FAIL: no service manifest written" >&2
    exit 1
}
grep -q '"drained":true' "$MANIFEST" || {
    echo "FAIL: manifest does not record a clean drain" >&2
    cat "$MANIFEST" >&2
    exit 1
}

echo "== only the offenders may be quarantined =="
# Both malformed clients cross the threshold; nobody else ever should.
for bad in chaos-mal-0 chaos-mal-1; do
    grep -q "\"$bad\"" "$MANIFEST" || {
        echo "FAIL: $bad not quarantined" >&2
        cat "$MANIFEST" >&2
        exit 1
    }
done
if grep -q '"lg-' "$MANIFEST"; then
    echo "FAIL: a well-behaved client was quarantined" >&2
    cat "$MANIFEST" >&2
    exit 1
fi

sed -n 's/.*"segments":{\([^}]*\)}.*/  segments: \1/p' "$MANIFEST"
echo "service soak: OK"
