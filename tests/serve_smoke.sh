#!/bin/sh
# Crash-recovery smoke test for rtl2uspec_serve (ISSUE 10): start the
# daemon, hit it with 4 concurrent clients, SIGKILL it mid-flight,
# restart on the same state dir, re-issue, and require the resulting
# .uarch to be byte-identical (cmp) to a single-process cold run.
# Finishes with a SIGTERM graceful-drain exit-code assert.
#
# usage: serve_smoke.sh BUILD_DIR SOURCE_DIR
set -eu

BUILD=$1
SRC=$2
SERVE=$BUILD/tools/rtl2uspec_serve
RTL=$BUILD/tools/rtl2uspec

TMP=$(mktemp -d)
trap 'kill -9 "$daemon_pid" 2>/dev/null || true; rm -rf "$TMP"' EXIT
daemon_pid=

SOCK=$TMP/daemon.sock
STATE=$TMP/state
D=$SRC/designs

# --- reference: single-process cold run through the plain CLI ---
"$RTL" --top multi_vscale --meta "$D/vscale.meta" \
    -P XLEN=8 -P PC_BITS=6 -P NREGS=8 -P REG_BITS=3 \
    -P IMEM_WORDS=16 -P IMEM_ABITS=4 \
    --out "$TMP/ref.uarch" --quiet \
    "$D/multi_vscale.v" "$D/vscale_core.v" "$D/vscale_mem.v" \
    "$D/vscale_arbiter.v"

request() {
    # $1 = output model path
    cat <<EOF
{"type":"synthesize","top":"multi_vscale","meta":"$D/vscale.meta",
 "files":["$D/multi_vscale.v","$D/vscale_core.v","$D/vscale_mem.v",
          "$D/vscale_arbiter.v"],
 "params":{"XLEN":8,"PC_BITS":6,"NREGS":8,"REG_BITS":3,
           "IMEM_WORDS":16,"IMEM_ABITS":4},
 "jobs":1,"out":"$1"}
EOF
}

start_daemon() {
    "$SERVE" --socket "$SOCK" --state "$STATE" --workers 2 \
        >"$TMP/daemon.log" 2>&1 &
    daemon_pid=$!
    # Wait until the daemon answers a ping.
    ok=0
    for _ in $(seq 1 100); do
        if "$SERVE" --connect "$SOCK" --json '{"type":"ping"}' \
            --attempts 1 >/dev/null 2>&1; then
            ok=1
            break
        fi
        sleep 0.1
    done
    [ "$ok" -eq 1 ] || { echo "daemon never answered on $SOCK"; exit 1; }
}

echo "== phase 1: daemon + 4 concurrent clients, then kill -9 =="
start_daemon

pids=
for i in 1 2 3 4; do
    request "$TMP/m$i.uarch" | \
        "$SERVE" --connect "$SOCK" --json - --attempts 2 \
        >"$TMP/client$i.json" 2>"$TMP/client$i.err" &
    pids="$pids $!"
done

# SIGKILL the daemon mid-campaign: no drain, no fsync beyond what each
# verdict append already did. In-flight clients may fail; that's the
# point.
sleep 3
kill -9 "$daemon_pid" 2>/dev/null || true
wait "$daemon_pid" 2>/dev/null || true
for p in $pids; do wait "$p" 2>/dev/null || true; done

echo "== phase 2: restart on the same state dir, re-issue =="
start_daemon

request "$TMP/recovered.uarch" | \
    "$SERVE" --connect "$SOCK" --json - >"$TMP/recovered.json"
grep -q '"ok":true' "$TMP/recovered.json" || {
    echo "re-issued request failed:"; cat "$TMP/recovered.json"
    exit 1
}

# The acceptance bar: kill -9 cost only in-flight queries, and the
# recovered model is byte-identical to the cold single-process run.
cmp "$TMP/ref.uarch" "$TMP/recovered.uarch" || {
    echo "recovered model differs from the cold reference"; exit 1
}
echo "recovered model is byte-identical to the cold run"
# A restart that ignored its state dir would pass the cmp too. The
# cache is the daemon's only store, and the first verdicts were
# fsync'd to it well before the kill, so the re-issued request must
# have been answered from it.
grep -q '"cache_hits":[1-9]' "$TMP/recovered.json" || {
    echo "restarted daemon answered nothing from its cache:"
    cat "$TMP/recovered.json"; exit 1
}
echo "restarted daemon answered from its verdict cache"

echo "== phase 3: SIGTERM graceful drain must exit 0 =="
kill -TERM "$daemon_pid"
rc=0
wait "$daemon_pid" || rc=$?
[ "$rc" -eq 0 ] || { echo "drain exited $rc, want 0"; exit 1; }
[ ! -S "$SOCK" ] || { echo "socket not unlinked after drain"; exit 1; }
daemon_pid=

echo "serve_smoke: OK"
