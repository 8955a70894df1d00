#!/bin/sh
# SIGINT smoke test for the rtl2uspec CLI: a cold run at --jobs 2 that
# gets SIGINT half a second in must stop through the engine's stop flag
# (EngineOptions::stop), still write its model and run report, report
# undetermined SVAs and exit 5. A CLI that does not hand its signal
# flag to the engine runs to the end with no Unknowns and fails.
#
# usage: cli_rtl2uspec_sigint.sh BUILD_DIR SOURCE_DIR
set -eu

D=$2/designs
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

"$1/tools/rtl2uspec" --top multi_vscale --meta "$D/vscale.meta" \
    -P XLEN=8 -P PC_BITS=6 -P NREGS=8 -P REG_BITS=3 \
    -P IMEM_WORDS=16 -P IMEM_ABITS=4 --jobs 2 \
    --report "$TMP/report.json" --out "$TMP/model.uarch" \
    "$D/multi_vscale.v" "$D/vscale_core.v" "$D/vscale_mem.v" \
    "$D/vscale_arbiter.v" 2>"$TMP/err.log" &
pid=$!
sleep 0.5
kill -INT "$pid"
status=0
wait "$pid" || status=$?

cat "$TMP/err.log"
test "$status" -eq 5
grep -q '"unknown_svas":[1-9]' "$TMP/report.json"
test -s "$TMP/model.uarch"
grep -q 'interrupted' "$TMP/err.log"
