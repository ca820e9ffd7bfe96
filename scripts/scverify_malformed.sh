#!/usr/bin/env bash
# Hostile-input driver for the scverify CLI, run under a 512 MiB
# address-space cap: every crafted SCBC image under
# tests/data/scverify_malformed/ and every malformed or out-of-range
# numeric flag must exit 2 with a message on stderr, never on a
# signal; the well-formed ok_*.scbc images must verify clean (exit 0)
# in the same memory. The images are built and pinned by
# ScbcRejection.* in tests/summary_test.cc.
# Run by ctest (see tests/CMakeLists.txt):
#   scverify_malformed.sh <path-to-scverify> <image-dir> <good.scbc>
set -u

scverify=$1
dir=$2
good=$3
fail=0

ulimit -v $((512 * 1024))
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# run <expected exit> <label> <scverify args...>
run() {
    local want=$1 label=$2
    shift 2
    "$scverify" "$@" >"$tmp/out" 2>"$tmp/err"
    local status=$?
    if [ "$status" -ne "$want" ]; then
        echo "FAIL: $label: expected exit $want, got $status"
        cat "$tmp/out" "$tmp/err"
        fail=1
    elif [ "$want" -eq 2 ] && [ ! -s "$tmp/err" ]; then
        echo "FAIL: $label: exit 2 without a message"
        fail=1
    else
        echo "ok: $label -> exit $status"
    fi
}

for f in "$dir"/*.scbc; do
    case "$(basename "$f")" in
      ok_*) run 0 "$f" "$f" ;;
      *) run 2 "$f" "$f" ;;
    esac
done

for flag in "--max-live abc" "--max-live 0" "--sus 0" "--sus 65" \
            "--window 0" "--window 99999999999" "--bandwidth 65537" \
            "--bandwidth -1" "--nested 2"; do
    # Word splitting is intended: each entry is a flag and its value.
    # shellcheck disable=SC2086
    run 2 "$flag" $flag "$good"
done
run 2 "--window without a value" "$good" --window
run 0 "arch bounds" --sus 64 --window 1024 --bandwidth 65536 \
    --nested 0 --max-live 1 "$good"

exit $fail
