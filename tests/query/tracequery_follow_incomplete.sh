#!/usr/bin/env bash
# tracequery --follow must not pass a cut-off stream off as a final
# table. A stream of Hello + Events + Bye exits 0; the same frames
# without Bye (an evicted follower, a FIFO writer that died) print the
# same rows but exit 1, with one stderr line saying the table is
# incomplete.
#
# Usage: tracequery_follow_incomplete.sh <path to tracequery>
set -eu
tracequery=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
python3 - "$dir" <<'PY'
import struct
import sys

out = sys.argv[1]
# Live wire frames (src/live/wire.hh), native little-endian fields.
hello = b"H" + struct.pack("<I", 5) + b"alpha" + struct.pack("<QB", 7, 0)
# 24-byte records: u64 ts, u32 param, u32 stream, u16 token, u8 flags.
records = b"".join(
    struct.pack("<QIIHB5x", 100 * (i + 1), i, i % 3, 0x0101 + i % 2, 0)
    for i in range(12))
events = b"E" + struct.pack("<I", 12) + records
with open(out + "/complete.wire", "wb") as f:
    f.write(hello + events + b"B")
with open(out + "/cut.wire", "wb") as f:
    f.write(hello + events)
PY

"$tracequery" count --follow "$dir/complete.wire" > "$dir/complete.out"
[ -s "$dir/complete.out" ]

status=0
"$tracequery" count --follow "$dir/cut.wire" \
    > "$dir/cut.out" 2> "$dir/cut.err" || status=$?
if [ "$status" -ne 1 ]; then
    echo "stream without Bye exited $status, want 1" >&2
    exit 1
fi
cmp "$dir/complete.out" "$dir/cut.out"
grep -q "incomplete" "$dir/cut.err"
[ "$(wc -l < "$dir/cut.err")" -eq 1 ]
