#!/usr/bin/env bash
# tracequery --format json must print one valid JSON document whatever
# the trace file is called: the header's "path" is a JSON string, so
# quotes, backslashes and control bytes in the name are escaped.
#
# Usage: tracequery_json_path.sh <path to tracequery>
set -eu
tracequery=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
trace=$(printf '%s/a"b\\c\tname.smtr' "$dir")
# An empty .smtr v2 trace: magic, version 2, seed 7, no records.
printf 'SMTR\002\000\000\000\007\000\000\000\000\000\000\000' > "$trace"
printf '\000\000\000\000\000\000\000\000' >> "$trace"
"$tracequery" --format json count "$trace" > "$dir/out.json"
python3 - "$dir/out.json" "$trace" <<'PY'
import json
import sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["trace"]["path"] == sys.argv[2], doc["trace"]["path"]
assert doc["trace"]["seed"] == 7, doc["trace"]["seed"]
assert doc["rows"] == [], doc["rows"]
PY
