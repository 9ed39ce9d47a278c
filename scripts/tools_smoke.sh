#!/usr/bin/env bash
# tools_smoke.sh — end-to-end smoke test of the command-line tools that no
# other smoke runs.
#
#   1. parrotscope attaches the whole probe suite, and its summary.json must
#      match parrotsim -json for the same run byte for byte: probes observe,
#      they never change a result;
#   2. parrotbench -simbench must print one JSON report carrying the exact
#      kernel work block;
#   3. the examples under examples/ must run to completion.
set -euo pipefail

cd "$(dirname "$0")/.."

dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT

go build -o "$dir" ./cmd/parrotscope ./cmd/parrotsim ./cmd/parrotbench \
  ./examples/quickstart ./examples/optimizer ./examples/customworkload

echo "== parrotscope summary matches parrotsim -json (probes change no result)"
"$dir/parrotscope" -model TON -app swim -n 40000 -out "$dir/scope" > /dev/null
"$dir/parrotsim" -model TON -app swim -n 40000 -json > "$dir/sim.json"
cmp "$dir/scope/summary.json" "$dir/sim.json"

echo "== parrotbench -simbench prints a JSON report with a work block"
"$dir/parrotbench" -simbench -n 5000 > "$dir/simbench.json"
python3 -c 'import json, sys; r = json.load(open(sys.argv[1])); assert isinstance(r.get("work"), dict) and r["work"], "no work block"' \
  "$dir/simbench.json"

echo "== examples"
for ex in quickstart optimizer customworkload; do
  "$dir/$ex" > "$dir/$ex.out"
done

echo "tools smoke: OK"
