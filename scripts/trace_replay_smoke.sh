#!/usr/bin/env bash
# trace_replay_smoke.sh — the trace-file path changes no result.
#
# Captures a 500k-instruction gcc stream with tracegen, replays it with
# parrotsim -tracefile, and requires the -json report to match the direct
# run of the same budget byte for byte: the CLI's trace-file path, chunked
# recording included, is bit-exact.
set -euo pipefail

cd "$(dirname "$0")/.."

dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT

go build -o "$dir" ./cmd/tracegen ./cmd/parrotsim
"$dir/tracegen" -app gcc -n 500000 -o "$dir/gcc.ptrace" > /dev/null
"$dir/parrotsim" -model TOS -tracefile "$dir/gcc.ptrace" -json > "$dir/file.json"
"$dir/parrotsim" -model TOS -app gcc -n 500000 -json > "$dir/direct.json"
cmp "$dir/file.json" "$dir/direct.json"

echo "trace replay smoke: OK"
