#!/usr/bin/env bash
# coverage.sh — the merged gate-coverage map: which code the repository's
# gates actually run.
#
# Runs every gate that exercises production code and merges what each one
# reached into one statement-coverage profile:
#
#   1. tier-1, go test -coverpkg=./... (every package's tests count towards
#      every package);
#   2. with GOFLAGS=-cover and GOCOVERDIR set, so every binary the smokes
#      build or `go run` writes its own coverage counters: the service,
#      overload and cluster smokes, the trace-replay smoke, the exact work
#      gate (parrotbench -checkwork) and the tools smoke;
#   3. go tool covdata textfmt over those counters, concatenated with the
#      tier-1 profile (go tool cover merges repeated blocks), and
#      go tool cover -func over the result.
#
# It prints the merged statement coverage and the keep-list below. It exits
# 1 when any function reads 0.0% without a keep-list entry (code that no
# gate reaches gets a gate or goes), and when a keep-list entry names a
# function that is reached or gone (so the list stays short).
#
# Usage: bash scripts/coverage.sh   (~1 min on 2 CPUs; the tools smoke
#                                    needs python3)
set -euo pipefail

cd "$(dirname "$0")/.."

# Functions no gate runs that stay anyway, as "file:function|reason". The
# file is relative to the module root; the function is the name
# go tool cover -func prints (methods without their receiver).
keep=(
  "cmd/parrotbench/baseline.go:runBaselineCheck|CI's perf regression gate runs it; a wall-clock gate stays out of this map"
  "internal/chaos/chaos.go:Temporary|the temporary-error interface of chaos.InjectedError"
  "internal/chaos/chaos.go:String|fmt.Stringer for chaos.Rule"
  "internal/cluster/ring.go:String|fmt.Stringer for cluster.Ring"
  "internal/core/machine.go:String|fmt.Stringer for core.Machine"
  "internal/core/result.go:String|fmt.Stringer for core.Result"
  "internal/isa/uop.go:String|fmt.Stringer for isa.Inst"
  "internal/serve/client/client.go:Error|the error interface of client.HTTPError"
  "internal/workload/stream.go:Drain|benchmark/ compiles against workload.(*Stream).Drain"
)

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
covdir="$work/covdata"
mkdir -p "$covdir"

echo "== tier-1 (go test -coverpkg=./...)"
go test -count=1 -coverpkg=./... -coverprofile "$work/tier1.out" ./... > "$work/tier1.log" \
  || { cat "$work/tier1.log"; exit 1; }
echo "   $(go tool cover -func "$work/tier1.out" | tail -1)"

echo "== smokes with coverage-instrumented binaries"
(
  export GOFLAGS=-cover GOCOVERDIR="$covdir"
  for smoke in service_smoke overload_smoke cluster_smoke trace_replay_smoke tools_smoke; do
    echo "-- scripts/$smoke.sh"
    "./scripts/$smoke.sh" > "$work/$smoke.log" 2>&1 \
      || { cat "$work/$smoke.log"; exit 1; }
    tail -1 "$work/$smoke.log"
  done
  echo "-- parrotbench -checkwork"
  go run ./cmd/parrotbench -checkwork BENCH_simkernel.json > "$work/checkwork.log" 2>&1 \
    || { cat "$work/checkwork.log"; exit 1; }
)

echo "== merging"
go tool covdata textfmt -i "$covdir" -o "$work/smokes.out"
# Keep only this module's packages: `go run scripts/freeports.go` is
# instrumented too, as command-line-arguments, which cover cannot resolve.
{
  cat "$work/tier1.out"
  grep '^parrot/' "$work/smokes.out"
} > "$work/merged.out"
go tool cover -func "$work/merged.out" > "$work/func.txt"

# func.txt lines read "parrot/<file>:<line>:\t<func>\t<pct>".
mapfile -t zero < <(awk '$NF == "0.0%" { split($1, a, ":"); sub(/^parrot\//, "", a[1]); print a[1] ":" $2 }' "$work/func.txt")
listed() { local x; for x in "${@:2}"; do [[ "$x" == "$1" ]] && return 0; done; return 1; }

status=0
echo
echo "keep-list (0.0% allowed):"
keys=()
for entry in "${keep[@]}"; do
  key="${entry%%|*}"
  keys+=("$key")
  printf '  %-40s %s\n' "$key" "${entry#*|}"
  listed "$key" "${zero[@]}" \
    || { echo "coverage: keep-list entry $key is reached or gone; drop it" >&2; status=1; }
done

echo
echo "merged statement coverage: $(awk '/^total:/ { print $NF }' "$work/func.txt") (tier-1 plus every smoke)"

unreached=()
for fn in "${zero[@]}"; do
  listed "$fn" "${keys[@]}" || unreached+=("$fn")
done
if ((${#unreached[@]})); then
  echo "coverage: ${#unreached[@]} function(s) no gate reaches and the keep-list does not name:" >&2
  printf '  %s\n' "${unreached[@]}" >&2
  status=1
fi
((status == 0)) && echo "coverage: OK"
exit "$status"
