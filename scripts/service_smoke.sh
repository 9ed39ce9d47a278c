#!/usr/bin/env bash
# service_smoke.sh — end-to-end smoke test of the serving layer.
#
# Starts parrotd on a random port, drives a small model × application
# matrix through parrotctl twice, and asserts the two service guarantees
# the serving layer makes:
#
#   1. bit-exactness: both passes produce the same canonical matrix digest
#      (-expect-digest), which experiments.Assemble derives exactly as an
#      in-process experiments.Run would;
#   2. cache effectiveness: the second (warm) pass is served ≥95% from the
#      content-addressed cache (-min-cached 0.95) — the steady-state claim
#      of the simulation-as-a-service design.
#
# Then parrotload replays the warm cell set closed-loop and gates the
# cached-cell p99 latency.
#
# Telemetry gates ride along: the /metricsz Prometheus exposition must
# parse and carry the inventoried series with values consistent with the
# warm matrix (parrotctl top -expect), request traces must replay as
# Chrome trace-event JSON with the right span taxonomy and disposition
# attrs (parrotctl trace), and parrotload must emit a machine-readable
# loadreport.json with latency histograms.
#
# Environment knobs (defaults tuned for CI):
#   SMOKE_MODELS   model subset        (default: all seven)
#   SMOKE_APPS     application subset  (default: gcc,gzip,swim,word,flash,dotnet-num1)
#   SMOKE_N        insts per cell      (default: 20000)
#   SMOKE_MIN_HIT  load-phase hit gate (default: 0.95)
#   SMOKE_P99      cached p99 budget   (default: 25ms — generous for shared CI runners;
#                                       the paper-grade 5ms claim is measured locally)
set -euo pipefail

MODELS="${SMOKE_MODELS:-}"
APPS="${SMOKE_APPS:-gcc,gzip,swim,word,flash,dotnet-num1}"
N="${SMOKE_N:-20000}"
MIN_HIT="${SMOKE_MIN_HIT:-0.95}"
P99="${SMOKE_P99:-25ms}"

cd "$(dirname "$0")/.."

workdir="$(mktemp -d)"
cleanup() {
  if [[ -n "${pd_pid:-}" ]] && kill -0 "$pd_pid" 2>/dev/null; then
    kill -TERM "$pd_pid" 2>/dev/null || true
    wait "$pd_pid" 2>/dev/null || true
  fi
  rm -rf "$workdir"
}
trap cleanup EXIT

echo "== building serving binaries"
go build -o "$workdir/parrotd" ./cmd/parrotd
go build -o "$workdir/parrotctl" ./cmd/parrotctl
go build -o "$workdir/parrotload" ./cmd/parrotload

echo "== starting parrotd on a random port"
"$workdir/parrotd" -addr 127.0.0.1:0 -addrfile "$workdir/addr" -prewarm \
  >"$workdir/parrotd.log" 2>&1 &
pd_pid=$!

for _ in $(seq 1 100); do
  [[ -s "$workdir/addr" ]] && break
  kill -0 "$pd_pid" 2>/dev/null || { cat "$workdir/parrotd.log"; echo "parrotd exited early" >&2; exit 1; }
  sleep 0.1
done
[[ -s "$workdir/addr" ]] || { echo "parrotd never bound" >&2; exit 1; }
export PARROTD="http://$(cat "$workdir/addr")"
echo "   $PARROTD"

"$workdir/parrotctl" health

echo "== cold matrix pass"
"$workdir/parrotctl" matrix -models "$MODELS" -apps "$APPS" -n "$N" \
  | tee "$workdir/cold.out"
digest="$(sed -n 's/^digest: //p' "$workdir/cold.out")"
[[ -n "$digest" ]] || { echo "no digest in cold pass output" >&2; exit 1; }

echo "== warm matrix pass (must be ≥95% cached and byte-identical)"
"$workdir/parrotctl" matrix -models "$MODELS" -apps "$APPS" -n "$N" \
  -expect-digest "$digest" -min-cached 0.95

echo "== scraping /metricsz (exposition must parse, series must match the warm pass)"
# Cell count of one matrix pass, from the same subsets the passes used.
count_list() { local s="$1" dflt="$2"; if [[ -z "$s" ]]; then echo "$dflt"; else echo "$s" | awk -F, '{print NF}'; fi; }
NMODELS="$(count_list "$MODELS" 7)"
NAPPS="$(count_list "$APPS" 44)"
CELLS=$((NMODELS * NAPPS))
MIN_HITS="$(awk -v c="$CELLS" 'BEGIN{printf "%d", c * 0.95}')"
# The warm pass parrotctl just gated at -min-cached 0.95 must be visible in
# the scrape: ≥95% of its cells as "hit" dispositions and memory-cache
# lookups, at least one exact simulation and one batch queue residency from
# the cold pass, both matrix requests accounted, and an idle fleet.
"$workdir/parrotctl" top \
  -expect "parrot_requests_total{code=\"200\",route=\"matrix\"}>=2" \
  -expect "parrot_cell_requests_total{disposition=\"hit\"}>=$MIN_HITS" \
  -expect "parrot_cache_lookups_total{level=\"mem\"}>=$MIN_HITS" \
  -expect "parrot_queue_wait_seconds_count{class=\"batch\"}>=1" \
  -expect "parrot_sim_runs_total>=1" \
  -expect "parrot_sched_running==0"

echo "== request trace fetch (warm cell: cache-hit span taxonomy)"
model1="${MODELS%%,*}"; [[ -n "$model1" ]] || model1="TON"
app1="${APPS%%,*}"
"$workdir/parrotctl" run -model "$model1" -app "$app1" -n "$N" -json >"$workdir/run.json"
grep -q '"disposition": "hit"' "$workdir/run.json" \
  || { echo "warm single-cell run not served as a cache hit" >&2; exit 1; }
rid="$(sed -n 's/.*"requestId": "\([^"]*\)".*/\1/p' "$workdir/run.json")"
[[ -n "$rid" ]] || { echo "run response carries no requestId" >&2; exit 1; }
"$workdir/parrotctl" trace -id "$rid" >"$workdir/trace-warm.json"
grep -q '"traceEvents"' "$workdir/trace-warm.json" \
  || { echo "trace endpoint did not return Chrome trace JSON" >&2; exit 1; }
"$workdir/parrotctl" trace -id "$rid" -table >"$workdir/trace-warm.txt"
grep -q 'cache.get.*outcome=mem' "$workdir/trace-warm.txt" \
  || { echo "warm trace missing cache.get outcome=mem span" >&2; cat "$workdir/trace-warm.txt"; exit 1; }
grep -q 'sched.submit.*disposition=hit' "$workdir/trace-warm.txt" \
  || { echo "warm trace missing disposition=hit attr" >&2; cat "$workdir/trace-warm.txt"; exit 1; }

echo "== result fetch by spec digest (same result digest as the run)"
# emitJSON indents top-level keys by two spaces; nested keys sit deeper.
top_field() { sed -n "s/^  \"$1\": \"\([^\"]*\)\".*/\1/p" "$2"; }
spec="$(top_field digest "$workdir/run.json")"
want="$(top_field resultDigest "$workdir/run.json")"
[[ -n "$spec" && -n "$want" ]] || { echo "run response carries no digest or resultDigest" >&2; exit 1; }
"$workdir/parrotctl" get -digest "$spec" >"$workdir/get.json"
got="$(top_field resultDigest "$workdir/get.json")"
[[ "$got" == "$want" ]] \
  || { echo "get -digest $spec: resultDigest $got, want $want" >&2; exit 1; }

echo "== request trace fetch (cold cell: enqueue→checkout→run→writeback)"
"$workdir/parrotctl" run -model "$model1" -app "$app1" -n $((N + 1000)) -json >"$workdir/run2.json"
rid2="$(sed -n 's/.*"requestId": "\([^"]*\)".*/\1/p' "$workdir/run2.json")"
"$workdir/parrotctl" trace -id "$rid2" -table >"$workdir/trace-cold.txt"
for span in sched.queued machine.checkout sim.run cache.put http.request; do
  grep -q "$span" "$workdir/trace-cold.txt" \
    || { echo "cold trace missing $span span" >&2; cat "$workdir/trace-cold.txt"; exit 1; }
done
grep -q 'sched.submit.*disposition=exact' "$workdir/trace-cold.txt" \
  || { echo "cold trace missing simulation disposition attr" >&2; cat "$workdir/trace-cold.txt"; exit 1; }

echo "== closed-loop load against the warm cache"
"$workdir/parrotload" -mode closed -concurrency 8 -requests 400 \
  -models "$MODELS" -apps "$APPS" -n "$N" \
  -min-hit "$MIN_HIT" -max-cached-p99 "$P99" \
  -report "$workdir/loadreport.json"
grep -q '"histograms"' "$workdir/loadreport.json" \
  || { echo "loadreport.json missing latency histograms" >&2; exit 1; }

echo "== graceful drain"
kill -TERM "$pd_pid"
wait "$pd_pid"
unset pd_pid

echo "service smoke: OK (digest $digest)"
