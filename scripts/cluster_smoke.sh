#!/usr/bin/env bash
# cluster_smoke.sh — end-to-end smoke test of the parrotswarm cluster layer.
#
# Boots a 3-node parrotswarm on random ports, drives the full 44 × 7 matrix
# through one node, and `kill -9`s a second node while the fan-out is mid
# flight. The test then asserts the cluster guarantees the design makes:
#
#   1. fault tolerance: the matrix completes with zero failed cells despite
#      losing a node that owned ~1/3 of the digest space mid-run, and the
#      recovery counters prove cells actually crossed the failover paths
#      (parrot_cluster_recoveries_total >= 1), and membership — the one
#      failure detector — marked the killed node suspect
#      (parrot_cluster_transitions_total{to="suspect"} >= 1);
#   2. bit-exactness: the cold pass reproduces the golden 44×7 @ 50k matrix
#      digest pinned in internal/experiments/digest_test.go — identical to
#      what a single in-process experiments.Run computes;
#   3. membership convergence: the survivors' heartbeats demote the killed
#      node alive → suspect → dead and shrink the routing ring to 2 members
#      (parrot_cluster_ring_members == 2);
#   4. ownership exactness: after the ring settles, a fully warm pass is
#      ≥95% cache hits and every hit was served by its ring owner
#      (parrotctl matrix -verify-owners rebuilds the ring client-side);
#   5. forwarding + hop guard: direct /v1/run requests for non-owned digests
#      are proxied to their owner exactly once (forwards ok on the entry
#      node, hop-guard stops on the owner);
#   6. read-through replicas: repeating those requests through the same
#      entry node answers the peer-owned cells from its memory
#      (parrot_cluster_route_total{dest="replica"} >= 1) without a single
#      further forward.
#
# Ports come from scripts/freeports.go (not -addr :0) because every node
# needs the complete -peers list before any of them binds.
#
# Environment knobs:
#   SMOKE_N  insts per cell (default 50000 — must stay 50000 for the golden
#            digest gate; any other value skips the golden comparison and
#            gates on cold/warm digest agreement instead)
set -euo pipefail

N="${SMOKE_N:-50000}"

cd "$(dirname "$0")/.."

workdir="$(mktemp -d)"
pids=()
cleanup() {
  for pid in "${pids[@]:-}"; do
    if [[ -n "$pid" ]] && kill -0 "$pid" 2>/dev/null; then
      kill -TERM "$pid" 2>/dev/null || true
      wait "$pid" 2>/dev/null || true
    fi
  done
  rm -rf "$workdir"
}
trap cleanup EXIT

echo "== building cluster binaries"
go build -o "$workdir/parrotd" ./cmd/parrotd
go build -o "$workdir/parrotctl" ./cmd/parrotctl

echo "== picking 3 free ports"
mapfile -t ports < <(go run scripts/freeports.go 3)
[[ ${#ports[@]} -eq 3 ]] || { echo "freeports returned ${#ports[@]} ports" >&2; exit 1; }
urls=()
for p in "${ports[@]}"; do urls+=("http://127.0.0.1:$p"); done
peers="$(IFS=,; echo "${urls[*]}")"
echo "   $peers"

echo "== booting 3 parrotd nodes"
for i in 0 1 2; do
  "$workdir/parrotd" -addr "127.0.0.1:${ports[$i]}" -peers "$peers" -prewarm \
    -probeinterval 500ms -suspectafter 2 -deadafter 3s \
    >"$workdir/node$i.log" 2>&1 &
  pids+=($!)
done

ctl() { "$workdir/parrotctl" "$@"; }

# Wait for every node to bind and finish prewarming (health gates on /readyz
# only once -prewarm completes, via the serving loop's SetReady).
for i in 0 1 2; do
  ok=""
  for _ in $(seq 1 100); do
    if ctl health -server "${urls[$i]}" >/dev/null 2>&1; then ok=1; break; fi
    kill -0 "${pids[$i]}" 2>/dev/null \
      || { cat "$workdir/node$i.log"; echo "node$i exited early" >&2; exit 1; }
    sleep 0.1
  done
  [[ -n "$ok" ]] || { cat "$workdir/node$i.log"; echo "node$i never became healthy" >&2; exit 1; }
done

# Heartbeats probe /readyz, so three alive peers in node0's view proves the
# whole fleet is past prewarm and the ring is the full 3-node layout.
ok=""
for _ in $(seq 1 100); do
  if ctl cluster -server "${urls[0]}" \
       -expect 'parrot_cluster_nodes{state="alive"}==3' \
       -expect 'parrot_cluster_ring_members==3' >/dev/null 2>&1; then ok=1; break; fi
  sleep 0.1
done
[[ -n "$ok" ]] || { ctl cluster -server "${urls[0]}"; echo "membership never converged to 3 alive" >&2; exit 1; }
ctl cluster -server "${urls[0]}"

golden=""
if [[ "$N" == 50000 ]]; then
  golden="$(sed -n 's/^const goldenMatrixDigest50k = "\(.*\)"$/\1/p' internal/experiments/digest_test.go)"
  [[ -n "$golden" ]] || { echo "golden digest constant not found" >&2; exit 1; }
  echo "== golden 44×7 @ 50k digest: $golden"
fi

echo "== cold matrix pass through node0, kill -9 node2 mid-run"
ctl matrix -server "${urls[0]}" -n "$N" >"$workdir/cold.out" 2>&1 &
mat_pid=$!

# Hold the kill until node2 has served a batch of forwarded cells: it is
# provably in the routing path, and (owning ~1/3 of 308 cells) has far more
# still queued, so the kill severs live in-flight work.
ok=""
for _ in $(seq 1 400); do
  if ctl top -server "${urls[2]}" \
       -expect 'parrot_requests_total{code="200",route="run"}>=10' >/dev/null 2>&1; then ok=1; break; fi
  kill -0 "$mat_pid" 2>/dev/null || break
  sleep 0.05
done
[[ -n "$ok" ]] || { echo "matrix finished before node2 served 10 cells — kill never landed mid-run" >&2; exit 1; }
kill -9 "${pids[2]}"
wait "${pids[2]}" 2>/dev/null || true
victim_pid="${pids[2]}"; pids[2]=""
echo "   killed node2 (pid $victim_pid) mid-matrix"

if ! wait "$mat_pid"; then
  cat "$workdir/cold.out"
  echo "cold matrix failed after losing node2" >&2
  exit 1
fi
cat "$workdir/cold.out"
digest="$(sed -n 's/^digest: //p' "$workdir/cold.out")"
[[ -n "$digest" ]] || { echo "no digest in cold pass output" >&2; exit 1; }
if [[ -n "$golden" && "$digest" != "$golden" ]]; then
  echo "cold matrix digest $digest != golden $golden" >&2
  exit 1
fi
# Zero failed cells: a dropped cell fails the whole matrix request, and the
# digest covers all 308 results — but assert the cell count explicitly too.
grep -q '^matrix: 308 cells' "$workdir/cold.out" \
  || { echo "cold pass did not complete all 308 cells" >&2; exit 1; }

echo "== recovery counters on the coordinator"
ctl cluster -server "${urls[0]}" \
  -expect 'parrot_cluster_recoveries_total>=1' \
  -expect 'parrot_cluster_route_total{dest="remote"}>=1' \
  -expect 'parrot_cluster_route_total{dest="local"}>=1' \
  -expect 'parrot_cluster_retries_total>=0' \
  -expect 'parrot_cluster_transitions_total{to="suspect"}>=1'

echo "== waiting for survivors to declare node2 dead (ring shrinks to 2)"
for i in 0 1; do
  ok=""
  for _ in $(seq 1 200); do
    if ctl cluster -server "${urls[$i]}" \
         -expect 'parrot_cluster_ring_members==2' \
         -expect 'parrot_cluster_nodes{state="dead"}==1' >/dev/null 2>&1; then ok=1; break; fi
    sleep 0.1
  done
  [[ -n "$ok" ]] || { ctl cluster -server "${urls[$i]}"; echo "node$i never saw node2 die" >&2; exit 1; }
done
ctl cluster -server "${urls[0]}"

echo "== re-shard pass through node1 (cells re-route onto the 2-node ring)"
reshard_args=(-n "$N")
[[ -n "$golden" ]] && reshard_args+=(-expect-digest "$golden")
ctl matrix -server "${urls[1]}" "${reshard_args[@]}" >"$workdir/reshard.out"
reshard_digest="$(sed -n 's/^digest: //p' "$workdir/reshard.out")"
[[ "$reshard_digest" == "$digest" ]] \
  || { echo "re-shard digest $reshard_digest != cold digest $digest" >&2; exit 1; }

echo "== fully warm pass: ≥95% cached, every hit served by its ring owner"
warm_args=(-n "$N" -min-cached 0.95 -verify-owners)
[[ -n "$golden" ]] && warm_args+=(-expect-digest "$golden")
ctl matrix -server "${urls[1]}" "${warm_args[@]}"

# metric prints one series of a node's /metricsz scrape.
metric() {
  ctl top -server "$1" -raw | awk -v k="$2" '$1 == k { print $2 }'
}

direct_runs() {
  for m in N TN TON W TW TOW TOS; do
    for a in gzip swim; do
      ctl run -server "${urls[0]}" -model "$m" -app "$a" -n "$N" >/dev/null
    done
  done
}

echo "== forwarding + hop guard on direct /v1/run requests"
# 14 digests through node0: on a 2-node ring at least one is owned by node1,
# so node0 must proxy it (forward ok) and node1 must stop the hop.
direct_runs
ctl top -server "${urls[0]}" -expect 'parrot_cluster_forwards_total{outcome="ok"}>=1'
ctl top -server "${urls[1]}" -expect 'parrot_cluster_hop_guard_total>=1'

echo "== repeat the direct runs: peer-owned cells come from node0's replicas"
forwards="$(metric "${urls[0]}" 'parrot_cluster_forwards_total{outcome="ok"}')"
[[ -n "$forwards" ]] || { echo "forwards counter absent on node0" >&2; exit 1; }
direct_runs
ctl top -server "${urls[0]}" \
  -expect 'parrot_cluster_route_total{dest="replica"}>=1' \
  -expect "parrot_cluster_forwards_total{outcome=\"ok\"}==$forwards"

echo "== graceful drain of the survivors"
for i in 0 1; do
  kill -TERM "${pids[$i]}"
  wait "${pids[$i]}" 2>/dev/null || true
  pids[$i]=""
done

echo "cluster smoke: OK (digest $digest)"
