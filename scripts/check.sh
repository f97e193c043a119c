#!/bin/sh
# Full pre-merge gate: build, vet, and run every test with the race
# detector. The harness fans experiment cells across goroutines, so the
# race detector is part of the default gate, not an optional extra.
set -eux

cd "$(dirname "$0")/.."

go build ./...
go vet ./...
# The benchmark module (bench/, its own go.mod) compiles against the
# internal APIs it walks — hcc, cfg, interp, sim — so a reshaped API
# fails here rather than only when the benchmark runs. Offline: the
# module's one dependency is this repository, by replace directive.
GOPROXY=off go -C bench vet ./...
test -z "$(gofmt -l .)"
# Hard wall-clock bound: a hung cancellation path fails the gate instead
# of wedging it.
go test -race -timeout 10m ./...
# The allocation and retention guards skip themselves under the race
# detector (its instrumentation allocates), so they run again without it,
# as does the all-workload fast-vs-reference stepper sweep (too slow
# under -race).
go test -count=1 -run 'Allocs|Retention|RunMatchesReference' ./internal/sim ./internal/interp ./internal/mem ./internal/cfg

# End-to-end determinism smoke: one small figure, hash-compared against
# the checked-in benchmark report (exercises the record/replay path).
go run ./cmd/helix-bench -only fig9 -verify BENCH_2026-08-05.json >/dev/null

# Perf regression gate: regenerate the full evaluation, verify every
# figure hash against the checked-in report, then enforce the per-family
# wall-clock and allocation budgets — a perf regression (or a batching
# path that stopped engaging) fails the gate instead of drifting in.
report=.check-bench.json
shardreport=.check-shard.json
explorereport=.check-explore.json
servereport=.check-serve.json
serveaddr=.check-serve.addr
servecache=.check-serve-cache
remotereport=.check-remote.json
remoteaddr=.check-remote.addr
remoteblobs=.check-remote-blobs
servepid=
remotepid=
rm -f "$report" "$shardreport" "$explorereport" "$servereport" "$serveaddr" "$remotereport" "$remoteaddr"
rm -rf "$servecache" "$remoteblobs"
trap 'rm -f "$report" "$shardreport" "$explorereport" "$report.lock" "$shardreport.lock" "$explorereport.lock" "$servereport" "$servereport.lock" "$serveaddr" "$remotereport" "$remotereport.lock" "$remoteaddr"; rm -rf "$servecache" "$remoteblobs"' EXIT
go run ./cmd/helix-bench -quiet -verify BENCH_2026-08-07.json -jsonfile "$report" >/dev/null
go run ./scripts -enforce -budgets perf/budgets.json "$report"

# Sharded-evaluation smoke: two worker processes claim-partition fig9's
# work units over a shared cache, the parent merges their partial
# reports, and the merged hash must match the checked-in reference —
# the claim/lease/merge path fails the gate if it duplicates work,
# livelocks, or perturbs a single byte of figure output.
go run ./cmd/helix-bench -workers 2 -only fig9 -quiet -verify BENCH_2026-08-05.json -jsonfile "$shardreport" >/dev/null
go run ./scripts -enforce -budgets perf/shard_budgets.json "$shardreport"

# Exploration smoke: two worker processes claim-partition a tiny
# pointer-chase design-space sweep over a shared cache; the merged
# heatmap + frontier must hash-match the checked-in solo reference
# (sharded determinism), and the budget gate fails if the sweep's cells
# stopped being served by batched replay and went back to simulating.
go run ./cmd/helix-explore -family pointer-chase -cores 2 -tiers 1,5 -links 1,8 -signals 0 \
  -workers 2 -quiet -verify EXPLORE_2026-08-07.json -jsonfile "$explorereport" >/dev/null
go run ./scripts -enforce -budgets perf/explore_budgets.json "$explorereport"
# The same sweep solo: RunPlan units never merge, but the in-process
# prefetch does, and the two tiers of each scenario here record one
# trace, so this hash-verifies a merged batched retime.
go run ./cmd/helix-explore -family pointer-chase -cores 2 -tiers 1,5 -links 1,8 -signals 0 \
  -quiet -verify EXPLORE_2026-08-07.json >/dev/null

# Differential fuzzing smoke: a fixed-seed sweep of generated loop
# programs cross-checked through interp, HCC parallelization, the sim
# fast path and trace replay. Deterministic, ~5s.
go run ./cmd/helix-fuzz -start 0 -seeds 24 -quick -parallel 0

# Serving coverage gate: the daemon package must stay well-tested —
# below 80% statement coverage the gate fails.
cover=$(go test -cover -count=1 ./internal/server | awk '{for (i=1;i<=NF;i++) if ($i ~ /^coverage:/) print $(i+1)}' | tr -d '%')
echo "internal/server coverage: ${cover}%"
awk -v c="$cover" 'BEGIN { exit (c+0 >= 80.0) ? 0 : 1 }' || {
  echo "internal/server coverage ${cover}% is below the 80% gate" >&2
  exit 1
}

# Serve smoke: start the daemon, hit it with a 10s hot-key figure load
# (hashes verified against the checked-in report), drain it with
# SIGTERM, then enforce the serving SLO budgets on the run's report —
# latency regressions, spurious shedding, figure divergence, or a
# broken drain path all fail the gate.
go build -o .check-helix-serve ./cmd/helix-serve
trap 'rm -f "$report" "$shardreport" "$explorereport" "$report.lock" "$shardreport.lock" "$explorereport.lock" "$servereport" "$servereport.lock" "$serveaddr" "$remotereport" "$remotereport.lock" "$remoteaddr" .check-helix-serve; rm -rf "$servecache" "$remoteblobs"; kill "$servepid" "$remotepid" 2>/dev/null || true' EXIT
./.check-helix-serve -addr 127.0.0.1:0 -addrfile "$serveaddr" -cachedir "$servecache" -quiet -concurrency 2 &
servepid=$!
for _ in $(seq 1 50); do [ -s "$serveaddr" ] && break; sleep 0.1; done
[ -s "$serveaddr" ] || { echo "helix-serve never wrote $serveaddr" >&2; exit 1; }
go run ./cmd/helix-load -addr "http://$(cat "$serveaddr")" \
  -wait 30s -duration 10s -clients 4 -mix hotkey -kind figure -hot fig9 -hotfrac 0.9 \
  -verify BENCH_2026-08-07.json -jsonfile "$servereport" -label serve-smoke >/dev/null
kill -TERM "$servepid"
wait "$servepid"
go run ./scripts/slocheck -budgets perf/serve_slo_budgets.json "$servereport"

# Multi-machine smoke: two workers with DISJOINT caches (no -cachedir,
# so each child gets its own scratch directory) share only a
# helix-serve blob backend — recordings cross HTTP, claims live in the
# daemon's table, and the merged figure must still hash-match the
# checked-in solo reference with zero duplicate recordings. The budget
# gate then fails the run if the remote tier stopped engaging and both
# workers went cold.
./.check-helix-serve -addr 127.0.0.1:0 -addrfile "$remoteaddr" -blobdir "$remoteblobs" -quiet &
remotepid=$!
for _ in $(seq 1 50); do [ -s "$remoteaddr" ] && break; sleep 0.1; done
[ -s "$remoteaddr" ] || { echo "helix-serve never wrote $remoteaddr" >&2; exit 1; }
go run ./cmd/helix-bench -workers 2 -only fig9 -quiet -remote "http://$(cat "$remoteaddr")" \
  -verify BENCH_2026-08-05.json -jsonfile "$remotereport" >/dev/null
kill -TERM "$remotepid"
wait "$remotepid"
go run ./scripts -enforce -budgets perf/remote_budgets.json "$remotereport"
