#!/bin/sh
# Full pre-merge gate: build, vet, and run every test with the race
# detector. The harness fans experiment cells across goroutines, so the
# race detector is part of the default gate, not an optional extra.
set -eux

cd "$(dirname "$0")/.."

# stage prints the wall-clock seconds since the previous stage ended (or
# the gate started), so a slow stage shows without timing it by hand.
stagestart=$(date +%s)
stage() {
  now=$(date +%s)
  echo "check.sh stage: $1: $((now - stagestart)) s"
  stagestart=$now
}

go build ./...
go vet ./...
# The benchmark module (bench/, its own go.mod) compiles against the
# internal APIs it walks — hcc, cfg, interp, sim — so a reshaped API
# fails here rather than only when the benchmark runs. Offline: the
# module's one dependency is this repository, by replace directive.
GOPROXY=off go -C bench vet ./...
test -z "$(gofmt -l .)"
stage "build and vet"
# Hard wall-clock bound: a hung cancellation path fails the gate instead
# of wedging it. The harness package, by far the longest race pass, runs
# after the others rather than beside them: sharing the CPUs with them
# took its 10-minute bound close to expiry. Same flags, same bound.
go test -race -timeout 10m $(go list ./... | grep -v '/internal/harness$')
stage "race pass, other packages"
go test -race -timeout 10m ./internal/harness
stage "race pass, internal/harness"
# The allocation and retention guards skip themselves under the race
# detector (its instrumentation allocates), so they run again without it,
# as does the all-workload fast-vs-reference stepper sweep (too slow
# under -race).
go test -count=1 -run 'Allocs|Retention|RunMatchesReference' ./internal/sim ./internal/interp ./internal/mem ./internal/cfg
stage "no-race guards"

# End-to-end determinism smoke: one small figure, hash-compared against
# the checked-in benchmark report (exercises the record/replay path).
go run ./cmd/helix-bench -only fig9 -verify BENCH_2026-08-05.json >/dev/null
stage "fig9 smoke"

# Perf regression gate: regenerate the full evaluation, verify every
# figure hash against the checked-in report, then enforce the per-family
# wall-clock and allocation budgets — a perf regression (or a batching
# path that stopped engaging) fails the gate instead of drifting in.
report=.check-bench.json
shardreport=.check-shard.json
shardcache=.check-shard-cache
explorereport=.check-explore.json
explorecache=.check-explore-cache
servereport=.check-serve.json
serveaddr=.check-serve.addr
servecache=.check-serve-cache
remotereport=.check-remote.json
remoteaddr=.check-remote.addr
remoteblobs=.check-remote-blobs
servepid=
remotepid=
# One clean-up for every exit path: remove what the stages below leave
# behind and stop whichever daemon is still running.
cleanup() {
  rm -f "$report" "$shardreport" "$explorereport" "$report.lock" "$shardreport.lock" "$explorereport.lock" \
    "$servereport" "$servereport.lock" "$serveaddr" "$remotereport" "$remotereport.lock" "$remoteaddr" .check-helix-serve
  rm -rf "$shardcache" "$explorecache" "$servecache" "$remoteblobs"
  if [ -n "$servepid" ]; then kill "$servepid" 2>/dev/null || true; fi
  if [ -n "$remotepid" ]; then kill "$remotepid" 2>/dev/null || true; fi
}
rm -f "$report" "$shardreport" "$explorereport" "$servereport" "$serveaddr" "$remotereport" "$remoteaddr"
rm -rf "$shardcache" "$explorecache" "$servecache" "$remoteblobs"
trap cleanup EXIT
go run ./cmd/helix-bench -quiet -verify BENCH_2026-08-07.json -jsonfile "$report" >/dev/null
go run ./scripts -enforce -budgets perf/budgets.json "$report"
stage "evaluation smoke"

# Sharded-evaluation smoke: two -shard workers (scripts/shard2.sh)
# claim-partition fig9's work units over a shared cache, each verifying
# the figures it renders against the checked-in reference, and
# `scripts -merge` reassembles their partial reports. The
# claim/lease/merge path fails the gate if a worker fails or diverges,
# the workers disagree, fig9 goes missing (-enforce), or the run
# livelocks or duplicates work past the shard budget.
scripts/shard2.sh "$shardreport" go run ./cmd/helix-bench -only fig9 -quiet -cachedir "$shardcache" \
  -verify BENCH_2026-08-05.json
go run ./scripts -enforce -budgets perf/shard_budgets.json "$shardreport"
stage "shard smoke"

# Exploration smoke: two -shard workers claim-partition a tiny
# pointer-chase design-space sweep over a shared cache; each worker's
# heatmap + frontier must hash-match the checked-in solo reference
# (sharded determinism), the merge must accept the sweep's partial
# reports, and the budget gate fails if the sweep's cells stopped being
# served by batched replay and went back to simulating.
scripts/shard2.sh "$explorereport" go run ./cmd/helix-explore -family pointer-chase -cores 2 -tiers 1,5 \
  -links 1,8 -signals 0 -quiet -cachedir "$explorecache" -verify EXPLORE_2026-08-07.json
go run ./scripts -enforce -budgets perf/explore_budgets.json "$explorereport"
# The same sweep solo: the two tiers of each scenario here compile to
# one program, so they are one work unit that records one trace and
# retimes both tiers' lanes in one traversal; this hash-verifies that
# merge.
go run ./cmd/helix-explore -family pointer-chase -cores 2 -tiers 1,5 -links 1,8 -signals 0 \
  -quiet -verify EXPLORE_2026-08-07.json >/dev/null
stage "explore smokes"

# Differential fuzzing smoke: a fixed-seed sweep of generated loop
# programs cross-checked through interp, HCC parallelization, the sim
# fast path and trace replay. Deterministic, ~5s.
go run ./cmd/helix-fuzz -start 0 -seeds 24 -quick -parallel 0
stage "fuzz smoke"

# Serving coverage gate: the daemon package must stay well-tested —
# below 80% statement coverage the gate fails.
cover=$(go test -cover -count=1 ./internal/server | awk '{for (i=1;i<=NF;i++) if ($i ~ /^coverage:/) print $(i+1)}' | tr -d '%')
echo "internal/server coverage: ${cover}%"
awk -v c="$cover" 'BEGIN { exit (c+0 >= 80.0) ? 0 : 1 }' || {
  echo "internal/server coverage ${cover}% is below the 80% gate" >&2
  exit 1
}
stage "server coverage"

# Serve smoke: start the daemon, hit it with a 10s hot-key figure load
# (hashes verified against the checked-in report), drain it with
# SIGTERM, then enforce the serving SLO budgets on the run's report —
# latency regressions, spurious shedding, figure divergence, or a
# broken drain path all fail the gate.
go build -o .check-helix-serve ./cmd/helix-serve
./.check-helix-serve -addr 127.0.0.1:0 -addrfile "$serveaddr" -cachedir "$servecache" -quiet -concurrency 2 &
servepid=$!
for _ in $(seq 1 50); do [ -s "$serveaddr" ] && break; sleep 0.1; done
[ -s "$serveaddr" ] || { echo "helix-serve never wrote $serveaddr" >&2; exit 1; }
go run ./cmd/helix-load -addr "http://$(cat "$serveaddr")" \
  -wait 30s -duration 10s -clients 4 -mix hotkey -kind figure -hot fig9 -hotfrac 0.9 \
  -verify BENCH_2026-08-07.json -jsonfile "$servereport" -label serve-smoke >/dev/null
kill -TERM "$servepid"
wait "$servepid"
servepid=
go run ./scripts/slocheck -budgets perf/serve_slo_budgets.json "$servereport"
stage "serve smoke"

# Multi-machine smoke: two -shard workers with DISJOINT caches (-remote
# and no -cachedir, so each has only its memory tier) share only a
# helix-serve blob backend — recordings cross HTTP, claims live in the
# daemon's table, and each worker's figures must still hash-match the
# checked-in solo reference before the merge. The budget gate then
# fails the run if the remote tier stopped engaging and both workers
# went cold.
./.check-helix-serve -addr 127.0.0.1:0 -addrfile "$remoteaddr" -blobdir "$remoteblobs" -quiet &
remotepid=$!
for _ in $(seq 1 50); do [ -s "$remoteaddr" ] && break; sleep 0.1; done
[ -s "$remoteaddr" ] || { echo "helix-serve never wrote $remoteaddr" >&2; exit 1; }
scripts/shard2.sh "$remotereport" go run ./cmd/helix-bench -only fig9 -quiet -remote "http://$(cat "$remoteaddr")" \
  -verify BENCH_2026-08-05.json
kill -TERM "$remotepid"
wait "$remotepid"
remotepid=
go run ./scripts -enforce -budgets perf/remote_budgets.json "$remotereport"
stage "remote smoke"
