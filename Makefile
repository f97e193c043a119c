# Development entry points. `make check` is the pre-merge gate.

.PHONY: check build test bench bench-shard-smoke bench-smoke explore explore-smoke fuzz-smoke fuzz serve serve-smoke remote-smoke

check:
	./scripts/check.sh

build:
	go build ./...

test:
	go test ./...

# Regenerate the full evaluation in parallel and append a machine-
# readable report to BENCH_<date>.json.
bench:
	go run ./cmd/helix-bench -json

# Sharded-evaluation smoke: two -shard worker processes
# (scripts/shard2.sh) race over one small figure's work units through a
# shared claim directory, each verifies the figure it renders against
# the checked-in report, and `scripts -merge` reassembles their partial
# reports under the shard budget — the claim/lease/merge path end to
# end (zero duplicate recordings, byte-identical output).
bench-shard-smoke:
	rm -f .smoke-shard.json .smoke-shard.json.lock; rm -rf .smoke-shard-cache
	scripts/shard2.sh .smoke-shard.json go run ./cmd/helix-bench -only fig9 -quiet -cachedir .smoke-shard-cache \
	  -verify BENCH_2026-08-05.json
	go run ./scripts -enforce -budgets perf/shard_budgets.json .smoke-shard.json
	@echo "bench-shard-smoke: 2-worker fig9 matches BENCH_2026-08-05.json"
	rm -f .smoke-shard.json .smoke-shard.json.lock; rm -rf .smoke-shard-cache

# Regenerate one small figure and verify its output hash against the
# checked-in benchmark report — a fast end-to-end determinism gate —
# then pin the replay/codec hot paths, the interpreter's memory image,
# the training profiler, the cache arrays and liveness: allocation
# guards plus one iteration of each microbenchmark.
bench-smoke:
	go run ./cmd/helix-bench -only fig9 -verify BENCH_2026-08-05.json >/dev/null
	@echo "bench-smoke: fig9 output hash matches BENCH_2026-08-05.json"
	go test ./internal/sim ./internal/interp ./internal/mem ./internal/cfg -count=1 -run 'Allocs' -bench 'ProfilerSPEC' -benchtime 1x
	go test ./internal/sim -run '^$$' -bench 'Replay|Trace' -benchtime 1x
	go test ./internal/hcc -run '^$$' -bench 'CompileGrid' -benchmem -benchtime 1x

# Sweep the full design space (ring latency x signal depth x cores x
# alias tier) over every generated workload family and append a report
# to EXPLORE_<date>.json.
explore:
	go run ./cmd/helix-explore -json

# Exploration smoke: two -shard worker processes claim-partition a tiny
# pointer-chase sweep over a shared cache, each worker's heatmap +
# frontier must match the checked-in solo reference, and `scripts
# -merge` reassembles the sweep's partial reports under the explore
# budget — the sweep's replay economy and its sharded determinism in
# one gate.
explore-smoke:
	rm -f .smoke-explore.json .smoke-explore.json.lock; rm -rf .smoke-explore-cache
	scripts/shard2.sh .smoke-explore.json go run ./cmd/helix-explore -family pointer-chase -cores 2 -tiers 1,5 \
	  -links 1,8 -signals 0 -quiet -cachedir .smoke-explore-cache -verify EXPLORE_2026-08-07.json
	go run ./scripts -enforce -budgets perf/explore_budgets.json .smoke-explore.json
	@echo "explore-smoke: 2-worker pointer-chase sweep matches EXPLORE_2026-08-07.json"
	rm -f .smoke-explore.json .smoke-explore.json.lock; rm -rf .smoke-explore-cache

# Run the evaluation daemon on :8080 with a persistent cache.
serve:
	go run ./cmd/helix-serve -cachedir .cache -quiet

# Serving smoke: daemon up, 10s hot-key figure load with hash
# verification against the checked-in report, graceful SIGTERM drain,
# then the SLO budget gate — the same sequence scripts/check.sh runs.
serve-smoke:
	rm -f .smoke-serve.json .smoke-serve.addr; rm -rf .smoke-serve-cache
	go build -o .smoke-helix-serve ./cmd/helix-serve
	./.smoke-helix-serve -addr 127.0.0.1:0 -addrfile .smoke-serve.addr -cachedir .smoke-serve-cache -quiet & \
	pid=$$!; \
	for i in $$(seq 1 50); do [ -s .smoke-serve.addr ] && break; sleep 0.1; done; \
	go run ./cmd/helix-load -addr "http://$$(cat .smoke-serve.addr)" -wait 30s \
	  -duration 10s -clients 4 -mix hotkey -kind figure -hot fig9 -hotfrac 0.9 \
	  -verify BENCH_2026-08-07.json -jsonfile .smoke-serve.json || { kill $$pid; exit 1; }; \
	kill -TERM $$pid; wait $$pid
	go run ./scripts/slocheck -budgets perf/serve_slo_budgets.json .smoke-serve.json
	rm -f .smoke-serve.json .smoke-serve.json.lock .smoke-serve.addr .smoke-helix-serve; rm -rf .smoke-serve-cache

# Multi-machine smoke: a helix-serve blob backend plus two -shard
# workers with disjoint caches (-remote, no -cachedir) that share
# recordings and work claims only through the daemon — each worker's
# figure hash must match the checked-in solo reference, and the budget
# gate fails if the remote tier stopped engaging. The same sequence
# scripts/check.sh runs.
remote-smoke:
	rm -f .smoke-remote.json .smoke-remote.addr; rm -rf .smoke-remote-blobs
	go build -o .smoke-helix-serve ./cmd/helix-serve
	./.smoke-helix-serve -addr 127.0.0.1:0 -addrfile .smoke-remote.addr -blobdir .smoke-remote-blobs -quiet & \
	pid=$$!; \
	for i in $$(seq 1 50); do [ -s .smoke-remote.addr ] && break; sleep 0.1; done; \
	scripts/shard2.sh .smoke-remote.json go run ./cmd/helix-bench -only fig9 -quiet \
	  -remote "http://$$(cat .smoke-remote.addr)" -verify BENCH_2026-08-05.json || { kill $$pid; exit 1; }; \
	kill -TERM $$pid; wait $$pid
	go run ./scripts -enforce -budgets perf/remote_budgets.json .smoke-remote.json
	@echo "remote-smoke: 2 disjoint-cache workers over the blob backend match BENCH_2026-08-05.json"
	rm -f .smoke-remote.json .smoke-remote.json.lock .smoke-remote.addr .smoke-helix-serve; rm -rf .smoke-remote-blobs

# Differential fuzzing smoke: a fixed-seed sweep of generated programs
# through the interp/HCC/sim/replay oracle stack (~5s). Deterministic —
# a failure here is a real, reproducible divergence.
fuzz-smoke:
	go run ./cmd/helix-fuzz -start 0 -seeds 24 -quick -parallel 0
	@echo "fuzz-smoke: 24 seeds, no divergence"

# Open-ended differential fuzzing via the native fuzzer. Ctrl-C to stop;
# crashers land in internal/difftest/testdata/fuzz.
fuzz:
	go test -fuzz=FuzzDifferential ./internal/difftest
