GO ?= go

.PHONY: all build vet test short race lint fuzz bench-smoke bench bench-workers bench-repeat bench-curve bench-snapshot bench-sketch serve smoke-server smoke-cluster ci

# fuzz time per target for the bounded CI pass (override for longer local runs).
FUZZTIME ?= 15s

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# short skips the seconds-long experiment sweeps but still smoke-runs every
# experiment ID at reduced scale, and pins the SHA-256 of the output of every
# experiment that prints no wall time: a hash mismatch there is output drift
# (a changed table), not flakiness.
short:
	$(GO) test -short ./...

# race covers the concurrent probe engine, the session layer, the
# multi-tenant HTTP server (including the cluster proxy/failover paths),
# the blob store, the metrics registry, the one fan-out (par) and the
# packages that go through it or are fanned out over by experiments
# (dataset loading, graph cues, the PLAM miner and its itemset substrate),
# the wire codec every snapshot goes through, and the sketch families (lsh:
# SRP's lock-free direction cache, which every parallel sketch at create
# and append goes through) — everything with shared mutable state. The session-lifecycle tests run ten times over: their
# subject is the hand-off of a session ID between goroutines, which one
# schedule exercises once. The experiment sweeps themselves run -short
# under race: the full sweeps take minutes with the detector on, and the
# short pass still smoke-runs every experiment ID through the same worker
# pools.
race:
	$(GO) test -race ./internal/bayeslsh ./internal/core ./internal/server ./internal/metrics ./internal/blob/... ./internal/ring ./internal/dataset ./internal/graph ./internal/lam ./internal/itemset ./internal/wire ./internal/par ./internal/lsh
	$(GO) test -race -count=10 -run 'Lifecycle' ./internal/server
	$(GO) test -race -short ./internal/experiments

# lint is ci tier 1b: formatting drift (gofmt -l), vet regressions, and
# plasmalint — the four project-specific invariant analyzers in
# internal/lint (mapiter, atomicmix, prealloc, httperr), each encoding a bug
# class this repo has already shipped a fix for and that the code's
# structure does not rule out. mapiter is one rule: the determinism
# packages visit a map only through slices.Sorted(maps.Keys(m)), never by
# ranging it. It is the only lint gate and every rule is absolute: any
# finding fails it, no comment excuses a site, and each finding names the
# rewrite that satisfies its rule. Last, the no-fusion check: Go may fuse
# x*y + z into one FMA instruction, arm64 does, and a fused product rounds
# differently, so every package under internal, cmd and examples (the
# engine, the data generators, the experiments and the daemon) is
# cross-compiled for arm64 and any fused multiply-add, double or single
# precision, in its assembly fails the tier. It needs no arm64 machine;
# a product that must not fuse is rounded explicitly, s += float64(a * b).
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt drift:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/plasmalint ./...
	@asm=$$(GOARCH=arm64 $(GO) build -gcflags=-S ./internal/... ./cmd/... ./examples/... 2>&1) || { echo "$$asm"; exit 1; }; \
	out=$$(echo "$$asm" | grep -E '\b(FMADDD|FMSUBD|FNMADDD|FNMSUBD|FMADDS|FMSUBS|FNMADDS|FNMSUBS)\b'); if [ -n "$$out" ]; then \
		echo "fused multiply-add in arm64 code:"; echo "$$out"; exit 1; fi

# fuzz runs each native fuzz target for $(FUZZTIME) on top of the checked-in
# seed corpora in testdata/fuzz and the golden streams in testdata/golden:
# the one snapshot decoder (the warm-start and restore-upload trust
# boundary), through both of its entry points — bayeslsh.DecodeSnapshot and
# core.RestoreSession — the live-ingest request parser (wire trust
# boundary), and the create/append row-body scanner against encoding/json
# (FuzzRowBodies: it declines a body or decodes the same rows). Both
# snapshot corpora include `schedule-bomb`, a CRC-valid snapshot of an
# empty cache whose params ask for a 3·10⁷-cell schedule —
# Params.Validate must refuse it at once; core's
# TestScheduleBombSeedsReachValidate keeps both seeds at the current format
# version.
fuzz:
	$(GO) test -run xxx -fuzz FuzzDecodeSnapshot -fuzztime $(FUZZTIME) ./internal/bayeslsh
	$(GO) test -run xxx -fuzz FuzzRestoreSession -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run xxx -fuzz FuzzAppendRowsBody -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run xxx -fuzz FuzzRowBodies -fuzztime $(FUZZTIME) ./internal/server

# bench-smoke is ci tier 4: the repository's benchmark (bench/) runs all
# four workloads and the traced pass in-process at 1/10 scale with every
# built-in check, and its declaration must match BENCHMARK.json.
bench-smoke:
	$(GO) test -count=1 ./bench

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-workers isolates the Search worker-pool speedup.
bench-workers:
	$(GO) test -run xxx -bench 'BenchmarkSearchWorkers[0-9]+$$' -benchmem ./internal/bayeslsh

# bench-repeat isolates the warm-cache probe cost: each row whose stored run
# is its candidate set is walked, under the run's one read lock, and every
# pair whose stored state answers the probe is decided there; only the pairs
# that need hashes reach the workers, and the probe scratch is pooled. It
# times the closed-cache repeat probe on the twitter stand-in, on the
# onboard-long shape (2 500 rows, 1.25 M dimensions; rows-walked/op must be
# every row with candidates) and on the explore-dense shape (500 rows, 2
# workers, after the 0.9/0.8/0.7/0.6 ladder; hits/op is every cached pair),
# each of whose hashes/op must read 0, and the 0.8/0.7/0.6/0.8 ladder after a
# cold 0.9. On the explore-dense shape it also times the two probes that
# generate rows instead of walking them: a cold 0.9 on a fresh cache, and the
# first 0.8 on a cache decoded from a snapshot taken after the ladder, whose
# runs carry no band (rows-walked/op 0, hashes/op 0). Wall time, allocs/op
# and hashes/op.
bench-repeat:
	$(GO) test -run xxx -bench 'Benchmark(RepeatProbe|RepeatProbeLong|RepeatProbeDense|ColdProbeDense|RestoredProbeDense|Ladder)$$' -benchmem .

# bench-curve isolates curve derivation: a 14-point curve (GET /curve's
# default) and a single point (what a cold /cues adds) over a synthetic store
# of 100 k pairs in the measured explore-dense shape (90 evidence states, 3 %
# verified). Time must not scale with pairs × points, allocs not with pairs.
bench-curve:
	$(GO) test -run xxx -bench 'BenchmarkCurve(14|At)$$' -benchmem ./internal/core

# bench-snapshot isolates the snapshot codecs. First the block walk itself:
# a 1 MB array of u32 and of f64 words through wire.U32s and wire.F64s, each
# way, in MB/s, where a per-element call in the walk shows up as a drop.
# Then, in the engine, the snapshot of a bare cache on the explore-dense
# shape after the 0.9/0.8/0.7/0.6 ladder (≈ 80 k cached pairs, its rows
# included): encode copies each row's run out under its read lock and
# writes it as it sits, decode fills each run from its records. Then the
# same stream as a whole session's on the onboard-long shape after the same
# ladder and one 40-row append (≈ 4.3 MB, its Jaccard rows as index sets
# without values), both ways: what every download, spill, persist, revive
# and restore pays; the rows are not hashed either way. Arrays move as blocks, a chunk per pack or unpack
# call, so ns/op tracks bytes, not words. ns/op and allocs/op; MB/s is of
# snapshot bytes, so it is comparable only across runs of one format
# version. The engine step also times the decision tables alone
# (BenchmarkDecisionTables): a cache with no rows for the default params,
# per measure, which every NewCache and every decode builds afresh.
bench-snapshot:
	$(GO) test -run xxx -bench 'Benchmark(U32s|F64s)$$' -benchmem ./internal/wire
	$(GO) test -run xxx -bench 'Benchmark(EncodeSnapshot|DecodeSnapshot|DecisionTables)$$' -benchmem ./internal/bayeslsh
	$(GO) test -run xxx -bench 'BenchmarkSession(Snapshot|Restore)$$' -benchmem .

# bench-sketch isolates sketching, the one-time cost of Fig 2.9, and the
# probe that follows it. NewCache on the onboard-long shape (2 500 rows of
# 100–120 indices over 1.25 M dimensions, minhash) and on the explore-dense
# shape (500 cosine rows, SRP, every Gaussian direction row generated
# afresh), both on 2 workers, in ns/nnz of wall time; then the first 0.9
# probe on a fresh onboard-long cache, sketched outside the timer: the
# candidate index build, generation of every row and hashing of every
# candidate. ns/op, allocs/op and hashes/op.
bench-sketch:
	$(GO) test -run xxx -bench 'Benchmark(NewCacheLong|NewCacheDense|ColdProbeLong)$$' -benchmem .

# serve runs the probe daemon on the default address (ADDR to override).
serve:
	$(GO) run ./cmd/plasmad -addr $(or $(ADDR),127.0.0.1:8080)

# smoke-server boots plasmad on a random port, drives one probe/curve/cues
# loop over HTTP, and verifies graceful shutdown.
smoke-server:
	sh ./scripts/smoke-server.sh

# smoke-cluster boots a 3-node plasmad cluster over a shared blob dir,
# creates sessions via different nodes, probes through non-owners, kills
# the owner, and asserts a survivor revives its session from the store.
smoke-cluster:
	sh ./scripts/smoke-cluster.sh

# ci runs tiers 1–5 in ci.sh's order; ci.sh runs this target.
ci: vet build short lint race smoke-server smoke-cluster bench-smoke fuzz
