#!/bin/sh
# ci.sh — the tiered verification gate. The tier definitions live in the
# Makefile; this script just sequences them so CI and developers run the
# same commands.
#
# Tier 1 (fast): vet + build + short tests, which still smoke-run every
# experiment ID at reduced scale, and decode + re-encode the golden
# snapshot streams byte for byte (wire-format drift without a version bump
# fails here).
# Tier 1b (lint): gofmt drift, go vet, and plasmalint — the custom
# invariant analyzers (internal/lint) that catch the repo's recurring bug
# classes (map-order nondeterminism, mixed atomic access, unbounded decode
# preallocation, envelope-bypassing error paths, interprocedural lock-order
# inversions and stale lock chains, leak-prone goroutine spawns) in seconds,
# before the race detector gets a chance. Any finding fails the tier.
# Tier 2 (race): race-detector pass over the concurrent engine, session,
# server, fan-out, miner and wire-codec packages, the session-lifecycle
# tests ten times over.
# Tier 3 (daemon smoke): boot plasmad on a random port, run a probe/curve/
# cues loop over HTTP, exercise snapshot persistence and a warm restart,
# and verify graceful shutdown. Then a 3-node cluster smoke: create via
# different nodes, probe through non-owners, kill the owner, and assert a
# survivor revives its session from the shared blob store.
# Tier 4 (bench json): plasmabench -json must produce a well-formed
# machine-readable report — the perf trajectory artifact — and benchdiff
# compares it against the checked-in BENCH_baseline.json: schema drift
# (version bump, missing block, changed experiment set) fails the build,
# timing regressions are warn-only.
# Tier 5 (fuzz): a bounded native-fuzzing pass (~60s total) over the
# parsers that consume untrusted bytes — the cache, session and spec
# snapshot decoders and the live-ingest request body — seeded from the
# checked-in corpora under testdata/fuzz/ and the golden streams under
# testdata/golden/.
# Tier 6 (full, optional via CI_FULL=1): the complete test suite including
# the seconds-long experiment sweeps.
set -eu

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

echo "== tier 1: vet + build + short tests =="
make vet build short

echo "== tier 1b: lint (gofmt + vet + plasmalint) =="
make lint

echo "== tier 2: race detector on concurrent packages =="
make race

echo "== tier 3: plasmad daemon smoke =="
make smoke-server

echo "== tier 3b: plasmad 3-node cluster smoke =="
make smoke-cluster

echo "== tier 4: plasmabench machine-readable report =="
bench_out="$scratch/bench.json"
# The scale must match BENCH_baseline.json's: benchdiff only compares wall
# times when scale and seed agree, so a mismatched scale would silently
# reduce tier 4 to a schema-only gate.
make bench-json BENCH_OUT="$bench_out" BENCH_SCALE=100
grep -q '"schema"' "$bench_out" || {
    echo "ci: bench-json produced no schema marker"; exit 1; }
grep -q '"cachedPairs"' "$bench_out" || {
    echo "ci: bench-json missing cache stats"; exit 1; }
grep -q '"repeatProbe"' "$bench_out" || {
    echo "ci: bench-json missing repeat-probe stats"; exit 1; }
grep -q '"ingest"' "$bench_out" || {
    echo "ci: bench-json missing ingest stats"; exit 1; }
go run ./cmd/benchdiff BENCH_baseline.json "$bench_out"
echo "ci: bench-json ok ($(wc -c < "$bench_out") bytes)"

echo "== tier 5: bounded fuzz over untrusted-input parsers =="
make fuzz

if [ "${CI_FULL:-0}" = "1" ]; then
    echo "== tier 6: full test suite =="
    make test
fi

echo "ci: all tiers passed"
