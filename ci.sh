#!/bin/sh
# ci.sh — the tiered verification gate. The tier definitions and their
# order live in the Makefile: `make ci` runs tiers 1–5, so CI and developers
# run the same commands. This script runs it, then tier 6 when asked.
#
# Tier 1 (fast): vet + build + short tests, which still smoke-run every
# experiment ID at reduced scale, and decode + re-encode the golden
# snapshot streams byte for byte (wire-format drift without a version bump
# fails here).
# Tier 1b (lint): gofmt drift, go vet, and plasmalint — the custom
# invariant analyzers (internal/lint) that catch the repo's recurring bug
# classes (map-order nondeterminism, function-style atomics, unbounded decode
# preallocation, envelope-bypassing error paths) in seconds, before the race
# detector gets a chance — and the no-fusion check: lsh, vec, bayeslsh,
# stats and core cross-compiled for arm64 must contain no fused
# multiply-add. Every rule is absolute: any finding fails the tier, and no
# comment excuses one.
# Tier 2 (race): race-detector pass over the concurrent engine, session,
# server, sketch-family (SRP's lock-free direction cache), fan-out, miner
# and wire-codec packages, the session-lifecycle tests ten times over.
# Tier 3 (daemon smoke): boot plasmad on a random port, run a probe/curve/
# cues loop over HTTP, exercise snapshot persistence and a warm restart,
# and verify graceful shutdown. Then a 3-node cluster smoke: create via
# different nodes, probe through non-owners, kill the owner, and assert a
# survivor revives its session from the shared blob store.
# Tier 4 (benchmark smoke): the repository's benchmark (bench/) runs all
# four workloads and the traced pass in-process at 1/10 scale with every
# built-in check (daemon == shadow session, grown == from-scratch, cluster
# == single node, exact counts repeat), and its declaration must match
# BENCHMARK.json.
# Tier 5 (fuzz): a bounded native-fuzzing pass (~60s total) over the
# parsers that consume untrusted bytes — the one snapshot decoder, fuzzed
# through both entry points (bayeslsh.DecodeSnapshot and
# core.RestoreSession), the live-ingest request body (FuzzAppendRowsBody),
# and the create/append row-body scanner, differentially against
# encoding/json (FuzzRowBodies) — seeded from the checked-in corpora under
# testdata/fuzz/ and the golden streams under testdata/golden/.
# Tier 6 (full, optional via CI_FULL=1): the complete test suite including
# the seconds-long experiment sweeps.
# Not tiers — timing is read by a person, not gated: the single-layer
# `go test -bench` entries `make bench-workers` (probe worker pool),
# `make bench-repeat` (warm repeat probe), `make bench-curve` (curve
# derivation over 100 k cached pairs), `make bench-snapshot` (the wire
# block walk, a bare cache's snapshot encode and decode, and a whole
# session's snapshot and restore) and `make bench-sketch` (NewCache's
# minhash and SRP sketching, and the cold probe after it), and the full
# `go run ./bench`.
set -eu

make ci

if [ "${CI_FULL:-0}" = "1" ]; then
    echo "== tier 6: full test suite =="
    make test
fi

echo "ci: all tiers passed"
