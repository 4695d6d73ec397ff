# Developer entry points. `make check` is the tier-1 verification gate;
# `make race` additionally proves the concurrent data path (piece fan-out,
# parallel 2PC, buffer pooling), the daemons' transport (pooled TCP
# connections) and the harness hot path (wire codec, sharded timer wheel,
# per-link fabric state) clean under the race detector.

RACE_PKGS := ./internal/core ./internal/segstore ./internal/provider ./internal/cluster ./internal/wire ./internal/simtime ./internal/simnet ./internal/proxy ./internal/transport

.PHONY: check build test vet gob-guard race regress loc bench-build bench bench-transport bench-segstore scrub-chaos bench-scrub

check: build vet gob-guard test race

build:
	go build ./...

test:
	go test ./...

vet:
	go vet ./...

# encoding/gob stays off the data path: outside tests ({{.Imports}} leaves
# test files out) only the namespace WAL/snapshot and trace files may use it.
gob-guard:
	@bad=$$(go list -f '{{.ImportPath}} {{.Imports}}' ./... | grep -w 'encoding/gob' | cut -d' ' -f1 | \
		grep -v -x -e repro/internal/namespace -e repro/internal/trace); \
	if [ -n "$$bad" ]; then echo "encoding/gob imported outside internal/namespace and internal/trace:"; echo "$$bad"; exit 1; fi

race:
	go test -race $(RACE_PKGS)

# Regressions that need many runs to show: a write after Sync must find the
# segment its own client just committed (ROADMAP item 1, writer half); a
# reader must find an index whose home host restarted one version behind
# (item 1, reader half: the probe keeps listening past stale answers); and
# Provider.Stop must survive handlers that keep spawning work. Then the owner
# walk: concurrent appends under -race (an open must not base a session on a
# version consolidated away, nor a commit on a stale replica), a commit past
# a stale co-located replica, the coordinator's refusal of a plan behind the
# base, a shadow open past a stale home answer, a commit retry that replays
# onto the versions the session was based on, a commit after one whose
# namespace record was lost, a file read after five such commits in a row,
# and a location table that a late update never rolls back. Then the lent
# request frame and the running sums: 64 pieces written back to back over
# TCP must commit and verify as written, serving a 1 MiB SegWrite must not
# allocate its payload (-race), and every commit shape must keep its sums
# true to its bytes.
regress:
	go test ./internal/cluster -run 'TestGrowingFileAcrossManySegments$$' -count=200
	go test ./internal/cluster -run 'TestNamespaceWALRecoversAfterMidCommitCrash$$' -count=300
	go test ./internal/provider -run 'TestStopUnderLocationStorm$$' -race -count=50
	go test ./internal/cluster -run 'TestAtomicAppendConcurrent$$' -race -count=200
	go test ./internal/core -run 'TestCommitPublishesPastAStaleCoLocatedReplica$$|TestCommitRefusesAnIndexPlanBehindTheBase$$|TestShadowOpenProbesPastAStaleHomeAnswer$$|TestCommitRetryReplaysOntoTheBaseVersions$$|TestCommitAfterALostNamespaceRecord$$|TestReadAfterManyLostNamespaceRecords$$' -count=200
	go test ./internal/locate -run 'TestUpdateNeverLowersVersion$$' -count=200
	go test ./internal/core -run 'TestTCPBackToBackWritesKeepTheirBytes$$' -count=50
	go test ./internal/transport -run 'TestTCPServeLendsTheRequestFrame$$' -race -count=20
	go test ./internal/segstore -run 'TestCommitPathsMatchFlatModel$$|TestExtentRunningSums$$|TestSizedShadowCommitsOneBuffer$$' -count=20

# Non-test Go lines per package outside benchmark/ — the number ROADMAP's
# "least code" aim is judged by, so "net-negative" is a command, not a claim.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path './.bench_build/*' | \
		xargs wc -l | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%6d %s\n", n[d], d; printf "%6d total\n", t }' | sort -k2

# The repository benchmark (benchmark/, its own module, frozen) compiles
# against internal/ APIs that root `go build ./...` never checks for it; this
# builds and smoke-tests it (~14 s) so an API change that breaks the driver
# fails here and not in the benchmark pipeline.
bench-build:
	cd benchmark && go vet ./... && go test ./...

# Parallel data-path microbenchmarks (modeled MB/s per stripe width).
bench:
	go test -run XXX -bench 'BenchmarkParallelStriped' -benchtime 3x .

# Codec and fabric microbenchmarks (binary-vs-gob, serving a verified range
# in one CRC pass, index segment, parallel-pair scaling).
bench-harness:
	go test -run XXX -bench 'BenchmarkCodec|BenchmarkVerifyRange' -benchmem ./internal/wire
	go test -run XXX -bench 'BenchmarkIndexCodec' -benchmem ./internal/layout
	go test -run XXX -bench 'BenchmarkFabricParallelPairs' ./internal/simnet

# One RPC over loopback TCP on a pooled connection: ns/op and allocs/op for
# a namespace-sized call, a 12 KiB and a 1 MiB SegWrite and a 1 MiB
# SegReadResp, the last decoded to fresh memory and into a reply buffer.
bench-transport:
	go test -run XXX -bench 'BenchmarkTCPCall' -benchmem ./internal/transport

# A provider's foreground write path for one segment: a 2 MiB data segment
# written front to back in 256 KiB pieces and committed, its Prepare and
# CommitPrepared timed alone, and a 12 KiB index segment replaced whole. MB/s, B/op and allocs/op name the layer when the
# benchmark's bulk-host write_MB_per_s or commit_p50_ms moves.
bench-segstore:
	go test -run XXX -bench 'BenchmarkCommitSequential' -benchmem ./internal/segstore

# Harness scaling sweep: CPU per modeled second, heartbeat keep-up, and
# per-node control bytes at 128/256/512 providers → BENCH_harness.json.
scale:
	go run ./cmd/sorrento-bench -exp harness -metrics-out ''

# Gateway open-loop sweep: 100k thin connections through 4 proxies, offered
# load vs p50/p99 latency and proxy CPU → BENCH_proxy.json.
bench-proxy:
	go run ./cmd/sorrento-bench -exp proxy -metrics-out ''

# Storage-corruption chaos: bit rot, torn and lost writes layered over the
# network/process storm, asserting no acked commit is ever served with wrong
# bytes and every injected corruption is scrubbed and repaired.
scrub-chaos:
	go test ./internal/cluster -run TestChaosCorruptionSeeded -race -count=1 -v

# Integrity scrub sweep: detection latency and repair time vs scrub pace
# with a batch of corrupted replicas → BENCH_integrity.json.
bench-scrub:
	go run ./cmd/sorrento-bench -exp scrub -metrics-out ''
