# Developer entry points. `make check` is the full pre-merge gate: it runs
# vet, a full build, the repo's own static-analysis suite (zkdet-lint), the
# complete test suite, the nested benchmark module's vet and short tests,
# and the race detector over the concurrency-bearing packages (the parallel
# FFT/MSM/prover hot paths).

GO ?= go

# Packages that spawn worker pools or serve concurrent clients; these get
# the race detector. contracts is here for the block proof check: the chain
# runs it with its state lock released, beside gossip screens on the same
# checker and (on a devnet) a late EnableConfidential registering into it. storage/core/zkdet-node joined
# once their lock annotations landed: the blob store, the circuit-key
# cache, and the JSON-RPC daemon all serve concurrent callers.
# internal/ff and internal/fr are here for the multiplication dispatch:
# NewField writes the kernel choice once, every prover goroutine reads it.
# internal/obs is here for the histogram: Observe runs beside Quantile.
RACE_PKGS = ./internal/ff/... ./internal/fr/... \
	./internal/poly/... ./internal/bn254/... ./internal/plonk/... ./internal/kzg/... \
	./internal/chain/... ./internal/node/... ./internal/indexer/... ./internal/contracts/... \
	./internal/storage/... ./internal/core/... ./internal/p2p/... ./cmd/zkdet-node/... \
	./internal/wal/... ./internal/snapshot/... ./internal/ct/... ./internal/obs/...

.PHONY: check vet build lint audit identity-names test test-fallback bench-module race fuzz-smoke bench bench-verify bench-p2p node-demo cluster-demo cluster-demo-durable

check: vet build lint audit identity-names test test-fallback bench-module race

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# lint first fails if gofmt would reformat any file (the nested benchmark
# module included). zkdet-lint is the repo-specific suite of eight analyzers
# (cryptocompare, errcompare, secretscope, gaspurity, lockguard, panicfree,
# detreplay, testonly), stdlib-only, defined in cmd/zkdet-lint. Non-zero exit
# on any finding; suppressions require a written justification (see
# DESIGN.md §9, §16).
lint:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l: these files need gofmt -w:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./cmd/zkdet-lint ./...

# The circuit soundness auditor (DESIGN.md §16): audits the constraint
# system of every circuit in internal/circuit/audit/registry for
# unconstrained wires, dead/duplicate gates, broken range checks, open
# custom-gate runs and unsatisfied gates, then runs the auditor's own unit
# and mutation-kill tests (every registered circuit must flag ≥95% of
# single-gate-deletion mutants; the clean baselines must stay at zero
# findings).
audit:
	$(GO) run ./cmd/zkdet-lint -audit
	$(GO) test ./internal/circuit/audit/...

# Some jobs of .github/workflows/ci.yml (state-, lookup-, ct-identity, the
# durable-restart job) select their tests with `-run 'A|B|…'` over a few
# packages, and `go test` is silent about an alternative that matches
# nothing: rename or delete a test and its job goes on passing while checking
# less. This lists the tests of each such job's packages and fails unless
# every alternative of its pattern still names at least one — read from the
# workflow itself, so there is no second copy of the lists to keep in step.
identity-names:
	@sed -n "/^ *-run '/{s/^ *-run '\(.*\)'/\1/;N;s/\n */ /;p;}" .github/workflows/ci.yml | \
	while read -r pattern pkgs; do \
		tests=$$($(GO) test -list '.*' $$pkgs) || exit 1; \
		for alt in $$(echo "$$pattern" | tr '|' ' '); do \
			echo "$$tests" | grep -Eq -- "$$alt" || { echo "identity-names: '$$alt' matches no test in $$pkgs"; exit 1; }; \
		done; \
	done

test:
	$(GO) test ./...

# On amd64 with ADX, ff.Field.Mul runs the assembly kernel (internal/ff/
# mul_amd64.s) and the pure-Go mulUnrolled is reached only as a test oracle.
# Every other GOARCH builds no assembly, so a 32-bit build of the same tests
# — it runs on the amd64 host — keeps the fallback exercised end to end with
# no build tag of our own: the field, FFT and curve suites, then the eight
# prover goldens — that they pass under both kernels is the cross-kernel
# bit-identity proof — and the four proof shapes' encoding, shape-refusal and
# tamper tests. The same 32-bit build then runs the SRS, snapshot and WAL
# decoders over their fuzz seeds, where a length field near 2^32 read as an
# int would wrap; each must be refused with the package's typed error. arm64
# cannot run here; it must at least build and vet.
test-fallback:
	GOARCH=386 $(GO) test ./internal/ff/ ./internal/fr/ ./internal/poly/ ./internal/bn254/
	GOARCH=386 $(GO) test -run 'TestClassicProverBitIdentity|TestExtendedProofSerializationRoundTrip|TestProofShapeMismatch|TestExtendedProofTamperRejected|TestLinearizationIsAffine|TestOpeningMSMWidth' ./internal/plonk/
	GOARCH=386 $(GO) test -run 'FuzzSRSFromBytes|TestSRSFromBytesRejectsTampering|FuzzSnapshotDecode|TestDecodeRefusesWrappedLengths|FuzzTornReplay|TestOpenTruncatesWrappedLength' ./internal/kzg/ ./internal/snapshot/ ./internal/wal/
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/ff/

# benchmark/ is its own Go module, so `./...` above never reaches it, yet it
# imports this module's internal packages (plonk.Prove/Verify/Setup/Batch
# among them): vet it and run its short tests so an API change here cannot
# break it unnoticed.
bench-module:
	$(GO) vet -C benchmark ./...
	$(GO) test -C benchmark -short ./...

# Proving under the race detector is 5-10x slower than native (internal/core
# re-proves full exchange lifecycles), so the default 10m per-package test
# timeout is not enough; raise it rather than thin out coverage.
race:
	$(GO) test -race -timeout=30m $(RACE_PKGS)

# Native Go fuzzing, smoke-length: every `func Fuzz*` target of the
# module's _test.go files (testdata, hidden directories and the nested
# benchmark module aside) runs for 10s, so a new target is smoke-tested with
# no edit here. They cover the byte-level attack surfaces: field-element
# decoding, transcript challenge derivation, the FFT against Horner, the MSM
# bucket kernel on colliding points, the state-trie op stream, WAL and
# snapshot decoding, proof and π_ct decoding, zkdet-node's JSON-RPC request
# bodies, and the three field-multiplication kernels against big.Int
# (FuzzFieldMul skips, saying so, on a host without ADX). CI runs this;
# `go test -fuzz` with a longer -fuzztime digs deeper locally.
fuzz-smoke:
	@find . \( -path './.*' -o -name testdata -o -path ./benchmark \) -prune -o -name '*_test.go' -print | sort | \
	while read -r file; do \
		for target in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' "$$file"); do \
			echo "fuzz-smoke: $$target in $$(dirname "$$file")"; \
			$(GO) test -run='^$$' -fuzz="^$$target\$$" -fuzztime=10s "$$(dirname "$$file")/" || exit 1; \
		done; \
	done

# Package-level prover-stack benchmarks (the field multiplication as
# latency, throughput and per kernel; Domain.FFT and G1MSM at 2^9..2^16 with
# the 3·2^k sizes 768, 1 536 and 6 144 between their neighbours — the rows
# that show what a key pays for the size it takes — kzg.Commit and
# plonk.Prove at 2^10..2^16, including 2^13, the π_e domain of the repo
# benchmark's probes), with -benchmem: bytes per MSM and per proof are
# bounded by the repo benchmark (alloc_mb_per_op, 3 %), so every recorded
# trajectory carries them; see EXPERIMENTS.md. Then ProduceBlock and
# ImportBlock of one 256-tx block on a DataNFT store pre-filled to
# 1k/10k/100k slots: ns/op flat across sizes is the state commitment's
# O(block) claim (DESIGN.md §11).
bench:
	$(GO) test -run='^$$' -bench='BenchmarkMul$$|BenchmarkMulThroughput$$|BenchmarkMulKernels$$|BenchmarkFFT$$|BenchmarkG1MSM$$|BenchmarkCommit$$|BenchmarkNewSRSFromSecret$$|BenchmarkProve$$' -benchmem \
		./internal/ff/ ./internal/poly/ ./internal/bn254/ ./internal/kzg/ ./internal/plonk/
	$(GO) test -run='^$$' -bench='BenchmarkProduceBlock$$|BenchmarkImportBlock$$' -benchtime=20x ./internal/contracts/

# Verification-engine benchmarks: the pairing check naive/sparse/precomp,
# single-proof plonk.Verify, and BatchVerify at N = 1, 4, 16, 64 (watch
# ns/proof flatten); see EXPERIMENTS.md §Fig. 7 for recorded numbers.
bench-verify:
	$(GO) test -run='^$$' -bench='BenchmarkPairingCheck$$|BenchmarkVerify$$|BenchmarkBatchVerify$$' \
		./internal/bn254/ ./internal/plonk/

# Network-layer benchmarks: gossip propagation latency vs fanout and
# headers-first sync time vs chain length, on the in-memory SimNet; see
# EXPERIMENTS.md §Network layer for recorded numbers.
bench-p2p:
	$(GO) test -run='^$$' -bench='BenchmarkGossipPropagation$$|BenchmarkChainSync$$' -benchtime=10x \
		./internal/bench/

# Boot the node daemon in-process and drive 100 concurrent clients through
# full exchange lifecycles over HTTP JSON-RPC; prints tx/s and p50/p99.
node-demo:
	$(GO) run ./cmd/zkdet-node load -clients 100

# Seven full ZKDET replicas over the fault-injecting simulated transport:
# gossip, leader rotation, a 3|4 partition healed mid-mint, an escrow sale,
# and a cluster-wide AuditLineage check on every node.
cluster-demo:
	$(GO) run ./cmd/zkdet-cluster

# The same cluster with every member persisting to a data directory, plus a
# SIGKILL-and-restart phase: one member is killed mid-run with no shutdown
# path, rebuilt from its snapshot + WAL tail alone, and must rejoin from
# checkpoint height and serve identical AuditLineage reports.
cluster-demo-durable:
	$(GO) run ./cmd/zkdet-cluster -data-dir $$(mktemp -d)
