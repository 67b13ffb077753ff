GO ?= go

.PHONY: all build test race stress lint lint-perf lint-self vet bench bench-e2e fault chaos experiments golden determinism

all: build lint test

build:
	$(GO) build ./...

# Repo-specific static analysis: per-function analyzers (lockdiscipline,
# seededrand, floateq, nopanic) plus the inter-procedural ones
# (hotpathalloc, errflow, deepdeterminism, the concurrency set lockorder,
# atomicmix, goroutinelife, kernelpure, and the compiler-feedback budgets
# escapes, nobce, inlinebudget) — see DESIGN.md §8, §12 and §13. -github
# makes each finding a ::error annotation under Actions; it prints nothing
# extra when the tree is clean.
#
# gofmt runs first, over every Go file outside testdata/ (the analyzer
# fixtures keep their deliberate shapes).
lint:
	@unformatted=$$(find . -name '*.go' -not -path '*/testdata/*' | xargs gofmt -l); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l reports unformatted files:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/e2nvm-lint -github ./...

# Compiler-feedback budgets only (escapes/nobce/inlinebudget): each package
# is compiled with -m=2 and the BCE debug flag and the diagnostics are
# checked against the lint:hotpath/lint:nobce/lint:inline contracts. The
# per-package compiler output is cached under ~/.cache/e2nvm-gcdiag keyed
# on go version + source hash, so a warm run recompiles nothing.
lint-perf:
	$(GO) run ./cmd/e2nvm-lint -github -gcdiag-only ./...

# The analyzers must satisfy their own invariants (lock discipline in the
# engine's worklists, seeded randomness in fixtures, error flow in the
# loader): run the suite over internal/analysis itself — gcdiag and the
# three budget analyzers included, since they live under internal/analysis.
lint-self:
	$(GO) run ./cmd/e2nvm-lint -github ./internal/analysis/...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Concurrency stress: the multi-goroutine facade hammer (sharded and
# unsharded) plus the kvstore/shard concurrency suites, under the race
# detector.
stress:
	$(GO) test -race -run 'TestConcurrentStress|TestRetrainConcurrentPut|TestScanReentrant' \
		. ./internal/kvstore ./internal/shard

# Worker-count independence: the VAE trainer against its one-sample-at-a-
# time reference (every weight, gradient and Adam moment bit for bit), the
# parallel EncodeAll against Encode, the split Adam step against a serial
# loop and the seeded layer training, each at GOMAXPROCS 1, 2 and 4 — the
# model code's results must not depend on how many goroutines compute them.
determinism:
	$(GO) test -count=1 -cpu 1,2,4 \
		-run 'TestTrainerMatchesReference|TestEncodeAllMatchesEncode|TestAdamStepMatchesSerialLoop|TestDenseSameSeedBitIdentical' \
		./internal/nn ./internal/vae

# Fault-injection pipeline under the race detector: the nvm fault model,
# kvstore detect/retry/retire/scrub tests, the crash matrix, the txn worn-
# slot tests, pool retirement, and the record-codec fuzz seeds (see
# DESIGN.md §9).
fault:
	$(GO) test -race -run 'Fault|Worn|Retire|Scrub|Degrad|Corrupt|CrashMatrix|Fuzz' \
		./internal/nvm ./internal/kvstore ./internal/txn ./internal/dap ./internal/experiments .
	$(GO) test -race -run=NONE -fuzz FuzzRecordRoundTrip -fuzztime 10s ./internal/kvstore

# Replication chaos: the seeded kill-a-shard-mid-workload suite (leader
# devices fenced at fixed points while concurrent writers run; zero lost
# acknowledged writes), the follower-apply/migration crash matrices, and
# the facade failover/migration lifecycle — all under the race detector.
# Every seed is fixed in the tests, so a failure reproduces exactly.
chaos:
	$(GO) test -race -run 'TestChaos|TestCrashMatrix|TestReplicatedFailoverAndMigration' \
		./internal/replica .

# The repo's benchmark (bench/, declared in BENCHMARK.json), full length:
# all four workloads at the default seed and -seconds, untraced end-to-end
# pass plus traced per-layer pass, every read checked against a shadow map.
# This regenerates the committed baseline every number in README.md,
# DESIGN.md and EXPERIMENTS.md is quoted from (~2.5 min on 2 vCPU, about a
# third of it model training).
bench:
	$(GO) run ./bench -out BENCH_PR14.json

# The same program with -quick (1/20-length tapes): a smoke run that every
# workload still opens, serves and verifies — what CI's bench-smoke job
# runs. Its numbers are not a baseline; see bench/README.md.
bench-e2e:
	$(GO) run ./bench -quick

# Regenerate experiments_output.txt, the committed record every number in
# EXPERIMENTS.md is quoted from: every registered experiment at scale 0.5,
# seed 42 (~1 min on 2 vCPU). The file is only replaced when every
# experiment succeeds.
experiments:
	$(GO) run ./cmd/e2nvm-bench -all -scale 0.5 -seed 42 > experiments_output.txt.tmp
	mv experiments_output.txt.tmp experiments_output.txt

# Every experiment rerun and compared with experiments_output.txt, line by
# line, wall-clock cells and timing lines masked: a change that moves a
# simulated number fails here until the file is regenerated with
# `make experiments`. Not under -race, where the test skips itself.
golden:
	$(GO) test -count=1 -run TestExperimentsMatchCommittedOutput ./internal/experiments
