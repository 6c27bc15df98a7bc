GO           ?= go
BENCHTIME    ?= 100x
# Time-based so fast hot-path benchmarks accumulate enough measured time
# to be stable; iteration counts (e.g. 2000x) make the gate noise-bound.
GATETIME     ?= 1s
SOAK_SECONDS ?= 60
SOAK_EVENTS  ?= 400
SOAK_SEED    ?= 0
# bench-pair: the base tree to compare against, and the pairs of runs.
BASE         ?=
PAIRS        ?= 10
# Measure phase of `make bench-run`; BENCHMARK.json's own runs use 15.
SECONDS      ?= 3

.PHONY: build test race bench bench-check bench-run bench-stretch bench-gate bench-pair bench-pair-e2e loc soak soak-10k clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench-check vets and tests the benchmark, which is its own module
# (bench/go.mod) and so outside `go build ./... && go test ./...`: it
# calls live's exported API, and this is what notices a name it uses
# being renamed or deleted.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# bench-run builds the loadgen as the benchmark driver does and runs all
# four workloads for SECONDS each: one command that shows the benchmark
# still builds and still ends `correct: true` with `failed 0` everywhere
# (it exits non-zero otherwise). The figures of a run this short are a
# smoke, not a measurement.
bench-run:
	bash bench/run.sh --seconds $(SECONDS)

# loc prints the non-test Go lines of the packages ROADMAP's line-count
# diet covers, one per line and their sum.
loc:
	@total=0; for p in internal/live internal/loccache internal/metrics; do \
		n=$$(cat $$(ls $$p/*.go | grep -v _test.go) | wc -l); total=$$((total + n)); \
		printf '%-20s %s\n' $$p $$n; \
	done; printf '%-20s %s\n' total $$total

# bench runs the address-resolution benchmarks (cold discovery vs the
# lease-aware cache's hot/cold-miss paths, the hot path's scaling
# from one goroutine to GOMAXPROCS, the cache's own hit path from every
# processor and its fill into a full cache, and the serve path's
# pipelined capacity over a loopback socket) and the publish benchmarks
# (RPCs per full publish, and per
# move's one-record publish, at 1/100/10k owned records), recording the
# results as BENCH_resolve.json and BENCH_publish.json. The nodes and the cache run with counters and
# gauges on, as bristled runs them. Override BENCHTIME (e.g. BENCHTIME=2s)
# for a statistically meaningful local run; the 100x default is a CI
# smoke.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkResolve|^BenchmarkDiscover$$|^BenchmarkServePipelinedTCP$$' \
		-benchtime $(BENCHTIME) -benchmem ./internal/live | tee bench_resolve.txt
	$(GO) test -run '^$$' -bench '^BenchmarkLookupHitParallel$$|^BenchmarkPutEvict$$' \
		-benchtime $(BENCHTIME) -benchmem ./internal/loccache | tee -a bench_resolve.txt
	$(GO) run ./cmd/benchgate json -in bench_resolve.txt -out BENCH_resolve.json
	@rm -f bench_resolve.txt
	$(GO) test -run '^$$' -bench 'BenchmarkPublishBatch|BenchmarkMovePublish|BenchmarkPublishIngestParallel' \
		-benchtime $(BENCHTIME) -benchmem ./internal/live | tee bench_publish.txt
	$(GO) run ./cmd/benchgate json -suite publish -in bench_publish.txt -out BENCH_publish.json
	@rm -f bench_publish.txt

# bench-stretch records the proximity stretch evaluation: one 10k-router
# transit-stub run per variant (full proximity stack, latency ordering
# only, random baseline), identical seed and workload, with
# median-stretch/p90-stretch/mean-cost captured into BENCH_stretch.json.
# The runs are deterministic, so -benchtime 1x is the whole measurement.
bench-stretch:
	$(GO) test -run '^$$' -bench BenchmarkStretch -benchtime 1x \
		./internal/stretch | tee bench_stretch.txt
	$(GO) run ./cmd/benchgate json -suite stretch -in bench_stretch.txt -out BENCH_stretch.json
	@rm -f bench_stretch.txt

# bench-gate re-measures the hot-path benchmarks and fails if any of them
# gained allocations or lost a zero-allocation guarantee against the
# committed BENCH_*.json baselines — hard bounds, they do not jitter — or
# more than doubled its ns/op. The timing bound is that loose on purpose:
# the two RunParallel hit benchmarks are bimodal on a 2-vCPU VM (39 or
# 66 ns, +69 %, at an untouched commit), so a tighter one is a coin;
# timings are judged by alternating paired runs (ROADMAP: gate timings
# by pairs, not by baselines).
# GATETIME trades gate runtime for measurement stability. The stretch
# leg gates on the absolute stretch metrics (deterministic per seed, so
# enforceable as hard bounds) rather than wall time, which varies with
# machine load — hence -ignore-allocs. The pipelined serve
# benchmark is gated on what it exists to show: replies share socket
# writes (frames/write >= 2) at no extra allocation per frame. The
# cache's fill (BenchmarkPutEvict) is held to its baseline's one
# allocation, the entry: a fill that evicts allocates nothing else. The hot
# resolve is gated on what the lock-free hit path exists to show: a
# second processor is worth at least 0.7 of a first (scaling >= 0.7;
# BenchmarkResolveHotScaling reports 1 when GOMAXPROCS is 1, where there
# is nothing to scale to). The cold leg gates what the cold resolve is
# held to — allocations per miss and per discover, which do not jitter —
# and leaves its timing, which does, the same factor of two. A move's
# publish (BenchmarkMovePublish) is held to its baseline's allocations at
# 1, 100 and 10k owned keys: a move costs the same whatever the node owns.
bench-gate:
	$(GO) test -run '^$$' -bench 'BenchmarkResolveHot|BenchmarkPublishIngestParallel|^BenchmarkServePipelinedTCP$$|^BenchmarkMovePublish' \
		-benchtime $(GATETIME) -benchmem ./internal/live | tee bench_gate.txt
	$(GO) test -run '^$$' -bench '^BenchmarkLookupHitParallel$$|^BenchmarkPutEvict$$' \
		-benchtime $(GATETIME) -benchmem ./internal/loccache | tee -a bench_gate.txt
	$(GO) run ./cmd/benchgate -new bench_gate.txt \
		-baselines BENCH_resolve.json,BENCH_publish.json -max-regress-pct 100 \
		-zero-alloc BenchmarkResolveHotParallel,BenchmarkPublishIngestParallel,BenchmarkLookupHitParallel \
		-min-metric 'BenchmarkServePipelinedTCP/frames/write=2,BenchmarkResolveHotScaling/scaling=0.7'
	@rm -f bench_gate.txt
	$(GO) test -run '^$$' -bench '^BenchmarkResolveColdMiss$$|^BenchmarkDiscover$$' \
		-benchtime $(GATETIME) -benchmem ./internal/live | tee cold_gate.txt
	$(GO) run ./cmd/benchgate -new cold_gate.txt \
		-baselines BENCH_resolve.json -max-regress-pct 100
	@rm -f cold_gate.txt
	$(GO) test -run '^$$' -bench BenchmarkStretch -benchtime 1x \
		./internal/stretch | tee stretch_gate.txt
	$(GO) run ./cmd/benchgate -new stretch_gate.txt \
		-baselines BENCH_stretch.json \
		-ignore-allocs -max-regress-pct 100 \
		-max-metric 'BenchmarkStretchProximity10k/median-stretch=1.5' \
		-min-metric 'BenchmarkStretchRandom10k/median-stretch=1.2'
	@rm -f stretch_gate.txt

# bench-pair judges this tree's timings against BASE, another checkout
# (e.g. `git archive $(git merge-base origin/main HEAD) | tar -x -C
# /tmp/base`): it builds the gate's micro benchmarks from both, runs the
# two builds in turn PAIRS times on this host, and fails a benchmark only
# if a sign test finds it slower and its median slowdown is over 25 %, or
# if it allocates more (cmd/benchgate/pair.go).
bench-pair:
	@test -n "$(BASE)" || { echo "bench-pair: set BASE to the base tree"; exit 2; }
	$(GO) run ./cmd/benchgate pair -n $(PAIRS) $(BASE) .

# bench-pair-e2e judges this tree end to end against BASE: it runs every
# loadgen workload (bench/run.sh) in the two trees in turn, PAIRS times
# for BASE's BENCHMARK.json run_seconds (15 s) each, and fails on a run
# that is not correct or on an end-to-end metric whose median is worse
# than BENCHMARK.json's bound (cmd/benchgate/loadgen.go). Ten pairs of
# the four workloads take about 25 minutes.
bench-pair-e2e:
	@test -n "$(BASE)" || { echo "bench-pair-e2e: set BASE to the base tree"; exit 2; }
	$(GO) run ./cmd/benchgate pair -loadgen chunk_stream,cold_fanin,hot_key_storm,batch_mover -n $(PAIRS) $(BASE) .

# soak runs randomized seeded mobility/churn scenarios on the scenario
# harness (internal/harness) under the race detector until the
# SOAK_SECONDS budget runs out. A failure prints the reproducing
# BRISTLE_SOAK_SEED; re-run with it set to replay the identical op
# schedule.
soak:
	BRISTLE_SOAK_SECONDS=$(SOAK_SECONDS) $(GO) test -race -count=1 \
		-run 'TestSoak$$' -timeout 20m -v ./internal/harness

# soak-10k boots the production-scale fabric — a 64-node stationary core
# fronting 9936 verified mobiles — and drives it through a
# Weibull-churn schedule with event-budgeted invariant checking. Wall
# clock is bounded by SOAK_EVENTS, not cluster size. Runs without the
# race detector (10k nodes under -race needs more memory than CI has);
# the 200-node TestChurn200Weibull covers the same paths under -race.
# A failure prints the reproducing seed; replay it with SOAK_SEED=<seed>
# (and the same SOAK_EVENTS) for a byte-identical op schedule.
soak-10k:
	BRISTLE_SOAK10K=1 BRISTLE_SOAK_EVENTS=$(SOAK_EVENTS) \
		BRISTLE_SOAK_SEED=$(SOAK_SEED) $(GO) test -count=1 \
		-run 'TestSoak10k$$' -timeout 30m -v ./internal/harness | tee soak10k.log

# clean removes the scratch files the targets above write and nothing that
# is committed: BENCH_*.json are the baselines bench-gate compares against.
clean:
	rm -f bench_*.txt *_gate.txt soak10k.log
