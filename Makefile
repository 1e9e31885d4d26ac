GO ?= go

# Benchmarks folded into BENCH_8.json by `make bench-json`.
BENCH_PATTERN ?= ElmoreDelays|AnalyzeBounds|MomentsOrder6|IncrementalSet|SimTransient|SimPlanReuse|TableI$$

.PHONY: check build test vet race health-strict chaos fuzz-smoke bench bench-json bench-smoke bench-incremental scaling-smoke obs-smoke serve-smoke fmt

check: vet build race

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# The full suite with a strict numerical-health monitor installed:
# any NaN/Inf, Lemma 2, or bound-ordering violation fails the run.
health-strict:
	ELMORE_STRICT_NUMERICS=1 $(GO) test ./...

# Fault-injection chaos suite under the race detector: thousands of
# batch jobs with seeded faults in the simulator, moment engine, and
# dispatcher, plus the journal resume and cancellation-leak tests.
# Tests are selected by name, so run_named_tests.sh fails the lane when
# a rename leaves part of the selection matching nothing.
chaos:
	GO=$(GO) bash scripts/run_named_tests.sh \
		'TestChaos|TestJournal|TestRunSpecsJournalResume|TestRunFuncStopsEmittingAfterCancel' \
		-race -count=1 -- ./internal/batch
	$(GO) test -race -count=1 ./internal/faultinject ./internal/resilience ./internal/cliutil

# Short exploratory fuzz runs for the two line-oriented parsers. Go
# allows one -fuzz pattern per package invocation, hence two commands.
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test -fuzz=FuzzReadSpecs -fuzztime=$(FUZZTIME) ./internal/batch
	$(GO) test -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/netlist

bench:
	$(GO) test -bench=. -benchmem ./...

# Run the scaling benchmarks and merge them into BENCH_8.json as the
# "after" side (pipe a saved baseline through
# `go run ./cmd/benchjson -label before -o BENCH_8.json` first).
# Compare ledgers across PRs with
# `go run ./cmd/benchjson -diff BENCH_7.json BENCH_8.json`.
bench-json:
	( $(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -timeout 90m . \
	  && $(GO) test -run '^$$' -bench 'Batch10kNets' -benchmem -timeout 30m ./internal/batch ) \
		| $(GO) run ./cmd/benchjson -label after -merge -o BENCH_8.json

# Incremental-engine speedup floor: on a 100k-node chain, a single SetC
# at the leaf plus re-bounding the perturbed sink must beat a full
# analysis by >= 10x. Takes a few seconds. Both sides are O(n) on this
# probe (the full side's PRH T_R is one sweep, and a leaf edit moves
# every moment of the chain), so the ratio is a constant factor.
bench-incremental:
	ELMORE_BENCH_SMOKE=1 $(GO) test -run TestIncrementalSpeedupSmoke -v -count=1 -timeout 600s .

# One iteration of every benchmark: exercises the bench code paths in
# CI without measuring anything.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x -benchmem ./...

# Scaling-diagnosis smoke: a small scalestat sweep under the race
# detector, validated by -check (report must parse, efficiency and
# attribution fields must be finite, >= 95% of per-worker wall time
# accounted), plus a profiled batch run that exercises the contention
# observability path end to end (mutex/block/heap pprof capture and
# runtime_sample records in the trace). On boxes with >= 4 CPUs the
# check also enforces the scaling floors the sharded-cache fix bought:
# parallel efficiency >= 0.5, speedup >= 0.5 x workers per step, and a
# lock-wait share under 10% of attributed worker time; below 4 CPUs
# scalestat skips the floors (noted on stderr) so laptops and
# single-core runners stay green.
scaling-smoke:
	mkdir -p artifacts
	$(GO) run -race ./cmd/scalestat -nets 200 -nodes 16 -share 20 -workers 1,2 \
		-check -efficiency-min 0.5 -speedup-min 0.5 -lockwait-max 0.10 -min-cpus 4 \
		-o artifacts/scaling-report.json -bench-out artifacts/scaling-bench.json
	$(GO) run -race ./cmd/boundstat -trees 60 -max-nodes 24 \
		-profile-dir artifacts/profiles -mutex-profile 5 -block-profile 10000 \
		-runtime-sample 100ms -trace artifacts/scaling-trace.ndjson \
		> artifacts/scaling-boundstat.txt
	$(GO) run ./cmd/tracestat -by-goroutine artifacts/scaling-trace.ndjson

# Observability smoke (PR 9): a seeded-fault chaos batch with the full
# lineage pipeline armed — per-job trace_ids, the always-on flight
# recorder, SLO objectives — then assert the run is reconstructable:
# every job maps to a unique trace, the flight dump exists and links
# back to the run, every degraded job's attempt lineage appears in
# tracestat -by-trace, and the summary's SLO rows account for every
# job. Finally the disabled-path budgets: with no tracer/recorder/SLOs
# installed the per-job observability cost must stay at zero
# allocations (AllocsPerRun-asserted in the named tests, which
# run_named_tests.sh fails on when a rename drops one).
obs-smoke:
	mkdir -p artifacts
	$(GO) run ./cmd/rcgen -topology random -n 24 -seed 7 -o artifacts/obs-net.sp
	seq 1 40 | awk '{printf "{\"id\":\"j%d\",\"net\":\"artifacts/obs-net.sp\",\"dt\":\"1p\"}\n", $$1}' \
		> artifacts/obs-jobs.ndjson
	rm -f artifacts/obs-flight.ndjson
	ELMORE_FAULTS='sim.step:error:p=0.05' ELMORE_FAULT_SEED=9 \
	$(GO) run ./cmd/boundstat -jobs artifacts/obs-jobs.ndjson \
		-workers 4 -retries 2 -slo p99=1s,p50=1ms -summary -progress 0 \
		-trace artifacts/obs-trace.ndjson \
		-flight-dump artifacts/obs-flight.ndjson \
		> artifacts/obs-results.ndjson 2> artifacts/obs-summary.ndjson
	test -s artifacts/obs-flight.ndjson
	$(GO) run ./cmd/tracestat -by-trace \
		artifacts/obs-trace.ndjson artifacts/obs-flight.ndjson \
		| tee artifacts/obs-bytrace.txt
	python3 scripts/obs_lineage_check.py artifacts/obs-jobs.ndjson \
		artifacts/obs-results.ndjson artifacts/obs-flight.ndjson \
		artifacts/obs-bytrace.txt artifacts/obs-summary.ndjson
	GO=$(GO) bash scripts/run_named_tests.sh \
		'TestWorkerLoopAllocBudget|TestFlightDisabledPathFree|TestMintTraceAllocFree|TestSketchBoundedMemory|TestReporterBoundedLatencyMemory' \
		-count=1 -v -- ./internal/batch ./internal/telemetry

# Serve-mode contracts: elmored's own tests, under the race detector.
# A real process SIGTERMed mid-way through a journaled batch exits 0,
# dumps its flight ring and resumes exactly-once after a restart;
# overload sheds with Retry-After (429 per tenant, 503 at capacity) and
# counts the sheds in /metrics; distinct nets hold the cache to its
# -cache-mb budget with evictions; SIGTERM always drains to exit 0.
# Load and latency are measured open-loop by perfbench serve-open.
# run_named_tests.sh fails the lane when a rename drops a test.
serve-smoke:
	GO=$(GO) bash scripts/run_named_tests.sh \
		'TestProcessSIGTERMMidBatchResumesExactlyOnce|TestKillAndRestartExactlyOnce|TestRateShed429WithRetryAfter|TestCapacityShed503WithRetryAfter|TestDistinctNetsHoldFlatHeap|TestRunServesMetricsAndExitsZeroOnSIGTERM|TestSIGTERMAfterFirstHealthyDrains' \
		-race -count=1 -v -- ./cmd/elmored

fmt:
	gofmt -l .
