#!/usr/bin/env bash
# check.sh — the canonical verify command for this repo.
#
# With no argument every leg runs sequentially: static analysis, a full
# build, the race-enabled test suite, the targeted golden/precision
# suites, and a short fuzz pass over the hostile-input parsers, the
# cache entry check and the format-part scanner.
# CI fans the same gate out across parallel matrix legs:
#
#   check.sh static   gofmt, go.mod tidy drift, vet, build, firmbench2
#   check.sh race     -race suite + targeted concurrency gates
#   check.sh suites   goldens, alloc/precision gates, stripped F1 and the
#                     extern model, report decoder, fuzz
#
# Pre-merge checks should invoke this (or `make check`, which delegates
# here); a leg name runs just that slice.
set -euo pipefail
cd "$(dirname "$0")/.."

FUZZTIME="${FUZZTIME:-10s}"

leg_static() {
	echo "== gofmt"
	# gofmt ships with the toolchain but lives in GOROOT/bin, which minimal
	# installs don't always put on PATH; fail with a pointer, not a bash error.
	if ! command -v gofmt >/dev/null 2>&1; then
		echo "gofmt not found on PATH; add \$(go env GOROOT)/bin or install the full Go toolchain" >&2
		exit 1
	fi
	unformatted=$(gofmt -l .)
	if [ -n "${unformatted}" ]; then
		echo "gofmt needed on:" >&2
		echo "${unformatted}" >&2
		exit 1
	fi

	echo "== go mod tidy drift"
	# `go mod tidy -diff` needs Go 1.23+, and go.mod pins 1.22 — so tidy a
	# throwaway copy of the module metadata and diff it against the originals.
	tidydir=$(mktemp -d)
	trap 'rm -rf "${tidydir}"' EXIT
	cp -r . "${tidydir}/mod"
	(cd "${tidydir}/mod" && go mod tidy)
	for f in go.mod go.sum; do
		if [ -e "${f}" ] || [ -e "${tidydir}/mod/${f}" ]; then
			if ! diff -u "${f}" "${tidydir}/mod/${f}"; then
				echo "go.mod/go.sum drift: run 'go mod tidy' and commit the result" >&2
				exit 1
			fi
		fi
	done

	echo "== go vet"
	go vet ./...

	echo "== go build"
	go build ./...

	echo "== firmbench2 (separate module over this checkout: vet + tests)"
	# The root build never compiles the benchmark module, so a root API
	# change that breaks it would otherwise surface only at benchmark time.
	(cd firmbench2 && go vet ./... && go test ./...)
}

leg_race() {
	echo "== go test -race"
	go test -race ./...

	echo "== scheduler (atomic index claiming: determinism, stranded index, panic, cancellation) under -race"
	go test -race ./internal/parallel

	echo "== firmres driver (outputs printed in input order from every worker, a fatal image cancelling the run, cache hits and misses counted in input order, unreadable images counted in progress, progress and error lines on one stderr) under -race"
	go test -race -count=10 -run 'TestJobsAgree$|TestCacheMetricsAgreeAcrossJobs$|TestProgressCountsUnreadableImages$' ./cmd/firmres

	echo "== stage runner (inline stages: a cancelled stage commits nothing and leaves no work running, a panicked stage still releases its program, a call's cancellation spares its single-flight waiters) under -race"
	go test -race -count=10 -run 'TestCancelledStageLeavesNoWork|TestPanickedStageReleasesProgram' ./internal/core
	go test -race -count=10 -run 'TestAnalyzerLeaderCancelSparesFollower' .

	echo "== persistent cache (cold/warm goldens byte-identical, single-flight, a panicking compute releases its key, waiters keep the computed bytes when the owner reuses its storage, warm hits from pooled buffers at -j 8, decoded reports outlive their read buffers; one read per lookup, where only a key's single-flight owner discards an entry that does not decode: two batch workers over one such entry 100 times at -cpu 2,4, and the interleaving in which a caller rejects a stale lent read after another healed the entry) under -race"
	go test -race -run 'TestGoldenReportsCached|TestCacheBatchSingleFlight|TestAnalyzerSingleFlight' .
	go test -race -count=100 -cpu 2,4 -run 'TestCacheUndecodableEntryForcesReanalysis$' .
	go test -race -run 'TestDoPanicReleasesKey' ./internal/cache
	go test -race -count=10 -run 'TestOnlyOwnerDiscards|TestWaitersOutliveOwnerStorage' ./internal/cache
	go test -race -count=10 -run 'TestCacheWarmBatchConcurrent|TestCachedReportsOutliveReadBuffer' .

	echo "== cache eviction index (entries other writers add are counted within MaxBytes of puts; Do calls, Puts and evictions from two capped handles on one directory) under -race"
	go test -race -count=10 -run 'TestCapCountsOtherWriters|TestCappedHandlesShareDirectory' ./internal/cache

	echo "== free list of sets and the self-locking slabs they carve from: lifted programs with their facts, enrichment and message trees (eight goroutines carving one slab by Take, Claim and Give at once, every piece disjoint and a recycle consolidating exactly what was carved; two goroutines on one Analyzer; two Analyzers and a one-shot batch sharing the process's list with scrubbing on; goldens byte-identical; eight goroutines building one recycled store's artifacts at once from its slabs, with no lock of the store's; two pipelines on two workers tracing, claiming node runs and building trees concurrently in scrubbed recycled sets, every tree equal to a fresh build's) under -race"
	go test -race -count=10 -run 'TestSlabConcurrentCarving' ./internal/slab
	go test -race -count=10 -run 'TestAnalyzerSharedUnderLoad|TestFreeListSharedAcrossAnalyzers' .
	go test -race -count=10 -run 'TestRecycledStoreConcurrentArtifacts' ./internal/facts
	go test -race -count=10 -run 'TestRecycledTreesConcurrent' ./internal/core

	echo "== progress lines (concurrent image ends into a slow writer stay in order) under -race"
	go test -race -count=10 -run 'TestProgressLinesInOrder' ./internal/obs

	echo "== job queue (concurrent submit/drain storm, crash-resume) under -race"
	go test -race -run 'TestQueueConcurrentSubmitDrain|TestQueueCrashResumeReplaysExactlyOnce' ./internal/serve

	echo "== probe stage + chaos layer (terminal classification, seed determinism, a shared read-only cloud spec, no goroutine left by a fleet, the MQTT decision wait's deadline and cancellation, cloudsim's one cloud per device answering each device alone, under -race)"
	go test -race ./internal/cloud/probe ./internal/cloud/chaos
	go test -race -run 'TestProbeGoldenReports|TestProbeChaosSeedDeterminism|TestBrokerCloseDuringPublishStorm|TestBackoffSharedRandConcurrent' . ./internal/mqtt ./internal/cloud
	go test -race -count=10 -run 'TestCorpusSpecSharedReadOnly' .
	go test -race -count=10 -run 'TestDeviceLeavesNoGoroutines' ./internal/cloud/probe
	go test -race -count=10 -run 'TestMQTTDecisionWaitEndsAtAttemptDeadline|TestMQTTDecisionWaitEndsOnCancel' ./internal/cloud
	go test -race -count=10 -run 'TestFleetAnswersEachDeviceAlone' ./cmd/cloudsim
}

leg_suites() {
	echo "== allocation gates (obs disabled path, inner-loop spans under an observer-only tee and metric lookups at 0 allocs, per-MFT taint budget, crawl bytes per image, probe-stage bytes per image, a per-call observer's and WithMetrics' bytes per analysis, warm cache-hit bytes per image, warm Analyzer.Analyze-hit bytes per image, a malformed cache entry's decode bytes, the report UTF-8 check at 0 allocs on valid input, cache key at 1 alloc and frame check at 0, a repeat probe spec lookup at 1 alloc at most, a fresh firmserve job's bytes from submission to fetch, a warm-cache prehit's bytes read into a handler buffer, firmserve handler bytes with a done job's fetch constant in its report's size, no per-image retention, nothing retained beyond the free list of sets, a one-shot batch as warm as a long-lived Analyzer, two image workers as warm as one once every set has served the crawl set and with no set dropped, an analysis's bytes independent of collections, a recycled set re-serving a program at 0 allocs, a set retaining what its largest program needed, a released set pinning nothing of its program, a set retaining what its largest trees needed, trees built in a recycled set equal to a fresh store's at one and two workers, a capped cache Put costing the same at 2,000 entries as at 200, a warm lent hit after two collections reusing its read buffer, symbol-free recovery bytes per stripped binary, format parts read without copies)"
	# Run without -race: AllocsPerRun counts are only meaningful uninstrumented
	# (the gate files are //go:build !race for the same reason).
	go test -run 'TestDisabledSpanZeroAllocs|TestDisabledCounterZeroAllocs|TestDisabledRecorderZeroAllocs|TestObserverOnlyInnerSpanZeroAllocs|TestCounterLookupZeroAllocs' ./internal/obs
	go test -run 'TestPerMFTAllocBudget' ./internal/taint
	go test -run 'TestCrawlAllocBudget|TestProbeAllocBudget|TestObserverAllocBudget|TestCacheHitAllocBudget|TestAnalyzeHitAllocBudget|TestMalformedEntryAllocBound|TestValidUTF8KeepsValidInput|TestCorpusSpecForAllocBound|TestAnalyzerRetentionBound|TestOneShotBatchStartsWarm|TestConcurrentAnalysesStayWarm|TestWarmAnalysisIgnoresGC' .
	go test -run 'TestKeyOfOneAlloc|TestVerifyZeroAllocs|TestCappedPutCostFlat|TestLentHitAfterCollections' ./internal/cache
	go test -run 'TestServeFreshJobAllocBudget|TestPrehitAllocBound|TestDoneJobFetchAllocBound|TestSubmitBodyAllocBound|TestSubmitLyingContentLength' ./internal/serve
	go test -run 'TestPipelineRetainsNoEnrichment|TestSetRetentionMatchesLargestTrees|TestRecycledTreesMatchFresh' ./internal/core
	go test -run 'TestRecycledSetZeroAllocs|TestSetRetentionMatchesLargestProgram|TestReleasedSetPinsNoProgram' ./internal/facts
	go test -run 'TestKeywordClassifierRetainsOneImage' ./internal/semantics
	go test -run 'TestRecoverAllocBudget' ./internal/strip
	go test -run 'TestFormatPartsCopyNothing' ./internal/slices

	echo "== lint corpus precision (seeded positives, zero false positives)"
	go test -run 'TestCorpusSeededFindings|TestCorpusNegativesClean' ./internal/lint

	echo "== observability (traced goldens byte-identical, traces keep inner-loop spans and observers see stages, metrics deterministic, every emitted metric declared in the metric table, progress counts cache hits, corrupt images and unreadable paths)"
	go test -run 'TestGoldenReportsTraced|TestTraceSpansCoverEveryStage|TestBatchMetricsDeterministicAcrossWorkers|TestEveryMetricDeclared|TestProgressCountsCacheHits|TestProgressCountsCorruptImages|TestProgressCountsUnreadablePaths' .

	echo "== symbol recovery (stripped goldens, verdict parity, derived mode, boundary F1 gate, extern binding accuracy; the extern model every binding and traced delivery reads: each row's facets within its arity, behavior-equivalent pairs with identical rows, every imported call of the corpus and of its recovered stripped twins carrying its row)"
	go test -run 'TestStrippedGoldenReports|TestStrippedVerdictParity|TestStrippedModeDerived' .
	go test -run 'TestBoundaryRecoveryF1|TestExternBindingAccuracy' ./internal/strip
	go test -run 'TestTableModel|TestMessageArg|TestEveryDeliveryHasMessageArg' ./internal/externs
	go test -run 'TestImportedCallsCarryTheirRow' ./internal/pcode

	echo "== report decoder (one-pass cache decode matches json.Unmarshal on goldens and generated reports; every truncation is an error; enumerated fields share the code's strings)"
	go test -run 'TestDecodeReportMatchesJSON|TestDecodeSharesEnumStrings' .

	echo "== fuzz image.Unpack (${FUZZTIME})"
	go test -fuzz=FuzzUnpack -fuzztime="${FUZZTIME}" -run='^$' ./internal/image

	echo "== fuzz binfmt.Unmarshal (${FUZZTIME})"
	go test -fuzz=FuzzUnmarshal -fuzztime="${FUZZTIME}" -run='^$' ./internal/binfmt

	echo "== fuzz the cache report decoder (${FUZZTIME})"
	# The seeds are 18 KB reports; the default minimization budget would spend
	# a minute shrinking each new input.
	go test -fuzz=FuzzDecodeReport -fuzztime="${FUZZTIME}" -fuzzminimizetime=100x -run='^$' .

	echo "== fuzz the cache entry check (${FUZZTIME})"
	go test -fuzz=FuzzCacheEntry -fuzztime="${FUZZTIME}" -run='^$' ./internal/cache

	echo "== fuzz the format-part scanner against the reference split (${FUZZTIME})"
	go test -fuzz=FuzzFormatParts -fuzztime="${FUZZTIME}" -run='^$' ./internal/slices
}

leg="${1:-all}"
case "${leg}" in
static)
	leg_static
	;;
race)
	leg_race
	;;
suites)
	leg_suites
	;;
all)
	leg_static
	leg_race
	leg_suites
	;;
*)
	echo "usage: check.sh [static|race|suites]  (no argument runs every leg)" >&2
	exit 2
	;;
esac

echo "== ${leg} checks passed"
