#!/usr/bin/env bash
# check.sh — the canonical verify command for this repo.
#
# With no argument every leg runs sequentially: static analysis, a full
# build, the race-enabled test suite, the targeted golden/precision
# suites, and a short fuzz pass over the two hostile-input parsers.
# CI fans the same gate out across parallel matrix legs:
#
#   check.sh static   gofmt, go.mod tidy drift, vet, build, firmbench2
#   check.sh race     -race suite + targeted concurrency gates
#   check.sh suites   goldens, alloc/precision gates, stripped F1, fuzz
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

	echo "== scheduler (work stealing: determinism, steal paths, panic, cancellation) under -race"
	go test -race ./internal/parallel

	echo "== persistent cache (cold/warm goldens byte-identical, single-flight under -race)"
	go test -race -run 'TestGoldenReportsCached|TestCacheBatchSingleFlight' .

	echo "== job queue (concurrent submit/drain storm, crash-resume) under -race"
	go test -race -run 'TestQueueConcurrentSubmitDrain|TestQueueCrashResumeReplaysExactlyOnce' ./internal/serve

	echo "== probe stage + chaos layer (terminal classification, seed determinism, under -race)"
	go test -race ./internal/cloud/probe ./internal/cloud/chaos
	go test -race -run 'TestProbeGoldenReports|TestProbeChaosSeedDeterminism|TestBrokerCloseDuringPublishStorm|TestBackoffSharedRandConcurrent' . ./internal/mqtt ./internal/cloud
}

leg_suites() {
	echo "== allocation gates (obs disabled path at 0 allocs, per-MFT taint budget, crawl bytes per image, no per-image retention)"
	# Run without -race: AllocsPerRun counts are only meaningful uninstrumented
	# (the gate files are //go:build !race for the same reason).
	go test -run 'TestDisabledSpanZeroAllocs|TestDisabledCounterZeroAllocs|TestDisabledRecorderZeroAllocs' ./internal/obs
	go test -run 'TestPerMFTAllocBudget' ./internal/taint
	go test -run 'TestCrawlAllocBudget' .
	go test -run 'TestPipelineRetainsNoEnrichment' ./internal/core
	go test -run 'TestKeywordClassifierRetainsOneImage' ./internal/semantics

	echo "== lint corpus precision (seeded positives, zero false positives)"
	go test -run 'TestCorpusSeededFindings|TestCorpusNegativesClean' ./internal/lint

	echo "== observability (traced goldens byte-identical, metrics deterministic)"
	go test -run 'TestGoldenReportsTraced|TestTraceSpansCoverEveryStage|TestBatchMetricsDeterministicAcrossWorkers' .

	echo "== stripped-mode recovery (goldens, verdict parity, boundary F1 gate)"
	go test -run 'TestStrippedGoldenReports|TestStrippedVerdictParity' .
	go test -run 'TestBoundaryRecoveryF1|TestExternBindingAccuracy' ./internal/strip

	echo "== fuzz image.Unpack (${FUZZTIME})"
	go test -fuzz=FuzzUnpack -fuzztime="${FUZZTIME}" -run='^$' ./internal/image

	echo "== fuzz binfmt.Unmarshal (${FUZZTIME})"
	go test -fuzz=FuzzUnmarshal -fuzztime="${FUZZTIME}" -run='^$' ./internal/binfmt
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
