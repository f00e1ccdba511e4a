# Makefile — developer entry points. `make check` is the canonical verify
# command: vet + build + race tests + a short fuzz pass.

GO ?= go
FUZZTIME ?= 10s

.PHONY: build test check fuzz vet cover serve-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

check:
	FUZZTIME=$(FUZZTIME) scripts/check.sh

# cover runs the suite in atomic coverage mode and prints the total; CI
# additionally enforces the floor in scripts/coverage_floor.txt.
cover:
	scripts/cover.sh

# serve-smoke soaks the firmserve HTTP service end to end: concurrent
# corpus submissions, a mid-run SIGKILL + journal resume with zero lost
# jobs, /metrics validation, graceful SIGTERM drain, and a warm-cache
# round that must answer >= 90% of jobs without recomputing. CI runs the
# same script as the service-soak job.
serve-smoke:
	scripts/serve_smoke.sh

# The decoder's seeds are 18 KB reports; the default minimization budget
# would spend a minute shrinking each new input.
fuzz:
	$(GO) test -fuzz=FuzzUnpack -fuzztime=$(FUZZTIME) -run='^$$' ./internal/image
	$(GO) test -fuzz=FuzzUnmarshal -fuzztime=$(FUZZTIME) -run='^$$' ./internal/binfmt
	$(GO) test -fuzz=FuzzDecodeReport -fuzztime=$(FUZZTIME) -fuzzminimizetime=100x -run='^$$' .
	$(GO) test -fuzz=FuzzCacheEntry -fuzztime=$(FUZZTIME) -run='^$$' ./internal/cache
	$(GO) test -fuzz=FuzzFormatParts -fuzztime=$(FUZZTIME) -run='^$$' ./internal/slices
