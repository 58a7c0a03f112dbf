GO ?= go

.PHONY: check build vet fmt lint distlint ignore-audit suppressions test race repro repro-smoke doc-links service-smoke

## check: everything CI runs — lint, full tests, race tests
check: lint test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

## fmt: fail if any file is not gofmt-clean
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

## distlint: the repo's own invariant analyzers (determinism, hot-path
## allocations, context hygiene, no library panics, goroutine lifetimes,
## lock discipline, atomic hygiene, event/counter sync) gated against the
## committed suppressions baseline — see DESIGN.md §8
distlint:
	$(GO) run ./cmd/distlint -baseline lint/suppressions.txt ./...

## ignore-audit: report //lint:ignore comments whose rule no longer fires
## (use `go run ./cmd/distlint -fix-ignore-audit ./...` to delete them)
ignore-audit:
	$(GO) run ./cmd/distlint -ignore-audit ./...

## suppressions: regenerate the committed suppressions baseline
suppressions:
	$(GO) run ./cmd/distlint -write-baseline lint/suppressions.txt ./...

## lint: the one static gate CI runs — invariant analyzers + vet + gofmt
lint: distlint vet fmt

test:
	$(GO) test ./...

## race: the full suite under the race detector (latency assertions widen
## via the raceSlack build-tag constant)
race:
	$(GO) test -race ./...

## service-smoke: build cmd/solved, boot it, and exercise the e2e contract
## (200 + optimal tour, byte-identical cache hit, clean SIGINT drain)
service-smoke:
	sh scripts/service_smoke.sh

## repro: regenerate the deterministic smoke tier — the marked sections of
## EXPERIMENTS.md, results/smoke/*.csv, and REPRODUCTION.md
repro:
	$(GO) run ./cmd/repro

## repro-smoke: CI drift gate — regenerate in memory and fail on any byte
## difference against the committed artifacts
repro-smoke:
	$(GO) run ./cmd/repro -check

## doc-links: fail on dead intra-repo links in the markdown docs
doc-links:
	$(GO) run ./cmd/repro -links
