GO ?= go

.PHONY: build test race vet fmt check bench smoke tables

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# bench/ is a module of its own, out of reach of ./...: race and vet
# cover it explicitly.
race:
	$(GO) test -race ./...
	$(GO) test -C bench -race .

vet:
	$(GO) vet ./...
	$(GO) vet -C bench .

fmt:
	gofmt -l -w .

# check is the full pre-merge gate: gofmt (failing on unformatted
# files), build, vet, and the suite under the race detector.
check:
	sh scripts/check.sh

bench:
	$(GO) test -run - -bench . -benchtime 1x ./...

# smoke is 3 s of the end-to-end benchmark's per-packet workload; it
# fails on any lost or misdelivered OSDU.
smoke:
	sh scripts/bench_smoke.sh

# tables regenerates the EXPERIMENTS.md tables.
tables:
	$(GO) run ./cmd/benchtab
