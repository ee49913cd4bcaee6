#!/bin/sh
# check.sh — the full pre-merge gate: formatting, build, vet, and the
# test suite under the race detector. Fails on the first problem.
set -eu

cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

go build ./...
go vet ./...

# Orphan packages: every internal package with non-test code must be
# imported by some non-test file, or be allowlisted here, one line per
# entry with its reason. Test-only packages (internal/soak) have no
# GoFiles and are not listed.
allow='
cmtos/internal/netif/nettest  the substrate conformance suite: only tests import it
'
imported=$(go list -f '{{join .Imports "\n"}}' ./...)
for pkg in $(go list -f '{{if .GoFiles}}{{.ImportPath}}{{end}}' ./internal/...); do
	if ! echo "$imported" | grep -qx "$pkg" && ! echo "$allow" | grep -q "^$pkg "; then
		echo "orphan package: nothing outside tests imports $pkg" >&2
		exit 1
	fi
done

go test -race ./...

# The end-to-end benchmark is a module of its own (bench/, with a replace
# onto this one), so ./... does not reach it: vet it and run its tests
# under the race detector too.
go vet -C bench .
go test -C bench -race .

# Bench smoke: run every udpnet wire-path benchmark for a single
# iteration — including the offloaded (GSO/GRO) and NoOffload variants
# behind BENCH_8 — so a refactor that breaks the benchmark harness (or
# reintroduces a per-packet allocation panic) fails here, not in the
# nightly bench job. Offload support is probed at runtime, so on a
# kernel without UDP_SEGMENT/UDP_GRO the same command exercises the
# fallback path instead of failing.
go test -run='^$' -bench=. -benchtime=1x ./internal/udpnet/

# Bench smoke for the transport sharded core: a tiny VC population for a
# single iteration, so a refactor that breaks the scale-benchmark harness
# fails here rather than in the nightly BENCH_6 job.
CMTOS_BENCH_VCS=64 go test -run='^$' -bench='^(Benchmark100kVC|BenchmarkNoteHeard)$' \
	-benchtime=1x ./internal/transport/

# Bench smoke for the relay splice: one iteration of the 1→64 fan-out,
# so a refactor that breaks the tree data plane (or regresses it into
# per-egress copies) fails here rather than in the nightly BENCH_7 job.
go test -run='^$' -bench='^BenchmarkRelayFanout$' -benchtime=1x ./internal/relay/

# Short fuzz bursts on the wire decoder: the corpus seeds cover every PDU
# kind, so even a few seconds of mutation exercises the codec's bounds
# checks on each decode path, and the differential target holds the
# transport's in-place DecodeData/DecodeAck to exactly what Decode reports.
go test -run='^$' -fuzz='^FuzzDecode$' -fuzztime=10s ./internal/pdu/
go test -run='^$' -fuzz='^FuzzDecodeDataAck$' -fuzztime=10s ./internal/pdu/

# Predictor A/B smoke: the predictive-vs-reactive guard harness (B9)
# under its delay-ramp and burst regimes, asserting the guard acts
# proactively and never does worse than the reactive ladder on violated
# periods. The full multi-scenario table is cmd/benchtab material.
go test -race -count=1 -run='^TestPredictAB' ./internal/lab/

# Short chaos soak: the clean/drop/crash regimes over both substrates —
# including the guard-burst regime, which runs the predictive QoS guard
# under bursty loss — checking reservations, VC tables and goroutines
# all drain to zero. CMTOS_SOAK=long (the nightly workflow) adds the
# heavier fault regimes.
go test -race -count=1 -run='^TestChaosSoak$' ./internal/soak/

# Demo smoke: the runnable Fig. 6 regulation loop (lipsync, orchestration
# off then on) and the Fig. 2/3 remote-connect scenario (microscope). Each
# must exit cleanly within the minute.
timeout 60 go run ./examples/lipsync >/dev/null
timeout 60 go run ./examples/microscope >/dev/null

# Benchmark smoke: three seconds of the per-packet workload, end to end
# over loopback UDP with every OSDU verified on read. The last line is the
# JSON the benchmark driver reads; any failed OSDU or misdelivery fails
# the gate.
sh scripts/bench_smoke.sh
