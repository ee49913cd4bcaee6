#!/bin/sh
# bench_smoke.sh — a 3 s run of the benchmark's burst1-udp workload that
# fails unless every OSDU was delivered exactly once, intact and in order.
set -eu

cd "$(dirname "$0")/.."

last=$(bash bench/run.sh --workload burst1-udp --seed 1 --seconds 3 --trace 0 | tail -n 1)
case "$last" in
*'"correct":true,'*'"failed":0,'*) ;;
*)
	echo "bench smoke: burst1-udp lost or misdelivered OSDUs: $last" >&2
	exit 1
	;;
esac
