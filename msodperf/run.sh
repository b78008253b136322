#!/usr/bin/env bash
# Builds msodd, msodgw and the benchmark from the checkout in the current
# directory, then runs the benchmark with the given arguments. Run it from
# the repository root:
#
#   bash msodperf/run.sh --workload embedded-history --seed 1 --seconds 10 --trace 0
#   bash msodperf/run.sh repeat --workload cluster-mixed --runs 10 --out a.json
#   bash msodperf/run.sh compare a.json b.json
#
# Everything it writes stays under .bench_build/ in the checkout: the
# binaries, the Go build cache and each run's scratch directory.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go build -o "$out/bin/" ./cmd/msodd ./cmd/msodgw >&2
(cd "$here" && go build -o "$out/bin/msodperf" .) >&2
# --root goes right after the subcommand, ahead of compare's file names.
case "${1:-}" in
repeat | compare)
	sub="$1"
	shift
	exec "$out/bin/msodperf" "$sub" --root "$root" "$@"
	;;
esac
exec "$out/bin/msodperf" --root "$root" "$@"
