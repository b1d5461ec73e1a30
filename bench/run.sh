#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in, then runs it with
# every argument passed through. Run it from the root of the checkout:
#
#   bash bench/run.sh --workload interactive --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files, the binary and the run's own
# data all stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
(cd "$root/bench" && go build -buildvcs=false -o "$out/errprop-bench" .)
exec "$out/errprop-bench" "$@"
