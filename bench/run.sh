#!/usr/bin/env bash
# The benchmark's entry point, as BENCHMARK.json's command names it:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds mcload (and through it the daemons) from the checkout this script
# sits in and runs it. Everything the build and the run write — the go
# build cache, the binaries, the trees' journals and logs — stays under
# .bench_build/ and bench/out/ of that checkout.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath" GOTOOLCHAIN=local
mkdir -p "$root/.bench_build/bin"
(cd "$root/bench" && go build -o "$root/.bench_build/bin/mcload" ./cmd/mcload)
exec "$root/.bench_build/bin/mcload" -root "$root" "$@"
