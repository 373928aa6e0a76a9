#!/usr/bin/env bash
# Builds irsd, irsrouter and the benchmark into .bench_build/ of the
# checkout it is run from, then runs the benchmark with the arguments given:
#
#   bash benchmark/run.sh --workload sample_light --seed 1 --seconds 10 --trace 0
#
# Everything go writes — build cache, temp files, config — stays inside
# .bench_build/, so two checkouts can run side by side and nothing outside
# the checkout is touched.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/irsd ] || [ ! -d cmd/irsrouter ] || [ ! -f benchmark/go.mod ]; then
	echo "benchmark/run.sh: run from the root of a checkout that holds cmd/irsd and cmd/irsrouter" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/go-cache" "$out/go-tmp" "$out/go-path" "$out/config"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOPATH="$out/go-path" GOMODCACHE="$out/go-path/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local CGO_ENABLED=0

go build -o "$out/bin/" ./cmd/irsd ./cmd/irsrouter
(cd benchmark && go build -o "$out/bin/irsbenchmark" .)

exec "$out/bin/irsbenchmark" "$@"
