#!/usr/bin/env bash
# BENCHMARK.json's command: build the ledger and run it with the driver's
# arguments, writing nothing outside the checkout — the build cache, the
# toolchain's temporary files and its per-user state all live under
# .bench_build. `go run ./ledger` does the same for a person who does not
# mind the default locations.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "ledger: no go.mod in $PWD: the program this benchmark measures is not here" >&2
	exit 3
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/home/.config/go/telemetry"
export GOCACHE="${GOCACHE:-$build/gocache}" GOTMPDIR="$build/tmp"
export HOME="$build/home" XDG_CACHE_HOME="$build/home/.cache" XDG_CONFIG_HOME="$build/home/.config"
# With a fresh per-user state the go command would start its telemetry
# sidecar, a daemonised child that outlives the build. The mode file is
# the only switch it reads; GOTELEMETRY cannot be set from the environment.
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"
export GOFLAGS="${GOFLAGS:+$GOFLAGS }-buildvcs=false"
go build -o "$build/ledger" ./ledger
exec "$build/ledger" "$@"
