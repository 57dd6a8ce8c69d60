#!/usr/bin/env bash
# Builds rta-serve and the benchmark from this checkout into .bench_build
# and runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload churn-keep --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Build output goes to standard error so
# the last line of standard output stays the JSON result.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/home"
# Keep every build, configuration and temporary file inside the checkout.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off
# Telemetry off: otherwise the go command starts a detached child process
# that can outlive this script.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
if [ ! -f go.mod ] || [ ! -d cmd/rta-serve ]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/rta-serve here)" >&2
	exit 1
fi
go build -o "$out/bin/rta-serve" ./cmd/rta-serve >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" --serve-bin "$out/bin/rta-serve" "$@"
