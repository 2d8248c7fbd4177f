#!/usr/bin/env bash
# Builds the FTVM benchmark from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Every build and toolchain file goes under
# $CARGO_TARGET_DIR (default .bench_build) so nothing is written outside the
# checkout; the module has no dependencies beyond the repository itself, so
# the build never needs the network.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/go/config/go/telemetry" "$out/go/tmp"
# Telemetry off: the go command would otherwise write counters to the user's
# config directory and may start a background upload process.
printf off >"$out/go/config/go/telemetry/mode"
export GOCACHE="$out/go/cache" GOPATH="$out/go/path" XDG_CONFIG_HOME="$out/go/config" GOTMPDIR="$out/go/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

go build -C perfbench -o "$out/ftvm-perfbench" .
exec "$out/ftvm-perfbench" "$@"
