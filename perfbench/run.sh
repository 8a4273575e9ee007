#!/usr/bin/env bash
# Builds the benchmark harness from the checkout's sources and runs it
# with the given arguments. Every build artifact and cache stays under
# .bench_build in the directory it is started from (the checkout root).
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOFLAGS=-mod=mod GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
