#!/usr/bin/env bash
# Builds the Ekho player-side benchmark from the checkout's sources and
# runs it. Run from the repository root:
#
#   bash ekhobench/run.sh --workload paper-swb32 --seed 1 --seconds 30 --trace 0
#
# Build outputs and Go caches stay under $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout. The build fails, and so does the
# script, when the Ekho module is not beside this directory.
set -euo pipefail
root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOENV=off GOWORK=off
(cd "$root/ekhobench" && go build -o "$out/ekhobench" .) >&2
exec "$out/ekhobench" "$@"
