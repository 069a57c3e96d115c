#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of this checkout and runs
# it. Run from the repository root:
#
#	bash perfbench/run.sh --workload steady-warm --seed 1 --seconds 5 --trace 0
#
# Every build artifact (Go build cache, temporary files, the binary) and
# every data directory a run creates stays under .bench_build/ in the
# checkout. The build needs the repository's own module one directory up;
# without it the build fails and the script exits non-zero before printing
# a result.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
