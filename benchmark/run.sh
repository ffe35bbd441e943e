#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Everything the build writes (binary, Go build cache,
# linker temp files) stays under .bench_build in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOWORK=off
# The VCS stamp records the commit in result files; a checkout that is not
# (or not cleanly) under git builds without it.
(cd "$here" && { go build -o "$build/statdb-benchmark" . 2>/dev/null || go build -buildvcs=false -o "$build/statdb-benchmark" .; })
cd "$root"
exec "$build/statdb-benchmark" "$@"
