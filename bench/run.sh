#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags. Every
# file it writes — Go's build cache, the binary, the model checkpoint, the
# workloads' scratch files — stays under .bench_build in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$build/mlexray-bench" .)
cd "$root"
exec "$build/mlexray-bench" "$@"
