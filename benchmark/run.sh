#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build writes, the Go build cache included, goes to
# .bench_build at the root of the checkout, so nothing outside the checkout
# is touched and a second call finds the build done.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
out="$(cd .. && pwd)/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
go build -o "$out/rmabench" .
exec "$out/rmabench" "$@"
