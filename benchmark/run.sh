#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of the
# checkout this script lives in. Everything the build and the run write
# goes under .bench_build/ there, Go's build cache included, so a run
# touches nothing outside its checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOWORK=off
if [ -z "${GOPATH:-}" ] && [ -z "${HOME:-}" ]; then
	export GOPATH="$build/gopath" # the go command wants one to exist; nothing is fetched
fi
go build -C benchmark -o "$build/dejavu-benchmark" .
exec "$build/dejavu-benchmark" "$@"
