#!/usr/bin/env bash
# Builds cmd/benchrec from source and runs it with the given arguments.
# Run from the repository root. Everything the build and the run leave
# behind (Go build cache, binary, result files, profiles, traces) goes
# under .bench_build/ in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd cmd/benchrec && go build -buildvcs=false -o "$out/benchrec" .)
exec "$out/benchrec" "$@"
