#!/usr/bin/env bash
# Builds the benchmark program from source and runs it. Run it from the
# repository root, for example:
#
#   bash perfbench/run.sh --workload cold-large --seed 1 --seconds 10 --trace 0
#
# Every build artefact (binary, Go build cache, temp files) stays under
# .bench_build in the current directory.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
