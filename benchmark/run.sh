#!/usr/bin/env bash
# Builds spotbench from source and runs it with the given arguments.
# Run from the repository root: bash benchmark/run.sh --workload od-steady
#
# Everything the build writes (compiler cache, temporary files, the binary)
# goes under .bench_build/ in the current directory; nothing is written
# elsewhere and nothing is downloaded.
set -euo pipefail

mkdir -p .bench_build/tmp
out="$(cd .bench_build && pwd)"
export GOCACHE="$out/go-cache" TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C benchmark build -o "$out/spotbench" .
exec "$out/spotbench" "$@"
