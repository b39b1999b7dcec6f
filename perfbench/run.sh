#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed on.
#
#   bash perfbench/run.sh --workload issue-bound --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The build cache, the binary and the
# temporary files all live under .bench_build/ in the repository, so the
# benchmark writes nowhere else.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" GOFLAGS="-mod=mod -buildvcs=false" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --expected "$here/expected.json" "$@"
