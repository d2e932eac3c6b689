#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it, passing every
# argument through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload catalog_study --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files, the binary, and the run records
# stay under .bench_build/ in the checkout. Build output goes to standard
# error: the last line of standard output is the result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2

commit=unknown
if [ -d "$root/.git" ] && command -v git >/dev/null; then
	commit=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
fi
exec "$build/perfbench" --commit "$commit" --out "$build/results" "$@"
