#!/usr/bin/env bash
# Builds regbench from source and runs it with the given arguments, e.g.
#
#   bash regbench/run.sh --workload batch-mixed --seed 1 --seconds 15 --trace 0
#
# Run it from the root of the repository. The binary, the Go build cache and
# the go command's own state all live in .bench_build/ there, so nothing is
# written outside the checkout and no network access is needed.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/regbench" ]]; then
	echo "run.sh: run from the repository root (go.mod and regbench/ not found in $root)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

# Build into a private name first so concurrent runs never execute a
# half-written binary.
tmp="$out/regbench.$$"
(cd "$root/regbench" && go build -o "$tmp" .)
mv -f "$tmp" "$out/regbench"
exec "$out/regbench" "$@"
