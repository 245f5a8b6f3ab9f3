#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash perfbench/run.sh --workload cold-compute --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under $CARGO_TARGET_DIR (default .bench_build) in that root: the Go
# build cache, the binary, per-run store and job directories, and trace
# files. It fails without printing a result when the checkout does not
# hold the module the benchmark measures (../go.mod seen from perfbench).
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/go-cache
export GOMODCACHE=$out/go-mod
export XDG_CONFIG_HOME=$out/xdg
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod

(cd "$root/perfbench" && go build -o "$out/perfbench-bin" .)

# The run record names the commit, or in a checkout without git history
# a digest of the module's sources.
commit=
if [ -d "$root/.git" ]; then
	commit=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || true)
fi
if [ -z "$commit" ]; then
	commit=src-$(cd "$root" && find . -path ./.bench_build -prune -o -path ./.git -prune -o \( -name '*.go' -o -name go.mod \) -type f -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-12)
fi

exec "$out/perfbench-bin" --workdir "$out/perfbench" --commit "$commit" "$@"
