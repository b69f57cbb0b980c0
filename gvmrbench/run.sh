#!/usr/bin/env bash
# Builds the gvmr benchmark from the sources in this checkout and runs it.
# Run it from the repository root:
#
#   bash gvmrbench/run.sh --workload orbit-ram --seed 1 --seconds 20 --trace 0
#
# Every build and run artefact (Go build cache, temp files, the binary,
# the paged volume file, span dumps) stays under .bench_build/ in the
# checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "gvmrbench: run from the repository root (no gvmr module in $root)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOENV=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
# The staging- and frame-cache budgets are part of what is measured.
unset GVMR_STAGING_BYTES GVMR_FRAME_BYTES
(cd "$root/gvmrbench" && go build -o "$out/gvmrbench" .)
exec "$out/gvmrbench" --root "$root" "$@"
