#!/usr/bin/env bash
# Builds the ldpload benchmark from this checkout and runs it with the
# given arguments. Run it from the repository root:
#
#   bash cmd/ldpload/run.sh --workload olh-fold --seed 1 --seconds 30 --trace 0
#
# The Go build cache, temporary files and every build output stay under
# .bench_build/ in the checkout, and the build never reaches the network.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/ldprecover" || ! -f "$root/cmd/ldpload/go.mod" ]]; then
	echo "ldpload: run from the repository root (go.mod, cmd/ldprecover and cmd/ldpload must be there)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go -C "$root/cmd/ldpload" build -o "$out/ldpload" .
exec "$out/ldpload" "$@"
