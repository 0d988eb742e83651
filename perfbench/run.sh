#!/usr/bin/env bash
# Builds the region control-plane benchmark from this checkout and runs it.
# Usage (from the repository root):
#   bash perfbench/run.sh --workload converge --seed 1 --seconds 10 --trace 0
# Everything the build writes stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/perfbench/go.mod" ]; then
	echo "run.sh: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
# The go command keeps its settings and telemetry counters under the user
# config directory; point that into the checkout as well.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
