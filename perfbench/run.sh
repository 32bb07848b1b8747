#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of the checkout it is
# run from, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload campaign --seed 1 --seconds 40 --trace 0
#
# Run it from the repository root. Every build and run artefact (Go
# build cache, binary, traces, the daemon's journal) stays under
# .bench_build in that directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home" "$build/perfbench"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench/perfbench" .)

# Identify the measured code: the git commit when there is one, else a
# hash of the Go sources, so results from different trees never mix.
if ! rev=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null); then
	rev="tree-$(find "$root" -path "$build" -prune -o -type f \( -name '*.go' -o -name go.mod \) -print |
		LC_ALL=C sort | xargs sha256sum | sed "s|$root/||" | sha256sum | cut -c1-12)"
fi

exec "$build/perfbench/perfbench" --commit "$rev" "$@"
