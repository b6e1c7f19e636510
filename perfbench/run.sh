#!/usr/bin/env bash
# Builds the daemons and the benchmark from source, then runs one workload:
#
#   bash perfbench/run.sh --workload interactive --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare OLD.jsonl NEW.jsonl
#
# Run from the repository root. Everything it builds or writes stays in
# .bench_build/ under the root, Go's build cache included.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps its telemetry counters under the config directory.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off
go build -o "$out/bin/" ./cmd/env2vec ./cmd/e2vserve ./cmd/e2vproxy
(cd perfbench && go build -o "$out/bin/perfbench" .)
# The commit for the host fingerprint: git's when this is a checkout of
# the repository, else a hash of the Go sources.
if [ -d .git ]; then
	commit=$(git rev-parse HEAD)
else
	commit="tree-$(find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print | LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)"
fi
if [ "${1:-}" = compare ]; then
	shift
	exec "$out/bin/perfbench" compare -bounds BENCHMARK.json "$@"
fi
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out" -commit "$commit" "$@"
