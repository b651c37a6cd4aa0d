#!/usr/bin/env bash
# Builds the qav benchmark from the sources of the checkout it sits in
# and runs it. Everything the build and the run write stays under
# .bench_build/ at the checkout root.
#
#   bash perfbench/run.sh --workload rewrite_hot --seed 1 --seconds 40 --trace 0
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
if [[ ! -f $root/go.mod || ! -d $root/internal/engine ]]; then
	echo "perfbench: $root does not hold the qav module sources" >&2
	exit 2
fi

build=$root/.bench_build
mkdir -p "$build/tmp" "$build/gocache" "$build/gopath" "$build/config"
# The go command's caches, temporary files and per-user configuration
# (go env file, telemetry counters) all stay inside the checkout.
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0

(cd "$here" && go build -o "$build/perfbench" .)

# The commit is known only when the checkout is itself a git work tree.
sha=unknown
if [[ $(git -C "$root" rev-parse --show-toplevel 2>/dev/null) == "$root" ]]; then
	sha=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
cd "$root"
exec "$build/perfbench" -root "$root" -git-sha "$sha" "$@"
