#!/usr/bin/env bash
# Entry point of the benchmark: build it, then run it with the arguments
# given. Everything the Go toolchain writes, build cache included, goes
# under <checkout>/.bench_build, so the benchmark reads and writes only
# inside its checkout; the first run in a fresh checkout therefore
# compiles the standard library too.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/coordinator" ]; then
  echo "bench: $root is not a GPUnion checkout (no go.mod or cmd/coordinator): nothing to build and measure" >&2
  exit 1
fi
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
# The go command's own scratch (TMPDIR) and its telemetry counters
# (under the user config directory) stay in the checkout too.
export TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=
(cd "$root/bench" && go build -o "$build/bin/bench" .)
cd "$root"
exec "$build/bin/bench" "$@"
