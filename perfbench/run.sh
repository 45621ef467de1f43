#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources, then runs it with the
# given arguments (see README.md in this directory).  The build is a
# workspace of its own in .bench_build: the perfbench project with a copy
# of lib/.  Build output goes to stderr, so the last line of stdout is the
# benchmark's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: not a powercode checkout (no dune-project or lib/ here)" >&2
  exit 2
fi
src=.bench_build/src
rm -rf "$src"
mkdir -p "$src"
cp -R lib "$src/lib"
cp perfbench/dune-project perfbench/dune perfbench/*.ml "$src/"
printf '(lang dune 3.0)\n(context (default (name perfbench)))\n' > "$src/dune-workspace"
# the shared dune cache lives outside the checkout, so it is not used
DUNE_CACHE=disabled dune build --root "$src" --build-dir "$PWD/.bench_build/_build" \
  ./perfbench.exe 1>&2
exec .bench_build/_build/perfbench/perfbench.exe "$@"
