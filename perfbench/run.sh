#!/bin/sh
# Build the benchmark from the sources in this checkout and run it.
# Usage: sh perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
# Run from the repository root.  Build output goes to stderr, so the last
# line of standard output is the benchmark's JSON result.
set -e
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
dune build --root . --cache=disabled --display=quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
