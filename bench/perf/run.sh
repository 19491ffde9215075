#!/bin/sh
# Build perf.exe from this checkout's sources, then run it with the given
# arguments, e.g.
#   bash bench/perf/run.sh --workload cache --seed 7 --seconds 10 --trace 0
# Build output goes to stderr, so the last line of stdout is the result.
set -e
cd "$(dirname "$0")/../.."
if ! command -v dune >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
dune build --root . ./bench/perf/perf.exe 1>&2
exec ./_build/default/bench/perf/perf.exe "$@"
