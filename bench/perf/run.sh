#!/usr/bin/env bash
# Builds perf.exe from the checkout that holds this script, then runs
# `perf.exe run` with the arguments given, e.g. from the checkout's root:
#
#   bash bench/perf/run.sh --workload paper --seed 1 --seconds 15 --trace 0
#
# The build writes only under the checkout's _build (the shared dune cache
# is off).  Build output goes to stderr; the last line of stdout is the
# result object.
set -eu
cd "$(dirname "$0")/../.."
if ! command -v dune >/dev/null && command -v opam >/dev/null; then
  eval "$(opam env)"
fi
dune build --root . --cache=disabled --display=quiet ./bench/perf/perf.exe >&2
exec ./_build/default/bench/perf/perf.exe run "$@"
