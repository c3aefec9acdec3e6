#!/usr/bin/env bash
# Builds the benchmark from source, then runs it from the repository root.
# Every argument is passed to suite.exe; see bench/suite/README.md.
set -eu
cd "$(dirname "$0")/../.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
dune build --root . --display quiet bench/suite/suite.exe 1>&2
exec ./_build/default/bench/suite/suite.exe "$@"
