#!/usr/bin/env bash
# Build the server and the benchmark from source, then run one workload:
#
#   bash perfbench/run.sh --workload serve_cold --seed 1 --seconds 20 --trace 0
#
# Run from the repository root.  Build output goes to stderr, so the
# last line of stdout is the benchmark's result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib/service ] || [ ! -f bin/ttsv_cli.ml ]; then
  echo "perfbench: $(pwd) is not a ttsv source tree" >&2
  exit 2
fi
dune build --root . ./bin/ttsv_cli.exe ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
