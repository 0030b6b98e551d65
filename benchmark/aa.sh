#!/usr/bin/env bash
# A/A check: the same code as two interleaved sets of runs; see aa.py.
#   benchmark/aa.sh [--runs N] [--seconds S] [--workloads a,b] [--raw file]
set -euo pipefail
exec python3 "$(dirname "${BASH_SOURCE[0]}")/aa.py" "$@"
