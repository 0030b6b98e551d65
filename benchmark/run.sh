#!/usr/bin/env bash
# The benchmark's one command: build the driver offline (release, the
# root profile's settings), then measure.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#                    [--corrupt] [--report <file>] [--out-dir <dir>]
#
# One process measures one workload; the last line of standard output
# is its result object. Without --workload every workload runs in turn
# with the remaining arguments. --trace 0 is the end-to-end pass,
# --trace 1 the per-layer pass (see README.md).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
bin="$target/release/em_benchmark"
# One malloc arena with fixed thresholds. With glibc's defaults the
# heap's high-water mark depends on which short-lived worker thread
# landed in which arena and on how the mmap threshold adapted, and
# peak_rss_mib of the same code differs by 30 % from run to run. Fixed,
# blocks of 8 MiB and more (the 120^3 grid's arrays) are mapped and
# returned whole, everything else lives in the one heap.
export MALLOC_ARENA_MAX=1 MALLOC_MMAP_THRESHOLD_=8388608 MALLOC_TRIM_THRESHOLD_=131072

case " $* " in
*" --workload "*)
    exec "$bin" --out-dir "$here/out" "$@"
    ;;
esac
status=0
for workload in grid-mem grid-cache sweep-stack dist-slab serve-mix; do
    "$bin" --out-dir "$here/out" --workload "$workload" "$@" || status=$?
done
exit "$status"
