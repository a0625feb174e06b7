#!/usr/bin/env bash
# Builds the Release tree and regenerates BENCH_executor.json,
# BENCH_bandwidth.json and BENCH_campaign.json (repo root).
#
# Usage: scripts/bench.sh [build-dir]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-release}"

cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
cmake --build "$build_dir" \
  --target executor_scaling bandwidth_ablation campaign -j"$(nproc)"

cd "$repo_root"
"$build_dir/bench/executor_scaling"
echo "BENCH_executor.json written to $repo_root"
"$build_dir/bench/bandwidth_ablation"
echo "BENCH_bandwidth.json written to $repo_root"
"$build_dir/bench/campaign"
echo "BENCH_campaign.json written to $repo_root"
