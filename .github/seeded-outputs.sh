#!/usr/bin/env bash
# Three seed-0 repetitions per workload, untimed: their output bytes must
# equal bench/reference.json's digests (and each other's). Run from the
# repository root: bash .github/seeded-outputs.sh
set -euo pipefail
for workload in wide_trees pool_reduce latent_refine; do
  result=$(python bench/run.py --workload "$workload" --seed 0 --seconds 0 --trace 0)
  echo "$result"
  echo "$result" | tail -n 1 | python -c 'import json, sys; sys.exit(json.load(sys.stdin)["correct"] is not True)'
done
