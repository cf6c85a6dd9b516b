#!/usr/bin/env bash
# Three seed-0 repetitions per workload, untimed: their output bytes must
# equal bench/reference.json's digests (and each other's). Each workload runs
# under two string-hash seeds, so output that depends on set or dict order of
# strings fails here. Run from the repository root:
# bash .github/seeded-outputs.sh
set -euo pipefail
for hash_seed in 1 2; do
  for workload in wide_trees pool_reduce latent_refine; do
    result=$(PYTHONHASHSEED=$hash_seed python bench/run.py --workload "$workload" --seed 0 --seconds 0 --trace 0)
    echo "PYTHONHASHSEED=$hash_seed $result"
    echo "$result" | tail -n 1 | python -c 'import json, sys; sys.exit(json.load(sys.stdin)["correct"] is not True)'
  done
done
