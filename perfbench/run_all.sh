#!/usr/bin/env bash
# Runs every benchmark workload once, untraced, and prints each one's
# end-to-end metrics. Exits non-zero as soon as a run fails, which includes
# a failed score check or ledger check.
#
# usage: perfbench/run_all.sh [seed] [seconds]
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-1}"
seconds="${2:-30}"
for workload in games-up books-ip industry-churn; do
    echo "== $workload"
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0
done
