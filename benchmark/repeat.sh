#!/usr/bin/env bash
# Runs the suite N times (seeds 1..N, or FIRST_SEED..) and prints, per
# (metric, workload): median, quartiles and the relative spread
# (Q3 - Q1) / median that the regression bounds in BENCHMARK.json are
# derived from. Run from anywhere inside the repository:
#
#   benchmark/repeat.sh 5                 # end-to-end metrics
#   TRACE=1 benchmark/repeat.sh 3         # per-layer metrics
#   SECONDS_PER_RUN=30 FIRST_SEED=100 WORKLOADS="history_cases live_mixed" benchmark/repeat.sh 10
set -euo pipefail

runs="${1:?usage: repeat.sh N}"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seconds="${SECONDS_PER_RUN:-25}"
first="${FIRST_SEED:-1}"
trace="${TRACE:-0}"
workloads="${WORKLOADS:-paper_range paper_knn ingest_durable standing_local}"
out="$here/out/repeat-$$"
mkdir -p "$out"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/idq-benchmark"

for workload in $workloads; do
    for ((i = 0; i < runs; i++)); do
        seed=$((first + i))
        echo "repeat: $workload seed $seed" >&2
        "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" \
            >"$out/$workload-$seed.json" 2>"$out/$workload-$seed.log"
    done
done

python3 - "$out" $workloads <<'EOF'
import json, statistics, sys
from pathlib import Path

out, workloads = Path(sys.argv[1]), sys.argv[2:]
print(f"{'workload':<16} {'metric':<36} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'runs':>5} {'failed':>6}")
for workload in workloads:
    runs = [json.loads(p.read_text().splitlines()[-1]) for p in sorted(out.glob(f"{workload}-*.json"))]
    failed = sum(r["failed"] for r in runs)
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        if len(values) >= 2:
            q1, median, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = median = q3 = values[0]
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{workload:<16} {name:<36} {median:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.3f} {len(values):>5} {failed:>6}")
EOF
echo "repeat: raw results and logs in $out" >&2
