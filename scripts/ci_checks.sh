#!/usr/bin/env bash
# End-to-end checks of the installed CLI and the scripts, run after the
# tier-1 tests: the README command outputs, CLI runs at points that once
# failed, the three study scripts on small inputs and the benchmark smoke
# check.  Needs the `tensorpotts` command on PATH (pip install -e .) and is
# run from the repository root:
#
#     bash scripts/ci_checks.sh
set -euo pipefail

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "== README command outputs"
python scripts/readme_outputs.py

echo "== Simulate beyond the full support"
tensorpotts simulate --p 4 --q 5 --beta 0.6 --h 0.3 --N 1000 --samples 2000 --seed 1

echo "== Estimate beta on the pruned orbit rows"
tensorpotts estimate --p 4 --q 3 --beta 0.616 --h 0.67 --param beta --N 1000 --simulate

echo "== Confidence set for beta on the pruned orbit rows"
tensorpotts ci --p 4 --q 3 --beta 0.616 --h 0.67 --param beta --N 1000 --simulate --method augmented

echo "== Beta interval on data where colour 2 leads, in order"
printf '0.30,0.40,0.30\n' > "$tmp/lead2.csv"
for method in plain augmented two_step; do
  tensorpotts ci --p 4 --q 3 --beta 0.616 --h 0.05 --param beta --N 1000 \
    --data "$tmp/lead2.csv" --method "$method" > "$tmp/lead2_$method.json"
done
python - "$tmp"/lead2_*.json <<'EOF'
import json
import sys
for path in sys.argv[1:]:
    ci = json.load(open(path))["ci"]
    assert ci["lower"] <= ci["upper"], (path, ci)
EOF

echo "== Classify next to the (4,3) special point, inside the three-root window"
for h in 0.4834744202549601 0.48347442025654663; do
  tensorpotts classify --p 4 --q 3 --beta 0.7788818178799327 --h "$h" \
    > "$tmp/near_special_$h.json"
done
python - "$tmp"/near_special_*.json <<'EOF'
import json
import sys
assert len(sys.argv) == 3, sys.argv
for path in sys.argv[1:]:
    pc = json.load(open(path))
    assert pc["tag"] == "StronglyCritical" and len(pc["s_values"]) == 2, (path, pc)
EOF

echo "== Phase layer at large p"
tensorpotts landmarks --p 100 --q 3 > "$tmp/landmarks_100_3.json"
python - "$tmp/landmarks_100_3.json" <<'EOF'
import json
import sys
lm = json.load(open(sys.argv[1]))
assert lm["type"] == "I" and 0.98 < lm["s_pq"] < 0.99, lm
EOF
status=0
tensorpotts landmarks --p 56 --q 8 || status=$?
test "$status" -eq 3

echo "== Two-step confidence set through the composed law L1"
tensorpotts ci --p 4 --q 3 --beta 0.7788818023022966 --h 0.4834744456391682 --param beta --N 500 --simulate --method two_step

echo "== Two-step confidence set through the composed law G2"
tensorpotts ci --p 4 --q 2 --beta 0.6666666666666666 --h 0 --param h --N 4000 --simulate --method two_step

echo "== Histogram script"
python scripts/magnetization_histograms.py --outdir "$tmp/hist" --N 200 --samples 2000

echo "== Coverage study script"
python scripts/coverage_study.py --N 200 --replicates 20

echo "== Phase diagram script"
python scripts/phase_diagram_data.py --outdir "$tmp/pd" --resolution 9 --curve-samples 20

echo "== Phase-diagram columns across the critical curve into strong coupling"
tensorpotts phase-diagram --p 4 --q 3 --beta-min 0.5 --beta-max 10 --h-max 1 --resolution 25 --out "$tmp/grid43.csv"

echo "== Benchmark smoke check"
python3 bench/smoke.py
