#!/usr/bin/env bash
# Full command-line round trip: simulate -> estimate -> evaluate -> replicate.
set -euo pipefail

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
cd "$workdir"
echo "working in $workdir"

cat > simulate.json <<'EOF'
{
  "schema_version": 1,
  "preset": "two-normals-d2",
  "n_units": 500,
  "n_alts": 5,
  "seed": 11,
  "out_data": "data.csv",
  "out_truth": "truth.json"
}
EOF
sparserc simulate simulate.json

cat > estimate.json <<'EOF'
{
  "schema_version": 1,
  "estimator": "sg",
  "level": 3,
  "draws": {"rule": "halton", "r": 4000, "burn_in": 20},
  "solver": {"tol": 1e-8, "max_iter": 10000}
}
EOF
sparserc estimate estimate.json data.csv --out fit.json --weights-csv weights.csv

sparserc evaluate fit.json --truth truth.json --truth-samples 500000 \
  --out-cdf cdf.csv --out-marginals marginals.csv --out-summary summary.json
echo "--- summary.json ---"
cat summary.json

cat > replicate.json <<'EOF'
{
  "schema_version": 1,
  "preset": "smoke"
}
EOF
sparserc replicate replicate.json --report report.json --table table.csv
echo "--- table.csv ---"
cat table.csv
