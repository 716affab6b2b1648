#!/usr/bin/env bash
# end-to-end reproduction: solve every shipped config, then the refinement study
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-out/repro}"
python3 -m fglap.cli solve --config configs/smoke_main1.cfg --out "$out/main1"
python3 -m fglap.cli solve --config configs/weighted_main2.cfg --out "$out/main2"
python3 -m fglap.cli solve --config configs/double_power.cfg --out "$out/double_power"
python3 -m fglap.cli solve --config configs/log_type.cfg --out "$out/log_type"
python3 -m fglap.cli convergence --config configs/refinement.cfg --out "$out/refinement"
echo "outputs under $out/"
