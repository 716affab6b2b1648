#!/usr/bin/env bash
# inequality battery for the three reference families
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

out="${1:-out/checks}"
for cfg in configs/smoke_main1.cfg configs/double_power.cfg configs/log_type.cfg; do
    name="$(basename "$cfg" .cfg)"
    echo "== $name =="
    python3 -m fglap.cli check-young --config "$cfg" --out "$out/$name"
done
