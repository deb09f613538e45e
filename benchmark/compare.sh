#!/usr/bin/env bash
# Compare two benchmark output directories (each holding <workload>.json
# files written by run.sh): per workload and end-to-end metric, both values,
# the ratio B/A with its base, the bound from BENCHMARK.json, and
# `agree` / `differs`. Exits non-zero on any `differs`.
#
#   benchmark/compare.sh A/ B/
set -euo pipefail

if (($# != 2)); then
    echo "usage: benchmark/compare.sh A/ B/" >&2
    exit 2
fi
HERE="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

exec python3 - "$1" "$2" "$HERE/../BENCHMARK.json" <<'EOF'
import json, os, sys

a_dir, b_dir, contract = sys.argv[1:4]
spec = json.load(open(contract))
differs = 0

def verdict(ok):
    global differs
    differs += not ok
    return "agree" if ok else "differs"

for w in (w["name"] for w in spec["workloads"]):
    paths = [os.path.join(d, w + ".json") for d in (a_dir, b_dir)]
    if not all(map(os.path.exists, paths)):
        print(f"{w:12s} (not in both directories)")
        continue
    a, b = (json.load(open(p)) for p in paths)
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        va, vb = (r["result"]["metrics"][name]["value"] for r in (a, b))
        ratio = vb / va
        ok = abs(ratio - 1.0) <= bound
        print(f"{w:12s} {name:12s} A {va:<14.6g} B {vb:<14.6g} B/A {ratio:7.4f} "
              f"(base A = {va:.6g} {metric['unit']}) bound {bound:.2f} {verdict(ok)}")
    # Checks and, for the same seed, the trajectories themselves are exact.
    fa, fb = a["failed_frac"], b["failed_frac"]
    print(f"{w:12s} {'failed_frac':12s} A {fa:<14g} B {fb:<14g} bound 0 (absolute) {verdict(fa == 0 and fb == 0)}")
    if a["seed"] == b["seed"]:
        for key in ("window_state_fnv", "solo_state_fnv"):
            if key in a["info"]:
                same = a["info"][key] == b["info"].get(key)
                print(f"{w:12s} {key:12s} A {a['info'][key]} B {b['info'].get(key)} exact {verdict(same)}")

sys.exit(1 if differs else 0)
EOF
