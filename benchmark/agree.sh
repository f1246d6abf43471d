#!/usr/bin/env bash
# Runs the benchmark as two sets of N runs per workload and checks that the
# sets agree within the benchmark's own bounds.
#
#   benchmark/agree.sh [-n N] [-s SECONDS] [-w WORKLOAD]... [BASE [HEAD]]
#
# BASE and HEAD are checkouts holding benchmark/ and the simulator sources.
# Both default to this checkout, which makes the two sets a noise check of
# one commit. To compare two commits, pass the parent's checkout as BASE and
# the change's as HEAD. Run i of each set uses --seed i, and the set that
# runs first alternates with i. Every workload in BENCHMARK.json runs unless
# -w names some; SECONDS defaults to its run_seconds.
#
# Prints, per workload and end-to-end metric, each set's median, quartiles
# and spread (inter-quartile distance over the median). Exits 1 if a run
# fails, if a simulated metric (sim_*) of a seed differs between the sets,
# or if a host metric's HEAD median is worse than BASE's by more than its
# bound in BENCHMARK.json (moves by more than it, either way, when BASE and
# HEAD are one checkout). Raw results land in benchmark/build/agree/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
runs=10
seconds=""
workloads=()
while getopts "n:s:w:" opt; do
  case "$opt" in
    n) runs="$OPTARG" ;;
    s) seconds="$OPTARG" ;;
    w) workloads+=("$OPTARG") ;;
    *) sed -n '2,20p' "$0"; exit 2 ;;
  esac
done
shift $((OPTIND - 1))
base="$(cd "${1:-$root}" && pwd)"
head_dir="$(cd "${2:-$base}" && pwd)"
spec="$root/BENCHMARK.json"
if [[ -z "$seconds" ]]; then
  seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$spec")"
fi
if [[ ${#workloads[@]} -eq 0 ]]; then
  mapfile -t workloads < <(python3 -c 'import json,sys; [print(w["name"]) for w in json.load(open(sys.argv[1]))["workloads"]]' "$spec")
fi

out="$here/build/agree"
rm -rf "$out"
status=0
run_one() {  # set checkout workload seed
  local dest="$out/$1/$3"
  mkdir -p "$dest"
  if ! (cd "$2" && python3 benchmark/run.py --workload "$3" --seed "$4" \
          --seconds "$seconds" --trace 0 >"$dest/$4.out" 2>"$dest/$4.err"); then
    echo "run failed: set $1, workload $3, seed $4 (see $dest/$4.err)" >&2
    status=1
  fi
}
for w in "${workloads[@]}"; do
  for ((i = 1; i <= runs; i++)); do
    if ((i % 2)); then
      run_one base "$base" "$w" "$i"
      run_one head "$head_dir" "$w" "$i"
    else
      run_one head "$head_dir" "$w" "$i"
      run_one base "$base" "$w" "$i"
    fi
  done
done

same=0
[[ "$base" == "$head_dir" ]] && same=1
python3 - "$out" "$spec" "$runs" "$same" "${workloads[@]}" <<'EOF' || status=1
import json, statistics, sys

out, spec_path, runs, same = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4] == "1"
workloads = sys.argv[5:]
metrics = json.load(open(spec_path))["end_to_end"]
bad = False

def load(which, w, seed):
    try:
        lines = open(f"{out}/{which}/{w}/{seed}.out").read().splitlines()
        r = json.loads(lines[-1])
    except (OSError, ValueError, IndexError):
        return None
    return r if r.get("correct") else None

for w in workloads:
    res = {s: [load(s, w, i) for i in range(1, runs + 1)] for s in ("base", "head")}
    if any(r is None for rs in res.values() for r in rs):
        print(f"{w}: missing or incorrect runs")
        bad = True
        continue
    print(f"{w}:")
    for m in metrics:
        name, better, bound = m["name"], m["better"], m["bound"]
        vals = {s: [r["metrics"][name]["value"] for r in res[s]] for s in res}
        line = f"  {name:24s}"
        for s in ("base", "head"):
            q1, _, q3 = statistics.quantiles(vals[s], n=4)
            med = statistics.median(vals[s])
            line += f"  {s} {med:.6g} [{q1:.6g}, {q3:.6g}] spread {(q3 - q1) / med:.4f}"
        verdict = ""
        if name.startswith("sim_"):
            if vals["base"] != vals["head"]:
                verdict = "  SIMULATED VALUES DIFFER"
                bad = True
        else:
            b, h = statistics.median(vals["base"]), statistics.median(vals["head"])
            worse = (h - b) / b if better == "lower" else (b - h) / b
            if worse > bound or (same and -worse > bound):
                verdict = f"  MOVED BY {abs(worse):.4f} > bound {bound}"
                bad = True
        print(line + verdict)
sys.exit(1 if bad else 0)
EOF
exit "$status"
