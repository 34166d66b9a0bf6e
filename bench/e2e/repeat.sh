#!/usr/bin/env bash
# Repeats bench_e2e runs and summarizes their spread, or compares two sets.
#
#   bench/e2e/repeat.sh [-n runs] [-o results.jsonl] [workload ...]
#   bench/e2e/repeat.sh --compare base.jsonl change.jsonl
#
# Run mode: round r (1..runs) runs every workload once, untraced, for
# BENCHMARK.json's run_seconds with seed r, in BENCHMARK.json order on odd
# rounds and reversed on even ones, so drift in the machine's load does not
# line up with one workload. Each summary line is appended to results.jsonl
# (default .bench_build/e2e-repeat.jsonl); then every (workload, metric)
# pair is printed with its median, quartiles and spread = (q3 - q1) /
# median, the quartiles as Python's statistics.quantiles(values, n=4) gives
# them. Default: 10 runs.
#
# Compare mode: for two result files, typically the same command run on a
# parent and a change, prints both medians per pair, the change's relative
# move in the metric's worse direction, and the verdict against the bound
# BENCHMARK.json fixes: "ok", "WORSE" (beyond the bound), or "unresolved"
# (the parent's own spread exceeds the bound).

set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/../.." && pwd)

summarize() {
  python3 - "$root/BENCHMARK.json" "$@" <<'PY'
import json, statistics, sys

spec = json.load(open(sys.argv[1]))
bounds = {m["name"]: m for m in spec["end_to_end"]}
mode, files = sys.argv[2], sys.argv[3:]

def load(path):
    values = {}
    for line in open(path):
        rec = json.loads(line)
        if not rec["summary"]["correct"]:
            print("warning: %s seed %s failed its output checks"
                  % (rec["workload"], rec["seed"]), file=sys.stderr)
        for name, m in rec["summary"]["metrics"].items():
            values.setdefault((rec["workload"], name), []).append(m["value"])
    return values

def stats(vals):
    median = statistics.median(vals)
    if len(vals) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0

if mode == "summary":
    values = load(files[0])
    print("%-16s %-26s %5s %14s %14s %14s %8s" %
          ("workload", "metric", "runs", "median", "q1", "q3", "spread"))
    for (w, name), vals in values.items():
        median, q1, q3, spread = stats(vals)
        print("%-16s %-26s %5d %14.6g %14.6g %14.6g %7.2f%%" %
              (w, name, len(vals), median, q1, q3, 100 * spread))
else:
    base, change = load(files[0]), load(files[1])
    print("%-16s %-16s %14s %14s %9s %7s  %s" %
          ("workload", "metric", "base", "change", "worse by", "bound",
           "verdict"))
    for key in sorted(set(base) & set(change)):
        w, name = key
        if name not in bounds:
            continue
        b, _, _, spread = stats(base[key])
        c = statistics.median(change[key])
        worse = (c - b) / b if bounds[name]["better"] == "lower" else (b - c) / b
        bound = bounds[name]["bound"]
        verdict = ("unresolved" if spread > bound
                   else "WORSE" if worse > bound else "ok")
        print("%-16s %-16s %14.6g %14.6g %8.2f%% %6.0f%%  %s" %
              (w, name, b, c, 100 * worse, 100 * bound, verdict))
PY
}

if [[ "${1:-}" == "--compare" ]]; then
  [[ $# -eq 3 ]] || { echo "usage: $0 --compare base.jsonl change.jsonl" >&2; exit 2; }
  summarize compare "$2" "$3"
  exit 0
fi

runs=10
seconds=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")
out="$root/.bench_build/e2e-repeat.jsonl"
while getopts "n:o:" opt; do
  case "$opt" in
    n) runs=$OPTARG ;;
    o) out=$OPTARG ;;
    *) exit 2 ;;
  esac
done
shift $((OPTIND - 1))
if [[ $# -gt 0 ]]; then
  workloads=("$@")
else
  mapfile -t workloads < <(python3 -c 'import json,sys; [print(w["name"]) for w in json.load(open(sys.argv[1]))["workloads"]]' "$root/BENCHMARK.json")
fi

mkdir -p "$(dirname "$out")"
: > "$out"
for ((r = 1; r <= runs; r++)); do
  order=("${workloads[@]}")
  if ((r % 2 == 0)); then
    order=()
    for ((i = ${#workloads[@]} - 1; i >= 0; i--)); do order+=("${workloads[i]}"); done
  fi
  for w in "${order[@]}"; do
    line=$(python3 "$here/run.py" --workload "$w" --seed "$r" \
             --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1) || true
    if [[ "$line" != \{* ]]; then
      echo "run $r/$runs $w: no result" >&2
      continue
    fi
    echo "{\"workload\": \"$w\", \"seed\": $r, \"summary\": $line}" >> "$out"
    echo "run $r/$runs $w done" >&2
  done
done
summarize summary "$out"
