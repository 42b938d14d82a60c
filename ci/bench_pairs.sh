#!/usr/bin/env bash
# Compare a change with its parent on one benchmark workload, in pairs:
#
#     ci/bench_pairs.sh PARENT_REF WORKLOAD N [SEED]
#
# PARENT_REF is checked out in a temporary git worktree; the change is the
# working tree this script belongs to, uncommitted edits included.  N pairs
# of `perfbench/run.py --workload WORKLOAD --seed SEED --trace 0` runs
# (SEED 1 by default) alternate between the two trees, the parent first in
# odd pairs and the change first in even ones.  It then prints, for every
# metric of the runs' full records (the gated ones of BENCHMARK.json and
# the ungated `sweep_wall_s` and `trials_per_s`), each side's median and
# quartiles, the change in the median, and the pairs the change won: a
# gain needs at least ten pairs, nine tenths of them won, ties counting
# for neither, and medians further apart than the parent's quartiles.  A gated
# metric whose median is worse by more than its BENCHMARK.json bound is
# flagged.  Nothing is committed or kept; it is not a CI step.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
  echo "usage: $0 PARENT_REF WORKLOAD N [SEED]" >&2
  exit 2
fi
parent_ref=$1 workload=$2 pairs=$3 seed=${4:-1}
change=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
work=$(mktemp -d)
parent="$work/parent"
cleanup() {
  git -C "$change" worktree remove --force "$parent" 2> /dev/null || true
  git -C "$change" worktree prune
  rm -rf "$work"
}
trap cleanup EXIT
git -C "$change" worktree add --quiet --detach "$parent" "$parent_ref"
mkdir "$work/records"

run() {  # run SIDE PAIR: one benchmark run in SIDE's tree, its record kept
  local tree=$1 side=$2 pair=$3
  (cd "$tree" && python3 perfbench/run.py --workload "$workload" --seed "$seed" --trace 0 \
    > "$work/$side-$pair.log")
  cp "$tree/.perfbench_out/$workload-seed$seed-trace0.json" "$work/records/$side-$pair.json"
  echo "pair $pair: $side done" >&2
}

for pair in $(seq 1 "$pairs"); do
  if [ $((pair % 2)) -eq 1 ]; then
    run "$parent" parent "$pair"; run "$change" change "$pair"
  else
    run "$change" change "$pair"; run "$parent" parent "$pair"
  fi
done

python3 - "$work/records" "$pairs" "$change/BENCHMARK.json" "$workload" "$seed" <<'EOF'
import json, statistics, sys
from pathlib import Path

records, pairs, bench, workload, seed = Path(sys.argv[1]), int(sys.argv[2]), *sys.argv[3:]
gated = {m["name"]: m for m in json.loads(Path(bench).read_text())["end_to_end"]}
runs = {side: [json.loads((records / f"{side}-{k}.json").read_text()) for k in range(1, pairs + 1)]
        for side in ("parent", "change")}
failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
print(f"{workload} seed {seed}: {pairs} pairs; failed trials: parent {failed['parent']}, "
      f"change {failed['change']}")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


print(f"{'metric':24s} {'parent median [q1, q3]':32s} {'change median [q1, q3]':32s} "
      f"{'change':>8s} {'wins':>6s}  verdict")
for name in sorted(runs["parent"][0]["all_metrics"]):
    lower = gated[name]["better"] == "lower" if name in gated else name != "trials_per_s"
    values = {side: [r["all_metrics"][name] for r in rs] for side, rs in runs.items()}
    wins = sum((c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"]))
    (pq1, pm, pq3), (cq1, cm, cq3) = quartiles(values["parent"]), quartiles(values["change"])
    gain = (pm - cm) if lower else (cm - pm)
    rel = (cm - pm) / pm if pm else 0.0
    verdict = "gain" if pairs >= 10 and wins >= 0.9 * pairs and gain > pq3 - pq1 else "no gain"
    if name in gated and -gain > gated[name]["bound"] * abs(pm):
        verdict = f"WORSE than the {gated[name]['bound']:.0%} bound"
    print(f"{name:24s} {pm:10.4g} [{pq1:9.4g}, {pq3:9.4g}] {cm:10.4g} [{cq1:9.4g}, {cq3:9.4g}] "
          f"{rel:+8.1%} {wins:3d}/{pairs:<2d}  {verdict}")
EOF
