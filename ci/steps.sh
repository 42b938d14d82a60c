#!/usr/bin/env bash
# The steps of .github/workflows/tier1.yml, one function each, so that CI
# and a local run execute the same commands:
#
#     ci/steps.sh STEP      STEP: install, tier1, digests, line-budget,
#                                 readme-commands, readme-library, golden
#
# Run from the repository root or anywhere else.  Outside GitHub Actions,
# GITHUB_WORKSPACE defaults to the repository root and RUNNER_TEMP to a
# temporary directory removed on exit; src/ is put on PYTHONPATH, and where
# the package is not installed `fdsim` runs `python -m fdsim.cli`.  Every
# step but install runs without network.
set -euo pipefail

GITHUB_WORKSPACE=${GITHUB_WORKSPACE:-$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)}
if [ -z "${RUNNER_TEMP:-}" ]; then
  RUNNER_TEMP=$(mktemp -d)
  trap 'rm -rf "$RUNNER_TEMP"' EXIT
fi
cd "$GITHUB_WORKSPACE"
export PYTHONPATH="$GITHUB_WORKSPACE/src${PYTHONPATH:+:$PYTHONPATH}"
if ! command -v fdsim > /dev/null; then
  fdsim() { python -m fdsim.cli "$@"; }
  export -f fdsim
fi

install() {
  # NUMPY_PIN, when set, pins numpy (the matrix's declared floor)
  python -m pip install -e '.[test]' ${NUMPY_PIN:+"$NUMPY_PIN"}
}

tier1() {
  # then the property tests again, at 600 examples each (the `deep`
  # hypothesis profile of tests/conftest.py) against tier-1's 60
  python -m pytest -q --continue-on-collection-errors
  python -m pytest -q tests/test_properties.py --hypothesis-profile=deep
}

digests() {
  # tests/rows_digest.py prints a SHA-256 of each benchmark workload's rows
  # at seeds 1 and 7; two runs, each a process with its own hash seed and
  # one at one BLAS thread, the other at two, must each print the six
  # digests committed in tests/rows_digests.txt.  A change that moves a
  # row updates that file on purpose
  test "$(wc -l < tests/rows_digests.txt)" -eq 6
  for threads in 1 2; do
    OPENBLAS_NUM_THREADS=$threads python tests/rows_digest.py > "$RUNNER_TEMP/digest-$threads.txt"
    diff tests/rows_digests.txt "$RUNNER_TEMP/digest-$threads.txt"
  done
}

line-budget() {
  # src/fdsim may not grow past the ROADMAP's round budget
  lines=$(cat src/fdsim/*.py | wc -l)
  echo "src/fdsim: $lines lines, budget 1950"
  test "$lines" -le 1950
}

readme-commands() {
  # each `fdsim …` line of the README's "Command line" block, on a
  # two-point, one-trial sweep config in a scratch directory; any warning
  # is an error, as in the tests
  mkdir "$RUNNER_TEMP/readme-commands"
  cd "$RUNNER_TEMP/readme-commands"
  printf 'n_bits = 400\naxis = ebn0_db\nvalues = 10,20\ntrials_per_point = 1\n' > sweep.cfg
  cp sweep.cfg link.cfg
  sed -n '/^## Command line/,/^```$/p' "$GITHUB_WORKSPACE/README.md" \
    | grep '^fdsim ' | sed 's/ *#.*//' > commands.sh
  test "$(wc -l < commands.sh)" -eq 5
  PYTHONWARNINGS=error bash -ex commands.sh
  test -s row.csv && test -s results.csv && test -s taps.csv
}

readme-library() {
  # the README's "Library" Python block, run as a script; any warning is an
  # error, as in the tests
  sed -n '/^## Library/,/^```$/p' README.md | sed '1,/^```python$/d;$d' \
    > "$RUNNER_TEMP/library.py"
  test -s "$RUNNER_TEMP/library.py"
  PYTHONWARNINGS=error python "$RUNNER_TEMP/library.py"
}

golden() {
  # each workload's seed-1 rows are checked against perfbench/golden; seed
  # 7 has no golden rows, so its run checks only the +B gain, finiteness
  # and repeats.  The last output line is a JSON record whose "correct"
  # must be true
  for w in sweep-ebn0 narrowband sweep-bandwidth; do
    for seed in 1 7; do
      python3 perfbench/run.py --workload "$w" --seed "$seed" --trace 0 --seconds 2 \
        > "$RUNNER_TEMP/$w-$seed.out"
      tail -n 1 "$RUNNER_TEMP/$w-$seed.out" \
        | python3 -c 'import json, sys; sys.exit(json.load(sys.stdin)["correct"] is not True)'
    done
  done
}

case "${1:-}" in
  install | tier1 | digests | line-budget | readme-commands | readme-library | golden) "$1" ;;
  *) echo "usage: $0 install|tier1|digests|line-budget|readme-commands|readme-library|golden" >&2
     exit 2 ;;
esac
