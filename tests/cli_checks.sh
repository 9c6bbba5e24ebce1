#!/usr/bin/env bash
# End-to-end checks of the command line, with no test framework: every
# text and SVG golden diffs clean, and malformed input exits 1 with an
# `ERROR<TAB>InputError<TAB>` line.  Run from the repository root, with
# the command to test as arguments (default: the installed `k3cone`):
#
#   tests/cli_checks.sh
#   PYTHONPATH=src tests/cli_checks.sh python3.13 -m k3cone.cli
set -euo pipefail
[ $# -gt 0 ] || set -- k3cone
k3cone() { "${cmd[@]}" "$@"; }
cmd=("$@")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
data=tests/data

# the text goldens: one run per line of the table that tests/test_cli.py
# reads too, the golden file first
while read -r -a run; do
    [[ ${#run[@]} -eq 0 || ${run[0]} == '#'* ]] && continue
    k3cone "${run[@]:1}" < /dev/null | diff - "$data/${run[0]}"
done < $data/cli_golden_runs.txt
k3cone specialize-scan configs/default_pencil.json --t-min 1 --t-max 4 --tolerance 1e-2 | grep -q '^# skipped t=1:'
# a 3-torsion point: its height and its pairing with itself are exactly 0
k3cone curve-heights --a -9 --b 9 --point 3,3 --tolerance 1e-6 > "$tmp/torsion.tsv"
grep -qx $'canonical\t0\t-\t0' "$tmp/torsion.tsv"
grep -qx $'pairing\t0\t0\t0' "$tmp/torsion.tsv"
# a non-torsion point whose first two doublings have x in {-1, 0, 1}
k3cone curve-heights --a 0 --b 5/4 --point 1,3/2 --tolerance 1e-4 > "$tmp/zero_start.tsv"
if grep -qx $'canonical\t0\t-\t0' "$tmp/zero_start.tsv"; then
    echo "a non-torsion point got canonical height 0" >&2
    exit 1
fi
k3cone render configs/f4_frame.json --N 2 --out "$tmp/uhs.svg" > /dev/null
diff "$tmp/uhs.svg" $data/golden_uhs.svg
k3cone render configs/f4_frame.json --model ball --N 2 --out "$tmp/ball.svg" > /dev/null
diff "$tmp/ball.svg" $data/golden_ball.svg

echo '{"gram": 3}' > "$tmp/gram3.json"
echo '3' > "$tmp/top3.json"
python3 -c 'import json, sys; d = json.load(open(sys.argv[1])); d["E"] = [True, False, False, False]; print(json.dumps(d))' configs/f4_frame.json > "$tmp/boolE.json"
echo '{"a": 5, "b": [0], "sections": []}' > "$tmp/a5.json"
echo '{"a": [0], "b": [1], "sections": [{"x": [0], "y": 5}]}' > "$tmp/y5.json"
echo '{"gram": [[0, 1], [1, 0]], "E": [1, 0], "O": [-1, 1], "ample": [2, 1], "translations": []}' > "$tmp/rank0.json"
printf '\xff\xfe' > "$tmp/notutf8.json"

# the command exits 1 with an InputError line
input_error() {
    local status=0
    k3cone "$@" 2> "$tmp/bad.err" > /dev/null || status=$?
    if [ "$status" -ne 1 ] || ! grep -q $'^ERROR\tInputError\t' "$tmp/bad.err"; then
        echo "expected exit 1 and an InputError from: $*" >&2
        cat "$tmp/bad.err" >&2
        return 1
    fi
}
for check in "validate gram3" "validate top3" "validate boolE" "specialize-scan a5" "specialize-scan y5" "synthetic-pair rank0" "validate notutf8"; do
    set -- $check
    input_error "$1" "$tmp/$2.json"
done
input_error validate configs
input_error synthetic-pair configs/f4_frame.json --fibers ,,
input_error render configs/f4_frame.json --out "$tmp/missing/x.svg"
# a bad tolerance is named before any fibre is scanned
input_error specialize-scan configs/default_pencil.json --t-min 1 --t-max 1 --tolerance -1
grep -q 'tolerance' "$tmp/bad.err"
# an empty t-range says so
input_error specialize-scan configs/default_pencil.json --t-min 9 --t-max 8
grep -q 'no value of t was given' "$tmp/bad.err"
# a t-range of more values than the scan takes is refused at once
cmd=(timeout 10 "${cmd[@]}")
input_error specialize-scan configs/default_pencil.json --t-min 8 --t-max 9 --geometric-step 1.000001
echo "cli checks passed"
