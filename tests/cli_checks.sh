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

k3cone validate configs/f4_frame.json | diff - $data/cli_validate_f4.txt
k3cone orbit configs/f4_frame.json --N 3 | diff - $data/cli_orbit_f4_N3.tsv
k3cone synthetic-pair configs/f4_frame.json | diff - $data/cli_synthetic_pair_noise0.tsv
k3cone synthetic-pair configs/f4_frame.json --seed 7 --noise 1 | diff - $data/cli_synthetic_pair_noise1_seed7.tsv
k3cone synthetic-pair configs/f4_frame.json --seed 7 --noise 1 --n-max 700 | diff - $data/cli_synthetic_pair_noise1_seed7_n700.tsv
k3cone synthetic-pair $data/frame_dim8.json --seed 7 --noise 1 --fibers 10,1000 --n-max 50 | diff - $data/cli_synthetic_pair_dim8.tsv
k3cone specialize-scan configs/default_pencil.json --t-min 8 --t-max 32 --tolerance 1e-3 | diff - $data/cli_specialize_scan_8_32.tsv
k3cone curve-heights --a 0 --b -2 --point 3,5 --tolerance 1e-3 | diff - $data/cli_curve_heights_3_5.tsv
k3cone curve-heights --a -1/16 --b 1/64 --point 1/4,1/8 --point 0,1/8 --tolerance 1e-3 | diff - $data/cli_curve_heights_nonintegral.tsv
k3cone specialize-scan configs/default_pencil.json --t-min 3/2 --t-max 4 --geometric-step 3/2 --tolerance 1e-2 | diff - $data/cli_specialize_scan_fractional_t.tsv
k3cone specialize-scan configs/default_pencil.json --t-min 1 --t-max 4 --tolerance 1e-2 | grep -q '^# skipped t=1:'
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
echo "cli checks passed"
