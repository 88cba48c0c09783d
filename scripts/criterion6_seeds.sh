#!/bin/sh
# Criterion 6 at several training seeds: generate its qarecs dataset (seed
# 5), train the 2-hop memory network and the two-dictionary supervised
# embedding model on it as tests/test_acceptance.py does, at each training
# seed, and print held-out hits@10 by response position for both models
# with memn2n's margins over supemb at positions 2 and 3+ (the criterion
# asks for 5 points or more at each).
#
#     scripts/criterion6_seeds.sh OUT [SEED ...] > table.txt
#
# The seeds default to 1 2 3; seed 1 is the test's.  OUT is emptied first
# and keeps the data, models and reports.  The source tree next to this
# script is the one run, with BLAS on one thread.
set -eu

if [ $# -lt 1 ]; then
    echo "usage: $0 OUT [SEED ...]" >&2
    exit 1
fi
ROOT=$(cd "$(dirname "$0")/.." && pwd)
rm -rf "$1"
mkdir -p "$1"
OUT=$(cd "$1" && pwd)
shift
[ $# -gt 0 ] || set -- 1 2 3
export PYTHONPATH="$ROOT/src${PYTHONPATH:+:$PYTHONPATH}"
export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1

dialeval() {
    python3 -m dialeval.cli "$@" > /dev/null
}

# positions NAME: "p1 p2 p3+" hits@10 of report NAME
positions() {
    awk -F'\t' '$1 == "position" { h[$2] = $3 }
        END { print h["1"], h["2"], h["3+"] }' "$OUT/$1.tsv"
}

dialeval gen --task qarecs --out "$OUT/data" --synthetic --movies 100 \
    --users 120 --train 1800 --dev 100 --test 100 --seed 5

printf '%-5s %-24s %-24s %s\n' seed "memn2n 1 / 2 / 3+" "supemb 1 / 2 / 3+" \
    "margin 2 / 3+"
for seed in "$@"; do
    dialeval train --data "$OUT/data" --model memn2n --out "$OUT/memn2n-$seed.bin" \
        --hops 2 --lr 0.005 --epochs 15 --seed "$seed"
    dialeval train --data "$OUT/data" --model supemb --out "$OUT/supemb-$seed.bin" \
        --dicts 2 --lr 0.005 --epochs 15 --seed "$seed"
    for model in memn2n supemb; do
        dialeval eval --data "$OUT/data" --model-file "$OUT/$model-$seed.bin" \
            --split test --out "$OUT/$model-$seed"
    done
    echo "$seed $(positions "memn2n-$seed") $(positions "supemb-$seed")" | awk '{
        printf "%-5s %-24s %-24s %+.1f / %+.1f\n", $1,
            sprintf("%.1f / %.1f / %.1f", $2, $3, $4),
            sprintf("%.1f / %.1f / %.1f", $5, $6, $7), $3 - $6, $4 - $7 }'
done
