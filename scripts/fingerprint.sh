#!/bin/sh
# Fingerprint of what the program writes at fixed seeds: generate small
# synthetic qa, qarecs and discussion datasets, train memn2n (1, 2 and 3
# dictionaries), supemb (1 and 2) and ir on each, evaluate every model on
# its test split, and print the sha256 of every file written, sorted by
# path.  Two checkouts that print the same lines write the same bytes.
#
#     scripts/fingerprint.sh OUT > fingerprint.txt
#
# OUT is emptied first.  Give both checkouts the same OUT: a train manifest
# records the absolute path of its data directory.  The source tree next to
# this script is the one run, with BLAS on one thread.
set -eu

if [ $# -ne 1 ]; then
    echo "usage: $0 OUT" >&2
    exit 1
fi
ROOT=$(cd "$(dirname "$0")/.." && pwd)
rm -rf "$1"
mkdir -p "$1/models" "$1/reports"
OUT=$(cd "$1" && pwd)
export PYTHONPATH="$ROOT/src${PYTHONPATH:+:$PYTHONPATH}"
export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1

dialeval() {
    python3 -m dialeval.cli "$@" > /dev/null
}

dialeval gen --task qa --out "$OUT/qa" --synthetic --seed 5 \
    --movies 40 --train 200 --dev 30 --test 30
dialeval gen --task qarecs --out "$OUT/qarecs" --synthetic --seed 5 \
    --movies 40 --users 40 --train 60 --dev 10 --test 10
dialeval gen --task discussion --out "$OUT/discussion" --synthetic --seed 5 \
    --threads 150 --pool-size 50

for task in qa qarecs discussion; do
    for model in memn2n:1 memn2n:2 memn2n:3 supemb:1 supemb:2 ir:1; do
        name="${model%:*}${model#*:}"
        dialeval train --data "$OUT/$task" --model "${model%:*}" --dicts "${model#*:}" \
            --out "$OUT/models/$task-$name.bin" --hops 2 --epochs 2 --seed 3 --dim 20
        dialeval eval --data "$OUT/$task" --model-file "$OUT/models/$task-$name.bin" \
            --out "$OUT/reports/$task-$name"
    done
done

cd "$OUT"
find . -type f | LC_ALL=C sort | xargs sha256sum
