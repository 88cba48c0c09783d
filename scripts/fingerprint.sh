#!/bin/sh
# Fingerprint of what the program writes at fixed seeds: generate small
# synthetic qa, recs, qarecs, discussion and joint datasets, train memn2n
# (1, 2 and 3 dictionaries), supemb (1 and 2), ir (with and without
# relevance feedback) on each and mf on those with ratings, evaluate every
# model and the oracle on its test split (every discussion and joint model
# also at k = 1, where ties between equal scores decide hits), and print the
# sha256 of every file written, sorted by path.  Two checkouts that print the same lines write the
# same bytes.  mf is not evaluated on joint, whose discussion examples it
# refuses by design.
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

# train TASK NAME [train options]: train models/TASK-NAME.bin
train() {
    task=$1 name=$2
    shift 2
    dialeval train --data "$OUT/$task" --out "$OUT/models/$task-$name.bin" \
        --hops 2 --epochs 2 --seed 3 --dim 20 "$@"
}

# evaluate TASK NAME: report on models/TASK-NAME.bin, and for discussion
# and joint also at k = 1 (reports/TASK-NAME-k1)
evaluate() {
    dialeval eval --data "$OUT/$1" --model-file "$OUT/models/$1-$2.bin" \
        --out "$OUT/reports/$1-$2"
    case $1 in
    discussion|joint)
        dialeval eval --data "$OUT/$1" --model-file "$OUT/models/$1-$2.bin" \
            --k 1 --out "$OUT/reports/$1-$2-k1" ;;
    esac
}

dialeval gen --task qa --out "$OUT/qa" --synthetic --seed 5 \
    --movies 40 --train 200 --dev 30 --test 30
dialeval gen --task qarecs --out "$OUT/qarecs" --synthetic --seed 5 \
    --movies 40 --users 40 --train 60 --dev 10 --test 10
dialeval gen --task discussion --out "$OUT/discussion" --synthetic --seed 5 \
    --threads 150 --pool-size 50
for task in recs joint; do
    dialeval gen --task $task --out "$OUT/$task" --synthetic --seed 5 \
        --movies 40 --users 40 --train 200 --dev 30 --test 30
done

for task in qa recs qarecs discussion joint; do
    for model in memn2n:1 memn2n:2 memn2n:3 supemb:1 supemb:2 ir:1; do
        name="${model%:*}${model#*:}"
        train $task "$name" --model "${model%:*}" --dicts "${model#*:}"
        evaluate $task "$name"
    done
    train $task ir-rf --model ir --rf-weight 0.5
    evaluate $task ir-rf
    dialeval eval --data "$OUT/$task" --oracle --out "$OUT/reports/$task-oracle"
done
for task in recs qarecs joint; do
    train $task mf --model mf
done
for task in recs qarecs; do
    evaluate $task mf
done

cd "$OUT"
find . -type f | LC_ALL=C sort | xargs sha256sum
