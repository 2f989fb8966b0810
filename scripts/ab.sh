#!/usr/bin/env bash
# ab.sh — A/B the repository benchmark between two revisions.
#
# Usage:
#   scripts/ab.sh BASE [HEAD] --workload W [--pairs N] [--seconds S] [--seed K]
#
# BASE (and HEAD, when given) is any git revision. Each is checked out
# into a git worktree under a temporary directory and benchmarked there
# with its own perfbench/run.sh, so each side builds from its own source.
# Without HEAD the working tree is the head side, uncommitted changes
# included. The script runs N pairs (default 10) of untraced runs of S
# seconds each (default 20), alternating which side runs first, and
# prints, for every end-to-end metric in BENCHMARK.json:
#
#   - each side's median and interquartile range (q1–q3),
#   - the change of the head median against the base median,
#   - k/N: the pairs in which head beat base (the metric's "better"
#     direction comes from BENCHMARK.json),
#   - a verdict, by the rule a claimed gain must meet: "better" when
#     head won at least 0.9·N pairs and its median is further from the
#     base median than the base IQR (q3 − q1) is wide; "worse" when base
#     won at least 0.9·N pairs by the same margin; "unresolved"
#     otherwise, and always when fewer than 10 pairs ran.
#
# A run whose checks fail (correct=false or failed>0) is reported and
# makes the script exit non-zero. Run from anywhere inside the
# repository; nothing in the checkout is modified. The worktrees and raw
# results are removed on exit unless KEEP=1 is set.
set -euo pipefail

usage() {
    sed -n '4,5p' "$0" | sed 's/^# *//' >&2
    exit 2
}

base="" head="" workload="" pairs=10 seconds=20 seed=1
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="${2:?}"; shift 2 ;;
        --pairs) pairs="${2:?}"; shift 2 ;;
        --seconds) seconds="${2:?}"; shift 2 ;;
        --seed) seed="${2:?}"; shift 2 ;;
        -h|--help) usage ;;
        -*) echo "ab: unknown flag $1" >&2; usage ;;
        *)
            if [ -z "$base" ]; then base="$1"
            elif [ -z "$head" ]; then head="$1"
            else echo "ab: too many revisions" >&2; usage
            fi
            shift ;;
    esac
done
[ -n "$base" ] && [ -n "$workload" ] || usage
case "$pairs" in ''|*[!0-9]*|0) echo "ab: --pairs must be a positive integer" >&2; exit 2 ;; esac

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")
worktrees=()
cleanup() {
    for w in "${worktrees[@]}"; do
        git -C "$root" worktree remove --force "$w" >/dev/null 2>&1 || true
    done
    git -C "$root" worktree prune
    if [ "${KEEP:-0}" = 1 ]; then
        echo "ab: raw results kept in $tmp" >&2
    else
        rm -rf "$tmp"
    fi
}
trap cleanup EXIT

# checkout NAME REV: a detached worktree of REV at $tmp/NAME.
checkout() {
    git -C "$root" worktree add --detach --quiet "$tmp/$1" "$2"
    worktrees+=("$tmp/$1")
}
checkout base "$base"
base_dir="$tmp/base"
if [ -n "$head" ]; then
    checkout head "$head"
    head_dir="$tmp/head"
else
    head_dir="$root"
    head="working tree"
fi

# run SIDE DIR PAIR: one untraced benchmark run; keeps its JSON line.
run() {
    echo "ab: pair $3/$pairs: $1" >&2
    if ! (cd "$2" && bash perfbench/run.sh --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0) >"$tmp/$1.$3.out" 2>"$tmp/$1.$3.err"; then
        echo "ab: $1 run $3 failed:" >&2
        cat "$tmp/$1.$3.err" >&2
        exit 1
    fi
    tail -n 1 "$tmp/$1.$3.out" >"$tmp/$1.$3.json"
}
for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) = 1 ]; then
        run base "$base_dir" "$i"; run head "$head_dir" "$i"
    else
        run head "$head_dir" "$i"; run base "$base_dir" "$i"
    fi
done

# metric FILE NAME: the metric's value from one run's JSON line.
metric() {
    awk -v m="\"$2\":{\"value\":" '{
        i = index($0, m); if (i == 0) exit
        s = substr($0, i + length(m)); sub(/[,}].*/, "", s); print s
    }' "$1"
}

# quartiles: median q1 q3 of the numbers on stdin (linear interpolation).
quartiles() {
    sort -g | awk '{ v[NR] = $1 }
    function q(p,   h, lo) { h = (NR - 1) * p + 1; lo = int(h)
        return lo >= NR ? v[NR] : v[lo] + (h - lo) * (v[lo + 1] - v[lo]) }
    END { printf "%.6g %.6g %.6g\n", q(0.5), q(0.25), q(0.75) }'
}

status=0
for side in base head; do
    for i in $(seq 1 "$pairs"); do
        f="$tmp/$side.$i.json"
        if ! grep -q '"correct":true' "$f" || ! grep -q '"failed":0,' "$f"; then
            echo "ab: $side run $i failed its checks: $(cat "$f")" >&2
            status=1
        fi
    done
done

echo "workload $workload, seed $seed, $pairs pairs x ${seconds}s"
echo "base $base ($(git -C "$base_dir" rev-parse --short HEAD)), head $head"
printf '%-16s %-34s %-34s %8s %6s  %s\n' metric "base median (q1-q3)" "head median (q1-q3)" change wins verdict
# Each end-to-end metric with its better direction, in BENCHMARK.json order.
awk '/"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
    on && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
    on && /"better"/ { gsub(/[",]/, "", $2); print name, $2 }' "$root/BENCHMARK.json" |
while read -r name better; do
    wins=0 losses=0
    : >"$tmp/base.vals"; : >"$tmp/head.vals"
    for i in $(seq 1 "$pairs"); do
        b=$(metric "$tmp/base.$i.json" "$name")
        h=$(metric "$tmp/head.$i.json" "$name")
        echo "$b" >>"$tmp/base.vals"; echo "$h" >>"$tmp/head.vals"
        wins=$((wins + $(awk -v b="$b" -v h="$h" -v d="$better" \
            'BEGIN { b += 0; h += 0; print (d == "lower" ? h < b : h > b) ? 1 : 0 }')))
        losses=$((losses + $(awk -v b="$b" -v h="$h" -v d="$better" \
            'BEGIN { b += 0; h += 0; print (d == "lower" ? h > b : h < b) ? 1 : 0 }')))
    done
    read -r bm bq1 bq3 < <(quartiles <"$tmp/base.vals")
    read -r hm hq1 hq3 < <(quartiles <"$tmp/head.vals")
    awk -v n="$name" -v wins="$wins" -v losses="$losses" -v pairs="$pairs" \
        -v bm="$bm" -v bq1="$bq1" -v bq3="$bq3" -v hm="$hm" -v hq1="$hq1" -v hq3="$hq3" 'BEGIN {
        bm += 0; bq1 += 0; bq3 += 0; hm += 0; hq1 += 0; hq3 += 0
        change = bm == 0 ? "n/a" : sprintf("%+.1f%%", 100 * (hm - bm) / bm)
        gap = hm - bm; if (gap < 0) gap = -gap
        w = wins "/" pairs; verdict = "unresolved"
        if (pairs >= 10 && gap > bq3 - bq1) {
            if (wins >= 0.9 * pairs) verdict = "better"
            else if (losses >= 0.9 * pairs) verdict = "worse"
        }
        printf "%-16s %-34s %-34s %8s %6s  %s\n", n,
            sprintf("%.4g (%.4g-%.4g)", bm, bq1, bq3),
            sprintf("%.4g (%.4g-%.4g)", hm, hq1, hq3), change, w, verdict
    }'
done
exit "$status"
