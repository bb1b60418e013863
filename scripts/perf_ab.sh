#!/usr/bin/env bash
# A/B comparison of HEAD against a base revision on the repo benchmark.
# Usage: scripts/perf_ab.sh <base-rev> [pairs]     (pairs defaults to 5)
#
# Exports the committed trees of <base-rev> and HEAD (git archive, so no
# worktree is left registered) under ${TMPDIR:-/tmp}/perf_ab, builds and
# self-tests each side's perfbench, then runs every workload named in
# BENCHMARK.json in <pairs> interleaved pairs: seed 1, the benchmark's
# run_seconds, --trace 0, alternating which side runs first. Every run is
# printed; then, per end-to-end metric and workload, each side's median
# and interquartile range, HEAD's change against the metric's bound, and
# the pairs HEAD won. Exits 1 if a run is incorrect or a median is worse
# than its bound. Reads perfbench/ and BENCHMARK.json; changes neither.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ] || [ $# -gt 2 ] || ! [[ "${2:-5}" =~ ^[1-9][0-9]*$ ]]; then
    echo "usage: scripts/perf_ab.sh <base-rev> [pairs]" >&2
    exit 2
fi
PAIRS=${2:-5}
WORK="${TMPDIR:-/tmp}/perf_ab"
BASE_REV=$(git rev-parse --verify "$1^{commit}")
declare -A REV=([base]="$BASE_REV" [head]="$(git rev-parse HEAD)")

for side in base head; do
    # Fresh sources each time; the build dir survives, so an unchanged
    # revision is not rebuilt. git archive gives every file its commit
    # time as mtime, so sources of an older revision than the one the
    # build dir last held would look fresh to cargo, and the old binary
    # would be measured. The build dir records the revision it was built
    # from; on any other revision the sources are touched, which forces
    # the rebuild.
    rm -rf "$WORK/$side"
    mkdir -p "$WORK/$side"
    git archive "${REV[$side]}" | tar -x -C "$WORK/$side"
    if [ ! -f "$WORK/$side/perfbench/run.py" ]; then
        echo "error: ${REV[$side]} has no perfbench/run.py" >&2
        exit 2
    fi
    built="$WORK/target-$side/built-rev"
    if [ "$(cat "$built" 2>/dev/null)" != "${REV[$side]}" ]; then
        rm -f "$built"
        find "$WORK/$side" -type f -exec touch {} +
    fi
    echo "== $side ${REV[$side]}: build + self-test =="
    (cd "$WORK/$side" && CARGO_TARGET_DIR="$WORK/target-$side" python3 perfbench/run.py --self-test)
    echo "${REV[$side]}" > "$built"
done

read -r SECS WORKLOADS < <(python3 -c 'import json; s = json.load(open("BENCHMARK.json"))
print(s["run_seconds"], " ".join(w["name"] for w in s["workloads"]))')
RUNS="$WORK/runs.jsonl"
: > "$RUNS"
for ((p = 1; p <= PAIRS; p++)); do
    order="base head"
    if ((p % 2 == 0)); then order="head base"; fi
    for w in $WORKLOADS; do
        for side in $order; do
            result=$(cd "$WORK/$side" && CARGO_TARGET_DIR="$WORK/target-$side" \
                python3 perfbench/run.py --workload "$w" --seed 1 --seconds "$SECS" --trace 0 | tail -n 1)
            echo "{\"pair\": $p, \"workload\": \"$w\", \"side\": \"$side\", \"result\": $result}" | tee -a "$RUNS"
        done
    done
done

python3 - "$RUNS" BENCHMARK.json <<'EOF'
import json, statistics, sys

runs = [json.loads(line) for line in open(sys.argv[1])]
spec = json.load(open(sys.argv[2]))
bad = False
print(f"\n{'workload':<8} {'metric':<17} {'base median [IQR]':>26} {'head median [IQR]':>26}"
      f" {'worse':>7} {'bound':>6} {'head wins':>9}  verdict")
for w in [x["name"] for x in spec["workloads"]]:
    side = {s: sorted((r for r in runs if r["workload"] == w and r["side"] == s),
                      key=lambda r: r["pair"]) for s in ("base", "head")}
    for s, rs in side.items():
        wrong = [r["pair"] for r in rs if not r["result"]["correct"] or r["result"]["failed"]]
        if wrong:
            bad = True
            print(f"{w}: {s} runs of pairs {wrong} were incorrect or had failed ops")
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        vals = {s: [r["result"]["metrics"][name]["value"] for r in rs] for s, rs in side.items()}
        stats = {}
        for s, xs in vals.items():
            q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
            stats[s] = (med, q3 - q1)
        (mb, iqr_b), (mh, iqr_h) = stats["base"], stats["head"]
        worse = ((mh - mb) if lower else (mb - mh)) / mb if mb else 0.0
        wins = sum((h < b) if lower else (h > b) for b, h in zip(vals["base"], vals["head"]))
        if worse > m["bound"]:
            verdict, bad = "WORSE THAN BOUND", True
        elif mb and iqr_b / mb > m["bound"]:
            verdict = "unresolved (base IQR wider than bound)"
        else:
            verdict = "within bound"
        print(f"{w:<8} {name:<17} {mb:>14.4g} [{iqr_b:>8.3g}] {mh:>14.4g} [{iqr_h:>8.3g}]"
              f" {worse:>+7.1%} {m['bound']:>6.0%} {wins:>4}/{len(vals['head']):<4}  {verdict}")
sys.exit(1 if bad else 0)
EOF
