#!/usr/bin/env bash
# kernel-pair.sh: alternating parent/change runs of the kernel's chunk
# benchmarks. Run it through `make kernel-pair REF=<commit> [PAIRS=10]`,
# which passes the variables below.
#
#   REF     the commit to compare the working tree against (required)
#   PAIRS   how many pairs of runs (default 10)
#   GO      the go command
#   BENCH   the -bench pattern (the Makefile's KERNEL_CHUNKS)
#   MEDIAN  the Makefile's awk median function
#
# Both sides' test binaries are built first: REF's from `git archive` into
# a temporary directory (removed on exit), the working tree's in place.
# Pair p runs REF first when p is odd and the change first when it is even,
# so neither side always runs on a host warmed by the other. Each run is one
# -benchtime 20x pass of every chunk benchmark; its ns/photon is the pair's
# reading. For each chunk shape the script prints both medians, the change's
# Δ against REF (negative: the change is faster), REF's IQR (Tukey's hinges:
# the medians of its lower and upper halves), the pairs the change read
# lower, and a verdict: "gain" when the change won at least 9 of 10 pairs
# and its median is lower by more than REF's IQR, "loss" the same the other
# way, "within noise" otherwise, and "unresolved" under 10 pairs, where no
# count of wins means anything (2 of 2 comes up one time in four by chance).
# A chunk shape only one side has a benchmark for (one the change adds, or
# one REF predates) is listed under the table as not paired.
set -euo pipefail

: "${REF:?usage: make kernel-pair REF=<commit> [PAIRS=10]}"
: "${BENCH:?BENCH is set by make kernel-pair}"
: "${MEDIAN:?MEDIAN is set by make kernel-pair}"
PAIRS=${PAIRS:-10}
GO=${GO:-go}
if ! [[ $PAIRS =~ ^[1-9][0-9]*$ ]]; then
	echo "kernel-pair: PAIRS=$PAIRS is not a positive count" >&2
	exit 1
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/ref"
git archive "$REF" | tar -x -C "$tmp/ref"
(cd "$tmp/ref" && "$GO" test -c -o "$tmp/ref.test" .)
"$GO" test -c -o "$tmp/new.test" .
root=$(pwd)

# run SIDE PAIR prints one "side pair shape ns/photon" line per chunk shape.
run() {
	local dir=$root
	if [[ $1 == ref ]]; then dir=$tmp/ref; fi
	(cd "$dir" && "$tmp/$1.test" -test.run '^$' -test.bench "$BENCH" -test.benchtime 20x -test.timeout 10m) |
		awk -v side="$1" -v pair="$2" '/ns\/photon/ {
			split($1, name, "/"); sub(/-[0-9]+$/, "", name[2])
			for (i = 2; i <= NF; i++) if ($i == "ns/photon") print side, pair, name[2], $(i-1) }'
}

for ((p = 1; p <= PAIRS; p++)); do
	echo "kernel-pair: pair $p of $PAIRS" >&2
	if ((p % 2)); then
		run ref "$p"; run new "$p"
	else
		run new "$p"; run ref "$p"
	fi
done | awk -v pairs="$PAIRS" -v ref="$REF" "$MEDIAN"'
	{ x[$1, $3, $2] = $4; ran[$1, $3]++; if (!($3 in seen)) { seen[$3] = 1; shapes[++ns] = $3 } }
	END {
		# A shape one side never ran (a benchmark the other side added or
		# removed) is named, not paired; one that ran on both sides must
		# have run in every pair.
		for (q = 1; q <= ns; q++) {
			k = shapes[q]
			if (!ran["ref", k] || !ran["new", k]) { only[k] = ran["ref", k] ? ref : "the change"; continue }
			for (p = 1; p <= pairs; p++)
				if (!((("ref", k, p) in x) && (("new", k, p) in x))) { print "kernel-pair: " k " pair " p " did not run"; exit 1 }
			both++
		}
		if (!both) { print "kernel-pair: no chunk benchmark ran on both sides"; exit 1 }
		printf "%-22s %12s %12s %8s %10s %6s  %s\n", "chunk (ns/photon)", ref, "change", "Δ", "ref IQR", "wins", "verdict"
		for (q = 1; q <= ns; q++) {
			k = shapes[q]
			if (k in only) continue
			wins = 0
			for (p = 1; p <= pairs; p++) {
				v["ref" SUBSEP k, p] = x["ref", k, p]; v["new" SUBSEP k, p] = x["new", k, p]
				if (x["new", k, p] < x["ref", k, p]) wins++
			}
			mr = median("ref" SUBSEP k, pairs); mn = median("new" SUBSEP k, pairs)
			# Tukey hinges: the medians of the sorted lower and upper halves
			# (the middle reading left out of both when the count is odd).
			for (p = 1; p <= pairs; p++) s[p] = x["ref", k, p]
			for (i = 1; i <= pairs; i++) for (j = i + 1; j <= pairs; j++) if (s[j] < s[i]) { t = s[i]; s[i] = s[j]; s[j] = t }
			h = int(pairs / 2)
			for (i = 1; i <= h; i++) { v["lo" SUBSEP k, i] = s[i]; v["hi" SUBSEP k, i] = s[pairs - h + i] }
			iqr = h ? median("hi" SUBSEP k, h) - median("lo" SUBSEP k, h) : 0
			verdict = "within noise"
			if (10 * wins >= 9 * pairs && mr - mn > iqr) verdict = "gain"
			if (10 * (pairs - wins) >= 9 * pairs && mn - mr > iqr) verdict = "loss"
			if (pairs < 10) verdict = "unresolved (under 10 pairs)"
			printf "%-22s %12.0f %12.0f %+7.1f%% %10.0f %3d/%-2d  %s\n", k, mr, mn, 100 * (mn - mr) / mr, iqr, wins, pairs, verdict
		}
		for (q = 1; q <= ns; q++) if (shapes[q] in only) printf "%-22s only %s ran it: not paired\n", shapes[q], only[shapes[q]]
	}'
