#!/bin/sh
# Compare two checkouts on one bench/suite workload with interleaved runs.
#
#   sh scripts/bench_ab.sh PARENT_DIR CHANGE_DIR WORKLOAD PAIRS SECONDS [SEED]
#
# Builds bench/suite/suite.exe in both checkouts, then runs PAIRS pairs
# of one-run measurements (--seconds SECONDS, --seed SEED, default 42)
# in ABBA order: parent first in odd pairs, change first in even ones,
# so a drift over the session or a first-run/second-run effect hits
# both sides alike. Each run executes in its own checkout, with its
# output directory in a temporary directory removed on exit.
#
# Prints every run's answer_ms and peak_rss_mb, each side's medians,
# and how many pairs the change won on answer_ms. Exits 1 as soon as a
# run does not report "correct" (a failed op or a wrong digest).
set -eu

if [ $# -lt 5 ] || [ $# -gt 6 ]; then
  echo "usage: $0 PARENT_DIR CHANGE_DIR WORKLOAD PAIRS SECONDS [SEED]" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=$4
seconds=$5
seed=${6:-42}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

for dir in "$parent" "$change"; do
  (cd "$dir" && dune build --root . ./bench/suite/suite.exe) || {
    echo "build failed in $dir" >&2
    exit 1
  }
done

# run SIDE DIR PAIR: one measured run; appends "answer_ms peak_rss_mb"
# to $tmp/SIDE and prints the run's line.
run() {
  side=$1
  dir=$2
  pair=$3
  out="$tmp/$side-$pair"
  (cd "$dir" && ./_build/default/bench/suite/suite.exe --workload "$workload" \
    --seed "$seed" --seconds "$seconds" --out "$out") > "$out.log" 2>&1 || true
  last=$(tail -n 1 "$out.log")
  case $last in
    '{"correct":true,'*) ;;
    *)
      echo "pair $pair $side: run not correct; its output:" >&2
      cat "$out.log" >&2
      exit 1
      ;;
  esac
  answer=$(printf '%s\n' "$last" | sed -n 's/.*"answer_ms":{"value":\([^,}]*\).*/\1/p')
  rss=$(printf '%s\n' "$last" | sed -n 's/.*"peak_rss_mb":{"value":\([^,}]*\).*/\1/p')
  echo "$answer $rss" >> "$tmp/$side"
  printf 'pair %d %-6s answer_ms %10.3f  peak_rss_mb %8.3f\n' "$pair" "$side" "$answer" "$rss"
}

i=1
while [ "$i" -le "$pairs" ]; do
  if [ $((i % 2)) -eq 1 ]; then
    run parent "$parent" "$i"
    run change "$change" "$i"
  else
    run change "$change" "$i"
    run parent "$parent" "$i"
  fi
  i=$((i + 1))
done

# median FILE COLUMN
median() {
  cut -d ' ' -f "$2" "$1" | sort -g | awk '
    { v[NR] = $1 }
    END { if (NR % 2) print v[(NR + 1) / 2]; else print (v[NR / 2] + v[NR / 2 + 1]) / 2 }'
}

for side in parent change; do
  printf 'median %-6s answer_ms %10.3f  peak_rss_mb %8.3f  (%d runs)\n' "$side" \
    "$(median "$tmp/$side" 1)" "$(median "$tmp/$side" 2)" "$pairs"
done
wins=$(paste -d ' ' "$tmp/parent" "$tmp/change" | awk '$3 < $1 { n++ } END { print n + 0 }')
echo "change faster on answer_ms in $wins of $pairs pairs ($workload, seed $seed, ${seconds} s runs)"
