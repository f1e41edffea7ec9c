#!/usr/bin/env bash
# Chaos harness for the TIB2 segmented store (DESIGN.md §5i).
#
# Part 1 — segment corruption closure: a generator-fed multi-rank
# store is damaged with seeded byte flips confined to the segment
# region (the footer index localizes every flip to one rank/segment).
# For every seed, strict replay must fail closed with exit 1 and a
# typed diagnostic naming the damaged segment — never a panic, never a
# silently wrong time — and --degraded replay must exit 3 with a
# completeness ratio strictly below 1.0. The undamaged store must exit
# 0 with ratio 1.0, a budget smaller than one segment must be refused
# with a typed memory error (exit 1 from both modes: the environment,
# not damage), and a store with a truncated tail must refuse to open at
# all (exit 1 from both modes).
#
# Part 2 — memory-budget smoke at scale: a 128-rank generator-fed
# store far larger than the budget replays to completion under
# --mem-budget, and the self-reported metrics must show the governor's
# segment peak within the budget and the process peak RSS under a
# fixed cap — O(ranks + resident segments), not O(trace).
set -euo pipefail
cd "$(dirname "$0")/.."

REPLAY=${REPLAY:-./target/release/tit-replay}
GEN=${GEN:-./target/release/tit-gen}
[ -x "$REPLAY" ] || REPLAY=./target/debug/tit-replay
[ -x "$GEN" ] || GEN=./target/debug/tit-gen
if [ ! -x "$REPLAY" ] || [ ! -x "$GEN" ]; then
  echo "chaos_store: build tit-cli first (cargo build -p tit-cli)" >&2
  exit 2
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# expect_code WANT CMD... — run CMD, demand the exact exit code and the
# absence of a panic message.
expect_code() {
  local want=$1; shift
  set +e
  "$@" >"$work/out.txt" 2>&1
  local got=$?
  set -e
  if [ "$got" -ne "$want" ]; then
    echo "chaos_store: FAIL: expected exit $want, got $got: $*" >&2
    cat "$work/out.txt" >&2
    exit 1
  fi
  if grep -q "panicked" "$work/out.txt"; then
    echo "chaos_store: FAIL: panic in: $*" >&2
    cat "$work/out.txt" >&2
    exit 1
  fi
}

ratio_of() {
  python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["values"]["degraded.completeness"])' "$1"
}

echo "chaos_store: generating an 8-rank ring store"
"$GEN" --tib2 "$work/ring.tib2" --np 8 --pattern ring --iters 800 --seg-actions 256 \
  >"$work/gen.txt"
grep -q "tib2 store:" "$work/gen.txt"

echo "chaos_store: part 1 — clean store replays exactly"
m=$work/metrics-clean.json
expect_code 0 "$REPLAY" --store "$work/ring.tib2" --np 8 --metrics "$m"
grep "^simulated time:" "$work/out.txt" >"$work/clean-time.txt"
expect_code 0 "$REPLAY" --store "$work/ring.tib2" --np 8 --degraded --metrics "$m"
r=$(ratio_of "$m")
if [ "$r" != "1" ] && [ "$r" != "1.0" ]; then
  echo "chaos_store: FAIL: clean store completeness $r != 1.0" >&2
  exit 1
fi
echo "chaos_store:   clean: strict exit 0, degraded ratio $r"

echo "chaos_store: part 1 — an impossible budget is refused, not damage"
# A budget below one segment is the environment, not damage: --degraded
# must refuse it with the same typed error (exit 1) as a strict replay.
for mode in strict degraded; do
  flags=()
  [ "$mode" = degraded ] && flags=(--degraded)
  expect_code 1 "$REPLAY" --store "$work/ring.tib2" --np 8 "${flags[@]}" --mem-budget 64
  grep -q "memory budget exceeded" "$work/out.txt" || {
    echo "chaos_store: FAIL: $mode: no typed budget refusal" >&2
    cat "$work/out.txt" >&2
    exit 1
  }
done
echo "chaos_store:   --mem-budget 64: strict and degraded exit 1 (memory budget exceeded)"

echo "chaos_store: part 1 — seeded segment flips fail closed or degrade"
for seed in 1 2 3 4 5; do
  cp "$work/ring.tib2" "$work/bad.tib2"
  # A deterministic byte flip confined to [8, footer_start): always a
  # segment header or payload, never the footer or trailer.
  python3 - "$work/bad.tib2" "$seed" <<'EOF'
import struct, sys
path, seed = sys.argv[1], int(sys.argv[2])
with open(path, "r+b") as f:
    f.seek(0, 2); size = f.tell()
    f.seek(size - 24)
    footer_len = struct.unpack("<Q", f.read(8))[0]
    footer_start = size - 24 - footer_len
    # SplitMix64, same constants as the in-tree injector.
    x = (seed + 0x9E3779B97F4A7C15) & (1 << 64) - 1
    z = (x ^ x >> 30) * 0xBF58476D1CE4E5B9 & (1 << 64) - 1
    z = (z ^ z >> 27) * 0x94D049BB133111EB & (1 << 64) - 1
    z ^= z >> 31
    off = 8 + z % (footer_start - 8)
    f.seek(off); b = f.read(1)[0]
    f.seek(off); f.write(bytes([b ^ 0x10]))
    print(f"flipped bit at offset {off} of {size}")
EOF
  expect_code 1 "$REPLAY" --store "$work/bad.tib2" --np 8
  grep -q "segment damaged" "$work/out.txt" || {
    echo "chaos_store: FAIL: seed $seed: no typed segment diagnostic" >&2
    cat "$work/out.txt" >&2
    exit 1
  }
  m=$work/metrics-flip-$seed.json
  expect_code 3 "$REPLAY" --store "$work/bad.tib2" --np 8 --degraded --metrics "$m"
  r=$(ratio_of "$m")
  python3 -c "import sys; r=float(sys.argv[1]); sys.exit(0 if 0.0 <= r < 1.0 else 1)" "$r" || {
    echo "chaos_store: FAIL: seed $seed: completeness $r not in [0,1)" >&2
    exit 1
  }
  echo "chaos_store:   seed $seed: strict exit 1 (typed), degraded exit 3, ratio $r"
done

echo "chaos_store: part 1 — a truncated tail refuses to open"
size=$(wc -c <"$work/ring.tib2")
head -c $((size - 12)) "$work/ring.tib2" >"$work/cut.tib2"
expect_code 1 "$REPLAY" --store "$work/cut.tib2" --np 8
expect_code 1 "$REPLAY" --store "$work/cut.tib2" --np 8 --degraded
echo "chaos_store:   truncated: both modes fail closed (exit 1)"

echo "chaos_store: part 2 — 128-rank replay under --mem-budget"
"$GEN" --tib2 "$work/big.tib2" --np 128 --pattern ring --iters 4000 \
  --seg-actions 1024 >"$work/gen128.txt"
m=$work/metrics-budget.json
expect_code 0 "$REPLAY" --store "$work/big.tib2" --np 128 --mem-budget 8M --metrics "$m"
grep -q "^peak rss:" "$work/out.txt"
python3 - "$m" "$work/big.tib2" <<'EOF'
import json, os, sys
v = json.load(open(sys.argv[1]))["values"]
store = os.path.getsize(sys.argv[2])
budget, seg_peak = v["mem.budget"], v["mem.segment_peak"]
rss = v.get("mem.peak_rss")
assert budget == 8 << 20, f"budget {budget} != 8 MiB"
assert seg_peak <= budget, f"segment peak {seg_peak} over budget {budget}"
assert store > 2 * budget, f"store {store} not larger than budget — smoke is vacuous"
# The whole-process cap: budget + generous fixed overhead, far below
# the store size, so memory followed the budget and not the trace.
cap = budget + (192 << 20)
if rss is not None:
    assert rss <= cap, f"peak RSS {rss} over cap {cap}"
    print(f"chaos_store:   store {store >> 20} MiB, segment peak "
          f"{seg_peak / 2**20:.1f} MiB, peak RSS {rss / 2**20:.1f} MiB <= cap {cap >> 20} MiB")
else:
    print("chaos_store:   /proc unreadable — RSS assertion skipped")
EOF

echo "chaos_store: OK"
