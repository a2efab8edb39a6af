#!/usr/bin/env bash
# Runs the engine-vs-seed exploration benchmarks (bench_statespace.cpp,
# BM_Engine*), the symmetry-reduction benchmarks (BM_Symmetry*,
# BM_VerifySymmetry*), and the checker-phase benchmarks (bench_verify.cpp,
# BM_Checker*), merges everything into BENCH_engine.json, then prints
#  - the speedup of the hash-consed engine (serial and 4-thread) over the
#    seed value-level BFS for each instance,
#  - the state-count and wall-clock reduction of the orbit-canonical
#    symmetry quotient over the unreduced engine, and
#  - the speedup of the obligation scheduler (1 and 4 workers) over the
#    serial reference checker loops for each isq-verify instance,
#  - the 1..8-worker scaling sweep of the checker on the paper-scale
#    Paxos (R=2, N=3) instance, and
#  - the compact-store scale row: Paxos over FOUR acceptors explored
#    end-to-end (symmetry on), raw arenas vs the
#    delta/varint-compressed store (BM_CompactPaxos), and
#  - the tiered-store scale row: the same Paxos/4 exploration spilling
#    to the mmap'd cold tier under a memory budget derived from the
#    unspilled run's peak RSS (BM_SpillPaxos); the spilled run must
#    keep identical counts within 2.5x of the unspilled wall time.
#
# Every invocation of a benchmark binary runs under a getrusage wrapper
# (the image has no /usr/bin/time), and its child peak RSS is attached
# to each merged row as peak_rss_kb, so memory regressions show up in
# the recorded trajectory alongside speed.
#
# Numbers are recorded from a dedicated Release build directory
# (build-bench, configured here on first use): recording from a
# RelWithDebInfo or Debug tree is refused, and the merged JSON embeds the
# build type and git revision so a committed BENCH_engine.json is
# self-describing.
#
# Usage: tools/bench_engine.sh [BUILD_DIR] [OUT_JSON]

set -euo pipefail

BUILD="${1:-build-bench}"
OUT="${2:-BENCH_engine.json}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

if [ ! -f "$BUILD/CMakeCache.txt" ]; then
  cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release
fi

BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$BUILD/CMakeCache.txt")"
if [ "$BUILD_TYPE" != "Release" ]; then
  echo "error: $BUILD is a '$BUILD_TYPE' tree; benchmarks must be recorded" >&2
  echo "from a Release build (rerun without arguments, or point BUILD_DIR" >&2
  echo "at a -DCMAKE_BUILD_TYPE=Release configuration)." >&2
  exit 1
fi

GIT_SHA="$(git -C "$ROOT" rev-parse --short HEAD 2>/dev/null || echo unknown)"

cmake --build "$BUILD" -j --target bench_statespace bench_verify

TMP_ENGINE="$(mktemp)"
TMP_CHECKER="$(mktemp)"
TMP_COMPACT="$(mktemp)"
TMP_COMPACT1="$(mktemp)"
TMP_SPILL="$(mktemp)"
RSS_ENGINE="$(mktemp)"
RSS_CHECKER="$(mktemp)"
RSS_COMPACT="$(mktemp)"
RSS_COMPACT1="$(mktemp)"
RSS_SPILL="$(mktemp)"
SPILL_DIR="$(mktemp -d)"
trap 'rm -f "$TMP_ENGINE" "$TMP_CHECKER" "$TMP_COMPACT" "$TMP_COMPACT1" \
  "$TMP_SPILL" "$RSS_ENGINE" "$RSS_CHECKER" "$RSS_COMPACT" \
  "$RSS_COMPACT1" "$RSS_SPILL"; rm -rf "$SPILL_DIR"' EXIT

# The image has no /usr/bin/time; a getrusage wrapper records the
# child's peak RSS (kb) and wall time (s) into the first argument.
rss_run() {
  local out="$1"; shift
  python3 - "$out" "$@" <<'EOF'
import resource, subprocess, sys, time
t0 = time.monotonic()
rc = subprocess.call(sys.argv[2:])
wall = time.monotonic() - t0
rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
with open(sys.argv[1], "w") as f:
    f.write("%d %f\n" % (rss, wall))
sys.exit(rc)
EOF
}

rss_run "$RSS_ENGINE" "$BUILD/bench/bench_statespace" \
  --benchmark_filter='BM_Engine|BM_Symmetry' \
  --benchmark_out="$TMP_ENGINE" \
  --benchmark_out_format=json \
  --benchmark_repetitions=3 \
  --benchmark_report_aggregates_only=true

# The Paxos N=3 checker rows run ~1 min per mode; one repetition each.
rss_run "$RSS_CHECKER" "$BUILD/bench/bench_verify" \
  --benchmark_filter='BM_Checker|BM_VerifySymmetry' \
  --benchmark_out="$TMP_CHECKER" \
  --benchmark_out_format=json

# The Paxos N=4 compact-store rows are the scale target (minutes per
# mode); one repetition each.
rss_run "$RSS_COMPACT" "$BUILD/bench/bench_statespace" \
  --benchmark_filter='BM_Compact' \
  --benchmark_out="$TMP_COMPACT" \
  --benchmark_out_format=json

# Tiered-store scale row. First the compact run alone, so its peak RSS
# is not polluted by the raw-arena mode sharing the process; then the
# spilled run under a budget that is both <= 50% of that unspilled RSS
# (the headline claim) and <= 50% of the compact store footprint (so
# the budget bites and blocks provably evict — process RSS is dominated
# by allocator overhead the store accountant does not govern).
rss_run "$RSS_COMPACT1" "$BUILD/bench/bench_statespace" \
  --benchmark_filter='BM_CompactPaxos/2/4/1$' \
  --benchmark_out="$TMP_COMPACT1" \
  --benchmark_out_format=json
SPILL_BUDGET=$(python3 - "$RSS_COMPACT1" "$TMP_COMPACT1" <<'EOF'
import json, sys
rss_kb = int(open(sys.argv[1]).read().split()[0])
doc = json.load(open(sys.argv[2]))
footprint = int(doc["benchmarks"][0]["compressed_bytes"])
print(min(rss_kb * 1024 // 2, footprint // 2))
EOF
)
ISQ_SPILL_MEM_BUDGET="$SPILL_BUDGET" ISQ_SPILL_DIR="$SPILL_DIR" \
  rss_run "$RSS_SPILL" "$BUILD/bench/bench_statespace" \
  --benchmark_filter='BM_SpillPaxos' \
  --benchmark_out="$TMP_SPILL" \
  --benchmark_out_format=json

python3 - "$TMP_ENGINE" "$TMP_CHECKER" "$TMP_COMPACT" "$OUT" "$BUILD_TYPE" \
  "$GIT_SHA" "$TMP_COMPACT1" "$TMP_SPILL" "$RSS_ENGINE" "$RSS_CHECKER" \
  "$RSS_COMPACT" "$RSS_COMPACT1" "$RSS_SPILL" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    engine = json.load(f)
with open(sys.argv[2]) as f:
    checker = json.load(f)
with open(sys.argv[3]) as f:
    compact = json.load(f)
with open(sys.argv[7]) as f:
    compact_solo = json.load(f)
with open(sys.argv[8]) as f:
    spill = json.load(f)

def read_rss(path):
    rss_kb, wall = open(path).read().split()
    return int(rss_kb), float(wall)

rss = {"engine": read_rss(sys.argv[9]), "checker": read_rss(sys.argv[10]),
       "compact": read_rss(sys.argv[11]),
       "compact_solo": read_rss(sys.argv[12]),
       "spill": read_rss(sys.argv[13])}

# Every row carries the peak RSS of the recording process, so memory
# regressions are visible in the committed trajectory, not just speed.
for doc, src in ((engine, "engine"), (checker, "checker"),
                 (compact, "compact"), (compact_solo, "compact_solo"),
                 (spill, "spill")):
    for b in doc["benchmarks"]:
        b["peak_rss_kb"] = rss[src][0]

# One merged document: shared context, all benchmark families. The
# context carries how *our* library was compiled (library_build_type is
# the google-benchmark library, which may differ) and the revision.
context = dict(engine["context"])
context["isq_build_type"] = sys.argv[5]
context["isq_git_sha"] = sys.argv[6]

# Tiered-store exit criterion: the spilled Paxos/4 exploration ran
# under a budget <= 50% of the unspilled run's peak RSS, finished
# within 2.5x of its wall time, with identical counts and real
# evictions. The spill row records the unspilled baseline inline so
# the committed JSON is self-contained.
solo = compact_solo["benchmarks"][0]
spill_rows = [b for b in spill["benchmarks"]
              if b.get("run_type") != "aggregate"]
assert spill_rows, "BM_SpillPaxos produced no rows"
for b in spill_rows:
    assert "error_occurred" not in b or not b["error_occurred"], b
    assert b["mem_budget"] <= rss["compact_solo"][0] * 1024 / 2, \
        "budget exceeds half the unspilled peak RSS"
    assert b["blocks_evicted"] > 0, "budget never forced an eviction"
    assert b["configs"] == solo["configs"], \
        "spilled exploration changed the configuration count"
    assert b["real_time"] <= 2.5 * solo["real_time"], \
        "spilled run exceeded 2.5x the unspilled wall time"
    b["unspilled_real_time"] = solo["real_time"]
    b["unspilled_peak_rss_kb"] = rss["compact_solo"][0]

merged = {"context": context,
          "benchmarks": (engine["benchmarks"] + checker["benchmarks"] +
                         compact["benchmarks"] + spill_rows)}
with open(sys.argv[4], "w") as f:
    json.dump(merged, f, indent=1)

# Median real time (aggregated families) or single-run real time per
# (benchmark family, mode). The mode is the last /-separated argument:
# for BM_Engine*/BM_Checker*, 0 = serial baseline (seed BFS / serial
# checker loops), N >= 1 = the parallel engine/scheduler with N threads;
# for BM_Symmetry*/BM_VerifySymmetry*, 0 = unreduced, 1 = reduced.
times = {}
counters = {}
for b in merged["benchmarks"]:
    agg = b.get("aggregate_name")
    if agg is not None and agg != "median":
        continue
    name = b["run_name"]
    family, *args = name.split("/")
    mode = int(args[-1])
    key = (family, "/".join(args[:-1]))
    times.setdefault(key, {})[mode] = b["real_time"]
    counters.setdefault(key, {})[mode] = b

def table(title, rows):
    print()
    print(title)
    print(f"{'instance':<34} {'serial_ms':>10} {'x1_ms':>10} {'x1':>6} "
          f"{'x4_ms':>11} {'x4':>6}")
    for (family, inst), by_mode in rows:
        serial = by_mode.get(0)
        if serial is None:
            continue
        row = f"{family}/{inst:<12}".ljust(34)
        row += f" {serial:>10.2f}"
        e1 = by_mode.get(1)
        row += f" {e1:>10.2f} {serial / e1:>5.2f}x" if e1 else " " * 18
        e4 = by_mode.get(4)
        row += f" {e4:>11.2f} {serial / e4:>5.2f}x" if e4 else ""
        print(row)

# The config counter differs per family: BM_Symmetry* explores one
# program, so interned_configs is exactly the (quotient) state count;
# the end-to-end BM_VerifySymmetry* drivers share one arena across all
# proof legs, and the always-unreduced P[M -> I] leg dominates the
# interned set, so the explored-node counter is the meaningful one.
def symmetry_table(title, prefix, counter):
    rows = sorted(i for i in times.items() if i[0][0].startswith(prefix))
    if not rows:
        return
    print()
    print(title)
    print(f"{'instance':<34} {'full_ms':>10} {'quot_ms':>10} {'time':>6} "
          f"{'full_cfg':>9} {'quot_cfg':>9} {'cfg':>6}")
    for (family, inst), by_mode in rows:
        full, quot = by_mode.get(0), by_mode.get(1)
        if full is None or quot is None:
            continue
        cf = counters[(family, inst)][0][counter]
        cq = counters[(family, inst)][1][counter]
        print(f"{family}/{inst:<12}".ljust(34) +
              f" {full:>10.2f} {quot:>10.2f} {full / quot:>5.2f}x"
              f" {cf:>9.0f} {cq:>9.0f} {cf / cq:>5.2f}x")

table("exploration: seed value-level BFS vs hash-consed engine",
      sorted(i for i in times.items() if i[0][0].startswith("BM_Engine")))
symmetry_table("symmetry: unreduced engine vs orbit-canonical quotient",
               "BM_Symmetry", "interned_configs")
symmetry_table("symmetry end-to-end: isq-verify --engine symmetry=false "
               "vs reduced", "BM_VerifySymmetry", "configs")
table("checking: serial loops vs obligation scheduler "
      "(end-to-end isq-verify, cross-check off)",
      sorted(i for i in times.items() if i[0][0].startswith("BM_Checker")))

# Worker-count scaling sweep: every mode >= 1 recorded for a checker
# instance, as speedup over the serial reference loops (mode 0).
for (family, inst), by_mode in sorted(times.items()):
    if not family.startswith("BM_Checker"):
        continue
    sweep = sorted(m for m in by_mode if m >= 1)
    if len(sweep) <= 2:
        continue
    serial = by_mode.get(0)
    print()
    print(f"checker worker sweep: {family}/{inst} "
          f"(serial reference {serial:.2f} ms)")
    print(f"{'workers':>8} {'ms':>11} {'speedup':>8}")
    for m in sweep:
        print(f"{m:>8} {by_mode[m]:>11.2f} {serial / by_mode[m]:>7.2f}x")

# Compact-store scale rows: mode 0 = raw arenas, 1 = compressed store.
rows = sorted(i for i in times.items() if i[0][0].startswith("BM_Compact"))
if rows:
    print()
    print("compact store: Paxos scale target (symmetry on)")
    print(f"{'instance':<28} {'raw_ms':>11} {'compact_ms':>11} "
          f"{'configs':>10} {'compressed_bytes':>17}")
    for (family, inst), by_mode in rows:
        raw, comp = by_mode.get(0), by_mode.get(1)
        if raw is None or comp is None:
            continue
        c = counters[(family, inst)][1]
        print(f"{family}/{inst:<10}".ljust(28) +
              f" {raw:>11.2f} {comp:>11.2f} {c['configs']:>10.0f}"
              f" {c['compressed_bytes']:>17.0f}")

# Tiered-store scale row: the spilled run against its unspilled
# baseline (the compact-solo recording), with the derived budget and
# the cold-tier traffic that proves the budget actually bit.
print()
print("tiered store: Paxos/4 spilled under a memory budget")
print(f"{'instance':<24} {'unspilled_ms':>12} {'spilled_ms':>11} "
      f"{'ratio':>6} {'budget':>9} {'evicted':>8} {'rss_kb':>8}")
for b in spill_rows:
    print(f"{b['run_name']:<24} {b['unspilled_real_time']:>12.2f} "
          f"{b['real_time']:>11.2f} "
          f"{b['real_time'] / b['unspilled_real_time']:>5.2f}x "
          f"{b['mem_budget']:>9.0f} {b['blocks_evicted']:>8.0f} "
          f"{b['peak_rss_kb']:>8}")
print()
EOF

echo "wrote $OUT (build type $BUILD_TYPE, git $GIT_SHA)"
