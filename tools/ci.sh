#!/usr/bin/env bash
# CI entry point: build and test the normal configuration, then the
# sanitized (address + undefined) configuration, which must compile
# without a single warning; build the optimized (Release) configuration,
# which must compile without a single warning too; verify every shipped
# example end-to-end in both report formats (with a JSON schema sanity
# check); smoke-run the smallest row of every benchmark binary;
# smoke-test the verification service (isq-serve + isq-loadgen: removed
# daemon flags exit 2, verdict cache hits across both manifest paxos
# instances, schema sanity, per-entry bit-identity against one-shot
# isq-verify); exercise the
# frontend under AddressSanitizer (golden diagnostics plus every example
# verifying with its documented flags); check the engine's determinism
# contract over the same corpus (verdict JSON at one thread must be
# bit-identical to four threads with a tiny steal chunk, after
# timing/steal-count scrubbing); check that symmetry on and off reach
# the same verdict per condition, the same P ≼ P' cross-check outcome and
# obligation count, and orbit accounting that adds up (the reduced run's
# orbit_states is the unreduced run's orbit_configs); run the
# incremental re-verification
# stage (cold run populating an on-disk obligation verdict cache, a
# one-action edit whose warm run must be bit-identical to the --engine
# incremental=false oracle with a nonzero hit rate, and a corrupted
# cache that must degrade to a cold run, never to different answers);
# check that running out of memory (Paxos N=4 under a `ulimit -v` cap)
# ends in exit 2 with a resource-exhausted diagnostic;
# finally run the threaded engine + arena interning race (StateArena
# stress) + concurrent memo (FlatMemo stress) +
# canonicalizer race + obligation-scheduler + symmetry +
# serve + driver-re-entrancy tests under ThreadSanitizer, including the
# symmetry=false differential, a tiny-steal-chunk run that forces
# cross-worker stealing, a threaded warm run over a shared verdict
# cache, and a threaded paxos N=3 run. All stages must pass. The
# scheduled checkers' differential against the serial reference loops is
# a tier-1 test (ScheduledISCheckTest.MatchesReferenceOnShippedExamples),
# so the ctest runs of both configurations cover it.
#
# Usage: tools/ci.sh [JOBS]

set -euo pipefail

JOBS="${1:-$(nproc)}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

run_config() {
  local dir="$1"; shift
  echo "==== configure $dir ($*) ===="
  cmake -B "$dir" -S . "$@"
  echo "==== build $dir ===="
  cmake --build "$dir" -j "$JOBS" 2>&1 | tee "$dir/ci-build.log"
  echo "==== test $dir ===="
  (cd "$dir" && ctest -j "$JOBS" --output-on-failure)
}

# Extracts the flags of an example's documented invocation (the
# multi-line "Verify with:" header), without the leading tool/file words.
example_flags() {
  awk '
    /isq-verify/ { on = 1 }
    on {
      line = $0
      sub(/^\/\/ */, "", line); sub(/\\$/, "", line)
      printf "%s ", line
      if ($0 !~ /\\$/) exit
    }' "$1" | sed 's/^isq-verify  *[^ ]*\.asl //'
}

# Runs isq-verify over one example in text and JSON format; the example
# header documents its own invocation ("Verify with:"), so CI follows the
# same command users see, plus --engine threads=2 to exercise the
# parallel scheduler. The JSON report must parse and match the versioned
# schema (v9: no compact/tiered state-store fields in "engine").
verify_example() {
  local bin="$1" file="$2" flags
  flags=$(example_flags "$file")
  echo "==== isq-verify $file ===="
  # shellcheck disable=SC2086
  "$bin" "$file" $flags --engine threads=2 >/dev/null
  # shellcheck disable=SC2086
  "$bin" "$file" $flags --engine threads=2 --format json |
    python3 -c '
import json, sys
flags = sys.argv[1].split()
doc = json.load(sys.stdin)
assert doc["schema_version"] == 9, doc["schema_version"]
assert doc["tool"] == "isq-verify"
assert doc["exit_code"] == 0 and doc["accepted"] is True
assert doc["diagnostics"] == []
names = [c["name"] for c in doc["conditions"]]
assert names == ["side_conditions", "abstraction_refinement", "base_case",
                 "conclusion", "inductive_step", "left_movers",
                 "cooperation"], names
assert all(c["ok"] and c["failures"] == 0 for c in doc["conditions"])
# P(A) ≼ α(A) has obligations exactly when the example declares an
# abstraction; every other condition always has some.
for c in doc["conditions"]:
    if c["name"] == "abstraction_refinement" and "--abstract" not in flags:
        assert c["obligations"] == 0, c
    else:
        assert c["obligations"] > 0, c
assert all("orbit_configs" in c and "orbit_states" in c
           for c in doc["conditions"])
assert doc["cross_check"]["ran"] and doc["cross_check"]["ok"]
assert doc["scheduler"]["threads"] == 2 and doc["scheduler"]["jobs"] > 0
for key in ("symmetry_reduced", "canon_calls", "canon_cache_hits",
            "orbit_states_represented", "steal_chunk", "steals", "shards",
            "shard_occupancy"):
    assert key in doc["engine"], key
assert "work_stealing" not in doc["engine"]  # removed in schema 7
# Removed in schema 9 with the compact and tiered state store.
for key in ("compressed_bytes", "spill_enabled", "mem_budget", "bytes_hot",
            "bytes_cold", "blocks_evicted", "blocks_faulted",
            "fault_stall_ns"):
    assert key not in doc["engine"], key
assert doc["engine"]["steal_chunk"] > 0
assert doc["engine"]["shards"] >= 1
assert 1 <= doc["engine"]["shard_occupancy"] <= doc["engine"]["shards"]
ob = doc["obligations"]
for key in ("total", "cache_enabled", "cache_hits", "cache_misses",
            "disk_hits"):
    assert key in ob, key
assert ob["total"] > 0
assert ob["cache_enabled"] is True  # the frontend stamps fingerprints
assert ob["cache_hits"] + ob["cache_misses"] > 0
for key in ("engine", "diagnostics", "total_seconds"):
    assert key in doc, key
print("  json ok")
' "$flags"
}

run_config build
run_config build-asan -DISQ_SANITIZE=ON
# The sanitized build must compile warning-free, so a real warning there
# cannot hide among library noise. (The log covers what this run
# compiled: every file on a fresh checkout.)
if grep -q 'warning:' build-asan/ci-build.log; then
  grep 'warning:' build-asan/ci-build.log
  echo "build-asan: compiler warnings"; exit 1
fi

echo "==== Release build: no compiler warnings ===="
# -O3 inlines more than the RelWithDebInfo default, and GCC's
# optimization-dependent warnings (-Wrestrict, -Wmaybe-uninitialized,
# ...) only fire there. Built, not tested: the tier-1 tree runs the tests.
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-release -j "$JOBS" 2>&1 | tee build-release/ci-build.log
if grep -q 'warning:' build-release/ci-build.log; then
  grep 'warning:' build-release/ci-build.log
  echo "build-release: compiler warnings"; exit 1
fi

echo "==== verify shipped examples (text + json) ===="
for f in examples/asl/*.asl; do
  verify_example build/tools/isq-verify "$f"
done

echo "==== bench smoke: the smallest row of every benchmark binary ===="
# Catches bit-rot in the benchmark code (and in the isq_reference oracles
# and protocol twins every bench links) without paying for real timing
# runs: smallest instances only, with a near-zero minimum measuring time.
bench_smoke() {
  local bin="$1" filter="$2"
  cmake --build build -j "$JOBS" --target "$bin"
  "build/bench/$bin" --benchmark_filter="$filter" \
    --benchmark_min_time=0.01 >/dev/null
  echo "  $bin: $filter"
}
bench_smoke bench_table1 'BM_Table1/0'
bench_smoke bench_statespace 'BM_Broadcast/2|BM_SymmetryTwoPhaseCommit/4/1'
bench_smoke bench_invariant_complexity \
  'BM_FlatInvariant/2|BM_InductiveSequentialization/2'
bench_smoke bench_movers 'BM_MoversBroadcast/2'
bench_smoke bench_rewriter 'BM_RewriteBroadcast/2'
bench_smoke bench_paxos 'BM_PaxosPipeline/1/3|BM_PaxosSequentialReduction/1/3'
bench_smoke bench_iterated_is 'BM_BroadcastOneShot'
bench_smoke bench_asl 'BM_CompileBroadcastModule/2|BM_VerifyBroadcastNative/2'

echo "==== serve smoke: daemon + verdict cache + schema sanity ===="
cmake --build build -j "$JOBS" --target isq-serve isq-loadgen isq-verify
SERVE_TMP=$(mktemp -d)
SERVE_PID=""
cleanup_serve() {
  if [ -n "$SERVE_PID" ]; then kill "$SERVE_PID" 2>/dev/null || true; fi
  rm -rf "$SERVE_TMP"
}
trap cleanup_serve EXIT
# The tiered state store's daemon flags are gone: each is an unknown
# option (exit 2) before anything binds.
for flag in --spill-dir --mem-budget; do
  status=0
  timeout 10 build/tools/isq-serve "$flag" 64M 2>/dev/null || status=$?
  [ "$status" -eq 2 ] || { echo "isq-serve $flag exited $status, want 2"; exit 1; }
done
build/tools/isq-serve --port-file "$SERVE_TMP/port" --workers 2 &
SERVE_PID=$!
for _ in $(seq 1 50); do
  [ -s "$SERVE_TMP/port" ] && break
  sleep 0.1
done
[ -s "$SERVE_TMP/port" ] || { echo "isq-serve did not come up"; exit 1; }

# Submit both paxos instances from the manifest (the parametric
# paxos.asl at --param N=2 and N=3) twice each over one connection: the
# second pass of each must be served from the verdict cache, and every
# served verdict must agree with itself across repeats after timing
# fields are scrubbed.
grep '^paxos' examples/asl/serve_manifest.txt |
  sed "s|^|$ROOT/examples/asl/|" > "$SERVE_TMP/manifest.txt"
[ "$(wc -l < "$SERVE_TMP/manifest.txt")" -eq 2 ] ||
  { echo "expected two paxos manifest lines"; exit 1; }
build/tools/isq-loadgen --port-file "$SERVE_TMP/port" \
  --manifest "$SERVE_TMP/manifest.txt" --clients 1 --repeats 2 \
  --check-identical --dump-dir "$SERVE_TMP" \
  --json-out "$SERVE_TMP/loadgen.json"

# Each entry's served verdict must be bit-identical (modulo timings) to a
# one-shot isq-verify run of the same job, and pass the schema sanity
# checks.
entry=0
grep '^paxos' examples/asl/serve_manifest.txt | while IFS= read -r line; do
  flags=${line#paxos.asl }
  # shellcheck disable=SC2086
  build/tools/isq-verify examples/asl/paxos.asl $flags \
    --format json > "$SERVE_TMP/oneshot$entry.json"
  entry=$((entry + 1))
done
python3 - "$SERVE_TMP" <<'EOF'
import json, re, sys
tmp = sys.argv[1]
report = json.load(open(tmp + "/loadgen.json"))
assert report["failures"] == 0, report
assert report["submissions"] == 4, report
assert report["cache_hits"] == 2 and report["cache_hit_rate"] == 0.5, report
assert report["non_zero_exits"] == 0, report
# The summary must echo the resolved engine map (empty here: the
# manifest sets no --engine), or knob-sweep rows are indistinguishable.
assert "engine" in report, sorted(report)
# Obligation-cache telemetry is stats, not verdict: the daemon shares one
# process-wide obligation cache across requests, so its hit counters
# differ from a one-shot run's. Everything else must match exactly.
def scrub(s):
    s = re.sub(r'("[a-z_]*seconds":)[0-9.]+', r'\g<1>0', s)
    return re.sub(r'("(?:cache_hits|cache_misses|disk_hits)":)[0-9]+',
                  r'\g<1>0', s)
for entry in (0, 1):
    served = open(tmp + "/entry%d.json" % entry).read()
    oneshot = open(tmp + "/oneshot%d.json" % entry).read()
    assert scrub(served) == scrub(oneshot), \
        "entry %d: served verdict != one-shot isq-verify" % entry
    doc = json.loads(served)
    assert doc["schema_version"] == 9 and doc["tool"] == "isq-verify"
    assert "shard_occupancy" in doc["engine"]
    assert doc["exit_code"] == 0 and doc["accepted"] is True
    assert doc["diagnostics"] == []
    assert all(c["ok"] for c in doc["conditions"])
    assert doc["cross_check"]["ran"] and doc["cross_check"]["ok"]
print("  serve smoke ok")
EOF

kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
SERVE_PID=""

echo "==== frontend: golden diagnostics + example sweep (ASan) ===="
# The error corpus (tests/asl_errors/) through the sanitized binary's
# test runner: every diagnostic must carry a source location and match
# its golden rendering.
build-asan/tests/cli_test --gtest_filter='CliTest.GoldenDiag*'
# Every shipped example, with its documented flags, must compile and
# verify (exit 0) under the sanitized binary.
for f in examples/asl/*.asl; do
  flags=$(example_flags "$f")
  # shellcheck disable=SC2086
  build-asan/tools/isq-verify "$f" $flags >/dev/null
  echo "  $f: ok"
done

echo "==== engine determinism: threads=1 vs threads=4 with tiny chunks ===="
# Verdicts, counts and diagnostics must not depend on the thread count
# or the steal granularity: over the whole example corpus, with each
# example's documented flags, one thread and four threads with 8-node
# chunks (which forces cross-worker stealing) must produce bit-identical
# verdict JSON once we scrub (a) timing fields, (b) schedule-dependent
# telemetry (steals and the hit counters of the racy canonicalizer /
# hash-cons / transition memos, which vary run-to-run when threaded),
# and (c) the engine-config echoes that legitimately differ between the
# two runs (threads, steal_chunk). Everything else -- verdicts,
# obligation counts, interned stores/configs, frontier peak, shard
# occupancy -- must agree exactly.
scrub_engine() {
  sed -E -e 's/("[a-z_]*seconds":)[0-9.]+/\10/g' \
         -e 's/("(steals|canon_cache_hits)":)[0-9]+/\10/g' \
         -e 's/("(hash_cons_lookups|hash_cons_hits)":)[0-9]+/\10/g' \
         -e 's/("(transition_cache_lookups|transition_cache_hits)":)[0-9]+/\10/g' \
         -e 's/("threads":)[0-9]+/\10/g' \
         -e 's/("steal_chunk":)[0-9]+/\10/g' "$1"
}
for f in examples/asl/*.asl; do
  flags=$(example_flags "$f")
  # shellcheck disable=SC2086
  build/tools/isq-verify "$f" $flags --engine threads=1 \
    --format json > "$SERVE_TMP/engine-serial.json"
  # shellcheck disable=SC2086
  build/tools/isq-verify "$f" $flags --engine threads=4,steal-chunk=8 \
    --format json > "$SERVE_TMP/engine-threaded.json"
  if ! diff <(scrub_engine "$SERVE_TMP/engine-serial.json") \
            <(scrub_engine "$SERVE_TMP/engine-threaded.json") >/dev/null; then
    echo "engine determinism mismatch: $f"; exit 1
  fi
  echo "  $f: threads=1 == threads=4,steal-chunk=8"
done

echo "==== cross-check: symmetry=true vs symmetry=false ===="
# Both runs must reach the same verdict: accepted, exit code and every
# per-condition ok. Trans(P) is orbit-closed once, in P's summary, so the
# P ≼ P' cross-check must also report the same obligation count. The
# configuration-universe conditions (P(A) ≼ α(A), LM, CO) run at P's
# orbit representatives, which stand for exactly the configurations the
# unreduced run checks: orbit_states with symmetry on equals
# orbit_configs with symmetry off.
{
  grep -E '^(broadcast|two_phase_commit)\.asl |^paxos\.asl .*N=2 ' \
    examples/asl/serve_manifest.txt
  echo "two_phase_commit.asl $(example_flags examples/asl/two_phase_commit.asl)"
} | while IFS= read -r line; do
  file=examples/asl/${line%% *}
  flags=${line#* }
  for symmetry in true false; do
    # shellcheck disable=SC2086
    build/tools/isq-verify "$file" $flags --engine symmetry=$symmetry \
      --format json < /dev/null > "$SERVE_TMP/cross-$symmetry.json" || true
  done
  python3 - "$SERVE_TMP" "$line" <<'EOF'
import json, sys
on, off = (json.load(open(sys.argv[1] + "/cross-%s.json" % s))
           for s in ("true", "false"))
for key in ("accepted", "exit_code"):
    assert on[key] == off[key], (sys.argv[2], key, on[key], off[key])
assert on["accepted"] and on["exit_code"] == 0, sys.argv[2]
conds_on = {c["name"]: c for c in on["conditions"]}
conds_off = {c["name"]: c for c in off["conditions"]}
assert conds_on.keys() == conds_off.keys()
for name, c in conds_on.items():
    assert c["ok"] == conds_off[name]["ok"], (sys.argv[2], name)
for name in ("abstraction_refinement", "left_movers", "cooperation"):
    assert conds_on[name]["orbit_states"] == conds_off[name]["orbit_configs"], \
        (sys.argv[2], name, conds_on[name], conds_off[name])
cc_on, cc_off = on["cross_check"], off["cross_check"]
assert cc_on["ran"] and cc_on["ok"], cc_on
assert (cc_on["ok"], cc_on["obligations"]) == \
    (cc_off["ok"], cc_off["obligations"]), (cc_on, cc_off)
print("  %s: same verdicts, orbit accounting adds up, cross_check %d obligations"
      % (sys.argv[2].split()[0], cc_on["obligations"]))
EOF
done

echo "==== incremental re-verification: cache vs oracle ===="
# Cold run populating an on-disk obligation verdict cache, then a
# one-action edit (peeling the first iteration of Main's loop — a
# behavioral no-op the optimizer does NOT fold, so the action's
# fingerprint moves): the warm run must be bit-identical to the
# uncached --engine incremental=false oracle on the edited module, with
# a nonzero obligation hit rate. Then a deliberately corrupted cache
# must degrade to a cold run with the same verdict — a bad cache may
# cost time, never answers.
INC_TMP="$SERVE_TMP/incremental"
mkdir -p "$INC_TMP"
cp examples/asl/paxos.asl "$INC_TMP/paxos.asl"
paxos_flags=$(example_flags examples/asl/paxos.asl)
# shellcheck disable=SC2086
build/tools/isq-verify "$INC_TMP/paxos.asl" $paxos_flags \
  --engine cache-dir="$INC_TMP/cache" --format json \
  > "$INC_TMP/cold.json"
python3 - "$INC_TMP/paxos.asl" <<'EOF'
import sys
path = sys.argv[1]
src = open(path).read()
old = """action Main() {
  for r in 1 .. R {
    async StartRound(r);
  }
}"""
new = """action Main() {
  async StartRound(1);
  for r in 2 .. R {
    async StartRound(r);
  }
}"""
assert old in src
open(path, "w").write(src.replace(old, new, 1))
EOF
# shellcheck disable=SC2086
build/tools/isq-verify "$INC_TMP/paxos.asl" $paxos_flags \
  --engine cache-dir="$INC_TMP/cache" --format json \
  > "$INC_TMP/warm.json"
# shellcheck disable=SC2086
build/tools/isq-verify "$INC_TMP/paxos.asl" $paxos_flags \
  --engine incremental=false --format json > "$INC_TMP/oracle.json"
# Corrupt the cache image in place: flip bytes in the middle of the base.
python3 - "$INC_TMP/cache/obcache.bin" <<'EOF'
import os, sys
path = sys.argv[1]
size = os.path.getsize(path)
with open(path, "r+b") as f:
    f.seek(size // 2)
    f.write(bytes(0xA5 ^ (i & 0xFF) for i in range(256)))
    f.seek(0)
    f.write(b"XXXXXXXX")  # and the magic, so the whole base is rejected
EOF
# shellcheck disable=SC2086
build/tools/isq-verify "$INC_TMP/paxos.asl" $paxos_flags \
  --engine cache-dir="$INC_TMP/cache" --format json \
  > "$INC_TMP/corrupt.json"
python3 - "$INC_TMP" <<'EOF'
import json, re, sys
tmp = sys.argv[1]
# Cache telemetry and timings are stats, not verdict; everything else in
# the warm report must be byte-for-byte the uncached oracle's.
def scrub(s):
    s = re.sub(r'("[a-z_]*seconds":)[0-9.]+', r'\g<1>0', s)
    s = re.sub(r'("(?:cache_hits|cache_misses|disk_hits)":)[0-9]+',
               r'\g<1>0', s)
    return re.sub(r'("cache_enabled":)(?:true|false)', r'\g<1>X', s)
cold = open(tmp + "/cold.json").read()
warm = open(tmp + "/warm.json").read()
oracle = open(tmp + "/oracle.json").read()
corrupt = open(tmp + "/corrupt.json").read()
assert scrub(warm) == scrub(oracle), "warm run != incremental=false oracle"
assert scrub(corrupt) == scrub(oracle), "corrupted cache changed answers"
for name, doc in (("cold", json.loads(cold)), ("warm", json.loads(warm))):
    ob = doc["obligations"]
    assert doc["accepted"] is True, name
    assert ob["cache_enabled"] is True, name
warm_ob = json.loads(warm)["obligations"]
assert warm_ob["cache_hits"] > 0, warm_ob
assert warm_ob["disk_hits"] > 0, warm_ob
# The edit touched one action: the warm run must re-discharge a small
# fraction, not the universe (<30% is the acceptance bound; in practice
# the Main peel re-checks well under 1%).
miss_rate = warm_ob["cache_misses"] / (warm_ob["cache_hits"] +
                                       warm_ob["cache_misses"])
assert miss_rate < 0.30, miss_rate
# The corrupted base is rejected, so the run is (mostly) cold: the tiny
# journal from the warm run survives independently — by design, a valid
# journal outlives a dead base — but nearly everything re-discharges.
corrupt_ob = json.loads(corrupt)["obligations"]
assert corrupt_ob["cache_misses"] > corrupt_ob["cache_hits"], corrupt_ob
print("  incremental ok (warm miss rate %.4f)" % miss_rate)
EOF
# The corrupted-cache run must have healed the image: one more warm run
# should now hit the rewritten base.
# shellcheck disable=SC2086
build/tools/isq-verify "$INC_TMP/paxos.asl" $paxos_flags \
  --engine cache-dir="$INC_TMP/cache" --format json |
  python3 -c '
import json, sys
ob = json.load(sys.stdin)["obligations"]
assert ob["disk_hits"] > 0 and ob["cache_misses"] == 0, ob
print("  self-heal ok")
'

echo "==== out of memory: exit 2 with a located diagnostic ===="
# Paxos R=2 N=4 peaks near 240 MB at one thread; under a 100 MB
# address-space cap (set in a subshell, so nothing else runs capped) an
# allocation fails mid-run. isq-verify must report it and exit 2, never
# die on an uncaught std::bad_alloc.
paxos4_flags="--param R=2 --param N=4 --arg-major
  --eliminate StartRound,Join,Propose,Vote,Conclude
  --abstract Join=JoinAbs --abstract Propose=ProposeAbs
  --abstract Vote=VoteAbs --abstract Conclude=ConcludeAbs
  --weight StartRound=13 --weight Propose=7 --weight Conclude=2"
oom_status=0
# shellcheck disable=SC2086
(ulimit -v 100000
 build/tools/isq-verify examples/asl/paxos.asl $paxos4_flags \
   --engine threads=1 >/dev/null 2>"$SERVE_TMP/oom.err") || oom_status=$?
if [ "$oom_status" -ne 2 ] ||
   ! grep -qx 'error: resource exhausted (out of memory) verifying examples/asl/paxos.asl' \
     "$SERVE_TMP/oom.err"; then
  echo "out-of-memory run: exit $oom_status"; cat "$SERVE_TMP/oom.err"; exit 1
fi
echo "  paxos N=4 under ulimit -v 100000: exit 2, resource exhausted"

echo "==== TSan: threaded engine + memos + scheduler + symmetry + serve ===="
cmake -B build-tsan -S . -DISQ_SANITIZE=thread
cmake --build build-tsan -j "$JOBS" --target engine_test flat_memo_test \
  canonicalizer_test scheduler_test symmetry_test cli_test serve_test \
  reentrancy_test isq-verify
(cd build-tsan && ctest -j "$JOBS" --output-on-failure \
  -R 'Engine|StateArena|OmegaGateCache|ParallelExplore|WorkStealing|FlatMemo|Canonicalizer|Scheduler|Symmetry|Cli|Serve|VerdictCache|JobQueue|Reentrancy')
build-tsan/tools/isq-verify examples/asl/broadcast.asl --const n=3 \
  --eliminate Broadcast,Collect --abstract Collect=CollectAbs \
  --engine threads=4 >/dev/null
# Force heavy cross-worker stealing under TSan: a tiny steal chunk makes
# every worker contend on every deque, so the frontier's synchronization
# (deque locks, chunk Done flags, seen-bit publication) is exercised far
# beyond what default chunking produces.
build-tsan/tools/isq-verify examples/asl/broadcast.asl --const n=3 \
  --eliminate Broadcast,Collect --abstract Collect=CollectAbs \
  --engine threads=4,steal-chunk=4,shards=8 >/dev/null
# Obligation verdict cache under TSan: a cold threaded run racing
# inserts into the shared cache, then a warm threaded run racing lazy
# decodes out of the mmap'd image (serve_test separately covers many
# concurrent verifications over one process-wide cache).
for _ in 1 2; do
  build-tsan/tools/isq-verify examples/asl/broadcast.asl --const n=3 \
    --eliminate Broadcast,Collect --abstract Collect=CollectAbs \
    --engine threads=4,cache-dir="$SERVE_TMP/tsan-cache" >/dev/null
done
# A threaded paxos run at the manifest's N=3 size: thousands of stores
# and PA-bags per shard, interned and read concurrently by four workers
# and then checked by the threaded scheduler.
paxos3_flags=$(grep '^paxos.*N=3' examples/asl/serve_manifest.txt |
  sed 's/^paxos\.asl //')
# shellcheck disable=SC2086
build-tsan/tools/isq-verify examples/asl/paxos.asl $paxos3_flags \
  --engine threads=4 >/dev/null
# Symmetry differential under TSan: the reduced and unreduced paths must
# both accept the symmetric module with the racy-memo canonicalizer active.
for symmetry in true false; do
  build-tsan/tools/isq-verify examples/asl/two_phase_commit.asl \
    --const n=2 --eliminate RequestVotes,Vote,Decide,Finalize \
    --abstract Decide=DecideAbs --weight RequestVotes=8 --weight Decide=4 \
    --engine threads=4,symmetry=$symmetry >/dev/null
done

echo "==== CI OK ===="
