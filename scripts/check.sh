#!/usr/bin/env bash
# Sanitizer + observability gate, run before merging:
#   1. an optimized (-O3, CMAKE_BUILD_TYPE=Release) build of the whole
#      tree (tests, benches, examples) under -Wall -Wextra -Wshadow
#      -Wconversion -Wsign-conversion as errors -- the one configuration
#      the default RelWithDebInfo build does not already cover, and the
#      one where GCC's optimizer-driven warnings (e.g. -Wrestrict) fire;
#      then `python3 perfbench/run.py --self-test`, which builds the
#      benchmark against this tree into the git-ignored .bench_build/
#      and runs its unit tests, so an engine change that breaks the
#      benchmark's build fails here;
#   2. asan preset: the full test suite under AddressSanitizer/UBSan;
#   3. tsan preset: the suites that run threads (the thread pool, the
#      telemetry hub under concurrent publishers, and the serve request
#      workers sharing cached designs and re-keying them by eco), plus
#      the eco and stage-table suites that serve's writers run, under
#      ThreadSanitizer;
#   4. ubsan preset: the timing suites, and the analog reference's
#      sparse LU, transient and calibration suites (int-indexed CSC
#      arithmetic), under standalone UBSan with -fno-sanitize-recover
#      (any report traps);
#   5. smoke checks of the machine-readable artifacts: a `sldm time
#      --trace` capture must parse as JSON, a `sldm compile --trace`
#      capture must carry the `netlist.read_sim`, `extract` and
#      `design.write` spans, a bench run with `--json`
#      must append a parseable record, and the benchmark's compile
#      spelling (`sldm compile <sim> -o a.sldc --tech cmos --threads 4`)
#      must exit 0 and write the bytes the same compile writes without
#      `--threads`, which every command accepts and ignores;
#   6. a compiled-design snapshot smoke under asan and ubsan: `sldm
#      compile` + `sldm time --load` must match the direct path
#      byte-for-byte, and a .sldc with a byte
#      flipped in its first section or in its STOR arrays must be
#      rejected by checksum, and one cut inside its header, inside a
#      section header or inside STOR must be refused as truncated;
#      `sldm time` on a directory or a FIFO, and a FIFO given to
#      `--tables`, `--tech` or `--constraints`, must exit 1 with "not a
#      regular file" (each FIFO under `timeout 5`), and an empty
#      `--tables` file must be refused by name, with no "internal error";
#      and a CRLF copy of testdata/sample_datapath.sim must time
#      byte-identically to the LF original; `sldm eco --verify` on the
#      chain design must report bit-identity with a rebuild for a
#      parametric script (sizes and caps: the in-place re-bake) and for
#      a structural one (a new device: re-extract and splice), and under
#      the slope model for the `length in23 gnd g0_1 4` edit on the
#      54k-device random_logic(cmos, 64, 256, seed 5) design (the
#      witness whose update once kept superseded-predecessor maxima);
#   7. a fixed-seed differential fuzzing smoke under asan (`sldm fuzz`,
#      200 iterations: must be clean and deterministic), plus a replay
#      pass over the checked-in repro corpus in testdata/fuzz/;
#   8. a telemetry smoke: `sldm time --prom` must emit well-formed
#      Prometheus text exposition (every line a TYPE comment or a
#      sample, complete _bucket/_sum/_count triads, the analyzer
#      families present), a run must land in the ledger and summarize,
#      and the `sldm bench diff` regression gate must pass on an
#      identity diff and fail on an injected 2x wall-time regression;
#   9. a serve smoke under asan: a pipe-mode load/time round-trip whose
#      report field must match the cold `sldm time` stdout byte-for-
#      byte, a malformed request line and a line of 30,000 nested `[`
#      that must each come back as a named parse envelope (not a
#      crash) with a stats answer after them, a load of
#      testdata/sample_datapath.sim whose answered design id must be the
#      fingerprint in FORMATS.md section 12's example record, and the
#      checked-in corrupt ledger
#      corpus (testdata/ledger/) that `sldm ledger summarize` must
#      reject with located errors ("bad fingerprint" in corrupt.jsonl,
#      "bad propagate_seconds" in huge_seconds.jsonl); and 30 time
#      requests to a fresh serve whose `stats` telemetry counter
#      propagate.stage_evaluations must equal the sum over the 30
#      responses (retired sessions lose no work); and 5 chained rc-tree
#      ecos on a `sldm gen` design, each sent to the previous answer's
#      design, whose last report must match a `time` request on the
#      edited design and a single cold eco of all five edits.  The serve
#      concurrency suite itself runs under tsan in stage 3;
#  10. a chaos smoke under asan: a fixed-seed failpoint schedule
#      (FORMATS.md section 15) driven through pipe-mode serve and a
#      localhost TCP connection must answer exactly one envelope per
#      request line without crashing, every surviving ledger line must
#      parse whole, and SIGTERM must drain the TCP server to exit 0.
#      (tests/chaos_test.cpp is deliberately absent from the tsan
#      stage: it raises real signals, which interact badly with
#      sanitizer signal interposition.)
# Any test failure (or sanitizer report, which fails the test) aborts
# with a nonzero exit.  Usage: scripts/check.sh [-j N]
set -euo pipefail

cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 2)
while getopts "j:" opt; do
  case "$opt" in
    j) jobs="$OPTARG" ;;
    *) echo "usage: $0 [-j N]" >&2; exit 2 ;;
  esac
done

cmake -S . -B out/check-release -DCMAKE_BUILD_TYPE=Release \
  -DSLDM_WARNINGS_AS_ERRORS=ON
cmake --build out/check-release -j "$jobs"
echo "check.sh: -O3 warnings-as-errors build clean"
python3 perfbench/run.py --self-test
echo "check.sh: perfbench builds against the tree and its tests pass"

cmake --preset asan
cmake --build --preset asan -j "$jobs"
ctest --preset asan -j "$jobs"
echo "check.sh: all tests passed under asan+ubsan"

cmake --preset tsan
cmake --build --preset tsan -j "$jobs" \
  --target parallel_timing_test eco_timing_test stage_table_test \
           telemetry_test serve_test
ctest --preset tsan -j "$jobs" \
  -R 'parallel_timing_test|eco_timing_test|stage_table_test|telemetry_test|serve_test'
echo "check.sh: threaded suites passed under tsan"

cmake --preset ubsan
cmake --build --preset ubsan -j "$jobs" \
  --target analyzer_test parallel_timing_test eco_timing_test \
           observability_test sparse_test transient_test calib_test \
           sldm_tool
ctest --preset ubsan -j "$jobs" \
  -R 'analyzer_test|parallel_timing_test|eco_timing_test|observability_test|sparse_test|transient_test|calib_test'
echo "check.sh: timing and analog suites passed under ubsan"

# Observability smoke: the trace files of `time` and `compile` must be
# valid JSON with their spans, and a bench --json record must parse.
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
printf 'e in gnd s1 4 8\nd s1 s1 vdd 8 4\ne s1 gnd out 4 8\nd out out vdd 8 4\n@in in\n@out out\n' \
  > "$smoke_dir/chain.sim"
out/ubsan/examples/sldm time "$smoke_dir/chain.sim" --model rc-tree \
  --trace "$smoke_dir/trace.json" > /dev/null
python3 - "$smoke_dir/trace.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
names = {e["name"] for e in doc["traceEvents"] if e.get("ph") == "X"}
missing = {"extract", "propagate"} - names
if missing:
    sys.exit(f"trace smoke: missing spans {missing}")
EOF
out/ubsan/examples/sldm compile "$smoke_dir/chain.sim" --model rc-tree \
  -o "$smoke_dir/traced.sldc" --trace "$smoke_dir/compile_trace.json" \
  > /dev/null
python3 - "$smoke_dir/compile_trace.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
spans = {e["cat"] + "." + e["name"] for e in doc["traceEvents"]
         if e.get("ph") == "X"}
missing = {"netlist.read_sim", "timing.extract", "design.write"} - spans
if missing:
    sys.exit(f"compile trace smoke: missing spans {missing}")
EOF
echo "check.sh: trace smoke files parsed"

# `--threads` is accepted and ignored (extraction is sequential) until
# the benchmark stops passing it: its compile spelling must succeed and
# write the same bytes as the compile without the option.
out/ubsan/examples/sldm gen random_logic --style cmos --layers 8 \
  --width 16 --seed 7 -o "$smoke_dir/k2.sim" > /dev/null
out/ubsan/examples/sldm compile "$smoke_dir/k2.sim" -o "$smoke_dir/k2_t4.sldc" \
  --tech cmos --threads 4 > /dev/null 2>&1 \
  || { echo "check.sh: compile --threads 4 failed" >&2; exit 1; }
out/ubsan/examples/sldm compile "$smoke_dir/k2.sim" -o "$smoke_dir/k2.sldc" \
  --tech cmos > /dev/null 2>&1
cmp "$smoke_dir/k2_t4.sldc" "$smoke_dir/k2.sldc" \
  || { echo "check.sh: compile --threads 4 wrote different bytes" >&2
       exit 1; }
echo "check.sh: compile --threads 4 writes the bytes of a plain compile"

cmake --build --preset ubsan -j "$jobs" --target bench_ablation_flow
out/ubsan/bench/bench_ablation_flow --json "$smoke_dir/bench.json" \
  > /dev/null
python3 - "$smoke_dir/bench.json" <<'EOF'
import json, sys
records = [json.loads(line) for line in open(sys.argv[1])]
if not records or "bench" not in records[0] or \
   "wall_seconds" not in records[0]:
    sys.exit("bench smoke: malformed record")
EOF
echo "check.sh: bench --json record parsed"

# Compiled-design snapshot smoke under asan and under ubsan (whose
# -fno-sanitize-recover traps any UB in the codec's bulk memcpy
# decoding): `sldm compile` then `time --load` must print byte-identical
# timing reports to the direct path (the .sldc round-trip contract,
# FORMATS.md section 11), and a snapshot with one
# byte flipped -- inside the first section payload, or inside the STOR
# section's arrays -- must be rejected by checksum.
out/ubsan/examples/sldm gen random_logic --style cmos --layers 64 \
  --width 256 --seed 5 -o "$smoke_dir/witness.sim" > /dev/null
printf 'length in23 gnd g0_1 4\n' > "$smoke_dir/witness.eco"
for build in asan ubsan; do
  sldm_bin="out/$build/examples/sldm"
  "$sldm_bin" compile "$smoke_dir/chain.sim" \
    -o "$smoke_dir/chain.sldc" > /dev/null
  "$sldm_bin" time "$smoke_dir/chain.sim" > "$smoke_dir/direct.txt" \
    2> /dev/null
  "$sldm_bin" time --load "$smoke_dir/chain.sldc" \
    > "$smoke_dir/loaded.txt" 2> /dev/null
  cmp "$smoke_dir/direct.txt" "$smoke_dir/loaded.txt" \
    || { echo "check.sh: --load timing differs from direct ($build)" >&2
         exit 1; }
  for where in first STOR; do
    python3 - "$smoke_dir/chain.sldc" "$smoke_dir/corrupt.sldc" "$where" <<'EOF'
import sys
src, dst, where = sys.argv[1:4]
data = bytearray(open(src, "rb").read())
if where == "first":
    at = 40  # inside the first section payload
else:
    pos = 16  # past the header; each section header is 20 bytes
    while data[pos:pos + 4] != b"STOR":
        pos += 20 + int.from_bytes(data[pos + 4:pos + 12], "little")
    length = int.from_bytes(data[pos + 4:pos + 12], "little")
    at = pos + 20 + length // 2
data[at] ^= 0x5A
open(dst, "wb").write(data)
EOF
    if "$sldm_bin" time --load "$smoke_dir/corrupt.sldc" \
        > /dev/null 2> "$smoke_dir/corrupt.txt"; then
      echo "check.sh: snapshot corrupted in $where was accepted ($build)" >&2
      exit 1
    fi
    grep -q 'checksum mismatch' "$smoke_dir/corrupt.txt" \
      || { echo "check.sh: snapshot corrupted in $where not rejected by" \
           "checksum ($build)" >&2; exit 1; }
  done
  # A .sldc cut short -- inside the fixed header, inside a section
  # header, inside the STOR arrays -- is refused as truncated.
  for where in header section STOR; do
    python3 - "$smoke_dir/chain.sldc" "$smoke_dir/cut.sldc" "$where" <<'EOF'
import sys
src, dst, where = sys.argv[1:4]
data = open(src, "rb").read()
if where == "header":
    at = 10  # inside the 16-byte fixed header
elif where == "section":
    at = 16 + 10  # inside the first 20-byte section header
else:
    pos = 16
    while data[pos:pos + 4] != b"STOR":
        pos += 20 + int.from_bytes(data[pos + 4:pos + 12], "little")
    at = pos + 20 + int.from_bytes(data[pos + 4:pos + 12], "little") // 2
open(dst, "wb").write(data[:at])
EOF
    if "$sldm_bin" time --load "$smoke_dir/cut.sldc" \
        > /dev/null 2> "$smoke_dir/cut.txt"; then
      echo "check.sh: snapshot cut inside $where was accepted ($build)" >&2
      exit 1
    fi
    grep -q 'truncated' "$smoke_dir/cut.txt" \
      || { echo "check.sh: snapshot cut inside $where not refused as" \
           "truncated ($build)" >&2; exit 1; }
  done
  # --tables, --tech and --constraints take regular files only, and
  # tables that cannot price the design are refused by name.
  rm -f "$smoke_dir/option.fifo"
  mkfifo "$smoke_dir/option.fifo"
  for option in --tables --tech --constraints; do
    # rc-tree keeps `time` from calibrating before it reads the file.
    model=(--model rc-tree)
    [ "$option" = --tables ] && model=()
    option_rc=0
    timeout 5 "$sldm_bin" time "$smoke_dir/chain.sim" \
      "$option" "$smoke_dir/option.fifo" "${model[@]}" \
      > /dev/null 2> "$smoke_dir/option.txt" || option_rc=$?
    [ "$option_rc" -eq 1 ] \
      && grep -q 'not a regular file' "$smoke_dir/option.txt" \
      || { echo "check.sh: FIFO $option gave exit $option_rc, not a" \
           "named refusal ($build)" >&2; exit 1; }
  done
  : > "$smoke_dir/empty.slopes"
  tables_rc=0
  "$sldm_bin" time "$smoke_dir/chain.sim" --tables "$smoke_dir/empty.slopes" \
    > /dev/null 2> "$smoke_dir/tables.txt" || tables_rc=$?
  [ "$tables_rc" -eq 1 ] \
    && grep -q 'slope tables have no entry for' "$smoke_dir/tables.txt" \
    && ! grep -q 'internal error' "$smoke_dir/tables.txt" \
    || { echo "check.sh: empty --tables gave exit $tables_rc, not a" \
         "named refusal ($build)" >&2; exit 1; }
  # The .sim reader takes regular files only, and CRLF line ends.
  if "$sldm_bin" time "$smoke_dir" --model rc-tree \
      > /dev/null 2> "$smoke_dir/dir.txt"; then
    echo "check.sh: sldm time on a directory exited 0 ($build)" >&2
    exit 1
  fi
  grep -q 'not a regular file' "$smoke_dir/dir.txt" \
    || { echo "check.sh: directory .sim not refused by name ($build)" >&2
         exit 1; }
  rm -f "$smoke_dir/fifo.sim"
  mkfifo "$smoke_dir/fifo.sim"
  fifo_rc=0
  timeout 5 "$sldm_bin" time "$smoke_dir/fifo.sim" --model rc-tree \
    > /dev/null 2> "$smoke_dir/fifo.txt" || fifo_rc=$?
  [ "$fifo_rc" -eq 1 ] && grep -q 'not a regular file' "$smoke_dir/fifo.txt" \
    || { echo "check.sh: FIFO .sim gave exit $fifo_rc, not a named" \
         "refusal ($build)" >&2; exit 1; }
  sed 's/$/\r/' testdata/sample_datapath.sim > "$smoke_dir/crlf.sim"
  for f in testdata/sample_datapath.sim "$smoke_dir/crlf.sim"; do
    "$sldm_bin" time "$f" --model rc-tree > "$smoke_dir/$(basename "$f").txt"
  done
  cmp "$smoke_dir/sample_datapath.sim.txt" "$smoke_dir/crlf.sim.txt" \
    || { echo "check.sh: CRLF .sim times differently ($build)" >&2; exit 1; }
  # Both ECO update paths must stay bit-identical to a full rebuild.
  printf 'width in gnd s1 16\ncap s1 25\naddcap out 3\n' \
    > "$smoke_dir/parametric.eco"
  printf 'transistor e in gnd out 4 8\n' > "$smoke_dir/structural.eco"
  for eco in parametric structural; do
    "$sldm_bin" eco "$smoke_dir/chain.sim" "$smoke_dir/$eco.eco" --verify \
      > "$smoke_dir/eco_$eco.txt" 2> /dev/null \
      || { echo "check.sh: sldm eco --verify failed on the $eco script" \
           "($build)" >&2; exit 1; }
    grep -q 'bit-identical to a full rebuild' "$smoke_dir/eco_$eco.txt" \
      || { echo "check.sh: $eco eco did not verify ($build)" >&2; exit 1; }
  done
  # The slope-model witness: update() must equal a rebuild under slope.
  "$sldm_bin" eco "$smoke_dir/witness.sim" "$smoke_dir/witness.eco" \
    --tech cmos --verify > "$smoke_dir/eco_witness.txt" 2> /dev/null \
    || { echo "check.sh: sldm eco --verify failed on the slope witness" \
         "($build)" >&2; exit 1; }
  grep -q 'bit-identical to a full rebuild' "$smoke_dir/eco_witness.txt" \
    || { echo "check.sh: slope witness did not verify ($build)" >&2; exit 1; }
done
echo "check.sh: snapshot compile/load parity holds, corruption rejected"
echo "check.sh: .sim refuses directories and FIFOs, CRLF times identically"
echo "check.sh: cut snapshots, FIFO options and empty tables refused by name"
echo "check.sh: parametric, structural and slope eco --verify bit-identical"

# Differential fuzzing smoke under asan: a fixed-seed campaign must run
# clean twice with byte-identical reports (determinism contract), and
# every checked-in repro case must replay green.
out/asan/examples/sldm fuzz --seed 2026 --iterations 200 \
  > "$smoke_dir/fuzz1.txt"
out/asan/examples/sldm fuzz --seed 2026 --iterations 200 \
  > "$smoke_dir/fuzz2.txt"
cmp "$smoke_dir/fuzz1.txt" "$smoke_dir/fuzz2.txt" \
  || { echo "check.sh: fuzz report not deterministic" >&2; exit 1; }
grep -q '^verdict: clean$' "$smoke_dir/fuzz1.txt" \
  || { echo "check.sh: seeded fuzz run found failures" >&2; exit 1; }
out/asan/examples/sldm fuzz --replay testdata/fuzz
echo "check.sh: fuzz smoke clean, repro corpus replays"

# Telemetry smoke: the Prometheus exposition must be well-formed and
# complete, the run ledger must record and summarize the run, and the
# bench regression gate must hold on both sides.
out/ubsan/examples/sldm time "$smoke_dir/chain.sim" --model rc-tree \
  --prom "$smoke_dir/metrics.prom" --ledger "$smoke_dir/ledger.jsonl" \
  > /dev/null
python3 - "$smoke_dir/metrics.prom" <<'EOF'
import re, sys
type_re = re.compile(r"^# TYPE (sldm_[a-zA-Z0-9_:]+) (counter|gauge|histogram)$")
sample_re = re.compile(
    r"^(sldm_[a-zA-Z0-9_:]+)(\{[^{}]*\})? (NaN|[+-]Inf|[-+0-9.eE]+)$")
families, seen = {}, set()
for line in open(sys.argv[1]):
    line = line.rstrip("\n")
    if not line:
        continue
    m = type_re.match(line)
    if m:
        families[m.group(1)] = m.group(2)
        continue
    m = sample_re.match(line)
    if not m:
        sys.exit(f"prom smoke: malformed line: {line!r}")
    seen.add(m.group(1))
for name in ("sldm_propagate_stage_evaluations_total",
             "sldm_extract_seconds", "sldm_propagate_seconds"):
    if name not in seen:
        sys.exit(f"prom smoke: missing sample {name}")
for name, kind in families.items():
    if kind == "histogram":
        for suffix in ("_bucket", "_sum", "_count"):
            if name + suffix not in seen:
                sys.exit(f"prom smoke: {name} missing {suffix} series")
    elif name not in seen:
        sys.exit(f"prom smoke: TYPE {name} has no sample")
if not any(k == "histogram" for k in families.values()):
    sys.exit("prom smoke: no histogram family emitted")
EOF
out/ubsan/examples/sldm ledger summarize "$smoke_dir/ledger.jsonl" \
  | grep -q 'run:1' \
  || { echo "check.sh: ledger did not record the run" >&2; exit 1; }
echo "check.sh: prometheus exposition well-formed, ledger recorded"

# Bench regression gate, self-test: identity must pass, an injected 2x
# wall-time regression must fail.  Reuses the stage-5 bench record.
out/ubsan/examples/sldm bench diff "$smoke_dir/bench.json" \
  "$smoke_dir/bench.json" --max-regress 50 > /dev/null \
  || { echo "check.sh: bench diff failed an identity diff" >&2; exit 1; }
python3 - "$smoke_dir/bench.json" "$smoke_dir/bench_slow.json" <<'EOF'
import json, sys
with open(sys.argv[2], "w") as out:
    for line in open(sys.argv[1]):
        record = json.loads(line)
        if "wall_seconds" in record:
            record["wall_seconds"] *= 2.0
        out.write(json.dumps(record) + "\n")
EOF
if out/ubsan/examples/sldm bench diff "$smoke_dir/bench.json" \
    "$smoke_dir/bench_slow.json" --max-regress 50 > /dev/null; then
  echo "check.sh: bench diff missed a 2x regression" >&2; exit 1
fi
echo "check.sh: bench diff gate passes identity, catches regression"

# Serve smoke under asan: drive the pipe-mode service with a load/time
# pair plus one malformed line and one nested 30,000 levels deep.  The
# service must answer each with a named parse envelope instead of
# crashing (the nesting one naming the depth cap), and the timing
# response's report field must be byte-identical to a cold `sldm time`
# run of the same netlist (the serve parity contract, FORMATS.md
# section 14).
out/asan/examples/sldm time "$smoke_dir/chain.sim" --model lumped \
  > "$smoke_dir/cold_time.txt" 2> /dev/null
{ printf '%s\n%s\n' \
    '{"id":1,"kind":"load","path":"'"$smoke_dir"'/chain.sim","model":"lumped"}' \
    '{this line is not json'
  python3 -c 'print("[" * 30000)'
  printf '%s\n' '{"id":2,"kind":"stats"}'; } \
  | out/asan/examples/sldm serve > "$smoke_dir/serve1.jsonl"
python3 - "$smoke_dir/serve1.jsonl" "$smoke_dir/serve_time.req" <<'EOF'
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
by_id = {r.get("id"): r for r in lines}
load = by_id.get(1)
if not load or not load.get("ok"):
    sys.exit(f"serve smoke: load failed: {load}")
bad = [r for r in lines if r.get("error") == "parse"]
if len(bad) != 2:
    sys.exit(f"serve smoke: want 2 parse envelopes, got {len(bad)}")
if not any("nesting deeper than 64 levels" in r.get("detail", "")
           for r in bad):
    sys.exit(f"serve smoke: nested line not refused by depth: {bad}")
if not by_id.get(2, {}).get("ok"):
    sys.exit("serve smoke: stats request after the bad line failed")
fp = load["design"]
with open(sys.argv[2], "w") as out:
    out.write(json.dumps({"id": 3, "kind": "time", "design": fp,
                          "model": "lumped"}) + "\n")
    out.write(json.dumps({"id": 4, "kind": "explain", "design": fp,
                          "model": "lumped", "node": "out"}) + "\n")
    out.write(json.dumps({"id": 5, "kind": "eco", "design": fp,
                          "model": "lumped",
                          "script": "addcap out 5\n"}) + "\n")
EOF
# Full round-trip at --workers 1 (inline execution), so the eco line
# deterministically sees no in-flight readers.
{ printf '%s\n' \
    '{"id":1,"kind":"load","path":"'"$smoke_dir"'/chain.sim","model":"lumped"}'
  cat "$smoke_dir/serve_time.req"; } \
  | out/asan/examples/sldm serve --workers 1 > "$smoke_dir/serve2.jsonl"
python3 - "$smoke_dir/serve2.jsonl" "$smoke_dir/cold_time.txt" <<'EOF'
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
by_id = {r.get("id"): r for r in lines}
time_resp = by_id.get(3)
if not time_resp or not time_resp.get("ok"):
    sys.exit(f"serve smoke: time request failed: {time_resp}")
cold = open(sys.argv[2]).read()
if time_resp["report"] != cold:
    sys.exit("serve smoke: serve report differs from cold `sldm time`:\n"
             f"serve: {time_resp['report']!r}\ncold:  {cold!r}")
explain = by_id.get(4)
if not explain or not explain.get("ok") or "explain" not in explain:
    sys.exit(f"serve smoke: explain request failed: {explain}")
eco = by_id.get(5)
if not eco or not eco.get("ok") or eco.get("applied") != 1 \
   or eco.get("design") == time_resp.get("design"):
    sys.exit(f"serve smoke: eco request failed or did not re-key: {eco}")
EOF
echo "check.sh: serve pipe round-trip matches cold CLI, errors enveloped"

# The design id FORMATS.md section 12's example record shows must be
# the one serve answers for testdata/sample_datapath.sim, so the doc's
# example cannot go stale when the fingerprint's definition changes.
printf '%s\n' \
  '{"id":1,"kind":"load","path":"testdata/sample_datapath.sim","model":"rc-tree"}' \
  | out/asan/examples/sldm serve --workers 1 > "$smoke_dir/serve_sample.jsonl"
python3 - "$smoke_dir/serve_sample.jsonl" FORMATS.md <<'EOF'
import json, re, sys
load = json.loads(open(sys.argv[1]).readline())
if not load.get("ok"):
    sys.exit(f"serve design-id smoke: load failed: {load}")
doc = open(sys.argv[2]).read()
section = re.search(r"^## 12\..*?(?=^## 13\.)", doc, re.M | re.S)
if not section or f'"fingerprint":"{load["design"]}"' not in section.group(0):
    sys.exit(f"serve design-id smoke: design {load['design']} of "
             "testdata/sample_datapath.sim is not the fingerprint in "
             "FORMATS.md section 12's example record")
EOF
echo "check.sh: serve design id of the sample matches FORMATS.md section 12"

# Telemetry conservation through serve: each answered request's session
# retires into its per-kind rollup when the request ends, and the
# rollups must lose no work.  A fresh `sldm serve --workers 1` answers
# one load, then 30 time requests across lumped, rc-tree and slope, then
# stats; the stats counter propagate.stage_evaluations must equal the
# sum of the 30 responses' stats.stage_evaluations.  The client waits
# for each answer, as FORMATS.md section 14 requires after a load.
python3 - out/asan/examples/sldm "$smoke_dir/chain.sim" <<'EOF'
import json, subprocess, sys
sldm, sim = sys.argv[1], sys.argv[2]
proc = subprocess.Popen([sldm, "serve", "--workers", "1"], text=True,
                        stdin=subprocess.PIPE, stdout=subprocess.PIPE)
def ask(request):
    proc.stdin.write(json.dumps(request) + "\n")
    proc.stdin.flush()
    return json.loads(proc.stdout.readline())
load = ask({"id": 0, "kind": "load", "path": sim, "model": "slope"})
if not load.get("ok"):
    sys.exit(f"serve telemetry smoke: load failed: {load}")
total = 0
for i in range(30):
    model = ("lumped", "rc-tree", "slope")[i % 3]
    resp = ask({"id": i + 1, "kind": "time", "design": load["design"],
                "model": model})
    if not resp.get("ok"):
        sys.exit(f"serve telemetry smoke: time request failed: {resp}")
    total += resp["stats"]["stage_evaluations"]
stats = ask({"id": 31, "kind": "stats"})
proc.stdin.close()
if proc.wait() != 0:
    sys.exit(f"serve telemetry smoke: serve exited {proc.returncode}")
got = stats.get("telemetry", {}).get("counters", {}) \
           .get("propagate.stage_evaluations")
if total < 1 or got != total:
    sys.exit("serve telemetry smoke: stats propagate.stage_evaluations "
             f"{got} != {total}, the sum over the 30 time responses")
EOF
echo "check.sh: serve stats telemetry counts every retired request"

# Chained warm ecos: a design from `sldm gen`, then 5 rc-tree ecos in
# pipe mode, each addressed to the previous response's design and sent
# only once that envelope arrived, so ecos 2-5 answer from the analysis
# the previous eco left (update() alone).  The last report must be
# byte-identical to two cold analyses of the same edited design: a
# `time` request on its fingerprint (a fresh session's full propagate),
# and one eco of all five edits on a fresh load of the original (run,
# apply, update), which must also arrive at the same fingerprint.  No
# .sim round trip is involved, so no edit value is rounded on the way.
out/asan/examples/sldm gen random_logic --style nmos --layers 6 --width 16 \
  --seed 3 -o "$smoke_dir/rl.sim" > /dev/null
printf '%s\n' 'addcap g1_2 3.14159265' 'cap g2_5 7' \
  'transistor e in1 gnd g2_3 2 4' 'addcap g3_1 2.5' 'addcap g4_4 6' \
  > "$smoke_dir/chain_ecos.eco"
python3 - out/asan/examples/sldm "$smoke_dir/rl.sim" \
  "$smoke_dir/chain_ecos.eco" <<'EOF'
import json, subprocess, sys
sldm, sim, script = sys.argv[1:]
proc = subprocess.Popen([sldm, "serve"], text=True,
                        stdin=subprocess.PIPE, stdout=subprocess.PIPE)
def ask(request):
    proc.stdin.write(json.dumps(request) + "\n")
    proc.stdin.flush()
    return json.loads(proc.stdout.readline())
def load():
    resp = ask({"id": 0, "kind": "load", "path": sim, "model": "rc-tree"})
    if not resp.get("ok"):
        sys.exit(f"serve chained-eco smoke: load failed: {resp}")
    return resp["design"]
design = load()
edits = [line for line in open(script) if line.strip()]
for i, edit in enumerate(edits):
    resp = ask({"id": i + 1, "kind": "eco", "design": design,
                "model": "rc-tree", "script": edit})
    if not resp.get("ok") or resp.get("applied") != 1:
        sys.exit(f"serve chained-eco smoke: eco {i + 1} failed: {resp}")
    # Only the first eco runs the full pre-edit propagate.
    warm = resp["stats"]["propagate_seconds"] == 0
    if warm != (i > 0):
        sys.exit(f"serve chained-eco smoke: eco {i + 1} warm={warm}")
    design = resp["design"]
chained = resp["report"]
timed = ask({"id": 10, "kind": "time", "design": design, "model": "rc-tree"})
once = ask({"id": 11, "kind": "eco", "design": load(), "model": "rc-tree",
            "script": "".join(edits)})
proc.stdin.close()
if proc.wait() != 0:
    sys.exit(f"serve chained-eco smoke: serve exited {proc.returncode}")
if not timed.get("ok") or timed["report"] != chained:
    sys.exit("serve chained-eco smoke: last eco report differs from a time "
             f"request on its design:\nchained: {chained!r}\ntime: {timed!r}")
if not once.get("ok") or once["design"] != design or \
        once["stats"]["propagate_seconds"] == 0 or once["report"] != chained:
    sys.exit("serve chained-eco smoke: last eco differs from one cold eco "
             f"of all edits:\nchained: {design} {chained!r}\nonce: {once!r}")
EOF
echo "check.sh: chained warm serve ecos match a cold run of the edits"

# Malformed-ledger corpus: the checked-in corrupt line must be rejected
# with a named, located error -- never an uncaught std::exception.
if out/asan/examples/sldm ledger summarize testdata/ledger/corrupt.jsonl \
    > /dev/null 2> "$smoke_dir/ledger_err.txt"; then
  echo "check.sh: corrupt ledger corpus was accepted" >&2; exit 1
fi
grep -q 'bad fingerprint' "$smoke_dir/ledger_err.txt" \
  || { echo "check.sh: corrupt ledger not rejected by name" >&2; exit 1; }
grep -q 'corrupt.jsonl:2' "$smoke_dir/ledger_err.txt" \
  || { echo "check.sh: corrupt ledger error lacks file:line" >&2; exit 1; }
echo "check.sh: corrupt ledger corpus rejected with located error"

# Out-of-range ledger numbers: a seconds value that used to turn every
# summarize prop column into `inf` must be a located error instead.
if out/asan/examples/sldm ledger summarize testdata/ledger/huge_seconds.jsonl \
    > /dev/null 2> "$smoke_dir/ledger_err.txt"; then
  echo "check.sh: huge-seconds ledger witness was accepted" >&2; exit 1
fi
grep -q 'huge_seconds.jsonl:2: bad propagate_seconds' \
    "$smoke_dir/ledger_err.txt" \
  || { echo "check.sh: huge-seconds ledger not rejected by name" >&2; exit 1; }
echo "check.sh: out-of-range ledger seconds rejected with located error"

# Chaos smoke under asan: arm a fixed-seed failpoint schedule
# (FORMATS.md section 15) and drive the same request mix through
# pipe-mode serve and a localhost TCP connection.  Faults fire at the
# ledger, cache, pool, and dispatch sites; the contract is exactly one
# envelope per request line (ok or a named error), a parseable ledger,
# no crash, and a clean SIGTERM drain to exit 0.
chaos_fp='ledger.append=error*1in3@7,cache.insert=error*1in5@11'
chaos_fp="$chaos_fp,cache.evict=partial*1in2@13,pool.submit=error*1in6@17"
chaos_fp="$chaos_fp,serve.request=error*1in7@19"
fp=$(printf '%s\n' \
  '{"id":1,"kind":"load","path":"'"$smoke_dir"'/chain.sim","model":"lumped"}' \
  | out/asan/examples/sldm serve \
  | python3 -c 'import json,sys; print(json.load(sys.stdin)["design"])')
python3 - "$smoke_dir/chain.sim" "$fp" "$smoke_dir/chaos.req" <<'EOF'
import json, sys
sim, fp = sys.argv[1], sys.argv[2]
with open(sys.argv[3], "w") as out:
    for rnd in range(5):
        base = rnd * 10
        out.write(json.dumps({"id": base + 1, "kind": "load", "path": sim,
                              "model": "lumped"}) + "\n")
        out.write(json.dumps({"id": base + 2, "kind": "time", "design": fp,
                              "model": "lumped"}) + "\n")
        out.write(json.dumps({"id": base + 3, "kind": "frobnicate"}) + "\n")
        out.write("{this line is not json\n")
        out.write(json.dumps({"id": base + 5, "kind": "stats"}) + "\n")
EOF
out/asan/examples/sldm serve --workers 2 --failpoints "$chaos_fp" \
  --ledger "$smoke_dir/chaos_ledger.jsonl" \
  < "$smoke_dir/chaos.req" > "$smoke_dir/chaos_pipe.jsonl" \
  2> "$smoke_dir/chaos_pipe.err" \
  || { echo "check.sh: pipe-mode serve crashed under failpoints" >&2
       exit 1; }
python3 - "$smoke_dir/chaos.req" "$smoke_dir/chaos_pipe.jsonl" \
  "$smoke_dir/chaos_ledger.jsonl" <<'EOF'
import json, os, sys
requests = [l for l in open(sys.argv[1]) if l.strip()]
responses = [l for l in open(sys.argv[2]) if l.strip()]
if len(responses) != len(requests):
    sys.exit(f"chaos smoke: {len(requests)} request lines but "
             f"{len(responses)} response lines")
for line in responses:
    r = json.loads(line)
    if not (r.get("ok") or r.get("error")):
        sys.exit(f"chaos smoke: envelope neither ok nor error: {r}")
if os.path.exists(sys.argv[3]):
    for line in open(sys.argv[3]):
        json.loads(line)  # error appends refuse before writing a byte
EOF
echo "check.sh: pipe-mode chaos answered every line, ledger intact"

out/asan/examples/sldm serve --tcp 0 --workers 2 \
  --failpoints "$chaos_fp" 2> "$smoke_dir/chaos_tcp.err" &
serve_pid=$!
port=""
for _ in $(seq 100); do
  port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
    "$smoke_dir/chaos_tcp.err")
  [ -n "$port" ] && break
  sleep 0.1
done
[ -n "$port" ] || { echo "check.sh: chaos TCP server never announced" >&2
                    kill "$serve_pid" 2> /dev/null; exit 1; }
python3 - "$port" "$smoke_dir/chaos.req" <<'EOF'
import json, socket, sys
with socket.create_connection(("127.0.0.1", int(sys.argv[1])),
                              timeout=30) as s:
    f = s.makefile("rw", encoding="utf-8", newline="\n")
    requests = [l for l in open(sys.argv[2]) if l.strip()]
    for line in requests:
        f.write(line)
    f.flush()
    for _ in requests:
        r = json.loads(f.readline())
        if not (r.get("ok") or r.get("error")):
            sys.exit(f"chaos smoke: TCP envelope neither ok nor error: {r}")
EOF
kill -TERM "$serve_pid"
wait "$serve_pid" \
  || { echo "check.sh: SIGTERM did not drain the TCP server to exit 0" >&2
       exit 1; }
echo "check.sh: TCP chaos answered every line, SIGTERM drained to exit 0"
