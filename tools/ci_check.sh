#!/usr/bin/env bash
# CI gate: warning-clean Release build, sanitizer builds, full ctest under
# each, the gating pobp_srclint static stage, clang-format / clang-tidy
# (when installed), and a pobp_lint smoke run on the known-bad fixtures.
#
#   tools/ci_check.sh [--skip-tsan] [--skip-tidy] [--skip-perf]
#                     [--skip-format] [--skip-soak] [--soak-seconds N]
#                     [--lenient-scaling]
#
# Presets come from CMakePresets.json; build trees land in
# build-<preset>/.  The script is self-gating: sanitizers, clang-format or
# clang-tidy that the toolchain lacks are reported and skipped, everything
# else is fatal (set -e).  The static stage has no toolchain dependency
# (pobp_srclint is built by the tree itself) and always gates.
#
# --lenient-scaling demotes the perf stage's w8-vs-w1 scaling floor to a
# warning (allocation and wall-clock gates stay fatal).  Runners with
# fewer than 8 cores get lenient mode automatically — announced in the
# log, and bench_compare is told via --require-cores 8 so its scaling
# rows are skipped with explicit SKIP lines rather than silently passing
# a weaker gate (see docs/PERF.md).
set -euo pipefail

cd "$(dirname "$0")/.."

SKIP_TSAN=0
SKIP_TIDY=0
SKIP_PERF=0
SKIP_FORMAT=0
SKIP_SOAK=0
SOAK_SECONDS=0
LENIENT_SCALING=0
expect_soak_seconds=0
for arg in "$@"; do
  if [ "$expect_soak_seconds" -eq 1 ]; then
    SOAK_SECONDS="$arg"
    expect_soak_seconds=0
    continue
  fi
  case "$arg" in
    --skip-tsan) SKIP_TSAN=1 ;;
    --skip-tidy) SKIP_TIDY=1 ;;
    --skip-perf) SKIP_PERF=1 ;;
    --skip-format) SKIP_FORMAT=1 ;;
    --skip-soak) SKIP_SOAK=1 ;;
    --soak-seconds) expect_soak_seconds=1 ;;
    --soak-seconds=*) SOAK_SECONDS="${arg#--soak-seconds=}" ;;
    --lenient-scaling) LENIENT_SCALING=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done
if [ "$expect_soak_seconds" -eq 1 ]; then
  echo "--soak-seconds needs a value" >&2; exit 2
fi
if [ "$(nproc)" -lt 8 ] && [ "$LENIENT_SCALING" -eq 0 ]; then
  echo "ci_check: runner has $(nproc) cores (< 8): w8 scaling floor demoted" \
       "to a warning; bench_compare will SKIP scaling rows and demote" \
       "wall-clock rows to WARN (docs/PERF.md)"
  LENIENT_SCALING=1
fi

say() { printf '\n=== %s ===\n' "$*"; }

# True iff the active C++ compiler can link the given -fsanitize= flag.
sanitizer_available() {
  local flag="$1"
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' RETURN
  echo 'int main() { return 0; }' > "$tmp/probe.cpp"
  "${CXX:-c++}" "-fsanitize=$flag" "$tmp/probe.cpp" -o "$tmp/probe" \
    > /dev/null 2>&1
}

run_preset() {
  local preset="$1"
  say "configure + build: $preset"
  cmake --preset "$preset"
  cmake --build --preset "$preset" -j "$(nproc)"
  say "ctest: $preset"
  ctest --preset "$preset"
}

# 1. Warning-clean build (-Werror -Wconversion -Wshadow) + full tests.
run_preset werror

# 2. Release build + tests (the tier-1 configuration).
run_preset release

# 2a. Paper tables: the E4–E6 experiments (EXPERIMENTS.md) print
#     deterministic tables, and their Release output must match the
#     goldens in bench/golden/ byte for byte.  About 4 s in Release; they
#     stay out of ctest, where the sanitizer presets take about a minute
#     each for E4 and E5.
say "paper tables (E4-E6 vs bench/golden)"
for bench in bench_fig4_pobp_lower_bound bench_thm42_price_vs_n \
             bench_thm45_price_vs_P; do
  "build-release/bench/$bench" > "build-release/$bench.txt"
  diff "bench/golden/$bench.txt" "build-release/$bench.txt"
done

# 2b. Perf-regression gate (see docs/PERF.md): run the engine throughput
#     bench and the pooled-stage google-benchmark subset in Release, write
#     BENCH_engine.json / BENCH_runtime.json, and diff them against the
#     checked-in baselines with bench_compare.  Time regresses at > 15%
#     (bench_compare's default tolerance); allocs/op regress strictly —
#     that is the zero-allocation hot-path contract.  The throughput bench
#     additionally enforces absolute floors of the batch engine:
#     ≤ 8 steady-state allocs/solve (strict everywhere), w8 ≥ 3× w1
#     throughput (a warning under lenient scaling — see the flag docs
#     above), and the solve-cache floors (warm-cache ≥ 5× cache-off on a
#     50%-duplicate stream, 0 allocs/op on the hit path — docs/CACHE.md).
#     Refresh baselines with tools/refresh_bench_baselines.sh after an
#     intentional change.
if [ "$SKIP_PERF" -eq 0 ]; then
  say "perf smoke (bench_compare vs bench/baselines)"
  SCALING_FLAGS=()
  if [ "$LENIENT_SCALING" -eq 1 ]; then
    SCALING_FLAGS+=(--lenient-scaling)
  fi
  # Wall-clock tolerance for this stage.  bench_compare defaults to 15%,
  # but here the benches run seconds after two full build+ctest stages, so
  # a loaded single-core runner shows >20% swing on the microsecond-scale
  # metrics.  25% keeps the gate meaningful for real regressions without
  # tripping on scheduler noise; the allocation gates stay strict and the
  # absolute alloc/scaling floors above are unaffected.  On the lenient
  # (< 8 core) runners even 25% is not enough — an identical binary has
  # been measured > 50% slower across runs on a shared single-core VM —
  # so there the wall-clock rows are demoted to explicit WARN lines
  # (--warn-time) and only the deterministic allocation and
  # missing-metric gates stay fatal (docs/PERF.md).
  PERF_TOL=0.25
  COMPARE_FLAGS=(--tol "$PERF_TOL" --require-cores 8)
  if [ "$LENIENT_SCALING" -eq 1 ]; then
    COMPARE_FLAGS+=(--warn-time)
  fi
  # --dup-rate adds the solve-cache experiment (docs/CACHE.md) and its two
  # absolute floors: the warm-cache pass of a 50%-duplicate stream must be
  # >= 5x faster than cache-off, and the warm-hit path must stay at 0
  # allocs/op (the O(1) copy-out contract).  Both are machine-independent
  # enough to gate everywhere: the speedup is a ratio measured on one
  # runner, the allocation count is deterministic.
  build-release/bench/bench_engine_throughput --instances 32 --repeats 2 \
      --json build-release/BENCH_engine.json \
      --gate-allocs 8 --gate-scaling 3 "${SCALING_FLAGS[@]}" \
      --dup-rate 0.5 --gate-cache-speedup 5 --gate-hit-allocs 0
  build-release/bench/bench_runtime \
      --benchmark_filter="$(cat bench/baselines/runtime_filter.txt)" \
      --benchmark_out=build-release/BENCH_runtime.json \
      --benchmark_out_format=json > /dev/null
  build-release/tools/bench_compare "${COMPARE_FLAGS[@]}" \
      bench/baselines/BENCH_engine.json build-release/BENCH_engine.json
  build-release/tools/bench_compare "${COMPARE_FLAGS[@]}" \
      bench/baselines/BENCH_runtime.json build-release/BENCH_runtime.json

  # The end-to-end benchmark (perfbench/, BENCHMARK.json) compiles against
  # the library's stage API and checks every answer it replays, so an API
  # change that breaks it, or a changed answer, fails here rather than at
  # the next benchmark run.  Builds into .bench_build/.
  say "perfbench selftest"
  python3 perfbench/run.py --selftest
else
  say "perf smoke: skipped"
fi

# 2c. Gating static stage: the tree's own source analyzer (POBP-SRC-*
#     rules, docs/LINT.md) over every lintable file.  The base preset
#     exports compile_commands.json, so the pass covers exactly what the
#     build compiles plus the headers found by the directory walk.  Any
#     finding is fatal; suppress at a site with `// POBP-SRC-nnn: reason`.
say "static (pobp_srclint)"
build-release/tools/pobp_srclint --root . \
    --compile-commands build-release/compile_commands.json \
    src tools bench examples

# 3. Sanitizers.  The asan-ubsan ctest run covers the EngineFaults suite
#    (every build compiles the pobp::fault injection sites in); re-run
#    that subset explicitly afterwards as the fault-injection smoke.
if sanitizer_available address; then
  run_preset asan-ubsan
  say "fault-injection smoke (asan-ubsan, EngineFaults.*)"
  build-asan-ubsan/tests/test_engine --gtest_filter='EngineFaults.*'
else
  say "asan-ubsan: sanitizer runtime unavailable, skipped"
fi
if [ "$SKIP_TSAN" -eq 0 ] && sanitizer_available thread; then
  run_preset tsan
else
  say "tsan: skipped"
fi

# 4. clang-format over the tracked sources (uses .clang-format).
#    --dry-run -Werror makes any mis-formatted file fatal.
if [ "$SKIP_FORMAT" -eq 0 ] && command -v clang-format > /dev/null 2>&1; then
  say "clang-format (--dry-run -Werror)"
  git ls-files 'src/*.cpp' 'src/*.hpp' 'tools/*.cpp' 'bench/*.cpp' \
               'examples/*.cpp' 'tests/*.cpp' \
    | xargs clang-format --dry-run -Werror
else
  say "clang-format: unavailable or skipped"
fi

# 5. clang-tidy over the library and tools (uses .clang-tidy; the preset
#    already exported compile_commands.json).  bugprone-* and
#    clang-analyzer-* findings are errors (WarningsAsErrors), so this
#    stage gates when the tool is installed.
if [ "$SKIP_TIDY" -eq 0 ] && command -v clang-tidy > /dev/null 2>&1; then
  say "clang-tidy"
  git ls-files 'src/*.cpp' 'tools/*.cpp' \
    | xargs clang-tidy -p build-release --quiet
else
  say "clang-tidy: unavailable or skipped"
fi

# 6. pobp_lint smoke: the known-bad fixtures must produce error findings
#    (exit 1), a clean artifact must lint clean (exit 0).
say "pobp_lint smoke"
LINT=build-release/tools/pobp_lint
set +e
"$LINT" --jobs tests/data/bad_jobs.csv --schedule tests/data/bad_schedule.csv \
        --k 1 --forest tests/data/bad_forest.csv \
        --selection tests/data/bad_selection.csv
lint_status=$?
set -e
if [ "$lint_status" -ne 1 ]; then
  echo "FAIL: pobp_lint exit $lint_status on bad fixtures (want 1)" >&2
  exit 1
fi
"$LINT" --check-gen --gen-k 1 --gen-K 2 --gen-L 4

# 7. Engine smoke: the throughput bench's determinism check (bit-identical
#    schedules across worker counts) in smoke size, then `pobp batch`
#    end-to-end on a 3-instance manifest — every result must validate and
#    the metrics JSON must be written.
say "engine smoke"
POBP=build-release/tools/pobp
build-release/bench/bench_engine_throughput --smoke
ENGINE_TMP="$(mktemp -d)"
trap 'rm -rf "$ENGINE_TMP"' EXIT
for seed in 31 32 33; do
  "$POBP" generate --out "$ENGINE_TMP/inst$seed.csv" --n 20 --seed "$seed"
  echo "inst$seed.csv" >> "$ENGINE_TMP/manifest.txt"
done
mkdir -p "$ENGINE_TMP/out"
"$POBP" batch --manifest "$ENGINE_TMP/manifest.txt" --k 1 --workers 2 \
        --out-dir "$ENGINE_TMP/out" --metrics-json "$ENGINE_TMP/metrics.json"
test -s "$ENGINE_TMP/metrics.json"
for seed in 31 32 33; do
  "$POBP" validate --jobs "$ENGINE_TMP/inst$seed.csv" \
          --schedule "$ENGINE_TMP/out/inst$seed.sched.csv" --k 1
done

# 8. Fault-containment smoke: a manifest with one good, one corrupt and one
#    missing instance must still solve the good one under --on-error=skip
#    (exit 0) and must fail with the parse exit code (4) under
#    --on-error=fail.
say "batch fault-containment smoke"
"$POBP" batch --manifest tests/data/malformed_manifest.txt --k 1 --quiet \
        --on-error=skip
set +e
"$POBP" batch --manifest tests/data/malformed_manifest.txt --k 1 --quiet \
        --on-error=fail
batch_status=$?
set -e
if [ "$batch_status" -ne 4 ]; then
  echo "FAIL: batch --on-error=fail exit $batch_status on corrupt manifest" \
       "(want 4)" >&2
  exit 1
fi

# 9. Serve smoke: pipe the 100-request JSONL fixture through `pobp serve`
#    on stdin and diff against the checked-in golden frames — parse errors
#    and POBP-RUN-003 budget rejections ride in-band as error frames (exit
#    stays 0).  Run twice (1 and 2 workers) to pin the byte-identical
#    replay contract of docs/SERVING.md in CI.
say "serve smoke (golden replay, workers 1 vs 2)"
"$POBP" serve --workers 1 --quiet < tests/data/serve/requests.jsonl \
        > "$ENGINE_TMP/serve_w1.jsonl"
"$POBP" serve --workers 2 --quiet < tests/data/serve/requests.jsonl \
        > "$ENGINE_TMP/serve_w2.jsonl"
diff -u tests/data/serve/golden_responses.jsonl "$ENGINE_TMP/serve_w1.jsonl"
diff -u "$ENGINE_TMP/serve_w1.jsonl" "$ENGINE_TMP/serve_w2.jsonl"

# 9b. Resilient replay: the same fixture with every resilience knob armed
#     (retry + breaker + watchdog + a generous rate limit) must stay
#     byte-identical to the plain golden frames — the determinism contract
#     of docs/ROBUSTNESS.md — across worker counts.
say "serve smoke (resilient replay, workers 1 vs 8)"
RESILIENT_FLAGS=(--retry 3 --retry-backoff-ms 0.1 --retry-degrade
                 --tenant-rate 1000000 --tenant-burst 1000000
                 --breaker 5 --breaker-cooldown-ms 10 --watchdog-ms 20)
"$POBP" serve --workers 1 --quiet "${RESILIENT_FLAGS[@]}" \
        < tests/data/serve/requests.jsonl > "$ENGINE_TMP/serve_r1.jsonl"
"$POBP" serve --workers 8 --quiet "${RESILIENT_FLAGS[@]}" \
        < tests/data/serve/requests.jsonl > "$ENGINE_TMP/serve_r8.jsonl"
diff -u tests/data/serve/golden_responses.jsonl "$ENGINE_TMP/serve_r1.jsonl"
diff -u "$ENGINE_TMP/serve_r1.jsonl" "$ENGINE_TMP/serve_r8.jsonl"

# 10. Differential chaos soak (docs/ROBUSTNESS.md): a long-running serve
#     loop under fault injection on all five pipeline sites plus
#     IoFuzz-mutated wire frames, with every answer checked against the
#     validators / price bounds and a brute-force k-BAS oracle on small
#     instances.  Prefers the asan-ubsan tree — it memory-checks the
#     soak — and falls back to the release binary (the faults and the
#     differential checks still gate) when sanitizers are unavailable.
#     Default is a 10k-request smoke; --soak-seconds N trades requests
#     for wall-clock (the nightly knob), --skip-soak drops the stage.
#     On a mismatch `pobp chaos` exits 1 and writes a minimized repro
#     under the --repro-dir printed in the failure line.
if [ "$SKIP_SOAK" -eq 0 ]; then
  CHAOS_POBP="$POBP"
  if [ -x build-asan-ubsan/tools/pobp ]; then
    CHAOS_POBP=build-asan-ubsan/tools/pobp
  fi
  if [ "$SOAK_SECONDS" -gt 0 ]; then
    say "chaos soak ($CHAOS_POBP, ${SOAK_SECONDS}s)"
    SOAK_FLAGS=(--seconds "$SOAK_SECONDS")
  else
    say "chaos soak ($CHAOS_POBP, 10000 requests)"
    SOAK_FLAGS=(--requests 10000)
  fi
  "$CHAOS_POBP" chaos "${SOAK_FLAGS[@]}" --seed 20260808 \
      --repro-dir "$ENGINE_TMP/chaos_repro"
else
  say "chaos soak: skipped"
fi

say "all checks passed"
