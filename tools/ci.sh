#!/usr/bin/env bash
# Local CI: release build + full test suite, sanitizer passes (ASan, UBSan,
# TSan — each pure, in its own build directory), a perf smoke over the
# matching kernels, a multi-core scaling check over the batch dispatch
# pipeline, the gryphon-analyze invariant leg, and the lint leg
# (clang-tidy). See docs/static-analysis.md for the full matrix.
#
#   tools/ci.sh             # release + asan + ubsan + tsan + chaos +
#                           # failover + perf + scaling + churn + analyze +
#                           # lint
#   tools/ci.sh release     # just the release leg
#   tools/ci.sh tsan        # just the ThreadSanitizer leg
#   tools/ci.sh asan ubsan  # any subset, in order
#   tools/ci.sh chaos       # fault-injection + ReliableStream sweep, extra seeds
#   tools/ci.sh failover    # broker-kill/promote sweep under ASan + bench gate
#   tools/ci.sh scaling     # mt_throughput batch-dispatch scaling check
#   tools/ci.sh churn       # covering/delta control-plane churn check
#   tools/ci.sh sim-scale   # parallel sim engine: equivalence + scale sweep
#   tools/ci.sh analyze     # gryphon-analyze self-test + live-tree run
#
# The TSan leg runs the tests labeled `concurrency` (the snapshot /
# worker-pipeline races are what TSan is here to catch); the ASan, UBSan
# and release legs run everything. The perf leg reuses the release build to
# run micro_bench on the compiled-vs-mutable matching pair and the
# compiled-vs-maintained link-matching pair, plus the
# standalone compiled_pst_bench. The bench legs (failover, perf, scaling,
# churn, sim-scale) run their benches inside the leg's build directory, so
# the smoke BENCH_*.json files land there as uploadable artifacts and the
# committed reference files at the repo root stay untouched. The
# analyze leg runs tools/analyze (plane purity, lock order, hot-path
# allocations, protocol exhaustiveness) with its dependency-free fallback
# frontend as the gate, repeats the run on the libclang frontend when
# clang.cindex is importable, and leaves gryphon-analyze-findings.json as
# an uploadable artifact. The lint leg runs clang-tidy when the binary
# exists (any diagnostic fails) and is skipped with a notice otherwise, so
# it degrades gracefully on GCC-only hosts.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
if [[ $# -gt 0 ]]; then
  LEGS=("$@")
else
  LEGS=(release asan ubsan tsan chaos failover perf scaling churn sim-scale analyze lint)
fi

# NOLINT budget enforced alongside clang-tidy (policy in .clang-tidy). The
# tree is currently NOLINT-free; raising this requires a written
# justification next to the new marker.
NOLINT_BUDGET=0

run_analyze() {
  echo "=== [analyze] gryphon-analyze fixture self-test ==="
  python3 tools/test_analyze.py

  echo "=== [analyze] gryphon-analyze over the live tree (fallback frontend) ==="
  python3 tools/analyze/gryphon_analyze.py --root . --frontend fallback \
    --json gryphon-analyze-findings.json

  if python3 -c "import clang.cindex" >/dev/null 2>&1; then
    echo "=== [analyze] gryphon-analyze over the live tree (libclang frontend) ==="
    cmake -B build -S . >/dev/null  # compile_commands.json for the cindex args
    python3 tools/analyze/gryphon_analyze.py --root . --frontend cindex \
      --json gryphon-analyze-findings.json
  else
    echo "=== [analyze] clang.cindex not importable; libclang pass skipped ==="
    echo "    (install python3-clang to run both frontends)"
  fi
  echo "analyze artifact: gryphon-analyze-findings.json"
}

run_lint() {
  echo "=== [lint] configure (compilation database) ==="
  cmake -B build -S . >/dev/null

  echo "=== [lint] NOLINT budget (max $NOLINT_BUDGET) ==="
  local nolints
  nolints=$(grep -rn 'NOLINT(' src/ --include='*.h' --include='*.cpp' | wc -l)
  echo "NOLINT markers in src/: $nolints"
  if (( nolints > NOLINT_BUDGET )); then
    echo "ci.sh: NOLINT budget exceeded ($nolints > $NOLINT_BUDGET)" >&2
    exit 1
  fi

  if command -v clang-tidy >/dev/null 2>&1; then
    echo "=== [lint] clang-tidy over src/ ==="
    local srcs
    mapfile -t srcs < <(find src -name '*.cpp' | sort)
    # --warnings-as-errors in .clang-tidy mirrors Checks: any diagnostic is
    # a non-zero exit. --quiet keeps the output to the diagnostics.
    if command -v run-clang-tidy >/dev/null 2>&1; then
      run-clang-tidy -p build -quiet "${srcs[@]}"
    else
      clang-tidy -p build --quiet "${srcs[@]}"
    fi
  else
    echo "=== [lint] clang-tidy not found; skipping the tidy pass ==="
    echo "    (install clang-tidy to run the full lint leg)"
  fi
}

run_leg() {
  local leg="$1" dir sanitize
  case "$leg" in
    release) dir=build          sanitize=""          ;;
    asan)    dir=build-asan     sanitize="address"   ;;
    ubsan)   dir=build-ubsan    sanitize="undefined" ;;
    tsan)    dir=build-tsan     sanitize="thread"    ;;
    chaos)   dir=build          sanitize=""          ;;
    failover) dir=build-asan    sanitize="address"   ;;
    perf)    dir=build          sanitize=""          ;;
    scaling) dir=build          sanitize=""          ;;
    churn)   dir=build          sanitize=""          ;;
    sim-scale) dir=build        sanitize=""          ;;
    analyze) run_analyze; return ;;
    lint)    run_lint; return ;;
    *)
      echo "ci.sh: unknown leg '$leg' (release|asan|ubsan|tsan|chaos|failover|perf|scaling|churn|sim-scale|analyze|lint)" >&2
      exit 2
      ;;
  esac

  echo "=== [$leg] configure + build ==="
  cmake -B "$dir" -S . -DGRYPHON_SANITIZE="$sanitize" >/dev/null
  cmake --build "$dir" -j "$JOBS"

  if [[ "$leg" == chaos ]]; then
    # Fault-injection sweep (docs/fault-tolerance.md): the chaos suite runs
    # its three baked-in seeds every time; GRYPHON_CHAOS_SEED adds one more
    # per pass, so this leg widens the explored fault schedules on every
    # run while staying reproducible from the log.
    # Run the binary directly: ctest pins --gtest_filter to the test names
    # discovered at build time, which would silently skip the env seed's
    # instantiations. The ReliableStream property test (lossy channel,
    # reconnects, restarts, retention, failover) takes the same extra seed.
    for seed in 11 42 20260806; do
      echo "=== [chaos] fault-injection suite, extra seed $seed ==="
      GRYPHON_CHAOS_SEED="$seed" "$dir/tests/chaos_tests"
      echo "=== [chaos] ReliableStream property test, extra seed $seed ==="
      GRYPHON_CHAOS_SEED="$seed" "$dir/tests/unit_tests" \
        --gtest_filter='*ReliableStreamProperty*'
    done
    return
  fi

  if [[ "$leg" == failover ]]; then
    # Broker-kill failover sweep (docs/fault-tolerance.md § Replication):
    # kill the middle broker of the line mid-run with a hot standby
    # attached, promote it, redial the neighbors, and hold the exactly-once
    # multiset oracle. Runs under ASan so the promotion / log-rebase /
    # identity-takeover paths are watched for lifetime bugs; the five
    # baked-in seeds run in every suite pass and GRYPHON_CHAOS_SEED widens
    # the sweep here (binary run directly, same reason as the chaos leg).
    for seed in 7 1337 20260809; do
      echo "=== [failover] broker-kill/promote sweep, extra seed $seed ==="
      GRYPHON_CHAOS_SEED="$seed" "$dir/tests/chaos_tests" \
        --gtest_filter='*FailoverChaosTest*'
    done
    echo "=== [failover] failover_bench: hot-path delta + promote cost ==="
    # Trimmed point; the bench exits non-zero itself when a trial's
    # redelivered multiset diverges from the retained-delivery oracle.
    (cd "$dir" && ./bench/failover_bench 300 10)
    python3 - "$dir/BENCH_failover.json" <<'PY'
import json, sys
data = json.load(open(sys.argv[1]))
fo = data["failover"]
if not fo["valid"]:
    print(f"[failover] FAIL: {fo['invalid_reason']}", file=sys.stderr)
    sys.exit(1)
print(f"[failover] {fo['trials']} trials: promote p50 "
      f"{fo['promote_p50_us']:.1f} us, first redelivery p50 "
      f"{fo['first_redelivery_p50_us']:.1f} us; publish-path p50 overhead "
      f"{data['publish_path']['p50_overhead_ratio']:.2f}x")
PY
    echo "failover artifact: $dir/BENCH_failover.json"
    return
  fi

  if [[ "$leg" == perf ]]; then
    echo "=== [perf] kernel smoke: micro_bench compiled vs reference kernels ==="
    (cd "$dir" && ./bench/micro_bench \
      --benchmark_filter='PstMatch(Compiled|Mutable)|Link(DispatchCompiled|MatchMaintained)' \
      --benchmark_min_time=0.2 \
      --benchmark_out=BENCH_micro_kernels.json \
      --benchmark_out_format=json)
    echo "=== [perf] kernel smoke: compiled_pst_bench ==="
    # Trimmed point (2k subs, few passes) — the smoke guards against the
    # compiled path regressing below the mutable walk, not absolute numbers;
    # run the binary with no args for the full 10k acceptance measurement.
    (cd "$dir" && ./bench/compiled_pst_bench 2000 500 5)
    echo "=== [perf] dispatch smoke: mt_throughput batch pipeline ==="
    # Trimmed sweep (2k subs, 5 windows of 200ms per point, threads capped
    # at nproc). The regression comparison — no point's speedup_vs_1, a
    # ratio of medians, may fall below 0.9x — is only meaningful on
    # hosts that can run the points in parallel, so it is skipped with a
    # notice whenever the bench reports scaling_valid:false (the JSON then
    # carries results_invalid_reason instead of speedups).
    (cd "$dir" && ./bench/mt_throughput 2000 200 "$(nproc)")
    python3 - "$dir/BENCH_mt_throughput.json" <<'PY'
import json, sys
data = json.load(open(sys.argv[1]))
if not data["scaling_valid"]:
    print(f"[perf] scaling_valid=false, skipping regression comparison: "
          f"{data['results_invalid_reason']}")
    sys.exit(0)
regressed = [p for p in data["results"] if p.get("speedup_vs_1", 1.0) < 0.9]
for p in regressed:
    print(f"[perf] REGRESSION: {p['threads']} threads ran at "
          f"{p['speedup_vs_1']:.2f}x the single-thread median", file=sys.stderr)
sys.exit(1 if regressed else 0)
PY
    echo "perf artifacts: $dir/BENCH_micro_kernels.json $dir/BENCH_compiled_pst.json" \
      "$dir/BENCH_mt_throughput.json"
    return
  fi

  if [[ "$leg" == scaling ]]; then
    # Multi-core scaling acceptance for the batch data plane: the 4-thread
    # median >= 2x the 1-thread median, asserted only where the claim is
    # honest — scaling_valid:true and at least 4 hardware threads. On
    # smaller hosts the leg still runs the sweep (exercising the batch
    # pipeline) but reports why no scaling claim is checked.
    echo "=== [scaling] mt_throughput, threads capped at hardware concurrency ==="
    (cd "$dir" && ./bench/mt_throughput 5000 500 "$(nproc)")
    python3 - "$dir/BENCH_mt_throughput.json" <<'PY'
import json, sys
data = json.load(open(sys.argv[1]))
hw = data["hardware_concurrency"]
if not data["scaling_valid"]:
    print(f"[scaling] no claim checked: {data['results_invalid_reason']}")
    sys.exit(0)
if hw < 4:
    print(f"[scaling] no claim checked: only {hw} hardware threads (need >= 4 "
          f"for the 4-thread acceptance point)")
    sys.exit(0)
point = next((p for p in data["results"] if p["threads"] == 4), None)
if point is None:
    print("[scaling] no 4-thread point in the sweep", file=sys.stderr)
    sys.exit(1)
speedup = point["speedup_vs_1"]  # 4-thread median / 1-thread median
print(f"[scaling] 4 threads: {speedup:.2f}x the single-thread median "
      f"(windows {point['events_per_sec_min']:.0f}-{point['events_per_sec_max']:.0f} ev/s)")
if speedup < 2.0:
    print(f"[scaling] FAIL: expected >= 2.0x at 4 threads, got {speedup:.2f}x",
          file=sys.stderr)
    sys.exit(1)
PY
    return
  fi

  if [[ "$leg" == churn ]]; then
    # Control-plane churn acceptance for the covering/delta work, gated on
    # the statistics that are stable run-to-run:
    #   1. The delta-compile p50 must sit >= 5x below the full-recompile
    #      p50 at the 100k point — a ratio over the identical op sequence
    #      on the same host, valid on any hardware, and far from the
    #      boundary (observed ~75-100x; a broken segment-reuse path
    #      collapses it to ~1x). The p99 ratio is reported (and asserted
    #      >= 5x in the full BENCH_churn.json artifact) but not gated
    #      here: the delta tail is dominated by rare mass-demotion ops,
    #      so a 120-op CI sample puts 3-4x run-to-run noise on it.
    #   2. The full-recompile p50 (the freeze+compile pipeline itself,
    #      stable within a few percent) must not regress >20% over
    #      tools/churn_baseline.json. Absolute latency only compares
    #      within like hardware, so this gate is skipped with a notice
    #      when the host's hardware_concurrency differs from the
    #      baseline's — the same honesty rule as the scaling leg.
    #   3. Bulk load must scale near-linearly: load_seconds at 100k over
    #      load_seconds at 10k must stay <= 20 in both modes. A ratio on
    #      the same host, valid on any hardware. Linear is 10x; 13 runs
    #      on a 4-thread host read 8.4-14.9x. A per-add cost that grows
    #      with the table fails it: a covering index that cloned a
    #      snapshot slice per parked add read 26-37x.
    # Trimmed sweep (10k + 100k points); run churn_bench with no
    # arguments for the full 1M acceptance measurement.
    echo "=== [churn] control-plane churn: covering + delta compilation ==="
    (cd "$dir" && ./bench/churn_bench 100000 60 1.0)
    python3 - "$dir/BENCH_churn.json" <<'PY'
import json, sys
data = json.load(open(sys.argv[1]))
base = json.load(open("tools/churn_baseline.json"))
point = next((s for s in data["sizes"]
              if s["subscriptions"] == base["subscriptions"]), None)
if point is None:
    print(f"[churn] no {base['subscriptions']}-subscription point in the sweep",
          file=sys.stderr)
    sys.exit(1)
full_p50 = point["full"]["compile_p50_us"]
delta_p50 = point["delta"]["compile_p50_us"]
speedup = full_p50 / delta_p50 if delta_p50 > 0 else 0.0
print(f"[churn] {base['subscriptions']} subs: delta compile p50 "
      f"{delta_p50:.0f} us vs full recompile {full_p50:.0f} us "
      f"({speedup:.1f}x; p99 ratio {point['compile_p99_speedup']:.1f}x)")
if speedup < 5.0:
    print(f"[churn] FAIL: delta compile p50 must be >= 5x below the full "
          f"recompile, got {speedup:.1f}x", file=sys.stderr)
    sys.exit(1)
small = next((s for s in data["sizes"] if s["subscriptions"] == 10000), None)
if small is None:
    print("[churn] no 10000-subscription point in the sweep", file=sys.stderr)
    sys.exit(1)
for mode in ("full", "delta"):
    growth = point[mode]["load_seconds"] / small[mode]["load_seconds"]
    print(f"[churn] {mode} load {small[mode]['load_seconds']:.3f} s at 10k, "
          f"{point[mode]['load_seconds']:.3f} s at {base['subscriptions']} "
          f"({growth:.1f}x)")
    if growth > 20.0:
        print(f"[churn] FAIL: {mode} load grew {growth:.1f}x for 10x the "
              f"subscriptions (limit 20x)", file=sys.stderr)
        sys.exit(1)
hw = data["hardware_concurrency"]
if hw != base["hardware_concurrency"]:
    print(f"[churn] absolute-latency regression gate skipped: host has {hw} "
          f"hardware threads, baseline was recorded with "
          f"{base['hardware_concurrency']}")
    sys.exit(0)
limit = base["full_compile_p50_us"] * 1.2
if full_p50 > limit:
    print(f"[churn] REGRESSION: full-recompile p50 {full_p50:.0f} us exceeds "
          f"the baseline {base['full_compile_p50_us']:.0f} us by more than 20%",
          file=sys.stderr)
    sys.exit(1)
print(f"[churn] full-recompile p50 {full_p50:.0f} us within 20% of the "
      f"baseline {base['full_compile_p50_us']:.0f} us")
PY
    echo "churn artifact: $dir/BENCH_churn.json"
    return
  fi

  if [[ "$leg" == sim-scale ]]; then
    # Parallel discrete-event engine acceptance on the reduced (~200 broker)
    # sweep: every (point, protocol) pair must report the serial and
    # parallel engine runs bit-identical (same_outcome over all
    # deterministic SimResult fields) and a clean delivery oracle. The
    # >= 2x parallel speedup claim is asserted only where it is honest —
    # scaling_valid:true, which the bench grants only on hosts with >= 4
    # hardware threads; elsewhere the JSON records the reason instead.
    # The wan-200 link-matching row's annotation bytes must stay within
    # 1.25x of the figure recorded below (only reachable rows are stored).
    # The reduced sweep's simulated outcomes (traffic, steps, latency,
    # oracle verdicts, dynamics counts) must equal the committed
    # tools/sim_scale_ci_outcomes.json: tools/sim_outcome_diff.py exits 1
    # on any outcome, control_plane or steps_exact difference. Its
    # fig6-dynamics point churns subscriptions and links, so the
    # maintained-row route of churning trees is held to it too. A change
    # that must not move any simulated outcome is also checked on the full
    # sweep: regenerate it and run
    #   tools/sim_outcome_diff.py BENCH_sim_scale.json NEW.json
    echo "=== [sim-scale] sim_scale_bench reduced sweep ==="
    # The reduced sweep goes next to the build, not over the committed
    # full-campaign BENCH_sim_scale.json.
    "$dir/bench/sim_scale_bench" --ci --out "$dir/BENCH_sim_scale_ci.json"
    echo "=== [sim-scale] reduced-sweep outcomes against the committed reference ==="
    python3 tools/sim_outcome_diff.py tools/sim_scale_ci_outcomes.json \
      "$dir/BENCH_sim_scale_ci.json"
    python3 - "$dir/BENCH_sim_scale_ci.json" <<'PY'
import json, sys
data = json.load(open(sys.argv[1]))
rows = [(p["name"], r) for p in data["points"] for r in p["protocols"]]
bad_eq = [(n, r["protocol"]) for n, r in rows if not r["serial_parallel_identical"]]
bad_oracle = [(n, r["protocol"]) for n, r in rows
              if r["missing_deliveries"] or r["spurious_deliveries"]
              or r["duplicate_deliveries"]]
for n, proto in bad_eq:
    print(f"[sim-scale] FAIL: serial != parallel at {n}/{proto}", file=sys.stderr)
for n, proto in bad_oracle:
    print(f"[sim-scale] FAIL: delivery oracle violated at {n}/{proto}", file=sys.stderr)
if bad_eq or bad_oracle:
    sys.exit(1)
print(f"[sim-scale] {len(rows)} (point, protocol) runs: serial/parallel identical, "
      f"oracle clean")
# Memory after each build: the resident set, and what the instance
# accounts for of it by component. Subscriptions are held once and
# referenced everywhere else, so their accounted bytes must stay within
# 25% of one copy plus references (subscriptions_floor): a holder that
# keeps its own copy again fails here.
mib = 1024.0 * 1024.0
bad_subs = []
for n, r in rows:
    m = r["memory_bytes"]
    print(f"[sim-scale] {n}/{r['protocol']}: rss {r['build_rss_mb']:.1f} MB, accounted "
          f"{m['total'] / mib:.1f} MB (subscriptions {m['subscriptions'] / mib:.1f}, "
          f"one copy + references {m['subscriptions_floor'] / mib:.1f}, "
          f"trees {m['trees'] / mib:.1f}, kernels {m['kernels'] / mib:.1f}, "
          f"annotations {m['annotations'] / mib:.1f}), unaccounted "
          f"{r['rss_unaccounted_mb']:.1f} MB")
    if m["subscriptions"] > 1.25 * m["subscriptions_floor"]:
        bad_subs.append((n, r["protocol"], m["subscriptions"], m["subscriptions_floor"]))
for n, proto, subs, floor in bad_subs:
    print(f"[sim-scale] FAIL: {n}/{proto} accounts {subs} B of subscriptions, more than "
          f"1.25 x one copy plus references ({floor} B)", file=sys.stderr)
if bad_subs:
    sys.exit(1)
# Link matching stores only the annotation rows a search can reach. The
# reduced sweep's wan-200 link-matching row held 15,139,408 bytes of them
# when the trimmed rows landed (one row per reachable (broker, group,
# node), plus a 12-byte rank block per 64 kernel nodes per group); storing
# every row again, or a wider rank index, fails here.
WAN200_ANNOTATION_BYTES = 15139408
wan = next(p for p in data["points"] if p["name"].startswith("wan"))
lm = next(r for r in wan["protocols"] if r["protocol"] == "link-matching")
annotations = lm["memory_bytes"]["annotations"]
print(f"[sim-scale] {wan['name']} link-matching annotations: {annotations} B "
      f"(recorded {WAN200_ANNOTATION_BYTES} B)")
if annotations > 1.25 * WAN200_ANNOTATION_BYTES:
    print(f"[sim-scale] FAIL: {wan['name']} link-matching holds {annotations} B of "
          f"annotation rows, more than 1.25 x the recorded {WAN200_ANNOTATION_BYTES} B",
          file=sys.stderr)
    sys.exit(1)
if not data["scaling_valid"]:
    print(f"[sim-scale] speedup claim skipped: {data['scaling_reason']}")
    sys.exit(0)
# The gate reads the median over the row's serial/parallel run pairs on
# one built instance (5 in --ci mode): a single 5-9 ms pair is noise-bound.
print(f"[sim-scale] {wan['name']} link-matching: median {lm['speedup']:.2f}x over "
      f"{data['run_pairs']} pairs {lm['pair_speedups']} with "
      f"{data['parallel_threads']} threads")
if lm["speedup"] < 2.0:
    print(f"[sim-scale] FAIL: expected >= 2.0x parallel speedup, got "
          f"{lm['speedup']:.2f}x", file=sys.stderr)
    sys.exit(1)
PY
    echo "sim-scale artifact: $dir/BENCH_sim_scale_ci.json"
    return
  fi

  if [[ "$leg" == asan || "$leg" == ubsan ]]; then
    # The kernel differentials must be in the suite these legs run: the
    # compiled dispatch at every stored row width (8/16/32/64-bit planes
    # and multi-word rows), the reach-list dispatch against the kernel walk
    # and link_match at those widths, all three walks against the byte-form
    # reference, the CRN's annotations without a local-slice table, and the
    # AttributeTest layout round trips. So must the ReliableStream property
    # test and the broker ack-range tests.
    local pattern listed
    for pattern in 'PlaneWidths/CompiledDispatchWidth.*links(8|9|16|17|32|33)_' \
                   'PlaneWidths/ReachDispatch.*links(8|9|16|17|32|33|65|130)_' \
                   'SearchOptions/ReferenceDifferential' \
                   'CompiledAnnotationsHoldNoLocalSliceTable' 'AttributeTestLayout' \
                   'ReliableStreamProperty' 'AckRange'; do
      listed="$(ctest --test-dir "$dir" -N -R "$pattern")"
      if ! grep -q 'Test *#' <<<"$listed"; then
        echo "ci.sh: [$leg] no test matches '$pattern'" >&2
        exit 1
      fi
    done
  fi

  echo "=== [$leg] test ==="
  if [[ "$leg" == tsan ]]; then
    # TSan slows execution ~10x; run only the tests labeled for it.
    TSAN_OPTIONS="halt_on_error=1" \
      ctest --test-dir "$dir" --output-on-failure -L concurrency
  else
    ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
  fi
}

for leg in "${LEGS[@]}"; do
  run_leg "$leg"
done
echo "ci.sh: all legs passed"
