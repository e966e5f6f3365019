#!/usr/bin/env bash
# The full local CI gate. Run from anywhere; operates on the repo root.
#
#   scripts/ci.sh                    # all stages
#   scripts/ci.sh --fast             # inner-loop gate: stages 0-3 only
#                                    # (2c miri, 2d repeat and 2e
#                                    # perfbench tests skipped; so are
#                                    # 4-6d, the perfbench gate and the
#                                    # CLI/daemon smokes)
#   scripts/ci.sh --self-test-audit  # prove the audit gate can fail:
#                                    # seed a violation, expect exit != 0
#
# Named stages, each fatal on failure, each wall-clock timed (summary
# table at the end):
#   0 fmt    cargo fmt --check (soft-skip with a notice when the
#            rustfmt component is unavailable in the build container)
#   1 build  cargo build --release (every crate, every target — the
#            experiment binaries must at least compile)
#   1b audit pacga-audit, the in-tree invariant analyzer (DESIGN.md §11):
#            rules A1-A7 over crates/, src/ and tests/ (A7 also counts
#            uses in examples/ and perfbench/src), hard fail on any
#            violation; the stage first self-tests by seeding A2, A6 and
#            A7 violations into a temp tree and requiring a non-zero exit
#   1c clippy cargo clippy --workspace --all-targets -- -D warnings
#            (soft-skip with a visible WARN when clippy is unavailable)
#   2 test   cargo test -q (unit + property + integration + doc tests)
#   2b delta delta-oracle differential gate: the incremental-evaluation
#            suites (prop_delta, prop_operators, delta_toggle,
#            stress_fitness), the engine bit pins (engine_pins), the
#            heuristics crate's driver-vs-scan oracle tests, the
#            request decoder's wire pins and fuzz smoke (decode_pins,
#            fuzz_smoke) and the answer encoder's byte pins
#            (protocol::tests::answer_pins_*) re-run under --release,
#            where float codegen differs from debug — bit-identity,
#            including the JSON number fast path's and every answer
#            line's, must hold in the optimized build the benchmarks
#            and production runs actually use
#   2c miri  cargo miri test on the core concurrency subset, time-boxed
#            to 120s (soft-skip with a visible WARN when the miri
#            component is unavailable; skipped under --fast)
#   2d repeat ordering-flake gate: cargo test -q three more times, once
#            with --test-threads=1 and twice with the default; any run
#            that disagrees with the others (pass/fail or per-binary
#            test counts) fails the stage (skipped under --fast)
#   2e perfbench the benchmark package's own tests (perfbench/, a
#            separate Cargo package on the workspace crates), so a crate
#            API change that breaks the benchmark fails here (skipped
#            under --fast)
#   3 doc    cargo doc --no-deps with warnings denied (doc rot fails fast)
#   4 bench  perfbench gate (perfbench/README.md): each of the three
#            workloads runs once at a fixed seed for 1 s from a temp
#            directory and must exit 0 with a result line that reads
#            "correct": true and "failed": 0; serve-mix and stream-storm
#            run again at the same seed, and since both engines run at 1
#            thread there, the second run must repeat the first's input
#            digest line and full-precision makespan_ratio (and, for
#            stream-storm, warm wins / losses and the recovery_evals
#            sum); the stage first self-tests by feeding the verdict
#            synthetic bad result lines and requiring each is rejected
#   5 sweep  `pacga sweep` end-to-end through the portfolio runner
#   6 serve  `pacga serve` boots, `pacga bench-serve` hammers it over
#            loopback (deterministic seed), req/s and cache-hit lines are
#            asserted, and the daemon must drain cleanly on shutdown
#   6b jobs  durable-job gate: the SIGKILL-and-resume integration tests
#            (release build, time-boxed) plus a shell-level
#            `pacga job start → status → stop → archive` lifecycle smoke
#            against a booted daemon with --data-dir
#   6c chaos schedule-stream gate: `pacga chaos` drives a seeded failure
#            storm against a live daemon asserting every invariant after
#            every event, warm-started rescheduling must beat a cold
#            restart on time-to-recover (--assert-warm-wins, burst
#            storm, fixed seed), recovery latency percentiles must be
#            reported, the daemon must drain cleanly, and the
#            SIGKILL-mid-session resume test rides along time-boxed
#   6d corpus persistent-store gate: `pacga corpus build --braun
#            --large` pregenerates a .pacst store (FORMAT.md) of the 12
#            Braun and three 4096x64 instances, a daemon booted with
#            --corpus answers a request cold, drains (carrying every
#            stored record through and persisting the cache), `pacga
#            corpus verify` checks that drain's image, and a
#            *second* daemon on the same store must answer the same
#            digest cached:true on its very first request; the same
#            line again is answered from the seen-line table, the
#            request under another id is a normal hit and then a table
#            hit, so `stats` reads 2 unscanned hits; `pacga
#            corpus verify` re-checks every record CRC and index after
#            the second drain too,
#            and the `corpus ls` instance lines must be identical before
#            and after the two daemons
set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
SELF_TEST_AUDIT=0
for arg in "$@"; do
  case "$arg" in
    --fast) FAST=1 ;;
    --self-test-audit) SELF_TEST_AUDIT=1 ;;
    *) echo "usage: $0 [--fast|--self-test-audit]" >&2; exit 2 ;;
  esac
done

# Seeds known violations into a throwaway tree and requires the
# analyzer to (a) exit non-zero and (b) name each exact file:line rule.
# Proves the audit gate is live — a gate that cannot fail gates nothing.
audit_self_test() {
  local tmp out want
  tmp="$(mktemp -d)"
  mkdir -p "$tmp/crates/service/src" "$tmp/crates/core/src" "$tmp/crates/bench/tests" "$tmp/tests"
  printf 'pub fn f(v: &[u8]) -> u8 { v[0] }\n' >"$tmp/crates/service/src/seeded.rs"
  printf 'pub fn seeded_dead() {}\n' >"$tmp/crates/core/src/seeded.rs"
  printf '#[test]\nfn t() {\n    std::env::set_var("K", "v");\n}\n' \
    >"$tmp/crates/bench/tests/seeded.rs"
  cp "$tmp/crates/bench/tests/seeded.rs" "$tmp/tests/seeded.rs"
  if out="$(target/release/pacga-audit --root "$tmp" 2>&1)"; then
    echo "audit self-test: seeded violations were NOT detected" >&2
    echo "$out" >&2
    rm -rf "$tmp"
    return 1
  fi
  for want in "crates/service/src/seeded.rs:1 A2" "crates/bench/tests/seeded.rs:3 A6" \
    "tests/seeded.rs:3 A6" "crates/core/src/seeded.rs:1 A7"; do
    grep -q "$want" <<<"$out" || {
      echo "audit self-test: expected \"$want\" in the report:" >&2
      echo "$out" >&2
      rm -rf "$tmp"
      return 1
    }
  done
  rm -rf "$tmp"
  echo "audit self-test: seeded A2, A6 and A7 violations detected, exit non-zero, report well-formed"
}

# Stage 4 runs every perfbench workload at this seed for this many
# seconds (perfbench's own minimum sizes still apply).
PERF_SEED=1
PERF_SECONDS=1

# The answers a 1-thread perfbench run fixes for its seed: the input
# digest line, the full-precision makespan_ratio and, for stream-storm,
# the warm-start ledger. Fails when one of them is missing.
perf_answers() {
  local run="$1"
  grep '^  inputs: .* digest ' <<<"$run" || return 1
  tail -n 1 <<<"$run" | grep -o '"makespan_ratio": {"value": [^,}]*' || return 1
  if grep -q '^workload stream-storm' <<<"$run"; then
    grep -o 'warm wins [0-9]* / losses [0-9]*, recovery_evals sum [0-9]*' <<<"$run" || return 1
  fi
}

# Stage 4's verdict over perfbench stdout. Each run given must end in a
# result line that reads "correct": true and "failed": 0; two runs of
# one seed must also agree on every answer in perf_answers.
perf_verdict() {
  local run last first second
  for run in "$@"; do
    last="$(tail -n 1 <<<"$run")"
    grep -q '"correct": true' <<<"$last" && grep -Eq '"failed": 0[,}]' <<<"$last" || {
      echo "perfbench gate: result line not correct or not failure-free: $last" >&2
      return 1
    }
  done
  [[ $# == 2 ]] || return 0
  first="$(perf_answers "$1")" && second="$(perf_answers "$2")" || {
    echo "perfbench gate: a run lacks its input digest, makespan_ratio or stream ledger" >&2
    return 1
  }
  [[ "$first" == "$second" ]] || {
    echo "perfbench gate: two runs of seed $PERF_SEED disagree:" >&2
    diff <(echo "$first") <(echo "$second") >&2 || true
    return 1
  }
}

# Feeds perf_verdict synthetic stream-storm output and requires it to
# reject each bad run or pair and accept a good pair — a gate that
# cannot fail gates nothing.
perf_self_test() {
  local good bad
  good='workload stream-storm
  inputs: 512x16 session, grid 8x8, 10000 evals/event, ls 5, 100 mixed-storm events, digest 0123456789abcdef
  events p50 9.5 ms p90 12.0 ms (n=100), warm wins 61 / losses 39, recovery_evals sum 456789
{"correct": true, "attempted": 100, "failed": 0, "metrics": {"setup_s": {"value": 0.1, "unit": "s"}, "makespan_ratio": {"value": 0.8123456789012345, "unit": "ratio"}}}'
  perf_verdict "$good" "$good" || {
    echo "perf self-test: a good pair was rejected" >&2
    return 1
  }
  for bad in "${good/'"correct": true'/'"correct": false'}" "${good/'"failed": 0'/'"failed": 1'}"; do
    if perf_verdict "$bad" 2>/dev/null; then
      echo "perf self-test: accepted a bad result line: $(tail -n 1 <<<"$bad")" >&2
      return 1
    fi
  done
  for bad in "${good/0.8123456789012345/0.8123456789012346}" "${good/wins 61 \/ losses 39/wins 60 \/ losses 40}"; do
    if perf_verdict "$good" "$bad" 2>/dev/null; then
      echo "perf self-test: accepted two runs of one seed that disagree" >&2
      return 1
    fi
  done
  echo "perf self-test: bad result lines and disagreeing repeats rejected, a good pair accepted"
}

if [[ "$SELF_TEST_AUDIT" == 1 ]]; then
  cargo build --release -q -p pacga_audit
  audit_self_test
  exit 0
fi

PACGA="target/release/pacga"

# Boots `pacga serve --addr 127.0.0.1:0 --workers 2 <serve args…>`
# logging to $SERVE_LOG, and waits for it to announce its address in
# SERVE_ADDR. Port 0: the daemon announces its actual address, so two
# CI runs on one host (or a leftover daemon) can never collide — or
# worse, have a client drive and drain a foreign daemon on a fixed
# port. The first argument prefixes the failure message.
boot_daemon() {
  local what="$1"
  shift
  "$PACGA" serve --addr 127.0.0.1:0 --workers 2 "$@" >"$SERVE_LOG" 2>&1 &
  SERVE_PID=$!
  SERVE_ADDR=""
  for _ in $(seq 1 100); do
    SERVE_ADDR="$(sed -n 's/^pacga serve: listening on \([0-9.:]*\) .*/\1/p' "$SERVE_LOG")"
    [[ -n "$SERVE_ADDR" ]] && return 0
    kill -0 "$SERVE_PID" 2>/dev/null || break
    sleep 0.1
  done
  echo "$what: daemon never announced its address" >&2
  cat "$SERVE_LOG" >&2
  return 1
}

SUMMARY=()
CURRENT=""
STAGE_T0=0
SERVE_PID=""

begin() {
  CURRENT="$1"
  STAGE_T0="$(date +%s)"
  echo
  echo "==> [$1] $2"
}

finish() {
  local dt=$(( $(date +%s) - STAGE_T0 ))
  SUMMARY+=("$(printf '  %-10s %4ds  %s' "$CURRENT" "$dt" "${1:-ok}")")
  CURRENT=""
}

skip() {
  SUMMARY+=("$(printf '  %-10s %4s  %s' "$1" "-" "skipped ($2)")")
}

print_summary() {
  echo
  echo "==> stage summary"
  printf '  %-10s %5s  %s\n' "stage" "time" "status"
  local line
  for line in "${SUMMARY[@]}"; do
    echo "$line"
  done
}

# Runs from the EXIT trap on any non-zero exit, including a check's own
# `exit 1` (which fires no ERR trap): stops the stage's daemon, removes
# the temp paths the stages made (a stage removes its own only on
# success) and prints the stage summary.
on_err() {
  local dt=$(( $(date +%s) - STAGE_T0 ))
  [[ -n "$SERVE_PID" ]] && kill "$SERVE_PID" 2>/dev/null || true
  # Give the daemon up to 5 s to exit before its data dir goes.
  for _ in $(seq 1 50); do
    [[ -n "$SERVE_PID" ]] && kill -0 "$SERVE_PID" 2>/dev/null || break
    sleep 0.1
  done
  # The log goes too, so show it if a daemon was up when the stage failed.
  if [[ -n "$SERVE_PID" && -s "${SERVE_LOG:-}" ]]; then
    echo "==> daemon log:" >&2
    cat "$SERVE_LOG" >&2
  fi
  rm -rf "${PERF_DIR:-}" "${SERVE_LOG:-}" "${JOBS_DIR:-}" "${CHAOS_DIR:-}" "${CORPUS_DIR:-}"
  if [[ -n "$CURRENT" ]]; then
    SUMMARY+=("$(printf '  %-10s %4ds  %s' "$CURRENT" "$dt" "FAILED")")
  fi
  print_summary
  echo "==> CI FAILED${CURRENT:+ in stage $CURRENT}" >&2
}
trap 'status=$?; [[ $status == 0 ]] || on_err' EXIT

begin "0:fmt" "cargo fmt --check"
if cargo fmt --version >/dev/null 2>&1; then
  cargo fmt --check
  finish
else
  echo "NOTICE: rustfmt component unavailable in this container — style gate soft-skipped"
  finish "skipped (no rustfmt)"
fi

begin "1:build" "cargo build --release (all targets)"
cargo build --release --workspace --all-targets
finish

begin "1b:audit" "pacga-audit invariant analyzer (rules A1-A7)"
audit_self_test
target/release/pacga-audit --root .
finish

begin "1c:clippy" "cargo clippy --workspace (-D warnings)"
if cargo clippy --version >/dev/null 2>&1; then
  cargo clippy --workspace --all-targets --quiet -- -D warnings
  finish
else
  echo "WARN: clippy component unavailable in this container — lint wall soft-skipped" >&2
  finish "skipped (no clippy)"
fi

begin "2:test" "cargo test -q (includes service e2e + identity tests)"
cargo test -q --workspace
finish

begin "2b:delta" "delta-oracle differential gate (--release)"
cargo test -q --release -p scheduling --test prop_delta
cargo test -q --release -p heuristics
cargo test -q --release -p pa_cga_core \
  --test prop_operators --test delta_toggle --test stress_fitness \
  --test engine_pins
cargo test -q --release -p pa_cga_service --test decode_pins --test fuzz_smoke
cargo test -q --release -p pa_cga_service --lib answer_pins
finish

if [[ "$FAST" == 1 ]]; then
  skip "2c:miri" "--fast"
else
  begin "2c:miri" "cargo miri test (core concurrency subset, 120s box)"
  if cargo miri --version >/dev/null 2>&1; then
    # Subset only — the highest-UB-risk suites: the vendored rand stub
    # (raw xorshift bit-fiddling), the scheduling property tests (CSR
    # index arithmetic), and the checkpoint round-trip (byte-level
    # parse of untrusted files). Full-suite miri is hours; this box
    # keeps the stage bounded. Timeout (124) is a visible WARN, not a
    # failure — miri throughput varies wildly across hosts and a slow
    # run proves nothing about the code.
    rc=0
    timeout 120 env MIRIFLAGS="-Zmiri-disable-isolation" bash -c '
      cargo miri test -q -p rand --lib &&
      cargo miri test -q -p scheduling --test prop_schedule &&
      cargo miri test -q -p pa_cga_core --test checkpoint_roundtrip
    ' || rc=$?
    if [[ "$rc" == 124 ]]; then
      echo "WARN: miri subset exceeded the 120s box — result inconclusive" >&2
      finish "TIMEOUT (120s box)"
    elif [[ "$rc" != 0 ]]; then
      exit "$rc"
    else
      finish
    fi
  else
    echo "WARN: miri component unavailable on this toolchain — UB gate soft-skipped" >&2
    finish "skipped (no miri)"
  fi
fi

if [[ "$FAST" == 1 ]]; then
  skip "2d:repeat" "--fast"
else
  begin "2d:repeat" "cargo test -q x3 (once --test-threads=1): runs must agree"
  # Each run is reduced to its per-binary "test result" lines (counts
  # only, timings stripped), the names of failed tests, and its exit
  # status; ordering or shared-state flakes show up as a run whose
  # summary differs from the others, naming the test that flaked.
  repeat_summary() {
    local rc=0 out
    out="$(cargo test -q --workspace -- "$@" 2>&1)" || rc=$?
    sed -n -e 's/^test result: \([a-zA-Z]*\)\. \([0-9]* passed; [0-9]* failed\).*/\1 \2/p' \
      -e 's/^---- \(.*\) stdout ----$/failed: \1/p' <<<"$out"
    echo "exit $rc"
  }
  REPEAT_SERIAL="$(repeat_summary --test-threads=1)"
  REPEAT_A="$(repeat_summary)"
  REPEAT_B="$(repeat_summary)"
  if [[ "$REPEAT_SERIAL" != "$REPEAT_A" || "$REPEAT_A" != "$REPEAT_B" ]]; then
    echo "cargo test runs disagree (serial / parallel / parallel):" >&2
    diff <(echo "$REPEAT_SERIAL") <(echo "$REPEAT_A") >&2 || true
    diff <(echo "$REPEAT_A") <(echo "$REPEAT_B") >&2 || true
    false
  fi
  grep -qx "exit 0" <<<"$REPEAT_A" || { echo "cargo test failed in every repeat" >&2; false; }
  echo "3 runs agree: $(grep -c '^ok' <<<"$REPEAT_A") test binaries, all green"
  finish
fi

if [[ "$FAST" == 1 ]]; then
  skip "2e:perfbench" "--fast"
else
  begin "2e:perfbench" "benchmark package tests (perfbench/, --release)"
  cargo test --release --offline --manifest-path perfbench/Cargo.toml
  finish
fi

begin "3:doc" "cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet
finish

if [[ "$FAST" == 1 ]]; then
  skip "4:bench" "--fast"
  skip "5:sweep" "--fast"
  skip "6:serve" "--fast"
  skip "6b:jobs" "--fast"
  skip "6c:chaos" "--fast"
  skip "6d:corpus" "--fast"
  print_summary
  echo "==> CI green (--fast: stages 4-6d skipped)"
  exit 0
fi

begin "4:bench" "perfbench gate: every answer checked, 1-thread answers repeat"
perf_self_test
PERF_DIR="$(mktemp -d)"
PERF_MANIFEST="$PWD/perfbench/Cargo.toml"
# perfbench keeps its per-run state under the directory it starts in.
perf_run() {
  (cd "$PERF_DIR" && cargo run --release --offline --quiet --manifest-path "$PERF_MANIFEST" -- \
    --workload "$1" --seed "$PERF_SEED" --seconds "$PERF_SECONDS" --trace 0) || {
    local rc=$?
    echo "perfbench gate: $1 exited $rc" >&2
    return "$rc"
  }
}
for workload in braun-batch serve-mix stream-storm; do
  first="$(perf_run "$workload")" || { echo "$first"; false; }
  echo "$first"
  perf_verdict "$first"
  # braun-batch runs 2 threads against wall time, so only the 1-thread
  # workloads must repeat their answers.
  if [[ "$workload" != braun-batch ]]; then
    again="$(perf_run "$workload")" || { echo "$again"; false; }
    perf_verdict "$first" "$again"
    echo "==> $workload at seed $PERF_SEED repeated its input digest, makespan_ratio and ledger"
  fi
done
rm -rf "$PERF_DIR"
finish

begin "5:sweep" "pacga sweep smoke (portfolio runner end-to-end)"
SWEEP_OUT="$(cargo run --release -q -p pa-cga-cli -- sweep --braun u_c_hihi --runs 2 --evals 2000 --ls 2)"
echo "$SWEEP_OUT"
grep -q "runs/s" <<<"$SWEEP_OUT" || { echo "sweep smoke produced no throughput line" >&2; exit 1; }
finish

begin "6:serve" "pacga serve + bench-serve load smoke"
SERVE_LOG="$(mktemp)"
boot_daemon "serve smoke"
echo "==> daemon listening on $SERVE_ADDR"
# bench-serve retries the connection internally while the daemon boots.
BENCH_OUT="$("$PACGA" bench-serve --addr "$SERVE_ADDR" --clients 3 --requests 8 \
  --evals 400 --distinct 2 --seed 1 --shutdown)"
echo "$BENCH_OUT"
wait "$SERVE_PID"
SERVE_PID=""
echo "==> daemon log:"
cat "$SERVE_LOG"

rps="$(sed -n 's/^throughput: \([0-9.]*\) req\/s.*/\1/p' <<<"$BENCH_OUT")"
[[ -n "$rps" ]] || { echo "serve smoke: no req/s line" >&2; exit 1; }
awk -v r="$rps" 'BEGIN { exit !(r > 0) }' \
  || { echo "serve smoke: zero throughput ($rps req/s)" >&2; exit 1; }
grep -Eq "p99 [0-9.]+ms" <<<"$BENCH_OUT" \
  || { echo "serve smoke: no latency percentile line" >&2; exit 1; }
hits="$(sed -n 's/^server   : cache \([0-9]*\) hits.*/\1/p' <<<"$BENCH_OUT")"
[[ -n "$hits" && "$hits" -gt 0 ]] \
  || { echo "serve smoke: repeated identical requests produced no cache hits" >&2; exit 1; }
grep -q "drained cleanly" "$SERVE_LOG" \
  || { echo "serve smoke: daemon did not report a clean drain" >&2; exit 1; }
rm -f "$SERVE_LOG"
finish

begin "6b:jobs" "durable jobs: kill-and-resume gate + CLI lifecycle smoke"
# The fault-injection gate: SIGKILL the real daemon mid-job, restart,
# require exact resume. Time-boxed — a hung recovery is a failure, not
# a stall. The jobs e2e suite (lifecycle, stop, drain-resume) rides
# along under the same box.
timeout 300 cargo test -q -p pa_cga_service --test jobs_e2e
timeout 300 cargo test -q -p pa-cga-cli --test job_kill_resume

# Shell-level lifecycle smoke through the actual CLI verbs:
# start → status → stop → (poll to stopped) → archive.
JOBS_DIR="$(mktemp -d)"
SERVE_LOG="$(mktemp)"
boot_daemon "jobs smoke" --data-dir "$JOBS_DIR" --checkpoint-gens 10
echo "==> jobs daemon listening on $SERVE_ADDR (data-dir $JOBS_DIR)"

# A budget far too large to finish on its own: stop must end it.
"$PACGA" job start --addr "$SERVE_ADDR" --job ci-smoke --braun u_c_hihi.0 \
  --gens 50000000 --checkpoint-gens 10 --seed 7 --threads 1 --ls 1 \
  | grep -Eq "state *: *(queued|running|checkpointed)" \
  || { echo "jobs smoke: start did not report a live state" >&2; exit 1; }
"$PACGA" job status --addr "$SERVE_ADDR" --job ci-smoke \
  | grep -q "^job" || { echo "jobs smoke: status unreadable" >&2; exit 1; }
"$PACGA" job stop --addr "$SERVE_ADDR" --job ci-smoke >/dev/null
STOPPED=0
for _ in $(seq 1 100); do
  if "$PACGA" job status --addr "$SERVE_ADDR" --job ci-smoke \
      | grep -Eq "state *: *stopped"; then
    STOPPED=1
    break
  fi
  sleep 0.1
done
[[ "$STOPPED" == 1 ]] || {
  echo "jobs smoke: job never reached stopped after job stop" >&2
  "$PACGA" job status --addr "$SERVE_ADDR" --job ci-smoke >&2 || true
  exit 1
}
"$PACGA" job log --addr "$SERVE_ADDR" --job ci-smoke --tail 5 \
  | grep -q "stop" || { echo "jobs smoke: log missing the stop event" >&2; exit 1; }
ARCHIVE_OUT="$("$PACGA" job archive --addr "$SERVE_ADDR" --job ci-smoke)"
grep -Eq "state *: *archived" <<<"$ARCHIVE_OUT" \
  || { echo "jobs smoke: archive did not confirm: $ARCHIVE_OUT" >&2; exit 1; }
ARCHIVED_TO="$(sed -n 's/^archived to: //p' <<<"$ARCHIVE_OUT")"
[[ -n "$ARCHIVED_TO" && -f "$ARCHIVED_TO/manifest.json" ]] \
  || { echo "jobs smoke: archived dir missing manifest: $ARCHIVED_TO" >&2; exit 1; }

# Drain via the load driver's --shutdown (same path stage 6 exercises).
"$PACGA" bench-serve --addr "$SERVE_ADDR" --clients 1 --requests 1 \
  --evals 200 --seed 1 --shutdown >/dev/null
wait "$SERVE_PID"
SERVE_PID=""
grep -q "drained cleanly" "$SERVE_LOG" \
  || { echo "jobs smoke: daemon did not drain cleanly" >&2; cat "$SERVE_LOG" >&2; exit 1; }
rm -rf "$JOBS_DIR"
rm -f "$SERVE_LOG"
finish

begin "6c:chaos" "schedule-stream gate: chaos storms + warm-start recovery"
# The SIGKILL-mid-session gate first: kill the daemon while a durable
# stream session is live on a held connection, restart, and require
# `pacga chaos --resume` to continue the stream without a seq gap.
timeout 300 cargo test -q -p pa-cga-cli --test stream_kill_resume

CHAOS_DIR="$(mktemp -d)"
SERVE_LOG="$(mktemp)"
boot_daemon "chaos gate" --data-dir "$CHAOS_DIR"
echo "==> chaos daemon listening on $SERVE_ADDR (data-dir $CHAOS_DIR)"

# Leg 1 — the acceptance storm: a failure-dominated burst script with a
# fixed seed, probes off, warm-vs-cold ledger asserted. The CLI exits
# non-zero on any invariant violation OR if cold restarts win overall.
CHAOS_OUT="$("$PACGA" chaos --addr "$SERVE_ADDR" --storm burst \
  --tasks 64 --machines 8 --grid 5 --events 6 --evals 10000 --seed 7 \
  --no-probes --assert-warm-wins)"
echo "$CHAOS_OUT"
grep -q "invariants: held on every event" <<<"$CHAOS_OUT" \
  || { echo "chaos gate: invariant line missing" >&2; exit 1; }
grep -Eq "recovery  : p50 [0-9.]+ms, p99 [0-9.]+ms" <<<"$CHAOS_OUT" \
  || { echo "chaos gate: no recovery latency percentiles" >&2; exit 1; }

# Leg 2 — a mixed storm with the malformed/out-of-order probe battery
# on, through a durable session, draining the daemon on the way out.
CHAOS_OUT="$("$PACGA" chaos --addr "$SERVE_ADDR" --storm mixed \
  --tasks 48 --machines 6 --grid 4 --events 8 --evals 2000 --seed 3 \
  --session ci-chaos --shutdown)"
echo "$CHAOS_OUT"
grep -q "invariants: held on every event" <<<"$CHAOS_OUT" \
  || { echo "chaos gate: probe leg violated invariants" >&2; exit 1; }
grep -Eq "[1-9][0-9]* probes rejected with typed errors" <<<"$CHAOS_OUT" \
  || { echo "chaos gate: probe battery did not run" >&2; exit 1; }
[[ -f "$CHAOS_DIR/sessions/ci-chaos/session.json" ]] \
  || { echo "chaos gate: durable session not persisted" >&2; exit 1; }
wait "$SERVE_PID"
SERVE_PID=""
grep -q "drained cleanly" "$SERVE_LOG" \
  || { echo "chaos gate: daemon did not drain cleanly" >&2; cat "$SERVE_LOG" >&2; exit 1; }
rm -rf "$CHAOS_DIR"
rm -f "$SERVE_LOG"
finish

begin "6d:corpus" "corpus store: build → warm-restart cache hit → verify"
CORPUS_DIR="$(mktemp -d)"
CORPUS="$CORPUS_DIR/ci.pacst"

BUILD_OUT="$("$PACGA" corpus build --braun --large --out "$CORPUS")"
echo "$BUILD_OUT"
grep -q "wrote 15 instance(s)" <<<"$BUILD_OUT" \
  || { echo "corpus gate: build did not report the Braun grid and large classes" >&2; exit 1; }
INST_BEFORE="$("$PACGA" corpus ls --corpus "$CORPUS" | grep '^  inst ')"
grep -q "u_c_hihi.0" <<<"$INST_BEFORE" \
  || { echo "corpus gate: ls missing a Braun instance" >&2; exit 1; }
grep -q "l_i_hihi.4096x64 *4096x64" <<<"$INST_BEFORE" \
  || { echo "corpus gate: ls missing a 4096x64 instance" >&2; exit 1; }

# One JSON-lines exchange over raw TCP: send a request, read one reply.
corpus_rpc() {
  local req="$1" resp
  exec 3<>"/dev/tcp/${SERVE_ADDR%:*}/${SERVE_ADDR##*:}"
  printf '%s\n' "$req" >&3
  IFS= read -r resp <&3
  exec 3<&- 3>&-
  printf '%s' "$resp"
}

REQ='{"type":"schedule","etc":[[1,2],[2,1],[3,1]],"evals":400,"seed":11,"threads":1}'

# Daemon 1: cold — the store holds instances but no best record yet.
SERVE_LOG="$(mktemp)"
boot_daemon "corpus gate" --corpus "$CORPUS"
echo "==> corpus daemon 1 listening on $SERVE_ADDR"
RESP="$(corpus_rpc "$REQ")"
echo "cold: $RESP"
grep -q '"cached":false' <<<"$RESP" \
  || { echo "corpus gate: first-ever request must be uncached" >&2; exit 1; }
corpus_rpc '{"type":"shutdown"}' >/dev/null
wait "$SERVE_PID"
SERVE_PID=""
grep -q "1 persisted" "$SERVE_LOG" \
  || { echo "corpus gate: drain did not persist the cache" >&2; cat "$SERVE_LOG" >&2; exit 1; }
rm -f "$SERVE_LOG"
# Verify the image this drain wrote before the next daemon reads it, so
# a bad image is pinned to the drain that made it.
VERIFY_OUT="$("$PACGA" corpus verify --corpus "$CORPUS")"
echo "$VERIFY_OUT"
grep -q "OK" <<<"$VERIFY_OUT" \
  || { echo "corpus gate: verify failed after the first drain" >&2; exit 1; }

# Daemon 2: a fresh process on the same store. The very first request
# after the cold restart must be a cache hit — the tentpole's promise.
SERVE_LOG="$(mktemp)"
boot_daemon "corpus gate" --corpus "$CORPUS"
echo "==> corpus daemon 2 listening on $SERVE_ADDR"
RESP="$(corpus_rpc "$REQ")"
echo "warm: $RESP"
grep -q '"cached":true' <<<"$RESP" \
  || { echo "corpus gate: restart lost the memoized answer" >&2; exit 1; }
# The first warm request entered its line into the seen-line table, so
# the same line again is answered from it (no decode, no digest). Under
# another id it is another line: a normal hit that enters it, then a
# table hit. Every answer must equal the first warm one apart from id.
WARM="$(sed 's/"id":[^,]*,//' <<<"$RESP")"
REQ_ID="${REQ%\}},\"id\":\"again\"}"
for AGAIN in "$REQ" "$REQ_ID" "$REQ_ID"; do
  RESP2="$(corpus_rpc "$AGAIN")"
  echo "again: $RESP2"
  [[ "$(sed 's/"id":[^,]*,//' <<<"$RESP2")" == "$WARM" ]] \
    || { echo "corpus gate: a repeated request answered differently" >&2; exit 1; }
done
STATS="$(corpus_rpc '{"type":"stats"}')"
grep -q '"unscanned_hits":2,"known_lines":2,' <<<"$STATS" \
  || { echo "corpus gate: expected 2 unscanned hits on 2 known lines: $STATS" >&2; exit 1; }
corpus_rpc '{"type":"shutdown"}' >/dev/null
wait "$SERVE_PID"
SERVE_PID=""
rm -f "$SERVE_LOG"

VERIFY_OUT="$("$PACGA" corpus verify --corpus "$CORPUS")"
echo "$VERIFY_OUT"
grep -q "OK" <<<"$VERIFY_OUT" \
  || { echo "corpus gate: verify failed after the second drain" >&2; exit 1; }
LS_AFTER="$("$PACGA" corpus ls --corpus "$CORPUS")"
grep -q "1 best record(s)" <<<"$LS_AFTER" \
  || { echo "corpus gate: persisted best record missing from ls" >&2; exit 1; }
[[ "$(grep '^  inst ' <<<"$LS_AFTER")" == "$INST_BEFORE" ]] \
  || { echo "corpus gate: the drains changed the instance records" >&2; exit 1; }
rm -rf "$CORPUS_DIR"
finish

print_summary
echo "==> CI green"
