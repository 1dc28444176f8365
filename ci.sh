#!/usr/bin/env bash
# Full local gate, in the order a reviewer would want failures surfaced:
# formatting first (cheapest), then the lint gates, then the test suite.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo run -p xtask -- lint"
cargo run -q -p xtask -- lint

# The dependency direction: the `sachi` binary (CLI and daemon) links
# only what a solve runs, never the harness crate and its reference
# models.
echo "==> sachi-cli does not depend on sachi-bench"
CLI_DEPS=$(cargo tree --offline -p sachi-cli -e normal --prefix none)
if grep -q '^sachi-bench ' <<<"$CLI_DEPS"; then
  echo "sachi-cli depends on sachi-bench:" >&2
  echo "$CLI_DEPS" >&2
  exit 1
fi

# Token-level determinism / panic-reachability / overflow-audit pass.
# The --budget-ms gate keeps the analyzer honest about its own cost: the
# whole workspace must lex, parse, and graph-walk in under 5 seconds.
echo "==> cargo run -p xtask -- analyze (budget 5s)"
cargo run -q -p xtask -- analyze --budget-ms 5000

# The machine-readable surface: --json must emit a valid
# sachi.analyze.v1 document even on a clean tree.
echo "==> cargo run -p xtask -- analyze --json | xtask validate-analysis"
cargo run -q -p xtask -- analyze --json 2>/dev/null \
  | cargo run -q -p xtask -- validate-analysis

echo "==> cargo test -q"
cargo test -q --workspace

# The builders' index arithmetic and saturating folds must also hold
# with overflow checks and debug_assert! compiled out: rerun the builder
# oracle, the build-identity table and the kernel/oracle equivalence in
# release.
echo "==> cargo test --release (builders, build identity, plane equivalence)"
cargo test --release -q --test builder_oracle --test build_identity --test plane_equivalence

# The ensemble determinism contract must hold with the worker pool to
# itself and under heavy harness contention: run the suite serially and
# with 8 concurrent test threads.
echo "==> ensemble determinism (--test-threads=1)"
cargo test -q --test ensemble_determinism -- --test-threads=1

echo "==> ensemble determinism (--test-threads=8)"
cargo test -q --test ensemble_determinism -- --test-threads=8

# Replica ensembles in the figure harnesses: fig17 asserts identical
# results at every thread count for plain and replica-exchange
# ensembles; fig16 runs plain and tempered SACHI(n3) ensembles per COP.
echo "==> fig17_scalability --threads 2"
cargo run -q --release -p sachi-bench --bin fig17_scalability -- --threads 2
echo "==> fig16_solvers --threads 2"
cargo run -q --release -p sachi-bench --bin fig16_solvers -- --threads 2

# Fast fault-injection sweep: asserts the zero-rate identity and the
# thread-count independence of the fault stream on a small instance.
echo "==> disc_faults --smoke"
cargo run -q -p sachi-bench --bin disc_faults -- --smoke

# Kernel/sweep equality tripwire: asserts H equality between the scalar
# oracle and the SoA production kernel, and that the kernel's discharges
# plus the schedule's static events equal the oracle's counters, on the
# dense acceptance tuple, a King's-graph sweep, and a dense sweep — that banked multi-round
# sweeps keep the H trajectory and compute cycles bit-identical, that
# the memoised annealer decision makes the exp-per-decision reference's
# decisions, that `decide_update` makes the pre-memo rule's decisions,
# uphill counts and next RNG draw on the recorded (σ, H_σ) streams of
# md 8192 and the serve-small families, that every resident tempered segment returns a fresh
# machine's (SolveResult, RunReport) with its energy equal to H of its
# spins, that the build row's problems hash to their entries in the
# build-identity table, and that the writeback row's update path holds
# the per-tuple reference's sums after every flip (timing ratios are
# only gated in the full run).
echo "==> perf_kernels --smoke"
cargo run -q -p sachi-bench --bin perf_kernels -- --smoke

# End-to-end benchmark: perf_e2e is its own package (outside the
# workspace), so its unit tests need their own leg. The smoke run drives
# every workload through the real `sachi solve` / `sachi serve` binaries
# with a tenth of the jobs and exits non-zero on any incorrect job.
# Building perf_e2e must leave its files as committed: a new dependency
# edge between workspace crates makes cargo rewrite its Cargo.lock.
PERF_E2E_STATUS=$(git status --porcelain -- crates/bench/src/bin/perf_e2e)

echo "==> perf_e2e unit tests"
cargo test -q --manifest-path crates/bench/src/bin/perf_e2e/Cargo.toml

echo "==> perf_e2e run.sh --smoke"
bash crates/bench/src/bin/perf_e2e/run.sh --smoke

# The traced smoke replays every job layer by layer and fails a job whose
# replay diverges from the machine, whose traced ensemble disagrees with
# the solo run, or whose knockout layers exceed the machine's time.
echo "==> perf_e2e run.sh --trace 1 --smoke"
bash crates/bench/src/bin/perf_e2e/run.sh --trace 1 --smoke

echo "==> perf_e2e files unchanged by its build"
if [ "$(git status --porcelain -- crates/bench/src/bin/perf_e2e)" != "$PERF_E2E_STATUS" ]; then
  echo "building perf_e2e changed its files:" >&2
  git status --porcelain -- crates/bench/src/bin/perf_e2e >&2
  git diff -- crates/bench/src/bin/perf_e2e >&2
  exit 1
fi

# Model drift report: asserts the closed-form PerfModel reproduces the
# functional machine's metered compute, load and total cycles exactly,
# and its rwl/adder/decision/annealer/dram/dram-ctrl energy exactly, on
# uniform-degree graphs — banked multi-round sweeps and one- and
# multi-round DRAM streaming included. Its baseline legs hold BRIM's and
# Ising-CIM's machine reports to their price fed the shape's counts:
# cycles and every energy component exact. The full run adds what the
# smoke skips: complete(64), (128) and (256), bank counts 2 and 8,
# ring(256) streaming from DRAM and the 64x64 torus.
echo "==> disc_drift --smoke"
cargo run -q -p sachi-bench --bin disc_drift -- --smoke
echo "==> disc_drift"
cargo run -q -p sachi-bench --bin disc_drift

# One sweep protocol: every machine `compare` prints (the four SACHI
# designs, and BRIM and Ising-CIM when their envelopes admit the
# problem) runs the shared sweep driver, so each row's H and iters must
# equal the `CPU golden` row's. `compare` runs the job `solve` runs, so
# the same holds for a tempered replica ensemble's best replica.
every_row_matches_golden() {
  local rows=$1
  shift
  echo "==> sachi compare $* (every machine row matches CPU golden)"
  local table
  table=$(cargo run -q -p sachi-cli --bin sachi -- compare "$@")
  echo "$table"
  awk -v rows="$rows" '
    /^-+$/ { table = 1; next }
    !table { next }
    $1 == "CPU" && $2 == "golden" { gh = $3; gi = $4; next }
    { n++; name[n] = $1; h[n] = $2; it[n] = $3 }
    END {
      if (gh == "" || n < rows) {
        printf "compare: want a CPU golden row and >= %d machine rows, got %d\n", rows, n > "/dev/stderr"
        exit 1
      }
      for (k = 1; k <= n; k++) {
        if (h[k] != gh || it[k] != gi) {
          printf "compare: %s H=%s iters=%s, CPU golden H=%s iters=%s\n", \
            name[k], h[k], it[k], gh, gi > "/dev/stderr"
          bad = 1
        }
      }
      exit bad
    }' <<<"$table"
}
every_row_matches_golden 5 --cop md --size 64
every_row_matches_golden 4 --cop sat --size 20 --restarts 3 --tempering

# Observability smoke: a real solve's --metrics json snapshot must pass
# the sachi.metrics.v1 schema validation, including counter coverage of
# every subsystem (sram/l1/dram/machine/solver/recovery).
echo "==> sachi solve --metrics json | xtask validate-metrics"
cargo run -q -p sachi-cli --bin sachi -- \
  solve --cop md --size 64 --restarts 2 --metrics json --trace-phases \
  | cargo run -q -p xtask -- validate-metrics

# A tempered rung's report merges one solve per exchange segment; its
# phase trace must still read as one ordered timeline (the validator
# rejects spans that step back in cycle or sweep, or leave their round).
echo "==> sachi solve --tempering --trace-phases --metrics json | xtask validate-metrics"
cargo run -q -p sachi-cli --bin sachi -- \
  solve --cop sat --size 20 --restarts 2 --tempering --trace-phases --metrics json \
  | cargo run -q -p xtask -- validate-metrics

# Solution-quality gate: the one-cell-per-family smoke subset of the
# seeded corpus (3-SAT, coloring, scheduling) must stay within the
# stated tolerances of the committed BENCH_quality.json — including the
# replica-exchange (+pt) twins, which must also match or beat the
# independent-restart best energy at an equal sweep budget in every
# (cell, design) pair (the tempering dominance gate, enforced inside
# disc_quality) — and the committed baseline itself must pass
# sachi.quality.v1 schema + coverage + tempered-twin pairing checks.
echo "==> disc_quality --smoke"
cargo run -q -p sachi-bench --bin disc_quality -- --smoke

echo "==> xtask validate-quality BENCH_quality.json"
cargo run -q -p xtask -- validate-quality BENCH_quality.json

# Daemon smoke: start `sachi serve`, then assert the protocol contract
# end to end — a daemon-solved job is byte-identical to the one-shot
# CLI (multi-tenant determinism), malformed input answers code 2,
# over-limit jobs answer code 5, /metrics is valid Prometheus text,
# and shutdown drains cleanly (daemon exits 0).
echo "==> sachi serve e2e smoke"
cargo build -q -p sachi-cli
SACHI=target/debug/sachi
PORT=17853
"$SACHI" serve --port "$PORT" --threads 2 --queue-depth 4 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
for _ in $(seq 1 50); do
  if "$SACHI" submit --addr "127.0.0.1:$PORT" --ping >/dev/null 2>&1; then
    break
  fi
  sleep 0.1
done
"$SACHI" submit --addr "127.0.0.1:$PORT" --ping

# Both front ends print the one renderer's report of the one response
# body, so their whole stdout must match byte for byte. The reference
# must hold a result line, so two empty outputs cannot pass.
REPORTS=$(mktemp -d)
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -rf "$REPORTS"' EXIT
same_report() {
  local what=$1
  if ! grep -q '^result  : H = ' "$REPORTS/$what.solve"; then
    echo "serve smoke: $what one-shot report has no result line" >&2
    exit 1
  fi
  if ! cmp -s "$REPORTS/$what.solve" "$REPORTS/$what.submit"; then
    echo "serve smoke: $what daemon report diverged from one-shot CLI" >&2
    diff "$REPORTS/$what.solve" "$REPORTS/$what.submit" >&2 || true
    exit 1
  fi
  echo "serve smoke: $what daemon report matches one-shot CLI byte for byte"
}

JOB=(--cop sat --size 12 --seed 9 --restarts 3 --step-budget 60000)
"$SACHI" solve "${JOB[@]}" >"$REPORTS/plain.solve"
# A co-tenant job runs concurrently so the determinism check exercises
# real replica interleaving on the shared pool, not an idle daemon.
"$SACHI" submit --addr "127.0.0.1:$PORT" \
  --cop md --size 24 --seed 4 --restarts 2 --step-budget 200000 \
  >/dev/null &
COTENANT_PID=$!
"$SACHI" submit --addr "127.0.0.1:$PORT" "${JOB[@]}" >"$REPORTS/plain.submit"
wait "$COTENANT_PID"
same_report plain

# The daemon harvests each job's registry, the one `sachi solve
# --metrics` prints, so the first jobs' compute-array (l1_) counters
# are already on /metrics.
"$SACHI" submit --addr "127.0.0.1:$PORT" --fetch-metrics >"$REPORTS/first.prom"
cargo run -q -p xtask -- validate-exposition <"$REPORTS/first.prom"
if ! grep -q '^# TYPE sachi_l1_[a-z0-9_]* counter$' "$REPORTS/first.prom"; then
  echo "serve smoke: /metrics has no sachi_l1_ counter after the first job" >&2
  exit 1
fi
echo "serve smoke: /metrics carries the first job's l1_ counters"

# Same contract for a replica-exchange job: the coupled rungs must be
# byte-identical between the daemon's shared pool and the one-shot CLI.
PTJOB=(--cop sat --size 12 --seed 9 --restarts 3 --step-budget 60000
       --tempering --ladder adaptive)
"$SACHI" solve "${PTJOB[@]}" >"$REPORTS/tempered.solve"
"$SACHI" submit --addr "127.0.0.1:$PORT" "${PTJOB[@]}" >"$REPORTS/tempered.submit"
same_report tempered

set +e
"$SACHI" submit --addr "127.0.0.1:$PORT" --raw 'this is not json' >/dev/null 2>&1
CODE_PARSE=$?
"$SACHI" submit --addr "127.0.0.1:$PORT" \
  --cop md --size 8 --restarts 2 --step-budget 999999999 >/dev/null 2>&1
CODE_LIMIT=$?
set -e
if [ "$CODE_PARSE" -ne 2 ] || [ "$CODE_LIMIT" -ne 5 ]; then
  echo "serve smoke: wrong protocol codes (parse=$CODE_PARSE want 2, limit=$CODE_LIMIT want 5)" >&2
  exit 1
fi
echo "serve smoke: typed refusals answer codes 2 and 5"

# A body nested far past the JSON decoder's depth bound is a code-2
# refusal, not a stack overflow that takes the daemon down.
set +e
"$SACHI" submit --addr "127.0.0.1:$PORT" --raw "$(printf '[%.0s' $(seq 1 100000))" \
  >/dev/null 2>&1
CODE_DEEP=$?
set -e
if [ "$CODE_DEEP" -ne 2 ]; then
  echo "serve smoke: deeply nested body answered code $CODE_DEEP (want 2)" >&2
  exit 1
fi
"$SACHI" submit --addr "127.0.0.1:$PORT" --ping >/dev/null
echo "serve smoke: deeply nested body answers code 2 and the daemon keeps serving"

# Jobs outside the machine's range are refused with code 2 by both
# front ends, and a refused job leaves its admission slot free: four
# out-of-range requests against a queue depth of 4, then a valid job.
set +e
CODES=""
for ARGS in "solve --cop md --size 0" "solve --cop md --size 16 --resolution 33" \
            "submit --addr 127.0.0.1:$PORT --fault-ber 2.0"; do
  # shellcheck disable=SC2086
  "$SACHI" $ARGS >/dev/null 2>&1
  CODES="$CODES $?"
done
for _ in 1 2 3 4; do
  "$SACHI" submit --addr "127.0.0.1:$PORT" \
    --raw '{"op":"solve","job":{"cop":"md","size":16,"resolution":40}}' >/dev/null 2>&1
  CODES="$CODES $?"
done
set -e
if [ "$CODES" != " 2 2 2 2 2 2 2" ]; then
  echo "serve smoke: out-of-range jobs answered codes$CODES (want 2 each)" >&2
  exit 1
fi
"$SACHI" submit --addr "127.0.0.1:$PORT" "${JOB[@]}" >/dev/null
echo "serve smoke: out-of-range jobs answer code 2 and the daemon keeps admitting"

"$SACHI" submit --addr "127.0.0.1:$PORT" --fetch-metrics \
  | cargo run -q -p xtask -- validate-exposition

"$SACHI" submit --addr "127.0.0.1:$PORT" --shutdown
wait "$SERVE_PID"
rm -rf "$REPORTS"
trap - EXIT
echo "serve smoke: daemon drained cleanly"

echo "ci: all gates passed"
