#!/usr/bin/env bash
# Repo CI: build, full test suite, lints, and the fault-injection smokes
# (sequential ladder and portfolio racing). Prints a per-suite wall-clock
# summary at the end so slow suites are visible in the log.
set -euo pipefail
cd "$(dirname "$0")"

SUITES=()
TIMES=()

run_suite() {
  local name="$1"
  shift
  echo "==> $name"
  local start=$SECONDS
  "$@"
  SUITES+=("$name")
  TIMES+=("$((SECONDS - start))")
}

run_suite "cargo build --release" cargo build --workspace --release
run_suite "cargo test" cargo test --workspace -q
run_suite "cargo clippy" cargo clippy --workspace --all-targets -- -D warnings
# Benchmark self-tests: the stand-alone `benchmark/` package builds against
# the workspace crates, so a crate change that breaks it (for example its
# `pug_serve::json` import or its `obligations.parallel` read) fails here.
run_suite "benchmark self-tests" \
  cargo test --offline -q --manifest-path benchmark/Cargo.toml
run_suite "fault-injection smoke (sequential)" \
  cargo run --release -p pug-bench --bin repro-tables -- --fault-injection --timeout 20
run_suite "fault-injection smoke (portfolio)" \
  cargo run --release -p pug-bench --bin repro-tables -- --portfolio --fault-injection
# Perf smoke: runs multi-obligation equivalence rows through the
# incremental, one-shot, and pooled (obligation parallelism 4) backends,
# exits non-zero if any verdict diverges across the three, and gates each
# row's incremental wall time against the committed baseline (>10% + 50 ms
# slack counts as a regression; rows absent from the quick grid are
# reported, not gated). Also runs the rung-improvement grid (each pair
# through the ladder as is and with the `core::qelim` failpoint armed) and
# exits non-zero unless at least one row's answering rung gets strictly
# stronger with the generalized quantifier elimination, verdicts agreeing.
run_suite "perf smoke + regression gate" \
  cargo run --release -p pug-bench --bin repro-tables -- \
    --bench-json /tmp/bench_pr10_ci.json --quick --timeout 60 \
    --baseline BENCH_pr10.json
# Generalized-qelim smoke: the differential suite proving the checker
# reports identical verdicts with the elimination running and with it
# aborted by an armed `core::qelim` failpoint, across the corpus and a
# fuzzed grid; that the symbolic-stride pair is answered by the fully
# parameterized rung only when the elimination runs; and that the aborted
# elimination degrades to the residual-drop path with correct provenance. Plus the replay gate: every race the checker calls provable
# must carry a schedule this suite independently re-parses and replays.
run_suite "qelim smoke" \
  cargo test -q --test qelim_differential
run_suite "race-replay smoke" \
  cargo test -q --test race_witness_replay
# Obligation-parallel smoke: the differential suite proving the pooled
# per-array screen is bit-identical to the sequential loop — corpus pairs
# at pool widths 2 and 8 on both backends, plus the engagement check that
# a multi-output pair actually forks worker sessions (and that a decisive
# screen falls back to the sequential answer).
run_suite "obligation-parallel smoke" \
  cargo test -q --test obligation_parallel_differential -- \
    pooled_matches_sequential_on_corpus pooled_screen_engages_and_merges_deterministically
# Canonicalization smoke: the differential suite proving normalize-on and
# normalize-off report the same verdicts and outcome classes on the corpus,
# plus the cache-effectiveness regression against the pre-normalization
# baseline (miss counts must not grow, hit rate must improve, and at least
# one obligation must be discharged by rewriting alone).
run_suite "normalize smoke" \
  cargo test -q --test normalize_differential corpus_pairs_agree
run_suite "cache-effectiveness gate" \
  cargo test -q -p pug-bench --test cache_effectiveness
# Observability smoke: one fully traced equivalence check; the JSONL export
# is re-parsed and the span tree structurally validated (balanced opens and
# closes, strictly increasing sequence). Non-zero exit on a broken trace.
run_suite "trace smoke" \
  cargo run --release -p pug-bench --bin repro-tables -- --trace /tmp/pug_trace_ci.jsonl
# Service smoke: starts the pug-serve daemon on an ephemeral port with
# per-job obligation parallelism 2 (weighted admission), runs corpus jobs
# over the wire (including one with an armed runner failpoint), asserts
# verdicts byte-identical to the sequential in-process runner, checks the
# /metrics endpoint, and times a graceful shutdown. Non-zero exit on any
# disagreement or a dirty drain.
run_suite "serve smoke" \
  cargo run --release -p pug-serve -- --smoke

echo
echo "== wall-clock summary"
for i in "${!SUITES[@]}"; do
  printf '%-40s %4ss\n' "${SUITES[$i]}" "${TIMES[$i]}"
done
echo "CI OK"
