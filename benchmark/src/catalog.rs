//! Every metric the benchmark prints: name, unit, direction, the layer
//! (module) it measures and, for per-layer metrics, which end-to-end
//! metric on which workload it should move. `BENCHMARK.json` lists the
//! same names; the tests hold the two in agreement.

/// One metric's definition.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    pub layer: &'static str,
    /// What a change to this metric should move, and where.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    layer: &'static str,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        layer,
        moves,
    }
}

/// Printed with `--trace 0`, per workload.
pub const END_TO_END: [Metric; 7] = [
    m("setup_s", "s", "lower", "end-to-end", "time before the first verification: kernel loading plus the seeded draw (median over several processes of each one's median set-up)"),
    m("batch_s", "s", "lower", "end-to-end", "one pass over the item list: the sum of its call-to-verdict times, each verification in a fresh process (median over passes)"),
    m("verify_p50_s", "s", "lower", "end-to-end", "median call-to-verdict time per verification"),
    m("verify_tail_s", "s", "lower", "end-to-end", "highest of p90/p99/p99.9 with at least 10 samples beyond it, else the maximum"),
    m("decided_frac", "ratio", "higher", "end-to-end", "verifications answered (verified or bug) out of those attempted"),
    m("param_frac", "ratio", "higher", "end-to-end", "verifications answered by the fully parameterized encoding out of those attempted"),
    m("peak_rss_mb", "MB", "lower", "end-to-end", "peak resident memory (VmHWM) of the process of a pass's largest verification, median over passes"),
];

/// Printed with `--trace 1`, per workload. Times and counts are per pass
/// (mean over the traced passes); set-up metrics are per set-up.
pub const PER_LAYER: [Metric; 32] = [
    m(
        "cuda.load_s",
        "s",
        "lower",
        "cuda",
        "setup_s, all workloads",
    ),
    m(
        "ir.split_s",
        "s",
        "lower",
        "ir",
        "setup_s; expected negligible",
    ),
    m(
        "ir.segments",
        "count",
        "lower",
        "ir",
        "setup_s; expected negligible",
    ),
    m(
        "runner.verify_s",
        "s",
        "lower",
        "runner",
        "batch_s and param_frac on transpose-frontier; verify_p50_s on ladder-mix",
    ),
    m(
        "runner.rungs",
        "count",
        "lower",
        "runner",
        "batch_s and param_frac on transpose-frontier; verify_p50_s on ladder-mix",
    ),
    m(
        "runner.rung_timeouts",
        "count",
        "lower",
        "runner",
        "batch_s and param_frac on transpose-frontier",
    ),
    m(
        "runner.wasted_s",
        "s",
        "lower",
        "runner",
        "batch_s and param_frac on transpose-frontier",
    ),
    m(
        "runner.useful_ratio",
        "ratio",
        "higher",
        "runner",
        "batch_s and param_frac on transpose-frontier",
    ),
    m(
        "runner.overhead_s",
        "s",
        "lower",
        "runner",
        "verify_p50_s on ladder-mix",
    ),
    m(
        "equiv.encode_s",
        "s",
        "lower",
        "equiv",
        "verify_p50_s on ladder-mix and paper-grid",
    ),
    m(
        "equiv.teardown_s",
        "s",
        "lower",
        "equiv",
        "verify_tail_s on paper-grid",
    ),
    m(
        "equiv.queries",
        "count",
        "lower",
        "equiv",
        "verify_p50_s on ladder-mix and paper-grid",
    ),
    m(
        "equiv.prep_s",
        "s",
        "lower",
        "equiv",
        "verify_p50_s on ladder-mix and paper-grid",
    ),
    m(
        "equiv.cache_hits",
        "count",
        "higher",
        "equiv",
        "verify_p50_s on ladder-mix",
    ),
    m(
        "equiv.rewrite_discharged",
        "count",
        "higher",
        "equiv",
        "verify_p50_s on ladder-mix and paper-grid",
    ),
    m(
        "equiv.cache_hit_ratio",
        "ratio",
        "higher",
        "equiv",
        "verify_p50_s on ladder-mix",
    ),
    m(
        "equiv.pool_obligations",
        "count",
        "higher",
        "equiv",
        "verify_p50_s on ladder-mix",
    ),
    m(
        "equiv.pool_overlap_s",
        "s",
        "higher",
        "equiv",
        "verify_p50_s on ladder-mix: query time the obligation pool ran in parallel",
    ),
    m(
        "race.pass_s",
        "s",
        "lower",
        "race",
        "verify_p50_s and batch_s on ladder-mix",
    ),
    m(
        "perf.pass_s",
        "s",
        "lower",
        "perf",
        "verify_p50_s and batch_s on ladder-mix",
    ),
    m(
        "smt.reduce_s",
        "s",
        "lower",
        "smt",
        "verify_tail_s and peak_rss_mb on paper-grid",
    ),
    m(
        "smt.blast_s",
        "s",
        "lower",
        "smt",
        "verify_tail_s and peak_rss_mb on paper-grid",
    ),
    m(
        "smt.cnf_clauses",
        "count",
        "lower",
        "smt",
        "verify_tail_s and peak_rss_mb on paper-grid",
    ),
    m(
        "smt.valid_s",
        "s",
        "lower",
        "smt",
        "verify_tail_s on paper-grid",
    ),
    m(
        "smt.counterexample_s",
        "s",
        "lower",
        "smt",
        "verify_tail_s on paper-grid",
    ),
    m(
        "sat.solve_s",
        "s",
        "lower",
        "sat",
        "batch_s, decided_frac and param_frac on transpose-frontier; no change on ladder-mix",
    ),
    m(
        "sat.conflicts",
        "count",
        "lower",
        "sat",
        "batch_s, decided_frac and param_frac on transpose-frontier",
    ),
    m(
        "sat.propagations",
        "count",
        "lower",
        "sat",
        "batch_s on transpose-frontier",
    ),
    m(
        "sat.vars_eliminated",
        "count",
        "higher",
        "sat",
        "batch_s on transpose-frontier",
    ),
    m(
        "sat.conflicts_per_s",
        "1/s",
        "higher",
        "sat",
        "batch_s, decided_frac and param_frac on transpose-frontier",
    ),
    m(
        "bench.unattributed_s",
        "s",
        "lower",
        "bench",
        "kept small; rises when time lands outside every named layer",
    ),
    m(
        "bench.trace_overhead_s",
        "s",
        "lower",
        "bench",
        "kept small: traced minus untraced batch_s",
    ),
];

/// The per-layer self times that, minus `equiv.pool_overlap_s` and plus
/// `bench.unattributed_s`, sum to the pass wall time. Times summed over
/// pooled obligation workers are busy time, not wall time. Query time inside aux passes is counted in the
/// `equiv.prep_s`/`smt.*`/`sat.*` layers, so `race.pass_s`/`perf.pass_s`
/// are the passes' time outside their queries.
pub const SELF_TIMES: [&str; 9] = [
    "runner.overhead_s",
    "equiv.encode_s",
    "equiv.teardown_s",
    "equiv.prep_s",
    "race.pass_s",
    "perf.pass_s",
    "smt.reduce_s",
    "smt.blast_s",
    "sat.solve_s",
];
