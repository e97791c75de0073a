//! Differential suite for intra-rung obligation parallelism: for every
//! corpus kernel pair and for fuzzed `KernelGen` kernels, checking with a
//! pooled obligation screen (`CheckOptions::with_obligation_parallelism(n)`
//! for n ∈ {2, 8}) must return the same verdict — rendered bit-identically,
//! including bug witnesses — as the plain sequential loop
//! (`CheckOptions::sequential()`), on both the incremental and one-shot
//! backends.
//!
//! Why the contract is this strong: the pooled path only *screens* the
//! per-array obligations concurrently. All-clean screens merge worker
//! effects in array index order; any decisive outcome (bug, timeout,
//! error, worker panic) discards the screen and re-runs the sequential
//! loop on untouched master state — so decisive answers literally *are*
//! sequential answers. The one permitted divergence is the performance
//! class of clean obligations (`valid` vs `valid (cached)`): workers
//! freeze the shared cache for the screen, so a row the sequential loop
//! answers from a same-run cache entry may be re-solved in a pool (and
//! vice versa). Classes are folded accordingly when comparing pooled
//! against sequential; *across pool sizes* even the exact outcome strings
//! must agree, because each array's outcome depends only on the frozen
//! shared state and the array itself, never on scheduling.
//!
//! Failpoints are process-global and this binary's tests run concurrently,
//! so every test takes `FAULT_LOCK` (armed or not).

use pug_ir::GpuConfig;
use pug_obs::MetricsRegistry;
use pug_testutil::KernelGen;
use pugpara::equiv::{check_equivalence_param, CheckOptions, Report};
use pugpara::failpoints::{self, Fault};
use pugpara::runner::{run_resilient, RunnerOptions};
use pugpara::{KernelUnit, Verdict};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Four independent output arrays — the corpus kernels write a single
/// global each, so only multi-output kernels actually fan the per-array
/// obligations across the pool (the single-array cases degenerate to the
/// sequential loop by the `pool_width` cap).
const MULTI_SRC: &str = r#"
__global__ void multi(int *a, int *b, int *c, int *d, int *in, int n) {
    requires(n > 0);
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        a[i] = in[i] * 3;
        b[i] = in[i] + in[i];
        c[i] = in[i] * in[i];
        d[i] = (in[i] + n) * 2;
    }
}
"#;

/// Equivalent rewrite of every array (reassociated / strength-reduced).
const MULTI_EQUIV: &str = r#"
__global__ void multi(int *a, int *b, int *c, int *d, int *in, int n) {
    requires(n > 0);
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        a[i] = in[i] + in[i] + in[i];
        b[i] = in[i] * 2;
        c[i] = in[i] * in[i];
        d[i] = in[i] * 2 + n * 2;
    }
}
"#;

/// Array `c` differs — one pooled obligation turns decisive while its
/// siblings are clean, forcing the discard-and-rerun fallback.
const MULTI_BUGGY: &str = r#"
__global__ void multi(int *a, int *b, int *c, int *d, int *in, int n) {
    requires(n > 0);
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        a[i] = in[i] * 3;
        b[i] = in[i] + in[i];
        c[i] = in[i] * in[i] + 1;
        d[i] = (in[i] + n) * 2;
    }
}
"#;

static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// Serializes tests (failpoints are process-global) and guarantees
/// `failpoints::reset()` on exit.
struct FaultScope(#[allow(dead_code)] MutexGuard<'static, ()>);

impl FaultScope {
    fn armed(sites: &[(&str, Fault)]) -> FaultScope {
        let guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        failpoints::reset();
        for &(site, fault) in sites {
            failpoints::arm(site, fault);
        }
        FaultScope(guard)
    }

    fn clean() -> FaultScope {
        FaultScope::armed(&[])
    }
}

impl Drop for FaultScope {
    fn drop(&mut self) {
        failpoints::reset();
    }
}

fn load(src: &str) -> KernelUnit {
    KernelUnit::load(src).unwrap()
}

fn opts() -> CheckOptions {
    CheckOptions::with_timeout(Duration::from_secs(120))
}

/// Fold the cache-visibility suffix away: pooled workers freeze the shared
/// cache during a screen, so `valid` vs `valid (cached)` may flip against
/// the sequential loop. `valid (rewrite)` is term-level and deterministic,
/// but folds into the same answer class anyway.
fn outcome_class(outcome: &str) -> &'static str {
    match outcome {
        "valid" | "valid (cached)" | "valid (rewrite)" => "valid",
        "counterexample" => "counterexample",
        _ => "timeout",
    }
}

/// Verdicts must match *rendered*, witness bytes included: decisive pooled
/// answers come from a sequential re-run on identical state, so even the
/// countermodel must agree.
fn assert_same_verdict(label: &str, a: &Verdict, b: &Verdict) {
    assert_eq!(
        format!("{a}"),
        format!("{b}"),
        "{label}: pooled and sequential verdicts (incl. witnesses) diverge"
    );
}

fn assert_reports_agree(label: &str, pooled: &Report, sequential: &Report, exact: bool) {
    assert_same_verdict(label, &pooled.verdict, &sequential.verdict);
    assert_eq!(
        pooled.queries.len(),
        sequential.queries.len(),
        "{label}: query counts diverge"
    );
    for (qa, qb) in pooled.queries.iter().zip(sequential.queries.iter()) {
        assert_eq!(qa.label, qb.label, "{label}: query order diverges");
        if exact {
            assert_eq!(
                qa.outcome, qb.outcome,
                "{label}: query `{}` outcome diverges exactly",
                qa.label
            );
        } else {
            assert_eq!(
                outcome_class(&qa.outcome),
                outcome_class(&qb.outcome),
                "{label}: query `{}` class diverges ({} vs {})",
                qa.label,
                qa.outcome,
                qb.outcome
            );
        }
    }
}

fn corpus() -> Vec<(&'static str, KernelUnit, KernelUnit, GpuConfig)> {
    vec![
        (
            "multi-output equivalent",
            load(MULTI_SRC),
            load(MULTI_EQUIV),
            GpuConfig::symbolic_1d(8),
        ),
        (
            "multi-output buggy",
            load(MULTI_SRC),
            load(MULTI_BUGGY),
            GpuConfig::symbolic_1d(8),
        ),
        (
            "transpose ok",
            load(pug_kernels::transpose::NAIVE),
            load(pug_kernels::transpose::OPTIMIZED),
            GpuConfig::symbolic(8),
        ),
        (
            "transpose buggy addr",
            load(pug_kernels::transpose::NAIVE),
            load(pug_kernels::transpose::BUGGY_ADDR),
            GpuConfig::symbolic(8),
        ),
        (
            "transpose unconstrained",
            load(pug_kernels::transpose::NAIVE),
            load(pug_kernels::transpose::OPTIMIZED_UNCONSTRAINED),
            GpuConfig::symbolic(8),
        ),
        (
            "vector_add self",
            load(pug_kernels::vector_add::KERNEL),
            load(pug_kernels::vector_add::KERNEL),
            GpuConfig::symbolic_1d(8),
        ),
        (
            "vector_add buggy",
            load(pug_kernels::vector_add::KERNEL),
            load(pug_kernels::vector_add::BUGGY),
            GpuConfig::symbolic_1d(8),
        ),
    ]
}

#[test]
fn pooled_matches_sequential_on_corpus() {
    let _scope = FaultScope::clean();
    for (label, src, tgt, cfg) in corpus() {
        let seq = check_equivalence_param(&src, &tgt, &cfg, &opts().sequential()).unwrap();
        let seq1 =
            check_equivalence_param(&src, &tgt, &cfg, &opts().sequential().one_shot()).unwrap();
        for pool in [2usize, 8] {
            let p = check_equivalence_param(
                &src,
                &tgt,
                &cfg,
                &opts().with_obligation_parallelism(pool),
            )
            .unwrap();
            assert_reports_agree(&format!("{label} (incremental, pool={pool})"), &p, &seq, false);
            let p1 = check_equivalence_param(
                &src,
                &tgt,
                &cfg,
                &opts().with_obligation_parallelism(pool).one_shot(),
            )
            .unwrap();
            assert_reports_agree(&format!("{label} (one-shot, pool={pool})"), &p1, &seq1, false);
        }
    }
}

#[test]
fn pooled_outcomes_identical_across_pool_sizes() {
    // Stronger than class equality: an array's outcome strings depend only
    // on the frozen shared state and the array itself, so pool widths 2
    // and 8 must agree exactly — including which rows are cached — run
    // after run.
    let _scope = FaultScope::clean();
    for (label, src, tgt, cfg) in corpus() {
        let p2 =
            check_equivalence_param(&src, &tgt, &cfg, &opts().with_obligation_parallelism(2))
                .unwrap();
        let p8 =
            check_equivalence_param(&src, &tgt, &cfg, &opts().with_obligation_parallelism(8))
                .unwrap();
        assert_reports_agree(&format!("{label} (pool 2 vs 8)"), &p2, &p8, true);
        // And the pooled path is self-deterministic across repeated runs.
        let p2b =
            check_equivalence_param(&src, &tgt, &cfg, &opts().with_obligation_parallelism(2))
                .unwrap();
        assert_reports_agree(&format!("{label} (pool 2 repeat)"), &p2, &p2b, true);
    }
}

#[test]
fn pooled_screen_engages_and_merges_deterministically() {
    // Guard against vacuous passes: assert via the metrics registry that
    // the clean multi-output pair actually ran through the pool (sessions
    // forked, arrays screened in parallel, no fallback) and that the buggy
    // pair took the decisive fallback — with verdicts identical to
    // sequential either way.
    let _scope = FaultScope::clean();
    let cfg = GpuConfig::symbolic_1d(8);

    let clean_src = load(MULTI_SRC);
    let clean_tgt = load(MULTI_EQUIV);
    let seq = check_equivalence_param(&clean_src, &clean_tgt, &cfg, &opts().sequential()).unwrap();
    let metrics = MetricsRegistry::new();
    let pooled = check_equivalence_param(
        &clean_src,
        &clean_tgt,
        &cfg,
        &opts().with_obligation_parallelism(4).with_metrics(metrics.clone()),
    )
    .unwrap();
    let snap = metrics.snapshot();
    assert_eq!(snap.gauge("pool.sessions"), Some(4), "pool never forked");
    assert_eq!(snap.counter("obligations.parallel"), 4, "arrays not screened in parallel");
    assert_eq!(snap.counter("obligations.fallback"), 0, "clean screen fell back");
    assert!(pooled.verdict.is_verified(), "{}", pooled.verdict);
    assert_reports_agree("multi-output clean engagement", &pooled, &seq, false);

    let buggy_tgt = load(MULTI_BUGGY);
    let seq_bug =
        check_equivalence_param(&clean_src, &buggy_tgt, &cfg, &opts().sequential()).unwrap();
    let bug_metrics = MetricsRegistry::new();
    let pooled_bug = check_equivalence_param(
        &clean_src,
        &buggy_tgt,
        &cfg,
        &opts().with_obligation_parallelism(4).with_metrics(bug_metrics.clone()),
    )
    .unwrap();
    assert_eq!(
        bug_metrics.snapshot().counter("obligations.fallback"),
        1,
        "decisive screen must discard and re-run sequentially"
    );
    assert!(matches!(pooled_bug.verdict, Verdict::Bug(_)), "{}", pooled_bug.verdict);
    // Decisive answers come from the sequential re-run, so the comparison
    // is exact — witness bytes and cached-vs-solved classes included.
    assert_reports_agree("multi-output buggy fallback", &pooled_bug, &seq_bug, true);
}

#[test]
fn pooled_matches_sequential_on_fuzzed_kernels() {
    let _scope = FaultScope::clean();
    let cfg = GpuConfig::symbolic_1d(8);
    let mut gens: Vec<(String, String)> = Vec::new();
    for seed in 0..8u64 {
        gens.push((format!("extended seed {seed}"), KernelGen::extended(seed).kernel()));
    }
    for seed in 100..106u64 {
        gens.push((format!("basic seed {seed}"), KernelGen::basic(seed).kernel()));
    }
    // Multi-output fuzz: 2–5 independent arrays per kernel, so the pool
    // genuinely fans out (single-`out` grammar kernels cap the width at 1).
    for seed in 200..212u64 {
        let arrays = 2 + (seed as usize % 4);
        gens.push((
            format!("multi extended seed {seed} ({arrays} arrays)"),
            KernelGen::extended(seed).multi_output_kernel(arrays),
        ));
        gens.push((
            format!("multi basic seed {seed} ({arrays} arrays)"),
            KernelGen::basic(seed).multi_output_kernel(arrays),
        ));
    }
    for (label, src) in gens {
        let Ok(unit) = KernelUnit::load(&src) else { continue };
        let Ok(seq) = check_equivalence_param(&unit, &unit, &cfg, &opts().sequential()) else {
            continue; // alignment limits apply to both paths equally
        };
        let pooled =
            check_equivalence_param(&unit, &unit, &cfg, &opts().with_obligation_parallelism(2))
                .unwrap();
        assert_reports_agree(&format!("fuzz {label}\n{src}"), &pooled, &seq, false);
        let wide =
            check_equivalence_param(&unit, &unit, &cfg, &opts().with_obligation_parallelism(8))
                .unwrap();
        assert_reports_agree(&format!("fuzz pool 2 vs 8 {label}\n{src}"), &wide, &pooled, true);
    }
}

#[test]
fn pooled_reduction_concretized_agrees() {
    let _scope = FaultScope::clean();
    let v0 = load(pug_kernels::reduction::V0);
    let v1 = load(pug_kernels::reduction::V1);
    let cfg = GpuConfig::symbolic_1d(8);
    let o = opts().concretized("n", 8);
    let seq = check_equivalence_param(&v0, &v1, &cfg, &o.clone().sequential()).unwrap();
    let pooled =
        check_equivalence_param(&v0, &v1, &cfg, &o.with_obligation_parallelism(4)).unwrap();
    assert_reports_agree("reduction v0/v1 +C", &pooled, &seq, false);
}

#[test]
fn pooled_budget_exhaustion_falls_back_to_sequential_answer() {
    // An injected budget exhaustion inside `smt::check` makes every query
    // answer Unknown. In a pool that is a decisive (timeout) screen, so the
    // master discards it and re-runs sequentially — where the sticky fault
    // reproduces identically. Both paths must report the same timeout at
    // the same first query.
    let _scope = FaultScope::armed(&[("smt::check", Fault::BudgetExhausted)]);
    let (src, tgt) = (load(MULTI_SRC), load(MULTI_EQUIV));
    let cfg = GpuConfig::symbolic_1d(8);
    let seq = check_equivalence_param(&src, &tgt, &cfg, &opts().sequential()).unwrap();
    let metrics = MetricsRegistry::new();
    let pooled = check_equivalence_param(
        &src,
        &tgt,
        &cfg,
        &opts().with_obligation_parallelism(4).with_metrics(metrics.clone()),
    )
    .unwrap();
    assert!(matches!(seq.verdict, Verdict::Timeout), "fault must surface as timeout");
    assert_eq!(
        metrics.snapshot().counter("obligations.fallback"),
        1,
        "exhausted pooled screen must fall back"
    );
    assert_reports_agree("injected budget exhaustion", &pooled, &seq, true);
}

#[test]
fn pooled_worker_panic_rung_still_answers_with_provenance() {
    // A panic inside a pooled obligation unwinds the worker; the screen is
    // decisive, the sequential fallback re-panics identically (failpoints
    // are sticky), and the rung boundary records the crash — exactly the
    // sequential ladder's provenance, rung for rung.
    let _scope = FaultScope::armed(&[("smt::check", Fault::Panic)]);
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let (src, tgt) = (load(MULTI_SRC), load(MULTI_EQUIV));
    let cfg = GpuConfig::symbolic_1d(8);
    let seq = run_resilient(
        &src,
        &tgt,
        &cfg,
        &RunnerOptions::default().with_obligation_parallelism(1),
    );
    let pooled = run_resilient(
        &src,
        &tgt,
        &cfg,
        &RunnerOptions::default().with_obligation_parallelism(4),
    );
    std::panic::set_hook(hook);
    assert_eq!(format!("{}", pooled.verdict), format!("{}", seq.verdict));
    assert_eq!(pooled.provenance.answered_by, seq.provenance.answered_by);
    assert_eq!(pooled.provenance.rungs.len(), seq.provenance.rungs.len());
    for (ra, rb) in pooled.provenance.rungs.iter().zip(seq.provenance.rungs.iter()) {
        assert_eq!(ra.rung, rb.rung);
        assert_eq!(
            std::mem::discriminant(&ra.outcome),
            std::mem::discriminant(&rb.outcome),
            "rung {} outcome kind diverges: {} vs {}",
            ra.rung,
            ra.outcome,
            rb.outcome
        );
    }
}

#[test]
fn pooled_resilient_runner_provenance_agrees() {
    // The full degradation ladder, pooled vs sequential: same verdict,
    // same answering rung, same rung outcomes, same obligations in the
    // same order.
    let _scope = FaultScope::clean();
    let naive = load(pug_kernels::transpose::NAIVE);
    let buggy = load(pug_kernels::transpose::BUGGY_ADDR);
    let cfg = GpuConfig::symbolic_2d(8);

    let seq = run_resilient(
        &naive,
        &buggy,
        &cfg,
        &RunnerOptions::default().with_obligation_parallelism(1),
    );
    let pooled = run_resilient(
        &naive,
        &buggy,
        &cfg,
        &RunnerOptions::default().with_obligation_parallelism(8),
    );

    assert_eq!(format!("{}", pooled.verdict), format!("{}", seq.verdict));
    assert_eq!(pooled.provenance.answered_by, seq.provenance.answered_by);
    assert_eq!(pooled.provenance.rungs.len(), seq.provenance.rungs.len());
    for (ra, rb) in pooled.provenance.rungs.iter().zip(seq.provenance.rungs.iter()) {
        assert_eq!(ra.rung, rb.rung);
        assert_eq!(
            std::mem::discriminant(&ra.outcome),
            std::mem::discriminant(&rb.outcome),
            "rung {} outcome kind diverges: {} vs {}",
            ra.rung,
            ra.outcome,
            rb.outcome
        );
        assert_eq!(ra.stats.len(), rb.stats.len(), "rung {} query counts diverge", ra.rung);
        for (qa, qb) in ra.stats.iter().zip(rb.stats.iter()) {
            assert_eq!(qa.label, qb.label, "rung {} query order diverges", ra.rung);
            assert_eq!(
                outcome_class(&qa.outcome),
                outcome_class(&qb.outcome),
                "rung {} query `{}` class diverges",
                ra.rung,
                qa.label
            );
        }
    }
}
