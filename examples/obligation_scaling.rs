//! Intra-rung obligation parallelism: scale the per-array screen.
//!
//! ```text
//! cargo run --release --example obligation_scaling
//! ```
//!
//! A rung's work inside `check_equivalence_param` is one obligation chain
//! per output array — independent SAT problems over a shared committed
//! prefix. `CheckOptions::with_obligation_parallelism(n)` screens them on
//! `n` pooled worker sessions (each a clause-level replay of the master's
//! prefix CNF) and merges the results deterministically, so the report is
//! bit-identical to `CheckOptions::sequential()`.
//!
//! The corpus pairs (transpose, scalar_product, …) write a *single*
//! global array each, so their pool width caps at 1 and nothing fans out;
//! this example instead times two multiplier-heavy multi-output pairs —
//! four independent value obligations per check, each dominated by a
//! bit-blasted multiplier, the exact shape the pool targets — at widths
//! 1, 2, 4 and 8, printing the wall-clock table and the pool counters.
//!
//! Read the numbers against the host: on a single-core machine the pooled
//! screen time-slices one CPU, so expect parity at best (the point there
//! is the *identical verdict*, asserted below); speedups need real cores.

use pug_ir::GpuConfig;
use pug_obs::MetricsRegistry;
use pugpara::equiv::{check_equivalence_param, CheckOptions};
use pugpara::KernelUnit;
use std::time::{Duration, Instant};

/// Four outputs, each behind a multiplier chain over symbolic inputs.
const QUADS: &str = r#"
__global__ void quads(int *a, int *b, int *c, int *d, int *in, int n) {
    requires(n > 0);
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        a[i] = in[i] * in[i];
        b[i] = in[i] * (in[i] + 1);
        c[i] = (in[i] + n) * (in[i] - n);
        d[i] = in[i] * in[i] * in[i];
    }
}
"#;

/// The same four functions, rewritten (distributed / reassociated) — the
/// solver has to prove each pair of multiplier chains equal.
const QUADS_REWRITTEN: &str = r#"
__global__ void quads(int *a, int *b, int *c, int *d, int *in, int n) {
    requires(n > 0);
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        a[i] = in[i] * in[i];
        b[i] = in[i] * in[i] + in[i];
        c[i] = in[i] * in[i] - n * n;
        d[i] = in[i] * (in[i] * in[i]);
    }
}
"#;

/// Mixed weights: two heavy multiplier arrays next to two trivial ones —
/// the work-stealing schedule has to keep the pool busy anyway.
const MIXED: &str = r#"
__global__ void mixed(int *a, int *b, int *c, int *d, int *in, int n) {
    requires(n > 0);
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        a[i] = in[i] * in[i] * 3;
        b[i] = in[i] + 1;
        c[i] = (in[i] * in[i]) * (n + 2);
        d[i] = in[i];
    }
}
"#;

const MIXED_REWRITTEN: &str = r#"
__global__ void mixed(int *a, int *b, int *c, int *d, int *in, int n) {
    requires(n > 0);
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        a[i] = (in[i] * in[i]) + (in[i] * in[i]) + (in[i] * in[i]);
        b[i] = 1 + in[i];
        c[i] = in[i] * in[i] * n + in[i] * in[i] * 2;
        d[i] = in[i];
    }
}
"#;

fn main() {
    let load = |s: &str| KernelUnit::load(s).unwrap();
    let pairs = [
        ("quads (4 multiplier-heavy arrays)", load(QUADS), load(QUADS_REWRITTEN)),
        ("mixed (2 heavy + 2 trivial arrays)", load(MIXED), load(MIXED_REWRITTEN)),
    ];
    let cfg = GpuConfig::symbolic_1d(8);

    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("host parallelism: {cores} core(s)\n");

    for (name, src, tgt) in &pairs {
        println!("== {name}");
        let mut baseline: Option<(String, f64)> = None;
        for pool in [1usize, 2, 4, 8] {
            let metrics = MetricsRegistry::new();
            let opts = CheckOptions::with_timeout(Duration::from_secs(120))
                .with_obligation_parallelism(pool)
                .with_metrics(metrics.clone());
            let t = Instant::now();
            let report = check_equivalence_param(src, tgt, &cfg, &opts).unwrap();
            let wall = t.elapsed().as_secs_f64();
            let snap = metrics.snapshot();
            let verdict = report.verdict.to_string();

            let speedup = match &baseline {
                None => {
                    baseline = Some((verdict.clone(), wall));
                    "1.00x".to_string()
                }
                Some((base_verdict, base_wall)) => {
                    assert_eq!(
                        &verdict, base_verdict,
                        "pooled verdict diverged from sequential"
                    );
                    format!("{:.2}x", base_wall / wall.max(1e-9))
                }
            };
            println!(
                "  pool={pool}  {wall:>7.2}s  {speedup:>6}  sessions={} parallel={}  -> {verdict}",
                snap.gauge("pool.sessions").unwrap_or(0),
                snap.counter("obligations.parallel"),
            );
        }
        println!();
    }
    println!(
        "every pooled verdict asserted identical to pool=1 — the pooled screen is\n\
         observationally equivalent; width only changes where the time goes."
    );
}
