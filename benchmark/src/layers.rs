//! Per-layer attribution for the traced run, measured from outside the
//! program: the benchmark's own spans around each public call give call
//! and pass wall times, and the reports those calls return give the
//! split inside them (`Report.queries[].stats`, `Provenance.rungs[]`,
//! `Provenance.passes[]`).

use crate::catalog::SELF_TIMES;
use pug_obs::{EventKind, TraceEvent};
use pugpara::equiv::QueryStat;
use pugpara::runner::{ResilientReport, RungOutcome};
use pugpara::Report;
use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

/// Running sums keyed by metric name (plus two internal keys).
#[derive(Default)]
pub struct Tally(BTreeMap<&'static str, f64>);

impl Tally {
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.0.entry(key).or_insert(0.0) += v;
    }

    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Add a call's queries to the tally; returns their summed duration.
fn tally_queries(t: &mut Tally, queries: &[QueryStat]) -> f64 {
    let mut total = 0.0;
    for q in queries {
        let s = &q.stats;
        let d = secs(q.duration);
        total += d;
        t.add("equiv.queries", 1.0);
        t.add("equiv.cache_hits", f64::from(u8::from(s.cached)));
        t.add(
            "equiv.rewrite_discharged",
            f64::from(u8::from(s.discharged_by_rewrite)),
        );
        t.add(
            "equiv.prep_s",
            d - secs(s.reduce_time) - secs(s.blast_time) - secs(s.solve_time),
        );
        t.add("smt.reduce_s", secs(s.reduce_time));
        t.add("smt.blast_s", secs(s.blast_time));
        t.add("smt.cnf_clauses", s.cnf_clauses as f64);
        if q.outcome.starts_with("valid") {
            t.add("smt.valid_s", d);
        } else if q.outcome == "counterexample" {
            t.add("smt.counterexample_s", d);
        }
        t.add("sat.solve_s", secs(s.solve_time));
        t.add("sat.conflicts", s.sat.conflicts as f64);
        t.add("sat.propagations", s.sat.propagations as f64);
        t.add("sat.vars_eliminated", s.sat.vars_eliminated as f64);
    }
    total
}

/// Add a call's, rung's or pass's own time (`elapsed` minus its queries'
/// summed duration `queries`) under `key`. Pooled obligation queries run
/// on parallel workers, so their durations can sum past the wall time
/// that encloses them; that excess goes to `equiv.pool_overlap_s`, the
/// own time counts as zero, and the excess is returned so the caller can
/// check that the pool really ran.
fn own_time(t: &mut Tally, key: &'static str, elapsed: f64, queries: f64) -> f64 {
    let own = elapsed - queries;
    if own >= 0.0 {
        t.add(key, own);
        0.0
    } else {
        t.add("equiv.pool_overlap_s", -own);
        -own
    }
}

/// One traced public call: its span, and the part of its wall time the
/// returned report accounts for. The rest of the call's wall time is
/// `residual` (checker teardown after `Report.elapsed` was taken, or the
/// runner's own overhead around its rungs and passes).
pub struct CallRecord {
    pub span: u64,
    pub residual: &'static str,
    pub inner_s: f64,
    pub runner: bool,
    /// Whether the obligation pool ran during the call (the
    /// `obligations.parallel` counter rose).
    pub pooled: bool,
    /// Query time beyond the enclosing wall, put in `equiv.pool_overlap_s`.
    pub overlap_s: f64,
}

/// Tally a single-check report.
pub fn check(t: &mut Tally, span: u64, pooled: bool, r: &Report) -> CallRecord {
    let q = tally_queries(t, &r.queries);
    CallRecord {
        span,
        residual: "equiv.teardown_s",
        inner_s: secs(r.elapsed),
        runner: false,
        pooled,
        overlap_s: own_time(t, "equiv.encode_s", secs(r.elapsed), q),
    }
}

/// A call that returned no report (an error or a panic): its whole wall
/// time goes to the called layer.
pub fn unreported(span: u64, runner: bool) -> CallRecord {
    let residual = if runner {
        "runner.overhead_s"
    } else {
        "equiv.encode_s"
    };
    CallRecord {
        span,
        residual,
        inner_s: 0.0,
        runner,
        pooled: false,
        overlap_s: 0.0,
    }
}

/// Tally a ladder report: each attempted rung's time outside its queries
/// is encoding (CA extraction, resolution, qelim, session set-up and
/// teardown); each aux pass's time outside its queries is that pass's.
pub fn runner(t: &mut Tally, span: u64, pooled: bool, r: &ResilientReport) -> CallRecord {
    let (mut inner, mut overlap) = (0.0, 0.0);
    for rung in &r.provenance.rungs {
        if matches!(rung.outcome, RungOutcome::Skipped(_)) {
            continue;
        }
        let e = secs(rung.elapsed);
        inner += e;
        let q = tally_queries(t, &rung.stats);
        overlap += own_time(t, "equiv.encode_s", e, q);
        t.add("runner.rungs", 1.0);
        t.add("runner.rung_total_s", e);
        match rung.outcome {
            RungOutcome::Answered => t.add("runner.answering_s", e),
            RungOutcome::Timeout => {
                t.add("runner.rung_timeouts", 1.0);
                t.add("runner.wasted_s", e);
            }
            _ => t.add("runner.wasted_s", e),
        }
    }
    for p in &r.provenance.passes {
        let e = secs(p.elapsed);
        inner += e;
        let q = tally_queries(t, &p.stats);
        let key = if p.pass == "race" {
            "race.pass_s"
        } else {
            "perf.pass_s"
        };
        overlap += own_time(t, key, e, q);
    }
    CallRecord {
        span,
        residual: "runner.overhead_s",
        inner_s: inner,
        runner: true,
        pooled,
        overlap_s: overlap,
    }
}

/// Span id → duration in seconds, from a validated event stream.
pub fn span_durations(events: &[TraceEvent]) -> HashMap<u64, f64> {
    let mut opened = HashMap::new();
    let mut out = HashMap::new();
    for ev in events {
        match ev.kind {
            EventKind::Open => {
                opened.insert(ev.span.0, ev.t_us);
            }
            EventKind::Close => {
                if let Some(t0) = opened.remove(&ev.span.0) {
                    out.insert(ev.span.0, (ev.t_us - t0) as f64 * 1e-6);
                }
            }
            EventKind::Point => {}
        }
    }
    out
}

/// Span walls are whole microseconds, so a call's wall can read up to a
/// microsecond short of the time measured inside it.
const SPAN_ROUNDING_S: f64 = 2e-6;

/// Fold the call walls into the tally, then turn the sums into the
/// per-pass layer metrics. `pass_wall_s` is the summed wall of the traced
/// passes; every time and count is reported per pass. Returns the values
/// keyed by metric name, `bench.unattributed_s` included; the set-up,
/// pool and trace-overhead metrics are the caller's.
///
/// Fails when the attribution is inconsistent: a call whose report
/// accounts for more time than its wall, query time beyond the enclosing
/// wall on a call where the obligation pool did not run, or layer time
/// beyond the pass wall.
pub fn per_pass(
    mut t: Tally,
    calls: &[CallRecord],
    walls: &HashMap<u64, f64>,
    passes: usize,
    pass_wall_s: f64,
) -> Result<BTreeMap<&'static str, f64>, String> {
    for c in calls {
        let wall = walls
            .get(&c.span)
            .copied()
            .ok_or(format!("span {} has no wall time", c.span))?;
        let residual = wall - c.inner_s;
        if residual < -SPAN_ROUNDING_S {
            return Err(format!(
                "span {}: the report accounts for {} s, the call took {wall} s",
                c.span, c.inner_s
            ));
        }
        if !c.pooled && c.overlap_s > 0.0 {
            return Err(format!(
                "span {}: query time exceeds its enclosing wall by {} s, but the \
                 obligation pool did not run",
                c.span, c.overlap_s
            ));
        }
        t.add(c.residual, residual);
        if c.runner {
            t.add("runner.verify_s", wall);
        }
    }
    let n = passes.max(1) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut out = BTreeMap::new();
    for key in [
        "runner.verify_s",
        "runner.rungs",
        "runner.rung_timeouts",
        "runner.wasted_s",
        "equiv.queries",
        "equiv.cache_hits",
        "equiv.rewrite_discharged",
        "smt.cnf_clauses",
        "smt.valid_s",
        "smt.counterexample_s",
        "sat.conflicts",
        "sat.propagations",
        "sat.vars_eliminated",
        "equiv.pool_overlap_s",
    ]
    .into_iter()
    .chain(SELF_TIMES)
    {
        out.insert(key, t.get(key) / n);
    }
    out.insert(
        "runner.useful_ratio",
        ratio(t.get("runner.answering_s"), t.get("runner.rung_total_s")),
    );
    out.insert(
        "equiv.cache_hit_ratio",
        ratio(
            t.get("equiv.cache_hits"),
            t.get("equiv.queries") - t.get("equiv.rewrite_discharged"),
        ),
    );
    out.insert(
        "sat.conflicts_per_s",
        ratio(t.get("sat.conflicts"), t.get("sat.solve_s")),
    );
    let attributed: f64 =
        SELF_TIMES.iter().map(|k| t.get(k)).sum::<f64>() - t.get("equiv.pool_overlap_s");
    let unattributed = pass_wall_s - attributed;
    if unattributed < -SPAN_ROUNDING_S * calls.len().max(1) as f64 {
        return Err(format!(
            "layers account for {attributed} s, the passes took {pass_wall_s} s"
        ));
    }
    out.insert("bench.unattributed_s", unattributed / n);
    Ok(out)
}
