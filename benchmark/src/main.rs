//! Time-to-verdict benchmark for pugpara.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload paper-grid|transpose-frontier|ladder-mix \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! One client, closed loop: verifications run back to back, each started
//! after the previous verdict, in passes over the workload's item list
//! until `--seconds` have elapsed (at least one pass). Every verdict is
//! checked against the item's known answer. `--trace 0` runs each
//! verification in a fresh child process, one at a time, and reports the
//! end-to-end metrics; `--trace 1` runs the loop in this process, untraced
//! and then traced, and reports the per-layer metrics. The
//! last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.

mod catalog;
mod layers;
mod stats;
mod workloads;

use pug_obs::{parse_jsonl, validate, MetricsRegistry, TraceSink, TraceSpan};
use pugpara::equiv::{check_equivalence_nonparam, check_equivalence_param};
use pugpara::runner::{panic_message, run_resilient, ResilientReport, Rung, RungOutcome};
use pugpara::{KernelUnit, Report, Verdict};
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Call, Expect, Item, RUNG_LIMIT, WORKLOADS};

/// Set-ups per run; `setup_s` and `cuda.load_s` are their medians.
const SETUP_REPS: usize = 205;

/// Child processes the end-to-end run's set-ups are spread over.
const SETUP_CHILDREN: usize = 5;

/// Flag that makes this program time set-ups and print their median.
const SETUP_FLAG: &str = "--child-setups";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Run only this item, once, and report it (see `run_children`).
    child: Option<usize>,
    /// Only time this many set-ups (see `time_setups_in_children`).
    child_setups: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (0u64, 10.0f64, false);
    let (mut child, mut child_setups) = (None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| bad("expected an unsigned integer"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| bad("expected a number of seconds"))?;
                if !(seconds >= 0.0 && seconds.is_finite()) {
                    return Err(bad("expected a non-negative number of seconds"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            SETUP_FLAG => child_setups = Some(value.parse().map_err(|_| bad("expected a count"))?),
            CHILD_FLAG => child = Some(value.parse().map_err(|_| bad("expected an item index"))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|w| w.name == workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            names.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        child,
        child_setups,
    })
}

/// A workload ready to run: its items and their loaded kernels.
struct Setup {
    items: Vec<Item>,
    kernels: Vec<KernelUnit>,
    /// Per item: indices of its source and target kernels.
    pairs: Vec<(usize, usize)>,
}

/// Draw the item list and load every distinct kernel. Returns the set-up
/// and the seconds spent loading (the `cuda` layer).
fn set_up(workload: &str, seed: u64, parent: &TraceSpan) -> Result<(Setup, f64), String> {
    let items = workloads::items(workload, seed).ok_or("unknown workload")?;
    let span = parent.child("cuda.load");
    let started = Instant::now();
    let mut index: HashMap<&str, usize> = HashMap::new();
    let mut kernels = Vec::new();
    let mut pairs = Vec::with_capacity(items.len());
    for it in &items {
        let mut pair = [0; 2];
        for (slot, src) in pair.iter_mut().zip([&it.src, &it.tgt]) {
            *slot = match index.get(src.as_str()) {
                Some(&i) => i,
                None => {
                    kernels.push(KernelUnit::load(src).map_err(|e| format!("{}: {e}", it.name))?);
                    index.insert(src, kernels.len() - 1);
                    kernels.len() - 1
                }
            };
        }
        pairs.push((pair[0], pair[1]));
    }
    let load_s = started.elapsed().as_secs_f64();
    span.close();
    Ok((
        Setup {
            items,
            kernels,
            pairs,
        },
        load_s,
    ))
}

/// Set up `reps` times; returns each set-up's wall, each one's loading
/// time, and the last set-up.
fn set_up_repeatedly(
    workload: &str,
    seed: u64,
    reps: usize,
    root: &TraceSpan,
) -> Result<(Vec<f64>, Vec<f64>, Setup), String> {
    let (mut walls, mut loads, mut last) = (Vec::new(), Vec::new(), None);
    for _ in 0..reps.max(1) {
        let span = root.child("setup");
        let t0 = Instant::now();
        let (setup, load_s) = set_up(workload, seed, &span)?;
        walls.push(t0.elapsed().as_secs_f64());
        loads.push(load_s);
        last = Some(setup);
        span.close();
    }
    Ok((walls, loads, last.expect("at least one set-up")))
}

/// The end-to-end run's set-ups: `SETUP_CHILDREN` child processes, one at
/// a time, each timing `SETUP_REPS / SETUP_CHILDREN` set-ups. Returns each
/// child's median. A set-up takes under a millisecond on most workloads,
/// and its speed varies between processes even more than a pass's does.
fn time_setups_in_children(workload: &str, seed: u64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    (0..SETUP_CHILDREN)
        .map(|_| {
            let output = std::process::Command::new(&exe)
                .args(["--workload", workload, "--seed", &seed.to_string()])
                .args([SETUP_FLAG, &(SETUP_REPS / SETUP_CHILDREN).to_string()])
                .stdin(std::process::Stdio::null())
                .output()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            match stdout.lines().last().map(str::parse::<f64>) {
                Some(Ok(median)) if output.status.success() => Ok(median),
                _ => Err(format!(
                    "set-up child exited with {}: {}",
                    output.status,
                    String::from_utf8_lossy(&output.stderr).trim()
                )),
            }
        })
        .collect()
}

/// The child's side of `time_setups_in_children`: print the median of
/// `reps` set-ups.
fn child_setups(workload: &str, seed: u64, reps: usize) -> ExitCode {
    match set_up_repeatedly(workload, seed, reps, &TraceSpan::disabled()) {
        Ok((walls, _, _)) => {
            println!("{}", stats::median(&walls));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: set-up failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// How a verification came out.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Answer {
    Verified,
    Bug,
    Undecided,
}

fn answer_of(v: &Verdict) -> Answer {
    match v {
        Verdict::Verified(_) => Answer::Verified,
        Verdict::Bug(_) => Answer::Bug,
        Verdict::Timeout => Answer::Undecided,
    }
}

enum Returned {
    Check(Result<Report, pugpara::Error>),
    Runner(ResilientReport),
}

/// The traced run's recorders.
struct Probe {
    sink: TraceSink,
    metrics: MetricsRegistry,
    tally: layers::Tally,
    calls: Vec<layers::CallRecord>,
    pass_spans: Vec<u64>,
}

/// Outcomes of one closed loop.
#[derive(Default)]
struct Loop {
    pass_walls: Vec<f64>,
    /// Peak resident memory in MB at the end of each pass.
    peak_rss: Vec<f64>,
    verify_walls: Vec<f64>,
    decided: usize,
    param: usize,
    failures: Vec<String>,
}

impl Loop {
    fn attempted(&self) -> usize {
        self.verify_walls.len()
    }
}

/// A ladder's crashes and errors: a rung or aux pass that panicked, or a
/// ladder whose attempted rungs all crashed or failed, so that it returned
/// `Timeout` without any rung running out of time. A rung that fails
/// before a lower rung answers is the ladder's normal descent, and an aux
/// pass that cannot handle a kernel's shape reports an `error:` summary
/// without touching the verdict; neither counts.
fn runner_problem(r: &ResilientReport) -> Option<String> {
    let prov = &r.provenance;
    if let Some(g) = prov
        .rungs
        .iter()
        .find(|g| matches!(g.outcome, RungOutcome::Crashed(_)))
    {
        return Some(format!("rung {} {}", g.rung, g.outcome));
    }
    if let Some(p) = prov
        .passes
        .iter()
        .find(|p| p.summary.starts_with("crashed"))
    {
        return Some(format!("pass {} {}", p.pass, p.summary));
    }
    let attempted: Vec<String> = prov
        .rungs
        .iter()
        .filter(|g| !matches!(g.outcome, RungOutcome::Skipped(_)))
        .map(|g| format!("{} {}", g.rung, g.outcome))
        .collect();
    let no_answer = prov.answered_by.is_none()
        && prov
            .rungs
            .iter()
            .all(|g| !matches!(g.outcome, RungOutcome::Timeout | RungOutcome::Answered));
    no_answer.then(|| {
        format!(
            "error: no rung answered or timed out ({})",
            if attempted.is_empty() {
                "none attempted".into()
            } else {
                attempted.join("; ")
            }
        )
    })
}

fn span_name(call: &Call) -> &'static str {
    match call {
        Call::Param { .. } => "equiv.check_equivalence_param",
        Call::NonParam { .. } => "equiv.check_equivalence_nonparam",
        Call::Runner { .. } => "runner.run_resilient",
    }
}

/// One verification through the item's public entry point, with fresh
/// options; the registry is live only in the traced loop.
fn call(item: &Item, src: &KernelUnit, tgt: &KernelUnit, metrics: &MetricsRegistry) -> Returned {
    let cfg = &item.cfg;
    match &item.call {
        Call::Param { .. } => Returned::Check(check_equivalence_param(
            src,
            tgt,
            cfg,
            &item.call.check_options().with_metrics(metrics.clone()),
        )),
        Call::NonParam { .. } => Returned::Check(check_equivalence_nonparam(
            src,
            tgt,
            cfg,
            &item.call.check_options().with_metrics(metrics.clone()),
        )),
        Call::Runner { .. } => Returned::Runner(run_resilient(
            src,
            tgt,
            cfg,
            &item.call.runner_options().with_metrics(metrics.clone()),
        )),
    }
}

/// One verification, judged against the item's known answer.
struct Outcome {
    wall: f64,
    answer: Answer,
    /// Answered by the fully parameterized encoding.
    param: bool,
    problem: Option<String>,
}

/// Call the item's entry point inside `span`, time it and judge the
/// verdict. Also hands back what the call returned, for the traced loop.
fn verify(
    item: &Item,
    src: &KernelUnit,
    tgt: &KernelUnit,
    metrics: &MetricsRegistry,
    span: &TraceSpan,
) -> (Outcome, std::thread::Result<Returned>) {
    let t0 = Instant::now();
    let returned = catch_unwind(AssertUnwindSafe(|| call(item, src, tgt, metrics)));
    let wall = t0.elapsed().as_secs_f64();
    span.close();
    let (verdict, param, problem) = match &returned {
        Err(payload) => (
            None,
            false,
            Some(format!("crashed: {}", panic_message(&**payload))),
        ),
        Ok(Returned::Check(Err(e))) => (None, false, Some(format!("error: {e}"))),
        Ok(Returned::Check(Ok(r))) => (Some(&r.verdict), item.param_column, None),
        Ok(Returned::Runner(r)) => (
            Some(&r.verdict),
            r.provenance.answered_by == Some(Rung::Param),
            runner_problem(r),
        ),
    };
    let answer = verdict.map_or(Answer::Undecided, answer_of);
    let expected = match item.expect {
        Expect::Verified => Answer::Verified,
        Expect::Bug => Answer::Bug,
    };
    let problem = problem.or_else(|| {
        let v = verdict.filter(|_| answer != Answer::Undecided && answer != expected)?;
        Some(format!("expected {expected:?}, got {v}"))
    });
    let outcome = Outcome {
        wall,
        answer,
        param: param && answer != Answer::Undecided,
        problem,
    };
    (outcome, returned)
}

impl Loop {
    fn record(&mut self, item: &Item, o: Outcome) {
        self.verify_walls.push(o.wall);
        self.decided += usize::from(o.answer != Answer::Undecided);
        self.param += usize::from(o.param);
        if let Some(p) = o.problem {
            self.failures.push(format!("{}: {p}", item.name));
        }
    }
}

/// Run passes over the items in this process until `seconds` have
/// elapsed. This is the traced run's loop, and its untraced baseline.
fn run_loop(setup: &Setup, seconds: f64, mut probe: Option<&mut Probe>) -> Loop {
    let disabled = MetricsRegistry::disabled();
    let mut out = Loop::default();
    let started = Instant::now();
    loop {
        let root = probe
            .as_ref()
            .map_or_else(TraceSpan::disabled, |p| TraceSpan::root(p.sink.clone()));
        let pass_span = root.child("pass");
        let pass_start = Instant::now();
        for (item, &(s, t)) in setup.items.iter().zip(&setup.pairs) {
            let metrics = probe.as_ref().map_or(&disabled, |p| &p.metrics);
            let span = pass_span.child_with(
                span_name(&item.call),
                vec![("item", item.name.as_str().into())],
            );
            let pool_before = metrics.snapshot().counter("obligations.parallel");
            let (outcome, returned) =
                verify(item, &setup.kernels[s], &setup.kernels[t], metrics, &span);
            let pooled = metrics.snapshot().counter("obligations.parallel") > pool_before;
            if let Some(p) = probe.as_deref_mut() {
                let id = span.id().0;
                let rec = match &returned {
                    Ok(Returned::Check(Ok(r))) => layers::check(&mut p.tally, id, pooled, r),
                    Ok(Returned::Runner(r)) => layers::runner(&mut p.tally, id, pooled, r),
                    _ => layers::unreported(id, matches!(item.call, Call::Runner { .. })),
                };
                p.calls.push(rec);
            }
            out.record(item, outcome);
        }
        pass_span.close();
        out.pass_walls.push(pass_start.elapsed().as_secs_f64());
        out.peak_rss.push(peak_rss_mb());
        if let Some(p) = probe.as_deref_mut() {
            p.pass_spans.push(pass_span.id().0);
        }
        if started.elapsed().as_secs_f64() >= seconds {
            return out;
        }
    }
}

/// Run passes over the items until `seconds` have elapsed, each
/// verification in a fresh process of this program started after the
/// previous one has ended, as a user's single invocation runs it. On a
/// shared 2-vCPU host a long-lived process tends to stay near the speed
/// it started at: back-to-back 8 s processes on `paper-grid` ran their
/// passes at 2.6 s in one and 3.6 s in the next, and their peak memory
/// differed by a fifth. Spreading a run over many processes averages that
/// out. A pass's wall is the sum of its verifications' call-to-verdict
/// times; its peak memory is its largest verification's.
fn run_children(workload: &str, seed: u64, items: &[Item], seconds: f64) -> Loop {
    let exe = std::env::current_exe();
    let mut out = Loop::default();
    let started = Instant::now();
    loop {
        let (mut pass_wall, mut pass_rss) = (0.0, 0.0f64);
        for (index, item) in items.iter().enumerate() {
            let report = match &exe {
                Ok(exe) => run_child(exe, workload, seed, index),
                Err(e) => Err(format!("cannot find this program: {e}")),
            };
            let (outcome, rss) = report.unwrap_or_else(|e| {
                let failed = Outcome {
                    wall: 0.0,
                    answer: Answer::Undecided,
                    param: false,
                    problem: Some(e),
                };
                (failed, 0.0)
            });
            pass_wall += outcome.wall;
            pass_rss = pass_rss.max(rss);
            out.record(item, outcome);
        }
        out.pass_walls.push(pass_wall);
        out.peak_rss.push(pass_rss);
        if started.elapsed().as_secs_f64() >= seconds {
            return out;
        }
    }
}

/// Flag that makes this program run one verification and report it.
const CHILD_FLAG: &str = "--child-item";

/// Start a child for item `index`, wait for it and read its report line:
/// the outcome and the child's peak memory in MB.
fn run_child(
    exe: &Path,
    workload: &str,
    seed: u64,
    index: usize,
) -> Result<(Outcome, f64), String> {
    let output = std::process::Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([CHILD_FLAG, &index.to_string()])
        .stdin(std::process::Stdio::null())
        .output()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or("");
    let fields: Vec<&str> = line.splitn(5, ' ').collect();
    let parsed = match fields[..] {
        [wall, answer, param, rss, problem] => (|| {
            let answer = match answer {
                "verified" => Answer::Verified,
                "bug" => Answer::Bug,
                "undecided" => Answer::Undecided,
                _ => return None,
            };
            let outcome = Outcome {
                wall: wall.parse().ok()?,
                answer,
                param: param == "1",
                problem: (!problem.is_empty()).then(|| problem.to_string()),
            };
            Some((outcome, rss.parse().ok()?))
        })(),
        _ => None,
    };
    match parsed {
        Some(report) if output.status.success() => Ok(report),
        _ => {
            let stderr = String::from_utf8_lossy(&output.stderr);
            Err(format!(
                "child exited with {} without a report: {}",
                output.status,
                stderr.lines().last().unwrap_or("")
            ))
        }
    }
}

/// The child's side of `run_child`: load item `index`'s kernels, verify
/// once and print `wall answer param peak_rss_mb problem` on one line.
fn child(workload: &str, seed: u64, index: usize) -> ExitCode {
    let item = workloads::items(workload, seed)
        .and_then(|mut items| (index < items.len()).then(|| items.swap_remove(index)));
    let Some(item) = item else {
        eprintln!("error: {workload} has no item {index}");
        return ExitCode::FAILURE;
    };
    let (src, tgt) = match (KernelUnit::load(&item.src), KernelUnit::load(&item.tgt)) {
        (Ok(s), Ok(t)) => (s, t),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {}: {e}", item.name);
            return ExitCode::FAILURE;
        }
    };
    let metrics = MetricsRegistry::disabled();
    let (o, _) = verify(&item, &src, &tgt, &metrics, &TraceSpan::disabled());
    let answer = match o.answer {
        Answer::Verified => "verified",
        Answer::Bug => "bug",
        Answer::Undecided => "undecided",
    };
    let problem = o.problem.unwrap_or_default().replace('\n', " ");
    println!(
        "{} {answer} {} {} {problem}",
        o.wall,
        u8::from(o.param),
        peak_rss_mb()
    );
    ExitCode::SUCCESS
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the checkout the benchmark was built in, read from its
/// `.git` directory without leaving the checkout.
fn git_commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown (not a git checkout)".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(reference))
        .or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| format!("unknown ({reference} unresolved)"))
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

fn metric(name: &str) -> &'static catalog::Metric {
    catalog::END_TO_END
        .iter()
        .chain(&catalog::PER_LAYER)
        .find(|m| m.name == name)
        .expect("every reported metric is in the catalog")
}

/// The result line: `metrics` in catalog order.
fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[(&str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                metric(name).unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn print_metric(name: &str, value: f64, detail: &str) {
    let m = metric(name);
    println!(
        "  {name:<26} {value:>14.6} {:<6} {:<6} {detail}",
        m.unit, m.better
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: pug-verdict-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if let Some(index) = args.child {
        return child(&args.workload, args.seed, index);
    }
    if let Some(reps) = args.child_setups {
        return child_setups(&args.workload, args.seed, reps);
    }
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .expect("validated name");

    // Set-up, repeated; the last set-up is the one that runs.
    let sink = if args.trace {
        TraceSink::recording()
    } else {
        TraceSink::disabled()
    };
    let root = TraceSpan::root(sink.clone());
    // The end-to-end run times its set-ups in child processes, like its
    // verifications; it sets up here only to learn the items.
    let reps = if args.trace { SETUP_REPS } else { 1 };
    let (mut setup_walls, load_walls, setup) =
        match set_up_repeatedly(workload.name, args.seed, reps, &root) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: set-up failed: {e}");
                return ExitCode::FAILURE;
            }
        };
    if !args.trace {
        setup_walls = match time_setups_in_children(workload.name, args.seed) {
            Ok(w) => w,
            Err(e) => {
                eprintln!("error: set-up failed: {e}");
                return ExitCode::FAILURE;
            }
        };
    }

    println!("workload {}: {}", workload.name, workload.why);
    let seed_note = if workload.seeded {
        "drives the draw of generated self-pairs"
    } else {
        "fixed item set; the seed changes nothing"
    };
    println!("seed {} ({seed_note})", args.seed);
    for (it, reason) in workloads::excluded() {
        println!("excluded: {} (expected {:?}): {reason}", it.name, it.expect);
    }
    println!(
        "nproc {} | {} | commit {} | rung limit {} s | {} items per pass | closed loop, 1 client",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        rustc_version(),
        git_commit(),
        RUNG_LIMIT.as_secs(),
        setup.items.len(),
    );

    // The end-to-end run gives each verification a fresh process; the
    // traced run's baseline stays in this process, like the traced loop.
    let plain = if args.trace {
        run_loop(&setup, args.seconds, None)
    } else {
        run_children(workload.name, args.seed, &setup.items, args.seconds)
    };
    let n = plain.attempted();
    let mut failures = plain.failures.clone();
    let mut attempted = n;
    let tail = stats::tail(&plain.verify_walls);
    let setups = if args.trace {
        setup_walls.len()
    } else {
        SETUP_CHILDREN * (SETUP_REPS / SETUP_CHILDREN)
    };
    println!(
        "samples: {setups} set-ups, {} passes, {} verifications",
        plain.pass_walls.len(),
        n
    );
    let e2e: Vec<(&str, f64)> = vec![
        ("setup_s", stats::median(&setup_walls)),
        ("batch_s", stats::median(&plain.pass_walls)),
        ("verify_p50_s", stats::median(&plain.verify_walls)),
        ("verify_tail_s", tail.value),
        ("decided_frac", plain.decided as f64 / n as f64),
        ("param_frac", plain.param as f64 / n as f64),
        ("peak_rss_mb", stats::median(&plain.peak_rss)),
    ];
    let details = [
        if args.trace {
            format!("median of {} set-ups", setup_walls.len())
        } else {
            format!(
                "median of {SETUP_CHILDREN} processes' medians of {} set-ups",
                SETUP_REPS / SETUP_CHILDREN
            )
        },
        format!(
            "median of {} passes, {}",
            plain.pass_walls.len(),
            if args.trace {
                "in this process"
            } else {
                "one process per verification"
            }
        ),
        format!("median of {n} verifications"),
        format!("{} of {n} verifications", tail.label),
        format!("{} of {n} decided", plain.decided),
        format!("{} of {n} by the fully parameterized encoding", plain.param),
        if args.trace {
            "VmHWM of this process, median at pass ends".to_string()
        } else {
            "VmHWM of a pass's largest verification, median over passes".to_string()
        },
    ];
    println!("end-to-end (untraced):");
    for ((name, v), d) in e2e.iter().zip(&details) {
        print_metric(name, *v, d);
    }
    let failed_frac = plain.failures.len() as f64 / n as f64;
    println!(
        "  {:<26} {failed_frac:>14.6} ratio  {} of {n} wrong, errors or crashes",
        "failed_frac",
        plain.failures.len()
    );

    let metrics = if args.trace {
        let mut probe = Probe {
            sink: sink.clone(),
            metrics: MetricsRegistry::new(),
            tally: layers::Tally::default(),
            calls: Vec::new(),
            pass_spans: Vec::new(),
        };
        let split_span = root.child("ir.split");
        let t0 = Instant::now();
        let segments: usize = setup
            .kernels
            .iter()
            .filter_map(|k| pug_ir::split_segments(&k.kernel.body).ok())
            .map(|s| s.len())
            .sum();
        let split_s = t0.elapsed().as_secs_f64();
        split_span.close();

        let traced = run_loop(&setup, args.seconds, Some(&mut probe));
        failures.extend(traced.failures.iter().cloned());
        attempted += traced.attempted();
        match per_layer(
            probe,
            &traced,
            &plain,
            &load_walls,
            split_s,
            segments,
            workload.name,
        ) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("error: trace check failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        e2e
    };

    for f in &failures {
        eprintln!("FAILED {f}");
    }
    println!(
        "{}",
        result_json(failures.is_empty(), attempted, failures.len(), &metrics)
    );
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Write the trace out, check it, and derive every per-layer metric.
fn per_layer(
    probe: Probe,
    traced: &Loop,
    plain: &Loop,
    load_walls: &[f64],
    split_s: f64,
    segments: usize,
    workload: &str,
) -> Result<Vec<(&'static str, f64)>, String> {
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let path = out_dir.join(format!("trace-{workload}.jsonl"));
    std::fs::write(&path, probe.sink.to_jsonl()).map_err(|e| format!("{}: {e}", path.display()))?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let events = parse_jsonl(&text)?;
    let summary = validate(&events)?;
    if probe.sink.is_truncated() {
        return Err("trace buffer overflowed".into());
    }
    let walls = layers::span_durations(&events);
    let pass_wall: f64 = probe
        .pass_spans
        .iter()
        .map(|id| walls.get(id).copied().unwrap_or(0.0))
        .sum();
    let passes = probe.pass_spans.len();
    let pool =
        probe.metrics.snapshot().counter("obligations.parallel") as f64 / passes.max(1) as f64;
    let mut values: BTreeMap<&'static str, f64> =
        layers::per_pass(probe.tally, &probe.calls, &walls, passes, pass_wall)?;
    values.insert("cuda.load_s", stats::median(load_walls));
    values.insert("ir.split_s", split_s);
    values.insert("ir.segments", segments as f64);
    values.insert("equiv.pool_obligations", pool);
    values.insert(
        "bench.trace_overhead_s",
        stats::median(&traced.pass_walls) - stats::median(&plain.pass_walls),
    );

    println!(
        "trace: {} spans validated, written to {} | {passes} traced passes",
        summary.spans,
        path.display()
    );
    let per_pass_wall = pass_wall / passes.max(1) as f64;
    println!("pass wall {per_pass_wall:.6} s, split by layer self time:");
    let mut sum = 0.0;
    let terms = catalog::SELF_TIMES.iter().map(|&k| (k, values[k])).chain([
        ("equiv.pool_overlap_s", -values["equiv.pool_overlap_s"]),
        ("bench.unattributed_s", values["bench.unattributed_s"]),
    ]);
    for (key, v) in terms {
        sum += v;
        println!(
            "  {key:<26} {v:>14.6} s  {:>6.1}%",
            100.0 * v / per_pass_wall.max(1e-12)
        );
    }
    println!("  {:<26} {sum:>14.6} s", "sum");
    println!("per-layer (traced):");
    let mut metrics = Vec::new();
    for m in &catalog::PER_LAYER {
        let v = values
            .get(m.name)
            .copied()
            .ok_or(format!("metric {} not computed", m.name))?;
        print_metric(m.name, v, &format!("[{}] moves {}", m.layer, m.moves));
        metrics.push((m.name, v));
    }
    Ok(metrics)
}

#[cfg(test)]
mod tests;
