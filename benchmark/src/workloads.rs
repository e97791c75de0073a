//! The three workloads: which verifications run, through which entry
//! point, with which options, and the answer each one must give.

use pug_bench::cells::transpose_block;
use pug_ir::{Extent, GpuConfig};
use pug_kernels::{
    bitonic, matmul, reduction, scalar_product, scan, stride, transpose, vector_add,
};
use pug_testutil::TestRng;
use pugpara::equiv::CheckOptions;
use pugpara::runner::RunnerOptions;
use std::time::Duration;

/// Per-rung (and per grid cell) time limit. The 8-bit fully symbolic
/// transpose answers in 13-17 s on its Param rung as the shared host's
/// speed drifts, so the limit leaves it room while the 16-bit cell spends
/// the whole limit and descends.
pub const RUNG_LIMIT: Duration = Duration::from_secs(25);

/// Race-free self-pairs drawn per `ladder-mix` seed: four passes over the
/// 24 kernel shapes (1 or 3 output arrays × 0–2 barrier rounds × 4 write
/// forms). Three output arrays is what engages the obligation pool. A
/// third barrier round made single draws cost over a second and the
/// pass's cost and peak memory swing with the seed.
pub const DRAW: usize = 96;

/// What a verification must answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    Verified,
    Bug,
}

/// The public entry point an item goes through, with the options a
/// user's single invocation of it would pass.
#[derive(Clone, Debug)]
pub enum Call {
    /// `check_equivalence_param`.
    Param {
        concretize: Vec<(&'static str, u64)>,
        fast_bug_hunt: bool,
    },
    /// `check_equivalence_nonparam`.
    NonParam {
        concretize: Vec<(&'static str, u64)>,
    },
    /// `run_resilient`.
    Runner {
        concretize: Vec<(&'static str, u64)>,
        aux_passes: bool,
    },
}

impl Call {
    /// Fresh single-check options: own cancel token, no cache, no trace.
    pub fn check_options(&self) -> CheckOptions {
        let mut o = CheckOptions::with_timeout(RUNG_LIMIT);
        let (Call::Param { concretize, .. } | Call::NonParam { concretize }) = self else {
            return o;
        };
        for &(name, value) in concretize {
            o = o.concretized(name, value);
        }
        if let Call::Param {
            fast_bug_hunt: true,
            ..
        } = self
        {
            o = o.fast_bug_hunt();
        }
        o
    }

    /// Fresh ladder options. `query_cache` stays `None`, so each call gets
    /// its own cache exactly as a user's single invocation does.
    pub fn runner_options(&self) -> RunnerOptions {
        let mut o = RunnerOptions::with_rung_timeout(RUNG_LIMIT);
        if let Call::Runner {
            concretize,
            aux_passes,
        } = self
        {
            for &(name, value) in concretize {
                o = o.concretized(name, value);
            }
            if *aux_passes {
                o = o.with_aux_passes();
            }
        }
        o
    }
}

/// One verification of a workload.
#[derive(Clone, Debug)]
pub struct Item {
    pub name: String,
    /// Kernel sources; loaded during set-up.
    pub src: String,
    pub tgt: String,
    pub cfg: GpuConfig,
    pub call: Call,
    /// The known answer: the paper's mark for grid cells, the corpus
    /// kernel's documented verdict, or `Verified` for a self-pair.
    pub expect: Expect,
    /// Grid cells only: the cell sits in a parameterized column with a
    /// fully symbolic configuration (no "+C." pinning).
    pub param_column: bool,
}

/// A workload's description and how its seed is used.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// `false` for the fixed item sets, whose seed argument is recorded
    /// but changes nothing.
    pub seeded: bool,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "paper-grid",
        why: "the paper's own Table II/III and scaling cells that decide in about 1 s: many small \
              proofs and bug hunts through the single-rung entry points",
        seeded: false,
    },
    Workload {
        name: "transpose-frontier",
        why: "fully symbolic transpose at 8b and 16b through the runner: CDCL search is \
              nearly all the time and 16b is the paper's T.O",
        seeded: false,
    },
    Workload {
        name: "ladder-mix",
        why: "corpus pairs plus a seeded draw of race-free self-pairs through the runner with \
              aux passes: many short verifications, runner and query-prep overheads",
        seeded: true,
    },
];

/// Build a workload's item list; `None` for an unknown name.
pub fn items(workload: &str, seed: u64) -> Option<Vec<Item>> {
    match workload {
        "paper-grid" => Some(paper_grid()),
        "transpose-frontier" => Some(transpose_frontier()),
        "ladder-mix" => Some(ladder_mix(seed)),
        _ => None,
    }
}

fn item(name: String, src: &str, tgt: &str, cfg: GpuConfig, call: Call, expect: Expect) -> Item {
    Item {
        name,
        src: src.into(),
        tgt: tgt.into(),
        cfg,
        call,
        expect,
        param_column: false,
    }
}

fn nonparam(concretize: Vec<(&'static str, u64)>) -> Call {
    Call::NonParam { concretize }
}

fn param() -> Call {
    Call::Param {
        concretize: Vec::new(),
        fast_bug_hunt: false,
    }
}

/// Mark a parameterized-column cell (fully symbolic configuration).
fn param_column(mut it: Item) -> Item {
    it.param_column = true;
    it
}

/// The paper's grid, cell for cell as `pug_bench::tables` lays it out
/// (same kernels, configurations and options as `pug_bench::cells`),
/// minus the cells that do not decide in about a second: transpose
/// param −C. (the `transpose-frontier` workload) and the transpose −C.
/// non-parameterized cells at n = 64/144. The scaling table's n = 4
/// transpose cell and its param v0/v1 cell repeat Table II cells and are
/// run once.
fn paper_grid() -> Vec<Item> {
    let mut out = Vec::new();
    let unconstrained = transpose::OPTIMIZED_UNCONSTRAINED;
    // Table II, transpose: non-square blocks (n = 8, 32) are the `*` cells.
    for bits in [8u32, 16, 32] {
        for (n, pin) in [(4u64, false), (8, false), (16, true), (32, true)] {
            let (bx, by) = transpose_block(n);
            let pins = if pin {
                vec![("width", bx), ("height", by)]
            } else {
                Vec::new()
            };
            let expect = if bx == by {
                Expect::Verified
            } else {
                Expect::Bug
            };
            out.push(item(
                format!("t2 transpose {bits}b n={n}{}", if pin { " +C" } else { "" }),
                transpose::NAIVE,
                unconstrained,
                GpuConfig::concrete_2d(bits, bx, by),
                nonparam(pins),
                expect,
            ));
        }
        out.push(item(
            format!("t2 transpose {bits}b param +C"),
            transpose::NAIVE,
            transpose::OPTIMIZED,
            GpuConfig::symbolic_2d(bits),
            Call::Param {
                concretize: vec![("width", 8), ("height", 8)],
                fast_bug_hunt: false,
            },
            Expect::Verified,
        ));
    }
    // Table II, reduction v0/v1.
    for bits in [8u32, 12] {
        let bound = reduction::safe_block_bound(bits);
        let (v0, v1) = (reduction::v0_bounded(bound), reduction::v1_bounded(bound));
        for n in [4u64, 8, 16] {
            out.push(item(
                format!("t2 reduction {bits}b n={n}"),
                &v0,
                &v1,
                GpuConfig::concrete_1d(bits, n),
                nonparam(Vec::new()),
                Expect::Verified,
            ));
        }
        out.push(param_column(item(
            format!("t2 reduction {bits}b param"),
            &v0,
            &v1,
            GpuConfig::symbolic_1d(bits),
            param(),
            Expect::Verified,
        )));
        out.push(item(
            format!("t2 reduction {bits}b param +C"),
            &v0,
            &v1,
            GpuConfig {
                bits,
                bdim: [Extent::Const(8), Extent::Const(1), Extent::Const(1)],
                gdim: [Extent::Sym, Extent::Const(1)],
            },
            param(),
            Expect::Verified,
        ));
    }
    // Scaling: reduction v0/v2 and transpose −C. at n = 16.
    let bound = reduction::safe_block_bound(8);
    let (v0, v2) = (reduction::v0_bounded(bound), reduction::v2_bounded(bound));
    for n in [4u64, 8, 16] {
        out.push(item(
            format!("scaling reduction v0/v2 8b n={n}"),
            &v0,
            &v2,
            GpuConfig::concrete_1d(8, n),
            nonparam(Vec::new()),
            Expect::Verified,
        ));
    }
    let (bx, by) = transpose_block(16);
    out.push(item(
        "scaling transpose -C 8b n=16".into(),
        transpose::NAIVE,
        unconstrained,
        GpuConfig::concrete_2d(8, bx, by),
        nonparam(Vec::new()),
        Expect::Verified,
    ));
    // Table III: every cell is `*`.
    for bits in [16u32, 32] {
        for n in [4u64, 8, 16] {
            let (bx, by) = transpose_block(n);
            out.push(item(
                format!("t3 transpose {bits}b n={n}"),
                transpose::NAIVE,
                transpose::BUGGY_ADDR,
                GpuConfig::concrete_2d(bits, bx, by),
                nonparam(Vec::new()),
                Expect::Bug,
            ));
        }
        out.push(param_column(item(
            format!("t3 transpose {bits}b param"),
            transpose::NAIVE,
            transpose::BUGGY_ADDR,
            GpuConfig::symbolic_2d(bits),
            Call::Param {
                concretize: Vec::new(),
                fast_bug_hunt: true,
            },
            Expect::Bug,
        )));
    }
    for bits in [8u32, 16, 32] {
        let bound = reduction::safe_block_bound(bits);
        let (v0, bug) = (
            reduction::v0_bounded(bound),
            reduction::buggy_index_bounded(bound),
        );
        for n in [4u64, 8, 16] {
            out.push(item(
                format!("t3 reduction {bits}b n={n}"),
                &v0,
                &bug,
                GpuConfig::concrete_1d(bits, n),
                nonparam(Vec::new()),
                Expect::Bug,
            ));
        }
        out.push(param_column(item(
            format!("t3 reduction {bits}b param"),
            &v0,
            &bug,
            GpuConfig::symbolic_1d(bits),
            param(),
            Expect::Bug,
        )));
    }
    out
}

/// Transpose NAIVE vs OPTIMIZED, fully symbolic, through the ladder; the
/// Param+C rung pins `width = height = 8` as the fallback.
fn transpose_frontier() -> Vec<Item> {
    [8u32, 16]
        .into_iter()
        .map(|bits| {
            item(
                format!("transpose param -C {bits}b"),
                transpose::NAIVE,
                transpose::OPTIMIZED,
                GpuConfig::symbolic_2d(bits),
                Call::Runner {
                    concretize: vec![("width", 8), ("height", 8)],
                    aux_passes: false,
                },
                Expect::Verified,
            )
        })
        .collect()
}

/// Single-block configuration with a symbolic block width: generated
/// kernels index by `tid.x` only.
fn drawn_cfg() -> GpuConfig {
    GpuConfig {
        bits: 8,
        bdim: [Extent::Sym, Extent::Const(1), Extent::Const(1)],
        gdim: [Extent::Const(1), Extent::Const(1)],
    }
}

/// The seeded stream a draw is made from, plus a position counter.
struct Draw {
    rng: TestRng,
    at: usize,
}

impl Draw {
    /// An expression tree of the given depth over KernelGen's leaves and
    /// its additive and bitwise operators. Leaves and operators rotate by
    /// position and the seed draws the constants (and, in the caller, the
    /// comparison operators). KernelGen's `*`, `/` and `%`, and freely
    /// drawn leaves and operators, made single self-pairs cost from
    /// milliseconds to seconds of SAT search, so a pass's cost and tail
    /// swung with the seed; fixing the structure keeps every seed's pass
    /// comparable.
    fn expr(&mut self, depth: usize) -> String {
        self.at += 1;
        if depth == 0 {
            return match self.at % 4 {
                0 => "tid.x".into(),
                1 => "p".into(),
                2 => "in[tid.x]".into(),
                _ => self.rng.gen_range(0..8u64).to_string(),
            };
        }
        let op = ["+", "^", "-", "|", "&"][self.at % 5];
        format!("({} {op} {})", self.expr(depth - 1), self.expr(depth - 1))
    }
}

/// The value one output cell receives: a plain expression, a branch, a
/// thread guard, or a local. Every form writes `dst[tid.x]` exactly once.
fn own_cell_write(g: &mut Draw, dst: &str, value: &str, form: usize, local: usize) -> String {
    match form {
        0 => format!("{dst}[tid.x] = {value} ^ {};", g.expr(1)),
        1 => {
            let cmp = ["<", "<=", "==", "!=", ">", ">="][g.rng.gen_range(0..6usize)];
            format!(
                "if ({} {cmp} {}) {{ {dst}[tid.x] = {value} + {}; }} else {{ {dst}[tid.x] = {}; }}",
                g.expr(0),
                g.expr(0),
                g.expr(0),
                g.expr(1)
            )
        }
        2 => {
            let bound = g.rng.gen_range(1..8u64);
            format!(
                "if ((tid.x % 8) < {bound}) {dst}[tid.x] = {value} - {};",
                g.expr(1)
            )
        }
        _ => format!(
            "int l{local} = {value} | {}; {dst}[tid.x] = l{local};",
            g.expr(1)
        ),
    }
}

/// A race-free kernel with the constructs of KernelGen's extended profile:
/// guarded writes, a shared-array round trip and extra barrier rounds
/// (through further shared arrays), drawn from the seeded SplitMix stream,
/// with every thread writing only its own cell of each array, once. The
/// output is then independent of the schedule, so the self-pair's known
/// answer is `Verified`. KernelGen's
/// own `kernel()`/`multi_output_kernel()` write masked computed indices,
/// so nearly all of them race and their self-pairs are legitimately
/// non-equivalent. `arrays > 1` gives independent output arrays, the
/// shape that engages the obligation pool. A cell written twice is also
/// race-free, but the program answers that shape wrongly today; it is in
/// [`excluded`] rather than in the draw.
fn race_free_kernel(seed: u64, shape: Shape) -> String {
    let Shape {
        arrays,
        rounds,
        form,
    } = shape;
    let mut g = Draw {
        rng: TestRng::seed_from_u64(seed),
        at: 0,
    };
    let outs: Vec<String> = if arrays == 1 {
        vec!["out".into()]
    } else {
        (0..arrays).map(|a| format!("o{a}")).collect()
    };
    let params: String = outs.iter().map(|o| format!("int *{o}, ")).collect();
    let mut body = String::new();
    // Barrier rounds through shared arrays: round r reads what every
    // thread wrote in round r - 1 (its own cell, or thread 0's).
    for r in 0..rounds {
        let prev = match r {
            0 => String::new(),
            _ if (r + form) % 2 == 0 => format!("s{}[0] ^ ", r - 1),
            _ => format!("s{}[tid.x] ^ ", r - 1),
        };
        body.push_str(&format!(
            "__shared__ int s{r}[bdim.x];\ns{r}[tid.x] = {prev}{};\n__syncthreads();\n",
            g.expr(1)
        ));
    }
    for (local, o) in outs.iter().enumerate() {
        let value = match rounds {
            0 => g.expr(1),
            r => format!("(s{}[tid.x] + {})", r - 1, g.expr(1)),
        };
        body.push_str(&own_cell_write(
            &mut g,
            o,
            &value,
            (form + local) % 4,
            local,
        ));
        body.push('\n');
    }
    format!("void k({params}int *in, int p) {{\n{body}}}")
}

/// The structure of one drawn kernel; the seed draws its expressions.
#[derive(Clone, Copy)]
struct Shape {
    /// Output arrays (1 or 3).
    arrays: usize,
    /// Barrier rounds through shared arrays before the output write (0–2).
    rounds: usize,
    /// Write form of the first output array (0–3); later arrays rotate.
    form: usize,
}

/// The corpus pairs users run, then the seeded draw of race-free
/// self-pairs, all through `run_resilient` with the
/// auxiliary passes.
fn ladder_mix(seed: u64) -> Vec<Item> {
    let runner = || Call::Runner {
        concretize: Vec::new(),
        aux_passes: true,
    };
    let sym1 = GpuConfig::symbolic_1d(8);
    let corpus: [(&str, &str, &str, GpuConfig, Expect); 9] = [
        (
            "reduction v0/v1",
            reduction::V0,
            reduction::V1,
            sym1.clone(),
            Expect::Verified,
        ),
        (
            "scalar product",
            scalar_product::KERNEL,
            scalar_product::KERNEL,
            sym1.clone(),
            Expect::Verified,
        ),
        (
            "stride pair",
            stride::GRID_STRIDE,
            stride::GRID_STRIDE_REASSOC,
            sym1.clone(),
            Expect::Verified,
        ),
        (
            "buggy transpose",
            transpose::NAIVE,
            transpose::BUGGY_ADDR,
            GpuConfig::symbolic_2d(8),
            Expect::Bug,
        ),
        (
            "buggy reduction",
            reduction::V0,
            reduction::BUGGY_INDEX,
            sym1.clone(),
            Expect::Bug,
        ),
        (
            "buggy vector-add",
            vector_add::KERNEL,
            vector_add::BUGGY,
            sym1.clone(),
            Expect::Bug,
        ),
        // Its seeded race writes `threadIdx.x` from every thread to one
        // cell, so the output depends on the schedule and even the
        // self-pair differs.
        (
            "buggy param-race self",
            stride::PARAM_RACE,
            stride::PARAM_RACE,
            sym1.clone(),
            Expect::Bug,
        ),
        (
            "scan self",
            scan::NAIVE,
            scan::NAIVE,
            sym1.clone(),
            Expect::Verified,
        ),
        (
            "bitonic self",
            bitonic::KERNEL,
            bitonic::KERNEL,
            sym1,
            Expect::Verified,
        ),
    ];
    let mut out: Vec<Item> = corpus
        .into_iter()
        .map(|(name, src, tgt, cfg, expect)| item(name.into(), src, tgt, cfg, runner(), expect))
        .collect();
    let mut rng = TestRng::seed_from_u64(seed);
    // Stratified: every shape appears equally often, so the seed moves
    // only the expressions and a pass's cost stays comparable across seeds.
    for i in 0..DRAW {
        let kseed = rng.gen_u64();
        let (kind, arrays) = if i % 2 == 0 {
            ("single", 1)
        } else {
            ("multi3", 3)
        };
        let shape = Shape {
            arrays,
            rounds: (i / 2) % 3,
            form: (i / 6) % 4,
        };
        let src = race_free_kernel(kseed, shape);
        out.push(item(
            format!("drawn {kind} {kseed:016x}"),
            &src,
            &src,
            drawn_cfg(),
            runner(),
            Expect::Verified,
        ));
    }
    out
}

/// Pairs with a known answer that no workload runs, because the program
/// gets them wrong or leaves them undecided today, so every run would
/// fail. Each comes with the reason. Every run prints them, and the
/// ignored test `excluded_items_give_their_known_answers` checks them
/// (`cargo test --manifest-path benchmark/Cargo.toml -- --ignored`); an
/// item that passes there belongs back in its workload.
pub fn excluded() -> Vec<(Item, &'static str)> {
    let runner = Call::Runner {
        concretize: Vec::new(),
        aux_passes: true,
    };
    let two_writes = "the Param rung reports a functional equivalence mismatch on the self-pair \
                      of a deterministic kernel in which a thread writes its own cell twice";
    vec![
        (
            item(
                "two writes, one barrier interval".into(),
                TWO_WRITES_SAME_INTERVAL,
                TWO_WRITES_SAME_INTERVAL,
                drawn_cfg(),
                runner.clone(),
                Expect::Verified,
            ),
            two_writes,
        ),
        (
            item(
                "two writes across a barrier".into(),
                TWO_WRITES_ACROSS_BARRIER,
                TWO_WRITES_ACROSS_BARRIER,
                drawn_cfg(),
                runner.clone(),
                Expect::Verified,
            ),
            two_writes,
        ),
        (
            item(
                "matmul naive/tiled".into(),
                matmul::NAIVE,
                matmul::TILED,
                GpuConfig::symbolic_2d(8),
                runner,
                Expect::Verified,
            ),
            "no rung answers: the tiled kernel's data-dependent tile loop fails alignment",
        ),
    ]
}

/// A thread writes its own output cell twice in one barrier interval.
const TWO_WRITES_SAME_INTERVAL: &str = "void k(int *out, int *in, int p) {
out[tid.x] = p;
out[tid.x] += 3;
}";

/// A thread writes its own output cell, then rewrites it after a barrier.
const TWO_WRITES_ACROSS_BARRIER: &str = "void k(int *out, int *in, int p) {
out[tid.x] = p;
__syncthreads();
out[tid.x] = out[tid.x] ^ 3;
}";
