//! The perf harness: old vs new decision kernels, machine-readable.
//!
//! Runs E1/E2/E3-style workloads twice — once against the baseline kernels
//! (linear-scan candidate generation, sweep simulation, single-threaded
//! pattern loops) and once against the shipped ones (adaptive strategy
//! pick over linear-scan / pattern-indexed MRV search, worklist simulation,
//! intra-request parallel kernels) — and reports per-case p50/p95/p99 wall
//! times, speedups, and verdict agreement as a JSON document
//! (`BENCH_PR10.json` at the repo root; see the `co-bench` binary and the
//! README's Performance section). Since PR10 the suite also carries
//! `union_heavy`, which times the UCQ per-disjunct short-circuit
//! (containing disjunct last vs first) instead of an old/new kernel pair.
//!
//! Both kernel generations are kept callable on purpose: the old hom
//! engine survives as [`co_cq::hom::CandidateStrategy::LinearScan`], the
//! old simulation solver as [`co_object::greatest_simulation_sweep`], and
//! single-threaded pattern loops as `ContainOptions { threads: 1, .. }`,
//! so the comparison is within one binary on identical inputs.
//!
//! Two report schemas exist: `co-bench/perf-v1` (the committed
//! `BENCH_PR2.json` baseline — medians only) and `co-bench/perf-v2`
//! (adds per-case and per-workload p50/p95/p99 plus the thread count;
//! produced by every new run). [`check_report`] validates both.

use std::time::Instant;

use co_cq::hom::{set_default_strategy, CandidateStrategy};
use co_object::{par, ValueGraph};
use co_service::{Decision, Engine, EngineConfig, Op, Request};
use co_sim::tree::{try_tree_contained_in_with, ContainOptions};

use crate::json::Json;
use crate::workloads;

/// Knobs for a perf run.
#[derive(Debug, Clone, Copy)]
pub struct PerfOptions {
    /// Shrink every workload to smoke-test size (seconds, not minutes).
    pub quick: bool,
    /// Timed repetitions per case; p50/p95/p99 are reported.
    pub runs: usize,
    /// Kernel threads for the parallel workloads (`0` = auto).
    pub threads: usize,
}

impl PerfOptions {
    /// Full-size run (the one that produces the committed baseline).
    pub fn full() -> PerfOptions {
        PerfOptions { quick: false, runs: 5, threads: 0 }
    }

    /// Smoke-test run for CI (`scripts/verify.sh`).
    pub fn quick() -> PerfOptions {
        PerfOptions { quick: true, runs: 3, threads: 0 }
    }

    /// The thread count the parallel kernels will actually use.
    fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            par::effective_threads()
        } else {
            self.threads
        }
    }
}

/// Latency percentiles of one measurement series, in µs.
#[derive(Clone, Copy, Debug)]
struct Pcts {
    p50: f64,
    p95: f64,
    p99: f64,
}

/// Nearest-rank percentiles of a sample vector.
fn pcts(mut xs: Vec<f64>) -> Pcts {
    xs.sort_by(f64::total_cmp);
    let q = |p: f64| -> f64 {
        if xs.is_empty() {
            return 0.0;
        }
        let rank = ((p / 100.0) * xs.len() as f64).ceil() as usize;
        xs[rank.saturating_sub(1).min(xs.len() - 1)]
    };
    Pcts { p50: q(50.0), p95: q(95.0), p99: q(99.0) }
}

/// One measured instance: the same computation under both kernels.
struct Case {
    label: String,
    old: Pcts,
    new: Pcts,
    agree: bool,
    /// Paired-sample ratio median, when the case was sampled interleaved
    /// ([`run_case_iters`]); beats `p50(old)/p50(new)` on noisy hosts
    /// because each ratio compares two adjacent-in-time batches.
    paired_speedup: Option<f64>,
}

impl Case {
    fn speedup(&self) -> f64 {
        self.paired_speedup.unwrap_or(self.old.p50 / self.new.p50.max(1e-3))
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    if xs.is_empty() {
        0.0
    } else {
        xs[xs.len() / 2]
    }
}

/// Per-run wall times in µs (each run averages `iters` back-to-back
/// calls), plus the (last) result.
fn timed<R>(runs: usize, iters: usize, mut f: impl FnMut() -> R) -> (R, Vec<f64>) {
    let mut out = None;
    let iters = iters.max(1);
    let samples: Vec<f64> = (0..runs.max(1))
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                out = Some(f());
            }
            start.elapsed().as_secs_f64() * 1e6 / iters as f64
        })
        .collect();
    (out.expect("runs >= 1"), samples)
}

/// Batch size for the adaptive-parity cases (tens of µs per call): each
/// sample times this many back-to-back calls, so the p50 ratio the strict
/// parity floor checks is stable to a couple of percent.
const PARITY_ITERS: usize = 120;

/// Times `old` and `new` and compares their verdict strings.
fn run_case(
    runs: usize,
    label: impl Into<String>,
    old: impl FnMut() -> String,
    new: impl FnMut() -> String,
) -> Case {
    run_case_iters(runs, 1, label, old, new)
}

/// [`run_case`] with batched, interleaved samples: microsecond-scale
/// cases (the adaptive parity workloads) need each sample to amortize
/// many calls, and old/new samples alternated in time, or timer noise and
/// machine-load drift swamp the ratio the strict floor checks.
fn run_case_iters(
    runs: usize,
    iters: usize,
    label: impl Into<String>,
    mut old: impl FnMut() -> String,
    mut new: impl FnMut() -> String,
) -> Case {
    let mut old_samples = Vec::with_capacity(runs);
    let mut new_samples = Vec::with_capacity(runs);
    let mut ratios = Vec::with_capacity(runs);
    let mut v_old = String::new();
    let mut v_new = String::new();
    for _ in 0..runs.max(1) {
        let (v, s) = timed(1, iters, &mut old);
        v_old = v;
        old_samples.extend_from_slice(&s);
        let (v, t) = timed(1, iters, &mut new);
        v_new = v;
        new_samples.extend_from_slice(&t);
        ratios.push(s[0] / t[0].max(1e-3));
    }
    Case {
        label: label.into(),
        old: pcts(old_samples),
        new: pcts(new_samples),
        agree: v_old == v_new,
        paired_speedup: Some(median(ratios)),
    }
}

fn round1(x: f64) -> Json {
    Json::num((x * 10.0).round() / 10.0)
}

fn workload_json(name: &str, style: &str, kernel: &str, cases: Vec<Case>) -> Json {
    let agreeing = cases.iter().filter(|c| c.agree).count();
    let case_objs: Vec<Json> = cases
        .iter()
        .map(|c| {
            Json::Obj(vec![
                ("label".into(), Json::str(&c.label)),
                ("old_us".into(), round1(c.old.p50)),
                ("new_us".into(), round1(c.new.p50)),
                ("old_p95_us".into(), round1(c.old.p95)),
                ("new_p95_us".into(), round1(c.new.p95)),
                ("old_p99_us".into(), round1(c.old.p99)),
                ("new_p99_us".into(), round1(c.new.p99)),
                ("speedup".into(), Json::num((c.speedup() * 100.0).round() / 100.0)),
                ("verdicts_agree".into(), Json::Bool(c.agree)),
            ])
        })
        .collect();
    let med = |f: fn(&Case) -> f64| Json::num(median(cases.iter().map(f).collect()));
    Json::Obj(vec![
        ("name".into(), Json::str(name)),
        ("style".into(), Json::str(style)),
        ("kernel".into(), Json::str(kernel)),
        ("median_old_us".into(), med(|c| c.old.p50)),
        ("median_new_us".into(), med(|c| c.new.p50)),
        ("p95_old_us".into(), med(|c| c.old.p95)),
        ("p95_new_us".into(), med(|c| c.new.p95)),
        ("p99_old_us".into(), med(|c| c.old.p99)),
        ("p99_new_us".into(), med(|c| c.new.p99)),
        (
            "median_speedup".into(),
            Json::num((median(cases.iter().map(Case::speedup).collect()) * 100.0).round() / 100.0),
        ),
        ("verdicts_total".into(), Json::num(cases.len() as f64)),
        ("verdicts_agreeing".into(), Json::num(agreeing as f64)),
        ("cases".into(), Json::Arr(case_objs)),
    ])
}

/// E2-style chain joins, [`co_cq::HomProblem`] head to head per strategy.
fn join_heavy(opts: &PerfOptions) -> Json {
    use std::ops::ControlFlow;
    let shapes: &[(usize, usize)] =
        if opts.quick { &[(3, 40), (3, 80)] } else { &[(3, 200), (3, 400), (3, 800), (4, 300)] };
    let cases = shapes
        .iter()
        .map(|&(len, n)| {
            let (q, db) = workloads::join_chain_instance(len, n);
            let count = |strategy: CandidateStrategy| {
                let mut solutions = 0u64;
                co_cq::HomProblem::new(&q.body, &db).with_strategy(strategy).for_each(|_| {
                    solutions += 1;
                    ControlFlow::Continue(())
                });
                solutions.to_string()
            };
            run_case(
                opts.runs,
                format!("chain len={len} n={n}"),
                || count(CandidateStrategy::LinearScan),
                || count(CandidateStrategy::Adaptive),
            )
        })
        .collect();
    workload_json("join_heavy", "E2 chain joins", "hom", cases)
}

/// E3-style witness-copy simulation (negative, refutation-heavy
/// instances). The kernel cases time the hom search on a pre-built frozen
/// expansion ([`workloads::witness_search_instance`]): end to end, both
/// engines share the per-call expansion construction and counterexample
/// database cloning of `co_sim::simulated_by_with_witnesses`, which hides
/// the search-kernel gap. One end-to-end case is kept for honesty; the
/// engine choice flows through the process-default strategy there because
/// `co-sim` builds its `HomProblem`s internally.
fn witness_copy(opts: &PerfOptions) -> Json {
    let shapes: &[(usize, usize)] =
        if opts.quick { &[(24, 4)] } else { &[(96, 8), (160, 8), (256, 8)] };
    let mut cases: Vec<Case> = shapes
        .iter()
        .map(|&(fanout, witnesses)| {
            let (body, db, fixed) = workloads::witness_search_instance(fanout, witnesses);
            let search = |strategy: CandidateStrategy| {
                let outcome = co_cq::HomProblem::new(&body, &db)
                    .with_fixed(fixed.clone())
                    .with_strategy(strategy)
                    .first();
                format!("{:?}", outcome.map(|a| a.is_some()))
            };
            run_case(
                opts.runs,
                format!("refute search fanout={fanout} witnesses={witnesses}"),
                || search(CandidateStrategy::LinearScan),
                || search(CandidateStrategy::Adaptive),
            )
        })
        .collect();
    let (fanout, witnesses) = if opts.quick { (24, 4) } else { (192, 8) };
    let (q1, q2) = workloads::witness_fanout_pair(fanout);
    let decide = || co_sim::simulated_by_with_witnesses(&q1, &q2, witnesses).holds().to_string();
    cases.push(run_case(
        opts.runs,
        format!("end-to-end fanout={fanout} witnesses={witnesses}"),
        || with_strategy(CandidateStrategy::LinearScan, decide),
        || with_strategy(CandidateStrategy::Adaptive, decide),
    ));
    workload_json("witness_copy", "E3 witness-copy simulation", "hom", cases)
}

/// E3-style positive simulation instances (first-solution searches).
/// Small instances: the adaptive pick must keep these at parity with the
/// linear-scan baseline (they regressed under always-indexed).
fn simulation_positive(opts: &PerfOptions) -> Json {
    let sizes: &[usize] = if opts.quick { &[2] } else { &[4, 8] };
    let cases = sizes
        .iter()
        .map(|&n| {
            let (q1, q2) = workloads::simulation_positive(n);
            let decide = || co_sim::is_simulated_by(&q1, &q2).to_string();
            run_case_iters(
                opts.runs * 6,
                PARITY_ITERS,
                format!("positive chain n={n}"),
                || with_strategy(CandidateStrategy::LinearScan, decide),
                || with_strategy(CandidateStrategy::Adaptive, decide),
            )
        })
        .collect();
    workload_json("simulation_positive", "E3 positive simulation", "hom", cases)
}

/// E1-style graph simulation: the dispatching solver (topological
/// single pass on `from_value` graphs) vs the changed-flag sweep.
fn graph_simulation(opts: &PerfOptions) -> Json {
    let shapes: &[(usize, usize, i64)] =
        if opts.quick { &[(40, 10, 2)] } else { &[(120, 24, 8), (200, 30, 0), (200, 30, 15)] };
    let mut cases: Vec<Case> = shapes
        .iter()
        .map(|&(depth, width, offset)| {
            let (v, w) = workloads::sim_chain_pair(depth, width, offset);
            let (g1, g2) = (ValueGraph::from_value(&v), ValueGraph::from_value(&w));
            run_case(
                opts.runs,
                format!("chain depth={depth} width={width} offset={offset}"),
                || verdict_matrix(co_object::greatest_simulation_sweep(&g1, &g2)),
                || verdict_matrix(co_object::greatest_simulation(&g1, &g2)),
            )
        })
        .collect();
    // One random E1 pair for shape diversity.
    let (v, w) = workloads::hoare_pair(if opts.quick { 60 } else { 480 }, 42);
    let (g1, g2) = (ValueGraph::from_value(&v), ValueGraph::from_value(&w));
    cases.push(run_case(
        opts.runs,
        "random hoare pair",
        || verdict_matrix(co_object::greatest_simulation_sweep(&g1, &g2)),
        || verdict_matrix(co_object::greatest_simulation(&g1, &g2)),
    ));
    workload_json("graph_simulation", "E1 Hoare order via simulation", "simulation", cases)
}

/// E2-style full-stack containment with the engine flipped process-wide.
/// Includes the small instances that regressed under always-indexed; the
/// adaptive pick must hold them at parity (≥0.95×) vs the linear-scan
/// baseline.
fn containment_stack(opts: &PerfOptions) -> Json {
    let mut cases = Vec::new();
    let chain_sizes: &[usize] = if opts.quick { &[8] } else { &[16, 32] };
    for &n in chain_sizes {
        let (q1, q2) = workloads::chain_pair(n);
        let decide = || co_cq::is_contained_in(&q1, &q2).to_string();
        cases.push(run_case_iters(
            opts.runs * 6,
            PARITY_ITERS,
            format!("chain containment n={n}"),
            || with_strategy(CandidateStrategy::LinearScan, decide),
            || with_strategy(CandidateStrategy::Adaptive, decide),
        ));
    }
    if !opts.quick {
        let (q1, q2) = workloads::coloring_pair(8, 7);
        let decide = || co_cq::is_contained_in(&q1, &q2).to_string();
        cases.push(run_case_iters(
            opts.runs * 6,
            PARITY_ITERS,
            "3-coloring n=8",
            || with_strategy(CandidateStrategy::LinearScan, decide),
            || with_strategy(CandidateStrategy::Adaptive, decide),
        ));
    }
    workload_json("containment_stack", "E2 whole-procedure containment", "hom", cases)
}

/// The 2^m emptiness case split of §5 tree containment, single-threaded vs
/// the work-stealing pattern loop at the run's thread count.
fn hard_emptiness(opts: &PerfOptions) -> Json {
    let sizes: &[usize] = if opts.quick { &[6] } else { &[11, 12] };
    let threads = opts.resolved_threads();
    let cases = sizes
        .iter()
        .map(|&m| {
            let q = workloads::many_children_query(m);
            let p = co_core::prepare(&q, &workloads::coql_schema())
                .expect("many_children_query prepares");
            let decide = |t: usize| {
                let o = ContainOptions { no_empty_sets: false, extra_witnesses: 0, threads: t };
                format!("{:?}", try_tree_contained_in_with(&p.tree, &p.tree, o))
            };
            run_case(
                opts.runs,
                format!("emptiness split m={m} (2^{m} patterns, {threads} threads)"),
                || decide(1),
                || decide(threads),
            )
        })
        .collect();
    workload_json("hard_emptiness", "§5 emptiness case split, parallel patterns", "tree", cases)
}

/// PR10: k-disjunct union containment with one containing disjunct, hit
/// first vs hit last. Old = the containing disjunct sits last, so every
/// decoy must be refuted before the hit; new = it sits first, so the
/// short-circuit answers after one pair. Both placements decide
/// `holds = true`; the strict floor demands the early hit ≥ 5× faster.
fn union_heavy(opts: &PerfOptions) -> Json {
    let shapes: &[(usize, usize)] = if opts.quick { &[(4, 2)] } else { &[(8, 2), (8, 3), (12, 2)] };
    let schema = workloads::coql_schema();
    let cases = shapes
        .iter()
        .map(|&(k, rounds)| {
            let (left, right_last) = workloads::union_heavy_instance(k, rounds, false);
            let (_, right_first) = workloads::union_heavy_instance(k, rounds, true);
            let l = co_core::prepare_union(&left, &schema).expect("left union prepares");
            let last = co_core::prepare_union(&right_last, &schema).expect("late union prepares");
            let first =
                co_core::prepare_union(&right_first, &schema).expect("early union prepares");
            let decide = |r: &co_core::PreparedUnion| {
                co_core::union_contained_prepared(&l, r).expect("union decides").holds.to_string()
            };
            run_case_iters(
                opts.runs * 2,
                if opts.quick { 8 } else { 24 },
                format!("union k={k} mycielski rounds={rounds}, hit last vs first"),
                || decide(&last),
                || decide(&first),
            )
        })
        .collect();
    workload_json("union_heavy", "E14 k-disjunct unions, short-circuit", "union", cases)
}

/// A duplicate-heavy serving stream with rare hard 2^m requests mixed in,
/// through a real [`co_service::Engine`]: every request's latency is a
/// sample, so p99 captures the hard tail. Old = engine pinned to 1 kernel
/// thread; new = the run's thread count. The hard requests finish ~threads×
/// faster, so the stream's p99 must drop strictly.
fn mixed_p99(opts: &PerfOptions) -> Json {
    let (total, every, hard_m) = if opts.quick { (80, 20, 7) } else { (800, 40, 10) };
    let threads = opts.resolved_threads();
    let pairs = workloads::service_workload(total, 12, 77);
    // Distinct hard queries (an outer filter constant) so none is a cache
    // hit: every occurrence really runs the 2^m split.
    let hard_text = |i: usize| {
        let subs: Vec<String> = (0..hard_m)
            .map(|g| format!("g{g}: (select y{g}.C from y{g} in S where y{g}.C = x.A)"))
            .collect();
        format!("select [{}] from x in R where x.A = {i}", subs.join(", "))
    };
    let run = |kernel_threads: usize| -> (String, Vec<f64>) {
        let engine = Engine::new(EngineConfig { kernel_threads, ..EngineConfig::default() });
        engine.register_schema("s", workloads::coql_schema());
        let mut verdicts = String::new();
        let mut latencies = Vec::with_capacity(total);
        for (i, (q1, q2)) in pairs.iter().enumerate() {
            let request = if i % every == every - 1 {
                let hard = hard_text(i);
                Request::new(Op::Check, "s", &hard, &hard)
            } else {
                Request::new(Op::Check, "s", q1, q2)
            };
            let start = Instant::now();
            let decision = engine.decide(&request);
            latencies.push(start.elapsed().as_secs_f64() * 1e6);
            verdicts.push(match decision {
                Ok(Decision::Containment { analysis, .. }) => {
                    if analysis.holds {
                        'T'
                    } else {
                        'F'
                    }
                }
                _ => '?',
            });
        }
        (verdicts, latencies)
    };
    let (v_old, lat_old) = run(1);
    let (v_new, lat_new) = run(threads);
    let case = Case {
        label: format!("{total} requests, hard 2^{hard_m} every {every}th, {threads} threads"),
        old: pcts(lat_old),
        new: pcts(lat_new),
        agree: v_old == v_new,
        paired_speedup: None,
    };
    workload_json("mixed_p99", "E13 mixed serving load, tail latency", "service", vec![case])
}

/// Runs `f` with the process-default candidate strategy set to `s`,
/// restoring the shipped default (Adaptive) afterwards.
fn with_strategy<R>(s: CandidateStrategy, f: impl FnOnce() -> R) -> R {
    set_default_strategy(s);
    let r = f();
    set_default_strategy(CandidateStrategy::Adaptive);
    r
}

/// A comparable digest of a simulation matrix.
fn verdict_matrix(m: Vec<Vec<bool>>) -> String {
    let total: usize = m.iter().map(|row| row.iter().filter(|&&b| b).count()).sum();
    format!("{}x{}:{total}", m.len(), m.first().map_or(0, Vec::len))
}

/// Runs one workload and prints the kernel step counters it moved to
/// stderr (a `bench-kernel` line per counter). Stderr on purpose: the
/// JSON report on stdout is the machine-readable artifact checked into
/// `BENCH_PR7.json`, and step counts vary with workload sizing, so they
/// inform a human reading the run without perturbing the baseline diff.
fn traced(name: &str, run: impl FnOnce() -> Json) -> Json {
    let before = co_trace::kernel::snapshot();
    let report = run();
    let steps = co_trace::kernel::snapshot().delta(&before);
    for (counter, value) in steps.iter() {
        if value > 0 {
            eprintln!("bench-kernel {name} {counter} {value}");
        }
    }
    report
}

/// Runs every workload and assembles the `co-bench/perf-v2` report.
pub fn run_report(opts: &PerfOptions) -> Json {
    par::set_kernel_threads(opts.threads);
    let workloads = vec![
        traced("join_heavy", || join_heavy(opts)),
        traced("witness_copy", || witness_copy(opts)),
        traced("simulation_positive", || simulation_positive(opts)),
        traced("graph_simulation", || graph_simulation(opts)),
        traced("containment_stack", || containment_stack(opts)),
        traced("hard_emptiness", || hard_emptiness(opts)),
        traced("union_heavy", || union_heavy(opts)),
        traced("mixed_p99", || mixed_p99(opts)),
    ];
    Json::Obj(vec![
        ("schema".into(), Json::str("co-bench/perf-v2")),
        ("baseline".into(), Json::str("linear-scan hom + sweep simulation + 1-thread kernels")),
        (
            "candidate".into(),
            Json::str("adaptive indexed MRV hom + worklist simulation + parallel kernels"),
        ),
        ("runs_per_case".into(), Json::num(opts.runs as f64)),
        ("quick".into(), Json::Bool(opts.quick)),
        ("threads".into(), Json::num(opts.resolved_threads() as f64)),
        ("workloads".into(), Json::Arr(workloads)),
    ])
}

/// Validates a `co-bench/perf-v1` or `co-bench/perf-v2` report.
///
/// Always enforced: a known schema tag, well-formed workloads/cases with
/// positive timings, and **100% verdict agreement**. With `strict` (used
/// on the committed baselines, not on smoke runs):
///
/// * v1 and v2: `join_heavy` and `witness_copy` median speedup ≥ 5×;
/// * v2 only: every `simulation_positive` / `containment_stack` case at
///   parity (≥ 0.95×, i.e. ≥ 1× within timer noise — the small instances
///   the adaptive pick exists for resolve to the baseline engine itself,
///   so the true ratio is 1.0 by construction), `hard_emptiness`
///   median ≥ 3× when the run used ≥ 8 threads, and `mixed_p99`'s new p99
///   strictly below the old p99 when the run used ≥ 2 threads (with one
///   kernel thread both sides are the same engine).
pub fn check_report(doc: &Json, strict: bool) -> Result<Vec<String>, String> {
    let schema = doc.get("schema").and_then(Json::as_str);
    let v2 = match schema {
        Some("co-bench/perf-v1") => false,
        Some("co-bench/perf-v2") => true,
        other => return Err(format!("bad schema tag: {other:?}")),
    };
    let threads = if v2 {
        doc.get("threads").and_then(Json::as_num).ok_or("perf-v2 report missing threads")? as usize
    } else {
        1
    };
    let workloads = doc.get("workloads").and_then(Json::as_arr).ok_or("missing workloads array")?;
    if workloads.is_empty() {
        return Err("no workloads".into());
    }
    let mut summary = Vec::new();
    for w in workloads {
        let name = w.get("name").and_then(Json::as_str).ok_or("workload missing name")?;
        let num = |key: &str| {
            w.get(key)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("workload {name}: missing numeric {key}"))
        };
        let speedup = num("median_speedup")?;
        let total = num("verdicts_total")?;
        let agreeing = num("verdicts_agreeing")?;
        if total <= 0.0 {
            return Err(format!("workload {name}: no cases"));
        }
        if agreeing != total {
            return Err(format!("workload {name}: verdict disagreement ({agreeing}/{total})"));
        }
        let cases = w.get("cases").and_then(Json::as_arr).ok_or("missing cases")?;
        if cases.len() != total as usize {
            return Err(format!("workload {name}: cases/verdicts_total mismatch"));
        }
        for c in cases {
            let case_num = |k: &str| c.get(k).and_then(Json::as_num);
            let mut keys = vec!["old_us", "new_us", "speedup"];
            if v2 {
                keys.extend(["old_p95_us", "new_p95_us", "old_p99_us", "new_p99_us"]);
            }
            let ok = keys.iter().all(|k| case_num(k).is_some_and(|x| x > 0.0))
                && c.get("verdicts_agree").and_then(Json::as_bool) == Some(true);
            if !ok {
                return Err(format!("workload {name}: malformed case"));
            }
            if strict && v2 {
                // The adaptive parity floor. On these small instances the
                // adaptive pick resolves to the linear-scan baseline
                // itself, so the true ratio is 1.0 and anything measured
                // below 0.95 is a real regression, not timer noise (the
                // pre-adaptive regressions sat at 0.27–0.9×).
                if matches!(name, "simulation_positive" | "containment_stack") {
                    let s = case_num("speedup").unwrap_or(0.0);
                    if s < 0.95 {
                        let label = c.get("label").and_then(Json::as_str).unwrap_or("?");
                        return Err(format!(
                            "workload {name}: case `{label}` at {s}×, below the adaptive \
                             parity floor (0.95×)"
                        ));
                    }
                }
                // With only one kernel thread the "new" engine is the
                // baseline engine, so the tail gate (like the 3× floor
                // below) binds only when the run actually parallelized.
                if name == "mixed_p99" && threads >= 2 {
                    let (old_p99, new_p99) = (
                        case_num("old_p99_us").unwrap_or(0.0),
                        case_num("new_p99_us").unwrap_or(f64::MAX),
                    );
                    if new_p99 >= old_p99 {
                        return Err(format!(
                            "workload {name}: new p99 {new_p99}µs not strictly below old {old_p99}µs"
                        ));
                    }
                }
            }
        }
        if strict && matches!(name, "join_heavy" | "witness_copy") && speedup < 5.0 {
            return Err(format!("workload {name}: median speedup {speedup}× below the 5× floor"));
        }
        // The UCQ short-circuit floor: a first-disjunct hit must answer at
        // least 5× faster than a last-disjunct hit (ISSUE 10). Unlike the
        // thread-gated floors this binds on every machine — the
        // short-circuit saves pair decisions, not parallelism.
        if strict && name == "union_heavy" && speedup < 5.0 {
            return Err(format!(
                "workload {name}: early-hit speedup {speedup}× below the 5× short-circuit floor"
            ));
        }
        if strict && v2 && name == "hard_emptiness" && threads >= 8 && speedup < 3.0 {
            return Err(format!(
                "workload {name}: median speedup {speedup}× below the 3× floor at {threads} threads"
            ));
        }
        summary
            .push(format!("{name}: {speedup}× median speedup, {agreeing}/{total} verdicts agree"));
    }
    // The parallel-speedup floors above only bind when the run actually
    // had threads to parallelize over. Passing strict on a small machine
    // is then weaker than it looks — say so (still exit 0: a vacuous gate
    // is not a regression, but the reader must not mistake it for a pass).
    if strict && v2 && threads < 8 {
        let skipped = if threads < 2 {
            "hard_emptiness 3× floor, mixed_p99 tail gate"
        } else {
            "hard_emptiness 3× floor"
        };
        summary.push(format!(
            "WARN: thread-gated floors vacuous (threads: {threads}; skipped: {skipped})"
        ));
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_report_is_well_formed_and_agreeing() {
        let report = run_report(&PerfOptions { quick: true, runs: 1, threads: 2 });
        // Round-trip through the serializer, then validate like `check`.
        let parsed = Json::parse(&report.to_string()).expect("report serializes to valid JSON");
        let summary = check_report(&parsed, false).expect("quick report passes validation");
        assert_eq!(summary.len(), 8);
        par::set_kernel_threads(0);
    }

    /// Overwrites `key` in the first workload of a report.
    fn patch_first_workload(report: &mut Json, key: &str, value: Json) {
        let Json::Obj(fields) = report else { unreachable!() };
        let workloads = fields.iter_mut().find(|(k, _)| k == "workloads").unwrap();
        let Json::Arr(ws) = &mut workloads.1 else { unreachable!() };
        let Json::Obj(w0) = &mut ws[0] else { unreachable!() };
        for (k, v) in w0.iter_mut() {
            if k == key {
                *v = value.clone();
            }
        }
    }

    #[test]
    fn check_rejects_disagreement_and_slow_kernels() {
        let mut report = run_report(&PerfOptions { quick: true, runs: 1, threads: 1 });
        par::set_kernel_threads(0);
        // A fabricated sub-5× join_heavy median must fail only under strict.
        patch_first_workload(&mut report, "median_speedup", Json::num(1.5));
        assert!(check_report(&report, false).is_ok());
        assert!(check_report(&report, true).is_err());
        // Any verdict disagreement must always fail.
        patch_first_workload(&mut report, "verdicts_agreeing", Json::num(0.0));
        assert!(check_report(&report, false).is_err());
    }

    /// Minimal well-formed perf-v2 report with the given thread count.
    fn synthetic_v2(threads: usize) -> Json {
        Json::parse(&format!(
            r#"{{"schema":"co-bench/perf-v2","threads":{threads},"workloads":[
                {{"name":"join_heavy","median_speedup":6.0,"verdicts_total":1,
                  "verdicts_agreeing":1,"cases":[
                    {{"label":"x","old_us":100,"new_us":10,"speedup":6.0,
                      "old_p95_us":1,"new_p95_us":1,"old_p99_us":2,
                      "new_p99_us":1,"verdicts_agree":true}}]}}]}}"#
        ))
        .expect("synthetic report parses")
    }

    #[test]
    fn strict_check_warns_when_thread_gates_are_vacuous() {
        // One thread: both the hard_emptiness floor and the mixed_p99 tail
        // gate are vacuous — strict still passes (exit 0) but says so.
        let summary = check_report(&synthetic_v2(1), true).unwrap();
        assert!(
            summary.iter().any(|l| l.starts_with("WARN: thread-gated floors vacuous (threads: 1")),
            "{summary:?}"
        );
        // Two threads: the tail gate binds, only the 3× floor is vacuous.
        let summary = check_report(&synthetic_v2(2), true).unwrap();
        let warn = summary.iter().find(|l| l.starts_with("WARN:")).expect("warn line");
        assert!(warn.contains("hard_emptiness") && !warn.contains("mixed_p99"), "{warn}");
        // Fully threaded runs and non-strict checks carry no warning.
        assert!(check_report(&synthetic_v2(8), true).unwrap().iter().all(|l| !l.contains("WARN")));
        assert!(check_report(&synthetic_v2(1), false).unwrap().iter().all(|l| !l.contains("WARN")));
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let p = pcts((1..=100).map(|i| i as f64).collect());
        assert_eq!(p.p50, 50.0);
        assert_eq!(p.p95, 95.0);
        assert_eq!(p.p99, 99.0);
        let single = pcts(vec![7.0]);
        assert_eq!(single.p50, 7.0);
        assert_eq!(single.p99, 7.0);
    }
}
