//! The backtracking homomorphism engine.
//!
//! Everything NP-complete in this reproduction — classical containment \[11\],
//! simulation and strong simulation (§5–6 of the paper), aggregate
//! equivalence (§7) — bottoms out in one search problem: find an assignment
//! of query variables to database atoms under which every body atom becomes
//! a fact of the database, subject to some variables being pre-bound.
//!
//! # Candidate generation (DESIGN.md §9, §14)
//!
//! The engine runs in one of several [`CandidateStrategy`] modes:
//!
//! * [`CandidateStrategy::Indexed`]: at every search node the engine picks
//!   the remaining atom with the **fewest live candidates** (MRV — minimum
//!   remaining values), where candidates come from the relation's
//!   lazily-built hash index on the atom's currently-bound argument
//!   positions ([`crate::db::Relation::pattern_index`]). Only tuples that
//!   agree with the partial assignment on the bound positions are ever
//!   probed.
//! * [`CandidateStrategy::LinearScan`]: the original kernel — a static
//!   greedy atom order fixed up front (`plan_order`) and a full scan of
//!   each atom's relation at every depth. Kept as the differential-testing
//!   oracle and as the baseline the `co-bench perf` harness measures
//!   speedups against.
//! * [`CandidateStrategy::Adaptive`] (the default): picks per problem —
//!   instances whose largest scanned relation sits under a threshold use
//!   `LinearScan` so they never pay index-build cost, everything else
//!   uses `Indexed`.
//!
//! All strategies visit exactly the same solution set, respect the same
//! `forbidden` semantics, and charge the step budget the same way: **one
//! step per candidate-tuple probe**. (Indexed search probes fewer
//! candidates, so a budget generous enough for the linear scan is always
//! generous enough for it on the same instance.)
//!
//! The engine can report the first solution, enumerate all solutions
//! through a callback, or count solutions, and carries an optional step
//! budget so callers with worst-case-exponential workloads (the hard
//! instances of E2–E4) can bail out deterministically.
//!
//! # Intra-request parallelism (DESIGN.md §14)
//!
//! [`HomProblem::first`] and [`HomProblem::solutions`] can fan the **root**
//! MRV atom's candidate list out across a scoped work-stealing pool
//! ([`co_object::par`]): each worker owns a disjoint set of root
//! candidates and runs the ordinary sequential engine below its root
//! binding. First-success cancels siblings (benignly — the request budget
//! does not expire); enumeration merges per-candidate solution lists in
//! candidate order, so the solution *set* is identical to a sequential
//! run. A sequential trial with a small internal probe cap runs first, so
//! easy instances never pay thread spawn cost. Problems with an explicit
//! [`HomProblem::with_budget`] step budget always run sequentially — the
//! deterministic probe accounting is part of that API's contract.

use std::collections::{HashMap, HashSet};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

use co_object::interrupt::{self, SharedBudget};
use co_object::{par, Atom};
use co_trace::kernel::{self, Metric};

use crate::db::{Database, PatternIndex, PositionMask, Relation, Tuple};
use crate::query::{QueryAtom, Term};
use crate::schema::Var;

/// A variable assignment produced by the engine.
pub type Assignment = HashMap<Var, Atom>;

/// Outcome of a bounded search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SearchOutcome {
    /// Search space exhausted (all solutions were visited).
    Exhausted,
    /// The callback requested an early stop.
    Stopped,
    /// The step budget ran out before the search finished.
    BudgetExceeded,
    /// The thread-local [`co_object::interrupt`] budget (deadline or step
    /// count installed by a serving layer) expired mid-search. Unlike
    /// [`SearchOutcome::BudgetExceeded`] this is sticky for the whole
    /// request: every subsequent probe on the thread fails too, so callers
    /// must abandon the decision rather than retry.
    Interrupted,
}

/// How the engine generates candidate tuples for an atom.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CandidateStrategy {
    /// Hash-index candidates on bound positions + runtime MRV atom
    /// selection.
    Indexed,
    /// Full-relation scans in a static greedy atom order (the original
    /// kernel; oracle and benchmark baseline).
    LinearScan,
    /// Per-problem pick (the default): `LinearScan` below
    /// [`ADAPTIVE_THRESHOLD`], `Indexed` above it.
    Adaptive,
}

/// `Adaptive` cutoff on the *largest relation* any atom scans: below it,
/// per-depth full scans are cheap and index builds cost more than they
/// save, regardless of how many atoms there are. The `BENCH_PR2.json`
/// small-instance regressions — 3-coloring (6-fact frozen relations,
/// dozens of atoms), containment stacks (n-fact relations, n atoms up to
/// 32), positive simulation — all scan relations well under this; the
/// indexed wins (chain joins and witness-copy searches over relations of
/// hundreds to thousands of facts) all sit well above it. Atom count is
/// deliberately *not* a factor: many atoms over tiny relations is exactly
/// where the static-order scan beats paying an index build per atom.
pub const ADAPTIVE_THRESHOLD: usize = 64;

/// Process-wide default strategy, overridable per problem with
/// [`HomProblem::with_strategy`]. Exists so the `co-bench perf` harness can
/// A/B the *entire* decision stack (containment, simulation, COQL, service)
/// without threading a parameter through every layer.
static DEFAULT_STRATEGY: AtomicU8 = AtomicU8::new(DEFAULT_STRATEGY_ADAPTIVE);

const DEFAULT_STRATEGY_ADAPTIVE: u8 = 2;

/// Sets the process-wide default [`CandidateStrategy`].
///
/// Intended for benchmarking and differential testing only; production
/// callers should leave the default ([`CandidateStrategy::Adaptive`])
/// alone.
pub fn set_default_strategy(s: CandidateStrategy) {
    let code = match s {
        CandidateStrategy::Indexed => 0,
        CandidateStrategy::LinearScan => 1,
        CandidateStrategy::Adaptive => DEFAULT_STRATEGY_ADAPTIVE,
    };
    DEFAULT_STRATEGY.store(code, Ordering::Relaxed);
}

/// The current process-wide default [`CandidateStrategy`].
pub fn default_strategy() -> CandidateStrategy {
    match DEFAULT_STRATEGY.load(Ordering::Relaxed) {
        0 => CandidateStrategy::Indexed,
        1 => CandidateStrategy::LinearScan,
        _ => CandidateStrategy::Adaptive,
    }
}

/// A homomorphism search problem: match `atoms` into `db`, extending
/// `fixed`.
pub struct HomProblem<'a> {
    atoms: &'a [QueryAtom],
    db: &'a Database,
    fixed: Assignment,
    budget: Option<u64>,
    forbidden: HashMap<Var, HashSet<Atom>>,
    strategy: Option<CandidateStrategy>,
    threads: Option<usize>,
}

impl<'a> HomProblem<'a> {
    /// Creates a problem with no pre-bound variables.
    pub fn new(atoms: &'a [QueryAtom], db: &'a Database) -> HomProblem<'a> {
        HomProblem {
            atoms,
            db,
            fixed: Assignment::new(),
            budget: None,
            forbidden: HashMap::new(),
            strategy: None,
            threads: None,
        }
    }

    /// Pre-binds variables (e.g. head variables for containment checks).
    pub fn with_fixed(mut self, fixed: Assignment) -> HomProblem<'a> {
        self.fixed = fixed;
        self
    }

    /// Sets a step budget; each candidate-tuple probe costs one step.
    pub fn with_budget(mut self, steps: u64) -> HomProblem<'a> {
        self.budget = Some(steps);
        self
    }

    /// Forbids specific values for specific variables. Checked during the
    /// backtracking (not as a post-filter), so a forbidden binding prunes
    /// its whole subtree — the simulation procedures' index-avoidance
    /// condition relies on this for tractability on easy instances.
    pub fn with_forbidden(mut self, forbidden: HashMap<Var, HashSet<Atom>>) -> HomProblem<'a> {
        self.forbidden = forbidden;
        self
    }

    /// Overrides the candidate-generation strategy for this problem (the
    /// default is the process-wide [`default_strategy`]).
    pub fn with_strategy(mut self, strategy: CandidateStrategy) -> HomProblem<'a> {
        self.strategy = Some(strategy);
        self
    }

    /// Overrides the kernel thread count for this problem (`1` forces a
    /// sequential search; the default is the process-global
    /// [`co_object::par::effective_threads`]).
    pub fn with_threads(mut self, threads: usize) -> HomProblem<'a> {
        self.threads = Some(threads.max(1));
        self
    }

    /// Threads this problem may actually use (never fans out on a pool
    /// worker, and never with an explicit step budget — its deterministic
    /// probe accounting is part of the API contract).
    fn effective_threads(&self) -> usize {
        if par::in_worker() || self.budget.is_some() {
            return 1;
        }
        self.threads.unwrap_or_else(par::effective_threads)
    }

    /// The strategy this problem will run under, with `Adaptive` resolved
    /// against the instance size.
    fn resolved_strategy(&self) -> CandidateStrategy {
        let strategy = self.strategy.unwrap_or_else(default_strategy);
        if strategy != CandidateStrategy::Adaptive {
            return strategy;
        }
        // Resolved over the database's relations (a handful) rather than
        // per atom: strictly cheaper, and on the tiny instances this pick
        // exists for, the resolution itself must not show up in profiles.
        let largest: usize = self.db.iter().map(|(_, r)| r.len()).max().unwrap_or(0);
        if largest < ADAPTIVE_THRESHOLD {
            CandidateStrategy::LinearScan
        } else {
            CandidateStrategy::Indexed
        }
    }

    /// Trivial refutations shared by every entry point: an atom over an
    /// empty relation, or a fixed binding violating a forbidden set.
    fn preflight(&self) -> bool {
        for atom in self.atoms {
            match self.db.relation_ref(atom.rel) {
                Some(r) if !r.is_empty() => {}
                _ => return false,
            }
        }
        for (v, a) in &self.fixed {
            if self.forbidden.get(v).is_some_and(|set| set.contains(a)) {
                return false;
            }
        }
        true
    }

    /// Finds the first solution, if any.
    ///
    /// Returns `Err(BudgetExceeded)`/`Err(Interrupted)` only when the
    /// budget ran out *before* a solution was found. May fan the root
    /// candidates out across kernel threads (see the module docs); the
    /// Some/None verdict is deterministic, but *which* witness comes back
    /// can differ run to run under parallelism.
    pub fn first(self) -> Result<Option<Assignment>, SearchOutcome> {
        let threads = self.effective_threads();
        if threads <= 1 {
            return self.first_sequential();
        }
        // Sequential trial: easy instances finish inside the cap and
        // never pay thread spawn cost.
        let trial = HomProblem {
            atoms: self.atoms,
            db: self.db,
            fixed: self.fixed.clone(),
            budget: Some(PARALLEL_TRIAL_PROBES),
            forbidden: self.forbidden.clone(),
            strategy: self.strategy,
            threads: Some(1),
        };
        match trial.first_sequential() {
            Err(SearchOutcome::BudgetExceeded) => {}
            decided => return decided,
        }
        self.run_parallel(threads, true).map(|mut sols| sols.pop())
    }

    fn first_sequential(self) -> Result<Option<Assignment>, SearchOutcome> {
        let mut found = None;
        let outcome = self.for_each(|a| {
            found = Some(a.clone());
            ControlFlow::Break(())
        });
        match (found, outcome) {
            (Some(a), _) => Ok(Some(a)),
            (None, out @ (SearchOutcome::BudgetExceeded | SearchOutcome::Interrupted)) => Err(out),
            (None, _) => Ok(None),
        }
    }

    /// Whether any solution exists (budget-less convenience).
    pub fn exists(self) -> bool {
        matches!(self.first(), Ok(Some(_)))
    }

    /// Enumerates the complete solution set, in a deterministic order for
    /// a fixed thread count. May fan out across kernel threads; the merge
    /// concatenates per-root-candidate solution lists in candidate order,
    /// so the solution *set* always equals a sequential enumeration.
    pub fn solutions(self) -> Result<Vec<Assignment>, SearchOutcome> {
        let threads = self.effective_threads();
        if threads <= 1 {
            return self.solutions_sequential();
        }
        let trial = HomProblem {
            atoms: self.atoms,
            db: self.db,
            fixed: self.fixed.clone(),
            budget: Some(PARALLEL_TRIAL_PROBES),
            forbidden: self.forbidden.clone(),
            strategy: self.strategy,
            threads: Some(1),
        };
        match trial.solutions_sequential() {
            Err(SearchOutcome::BudgetExceeded) => {}
            decided => return decided,
        }
        self.run_parallel(threads, false)
    }

    fn solutions_sequential(self) -> Result<Vec<Assignment>, SearchOutcome> {
        let mut solutions = Vec::new();
        let outcome = self.for_each(|a| {
            solutions.push(a.clone());
            ControlFlow::Continue(())
        });
        match outcome {
            SearchOutcome::Exhausted | SearchOutcome::Stopped => Ok(solutions),
            out => Err(out),
        }
    }

    /// Enumerates solutions through `visit`; stops early on `Break`.
    /// Always sequential (the callback is `FnMut`); [`HomProblem::first`]
    /// and [`HomProblem::solutions`] are the parallel entry points.
    pub fn for_each(self, mut visit: impl FnMut(&Assignment) -> ControlFlow<()>) -> SearchOutcome {
        if !self.preflight() {
            return SearchOutcome::Exhausted;
        }
        search(
            self.atoms,
            self.db,
            self.resolved_strategy(),
            self.fixed,
            self.budget,
            &self.forbidden,
            &mut visit,
        )
    }

    /// The root MRV split: the atom with the fewest candidates under the
    /// fixed bindings, and its candidate tuple ids in snapshot order.
    fn root_split(&self) -> (usize, Arc<Vec<Tuple>>, Vec<u32>) {
        let mut key = Vec::new();
        let mut best: Option<(usize, usize, PositionMask)> = None;
        for (i, atom) in self.atoms.iter().enumerate() {
            let rel = self.db.relation_ref(atom.rel).expect("preflight checked relations");
            let mask = bound_pattern(atom, &self.fixed, &mut key);
            let count =
                if mask == 0 { rel.len() } else { rel.pattern_index(mask).candidate_count(&key) };
            if best.is_none_or(|(c, _, _)| count < c) {
                best = Some((count, i, mask));
            }
        }
        let (_, i, mask) = best.expect("root_split needs at least one atom");
        let atom = &self.atoms[i];
        let rel = self.db.relation_ref(atom.rel).expect("preflight checked relations");
        let snapshot = rel.snapshot();
        let ids = if mask == 0 {
            (0..snapshot.len() as u32).collect()
        } else {
            bound_pattern(atom, &self.fixed, &mut key);
            rel.pattern_index(mask).candidates(&key).to_vec()
        };
        (i, snapshot, ids)
    }

    /// The parallel phase shared by [`HomProblem::first`] (`stop_on_first`)
    /// and [`HomProblem::solutions`]: workers claim root candidates from a
    /// work-stealing feeder, bind them, and run the sequential engine
    /// below; budgets are sliced from a [`SharedBudget`] and kernel
    /// counters are absorbed back into this thread after the join.
    fn run_parallel(
        self,
        threads: usize,
        stop_on_first: bool,
    ) -> Result<Vec<Assignment>, SearchOutcome> {
        if !self.preflight() {
            return Ok(Vec::new());
        }
        let strategy = self.resolved_strategy();
        let (root, snapshot, candidates) = self.root_split();
        let root_atom = &self.atoms[root];
        let shared = SharedBudget::fork_current();
        let winner: Mutex<Option<Assignment>> = Mutex::new(None);
        type WorkerYield = (Vec<(usize, Vec<Assignment>)>, bool, kernel::Counters);
        let (worker_results, stats): (Vec<WorkerYield>, _) =
            par::run_workers(threads, candidates.len(), 1, |me, feeder| {
                let before = kernel::snapshot();
                let guard = interrupt::install_shared(&shared);
                let mut mine: Vec<(usize, Vec<Assignment>)> = Vec::new();
                let mut interrupted = false;
                'chunks: while let Some(range) = feeder.next(me) {
                    for ci in range {
                        // Account the root probe exactly like the engines.
                        kernel::bump(Metric::HomProbes);
                        if interrupt::probe().is_err() {
                            interrupted = true;
                            break 'chunks;
                        }
                        let mut binding = self.fixed.clone();
                        let Some(_newly) = try_bind(
                            &mut binding,
                            &self.forbidden,
                            root_atom,
                            &snapshot[candidates[ci] as usize],
                        ) else {
                            continue;
                        };
                        let mut sols = Vec::new();
                        let outcome = search(
                            self.atoms,
                            self.db,
                            strategy,
                            binding,
                            None,
                            &self.forbidden,
                            &mut |a: &Assignment| {
                                sols.push(a.clone());
                                if stop_on_first {
                                    ControlFlow::Break(())
                                } else {
                                    ControlFlow::Continue(())
                                }
                            },
                        );
                        match outcome {
                            SearchOutcome::Exhausted | SearchOutcome::Stopped => {}
                            SearchOutcome::Interrupted | SearchOutcome::BudgetExceeded => {
                                interrupted = true;
                                break 'chunks;
                            }
                        }
                        if !sols.is_empty() {
                            if stop_on_first {
                                let mut slot = winner.lock().expect("winner lock poisoned");
                                if slot.is_none() {
                                    *slot = sols.pop();
                                }
                                feeder.stop();
                                shared.cancel();
                                break 'chunks;
                            }
                            mine.push((ci, sols));
                        }
                    }
                }
                drop(guard);
                (mine, interrupted, kernel::snapshot().delta(&before))
            });
        shared.rejoin();
        par::note_engaged(stats.threads);
        kernel::bump_by(Metric::KernelParallelBranches, stats.branches);
        kernel::bump_by(Metric::KernelSteals, stats.steals);
        let mut interrupted_any = shared.is_expired();
        let mut per_candidate: Vec<(usize, Vec<Assignment>)> = Vec::new();
        for (mine, interrupted, delta) in worker_results {
            kernel::absorb(&delta);
            interrupted_any |= interrupted;
            per_candidate.extend(mine);
        }
        if stop_on_first {
            if let Some(found) = winner.into_inner().expect("winner lock poisoned") {
                return Ok(vec![found]);
            }
        }
        if interrupted_any {
            return Err(SearchOutcome::Interrupted);
        }
        // Deterministic merge: per-root-candidate lists in candidate order.
        per_candidate.sort_by_key(|(ci, _)| *ci);
        Ok(per_candidate.into_iter().flat_map(|(_, sols)| sols).collect())
    }
}

/// Internal probe cap for the sequential trial that precedes a parallel
/// fan-out: instances that finish within it stay exactly sequential.
const PARALLEL_TRIAL_PROBES: u64 = 4096;

/// Runs the resolved engine over `atoms` with `binding` pre-applied.
/// `strategy` must not be [`CandidateStrategy::Adaptive`] (resolve first),
/// and callers are responsible for the [`HomProblem::preflight`] checks.
fn search(
    atoms: &[QueryAtom],
    db: &Database,
    strategy: CandidateStrategy,
    binding: Assignment,
    budget: Option<u64>,
    forbidden: &HashMap<Var, HashSet<Atom>>,
    visit: &mut dyn FnMut(&Assignment) -> ControlFlow<()>,
) -> SearchOutcome {
    let rels: Vec<&Relation> = atoms
        .iter()
        .map(|a| db.relation_ref(a.rel).expect("empty-relation fast path already handled"))
        .collect();
    match strategy {
        CandidateStrategy::Indexed => {
            let mut state = IndexedSearch {
                atoms,
                rels: &rels,
                snapshots: rels.iter().map(|r| r.snapshot()).collect(),
                index_cache: vec![HashMap::new(); atoms.len()],
                scratch: Vec::new(),
                remaining: (0..atoms.len()).collect(),
                binding,
                steps_left: budget,
                forbidden,
                visit,
            };
            state.run()
        }
        CandidateStrategy::LinearScan => {
            let order = plan_order(atoms, &binding, db);
            let mut state = LinearSearch {
                atoms,
                order: &order,
                snapshots: rels.iter().map(|r| r.snapshot()).collect(),
                binding,
                steps_left: budget,
                forbidden,
                visit,
            };
            state.run(0)
        }
        CandidateStrategy::Adaptive => unreachable!("Adaptive is resolved before dispatch"),
    }
}

/// Shared binding/undo logic: attempts to bind `atom`'s arguments against
/// `tuple` under `binding`; on success returns the variables newly bound
/// (for undo), on conflict returns `None` with `binding` unchanged.
fn try_bind(
    binding: &mut Assignment,
    forbidden: &HashMap<Var, HashSet<Atom>>,
    atom: &QueryAtom,
    tuple: &[Atom],
) -> Option<Vec<Var>> {
    debug_assert_eq!(atom.args.len(), tuple.len(), "arity checked by caller");
    let mut newly = Vec::new();
    for (term, &value) in atom.args.iter().zip(tuple.iter()) {
        let ok = match term {
            Term::Const(c) => *c == value,
            Term::Var(v) => match binding.get(v) {
                Some(&bound) => bound == value,
                None => {
                    if forbidden.get(v).is_some_and(|set| set.contains(&value)) {
                        false
                    } else {
                        binding.insert(*v, value);
                        newly.push(*v);
                        true
                    }
                }
            },
        };
        if !ok {
            for v in newly {
                binding.remove(&v);
            }
            return None;
        }
    }
    Some(newly)
}

/// Fills `key` with `atom`'s determined argument values (constants and
/// bound variables) in column order and returns the bound-position mask.
/// Positions ≥ 64 never enter the mask (they stay consistency-checked by
/// [`try_bind`]). Takes the buffer by `&mut` so the hot MRV loop reuses
/// one allocation across every (node, atom) probe.
fn bound_pattern(atom: &QueryAtom, binding: &Assignment, key: &mut Vec<Atom>) -> PositionMask {
    key.clear();
    let mut mask: PositionMask = 0;
    for (pos, term) in atom.args.iter().enumerate() {
        if pos >= 64 {
            break;
        }
        let value = match term {
            Term::Const(c) => Some(*c),
            Term::Var(v) => binding.get(v).copied(),
        };
        if let Some(a) = value {
            mask |= 1 << pos;
            key.push(a);
        }
    }
    mask
}

/// The indexed engine: dynamic MRV atom selection over index-generated
/// candidate lists.
struct IndexedSearch<'a, 'f> {
    atoms: &'a [QueryAtom],
    rels: &'a [&'a Relation],
    snapshots: Vec<Arc<Vec<Tuple>>>,
    /// Per-atom memo of the relation's pattern indexes, so the MRV loop
    /// pays one lock-free local hash probe instead of a `RwLock` round
    /// trip through the relation per candidate count.
    index_cache: Vec<HashMap<PositionMask, Arc<PatternIndex>>>,
    /// Reusable key buffer for [`bound_pattern`].
    scratch: Vec<Atom>,
    /// Indices of atoms not yet matched.
    remaining: Vec<usize>,
    binding: Assignment,
    steps_left: Option<u64>,
    forbidden: &'a HashMap<Var, HashSet<Atom>>,
    visit: &'f mut dyn FnMut(&Assignment) -> ControlFlow<()>,
}

impl IndexedSearch<'_, '_> {
    /// The cached candidate count for atom `i` under the current binding.
    /// Leaves the matching key in `self.scratch`.
    fn candidate_count(&mut self, i: usize) -> (usize, PositionMask) {
        let mask = bound_pattern(&self.atoms[i], &self.binding, &mut self.scratch);
        if mask == 0 {
            return (self.snapshots[i].len(), mask);
        }
        let rel = self.rels[i];
        let idx = match self.index_cache[i].entry(mask) {
            std::collections::hash_map::Entry::Occupied(e) => {
                kernel::bump(Metric::HomIndexHits);
                e.into_mut()
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                kernel::bump(Metric::HomIndexBuilds);
                v.insert(rel.pattern_index(mask))
            }
        };
        (idx.candidate_count(&self.scratch), mask)
    }

    fn run(&mut self) -> SearchOutcome {
        if self.remaining.is_empty() {
            kernel::bump(Metric::HomSolutions);
            return match (self.visit)(&self.binding) {
                ControlFlow::Break(()) => SearchOutcome::Stopped,
                ControlFlow::Continue(()) => SearchOutcome::Exhausted,
            };
        }
        // MRV: the remaining atom with the fewest index candidates under
        // the current binding; ties break on original position for
        // determinism. `pick` is a position in `self.remaining`. A zero
        // count is a proven dead end — no atom choice can rescue the node,
        // so the scan stops immediately (forward-checking-style pruning;
        // no candidates are probed either way, so budget semantics and the
        // solution set are unaffected).
        let mut pick = 0;
        let mut pick_atom = usize::MAX;
        let mut pick_mask: PositionMask = 0;
        let mut best = usize::MAX;
        for slot in 0..self.remaining.len() {
            let i = self.remaining[slot];
            let (count, mask) = self.candidate_count(i);
            if count < best || (count == best && i < pick_atom) {
                best = count;
                pick = slot;
                pick_atom = i;
                pick_mask = mask;
            }
            if best == 0 {
                break;
            }
        }
        let i = self.remaining.swap_remove(pick);
        let snapshot = Arc::clone(&self.snapshots[i]);
        let atom = &self.atoms[i];
        let index = if pick_mask == 0 {
            None
        } else {
            // Re-derive the key for the picked atom (the scratch buffer may
            // hold a later atom's key) and fetch the memoized index.
            bound_pattern(atom, &self.binding, &mut self.scratch);
            Some(Arc::clone(&self.index_cache[i][&pick_mask]))
        };
        let outcome = (|| {
            let probe = |this: &mut Self, tuple: &[Atom]| -> Result<(), SearchOutcome> {
                kernel::bump(Metric::HomProbes);
                if let Some(budget) = &mut this.steps_left {
                    if *budget == 0 {
                        return Err(SearchOutcome::BudgetExceeded);
                    }
                    *budget -= 1;
                }
                if interrupt::probe().is_err() {
                    return Err(SearchOutcome::Interrupted);
                }
                if let Some(newly) = try_bind(&mut this.binding, this.forbidden, atom, tuple) {
                    let outcome = this.run();
                    for v in newly {
                        this.binding.remove(&v);
                    }
                    match outcome {
                        SearchOutcome::Exhausted => {}
                        stop => return Err(stop),
                    }
                }
                Ok(())
            };
            match &index {
                Some(idx) => {
                    for &id in idx.candidates(&self.scratch) {
                        probe(self, &snapshot[id as usize])?;
                    }
                }
                None => {
                    for tuple in snapshot.iter() {
                        probe(self, tuple)?;
                    }
                }
            }
            Ok(())
        })();
        // Undo the atom selection on every path (including early stops).
        self.remaining.push(i);
        let last = self.remaining.len() - 1;
        self.remaining.swap(pick, last);
        match outcome {
            Ok(()) => {
                // Candidate list exhausted without an early stop below this
                // node: the search backtracks past the MRV pick.
                kernel::bump(Metric::HomBacktracks);
                SearchOutcome::Exhausted
            }
            Err(stop) => stop,
        }
    }
}

/// The original kernel: static plan, full-relation scans. Retained verbatim
/// as the oracle for differential tests and the `co-bench perf` baseline.
struct LinearSearch<'a, 'f> {
    atoms: &'a [QueryAtom],
    order: &'a [usize],
    snapshots: Vec<Arc<Vec<Tuple>>>,
    binding: Assignment,
    steps_left: Option<u64>,
    forbidden: &'a HashMap<Var, HashSet<Atom>>,
    visit: &'f mut dyn FnMut(&Assignment) -> ControlFlow<()>,
}

impl LinearSearch<'_, '_> {
    fn run(&mut self, depth: usize) -> SearchOutcome {
        if depth == self.order.len() {
            kernel::bump(Metric::HomSolutions);
            return match (self.visit)(&self.binding) {
                ControlFlow::Break(()) => SearchOutcome::Stopped,
                ControlFlow::Continue(()) => SearchOutcome::Exhausted,
            };
        }
        let i = self.order[depth];
        let atom = &self.atoms[i];
        let snapshot = Arc::clone(&self.snapshots[i]);
        // Deterministic iteration for reproducible search behaviour.
        for tuple in snapshot.iter() {
            kernel::bump(Metric::HomProbes);
            if let Some(budget) = &mut self.steps_left {
                if *budget == 0 {
                    return SearchOutcome::BudgetExceeded;
                }
                *budget -= 1;
            }
            if interrupt::probe().is_err() {
                return SearchOutcome::Interrupted;
            }
            if let Some(newly_bound) = try_bind(&mut self.binding, self.forbidden, atom, tuple) {
                let outcome = self.run(depth + 1);
                for v in newly_bound {
                    self.binding.remove(&v);
                }
                match outcome {
                    SearchOutcome::Exhausted => {}
                    stop => return stop,
                }
            }
        }
        kernel::bump(Metric::HomBacktracks);
        SearchOutcome::Exhausted
    }
}

/// Greedy static atom ordering: repeatedly pick the atom with the most
/// already-bound argument positions, breaking ties by the smaller
/// *constant-filtered* candidate count, then by original position (for
/// determinism).
///
/// Candidate counts come from each relation's hash index on the atom's
/// constant positions, so `R(1, y)` is costed by the tuples matching `1` —
/// not all of `R`. Unbound-variable counts are maintained incrementally
/// through a variable → atoms occurrence map instead of being recomputed
/// with a full `atoms × arity` rescan per selection round.
fn plan_order(atoms: &[QueryAtom], fixed: &Assignment, db: &Database) -> Vec<usize> {
    let mut bound: HashSet<Var> = fixed.keys().copied().collect();

    // Constant-filtered base size per atom (pre-filtering satellite): the
    // number of tuples matching the atom's constant arguments.
    let sizes: Vec<usize> = atoms
        .iter()
        .map(|atom| {
            let Some(rel) = db.relation_ref(atom.rel) else { return 0 };
            let consts: Vec<(usize, Atom)> = atom
                .args
                .iter()
                .enumerate()
                .filter_map(|(pos, t)| t.as_const().map(|c| (pos, c)))
                .filter(|(pos, _)| *pos < 64)
                .collect();
            if consts.is_empty() {
                return rel.len();
            }
            let mask: PositionMask = consts.iter().fold(0, |m, (pos, _)| m | 1 << pos);
            let key: Vec<Atom> = consts.iter().map(|(_, c)| *c).collect();
            rel.pattern_index(mask).candidate_count(&key)
        })
        .collect();

    // Incremental unbound counts: occurrences[v] lists (atom, multiplicity).
    let mut unbound: Vec<usize> = vec![0; atoms.len()];
    let mut occurrences: HashMap<Var, Vec<usize>> = HashMap::new();
    for (i, atom) in atoms.iter().enumerate() {
        for v in atom.vars() {
            if !bound.contains(&v) {
                unbound[i] += 1;
                occurrences.entry(v).or_default().push(i);
            }
        }
    }

    let mut remaining: Vec<usize> = (0..atoms.len()).collect();
    let mut order = Vec::with_capacity(atoms.len());
    while !remaining.is_empty() {
        let best = remaining
            .iter()
            .enumerate()
            .min_by_key(|(_, &i)| (unbound[i], sizes[i], i))
            .map(|(pos, _)| pos)
            .expect("remaining is non-empty");
        let i = remaining.swap_remove(best);
        for v in atoms[i].vars() {
            if bound.insert(v) {
                for &j in occurrences.get(&v).into_iter().flatten() {
                    unbound[j] -= 1;
                }
            }
        }
        order.push(i);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Term;

    fn v(name: &str) -> Term {
        Term::var(name)
    }

    /// Runs the same closure under both concrete strategies and asserts
    /// identical results.
    fn both<R: PartialEq + std::fmt::Debug>(f: impl Fn(CandidateStrategy) -> R) -> R {
        let indexed = f(CandidateStrategy::Indexed);
        let linear = f(CandidateStrategy::LinearScan);
        assert_eq!(indexed, linear, "Indexed and LinearScan disagree");
        indexed
    }

    #[test]
    fn finds_simple_match() {
        let db = Database::from_ints(&[("R", &[&[1, 2], &[2, 3]])]);
        let atoms = vec![
            QueryAtom::new("R", vec![v("x"), v("y")]),
            QueryAtom::new("R", vec![v("y"), v("z")]),
        ];
        let sol = HomProblem::new(&atoms, &db).first().unwrap().unwrap();
        assert_eq!(sol[&Var::new("x")], Atom::int(1));
        assert_eq!(sol[&Var::new("y")], Atom::int(2));
        assert_eq!(sol[&Var::new("z")], Atom::int(3));
    }

    use crate::schema::Var;

    #[test]
    fn respects_fixed_bindings() {
        let db = Database::from_ints(&[("R", &[&[1, 2], &[2, 3]])]);
        let atoms = vec![QueryAtom::new("R", vec![v("x"), v("y")])];
        let mut fixed = Assignment::new();
        fixed.insert(Var::new("x"), Atom::int(2));
        let sol = HomProblem::new(&atoms, &db).with_fixed(fixed).first().unwrap().unwrap();
        assert_eq!(sol[&Var::new("y")], Atom::int(3));
    }

    #[test]
    fn detects_no_match() {
        let db = Database::from_ints(&[("R", &[&[1, 2]])]);
        let atoms = vec![
            QueryAtom::new("R", vec![v("x"), v("x")]), // needs a loop
        ];
        assert!(!both(|s| HomProblem::new(&atoms, &db).with_strategy(s).exists()));
    }

    #[test]
    fn empty_relation_short_circuits() {
        let db = Database::from_ints(&[("R", &[&[1, 2]])]);
        let atoms = vec![QueryAtom::new("S", vec![v("x")])];
        assert!(!both(|s| HomProblem::new(&atoms, &db).with_strategy(s).exists()));
    }

    #[test]
    fn enumerates_all_solutions() {
        let db = Database::from_ints(&[("R", &[&[1], &[2], &[3]])]);
        let atoms = vec![QueryAtom::new("R", vec![v("x")])];
        let seen = both(|s| {
            let mut seen = Vec::new();
            let outcome = HomProblem::new(&atoms, &db).with_strategy(s).for_each(|a| {
                seen.push(a[&Var::new("x")]);
                ControlFlow::Continue(())
            });
            assert_eq!(outcome, SearchOutcome::Exhausted);
            seen.sort();
            seen
        });
        assert_eq!(seen, vec![Atom::int(1), Atom::int(2), Atom::int(3)]);
    }

    #[test]
    fn budget_is_enforced() {
        // Cross product with no solution: x must equal y via S, absent.
        let tuples: Vec<Vec<i64>> = (0..50).map(|i| vec![i]).collect();
        let refs: Vec<&[i64]> = tuples.iter().map(|t| t.as_slice()).collect();
        let db = Database::from_ints(&[("R", &refs)]);
        let atoms = vec![
            QueryAtom::new("R", vec![v("a")]),
            QueryAtom::new("R", vec![v("b")]),
            QueryAtom::new("S", vec![v("a"), v("b")]),
        ];
        // S is empty → short-circuit even with a tiny budget.
        assert!(!both(|s| HomProblem::new(&atoms, &db).with_strategy(s).with_budget(1).exists()));

        // Without the empty relation, a tiny budget must trip: R has 50
        // tuples, so even indexed search probes > 10 candidates for the
        // fully-unconstrained cross product.
        let atoms2 = vec![
            QueryAtom::new("R", vec![v("a")]),
            QueryAtom::new("R", vec![v("b")]),
            QueryAtom::new("R", vec![v("c")]),
        ];
        both(|s| {
            let outcome = HomProblem::new(&atoms2, &db)
                .with_strategy(s)
                .with_budget(10)
                .for_each(|_| ControlFlow::Continue(()));
            assert_eq!(outcome, SearchOutcome::BudgetExceeded);
        });
    }

    #[test]
    fn interrupt_budget_stops_both_engines() {
        let tuples: Vec<Vec<i64>> = (0..50).map(|i| vec![i]).collect();
        let refs: Vec<&[i64]> = tuples.iter().map(|t| t.as_slice()).collect();
        let db = Database::from_ints(&[("R", &refs)]);
        let atoms = vec![
            QueryAtom::new("R", vec![v("a")]),
            QueryAtom::new("R", vec![v("b")]),
            QueryAtom::new("R", vec![v("c")]),
        ];
        both(|s| {
            let _guard = interrupt::install(interrupt::Budget { deadline: None, steps: Some(10) });
            let outcome = HomProblem::new(&atoms, &db)
                .with_strategy(s)
                .for_each(|_| ControlFlow::Continue(()));
            assert_eq!(outcome, SearchOutcome::Interrupted);
            assert!(matches!(
                HomProblem::new(&atoms, &db).with_strategy(s).first(),
                Err(SearchOutcome::Interrupted)
            ));
        });
    }

    #[test]
    fn constants_filter_candidates() {
        let db = Database::from_ints(&[("R", &[&[1, 2], &[1, 3], &[4, 5]])]);
        let atoms = vec![QueryAtom::new("R", vec![Term::int(1), v("y")])];
        let ys = both(|s| {
            let mut ys = Vec::new();
            HomProblem::new(&atoms, &db).with_strategy(s).for_each(|a| {
                ys.push(a[&Var::new("y")]);
                ControlFlow::Continue(())
            });
            ys.sort();
            ys
        });
        assert_eq!(ys, vec![Atom::int(2), Atom::int(3)]);
    }

    #[test]
    fn indexed_search_probes_fewer_candidates() {
        // A star join where the indexed engine touches only the matching
        // adjacency bucket: a budget of 4 suffices for the indexed engine
        // but trips the linear scan.
        let tuples: Vec<Vec<i64>> = (0..100).map(|i| vec![i / 10, i]).collect();
        let refs: Vec<&[i64]> = tuples.iter().map(|t| t.as_slice()).collect();
        let db = Database::from_ints(&[("R", &refs), ("S", &[&[9]])]);
        let atoms =
            vec![QueryAtom::new("S", vec![v("x")]), QueryAtom::new("R", vec![v("x"), v("y")])];
        // Indexed: probes S's single tuple, then R's x=9 bucket (10 tuples
        // max, first succeeds) — well under budget.
        let sol = HomProblem::new(&atoms, &db)
            .with_strategy(CandidateStrategy::Indexed)
            .with_budget(4)
            .first()
            .unwrap()
            .unwrap();
        assert_eq!(sol[&Var::new("x")], Atom::int(9));
        // Linear scan probes R's tuples up to the x=9 region and trips.
        assert!(matches!(
            HomProblem::new(&atoms, &db)
                .with_strategy(CandidateStrategy::LinearScan)
                .with_budget(4)
                .first(),
            Err(SearchOutcome::BudgetExceeded)
        ));
    }

    #[test]
    fn plan_order_prefers_constant_filtered_atoms() {
        // R(1, y) matches 1 tuple; T(u, w) matches 3: the constant-filtered
        // atom must be planned first even though both have one unbound var
        // after x is bound... (here both start unbound; R(1,y) has 1 unbound
        // var vs T's 2, but sizes also favour R).
        let db = Database::from_ints(&[
            ("R", &[&[1, 2], &[3, 4], &[5, 6]]),
            ("T", &[&[1, 1], &[2, 2], &[3, 3]]),
        ]);
        let atoms = vec![
            QueryAtom::new("T", vec![v("u"), v("w")]),
            QueryAtom::new("R", vec![Term::int(1), v("y")]),
        ];
        let order = plan_order(&atoms, &Assignment::new(), &db);
        assert_eq!(order[0], 1, "constant-filtered atom planned first");
    }

    #[test]
    fn default_strategy_round_trips() {
        assert_eq!(default_strategy(), CandidateStrategy::Adaptive);
        for s in
            [CandidateStrategy::Indexed, CandidateStrategy::LinearScan, CandidateStrategy::Adaptive]
        {
            set_default_strategy(s);
            assert_eq!(default_strategy(), s);
        }
        assert_eq!(default_strategy(), CandidateStrategy::Adaptive);
    }

    #[test]
    fn adaptive_resolves_by_instance_size() {
        let small = Database::from_ints(&[("R", &[&[1, 2]])]);
        let atoms = vec![QueryAtom::new("R", vec![v("x"), v("y")])];
        let p = HomProblem::new(&atoms, &small).with_strategy(CandidateStrategy::Adaptive);
        assert_eq!(p.resolved_strategy(), CandidateStrategy::LinearScan);

        let tuples: Vec<Vec<i64>> =
            (0..ADAPTIVE_THRESHOLD as i64).map(|i| vec![i, i + 1]).collect();
        let refs: Vec<&[i64]> = tuples.iter().map(|t| t.as_slice()).collect();
        let big = Database::from_ints(&[("R", &refs)]);
        let p = HomProblem::new(&atoms, &big).with_strategy(CandidateStrategy::Adaptive);
        assert_eq!(p.resolved_strategy(), CandidateStrategy::Indexed);

        // Explicit strategies pass through untouched.
        let p = HomProblem::new(&atoms, &small).with_strategy(CandidateStrategy::Indexed);
        assert_eq!(p.resolved_strategy(), CandidateStrategy::Indexed);
    }

    #[test]
    fn repeated_variables_match_the_diagonal() {
        let tuples: Vec<Vec<i64>> = (0..70).map(|i| vec![i % 7, i]).collect();
        let refs: Vec<&[i64]> = tuples.iter().map(|t| t.as_slice()).collect();
        let db = Database::from_ints(&[("R", &refs)]);
        let atoms = vec![QueryAtom::new("R", vec![v("x"), v("x")])];
        let sols = both(|s| {
            let mut sols = Vec::new();
            HomProblem::new(&atoms, &db).with_strategy(s).for_each(|a| {
                sols.push(a[&Var::new("x")]);
                ControlFlow::Continue(())
            });
            sols.sort();
            sols
        });
        // x must satisfy x % 7 == x and x < 70: exactly 0..7.
        assert_eq!(sols, (0..7).map(Atom::int).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_first_agrees_with_sequential() {
        // Big enough to outlast the sequential trial's probe cap: a
        // negative join instance (no solution) over a few thousand tuples.
        let tuples: Vec<Vec<i64>> = (0..4000).map(|i| vec![i, i + 1]).collect();
        let refs: Vec<&[i64]> = tuples.iter().map(|t| t.as_slice()).collect();
        let db = Database::from_ints(&[("R", &refs)]);
        // A 3-cycle: impossible in a successor chain.
        let atoms = vec![
            QueryAtom::new("R", vec![v("x"), v("y")]),
            QueryAtom::new("R", vec![v("y"), v("z")]),
            QueryAtom::new("R", vec![v("z"), v("x")]),
        ];
        for s in [CandidateStrategy::Indexed, CandidateStrategy::LinearScan] {
            let seq = HomProblem::new(&atoms, &db).with_strategy(s).with_threads(1).first();
            let par = HomProblem::new(&atoms, &db).with_strategy(s).with_threads(4).first();
            assert_eq!(seq.as_ref().map(Option::is_some), par.as_ref().map(Option::is_some));
            assert_eq!(seq.unwrap(), None, "chain has no 3-cycle");
        }
        // Positive case: add one real triangle; the parallel search must
        // find a witness on it.
        let mut db2 = db.clone();
        db2.insert(crate::schema::RelName::new("R"), vec![Atom::int(9000), Atom::int(9001)]);
        db2.insert(crate::schema::RelName::new("R"), vec![Atom::int(9001), Atom::int(9002)]);
        db2.insert(crate::schema::RelName::new("R"), vec![Atom::int(9002), Atom::int(9000)]);
        let par = HomProblem::new(&atoms, &db2).with_threads(4).first().unwrap().unwrap();
        let x = par[&Var::new("x")];
        assert!([9000, 9001, 9002].map(Atom::int).contains(&x));
    }

    #[test]
    fn parallel_solutions_match_sequential_set() {
        // Enumeration across threads must yield the same solution set.
        let tuples: Vec<Vec<i64>> = (0..120).map(|i| vec![i % 12, i]).collect();
        let refs: Vec<&[i64]> = tuples.iter().map(|t| t.as_slice()).collect();
        let db = Database::from_ints(&[("R", &refs)]);
        let atoms = vec![
            QueryAtom::new("R", vec![v("x"), v("y")]),
            QueryAtom::new("R", vec![v("y"), v("z")]),
        ];
        let normalize = |mut sols: Vec<Assignment>| {
            let mut keys: Vec<Vec<(Var, Atom)>> = sols
                .drain(..)
                .map(|a| {
                    let mut pairs: Vec<(Var, Atom)> = a.into_iter().collect();
                    pairs.sort();
                    pairs
                })
                .collect();
            keys.sort();
            keys
        };
        let seq = normalize(HomProblem::new(&atoms, &db).with_threads(1).solutions().unwrap());
        let par = normalize(HomProblem::new(&atoms, &db).with_threads(4).solutions().unwrap());
        assert!(!seq.is_empty());
        assert_eq!(seq, par);
    }

    #[test]
    fn parallel_first_respects_interrupt_budget() {
        // A hopeless instance under a small interrupt budget: the parallel
        // path must return Interrupted, never a verdict.
        let tuples: Vec<Vec<i64>> = (0..4000).map(|i| vec![i, i + 1]).collect();
        let refs: Vec<&[i64]> = tuples.iter().map(|t| t.as_slice()).collect();
        let db = Database::from_ints(&[("R", &refs)]);
        let atoms = vec![
            QueryAtom::new("R", vec![v("x"), v("y")]),
            QueryAtom::new("R", vec![v("y"), v("z")]),
            QueryAtom::new("R", vec![v("z"), v("x")]),
        ];
        // Big enough to outlast the sequential trial's 4096-probe cap, so
        // the *parallel* phase is what gets interrupted.
        let _guard = interrupt::install(interrupt::Budget { deadline: None, steps: Some(6000) });
        let outcome = HomProblem::new(&atoms, &db).with_threads(4).first();
        assert!(matches!(outcome, Err(SearchOutcome::Interrupted)), "got {outcome:?}");
        // Sticky on the parent thread after rejoin.
        assert!(interrupt::probe().is_err());
    }
}
