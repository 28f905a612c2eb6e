//! Depth-`d` **query trees**: the flattened form of a COQL query, and the
//! recursive `d`-simulation containment procedure (§5, Equation 2 for
//! general `d`).
//!
//! §5 of the paper: "we 'flatten' the queries themselves, using techniques
//! from \[39\]: each COQL query Q can be encoded as m conjunctive queries
//! Q1,…,Qm". The m queries are organized as a tree — one conjunctive query
//! per *set node* of the output type, linked by index variables. A
//! [`QueryTree`] evaluates over a flat database to a complex-object
//! *value*; containment of two query trees under the Hoare order is the
//! paper's d-simulation, a condition with `d+1` quantifier alternations.
//!
//! # Structure
//!
//! Each [`TreeNode`] carries:
//! * an [`IndexedQuery`] whose index terms are the node's formal
//!   parameters (bound by the parent) and whose value terms are the atomic
//!   output columns;
//! * a [`Template`] describing how one *element* of the node's set is
//!   assembled from atomic columns and child sets;
//! * [`ChildLink`]s: for each child, the terms over this node's body
//!   variables that form the child's actual index arguments.
//!
//! # The containment procedure
//!
//! [`tree_contained_in`] decides `∀D: ⟦T⟧(D) ⊑ ⟦T'⟧(D)` (Hoare order) by a
//! recursive generalization of the witness-copy mapping procedure of
//! [`crate::simulation`] (whose depth-1 completeness proof is in that
//! module's docs):
//!
//! * **∀-side**: freeze one generic element of the source node (a fresh
//!   copy of its body with index bound to the inherited arguments).
//! * **Emptiness case split**: enumerate which of the generic element's
//!   child sets are assumed non-empty (pattern `σ`). *This is exactly the
//!   exponential empty-set component the paper describes*: witness copies
//!   assert the existence of child-set members, which is only sound for
//!   children assumed non-empty, so each pattern needs its own covering
//!   target. When the queries are guaranteed not to produce empty sets
//!   (the paper's §4 hypothesis, e.g. `nest;unnest` sequences) only the
//!   all-non-empty pattern is needed and the procedure collapses to NP —
//!   [`tree_contained_in_no_empty_sets`] implements that fast path.
//! * **∃-side**: for each pattern, add the witness copies of the σ-children
//!   (as many as the target child link has variables — the depth-1
//!   pigeonhole bound) and search homomorphisms of the target node's body
//!   into everything frozen so far, carrying index arguments, equating
//!   matched atomic template columns, and recursing into matched child
//!   pairs with the link images as the next arguments.
//!
//! Soundness follows the depth-1 argument level by level (every frozen fact
//! is realized in any database realizing the ancestor chain and the
//! pattern); for depth 1 the procedure is provably complete (it specializes
//! to `simulated_by`, cross-checked in tests); for deeper trees we validate
//! completeness differentially against the definitional semantics, as the
//! extended abstract defers the general proof to its full version.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::ops::ControlFlow;

use co_cq::freeze::freeze_atoms_with;
use co_cq::{
    Assignment, ConjunctiveQuery, Database, HomProblem, QueryAtom, SearchOutcome, Term, Var,
};
use co_object::interrupt::{self, Interrupted, SharedBudget};
use co_object::{par, Atom, Field, Value};
use co_trace::kernel::{self, Metric};

use crate::indexed::IndexedQuery;

/// How one element of a node's set is assembled.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Template {
    /// The element component is the node's value column `i`.
    AtomCol(usize),
    /// A record of sub-templates (fields sorted by label at construction).
    Record(Vec<(Field, Template)>),
    /// A nested set produced by child `j`.
    Child(usize),
}

impl Template {
    /// Builds a record template with fields sorted by label.
    pub fn record(mut fields: Vec<(Field, Template)>) -> Template {
        fields.sort_by_key(|(f, _)| *f);
        Template::Record(fields)
    }
}

/// A child subtree plus the terms (over the parent's body variables) that
/// form its actual index arguments.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChildLink {
    /// Actual index arguments, evaluated in the parent's assignment.
    pub link: Vec<Term>,
    /// The child node.
    pub node: TreeNode,
}

/// One set node of a flattened COQL query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TreeNode {
    /// The node's conjunctive query: index = formal parameters, value =
    /// atomic output columns.
    pub query: IndexedQuery,
    /// The element template.
    pub template: Template,
    /// Child subtrees.
    pub children: Vec<ChildLink>,
}

/// A complete flattened query (root has no index parameters).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryTree {
    /// The root set node.
    pub root: TreeNode,
}

/// Validation errors for query trees.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TreeError {
    /// Root node declared index parameters.
    RootHasIndex,
    /// A template referenced a value column out of range.
    BadAtomColumn(usize),
    /// A template referenced a child out of range.
    BadChild(usize),
    /// A child link's arity differs from the child's index arity.
    LinkArityMismatch,
    /// A head variable does not occur in the node's body.
    Unsafe(Var),
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::RootHasIndex => write!(f, "root node must not take index parameters"),
            TreeError::BadAtomColumn(i) => {
                write!(f, "template references value column {i} out of range")
            }
            TreeError::BadChild(i) => write!(f, "template references child {i} out of range"),
            TreeError::LinkArityMismatch => write!(f, "child link arity mismatch"),
            TreeError::Unsafe(v) => write!(f, "unsafe head variable `{v}`"),
        }
    }
}

impl std::error::Error for TreeError {}

impl QueryTree {
    /// Validates the whole tree.
    pub fn validate(&self) -> Result<(), TreeError> {
        if !self.root.query.index.is_empty() {
            return Err(TreeError::RootHasIndex);
        }
        self.root.validate()
    }

    /// Evaluates the tree on a flat database to a complex-object value
    /// (always a set).
    pub fn evaluate(&self, db: &Database) -> Value {
        self.root.eval_set(db, &[])
    }

    /// Set-nesting depth of the result type.
    pub fn depth(&self) -> usize {
        self.root.depth()
    }
}

impl TreeNode {
    fn validate(&self) -> Result<(), TreeError> {
        let body_vars = self.query.as_cq().body_vars();
        for t in self.query.index.iter().chain(self.query.value.iter()) {
            if let Term::Var(v) = t {
                if !body_vars.contains(v) {
                    return Err(TreeError::Unsafe(*v));
                }
            }
        }
        self.validate_template(&self.template)?;
        for child in &self.children {
            if child.link.len() != child.node.query.index.len() {
                return Err(TreeError::LinkArityMismatch);
            }
            for t in &child.link {
                if let Term::Var(v) = t {
                    if !body_vars.contains(v) {
                        return Err(TreeError::Unsafe(*v));
                    }
                }
            }
            child.node.validate()?;
        }
        Ok(())
    }

    fn validate_template(&self, t: &Template) -> Result<(), TreeError> {
        match t {
            Template::AtomCol(i) => {
                if *i >= self.query.value.len() {
                    return Err(TreeError::BadAtomColumn(*i));
                }
            }
            Template::Child(j) => {
                if *j >= self.children.len() {
                    return Err(TreeError::BadChild(*j));
                }
            }
            Template::Record(fields) => {
                for (_, sub) in fields {
                    self.validate_template(sub)?;
                }
            }
        }
        Ok(())
    }

    fn depth(&self) -> usize {
        1 + self.children.iter().map(|c| c.node.depth()).max().unwrap_or(0)
    }

    /// Evaluates this node's set at the given index arguments.
    pub fn eval_set(&self, db: &Database, args: &[Atom]) -> Value {
        debug_assert_eq!(args.len(), self.query.index.len());
        let Some(fixed) = bind_index(&self.query.index, args) else {
            return Value::empty_set();
        };
        if self.query.unsatisfiable {
            return Value::empty_set();
        }
        let mut elems = Vec::new();
        HomProblem::new(&self.query.body, db).with_fixed(fixed).for_each(|assignment| {
            elems.push(self.instantiate(db, assignment));
            ControlFlow::Continue(())
        });
        Value::set(elems)
    }

    fn instantiate(&self, db: &Database, assignment: &Assignment) -> Value {
        self.instantiate_template(&self.template, db, assignment)
    }

    fn instantiate_template(&self, t: &Template, db: &Database, assignment: &Assignment) -> Value {
        match t {
            Template::AtomCol(i) => Value::Atom(eval_term(&self.query.value[*i], assignment)),
            Template::Record(fields) => Value::record(
                fields
                    .iter()
                    .map(|(f, sub)| (*f, self.instantiate_template(sub, db, assignment)))
                    .collect(),
            )
            .expect("templates have distinct labels"),
            Template::Child(j) => {
                let child = &self.children[*j];
                let args: Vec<Atom> = child.link.iter().map(|t| eval_term(t, assignment)).collect();
                child.node.eval_set(db, &args)
            }
        }
    }
}

fn eval_term(t: &Term, assignment: &Assignment) -> Atom {
    match t {
        Term::Const(c) => *c,
        Term::Var(v) => assignment[v],
    }
}

/// Binds formal index terms to actual atoms; `None` on constant mismatch or
/// inconsistent repeated variables (the set is empty at these arguments).
fn bind_index(index: &[Term], args: &[Atom]) -> Option<Assignment> {
    let mut fixed = Assignment::new();
    for (t, &a) in index.iter().zip(args.iter()) {
        match t {
            Term::Const(c) => {
                if *c != a {
                    return None;
                }
            }
            Term::Var(v) => match fixed.insert(*v, a) {
                Some(prev) if prev != a => return None,
                _ => {}
            },
        }
    }
    Some(fixed)
}

/// Options for the containment procedure.
#[derive(Clone, Copy, Debug, Default)]
pub struct ContainOptions {
    /// Assume neither tree ever produces an empty set: only the
    /// all-non-empty pattern is checked (NP fast path, the paper's §4
    /// no-empty-sets regime). Unsound if the assumption is false.
    pub no_empty_sets: bool,
    /// Extra witness copies per child beyond the pigeonhole bound.
    pub extra_witnesses: usize,
    /// Kernel threads for the emptiness-pattern case split (`0` = use the
    /// process-global setting, [`co_object::par::kernel_threads`]).
    pub threads: usize,
}

/// Decides `∀D: ⟦t1⟧(D) ⊑ ⟦t2⟧(D)` in the Hoare order (Theorem 4.1's
/// engine once COQL queries are flattened).
pub fn tree_contained_in(t1: &QueryTree, t2: &QueryTree) -> bool {
    tree_contained_in_with(t1, t2, ContainOptions::default())
}

/// The NP fast path assuming no empty sets ever appear in either result
/// (the paper's §4 hypothesis under which containment is NP-complete).
pub fn tree_contained_in_no_empty_sets(t1: &QueryTree, t2: &QueryTree) -> bool {
    tree_contained_in_with(
        t1,
        t2,
        ContainOptions { no_empty_sets: true, extra_witnesses: 0, threads: 0 },
    )
}

/// Containment with explicit options.
///
/// Panics if a thread-local [`co_object::interrupt`] budget expires during
/// the decision — callers running under a budget must use
/// [`try_tree_contained_in_with`].
pub fn tree_contained_in_with(t1: &QueryTree, t2: &QueryTree, opts: ContainOptions) -> bool {
    try_tree_contained_in_with(t1, t2, opts)
        .expect("interrupted: use try_tree_contained_in_with under an interrupt budget")
}

/// Cancellable variant of [`tree_contained_in_with`]: polls the
/// thread-local [`co_object::interrupt`] budget once per emptiness pattern
/// (plus the per-probe checks inside the homomorphism engine) and aborts
/// with [`Interrupted`] when it expires. Identical when no budget is
/// installed.
pub fn try_tree_contained_in_with(
    t1: &QueryTree,
    t2: &QueryTree,
    opts: ContainOptions,
) -> Result<bool, Interrupted> {
    Ok(try_tree_containment_verdict(t1, t2, opts)?.holds)
}

/// A containment verdict with refutation provenance, for certificates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TreeVerdict {
    /// Whether `∀D: ⟦t1⟧(D) ⊑ ⟦t2⟧(D)` holds.
    pub holds: bool,
    /// When the refutation came from the root node's `2^m` emptiness case
    /// split, the index of the refuting pattern; `None` for positive
    /// verdicts, or when the refutation precedes the loop (template shape
    /// mismatch at the root).
    pub refuted_pattern: Option<u32>,
}

/// [`try_tree_contained_in_with`] returning the root-level refuting
/// emptiness pattern alongside the verdict (the provenance carried by
/// negative certificates).
pub fn try_tree_containment_verdict(
    t1: &QueryTree,
    t2: &QueryTree,
    opts: ContainOptions,
) -> Result<TreeVerdict, Interrupted> {
    let ctx = Context { db: Database::new(), opts, frozen: HashSet::new() };
    Ok(match covered_detail(&ctx, &t1.root, &[], &t2.root, &[])? {
        Cover::Holds => TreeVerdict { holds: true, refuted_pattern: None },
        Cover::RefutedTemplate => TreeVerdict { holds: false, refuted_pattern: None },
        Cover::RefutedPattern(p) => TreeVerdict { holds: false, refuted_pattern: Some(p) },
    })
}

#[derive(Clone)]
struct Context {
    db: Database,
    opts: ContainOptions,
    /// Atoms minted while freezing copies; only these may be merged when a
    /// pattern's specialization unifies arguments (real query constants are
    /// rigid).
    frozen: HashSet<Atom>,
}

impl Context {
    /// Freezes a fresh copy of `node`'s body at `args`, registering the
    /// newly minted atoms as mergeable.
    fn instantiate(&mut self, node: &TreeNode, args: &[Atom]) -> Instantiated {
        let mut assignment: HashMap<Var, Atom> = HashMap::new();
        let inst = instantiate_body(node, args, &mut assignment, &mut self.db);
        self.frozen.extend(assignment.values().copied());
        inst
    }

    /// Applies an atom substitution to every fact.
    fn substituted(&self, merge: &HashMap<Atom, Atom>) -> Context {
        if merge.is_empty() {
            return self.clone();
        }
        let mut db = Database::new();
        for (name, rel) in self.db.iter() {
            for tuple in rel.iter() {
                db.insert(*name, tuple.iter().map(|&a| resolve(merge, a)).collect());
            }
        }
        Context { db, opts: self.opts, frozen: self.frozen.clone() }
    }
}

/// Follows a merge map to the representative atom.
fn resolve(merge: &HashMap<Atom, Atom>, mut a: Atom) -> Atom {
    let mut guard = 0;
    while let Some(&next) = merge.get(&a) {
        a = next;
        guard += 1;
        debug_assert!(guard < 10_000, "merge map cycle");
    }
    a
}

/// Outcome of unifying index formals with frozen arguments.
enum Unify {
    /// Consistent (possibly after recording merges of frozen atoms).
    Ok,
    /// Two distinct *rigid* constants were equated: no valuation realizes
    /// this situation, so the assuming pattern can never occur.
    Impossible,
}

/// Unifies a node's index formals with actual arguments, extending `merge`.
///
/// This is the heart of the soundness fix for specialized children: a
/// formal that is a constant (or a repeated variable) constrains the
/// *generic* frozen arguments — the constrained situation is realized by
/// valuations that merge the frozen atom with the constant (or with each
/// other), so the checking context must be specialized accordingly rather
/// than treating the mismatch as "always empty".
fn unify_index(
    formals: &[Term],
    args: &[Atom],
    frozen: &HashSet<Atom>,
    merge: &mut HashMap<Atom, Atom>,
) -> Unify {
    let mut bound: HashMap<Var, Atom> = HashMap::new();
    for (t, &raw) in formals.iter().zip(args.iter()) {
        let arg = resolve(merge, raw);
        let demand = match t {
            Term::Const(c) => Some(*c),
            Term::Var(v) => match bound.get(v) {
                Some(&prev) => Some(resolve(merge, prev)),
                None => {
                    bound.insert(*v, arg);
                    None
                }
            },
        };
        if let Some(d) = demand {
            let d = resolve(merge, d);
            if d == arg {
                continue;
            }
            if frozen.contains(&arg) {
                merge.insert(arg, d);
            } else if frozen.contains(&d) {
                merge.insert(d, arg);
            } else {
                return Unify::Impossible;
            }
        }
    }
    Unify::Ok
}

fn resolve_args(merge: &HashMap<Atom, Atom>, args: &[Atom]) -> Vec<Atom> {
    args.iter().map(|&a| resolve(merge, a)).collect()
}

/// Why (or whether) one covering check succeeded — the detail behind the
/// boolean [`covered`], kept so root-level refutations can say which
/// emptiness pattern failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Cover {
    /// Every emptiness pattern is satisfied.
    Holds,
    /// The element templates have incompatible shapes; refuted before the
    /// pattern loop even starts.
    RefutedTemplate,
    /// This emptiness pattern has no covering target element.
    RefutedPattern(u32),
}

/// Core recursion: does `n1`'s set at `args1` Hoare-embed into `n2`'s set
/// at `args2`, generically over all databases extending the context?
///
/// `Err(Interrupted)` means the thread-local interrupt budget expired; the
/// partial verdict is meaningless and must not be used or memoized.
fn covered(
    ctx: &Context,
    n1: &TreeNode,
    args1: &[Atom],
    n2: &TreeNode,
    args2: &[Atom],
) -> Result<bool, Interrupted> {
    Ok(covered_detail(ctx, n1, args1, n2, args2)? == Cover::Holds)
}

/// [`covered`] with refutation provenance (see [`Cover`]).
fn covered_detail(
    ctx: &Context,
    n1: &TreeNode,
    args1: &[Atom],
    n2: &TreeNode,
    args2: &[Atom],
) -> Result<Cover, Interrupted> {
    kernel::bump(Metric::TreeCoveredCalls);
    // Source-set-always-empty fast path; constant/repeat constraints in the
    // formals *specialize* the context instead (entry unification).
    if n1.query.unsatisfiable {
        return Ok(Cover::Holds);
    }
    let mut entry_merge = HashMap::new();
    match unify_index(&n1.query.index, args1, &ctx.frozen, &mut entry_merge) {
        Unify::Impossible => return Ok(Cover::Holds), // empty in every valuation
        Unify::Ok => {}
    }
    let ctx = ctx.substituted(&entry_merge);
    let args1 = resolve_args(&entry_merge, args1);
    let args2 = resolve_args(&entry_merge, args2);

    // Target-set-always-empty: an unsatisfiable n2 body means n2's set is
    // empty at every valuation, while n1's generic element (whose entry
    // unification just succeeded) is realized by some database — nothing
    // can cover it. Checked *after* the n1 emptiness cases: the hom search
    // below only sees n2's residual body, which may well be satisfiable.
    if n2.query.unsatisfiable {
        return Ok(Cover::RefutedTemplate);
    }

    // Template shapes must correspond, else no element can ever be covered.
    let Some(pairs) = match_templates(&n1.template, &n2.template) else {
        return Ok(Cover::RefutedTemplate);
    };

    // ∀-side: freeze a generic element of n1's set.
    let mut ctx1 = ctx.clone();
    let g0 = ctx1.instantiate(n1, &args1);

    // Child arguments of the generic element.
    let child_args1: Vec<Vec<Atom>> =
        n1.children.iter().map(|c| c.link.iter().map(|t| g0.image(t)).collect()).collect();

    // Emptiness patterns over the matched source children.
    let matched_children: Vec<(usize, usize)> = pairs.children.clone();
    let m = matched_children.len();
    let all_nonempty: u32 = if m >= 32 { u32::MAX } else { (1u32 << m) - 1 };
    let patterns: Vec<u32> = if ctx1.opts.no_empty_sets || m == 0 {
        vec![all_nonempty]
    } else {
        (0..=all_nonempty).collect()
    };

    let case = PatternCase {
        ctx1: &ctx1,
        n1,
        n2,
        g0: &g0,
        child_args1: &child_args1,
        args2: &args2,
        matched_children: &matched_children,
        atom_pairs: &pairs.atoms,
    };
    // Each pattern is checked independently, so the 2^m case split can be
    // partitioned across kernel workers (DESIGN.md §14). Small splits stay
    // sequential: the spawn cost dwarfs a handful of patterns.
    let threads = pattern_threads(&ctx1.opts);
    if threads > 1 && patterns.len() >= PARALLEL_PATTERN_MIN {
        return Ok(match check_patterns_parallel(&case, &patterns, threads)? {
            Some(p) => Cover::RefutedPattern(p),
            None => Cover::Holds,
        });
    }
    for pattern in patterns {
        if !check_pattern(&case, pattern)? {
            return Ok(Cover::RefutedPattern(pattern));
        }
    }
    Ok(Cover::Holds)
}

/// Everything one emptiness-pattern check needs, borrowed from the
/// enclosing [`covered`] call so patterns can be checked from any thread.
struct PatternCase<'a> {
    ctx1: &'a Context,
    n1: &'a TreeNode,
    n2: &'a TreeNode,
    g0: &'a Instantiated,
    child_args1: &'a [Vec<Atom>],
    args2: &'a [Atom],
    matched_children: &'a [(usize, usize)],
    atom_pairs: &'a [(usize, usize)],
}

/// Minimum number of emptiness patterns before [`covered`] fans out.
const PARALLEL_PATTERN_MIN: usize = 32;

/// Threads the pattern loop may use: the per-request override from
/// [`ContainOptions::threads`], else the process-global setting; always 1
/// on a pool worker (no nested fan-out).
fn pattern_threads(opts: &ContainOptions) -> usize {
    if par::in_worker() {
        return 1;
    }
    if opts.threads != 0 {
        opts.threads
    } else {
        par::effective_threads()
    }
}

/// Checks one emptiness pattern: `Ok(true)` if it is satisfied (or
/// vacuous), `Ok(false)` if it refutes the containment.
fn check_pattern(case: &PatternCase<'_>, pattern: u32) -> Result<bool, Interrupted> {
    let PatternCase { ctx1, n1, n2, g0, child_args1, args2, matched_children, atom_pairs } = *case;
    // The emptiness patterns are the exponential component of the
    // procedure (2^m of them), so each is a unit of cancellable work in
    // its own right.
    kernel::bump(Metric::TreeEmptinessPatterns);
    interrupt::probe()?;
    // Assuming the σ-children non-empty may *specialize* the generic
    // element (their index formals constrain its columns): compute the
    // induced merge; a rigid clash means no real element has this
    // pattern, which satisfies it vacuously.
    let mut pmerge = HashMap::new();
    for (bit, &(j1, _)) in matched_children.iter().enumerate() {
        if pattern & (1 << bit) == 0 {
            continue;
        }
        let child = &n1.children[j1].node;
        if child.query.unsatisfiable {
            return Ok(true); // this child is empty on every database
        }
        match unify_index(&child.query.index, &child_args1[j1], &ctx1.frozen, &mut pmerge) {
            Unify::Impossible => return Ok(true),
            Unify::Ok => {}
        }
    }
    let mut ctx2 = ctx1.substituted(&pmerge);
    let p_child_args: Vec<Vec<Atom>> =
        child_args1.iter().map(|a| resolve_args(&pmerge, a)).collect();
    let p_args2 = resolve_args(&pmerge, args2);

    // Witness copies for children assumed non-empty.
    for (bit, &(j1, j2)) in matched_children.iter().enumerate() {
        if pattern & (1 << bit) == 0 {
            continue;
        }
        let link2_vars = n2.children[j2].link.iter().filter(|t| matches!(t, Term::Var(_))).count();
        let copies = link2_vars + ctx2.opts.extra_witnesses;
        for _ in 0..copies {
            kernel::bump(Metric::TreeWitnessCopies);
            ctx2.instantiate(&n1.children[j1].node, &p_child_args[j1]);
        }
    }

    // ∃-side: homomorphisms of n2's body into everything frozen.
    let value_image = |i: usize| resolve(&pmerge, g0.image(&n1.query.value[i]));
    let Some(fixed) = target_fixing(n2, &p_args2, atom_pairs, &value_image) else {
        return Ok(false); // no target element can match the atomic columns
    };
    let mut pattern_ok = false;
    // An interruption inside the recursion cannot unwind through the
    // `for_each` closure, so it is captured here and re-raised after.
    let mut interrupted = None;
    let outcome = HomProblem::new(&n2.query.body, &ctx2.db).with_fixed(fixed).for_each(|hom| {
        // Recurse into matched, non-empty-assumed child pairs.
        let mut all_children_ok = true;
        for (bit, &(j1, j2)) in matched_children.iter().enumerate() {
            if pattern & (1 << bit) == 0 {
                continue; // source child assumed empty: {} ⊑ anything
            }
            let child2_args: Vec<Atom> =
                n2.children[j2].link.iter().map(|t| eval_term(t, hom)).collect();
            match covered(
                &ctx2,
                &n1.children[j1].node,
                &p_child_args[j1],
                &n2.children[j2].node,
                &child2_args,
            ) {
                Ok(true) => {}
                Ok(false) => {
                    all_children_ok = false;
                    break;
                }
                Err(stop) => {
                    interrupted = Some(stop);
                    return ControlFlow::Break(());
                }
            }
        }
        if all_children_ok {
            pattern_ok = true;
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    if let Some(stop) = interrupted {
        return Err(stop);
    }
    if outcome == SearchOutcome::Interrupted {
        return Err(Interrupted);
    }
    Ok(pattern_ok)
}

/// Partitions `patterns` across a scoped work-stealing pool; the first
/// refuting pattern cancels the siblings. Returns the refuting pattern
/// (the smallest one any worker reported, for deterministic certificates)
/// or `None` when every pattern is satisfied.
///
/// Merge discipline: a definite refutation wins even if other workers
/// were interrupted — a refuting pattern is a sound refutation of the
/// containment regardless of what the siblings were still computing. With
/// no refutation, any real budget expiry yields `Err(Interrupted)`.
fn check_patterns_parallel(
    case: &PatternCase<'_>,
    patterns: &[u32],
    threads: usize,
) -> Result<Option<u32>, Interrupted> {
    let shared = SharedBudget::fork_current();
    let chunk = (patterns.len() / (threads * 8)).max(1);
    let (results, stats) = par::run_workers(threads, patterns.len(), chunk, |me, feeder| {
        let before = kernel::snapshot();
        let guard = interrupt::install_shared(&shared);
        let mut verdict: Result<Option<u32>, Interrupted> = Ok(None);
        'chunks: while let Some(range) = feeder.next(me) {
            for pi in range {
                match check_pattern(case, patterns[pi]) {
                    Ok(true) => {}
                    Ok(false) => {
                        verdict = Ok(Some(patterns[pi]));
                        feeder.stop();
                        shared.cancel();
                        break 'chunks;
                    }
                    Err(Interrupted) => {
                        verdict = Err(Interrupted);
                        break 'chunks;
                    }
                }
            }
        }
        drop(guard);
        (verdict, kernel::snapshot().delta(&before))
    });
    shared.rejoin();
    par::note_engaged(stats.threads);
    kernel::bump_by(Metric::KernelParallelBranches, stats.branches);
    kernel::bump_by(Metric::KernelSteals, stats.steals);
    let mut refuted: Option<u32> = None;
    let mut interrupted = shared.is_expired();
    for (verdict, delta) in results {
        kernel::absorb(&delta);
        match verdict {
            Ok(Some(p)) => refuted = Some(refuted.map_or(p, |prev: u32| prev.min(p))),
            Err(Interrupted) => interrupted = true,
            Ok(None) => {}
        }
    }
    if refuted.is_some() {
        return Ok(refuted);
    }
    if interrupted {
        return Err(Interrupted);
    }
    Ok(None)
}

/// Result of template matching: pairs of atomic columns to equate and
/// child indices to recurse into.
struct TemplatePairs {
    atoms: Vec<(usize, usize)>,
    children: Vec<(usize, usize)>,
}

fn match_templates(t1: &Template, t2: &Template) -> Option<TemplatePairs> {
    let mut pairs = TemplatePairs { atoms: Vec::new(), children: Vec::new() };
    if walk(t1, t2, &mut pairs) {
        Some(pairs)
    } else {
        None
    }
}

fn walk(t1: &Template, t2: &Template, out: &mut TemplatePairs) -> bool {
    match (t1, t2) {
        (Template::AtomCol(i), Template::AtomCol(j)) => {
            out.atoms.push((*i, *j));
            true
        }
        (Template::Child(i), Template::Child(j)) => {
            out.children.push((*i, *j));
            true
        }
        (Template::Record(f1), Template::Record(f2)) => {
            f1.len() == f2.len()
                && f1
                    .iter()
                    .zip(f2.iter())
                    .all(|((l1, s1), (l2, s2))| l1 == l2 && walk(s1, s2, out))
        }
        _ => false,
    }
}

/// The frozen images of one instantiated copy of a node's body.
struct Instantiated {
    subst: HashMap<Var, Term>,
    assignment: HashMap<Var, Atom>,
}

impl Instantiated {
    fn image(&self, t: &Term) -> Atom {
        match t {
            Term::Const(c) => *c,
            Term::Var(v) => match self.subst.get(v) {
                Some(Term::Const(c)) => *c,
                Some(Term::Var(w)) => self.assignment[w],
                None => self.assignment[v],
            },
        }
    }
}

/// Freezes a fresh copy of `node`'s body with its index bound to `args`
/// into `db`. Caller must have checked `bind_index` succeeds.
fn instantiate_body(
    node: &TreeNode,
    args: &[Atom],
    assignment: &mut HashMap<Var, Atom>,
    db: &mut Database,
) -> Instantiated {
    let mut subst: HashMap<Var, Term> = HashMap::new();
    for (t, &a) in node.query.index.iter().zip(args.iter()) {
        if let Term::Var(v) = t {
            subst.insert(*v, Term::Const(a));
        }
    }
    for v in node.query.as_cq().body_vars() {
        subst.entry(v).or_insert_with(|| Term::Var(Var::fresh()));
    }
    let copy: Vec<QueryAtom> = node.query.body.iter().map(|a| a.substitute(&subst)).collect();
    freeze_atoms_with(&copy, assignment, db);
    Instantiated { subst, assignment: assignment.clone() }
}

/// Builds the fixed bindings for the target hom: index arguments plus
/// matched atomic column equalities (source images supplied by
/// `value_image`, already specialized). `None` when constants clash (no
/// hom can exist at all).
fn target_fixing(
    n2: &TreeNode,
    args2: &[Atom],
    atom_pairs: &[(usize, usize)],
    value_image: &dyn Fn(usize) -> Atom,
) -> Option<Assignment> {
    let mut fixed = Assignment::new();
    for (t, &a) in n2.query.index.iter().zip(args2.iter()) {
        match t {
            Term::Const(c) => {
                if *c != a {
                    return None;
                }
            }
            Term::Var(v) => match fixed.insert(*v, a) {
                Some(prev) if prev != a => return None,
                _ => {}
            },
        }
    }
    for &(i1, i2) in atom_pairs {
        let target = value_image(i1);
        match &n2.query.value[i2] {
            Term::Const(c) => {
                if *c != target {
                    return None;
                }
            }
            Term::Var(v) => match fixed.insert(*v, target) {
                Some(prev) if prev != target => return None,
                _ => {}
            },
        }
    }
    Some(fixed)
}

/// Encodes an [`IndexedQuery`] as the depth-2 tree `{ G(ī) | ī }` — a set
/// of groups with the index hidden. Tree containment on these trees is
/// exactly simulation (cross-checked in tests).
pub fn grouped_tree(q: &IndexedQuery) -> QueryTree {
    // Child: a fresh renaming of q whose index variables become formals.
    let (child_cq, _) = q.as_cq().rename_apart();
    let child_q = IndexedQuery {
        index: child_cq.head[..q.index.len()].to_vec(),
        value: child_cq.head[q.index.len()..].to_vec(),
        body: child_cq.body,
        unsatisfiable: q.unsatisfiable,
    };
    let m = child_q.value.len();
    let child_template = if m == 1 {
        Template::AtomCol(0)
    } else {
        Template::record(
            (0..m).map(|i| (Field::new(&format!("c{i}")), Template::AtomCol(i))).collect(),
        )
    };
    let child = TreeNode { query: child_q, template: child_template, children: Vec::new() };
    let root = TreeNode {
        query: IndexedQuery {
            index: Vec::new(),
            value: Vec::new(),
            body: q.body.clone(),
            unsatisfiable: q.unsatisfiable,
        },
        template: Template::Child(0),
        children: vec![ChildLink { link: q.index.clone(), node: child }],
    };
    QueryTree { root }
}

impl fmt::Display for QueryTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn node(n: &TreeNode, depth: usize, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            let pad = "  ".repeat(depth);
            writeln!(f, "{pad}{}", n.query)?;
            for (i, c) in n.children.iter().enumerate() {
                write!(f, "{pad}  child {i} link (")?;
                for (k, t) in c.link.iter().enumerate() {
                    if k > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{t}")?;
                }
                writeln!(f, "):")?;
                node(&c.node, depth + 2, f)?;
            }
            Ok(())
        }
        node(&self.root, 0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use co_cq::parse_query;
    use co_object::hoare_leq;

    fn iq(text: &str, index_arity: usize) -> IndexedQuery {
        IndexedQuery::from_cq(&parse_query(text).unwrap(), index_arity)
    }

    /// The running example: group R's second column by its first.
    fn group_r() -> QueryTree {
        grouped_tree(&iq("q(X, Y) :- R(X, Y).", 1))
    }

    #[test]
    fn evaluation_builds_nested_sets() {
        let t = group_r();
        t.validate().unwrap();
        let db = Database::from_ints(&[("R", &[&[1, 10], &[1, 11], &[2, 20]])]);
        let v = t.evaluate(&db);
        assert_eq!(v.to_string(), "{{10, 11}, {20}}");
        assert_eq!(t.depth(), 2);
    }

    #[test]
    fn duplicate_groups_collapse() {
        let t = group_r();
        let db = Database::from_ints(&[("R", &[&[1, 10], &[2, 10]])]);
        // Two groups both equal to {10}: the set collapses them.
        assert_eq!(t.evaluate(&db).to_string(), "{{10}}");
    }

    #[test]
    fn containment_is_reflexive() {
        let t = group_r();
        assert!(tree_contained_in(&t, &t));
    }

    #[test]
    fn tree_containment_matches_flat_simulation() {
        let cases = [
            ("q(X, Y) :- R(X, Y), S(Y).", 1, "q(X, Y) :- R(X, Y).", 1),
            ("q(X, Y) :- R(X, Y).", 1, "q(X, Y) :- R(X, Y), S(Y).", 1),
            ("q(X, Y) :- R(X, Y).", 1, "q(Y) :- R(X, Y).", 0),
            ("q(Y) :- R(X, Y).", 0, "q(X, Y) :- R(X, Y).", 1),
            ("q(X, Y) :- R(X, Y).", 1, "q(Y0, Y) :- R(X, Y), R(X, Y0).", 1),
        ];
        for (s1, i1, s2, i2) in cases {
            let q1 = iq(s1, i1);
            let q2 = iq(s2, i2);
            let flat = crate::simulation::is_simulated_by(&q1, &q2);
            let tree = tree_contained_in(&grouped_tree(&q1), &grouped_tree(&q2));
            assert_eq!(flat, tree, "{s1} vs {s2}");
        }
    }

    #[test]
    fn atomic_columns_must_agree() {
        // Elements are records [a: X, g: {Y}] over relation `rel`.
        let mk = |rel: &str| {
            let child = TreeNode {
                query: iq(&format!("q(I, Y) :- {rel}(I, Y)."), 1),
                template: Template::AtomCol(0),
                children: Vec::new(),
            };
            QueryTree {
                root: TreeNode {
                    query: IndexedQuery {
                        index: vec![],
                        value: vec![Term::var("X")],
                        body: parse_query(&format!("q(X) :- {rel}(X, Y).")).unwrap().body,
                        unsatisfiable: false,
                    },
                    template: Template::record(vec![
                        (Field::new("a"), Template::AtomCol(0)),
                        (Field::new("g"), Template::Child(0)),
                    ]),
                    children: vec![ChildLink { link: vec![Term::var("X")], node: child }],
                },
            }
        };
        let t1 = mk("R");
        let t2 = mk("R");
        assert!(tree_contained_in(&t1, &t2));
        let t3 = mk("S");
        assert!(!tree_contained_in(&t1, &t3));
    }

    #[test]
    fn depth_one_sets_behave_like_classical_containment() {
        // Flat set of pairs: containment = classical CQ containment.
        let mk = |body: &str| {
            let q = parse_query(body).unwrap();
            QueryTree {
                root: TreeNode {
                    query: IndexedQuery::from_cq(&q, 0),
                    template: Template::record(vec![
                        (Field::new("a"), Template::AtomCol(0)),
                        (Field::new("b"), Template::AtomCol(1)),
                    ]),
                    children: Vec::new(),
                },
            }
        };
        let t1 = mk("q(X, Z) :- E(X, Y), E(Y, Z), E(Z, X).");
        let t2 = mk("q(X, Z) :- E(X, Y), E(Y, Z).");
        assert!(tree_contained_in(&t1, &t2));
        assert!(!tree_contained_in(&t2, &t1));
    }

    #[test]
    fn empty_pattern_handles_possibly_empty_children() {
        //   t1: elements [a: X, g: {Y : R(X,Y), S(Y)}]  (g may be empty!)
        //   t2: elements [a: X, g: {Y : R(X,Y)}]
        let mk = |extra: Option<&str>| {
            let child_body = match extra {
                Some(e) => format!("q(I, Y) :- R(I, Y), {e}(Y)."),
                None => "q(I, Y) :- R(I, Y).".to_string(),
            };
            QueryTree {
                root: TreeNode {
                    query: IndexedQuery {
                        index: vec![],
                        value: vec![Term::var("X")],
                        body: parse_query("q(X) :- R(X, W).").unwrap().body,
                        unsatisfiable: false,
                    },
                    template: Template::record(vec![
                        (Field::new("a"), Template::AtomCol(0)),
                        (Field::new("g"), Template::Child(0)),
                    ]),
                    children: vec![ChildLink {
                        link: vec![Term::var("X")],
                        node: TreeNode {
                            query: iq(&child_body, 1),
                            template: Template::AtomCol(0),
                            children: Vec::new(),
                        },
                    }],
                },
            }
        };
        let filtered = mk(Some("S"));
        let plain = mk(None);
        // {Y : R∧S} ⊆ {Y : R} per X: containment holds.
        assert!(tree_contained_in(&filtered, &plain));
        // Reverse fails: plain's group can have a Y with no S.
        assert!(!tree_contained_in(&plain, &filtered));
        // Semantic spot check.
        let db = Database::from_ints(&[("R", &[&[1, 10], &[1, 11]]), ("S", &[&[10]])]);
        let v1 = filtered.evaluate(&db);
        let v2 = plain.evaluate(&db);
        assert!(hoare_leq(&v1, &v2));
        assert!(!hoare_leq(&v2, &v1));
    }

    #[test]
    fn unsatisfiable_target_child_refutes_nonempty_source_child() {
        // t1's g is {1}∩S per element; t2's g is always empty (its child
        // body is unsatisfiable) but leaves a satisfiable residual body.
        // The ∃-side hom search must not treat that residual as coverage:
        // on R={(1,0)}, S={1} the source element [a:1, g:{1}] has nothing
        // to embed into.
        let mk = |unsat: bool| {
            let child = TreeNode {
                query: IndexedQuery {
                    index: vec![Term::int(1)],
                    value: vec![Term::int(1)],
                    body: parse_query("q() :- R(1, B), S(1).").unwrap().body,
                    unsatisfiable: unsat,
                },
                template: Template::AtomCol(0),
                children: Vec::new(),
            };
            QueryTree {
                root: TreeNode {
                    query: IndexedQuery {
                        index: vec![],
                        value: vec![Term::int(1)],
                        body: parse_query("q() :- R(1, B).").unwrap().body,
                        unsatisfiable: false,
                    },
                    template: Template::record(vec![
                        (Field::new("a"), Template::AtomCol(0)),
                        (Field::new("g"), Template::Child(0)),
                    ]),
                    children: vec![ChildLink { link: vec![Term::int(1)], node: child }],
                },
            }
        };
        let live = mk(false);
        let empty = mk(true);
        assert!(!tree_contained_in(&live, &empty));
        assert!(!tree_strong_contained_in_no_empty_sets(&live, &empty));
        // The empty-g side stays Hoare-below the live side, and the
        // refutation agrees with direct evaluation.
        assert!(tree_contained_in(&empty, &live));
        let db = Database::from_ints(&[("R", &[&[1, 0]]), ("S", &[&[1]])]);
        assert!(!hoare_leq(&live.evaluate(&db), &empty.evaluate(&db)));
        assert!(hoare_leq(&empty.evaluate(&db), &live.evaluate(&db)));
    }

    #[test]
    fn no_empty_sets_fast_path_agrees_when_assumption_holds() {
        let q1 = iq("q(X, Y) :- R(X, Y).", 1);
        let q2 = iq("q(Y0, Y) :- R(X, Y), R(X, Y0).", 1);
        let t1 = grouped_tree(&q1);
        let t2 = grouped_tree(&q2);
        // grouped_tree groups are never empty, so both paths agree.
        assert_eq!(tree_contained_in(&t1, &t2), tree_contained_in_no_empty_sets(&t1, &t2));
    }

    #[test]
    fn validation_catches_errors() {
        let q = iq("q(X, Y) :- R(X, Y).", 1);
        let bad = QueryTree {
            root: TreeNode {
                query: q.clone(),
                template: Template::AtomCol(5),
                children: Vec::new(),
            },
        };
        assert_eq!(bad.validate(), Err(TreeError::RootHasIndex));
        let bad2 = QueryTree {
            root: TreeNode {
                query: IndexedQuery { index: vec![], ..q },
                template: Template::AtomCol(5),
                children: Vec::new(),
            },
        };
        assert_eq!(bad2.validate(), Err(TreeError::BadAtomColumn(5)));
    }
}

/// Decides **strong tree containment** under the no-empty-sets hypothesis:
/// every element of `t1`'s result corresponds to an element of `t2`'s with
/// equal atomic components and **equal** (not merely Hoare-dominated)
/// nested sets, recursively — Equation 4 lifted to depth `d`.
///
/// This is the engine behind equivalence of queries whose set values feed
/// *uninterpreted functions* (§7's nested aggregation): `f(S) = f(S')` for
/// every interpretation of `f` iff `S = S'`, so group equality — not group
/// inclusion — is the right matching condition.
///
/// Requires both trees to be empty-set free (the §4/§7 regime; group
/// emptiness would need negative conditions the certificate language
/// cannot express — exactly where the paper, too, leaves equivalence
/// open). At depth 1 the procedure coincides with
/// [`crate::strong::strongly_simulated_by`] on `grouped_tree` encodings
/// (cross-checked in tests).
pub fn tree_strong_contained_in_no_empty_sets(t1: &QueryTree, t2: &QueryTree) -> bool {
    try_tree_strong_contained_in_no_empty_sets(t1, t2)
        .expect("interrupted: use the try_ variant under an interrupt budget")
}

/// Cancellable variant of [`tree_strong_contained_in_no_empty_sets`]:
/// aborts with [`Interrupted`] when the thread-local
/// [`co_object::interrupt`] budget expires. Identical when no budget is
/// installed.
pub fn try_tree_strong_contained_in_no_empty_sets(
    t1: &QueryTree,
    t2: &QueryTree,
) -> Result<bool, Interrupted> {
    let ctx = Context {
        db: Database::new(),
        opts: ContainOptions { no_empty_sets: true, extra_witnesses: 0, threads: 0 },
        frozen: HashSet::new(),
    };
    covered_strong_dir(&ctx, &t1.root, &[], &t2.root, &[])
}

/// One direction of elementwise *equality* matching: every element of
/// `n1`'s set at `args1` equals some element of `n2`'s set at `args2`
/// (atomic components equal; matched child sets mutually strongly
/// contained).
fn covered_strong_dir(
    ctx: &Context,
    n1: &TreeNode,
    args1: &[Atom],
    n2: &TreeNode,
    args2: &[Atom],
) -> Result<bool, Interrupted> {
    kernel::bump(Metric::TreeCoveredCalls);
    interrupt::probe()?;
    if n1.query.unsatisfiable {
        return Ok(true);
    }
    let mut entry_merge = HashMap::new();
    match unify_index(&n1.query.index, args1, &ctx.frozen, &mut entry_merge) {
        Unify::Impossible => return Ok(true),
        Unify::Ok => {}
    }
    let ctx = ctx.substituted(&entry_merge);
    let args1 = resolve_args(&entry_merge, args1);
    let args2 = resolve_args(&entry_merge, args2);

    // See `covered_detail`: an unsatisfiable n2 body is empty everywhere,
    // so no element of n1's (realizable) set can equal one of n2's.
    if n2.query.unsatisfiable {
        return Ok(false);
    }

    let Some(pairs) = match_templates(&n1.template, &n2.template) else {
        return Ok(false);
    };

    // ∀-side: one generic element of n1's set.
    let mut ctx1 = ctx.clone();
    let g0 = ctx1.instantiate(n1, &args1);
    let child_args1: Vec<Vec<Atom>> =
        n1.children.iter().map(|c| c.link.iter().map(|t| g0.image(t)).collect()).collect();

    // All children are assumed non-empty (the no-empty-sets hypothesis);
    // their index formals may still specialize the generic element.
    let mut pmerge = HashMap::new();
    for &(j1, _) in &pairs.children {
        let child = &n1.children[j1].node;
        if child.query.unsatisfiable {
            // An always-empty child contradicts the hypothesis: no element
            // exists, so the claim is vacuous.
            return Ok(true);
        }
        match unify_index(&child.query.index, &child_args1[j1], &ctx1.frozen, &mut pmerge) {
            Unify::Impossible => return Ok(true),
            Unify::Ok => {}
        }
    }
    let mut ctx2 = ctx1.substituted(&pmerge);
    let p_child_args: Vec<Vec<Atom>> =
        child_args1.iter().map(|a| resolve_args(&pmerge, a)).collect();
    let p_args2 = resolve_args(&pmerge, &args2);

    // Witness copies for every matched child.
    for &(j1, j2) in &pairs.children {
        let link2_vars = n2.children[j2].link.iter().filter(|t| matches!(t, Term::Var(_))).count();
        for _ in 0..link2_vars + ctx2.opts.extra_witnesses {
            kernel::bump(Metric::TreeWitnessCopies);
            ctx2.instantiate(&n1.children[j1].node, &p_child_args[j1]);
        }
    }

    let value_image = |i: usize| resolve(&pmerge, g0.image(&n1.query.value[i]));
    let Some(fixed) = target_fixing(n2, &p_args2, &pairs.atoms, &value_image) else {
        return Ok(false);
    };
    let mut found = false;
    // See `covered`: interruptions inside the recursion are captured and
    // re-raised outside the `for_each` closure.
    let mut interrupted = None;
    let outcome = HomProblem::new(&n2.query.body, &ctx2.db).with_fixed(fixed).for_each(|hom| {
        let mut all_children_equal = true;
        for &(j1, j2) in &pairs.children {
            let child2_args: Vec<Atom> =
                n2.children[j2].link.iter().map(|t| eval_term(t, hom)).collect();
            let c1 = &n1.children[j1].node;
            let c2 = &n2.children[j2].node;
            let both = covered_strong_dir(&ctx2, c1, &p_child_args[j1], c2, &child2_args).and_then(
                |fwd| {
                    if !fwd {
                        return Ok(false);
                    }
                    covered_strong_dir(&ctx2, c2, &child2_args, c1, &p_child_args[j1])
                },
            );
            match both {
                Ok(true) => {}
                Ok(false) => {
                    all_children_equal = false;
                    break;
                }
                Err(stop) => {
                    interrupted = Some(stop);
                    return ControlFlow::Break(());
                }
            }
        }
        if all_children_equal {
            found = true;
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    if let Some(stop) = interrupted {
        return Err(stop);
    }
    if outcome == SearchOutcome::Interrupted {
        return Err(Interrupted);
    }
    Ok(found)
}

#[cfg(test)]
mod strong_tree_tests {
    use super::*;
    use crate::indexed::IndexedQuery;
    use co_cq::parse_query;

    fn iq(text: &str, index_arity: usize) -> IndexedQuery {
        IndexedQuery::from_cq(&parse_query(text).unwrap(), index_arity)
    }

    #[test]
    fn matches_flat_strong_simulation() {
        let cases = [
            ("q(X, Y) :- R(X, Y), T(X).", 1, "q(A, B) :- R(A, B), T(A).", 1),
            ("q(X, Y) :- R(X, Y), S(Y).", 1, "q(X, Y) :- R(X, Y).", 1),
            ("q(X, Y) :- R(X, Y).", 1, "q(X, Y) :- R(X, Y), R(X, Z).", 1),
            ("q(Y) :- R(X, Y).", 0, "q(X, Y) :- R(X, Y).", 1),
            ("q(X, Y) :- R(X, Y).", 1, "q(Y) :- R(X, Y).", 0),
        ];
        for (s1, i1, s2, i2) in cases {
            let q1 = iq(s1, i1);
            let q2 = iq(s2, i2);
            let flat = crate::strong::is_strongly_simulated_by(&q1, &q2);
            let tree =
                tree_strong_contained_in_no_empty_sets(&grouped_tree(&q1), &grouped_tree(&q2));
            assert_eq!(flat, tree, "{s1} vs {s2}");
        }
    }

    #[test]
    fn strong_implies_hoare_containment() {
        let q1 = iq("q(X, Y) :- R(X, Y).", 1);
        let q2 = iq("q(A, B) :- R(A, B).", 1);
        let t1 = grouped_tree(&q1);
        let t2 = grouped_tree(&q2);
        assert!(tree_strong_contained_in_no_empty_sets(&t1, &t2));
        assert!(tree_contained_in(&t1, &t2));
    }

    #[test]
    fn subset_groups_fail_strong_but_pass_hoare() {
        let q1 = iq("q(X, Y) :- R(X, Y), S(Y).", 1);
        let q2 = iq("q(X, Y) :- R(X, Y).", 1);
        let t1 = grouped_tree(&q1);
        let t2 = grouped_tree(&q2);
        assert!(tree_contained_in(&t1, &t2));
        assert!(!tree_strong_contained_in_no_empty_sets(&t1, &t2));
    }
}

/// Searches for a containment counterexample among the *canonical
/// instantiations* of `t1`'s own tree: databases built by freezing
/// `root_copies` root elements and, per set node, `child_copies` members
/// of each child set (`child_copies = 0` exercises the empty-set cases).
///
/// By the completeness argument of the containment procedure these
/// instantiations are where violations surface first; the workspace
/// differential tests use this alongside random search to corroborate
/// every negative answer.
pub fn search_tree_counterexample(t1: &QueryTree, t2: &QueryTree) -> Option<Database> {
    search_tree_counterexample_among(t1, t2, &[1, 2], &[1, 0, 2], false)
}

/// [`search_tree_counterexample`] over an explicit canonical family
/// (`root_copies × child_copies` instantiation counts), optionally
/// restricted to refutations whose evaluated answers are empty-set-free.
///
/// The restriction matters for certificates on the §4 no-empty-sets path:
/// a verdict qualified by that hypothesis may only be refuted by a
/// database on which neither answer contains an empty set, else the
/// refutation is outside the hypothesis. Certificate emission
/// (`co-core::certify_prepared`) searches a broadened family
/// (`[1,2,3] × [1,0,2,3]`) through this entry point.
///
/// Each canonical database is also retried *padded* with one canonical
/// element of `t2`'s own tree (fresh atoms). Padding is what makes the
/// empty-free search complete in practice: relations mentioned only by
/// `t2` are uninhabited in `t1`'s canonical instantiations, so `t2`'s
/// answer there is the empty set and every refutation of a no-empty-sets
/// verdict would be filtered out. Padding can only *add* candidate
/// databases — every returned database is verified by direct evaluation,
/// so soundness never depends on how it was built.
pub fn search_tree_counterexample_among(
    t1: &QueryTree,
    t2: &QueryTree,
    root_copies: &[usize],
    child_copies: &[usize],
    require_empty_free: bool,
) -> Option<Database> {
    let refutes = |db: &Database| -> bool {
        let v1 = t1.evaluate(db);
        let v2 = t2.evaluate(db);
        if require_empty_free && (v1.contains_empty_set() || v2.contains_empty_set()) {
            return false;
        }
        !co_object::hoare_leq(&v1, &v2)
    };
    for &roots in root_copies {
        for &copies in child_copies {
            let mut db = Database::new();
            let mut assignment: HashMap<Var, Atom> = HashMap::new();
            for _ in 0..roots {
                instantiate_subtree(&t1.root, &[], copies, &mut assignment, &mut db);
            }
            if refutes(&db) {
                return Some(db);
            }
            // Padded variant: inhabit t2-only relations with at least one
            // member per child set, so t2's answer can be empty-set-free.
            instantiate_subtree(&t2.root, &[], copies.max(1), &mut assignment, &mut db);
            if refutes(&db) {
                return Some(db);
            }
        }
    }
    None
}

/// When both trees are depth-1 (no child sets) with matching element
/// templates, returns the aligned conjunctive-query pair whose classical
/// containment coincides with tree containment: heads are the matched
/// atomic columns (in template order), bodies are the root bodies.
///
/// This is the bridge from the §5 flat fast path back to Chandra–Merlin,
/// used to mint `Mapping(φ)` certificates for flat positive verdicts.
pub fn flat_cq_pair(
    t1: &QueryTree,
    t2: &QueryTree,
) -> Option<(ConjunctiveQuery, ConjunctiveQuery)> {
    if !t1.root.children.is_empty() || !t2.root.children.is_empty() {
        return None;
    }
    let pairs = match_templates(&t1.root.template, &t2.root.template)?;
    let head1: Vec<Term> = pairs.atoms.iter().map(|&(i, _)| t1.root.query.value[i]).collect();
    let head2: Vec<Term> = pairs.atoms.iter().map(|&(_, j)| t2.root.query.value[j]).collect();
    Some((
        ConjunctiveQuery {
            head: head1,
            body: t1.root.query.body.clone(),
            unsatisfiable: t1.root.query.unsatisfiable,
        },
        ConjunctiveQuery {
            head: head2,
            body: t2.root.query.body.clone(),
            unsatisfiable: t2.root.query.unsatisfiable,
        },
    ))
}

/// Freezes one element of `node` at `args` and recursively `copies`
/// members of each of its child sets.
fn instantiate_subtree(
    node: &TreeNode,
    args: &[Atom],
    copies: usize,
    assignment: &mut HashMap<Var, Atom>,
    db: &mut Database,
) {
    if node.query.unsatisfiable || bind_index(&node.query.index, args).is_none() {
        return;
    }
    let inst = instantiate_body(node, args, assignment, db);
    for child in &node.children {
        let child_args: Vec<Atom> = child.link.iter().map(|t| inst.image(t)).collect();
        for _ in 0..copies {
            instantiate_subtree(&child.node, &child_args, copies, assignment, db);
        }
    }
}

#[cfg(test)]
mod counterexample_tests {
    use super::*;
    use crate::indexed::IndexedQuery;
    use co_cq::parse_query;

    fn iq(text: &str, index_arity: usize) -> IndexedQuery {
        IndexedQuery::from_cq(&parse_query(text).unwrap(), index_arity)
    }

    #[test]
    fn finds_violations_for_non_containment() {
        let q1 = iq("q(X, Y) :- R(X, Y).", 1);
        let q2 = iq("q(X, Y) :- R(X, Y), S(Y).", 1);
        let t1 = grouped_tree(&q1);
        let t2 = grouped_tree(&q2);
        assert!(!tree_contained_in(&t1, &t2));
        let db = search_tree_counterexample(&t1, &t2).expect("violation exists");
        assert!(!co_object::hoare_leq(&t1.evaluate(&db), &t2.evaluate(&db)));
    }

    #[test]
    fn silent_on_positive_cases() {
        let q1 = iq("q(X, Y) :- R(X, Y), S(Y).", 1);
        let q2 = iq("q(X, Y) :- R(X, Y).", 1);
        assert!(tree_contained_in(&grouped_tree(&q1), &grouped_tree(&q2)));
        assert!(search_tree_counterexample(&grouped_tree(&q1), &grouped_tree(&q2)).is_none());
    }
}
