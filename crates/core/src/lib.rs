//! # co-core — deciding containment and equivalence of COQL queries
//!
//! The headline results of *Levy & Suciu, "Deciding Containment for Queries
//! with Complex Objects", PODS 1997*, as a public API:
//!
//! * **Theorem 4.1** — [`contained_in`]: containment of COQL queries (under
//!   the Hoare order on answers, §3.2) is decidable. The pipeline is the
//!   paper's: normalize (§5.2) → flatten into a query tree of conjunctive
//!   queries with index variables (§5.1–5.2) → decide d-simulation
//!   (Equation 2) with witness-copy containment mappings.
//! * **Weak equivalence** — [`weakly_equivalent`]: mutual containment.
//! * **Equivalence** — [`equivalent`]: when both answers are guaranteed
//!   free of empty sets (checked conservatively, or when the result type
//!   is a flat relation), weak equivalence *coincides* with equivalence
//!   (§4) and the answer is definite; otherwise a positive weak-equivalence
//!   answer is reported as [`Equivalence::WeaklyEquivalentOnly`].
//!
//! Fast paths, matching the paper's complexity landscape:
//! * flat result type ⟹ classical Chandra–Merlin containment (NP);
//! * empty-set-free answers ⟹ single emptiness pattern (NP), no
//!   exponential component;
//! * otherwise the full procedure with the emptiness case split.
//!
//! ```
//! use co_cq::Schema;
//! use co_core::{contained_in, weakly_equivalent};
//! use co_lang::parse_coql;
//!
//! let schema = Schema::with_relations(&[("R", &["A", "B"])]);
//! let filtered = parse_coql("select x.B from x in R where x.A = 1").unwrap();
//! let all = parse_coql("select x.B from x in R").unwrap();
//! assert!(contained_in(&filtered, &all, &schema).unwrap().holds);
//! assert!(!contained_in(&all, &filtered, &schema).unwrap().holds);
//! assert!(!weakly_equivalent(&filtered, &all, &schema).unwrap());
//! ```

#![warn(missing_docs)]

use std::fmt;

use co_cq::{Database, Schema};
use co_lang::{
    empty_set_status, normalize, type_check, CoDatabase, Comprehension, CoqlSchema, EmptySetStatus,
    Expr,
};
use co_object::interrupt::{self, SharedBudget};
use co_object::{hoare_leq, par, Type};
use co_sim::tree::{try_tree_contained_in_with, ContainOptions, QueryTree};
use co_trace::kernel::{self, Metric};

/// Which decision path answered a containment query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecisionPath {
    /// Both sides flatten to depth-1 trees: classical containment (NP).
    FlatClassical,
    /// Both sides proven empty-set-free: single emptiness pattern (NP).
    NoEmptySets,
    /// Full procedure with the exponential emptiness case split.
    Full,
}

impl fmt::Display for DecisionPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecisionPath::FlatClassical => write!(f, "flat/classical"),
            DecisionPath::NoEmptySets => write!(f, "no-empty-sets"),
            DecisionPath::Full => write!(f, "full"),
        }
    }
}

/// Result of a containment check, with provenance.
///
/// `PartialEq`/`Eq` compare every field, so "bit-identical verdict" checks
/// (e.g. cached vs. freshly computed, in `co-service`) are one `==`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ContainmentAnalysis {
    /// Whether `Q1 ⊑ Q2` holds on every database.
    pub holds: bool,
    /// The decision path taken.
    pub path: DecisionPath,
    /// Set-nesting depth of the result type.
    pub depth: usize,
    /// Number of conjunctive queries in each flattened side (`m` in §5.2).
    pub set_nodes: (usize, usize),
}

/// Errors from the containment pipeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CoreError {
    /// A query failed to type-check.
    Type(String),
    /// The queries have incompatible result types.
    TypeMismatch(Box<(Type, Type)>),
    /// Normalization failed.
    Normalize(String),
    /// Flattening failed.
    Flatten(String),
    /// The decision was interrupted by a thread-local
    /// [`co_object::interrupt`] budget (deadline or step limit) installed
    /// by a serving layer. No verdict was reached; the partial result must
    /// not be cached.
    Interrupted,
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Type(m) => write!(f, "{m}"),
            CoreError::TypeMismatch(b) => {
                write!(f, "result types are incompatible: {} vs {}", b.0, b.1)
            }
            CoreError::Normalize(m) => write!(f, "{m}"),
            CoreError::Flatten(m) => write!(f, "{m}"),
            CoreError::Interrupted => {
                write!(f, "decision interrupted: deadline or step budget exhausted")
            }
        }
    }
}

impl std::error::Error for CoreError {}

/// A COQL query prepared for the decision procedures.
#[derive(Clone, Debug)]
pub struct Prepared {
    /// Its result type.
    pub ty: Type,
    /// The flattened query tree.
    pub tree: QueryTree,
    /// Conservative empty-set-freedom status.
    pub empty_status: EmptySetStatus,
    /// Number of set nodes in the normal form.
    pub set_nodes: usize,
}

/// Type-checks, normalizes, and flattens a COQL query over a flat schema.
pub fn prepare(expr: &Expr, schema: &Schema) -> Result<Prepared, CoreError> {
    prepare_with(expr, schema, PrepareOptions::default())
}

/// Options for query preparation.
#[derive(Clone, Copy, Debug, Default)]
pub struct PrepareOptions {
    /// Minimize every node's body after flattening (redundant-subgoal
    /// elimination; costs CQ-equivalence checks up front, shrinks every
    /// frozen copy the decision procedures build — see experiment E11).
    pub minimize: bool,
}

/// [`prepare`] with explicit options: type-checks and normalizes `expr`,
/// then hands both to [`prepare_normalized`].
pub fn prepare_with(
    expr: &Expr,
    schema: &Schema,
    opts: PrepareOptions,
) -> Result<Prepared, CoreError> {
    let coql_schema = CoqlSchema::from_flat(schema);
    let ty = type_check(expr, &coql_schema).map_err(|e| CoreError::Type(e.to_string()))?;
    // Reject a non-set type before normalizing so the error names the
    // type rather than the normal form.
    require_set_type(&ty)?;
    let nf = normalize(expr, &coql_schema).map_err(|e| CoreError::Normalize(e.to_string()))?;
    let mut prepared = prepare_normalized(ty, &nf, schema)?;
    if opts.minimize {
        prepared.tree = co_sim::minimize_tree(&prepared.tree);
    }
    Ok(prepared)
}

/// Prepares a query from its result type `ty` and its normal form `nf`
/// ([`co_lang::normalize`]), for callers that already type-checked and
/// normalized it — a serving layer fingerprints the normal form, so it
/// need not build either twice. Every other entry point goes through
/// here.
pub fn prepare_normalized(
    ty: Type,
    nf: &Comprehension,
    schema: &Schema,
) -> Result<Prepared, CoreError> {
    require_set_type(&ty)?;
    let empty_status = empty_set_status(nf);
    let set_nodes = nf.set_node_count();
    let tree =
        co_encode::flatten_query(nf, schema).map_err(|e| CoreError::Flatten(e.to_string()))?;
    Ok(Prepared { ty, tree, empty_status, set_nodes })
}

/// The decision procedures compare set-valued answers only.
fn require_set_type(ty: &Type) -> Result<(), CoreError> {
    if matches!(ty, Type::Set(_)) {
        Ok(())
    } else {
        Err(CoreError::Type(format!("query must be set-typed, found {ty}")))
    }
}

/// Decides `Q1 ⊑ Q2`: on every database, `⟦Q1⟧(D) ⊑ ⟦Q2⟧(D)` in the Hoare
/// order (Theorem 4.1).
pub fn contained_in(
    q1: &Expr,
    q2: &Expr,
    schema: &Schema,
) -> Result<ContainmentAnalysis, CoreError> {
    let p1 = prepare(q1, schema)?;
    let p2 = prepare(q2, schema)?;
    contained_prepared(&p1, &p2)
}

/// The decision path [`contained_prepared`] will take for this pair,
/// derivable from the preparations alone (type shapes and conservative
/// empty-set statuses) without running any decision.
///
/// Certificate consumers use this to avoid trusting a *claimed* path: a
/// cached entry, a snapshot record, or a remote server reply asserts a
/// path, and the checker re-derives the expected one from the queries
/// themselves before validating the evidence against it.
pub fn expected_path(p1: &Prepared, p2: &Prepared) -> DecisionPath {
    let no_empty =
        p1.empty_status == EmptySetStatus::Free && p2.empty_status == EmptySetStatus::Free;
    let flat = p1.ty.is_flat_relation() && p2.ty.is_flat_relation();
    if flat {
        DecisionPath::FlatClassical
    } else if no_empty {
        DecisionPath::NoEmptySets
    } else {
        DecisionPath::Full
    }
}

/// Containment on pre-flattened queries (lets callers amortize preparation).
pub fn contained_prepared(p1: &Prepared, p2: &Prepared) -> Result<ContainmentAnalysis, CoreError> {
    if p1.ty.lub(&p2.ty).is_none() {
        return Err(CoreError::TypeMismatch(Box::new((p1.ty.clone(), p2.ty.clone()))));
    }
    let depth = p1.ty.set_depth().max(p2.ty.set_depth());
    let path = expected_path(p1, p2);
    // Flat results never nest sets, so the no-empty-set options are exact
    // for them too; both fast paths collapse to the same call.
    let opts = ContainOptions {
        no_empty_sets: path != DecisionPath::Full,
        extra_witnesses: 0,
        threads: 0,
    };
    let holds =
        try_tree_contained_in_with(&p1.tree, &p2.tree, opts).map_err(|_| CoreError::Interrupted)?;
    Ok(ContainmentAnalysis { holds, path, depth, set_nodes: (p1.set_nodes, p2.set_nodes) })
}

/// The wire-level certificate path tag for a [`DecisionPath`].
pub fn cert_path(path: DecisionPath) -> co_cert::CertPath {
    match path {
        DecisionPath::FlatClassical => co_cert::CertPath::Flat,
        DecisionPath::NoEmptySets => co_cert::CertPath::NoEmpty,
        DecisionPath::Full => co_cert::CertPath::Full,
    }
}

/// Why certificate emission failed even though a verdict exists.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CertifyError {
    /// No certificate could be constructed for this verdict — e.g. the
    /// kernels disagree on re-examination (a genuine bug surfacing) or no
    /// canonical counterexample materializes the refutation. The verdict
    /// itself is unaffected; the serving layer reports the certificate as
    /// unavailable.
    Unavailable(String),
    /// Certificate construction hit the installed step/deadline budget.
    Interrupted,
}

impl fmt::Display for CertifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertifyError::Unavailable(m) => write!(f, "certificate unavailable: {m}"),
            CertifyError::Interrupted => {
                write!(f, "certificate construction interrupted: budget exhausted")
            }
        }
    }
}

impl std::error::Error for CertifyError {}

/// Root-copy counts of the canonical family searched for counterexample
/// certificates — a superset of the checker's own family, so refutations
/// the checker would find are also found here.
const CERTIFY_ROOT_COPIES: [usize; 3] = [1, 2, 3];
const CERTIFY_CHILD_COPIES: [usize; 4] = [1, 0, 2, 3];

/// Constructs an independently checkable certificate for an
/// already-computed verdict (`analysis` from [`contained_prepared`] on the
/// same pair).
///
/// Positive flat verdicts re-derive the Chandra–Merlin mapping; positive
/// nested verdicts emit the payload-free `Canonical` kind (the checker
/// re-derives the witness family itself); negative verdicts re-run the
/// tree walk for the refuted emptiness pattern and search the canonical
/// instantiation family for a concrete refuting database.
///
/// An expired thread-local [`co_object::interrupt`] budget yields
/// [`CertifyError::Interrupted`], never a certificate built from evidence
/// an abandoned search truncated.
pub fn certify_prepared(
    p1: &Prepared,
    p2: &Prepared,
    analysis: &ContainmentAnalysis,
) -> Result<co_cert::Cert, CertifyError> {
    let minted = mint_certificate(p1, p2, analysis);
    // Expiry is sticky, so one probe tells whether any kernel above
    // swallowed it (the flat mapping search reads it as "no mapping").
    if interrupt::probe().is_err() {
        return Err(CertifyError::Interrupted);
    }
    minted
}

fn mint_certificate(
    p1: &Prepared,
    p2: &Prepared,
    analysis: &ContainmentAnalysis,
) -> Result<co_cert::Cert, CertifyError> {
    let path = expected_path(p1, p2);
    let cpath = cert_path(path);
    if analysis.holds {
        if p1.tree.root.query.unsatisfiable {
            return Ok(co_cert::Cert {
                holds: true,
                path: cpath,
                kind: co_cert::Certificate::TriviallyEmpty,
            });
        }
        if path == DecisionPath::FlatClassical {
            let Some((q1, q2)) = co_sim::flat_cq_pair(&p1.tree, &p2.tree) else {
                return Err(CertifyError::Unavailable(
                    "flat templates do not align; no CQ pair to map".into(),
                ));
            };
            return match co_cq::contained_in(&q1, &q2) {
                Some(co_cq::Certificate::TriviallyEmpty) => Ok(co_cert::Cert {
                    holds: true,
                    path: cpath,
                    kind: co_cert::Certificate::TriviallyEmpty,
                }),
                Some(co_cq::Certificate::Mapping(m)) => {
                    // Re-express φ in canonical positional names: the raw
                    // mapping speaks this process's gensym names, which an
                    // independent checker's own flattening won't share.
                    let r1 = co_cert::canonical_renaming(&q1);
                    let r2 = co_cert::canonical_renaming(&q2);
                    let outside = |v: &co_cq::Var, t: &co_cq::Term| {
                        CertifyError::Unavailable(format!(
                            "mapping entry `{v} -> {t}` falls outside the flat CQ pair"
                        ))
                    };
                    let mut map = std::collections::HashMap::new();
                    for (v, t) in &m.map {
                        let cv = *r2.get(v).ok_or_else(|| outside(v, t))?;
                        let ct = match t {
                            co_cq::Term::Var(w) => {
                                co_cq::Term::Var(*r1.get(w).ok_or_else(|| outside(v, t))?)
                            }
                            co_cq::Term::Const(_) => *t,
                        };
                        map.insert(cv, ct);
                    }
                    Ok(co_cert::Cert {
                        holds: true,
                        path: cpath,
                        kind: co_cert::Certificate::Mapping(map),
                    })
                }
                None => Err(CertifyError::Unavailable(
                    "flat kernels disagree: tree walk holds, classical search finds no mapping"
                        .into(),
                )),
            };
        }
        Ok(co_cert::Cert { holds: true, path: cpath, kind: co_cert::Certificate::Canonical })
    } else {
        let opts = ContainOptions {
            no_empty_sets: path != DecisionPath::Full,
            extra_witnesses: 0,
            threads: 0,
        };
        let verdict = co_sim::try_tree_containment_verdict(&p1.tree, &p2.tree, opts)
            .map_err(|_| CertifyError::Interrupted)?;
        if verdict.holds {
            return Err(CertifyError::Unavailable(
                "kernel verdict is not stable across re-runs".into(),
            ));
        }
        let require_empty_free = path == DecisionPath::NoEmptySets;
        match co_sim::search_tree_counterexample_among(
            &p1.tree,
            &p2.tree,
            &CERTIFY_ROOT_COPIES,
            &CERTIFY_CHILD_COPIES,
            require_empty_free,
        )
        .map_err(|_| CertifyError::Interrupted)?
        {
            Some(db) => Ok(co_cert::Cert {
                holds: false,
                path: cpath,
                kind: co_cert::Certificate::Counterexample { db, pattern: verdict.refuted_pattern },
            }),
            None => Err(CertifyError::Unavailable(
                "no canonical counterexample materializes the refutation".into(),
            )),
        }
    }
}

// ---------------------------------------------------------------------------
// Union (UCQ) containment — Sagiv–Yannakakis over the prepared kernels
// ---------------------------------------------------------------------------

/// A union of COQL queries prepared for the UCQ decision procedures.
///
/// Disjuncts keep their source order; `ty` is the least upper bound of the
/// disjunct result types (the union's answer type), computed at
/// preparation so incompatible disjuncts fail early.
#[derive(Clone, Debug)]
pub struct PreparedUnion {
    /// The prepared disjuncts, in source order.
    pub disjuncts: Vec<Prepared>,
    /// Least upper bound of the disjunct result types.
    pub ty: Type,
}

impl PreparedUnion {
    /// Assembles a union from already-prepared disjuncts, computing the
    /// union's answer type as the lub of the disjunct types. Errors on an
    /// empty union or incompatible disjuncts — lets a serving layer build
    /// unions out of its shared per-query [`Prepared`] cache.
    pub fn from_disjuncts(disjuncts: Vec<Prepared>) -> Result<PreparedUnion, CoreError> {
        let ty = union_type(disjuncts.iter().map(|p| &p.ty))?;
        Ok(PreparedUnion { disjuncts, ty })
    }
}

/// The answer type of a union: the least upper bound of its members'
/// result types. Errors on an empty union or on members with no common
/// bound. Checking `union_type([&left, &right])` up front is the
/// cross-disjunct compatibility check every union decision makes.
pub fn union_type<'a>(tys: impl IntoIterator<Item = &'a Type>) -> Result<Type, CoreError> {
    let mut tys = tys.into_iter();
    let Some(first) = tys.next() else {
        return Err(CoreError::Type("a union query needs at least one disjunct".into()));
    };
    let mut ty = first.clone();
    for t in tys {
        ty = ty.lub(t).ok_or_else(|| CoreError::TypeMismatch(Box::new((ty.clone(), t.clone()))))?;
    }
    Ok(ty)
}

/// Prepares every disjunct of a union query and checks that their result
/// types are compatible (pairwise lub exists). Errors on an empty union.
pub fn prepare_union(exprs: &[Expr], schema: &Schema) -> Result<PreparedUnion, CoreError> {
    prepare_union_with(exprs, schema, PrepareOptions::default())
}

/// [`prepare_union`] with explicit per-disjunct options.
pub fn prepare_union_with(
    exprs: &[Expr],
    schema: &Schema,
    opts: PrepareOptions,
) -> Result<PreparedUnion, CoreError> {
    let mut disjuncts = Vec::with_capacity(exprs.len());
    for e in exprs {
        disjuncts.push(prepare_with(e, schema, opts)?);
    }
    PreparedUnion::from_disjuncts(disjuncts)
}

/// Result of a union containment check `∪Pⱼ ⊑ ∪Qᵢ`.
///
/// The verdict (`holds`) is deterministic. The *witness indices* are the
/// first containing right disjunct each sequential search found; under
/// parallel fan-out a later disjunct's success can cancel a slower earlier
/// one, so witnesses may differ across thread counts — any reported
/// witness is a genuine containing disjunct either way (certificates are
/// re-derived per pair, so they check regardless).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnionAnalysis {
    /// Whether every left disjunct is contained in some right disjunct.
    pub holds: bool,
    /// For each decided left disjunct `j` (in order), the right index that
    /// contains it. Covers all left disjuncts when `holds`; stops at the
    /// refuted disjunct otherwise.
    pub witnesses: Vec<u32>,
    /// The first left disjunct contained in no right disjunct, when the
    /// containment fails.
    pub refuted: Option<u32>,
    /// How many pairwise containment decisions were run (short-circuiting
    /// and cancellation make this ≤ `left × right`).
    pub pairs_decided: u32,
}

/// Options for the union decision.
#[derive(Clone, Copy, Debug, Default)]
pub struct UnionOptions {
    /// Worker threads for the per-disjunct fan-out (`0` = the
    /// process-global setting, [`co_object::par::kernel_threads`]).
    pub threads: usize,
}

/// Decides `∪Pⱼ ⊑ ∪Qᵢ` on prepared unions (Sagiv–Yannakakis: the union
/// containment holds iff every left disjunct is contained in *some* right
/// disjunct — for CQs a disjunct cannot be covered only jointly).
///
/// Each left disjunct's witness search short-circuits on the first
/// containing right disjunct. With >1 kernel threads the right disjuncts
/// are fanned out over [`co_object::par`] workers under a forked
/// cooperative budget (so the installed deadline/step budget is sliced
/// across disjuncts and a first success cancels the siblings); otherwise
/// they are scanned sequentially with [`interrupt::probe`] between pairs.
pub fn union_contained_prepared(
    left: &PreparedUnion,
    right: &PreparedUnion,
) -> Result<UnionAnalysis, CoreError> {
    union_contained_prepared_with(left, right, UnionOptions::default())
}

/// [`union_contained_prepared`] with explicit options.
pub fn union_contained_prepared_with(
    left: &PreparedUnion,
    right: &PreparedUnion,
    opts: UnionOptions,
) -> Result<UnionAnalysis, CoreError> {
    union_type([&left.ty, &right.ty])?;
    let threads = union_threads(opts, right.disjuncts.len());
    sagiv_yannakakis(left.disjuncts.len(), |j, pairs| {
        interrupt::probe().map_err(|_| CoreError::Interrupted)?;
        let p = &left.disjuncts[j];
        if threads > 1 {
            witness_parallel(p, &right.disjuncts, threads, pairs)
        } else {
            first_witness(right.disjuncts.len(), pairs, |i| {
                Ok(contained_prepared(p, &right.disjuncts[i])?.holds)
            })
        }
    })
}

/// The Sagiv–Yannakakis walk over `left` disjuncts: `∪Pⱼ ⊑ ∪Qᵢ` holds iff
/// every `Pⱼ` has a witness `Qᵢ ⊇ Pⱼ`. `witness(j, pairs)` searches the
/// right disjuncts for left disjunct `j`, adding the pair decisions it ran
/// to `pairs`; the walk collects the witnesses in left order and stops at
/// the first disjunct without one, naming it as refuted.
///
/// Generic over how pairs are decided, so every caller shares this loop:
/// [`union_contained_prepared_with`] searches with the kernels directly
/// (fanned out or via [`first_witness`]), and a serving layer can decide
/// each pair through its own memo.
pub fn sagiv_yannakakis<E>(
    left: usize,
    mut witness: impl FnMut(usize, &mut u32) -> Result<Option<u32>, E>,
) -> Result<UnionAnalysis, E> {
    let mut witnesses = Vec::with_capacity(left);
    let mut pairs_decided = 0u32;
    for j in 0..left {
        match witness(j, &mut pairs_decided)? {
            Some(i) => witnesses.push(i),
            None => {
                return Ok(UnionAnalysis {
                    holds: false,
                    witnesses,
                    refuted: Some(j as u32),
                    pairs_decided,
                })
            }
        }
    }
    Ok(UnionAnalysis { holds: true, witnesses, refuted: None, pairs_decided })
}

/// Resolved fan-out width: explicit option, else the process-global
/// setting; never wider than the number of right disjuncts, and always 1
/// inside an existing pool worker (no nested fan-out).
fn union_threads(opts: UnionOptions, right_len: usize) -> usize {
    let configured = if opts.threads != 0 { opts.threads } else { par::effective_threads() };
    configured.min(right_len).max(1)
}

/// Sequential witness search for [`sagiv_yannakakis`]: the first of `right`
/// indices whose pair `holds`, counting each pair decided into `pairs`.
pub fn first_witness<E>(
    right: usize,
    pairs: &mut u32,
    mut holds: impl FnMut(usize) -> Result<bool, E>,
) -> Result<Option<u32>, E> {
    for i in 0..right {
        *pairs += 1;
        if holds(i)? {
            return Ok(Some(i as u32));
        }
    }
    Ok(None)
}

/// Parallel witness search over the right disjuncts, mirroring the
/// emptiness-pattern fan-out in `co-sim`: forked shared budget, chunked
/// work-stealing feeder, first-success cancellation, deterministic-merge
/// discipline (a definite witness beats sibling interruptions — a found
/// containment is sound regardless of what the cancelled siblings were
/// still computing).
fn witness_parallel(
    p: &Prepared,
    right: &[Prepared],
    threads: usize,
    pairs: &mut u32,
) -> Result<Option<u32>, CoreError> {
    let shared = SharedBudget::fork_current();
    let chunk = (right.len() / (threads * 8)).max(1);
    let (results, stats) = par::run_workers(threads, right.len(), chunk, |me, feeder| {
        let before = kernel::snapshot();
        let guard = interrupt::install_shared(&shared);
        let mut verdict: Result<Option<u32>, CoreError> = Ok(None);
        let mut decided = 0u32;
        'chunks: while let Some(range) = feeder.next(me) {
            for i in range {
                decided += 1;
                match contained_prepared(p, &right[i]) {
                    Ok(a) if a.holds => {
                        verdict = Ok(Some(i as u32));
                        feeder.stop();
                        shared.cancel();
                        break 'chunks;
                    }
                    Ok(_) => {}
                    Err(e) => {
                        verdict = Err(e);
                        break 'chunks;
                    }
                }
            }
        }
        drop(guard);
        (verdict, decided, kernel::snapshot().delta(&before))
    });
    shared.rejoin();
    par::note_engaged(stats.threads);
    kernel::bump_by(Metric::KernelParallelBranches, stats.branches);
    kernel::bump_by(Metric::KernelSteals, stats.steals);
    let mut witness: Option<u32> = None;
    let mut interrupted = shared.is_expired();
    let mut error: Option<CoreError> = None;
    for (verdict, decided, delta) in results {
        kernel::absorb(&delta);
        *pairs += decided;
        match verdict {
            Ok(Some(i)) => witness = Some(witness.map_or(i, |prev: u32| prev.min(i))),
            Ok(None) => {}
            Err(CoreError::Interrupted) => interrupted = true,
            Err(e) => error = Some(e),
        }
    }
    if let Some(i) = witness {
        return Ok(Some(i));
    }
    if let Some(e) = error {
        return Err(e);
    }
    if interrupted {
        return Err(CoreError::Interrupted);
    }
    Ok(None)
}

/// The expected decision path for the disjunct pair `(j, i)` — what a
/// certificate checker should demand of the embedded block for that pair.
pub fn expected_union_path(
    left: &PreparedUnion,
    right: &PreparedUnion,
    j: usize,
    i: usize,
) -> DecisionPath {
    expected_path(&left.disjuncts[j], &right.disjuncts[i])
}

/// Constructs an independently checkable union certificate for an
/// already-computed verdict (`analysis` from [`union_contained_prepared`]
/// on the same pair of unions).
///
/// Positive: one scalar witness certificate per left disjunct, against the
/// right disjunct recorded in `analysis.witnesses`. Negative: one scalar
/// refutation certificate per right disjunct, for the refuted left
/// disjunct. Every pairwise verdict is re-derived with
/// [`contained_prepared`]; a disagreement with the carried analysis is a
/// kernel-instability and reported as unavailable.
pub fn certify_union_prepared(
    left: &PreparedUnion,
    right: &PreparedUnion,
    analysis: &UnionAnalysis,
) -> Result<co_cert::UnionCert, CertifyError> {
    let recheck = |p: &Prepared, q: &Prepared| -> Result<ContainmentAnalysis, CertifyError> {
        contained_prepared(p, q).map_err(|e| match e {
            CoreError::Interrupted => CertifyError::Interrupted,
            other => CertifyError::Unavailable(other.to_string()),
        })
    };
    if analysis.holds {
        if analysis.witnesses.len() != left.disjuncts.len() {
            return Err(CertifyError::Unavailable(
                "positive union analysis does not cover every left disjunct".into(),
            ));
        }
        let mut witnesses = Vec::with_capacity(left.disjuncts.len());
        for (j, &i) in analysis.witnesses.iter().enumerate() {
            let p = &left.disjuncts[j];
            let q = right.disjuncts.get(i as usize).ok_or_else(|| {
                CertifyError::Unavailable(format!("witness index {i} is out of range"))
            })?;
            let pair = recheck(p, q)?;
            if !pair.holds {
                return Err(CertifyError::Unavailable(format!(
                    "kernel verdict is not stable across re-runs (pair {j} ⊑ {i})"
                )));
            }
            witnesses.push((i, certify_prepared(p, q, &pair)?));
        }
        Ok(co_cert::UnionCert {
            holds: true,
            left: left.disjuncts.len(),
            right: right.disjuncts.len(),
            witnesses,
            refuted: None,
            branches: Vec::new(),
        })
    } else {
        let x = analysis.refuted.ok_or_else(|| {
            CertifyError::Unavailable("refuted union analysis names no refuted disjunct".into())
        })?;
        let p = left.disjuncts.get(x as usize).ok_or_else(|| {
            CertifyError::Unavailable(format!("refuted index {x} is out of range"))
        })?;
        let mut branches = Vec::with_capacity(right.disjuncts.len());
        for (i, q) in right.disjuncts.iter().enumerate() {
            let pair = recheck(p, q)?;
            if pair.holds {
                return Err(CertifyError::Unavailable(format!(
                    "kernel verdict is not stable across re-runs (pair {x} ⊑ {i} holds on recheck)"
                )));
            }
            branches.push((i as u32, certify_prepared(p, q, &pair)?));
        }
        Ok(co_cert::UnionCert {
            holds: false,
            left: left.disjuncts.len(),
            right: right.disjuncts.len(),
            witnesses: Vec::new(),
            refuted: Some(x),
            branches,
        })
    }
}

/// Decides `∪Pⱼ ⊑ ∪Qᵢ` from source expressions (convenience wrapper; see
/// [`union_contained_prepared`] for the procedure).
pub fn union_contained_in(
    ps: &[Expr],
    qs: &[Expr],
    schema: &Schema,
) -> Result<UnionAnalysis, CoreError> {
    let left = prepare_union(ps, schema)?;
    let right = prepare_union(qs, schema)?;
    union_contained_prepared(&left, &right)
}

/// Decides weak equivalence: `Q1 ⊑ Q2` and `Q2 ⊑ Q1`.
pub fn weakly_equivalent(q1: &Expr, q2: &Expr, schema: &Schema) -> Result<bool, CoreError> {
    let p1 = prepare(q1, schema)?;
    let p2 = prepare(q2, schema)?;
    Ok(contained_prepared(&p1, &p2)?.holds && contained_prepared(&p2, &p1)?.holds)
}

/// Outcome of an equivalence check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Equivalence {
    /// `⟦Q1⟧(D) = ⟦Q2⟧(D)` on every database.
    Equivalent,
    /// The queries are not even weakly equivalent (so not equivalent).
    NotEquivalent,
    /// Weakly equivalent, but an answer may contain empty sets, so the §4
    /// collapse does not apply and true equivalence is left open (as in the
    /// paper, whose equivalence result is conditional on empty-set freedom).
    WeaklyEquivalentOnly,
}

/// Decides equivalence where the paper's results allow a definite answer.
///
/// * Not weakly equivalent ⟹ [`Equivalence::NotEquivalent`] (equality of
///   answers implies mutual Hoare containment).
/// * Weakly equivalent and (both answers empty-set-free, or the result type
///   is a flat relation) ⟹ [`Equivalence::Equivalent`] (§4; §3.2 for the
///   flat case).
/// * Otherwise [`Equivalence::WeaklyEquivalentOnly`].
pub fn equivalent(q1: &Expr, q2: &Expr, schema: &Schema) -> Result<Equivalence, CoreError> {
    let p1 = prepare(q1, schema)?;
    let p2 = prepare(q2, schema)?;
    if !(contained_prepared(&p1, &p2)?.holds && contained_prepared(&p2, &p1)?.holds) {
        return Ok(Equivalence::NotEquivalent);
    }
    let no_empty =
        p1.empty_status == EmptySetStatus::Free && p2.empty_status == EmptySetStatus::Free;
    let flat = p1.ty.is_flat_relation() && p2.ty.is_flat_relation();
    if no_empty || flat {
        Ok(Equivalence::Equivalent)
    } else {
        Ok(Equivalence::WeaklyEquivalentOnly)
    }
}

/// Searches for a containment counterexample: a database where
/// `⟦Q1⟧ ⋢ ⟦Q2⟧`. Tries the *canonical instantiations* of `Q1`'s
/// flattened tree first (where the completeness argument says violations
/// surface), then random small databases. Returns the first found.
///
/// This is the semantic testing utility used to validate the decider; a
/// `None` is *not* a proof of containment.
pub fn search_counterexample(
    q1: &Expr,
    q2: &Expr,
    schema: &Schema,
    seeds: std::ops::Range<u64>,
) -> Result<Option<Database>, CoreError> {
    let p1 = prepare(q1, schema)?;
    let p2 = prepare(q2, schema)?;
    if let Some(db) = co_sim::search_tree_counterexample(&p1.tree, &p2.tree) {
        return Ok(Some(db));
    }
    for seed in seeds {
        let db = random_database(schema, seed);
        let v1 = p1.tree.evaluate(&db);
        let v2 = p2.tree.evaluate(&db);
        if !hoare_leq(&v1, &v2) {
            return Ok(Some(db));
        }
    }
    Ok(None)
}

/// Evaluates a COQL query over a flat database through the reference
/// evaluator (convenience wrapper).
pub fn evaluate_flat(
    q: &Expr,
    schema: &Schema,
    db: &Database,
) -> Result<co_object::Value, CoreError> {
    let codb = CoDatabase::from_flat(db, schema);
    co_lang::evaluate(q, &codb).map_err(|e| CoreError::Type(e.to_string()))
}

/// A seeded random database over a flat schema (testing/benchmark utility).
pub fn random_database(schema: &Schema, seed: u64) -> Database {
    // Simple deterministic LCG so co-core doesn't need a rand dependency.
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    let mut next = move |bound: u64| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) % bound.max(1)
    };
    let mut db = Database::new();
    for rel in schema.iter() {
        let rows = 1 + next(5);
        for _ in 0..rows {
            let tuple = (0..rel.arity()).map(|_| co_object::Atom::int(next(4) as i64)).collect();
            db.insert(rel.name, tuple);
        }
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use co_lang::parse_coql;

    fn schema() -> Schema {
        Schema::with_relations(&[("R", &["A", "B"]), ("S", &["C"])])
    }

    fn holds(q1: &str, q2: &str) -> bool {
        let e1 = parse_coql(q1).unwrap();
        let e2 = parse_coql(q2).unwrap();
        contained_in(&e1, &e2, &schema()).unwrap().holds
    }

    #[test]
    fn flat_containment_uses_classical_path() {
        let e1 = parse_coql("select x.B from x in R where x.A = 1").unwrap();
        let e2 = parse_coql("select x.B from x in R").unwrap();
        let a = contained_in(&e1, &e2, &schema()).unwrap();
        assert!(a.holds);
        assert_eq!(a.path, DecisionPath::FlatClassical);
        assert!(!contained_in(&e2, &e1, &schema()).unwrap().holds);
    }

    #[test]
    fn nested_containment_through_grouping() {
        // Filtered groups ⊑ unfiltered groups, not conversely.
        let filtered =
            "select [a: x.A, g: (select y.B from y in R where y.A = x.A and y.B = 10)] from x in R";
        let plain = "select [a: x.A, g: (select y.B from y in R where y.A = x.A)] from x in R";
        assert!(holds(filtered, plain));
        assert!(!holds(plain, filtered));
    }

    #[test]
    fn renamed_queries_are_weakly_equivalent() {
        let q1 = parse_coql("select [a: x.A] from x in R").unwrap();
        let q2 = parse_coql("select [a: y.A] from y in R").unwrap();
        assert!(weakly_equivalent(&q1, &q2, &schema()).unwrap());
        assert_eq!(equivalent(&q1, &q2, &schema()).unwrap(), Equivalence::Equivalent);
    }

    #[test]
    fn equivalence_reports_weak_only_with_possible_empty_sets() {
        // Same query twice, but with a possibly-empty inner set: the §4
        // collapse does not apply syntactically.
        let src = "select [g: (select y.C from y in S where y.C = x.B)] from x in R";
        let q1 = parse_coql(src).unwrap();
        let q2 = parse_coql(src).unwrap();
        assert_eq!(equivalent(&q1, &q2, &schema()).unwrap(), Equivalence::WeaklyEquivalentOnly);
    }

    #[test]
    fn nest_style_queries_get_definite_equivalence() {
        let src = "select [a: x.A, g: (select y.B from y in R where y.A = x.A)] from x in R";
        let q1 = parse_coql(src).unwrap();
        let q2 = parse_coql(src).unwrap();
        assert_eq!(equivalent(&q1, &q2, &schema()).unwrap(), Equivalence::Equivalent);
    }

    #[test]
    fn incompatible_types_are_an_error() {
        let q1 = parse_coql("select x.A from x in R").unwrap();
        let q2 = parse_coql("select [a: x.A] from x in R").unwrap();
        assert!(matches!(contained_in(&q1, &q2, &schema()), Err(CoreError::TypeMismatch(_))));
    }

    #[test]
    fn decider_agrees_with_semantic_search() {
        let pairs = [
            ("select x.B from x in R where x.A = 1", "select x.B from x in R"),
            ("select x.B from x in R", "select x.B from x in R where x.A = 1"),
            (
                "select [a: x.A, g: (select y.B from y in R where y.A = x.A)] from x in R",
                "select [a: x.A, g: (select y.B from y in R)] from x in R",
            ),
        ];
        for (s1, s2) in pairs {
            let q1 = parse_coql(s1).unwrap();
            let q2 = parse_coql(s2).unwrap();
            let decided = contained_in(&q1, &q2, &schema()).unwrap().holds;
            let refuted = search_counterexample(&q1, &q2, &schema(), 0..200).unwrap().is_some();
            assert!(
                !(decided && refuted),
                "decider said contained but semantics refuted: {s1} vs {s2}"
            );
            if !decided {
                assert!(refuted, "decider said no but no counterexample found: {s1} vs {s2}");
            }
        }
    }

    #[test]
    fn minimized_preparation_is_equivalent() {
        let src = "select [a: x.A, g: (select y.B from y in R where y.A = x.A)] \
                   from x in R, z in R where z.A = x.A";
        let q = parse_coql(src).unwrap();
        let plain = prepare(&q, &schema()).unwrap();
        let minimized = prepare_with(&q, &schema(), PrepareOptions { minimize: true }).unwrap();
        assert!(
            co_sim::tree_atom_count(&minimized.tree) < co_sim::tree_atom_count(&plain.tree),
            "the redundant z-generator must be dropped"
        );
        // Same semantics on random databases…
        for seed in 0..20u64 {
            let db = random_database(&schema(), seed);
            assert_eq!(plain.tree.evaluate(&db), minimized.tree.evaluate(&db));
        }
        // …and the same containment verdicts.
        let other = parse_coql("select [a: x.A, g: (select y.B from y in R)] from x in R").unwrap();
        let p_other = prepare(&other, &schema()).unwrap();
        assert_eq!(
            contained_prepared(&plain, &p_other).unwrap().holds,
            contained_prepared(&minimized, &p_other).unwrap().holds
        );
    }

    fn union_exprs(srcs: &[&str]) -> Vec<Expr> {
        srcs.iter().map(|s| parse_coql(s).unwrap()).collect()
    }

    #[test]
    fn union_containment_follows_sagiv_yannakakis() {
        let a1 = "select x.B from x in R where x.A = 1";
        let a2 = "select x.B from x in R where x.A = 2";
        let all = "select x.B from x in R";
        // Each filtered disjunct is contained in the unfiltered query.
        let a =
            union_contained_in(&union_exprs(&[a1, a2]), &union_exprs(&[all]), &schema()).unwrap();
        assert!(a.holds);
        assert_eq!(a.witnesses, vec![0, 0]);
        // The unfiltered query is contained in neither filter alone, and
        // (CQs being disjunct-convex) not in their union either.
        let b =
            union_contained_in(&union_exprs(&[all]), &union_exprs(&[a1, a2]), &schema()).unwrap();
        assert!(!b.holds);
        assert_eq!(b.refuted, Some(0));
        // Q ⊑ Q ∪ anything-compatible.
        let c =
            union_contained_in(&union_exprs(&[a1]), &union_exprs(&[a2, a1]), &schema()).unwrap();
        assert!(c.holds);
        assert_eq!(c.witnesses, vec![1]);
    }

    #[test]
    fn union_short_circuits_on_the_first_containing_disjunct() {
        let a1 = "select x.B from x in R where x.A = 1";
        let all = "select x.B from x in R";
        // Witness at index 0 out of 3: only one pair decided.
        let a = union_contained_in(&union_exprs(&[a1]), &union_exprs(&[all, all, all]), &schema())
            .unwrap();
        assert!(a.holds);
        assert_eq!(a.pairs_decided, 1);
    }

    #[test]
    fn union_parallel_and_sequential_agree() {
        let schema = schema();
        let cases: Vec<(Vec<Expr>, Vec<Expr>)> = vec![
            (
                union_exprs(&[
                    "select x.B from x in R where x.A = 1",
                    "select x.B from x in R where x.A = 2",
                ]),
                union_exprs(&["select x.B from x in R where x.A = 3", "select x.B from x in R"]),
            ),
            (
                union_exprs(&["select x.B from x in R"]),
                union_exprs(&[
                    "select x.B from x in R where x.A = 1",
                    "select x.B from x in R where x.A = 2",
                    "select x.B from x in R where x.A = 3",
                ]),
            ),
        ];
        for (ps, qs) in cases {
            let left = prepare_union(&ps, &schema).unwrap();
            let right = prepare_union(&qs, &schema).unwrap();
            let seq =
                union_contained_prepared_with(&left, &right, UnionOptions { threads: 1 }).unwrap();
            let par =
                union_contained_prepared_with(&left, &right, UnionOptions { threads: 4 }).unwrap();
            assert_eq!(seq.holds, par.holds);
            assert_eq!(seq.refuted, par.refuted);
        }
    }

    #[test]
    fn union_certificates_check_against_the_trees() {
        let schema = schema();
        let left = prepare_union(
            &union_exprs(&[
                "select x.B from x in R where x.A = 1",
                "select x.B from x in R where x.A = 2",
            ]),
            &schema,
        )
        .unwrap();
        let right = prepare_union(&union_exprs(&["select x.B from x in R"]), &schema).unwrap();
        let ltrees: Vec<&QueryTree> = left.disjuncts.iter().map(|p| &p.tree).collect();
        let rtrees: Vec<&QueryTree> = right.disjuncts.iter().map(|p| &p.tree).collect();

        let pos = union_contained_prepared(&left, &right).unwrap();
        assert!(pos.holds);
        let cert = certify_union_prepared(&left, &right, &pos).unwrap();
        let expect = |j: usize, i: usize| cert_path(expected_union_path(&left, &right, j, i));
        cert.check_against(&ltrees, &rtrees, true, &expect).unwrap();
        // Round-trip through the wire form.
        let back = co_cert::UnionCert::parse(&cert.to_wire()).unwrap();
        back.check_against(&ltrees, &rtrees, true, &expect).unwrap();

        let neg = union_contained_prepared(&right, &left).unwrap();
        assert!(!neg.holds);
        let cert = certify_union_prepared(&right, &left, &neg).unwrap();
        let expect = |j: usize, i: usize| cert_path(expected_union_path(&right, &left, j, i));
        cert.check_against(&rtrees, &ltrees, false, &expect).unwrap();
        let back = co_cert::UnionCert::parse(&cert.to_wire()).unwrap();
        back.check_against(&rtrees, &ltrees, false, &expect).unwrap();
    }

    #[test]
    fn union_type_mismatches_are_an_error() {
        let mixed = union_exprs(&["select x.A from x in R", "select [a: x.A] from x in R"]);
        assert!(matches!(prepare_union(&mixed, &schema()), Err(CoreError::TypeMismatch(_))));
        assert!(matches!(
            union_contained_in(
                &union_exprs(&["select x.A from x in R"]),
                &union_exprs(&["select [a: x.A] from x in R"]),
                &schema()
            ),
            Err(CoreError::TypeMismatch(_))
        ));
        assert!(prepare_union(&[], &schema()).is_err());
    }

    #[test]
    fn singleton_vs_flatten_identity() {
        // flatten({R}) ≡ select x from x in R — a §3.1 identity.
        let q1 = parse_coql("flatten({R})").unwrap();
        let q2 = parse_coql("select x from x in R").unwrap();
        assert!(weakly_equivalent(&q1, &q2, &schema()).unwrap());
        assert_eq!(equivalent(&q1, &q2, &schema()).unwrap(), Equivalence::Equivalent);
    }
}
