//! Deterministic fixed-seed conformance suite: every decision kernel that
//! has more than one implementation is run differentially over a few
//! hundred seeded instances, and the implementations must agree exactly.
//!
//! * homomorphism search: indexed MRV engine vs. the linear-scan oracle
//!   (same solution *sets*, not just existence), at 1, 2, and 8 kernel
//!   threads;
//! * simulation: the topological/worklist dispatcher, the raw HHK worklist
//!   engine, and the naive sweep oracle (same matrices);
//! * Hoare order: the memoized recursive decider vs. the
//!   simulation-via-graphs decider;
//! * §5 tree containment: the parallel emptiness-pattern loop vs. the
//!   single-threaded one, and interrupt budgets under both (an expired
//!   budget may only ever produce `Interrupted` — never a wrong verdict).
//!
//! Everything here runs in tier-1 `cargo test` — no features, no network,
//! a few seconds total. Seeds are constants so failures reproduce exactly.

use std::collections::BTreeMap;
use std::ops::ControlFlow;

use co_cq::generate::{CqGen, CqGenConfig};
use co_cq::hom::CandidateStrategy;
use co_cq::{HomProblem, SearchOutcome};
use co_object::generate::{GenConfig, ValueGen};
use co_object::{
    greatest_simulation, greatest_simulation_sweep, greatest_simulation_worklist, hoare_leq,
    hoare_leq_graph, ValueGraph,
};

/// One strategy's complete, canonically-ordered solution set.
fn all_solutions(
    atoms: &[co_cq::QueryAtom],
    db: &co_cq::Database,
    strategy: CandidateStrategy,
) -> (Vec<BTreeMap<String, String>>, SearchOutcome) {
    let mut solutions = Vec::new();
    let outcome = HomProblem::new(atoms, db).with_strategy(strategy).for_each(|assignment| {
        solutions.push(assignment.iter().map(|(v, a)| (v.to_string(), a.to_string())).collect());
        ControlFlow::Continue(())
    });
    solutions.sort();
    (solutions, outcome)
}

#[test]
fn hom_indexed_agrees_with_linear_oracle() {
    let config = CqGenConfig { atoms: 4, var_pool: 5, ..CqGenConfig::default() };
    for seed in 0..150u64 {
        let mut generator = CqGen::new(seed, config.clone());
        let query = generator.query();
        let db = generator.database(6, 4);
        let (indexed, o1) = all_solutions(&query.body, &db, CandidateStrategy::Indexed);
        let (linear, o2) = all_solutions(&query.body, &db, CandidateStrategy::LinearScan);
        assert_eq!(o1, o2, "seed {seed}: outcomes diverge");
        assert_eq!(indexed, linear, "seed {seed}: solution sets diverge for {query}");
    }
}

/// Order-normalized solution set through the parallel driver.
fn parallel_solutions(
    atoms: &[co_cq::QueryAtom],
    db: &co_cq::Database,
    strategy: CandidateStrategy,
    threads: usize,
) -> Vec<BTreeMap<String, String>> {
    let mut solutions: Vec<BTreeMap<String, String>> = HomProblem::new(atoms, db)
        .with_strategy(strategy)
        .with_threads(threads)
        .solutions()
        .expect("no budget installed, search cannot be interrupted")
        .iter()
        .map(|a| a.iter().map(|(v, x)| (v.to_string(), x.to_string())).collect())
        .collect();
    solutions.sort();
    solutions
}

#[test]
fn hom_parallel_agrees_across_threads_and_strategies() {
    // Every strategy at every thread count must produce the same verdicts
    // and the same (order-normalized) solution sets. Instances are sized
    // past the parallel trial so the fan-out path genuinely runs.
    let config = CqGenConfig { atoms: 4, var_pool: 5, ..CqGenConfig::default() };
    for seed in 0..40u64 {
        let mut generator = CqGen::new(seed.wrapping_mul(0x51_7CC1), config.clone());
        let query = generator.query();
        let db = generator.database(8, 5);
        let (reference, outcome) = all_solutions(&query.body, &db, CandidateStrategy::LinearScan);
        assert_eq!(outcome, SearchOutcome::Exhausted, "seed {seed}");
        for strategy in [CandidateStrategy::Indexed, CandidateStrategy::LinearScan] {
            for threads in [1usize, 2, 8] {
                let got = parallel_solutions(&query.body, &db, strategy, threads);
                assert_eq!(
                    got, reference,
                    "seed {seed}: {strategy:?} at {threads} threads diverges for {query}"
                );
            }
        }
    }
}

#[test]
fn hom_budget_expiry_is_interrupted_never_wrong() {
    // Under a shrinking interrupt budget, every strategy × thread count
    // either returns the true verdict or reports Interrupted — a wrong
    // verdict is the only unacceptable outcome.
    let config = CqGenConfig { atoms: 4, var_pool: 5, ..CqGenConfig::default() };
    for seed in 0..12u64 {
        let mut generator = CqGen::new(seed.wrapping_mul(0xB0D6E7), config.clone());
        let query = generator.query();
        let db = generator.database(7, 4);
        let truth =
            HomProblem::new(&query.body, &db).with_strategy(CandidateStrategy::LinearScan).exists();
        for strategy in [CandidateStrategy::Indexed, CandidateStrategy::LinearScan] {
            for threads in [1usize, 2, 8] {
                for steps in [1u64, 16, 256, 100_000] {
                    let guard = co_object::interrupt::install(co_object::interrupt::Budget {
                        steps: Some(steps),
                        ..Default::default()
                    });
                    let result = HomProblem::new(&query.body, &db)
                        .with_strategy(strategy)
                        .with_threads(threads)
                        .first();
                    drop(guard);
                    match result {
                        Ok(found) => assert_eq!(
                            found.is_some(),
                            truth,
                            "seed {seed}: {strategy:?}/{threads}t/{steps} steps: wrong verdict"
                        ),
                        Err(SearchOutcome::Interrupted) => {}
                        Err(other) => {
                            panic!("seed {seed}: unexpected outcome {other:?}")
                        }
                    }
                }
            }
        }
    }
}

/// A many-children COQL pair whose containment runs the 2^m emptiness
/// split: `filter` narrows every child, so filtered ⊑ plain holds and
/// plain ⊑ filtered fails.
fn emptiness_pair(children: usize) -> (co_sim::QueryTree, co_sim::QueryTree) {
    let mk = |filter: bool| {
        let subs: Vec<String> = (0..children)
            .map(|i| {
                let extra = if filter { format!(" and y{i}.C = 1") } else { String::new() };
                format!("g{i}: (select y{i}.C from y{i} in S where y{i}.C = x.A{extra})")
            })
            .collect();
        let text = format!("select [a: x.A, {}] from x in R", subs.join(", "));
        let expr = co_lang::parse_coql(&text).expect("constructed query parses");
        let schema = co_cq::Schema::with_relations(&[("R", &["A", "B"]), ("S", &["C"])]);
        co_core::prepare(&expr, &schema).expect("constructed query prepares").tree
    };
    (mk(true), mk(false))
}

#[test]
fn tree_parallel_patterns_agree_with_sequential() {
    use co_sim::tree::{try_tree_contained_in_with, ContainOptions};
    // 6 children → 64 patterns (past the 32-pattern parallel threshold).
    let (filtered, plain) = emptiness_pair(6);
    let decide = |t1: &co_sim::QueryTree, t2: &co_sim::QueryTree, threads: usize| {
        let opts = ContainOptions { no_empty_sets: false, extra_witnesses: 0, threads };
        try_tree_contained_in_with(t1, t2, opts).expect("no budget installed")
    };
    for threads in [1usize, 2, 8] {
        assert!(decide(&filtered, &plain, threads), "filtered ⊑ plain at {threads} threads");
        assert!(!decide(&plain, &filtered, threads), "plain ⋢ filtered at {threads} threads");
    }
}

#[test]
fn tree_budget_expiry_is_interrupted_never_wrong() {
    use co_sim::tree::{try_tree_contained_in_with, ContainOptions};
    let (filtered, plain) = emptiness_pair(6);
    for threads in [1usize, 2, 8] {
        for steps in [1u64, 64, 4096, 10_000_000] {
            let guard = co_object::interrupt::install(co_object::interrupt::Budget {
                steps: Some(steps),
                ..Default::default()
            });
            let opts = ContainOptions { no_empty_sets: false, extra_witnesses: 0, threads };
            let forward = try_tree_contained_in_with(&filtered, &plain, opts);
            drop(guard);
            if let Ok(v) = forward {
                assert!(v, "{threads}t/{steps} steps: wrong forward verdict");
            }
            let guard = co_object::interrupt::install(co_object::interrupt::Budget {
                steps: Some(steps),
                ..Default::default()
            });
            let backward = try_tree_contained_in_with(&plain, &filtered, opts);
            drop(guard);
            if let Ok(v) = backward {
                assert!(!v, "{threads}t/{steps} steps: wrong backward verdict");
            }
        }
    }
}

#[test]
fn hom_early_stop_agrees_across_strategies() {
    // `exists` (first-solution early stop) must agree even when the two
    // strategies visit the space in different orders.
    let config = CqGenConfig { atoms: 3, var_pool: 4, ..CqGenConfig::default() };
    for seed in 0..150u64 {
        let mut generator = CqGen::new(seed ^ 0x5EED, config.clone());
        let query = generator.query();
        let db = generator.database(5, 3);
        let indexed =
            HomProblem::new(&query.body, &db).with_strategy(CandidateStrategy::Indexed).exists();
        let linear =
            HomProblem::new(&query.body, &db).with_strategy(CandidateStrategy::LinearScan).exists();
        assert_eq!(indexed, linear, "seed {seed}: existence diverges for {query}");
    }
}

#[test]
fn simulation_engines_agree_on_full_matrices() {
    let config = GenConfig { max_depth: 3, max_set_len: 3, ..GenConfig::default() };
    for seed in 0..100u64 {
        let mut generator = ValueGen::new(seed, config.clone());
        let v1 = generator.value();
        let v2 = generator.value();
        let g1 = ValueGraph::from_value(&v1);
        let g2 = ValueGraph::from_value(&v2);
        let dispatched = greatest_simulation(&g1, &g2);
        let worklist = greatest_simulation_worklist(&g1, &g2);
        let sweep = greatest_simulation_sweep(&g1, &g2);
        assert_eq!(dispatched, worklist, "seed {seed}: dispatcher vs worklist on {v1} ⊑ {v2}");
        assert_eq!(dispatched, sweep, "seed {seed}: dispatcher vs sweep on {v1} ⊑ {v2}");
    }
}

#[test]
fn hoare_order_recursive_agrees_with_graph() {
    let config = GenConfig { max_depth: 3, max_set_len: 4, atom_pool: 3, ..GenConfig::default() };
    let mut checked = 0u32;
    let mut held = 0u32;
    for seed in 0..300u64 {
        let mut generator = ValueGen::new(seed.wrapping_mul(0x9E37_79B9), config.clone());
        let a = generator.value();
        let b = generator.value();
        let recursive = hoare_leq(&a, &b);
        let graph = hoare_leq_graph(&a, &b);
        assert_eq!(recursive, graph, "seed {seed}: hoare_leq diverges on {a} ⊑ {b}");
        // Reflexivity through both deciders, on the same instances.
        assert!(hoare_leq(&a, &a) && hoare_leq_graph(&a, &a), "seed {seed}: {a} ⋢ {a}");
        checked += 1;
        held += recursive as u32;
    }
    // The generator's small atom pool must make both verdicts reachable,
    // otherwise this differential test is vacuous.
    assert!(held > 0 && held < checked, "degenerate workload: {held}/{checked} held");
}
