//! Nested aggregation (§7's extension): "containment is decidable for
//! queries with **arbitrary nesting of aggregation** with uninterpreted
//! aggregate functions as long as we do not perform joins or selections on
//! aggregated columns."
//!
//! A [`HierarchicalAgg`] is a drill-down report: each level groups the
//! rows of its (cumulative) body by its group-by terms and outputs, per
//! group, the group key, leaf aggregates `f(column)`, and nested
//! sub-reports that further refine the group. Aggregated values are never
//! joined or selected on — they exist only in output position — which is
//! exactly the hypothesis of the paper's claim.
//!
//! # Decision procedure
//!
//! For uninterpreted `f`, `f(S) = f(S')` under every interpretation iff
//! `S = S'`, so a report tuple is reproduced iff the group keys match
//! *and every aggregate's argument set matches exactly*, recursively.
//! [`HierarchicalAgg::to_tree`] renders the report as a
//! [`co_sim::QueryTree`] where each aggregate becomes a *child set node*
//! of its argument column (the uninterpreted value is faithfully
//! represented by the pair "function symbol × argument set": the symbol is
//! compared structurally via the template, the set via tree equality):
//!
//! * containment of reports  = strong tree containment (every output
//!   record of `Q` is an output record of `Q'`, with equal nested sets);
//! * equivalence = both directions.
//!
//! Groups at every level are witnessed by the row that created them, so
//! the trees are empty-set free and the no-empty-sets strong procedure
//! applies — the NP regime, matching §7's NP-completeness.

use std::fmt;

use co_cq::{ConjunctiveQuery, QueryAtom, Term, Var};
use co_object::Field;
use co_sim::tree::{tree_strong_contained_in_no_empty_sets, ChildLink, Template, TreeNode};
use co_sim::{IndexedQuery, QueryTree};

use crate::AggFn;

/// One output of a level: a leaf aggregate or a nested sub-report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HierOutput {
    /// `f(arg)` over the level's groups.
    Agg {
        /// The aggregate function symbol.
        func: AggFn,
        /// The aggregated body variable.
        arg: Var,
    },
    /// A nested report refining this level's groups.
    Nested(Box<HierarchicalAgg>),
}

/// A drill-down aggregation report.
///
/// Levels share a variable scope: a nested level's `group_by` and `body`
/// may reference the enclosing levels' body variables (its rows are the
/// join of all bodies along the path).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HierarchicalAgg {
    /// Group-by terms of this level.
    pub group_by: Vec<Term>,
    /// Additional body atoms of this level (joined with the ancestors').
    pub body: Vec<QueryAtom>,
    /// Outputs, in order.
    pub outputs: Vec<HierOutput>,
}

impl HierarchicalAgg {
    /// Builds a single level from datalog syntax, leaf aggregates, and
    /// nested levels.
    pub fn parse(
        body: &str,
        aggs: &[(&str, &str)],
        nested: Vec<HierarchicalAgg>,
    ) -> Result<HierarchicalAgg, co_cq::parse::ParseError> {
        let cq = co_cq::parse_query(body)?;
        let mut outputs: Vec<HierOutput> = aggs
            .iter()
            .map(|(f, v)| HierOutput::Agg {
                func: match *f {
                    "count" => AggFn::Count,
                    "sum" => AggFn::Sum,
                    "min" => AggFn::Min,
                    "max" => AggFn::Max,
                    other => AggFn::Uninterpreted(other.to_string()),
                },
                arg: Var::new(v),
            })
            .collect();
        outputs.extend(nested.into_iter().map(|n| HierOutput::Nested(Box::new(n))));
        Ok(HierarchicalAgg { group_by: cq.head, body: cq.body, outputs })
    }

    /// Renders the report as a query tree (see the module docs). The tree
    /// can be evaluated (`QueryTree::evaluate`) to inspect the *group
    /// structure* — the semantics modulo aggregate interpretation.
    pub fn to_tree(&self) -> QueryTree {
        QueryTree { root: self.node(&[], &[]) }
    }

    fn node(&self, anc_body: &[QueryAtom], anc_keys: &[Term]) -> TreeNode {
        let mut body: Vec<QueryAtom> = anc_body.to_vec();
        body.extend(self.body.iter().cloned());

        // Index formals: the ancestor group keys (variables only — the
        // drill-down shape; constants in keys are value columns anyway).
        let index: Vec<Term> = anc_keys.to_vec();

        // Value columns: this level's keys, plus one tag column per leaf
        // aggregate carrying the function symbol as a constant.
        let mut value: Vec<Term> = self.group_by.clone();
        let mut fields: Vec<(Field, Template)> = Vec::new();
        for (i, _) in self.group_by.iter().enumerate() {
            fields.push((Field::new(&format!("k{i}")), Template::AtomCol(i)));
        }

        let mut children: Vec<ChildLink> = Vec::new();
        let full_keys: Vec<Term> = anc_keys.iter().chain(self.group_by.iter()).copied().collect();

        for (oi, output) in self.outputs.iter().enumerate() {
            match output {
                HierOutput::Agg { func, arg } => {
                    // Tag column: the function symbol as a constant.
                    let tag = co_object::Atom::str(&format!("agg:{func}"));
                    value.push(Term::Const(tag));
                    let tag_col = value.len() - 1;
                    // Argument-set child: the group's arg column, keyed by
                    // the full key path. Fresh-rename the joint body so the
                    // child is self-contained.
                    let joint = ConjunctiveQuery {
                        head: {
                            let mut h = full_keys.clone();
                            h.push(Term::Var(*arg));
                            h
                        },
                        body: body.clone(),
                        unsatisfiable: false,
                    };
                    let (renamed, _) = joint.rename_apart();
                    let child = TreeNode {
                        query: IndexedQuery {
                            index: renamed.head[..full_keys.len()].to_vec(),
                            value: renamed.head[full_keys.len()..].to_vec(),
                            body: renamed.body,
                            unsatisfiable: false,
                        },
                        template: Template::AtomCol(0),
                        children: Vec::new(),
                    };
                    children.push(ChildLink { link: full_keys.clone(), node: child });
                    fields.push((
                        Field::new(&format!("o{oi}")),
                        Template::record(vec![
                            (Field::new("fn"), Template::AtomCol(tag_col)),
                            (Field::new("args"), Template::Child(children.len() - 1)),
                        ]),
                    ));
                }
                HierOutput::Nested(inner) => {
                    let child = inner.node(&body, &full_keys);
                    children.push(ChildLink { link: full_keys.clone(), node: child });
                    fields
                        .push((Field::new(&format!("o{oi}")), Template::Child(children.len() - 1)));
                }
            }
        }

        TreeNode {
            query: IndexedQuery { index, value, body, unsatisfiable: false },
            template: Template::record(fields),
            children,
        }
    }
}

impl fmt::Display for HierarchicalAgg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "group(")?;
        for (i, t) in self.group_by.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")[")?;
        for (i, o) in self.outputs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match o {
                HierOutput::Agg { func, arg } => write!(f, "{func}({arg})")?,
                HierOutput::Nested(n) => write!(f, "{n}")?,
            }
        }
        write!(f, "] :- ")?;
        for (i, a) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

/// Decides uninterpreted containment of hierarchical reports: every output
/// record of `q1` (keys, aggregate values, sub-reports) appears identically
/// in `q2`'s output, for every database and every interpretation of the
/// aggregate function symbols.
pub fn hierarchical_contained_in(q1: &HierarchicalAgg, q2: &HierarchicalAgg) -> bool {
    tree_strong_contained_in_no_empty_sets(&q1.to_tree(), &q2.to_tree())
}

/// Decides uninterpreted equivalence of hierarchical reports.
pub fn hierarchical_equivalent(q1: &HierarchicalAgg, q2: &HierarchicalAgg) -> bool {
    hierarchical_contained_in(q1, q2) && hierarchical_contained_in(q2, q1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use co_cq::Database;

    /// Per-department: count employees; per (department, role): count too.
    fn drilldown(body_extra: &str) -> HierarchicalAgg {
        let inner =
            HierarchicalAgg::parse("q(D, L) :- Emp(D, L, N).", &[("count", "N")], vec![]).unwrap();
        HierarchicalAgg::parse(
            &format!("q(D) :- Emp(D, L, N){body_extra}."),
            &[("count", "N")],
            vec![inner],
        )
        .unwrap()
    }

    #[test]
    fn tree_rendering_evaluates() {
        let q = drilldown("");
        let t = q.to_tree();
        t.validate().unwrap();
        let db = Database::from_ints(&[(
            "Emp",
            &[&[1, 10, 100], &[1, 10, 101], &[1, 11, 102], &[2, 10, 103]],
        )]);
        let v = t.evaluate(&db);
        // Two departments → two records; dept 1 has two role sub-groups.
        assert_eq!(v.as_set().unwrap().len(), 2);
        let text = v.to_string();
        assert!(text.contains("agg:count"), "{text}");
    }

    #[test]
    fn reflexive_and_renaming_invariant() {
        let q1 = drilldown("");
        assert!(hierarchical_equivalent(&q1, &q1));
        // Same report with a redundant self-join atom.
        let q2 = drilldown(", Emp(D, L2, N2)");
        assert!(hierarchical_equivalent(&q1, &q2), "redundant join is invisible");
    }

    #[test]
    fn different_functions_are_not_equivalent() {
        let count =
            HierarchicalAgg::parse("q(D) :- Emp(D, L, N).", &[("count", "N")], vec![]).unwrap();
        let sum = HierarchicalAgg::parse("q(D) :- Emp(D, L, N).", &[("sum", "N")], vec![]).unwrap();
        assert!(!hierarchical_equivalent(&count, &sum));
    }

    #[test]
    fn different_inner_groupings_are_not_equivalent() {
        let by_role = drilldown("");
        let inner_by_name =
            HierarchicalAgg::parse("q(D, N) :- Emp(D, L, N).", &[("count", "L")], vec![]).unwrap();
        let by_name =
            HierarchicalAgg::parse("q(D) :- Emp(D, L, N).", &[("count", "N")], vec![inner_by_name])
                .unwrap();
        assert!(!hierarchical_equivalent(&by_role, &by_name));
    }

    #[test]
    fn single_level_agrees_with_flat_decider() {
        // A single-level report with visible keys must agree with the
        // classical §7 reduction.
        let mk_h = |body: &str| HierarchicalAgg::parse(body, &[("count", "Y")], vec![]).unwrap();
        let mk_f = |body: &str| crate::AggQuery::parse(body, &[("count", "Y")]).unwrap();
        let cases = [
            ("q(X) :- R(X, Y).", "q(A) :- R(A, B), R(A, Y)."),
            ("q(X) :- R(X, Y).", "q(X) :- R(X, Y), S(Y)."),
            ("q(X) :- R(X, Y), S(Y).", "q(X) :- R(X, Y)."),
        ];
        for (b1, b2) in cases {
            // Hierarchical matching is per-group-equal but does NOT force
            // the key alignment that visible-key flat equivalence does;
            // hidden-key equivalence is the matching flat notion.
            let h = hierarchical_equivalent(&mk_h(b1), &mk_h(b2));
            let flat_hidden = crate::hidden_key_equivalent(&mk_f(b1), &mk_f(b2));
            // Keys ARE visible in the hierarchical output records, so
            // hierarchical equivalence sits between the two flat notions:
            let flat_visible = crate::agg_equivalent(&mk_f(b1), &mk_f(b2));
            assert!(
                (flat_visible == h) || (flat_hidden == h),
                "{b1} vs {b2}: hier={h} visible={flat_visible} hidden={flat_hidden}"
            );
            if flat_visible {
                assert!(h, "visible-key equivalence must imply hierarchical");
            }
        }
    }
}
