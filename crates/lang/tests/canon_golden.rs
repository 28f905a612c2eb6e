//! Golden canonical texts. Fingerprints, cache snapshots, `HANDOFF` and
//! the router's ring all hash `canonical_query`'s output, so its bytes are
//! a wire format: any change here must come with a `FINGERPRINT_VERSION`
//! bump in `co-service`. The expected strings were recorded from the
//! serializer and must not be edited to make a rewrite pass.

use co_cq::{RelName, Schema, Var};
use co_lang::{
    canonical_query, normalize, parse_coql, parse_union_coql, type_check, AtomTerm, Comprehension,
    CoqlSchema, NormalValue,
};
use co_object::{Atom, Field};

fn schema() -> CoqlSchema {
    CoqlSchema::from_flat(&Schema::with_relations(&[("R", &["A", "B"]), ("S", &["C"])]))
}

/// `(query, canonical text)` pairs under [`schema`].
const PARSED: &[(&str, &str)] = &[
    // Flat.
    ("select x.B from x in R where x.A = 1", "set{g=[$0:R];c=[#1=$0.A];h=$0.B}"),
    (
        "select [l: x.A, r: y.C] from x in R, y in S where x.B = y.C",
        "set{g=[$0:R,$1:S];c=[$0.B=$1.C];h=[l:$0.A,r:$1.C]}",
    ),
    ("select x.B from x in R where x.A = x.B and x.B = x.A", "set{g=[$0:R];c=[$0.A=$0.B];h=$0.B}"),
    (
        "select x.B from x in R, y in S, z in R where z.A = y.C and x.A = z.B",
        "set{g=[$0:R,$1:R,$2:S];c=[$0.A=$2.C,$0.B=$1.A];h=$1.B}",
    ),
    // Nested and doubly nested.
    (
        "select [a: x.A, g: (select y.C from y in S where y.C = x.A)] from x in R",
        "set{g=[$0:R];c=[];h=[a:$0.A,g:set{g=[$1:S];c=[$0.A=$1.C];h=$1.C}]}",
    ),
    (
        "select [a: x.A, g: (select [c: y.C, h: (select z.B from z in R \
         where z.A = y.C and z.B = x.B)] from y in S where y.C = x.A)] from x in R",
        "set{g=[$0:R];c=[];h=[a:$0.A,g:set{g=[$1:S];c=[$0.A=$1.C];h=[c:$1.C,\
         h:set{g=[$2:R];c=[$0.B=$2.B,$1.C=$2.A];h=$2.B}]}]}",
    ),
    (
        "select [a: x.A, g: (select y.C from y in S where y.C = 3), \
         h: (select w.C from w in S where w.C = x.B)] from x in R",
        "set{g=[$0:R];c=[];h=[a:$0.A,g:set{g=[$1:S];c=[#3=$1.C];h=$1.C},\
         h:set{g=[$2:S];c=[$0.B=$2.C];h=$2.C}]}",
    ),
    // Shadowed binders.
    (
        "select [a: x.A, g: (select x.B from x in R where x.A = 2)] from x in R",
        "set{g=[$0:R];c=[];h=[a:$0.A,g:set{g=[$1:R];c=[#2=$1.A];h=$1.B}]}",
    ),
    (
        "select [a: x.A, g: (select [b: x.B, h: (select y.C from y in S where y.C = x.A)] \
         from x in R)] from x in R",
        "set{g=[$0:R];c=[];h=[a:$0.A,g:set{g=[$1:R];c=[];h=[b:$1.B,\
         h:set{g=[$2:S];c=[$1.A=$2.C];h=$2.C}]}]}",
    ),
    // `empty` shapes.
    ("select z from z in {}", "emptya"),
    ("flatten({})", "emptya"),
    ("select [a: x.A, g: (select y.C from y in S)] from x in R, z in {}", "empty[a:a,g:{a}]"),
    (
        "select [a: x.A, g: (select y.C from y in S, w in {})] from x in R",
        "set{g=[$0:R];c=[];h=[a:$0.A,g:emptya]}",
    ),
    // Self-join twins.
    ("select [l: x.A, r: y.A] from x in R, y in R", "set{g=[$0:R,$1:R];c=[];h=[l:$0.A,r:$1.A]}"),
    (
        "select x.B from x in R, y in R where x.A = y.B and y.A = x.B",
        "set{g=[$0:R,$1:R];c=[$0.A=$1.B,$0.B=$1.A];h=$0.B}",
    ),
    // Record fields written out of order.
    (
        "select [z: x.A, b: x.B, m: [y: x.A, c: x.B]] from x in R",
        "set{g=[$0:R];c=[];h=[b:$0.B,m:[c:$0.B,y:$0.A],z:$0.A]}",
    ),
    // Int and quoted constants.
    (
        "select x.B from x in R where x.A = -42 and x.B = 7",
        "set{g=[$0:R];c=[#-42=$0.A,#7=$0.B];h=$0.B}",
    ),
    (
        "select x.B from x in R where x.A = 'a b' and x.B = 'plain'",
        "set{g=[$0:R];c=[#'a b'=$0.A,#plain=$0.B];h=$0.B}",
    ),
    (
        "select x.B from x in R where x.A = '\u{27e8}a\u{27e9}'",
        "set{g=[$0:R];c=[#\u{27e8}a\u{27e9}=$0.A];h=$0.B}",
    ),
    (
        "select [k: 5, s: 'two words', v: x.B] from x in R",
        "set{g=[$0:R];c=[];h=[k:#5,s:#'two words',v:$0.B]}",
    ),
];

#[test]
fn parsed_queries_keep_their_canonical_text() {
    let s = schema();
    for (src, want) in PARSED {
        let e = parse_coql(src).unwrap_or_else(|err| panic!("parse `{src}`: {err}"));
        type_check(&e, &s).unwrap_or_else(|err| panic!("type `{src}`: {err}"));
        let nf = normalize(&e, &s).unwrap_or_else(|err| panic!("normalize `{src}`: {err}"));
        assert_eq!(canonical_query(&nf), *want, "canonical text of `{src}`");
    }
}

#[test]
fn union_disjuncts_keep_their_canonical_text() {
    let s = schema();
    let src = "select x.B from x in R where x.A = 1 or select y.B from y in R \
               or select z.C from z in S where z.C = 'q r'";
    let got: Vec<String> = parse_union_coql(src)
        .unwrap()
        .iter()
        .map(|e| canonical_query(&normalize(e, &s).unwrap()))
        .collect();
    assert_eq!(
        got,
        [
            "set{g=[$0:R];c=[#1=$0.A];h=$0.B}",
            "set{g=[$0:R];c=[];h=$0.B}",
            "set{g=[$0:S];c=[#'q r'=$0.C];h=$0.C}",
        ]
    );
}

fn col(v: &str, f: Option<&str>) -> AtomTerm {
    AtomTerm::Col { var: Var::new(v), field: f.map(Field::new) }
}

fn one_gen(rel: &str, conds: Vec<(AtomTerm, AtomTerm)>, head: AtomTerm) -> Comprehension {
    Comprehension {
        gens: vec![(Var::new("x"), RelName::new(rel))],
        conds,
        unsat: false,
        head: Box::new(NormalValue::Atom(head)),
    }
}

/// Normal forms the parser cannot produce: a constant holding a quote, a
/// relation of bare atoms, an unbound variable, and constants spelling a
/// fresh atom's text or nothing at all.
#[test]
fn hand_built_normal_forms_keep_their_canonical_text() {
    let cases = [
        (
            one_gen(
                "R",
                vec![(col("x", Some("A")), AtomTerm::Const(Atom::str("it's")))],
                col("x", Some("B")),
            ),
            "set{g=[$0:R];c=[#'it\\'s'=$0.A];h=$0.B}",
        ),
        (
            one_gen("U", vec![(col("x", None), AtomTerm::Const(Atom::int(3)))], col("x", None)),
            "set{g=[$0:U];c=[#3=$0];h=$0}",
        ),
        (one_gen("R", vec![], col("y", Some("A"))), "set{g=[$0:R];c=[];h=?y.A}"),
        (
            one_gen(
                "R",
                vec![(col("x", Some("A")), AtomTerm::Const(Atom::str("\u{27e8}#3\u{27e9}")))],
                AtomTerm::Const(Atom::str("")),
            ),
            "set{g=[$0:R];c=[#\u{27e8}#3\u{27e9}=$0.A];h=#''}",
        ),
    ];
    for (c, want) in &cases {
        assert_eq!(canonical_query(c), *want);
    }
}
