//! Index encoding of complex objects into flat relations (§5.1).
//!
//! "Indexes have been used to encode complex objects as flat relations in
//! \[21, 18, 39, 25\]. The idea is to replace every inner set (relation) with
//! a fresh atomic value, called *index*, and to store separately, in
//! another relation, the correspondence between the indexes and the
//! relations they replace."
//!
//! For a relation `R` of element type `τ`, the encoding produces:
//!
//! * a main flat relation `R` whose columns are `τ`'s atomic leaves, with
//!   every set-typed position replaced by one **index column**;
//! * for each set node of `τ` (addressed by its field path `p`), an
//!   auxiliary relation `R@p(idx, …columns of the element type…)`.
//!
//! Equal inner sets receive the same index (hash-consing), so the encoding
//! is canonical; [`decode_database`] inverts it exactly (round-trip
//! property-tested).

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use co_cq::{Database, RelName, RelSchema, Schema};
use co_lang::{CoDatabase, CoqlSchema};
use co_object::{Atom, Type, Value};

/// An encoding error (ill-typed value, unsupported type shape).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EncodeError {
    /// Description.
    pub message: String,
}

impl EncodeError {
    fn new(message: impl Into<String>) -> EncodeError {
        EncodeError { message: message.into() }
    }
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "encoding error: {}", self.message)
    }
}

impl std::error::Error for EncodeError {}

/// A flat column of an encoded element type.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Column {
    /// An atomic leaf at the given field path.
    Atom(String),
    /// An index column standing for the set at the given field path.
    Index(String),
}

impl Column {
    fn name(&self) -> &str {
        match self {
            Column::Atom(n) | Column::Index(n) => n,
        }
    }
}

/// The result of encoding a nested database.
#[derive(Clone, Debug)]
pub struct Encoded {
    /// The flat database (main + auxiliary index relations).
    pub db: Database,
    /// Flat schema describing every produced relation.
    pub schema: Schema,
}

/// Computes the flat columns of an element type. Set-typed positions get
/// one index column; the set's own encoding recurses via `aux`.
fn columns_of(
    ty: &Type,
    path: &str,
    aux: &mut Vec<(String, Type)>,
) -> Result<Vec<Column>, EncodeError> {
    match ty {
        Type::Atom | Type::Bottom => Ok(vec![Column::Atom(leaf_name(path))]),
        Type::Set(elem) => {
            aux.push((path.to_string(), (**elem).clone()));
            Ok(vec![Column::Index(format!("{}!idx", leaf_name(path)))])
        }
        Type::Record(fields) => {
            let mut out = Vec::new();
            for (f, t) in fields {
                let sub = if path.is_empty() { f.name() } else { format!("{path}.{f}") };
                out.extend(columns_of(t, &sub, aux)?);
            }
            if out.is_empty() {
                return Err(EncodeError::new(format!(
                    "cannot encode empty record type at `{path}`"
                )));
            }
            Ok(out)
        }
    }
}

fn leaf_name(path: &str) -> String {
    if path.is_empty() {
        "val".to_string()
    } else {
        path.to_string()
    }
}

/// Encodes a nested database into flat relations with indexes.
pub fn encode_database(codb: &CoDatabase, schema: &CoqlSchema) -> Result<Encoded, EncodeError> {
    let mut enc = Encoder { db: Database::new(), schema: Schema::new(), memo: HashMap::new() };
    for (name, ty) in schema.iter() {
        let elem_ty = ty
            .elem()
            .ok_or_else(|| EncodeError::new(format!("relation `{name}` is not set-typed")))?;
        let value = codb.relation(*name);
        enc.encode_set_relation(&name.name(), elem_ty, &value)?;
    }
    Ok(Encoded { db: enc.db, schema: enc.schema })
}

struct Encoder {
    db: Database,
    schema: Schema,
    /// `(relation path, set value) → index atom`: equal sets share indexes.
    memo: HashMap<(String, Value), Atom>,
}

impl Encoder {
    /// Encodes one set (a relation or an inner set) into the relation named
    /// `rel_path`, returning nothing for the top level (rows are keyed by
    /// nothing) — inner sets go through [`Encoder::index_of`].
    fn encode_set_relation(
        &mut self,
        rel_path: &str,
        elem_ty: &Type,
        value: &Value,
    ) -> Result<(), EncodeError> {
        let mut aux = Vec::new();
        let cols = columns_of(elem_ty, "", &mut aux)?;
        self.declare(rel_path, &cols, false);
        let set = value
            .as_set()
            .ok_or_else(|| EncodeError::new(format!("`{rel_path}` holds a non-set value")))?;
        for elem in set.iter() {
            let row = self.encode_elem(rel_path, elem_ty, elem)?;
            self.db.insert(RelName::new(rel_path), row);
        }
        Ok(())
    }

    fn declare(&mut self, rel_path: &str, cols: &[Column], with_idx: bool) {
        let mut attrs: Vec<String> = Vec::new();
        if with_idx {
            attrs.push("!set".to_string());
        }
        attrs.extend(cols.iter().map(|c| c.name().to_string()));
        let attr_refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
        self.schema.add(RelSchema::new(rel_path, &attr_refs));
    }

    /// Encodes one element into a flat row, creating indexes and auxiliary
    /// rows for inner sets.
    fn encode_elem(
        &mut self,
        rel_path: &str,
        ty: &Type,
        v: &Value,
    ) -> Result<Vec<Atom>, EncodeError> {
        match (ty, v) {
            (Type::Atom | Type::Bottom, Value::Atom(a)) => Ok(vec![*a]),
            (Type::Set(elem), Value::Set(_)) => {
                let idx = self.index_of(&format!("{rel_path}@"), elem, v)?;
                Ok(vec![idx])
            }
            (Type::Record(fields), Value::Record(r)) => {
                let mut row = Vec::new();
                for (f, t) in fields {
                    let sub = r
                        .get(*f)
                        .ok_or_else(|| EncodeError::new(format!("missing field `{f}` in {v}")))?;
                    let sub_path = format!("{rel_path}@{f}");
                    row.extend(self.encode_field(&sub_path, t, sub)?);
                }
                Ok(row)
            }
            (t, v) => Err(EncodeError::new(format!("value {v} does not match type {t}"))),
        }
    }

    fn encode_field(&mut self, path: &str, ty: &Type, v: &Value) -> Result<Vec<Atom>, EncodeError> {
        match (ty, v) {
            (Type::Atom | Type::Bottom, Value::Atom(a)) => Ok(vec![*a]),
            (Type::Set(elem), Value::Set(_)) => Ok(vec![self.index_of(path, elem, v)?]),
            (Type::Record(fields), Value::Record(r)) => {
                let mut row = Vec::new();
                for (f, t) in fields {
                    let sub = r
                        .get(*f)
                        .ok_or_else(|| EncodeError::new(format!("missing field `{f}` in {v}")))?;
                    row.extend(self.encode_field(&format!("{path}.{f}"), t, sub)?);
                }
                Ok(row)
            }
            (t, v) => Err(EncodeError::new(format!("value {v} does not match type {t}"))),
        }
    }

    /// The index atom for an inner set, creating the auxiliary relation's
    /// rows on first encounter of this (path, set) pair.
    fn index_of(&mut self, path: &str, elem_ty: &Type, set: &Value) -> Result<Atom, EncodeError> {
        if let Some(&idx) = self.memo.get(&(path.to_string(), set.clone())) {
            return Ok(idx);
        }
        let idx = Atom::fresh();
        self.memo.insert((path.to_string(), set.clone()), idx);
        let mut aux = Vec::new();
        let cols = columns_of(elem_ty, "", &mut aux)?;
        self.declare(path, &cols, true);
        let elems = set.as_set().expect("index_of called on sets").iter();
        for elem in elems {
            let mut row = vec![idx];
            row.extend(self.encode_elem(path, elem_ty, elem)?);
            self.db.insert(RelName::new(path), row);
        }
        Ok(idx)
    }
}

/// Decodes an encoded database back into complex objects.
pub fn decode_database(enc: &Encoded, schema: &CoqlSchema) -> Result<CoDatabase, EncodeError> {
    let mut out = CoDatabase::new();
    let mut dec = Decoder { enc, memo: BTreeMap::new() };
    for (name, ty) in schema.iter() {
        let elem_ty = ty
            .elem()
            .ok_or_else(|| EncodeError::new(format!("relation `{name}` is not set-typed")))?;
        let rel = enc.db.relation(*name);
        let mut elems = Vec::new();
        for row in rel.iter_sorted() {
            let (v, used) = dec.decode_elem(&name.name(), elem_ty, row)?;
            debug_assert_eq!(used, row.len(), "row of `{name}` fully consumed");
            elems.push(v);
        }
        out.insert(&name.name(), Value::set(elems));
    }
    Ok(out)
}

struct Decoder<'a> {
    enc: &'a Encoded,
    memo: BTreeMap<(String, Atom), Value>,
}

impl Decoder<'_> {
    fn decode_elem(
        &mut self,
        rel_path: &str,
        ty: &Type,
        row: &[Atom],
    ) -> Result<(Value, usize), EncodeError> {
        match ty {
            Type::Atom | Type::Bottom => Ok((Value::Atom(row[0]), 1)),
            Type::Set(elem) => {
                let v = self.decode_set(&format!("{rel_path}@"), elem, row[0])?;
                Ok((v, 1))
            }
            Type::Record(fields) => {
                let mut used = 0;
                let mut out = Vec::new();
                for (f, t) in fields {
                    let path = format!("{rel_path}@{f}");
                    let (v, n) = self.decode_field(&path, t, &row[used..])?;
                    out.push((*f, v));
                    used += n;
                }
                Ok((Value::record(out).map_err(|e| EncodeError::new(e.to_string()))?, used))
            }
        }
    }

    fn decode_field(
        &mut self,
        path: &str,
        ty: &Type,
        row: &[Atom],
    ) -> Result<(Value, usize), EncodeError> {
        match ty {
            Type::Atom | Type::Bottom => Ok((Value::Atom(row[0]), 1)),
            Type::Set(elem) => Ok((self.decode_set(path, elem, row[0])?, 1)),
            Type::Record(fields) => {
                let mut used = 0;
                let mut out = Vec::new();
                for (f, t) in fields {
                    let (v, n) = self.decode_field(&format!("{path}.{f}"), t, &row[used..])?;
                    out.push((*f, v));
                    used += n;
                }
                Ok((Value::record(out).map_err(|e| EncodeError::new(e.to_string()))?, used))
            }
        }
    }

    fn decode_set(&mut self, path: &str, elem_ty: &Type, idx: Atom) -> Result<Value, EncodeError> {
        if let Some(v) = self.memo.get(&(path.to_string(), idx)) {
            return Ok(v.clone());
        }
        let rel = self.enc.db.relation(RelName::new(path));
        let mut elems = Vec::new();
        for row in rel.iter_sorted() {
            if row[0] != idx {
                continue;
            }
            let (v, used) = self.decode_elem(path, elem_ty, &row[1..])?;
            debug_assert_eq!(used, row.len() - 1);
            elems.push(v);
        }
        let v = Value::set(elems);
        self.memo.insert((path.to_string(), idx), v.clone());
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use co_object::{parse_value, Field};

    fn nested_schema() -> CoqlSchema {
        // People with a name and a set of phone numbers.
        CoqlSchema::new().with(
            "P",
            Type::set(Type::record(vec![
                (Field::new("name"), Type::Atom),
                (Field::new("phones"), Type::set(Type::Atom)),
            ])),
        )
    }

    #[test]
    fn encode_creates_index_relations() {
        let schema = nested_schema();
        let db = CoDatabase::new().with(
            "P",
            parse_value("{[name: ann, phones: {1, 2}], [name: bo, phones: {}]}").unwrap(),
        );
        let enc = encode_database(&db, &schema).unwrap();
        // Main relation: two rows (name, phone-index).
        assert_eq!(enc.db.relation(RelName::new("P")).len(), 2);
        // Aux relation holds the two phone atoms of ann's set only.
        assert_eq!(enc.db.relation(RelName::new("P@phones")).len(), 2);
        assert!(enc.schema.relation(RelName::new("P@phones")).is_some());
    }

    #[test]
    fn roundtrip_nested() {
        let schema = nested_schema();
        let original = CoDatabase::new().with(
            "P",
            parse_value(
                "{[name: ann, phones: {1, 2}], [name: bo, phones: {}], [name: cy, phones: {1, 2}]}",
            )
            .unwrap(),
        );
        let enc = encode_database(&original, &schema).unwrap();
        let back = decode_database(&enc, &schema).unwrap();
        assert_eq!(back, original);
    }

    #[test]
    fn equal_sets_share_an_index() {
        let schema = nested_schema();
        let db = CoDatabase::new()
            .with("P", parse_value("{[name: ann, phones: {7}], [name: bo, phones: {7}]}").unwrap());
        let enc = encode_database(&db, &schema).unwrap();
        let main = enc.db.relation(RelName::new("P"));
        let idxs: std::collections::HashSet<Atom> =
            main.iter().map(|row| *row.last().unwrap()).collect();
        assert_eq!(idxs.len(), 1, "equal phone sets must share one index");
        assert_eq!(enc.db.relation(RelName::new("P@phones")).len(), 1);
    }

    #[test]
    fn doubly_nested_roundtrip() {
        let schema = CoqlSchema::new().with("G", Type::set(Type::set(Type::set(Type::Atom))));
        let db = CoDatabase::new().with("G", parse_value("{{{1}, {2, 3}}, {}, {{}}}").unwrap());
        let enc = encode_database(&db, &schema).unwrap();
        let back = decode_database(&enc, &schema).unwrap();
        assert_eq!(back, db);
    }

    #[test]
    fn flat_relations_encode_to_themselves() {
        let schema =
            CoqlSchema::new().with("R", Type::flat_relation(&[Field::new("A"), Field::new("B")]));
        let db = CoDatabase::new().with("R", parse_value("{[A: 1, B: 2]}").unwrap());
        let enc = encode_database(&db, &schema).unwrap();
        assert_eq!(enc.db.relation(RelName::new("R")).len(), 1);
        assert_eq!(enc.schema.relation(RelName::new("R")).unwrap().arity(), 2);
        let back = decode_database(&enc, &schema).unwrap();
        assert_eq!(back.relation(RelName::new("R")), db.relation(RelName::new("R")));
    }

    #[test]
    fn type_mismatch_is_an_error() {
        let schema = nested_schema();
        let db = CoDatabase::new().with("P", parse_value("{[name: ann, phones: 3]}").unwrap());
        assert!(encode_database(&db, &schema).is_err());
    }
}
