//! Values, types, schemas, and rows.
//!
//! NoiseTap's value model is the small SQL core the benchmark workloads
//! need: 64-bit integers, doubles, UTF-8 strings, booleans, and NULL.
//! [`Value`] implements a *total* order (NULLs first, floats via
//! `total_cmp`, an int against a float exactly) so it can key the
//! B+-tree index, `ORDER BY` and `GROUP BY` directly.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// SQL data types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataType {
    Int,
    Float,
    Text,
    Bool,
}

impl DataType {
    pub fn name(self) -> &'static str {
        match self {
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Text => "TEXT",
            DataType::Bool => "BOOL",
        }
    }
}

/// A runtime value.
///
/// TEXT is shared, not owned: cloning a value — into a result row, an
/// index key, a parameter — bumps a reference count.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Int(i64),
    Float(f64),
    Text(Arc<str>),
    Bool(bool),
}

impl Value {
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
            Value::Bool(_) => Some(DataType::Bool),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s.as_ref()),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Approximate in-memory size in bytes (drives cost-model working
    /// sets and network payload sizes).
    pub fn byte_size(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Int(_) => 8,
            Value::Float(_) => 8,
            Value::Bool(_) => 1,
            Value::Text(s) => s.len(),
        }
    }

    fn rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 2, // numerics compare cross-type
            Value::Text(_) => 3,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => int_float_cmp(*a, *b),
            (Float(a), Int(b)) => int_float_cmp(*b, *a).reverse(),
            (Text(a), Text(b)) => a.cmp(b),
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

/// `i` against `f`: in rounded `f64` (so `±0.0` and NaN sit where
/// `total_cmp` puts them), and exactly when that ties. A tie means `f`
/// has the bits of `i as f64` — an integer within ±2⁶³, exact in `i128` —
/// so `Int(2⁵³ + 1)` is above `Float(2⁵³)` as it is above `Int(2⁵³)`.
/// Hashing stays consistent: an equal pair has identical `f64` bits.
fn int_float_cmp(i: i64, f: f64) -> Ordering {
    (i as f64)
        .total_cmp(&f)
        .then_with(|| i128::from(i).cmp(&(f as i128)))
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Ints and whole floats must hash identically (they compare
            // equal), so hash numerics through the float bit pattern.
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                f.to_bits().hash(state);
            }
            Value::Text(s) => {
                3u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Text(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// A tuple.
pub type Row = Vec<Value>;

/// Approximate row width in bytes.
pub fn row_bytes(row: &[Value]) -> usize {
    row.iter().map(Value::byte_size).sum()
}

/// A column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    pub name: String,
    pub dtype: DataType,
}

/// A table schema.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    pub columns: Vec<ColumnDef>,
}

impl Schema {
    pub fn new(cols: &[(&str, DataType)]) -> Schema {
        Schema {
            columns: cols
                .iter()
                .map(|(n, t)| ColumnDef {
                    name: n.to_string(),
                    dtype: *t,
                })
                .collect(),
        }
    }

    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    pub fn len(&self) -> usize {
        self.columns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn h(v: &Value) -> u64 {
        let mut s = DefaultHasher::new();
        v.hash(&mut s);
        s.finish()
    }

    #[test]
    fn ordering_is_total_and_sane() {
        let mut vs = [
            Value::Text("b".into()),
            Value::Int(5),
            Value::Null,
            Value::Float(2.5),
            Value::Bool(true),
            Value::Int(-3),
        ];
        vs.sort();
        assert_eq!(vs[0], Value::Null);
        assert_eq!(vs[1], Value::Bool(true));
        assert_eq!(vs[2], Value::Int(-3));
        assert_eq!(vs[3], Value::Float(2.5));
        assert_eq!(vs[4], Value::Int(5));
        assert_eq!(vs[5], Value::Text("b".into()));
    }

    #[test]
    fn numeric_cross_type_equality_and_hash_agree() {
        let i = Value::Int(4);
        let f = Value::Float(4.0);
        assert_eq!(i, f);
        assert_eq!(h(&i), h(&f));
        assert_ne!(Value::Int(4), Value::Float(4.5));
    }

    #[test]
    fn float_total_order_handles_nan() {
        let mut vs = [
            Value::Float(f64::NAN),
            Value::Float(1.0),
            Value::Float(-1.0),
        ];
        vs.sort(); // must not panic
        assert_eq!(vs[0], Value::Float(-1.0));
    }

    #[test]
    fn schema_lookup_is_case_insensitive() {
        let s = Schema::new(&[("id", DataType::Int), ("Name", DataType::Text)]);
        assert_eq!(s.column_index("ID"), Some(0));
        assert_eq!(s.column_index("name"), Some(1));
        assert_eq!(s.column_index("nope"), None);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn row_bytes_counts_payload() {
        let r: Row = vec![Value::Int(1), Value::Text("hello".into()), Value::Null];
        assert_eq!(row_bytes(&r), 8 + 5 + 1);
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Int(7).as_float(), Some(7.0));
        assert_eq!(Value::Text("x".into()).as_text(), Some("x"));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert!(Value::Null.is_null());
        assert_eq!(Value::Null.data_type(), None);
        assert_eq!(Value::Float(1.0).data_type(), Some(DataType::Float));
    }
}
