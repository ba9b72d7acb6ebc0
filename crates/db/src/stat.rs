//! `pg_stat`-style virtual introspection tables over the live telemetry.
//!
//! The tables themselves — names, columns, row sources — are declared
//! once, in [`tscout_telemetry::tables`]; this module adapts that list
//! to the engine's types. Every table is registered in every catalog at
//! creation time and materializes on scan from the kernel's telemetry
//! registry: no storage, no MVCC, always current.

use tscout_telemetry::tables::table;
use tscout_telemetry::{Cell, ColType, Table, Telemetry};

use crate::types::{ColumnDef, DataType, Row, Schema, Value};

impl From<ColType> for DataType {
    fn from(t: ColType) -> DataType {
        match t {
            ColType::Int => DataType::Int,
            ColType::Float => DataType::Float,
            ColType::Text => DataType::Text,
            ColType::Bool => DataType::Bool,
        }
    }
}

impl From<Cell> for Value {
    fn from(c: Cell) -> Value {
        match c {
            Cell::Null => Value::Null,
            Cell::Int(i) => Value::Int(i),
            Cell::Float(f) => Value::Float(f),
            Cell::Text(s) => Value::Text(s.into()),
            Cell::Bool(b) => Value::Bool(b),
        }
    }
}

/// The way back, so a query result renders through the tables' one
/// JSON writer.
impl From<&Value> for Cell {
    fn from(v: &Value) -> Cell {
        match v {
            Value::Null => Cell::Null,
            Value::Int(i) => Cell::Int(*i),
            Value::Float(f) => Cell::Float(*f),
            Value::Text(s) => Cell::Text(s.to_string()),
            Value::Bool(b) => Cell::Bool(*b),
        }
    }
}

pub(crate) fn schema(table: &Table) -> Schema {
    Schema {
        columns: table
            .columns
            .iter()
            .map(|(name, t)| ColumnDef {
                name: name.to_string(),
                dtype: (*t).into(),
            })
            .collect(),
    }
}

/// Schema of a virtual table; `None` for unknown names.
pub fn virtual_schema(name: &str) -> Option<Schema> {
    table(name).map(schema)
}

/// Materialize the current rows of a virtual table from the live
/// telemetry registry. Unknown names yield no rows (the planner rejects
/// them long before execution).
pub fn virtual_rows(name: &str, telemetry: &Telemetry) -> Vec<Row> {
    let Some(table) = table(name) else {
        return Vec::new();
    };
    telemetry
        .with_registry(|r| (table.rows)(r))
        .into_iter()
        .map(|row| row.into_iter().map(Value::from).collect())
        .collect()
}
