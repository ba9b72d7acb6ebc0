//! The catalog: table and index metadata.

use crate::index::IndexKind;
use crate::types::Schema;

/// Table identifier (an OID).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub u32);

/// Index identifier (an OID).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IndexId(pub u32);

/// Table metadata.
#[derive(Debug, Clone)]
pub struct TableMeta {
    pub id: TableId,
    pub name: String,
    pub schema: Schema,
    /// Column positions of the primary key (empty = none).
    pub primary_key: Vec<usize>,
    /// Indexes defined on this table (including the PK index).
    pub indexes: Vec<IndexId>,
}

/// Index metadata.
#[derive(Debug, Clone)]
pub struct IndexMeta {
    pub id: IndexId,
    pub name: String,
    pub table: TableId,
    /// Indexed column positions, in key order.
    pub columns: Vec<usize>,
    pub kind: IndexKind,
    pub unique: bool,
}

/// Catalog errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    DuplicateTable(String),
    DuplicateIndex(String),
    NoSuchTable(String),
    NoSuchColumn { table: String, column: String },
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::DuplicateTable(n) => write!(f, "table {n} already exists"),
            CatalogError::DuplicateIndex(n) => write!(f, "index {n} already exists"),
            CatalogError::NoSuchTable(n) => write!(f, "no such table: {n}"),
            CatalogError::NoSuchColumn { table, column } => {
                write!(f, "no column {column} in table {table}")
            }
        }
    }
}

impl std::error::Error for CatalogError {}

/// The catalog.
#[derive(Debug)]
pub struct Catalog {
    tables: Vec<TableMeta>,
    indexes: Vec<IndexMeta>,
    /// Virtual (`pg_stat`-style) introspection tables: name + schema.
    /// Registered at construction; they own no storage and no OIDs.
    virtuals: Vec<(String, Schema)>,
}

impl Default for Catalog {
    fn default() -> Self {
        let virtuals = tscout_telemetry::TABLES
            .iter()
            .map(|t| (t.name.to_string(), crate::stat::schema(t)))
            .collect();
        Catalog {
            tables: Vec::new(),
            indexes: Vec::new(),
            virtuals,
        }
    }
}

impl Catalog {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn create_table(
        &mut self,
        name: &str,
        schema: Schema,
        primary_key: Vec<usize>,
    ) -> Result<TableId, CatalogError> {
        if self.table_by_name(name).is_some() || self.virtual_table(name).is_some() {
            return Err(CatalogError::DuplicateTable(name.into()));
        }
        let id = TableId(self.tables.len() as u32);
        self.tables.push(TableMeta {
            id,
            name: name.to_lowercase(),
            schema,
            primary_key,
            indexes: Vec::new(),
        });
        Ok(id)
    }

    pub fn create_index(
        &mut self,
        name: &str,
        table: TableId,
        columns: Vec<usize>,
        kind: IndexKind,
        unique: bool,
    ) -> Result<IndexId, CatalogError> {
        if self
            .indexes
            .iter()
            .any(|i| i.name.eq_ignore_ascii_case(name))
        {
            return Err(CatalogError::DuplicateIndex(name.into()));
        }
        let id = IndexId(self.indexes.len() as u32);
        self.indexes.push(IndexMeta {
            id,
            name: name.to_lowercase(),
            table,
            columns,
            kind,
            unique,
        });
        self.tables[table.0 as usize].indexes.push(id);
        Ok(id)
    }

    pub fn table(&self, id: TableId) -> &TableMeta {
        &self.tables[id.0 as usize]
    }

    pub fn table_by_name(&self, name: &str) -> Option<&TableMeta> {
        self.tables
            .iter()
            .find(|t| t.name.eq_ignore_ascii_case(name))
    }

    /// Resolve a virtual introspection table: canonical name + schema.
    pub fn virtual_table(&self, name: &str) -> Option<(&str, &Schema)> {
        self.virtuals
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(n, s)| (n.as_str(), s))
    }

    #[allow(clippy::should_implement_trait)]
    pub fn index(&self, id: IndexId) -> &IndexMeta {
        &self.indexes[id.0 as usize]
    }

    pub fn table_indexes(&self, table: TableId) -> Vec<&IndexMeta> {
        self.tables[table.0 as usize]
            .indexes
            .iter()
            .map(|i| self.index(*i))
            .collect()
    }

    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    pub fn num_indexes(&self) -> usize {
        self.indexes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::DataType;

    #[test]
    fn create_and_resolve() {
        let mut c = Catalog::new();
        let schema = Schema::new(&[("id", DataType::Int), ("v", DataType::Text)]);
        let t = c.create_table("Users", schema, vec![0]).unwrap();
        let i = c
            .create_index("users_pk", t, vec![0], IndexKind::Hash, true)
            .unwrap();
        assert_eq!(c.table_by_name("users").unwrap().id, t);
        assert_eq!(c.table_by_name("USERS").unwrap().id, t);
        assert_eq!(c.table(t).primary_key, vec![0]);
        assert_eq!(c.index(i).table, t);
        assert_eq!(c.table_indexes(t).len(), 1);
    }

    #[test]
    fn virtual_tables_are_registered_and_reserved() {
        let mut c = Catalog::new();
        let (name, schema) = c.virtual_table("TS_STAT_OU").unwrap();
        assert_eq!(name, "ts_stat_ou");
        assert!(schema.column_index("drift_score").is_some());
        // Base tables may not shadow a virtual name.
        let s = Schema::new(&[("id", DataType::Int)]);
        assert!(matches!(
            c.create_table("ts_alerts", s, vec![]),
            Err(CatalogError::DuplicateTable(_))
        ));
        // Virtuals own no OIDs: the base-table namespace starts empty.
        assert_eq!(c.num_tables(), 0);
        assert!(c.table_by_name("ts_stat_ou").is_none());
    }

    #[test]
    fn duplicates_rejected() {
        let mut c = Catalog::new();
        let schema = Schema::new(&[("id", DataType::Int)]);
        let t = c.create_table("t", schema.clone(), vec![]).unwrap();
        assert!(matches!(
            c.create_table("T", schema, vec![]),
            Err(CatalogError::DuplicateTable(_))
        ));
        c.create_index("i", t, vec![0], IndexKind::BTree, false)
            .unwrap();
        assert!(matches!(
            c.create_index("I", t, vec![0], IndexKind::BTree, false),
            Err(CatalogError::DuplicateIndex(_))
        ));
    }
}
