//! The planner: name resolution and access-path selection.
//!
//! Produces the physical [`Plan`] the executor runs. Access paths follow
//! standard OLTP heuristics: full-key equality → index point lookup
//! (unique indexes first), leading-column equalities on a composite
//! B-tree → prefix scan, range predicates on a single-column B-tree →
//! range scan, otherwise sequential scan; unused predicates become
//! residual filters.

use crate::catalog::{Catalog, TableId, TableMeta};
use crate::exec::plan::{Access, PExpr, Plan, PlanNode, ScanNode};
use crate::index::IndexKind;
use crate::sql::ast::{BinOp, Expr, Projection, SelectStmt, Stmt};
use crate::types::Schema;

/// Planning errors.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    NoSuchTable(String),
    NoSuchColumn(String),
    AmbiguousColumn(String),
    Unsupported(String),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::NoSuchTable(t) => write!(f, "no such table: {t}"),
            PlanError::NoSuchColumn(c) => write!(f, "no such column: {c}"),
            PlanError::AmbiguousColumn(c) => write!(f, "ambiguous column: {c}"),
            PlanError::Unsupported(s) => write!(f, "unsupported: {s}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// One table binding in scope: (binding name, table, schema, column offset).
struct Binding<'a> {
    name: String,
    schema: &'a Schema,
    offset: usize,
}

struct Scope<'a> {
    bindings: Vec<Binding<'a>>,
}

impl<'a> Scope<'a> {
    fn resolve(&self, qualifier: Option<&str>, col: &str) -> Result<usize, PlanError> {
        let mut found = None;
        for b in &self.bindings {
            if let Some(q) = qualifier {
                if !b.name.eq_ignore_ascii_case(q) {
                    continue;
                }
            }
            if let Some(i) = b.schema.column_index(col) {
                if found.is_some() {
                    return Err(PlanError::AmbiguousColumn(col.into()));
                }
                found = Some(b.offset + i);
            }
        }
        found.ok_or_else(|| PlanError::NoSuchColumn(col.into()))
    }

    fn width(&self) -> usize {
        self.bindings.iter().map(|b| b.schema.len()).sum()
    }
}

/// Plan a parsed statement against the catalog.
pub fn plan(catalog: &Catalog, stmt: &Stmt) -> Result<Plan, PlanError> {
    match stmt {
        Stmt::Begin => Ok(Plan::Begin),
        Stmt::Commit => Ok(Plan::Commit),
        Stmt::Rollback => Ok(Plan::Rollback),
        Stmt::CreateTable {
            name,
            columns,
            primary_key,
        } => Ok(Plan::CreateTable {
            name: name.clone(),
            columns: columns.clone(),
            primary_key: primary_key.clone(),
        }),
        Stmt::CreateIndex {
            name,
            table,
            columns,
            kind,
            unique,
        } => {
            let meta = base_table(catalog, table, "CREATE INDEX")?;
            let cols = columns
                .iter()
                .map(|c| {
                    meta.schema
                        .column_index(c)
                        .ok_or_else(|| PlanError::NoSuchColumn(c.clone()))
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Plan::CreateIndex {
                name: name.clone(),
                table: meta.id,
                columns: cols,
                kind: *kind,
                unique: *unique,
            })
        }
        Stmt::Insert { table, rows } => {
            let meta = base_table(catalog, table, "INSERT")?;
            let empty = Scope { bindings: vec![] };
            let resolved = rows
                .iter()
                .map(|row| {
                    if row.len() != meta.schema.len() {
                        return Err(PlanError::Unsupported(format!(
                            "INSERT arity {} != table arity {}",
                            row.len(),
                            meta.schema.len()
                        )));
                    }
                    row.iter().map(|e| resolve(e, &empty)).collect()
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Plan::Insert {
                table: meta.id,
                rows: resolved,
            })
        }
        Stmt::Update {
            table,
            sets,
            where_clause,
        } => {
            let (scan, scope) = plan_scan(catalog, table, where_clause.as_ref())?;
            let sets = sets
                .iter()
                .map(|(col, e)| {
                    let idx = scope.resolve(None, col)?;
                    Ok((idx, resolve(e, &scope)?))
                })
                .collect::<Result<Vec<_>, PlanError>>()?;
            Ok(Plan::Update { scan, sets })
        }
        Stmt::Delete {
            table,
            where_clause,
        } => {
            let (scan, _) = plan_scan(catalog, table, where_clause.as_ref())?;
            Ok(Plan::Delete { scan })
        }
        Stmt::Select(sel) => plan_select(catalog, sel),
        Stmt::Explain { analyze, stmt } => Ok(Plan::Explain {
            analyze: *analyze,
            inner: Box::new(plan(catalog, stmt)?),
        }),
    }
}

/// Resolve an expression against a scope (aggregates not allowed here).
fn resolve(e: &Expr, scope: &Scope<'_>) -> Result<PExpr, PlanError> {
    match e {
        Expr::Column(q, c) => Ok(PExpr::Col(scope.resolve(q.as_deref(), c)?)),
        Expr::Literal(v) => Ok(PExpr::Lit(v.clone())),
        Expr::Param(p) => Ok(PExpr::Param(*p)),
        Expr::Binary(l, op, r) => Ok(PExpr::bin(resolve(l, scope)?, *op, resolve(r, scope)?)),
        Expr::Agg(f, _) => Err(PlanError::Unsupported(format!(
            "aggregate {} not allowed here",
            f.name()
        ))),
    }
}

/// Resolve a *base* (stored) table. Virtual introspection tables are
/// read-only and unjoinable, so every non-SELECT resolution goes through
/// here and reports `Unsupported` rather than `NoSuchTable` for them.
fn base_table<'a>(
    catalog: &'a Catalog,
    table: &str,
    verb: &str,
) -> Result<&'a TableMeta, PlanError> {
    if let Some(meta) = catalog.table_by_name(table) {
        return Ok(meta);
    }
    if catalog.virtual_table(table).is_some() {
        return Err(PlanError::Unsupported(format!(
            "{verb} on virtual table {table}"
        )));
    }
    Err(PlanError::NoSuchTable(table.to_string()))
}

/// Build a scan node for a single table with an optional predicate.
fn plan_scan<'a>(
    catalog: &'a Catalog,
    table: &str,
    pred: Option<&Expr>,
) -> Result<(ScanNode, Scope<'a>), PlanError> {
    let meta = base_table(catalog, table, "DML")?;
    let scope = Scope {
        bindings: vec![Binding {
            name: meta.name.clone(),
            schema: &meta.schema,
            offset: 0,
        }],
    };
    let conjuncts: Vec<PExpr> = match pred {
        Some(p) => p
            .conjuncts()
            .into_iter()
            .map(|c| resolve(c, &scope))
            .collect::<Result<_, _>>()?,
        None => Vec::new(),
    };
    let scan = choose_access(catalog, meta.id, conjuncts);
    Ok((scan, scope))
}

/// Pick the cheapest access path for a conjunctive predicate.
fn choose_access(catalog: &Catalog, table: TableId, conjuncts: Vec<PExpr>) -> ScanNode {
    // Equality conjuncts `col = <column-free expr>`.
    let mut eq: Vec<(usize, PExpr, usize)> = Vec::new(); // (col, expr, conjunct idx)
                                                         // Range conjuncts on a column.
    let mut ranges: Vec<(usize, BinOp, PExpr, usize)> = Vec::new();
    for (ci, c) in conjuncts.iter().enumerate() {
        if let PExpr::Bin(l, op, r) = c {
            let (col, other, op) = match (&**l, &**r) {
                (PExpr::Col(i), rhs) if !rhs.references_columns() => (*i, rhs.clone(), *op),
                (lhs, PExpr::Col(i)) if !lhs.references_columns() => (*i, lhs.clone(), flip(*op)),
                _ => continue,
            };
            match op {
                BinOp::Eq => eq.push((col, other, ci)),
                BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => ranges.push((col, op, other, ci)),
                _ => {}
            }
        }
    }

    let find_eq = |col: usize| eq.iter().find(|(c, ..)| *c == col);

    // 1. Full-key point lookups, unique indexes first.
    let mut indexes = catalog.table_indexes(table);
    indexes.sort_by_key(|m| (!m.unique, m.columns.len()));
    for meta in &indexes {
        let keys: Option<Vec<(&PExpr, usize)>> = meta
            .columns
            .iter()
            .map(|c| find_eq(*c).map(|(_, e, ci)| (e, *ci)))
            .collect();
        if let Some(keys) = keys {
            let used: Vec<usize> = keys.iter().map(|(_, ci)| *ci).collect();
            let key = keys.into_iter().map(|(e, _)| e.clone()).collect();
            let residual = residual_of(&conjuncts, &used);
            return ScanNode {
                table,
                access: Access::Point {
                    index: meta.id,
                    key,
                },
                residual,
            };
        }
    }
    // 2. Composite B-tree prefix.
    for meta in &indexes {
        if meta.kind != IndexKind::BTree || meta.columns.len() < 2 {
            continue;
        }
        let mut key = Vec::new();
        let mut used = Vec::new();
        for c in &meta.columns {
            match find_eq(*c) {
                Some((_, e, ci)) => {
                    key.push(e.clone());
                    used.push(*ci);
                }
                None => break,
            }
        }
        if !key.is_empty() {
            let residual = residual_of(&conjuncts, &used);
            return ScanNode {
                table,
                access: Access::Prefix {
                    index: meta.id,
                    key,
                },
                residual,
            };
        }
    }
    // 3. Single-column B-tree range.
    for meta in &indexes {
        if meta.kind != IndexKind::BTree || meta.columns.len() != 1 {
            continue;
        }
        let col = meta.columns[0];
        let mut lo = None;
        let mut hi = None;
        let mut used = Vec::new();
        for (c, op, e, ci) in &ranges {
            if *c != col {
                continue;
            }
            match op {
                BinOp::Ge | BinOp::Gt if lo.is_none() => {
                    lo = Some(e.clone());
                    used.push(*ci);
                    // Strict bounds keep the conjunct as residual too.
                    if *op == BinOp::Gt {
                        used.pop();
                    }
                }
                BinOp::Le | BinOp::Lt if hi.is_none() => {
                    hi = Some(e.clone());
                    used.push(*ci);
                    if *op == BinOp::Lt {
                        used.pop();
                    }
                }
                _ => {}
            }
        }
        if lo.is_some() || hi.is_some() {
            let residual = residual_of(&conjuncts, &used);
            return ScanNode {
                table,
                access: Access::Range {
                    index: meta.id,
                    lo,
                    hi,
                },
                residual,
            };
        }
    }
    // 4. Sequential scan.
    let residual = PExpr::conjoin(conjuncts);
    ScanNode {
        table,
        access: Access::Full,
        residual,
    }
}

fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

fn residual_of(conjuncts: &[PExpr], used: &[usize]) -> Option<PExpr> {
    PExpr::conjoin(
        conjuncts
            .iter()
            .enumerate()
            .filter(|(i, _)| !used.contains(i))
            .map(|(_, c)| c.clone())
            .collect(),
    )
}

pub(crate) fn plan_select(catalog: &Catalog, sel: &SelectStmt) -> Result<Plan, PlanError> {
    // Virtual introspection tables: always a full materialized scan with
    // the whole WHERE clause as residual; the downstream aggregation /
    // sort / limit / projection wrapping composes unchanged.
    if catalog.table_by_name(&sel.from.name).is_none() {
        if let Some((vname, vschema)) = catalog.virtual_table(&sel.from.name) {
            if sel.join.is_some() {
                return Err(PlanError::Unsupported(format!(
                    "JOIN involving virtual table {vname}"
                )));
            }
            let scope = Scope {
                bindings: vec![Binding {
                    name: sel.from.binding().to_string(),
                    schema: vschema,
                    offset: 0,
                }],
            };
            let conjuncts: Vec<PExpr> = match &sel.where_clause {
                Some(p) => p
                    .conjuncts()
                    .into_iter()
                    .map(|c| resolve(c, &scope))
                    .collect::<Result<_, _>>()?,
                None => Vec::new(),
            };
            let root = PlanNode::VirtualScan {
                name: vname.to_string(),
                residual: PExpr::conjoin(conjuncts),
            };
            return finish_select(root, &scope, sel);
        }
    }
    let left_meta = catalog
        .table_by_name(&sel.from.name)
        .ok_or_else(|| PlanError::NoSuchTable(sel.from.name.clone()))?;

    // Build the scope (and for joins, per-side scopes for predicate pushdown).
    let root: PlanNode;
    let scope: Scope<'_>;
    if let Some((right_ref, on)) = &sel.join {
        if catalog.virtual_table(&right_ref.name).is_some() {
            return Err(PlanError::Unsupported(format!(
                "JOIN involving virtual table {}",
                right_ref.name
            )));
        }
        let right_meta = catalog
            .table_by_name(&right_ref.name)
            .ok_or_else(|| PlanError::NoSuchTable(right_ref.name.clone()))?;
        let left_scope = Scope {
            bindings: vec![Binding {
                name: sel.from.binding().to_string(),
                schema: &left_meta.schema,
                offset: 0,
            }],
        };
        let right_scope = Scope {
            bindings: vec![Binding {
                name: right_ref.binding().to_string(),
                schema: &right_meta.schema,
                offset: 0,
            }],
        };
        scope = Scope {
            bindings: vec![
                Binding {
                    name: sel.from.binding().to_string(),
                    schema: &left_meta.schema,
                    offset: 0,
                },
                Binding {
                    name: right_ref.binding().to_string(),
                    schema: &right_meta.schema,
                    offset: left_meta.schema.len(),
                },
            ],
        };

        // Split WHERE conjuncts by side.
        let mut left_preds = Vec::new();
        let mut right_preds = Vec::new();
        let mut both_preds = Vec::new();
        if let Some(w) = &sel.where_clause {
            for c in w.conjuncts() {
                if let Ok(p) = resolve(c, &left_scope) {
                    left_preds.push(p);
                } else if let Ok(p) = resolve(c, &right_scope) {
                    right_preds.push(p);
                } else {
                    both_preds.push(resolve(c, &scope)?);
                }
            }
        }
        // The ON clause must be a two-sided equality.
        let Expr::Binary(l, BinOp::Eq, r) = on else {
            return Err(PlanError::Unsupported("JOIN ON must be an equality".into()));
        };
        let (lk, rk) = match (resolve(l, &left_scope), resolve(r, &right_scope)) {
            (Ok(lk), Ok(rk)) => (lk, rk),
            _ => match (resolve(r, &left_scope), resolve(l, &right_scope)) {
                (Ok(lk), Ok(rk)) => (lk, rk),
                _ => {
                    return Err(PlanError::Unsupported(
                        "JOIN ON must reference one column per side".into(),
                    ))
                }
            },
        };
        let left_scan = choose_access(catalog, left_meta.id, left_preds);
        let right_scan = choose_access(catalog, right_meta.id, right_preds);
        root = PlanNode::HashJoin {
            left: Box::new(PlanNode::Scan(left_scan)),
            right: Box::new(PlanNode::Scan(right_scan)),
            left_key: lk,
            // Resolved against the right table alone and evaluated
            // against right rows, so no column shift applies.
            right_key: rk,
            residual: PExpr::conjoin(both_preds),
        };
    } else {
        let (scan, s) = plan_scan(catalog, &sel.from.name, sel.where_clause.as_ref())?;
        scope = s;
        root = PlanNode::Scan(scan);
    }
    finish_select(root, &scope, sel)
}

/// Wrap a resolved scan/join root with the statement's aggregation,
/// ORDER BY, LIMIT, and projection operators.
fn finish_select(
    mut root: PlanNode,
    scope: &Scope<'_>,
    sel: &SelectStmt,
) -> Result<Plan, PlanError> {
    // Aggregation.
    let has_aggs = sel
        .projections
        .iter()
        .any(|p| matches!(p, Projection::Expr(Expr::Agg(..))));
    if has_aggs || !sel.group_by.is_empty() {
        let group_by = sel
            .group_by
            .iter()
            .map(|c| scope.resolve(None, c))
            .collect::<Result<Vec<_>, _>>()?;
        let mut aggs = Vec::new();
        let mut projection_map = Vec::new(); // output positions
        for p in &sel.projections {
            match p {
                Projection::Expr(Expr::Agg(f, arg)) => {
                    let col = match arg {
                        Some(c) => Some(scope.resolve(None, c)?),
                        None => None,
                    };
                    projection_map.push(group_by.len() + aggs.len());
                    aggs.push((*f, col));
                }
                Projection::Expr(Expr::Column(q, c)) => {
                    let col = scope.resolve(q.as_deref(), c)?;
                    let pos = group_by.iter().position(|g| *g == col).ok_or_else(|| {
                        PlanError::Unsupported(format!("column {c} must appear in GROUP BY"))
                    })?;
                    projection_map.push(pos);
                }
                _ => {
                    return Err(PlanError::Unsupported(
                        "projections with aggregates must be columns or aggregates".into(),
                    ))
                }
            }
        }
        root = PlanNode::Aggregate {
            input: Box::new(root),
            group_by: group_by.clone(),
            aggs,
        };
        if !sel.order_by.is_empty() {
            return Err(PlanError::Unsupported("ORDER BY with aggregation".into()));
        }
        if let Some(n) = sel.limit {
            root = PlanNode::Limit {
                input: Box::new(root),
                n,
            };
        }
        root = PlanNode::Project {
            input: Box::new(root),
            exprs: projection_map.into_iter().map(PExpr::Col).collect(),
        };
        return Ok(Plan::Query { root });
    }

    // Sort before projection (ORDER BY references base columns).
    if !sel.order_by.is_empty() {
        let by = sel
            .order_by
            .iter()
            .map(|(c, desc)| Ok((scope.resolve(None, c)?, *desc)))
            .collect::<Result<Vec<_>, PlanError>>()?;
        root = PlanNode::Sort {
            input: Box::new(root),
            by,
        };
    }
    if let Some(n) = sel.limit {
        root = PlanNode::Limit {
            input: Box::new(root),
            n,
        };
    }

    // Projection.
    let mut exprs = Vec::new();
    for p in &sel.projections {
        match p {
            Projection::Star => {
                for i in 0..scope.width() {
                    exprs.push(PExpr::Col(i));
                }
            }
            Projection::Expr(e) => exprs.push(resolve(e, scope)?),
        }
    }
    let identity =
        exprs.len() == scope.width() && exprs.iter().enumerate().all(|(i, e)| *e == PExpr::Col(i));
    if !identity {
        root = PlanNode::Project {
            input: Box::new(root),
            exprs,
        };
    }
    Ok(Plan::Query { root })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::parser::parse;
    use crate::types::DataType;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let t = c
            .create_table(
                "accounts",
                Schema::new(&[
                    ("id", DataType::Int),
                    ("branch", DataType::Int),
                    ("bal", DataType::Float),
                ]),
                vec![0],
            )
            .unwrap();
        c.create_index("accounts_pk", t, vec![0], IndexKind::Hash, true)
            .unwrap();
        c.create_index("accounts_branch", t, vec![1], IndexKind::BTree, false)
            .unwrap();
        let o = c
            .create_table(
                "orders",
                Schema::new(&[("oid", DataType::Int), ("acct", DataType::Int)]),
                vec![0],
            )
            .unwrap();
        c.create_index("orders_pk", o, vec![0], IndexKind::Hash, true)
            .unwrap();
        c
    }

    fn plan_sql(sql: &str) -> Plan {
        let c = catalog();
        plan(&c, &parse(sql).unwrap()).unwrap()
    }

    #[test]
    fn point_lookup_on_pk() {
        let p = plan_sql("SELECT bal FROM accounts WHERE id = $1");
        let Plan::Query { root } = p else { panic!() };
        let PlanNode::Project { input, .. } = root else {
            panic!("{root:?}")
        };
        let PlanNode::Scan(scan) = *input else {
            panic!()
        };
        assert!(matches!(scan.access, Access::Point { .. }));
        assert!(scan.residual.is_none());
    }

    #[test]
    fn secondary_btree_range() {
        let p = plan_sql("SELECT * FROM accounts WHERE branch >= 5 AND branch <= 9");
        let Plan::Query { root } = p else { panic!() };
        let PlanNode::Scan(scan) = root else {
            panic!("{root:?}")
        };
        match scan.access {
            Access::Range {
                lo: Some(_),
                hi: Some(_),
                ..
            } => {}
            other => panic!("expected range, got {other:?}"),
        }
    }

    #[test]
    fn residual_filter_kept() {
        let p = plan_sql("SELECT * FROM accounts WHERE id = 3 AND bal > 100");
        let Plan::Query { root } = p else { panic!() };
        let PlanNode::Scan(scan) = root else { panic!() };
        assert!(matches!(scan.access, Access::Point { .. }));
        assert!(scan.residual.is_some(), "bal > 100 must remain as residual");
    }

    #[test]
    fn fallback_to_seq_scan() {
        let p = plan_sql("SELECT * FROM accounts WHERE bal > 0");
        let Plan::Query { root } = p else { panic!() };
        let PlanNode::Scan(scan) = root else { panic!() };
        assert_eq!(scan.access, Access::Full);
        assert!(scan.residual.is_some());
    }

    #[test]
    fn join_plan_with_pushdown() {
        let p = plan_sql(
            "SELECT a.bal FROM accounts a JOIN orders o ON a.id = o.acct WHERE a.branch = 1",
        );
        let Plan::Query { root } = p else { panic!() };
        let PlanNode::Project { input, .. } = root else {
            panic!()
        };
        let PlanNode::HashJoin { left, .. } = *input else {
            panic!()
        };
        let PlanNode::Scan(ls) = *left else { panic!() };
        assert!(
            !matches!(ls.access, Access::Full),
            "branch = 1 should use the branch index: {:?}",
            ls.access
        );
    }

    #[test]
    fn aggregate_plan_shape() {
        let p = plan_sql("SELECT branch, count(*), sum(bal) FROM accounts GROUP BY branch");
        let Plan::Query { root } = p else { panic!() };
        let PlanNode::Project { input, exprs } = root else {
            panic!()
        };
        assert_eq!(exprs, vec![PExpr::Col(0), PExpr::Col(1), PExpr::Col(2)]);
        let PlanNode::Aggregate { group_by, aggs, .. } = *input else {
            panic!()
        };
        assert_eq!(group_by, vec![1]);
        assert_eq!(aggs.len(), 2);
    }

    #[test]
    fn order_and_limit() {
        let p = plan_sql("SELECT id FROM accounts ORDER BY bal DESC LIMIT 3");
        let Plan::Query { root } = p else { panic!() };
        let PlanNode::Project { input, .. } = root else {
            panic!()
        };
        let PlanNode::Limit { input, n } = *input else {
            panic!()
        };
        assert_eq!(n, 3);
        assert!(matches!(*input, PlanNode::Sort { .. }));
    }

    #[test]
    fn errors_surface() {
        let c = catalog();
        assert!(matches!(
            plan(&c, &parse("SELECT * FROM nope").unwrap()),
            Err(PlanError::NoSuchTable(_))
        ));
        assert!(matches!(
            plan(&c, &parse("SELECT zzz FROM accounts").unwrap()),
            Err(PlanError::NoSuchColumn(_))
        ));
        assert!(matches!(
            plan(&c, &parse("SELECT bal, count(*) FROM accounts").unwrap()),
            Err(PlanError::Unsupported(_))
        ));
    }

    #[test]
    fn virtual_table_select_composes_with_sort_limit_projection() {
        let c = catalog();
        let p = plan(
            &c,
            &parse(
                "SELECT ou, drift_score FROM ts_stat_ou \
                 WHERE drift_score > 0.2 ORDER BY drift_score DESC LIMIT 5",
            )
            .unwrap(),
        )
        .unwrap();
        let Plan::Query { root } = p else { panic!() };
        let PlanNode::Project { input, exprs } = root else {
            panic!()
        };
        assert_eq!(exprs.len(), 2);
        let PlanNode::Limit { input, n: 5 } = *input else {
            panic!()
        };
        let PlanNode::Sort { input, .. } = *input else {
            panic!()
        };
        let PlanNode::VirtualScan { name, residual } = *input else {
            panic!()
        };
        assert_eq!(name, "ts_stat_ou");
        assert!(residual.is_some(), "WHERE clause becomes the residual");
    }

    #[test]
    fn virtual_table_aggregation_plans() {
        let c = catalog();
        let p = plan(
            &c,
            &parse("SELECT subsystem, count(*) FROM ts_stat_ou GROUP BY subsystem").unwrap(),
        )
        .unwrap();
        let Plan::Query { root } = p else { panic!() };
        let mut saw_virtual = false;
        let mut saw_agg = false;
        root.walk(&mut |n| match n {
            PlanNode::VirtualScan { .. } => saw_virtual = true,
            PlanNode::Aggregate { .. } => saw_agg = true,
            _ => {}
        });
        assert!(saw_virtual && saw_agg);
    }

    #[test]
    fn virtual_tables_reject_dml_joins_and_indexes() {
        let c = catalog();
        for sql in [
            "INSERT INTO ts_alerts VALUES (1, 0.0, 'r', 's', 't', 'OK', 'OK', 0.0, 0.0)",
            "UPDATE ts_stat_ou SET drift_score = 0.0",
            "DELETE FROM ts_alerts",
            "CREATE INDEX bad ON ts_stat_ou (ou)",
            "SELECT * FROM accounts a JOIN ts_stat_ou s ON a.id = s.samples",
            "SELECT * FROM ts_stat_ou s JOIN accounts a ON s.samples = a.id",
        ] {
            assert!(
                matches!(
                    plan(&c, &parse(sql).unwrap()),
                    Err(PlanError::Unsupported(_))
                ),
                "{sql} should be Unsupported"
            );
        }
        // Unknown columns on virtual tables still surface as such.
        assert!(matches!(
            plan(&c, &parse("SELECT zzz FROM ts_stat_ou").unwrap()),
            Err(PlanError::NoSuchColumn(_))
        ));
    }

    #[test]
    fn insert_arity_checked() {
        let c = catalog();
        assert!(matches!(
            plan(&c, &parse("INSERT INTO accounts VALUES (1, 2)").unwrap()),
            Err(PlanError::Unsupported(_))
        ));
        assert!(plan(
            &c,
            &parse("INSERT INTO accounts VALUES (1, 2, 3.0)").unwrap()
        )
        .is_ok());
    }
}
