//! The OU-granular execution engine.
//!
//! Every operator runs under TScout markers. Two engine modes mirror the
//! paper (§5.2):
//!
//! * [`EngineMode::PerOperator`] — each operator carries its own marker
//!   triple, placed around the operator's *own* work (children run
//!   first) so every OU's features explain its metrics. Marker nesting
//!   for recursive operators is handled by the Collector's depth-keyed
//!   maps (exercised directly in the `tscout` crate's tests).
//! * [`EngineMode::Fused`] — the JIT-compilation model: one marker pair
//!   around the whole query pipeline, with a *vector* of per-OU features
//!   emitted at the FEATURES marker; the Processor de-aggregates.
//!
//! Operators do real work on real tuples; the simulation cost model
//! ([`ou::work_for`]) additionally charges virtual CPU time so the
//! kernel's counters and clocks reflect the work.

pub mod obs;
pub mod ou;
pub mod plan;

use std::slice;

use tscout::{OuId, TScout};
use tscout_kernel::{Kernel, TaskId};

use crate::catalog::Catalog;
use crate::decls;
use crate::engine::DbMetrics;
use crate::index::{key_from_row, row_key_cmp, Index, IndexKey};
use crate::sql::ast::{AggFunc, BinOp};
use crate::storage::{SlotId, VersionedTable};
use crate::txn::{TxnHandle, TxnManager, UndoRef};
use crate::types::{row_bytes, DataType, Row, Value};

use ou::{work_for, EngineOu, OuMap};
use plan::{Access, PExpr, Plan, PlanNode, ScanNode};

/// Marker placement strategy (paper §5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// One marker triple per operator.
    #[default]
    PerOperator,
    /// One marker pair per query with vectorized features.
    Fused,
}

/// Execution errors that abort the transaction.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// Write-write conflict (first-writer-wins MVCC).
    Conflict,
    UniqueViolation(String),
    Eval(String),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Conflict => write!(f, "write-write conflict"),
            ExecError::UniqueViolation(k) => write!(f, "unique constraint violation on {k}"),
            ExecError::Eval(m) => write!(f, "evaluation error: {m}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Result of executing one statement.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecOutcome {
    pub rows: Vec<Row>,
    pub rows_affected: u64,
}

/// Everything the executor needs, borrowed disjointly from the engine.
#[derive(Debug)]
pub struct ExecCtx<'a> {
    pub kernel: &'a mut Kernel,
    pub ts: Option<&'a mut TScout>,
    pub ous: Option<&'a OuMap>,
    pub task: TaskId,
    pub catalog: &'a Catalog,
    pub tables: &'a mut Vec<VersionedTable>,
    pub indexes: &'a mut Vec<Index>,
    pub txns: &'a mut TxnManager,
    pub txn: TxnHandle,
    pub mode: EngineMode,
    /// Per-statement observation (plan-node actuals + OU attribution).
    /// Clock-neutral: set by the engine when statement stats or
    /// EXPLAIN ANALYZE need actuals; `None` costs nothing on the hot path.
    pub obs: Option<obs::StmtObs>,
    /// Fused-mode accumulator of (OU, features) groups.
    fused: Option<Vec<(OuId, Vec<u64>)>>,
    metrics: &'a DbMetrics,
}

impl<'a> ExecCtx<'a> {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        kernel: &'a mut Kernel,
        ts: Option<&'a mut TScout>,
        ous: Option<&'a OuMap>,
        task: TaskId,
        catalog: &'a Catalog,
        tables: &'a mut Vec<VersionedTable>,
        indexes: &'a mut Vec<Index>,
        txns: &'a mut TxnManager,
        txn: TxnHandle,
        mode: EngineMode,
        metrics: &'a DbMetrics,
    ) -> Self {
        ExecCtx {
            kernel,
            ts,
            ous,
            task,
            catalog,
            tables,
            indexes,
            txns,
            txn,
            mode,
            obs: None,
            fused: None,
            metrics,
        }
    }

    /// Open an observation node at the current virtual clock (no-op and
    /// zero-cost when observation is off).
    fn obs_enter(&mut self) -> Option<usize> {
        self.obs.as_ref()?;
        let now = self.kernel.now(self.task);
        self.obs.as_mut().map(|o| o.enter(now))
    }

    /// Close an observation node opened by [`Self::obs_enter`].
    fn obs_exit(&mut self, tok: Option<usize>, rows: u64) {
        if let Some(idx) = tok {
            let now = self.kernel.now(self.task);
            if let Some(o) = self.obs.as_mut() {
                o.exit(idx, now, rows);
            }
        }
    }

    fn begin(&mut self, eou: EngineOu) {
        if self.fused.is_some() {
            return;
        }
        if let (Some(ts), Some(ous)) = (self.ts.as_deref_mut(), self.ous) {
            ts.ou_begin(self.kernel, self.task, ous.id(eou));
        }
    }

    /// Charge the OU's modeled work; returns its memory-probe bytes.
    fn charge(&mut self, eou: EngineOu, features: &[u64]) -> u64 {
        let _frame = self.kernel.profile_frame(self.task, eou.frame());
        let w = work_for(eou, features);
        if self.obs.is_some() {
            // Bracket the charge with clock reads so the observation
            // captures exactly this OU's modeled elapsed ns. Reads only —
            // the charge itself is identical with observation off.
            let t0 = self.kernel.now(self.task);
            self.kernel
                .charge_cpu(self.task, w.instructions, w.ws_bytes);
            let t1 = self.kernel.now(self.task);
            if let Some(o) = self.obs.as_mut() {
                o.record_ou(eou.name(), t1 - t0, features);
            }
        } else {
            self.kernel
                .charge_cpu(self.task, w.instructions, w.ws_bytes);
        }
        w.mem_bytes
    }

    fn finish(&mut self, eou: EngineOu, features: Vec<u64>, mem_bytes: u64) {
        if let Some(groups) = &mut self.fused {
            if let Some(ous) = self.ous {
                groups.push((ous.id(eou), features));
            }
            return;
        }
        if let (Some(ts), Some(ous)) = (self.ts.as_deref_mut(), self.ous) {
            let id = ous.id(eou);
            ts.ou_end(self.kernel, self.task, id);
            ts.ou_features(self.kernel, self.task, id, &features, &[mem_bytes]);
        }
    }

    fn table(&self, t: crate::catalog::TableId) -> &VersionedTable {
        &self.tables[t.0 as usize]
    }
}

/// Evaluate a resolved expression.
pub fn eval(e: &PExpr, row: &[Value], params: &[Value]) -> Result<Value, ExecError> {
    match e {
        PExpr::Col(i) => row
            .get(*i)
            .cloned()
            .ok_or_else(|| ExecError::Eval(format!("column offset {i} out of range"))),
        PExpr::Lit(v) => Ok(v.clone()),
        PExpr::Param(p) => params
            .get(*p)
            .cloned()
            .ok_or_else(|| ExecError::Eval(format!("missing parameter ${}", p + 1))),
        PExpr::Bin(l, op, r) => {
            let lv = eval(l, row, params)?;
            let rv = eval(r, row, params)?;
            apply(*op, lv, rv)
        }
    }
}

fn apply(op: BinOp, l: Value, r: Value) -> Result<Value, ExecError> {
    use BinOp::*;
    match op {
        And => Ok(Value::Bool(truthy(&l) && truthy(&r))),
        Or => Ok(Value::Bool(truthy(&l) || truthy(&r))),
        Eq => Ok(Value::Bool(l == r)),
        Ne => Ok(Value::Bool(l != r)),
        Lt => Ok(Value::Bool(l < r)),
        Le => Ok(Value::Bool(l <= r)),
        Gt => Ok(Value::Bool(l > r)),
        Ge => Ok(Value::Bool(l >= r)),
        Add | Sub | Mul => match (&l, &r) {
            (Value::Int(a), Value::Int(b)) => Ok(Value::Int(match op {
                Add => a.wrapping_add(*b),
                Sub => a.wrapping_sub(*b),
                _ => a.wrapping_mul(*b),
            })),
            _ => {
                let a = l
                    .as_float()
                    .ok_or_else(|| ExecError::Eval(format!("non-numeric operand {l}")))?;
                let b = r
                    .as_float()
                    .ok_or_else(|| ExecError::Eval(format!("non-numeric operand {r}")))?;
                Ok(Value::Float(match op {
                    Add => a + b,
                    Sub => a - b,
                    _ => a * b,
                }))
            }
        },
    }
}

/// SQL truthiness: NULL is false.
pub fn truthy(v: &Value) -> bool {
    matches!(v, Value::Bool(true))
}

/// Coerce a row to a table schema (numeric widening only).
fn coerce_row(row: &mut Row, schema: &crate::types::Schema) {
    for (v, col) in row.iter_mut().zip(&schema.columns) {
        if col.dtype == DataType::Float {
            if let Value::Int(i) = v {
                *v = Value::Float(*i as f64);
            }
        }
    }
}

/// Execute a planned statement.
pub fn execute(
    ctx: &mut ExecCtx<'_>,
    p: &Plan,
    params: &[Value],
) -> Result<ExecOutcome, ExecError> {
    match p {
        Plan::Insert { table, rows } => exec_insert(ctx, *table, rows, params),
        Plan::Update { scan, sets } => exec_update(ctx, scan, sets, params),
        Plan::Delete { scan } => exec_delete(ctx, scan, params),
        Plan::Query { root } => exec_query(ctx, root, params),
        other => Err(ExecError::Eval(format!(
            "plan {other:?} must be handled by the engine"
        ))),
    }
}

fn exec_query(
    ctx: &mut ExecCtx<'_>,
    root: &PlanNode,
    params: &[Value],
) -> Result<ExecOutcome, ExecError> {
    let _pipeline_frame = ctx.kernel.profile_frame(ctx.task, &decls::PIPELINE);
    let fused = ctx.mode == EngineMode::Fused && ctx.ts.is_some();
    let pipeline_id = ctx.ous.map(|o| o.id(EngineOu::Pipeline));
    if fused {
        if let (Some(ts), Some(id)) = (ctx.ts.as_deref_mut(), pipeline_id) {
            ts.ou_begin(ctx.kernel, ctx.task, id);
        }
        ctx.fused = Some(Vec::new());
    }

    let result = exec_node(ctx, root, params);

    // Output OU: materializing the result for the client.
    let outcome = match result {
        Ok(rows) => {
            let bytes: usize = rows.iter().map(row_bytes).sum();
            ctx.begin(EngineOu::Output);
            let feats = vec![rows.len() as u64, bytes as u64];
            let mem = ctx.charge(EngineOu::Output, &feats);
            ctx.finish(EngineOu::Output, feats, mem);
            Ok(ExecOutcome {
                rows_affected: rows.len() as u64,
                rows,
            })
        }
        Err(e) => Err(e),
    };

    if fused {
        let groups = ctx.fused.take().unwrap_or_default();
        if let (Some(ts), Some(id)) = (ctx.ts.as_deref_mut(), pipeline_id) {
            ts.ou_end(ctx.kernel, ctx.task, id);
            ts.ou_features_vec(ctx.kernel, ctx.task, id, &groups);
        }
        // Fan-out of the fused pipeline: how many OUs one marker pair
        // covered (what the Processor de-aggregates, §5.2).
        let (t, m) = (&ctx.kernel.telemetry, ctx.metrics);
        m.pipelines.get(t).inc();
        m.pipeline_ous.get(t).add(groups.len() as u64);
        m.pipeline_fanout.get(t).record(groups.len() as f64);
    }
    outcome
}

fn exec_node(
    ctx: &mut ExecCtx<'_>,
    node: &PlanNode,
    params: &[Value],
) -> Result<Vec<Row>, ExecError> {
    // Observation nodes are assigned in pre-order execution order — the
    // same order `plan::explain` renders operator lines — so annotations
    // line up with the rendered tree by ordinal.
    let tok = ctx.obs_enter();
    let result = exec_node_inner(ctx, node, params);
    ctx.obs_exit(tok, result.as_ref().map_or(0, |r| r.len() as u64));
    result
}

fn exec_node_inner(
    ctx: &mut ExecCtx<'_>,
    node: &PlanNode,
    params: &[Value],
) -> Result<Vec<Row>, ExecError> {
    match node {
        PlanNode::Scan(s) => Ok(exec_scan(ctx, s, params)?
            .into_iter()
            .map(|(_, r)| r)
            .collect()),
        PlanNode::VirtualScan { name, residual } => {
            // Materialize from the live telemetry registry. Virtual scans
            // are introspection, not workload: they charge CPU (registry
            // lock + per-row formatting) but emit no TScout markers, so
            // they never pollute the training data they report on.
            let _frame = ctx.kernel.profile_frame(ctx.task, &decls::VIRTUAL_SCAN);
            let all = crate::stat::virtual_rows(name, &ctx.kernel.telemetry);
            let ws: u64 = all.iter().map(|r| row_bytes(r) as u64).sum();
            ctx.kernel
                .charge_cpu(ctx.task, 2_000.0 + 400.0 * all.len() as f64, ws);
            // Introspection, not workload: resolved uncached per scan.
            crate::decls::VIRTUAL_SCANS
                .with(&ctx.kernel.telemetry, &[("table", name)])
                .inc();
            let mut rows = Vec::new();
            for row in all {
                if let Some(f) = residual {
                    if !truthy(&eval(f, &row, params)?) {
                        continue;
                    }
                }
                rows.push(row);
            }
            Ok(rows)
        }
        PlanNode::HashJoin {
            left,
            right,
            left_key,
            right_key,
            residual,
        } => {
            let build_rows = exec_node(ctx, left, params)?;
            let probe_rows = exec_node(ctx, right, params)?;

            // Build phase.
            ctx.begin(EngineOu::HashJoinBuild);
            let build_bytes: usize = build_rows.iter().map(row_bytes).sum();
            let mut table: std::collections::HashMap<Value, Vec<usize>> =
                std::collections::HashMap::new();
            for (i, r) in build_rows.iter().enumerate() {
                table.entry(eval(left_key, r, params)?).or_default().push(i);
            }
            let feats = vec![build_rows.len() as u64, build_bytes as u64];
            let mem = ctx.charge(EngineOu::HashJoinBuild, &feats);
            ctx.finish(EngineOu::HashJoinBuild, feats, mem);

            // Probe phase.
            ctx.begin(EngineOu::HashJoinProbe);
            let mut out = Vec::new();
            for pr in &probe_rows {
                let key = eval(right_key, pr, params)?;
                if let Some(matches) = table.get(&key) {
                    for &bi in matches {
                        let mut row = build_rows[bi].clone();
                        row.extend(pr.iter().cloned());
                        match residual {
                            Some(f) if !truthy(&eval(f, &row, params)?) => {}
                            _ => out.push(row),
                        }
                    }
                }
            }
            let feats = vec![probe_rows.len() as u64, out.len() as u64];
            let mem = ctx.charge(EngineOu::HashJoinProbe, &feats);
            ctx.finish(EngineOu::HashJoinProbe, feats, mem);
            Ok(out)
        }
        PlanNode::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let rows = exec_node(ctx, input, params)?;
            ctx.begin(EngineOu::AggBuild);
            let mut groups: std::collections::BTreeMap<Vec<Value>, Vec<AggState>> =
                std::collections::BTreeMap::new();
            for r in &rows {
                let key: Vec<Value> = group_by.iter().map(|c| r[*c].clone()).collect();
                let states = groups
                    .entry(key)
                    .or_insert_with(|| aggs.iter().map(|(f, _)| AggState::new(*f)).collect());
                for (state, (_, col)) in states.iter_mut().zip(aggs) {
                    state.update(col.map(|c| &r[c]));
                }
            }
            // A global aggregate over zero rows still yields one group.
            if groups.is_empty() && group_by.is_empty() {
                groups.insert(
                    Vec::new(),
                    aggs.iter().map(|(f, _)| AggState::new(*f)).collect(),
                );
            }
            let out: Vec<Row> = groups
                .into_iter()
                .map(|(key, states)| {
                    let mut row = key;
                    row.extend(states.into_iter().map(AggState::finish));
                    row
                })
                .collect();
            let feats = vec![rows.len() as u64, out.len() as u64];
            let mem = ctx.charge(EngineOu::AggBuild, &feats);
            ctx.finish(EngineOu::AggBuild, feats, mem);
            Ok(out)
        }
        PlanNode::Sort { input, by } => {
            let mut rows = exec_node(ctx, input, params)?;
            ctx.begin(EngineOu::Sort);
            let bytes: usize = rows.iter().map(row_bytes).sum();
            rows.sort_by(|a, b| {
                for (col, desc) in by {
                    let ord = a[*col].cmp(&b[*col]);
                    let ord = if *desc { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            let feats = vec![rows.len() as u64, bytes as u64];
            let mem = ctx.charge(EngineOu::Sort, &feats);
            ctx.finish(EngineOu::Sort, feats, mem);
            Ok(rows)
        }
        PlanNode::Limit { input, n } => {
            let mut rows = exec_node(ctx, input, params)?;
            rows.truncate(*n as usize);
            Ok(rows)
        }
        PlanNode::Project { input, exprs } => {
            let rows = exec_node(ctx, input, params)?;
            rows.iter()
                .map(|r| exprs.iter().map(|e| eval(e, r, params)).collect())
                .collect()
        }
    }
}

enum AggState {
    Count(u64),
    Sum(AggFunc, f64, bool, u64), // (func, accum, saw_float, count) — Sum/Avg
    MinMax(AggFunc, Option<Value>),
}

impl AggState {
    fn new(f: AggFunc) -> AggState {
        match f {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum | AggFunc::Avg => AggState::Sum(f, 0.0, false, 0),
            AggFunc::Min | AggFunc::Max => AggState::MinMax(f, None),
        }
    }

    fn update(&mut self, v: Option<&Value>) {
        match self {
            AggState::Count(n) => *n += 1,
            AggState::Sum(_, acc, saw_float, n) => {
                if let Some(v) = v {
                    if let Some(x) = v.as_float() {
                        *acc += x;
                        *saw_float |= matches!(v, Value::Float(_));
                        *n += 1;
                    }
                }
            }
            AggState::MinMax(f, cur) => {
                let Some(v) = v else { return };
                if v.is_null() {
                    return;
                }
                let better = match cur {
                    None => true,
                    Some(c) => {
                        if *f == AggFunc::Min {
                            v < c
                        } else {
                            v > c
                        }
                    }
                };
                if better {
                    *cur = Some(v.clone());
                }
            }
        }
    }

    fn finish(self) -> Value {
        match self {
            AggState::Count(n) => Value::Int(n as i64),
            AggState::Sum(AggFunc::Avg, acc, _, n) => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(acc / n as f64)
                }
            }
            AggState::Sum(_, acc, saw_float, n) => {
                if n == 0 {
                    Value::Null
                } else if saw_float {
                    Value::Float(acc)
                } else {
                    Value::Int(acc as i64)
                }
            }
            AggState::MinMax(_, cur) => cur.unwrap_or(Value::Null),
        }
    }
}

/// Execute a scan, returning `(slot, row)` pairs (DML needs the slots).
fn exec_scan(
    ctx: &mut ExecCtx<'_>,
    scan: &ScanNode,
    params: &[Value],
) -> Result<Vec<(SlotId, Row)>, ExecError> {
    let (read_ts, me) = (ctx.txn.read_ts, ctx.txn.id);
    match &scan.access {
        Access::Full => {
            ctx.begin(EngineOu::SeqScan);
            let table = ctx.table(scan.table);
            let mut rows = Vec::new();
            let mut examined = 0u64;
            let mut bytes = 0usize;
            for slot in table.scan_slots() {
                examined += 1;
                if let Some(r) = table.read(slot, read_ts, me) {
                    bytes += row_bytes(r);
                    rows.push((slot, r.clone()));
                }
            }
            let avg = if rows.is_empty() {
                0
            } else {
                (bytes / rows.len()) as u64
            };
            let feats = vec![examined, avg];
            let mem = ctx.charge(EngineOu::SeqScan, &feats);
            ctx.finish(EngineOu::SeqScan, feats, mem);

            if let Some(f) = &scan.residual {
                ctx.begin(EngineOu::Filter);
                let tuples_in = rows.len() as u64;
                let mut kept = Vec::with_capacity(rows.len());
                for (slot, r) in rows {
                    if truthy(&eval(f, &r, params)?) {
                        kept.push((slot, r));
                    }
                }
                let feats = vec![tuples_in];
                let mem = ctx.charge(EngineOu::Filter, &feats);
                ctx.finish(EngineOu::Filter, feats, mem);
                return Ok(kept);
            }
            Ok(rows)
        }
        Access::Point { index, key } => {
            let key: IndexKey = key
                .iter()
                .map(|e| eval(e, &[], params))
                .collect::<Result<_, _>>()?;
            ctx.begin(EngineOu::IdxLookup);
            let meta = ctx.catalog.index(*index);
            let idx = &ctx.indexes[index.0 as usize];
            let (slots, examined) = idx.get(&key);
            let depth = idx.depth() as u64;
            let table = ctx.table(scan.table);
            let mut rows = Vec::new();
            for &slot in slots {
                if let Some(r) = table.read(slot, read_ts, me) {
                    // Re-check the key: stale index entries may point at
                    // slots whose visible version no longer matches.
                    if row_key_cmp(r, &meta.columns, &key).is_eq() {
                        rows.push((slot, r.clone()));
                    }
                }
            }
            if let Some(f) = &scan.residual {
                let mut kept = Vec::with_capacity(rows.len());
                for (slot, r) in rows {
                    if truthy(&eval(f, &r, params)?) {
                        kept.push((slot, r));
                    }
                }
                rows = kept;
            }
            let feats = vec![examined as u64, depth, rows.len() as u64];
            let mem = ctx.charge(EngineOu::IdxLookup, &feats);
            ctx.finish(EngineOu::IdxLookup, feats, mem);
            Ok(rows)
        }
        Access::Prefix { index, key } => {
            let prefix: Vec<Value> = key
                .iter()
                .map(|e| eval(e, &[], params))
                .collect::<Result<_, _>>()?;
            ctx.begin(EngineOu::IdxRangeScan);
            let meta = ctx.catalog.index(*index);
            let (slots, examined) = ctx.indexes[index.0 as usize].prefix(&prefix);
            let table = ctx.table(scan.table);
            let mut rows = Vec::new();
            for slot in slots {
                if let Some(r) = table.read(slot, read_ts, me) {
                    let cols = meta.columns.get(..prefix.len());
                    if cols.is_some_and(|cols| row_key_cmp(r, cols, &prefix).is_eq()) {
                        rows.push((slot, r.clone()));
                    }
                }
            }
            if let Some(f) = &scan.residual {
                let mut kept = Vec::with_capacity(rows.len());
                for (slot, r) in rows {
                    if truthy(&eval(f, &r, params)?) {
                        kept.push((slot, r));
                    }
                }
                rows = kept;
            }
            let feats = vec![examined as u64, rows.len() as u64];
            let mem = ctx.charge(EngineOu::IdxRangeScan, &feats);
            ctx.finish(EngineOu::IdxRangeScan, feats, mem);
            Ok(rows)
        }
        Access::Range { index, lo, hi } => {
            // One-value bounds, compared as one-value keys.
            let lo = lo.as_ref().map(|e| eval(e, &[], params)).transpose()?;
            let hi = hi.as_ref().map(|e| eval(e, &[], params)).transpose()?;
            let (lo_key, hi_key) = (
                lo.as_ref().map(slice::from_ref),
                hi.as_ref().map(slice::from_ref),
            );
            ctx.begin(EngineOu::IdxRangeScan);
            let meta = ctx.catalog.index(*index);
            let (slots, examined) = ctx.indexes[index.0 as usize].range(lo_key, hi_key);
            let table = ctx.table(scan.table);
            let mut rows = Vec::new();
            for slot in slots {
                if let Some(r) = table.read(slot, read_ts, me) {
                    let lo_ok = lo_key.is_none_or(|l| row_key_cmp(r, &meta.columns, l).is_ge());
                    let hi_ok = hi_key.is_none_or(|h| row_key_cmp(r, &meta.columns, h).is_le());
                    if lo_ok && hi_ok {
                        rows.push((slot, r.clone()));
                    }
                }
            }
            if let Some(f) = &scan.residual {
                let mut kept = Vec::with_capacity(rows.len());
                for (slot, r) in rows {
                    if truthy(&eval(f, &r, params)?) {
                        kept.push((slot, r));
                    }
                }
                rows = kept;
            }
            let feats = vec![examined as u64, rows.len() as u64];
            let mem = ctx.charge(EngineOu::IdxRangeScan, &feats);
            ctx.finish(EngineOu::IdxRangeScan, feats, mem);
            Ok(rows)
        }
    }
}

fn exec_insert(
    ctx: &mut ExecCtx<'_>,
    table_id: crate::catalog::TableId,
    row_exprs: &[Vec<PExpr>],
    params: &[Value],
) -> Result<ExecOutcome, ExecError> {
    let tok = ctx.obs_enter();
    ctx.begin(EngineOu::Insert);
    let meta = ctx.catalog.table(table_id);
    let index_metas = ctx.catalog.table_indexes(table_id);
    let mut total_bytes = 0u64;
    let mut inserted = 0u64;
    for exprs in row_exprs {
        let mut row: Row = exprs
            .iter()
            .map(|e| eval(e, &[], params))
            .collect::<Result<_, _>>()?;
        coerce_row(&mut row, &meta.schema);
        // The keys the indexes will own; unique ones are checked first.
        let keys: Vec<IndexKey> = index_metas
            .iter()
            .map(|im| key_from_row(&row, &im.columns))
            .collect();
        for (im, key) in index_metas.iter().zip(&keys) {
            if !im.unique {
                continue;
            }
            let (slots, _) = ctx.indexes[im.id.0 as usize].get(key);
            let table = &ctx.tables[table_id.0 as usize];
            for &slot in slots {
                if let Some(existing) = table.read(slot, ctx.txn.read_ts, ctx.txn.id) {
                    if row_key_cmp(existing, &im.columns, key).is_eq() {
                        // Still finish the marker triple before erroring so
                        // the collector state machine stays consistent.
                        let feats = vec![inserted, total_bytes, index_metas.len() as u64];
                        ctx.finish(EngineOu::Insert, feats, total_bytes);
                        ctx.obs_exit(tok, inserted);
                        return Err(ExecError::UniqueViolation(im.name.clone()));
                    }
                }
            }
        }
        let bytes = row_bytes(&row) as u64;
        let slot = ctx.tables[table_id.0 as usize].insert(row, ctx.txn.id);
        for (im, key) in index_metas.iter().zip(keys) {
            ctx.indexes[im.id.0 as usize].insert(key, slot);
        }
        ctx.txns.log_write(
            ctx.txn,
            UndoRef {
                table: table_id,
                slot,
                redo_bytes: bytes + 32,
            },
        );
        total_bytes += bytes;
        inserted += 1;
    }
    let feats = vec![inserted, total_bytes, index_metas.len() as u64];
    let mem = ctx.charge(EngineOu::Insert, &feats);
    ctx.finish(EngineOu::Insert, feats, mem.max(total_bytes));
    ctx.obs_exit(tok, inserted);
    Ok(ExecOutcome {
        rows: Vec::new(),
        rows_affected: inserted,
    })
}

fn exec_update(
    ctx: &mut ExecCtx<'_>,
    scan: &ScanNode,
    sets: &[(usize, PExpr)],
    params: &[Value],
) -> Result<ExecOutcome, ExecError> {
    // The child scan runs first (emitting its own OUs); the UPDATE OU
    // covers only the update work itself so its features explain its
    // metrics — the OU-decomposition principle of §2.1.
    let hdr = ctx.obs_enter();
    let run_result = {
        let scan_tok = ctx.obs_enter();
        let targets = exec_scan(ctx, scan, params);
        ctx.obs_exit(scan_tok, targets.as_ref().map_or(0, |t| t.len() as u64));
        ctx.begin(EngineOu::Update);
        match targets {
            Err(e) => Err(e),
            Ok(targets) => {
                let schema = ctx.catalog.table(scan.table).schema.clone();
                let index_metas: Vec<_> = ctx
                    .catalog
                    .table_indexes(scan.table)
                    .into_iter()
                    .cloned()
                    .collect();
                let mut bytes = 0u64;
                let mut touched = 0u64;
                let mut n = 0u64;
                let mut err = None;
                for (slot, old) in targets {
                    let mut new = old.clone();
                    let mut eval_err = None;
                    for (col, e) in sets {
                        match eval(e, &old, params) {
                            Ok(v) => new[*col] = v,
                            Err(e) => {
                                eval_err = Some(e);
                                break;
                            }
                        }
                    }
                    if let Some(e) = eval_err {
                        err = Some(e);
                        break;
                    }
                    coerce_row(&mut new, &schema);
                    if ctx.tables[scan.table.0 as usize]
                        .update(slot, new.clone(), ctx.txn.id)
                        .is_err()
                    {
                        err = Some(ExecError::Conflict);
                        break;
                    }
                    for im in &index_metas {
                        if im.columns.iter().any(|c| old[*c] != new[*c]) {
                            // Stale old-key entries are lazily re-checked
                            // by scans and reclaimed by GC; insert the
                            // fresh key now.
                            ctx.indexes[im.id.0 as usize]
                                .insert(key_from_row(&new, &im.columns), slot);
                            touched += 1;
                        }
                    }
                    let b = row_bytes(&new) as u64;
                    ctx.txns.log_write(
                        ctx.txn,
                        UndoRef {
                            table: scan.table,
                            slot,
                            redo_bytes: b + 32,
                        },
                    );
                    bytes += b;
                    n += 1;
                }
                match err {
                    Some(e) => Err(e),
                    None => Ok((n, bytes, touched)),
                }
            }
        }
    };
    match run_result {
        Ok((n, bytes, touched)) => {
            let feats = vec![n, bytes, touched.max(1)];
            let mem = ctx.charge(EngineOu::Update, &feats);
            ctx.finish(EngineOu::Update, feats, mem);
            ctx.obs_exit(hdr, n);
            Ok(ExecOutcome {
                rows: Vec::new(),
                rows_affected: n,
            })
        }
        Err(e) => {
            let feats = vec![0, 0, 0];
            ctx.finish(EngineOu::Update, feats, 0);
            ctx.obs_exit(hdr, 0);
            Err(e)
        }
    }
}

fn exec_delete(
    ctx: &mut ExecCtx<'_>,
    scan: &ScanNode,
    params: &[Value],
) -> Result<ExecOutcome, ExecError> {
    let hdr = ctx.obs_enter();
    let scan_tok = ctx.obs_enter();
    let targets = exec_scan(ctx, scan, params);
    ctx.obs_exit(scan_tok, targets.as_ref().map_or(0, |t| t.len() as u64));
    ctx.begin(EngineOu::Delete);
    let targets = match targets {
        Ok(t) => t,
        Err(e) => {
            ctx.finish(EngineOu::Delete, vec![0, 0], 0);
            ctx.obs_exit(hdr, 0);
            return Err(e);
        }
    };
    let n_indexes = ctx.catalog.table_indexes(scan.table).len() as u64;
    let mut n = 0u64;
    let mut conflict = false;
    for (slot, row) in targets {
        if ctx.tables[scan.table.0 as usize]
            .delete(slot, ctx.txn.id)
            .is_err()
        {
            conflict = true;
            break;
        }
        ctx.txns.log_write(
            ctx.txn,
            UndoRef {
                table: scan.table,
                slot,
                redo_bytes: row_bytes(&row) as u64 / 4 + 32,
            },
        );
        n += 1;
    }
    let feats = vec![n, n_indexes];
    let mem = ctx.charge(EngineOu::Delete, &feats);
    ctx.finish(EngineOu::Delete, feats, mem);
    ctx.obs_exit(hdr, n);
    if conflict {
        Err(ExecError::Conflict)
    } else {
        Ok(ExecOutcome {
            rows: Vec::new(),
            rows_affected: n,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Schema;

    fn i(v: i64) -> Value {
        Value::Int(v)
    }

    #[test]
    fn eval_arithmetic_and_coercion() {
        let row = vec![i(10), Value::Float(2.5)];
        let e = PExpr::bin(PExpr::Col(0), BinOp::Add, PExpr::Col(1));
        assert_eq!(eval(&e, &row, &[]).unwrap(), Value::Float(12.5));
        let e = PExpr::bin(PExpr::Col(0), BinOp::Mul, PExpr::Lit(i(3)));
        assert_eq!(eval(&e, &row, &[]).unwrap(), i(30));
        let e = PExpr::bin(PExpr::Param(0), BinOp::Sub, PExpr::Lit(i(1)));
        assert_eq!(eval(&e, &row, &[i(5)]).unwrap(), i(4));
    }

    #[test]
    fn eval_comparisons_and_logic() {
        let row = vec![i(10)];
        let lt = PExpr::bin(PExpr::Col(0), BinOp::Lt, PExpr::Lit(i(20)));
        let gt = PExpr::bin(PExpr::Col(0), BinOp::Gt, PExpr::Lit(i(20)));
        assert_eq!(eval(&lt, &row, &[]).unwrap(), Value::Bool(true));
        assert_eq!(eval(&gt, &row, &[]).unwrap(), Value::Bool(false));
        let and = PExpr::bin(lt.clone(), BinOp::And, gt.clone());
        let or = PExpr::bin(lt, BinOp::Or, gt);
        assert_eq!(eval(&and, &row, &[]).unwrap(), Value::Bool(false));
        assert_eq!(eval(&or, &row, &[]).unwrap(), Value::Bool(true));
    }

    #[test]
    fn eval_errors_are_reported_not_panics() {
        assert!(matches!(
            eval(&PExpr::Col(5), &[], &[]),
            Err(ExecError::Eval(_))
        ));
        assert!(matches!(
            eval(&PExpr::Param(2), &[], &[]),
            Err(ExecError::Eval(_))
        ));
        let bad = PExpr::bin(
            PExpr::Lit(Value::Text("x".into())),
            BinOp::Add,
            PExpr::Lit(i(1)),
        );
        assert!(matches!(eval(&bad, &[], &[]), Err(ExecError::Eval(_))));
    }

    #[test]
    fn truthiness_treats_null_and_nonbool_as_false() {
        assert!(!truthy(&Value::Null));
        assert!(!truthy(&i(1)));
        assert!(!truthy(&Value::Bool(false)));
        assert!(truthy(&Value::Bool(true)));
    }

    #[test]
    fn coerce_row_widens_ints_for_float_columns() {
        let schema = Schema::new(&[("a", DataType::Int), ("b", DataType::Float)]);
        let mut row = vec![i(1), i(2)];
        coerce_row(&mut row, &schema);
        assert_eq!(row, vec![i(1), Value::Float(2.0)]);
    }

    #[test]
    fn agg_states_compute_sql_semantics() {
        // COUNT counts rows including nulls; SUM/AVG/MIN/MAX skip nulls.
        let mut count = AggState::new(AggFunc::Count);
        let mut sum = AggState::new(AggFunc::Sum);
        let mut avg = AggState::new(AggFunc::Avg);
        let mut min = AggState::new(AggFunc::Min);
        let mut max = AggState::new(AggFunc::Max);
        for v in [i(4), Value::Null, i(10)] {
            count.update(Some(&v));
            sum.update(Some(&v));
            avg.update(Some(&v));
            min.update(Some(&v));
            max.update(Some(&v));
        }
        assert_eq!(count.finish(), i(3));
        assert_eq!(sum.finish(), i(14));
        assert_eq!(avg.finish(), Value::Float(7.0));
        assert_eq!(min.finish(), i(4));
        assert_eq!(max.finish(), i(10));
    }

    #[test]
    fn empty_aggregates_yield_null_and_zero() {
        assert_eq!(AggState::new(AggFunc::Count).finish(), i(0));
        assert_eq!(AggState::new(AggFunc::Sum).finish(), Value::Null);
        assert_eq!(AggState::new(AggFunc::Avg).finish(), Value::Null);
        assert_eq!(AggState::new(AggFunc::Min).finish(), Value::Null);
    }

    #[test]
    fn float_sum_stays_float() {
        let mut sum = AggState::new(AggFunc::Sum);
        sum.update(Some(&Value::Float(1.5)));
        sum.update(Some(&i(2)));
        assert_eq!(sum.finish(), Value::Float(3.5));
    }
}
