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
//! Rows are pushed: an operator hands each row it produces to its
//! parent's sink, borrowed for the call, and a scan hands over the stored
//! row itself — only Sort, a hash join's build side, Aggregate's groups
//! and the result set own rows. The virtual clock moves only at an OU's
//! begin, charge and finish, so row work may cross marker boundaries; the
//! marker sequence, feature vectors and charges do not move. An operator
//! that fails keeps its error, ignores the rows that follow and returns it
//! once its input is drained, so every OU beneath it has charged.
//!
//! Operators do real work on real tuples; the simulation cost model
//! ([`ou::work_for`]) additionally charges virtual CPU time so the
//! kernel's counters and clocks reflect the work.

pub mod obs;
pub mod ou;
pub mod plan;

use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};
use std::slice;

use tscout::{OuId, TScout};
use tscout_kernel::{Kernel, TaskId};

use crate::catalog::{Catalog, TableId};
use crate::decls;
use crate::engine::DbMetrics;
use crate::index::{key_from_row, row_key_cmp, Index, IndexKey};
use crate::sql::ast::{AggFunc, BinOp};
use crate::stat::RowSource;
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

/// Where an operator hands each row it produces, borrowed for the call.
type Sink<'s> = &'s mut dyn FnMut(&[Value]);

/// Everything the executor needs, borrowed disjointly from the engine.
#[allow(missing_debug_implementations)] // a `RowSource` is a closure, which has no `Debug`
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
    /// Where virtual scans read their rows; `None` is the kernel's own
    /// registry.
    pub rows: Option<RowSource<'a>>,
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
            rows: None,
            fused: None,
            metrics,
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
        // Bracket the charge with clock reads so the observation captures
        // exactly this OU's modeled elapsed ns. Reads only — the charge
        // itself is identical with observation off.
        let t0 = self.obs.is_some().then(|| self.kernel.now(self.task));
        self.kernel
            .charge_cpu(self.task, w.instructions, w.ws_bytes);
        if let (Some(t0), Some(o)) = (t0, self.obs.as_mut()) {
            o.record_ou(eou, self.kernel.now(self.task) - t0, features);
        }
        w.mem_bytes
    }

    fn finish(&mut self, eou: EngineOu, features: &[u64], mem_bytes: u64) {
        if let Some(groups) = &mut self.fused {
            if let Some(ous) = self.ous {
                groups.push((ous.id(eou), features.to_vec()));
            }
            return;
        }
        if let (Some(ts), Some(ous)) = (self.ts.as_deref_mut(), self.ous) {
            let id = ous.id(eou);
            ts.ou_end(self.kernel, self.task, id);
            ts.ou_features(self.kernel, self.task, id, features, &[mem_bytes]);
        }
    }

    /// Log a write of `redo_bytes` to `slot` in the transaction's undo set.
    fn log_write(&mut self, table: TableId, slot: SlotId, redo_bytes: u64) {
        let undo = UndoRef {
            table,
            slot,
            redo_bytes,
        };
        self.txns.log_write(self.txn, undo);
    }

    /// Charge the OU's modeled work and finish it.
    fn charge_and_finish(&mut self, eou: EngineOu, features: &[u64]) {
        let mem = self.charge(eou, features);
        self.finish(eou, features, mem);
    }

    /// Fail a begun OU: finish it uncharged with the features counted
    /// before the error, so every begun sample is delivered or lost.
    fn fail<T>(&mut self, eou: EngineOu, features: &[u64], e: ExecError) -> Result<T, ExecError> {
        self.finish(eou, features, 0);
        Err(e)
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

/// Evaluate expressions that reference no column into a row.
fn eval_row(exprs: &[PExpr], params: &[Value]) -> Result<Row, ExecError> {
    exprs.iter().map(|e| eval(e, &[], params)).collect()
}

/// Does `row` pass `filter`? No filter passes every row.
fn passes(filter: Option<&PExpr>, row: &[Value], params: &[Value]) -> Result<bool, ExecError> {
    filter.map_or(Ok(true), |f| eval(f, row, params).map(|v| truthy(&v)))
}

/// An operator's per-row work while rows are pushed through it: the first
/// error is kept in `failed`, and the rows after it are ignored.
fn keep_first(failed: &mut Option<ExecError>, work: impl FnOnce() -> Result<(), ExecError>) {
    if failed.is_none() {
        *failed = work().err();
    }
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
    // A DML statement is one observation node over its rows affected.
    let written = match p {
        Plan::Insert { table, rows } => observed(ctx, |ctx| exec_insert(ctx, *table, rows, params)),
        Plan::Update { scan, sets } => observed(ctx, |ctx| exec_update(ctx, scan, sets, params)),
        Plan::Delete { scan } => observed(ctx, |ctx| exec_delete(ctx, scan, params)),
        Plan::Query { root } => return exec_query(ctx, root, params),
        other => Err(ExecError::Eval(format!(
            "plan {other:?} must be handled by the engine"
        ))),
    };
    written.map(|n| ExecOutcome {
        rows: Vec::new(),
        rows_affected: n,
    })
}

/// Run `f` as one observation node, bracketed by virtual-clock reads, whose
/// rows are the count it returns (zero-cost when observation is off).
fn observed(
    ctx: &mut ExecCtx<'_>,
    f: impl FnOnce(&mut ExecCtx<'_>) -> Result<u64, ExecError>,
) -> Result<u64, ExecError> {
    let node = ctx.obs.as_mut().map(|o| o.enter(ctx.kernel.now(ctx.task)));
    let result = f(ctx);
    if let (Some(node), Some(o)) = (node, ctx.obs.as_mut()) {
        let rows = *result.as_ref().unwrap_or(&0);
        o.exit(node, ctx.kernel.now(ctx.task), rows);
    }
    result
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

    // The result set: the one place a query's rows are owned.
    let (mut rows, mut bytes) = (Vec::new(), 0usize);
    let result = run(ctx, root, params, &mut |r| {
        bytes += row_bytes(r);
        rows.push(r.to_vec());
    });

    // Output OU: materializing the result for the client.
    let outcome = result.map(|_| {
        ctx.begin(EngineOu::Output);
        ctx.charge_and_finish(EngineOu::Output, &[rows.len() as u64, bytes as u64]);
        ExecOutcome {
            rows_affected: rows.len() as u64,
            rows,
        }
    });

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

/// Run `node`, handing each row it produces to `sink`; returns how many
/// it handed over.
fn run(
    ctx: &mut ExecCtx<'_>,
    node: &PlanNode,
    params: &[Value],
    sink: Sink<'_>,
) -> Result<u64, ExecError> {
    // Observation nodes are assigned in pre-order execution order — the
    // same order `plan::explain` renders operator lines — so annotations
    // line up with the rendered tree by ordinal.
    observed(ctx, |ctx| run_node(ctx, node, params, sink))
}

fn run_node(
    ctx: &mut ExecCtx<'_>,
    node: &PlanNode,
    params: &[Value],
    sink: Sink<'_>,
) -> Result<u64, ExecError> {
    match node {
        PlanNode::Scan(s) => exec_scan(ctx, s, params, &mut |_, r| sink(r)),
        PlanNode::VirtualScan { name, residual } => {
            // Materialize from a live telemetry registry. Virtual scans
            // are introspection, not workload: they charge CPU (registry
            // lock + per-row formatting) but emit no TScout markers, so
            // they never pollute the training data they report on.
            let _frame = ctx.kernel.profile_frame(ctx.task, &decls::VIRTUAL_SCAN);
            let all = crate::stat::virtual_rows(name, ctx.rows, &ctx.kernel.telemetry);
            let ws: u64 = all.iter().map(|r| row_bytes(r) as u64).sum();
            ctx.kernel
                .charge_cpu(ctx.task, 2_000.0 + 400.0 * all.len() as f64, ws);
            // Introspection, not workload: resolved uncached per scan.
            crate::decls::VIRTUAL_SCANS
                .with(&ctx.kernel.telemetry, &[("table", name)])
                .inc();
            let mut kept = 0;
            for row in &all {
                if passes(residual.as_ref(), row, params)? {
                    kept += 1;
                    sink(row);
                }
            }
            Ok(kept)
        }
        PlanNode::HashJoin {
            left,
            right,
            left_key,
            right_key,
            residual,
        } => {
            // Build: each left row is stored flat and chained under its key.
            let mut build = BuildSide::default();
            let (mut build_rows, mut build_bytes, mut build_err) = (0u64, 0usize, None);
            run(ctx, left, params, &mut |r| {
                keep_first(&mut build_err, || {
                    build.insert(eval(left_key, r, params)?, r);
                    build_rows += 1;
                    build_bytes += row_bytes(r);
                    Ok(())
                });
            })?;

            // Probe: each right row meets its matches in one reused row.
            let (mut probes, mut matches, mut probe_err) = (0u64, 0u64, None);
            let mut joined = Vec::new();
            run(ctx, right, params, &mut |r| {
                if build_err.is_some() {
                    return;
                }
                keep_first(&mut probe_err, || {
                    for b in build.matches(&eval(right_key, r, params)?) {
                        joined.clear();
                        joined.extend_from_slice(b);
                        joined.extend_from_slice(r);
                        if passes(residual.as_ref(), &joined, params)? {
                            matches += 1;
                            sink(&joined);
                        }
                    }
                    probes += 1;
                    Ok(())
                });
            })?;

            // Both phases' markers come after both children ran.
            let build_feats = [build_rows, build_bytes as u64];
            ctx.begin(EngineOu::HashJoinBuild);
            if let Some(e) = build_err {
                return ctx.fail(EngineOu::HashJoinBuild, &build_feats, e);
            }
            ctx.charge_and_finish(EngineOu::HashJoinBuild, &build_feats);
            ctx.begin(EngineOu::HashJoinProbe);
            if let Some(e) = probe_err {
                return ctx.fail(EngineOu::HashJoinProbe, &[probes, matches], e);
            }
            ctx.charge_and_finish(EngineOu::HashJoinProbe, &[probes, matches]);
            Ok(matches)
        }
        PlanNode::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let new_states = || aggs.iter().map(|(f, _)| AggState::new(*f)).collect();
            let update = |states: &mut Vec<AggState>, r: &[Value]| {
                for (state, (_, col)) in states.iter_mut().zip(aggs) {
                    state.update(col.map(|c| &r[c]));
                }
            };
            let mut groups: BTreeMap<Row, Vec<AggState>> = BTreeMap::new();
            let (mut key, mut rows_in) = (Vec::with_capacity(group_by.len()), 0u64);
            run(ctx, input, params, &mut |r| {
                rows_in += 1;
                key.clear();
                key.extend(group_by.iter().map(|c| r[*c].clone()));
                // Looked up by the reused key; only a new group keeps a copy.
                match groups.get_mut(key.as_slice()) {
                    Some(states) => update(states, r),
                    None => {
                        let mut states = new_states();
                        update(&mut states, r);
                        groups.insert(key.clone(), states);
                    }
                }
            })?;
            ctx.begin(EngineOu::AggBuild);
            // A global aggregate over zero rows still yields one group.
            if groups.is_empty() && group_by.is_empty() {
                groups.insert(Vec::new(), new_states());
            }
            let n = groups.len() as u64;
            ctx.charge_and_finish(EngineOu::AggBuild, &[rows_in, n]);
            for (mut row, states) in groups {
                row.extend(states.into_iter().map(AggState::finish));
                sink(&row);
            }
            Ok(n)
        }
        PlanNode::Sort { input, by } => {
            let (mut rows, mut bytes) = (Vec::new(), 0usize);
            run(ctx, input, params, &mut |r| {
                bytes += row_bytes(r);
                rows.push(r.to_vec());
            })?;
            ctx.begin(EngineOu::Sort);
            rows.sort_by(|a, b| {
                let column = |&(col, desc): &(usize, bool)| {
                    let (x, y) = if desc { (b, a) } else { (a, b) };
                    x[col].cmp(&y[col])
                };
                by.iter()
                    .fold(Ordering::Equal, |o, c| o.then_with(|| column(c)))
            });
            ctx.charge_and_finish(EngineOu::Sort, &[rows.len() as u64, bytes as u64]);
            for r in &rows {
                sink(r);
            }
            Ok(rows.len() as u64)
        }
        PlanNode::Limit { input, n } => {
            // The child is drained all the same: what it examines is charged.
            let mut left = *n;
            run(ctx, input, params, &mut |r| {
                if left > 0 {
                    left -= 1;
                    sink(r);
                }
            })?;
            Ok(n - left)
        }
        PlanNode::Project { input, exprs } => {
            let (mut row, mut kept, mut failed) = (Vec::with_capacity(exprs.len()), 0u64, None);
            run(ctx, input, params, &mut |r| {
                keep_first(&mut failed, || {
                    row.clear();
                    for e in exprs {
                        row.push(eval(e, r, params)?);
                    }
                    kept += 1;
                    sink(&row);
                    Ok(())
                });
            })?;
            failed.map_or(Ok(kept), Err)
        }
    }
}

/// A hash join's build side, flat: row `i` is `values[i * width..][..width]`,
/// and the rows sharing a key are chained in insertion order — `heads`
/// holds each key's first and last row, `next` each row's successor — so a
/// probe meets its matches in the order they were built.
#[derive(Default)]
struct BuildSide {
    width: usize,
    values: Vec<Value>,
    heads: HashMap<Value, (usize, usize)>,
    next: Vec<usize>,
}

impl BuildSide {
    /// Add a row under `key`; every row of one plan node has one width.
    fn insert(&mut self, key: Value, row: &[Value]) {
        let i = self.next.len();
        self.width = row.len();
        self.values.extend_from_slice(row);
        self.next.push(i);
        let (_, last) = self.heads.entry(key).or_insert((i, i));
        self.next[*last] = i;
        *last = i;
    }

    fn matches<'b>(&'b self, key: &Value) -> impl Iterator<Item = &'b [Value]> + 'b {
        let mut chain = self.heads.get(key).copied();
        std::iter::from_fn(move || {
            let (i, last) = chain?;
            chain = (i != last).then(|| (self.next[i], last));
            Some(&self.values[i * self.width..][..self.width])
        })
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

/// Run a scan: every visible row that passes the residual goes to `emit`
/// with its slot (DML needs the slots), borrowed from storage. Returns how
/// many rows it handed over.
fn exec_scan(
    ctx: &mut ExecCtx<'_>,
    scan: &ScanNode,
    params: &[Value],
    emit: &mut dyn FnMut(SlotId, &[Value]),
) -> Result<u64, ExecError> {
    let eval_bound = |e: &Option<PExpr>| e.as_ref().map(|e| eval(e, &[], params)).transpose();
    // A point or prefix scan matches one key, a range scan its one-value
    // bounds; either is evaluated before the OU begins.
    let (index, key, lo, hi) = match &scan.access {
        Access::Full => return seq_scan(ctx, scan, params, emit),
        Access::Point { index, key } | Access::Prefix { index, key } => {
            (index, eval_row(key, params)?, None, None)
        }
        Access::Range { index, lo, hi } => (index, Vec::new(), eval_bound(lo)?, eval_bound(hi)?),
    };
    let point = matches!(scan.access, Access::Point { .. });
    let eou = if point {
        EngineOu::IdxLookup
    } else {
        EngineOu::IdxRangeScan
    };
    let (lo, hi) = (
        lo.as_ref().map(slice::from_ref),
        hi.as_ref().map(slice::from_ref),
    );
    ctx.begin(eou);
    let (read_ts, me) = (ctx.txn.read_ts, ctx.txn.id);
    let catalog = ctx.catalog;
    let cols = &catalog.index(*index).columns;
    let idx = &ctx.indexes[index.0 as usize];
    // A point lookup borrows its postings; the other scans collect theirs.
    let collected = match &scan.access {
        Access::Point { .. } => None,
        Access::Prefix { .. } => Some(idx.prefix(&key)),
        _ => Some(idx.range(lo, hi)),
    };
    let (slots, examined) = collected
        .as_ref()
        .map_or_else(|| idx.get(&key), |(s, n)| (s, *n));
    // Re-check the key: stale index entries may point at slots whose
    // visible version no longer matches.
    let on_key = |r: &[Value]| match &scan.access {
        Access::Range { .. } => {
            lo.is_none_or(|l| row_key_cmp(r, cols, l).is_ge())
                && hi.is_none_or(|h| row_key_cmp(r, cols, h).is_le())
        }
        _ => cols
            .get(..key.len())
            .is_some_and(|cols| row_key_cmp(r, cols, &key).is_eq()),
    };
    let depth = idx.depth() as u64;
    let table = &ctx.tables[scan.table.0 as usize];
    let (mut kept, mut failed) = (0u64, None);
    for &slot in slots {
        let Some(r) = table.read(slot, read_ts, me) else {
            continue;
        };
        keep_first(&mut failed, || {
            if on_key(r) && passes(scan.residual.as_ref(), r, params)? {
                kept += 1;
                emit(slot, r);
            }
            Ok(())
        });
    }
    let examined = examined as u64;
    let (lookup, range) = ([examined, depth, kept], [examined, kept]);
    let feats: &[u64] = if point { &lookup } else { &range };
    if let Some(e) = failed {
        return ctx.fail(eou, feats, e);
    }
    ctx.charge_and_finish(eou, feats);
    Ok(kept)
}

/// A full scan: SeqScan charges every visible row, then its residual
/// is a Filter OU over all of them.
fn seq_scan(
    ctx: &mut ExecCtx<'_>,
    scan: &ScanNode,
    params: &[Value],
    emit: &mut dyn FnMut(SlotId, &[Value]),
) -> Result<u64, ExecError> {
    let (read_ts, me) = (ctx.txn.read_ts, ctx.txn.id);
    ctx.begin(EngineOu::SeqScan);
    let table = &ctx.tables[scan.table.0 as usize];
    let residual = scan.residual.as_ref();
    let (mut examined, mut visible, mut bytes) = (0u64, 0usize, 0usize);
    let (mut kept, mut filtered, mut failed) = (0u64, 0u64, None);
    for (slot, r) in table.scan(read_ts, me) {
        examined += 1;
        let Some(r) = r else {
            continue;
        };
        visible += 1;
        bytes += row_bytes(r);
        // Every row counts towards SeqScan, whatever the Filter does.
        keep_first(&mut failed, || {
            if passes(residual, r, params)? {
                kept += 1;
                emit(slot, r);
            }
            filtered += 1;
            Ok(())
        });
    }
    let avg = bytes.checked_div(visible).unwrap_or(0);
    ctx.charge_and_finish(EngineOu::SeqScan, &[examined, avg as u64]);
    if residual.is_some() {
        ctx.begin(EngineOu::Filter);
        if let Some(e) = failed {
            return ctx.fail(EngineOu::Filter, &[filtered], e);
        }
        ctx.charge_and_finish(EngineOu::Filter, &[visible as u64]);
    }
    Ok(kept)
}

fn exec_insert(
    ctx: &mut ExecCtx<'_>,
    table_id: TableId,
    row_exprs: &[Vec<PExpr>],
    params: &[Value],
) -> Result<u64, ExecError> {
    ctx.begin(EngineOu::Insert);
    let catalog = ctx.catalog;
    let meta = catalog.table(table_id);
    let index_metas = || meta.indexes.iter().map(|id| catalog.index(*id));
    let n_indexes = meta.indexes.len() as u64;
    let (mut inserted, mut total_bytes) = (0u64, 0u64);
    let written = row_exprs.iter().try_for_each(|exprs| {
        let mut row = eval_row(exprs, params)?;
        coerce_row(&mut row, &meta.schema);
        // The keys the indexes will own; unique ones are checked first.
        let keys: Vec<IndexKey> = index_metas()
            .map(|im| key_from_row(&row, &im.columns))
            .collect();
        let table = &ctx.tables[table_id.0 as usize];
        let taken = index_metas().zip(&keys).find(|(im, key)| {
            let (slots, _) = ctx.indexes[im.id.0 as usize].get(key);
            im.unique
                && slots.iter().any(|&slot| {
                    table
                        .read(slot, ctx.txn.read_ts, ctx.txn.id)
                        .is_some_and(|existing| row_key_cmp(existing, &im.columns, key).is_eq())
                })
        });
        if let Some((im, _)) = taken {
            return Err(ExecError::UniqueViolation(im.name.clone()));
        }
        let bytes = row_bytes(&row) as u64;
        let slot = ctx.tables[table_id.0 as usize].insert(row, ctx.txn.id);
        for (im, key) in index_metas().zip(keys) {
            ctx.indexes[im.id.0 as usize].insert(key, slot);
        }
        ctx.log_write(table_id, slot, bytes + 32);
        total_bytes += bytes;
        inserted += 1;
        Ok(())
    });
    let feats = [inserted, total_bytes, n_indexes];
    if let Err(e) = written {
        // Still finish the marker triple so the collector stays consistent.
        ctx.finish(EngineOu::Insert, &feats, total_bytes);
        return Err(e);
    }
    let mem = ctx.charge(EngineOu::Insert, &feats);
    ctx.finish(EngineOu::Insert, &feats, mem.max(total_bytes));
    Ok(inserted)
}

fn exec_update(
    ctx: &mut ExecCtx<'_>,
    scan: &ScanNode,
    sets: &[(usize, PExpr)],
    params: &[Value],
) -> Result<u64, ExecError> {
    // The child scan runs first (emitting its own OUs); the UPDATE OU
    // covers only the update work itself so its features explain its
    // metrics — the OU-decomposition principle of §2.1.
    let catalog = ctx.catalog;
    let meta = catalog.table(scan.table);
    let index_metas = || meta.indexes.iter().map(|id| catalog.index(*id));
    // Each target's new row is built from the borrowed old one as the scan
    // hands it over, with a flat mask of the indexes whose key it changes
    // (one flag per index per row). A SET that fails ends the collection;
    // the rows before it are still written, as they were one by one.
    let (mut targets, mut changed, mut set_err) = (Vec::<(SlotId, Row)>::new(), Vec::new(), None);
    let scanned = observed(ctx, |ctx| {
        exec_scan(ctx, scan, params, &mut |slot, old| {
            keep_first(&mut set_err, || {
                let mut new = old.to_vec();
                for (col, e) in sets {
                    new[*col] = eval(e, old, params)?;
                }
                coerce_row(&mut new, &meta.schema);
                changed
                    .extend(index_metas().map(|im| im.columns.iter().any(|c| old[*c] != new[*c])));
                targets.push((slot, new));
                Ok(())
            });
        })
    });
    ctx.begin(EngineOu::Update);
    let written = scanned.and_then(|_| {
        let (mut n, mut bytes, mut touched) = (0u64, 0u64, 0u64);
        let width = meta.indexes.len();
        for (t, (slot, new)) in targets.into_iter().enumerate() {
            let b = row_bytes(&new) as u64;
            let table = &mut ctx.tables[scan.table.0 as usize];
            if table.update(slot, new, ctx.txn.id).is_err() {
                return Err(ExecError::Conflict);
            }
            // Stale old-key entries are lazily re-checked by scans and
            // reclaimed by GC; only the fresh key is inserted, read from
            // the version just installed.
            let Some(new) = table.read(slot, ctx.txn.read_ts, ctx.txn.id) else {
                return Err(ExecError::Eval(
                    "an updated row is hidden from its writer".into(),
                ));
            };
            for (im, _) in index_metas().zip(&changed[t * width..]).filter(|(_, &m)| m) {
                ctx.indexes[im.id.0 as usize].insert(key_from_row(new, &im.columns), slot);
                touched += 1;
            }
            ctx.log_write(scan.table, slot, b + 32);
            bytes += b;
            n += 1;
        }
        set_err.map_or(Ok((n, bytes, touched)), Err)
    });
    let (n, bytes, touched) =
        written.inspect_err(|_| ctx.finish(EngineOu::Update, &[0, 0, 0], 0))?;
    ctx.charge_and_finish(EngineOu::Update, &[n, bytes, touched.max(1)]);
    Ok(n)
}

fn exec_delete(ctx: &mut ExecCtx<'_>, scan: &ScanNode, params: &[Value]) -> Result<u64, ExecError> {
    let mut targets = Vec::new();
    let scanned = observed(ctx, |ctx| {
        exec_scan(ctx, scan, params, &mut |slot, r| {
            targets.push((slot, row_bytes(r)));
        })
    });
    ctx.begin(EngineOu::Delete);
    scanned.inspect_err(|_| ctx.finish(EngineOu::Delete, &[0, 0], 0))?;
    let n_indexes = ctx.catalog.table(scan.table).indexes.len() as u64;
    let mut n = 0u64;
    for (slot, bytes) in targets {
        if ctx.tables[scan.table.0 as usize]
            .delete(slot, ctx.txn.id)
            .is_err()
        {
            ctx.charge_and_finish(EngineOu::Delete, &[n, n_indexes]);
            return Err(ExecError::Conflict);
        }
        ctx.log_write(scan.table, slot, bytes as u64 / 4 + 32);
        n += 1;
    }
    ctx.charge_and_finish(EngineOu::Delete, &[n, n_indexes]);
    Ok(n)
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
