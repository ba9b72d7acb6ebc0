//! The `Database` façade: sessions, SQL execution, transactions, WAL,
//! GC, and the simulated client/server networking layer.

use std::sync::Arc;

use tscout::{TScout, TsConfig, TsError};
use tscout_kernel::{Kernel, TaskId, DBMS};
use tscout_models::{input_values, LiveModel};
use tscout_telemetry::{CounterSite, HistSite};

use crate::catalog::Catalog;
use crate::decls;
use crate::exec::obs::StmtObs;
use crate::exec::ou::{work_for, EngineOu, OuMap};
use crate::exec::plan::Plan;
use crate::exec::{execute, EngineMode, ExecCtx, ExecError, ExecOutcome};
use crate::index::{key_from_row, Index, IndexKind};
use crate::sql::fingerprint::fingerprint;
use crate::sql::parser::{parse, ParseError};
use crate::sql::planner::{plan as plan_stmt, PlanError};
use crate::storage::VersionedTable;
use crate::txn::{TxnHandle, TxnManager};
use crate::types::{row_bytes, Schema, Value};
use crate::wal::{Wal, WalRecord};

/// A client session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionId(pub usize);

/// A prepared statement handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StatementId(pub usize);

/// Database errors.
#[derive(Debug)]
pub enum DbError {
    Parse(ParseError),
    Plan(PlanError),
    Catalog(crate::catalog::CatalogError),
    /// The statement failed and the enclosing transaction was aborted.
    Aborted(ExecError),
    NoSuchStatement,
    NoTransaction,
    /// The statement kind was rejected by the read-only entry point
    /// ([`Database::execute_readonly`]).
    ReadOnly(&'static str),
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::Parse(e) => write!(f, "parse error: {e}"),
            DbError::Plan(e) => write!(f, "plan error: {e}"),
            DbError::Catalog(e) => write!(f, "catalog error: {e}"),
            DbError::Aborted(e) => write!(f, "transaction aborted: {e}"),
            DbError::NoSuchStatement => write!(f, "no such prepared statement"),
            DbError::NoTransaction => write!(f, "no open transaction"),
            DbError::ReadOnly(kind) => {
                write!(f, "read-only endpoint: {kind} statements are rejected")
            }
        }
    }
}

impl std::error::Error for DbError {}

#[derive(Debug)]
struct Session {
    task: TaskId,
    txn: Option<TxnHandle>,
}

#[derive(Debug)]
struct Prepared {
    #[allow(dead_code)]
    sql: String,
    /// Shared like the fingerprint below (`run_plan` borrows `self`
    /// mutably, so an execution needs a plan of its own to read): the
    /// per-execution hot path clones two refcounts, not a plan tree and
    /// a string.
    plan: Arc<Plan>,
    /// Normalized statement template for `ts_stat_statements`.
    fingerprint: Arc<str>,
}

/// The NoiseTap DBMS instance.
#[derive(Debug)]
pub struct Database {
    pub kernel: Kernel,
    ts: Option<TScout>,
    ous: Option<OuMap>,
    catalog: Catalog,
    tables: Vec<VersionedTable>,
    indexes: Vec<Index>,
    txns: TxnManager,
    pub wal: Wal,
    gc_task: TaskId,
    sessions: Vec<Session>,
    stmts: Vec<Prepared>,
    /// Marker placement (per-operator vs fused pipelines, §5.2).
    pub mode: EngineMode,
    /// Versions pruned by GC so far.
    pub gc_pruned: u64,
    /// Record per-statement actuals into `ts_stat_statements`. Recording
    /// is clock-neutral on the session task (reads only); its accounting
    /// cost is charged by the driver at pump cadence, so the training
    /// samples a traced workload produces are bit-identical on/off.
    pub stmt_stats_enabled: bool,
    /// Snapshot of the live model generation, for predicted-vs-actual
    /// cost attribution (EXPLAIN ANALYZE, ts_stat_statements MAPE).
    live_model: Option<LiveModel>,
    /// Concurrency context feature used at prediction time — must match
    /// the training datasets' appended concurrency column.
    model_concurrency: f64,
    /// Pooled statement-observation buffer: the per-statement hot path
    /// takes it, resets it, and returns it, so steady-state recording
    /// allocates nothing.
    obs_scratch: StmtObs,
    /// Pooled per-OU breakdown buffer for `record_stmt` (same idea).
    breakdown_scratch: Vec<(&'static str, f64)>,
    metrics: DbMetrics,
}

/// The engine's metrics (declared in [`crate::decls`]): each series
/// registers on first use.
#[derive(Debug)]
pub struct DbMetrics {
    txn_commits: CounterSite,
    txn_writes: CounterSite,
    txn_aborts: CounterSite,
    explain_analyze: CounterSite,
    client_requests: CounterSite,
    client_request_ns: HistSite,
    gc_sweeps: CounterSite,
    gc_pruned: CounterSite,
    pub(crate) pipelines: CounterSite,
    pub(crate) pipeline_ous: CounterSite,
    pub(crate) pipeline_fanout: HistSite,
}

impl Default for DbMetrics {
    fn default() -> Self {
        DbMetrics {
            txn_commits: decls::TXN_COMMITS.site(&[]),
            txn_writes: decls::TXN_WRITES.site(&[]),
            txn_aborts: decls::TXN_ABORTS.site(&[]),
            explain_analyze: decls::EXPLAIN_ANALYZE.site(&[]),
            client_requests: decls::CLIENT_REQUESTS.site(&[]),
            client_request_ns: decls::CLIENT_REQUEST_NS.site(&[]),
            gc_sweeps: decls::GC_SWEEPS.site(&[]),
            gc_pruned: decls::GC_PRUNED.site(&[]),
            pipelines: decls::PIPELINES.site(&[]),
            pipeline_ous: decls::PIPELINE_OUS.site(&[]),
            pipeline_fanout: decls::PIPELINE_FANOUT.site(&[]),
        }
    }
}

impl Database {
    pub fn new(kernel: Kernel) -> Database {
        let mut kernel = kernel;
        let wal = Wal::new(&mut kernel);
        let gc_task = kernel.create_task();
        Database {
            kernel,
            ts: None,
            ous: None,
            catalog: Catalog::new(),
            tables: Vec::new(),
            indexes: Vec::new(),
            txns: TxnManager::new(),
            wal,
            gc_task,
            sessions: Vec::new(),
            stmts: Vec::new(),
            mode: EngineMode::PerOperator,
            gc_pruned: 0,
            stmt_stats_enabled: true,
            live_model: None,
            model_concurrency: 1.0,
            obs_scratch: StmtObs::default(),
            breakdown_scratch: Vec::new(),
            metrics: DbMetrics::default(),
        }
    }

    // ------------------------------------------------------------------
    // Model installation (predicted-vs-actual attribution)
    // ------------------------------------------------------------------

    /// Install the current live model snapshot (or clear it with `None`).
    /// `concurrency` is the context feature the lifecycle trained with
    /// (the driver passes its terminal count).
    pub fn install_live_model(&mut self, live: Option<LiveModel>, concurrency: f64) {
        self.live_model = live;
        self.model_concurrency = concurrency.max(1.0);
    }

    /// Generation of the installed model snapshot, if any.
    pub fn live_model_generation(&self) -> Option<u64> {
        self.live_model.as_ref().map(|m| m.generation)
    }

    /// Predict one OU invocation's elapsed ns from its charged features,
    /// in the row layout the training datasets use.
    fn predict_ou_ns(&self, ou: &str, features: &[u64]) -> Option<f64> {
        let live = self.live_model.as_ref()?;
        let own = features.iter().map(|&v| v as f64);
        let row: Vec<f64> =
            input_values(own, self.kernel.hw.clock_ghz, self.model_concurrency).collect();
        live.models.predict_ns(ou, &row)
    }

    /// Predicted total ns for an observed statement (sum over its OU
    /// charges); `None` when no model is installed or no OU had one.
    fn predict_stmt_ns(&self, obs: &StmtObs) -> Option<f64> {
        self.live_model.as_ref()?;
        let mut sum = 0.0;
        let mut any = false;
        for c in &obs.ou {
            if let Some(p) = self.predict_ou_ns(c.name, &c.features) {
                sum += p;
                any = true;
            }
        }
        any.then_some(sum)
    }

    // ------------------------------------------------------------------
    // TScout lifecycle
    // ------------------------------------------------------------------

    /// Deploy TScout against this DBMS (Setup Phase): registers all engine
    /// OUs and instruments every existing task.
    pub fn attach_tscout(&mut self, config: TsConfig) -> Result<(), TsError> {
        let mut ts = TScout::deploy(&mut self.kernel, config)?;
        let ous = OuMap::register(&mut ts);
        ts.register_thread(&mut self.kernel, self.wal.task);
        ts.register_thread(&mut self.kernel, self.gc_task);
        for s in &self.sessions {
            ts.register_thread(&mut self.kernel, s.task);
        }
        self.ts = Some(ts);
        self.ous = Some(ous);
        Ok(())
    }

    /// Unload TScout (dynamic reconfiguration, §5.4). Returns the config
    /// for modification and redeployment.
    pub fn detach_tscout(&mut self) -> Option<TsConfig> {
        self.ous = None;
        self.ts.take().map(|ts| ts.teardown(&mut self.kernel))
    }

    pub fn tscout(&self) -> Option<&TScout> {
        self.ts.as_ref()
    }

    pub fn tscout_mut(&mut self) -> Option<&mut TScout> {
        self.ts.as_mut()
    }

    /// Split borrow for the Processor: `(kernel, tscout)`.
    pub fn collection_parts(&mut self) -> (&mut Kernel, Option<&mut TScout>) {
        (&mut self.kernel, self.ts.as_mut())
    }

    /// Split borrow for the action engine's actuator:
    /// `(kernel, tscout, engine mode)`. The mode reference lets the
    /// `toggle_pipeline` policy switch fused vs per-operator marker
    /// placement mid-run; the switch affects only OUs begun afterward.
    pub fn actuation_parts(&mut self) -> (&mut Kernel, Option<&mut TScout>, &mut EngineMode) {
        (&mut self.kernel, self.ts.as_mut(), &mut self.mode)
    }

    // ------------------------------------------------------------------
    // Sessions and statements
    // ------------------------------------------------------------------

    pub fn create_session(&mut self) -> SessionId {
        let task = self.kernel.create_task();
        if let Some(ts) = &mut self.ts {
            ts.register_thread(&mut self.kernel, task);
        }
        self.sessions.push(Session { task, txn: None });
        SessionId(self.sessions.len() - 1)
    }

    pub fn session_task(&self, sid: SessionId) -> TaskId {
        self.sessions[sid.0].task
    }

    /// The session's current virtual time in nanoseconds.
    pub fn now(&self, sid: SessionId) -> f64 {
        self.kernel.now(self.session_task(sid))
    }

    pub fn prepare(&mut self, sql: &str) -> Result<StatementId, DbError> {
        let stmt = parse(sql).map_err(DbError::Parse)?;
        let plan = plan_stmt(&self.catalog, &stmt).map_err(DbError::Plan)?;
        let fingerprint = fingerprint(&stmt).into();
        self.stmts.push(Prepared {
            sql: sql.to_string(),
            plan: Arc::new(plan),
            fingerprint,
        });
        Ok(StatementId(self.stmts.len() - 1))
    }

    /// Parse, plan, and execute one statement (ad-hoc path).
    pub fn execute(
        &mut self,
        sid: SessionId,
        sql: &str,
        params: &[Value],
    ) -> Result<ExecOutcome, DbError> {
        let stmt = parse(sql).map_err(DbError::Parse)?;
        self.run_stmt(sid, &stmt, params)
    }

    /// Plan and run a parsed statement: the path both SQL entry points
    /// take.
    fn run_stmt(
        &mut self,
        sid: SessionId,
        stmt: &crate::sql::ast::Stmt,
        params: &[Value],
    ) -> Result<ExecOutcome, DbError> {
        let plan = plan_stmt(&self.catalog, stmt).map_err(DbError::Plan)?;
        let fp = self.stmt_stats_enabled.then(|| fingerprint(stmt));
        self.run_plan(sid, &plan, params, fp.as_deref())
    }

    /// Read-only SQL entry point for external observability surfaces
    /// (the obsd operator plane). Parses, rejects everything except a
    /// plain `SELECT` — DML, DDL, transaction control, `SELECT ... FOR
    /// UPDATE`, and `EXPLAIN` (whose `ANALYZE` form executes) — then
    /// routes through the normal planner and executor.
    pub fn execute_readonly(
        &mut self,
        sid: SessionId,
        sql: &str,
        params: &[Value],
    ) -> Result<ExecOutcome, DbError> {
        let stmt = parse(sql).map_err(DbError::Parse)?;
        let rejected = match &stmt {
            crate::sql::ast::Stmt::Select(sel) => {
                if sel.for_update {
                    Some("SELECT ... FOR UPDATE")
                } else {
                    None
                }
            }
            crate::sql::ast::Stmt::CreateTable { .. } => Some("CREATE TABLE"),
            crate::sql::ast::Stmt::CreateIndex { .. } => Some("CREATE INDEX"),
            crate::sql::ast::Stmt::Insert { .. } => Some("INSERT"),
            crate::sql::ast::Stmt::Update { .. } => Some("UPDATE"),
            crate::sql::ast::Stmt::Delete { .. } => Some("DELETE"),
            crate::sql::ast::Stmt::Begin => Some("BEGIN"),
            crate::sql::ast::Stmt::Commit => Some("COMMIT"),
            crate::sql::ast::Stmt::Rollback => Some("ROLLBACK"),
            crate::sql::ast::Stmt::Explain { .. } => Some("EXPLAIN"),
        };
        if let Some(kind) = rejected {
            return Err(DbError::ReadOnly(kind));
        }
        self.run_stmt(sid, &stmt, params)
    }

    /// Execute a prepared statement.
    pub fn execute_prepared(
        &mut self,
        sid: SessionId,
        stmt: StatementId,
        params: &[Value],
    ) -> Result<ExecOutcome, DbError> {
        let p = self.stmts.get(stmt.0).ok_or(DbError::NoSuchStatement)?;
        let plan = Arc::clone(&p.plan);
        let fp = self.stmt_stats_enabled.then(|| Arc::clone(&p.fingerprint));
        self.run_plan(sid, &plan, params, fp.as_deref())
    }

    // ------------------------------------------------------------------
    // Transactions
    // ------------------------------------------------------------------

    pub fn begin(&mut self, sid: SessionId) {
        if self.sessions[sid.0].txn.is_none() {
            self.sessions[sid.0].txn = Some(self.txns.begin());
        }
    }

    pub fn in_txn(&self, sid: SessionId) -> bool {
        self.sessions[sid.0].txn.is_some()
    }

    /// Commit the session's transaction: stamps versions, emits the
    /// TXN_COMMIT OU, and hands redo records to the WAL (asynchronous
    /// group commit — control returns before the flush).
    pub fn commit(&mut self, sid: SessionId) -> Result<(), DbError> {
        let txn = self.sessions[sid.0]
            .txn
            .take()
            .ok_or(DbError::NoTransaction)?;
        let task = self.sessions[sid.0].task;
        let frames = [DBMS.id(), EngineOu::TxnCommit.frame().id()];
        let _frames = self.kernel.profile_frames(task, frames);
        let (commit_ts, writes) = self.txns.commit(txn);
        for w in &writes {
            self.tables[w.table.0 as usize].commit_slot(w.slot, txn.id, commit_ts);
        }
        // TXN_COMMIT OU.
        let feats = vec![writes.len() as u64];
        if let (Some(ts), Some(ous)) = (self.ts.as_mut(), self.ous.as_ref()) {
            ts.ou_begin(&mut self.kernel, task, ous.id(EngineOu::TxnCommit));
        }
        let w = work_for(EngineOu::TxnCommit, &feats);
        self.kernel.charge_cpu(task, w.instructions, w.ws_bytes);
        if let (Some(ts), Some(ous)) = (self.ts.as_mut(), self.ous.as_ref()) {
            let id = ous.id(EngineOu::TxnCommit);
            ts.ou_end(&mut self.kernel, task, id);
            ts.ou_features(&mut self.kernel, task, id, &feats, &[0]);
        }
        if !writes.is_empty() {
            let bytes: u64 = writes.iter().map(|w| w.redo_bytes).sum();
            self.wal.append(WalRecord {
                commit_ts,
                bytes,
                writes: writes.len() as u64,
                arrival_ns: self.kernel.now(task),
            });
        }
        let (t, m) = (&self.kernel.telemetry, &self.metrics);
        m.txn_commits.get(t).inc();
        m.txn_writes.get(t).add(writes.len() as u64);
        Ok(())
    }

    /// Roll back the session's transaction.
    pub fn rollback(&mut self, sid: SessionId) -> Result<(), DbError> {
        let txn = self.sessions[sid.0]
            .txn
            .take()
            .ok_or(DbError::NoTransaction)?;
        let writes = self.txns.abort(txn);
        for w in writes.iter().rev() {
            self.tables[w.table.0 as usize].abort_slot(w.slot, txn.id);
        }
        self.metrics.txn_aborts.get(&self.kernel.telemetry).inc();
        Ok(())
    }

    // ------------------------------------------------------------------
    // Statement execution
    // ------------------------------------------------------------------

    fn run_plan(
        &mut self,
        sid: SessionId,
        plan: &Plan,
        params: &[Value],
        fp: Option<&str>,
    ) -> Result<ExecOutcome, DbError> {
        let _root = self.kernel.profile_frame(self.sessions[sid.0].task, &DBMS);
        match plan {
            Plan::Begin => {
                self.begin(sid);
                Ok(ExecOutcome::default())
            }
            Plan::Commit => {
                self.commit(sid)?;
                Ok(ExecOutcome::default())
            }
            Plan::Rollback => {
                self.rollback(sid)?;
                Ok(ExecOutcome::default())
            }
            Plan::Explain { analyze, inner } => {
                if *analyze
                    && matches!(
                        **inner,
                        Plan::Insert { .. }
                            | Plan::Update { .. }
                            | Plan::Delete { .. }
                            | Plan::Query { .. }
                    )
                {
                    return self.run_explain_analyze(sid, inner, params, fp);
                }
                // Plain EXPLAIN never executes (and unlike the paper's
                // external approach, our internal collection never needs
                // it). ANALYZE over non-executable statements (DDL,
                // transaction control) also falls back to the plain
                // rendering.
                let rows = crate::exec::plan::explain(inner, &self.catalog)
                    .into_iter()
                    .map(|l| vec![Value::Text(l.into())])
                    .collect::<Vec<_>>();
                Ok(ExecOutcome {
                    rows_affected: rows.len() as u64,
                    rows,
                })
            }
            Plan::CreateTable {
                name,
                columns,
                primary_key,
            } => {
                self.create_table(name, columns, primary_key)?;
                Ok(ExecOutcome::default())
            }
            Plan::CreateIndex {
                name,
                table,
                columns,
                kind,
                unique,
            } => {
                self.create_index(name, *table, columns.clone(), *kind, *unique)?;
                Ok(ExecOutcome::default())
            }
            dml => {
                let scratch = if fp.is_some() {
                    // Feature vectors are only worth copying when a
                    // live model will predict from them.
                    let keep = self.live_model.is_some();
                    let mut o = std::mem::take(&mut self.obs_scratch);
                    o.reset(keep);
                    Some(o)
                } else {
                    None
                };
                let (outcome, obs, actual_ns) = self.run_dml(sid, dml, params, scratch)?;
                if let (Some(obs), Some(fp)) = (obs, fp) {
                    self.record_stmt(fp, &obs, actual_ns, outcome.rows_affected);
                    self.obs_scratch = obs; // return buffers to the pool
                }
                Ok(outcome)
            }
        }
    }

    /// Execute one DML or query plan in the session's transaction — an
    /// implicit one, committed on success, when it has none — observed
    /// into `obs`. Returns the outcome, the observation and the
    /// statement's virtual ns. A failed statement aborts the whole
    /// transaction (first-writer-wins MVCC has no partial rollback).
    fn run_dml(
        &mut self,
        sid: SessionId,
        plan: &Plan,
        params: &[Value],
        obs: Option<StmtObs>,
    ) -> Result<(ExecOutcome, Option<StmtObs>, f64), DbError> {
        let implicit = self.sessions[sid.0].txn.is_none();
        if implicit {
            self.begin(sid);
        }
        let txn = self.sessions[sid.0].txn.unwrap();
        let task = self.sessions[sid.0].task;
        let (result, obs, actual_ns) = {
            let mut ctx = ExecCtx::new(
                &mut self.kernel,
                self.ts.as_mut(),
                self.ous.as_ref(),
                task,
                &self.catalog,
                &mut self.tables,
                &mut self.indexes,
                &mut self.txns,
                txn,
                self.mode,
                &self.metrics,
            );
            ctx.obs = obs;
            let t0 = ctx.kernel.now(task);
            let r = execute(&mut ctx, plan, params);
            let t1 = ctx.kernel.now(task);
            (r, ctx.obs.take(), t1 - t0)
        };
        match result {
            Ok(outcome) => {
                if implicit {
                    self.commit(sid)?;
                }
                Ok((outcome, obs, actual_ns))
            }
            Err(e) => {
                let _ = self.rollback(sid);
                Err(DbError::Aborted(e))
            }
        }
    }

    /// `EXPLAIN ANALYZE`: execute the inner statement for real under
    /// observation, then render the plan tree annotated with per-node
    /// actuals (inclusive virtual-clock ns, rows, loops) and, when a
    /// model is installed, the live model's predicted ns and error.
    fn run_explain_analyze(
        &mut self,
        sid: SessionId,
        inner: &Plan,
        params: &[Value],
        fp: Option<&str>,
    ) -> Result<ExecOutcome, DbError> {
        let (outcome, obs, actual_ns) =
            self.run_dml(sid, inner, params, Some(StmtObs::new(true)))?;
        let obs = obs.unwrap_or_default();
        let task = self.sessions[sid.0].task;
        // Annotating the tree is user-visible statement work, not part of
        // a driven workload — charge it on the session clock directly.
        let render_ns = self.kernel.cost.explain_analyze_node_ns * obs.nodes.len().max(1) as f64;
        self.kernel.charge_overhead(task, render_ns);
        self.metrics
            .explain_analyze
            .get(&self.kernel.telemetry)
            .inc();
        if let Some(fp) = fp {
            self.record_stmt(fp, &obs, actual_ns, outcome.rows_affected);
        }
        let annots = self.annotations(&obs);
        let mut lines = crate::exec::plan::explain_annotated(inner, &self.catalog, &annots);
        let ou_ns = obs.ou_total_ns();
        let head = format!("Execution: actual={actual_ns:.0}ns ou_actual={ou_ns:.0}ns");
        let footer = match self.live_model_generation() {
            Some(g) => match self.predict_stmt_ns(&obs) {
                Some(p) => format!(
                    "{head} predicted={p:.0}ns err={:.1}% (model generation {g})",
                    (p - ou_ns).abs() / ou_ns.max(1e-9) * 100.0
                ),
                None => format!("{head} predicted=- (model generation {g})"),
            },
            None => format!("{head} predicted=- (no model installed)"),
        };
        lines.push(footer);
        let rows: Vec<Vec<Value>> = lines
            .into_iter()
            .map(|l| vec![Value::Text(l.into())])
            .collect();
        Ok(ExecOutcome {
            rows_affected: rows.len() as u64,
            rows,
        })
    }

    /// Per-node annotation suffixes in `StmtObs` node order (pre-order).
    fn annotations(&self, obs: &StmtObs) -> Vec<String> {
        obs.nodes
            .iter()
            .enumerate()
            .map(|(idx, n)| {
                // The node's *own* OU-accounted cost (children excluded) —
                // what the per-OU models actually predict.
                let own_actual: f64 = obs.node_charges(idx).map(|c| c.ns).sum();
                let mut predicted = None;
                if self.live_model.is_some() {
                    let mut sum = 0.0;
                    let mut any = false;
                    for c in obs.node_charges(idx) {
                        if let Some(p) = self.predict_ou_ns(c.name, &c.features) {
                            sum += p;
                            any = true;
                        }
                    }
                    predicted = any.then_some(sum);
                }
                match predicted {
                    Some(p) => format!(
                        " (actual={:.0}ns rows={} loops={} predicted={:.0}ns err={:.1}%)",
                        n.ns,
                        n.rows,
                        n.loops,
                        p,
                        (p - own_actual).abs() / own_actual.max(1e-9) * 100.0
                    ),
                    None => format!(
                        " (actual={:.0}ns rows={} loops={} predicted=-)",
                        n.ns, n.rows, n.loops
                    ),
                }
            })
            .collect()
    }

    /// Record one executed statement into the telemetry stats registry.
    /// Reads only on the session clock — the accounting cost is charged
    /// by the driver at pump cadence (`stmt_fingerprint_ns` +
    /// `stmt_record_ns` per recorded statement).
    fn record_stmt(&mut self, fp: &str, obs: &StmtObs, actual_ns: f64, rows: u64) {
        let mut breakdown = std::mem::take(&mut self.breakdown_scratch);
        obs.ou_breakdown_into(&mut breakdown);
        let predicted = self.predict_stmt_ns(obs);
        self.kernel
            .telemetry
            .stmt_record(fp, actual_ns, rows, &breakdown, predicted);
        self.breakdown_scratch = breakdown;
    }

    fn create_table(
        &mut self,
        name: &str,
        columns: &[(String, crate::types::DataType)],
        primary_key: &[String],
    ) -> Result<(), DbError> {
        let schema = Schema {
            columns: columns
                .iter()
                .map(|(n, t)| crate::types::ColumnDef {
                    name: n.clone(),
                    dtype: *t,
                })
                .collect(),
        };
        let pk_cols: Vec<usize> = primary_key
            .iter()
            .map(|c| {
                schema
                    .column_index(c)
                    .ok_or_else(|| DbError::Plan(PlanError::NoSuchColumn(c.clone())))
            })
            .collect::<Result<_, _>>()?;
        let id = self
            .catalog
            .create_table(name, schema.clone(), pk_cols.clone())
            .map_err(DbError::Catalog)?;
        self.tables.push(VersionedTable::new(schema));
        debug_assert_eq!(self.tables.len() - 1, id.0 as usize);
        if !pk_cols.is_empty() {
            self.create_index(&format!("{name}_pkey"), id, pk_cols, IndexKind::BTree, true)?;
        }
        Ok(())
    }

    fn create_index(
        &mut self,
        name: &str,
        table: crate::catalog::TableId,
        columns: Vec<usize>,
        kind: IndexKind,
        unique: bool,
    ) -> Result<(), DbError> {
        let id = self
            .catalog
            .create_index(name, table, columns.clone(), kind, unique)
            .map_err(DbError::Catalog)?;
        let mut index = Index::new(kind, columns.len());
        // Backfill from the latest visible versions.
        let read_ts = self.txns.oldest_read_ts().max(u64::MAX >> 1); // latest snapshot
        let t = &self.tables[table.0 as usize];
        for slot in t.scan_slots() {
            if let Some(row) = t.read(slot, read_ts, 0) {
                index.insert(key_from_row(row, &columns), slot);
            }
        }
        self.indexes.push(index);
        debug_assert_eq!(self.indexes.len() - 1, id.0 as usize);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Networking layer (simulated pgwire)
    // ------------------------------------------------------------------

    /// Execute a prepared statement as a *client request*: the session
    /// task reads the request from its socket (NETWORK_READ OU), executes,
    /// and writes the response (NETWORK_WRITE OU). Context switches at the
    /// blocking socket boundaries pay the PMU tax under User-Continuous
    /// collection (§6.2).
    pub fn client_request(
        &mut self,
        sid: SessionId,
        stmt: StatementId,
        params: &[Value],
    ) -> Result<ExecOutcome, DbError> {
        let task = self.sessions[sid.0].task;
        let _root = self.kernel.profile_frame(task, &DBMS);
        let pmu_tax = self
            .ts
            .as_ref()
            .map(tscout::TScout::pmu_cs_tax)
            .unwrap_or(false);
        let req_start_ns = self.kernel.now(task);
        let req_bytes = (32 + params.iter().map(Value::byte_size).sum::<usize>()) as u64;

        // NETWORK_READ: the request arrives.
        self.kernel.context_switch(task, pmu_tax);
        let feats = vec![req_bytes, 1];
        {
            let _ou = self
                .kernel
                .profile_frame(task, EngineOu::NetworkRead.frame());
            if let (Some(ts), Some(ous)) = (self.ts.as_mut(), self.ous.as_ref()) {
                ts.ou_begin(&mut self.kernel, task, ous.id(EngineOu::NetworkRead));
            }
            self.kernel.net_recv(task, req_bytes);
            let w = work_for(EngineOu::NetworkRead, &feats);
            self.kernel.charge_cpu(task, w.instructions, w.ws_bytes);
            if let (Some(ts), Some(ous)) = (self.ts.as_mut(), self.ous.as_ref()) {
                let id = ous.id(EngineOu::NetworkRead);
                ts.ou_end(&mut self.kernel, task, id);
                ts.ou_features(&mut self.kernel, task, id, &feats, &[w.mem_bytes]);
            }
        }

        let result = self.execute_prepared(sid, stmt, params);

        // NETWORK_WRITE: ship the response (errors ship a small packet too).
        let resp_bytes = match &result {
            Ok(o) => (64 + o.rows.iter().map(|r| row_bytes(r)).sum::<usize>()) as u64,
            Err(_) => 64,
        };
        let feats = vec![resp_bytes, 1];
        {
            let _ou = self
                .kernel
                .profile_frame(task, EngineOu::NetworkWrite.frame());
            if let (Some(ts), Some(ous)) = (self.ts.as_mut(), self.ous.as_ref()) {
                ts.ou_begin(&mut self.kernel, task, ous.id(EngineOu::NetworkWrite));
            }
            self.kernel.net_send(task, resp_bytes);
            let w = work_for(EngineOu::NetworkWrite, &feats);
            self.kernel.charge_cpu(task, w.instructions, w.ws_bytes);
            if let (Some(ts), Some(ous)) = (self.ts.as_mut(), self.ous.as_ref()) {
                let id = ous.id(EngineOu::NetworkWrite);
                ts.ou_end(&mut self.kernel, task, id);
                ts.ou_features(&mut self.kernel, task, id, &feats, &[w.mem_bytes]);
            }
        }
        self.kernel.context_switch(task, pmu_tax);
        let dur = self.kernel.now(task) - req_start_ns;
        let (t, m) = (&self.kernel.telemetry, &self.metrics);
        m.client_requests.get(t).inc();
        m.client_request_ns.get(t).record(dur);
        result
    }

    // ------------------------------------------------------------------
    // Background tasks
    // ------------------------------------------------------------------

    /// Pump the WAL (log serializer + disk writer) to `until_ns`.
    pub fn pump_wal(&mut self, until_ns: f64) -> usize {
        self.wal.pump(
            &mut self.kernel,
            self.ts.as_mut(),
            self.ous.as_ref(),
            until_ns,
        )
    }

    /// One GC sweep over all tables (GC_SWEEP OU). Returns versions pruned.
    pub fn run_gc(&mut self) -> u64 {
        let _root = self.kernel.profile_frame(self.gc_task, &DBMS);
        let _ou = self
            .kernel
            .profile_frame(self.gc_task, EngineOu::GcSweep.frame());
        let oldest = self.txns.oldest_read_ts();
        if let (Some(ts), Some(ous)) = (self.ts.as_mut(), self.ous.as_ref()) {
            ts.ou_begin(&mut self.kernel, self.gc_task, ous.id(EngineOu::GcSweep));
        }
        let mut pruned = 0u64;
        for (t_idx, table) in self.tables.iter_mut().enumerate() {
            let n = table.num_slots();
            for s in 0..n {
                let slot = crate::storage::SlotId(s as u64);
                let (p, freed_row) = table.gc_slot_with_row(slot, oldest);
                pruned += p as u64;
                if let Some(row) = freed_row {
                    for im in self
                        .catalog
                        .table_indexes(crate::catalog::TableId(t_idx as u32))
                    {
                        let key = key_from_row(&row, &im.columns);
                        self.indexes[im.id.0 as usize].remove(&key, slot);
                    }
                }
            }
        }
        let feats = vec![pruned];
        let w = work_for(EngineOu::GcSweep, &feats);
        self.kernel
            .charge_cpu(self.gc_task, w.instructions, w.ws_bytes);
        if let (Some(ts), Some(ous)) = (self.ts.as_mut(), self.ous.as_ref()) {
            let id = ous.id(EngineOu::GcSweep);
            ts.ou_end(&mut self.kernel, self.gc_task, id);
            ts.ou_features(&mut self.kernel, self.gc_task, id, &feats, &[0]);
        }
        self.gc_pruned += pruned;
        let (t, m) = (&self.kernel.telemetry, &self.metrics);
        m.gc_sweeps.get(t).inc();
        m.gc_pruned.get(t).add(pruned);
        pruned
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    pub fn table_live_tuples(&self, name: &str) -> Option<u64> {
        self.catalog
            .table_by_name(name)
            .map(|m| self.tables[m.id.0 as usize].live_tuples())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tscout::{CollectionMode, ProbeSet, Subsystem};
    use tscout_kernel::HardwareProfile;

    fn db() -> (Database, SessionId) {
        let mut k = Kernel::with_seed(HardwareProfile::server_2x20(), 11);
        k.noise_frac = 0.0;
        let mut db = Database::new(k);
        let sid = db.create_session();
        db.execute(
            sid,
            "CREATE TABLE acct (id INT PRIMARY KEY, branch INT, bal FLOAT)",
            &[],
        )
        .unwrap();
        db.execute(sid, "CREATE INDEX acct_branch ON acct (branch)", &[])
            .unwrap();
        for i in 0..100 {
            db.execute(
                sid,
                "INSERT INTO acct VALUES ($1, $2, $3)",
                &[Value::Int(i), Value::Int(i % 10), Value::Float(100.0)],
            )
            .unwrap();
        }
        (db, sid)
    }

    #[test]
    fn point_select_via_pk() {
        let (mut db, sid) = db();
        let out = db
            .execute(sid, "SELECT bal FROM acct WHERE id = $1", &[Value::Int(42)])
            .unwrap();
        assert_eq!(out.rows, vec![vec![Value::Float(100.0)]]);
    }

    #[test]
    fn secondary_index_and_filter() {
        let (mut db, sid) = db();
        let out = db
            .execute(sid, "SELECT id FROM acct WHERE branch = 3 AND id > 50", &[])
            .unwrap();
        assert_eq!(out.rows.len(), 5); // 53, 63, 73, 83, 93
    }

    #[test]
    fn aggregate_query() {
        let (mut db, sid) = db();
        let out = db
            .execute(
                sid,
                "SELECT branch, count(*), sum(bal) FROM acct GROUP BY branch",
                &[],
            )
            .unwrap();
        assert_eq!(out.rows.len(), 10);
        assert_eq!(out.rows[0][1], Value::Int(10));
        assert_eq!(out.rows[0][2], Value::Float(1000.0));
    }

    #[test]
    fn order_by_and_limit() {
        let (mut db, sid) = db();
        let out = db
            .execute(sid, "SELECT id FROM acct ORDER BY id DESC LIMIT 3", &[])
            .unwrap();
        let ids: Vec<i64> = out.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(ids, vec![99, 98, 97]);
    }

    #[test]
    fn update_and_read_back() {
        let (mut db, sid) = db();
        let out = db
            .execute(
                sid,
                "UPDATE acct SET bal = bal + $1 WHERE id = $2",
                &[Value::Float(50.0), Value::Int(7)],
            )
            .unwrap();
        assert_eq!(out.rows_affected, 1);
        let out = db
            .execute(sid, "SELECT bal FROM acct WHERE id = 7", &[])
            .unwrap();
        assert_eq!(out.rows[0][0], Value::Float(150.0));
    }

    #[test]
    fn delete_and_gc() {
        let (mut db, sid) = db();
        db.execute(sid, "DELETE FROM acct WHERE branch = 0", &[])
            .unwrap();
        let out = db.execute(sid, "SELECT count(*) FROM acct", &[]).unwrap();
        assert_eq!(out.rows[0][0], Value::Int(90));
        let pruned = db.run_gc();
        assert!(pruned >= 10, "deleted rows should be collected: {pruned}");
        // Index entries for collected slots are gone; queries still work.
        let out = db
            .execute(sid, "SELECT count(*) FROM acct WHERE branch = 0", &[])
            .unwrap();
        assert_eq!(out.rows[0][0], Value::Int(0));
    }

    #[test]
    fn explicit_transaction_rollback() {
        let (mut db, sid) = db();
        db.execute(sid, "BEGIN", &[]).unwrap();
        db.execute(sid, "UPDATE acct SET bal = 0.0 WHERE id = 1", &[])
            .unwrap();
        db.execute(sid, "ROLLBACK", &[]).unwrap();
        let out = db
            .execute(sid, "SELECT bal FROM acct WHERE id = 1", &[])
            .unwrap();
        assert_eq!(out.rows[0][0], Value::Float(100.0));
    }

    #[test]
    fn snapshot_isolation_across_sessions() {
        let (mut db, s1) = db();
        let s2 = db.create_session();
        db.execute(s1, "BEGIN", &[]).unwrap();
        // s1 opened its snapshot; now s2 commits an update.
        db.execute(s2, "UPDATE acct SET bal = 999.0 WHERE id = 5", &[])
            .unwrap();
        // s1 still sees the old value.
        let out = db
            .execute(s1, "SELECT bal FROM acct WHERE id = 5", &[])
            .unwrap();
        assert_eq!(out.rows[0][0], Value::Float(100.0));
        db.execute(s1, "COMMIT", &[]).unwrap();
        let out = db
            .execute(s1, "SELECT bal FROM acct WHERE id = 5", &[])
            .unwrap();
        assert_eq!(out.rows[0][0], Value::Float(999.0));
    }

    #[test]
    fn write_write_conflict_aborts() {
        let (mut db, s1) = db();
        let s2 = db.create_session();
        db.execute(s1, "BEGIN", &[]).unwrap();
        db.execute(s2, "BEGIN", &[]).unwrap();
        db.execute(s1, "UPDATE acct SET bal = 1.0 WHERE id = 9", &[])
            .unwrap();
        let err = db.execute(s2, "UPDATE acct SET bal = 2.0 WHERE id = 9", &[]);
        assert!(matches!(err, Err(DbError::Aborted(ExecError::Conflict))));
        assert!(!db.in_txn(s2), "conflicting txn rolled back");
        db.execute(s1, "COMMIT", &[]).unwrap();
        let out = db
            .execute(s1, "SELECT bal FROM acct WHERE id = 9", &[])
            .unwrap();
        assert_eq!(out.rows[0][0], Value::Float(1.0));
    }

    #[test]
    fn unique_violation_aborts() {
        let (mut db, sid) = db();
        let err = db.execute(sid, "INSERT INTO acct VALUES (5, 1, 0.0)", &[]);
        assert!(matches!(
            err,
            Err(DbError::Aborted(ExecError::UniqueViolation(_)))
        ));
        // The table is unchanged.
        let out = db.execute(sid, "SELECT count(*) FROM acct", &[]).unwrap();
        assert_eq!(out.rows[0][0], Value::Int(100));
    }

    #[test]
    fn join_query() {
        let (mut db, sid) = db();
        db.execute(
            sid,
            "CREATE TABLE tx (tid INT PRIMARY KEY, acct INT, amt FLOAT)",
            &[],
        )
        .unwrap();
        for i in 0..20 {
            db.execute(
                sid,
                "INSERT INTO tx VALUES ($1, $2, $3)",
                &[Value::Int(i), Value::Int(i % 5), Value::Float(i as f64)],
            )
            .unwrap();
        }
        let out = db
            .execute(
                sid,
                "SELECT a.id, t.amt FROM acct a JOIN tx t ON a.id = t.acct WHERE a.id = 2",
                &[],
            )
            .unwrap();
        assert_eq!(out.rows.len(), 4); // tx 2, 7, 12, 17
    }

    #[test]
    fn prepared_statements_and_client_requests() {
        let (mut db, sid) = db();
        let q = db.prepare("SELECT bal FROM acct WHERE id = $1").unwrap();
        let out = db.client_request(sid, q, &[Value::Int(3)]).unwrap();
        assert_eq!(out.rows.len(), 1);
        // Network stats got charged to the session task.
        let tcp = db.kernel.task(db.session_task(sid)).tcp;
        assert!(tcp.bytes_sent > 0 && tcp.bytes_received > 0);
    }

    #[test]
    fn wal_receives_commit_records_and_flushes() {
        let (mut db, sid) = db();
        assert!(db.wal.pending() > 0 || db.wal.flushed_records > 0);
        db.execute(sid, "UPDATE acct SET bal = 1.0 WHERE id = 1", &[])
            .unwrap();
        let pending = db.wal.pending();
        assert!(pending > 0);
        let horizon = db.now(sid) + 1e9;
        db.pump_wal(horizon);
        assert_eq!(db.wal.pending(), 0);
        assert!(db.wal.flushed_batches > 0);
        assert!(
            db.wal.flushed_records as usize >= pending,
            "all pending records flushed"
        );
    }

    #[test]
    fn collection_end_to_end_with_tscout() {
        let (mut db, sid) = db();
        let mut cfg = TsConfig::new(CollectionMode::KernelContinuous);
        cfg.enable_all_subsystems();
        db.attach_tscout(cfg).unwrap();
        {
            let ts = db.tscout_mut().unwrap();
            for s in tscout::ALL_SUBSYSTEMS {
                ts.set_sampling_rate(s, 100);
            }
        }
        let q = db.prepare("SELECT bal FROM acct WHERE id = $1").unwrap();
        let u = db
            .prepare("UPDATE acct SET bal = bal + 1.0 WHERE id = $1")
            .unwrap();
        for i in 0..10 {
            db.client_request(sid, q, &[Value::Int(i)]).unwrap();
            db.client_request(sid, u, &[Value::Int(i)]).unwrap();
        }
        let horizon = db.now(sid) + 1e9;
        db.pump_wal(horizon);
        db.run_gc();
        let ts = db.tscout_mut().unwrap();
        assert_eq!(ts.stats.state_machine_errors, 0);
        let pts = ts.drain_decoded();
        let subs: std::collections::HashSet<_> = pts.iter().map(|p| p.subsystem).collect();
        for s in [
            Subsystem::ExecutionEngine,
            Subsystem::Networking,
            Subsystem::LogSerializer,
            Subsystem::DiskWriter,
            Subsystem::Transactions,
        ] {
            assert!(subs.contains(&(s.index() as u8)), "{s:?}");
        }
        // Nested markers: UPDATE wraps its scan.
        assert!(pts.iter().any(|p| p.ou_name == "update"));
        assert!(pts.iter().any(|p| p.ou_name == "idx_lookup"));
    }

    #[test]
    fn virtual_stat_tables_query_live_telemetry() {
        let (mut db, sid) = db();
        // Feed the drift detector directly through the kernel's handle —
        // the same path the Processor uses.
        for i in 0..300 {
            db.kernel.telemetry.observe_ou_sample(
                "seq_scan",
                "execution_engine",
                1_000.0 + (i % 7) as f64,
                3.0,
            );
        }
        db.kernel.telemetry.observability_tick(1e9);

        let out = db
            .execute(sid, "SELECT ou, subsystem, health FROM ts_stat_ou", &[])
            .unwrap();
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0][0], Value::Text("seq_scan".into()));
        assert_eq!(out.rows[0][1], Value::Text("execution_engine".into()));
        assert_eq!(out.rows[0][2], Value::Text("OK".into()));

        // Filters, aggregation, and ORDER BY compose over virtual scans.
        let out = db
            .execute(
                sid,
                "SELECT count(*) FROM ts_stat_ou WHERE drift_score > 0.99",
                &[],
            )
            .unwrap();
        assert_eq!(out.rows[0][0], Value::Int(0));
        let out = db
            .execute(
                sid,
                "SELECT subsystem FROM ts_stat_subsystem ORDER BY subsystem",
                &[],
            )
            .unwrap();
        assert!(!out.rows.is_empty());
        let out = db
            .execute(sid, "SELECT generation FROM ts_stat_model", &[])
            .unwrap();
        assert_eq!(out.rows, vec![vec![Value::Int(0)]]);

        // The scan was accounted for.
        assert!(
            db.kernel
                .telemetry
                .counter_value("db_virtual_scans_total", &[("table", "ts_stat_ou")])
                >= 2
        );

        // EXPLAIN renders the virtual operator without executing it.
        let out = db
            .execute(
                sid,
                "EXPLAIN SELECT * FROM ts_alerts WHERE value > 1.0",
                &[],
            )
            .unwrap();
        let text: Vec<String> = out
            .rows
            .iter()
            .map(|r| r[0].as_text().unwrap().to_string())
            .collect();
        assert!(
            text.iter().any(|l| l.contains("VirtualScan on ts_alerts")),
            "{text:?}"
        );
    }

    #[test]
    fn fused_mode_emits_pipeline_samples() {
        let (mut db, sid) = db();
        db.mode = EngineMode::Fused;
        let mut cfg = TsConfig::new(CollectionMode::KernelContinuous);
        cfg.enable_subsystem(Subsystem::ExecutionEngine, ProbeSet::cpu_only());
        db.attach_tscout(cfg).unwrap();
        db.tscout_mut()
            .unwrap()
            .set_sampling_rate(Subsystem::ExecutionEngine, 100);
        db.execute(sid, "SELECT bal FROM acct WHERE id = 1", &[])
            .unwrap();
        let pts = db.tscout_mut().unwrap().drain_decoded();
        // The pipeline sample was de-aggregated into per-OU points.
        assert!(pts.len() >= 2, "expected idx_lookup + output, got {pts:?}");
        assert!(pts.iter().any(|p| p.ou_name == "idx_lookup"));
        assert!(pts.iter().any(|p| p.ou_name == "output"));
    }
}

#[cfg(test)]
mod explain_tests {
    use super::*;
    use tscout_kernel::HardwareProfile;

    fn db() -> (Database, SessionId) {
        let mut db = Database::new(Kernel::with_seed(HardwareProfile::server_2x20(), 1));
        let sid = db.create_session();
        db.execute(
            sid,
            "CREATE TABLE t (id INT PRIMARY KEY, b INT, v FLOAT)",
            &[],
        )
        .unwrap();
        db.execute(sid, "CREATE INDEX t_b ON t (b)", &[]).unwrap();
        (db, sid)
    }

    fn lines(db: &mut Database, sid: SessionId, sql: &str) -> Vec<String> {
        db.execute(sid, sql, &[])
            .unwrap()
            .rows
            .iter()
            .map(|r| r[0].as_text().unwrap().to_string())
            .collect()
    }

    #[test]
    fn explain_shows_access_paths() {
        let (mut db, sid) = db();
        let out = lines(&mut db, sid, "EXPLAIN SELECT v FROM t WHERE id = $1");
        assert!(out[0].starts_with("Project"), "{out:?}");
        assert!(
            out[1].contains("IndexPointLookup on t using t_pkey"),
            "{out:?}"
        );

        let out = lines(
            &mut db,
            sid,
            "EXPLAIN SELECT * FROM t WHERE b >= 1 AND b <= 5",
        );
        assert!(out[0].contains("IndexRangeScan on t using t_b"), "{out:?}");

        let out = lines(&mut db, sid, "EXPLAIN SELECT * FROM t WHERE v > 0.0");
        assert!(out[0].contains("SeqScan on t"), "{out:?}");
        assert!(out[1].contains("Filter:"), "{out:?}");
    }

    #[test]
    fn explain_dml_and_aggregates() {
        let (mut db, sid) = db();
        let out = lines(
            &mut db,
            sid,
            "EXPLAIN UPDATE t SET v = v + 1.0 WHERE id = 3",
        );
        assert!(out[0].starts_with("Update t"), "{out:?}");
        assert!(out[1].contains("IndexPointLookup"), "{out:?}");

        let out = lines(&mut db, sid, "EXPLAIN SELECT b, count(*) FROM t GROUP BY b");
        assert!(out.iter().any(|l| l.contains("Aggregate")), "{out:?}");
        assert!(out.iter().any(|l| l.contains("count(*)")), "{out:?}");
    }

    #[test]
    fn explain_does_not_execute() {
        let (mut db, sid) = db();
        db.execute(sid, "INSERT INTO t VALUES (1, 2, 3.0)", &[])
            .unwrap();
        db.execute(sid, "EXPLAIN DELETE FROM t", &[]).unwrap();
        assert_eq!(
            db.table_live_tuples("t"),
            Some(1),
            "EXPLAIN must not delete"
        );
    }

    fn seeded(n: i64) -> (Database, SessionId) {
        let (mut db, sid) = db();
        for i in 0..n {
            db.execute(
                sid,
                "INSERT INTO t VALUES ($1, $2, $3)",
                &[Value::Int(i), Value::Int(i % 4), Value::Float(1.0)],
            )
            .unwrap();
        }
        (db, sid)
    }

    /// Ridge fit on a constant target predicts ~that constant for any
    /// input, so two target scales give two visibly different "model
    /// generations" without running the full training pipeline.
    fn synth_live(generation: u64, target_ns: f64) -> LiveModel {
        use tscout_models::{LabeledPoint, ModelKind, OuData, OuModelSet};
        let mk = |name: &str, nf: usize| {
            let mut d = OuData::new(name);
            for i in 0..64usize {
                let mut features: Vec<f64> = (0..nf).map(|k| ((i + k) % 9) as f64).collect();
                features.push(2.5); // clock_ghz column
                features.push(1.0); // concurrency column
                d.points.push(LabeledPoint {
                    features: &features,
                    target_ns,
                    template: 0,
                });
            }
            d
        };
        let data = vec![
            mk("idx_lookup", 3),
            mk("idx_range_scan", 2),
            mk("seq_scan", 2),
            mk("filter", 1),
            mk("output", 2),
        ];
        LiveModel {
            generation,
            trained_points: data.iter().map(tscout_models::OuData::len).sum(),
            models: std::sync::Arc::new(OuModelSet::train(ModelKind::Ridge, 1, &data)),
            holdout_mape_pct: 0.0,
        }
    }

    fn footer_predicted_ns(lines: &[String]) -> f64 {
        let footer = lines.last().unwrap();
        footer
            .split("predicted=")
            .nth(1)
            .unwrap()
            .split("ns")
            .next()
            .unwrap()
            .parse()
            .unwrap_or_else(|_| panic!("no numeric prediction in {footer:?}"))
    }

    #[test]
    fn explain_analyze_executes_and_annotates_actuals() {
        let (mut db, sid) = seeded(20);
        let out = lines(&mut db, sid, "EXPLAIN ANALYZE SELECT v FROM t WHERE id = 7");
        assert!(out[0].starts_with("Project"), "{out:?}");
        assert!(
            out[0].contains("actual=") && out[0].contains("rows=") && out[0].contains("loops="),
            "{out:?}"
        );
        // No model installed: per-node and statement predictions absent.
        assert!(out[0].contains("predicted=-"), "{out:?}");
        let footer = out.last().unwrap();
        assert!(footer.starts_with("Execution: actual="), "{out:?}");
        assert!(footer.contains("(no model installed)"), "{out:?}");
        assert_eq!(
            db.kernel
                .telemetry
                .counter_value("db_explain_analyze_total", &[]),
            1
        );

        // ANALYZE ran the statement for real: the DELETE deletes.
        db.execute(sid, "EXPLAIN ANALYZE DELETE FROM t WHERE b = 1", &[])
            .unwrap();
        assert_eq!(db.table_live_tuples("t"), Some(15), "b=1 rows are gone");
    }

    #[test]
    fn explain_analyze_predictions_follow_model_hot_swap() {
        let (mut db, sid) = seeded(50);
        db.install_live_model(Some(synth_live(1, 1_000.0)), 1.0);
        let gen1 = lines(&mut db, sid, "EXPLAIN ANALYZE SELECT v FROM t WHERE id = 7");
        assert!(
            gen1.iter()
                .any(|l| l.contains("predicted=") && !l.contains("predicted=-")),
            "{gen1:?}"
        );
        assert!(gen1.iter().any(|l| l.contains("err=")), "{gen1:?}");
        assert!(
            gen1.last().unwrap().contains("(model generation 1)"),
            "{gen1:?}"
        );

        // Hot swap: a new generation must change the predicted columns.
        db.install_live_model(Some(synth_live(2, 50_000.0)), 1.0);
        let gen2 = lines(&mut db, sid, "EXPLAIN ANALYZE SELECT v FROM t WHERE id = 7");
        assert!(
            gen2.last().unwrap().contains("(model generation 2)"),
            "{gen2:?}"
        );
        assert!(
            footer_predicted_ns(&gen2) > footer_predicted_ns(&gen1) * 5.0,
            "swap to a 50x-scale model must move predictions: {gen1:?} vs {gen2:?}"
        );

        db.install_live_model(None, 1.0);
        let off = lines(&mut db, sid, "EXPLAIN ANALYZE SELECT v FROM t WHERE id = 7");
        assert!(
            off.last().unwrap().contains("(no model installed)"),
            "{off:?}"
        );
    }

    #[test]
    fn ts_stat_statements_aggregates_by_fingerprint() {
        let (mut db, sid) = seeded(10);
        for i in 0..7 {
            db.execute(sid, "SELECT v FROM t WHERE id = $1", &[Value::Int(i)])
                .unwrap();
        }
        // Different literals, identical shape → one fingerprint.
        db.execute(sid, "SELECT v FROM t WHERE id = 3", &[])
            .unwrap();
        db.execute(sid, "SELECT v FROM t WHERE id = 4", &[])
            .unwrap();
        let out = db
            .execute(
                sid,
                "SELECT fingerprint, calls, total_ns, mean_ns, ou_ns_total \
                 FROM ts_stat_statements ORDER BY calls DESC",
                &[],
            )
            .unwrap();
        let find = |fp: &str| {
            out.rows
                .iter()
                .find(|r| r[0].as_text() == Some(fp))
                .unwrap_or_else(|| panic!("fingerprint {fp:?} missing from {:?}", out.rows))
                .clone()
        };
        let prepared = find("select v from t where (id = $1)");
        assert_eq!(prepared[1], Value::Int(7));
        let literal = find("select v from t where (id = ?)");
        assert_eq!(literal[1], Value::Int(2));
        for row in &out.rows {
            let calls = row[1].as_int().unwrap() as f64;
            let total = row[2].as_float().unwrap();
            let mean = row[3].as_float().unwrap();
            let ou_total = row[4].as_float().unwrap();
            assert!(
                (mean * calls - total).abs() < 1e-6 * total.max(1.0),
                "{row:?}"
            );
            assert!(
                ou_total <= total + 1e-6,
                "OU self time exceeds inclusive: {row:?}"
            );
        }
        // Disabled: nothing new is recorded.
        let before = db.kernel.telemetry.stmt_recorded();
        db.stmt_stats_enabled = false;
        db.execute(sid, "SELECT v FROM t WHERE id = 5", &[])
            .unwrap();
        assert_eq!(db.kernel.telemetry.stmt_recorded(), before);
    }
}
