//! The virtual-time workload driver.
//!
//! Plays the role of BenchBase in the paper's evaluation: N closed-loop
//! terminals issue transactions against the DBMS. Scheduling is
//! earliest-first over the terminals' virtual clocks, which yields one
//! coherent global timeline: group-commit batches form from real arrival
//! patterns, the Processor drains concurrently, and throughput/latency
//! come from the clocks — deterministic for a fixed seed.
//!
//! The driver also captures a *query span trace* — which statement
//! template each session executed, and when — used afterwards to tag
//! every collected training point with its query template (the paper's
//! per-template accuracy statistic).

use rand::rngs::StdRng;
use rand::SeedableRng;

use noisetap::engine::{Database, DbError, SessionId, StatementId};
use noisetap::{EngineMode, ExecOutcome, Value};
use tscout::{Processor, Sink, TScout, TrainingPoint};
use tscout_actions::{ActionEngine, DbmsActuator, PlannerInputs, SubsystemRate, POLICY_COUNT};
use tscout_archive::{Archive, ArchiveOptions};
use tscout_kernel::TSCOUT;
use tscout_models::dataset::OuData;
use tscout_models::registry::{ModelRegistry, SwapDecision};
use tscout_models::{datasets_from_archive, input_values, ModelKind};

use crate::decls;

/// One traced client request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuerySpan {
    pub tid: u32,
    pub template: u32,
    pub start_ns: f64,
    pub end_ns: f64,
}

/// Per-transaction context handed to workload transaction bodies.
#[derive(Debug)]
pub struct TxnCtx<'a> {
    pub db: &'a mut Database,
    pub sid: SessionId,
    pub rng: &'a mut StdRng,
    trace: &'a mut Vec<QuerySpan>,
}

impl<'a> TxnCtx<'a> {
    /// Build a transaction context (the driver does this per terminal;
    /// exposed for tests and custom harnesses).
    pub fn new(
        db: &'a mut Database,
        sid: SessionId,
        rng: &'a mut StdRng,
        trace: &'a mut Vec<QuerySpan>,
    ) -> TxnCtx<'a> {
        TxnCtx {
            db,
            sid,
            rng,
            trace,
        }
    }

    /// Issue a traced client request.
    pub fn request(&mut self, stmt: StatementId, params: &[Value]) -> Result<ExecOutcome, DbError> {
        let task = self.db.session_task(self.sid);
        let start_ns = self.db.now(self.sid);
        let r = self.db.client_request(self.sid, stmt, params);
        self.trace.push(QuerySpan {
            tid: task.0,
            template: stmt.0 as u32 + 1,
            start_ns,
            end_ns: self.db.now(self.sid),
        });
        r
    }

    pub fn begin(&mut self) {
        self.db.begin(self.sid);
    }

    pub fn commit(&mut self) -> Result<(), DbError> {
        self.db.commit(self.sid)
    }

    pub fn rollback(&mut self) {
        let _ = self.db.rollback(self.sid);
    }
}

/// A benchmark workload.
pub trait Workload {
    fn name(&self) -> &'static str;
    /// Create schema, load data, prepare statements. Runs untraced on a
    /// bootstrap session.
    fn setup(&mut self, db: &mut Database);
    /// Execute one transaction; returns false when it aborted.
    fn txn(&mut self, ctx: &mut TxnCtx<'_>) -> bool;
}

/// Pump background tasks (WAL, Processor) every this many virtual ns.
const PUMP_EVERY_NS: f64 = 2e6;
/// Run GC every this many virtual ns.
const GC_EVERY_NS: f64 = 250e6;

/// Driver options.
#[derive(Debug, Clone)]
pub struct RunOptions {
    pub terminals: usize,
    /// Virtual duration of the measured run, ns.
    pub duration_ns: f64,
    /// RNG seed (terminal behavior + workload parameters).
    pub seed: u64,
    /// Operator plane: start an embedded `tscout-obsd` daemon serving
    /// this run's telemetry over HTTP for the duration of the run.
    /// `None` also consults `TSCOUT_OBSD` / `TSCOUT_OBSD_ADDR_FILE` in
    /// the environment (so fig binaries opt in without a code change).
    pub obsd: Option<tscout_obsd::ObsdConfig>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            terminals: 1,
            duration_ns: 1e9,
            seed: 0xBEEF,
            obsd: None,
        }
    }
}

/// Operator-plane activation from the environment: `TSCOUT_OBSD=1`
/// serves on an ephemeral localhost port, `TSCOUT_OBSD=host:port`
/// requests that address (falling back to ephemeral on `EADDRINUSE`),
/// and `TSCOUT_OBSD_ADDR_FILE` names a file to write the bound address
/// to for port discovery.
fn obsd_env_config() -> Option<tscout_obsd::ObsdConfig> {
    let v = std::env::var("TSCOUT_OBSD").ok()?;
    if v.is_empty() || v == "0" {
        return None;
    }
    let mut cfg = tscout_obsd::ObsdConfig::default();
    if v.contains(':') {
        cfg.addr = v;
    }
    if let Ok(f) = std::env::var("TSCOUT_OBSD_ADDR_FILE") {
        if !f.is_empty() {
            cfg.addr_file = Some(f.into());
        }
    }
    Some(cfg)
}

/// Results of one run.
#[derive(Debug)]
pub struct RunStats {
    pub committed: u64,
    pub aborted: u64,
    pub duration_ns: f64,
    /// Committed transactions per virtual second.
    pub throughput: f64,
    /// Transaction latencies, ns (committed only).
    pub latencies_ns: Vec<f64>,
    /// Completion times of committed transactions, ns (timeline plots).
    pub txn_ends_ns: Vec<f64>,
    /// Query span trace for template assignment.
    pub trace: Vec<QuerySpan>,
    /// Decoded training points collected during the run.
    pub points: Vec<TrainingPoint>,
    /// Samples the Processor archived.
    pub samples_processed: u64,
    /// Samples lost to ring overwrites.
    pub samples_dropped: u64,
    /// Samples persisted to the training-data archive (lifecycle runs).
    pub archived_samples: u64,
    /// Retraining attempts the model lifecycle made (lifecycle runs).
    pub retrains: u64,
}

impl RunStats {
    /// Latency percentile in milliseconds (e.g. `p(99.0)` for p99).
    pub fn latency_percentile_ms(&self, pct: f64) -> f64 {
        if self.latencies_ns.is_empty() {
            return 0.0;
        }
        let mut l = self.latencies_ns.clone();
        l.sort_by(f64::total_cmp);
        let idx = ((pct / 100.0) * (l.len() - 1) as f64).round() as usize;
        l[idx.min(l.len() - 1)] / 1e6
    }

    /// Throughput in thousands of transactions per second.
    pub fn ktps(&self) -> f64 {
        self.throughput / 1000.0
    }
}

/// The model lifecycle a live run carries: persistent training-data
/// archive + generation-counted model registry, retrained on the pump
/// timeline (paper §2: collection feeds models that steer the DBMS; the
/// lifecycle closes that loop inside the simulation).
#[derive(Debug)]
pub struct ModelLifecycle {
    pub archive: Archive,
    pub registry: ModelRegistry,
    /// Retrain every this many virtual ns (`f64::MAX` = only at the end
    /// of the run).
    pub retrain_every_ns: f64,
    /// Holdout split for the accuracy gate: every Nth point per OU.
    pub holdout_every: usize,
    /// Samples persisted to the archive so far.
    pub archived_samples: u64,
    /// Retraining attempts (accepted + rejected + skipped).
    pub retrains: u64,
    pub swaps_accepted: u64,
    pub swaps_rejected: u64,
    /// Optional autonomous action engine, ticked at pump cadence after
    /// the observability turn. Attach with [`ModelLifecycle::with_actions`].
    pub actions: Option<ActionEngine>,
    /// An engine-actuated retrain rebaselines the drift references once
    /// the registry actually accepts a new generation.
    pending_rebaseline: bool,
    /// Mean live-model predicted cost of execution-engine OUs in the
    /// last residual-scored batch (the `pipeline_mode` policy input).
    last_exec_predicted_ns: Option<f64>,
}

impl ModelLifecycle {
    /// Open (or recover) the archive at `dir` and start an empty
    /// registry at generation 0.
    pub fn new(
        dir: &std::path::Path,
        opts: ArchiveOptions,
        kind: ModelKind,
        seed: u64,
        retrain_every_ns: f64,
        telemetry: tscout_telemetry::Telemetry,
    ) -> Result<ModelLifecycle, tscout_archive::ArchiveError> {
        Ok(ModelLifecycle {
            archive: Archive::open(dir, opts, telemetry.clone())?,
            registry: ModelRegistry::new(kind, seed, telemetry),
            retrain_every_ns,
            holdout_every: 5,
            archived_samples: 0,
            retrains: 0,
            swaps_accepted: 0,
            swaps_rejected: 0,
            actions: None,
            pending_rebaseline: false,
            last_exec_predicted_ns: None,
        })
    }

    /// Attach an action engine; it closes the loop at pump cadence.
    pub fn with_actions(mut self, engine: ActionEngine) -> ModelLifecycle {
        self.actions = Some(engine);
        self
    }

    /// One lifecycle turn: tag `points` against the trace so far, persist
    /// them to the archive (flush + compaction policy), then retrain from
    /// the full archived history behind the accuracy gate.
    ///
    /// Runs on the Processor's task: archival is charged per sample and
    /// retraining per training point, under the profiler frames
    /// `tscout;processor:archive` and `tscout;models:retrain`.
    pub fn step(
        &mut self,
        kernel: &mut tscout_kernel::Kernel,
        task: tscout_kernel::TaskId,
        points: &[TrainingPoint],
        trace: &[QuerySpan],
        concurrency: usize,
    ) {
        let _root = kernel.profile_frame(task, &TSCOUT);
        // Online residual tracking: score the live models against this
        // batch's actuals (before the batch can influence a retrain),
        // feeding each OU's residual-MAPE drift channel.
        if !points.is_empty() && self.registry.live().is_some() {
            let mut feats: Vec<f64> = Vec::new();
            let (mut exec_sum, mut exec_n) = (0.0f64, 0u64);
            for p in points {
                let own = p.features.iter().copied();
                feats.clear();
                feats.extend(input_values(own, kernel.hw.clock_ghz, concurrency as f64));
                if let Some(predicted) = self.registry.predict_ns(&p.ou_name, &feats) {
                    kernel
                        .telemetry
                        .observe_residual(&p.ou_name, predicted, p.elapsed_ns as f64);
                    if p.subsystem == tscout::Subsystem::ExecutionEngine {
                        exec_sum += predicted;
                        exec_n += 1;
                    }
                }
            }
            if exec_n > 0 {
                self.last_exec_predicted_ns = Some(exec_sum / exec_n as f64);
            }
        }
        if !points.is_empty() {
            let _frame = kernel.profile_frame(task, &decls::PROCESSOR_ARCHIVE);
            let start = kernel.now(task);
            let tagged = assign_templates(points, trace);
            kernel.charge_overhead(
                task,
                tagged.len() as f64 * kernel.cost.archive_per_sample_ns,
            );
            for (p, template) in &tagged {
                if self.archive.append(p.to_sample(*template)).is_ok() {
                    self.archived_samples += 1;
                }
            }
            // Lineage: the batch entered a memtable; parked traces pick
            // up the archive_memtable stage collectively (a flush is a
            // batch operation, one stamp covers every parked sample).
            let appended = kernel.now(task);
            kernel.telemetry.trace_lifecycle_stamp(
                tscout_telemetry::Stage::ArchiveMemtable,
                start,
                appended,
                self.archive.buffered_samples() as u64,
            );
            let retired_before = kernel
                .telemetry
                .counter_value(tscout_archive::decls::SAMPLES_RETIRED.name, &[]);
            let _ = self.archive.flush();
            let _ = self.archive.maybe_compact();
            let now = kernel.now(task);
            kernel.telemetry.trace_lifecycle_stamp(
                tscout_telemetry::Stage::SegmentSeal,
                appended,
                now,
                0,
            );
            // Compaction retention retires the oldest archived samples:
            // their traces terminate as compacted rather than delivered.
            let retired = kernel
                .telemetry
                .counter_value(tscout_archive::decls::SAMPLES_RETIRED.name, &[])
                .saturating_sub(retired_before);
            if retired > 0 {
                kernel.telemetry.trace_compacted(retired, now);
            }
        }
        let _frame = kernel.profile_frame(task, &decls::MODELS_RETRAIN);
        let start = kernel.now(task);
        let data = datasets_from_archive(&self.archive, kernel.hw.clock_ghz, concurrency);
        let n_points: usize = data.iter().map(tscout_models::OuData::len).sum();
        kernel.telemetry.trace_lifecycle_stamp(
            tscout_telemetry::Stage::Dataset,
            start,
            kernel.now(task),
            n_points as u64,
        );
        kernel.charge_overhead(task, n_points as f64 * kernel.cost.retrain_per_point_ns);
        match self.registry.retrain_split(&data, self.holdout_every) {
            SwapDecision::Accepted { .. } => self.swaps_accepted += 1,
            SwapDecision::Rejected { .. } => self.swaps_rejected += 1,
            SwapDecision::Skipped => {}
        }
        self.retrains += 1;
        let now = kernel.now(task);
        // Lineage terminal: every parked trace completes delivered at the
        // current model generation. The lifecycle-side tracing cost (one
        // stage record per memtable/seal/dataset/generation stamp) lands
        // on this task's clock, like the rest of the lifecycle work.
        let completed = kernel
            .telemetry
            .trace_lifecycle_complete(now, self.registry.generation());
        if completed > 0 {
            kernel.charge_overhead(
                task,
                completed as f64 * 4.0 * kernel.cost.trace_stage_record_ns,
            );
        }
    }
}

/// The action engine's view of the live system: sampling rates on the
/// collector, retrains on the lifecycle, compaction scheduling on the
/// archive, marker placement on the engine.
struct DriverActuator<'a> {
    ts: &'a mut TScout,
    mode: &'a mut EngineMode,
    archive: &'a mut Archive,
    /// A `trigger_retrain` actuation pulls the lifecycle's next retrain
    /// forward to the next pump tick.
    retrain_requested: bool,
}

impl std::fmt::Debug for DriverActuator<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DriverActuator")
            .field("retrain_requested", &self.retrain_requested)
            .finish_non_exhaustive()
    }
}

impl DbmsActuator for DriverActuator<'_> {
    fn set_sampling_rate(&mut self, subsystem: &str, rate: u8) {
        if let Some(s) = tscout::ALL_SUBSYSTEMS
            .into_iter()
            .find(|s| s.name() == subsystem)
        {
            self.ts.set_sampling_rate(s, rate);
        }
    }
    fn trigger_retrain(&mut self) {
        self.retrain_requested = true;
    }
    fn schedule_compaction(&mut self) {
        self.archive.request_compaction();
    }
    fn hold_compaction(&mut self, hold: bool) {
        self.archive.set_compaction_hold(hold);
    }
    fn set_pipeline_mode(&mut self, fused: bool) {
        *self.mode = if fused {
            EngineMode::Fused
        } else {
            EngineMode::PerOperator
        };
    }
}

/// Run a workload for a virtual duration.
pub fn run(db: &mut Database, workload: &mut dyn Workload, opts: &RunOptions) -> RunStats {
    run_inner(db, workload, opts, None)
}

/// Run a workload with a live model lifecycle: collected points are
/// tagged and persisted to the archive at the lifecycle's retrain
/// cadence, and the registry hot-swaps models behind its accuracy gate.
pub fn run_with_lifecycle(
    db: &mut Database,
    workload: &mut dyn Workload,
    opts: &RunOptions,
    lifecycle: &mut ModelLifecycle,
) -> RunStats {
    run_inner(db, workload, opts, Some(lifecycle))
}

fn run_inner(
    db: &mut Database,
    workload: &mut dyn Workload,
    opts: &RunOptions,
    mut lifecycle: Option<&mut ModelLifecycle>,
) -> RunStats {
    // Operator plane: the daemon serves lock-clone snapshots of this
    // run's registry from OS threads and records its own metrics in a
    // server-owned registry, so collected samples are bit-identical
    // with the server on or off. The guard's Drop joins every server
    // thread when the run returns.
    let _obsd = opts
        .obsd
        .clone()
        .or_else(obsd_env_config)
        .and_then(|cfg| tscout_obsd::ObsdServer::start(cfg, db.kernel.telemetry.clone()).ok());
    let overhead_gauge = tscout_actions::decls::OVERHEAD_RATIO.site(&[]);
    // Indexed by `committed as usize`.
    let mut txn_ns = decls::TXN_NS.vec("outcome");
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let terminals: Vec<SessionId> = (0..opts.terminals).map(|_| db.create_session()).collect();
    // Align all terminal clocks to the same start line.
    let start_ns = terminals
        .iter()
        .map(|s| db.now(*s))
        .fold(0.0f64, f64::max)
        .max(db.kernel.now(db.wal.task));
    for s in &terminals {
        let task = db.session_task(*s);
        db.kernel.advance_to(task, start_ns);
    }
    db.kernel.set_runnable(opts.terminals as u32 + 1); // +1 for background

    let mut processor = Processor::new(&mut db.kernel, Sink::Memory(Vec::new()));
    // With a lifecycle, the memory sink is a staging buffer on the way to
    // the archive: traced samples park at the sink stage and complete at
    // the next retrain instead of terminating on consume.
    processor.trace_parks = lifecycle.is_some();
    db.kernel.advance_to(processor.task, start_ns);

    let end_ns = start_ns + opts.duration_ns;
    let mut trace: Vec<QuerySpan> = Vec::new();
    let mut committed = 0u64;
    let mut aborted = 0u64;
    let mut latencies = Vec::new();
    let mut txn_ends = Vec::new();
    let mut next_pump = start_ns + PUMP_EVERY_NS;
    let mut next_gc = start_ns + GC_EVERY_NS;
    // Lifecycle runs drain the in-memory sink at each retrain; keep the
    // full point stream for the caller regardless.
    let mut all_points: Vec<TrainingPoint> = Vec::new();
    let mut next_retrain = match lifecycle.as_ref() {
        Some(lc) if lc.retrain_every_ns < f64::MAX => start_ns + lc.retrain_every_ns,
        _ => f64::MAX,
    };
    // Baseline for the statement-stats accounting delta charged at pump
    // cadence (statements recorded before this run are not ours to bill).
    let mut last_stmt_recorded = db.kernel.telemetry.stmt_recorded();

    // Earliest-first: advance the terminal with the smallest clock until it
    // reaches the end. A run without terminals goes straight to its drain.
    while let Some((&sid, now)) = terminals
        .iter()
        .map(|s| (s, db.now(*s)))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .filter(|&(_, now)| now < end_ns)
    {
        // Background pumping keeps the WAL and Processor in lockstep with
        // the foreground timeline.
        if now >= next_pump {
            db.pump_wal(now);
            let (kernel, ts) = db.collection_parts();
            if let Some(ts) = ts {
                processor.poll(kernel, ts, now);
            }
            if now >= next_retrain {
                if let Some(lc) = lifecycle.as_deref_mut() {
                    let points = processor.take_points();
                    let gen_before = lc.registry.generation();
                    lc.step(kernel, processor.task, &points, &trace, opts.terminals);
                    all_points.extend(points);
                    // An engine-actuated retrain rebaselines the drift
                    // references — but only once a new generation
                    // actually installs, so a rejected swap keeps the
                    // old reference (and the CRITICAL state) honest.
                    if lc.pending_rebaseline && lc.registry.generation() > gen_before {
                        let _root = kernel.profile_frame(processor.task, &TSCOUT);
                        let _frame =
                            kernel.profile_frame(processor.task, &decls::ACTIONS_REBASELINE);
                        let n = kernel.telemetry.drift_rebaseline_all();
                        kernel.charge_overhead(
                            processor.task,
                            kernel.cost.drift_eval_per_ou_ns * n as f64,
                        );
                        lc.pending_rebaseline = false;
                    }
                    next_retrain = now + lc.retrain_every_ns;
                }
            }
            // Refresh the engine's installed model snapshot at pump
            // cadence so per-statement predicted-vs-actual attribution
            // (EXPLAIN ANALYZE, ts_stat_statements MAPE) tracks hot swaps.
            if let Some(lc) = lifecycle.as_deref_mut() {
                db.install_live_model(lc.registry.live(), opts.terminals as f64);
            }
            // Observability turn at the pump cadence: evaluate drift,
            // scrape the counters (the registry keeps the last two), then run
            // the health rules over the fresh gauges and rates. The
            // analysis is charged to the Processor's task like the rest of
            // its background work.
            {
                let kernel = &mut db.kernel;
                let (n_ous, n_rules) = kernel
                    .telemetry
                    .with_registry(|r| (r.drift().len(), r.health().rules().len()));
                let _root = kernel.profile_frame(processor.task, &TSCOUT);
                let _frame = kernel.profile_frame(processor.task, &decls::TELEMETRY_OBSERVABILITY);
                // Statement-stats accounting rides the same cadence: the
                // engine's recording path is clock-neutral (PR-6 tracer
                // discipline), so its cost is charged here from the
                // recorded-counter delta — training samples stay
                // bit-identical with statement stats on or off.
                let stmt_recorded = kernel.telemetry.stmt_recorded();
                let stmt_delta = stmt_recorded.saturating_sub(last_stmt_recorded) as f64;
                last_stmt_recorded = stmt_recorded;
                kernel.charge_overhead(
                    processor.task,
                    kernel.cost.drift_eval_per_ou_ns * n_ous as f64
                        + kernel.cost.health_rule_eval_ns * n_rules as f64
                        + (kernel.cost.stmt_fingerprint_ns + kernel.cost.stmt_record_ns)
                            * stmt_delta,
                );
                let alerts = kernel.telemetry.observability_tick(now);
                // Flight recorder: a CRITICAL transition snapshots every
                // `ts_*` table (`ts_metrics` among them) and the active
                // profile into an on-disk evidence bundle.
                if !alerts.is_empty() && kernel.telemetry.flight_recorder_armed() {
                    let folded = kernel.profiler.folded_text();
                    kernel.telemetry.flight_record(now, &alerts, &folded);
                }
            }
            // The profiler's tscout/dbms attribution, published as a
            // gauge every pump: the action engine's overhead signal, and
            // a run-level observable even with the engine off (so the
            // gauge series is identical in engine-on and control runs).
            let overhead_ratio = db.kernel.profiler.attribution().tscout_dbms_ratio();
            if let Some(r) = overhead_ratio {
                overhead_gauge.get(&db.kernel.telemetry).set(r);
            }
            // Action-engine turn: close due follow-ups, evaluate the
            // policy set, actuate survivors. All planner cost lands on
            // the Processor's clock (never a session's), so collected
            // sample bytes are bit-identical with the engine on or off.
            if let Some(lc) = lifecycle.as_deref_mut() {
                if lc.actions.as_ref().is_some_and(|e| e.cfg.enabled) {
                    let mut engine = lc.actions.take().expect("checked above");
                    let model_generation = lc.registry.generation();
                    let predicted_exec = lc.last_exec_predicted_ns;
                    let (kernel, ts, mode) = db.actuation_parts();
                    if let Some(ts) = ts {
                        let _root = kernel.profile_frame(processor.task, &TSCOUT);
                        let _frame = kernel.profile_frame(processor.task, &decls::ACTIONS_PLAN);
                        let due = engine.due_followups(now);
                        kernel.charge_overhead(
                            processor.task,
                            kernel.cost.action_plan_ns * POLICY_COUNT as f64
                                + kernel.cost.action_followup_ns * due as f64,
                        );
                        let rates: Vec<SubsystemRate> = processor
                            .subsystem_feedback(ts)
                            .into_iter()
                            .map(|f| SubsystemRate {
                                subsystem: f.subsystem.name().to_string(),
                                current: f.current,
                                recommended: f.recommended,
                                loss_delta: f.loss_delta,
                            })
                            .collect();
                        let inputs = PlannerInputs {
                            now_ns: now,
                            overhead_ratio,
                            rates,
                            predicted_exec_ou_ns: predicted_exec,
                            pipeline_fused: matches!(*mode, EngineMode::Fused),
                            model_generation,
                        };
                        let mut actuator = DriverActuator {
                            ts,
                            mode,
                            archive: &mut lc.archive,
                            retrain_requested: false,
                        };
                        let report = engine.tick(&inputs, &mut actuator);
                        if actuator.retrain_requested {
                            next_retrain = now;
                            lc.pending_rebaseline = true;
                        }
                        // Closed follow-ups become action-efficacy
                        // samples in their own archive OU family, charged
                        // like any other archival; a regressed action
                        // dumps a flight bundle naming the action id.
                        for o in &report.observed {
                            kernel
                                .charge_overhead(processor.task, kernel.cost.archive_per_sample_ns);
                            let _ = lc.archive.append(o.to_sample());
                            if o.regressed && kernel.telemetry.flight_recorder_armed() {
                                let folded = kernel.profiler.folded_text();
                                kernel.telemetry.flight_record_action(now, o.id, &folded);
                            }
                        }
                    }
                    lc.actions = Some(engine);
                }
            }
            next_pump = now + PUMP_EVERY_NS;
        }
        if now >= next_gc {
            db.run_gc();
            next_gc = now + GC_EVERY_NS;
        }

        let t0 = db.now(sid);
        let ok = {
            let mut ctx = TxnCtx {
                db,
                sid,
                rng: &mut rng,
                trace: &mut trace,
            };
            workload.txn(&mut ctx)
        };
        let t1 = db.now(sid);
        let outcome = if ok { "committed" } else { "aborted" };
        txn_ns
            .at(&db.kernel.telemetry, usize::from(ok), || outcome)
            .record(t1 - t0);
        if ok {
            committed += 1;
            latencies.push(t1 - t0);
            txn_ends.push(t1);
        } else {
            aborted += 1;
        }
    }

    // Final flush. `samples_processed` is measured at the run horizon —
    // the Processor may not keep up (that is the Fig. 6 ceiling) — and
    // only then is the remaining ring drained so accuracy experiments
    // keep every surviving sample.
    db.pump_wal(end_ns + 1e9);
    let (samples_processed, samples_dropped, points) = {
        let (kernel, ts) = db.collection_parts();
        let r = match ts {
            Some(ts) => {
                processor.poll(kernel, ts, end_ns);
                let in_run = processor.processed;
                processor.drain_all(kernel, ts);
                let tail = processor.take_points();
                // Final lifecycle turn: persist the tail, seal the active
                // segment, and retrain one last time over the full history.
                if let Some(lc) = lifecycle.as_deref_mut() {
                    lc.step(kernel, processor.task, &tail, &trace, opts.terminals);
                    let _ = lc.archive.seal();
                }
                all_points.extend(tail);
                (in_run, ts.ring_dropped(), std::mem::take(&mut all_points))
            }
            None => (0, 0, Vec::new()),
        };
        r
    };
    // Final observability turn so the last scrape, drift scores, and
    // health states reflect the fully drained run.
    let alerts = db.kernel.telemetry.observability_tick(end_ns + 2e9);
    if !alerts.is_empty() && db.kernel.telemetry.flight_recorder_armed() {
        let folded = db.kernel.profiler.folded_text();
        db.kernel
            .telemetry
            .flight_record(end_ns + 2e9, &alerts, &folded);
    }

    let duration_ns = opts.duration_ns;
    let (archived_samples, retrains) = lifecycle
        .as_ref()
        .map_or((0, 0), |lc| (lc.archived_samples, lc.retrains));
    RunStats {
        committed,
        aborted,
        duration_ns,
        throughput: committed as f64 / (duration_ns / 1e9),
        latencies_ns: latencies,
        txn_ends_ns: txn_ends,
        trace,
        points,
        samples_processed,
        samples_dropped,
        archived_samples,
        retrains,
    }
}

/// Tag each training point with the query template whose span contains
/// it (same thread, start time within the span). Background subsystems
/// (WAL, GC) fall outside any span and get template 0.
pub fn assign_templates(
    points: &[TrainingPoint],
    trace: &[QuerySpan],
) -> Vec<(TrainingPoint, u32)> {
    // Per-tid spans sorted by start.
    let mut by_tid: std::collections::HashMap<u32, Vec<&QuerySpan>> =
        std::collections::HashMap::new();
    for s in trace {
        by_tid.entry(s.tid).or_default().push(s);
    }
    for spans in by_tid.values_mut() {
        spans.sort_by(|a, b| a.start_ns.total_cmp(&b.start_ns));
    }
    points
        .iter()
        .map(|p| {
            let template = by_tid
                .get(&p.tid)
                .and_then(|spans| {
                    let t = p.start_ns as f64;
                    let i = spans.partition_point(|s| s.start_ns <= t);
                    i.checked_sub(1).map(|i| spans[i]).filter(|s| t <= s.end_ns)
                })
                .map(|s| s.template)
                .unwrap_or(0);
            (p.clone(), template)
        })
        .collect()
}

/// Build per-OU labeled datasets from tagged points, each row laid out by
/// [`input_values`] straight into its OU's columns.
pub fn build_datasets(
    tagged: &[(TrainingPoint, u32)],
    clock_ghz: f64,
    concurrency: usize,
) -> Vec<OuData> {
    let mut by_ou: std::collections::BTreeMap<&str, OuData> = Default::default();
    for (p, template) in tagged {
        let d = (by_ou.entry(p.ou_name.as_str())).or_insert_with(|| OuData::new(&p.ou_name));
        let row = input_values(p.features.iter().copied(), clock_ghz, concurrency as f64);
        d.points.push_row(row, p.elapsed_ns as f64, *template);
    }
    by_ou.into_values().collect()
}

/// Convenience: run + tag + build datasets in one call.
pub fn collect_datasets(
    db: &mut Database,
    workload: &mut dyn Workload,
    opts: &RunOptions,
) -> (RunStats, Vec<OuData>) {
    let clock = db.kernel.hw.clock_ghz;
    let stats = run(db, workload, opts);
    let tagged = assign_templates(&stats.points, &stats.trace);
    let data = build_datasets(&tagged, clock, opts.terminals);
    (stats, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tscout::{CollectionMode, TsConfig};
    use tscout_kernel::{HardwareProfile, Kernel};

    /// A loaded YCSB database collecting every subsystem at 100 %.
    fn collecting_ycsb() -> (Database, crate::Ycsb) {
        let mut k = Kernel::with_seed(HardwareProfile::server_2x20(), 11);
        k.noise_frac = 0.0;
        k.set_profile_period_ns(tscout_telemetry::DEFAULT_PROFILE_PERIOD_NS);
        let mut db = Database::new(k);
        let mut w = crate::Ycsb::new(300);
        w.setup(&mut db);
        let mut cfg = TsConfig::new(CollectionMode::KernelContinuous);
        cfg.enable_all_subsystems();
        db.attach_tscout(cfg).unwrap();
        {
            let ts = db.tscout_mut().unwrap();
            for s in tscout::ALL_SUBSYSTEMS {
                ts.set_sampling_rate(s, 100);
            }
        }
        (db, w)
    }

    /// A Ridge lifecycle over a fresh archive in a temp dir named by
    /// `tag`, and that dir.
    fn lifecycle(
        db: &Database,
        tag: &str,
        retrain_every_ns: f64,
    ) -> (ModelLifecycle, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("tscout_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let telemetry = db.kernel.telemetry.clone();
        let (opts, kind) = (ArchiveOptions::default(), ModelKind::Ridge);
        let lc = ModelLifecycle::new(&dir, opts, kind, 7, retrain_every_ns, telemetry).unwrap();
        (lc, dir)
    }

    #[test]
    fn a_run_with_no_terminals_commits_nothing_and_still_drains() {
        let opts = RunOptions {
            terminals: 0,
            duration_ns: 10e6,
            ..Default::default()
        };
        let (mut db, mut w) = collecting_ycsb();
        let stats = run(&mut db, &mut w, &opts);
        assert_eq!((stats.committed, stats.aborted), (0, 0));
        assert_eq!(stats.throughput, 0.0);
        assert!(stats.trace.is_empty() && stats.latencies_ns.is_empty());

        let (mut lc, dir) = lifecycle(&db, "lc_idle", 1e6);
        let stats = run_with_lifecycle(&mut db, &mut w, &opts, &mut lc);
        assert_eq!(stats.committed, 0);
        assert_eq!(stats.retrains, 1, "the final lifecycle turn still runs");
        assert_eq!(stats.archived_samples, stats.points.len() as u64);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lifecycle_archives_tags_and_swaps_models() {
        let (mut db, mut w) = collecting_ycsb();
        // Retrain every 10 virtual ms.
        let (mut lc, dir) = lifecycle(&db, "lc", 10e6);
        let opts = RunOptions {
            terminals: 2,
            duration_ns: 40e6,
            ..Default::default()
        };
        let stats = run_with_lifecycle(&mut db, &mut w, &opts, &mut lc);
        assert!(stats.committed > 10, "committed {}", stats.committed);
        assert!(stats.retrains >= 2, "retrains {}", stats.retrains);
        assert_eq!(stats.archived_samples, stats.points.len() as u64);
        assert!(stats.archived_samples > 0);
        assert!(lc.swaps_accepted >= 1, "first retrain must install");
        assert_eq!(lc.registry.generation(), lc.swaps_accepted);
        // Archived samples round-trip with the post-hoc template tags.
        let back: Vec<_> = lc.archive.scan_all().collect();
        assert_eq!(back.len(), stats.points.len());
        assert!(
            back.iter().any(|s| s.template > 0),
            "foreground samples carry their query template"
        );
        // The live model predicts for OUs the run exercised.
        let live = lc.registry.live().unwrap();
        assert!(!live.models.ou_names().is_empty());
        assert_eq!(
            db.kernel.telemetry.gauge_value("model_generation", &[]),
            lc.registry.generation() as f64
        );
        // Lifecycle work surfaced in the profiler under the tscout root.
        let folded = db.kernel.profiler.folded();
        assert!(
            folded
                .iter()
                .any(|(stack, _)| stack.contains("models:retrain")),
            "missing retrain frame in {:?}",
            folded.iter().map(|(stack, _)| stack).collect::<Vec<_>>()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn template_assignment_picks_enclosing_span() {
        let mk = |tid, template, s, e| QuerySpan {
            tid,
            template,
            start_ns: s,
            end_ns: e,
        };
        let trace = vec![
            mk(1, 10, 0.0, 100.0),
            mk(1, 20, 200.0, 300.0),
            mk(2, 30, 0.0, 50.0),
        ];
        let pt = |tid, start| TrainingPoint {
            ou: 0,
            ou_name: "x".into(),
            subsystem: tscout::Subsystem::ExecutionEngine,
            tid,
            start_ns: start,
            elapsed_ns: 1,
            metrics: vec![],
            features: vec![],
            user_metrics: vec![],
        };
        let pts = vec![pt(1, 50), pt(1, 250), pt(1, 150), pt(2, 10), pt(3, 10)];
        let tagged = assign_templates(&pts, &trace);
        let ts: Vec<u32> = tagged.iter().map(|(_, t)| *t).collect();
        assert_eq!(ts, vec![10, 20, 0, 30, 0]);
    }

    #[test]
    fn build_datasets_appends_hw_feature() {
        let p = TrainingPoint {
            ou: 0,
            ou_name: "scan".into(),
            subsystem: tscout::Subsystem::ExecutionEngine,
            tid: 1,
            start_ns: 0,
            elapsed_ns: 500,
            metrics: vec![],
            features: vec![10.0, 20.0],
            user_metrics: vec![],
        };
        let data = build_datasets(&[(p, 3)], 2.1, 4);
        assert_eq!(data.len(), 1);
        let p = data[0].points.at(0);
        assert_eq!(p.features, vec![10.0, 20.0, 2.1, 4.0]);
        assert_eq!((p.template, p.target_ns), (3, 500.0));
    }

    #[test]
    fn latency_percentiles() {
        let stats = RunStats {
            committed: 0,
            aborted: 0,
            duration_ns: 1e9,
            throughput: 0.0,
            latencies_ns: (1..=100).map(|i| i as f64 * 1e6).collect(),
            txn_ends_ns: vec![],
            trace: vec![],
            points: vec![],
            samples_processed: 0,
            samples_dropped: 0,
            archived_samples: 0,
            retrains: 0,
        };
        assert!((stats.latency_percentile_ms(99.0) - 99.0).abs() < 1.5);
        assert!((stats.latency_percentile_ms(50.0) - 50.0).abs() < 1.5);
    }
}
