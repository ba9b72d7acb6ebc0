//! The `ts_*` introspection tables, declared once.
//!
//! PostgreSQL exposes its collector through `pg_stat_*` views; the
//! TScout observability plane does the same. Each [`Table`] puts a
//! table's schema next to the function that materializes its rows from
//! a [`Registry`], and every surface is a reader of [`TABLES`]: SQL
//! virtual scans (`noisetap::stat`), obsd's `GET /api/v1/<api_key>`,
//! `tscoutctl stat`, the `results/tables_<entry>.json` artifact and
//! flight-recorder bundles. [`rows_json`] is the one place rows become
//! JSON, so the surfaces cannot disagree on a column, a NULL or a
//! number format.

use std::borrow::Cow;

use crate::metrics::Registry;
use crate::{decls, json_escape, json_num};
use ColType::{Bool, Float, Int, Text};

/// Column type of a `ts_*` table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColType {
    Int,
    Float,
    Text,
    Bool,
}

/// One cell of a `ts_*` row.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    Null,
    Int(i64),
    Float(f64),
    /// Borrowed when the text is a `&'static str` (a stage or state
    /// name), so building a row copies no name.
    Text(Cow<'static, str>),
    Bool(bool),
}

/// One introspection table: schema and row source side by side.
#[derive(Debug)]
pub struct Table {
    /// SQL name, lowercase (the catalog's canonical form).
    pub name: &'static str,
    /// obsd serves the table at `GET /api/v1/<api_key>`.
    pub api_key: &'static str,
    pub columns: &'static [(&'static str, ColType)],
    /// Current rows; each as wide as `columns`.
    pub rows: fn(&Registry) -> Vec<Vec<Cell>>,
}

fn int(v: u64) -> Cell {
    Cell::Int(v as i64)
}

/// A gauge that holds a count or a generation.
#[allow(clippy::cast_possible_truncation)] // such a gauge is set from an integer below 2^53
fn whole(v: f64) -> Cell {
    Cell::Int(v as i64)
}

fn text(s: &str) -> Cell {
    Cell::Text(Cow::Owned(s.to_string()))
}

/// [`text`] for a name that lives for the program, borrowed.
fn label(s: &'static str) -> Cell {
    Cell::Text(Cow::Borrowed(s))
}

fn opt<T>(v: Option<T>, cell: impl FnOnce(T) -> Cell) -> Cell {
    v.map_or(Cell::Null, cell)
}

/// Every introspection table. Scans run through the normal planner /
/// executor path, so projections, filters, aggregation, ORDER BY and
/// LIMIT all compose: `SELECT ou, drift_score FROM ts_stat_ou WHERE
/// drift_score > 0.2`.
pub const TABLES: &[Table] = &[
    // One row per OU the drift detector tracks: lifetime sample counts,
    // target-latency quantiles from the streaming sketch, PSI/KS drift
    // scores per channel, residual MAPE, and the OU's health state.
    Table {
        name: "ts_stat_ou",
        api_key: "ou",
        columns: &[
            ("ou", Text),
            ("subsystem", Text),
            ("samples", Int),
            ("target_mean_ns", Float),
            ("target_p50_ns", Float),
            ("target_p99_ns", Float),
            ("psi_target", Float),
            ("psi_feature", Float),
            ("ks_target", Float),
            ("ks_feature", Float),
            ("drift_score", Float),
            ("residual_mape_pct", Float),
            ("health", Text),
        ],
        // The drift registry iterates in OU-name order.
        rows: |r| {
            r.drift()
                .iter()
                .map(|(ou, d)| {
                    vec![
                        text(ou),
                        text(&d.subsystem),
                        int(d.samples),
                        Cell::Float(d.lifetime.mean()),
                        Cell::Float(d.lifetime.quantile(0.50)),
                        Cell::Float(d.lifetime.quantile(0.99)),
                        Cell::Float(d.target.psi()),
                        Cell::Float(d.feature.psi()),
                        Cell::Float(d.target.ks()),
                        Cell::Float(d.feature.ks()),
                        Cell::Float(d.drift_score()),
                        Cell::Float(d.residual_mape_pct()),
                        label(r.health().state_for_target(ou).name()),
                    ]
                })
                .collect()
        },
    },
    // One row per health-engine subsystem with its OK/DEGRADED/CRITICAL
    // state and alert counts.
    Table {
        name: "ts_stat_subsystem",
        api_key: "subsystem",
        columns: &[
            ("subsystem", Text),
            ("state", Text),
            ("state_code", Int),
            ("rules", Int),
            ("alerts_fired", Int),
        ],
        rows: |r| {
            r.health()
                .subsystem_states()
                .into_iter()
                .map(|(subsystem, state)| {
                    vec![
                        text(&subsystem),
                        label(state.name()),
                        Cell::Int(state as i64),
                        int(r.health().rules_for_subsystem(&subsystem) as u64),
                        int(r.health().fired_for_subsystem(&subsystem)),
                    ]
                })
                .collect()
        },
    },
    // A single row describing the live behavior-model generation and
    // its accuracy gate history.
    Table {
        name: "ts_stat_model",
        api_key: "model",
        columns: &[
            ("generation", Int),
            ("holdout_mape_pct", Float),
            ("trained_points", Int),
            ("swaps_accepted", Int),
            ("swaps_rejected", Int),
        ],
        rows: |r| {
            vec![vec![
                whole(r.gauge_value(decls::MODEL_GENERATION.name, &[])),
                Cell::Float(r.gauge_value(decls::MODEL_HOLDOUT_MAPE_PCT.name, &[])),
                whole(r.gauge_value(decls::MODEL_TRAINED_POINTS.name, &[])),
                int(r.counter_value(decls::MODEL_SWAP_ACCEPTED.name, &[])),
                int(r.counter_value(decls::MODEL_SWAP_REJECTED.name, &[])),
            ]]
        },
    },
    // The health engine's recent alert ring, newest last.
    Table {
        name: "ts_alerts",
        api_key: "alerts",
        columns: &[
            ("seq", Int),
            ("at_ns", Float),
            ("rule", Text),
            ("subsystem", Text),
            ("target", Text),
            ("from_state", Text),
            ("to_state", Text),
            ("value", Float),
            ("threshold", Float),
        ],
        rows: |r| {
            r.health()
                .alerts()
                .map(|a| {
                    vec![
                        int(a.seq),
                        Cell::Float(a.at_ns),
                        text(&a.rule),
                        text(&a.subsystem),
                        text(&a.target),
                        label(a.from.name()),
                        label(a.to.name()),
                        Cell::Float(a.value),
                        Cell::Float(a.threshold),
                    ]
                })
                .collect()
        },
    },
    // The lineage tracer's completed-trace ring: one row per sampled
    // marker that reached a terminal outcome, with its critical stage
    // and end-to-end latency.
    Table {
        name: "ts_traces",
        api_key: "traces",
        columns: &[
            ("trace_id", Int),
            ("ou", Int),
            ("subsystem", Int),
            ("tid", Int),
            ("started_ns", Float),
            ("stages", Int),
            ("outcome", Text),
            ("fail_reason", Text),
            ("critical_stage", Text),
            ("critical_ns", Float),
            ("total_ns", Float),
            ("model_generation", Int),
            ("monotone", Bool),
        ],
        rows: |r| {
            r.tracer()
                .completed_iter()
                .map(|t| {
                    let crit = t.critical_stage();
                    vec![
                        int(t.id.0),
                        int(u64::from(t.ou)),
                        int(u64::from(t.subsystem)),
                        int(t.tid),
                        Cell::Float(t.started_ns),
                        int(t.stages.len() as u64),
                        opt(t.outcome, |o| label(o.name())),
                        opt(t.fail_reason.as_deref(), text),
                        opt(crit, |(s, _)| label(s.name())),
                        Cell::Float(crit.map_or(0.0, |(_, d)| d)),
                        Cell::Float(t.total_ns()),
                        opt(t.model_generation, int),
                        Cell::Bool(t.timestamps_monotone()),
                    ]
                })
                .collect()
        },
    },
    // The per-stage lineage behind `ts_traces`: one row per stage visit
    // of each completed trace, `seq` counting visits within the trace.
    Table {
        name: "ts_trace_stages",
        api_key: "trace_stages",
        columns: &[
            ("trace_id", Int),
            ("seq", Int),
            ("stage", Text),
            ("enter_ns", Float),
            ("exit_ns", Float),
            ("queue_depth", Int),
        ],
        rows: |r| {
            r.tracer()
                .completed_iter()
                .flat_map(|t| {
                    t.stages.iter().enumerate().map(|(seq, s)| {
                        vec![
                            int(t.id.0),
                            int(seq as u64),
                            label(s.stage.name()),
                            Cell::Float(s.enter_ns),
                            Cell::Float(s.exit_ns),
                            int(s.queue_depth),
                        ]
                    })
                })
                .collect()
        },
    },
    // One row per pipeline stage, visited or not, with visit counts,
    // latency aggregates (p50/p99 from the stage histograms), the
    // exemplar TraceId behind the worst visit, and how often the stage
    // dominated a trace's critical path.
    Table {
        name: "ts_stat_pipeline",
        api_key: "pipeline",
        columns: &[
            ("stage", Text),
            ("seq", Int),
            ("visits", Int),
            ("mean_ns", Float),
            ("p50_ns", Float),
            ("p99_ns", Float),
            ("max_ns", Float),
            ("exemplar_trace_id", Int),
            ("avg_queue_depth", Float),
            ("critical_count", Int),
        ],
        rows: |r| {
            r.tracer()
                .stage_aggs()
                .enumerate()
                .map(|(seq, (stage, a))| {
                    let (p50, p99) = r
                        .hist_snapshot(decls::TRACE_STAGE_NS.name, &[("stage", stage.name())])
                        .map_or((0.0, 0.0), |s| (s.p50, s.p99));
                    let n = a.count.max(1) as f64;
                    vec![
                        label(stage.name()),
                        int(seq as u64),
                        int(a.count),
                        Cell::Float(a.total_ns / n),
                        Cell::Float(p50),
                        Cell::Float(p99),
                        Cell::Float(a.max_ns),
                        int(a.max_id),
                        Cell::Float(a.queue_sum / n),
                        int(a.critical),
                    ]
                })
                .collect()
        },
    },
    // One row per OU stored in the training-data archive: samples
    // appended, blocks and bytes written. The archive-global
    // segment counters repeat on every row, so a single
    // scan answers both per-OU and whole-archive questions.
    Table {
        name: "ts_stat_archive",
        api_key: "archive",
        columns: &[
            ("ou", Text),
            ("samples_appended", Int),
            ("blocks", Int),
            ("bytes_written", Int),
            ("segments", Int),
            ("buffered_samples", Int),
            ("segments_sealed", Int),
            ("segments_compacted", Int),
        ],
        rows: |r| {
            const PER_OU: [&str; 3] = [
                decls::ARCHIVE_OU_SAMPLES_APPENDED.name,
                decls::ARCHIVE_OU_BLOCKS.name,
                decls::ARCHIVE_OU_BYTES_WRITTEN.name,
            ];
            // OUs are discovered from the per-OU labeled counters the
            // archive records at append and flush time.
            let mut ous: Vec<&str> = PER_OU
                .iter()
                .flat_map(|name| r.counter_family(name))
                .filter_map(|(labels, _)| labels.iter().find(|(l, _)| l == "ou"))
                .map(|(_, ou)| ou.as_str())
                .collect();
            ous.sort();
            ous.dedup();
            ous.iter()
                .map(|ou| {
                    let mut row = vec![text(ou)];
                    row.extend(
                        PER_OU
                            .iter()
                            .map(|name| int(r.counter_value(name, &[("ou", ou)]))),
                    );
                    row.extend([
                        whole(r.gauge_value(decls::ARCHIVE_SEGMENTS.name, &[])),
                        whole(r.gauge_value(decls::ARCHIVE_BUFFERED_SAMPLES.name, &[])),
                        int(r.counter_value(decls::ARCHIVE_SEGMENTS_SEALED.name, &[])),
                        int(r.counter_value(decls::ARCHIVE_SEGMENTS_COMPACTED.name, &[])),
                    ]);
                    row
                })
                .collect()
        },
    },
    // One row per statement fingerprint (the `pg_stat_statements`
    // shape), in fingerprint order: call counts, total/min/max/mean
    // actual ns, rows, the OU-attributed cost breakdown as `ou=ns`
    // pairs, and the rolling predicted-vs-actual MAPE against the live
    // behavior models.
    Table {
        name: "ts_stat_statements",
        api_key: "statements",
        columns: &[
            ("fingerprint", Text),
            ("calls", Int),
            ("rows", Int),
            ("total_ns", Float),
            ("min_ns", Float),
            ("max_ns", Float),
            ("mean_ns", Float),
            ("ou_ns_total", Float),
            ("ou_breakdown", Text),
            ("predicted_calls", Int),
            ("mape_pct", Float),
        ],
        rows: |r| {
            r.stmts()
                .entries()
                .map(|e| {
                    let breakdown: Vec<String> =
                        e.ou_ns().map(|(ou, ns)| format!("{ou}={ns:.0}")).collect();
                    vec![
                        text(&e.fingerprint),
                        int(e.calls),
                        int(e.rows),
                        Cell::Float(e.total_ns),
                        Cell::Float(if e.calls == 0 { 0.0 } else { e.min_ns }),
                        Cell::Float(e.max_ns),
                        Cell::Float(e.mean_ns()),
                        Cell::Float(e.ou_ns_total()),
                        Cell::Text(breakdown.join(";").into()),
                        int(e.predicted_calls),
                        Cell::Float(e.mape_pct()),
                    ]
                })
                .collect()
        },
    },
    // The action engine's log, oldest first: one row per planned action
    // with its policy and predicted effect; the observed columns are
    // NULL until the action's follow-up closes.
    Table {
        name: "ts_actions",
        api_key: "actions",
        columns: &[
            ("id", Int),
            ("kind", Text),
            ("policy", Text),
            ("target", Text),
            ("detail", Text),
            ("state", Text),
            ("dry_run", Bool),
            ("planned_at_ns", Float),
            ("observe_at_ns", Float),
            ("metric", Text),
            ("value_before", Float),
            ("predicted", Float),
            ("observed", Float),
            ("observed_at_ns", Float),
            ("err_pct", Float),
            ("regressed", Bool),
            ("model_generation", Int),
        ],
        rows: |r| {
            r.actions()
                .iter()
                .map(|a| {
                    vec![
                        int(a.id),
                        text(&a.kind),
                        text(&a.policy),
                        text(&a.target),
                        text(&a.detail),
                        label(a.state.name()),
                        Cell::Bool(a.dry_run),
                        Cell::Float(a.planned_at_ns),
                        Cell::Float(a.observe_at_ns),
                        text(&a.metric),
                        Cell::Float(a.value_before),
                        Cell::Float(a.predicted),
                        opt(a.observed, Cell::Float),
                        opt(a.observed_at_ns, Cell::Float),
                        opt(a.err_pct, Cell::Float),
                        Cell::Bool(a.regressed),
                        int(a.model_generation),
                    ]
                })
                .collect()
        },
    },
    // The metric registry itself, one row per series: `value` for
    // counters and gauges, the summary columns for histograms, NULL
    // where a kind has none (see `Registry::metric_rows`).
    Table {
        name: "ts_metrics",
        // Not "metrics": that is obsd's endpoint label for `/metrics`.
        api_key: "series",
        columns: &[
            ("name", Text),
            ("labels", Text),
            ("kind", Text),
            ("value", Float),
            ("count", Int),
            ("sum", Float),
            ("p50", Float),
            ("p95", Float),
            ("p99", Float),
        ],
        rows: Registry::metric_rows,
    },
];

/// The table named `name` (SQL name, any case).
pub fn table(name: &str) -> Option<&'static Table> {
    TABLES.iter().find(|t| t.name.eq_ignore_ascii_case(name))
}

/// Append `items` to `out` as a JSON array, each rendered by `item`.
fn array<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut item: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, it) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(out, it);
    }
    out.push(']');
}

fn quoted(out: &mut String, s: &str) {
    out.push('"');
    out.push_str(&json_escape(s));
    out.push('"');
}

/// `{"table":...,"columns":[...],"rows":[[...],...]}` — the one place
/// rows become JSON. `table` is `None` for an ad-hoc SQL result. A
/// non-finite float renders as `null`, like SQL NULL.
pub fn rows_json<'a>(
    table: Option<&str>,
    columns: impl IntoIterator<Item = &'a str>,
    rows: &[Vec<Cell>],
) -> String {
    let mut out = String::from("{");
    if let Some(t) = table {
        out.push_str("\"table\":");
        quoted(&mut out, t);
        out.push(',');
    }
    out.push_str("\"columns\":");
    array(&mut out, columns, quoted);
    out.push_str(",\"rows\":");
    array(&mut out, rows, |out, row| {
        array(out, row, |out, cell| match cell {
            Cell::Null => out.push_str("null"),
            Cell::Int(i) => out.push_str(&i.to_string()),
            Cell::Float(f) => out.push_str(&json_num(*f)),
            Cell::Text(s) => quoted(out, s),
            Cell::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        });
    });
    out.push('}');
    out
}

impl Table {
    /// The table's current rows in the shape obsd serves.
    pub fn to_json(&self, r: &Registry) -> String {
        rows_json(
            Some(self.name),
            self.columns.iter().map(|(name, _)| *name),
            &(self.rows)(r),
        )
    }
}

/// Every table's [`Table::to_json`] keyed by table name, one per line:
/// one database's element of the `results/tables_<entry>.json` artifact
/// and the `tables` member of a flight-recorder bundle.
pub fn all_tables_json(r: &Registry) -> String {
    let docs: Vec<String> = TABLES
        .iter()
        .map(|t| format!("\"{}\": {}", t.name, t.to_json(r)))
        .collect();
    format!("{{\n{}\n}}\n", docs.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ActionRecord, ActionState, Telemetry};

    fn rows(name: &str, t: &Telemetry) -> Vec<Vec<Cell>> {
        t.with_registry(|r| (table(name).unwrap().rows)(r))
    }

    #[test]
    fn lookup_is_case_insensitive_and_names_are_unique() {
        for (i, t) in TABLES.iter().enumerate() {
            assert_eq!(table(&t.name.to_uppercase()).unwrap().name, t.name);
            assert!(!t.columns.is_empty());
            assert!(TABLES[..i]
                .iter()
                .all(|o| o.name != t.name && o.api_key != t.api_key));
        }
        assert!(table("acct").is_none());
    }

    #[test]
    fn rows_match_registry_content() {
        let t = Telemetry::new();
        t.observe_ou_sample("seq_scan", "execution_engine", 1_000.0, 3.0);
        t.observe_ou_sample("seq_scan", "execution_engine", 2_000.0, 4.0);
        static OUS: [&str; 3] = ["idx_lookup", "output", "seq_scan"];
        t.stmt_record(
            crate::StmtId::intern("select v from t where (id = ?)"),
            5_000.0,
            1,
            crate::OuNs::new(&OUS, &[(0, 3_000.0), (1, 500.0)]),
            Some(4_200.0),
        );
        t.observability_tick(1e9);
        let ou_rows = rows("ts_stat_ou", &t);
        assert_eq!(ou_rows.len(), 1);
        assert_eq!(ou_rows[0][0], text("seq_scan"));
        assert_eq!(ou_rows[0][2], Cell::Int(2));
        // One row per default-rule subsystem, states all OK at rest.
        let sub_rows = rows("ts_stat_subsystem", &t);
        assert!(!sub_rows.is_empty());
        assert!(sub_rows.iter().all(|r| r[1] == text("OK")));
        // The model table always has exactly one row.
        assert_eq!(rows("ts_stat_model", &t).len(), 1);
        // Statement stats surface the recorded fingerprint with its
        // OU breakdown rendered as `ou=ns` pairs.
        let stmt_rows = rows("ts_stat_statements", &t);
        assert_eq!(stmt_rows.len(), 1);
        assert_eq!(stmt_rows[0][0], text("select v from t where (id = ?)"));
        assert_eq!(stmt_rows[0][1], Cell::Int(1));
        assert_eq!(stmt_rows[0][3], Cell::Float(5_000.0));
        assert_eq!(stmt_rows[0][7], Cell::Float(3_500.0));
        assert_eq!(stmt_rows[0][8], text("idx_lookup=3000;output=500"));
    }

    #[test]
    fn trace_tables_materialize_from_tracer_state() {
        let t = Telemetry::new();
        t.trace_set_every(1);
        let id = t.trace_begin(7, 2, 42, 100.0).unwrap();
        t.trace_publish(id, 0, 200.0, 3);
        assert!(t.trace_consume(0, 300.0, 350.0, 400.0, 2, true));
        let traces = rows("ts_traces", &t);
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0][0], int(id.0));
        assert_eq!(traces[0][5], Cell::Int(4), "marker, ring, drain, sink");
        assert_eq!(traces[0][6], text("delivered"));
        assert_eq!(traces[0][7], Cell::Null, "delivered: no fail_reason");
        assert_eq!(traces[0][12], Cell::Bool(true));
        // The per-stage lineage: one row per visit, in visit order.
        let stages = rows("ts_trace_stages", &t);
        let visited: Vec<&Cell> = stages.iter().map(|s| &s[2]).collect();
        assert_eq!(
            visited,
            [
                &text("marker"),
                &text("ring_buffer"),
                &text("drain"),
                &text("sink")
            ]
        );
        for (seq, s) in stages.iter().enumerate() {
            assert_eq!((&s[0], &s[1]), (&int(id.0), &int(seq as u64)));
        }
        assert_eq!(
            stages[1][3..],
            [Cell::Float(200.0), Cell::Float(300.0), int(3)]
        );
        // The pipeline table always lists every stage, visited or not.
        let pipe = rows("ts_stat_pipeline", &t);
        assert_eq!(pipe.len(), crate::ALL_STAGES.len());
        assert_eq!(pipe[0][0], text("marker"));
        assert_eq!(pipe[0][2], Cell::Int(1), "one visit through marker");
    }

    #[test]
    fn actions_table_reconciles_with_the_in_memory_log() {
        let t = Telemetry::new();
        assert!(rows("ts_actions", &t).is_empty());
        let id = t.action_append(ActionRecord {
            id: 0,
            kind: "trigger_retrain".into(),
            policy: "retrain_on_drift".into(),
            target: "data".into(),
            detail: "test".into(),
            state: ActionState::Pending,
            dry_run: false,
            planned_at_ns: 1e6,
            observe_at_ns: 41e6,
            metric: "ts_health_state{subsystem=\"data\"}".into(),
            value_before: 2.0,
            predicted: 0.0,
            observed: None,
            observed_at_ns: None,
            err_pct: None,
            regressed: false,
            model_generation: 3,
        });
        let pending = rows("ts_actions", &t);
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0][0], int(id));
        assert_eq!(pending[0][5], text("pending"));
        assert_eq!(pending[0][12], Cell::Null, "observed NULL while pending");
        // Close the follow-up: the row flips to observed with values.
        t.action_observe(id, 0.0, 45e6, 0.0, false);
        let observed = rows("ts_actions", &t);
        assert_eq!(observed[0][5], text("observed"));
        assert_eq!(observed[0][12], Cell::Float(0.0));
        assert_eq!(observed[0][15], Cell::Bool(false));
        assert_eq!(observed[0][16], Cell::Int(3));
    }

    #[test]
    fn metrics_table_has_one_row_per_series_in_exposition_order() {
        let t = Telemetry::new();
        t.gauge("depth", &[]).set(f64::NAN);
        t.counter("events_total", &[("kind", "b"), ("a", "x\"y")])
            .add(3);
        for v in [100.0, 300.0] {
            t.hist("lat_ns", &[("op", "read")]).record(v);
        }
        let rows = rows("ts_metrics", &t);
        let null5 = vec![Cell::Null; 5];
        assert_eq!(rows.len(), 3);
        assert_eq!(
            rows[0][..4],
            [
                text("events_total"),
                text("{a=\"x\\\"y\",kind=\"b\"}"),
                text("counter"),
                Cell::Float(3.0)
            ]
        );
        assert_eq!(rows[0][4..], null5);
        assert_eq!(rows[1][..3], [text("depth"), text(""), text("gauge")]);
        assert!(matches!(rows[1][3], Cell::Float(v) if v.is_nan()));
        assert_eq!(
            rows[2][..6],
            [
                text("lat_ns"),
                text("{op=\"read\"}"),
                text("histogram"),
                Cell::Null,
                Cell::Int(2),
                Cell::Float(400.0)
            ]
        );
        // Every series of the exposition is a row, spelled the same way.
        let prom = t.to_prometheus();
        assert!(prom.contains("events_total{a=\"x\\\"y\",kind=\"b\"} 3\n"));
        assert!(prom.contains("lat_ns_count{op=\"read\"} 2\n"));
        assert_eq!(t.with_registry(|r| r.len()), rows.len());
    }

    #[test]
    fn archive_table_rows_per_ou_with_global_columns() {
        let t = Telemetry::new();
        assert!(rows("ts_stat_archive", &t).is_empty());
        t.counter("archive_ou_samples_appended_total", &[("ou", "scan")])
            .add(5);
        t.counter("archive_ou_blocks_total", &[("ou", "scan")])
            .inc();
        t.counter("archive_ou_samples_appended_total", &[("ou", "probe")])
            .add(2);
        t.counter("archive_segments_sealed_total", &[]).add(3);
        t.gauge("archive_segments", &[]).set(4.0);
        let rows = rows("ts_stat_archive", &t);
        assert_eq!(rows.len(), 2, "one row per OU");
        // Sorted by OU name; global columns repeat on every row.
        assert_eq!(rows[0][0], text("probe"));
        assert_eq!(rows[1][0], text("scan"));
        assert_eq!(rows[1][1], Cell::Int(5));
        assert_eq!(rows[1][2], Cell::Int(1));
        for row in &rows {
            assert_eq!(row.len(), 8);
            assert_eq!(row[4], Cell::Int(4));
            assert_eq!(row[6], Cell::Int(3));
        }
    }
}
