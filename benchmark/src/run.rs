//! One invocation: warm-up, measured passes behind the noise guard, and
//! the assembly of passes into named metrics. The untraced run yields
//! the end-to-end metrics; the traced run yields the per-layer metrics
//! and the stage table, never the other way round.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use tscout_models::{ModelKind, ModelRegistry, OuData};
use tscout_telemetry::Telemetry;

use crate::ingest;
use crate::metrics::{END_TO_END, PER_LAYER, STAGES};
use crate::mix::{self, Collect, Drive, MixSpec};
use crate::noise::Calibrator;
use crate::probe::{self, Checks, Reopened, HOLDOUT_EVERY};
use crate::stamp::Stamp;
use crate::stats;
use crate::trace::{self, Span, Tracer};
use crate::{kernels, report};

/// `run_seconds` of `BENCHMARK.json`: `--seconds` of this value is
/// scale 1.
pub const RUN_SECONDS: f64 = 20.0;
/// Measured passes per invocation (after one discarded warm-up pass).
pub const MEASURED_PASSES: usize = 12;

// Pass sizes at scale 1 (virtual ns per leg, batches per pass).
const SAMPLED_LEG_NS: f64 = 100e6;
const UNSAMPLED_LEG_NS: f64 = 700e6;
const INGEST_BATCHES: f64 = 40.0;
/// The warm-up pass is this fraction of a measured pass.
const WARMUP_FRACTION: f64 = 0.25;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CollectFull,
    CollectUnsampled,
    CollectScraped,
    ArchiveRetrain,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CollectFull,
        Workload::CollectUnsampled,
        Workload::CollectScraped,
        Workload::ArchiveRetrain,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CollectFull => "collect_full",
            Workload::CollectUnsampled => "collect_unsampled",
            Workload::CollectScraped => "collect_scraped",
            Workload::ArchiveRetrain => "archive_retrain",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Multiplies every pass size; 1 is the gated configuration
    /// (`--seconds` ÷ [`RUN_SECONDS`]).
    pub scale: f64,
    /// Measured passes: [`MEASURED_PASSES`], fewer only in the smoke
    /// test.
    pub passes: usize,
    pub trace: bool,
    /// Scratch and result directory (inside the checkout).
    pub out: PathBuf,
}

/// A reported number: the median of `n` values with their max−min
/// spread (`n = 1` for exact counts). `value` is corrected by the noise
/// guard's per-pass factor, `raw` is the median of the same readings
/// uncorrected; they are equal for counts.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub raw: f64,
    pub spread: f64,
    pub n: usize,
}

/// Everything one invocation produced.
#[derive(Debug)]
pub struct Outcome {
    pub workload: Workload,
    pub traced: bool,
    pub stamp: Stamp,
    pub metrics: Vec<Metric>,
    /// `(row, ms)` of the stage table (traced runs).
    pub stages: Vec<(&'static str, f64)>,
    /// Setup + timed wall of the untraced pass the stage rows are held
    /// against, s (traced runs).
    pub untraced_wall_s: f64,
    /// `(raw set-up s, raw wall s of the timed region, calibration
    /// factor)` of every measured pass (untraced runs), so raw figures can
    /// be recomputed.
    pub passes: Vec<(f64, f64, f64)>,
    pub digest: u32,
    pub checks: Checks,
    pub notes: Vec<String>,
    /// Span list of the traced pass.
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.checks.failed == 0
    }

    pub fn exit_code(&self) -> i32 {
        i32::from(!self.correct())
    }

    pub fn failed_share(&self) -> f64 {
        self.checks.failed as f64 / self.checks.attempted.max(1) as f64
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

fn work_dir(cfg: &Config, tag: &str) -> PathBuf {
    cfg.out.join(format!(
        "work_{}_{}_{tag}",
        cfg.workload.name(),
        std::process::id()
    ))
}

fn mix_spec(workload: Workload, scale: f64) -> MixSpec {
    let sampled = MixSpec {
        collect: Collect::Rate(100),
        drive: Drive::Lifecycle,
        leg_ns: SAMPLED_LEG_NS * scale,
        scraped: false,
        probes: true,
    };
    match workload {
        Workload::CollectFull => sampled,
        Workload::CollectScraped => MixSpec {
            scraped: true,
            ..sampled
        },
        Workload::CollectUnsampled => MixSpec {
            collect: Collect::Rate(0),
            leg_ns: UNSAMPLED_LEG_NS * scale,
            ..sampled
        },
        Workload::ArchiveRetrain => unreachable!("archive_retrain has no mix"),
    }
}

fn ingest_batches(scale: f64) -> usize {
    // At least one retrain, and whole retrain periods so every pass
    // ends on one.
    let periods = (INGEST_BATCHES * scale / ingest::RETRAIN_EVERY as f64).round();
    periods.max(1.0) as usize * ingest::RETRAIN_EVERY
}

/// What the end-to-end metrics need from one pass of any workload.
/// Times are raw wall seconds; what a workload does not do is empty.
#[derive(Debug)]
struct PassView {
    setup_s: f64,
    /// The timed region.
    wall_s: f64,
    samples: u64,
    committed: u64,
    retrain_s: Option<f64>,
    window_s: Vec<f64>,
    scrape_s: Vec<f64>,
    /// Archive bytes after seal.
    bytes: u64,
    digest: u32,
    checks: Checks,
}

/// One pass's reading for every end-to-end time metric.
#[derive(Debug)]
struct Slots {
    setup_s: f64,
    samples_per_s: f64,
    txn_per_s: f64,
    retrain_ms: f64,
    window_ms: Vec<f64>,
    scrape_ms: Vec<f64>,
}

impl PassView {
    /// The pass's readings with every time multiplied by `k`.
    ///
    /// The driver's contract wants every end-to-end metric from every
    /// workload, never 0. A slot the workload does not exercise repeats
    /// its primary measurement in the slot's unit — the other rate for a
    /// `1/s` slot, the timed region's wall for an `ms` slot — so it can
    /// neither add noise of its own nor pass while the primary fails
    /// (README, "Metric slots").
    fn slots(&self, k: f64) -> Slots {
        let wall_s = self.wall_s * k;
        let per_s = |n: u64, or: u64| (if n > 0 { n } else { or }) as f64 / wall_s;
        let ms_or_wall = |s: &[f64]| -> Vec<f64> {
            if s.is_empty() {
                vec![wall_s * 1e3]
            } else {
                s.iter().map(|s| s * k * 1e3).collect()
            }
        };
        Slots {
            setup_s: self.setup_s * k,
            samples_per_s: per_s(self.samples, self.committed),
            txn_per_s: per_s(self.committed, self.samples),
            retrain_ms: self.retrain_s.map_or(wall_s, |s| s * k) * 1e3,
            window_ms: ms_or_wall(&self.window_s),
            scrape_ms: ms_or_wall(&self.scrape_s),
        }
    }

    /// 1 where nothing was archived: there is no sample to divide by.
    fn bytes_per_sample(&self) -> f64 {
        if self.samples > 0 {
            self.bytes as f64 / self.samples as f64
        } else {
            1.0
        }
    }
}

fn one_pass(cfg: &Config, scale: f64, dir: &Path) -> PassView {
    let mut tr = Tracer::new(false);
    if cfg.workload == Workload::ArchiveRetrain {
        let p = ingest::run_pass(ingest_batches(scale), cfg.seed, dir, &mut tr);
        return PassView {
            // Both `Archive::open`s of the pass: the fresh directory
            // before the ingest, the sealed one after it.
            setup_s: p.setup_s + p.reopened.reopen_s,
            wall_s: p.wall_s,
            samples: p.samples,
            committed: 0,
            retrain_s: Some(p.retrain.total_s()),
            window_s: p.window_s,
            scrape_s: Vec::new(),
            bytes: p.reopened.stats.bytes,
            digest: p.reopened.digest,
            checks: p.checks,
        };
    }
    let p = mix::run_pass(&mix_spec(cfg.workload, scale), cfg.seed, dir, &mut tr);
    let reopened = p.reopened.expect("probes ran");
    PassView {
        setup_s: p.setup_s,
        wall_s: p.wall_s,
        samples: p.archived,
        committed: p.committed,
        retrain_s: p.retrain.as_ref().map(probe::Retrain::total_s),
        window_s: Vec::new(),
        scrape_s: p.scrapes.latency_ms.iter().map(|ms| ms / 1e3).collect(),
        bytes: reopened.stats.bytes,
        digest: reopened.digest,
        checks: p.checks,
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the tables"))
        .unit
}

fn metric(name: &'static str, corrected: &[f64], raw: &[f64]) -> Metric {
    Metric {
        name,
        unit: unit_of(name),
        value: stats::median(corrected),
        raw: stats::median(raw),
        spread: stats::spread(corrected),
        n: corrected.len(),
    }
}

fn calibration_note(cal: &Calibrator) -> String {
    format!(
        "calibration {:.1} ms (spread {:.1} %), {} pass(es) re-run, {} unsteady pass(es) kept",
        cal.calib_ms(),
        cal.calib_spread_pct(),
        cal.retries(),
        cal.unsteady_kept()
    )
}

/// The untraced run: end-to-end metrics only.
fn run_untraced(cfg: &Config) -> Outcome {
    let dir = work_dir(cfg, "e2e");
    let mut cal = Calibrator::new();
    // The warm-up pass is discarded, its correctness checks are not.
    let mut checks = one_pass(cfg, cfg.scale * WARMUP_FRACTION, &dir).checks;
    let mut passes: Vec<(PassView, f64)> = Vec::new();
    for _ in 0..cfg.passes {
        passes.push(cal.steady(|| {
            let mut pass = one_pass(cfg, cfg.scale, &dir);
            checks.absorb(std::mem::take(&mut pass.checks));
            pass
        }));
    }

    let first = &passes[0].0;
    for (p, _) in &passes[1..] {
        checks.expect_eq("digest identical across passes", p.digest, first.digest);
        checks.expect_eq(
            "archive bytes identical across passes",
            (p.bytes, p.samples),
            (first.bytes, first.samples),
        );
    }
    let corrected: Vec<Slots> = passes.iter().map(|(p, k)| p.slots(*k)).collect();
    let raw: Vec<Slots> = passes.iter().map(|(p, _)| p.slots(1.0)).collect();
    let timing = |name: &'static str, f: fn(&Slots) -> Vec<f64>| {
        let pool = |slots: &[Slots]| -> Vec<f64> { slots.iter().flat_map(f).collect() };
        metric(name, &pool(&corrected), &pool(&raw))
    };
    let exact = |name: &'static str, v: f64| metric(name, &[v], &[v]);
    let metrics = vec![
        timing("setup_s", |s| vec![s.setup_s]),
        timing("samples_per_s", |s| vec![s.samples_per_s]),
        timing("txn_per_s", |s| vec![s.txn_per_s]),
        timing("retrain_ms", |s| vec![s.retrain_ms]),
        timing("window_query_ms", |s| s.window_ms.clone()),
        timing("scrape_ms_p50", |s| s.scrape_ms.clone()),
        exact("bytes_per_sample", first.bytes_per_sample()),
        exact("peak_rss_mb", probe::peak_rss_mb()),
    ];

    let mut notes = vec![
        "times are wall seconds x the calibration factor of their pass".to_string(),
        calibration_note(&cal),
    ];
    let scrapes: Vec<f64> = corrected
        .iter()
        .flat_map(|s| &s.scrape_ms)
        .copied()
        .collect();
    if let Some((pct, v)) = stats::supported_tail(&scrapes) {
        notes.push(format!(
            "scrape latency p{pct} = {v:.3} ms over {} scrapes",
            scrapes.len()
        ));
    }
    Outcome {
        workload: cfg.workload,
        traced: false,
        stamp: Stamp::collect(cfg.seed, cfg.scale),
        metrics,
        stages: Vec::new(),
        untraced_wall_s: 0.0,
        passes: passes
            .iter()
            .map(|(p, k)| (p.setup_s, p.wall_s, *k))
            .collect(),
        digest: first.digest,
        checks,
        notes,
        spans: Vec::new(),
    }
}

/// Per-layer values by name; anything a workload does not exercise
/// stays 0.
type Layer = BTreeMap<&'static str, f64>;

fn per(total: f64, n: f64, unit_scale: f64) -> f64 {
    if n > 0.0 {
        total / n * unit_scale
    } else {
        0.0
    }
}

/// Stage rows and archive/model/workload layer metrics from the span
/// list of a traced pass. `samples` is what the pass archived, `k` the
/// invocation's calibration factor.
fn layer_from_spans(spans: &[Span], samples: f64, k: f64, layer: &mut Layer, stage: &mut Layer) {
    let t = |name: &str| trace::total(spans, name) * k;
    let selfs = trace::self_times(spans);
    let own = |name: &str| selfs.get(name).copied().unwrap_or(0.0) * k;
    let write = t("archive.append") + t("archive.flush") + t("archive.compact") + t("archive.seal");
    // `models.*` spans inside the timed region only: the probe after it
    // repeats them.
    let in_timed = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name && s.parent.is_some_and(|p| spans[p].name == "timed"))
            .map(Span::dur_s)
            .sum::<f64>()
            * k
    };
    stage.insert("setup", (t("setup") - t("core.deploy")) * 1e3);
    stage.insert("deploy", t("core.deploy") * 1e3);
    stage.insert("tag", t("workloads.tag") * 1e3);
    stage.insert("archive_write", write * 1e3);
    stage.insert(
        "archive_read",
        (in_timed("models.datasets") + in_timed("archive.window")) * 1e3,
    );
    stage.insert("train", in_timed("models.train") * 1e3);
    stage.insert("other", (own("pass") + own("timed")) * 1e3);

    layer.insert("workloads.setup_ms", t("workloads.setup") * 1e3);
    layer.insert("workloads.run_ms", t("workloads.run") * 1e3);
    layer.insert(
        "workloads.assign_templates_ns",
        per(t("workloads.tag"), samples, 1e9),
    );
    layer.insert("archive.append_ns", per(t("archive.append"), samples, 1e9));
    layer.insert("archive.flush_ms", t("archive.flush") * 1e3);
    layer.insert("archive.compact_ms", t("archive.compact") * 1e3);
    layer.insert("archive.seal_ms", t("archive.seal") * 1e3);
}

/// Archive-layer metrics both traced flavours read off the reopened
/// archive (raw seconds × `k`) and the write counters `(bytes,
/// compactions)`.
fn archive_layer(
    layer: &mut Layer,
    reopened: &Reopened,
    k: f64,
    (bytes_written, compactions): (u64, u64),
) {
    let samples = reopened.stats.samples_stored as f64;
    layer.insert(
        "archive.bytes_written_per_sample",
        per(bytes_written as f64, samples, 1.0),
    );
    layer.insert("archive.compactions", compactions as f64);
    layer.insert("archive.segments", reopened.stats.segments as f64);
    layer.insert("archive.blocks", reopened.stats.blocks as f64);
    layer.insert("archive.scan_ns", per(reopened.scan_s * k, samples, 1e9));
    layer.insert("archive.reopen_ms", reopened.reopen_s * k * 1e3);
}

/// What a traced flavour hands over once its passes ran.
struct Traced<'a> {
    layer: Layer,
    stage: Layer,
    tr: Tracer,
    /// Setup + timed region of the traced and of the untraced pass,
    /// corrected s.
    traced_wall_s: f64,
    untraced_wall_s: f64,
    /// End-of-run registry, live model and its training data of the
    /// traced pass, for the kernels.
    telemetry: &'a Telemetry,
    registry: &'a ModelRegistry,
    data: &'a [OuData],
    cal: Calibrator,
    digest: u32,
    checks: Checks,
}

/// What both traced flavours share: kernels, harness metrics, residual,
/// and the outcome itself.
fn finish_traced(cfg: &Config, traced: Traced<'_>) -> Outcome {
    let Traced {
        mut layer,
        mut stage,
        tr,
        traced_wall_s,
        untraced_wall_s,
        telemetry,
        registry,
        data,
        mut cal,
        digest,
        checks,
    } = traced;
    layer.extend(kernels::run_all(
        telemetry, registry, data, cfg.scale, &mut cal,
    ));
    for v in stage.values_mut() {
        *v = v.max(0.0);
    }
    let rows: f64 = stage.values().sum();
    layer.insert("bench.calib_ms", cal.calib_ms());
    layer.insert("bench.calib_spread_pct", cal.calib_spread_pct());
    layer.insert("bench.passes_retried", f64::from(cal.retries()));
    layer.insert("bench.passes_unsteady", f64::from(cal.unsteady_kept()));
    layer.insert(
        "bench.trace_overhead_pct",
        (traced_wall_s - untraced_wall_s) / untraced_wall_s * 100.0,
    );
    layer.insert(
        "bench.stage_residual_pct",
        (rows / 1e3 - untraced_wall_s).abs() / untraced_wall_s * 100.0,
    );
    let stages: Vec<(&'static str, f64)> = STAGES
        .iter()
        .map(|s| (*s, stage.get(s).copied().unwrap_or(0.0)))
        .collect();
    for (s, ms) in &stages {
        let name = PER_LAYER
            .iter()
            .map(|d| d.name)
            .find(|n| *n == format!("stage.{s}_ms"))
            .expect("every stage row has a per-layer metric");
        layer.insert(name, *ms);
    }
    for name in layer.keys() {
        assert!(
            PER_LAYER.iter().any(|d| d.name == *name),
            "per-layer metric {name} is not in the table"
        );
    }
    let metrics = PER_LAYER
        .iter()
        .map(|d| {
            // `+ 0.0`: an empty sum of spans is -0.0.
            let value = layer.get(d.name).copied().unwrap_or(0.0) + 0.0;
            Metric {
                name: d.name,
                unit: d.unit,
                value,
                raw: value,
                spread: 0.0,
                n: 1,
            }
        })
        .collect();
    let notes = vec![
        "pass times are wall seconds x the invocation's calibration factor, kernel times x \
         their own bracket's"
            .to_string(),
        calibration_note(&cal),
    ];
    Outcome {
        workload: cfg.workload,
        traced: true,
        stamp: Stamp::collect(cfg.seed, cfg.scale),
        metrics,
        stages,
        untraced_wall_s,
        passes: Vec::new(),
        digest,
        checks,
        notes,
        spans: tr.spans().to_vec(),
    }
}

fn run_traced_mix(cfg: &Config) -> Outcome {
    let dir = work_dir(cfg, "trace");
    let spec = mix_spec(cfg.workload, cfg.scale);
    let mut cal = Calibrator::new();
    let mut untraced = |spec: MixSpec| {
        cal.steady(|| mix::run_pass(&spec, cfg.seed, &dir, &mut Tracer::new(false)))
    };
    let reference = |collect: Collect| MixSpec {
        collect,
        drive: Drive::RunOnly,
        scraped: false,
        probes: false,
        ..spec
    };

    // Same seed, same legs, less and less machinery attached.
    let (detached, _) = untraced(reference(Collect::Detached));
    let sampled = spec.collect == Collect::Rate(100);
    let rate0 = if sampled {
        Some(untraced(reference(Collect::Rate(0))).0)
    } else {
        None
    };
    // The untraced lifecycle pass the stage rows are held against.
    let (plain, _) = untraced(spec);
    let staged_spec = MixSpec {
        drive: Drive::Staged,
        ..spec
    };
    let mut traced = |spec: MixSpec| {
        cal.steady(|| {
            let mut tr = Tracer::new(true);
            (mix::run_pass(&spec, cfg.seed, &dir, &mut tr), tr)
        })
    };
    // Raw `workloads.run` of the staged pass without a scraper.
    let unscraped = if spec.scraped {
        let quiet = MixSpec {
            scraped: false,
            probes: false,
            ..staged_spec
        };
        let ((_, tr), _) = traced(quiet);
        Some(trace::total(tr.spans(), "workloads.run"))
    } else {
        None
    };
    let ((mut staged, tr), _) = traced(staged_spec);
    // The rows are differences between these passes, so all of them get
    // one factor: a factor per pass would add its own noise (a few
    // percent each) to every difference.
    let k = cal.factor();
    let detached_s = detached.wall_s * k;
    let untraced_wall_s = (plain.setup_s + plain.wall_s) * k;

    let mut checks = Checks::default();
    for p in [Some(&detached), rate0.as_ref(), Some(&plain), Some(&staged)]
        .into_iter()
        .flatten()
    {
        checks.absorb(p.checks.clone());
    }
    let reopened = staged.reopened.take().expect("probes ran");
    checks.expect_eq(
        "staged digest == lifecycle digest",
        reopened.digest,
        plain.reopened.as_ref().expect("probes ran").digest,
    );

    let mut layer = Layer::new();
    let mut stage = Layer::new();
    let samples = staged.archived as f64;
    layer_from_spans(tr.spans(), samples, k, &mut layer, &mut stage);
    let run_s = trace::total(tr.spans(), "workloads.run") * k;
    let quiet_run_s = unscraped.map_or(run_s, |s| s * k);
    let rate0_s = rate0.as_ref().map_or(quiet_run_s, |p| p.wall_s * k);
    let triples = rate0
        .as_ref()
        .map_or(staged.marker_events, |p| p.marker_events) as f64
        / 3.0;
    stage.insert("collect_db", detached_s * 1e3);
    stage.insert("collect_marker", (rate0_s - detached_s) * 1e3);
    stage.insert("collect_sample", (quiet_run_s - rate0_s) * 1e3);
    stage.insert("scrape", (run_s - quiet_run_s) * 1e3);

    layer.insert(
        "core.sample_path_us",
        per(quiet_run_s - rate0_s, samples, 1e6),
    );
    layer.insert(
        "core.marker_path_ns",
        per(rate0_s - detached_s, triples, 1e9),
    );
    layer.insert("core.samples_begun", staged.begun as f64);
    layer.insert("core.samples_delivered", staged.delivered as f64);
    layer.insert("core.samples_lost", staged.lost as f64);
    layer.insert("db.txn_us", per(detached_s, detached.committed as f64, 1e6));
    layer.insert("db.txns", detached.committed as f64);
    archive_layer(
        &mut layer,
        &reopened,
        k,
        (staged.bytes_written, staged.compactions),
    );
    // A rate-0 pass archives nothing: no model, nothing to train on.
    let registry = staged
        .registry
        .take()
        .unwrap_or_else(|| probe::fresh_registry(ModelKind::Forest, cfg.seed));
    let data = if let Some(retrain) = staged.retrain.take() {
        let points = retrain.points as f64;
        layer.insert(
            "models.datasets_ns",
            per(retrain.datasets_s * k, points, 1e9),
        );
        layer.insert(
            "models.train_forest_ns",
            per(retrain.train_s * k, points, 1e9),
        );
        layer.insert("models.points", points);
        // The same history through the cheap family, for comparison
        // with `archive_retrain`.
        let (ridge_s, bracket) = cal.bracket(|| {
            let start = Instant::now();
            probe::fresh_registry(ModelKind::Ridge, cfg.seed)
                .retrain_split(&retrain.data, HOLDOUT_EVERY);
            start.elapsed().as_secs_f64()
        });
        layer.insert(
            "models.train_ridge_ns",
            per(ridge_s * bracket.factor(), points, 1e9),
        );
        retrain.data
    } else {
        Vec::new()
    };
    let s = &staged.scrapes;
    layer.insert("obsd.scrapes", s.latency_ms.len() as f64);
    layer.insert("obsd.scrape_errors", s.errors as f64);
    layer.insert(
        "obsd.scrape_ms_p95",
        stats::percentile(&s.latency_ms, 95.0) * k,
    );
    layer.insert("obsd.scrape_late_ms_p50", stats::median(&s.late_ms) * k);

    finish_traced(
        cfg,
        Traced {
            layer,
            stage,
            tr,
            traced_wall_s: (staged.setup_s + staged.wall_s) * k,
            untraced_wall_s,
            telemetry: staged.telemetry.as_ref().expect("leg 2 ran"),
            registry: &registry,
            data: &data,
            cal,
            digest: reopened.digest,
            checks,
        },
    )
}

fn run_traced_ingest(cfg: &Config) -> Outcome {
    let dir = work_dir(cfg, "trace");
    let batches = ingest_batches(cfg.scale);
    let mut cal = Calibrator::new();
    let (plain, _) =
        cal.steady(|| ingest::run_pass(batches, cfg.seed, &dir, &mut Tracer::new(false)));
    let ((traced, tr), _) = cal.steady(|| {
        let mut tr = Tracer::new(true);
        (ingest::run_pass(batches, cfg.seed, &dir, &mut tr), tr)
    });
    // One factor for both passes (see `run_traced_mix`).
    let k = cal.factor();
    let untraced_wall_s = (plain.setup_s + plain.wall_s) * k;

    let mut checks = plain.checks.clone();
    checks.absorb(traced.checks.clone());
    checks.expect_eq(
        "traced digest == untraced digest",
        traced.reopened.digest,
        plain.reopened.digest,
    );
    let mut layer = Layer::new();
    let mut stage = Layer::new();
    let samples = traced.samples as f64;
    layer_from_spans(tr.spans(), samples, k, &mut layer, &mut stage);
    archive_layer(
        &mut layer,
        &traced.reopened,
        k,
        (traced.bytes_written, traced.compactions),
    );
    layer.insert(
        "archive.scan_ou_ns",
        per(
            traced.window_s.iter().sum::<f64>() * k,
            traced.window_scanned as f64,
            1e9,
        ),
    );
    let points = traced.retrain.points as f64;
    layer.insert(
        "models.datasets_ns",
        per(traced.retrain.datasets_s * k, points, 1e9),
    );
    layer.insert(
        "models.train_ridge_ns",
        per(traced.retrain.train_s * k, points, 1e9),
    );
    layer.insert("models.points", points);
    finish_traced(
        cfg,
        Traced {
            layer,
            stage,
            tr,
            traced_wall_s: (traced.setup_s + traced.wall_s) * k,
            untraced_wall_s,
            telemetry: &traced.telemetry,
            registry: &traced.registry,
            data: &traced.retrain.data,
            cal,
            digest: traced.reopened.digest,
            checks,
        },
    )
}

/// Run one invocation and write its result files under `cfg.out`.
pub fn run(cfg: &Config) -> Outcome {
    std::fs::create_dir_all(&cfg.out).expect("create the output directory");
    let outcome = match (cfg.trace, cfg.workload) {
        (false, _) => run_untraced(cfg),
        (true, Workload::ArchiveRetrain) => run_traced_ingest(cfg),
        (true, _) => run_traced_mix(cfg),
    };
    report::write_files(&outcome, &cfg.out);
    outcome
}
