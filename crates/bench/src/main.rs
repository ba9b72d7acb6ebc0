//! `tscout-bench <name>` — the one entry point of the experiment
//! harness: every paper figure, every ablation and the `metrics_doc`
//! tool is a row of [`ENTRIES`], named exactly as the CSV it writes
//! under `results/` (see EXPERIMENTS.md).
//!
//! ```text
//! tscout-bench fig1_user_vs_kernel     # run one entry (TS_SCALE, TS_RESULTS apply)
//! tscout-bench list [fig|ablation|tool]...   # entry names, one per line
//! tscout-bench smoke                   # CI: run every smoke entry, check its artifacts
//! ```
#![forbid(unsafe_code)]

use std::path::Path;
use std::process::{Command, ExitCode};

use tscout_obsd::json::Json;

mod entries {
    pub(crate) mod ablation_actions;
    pub(crate) mod ablation_archive_lifecycle;
    pub(crate) mod ablation_drift;
    pub(crate) mod ablation_fusion;
    pub(crate) mod ablation_query_stats;
    pub(crate) mod ablation_ringbuf;
    pub(crate) mod ablation_sampling_shuffle;
    pub(crate) mod ablation_trace;
    pub(crate) mod fig10_convergence_chbench;
    pub(crate) mod fig11_convergence_terminals;
    pub(crate) mod fig12_generalization;
    pub(crate) mod fig1_user_vs_kernel;
    pub(crate) mod fig2_offline_vs_online;
    pub(crate) mod fig5_overhead_throughput;
    pub(crate) mod fig6_overhead_datagen;
    pub(crate) mod fig7_env_change;
    pub(crate) mod fig8_adjustable_sampling;
    pub(crate) mod fig9_convergence_tpcc;
    pub(crate) mod metrics_doc;
}
use entries::*;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Fig,
    Ablation,
    Tool,
}

impl Kind {
    fn parse(s: &str) -> Option<Kind> {
        match s {
            "fig" => Some(Kind::Fig),
            "ablation" => Some(Kind::Ablation),
            "tool" => Some(Kind::Tool),
            _ => None,
        }
    }
}

/// How `tscout-bench smoke` exercises an entry: the `TS_SCALE` to run it
/// at (the fixed-duration ablations ignore it) and the files it must
/// leave in `$TS_RESULTS`. The entry's own `assert!`s are the content
/// check; the smoke only proves the artifacts were written and load.
struct Smoke {
    scale: f64,
    artifacts: &'static [&'static str],
}

struct Entry {
    name: &'static str,
    kind: Kind,
    run: fn(),
    smoke: Option<Smoke>,
}

const fn entry(kind: Kind, name: &'static str, run: fn()) -> Entry {
    Entry {
        name,
        kind,
        run,
        smoke: None,
    }
}

impl Entry {
    const fn smoke(self, scale: f64, artifacts: &'static [&'static str]) -> Entry {
        Entry {
            smoke: Some(Smoke { scale, artifacts }),
            ..self
        }
    }
}

use Kind::{Ablation, Fig, Tool};

const ENTRIES: &[Entry] = &[
    entry(Fig, "fig1_user_vs_kernel", fig1_user_vs_kernel::main).smoke(
        0.05,
        &[
            "fig1_user_vs_kernel.csv",
            "telemetry_fig1.json",
            "profile_fig1.folded",
            "timeseries_fig1.json",
            "tables_fig1.json",
        ],
    ),
    entry(Fig, "fig2_offline_vs_online", fig2_offline_vs_online::main),
    entry(
        Fig,
        "fig5_overhead_throughput",
        fig5_overhead_throughput::main,
    ),
    entry(Fig, "fig6_overhead_datagen", fig6_overhead_datagen::main),
    entry(Fig, "fig7_env_change", fig7_env_change::main),
    entry(
        Fig,
        "fig8_adjustable_sampling",
        fig8_adjustable_sampling::main,
    ),
    entry(Fig, "fig9_convergence_tpcc", fig9_convergence_tpcc::main),
    entry(
        Fig,
        "fig10_convergence_chbench",
        fig10_convergence_chbench::main,
    ),
    entry(
        Fig,
        "fig11_convergence_terminals",
        fig11_convergence_terminals::main,
    ),
    entry(Fig, "fig12_generalization", fig12_generalization::main),
    entry(
        Ablation,
        "ablation_sampling_shuffle",
        ablation_sampling_shuffle::main,
    ),
    entry(Ablation, "ablation_fusion", ablation_fusion::main),
    entry(Ablation, "ablation_ringbuf", ablation_ringbuf::main),
    entry(
        Ablation,
        "ablation_archive_lifecycle",
        ablation_archive_lifecycle::main,
    ),
    entry(Ablation, "ablation_drift", ablation_drift::main).smoke(
        1.0,
        &[
            "tables_ablation_drift.json",
            "flightrec_ablation_drift_1.json",
        ],
    ),
    entry(Ablation, "ablation_trace", ablation_trace::main)
        .smoke(1.0, &["tables_ablation_trace.json"]),
    entry(Ablation, "ablation_query_stats", ablation_query_stats::main)
        .smoke(1.0, &["ablation_query_stats.csv"]),
    entry(Ablation, "ablation_actions", ablation_actions::main).smoke(
        1.0,
        &["tables_ablation_actions.json", "ablation_actions.csv"],
    ),
    entry(Tool, "metrics_doc", metrics_doc::main),
];

/// An artifact passes when it exists, is non-empty and — if it claims
/// to be JSON — parses.
fn check_artifact(path: &Path) -> Result<(), String> {
    let body = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    if body.trim().is_empty() {
        return Err("empty".into());
    }
    if path.extension().is_some_and(|x| x == "json") {
        Json::parse(&body).map_err(|e| format!("invalid JSON: {e}"))?;
    }
    Ok(())
}

/// Run every smoke entry as a child process (each entry owns the
/// process-wide telemetry and profiler accumulators) into
/// `$TS_RESULTS`, then check the artifacts it declared.
fn smoke() -> ExitCode {
    let Ok(dir) = std::env::var("TS_RESULTS") else {
        eprintln!("smoke: set TS_RESULTS to a scratch directory (scaled-down runs must not overwrite results/)");
        return ExitCode::from(2);
    };
    let exe = std::env::current_exe().expect("cannot locate own executable");
    let mut failed = false;
    for e in ENTRIES {
        let Some(s) = &e.smoke else { continue };
        println!("== smoke: {} (TS_SCALE={}) ==", e.name, s.scale);
        let ran = Command::new(&exe)
            .arg(e.name)
            .env("TS_SCALE", s.scale.to_string())
            .status();
        if !ran.is_ok_and(|st| st.success()) {
            eprintln!("FAIL: {} did not exit cleanly", e.name);
            failed = true;
            continue;
        }
        for a in s.artifacts {
            if let Err(why) = check_artifact(&Path::new(&dir).join(a)) {
                eprintln!("FAIL: {}: artifact {a}: {why}", e.name);
                failed = true;
            }
        }
    }
    if failed {
        return ExitCode::FAILURE;
    }
    println!("smoke OK");
    ExitCode::SUCCESS
}

fn usage() -> ExitCode {
    eprintln!("usage: tscout-bench <name> | list [fig|ablation|tool]... | smoke");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            let Some(kinds) = args[1..]
                .iter()
                .map(|k| Kind::parse(k))
                .collect::<Option<Vec<_>>>()
            else {
                return usage();
            };
            for e in ENTRIES {
                if kinds.is_empty() || kinds.contains(&e.kind) {
                    println!("{}", e.name);
                }
            }
            ExitCode::SUCCESS
        }
        Some("smoke") => smoke(),
        Some(name) => match ENTRIES.iter().find(|e| e.name == name) {
            Some(e) => {
                (e.run)();
                ExitCode::SUCCESS
            }
            None => usage(),
        },
        None => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_names_are_unique_and_every_figure_and_table_is_documented() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../");
        let [experiments, readme] = ["EXPERIMENTS.md", "README.md"]
            .map(|f| std::fs::read_to_string(format!("{root}{f}")).expect("doc readable"));
        for t in tscout_telemetry::TABLES {
            assert!(readme.contains(t.name), "{} is not in README.md", t.name);
        }
        let docs = experiments + &readme;
        for (i, e) in ENTRIES.iter().enumerate() {
            assert!(
                ENTRIES[..i].iter().all(|o| o.name != e.name),
                "duplicate entry {}",
                e.name
            );
            if e.kind != Kind::Tool {
                assert!(
                    docs.contains(e.name),
                    "{} is in neither EXPERIMENTS.md nor README.md",
                    e.name
                );
            }
        }
    }
}
