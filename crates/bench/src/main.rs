//! `tscout-bench <name>` — the one entry point of the experiment
//! harness: every paper figure, every ablation and the `metrics_doc`
//! tool is a row of [`ENTRIES`], named exactly as the CSV it writes
//! under `results/` (see EXPERIMENTS.md).
//!
//! ```text
//! tscout-bench fig1_user_vs_kernel     # run one entry (TS_SCALE, TS_RESULTS apply)
//! tscout-bench list [fig|ablation|tool]...   # entry names, one per line
//! tscout-bench smoke [--write]         # CI: run every fig/ablation at its smoke scale,
//!                                      # check CSV bytes against tests/golden/figures.txt
//! ```
//!
//! After a fig / ablation entry returns, this binary — not the entry —
//! writes its two observability artifacts beside the CSV (see
//! [`tscout_bench::write_observability`]).
#![forbid(unsafe_code)]

use std::path::Path;
use std::process::{Command, ExitCode};

use tscout_archive::crc32;
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

struct Entry {
    name: &'static str,
    kind: Kind,
    run: fn(),
    /// The `TS_SCALE` `tscout-bench smoke` runs a fig / ablation at (the
    /// fixed-duration ablations ignore it); `None` for a tool.
    smoke_scale: Option<f64>,
}

const fn fig(name: &'static str, run: fn(), smoke_scale: f64) -> Entry {
    Entry {
        name,
        kind: Kind::Fig,
        run,
        smoke_scale: Some(smoke_scale),
    }
}

const fn ablation(name: &'static str, run: fn(), smoke_scale: f64) -> Entry {
    Entry {
        kind: Kind::Ablation,
        ..fig(name, run, smoke_scale)
    }
}

const ENTRIES: &[Entry] = &[
    fig("fig1_user_vs_kernel", fig1_user_vs_kernel::main, 0.05),
    fig("fig2_offline_vs_online", fig2_offline_vs_online::main, 0.05),
    fig(
        "fig5_overhead_throughput",
        fig5_overhead_throughput::main,
        0.05,
    ),
    fig("fig6_overhead_datagen", fig6_overhead_datagen::main, 0.05),
    fig("fig7_env_change", fig7_env_change::main, 0.05),
    fig(
        "fig8_adjustable_sampling",
        fig8_adjustable_sampling::main,
        0.05,
    ),
    fig("fig9_convergence_tpcc", fig9_convergence_tpcc::main, 0.05),
    fig(
        "fig10_convergence_chbench",
        fig10_convergence_chbench::main,
        0.05,
    ),
    fig(
        "fig11_convergence_terminals",
        fig11_convergence_terminals::main,
        0.05,
    ),
    fig("fig12_generalization", fig12_generalization::main, 0.05),
    ablation(
        "ablation_sampling_shuffle",
        ablation_sampling_shuffle::main,
        0.05,
    ),
    ablation("ablation_fusion", ablation_fusion::main, 0.05),
    ablation("ablation_ringbuf", ablation_ringbuf::main, 0.05),
    ablation(
        "ablation_archive_lifecycle",
        ablation_archive_lifecycle::main,
        0.05,
    ),
    ablation("ablation_drift", ablation_drift::main, 1.0),
    ablation("ablation_trace", ablation_trace::main, 1.0),
    ablation("ablation_query_stats", ablation_query_stats::main, 1.0),
    ablation("ablation_actions", ablation_actions::main, 1.0),
    Entry {
        name: "metrics_doc",
        kind: Kind::Tool,
        run: metrics_doc::main,
        smoke_scale: None,
    },
];

/// One line per fig / ablation entry: `crc32` and length of the CSV it
/// writes at its smoke scale. `tscout-bench smoke` checks against it; a
/// change that means to move a figure byte regenerates it with
/// `tscout-bench smoke --write`, beside `results/` and EXPERIMENTS.md.
const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/figures.txt"
);

/// Whether `name` is one of the kinds of thing an entry may leave in
/// `$TS_RESULTS`: its CSV, its two observability artifacts, a
/// flight-recorder bundle, an archive directory.
fn is_declared_artifact(name: &str, is_dir: bool) -> bool {
    let of_entry = |prefix: &str, suffix: &str| {
        let stem = name
            .strip_prefix(prefix)
            .and_then(|n| n.strip_suffix(suffix));
        stem.is_some_and(|stem| ENTRIES.iter().any(|e| e.name == stem))
    };
    if is_dir {
        return name.ends_with("_store");
    }
    of_entry("", ".csv")
        || of_entry("tables_", ".json")
        || of_entry("profile_", ".folded")
        || (name.starts_with("flightrec_") && name.ends_with(".json"))
}

/// Run every fig / ablation entry at its smoke scale as a child process
/// into `$TS_RESULTS`, then hold what they left to three checks: each
/// CSV is the golden's bytes (`crc32` + length), each JSON artifact
/// parses, and nothing but the declared kinds of artifact is there. The
/// entry's own `assert!`s are the content check. With `write`, the
/// golden is rewritten from the CSVs instead of compared.
fn smoke(write: bool) -> ExitCode {
    let Ok(dir) = std::env::var("TS_RESULTS") else {
        eprintln!("smoke: set TS_RESULTS to a scratch directory (scaled-down runs must not overwrite results/)");
        return ExitCode::from(2);
    };
    let dir = Path::new(&dir);
    let exe = std::env::current_exe().expect("cannot locate own executable");
    let mut failures: Vec<String> = Vec::new();
    let mut lines = String::new();
    for e in ENTRIES {
        let Some(scale) = e.smoke_scale else { continue };
        println!("== smoke: {} (TS_SCALE={scale}) ==", e.name);
        let ran = Command::new(&exe)
            .arg(e.name)
            .env("TS_SCALE", scale.to_string())
            .status();
        if !ran.is_ok_and(|st| st.success()) {
            failures.push(format!("{} did not exit cleanly", e.name));
            continue;
        }
        match std::fs::read(dir.join(format!("{}.csv", e.name))) {
            Ok(csv) => lines.push_str(&format!(
                "{} scale={scale} bytes={} crc32={:08x}\n",
                e.name,
                csv.len(),
                crc32(&csv)
            )),
            Err(why) => failures.push(format!("{}: no CSV: {why}", e.name)),
        }
    }
    for file in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let name = file.file_name().to_string_lossy().into_owned();
        let path = file.path();
        if !is_declared_artifact(&name, path.is_dir()) {
            failures.push(format!("{name}: not a declared kind of artifact"));
        } else if name.ends_with(".json") {
            let parsed = std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|body| Json::parse(&body).map(drop));
            if let Err(why) = parsed {
                failures.push(format!("{name}: invalid JSON: {why}"));
            }
        }
    }
    if write && failures.is_empty() {
        std::fs::write(GOLDEN, &lines).expect("cannot write the figure golden");
        println!("{GOLDEN} rewritten");
    } else if std::fs::read_to_string(GOLDEN).ok().as_ref() != Some(&lines) {
        failures.push(format!(
            "figure CSVs differ from {GOLDEN}; this run wrote:\n{lines}\
             a change that means to move them runs `tscout-bench smoke --write`"
        ));
    }
    for why in &failures {
        eprintln!("FAIL: {why}");
    }
    if !failures.is_empty() {
        return ExitCode::FAILURE;
    }
    println!("smoke OK");
    ExitCode::SUCCESS
}

fn usage() -> ExitCode {
    eprintln!("usage: tscout-bench <name> | list [fig|ablation|tool]... | smoke [--write]");
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
        Some("smoke") => smoke(args.get(1).is_some_and(|a| a == "--write")),
        Some(name) => match ENTRIES.iter().find(|e| e.name == name) {
            Some(e) => {
                (e.run)();
                if e.kind != Kind::Tool {
                    tscout_bench::write_observability(&tscout_bench::results_dir(), e.name);
                }
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
