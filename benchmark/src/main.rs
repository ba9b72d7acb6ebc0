//! `tsbench` — command line of the benchmark.
//!
//! ```text
//! tsbench run --workload W [--seed N] [--seconds S] [--trace [0|1]] [--out DIR]
//! tsbench all   [--seed N] [--seconds S] [--out DIR]
//! ```
//!
//! `run` prints every metric of one workload by name and ends with the
//! one-line JSON result; `all` runs the four workloads untraced, one
//! after the other. Exit code 1 when a correctness check failed, 2 on a
//! bad command line; a noisy machine is never a reason to fail (the
//! noise guard re-runs, then counts what it could not steady).
#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use tsbench::report;
use tsbench::run::{self, Config, Workload, MEASURED_PASSES, RUN_SECONDS};

const USAGE: &str = "usage: tsbench run --workload <collect_full|collect_unsampled|\
collect_scraped|archive_retrain> [--seed N] [--seconds S] [--trace [0|1]] [--out DIR]\n       \
tsbench all [--seed N] [--seconds S] [--out DIR]";

#[derive(Debug)]
struct Args {
    all: bool,
    workload: Option<Workload>,
    seed: u64,
    scale: f64,
    trace: bool,
    out: PathBuf,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        all: false,
        workload: None,
        seed: 42,
        scale: 1.0,
        trace: false,
        out: PathBuf::from("out"),
    };
    let mut it = argv.iter().peekable();
    match it.next().map(String::as_str) {
        Some("all") => args.all = true,
        Some("run") => {}
        _ => return Err("the first argument is `run` or `all`".into()),
    }
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                args.scale = s / RUN_SECONDS;
            }
            "--out" => args.out = PathBuf::from(value("a directory")?),
            "--trace" => {
                // `--trace`, `--trace 1` and `--trace 0` are all accepted.
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.scale.is_finite() && args.scale > 0.0) {
        return Err("--seconds must be a positive number".into());
    }
    if args.all == args.workload.is_some() {
        return Err("`run` needs --workload, `all` takes none".into());
    }
    if args.all && args.trace {
        return Err("`all` runs untraced; trace one workload with --workload W --trace".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tsbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workloads = match args.workload {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    let mut code = 0;
    for workload in workloads {
        let outcome = run::run(&Config {
            workload,
            seed: args.seed,
            scale: args.scale,
            passes: MEASURED_PASSES,
            trace: args.trace,
            out: args.out.clone(),
        });
        print!("{}", report::table(&outcome));
        println!("{}", report::contract_line(&outcome));
        code |= outcome.exit_code();
    }
    ExitCode::from(code as u8)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&argv)
    }

    #[test]
    fn the_driver_command_line_parses() {
        let a = parse_str("run --out o --workload collect_full --seed 9 --seconds 10 --trace 0")
            .unwrap();
        assert_eq!(a.workload, Some(Workload::CollectFull));
        assert_eq!((a.seed, a.scale, a.trace, a.all), (9, 0.5, false, false));
        assert!(
            parse_str("run --workload archive_retrain --trace")
                .unwrap()
                .trace
        );
        assert!(
            parse_str("run --workload archive_retrain --trace 1")
                .unwrap()
                .trace
        );
        assert!(parse_str("all --seed 3").unwrap().all);
    }

    #[test]
    fn what_would_change_the_meaning_of_a_result_is_rejected() {
        for bad in [
            "all --trace",
            "all --trace 1",
            "run --workload collect_full --passes 3",
            "run --workload collect_full --scale 0.5",
            "run --workload collect_full --seconds 0",
            "run --workload nope",
            "run",
            "all --workload collect_full",
            "--workload collect_full",
            "",
        ] {
            assert!(parse_str(bad).is_err(), "{bad:?} must be rejected");
        }
        assert!(parse_str("all --trace 0").is_ok());
    }
}
