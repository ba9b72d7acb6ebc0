//! Append one line to the repo-root `BENCH_TRAJECTORY.jsonl` from tsbench
//! result files, so that end-to-end numbers accumulate together with the
//! build and machine they were measured on.
//!
//! ```text
//! tscout-bench trajectory_append --parent <result files> --change <result files>
//! ```
//!
//! A result file is what `tsbench run --out DIR` writes as
//! `DIR/result_<workload>.json`; give each run its own `DIR`. The line
//! holds the environment stamp every file shares (commit aside), then
//! per side its commits and, per workload and end-to-end metric (both
//! named by `BENCHMARK.json`), the number of runs and their quartiles.
//! Files whose stamps disagree, a traced run, or a workload with no run
//! on a side are refused: the line would compare unlike things.

use std::collections::BTreeMap;
use std::io::Write;

use tscout_obsd::json::{escape, num, Json};

const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../");

/// One side's runs: commits seen, and per workload, per metric, one
/// value per run.
#[derive(Debug, Default)]
struct Side {
    commits: Vec<String>,
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
}

pub(crate) fn main() {
    let args: Vec<String> = std::env::args().skip(2).collect();
    match append(&args) {
        Ok(line) => println!("{line}"),
        Err(why) => {
            eprintln!("trajectory_append: {why}");
            eprintln!("usage: tscout-bench trajectory_append --parent <files> --change <files>");
            std::process::exit(2);
        }
    }
}

/// Read the files `args` names, build the line and append it.
fn append(args: &[String]) -> Result<String, String> {
    let declared = read_json(&format!("{ROOT}BENCHMARK.json"))?;
    let names = |key: &str| -> Result<Vec<String>, String> {
        let list = declared.get(key).and_then(Json::as_arr);
        let list = list.ok_or(format!("BENCHMARK.json has no {key} list"))?;
        list.iter()
            .map(|e| e.get("name").and_then(Json::as_str).map(String::from))
            .collect::<Option<_>>()
            .ok_or(format!("an entry of BENCHMARK.json's {key} has no name"))
    };
    let (workloads, metrics) = (names("workloads")?, names("end_to_end")?);

    let (mut sides, mut side, mut stamp) = (BTreeMap::new(), None, None);
    for arg in args {
        if let Some(name) = arg.strip_prefix("--") {
            if !matches!(name, "parent" | "change") {
                return Err(format!("unknown side {arg}"));
            }
            side = Some(name.to_string());
            continue;
        }
        let side = side.clone().ok_or(format!("{arg}: name its side first"))?;
        let result = read_json(arg)?;
        if result.get("traced") != Some(&Json::Bool(false)) {
            return Err(format!("{arg}: not an untraced tsbench result"));
        }
        let Some(Json::Obj(env)) = result.get("env") else {
            return Err(format!("{arg}: no env stamp"));
        };
        let mut shared = env.clone();
        let commit = shared
            .remove("commit")
            .and_then(|c| c.as_str().map(String::from));
        if *stamp.get_or_insert_with(|| shared.clone()) != shared {
            return Err(format!(
                "{arg}: its env stamp differs from the first file's"
            ));
        }
        let workload = result.get("workload").and_then(Json::as_str);
        let workload = workload.ok_or(format!("{arg}: no workload"))?;
        let side: &mut Side = sides.entry(side).or_default();
        side.commits
            .extend(commit.filter(|c| !side.commits.contains(c)));
        let runs = side.values.entry(workload.to_string()).or_default();
        for metric in &metrics {
            let value = result
                .get("metrics")
                .and_then(|m| m.get(metric)?.get("value"));
            let value = value.and_then(Json::as_f64);
            let value = value.ok_or(format!("{arg}: no value for {metric}"))?;
            runs.entry(metric.clone()).or_default().push(value);
        }
    }
    let stamp = stamp.ok_or("no result files")?;
    let mut line = format!("{{\"env\": {}", render(&Json::Obj(stamp)));
    for name in ["parent", "change"] {
        let side = sides.get(name).ok_or(format!("no --{name} files"))?;
        let commits: Vec<String> = (side.commits.iter())
            .map(|c| format!("\"{}\"", escape(c)))
            .collect();
        line += &format!(", \"{name}\": {{\"commits\": [{}]", commits.join(", "));
        for workload in &workloads {
            let runs = side.values.get(workload);
            let runs = runs.ok_or(format!("no --{name} run of {workload}"))?;
            line += &format!(", \"{workload}\": {{\"runs\": {}", runs[&metrics[0]].len());
            for metric in &metrics {
                let [q1, median, q3] = quartiles(&runs[metric]);
                line += &format!(
                    ", \"{metric}\": {{\"q1\": {}, \"median\": {}, \"q3\": {}}}",
                    num(q1),
                    num(median),
                    num(q3)
                );
            }
            line += "}";
        }
        line += "}";
    }
    line += "}";
    let path = format!("{ROOT}BENCH_TRAJECTORY.jsonl");
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path);
    let file = file.as_mut().map_err(|e| format!("{path}: {e}"))?;
    writeln!(file, "{line}").map_err(|e| format!("{path}: {e}"))?;
    Ok(line)
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// A stamp value back as JSON text.
fn render(value: &Json) -> String {
    match value {
        Json::Str(s) => format!("\"{}\"", escape(s)),
        Json::Obj(members) => {
            let members: Vec<String> = (members.iter())
                .map(|(k, v)| format!("\"{}\": {}", escape(k), render(v)))
                .collect();
            format!("{{{}}}", members.join(", "))
        }
        Json::Arr(items) => {
            let items: Vec<String> = items.iter().map(render).collect();
            format!("[{}]", items.join(", "))
        }
        Json::Num(n) => num(*n),
        Json::Bool(b) => b.to_string(),
        Json::Null => "null".to_string(),
    }
}

/// The first quartile, median and third quartile of `values`, each
/// interpolated linearly between the two closest ranks.
fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    [0.25, 0.5, 0.75].map(|q| {
        let rank = q * (sorted.len() - 1) as f64;
        let (lo, hi) = (sorted[rank.floor() as usize], sorted[rank.ceil() as usize]);
        lo + (hi - lo) * rank.fract()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate_between_ranks() {
        assert_eq!(quartiles(&[3.0]), [3.0; 3]);
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]), [2.0, 3.0, 4.0]);
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), [1.75, 2.5, 3.25]);
    }

    #[test]
    fn a_stamp_renders_back_to_what_it_parsed_from() {
        let text = r#"{"cpu_model": "Xeon \"x\"", "nproc": 2, "scale": 0.5, "seed": 42}"#;
        let stamp = Json::parse(text).unwrap();
        assert_eq!(Json::parse(&render(&stamp)).unwrap(), stamp);
    }
}
