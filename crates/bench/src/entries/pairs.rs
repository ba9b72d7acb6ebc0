//! A perf claim in one command: alternating tsbench runs of a parent
//! revision and of this checkout, read against `BENCHMARK.json`'s bounds
//! and appended to `BENCH_TRAJECTORY.jsonl`.
//!
//! ```text
//! tscout-bench pairs --parent <rev> --workload <w> --pairs N [--seconds S] [--seed N]
//!                    [--layouts K]
//! ```
//!
//! `<rev>` is exported with `git archive` into the temp dir (reused by a
//! later invocation for the same commit) and its `benchmark/` built there
//! offline; this checkout's `benchmark/` is built in place. Runs
//! alternate — parent first in even pairs, change first in odd ones —
//! each into its own `--out`. Per end-to-end metric it prints both
//! medians, the parent's interquartile range, how many pairs the change
//! won and a verdict: `WORSE` past the metric's bound, `gain` when the
//! change won at least nine in ten pairs and its median moved by more
//! than the parent's IQR, `flat` otherwise. Numbers from two sessions do
//! not compare, so every line also carries the session's effective
//! parallelism: one fixed spin timed on one thread, then on two at once.
//! It can change within a session, so the spin runs before every pair;
//! the line keeps the median reading and the range, and a range wider
//! than [`PARALLELISM_SPREAD`] prints a warning.
//!
//! Code layout alone moves a binary's speed by a few percent, so a small
//! gain may be a relink's. `--layouts K` (K ≥ 2, [`DEFAULT_LAYOUTS`]
//! unless given) relinks each side's `tsbench` crate alone with K
//! function orders (LLD's `--shuffle-sections` under seeds 1..=K, nothing
//! else rebuilt) and runs pair i under seed `i mod K + 1` on both sides.
//! A control runs first: [`CONTROL_PAIRS`] pairs of the parent under
//! seed 1 against itself under seed 2. Its move per metric is printed as
//! `layout` beside the parent IQR, a `gain` must move past both, and the
//! trajectory line stamps the seeds and the control's moves.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use tscout_obsd::json::Json;

use super::trajectory_append::{self as trajectory, quartiles, read_json, ROOT};

/// Widest range of parallelism readings one invocation reads as one
/// machine.
const PARALLELISM_SPREAD: f64 = 0.5;

/// Pairs in the layout control: the parent against itself relinked.
const CONTROL_PAIRS: usize = 3;

/// Function orders per side when `--layouts` is not given.
const DEFAULT_LAYOUTS: usize = 2;

const USAGE: &str = "usage: tscout-bench pairs --parent <rev> --workload <w> --pairs N \
                     [--seconds S] [--seed N] [--layouts K]";

pub(crate) fn main() {
    let args: Vec<String> = std::env::args().skip(2).collect();
    if let Err(why) = run(&args) {
        eprintln!("pairs: {why}");
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
}

#[derive(Debug)]
struct Args {
    parent: String,
    workload: String,
    pairs: usize,
    seconds: Option<String>,
    seed: String,
    /// Function orders per side, at least two.
    layouts: usize,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let (mut parent, mut workload, mut pairs, mut seconds, mut seed) =
        (None, None, None, None, "42".to_string());
    let mut layouts = DEFAULT_LAYOUTS;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().cloned().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--parent" => parent = Some(value),
            "--workload" => workload = Some(value),
            "--pairs" => pairs = Some(value.parse().map_err(|e| format!("--pairs: {e}"))?),
            "--seconds" => seconds = Some(value),
            "--seed" => seed = value,
            "--layouts" => layouts = value.parse().map_err(|e| format!("--layouts: {e}"))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        parent: parent.ok_or("--parent is required")?,
        workload: workload.ok_or("--workload is required")?,
        pairs: pairs
            .filter(|&n| n > 0)
            .ok_or("--pairs N (N ≥ 1) is required")?,
        seconds,
        seed,
        layouts: Some(layouts)
            .filter(|&k| k >= 2)
            .ok_or("--layouts K needs K ≥ 2")?,
    })
}

/// One end-to-end metric as `BENCHMARK.json` declares it.
struct Metric {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn metrics() -> Result<Vec<Metric>, String> {
    let declared = read_json(&format!("{ROOT}BENCHMARK.json"))?;
    let list = declared.get("end_to_end").and_then(Json::as_arr);
    let list = list.ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            Some(Metric {
                name: m.get("name")?.as_str()?.to_string(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<_>>()
        .ok_or_else(|| "an end_to_end entry lacks name, better or bound".to_string())
}

fn run(argv: &[String]) -> Result<(), String> {
    let args = parse(argv)?;
    if !trajectory::declared("workloads")?.contains(&args.workload) {
        return Err(format!(
            "{} is not a workload of BENCHMARK.json",
            args.workload
        ));
    }
    let metrics = metrics()?;
    let root = Path::new(ROOT);
    let parent_rev = git(
        root,
        &[
            "rev-parse",
            "--verify",
            &format!("{}^{{commit}}", args.parent),
        ],
    )?;
    let change_rev = change_rev(root)?;
    let base = std::env::temp_dir().join("tscout-pairs");
    let parent_tree = export(root, &parent_rev, &base)?;
    let bins = [
        build(&parent_tree.join("benchmark"), args.layouts)?,
        build(&root.join("benchmark"), args.layouts)?,
    ];
    println!("parent {parent_rev}, change {change_rev}");

    let stamp = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let runs_dir = base.join(format!("runs-{}-{stamp}", args.workload));
    let layout = control([&bins[0][0], &bins[0][1]], &args, &runs_dir, &metrics)?;
    let mut files: Vec<(&str, String)> = Vec::new();
    // Per side: operations failed and attempted, digests seen.
    let mut checks = [(0.0, 0.0, Vec::new()), (0.0, 0.0, Vec::new())];
    let mut readings = Vec::with_capacity(args.pairs);
    for pair in 0..args.pairs {
        readings.push(parallelism());
        println!(
            "pair {}/{}: effective parallelism {:.2}",
            pair + 1,
            args.pairs,
            readings[pair]
        );
        let order = if pair % 2 == 0 { [0, 1] } else { [1, 0] };
        for side in order {
            let name = ["parent", "change"][side];
            let out = runs_dir.join(format!("{name}-{pair}"));
            run_once(&bins[side][pair % bins[side].len()], &args, &out)?;
            let file = out.join(format!("result_{}.json", args.workload));
            let file = file.to_string_lossy().into_owned();
            let result = read_json(&file)?;
            let count = |key| result.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
            let (failed, attempted, digests) = &mut checks[side];
            (*failed, *attempted) = (*failed + count("failed"), *attempted + count("attempted"));
            let digest = result
                .get("digest")
                .and_then(Json::as_str)
                .unwrap_or("none");
            if !digests.iter().any(|d| d == digest) {
                digests.push(digest.to_string());
            }
            files.push((name, file));
        }
        println!("pair {}/{} done", pair + 1, args.pairs);
    }
    let named: Vec<(&str, &str)> = files.iter().map(|(s, f)| (*s, f.as_str())).collect();
    let mut runs = trajectory::read_runs(&named)?;
    print!("{}", report(&runs, &args.workload, &metrics, &layout));
    for (name, (failed, attempted, digests)) in ["parent", "change"].iter().zip(&checks) {
        println!(
            "{name}: {failed} of {attempted} operations failed; digests {}",
            digests.join(" ")
        );
    }
    for (name, rev) in [("parent", &parent_rev), ("change", &change_rev)] {
        if let Some(side) = runs.sides.get_mut(name) {
            side.commits = vec![rev.clone()];
        }
    }
    let (median, range) = parallelism_summary(&readings);
    println!(
        "effective parallelism: median {median:.2}, range {:.2}–{:.2}",
        range[0], range[1]
    );
    if range[1] - range[0] > PARALLELISM_SPREAD {
        println!(
            "warning: the effective parallelism moved by more than {PARALLELISM_SPREAD} \
             within this run; the pairs may not have run on one machine"
        );
    }
    let range = range.iter().map(|&p| Json::Num(p)).collect();
    runs.stamp.insert("parallelism".into(), Json::Num(median));
    runs.stamp
        .insert("parallelism_range".into(), Json::Arr(range));
    let seeds = (0..args.pairs).map(|pair| Json::Num((pair % args.layouts + 1) as f64));
    runs.stamp
        .insert("layout_seeds".into(), Json::Arr(seeds.collect()));
    let moves = (metrics.iter().zip(&layout)).map(|(m, &v)| (m.name.clone(), Json::Num(v)));
    runs.stamp
        .insert("layout_control".into(), Json::Obj(moves.collect()));
    let line = trajectory::line(&runs, std::slice::from_ref(&args.workload))?;
    trajectory::append_line(&line)?;
    println!(
        "runs kept in {}; BENCH_TRAJECTORY.jsonl gained a line",
        runs_dir.display()
    );
    Ok(())
}

/// `git` in `dir`, its trimmed stdout.
fn git(dir: &Path, args: &[&str]) -> Result<String, String> {
    let out = Command::new("git").current_dir(dir).args(args).output();
    let out = out.map_err(|e| format!("git: {e}"))?;
    if !out.status.success() {
        let why = String::from_utf8_lossy(&out.stderr);
        return Err(format!("git {}: {}", args.join(" "), why.trim()));
    }
    Ok(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// `HEAD`, marked `-dirty` when what the benchmark builds from differs
/// from it.
fn change_rev(root: &Path) -> Result<String, String> {
    let head = git(root, &["rev-parse", "HEAD"])?;
    let built = ["benchmark", "crates", "Cargo.toml", "Cargo.lock"];
    let status = git(
        root,
        &[&["status", "--porcelain", "--"][..], &built].concat(),
    )?;
    Ok(if status.is_empty() {
        head
    } else {
        format!("{head}-dirty")
    })
}

/// The tree of `rev` under `base`, exported once: an unfinished export
/// is never taken for a finished one.
fn export(root: &Path, rev: &str, base: &Path) -> Result<PathBuf, String> {
    let tree = base.join(rev);
    if tree.join("benchmark/Cargo.toml").exists() {
        return Ok(tree);
    }
    let partial = base.join(format!("{rev}.partial"));
    let _ = std::fs::remove_dir_all(&partial);
    std::fs::create_dir_all(&partial).map_err(|e| format!("{}: {e}", partial.display()))?;
    let mut archive = Command::new("git")
        .current_dir(root)
        .args(["archive", "--format=tar", rev])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("git archive: {e}"))?;
    let tar = archive.stdout.take().ok_or("git archive: no stdout")?;
    let untarred = Command::new("tar")
        .arg("-x")
        .arg("-C")
        .arg(&partial)
        .stdin(tar)
        .status();
    let archived = archive.wait().map_err(|e| format!("git archive: {e}"))?;
    if !archived.success() || !untarred.is_ok_and(|s| s.success()) {
        return Err(format!("exporting {rev} into {} failed", partial.display()));
    }
    std::fs::rename(&partial, &tree).map_err(|e| format!("{}: {e}", tree.display()))?;
    Ok(tree)
}

/// Build the tsbench binary of `benchmark`, offline, in its own target
/// dir, then one binary per shuffle seed 1..=`layouts`, each a relink of
/// the `tsbench` crate alone.
fn build(benchmark: &Path, layouts: usize) -> Result<Vec<PathBuf>, String> {
    println!("building {}", benchmark.display());
    let manifest = benchmark.join("Cargo.toml");
    let cargo = |command: &str, rustc: &[&str]| {
        let run = Command::new("cargo")
            .args([
                command,
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
            ])
            .arg(&manifest)
            .args(["--bin", "tsbench"])
            .args(rustc)
            .status();
        run.is_ok_and(|s| s.success())
            .then_some(())
            .ok_or(format!("building {} failed", manifest.display()))
    };
    cargo("build", &[])?;
    let plain = benchmark.join("target/release/tsbench");
    (1..=layouts)
        .map(|seed| {
            cargo("rustc", &["--", "-C", &shuffle_arg(seed)])?;
            let bin = benchmark.join(format!("target/release/tsbench-layout-{seed}"));
            std::fs::copy(&plain, &bin).map_err(|e| format!("{}: {e}", bin.display()))?;
            Ok(bin)
        })
        .collect()
}

/// The `-C` value that links the text sections in the order of `seed`.
fn shuffle_arg(seed: usize) -> String {
    format!("link-arg=-Wl,--shuffle-sections=.text*={seed}")
}

/// The layout control: [`CONTROL_PAIRS`] alternating pairs of the parent
/// linked under seed 1 (`bins[0]`) and seed 2 (`bins[1]`). Per metric, in
/// `metrics`' order, how far the two medians lie apart.
fn control(
    bins: [&PathBuf; 2],
    args: &Args,
    runs_dir: &Path,
    metrics: &[Metric],
) -> Result<Vec<f64>, String> {
    let mut files = Vec::new();
    for pair in 0..CONTROL_PAIRS {
        println!("control pair {}/{CONTROL_PAIRS}", pair + 1);
        let order = if pair % 2 == 0 { [0, 1] } else { [1, 0] };
        for seed in order {
            let out = runs_dir.join(format!("control-{}-{pair}", seed + 1));
            run_once(bins[seed], args, &out)?;
            let file = out.join(format!("result_{}.json", args.workload));
            files.push((
                ["parent", "change"][seed],
                file.to_string_lossy().into_owned(),
            ));
        }
    }
    let named: Vec<(&str, &str)> = files.iter().map(|(s, f)| (*s, f.as_str())).collect();
    let runs = trajectory::read_runs(&named)?;
    Ok(metrics
        .iter()
        .map(|m| {
            let side = |name| side_values(&runs, name, &args.workload, &m.name);
            layout_move(&side("parent"), &side("change"))
        })
        .collect())
}

/// How far apart the medians of one binary's runs under two layouts lie.
fn layout_move(one: &[f64], two: &[f64]) -> f64 {
    (quartiles(two)[1] - quartiles(one)[1]).abs()
}

/// One untraced run into `out`, its output kept in `out/run.log`.
fn run_once(bin: &Path, args: &Args, out: &Path) -> Result<(), String> {
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let log_path = out.join("run.log");
    let log =
        std::fs::File::create(&log_path).map_err(|e| format!("{}: {e}", log_path.display()))?;
    let err = log
        .try_clone()
        .map_err(|e| format!("{}: {e}", log_path.display()))?;
    let mut cmd = Command::new(bin);
    cmd.args([
        "run",
        "--workload",
        &args.workload,
        "--seed",
        &args.seed,
        "--trace",
        "0",
    ])
    .arg("--out")
    .arg(out);
    if let Some(seconds) = &args.seconds {
        cmd.args(["--seconds", seconds]);
    }
    let status = cmd.stdout(log).stderr(err).status();
    if !status.is_ok_and(|s| s.success()) {
        return Err(format!(
            "{} failed; see {}",
            bin.display(),
            log_path.display()
        ));
    }
    Ok(())
}

/// Effective parallelism of this session: how many threads' worth of a
/// fixed spin two threads did in the time one thread did one. Each mode
/// keeps its best of three tries; never more than two threads.
fn parallelism() -> f64 {
    fn spin() {
        let mut x = std::hint::black_box(1u64);
        for i in 0..std::hint::black_box(60_000_000u64) {
            x = x.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(i);
        }
        std::hint::black_box(x);
    }
    let best = |f: &dyn Fn()| {
        (0..3)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let one = best(&spin);
    let two = best(&|| {
        std::thread::scope(|s| {
            s.spawn(spin);
            spin();
        });
    });
    2.0 * one / two
}

/// The median of the per-pair parallelism readings and their min–max
/// range, each rounded to two decimals.
fn parallelism_summary(readings: &[f64]) -> (f64, [f64; 2]) {
    let round = |p: f64| (p * 100.0).round() / 100.0;
    let min = readings.iter().copied().fold(f64::INFINITY, f64::min);
    let max = readings.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (round(quartiles(readings)[1]), [round(min), round(max)])
}

/// Metric `metric`'s values on side `name`, one per pair in pair order.
fn side_values(runs: &trajectory::Runs, name: &str, workload: &str, metric: &str) -> Vec<f64> {
    (runs.sides.get(name))
        .map(|s| s.values(workload, metric).to_vec())
        .unwrap_or_default()
}

/// Per metric: both medians, the change's move, the parent's IQR, the
/// layout control's move, wins and the verdict.
fn report(runs: &trajectory::Runs, workload: &str, metrics: &[Metric], layout: &[f64]) -> String {
    let side = |name: &str, metric: &str| side_values(runs, name, workload, metric);
    let mut text = format!(
        "{:<16} {:>14} {:>14} {:>8} {:>12} {:>12} {:>6}  verdict\n",
        "metric", "parent median", "change median", "move", "parent IQR", "layout", "wins"
    );
    for (m, &layout) in metrics.iter().zip(layout) {
        let (parent, change) = (side("parent", &m.name), side("change", &m.name));
        let [q1, p_med, q3] = quartiles(&parent);
        let [_, c_med, _] = quartiles(&change);
        let better = |c: f64, p: f64| if m.lower_is_better { c < p } else { c > p };
        let wins = parent
            .iter()
            .zip(&change)
            .filter(|(p, c)| better(**c, **p))
            .count();
        let moved = (c_med - p_med) / p_med;
        let worse_by = if m.lower_is_better { moved } else { -moved };
        let noise = (q3 - q1).max(layout);
        let verdict = verdict(
            worse_by,
            m.bound,
            wins,
            parent.len(),
            (c_med - p_med).abs() > noise,
        );
        text += &format!(
            "{:<16} {:>14.4} {:>14.4} {:>+7.1}% {:>12.4} {layout:>12.4} {:>3}/{:<2}  {verdict}\n",
            m.name,
            p_med,
            c_med,
            100.0 * moved,
            q3 - q1,
            wins,
            parent.len()
        );
    }
    text
}

/// `WORSE` past the bound, `gain` when the change won ≥ 9 in 10 pairs
/// and moved past the parent's IQR and the layout control's move, `flat`
/// otherwise.
fn verdict(worse_by: f64, bound: f64, wins: usize, pairs: usize, past_noise: bool) -> &'static str {
    if worse_by > bound {
        "WORSE"
    } else if worse_by < 0.0 && 10 * wins >= 9 * pairs && past_noise {
        "gain"
    } else {
        "flat"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_verdict_reads_the_bound_the_wins_and_the_iqr() {
        assert_eq!(verdict(0.21, 0.2, 0, 10, true), "WORSE");
        assert_eq!(verdict(0.19, 0.2, 0, 10, true), "flat");
        assert_eq!(verdict(-0.3, 0.2, 9, 10, true), "gain");
        assert_eq!(verdict(-0.3, 0.2, 8, 10, true), "flat");
        assert_eq!(verdict(-0.3, 0.2, 10, 10, false), "flat");
        assert_eq!(verdict(-0.3, 0.2, 3, 3, true), "gain");
    }

    #[test]
    fn the_layout_control_is_the_distance_between_medians() {
        assert_eq!(layout_move(&[10.0, 12.0, 11.0], &[13.0, 14.0, 15.0]), 3.0);
        assert_eq!(layout_move(&[13.0, 14.0, 15.0], &[10.0, 12.0, 11.0]), 3.0);
        assert_eq!(shuffle_arg(2), "link-arg=-Wl,--shuffle-sections=.text*=2");
    }

    #[test]
    fn the_parallelism_stamp_is_the_median_reading_and_the_range() {
        assert_eq!(
            parallelism_summary(&[1.91, 1.02, 1.884, 1.9]),
            (1.89, [1.02, 1.91])
        );
        assert_eq!(parallelism_summary(&[1.5]), (1.5, [1.5, 1.5]));
    }

    #[test]
    fn a_command_line_needs_a_parent_a_workload_and_pairs() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let args = parse(&argv("--parent HEAD~1 --workload collect_full --pairs 10")).unwrap();
        assert_eq!(
            (args.pairs, args.seed.as_str(), args.seconds, args.layouts),
            (10, "42", None, DEFAULT_LAYOUTS)
        );
        let args = parse(&argv("--parent a --workload w --pairs 4 --layouts 3")).unwrap();
        assert_eq!(args.layouts, 3);
        for k in ["0", "1", "-1"] {
            let line = format!("--parent a --workload w --pairs 4 --layouts {k}");
            assert!(parse(&argv(&line)).is_err(), "--layouts {k}");
        }
        assert!(parse(&argv("--parent HEAD~1 --workload collect_full")).is_err());
        assert!(parse(&argv("--parent HEAD~1 --workload collect_full --pairs 0")).is_err());
        assert!(parse(&argv("--workload collect_full --pairs 3")).is_err());
        assert!(parse(&argv("--parent HEAD --pairs 3 --workload")).is_err());
    }
}
