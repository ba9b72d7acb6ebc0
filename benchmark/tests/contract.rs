//! `BENCHMARK.json` and the metric tables must say the same thing, and
//! the file must stay inside the limits the driver enforces.

use tsbench::metrics::{Def, END_TO_END, PER_LAYER};
use tsbench::run::{Workload, RUN_SECONDS};
use tsbench::stats::valid_metric_name;
use tscout_obsd::json::Json;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert!(text.len() <= 64 * 1024);
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn assert_metrics(listed: &[Json], defs: &[Def], bounded: bool) {
    assert_eq!(listed.len(), defs.len());
    for (j, d) in listed.iter().zip(defs) {
        assert_eq!(j.get("name").and_then(Json::as_str), Some(d.name));
        assert_eq!(
            j.get("unit").and_then(Json::as_str),
            Some(d.unit),
            "{}",
            d.name
        );
        assert_eq!(
            j.get("better").and_then(Json::as_str),
            Some(d.better),
            "{}",
            d.name
        );
        let bound = j.get("bound").and_then(Json::as_f64);
        assert_eq!(bound.is_some(), bounded, "{}", d.name);
        if let Some(b) = bound {
            // 0.25 is the driver's ceiling for any bound.
            assert!(b > 0.0 && b <= 0.25, "{} bound {b}", d.name);
        }
    }
}

#[test]
fn benchmark_json_matches_the_metric_tables_and_the_contract() {
    let m = manifest();
    let Json::Obj(fields) = &m else {
        panic!("not an object")
    };
    let keys: Vec<&str> = fields.keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    assert_eq!(
        m.get("run_seconds").and_then(Json::as_f64),
        Some(RUN_SECONDS)
    );
    let paths = m.get("paths").and_then(Json::as_arr).unwrap();
    assert_eq!(paths.len(), 1);
    assert_eq!(paths[0].as_str(), Some("benchmark"));
    let command = m.get("command").and_then(Json::as_arr).unwrap();
    assert!(!command.is_empty() && command.len() <= 32);
    for c in command {
        let c = c.as_str().unwrap();
        assert!(
            c.len() <= 200 && !c.starts_with('/') && !c.contains(".."),
            "{c}"
        );
    }

    let workloads = m.get("workloads").and_then(Json::as_arr).unwrap();
    assert!((2..=8).contains(&workloads.len()));
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(names, Workload::ALL.map(Workload::name));
    for w in workloads {
        let why = w.get("why").and_then(Json::as_str).unwrap();
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        assert!(valid_metric_name(
            w.get("name").and_then(Json::as_str).unwrap()
        ));
    }

    let e2e = m.get("end_to_end").and_then(Json::as_arr).unwrap();
    assert!((1..=16).contains(&e2e.len()));
    assert_metrics(e2e, &END_TO_END, true);
    let layers = m.get("per_layer").and_then(Json::as_arr).unwrap();
    assert!((1..=128).contains(&layers.len()));
    assert_metrics(layers, &PER_LAYER, false);
}
