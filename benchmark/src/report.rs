//! Rendering: the table a person reads, the one-line result the driver
//! parses, and the files left under the output directory.

use std::path::Path;

use crate::run::Outcome;
use crate::trace;
use tscout_obsd::json::escape;

/// Every metric by name with its unit, the stage table of a traced run,
/// the digest and the correctness ledger.
pub fn table(o: &Outcome) -> String {
    let mut out = format!(
        "== {} ({}) seed {} scale {} ==\n",
        o.workload.name(),
        if o.traced { "traced" } else { "untraced" },
        o.stamp.seed,
        o.stamp.scale
    );
    out.push_str(&format!(
        "env: commit {} | {} | {} x{}\n",
        o.stamp.commit, o.stamp.rustc, o.stamp.cpu_model, o.stamp.nproc
    ));
    for m in &o.metrics {
        out.push_str(&format!("{:<34} {:>16.4} {:<6}", m.name, m.value, m.unit));
        if m.n > 1 {
            out.push_str(&format!(
                " spread {:.4} over n={} (raw {:.4})",
                m.spread, m.n, m.raw
            ));
        }
        out.push('\n');
    }
    if o.traced {
        let total: f64 = o.stages.iter().map(|(_, ms)| ms).sum();
        out.push_str("stage table (self time; rows sum to the traced pass):\n");
        for (name, ms) in &o.stages {
            out.push_str(&format!(
                "  {name:<16} {ms:>12.3} ms {:>6.1} %\n",
                ms / total.max(f64::MIN_POSITIVE) * 100.0
            ));
        }
        out.push_str(&format!(
            "  {:<16} {total:>12.3} ms   vs untraced wall {:.3} ms\n",
            "sum",
            o.untraced_wall_s * 1e3
        ));
    }
    out.push_str(&format!("digest {:08x}\n", o.digest));
    out.push_str(&format!(
        "failed_share {} ({} failed of {} attempted)\n",
        o.failed_share(),
        o.checks.failed,
        o.checks.attempted
    ));
    for f in &o.checks.failures {
        out.push_str(&format!("FAILED: {f}\n"));
    }
    for n in &o.notes {
        out.push_str(&format!("note: {n}\n"));
    }
    out
}

fn metrics_json(o: &Outcome, detailed: bool) -> String {
    let fields: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            let extra = if detailed {
                format!(
                    ", \"raw\": {}, \"spread\": {}, \"n\": {}",
                    m.raw, m.spread, m.n
                )
            } else {
                String::new()
            };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"{extra}}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn contract_line(o: &Outcome) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.correct(),
        o.checks.attempted.max(1),
        o.checks.failed,
        metrics_json(o, false)
    )
}

/// The full record: the contract fields plus the environment stamp,
/// raw medians, spreads and counts, digest, stage table, failures and
/// notes.
pub fn result_json(o: &Outcome) -> String {
    let list = |items: &[String]| -> String {
        let quoted: Vec<String> = items.iter().map(|s| format!("\"{}\"", escape(s))).collect();
        format!("[{}]", quoted.join(", "))
    };
    let stages: Vec<String> = o
        .stages
        .iter()
        .map(|(name, ms)| format!("\"{name}\": {ms}"))
        .collect();
    let passes: Vec<String> = o
        .passes
        .iter()
        .map(|(setup_s, wall_s, factor)| {
            format!("{{\"setup_s\": {setup_s}, \"wall_s\": {wall_s}, \"factor\": {factor}}}")
        })
        .collect();
    format!(
        "{{\n  \"workload\": \"{}\",\n  \"traced\": {},\n  \"env\": {},\n  \"correct\": {},\n  \
         \"attempted\": {},\n  \"failed\": {},\n  \"failed_share\": {},\n  \"digest\": \"{:08x}\",\n  \
         \"metrics\": {},\n  \"passes\": [{}],\n  \"stages_ms\": {{{}}},\n  \"untraced_wall_s\": {},\n  \
         \"failures\": {},\n  \"notes\": {}\n}}\n",
        o.workload.name(),
        o.traced,
        o.stamp.to_json(),
        o.correct(),
        o.checks.attempted,
        o.checks.failed,
        o.failed_share(),
        o.digest,
        metrics_json(o, true),
        passes.join(", "),
        stages.join(", "),
        o.untraced_wall_s,
        list(&o.checks.failures),
        list(&o.notes),
    )
}

/// Write `result_<workload>.json` (or `layers_<workload>.json` for a
/// traced run, with its span list in `trace_<workload>.json`).
pub fn write_files(o: &Outcome, dir: &Path) {
    let kind = if o.traced { "layers" } else { "result" };
    let write = |name: String, body: String| {
        let path = dir.join(name);
        std::fs::write(&path, body).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    };
    write(format!("{kind}_{}.json", o.workload.name()), result_json(o));
    if o.traced {
        write(
            format!("trace_{}.json", o.workload.name()),
            trace::to_json(&o.spans),
        );
    }
}
