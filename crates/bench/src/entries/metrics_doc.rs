//! Render the README metric table from the metric declarations.
//!
//! Every crate declares its metrics once, in a
//! [`tscout_telemetry::declare_metrics`] table; this entry concatenates
//! those tables and writes them, sorted by name, between
//! `<!-- METRICS -->` and `<!-- /METRICS -->` in the repo-root README.md.
//! `--check` (run by ci.sh) fails if the README block is stale instead
//! of rewriting it. Nothing is run: the `# HELP` text an exposition
//! prints and the table here come from the same declaration.

use tscout_telemetry::DeclRow;

const README: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
const BEGIN: &str = "<!-- METRICS -->";
const END: &str = "<!-- /METRICS -->";

/// Every crate's metric table. A crate that gains a `decls` module is
/// added here.
const DECL_TABLES: [&[DeclRow]; 8] = [
    tscout_telemetry::decls::DECLS,
    tscout_kernel::decls::DECLS,
    tscout_archive::decls::DECLS,
    tscout::decls::DECLS,
    noisetap::decls::DECLS,
    tscout_actions::decls::DECLS,
    tscout_obsd::decls::DECLS,
    tscout_workloads::decls::DECLS,
];

/// All declared metrics, sorted by name.
fn all_decls() -> Vec<DeclRow> {
    let mut rows = DECL_TABLES.concat();
    rows.sort_by_key(|d| d.name);
    rows
}

/// The declarations as the README's markdown table.
fn table_markdown() -> String {
    let mut out = String::from("| Metric | Kind | Meaning |\n|---|---|---|\n");
    for d in all_decls() {
        out.push_str(&format!("| `{}` | {} | {} |\n", d.name, d.kind, d.help));
    }
    out
}

/// Replace the marker block's interior with `table`, returning the new
/// README contents. Panics with a clear message if the markers are
/// missing or out of order — that is a repo defect, not a user error.
fn splice(readme: &str, table: &str) -> String {
    let begin = readme
        .find(BEGIN)
        .unwrap_or_else(|| panic!("README.md is missing the {BEGIN} marker"))
        + BEGIN.len();
    let end = readme
        .find(END)
        .unwrap_or_else(|| panic!("README.md is missing the {END} marker"));
    assert!(begin <= end, "README.md metric markers are out of order");
    format!("{}\n{}{}", &readme[..begin], table, &readme[end..])
}

pub(crate) fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let readme = std::fs::read_to_string(README).expect("cannot read README.md");
    let updated = splice(&readme, &table_markdown());
    if updated == readme {
        println!("README.md metric table is current");
    } else if check {
        eprintln!(
            "FAIL: README.md metric table is stale; \
             run `cargo run -p tscout-bench -- metrics_doc` and commit the diff"
        );
        std::process::exit(1);
    } else {
        std::fs::write(README, &updated).expect("cannot write README.md");
        println!("README.md metric table rewritten");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declarations_are_unique_documented_and_conventionally_named() {
        let rows = all_decls();
        for w in rows.windows(2) {
            assert!(w[0].name < w[1].name, "duplicate metric {}", w[1].name);
        }
        for d in &rows {
            assert!(!d.help.is_empty(), "{}: empty help", d.name);
            assert!(!d.help.contains('\n'), "{}: multi-line help", d.name);
            assert!(
                matches!(d.kind, "counter" | "gauge" | "histogram"),
                "{}: kind {}",
                d.name,
                d.kind
            );
            // The exposition appends `_total` to counters that lack it;
            // none does, so a README name is the exported family name.
            assert!(
                d.kind != "counter" || d.name.ends_with("_total"),
                "counter {} lacks the _total suffix",
                d.name
            );
        }
        assert_eq!(table_markdown().lines().count(), rows.len() + 2);
    }
}
