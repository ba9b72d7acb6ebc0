//! The text exposition, in two steps, so that a scrape holds a registry's
//! lock only while it copies numbers out.
//!
//! [`Exposition::capture`] runs under the lock and loads every series'
//! current value into a buffer the exposition keeps;
//! [`Exposition::render`] runs after the lock is released and writes the
//! text. Everything else the text needs — each family's `# HELP` and
//! `# TYPE` lines, each series' rendered `name{labels}` and a clone of its
//! handle — is the registry's *layout*: built on the first capture and
//! rebuilt only when the registry's structural generation has moved, and
//! then only for the families whose name, help or cells changed. Once the
//! buffers have grown to size, capturing an unchanged registry and
//! rendering into a reused `String` allocate nothing.
//!
//! Several registries can be captured into one render (the operator
//! plane's `/metrics` serves the simulation's registry and its own). Their
//! families are interleaved by kind, then name: the text one registry
//! holding all of them would export. The registries are expected to share
//! no family; one that appears in two is exported once per registry.

use std::fmt::Write as _;
use std::iter::Peekable;
use std::ops::Range;
use std::sync::OnceLock;
use std::vec::IntoIter;

use super::{push_escaped, write_series, Family, Labels, Registry, Series};
use crate::handles::{Cell, Counter, Gauge, Hist, Kind};
use crate::histogram::{bucket_upper, BUCKETS};

/// One series of a family's layout: where its lines sit in the family's
/// `text`, and its handle.
#[derive(Debug)]
enum Sample {
    /// The sample's `name{labels}`.
    Counter(Range<usize>, Counter),
    Gauge(Range<usize>, Gauge),
    Hist(HistText, Hist),
}

/// A histogram series' lines: its bucket line with an empty `le` value at
/// `le_at`, where each bound goes, and the names of its `_sum` and
/// `_count` lines.
#[derive(Debug)]
struct HistText {
    bucket: Range<usize>,
    le_at: usize,
    sum: Range<usize>,
    count: Range<usize>,
}

/// Words a histogram series takes in `values`: its bucket counts, then
/// its sum's bits.
const HIST_WORDS: usize = BUCKETS + 1;

/// Append `name{labels}` to `text` and return where it sits.
fn series_name(text: &mut String, name: &str, suffix: &str, labels: &Labels) -> Range<usize> {
    let start = text.len();
    write_series(text, name, suffix, labels, None);
    start..text.len()
}

/// Every bucket's `le` bound as the text spells it, formatted once.
fn le_bound(bucket: usize) -> &'static str {
    static BOUNDS: OnceLock<Vec<String>> = OnceLock::new();
    let bounds = BOUNDS.get_or_init(|| (0..BUCKETS).map(|i| bucket_upper(i).to_string()).collect());
    &bounds[bucket]
}

/// A metric kind as the exposition lays it out.
trait Exposed: Kind + Cell {
    /// Counters, gauges, histograms: 0, 1, 2, their order in the text.
    const RANK: u8;
    /// Words one series takes in `values`.
    const WORDS: usize = 1;

    /// What the family's name is exported with.
    fn suffix(_name: &str) -> &'static str {
        ""
    }

    /// Lay out this cell's series of the family `name` into `text`.
    fn sample(&self, text: &mut String, name: &str, labels: &Labels) -> Sample;

    /// Whether `sample` was laid out for this very cell.
    fn laid_out_as(&self, sample: &Sample) -> bool;
}

impl Exposed for Counter {
    const RANK: u8 = 0;

    /// A counter is exported with a `_total` suffix, once.
    fn suffix(name: &str) -> &'static str {
        if name.ends_with("_total") {
            ""
        } else {
            "_total"
        }
    }

    fn sample(&self, text: &mut String, name: &str, labels: &Labels) -> Sample {
        let name = series_name(text, name, Self::suffix(name), labels);
        Sample::Counter(name, self.clone())
    }

    fn laid_out_as(&self, sample: &Sample) -> bool {
        matches!(sample, Sample::Counter(_, c) if c.same_cell(self))
    }
}

impl Exposed for Gauge {
    const RANK: u8 = 1;

    fn sample(&self, text: &mut String, name: &str, labels: &Labels) -> Sample {
        Sample::Gauge(series_name(text, name, "", labels), self.clone())
    }

    fn laid_out_as(&self, sample: &Sample) -> bool {
        matches!(sample, Sample::Gauge(_, g) if g.same_cell(self))
    }
}

impl Exposed for Hist {
    const RANK: u8 = 2;
    const WORDS: usize = HIST_WORDS;

    fn sample(&self, text: &mut String, name: &str, labels: &Labels) -> Sample {
        let start = text.len();
        let le_at = write_series(text, name, "_bucket", labels, Some(format_args!("")));
        let lines = HistText {
            bucket: start..text.len(),
            le_at,
            sum: series_name(text, name, "_sum", labels),
            count: series_name(text, name, "_count", labels),
        };
        Sample::Hist(lines, self.clone())
    }

    fn laid_out_as(&self, sample: &Sample) -> bool {
        matches!(sample, Sample::Hist(_, h) if h.same_cell(self))
    }
}

/// One family's layout.
#[derive(Debug)]
struct FamilyLayout {
    rank: u8,
    /// Its help as registered (empty: undocumented).
    help: &'static str,
    /// Its name, its `# HELP` and `# TYPE` lines, then its series' names.
    text: String,
    name_end: usize,
    header_end: usize,
    samples: Vec<Sample>,
    /// Its first word in `values`.
    values: usize,
}

impl FamilyLayout {
    fn new<C: Exposed>(name: &str, family: &Family<C>) -> Self {
        let suffix = C::suffix(name);
        let mut text = name.to_string();
        let name_end = text.len();
        let help = match family.help {
            "" => "(undocumented)",
            help => help,
        };
        let _ = write!(text, "# HELP {name}{suffix} ");
        push_escaped(&mut text, help, false);
        let _ = writeln!(text, "\n# TYPE {name}{suffix} {}", C::KIND);
        let header_end = text.len();
        let samples = family
            .series
            .iter()
            .map(|(labels, cell)| cell.sample(&mut text, name, labels))
            .collect();
        FamilyLayout {
            rank: C::RANK,
            help: family.help,
            text,
            name_end,
            header_end,
            samples,
            values: 0,
        }
    }

    /// Kind, then registered name: the order families are rendered in.
    fn key(&self) -> (u8, &str) {
        (self.rank, &self.text[..self.name_end])
    }

    /// Whether this still lays out `family`: same name, help and cells.
    /// A cell belongs to one series of one registry and series are never
    /// removed, so the same cells are the same label sets.
    fn lays_out<C: Exposed>(&self, name: &str, family: &Family<C>) -> bool {
        self.key() == (C::RANK, name)
            && self.help == family.help
            && self.samples.len() == family.series.len()
            && (self.samples.iter().zip(&family.series)).all(|(s, (_, c))| c.laid_out_as(s))
    }

    /// Append this family with the values captured from `values` to `out`.
    fn render(&self, values: &[u64], out: &mut String) {
        let text = |r: &Range<usize>| &self.text[r.clone()];
        out.push_str(&self.text[self.name_end..self.header_end]);
        let mut at = self.values;
        for sample in &self.samples {
            match sample {
                Sample::Counter(name, _) => {
                    let _ = writeln!(out, "{} {}", text(name), values[at]);
                    at += 1;
                }
                Sample::Gauge(name, _) => {
                    let v = f64::from_bits(values[at]);
                    let _ = writeln!(out, "{} {v}", text(name));
                    at += 1;
                }
                Sample::Hist(h, _) => {
                    let head = &self.text[h.bucket.start..h.le_at];
                    let tail = &self.text[h.le_at..h.bucket.end];
                    let mut count = 0;
                    for (i, &n) in values[at..at + BUCKETS].iter().enumerate() {
                        if n > 0 {
                            count += n;
                            out.push_str(head);
                            out.push_str(le_bound(i));
                            let _ = writeln!(out, "{tail} {count}");
                        }
                    }
                    let _ = writeln!(out, "{head}+Inf{tail} {count}");
                    let sum = f64::from_bits(values[at + BUCKETS]);
                    let _ = writeln!(out, "{} {sum}", text(&h.sum));
                    let _ = writeln!(out, "{} {count}", text(&h.count));
                    at += HIST_WORDS;
                }
            }
        }
    }
}

/// One registry's layout and the values last captured through it.
#[derive(Debug, Default)]
struct Layout {
    /// The registry generation the layout was built for (0: none yet;
    /// generations start at 1).
    generation: u64,
    /// In render order.
    families: Vec<FamilyLayout>,
    /// Per counter its value, per gauge its bits, per histogram
    /// [`HIST_WORDS`].
    values: Vec<u64>,
    /// The next family to render.
    next: usize,
}

impl Layout {
    /// Lay out `reg` anew, keeping each family whose layout still holds.
    fn rebuild(&mut self, reg: &Registry) {
        self.generation = reg.generation.0;
        let mut old = std::mem::take(&mut self.families).into_iter().peekable();
        self.values.clear();
        self.lay_out(&reg.counters, &mut old);
        self.lay_out(&reg.gauges, &mut old);
        self.lay_out(&reg.histograms, &mut old);
    }

    fn lay_out<C: Exposed>(
        &mut self,
        series: &Series<C>,
        old: &mut Peekable<IntoIter<FamilyLayout>>,
    ) {
        for (name, family) in &series.families {
            // The old layouts are in the same order: skip to this one's.
            while old.next_if(|f| f.key() < (C::RANK, name)).is_some() {}
            let mut laid = old
                .next_if(|f| f.lays_out(name, family))
                .unwrap_or_else(|| FamilyLayout::new(name, family));
            laid.values = self.values.len();
            let len = self.values.len() + C::WORDS * family.series.len();
            self.values.resize(len, 0);
            self.families.push(laid);
        }
    }

    /// Load every series' value, after rebuilding the layout if `reg` is
    /// not the registry, or not the shape of it, it was built for.
    fn capture(&mut self, reg: &Registry) {
        if self.generation != reg.generation.0 {
            self.rebuild(reg);
        }
        let mut at = 0;
        for sample in self.families.iter().flat_map(|f| &f.samples) {
            match sample {
                Sample::Counter(_, c) => {
                    self.values[at] = c.get();
                    at += 1;
                }
                Sample::Gauge(_, g) => {
                    self.values[at] = g.get().to_bits();
                    at += 1;
                }
                Sample::Hist(_, h) => {
                    let (buckets, sum) = self.values[at..at + HIST_WORDS].split_at_mut(BUCKETS);
                    sum[0] = h.load_into(buckets).to_bits();
                    at += HIST_WORDS;
                }
            }
        }
        self.next = 0;
    }
}

/// A reusable Prometheus text exposition of one or more registries (see
/// the module documentation): [`Exposition::capture`] each registry under
/// its lock, then [`Exposition::render`] them all at once.
#[derive(Debug, Default)]
pub struct Exposition {
    /// One layout per registry, in capture order; kept across renders.
    parts: Vec<Layout>,
    /// Parts captured since the last render.
    captured: usize,
}

impl Exposition {
    /// Copy the current value of every series of `reg` as the next part
    /// of the next [`Exposition::render`]. Call it with `reg` locked:
    /// this is the only step that reads it. Allocates only when `reg` is
    /// not the registry captured as this part last time, or has gained a
    /// series, a family or a family's help since.
    pub fn capture(&mut self, reg: &Registry) {
        if self.captured == self.parts.len() {
            self.parts.push(Layout::default());
        }
        self.parts[self.captured].capture(reg);
        self.captured += 1;
    }

    /// Append the text exposition of the parts captured since the last
    /// render to `out`, and start over. OpenMetrics-flavored: every
    /// family gets a `# HELP` (the text of its declaration;
    /// `(undocumented)` for one only ever resolved by bare name) and
    /// `# TYPE` line, counters are normalized to a `_total` suffix, and
    /// histograms export their cumulative `_bucket{le="..."}` series with
    /// the mandatory `+Inf` bucket plus `_sum`/`_count`. Families come
    /// counters first, then gauges, then histograms, each kind in name
    /// order across all parts.
    pub fn render(&mut self, out: &mut String) {
        let parts = &mut self.parts[..self.captured];
        self.captured = 0;
        loop {
            // The part whose next family comes first.
            let mut first: Option<usize> = None;
            for (i, part) in parts.iter().enumerate() {
                let Some(family) = part.families.get(part.next) else {
                    continue;
                };
                let earlier = first.is_none_or(|j| {
                    let other = &parts[j];
                    family.key() < other.families[other.next].key()
                });
                if earlier {
                    first = Some(i);
                }
            }
            let Some(i) = first else {
                break;
            };
            let part = &mut parts[i];
            part.families[part.next].render(&part.values, out);
            part.next += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decls;
    use crate::handles::Decl;

    /// The exposition before it was split into capture and render, kept
    /// as the oracle: the simulation registry cloned, the self registry
    /// merged into the clone, the merge rendered in one pass.
    mod reference {
        use super::super::super::{write_series, Labels};
        use super::*;

        /// The old `Registry::merge_from`: counters add, gauges take the
        /// max, histograms merge bucket-wise, each family keeps its help.
        fn merge_from(into: &mut Registry, other: &Registry) {
            fn borrowed(labels: &Labels) -> Vec<(&str, &str)> {
                labels
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.as_str()))
                    .collect()
            }
            let generation = &mut into.generation;
            for (name, family) in &other.counters.families {
                for (labels, c) in &family.series {
                    into.counters
                        .cell(generation, name, family.help, &borrowed(labels))
                        .add(c.get());
                }
            }
            for (name, family) in &other.gauges.families {
                for (labels, g) in &family.series {
                    into.gauges
                        .get_or_insert_with(
                            generation,
                            name,
                            family.help,
                            &borrowed(labels),
                            || Gauge::starting_at(f64::NEG_INFINITY),
                        )
                        .set_max(g.get());
                }
            }
            for (name, family) in &other.histograms.families {
                for (labels, h) in &family.series {
                    into.histograms
                        .cell(generation, name, family.help, &borrowed(labels))
                        .merge_from(&h.load());
                }
            }
        }

        /// The old `Registry::to_prometheus`.
        fn to_prometheus(reg: &Registry) -> String {
            fn header(out: &mut String, name: &str, suffix: &str, kind: &str, help: &str) {
                let help = if help.is_empty() {
                    "(undocumented)"
                } else {
                    help
                };
                let _ = write!(out, "# HELP {name}{suffix} ");
                push_escaped(out, help, false);
                let _ = writeln!(out, "\n# TYPE {name}{suffix} {kind}");
            }
            let mut out = String::new();
            for (name, family) in &reg.counters.families {
                let suffix = if name.ends_with("_total") {
                    ""
                } else {
                    "_total"
                };
                header(&mut out, name, suffix, Counter::KIND, family.help);
                for (labels, c) in &family.series {
                    write_series(&mut out, name, suffix, labels, None);
                    let _ = writeln!(out, " {}", c.get());
                }
            }
            for (name, family) in &reg.gauges.families {
                header(&mut out, name, "", Gauge::KIND, family.help);
                for (labels, g) in &family.series {
                    write_series(&mut out, name, "", labels, None);
                    let _ = writeln!(out, " {}", g.get());
                }
            }
            for (name, family) in &reg.histograms.families {
                header(&mut out, name, "", Hist::KIND, family.help);
                for (labels, cell) in &family.series {
                    let h = cell.load();
                    for (upper, cum) in h.cumulative_buckets() {
                        let le = Some(format_args!("{upper}"));
                        write_series(&mut out, name, "_bucket", labels, le);
                        let _ = writeln!(out, " {cum}");
                    }
                    let le = Some(format_args!("+Inf"));
                    write_series(&mut out, name, "_bucket", labels, le);
                    let _ = writeln!(out, " {}", h.count());
                    write_series(&mut out, name, "_sum", labels, None);
                    let _ = writeln!(out, " {}", h.sum());
                    write_series(&mut out, name, "_count", labels, None);
                    let _ = writeln!(out, " {}", h.count());
                }
            }
            out
        }

        /// What `/metrics` served: `sim` cloned, `own` merged in, rendered.
        pub(super) fn served(sim: &Registry, own: &Registry) -> String {
            let mut snap = sim.clone();
            merge_from(&mut snap, own);
            to_prometheus(&snap)
        }
    }

    /// splitmix64: a seeded stream without a dependency.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
            xs[(self.next() % xs.len() as u64) as usize]
        }
    }

    /// Label values that need each of the three escapes, and keys either
    /// side of `le`.
    const VALUES: [&str; 5] = ["x", "back\\slash", "new\nline", "quo\"te", ""];
    const HELP: [&str; 2] = ["Plain help", "Help with a \\ and\na second line"];
    /// No NaN: the oracle's merge started a gauge at -inf and kept the
    /// max, which a NaN never beats.
    const GAUGES: [f64; 6] = [0.0, -1.5, 2.5e-7, 1e300, 42.0, f64::INFINITY];
    const OBSERVED: [f64; 6] = [0.0, 0.5, 1.0, 3.0, 1e3, 7.5e9];

    fn labels(rng: &mut Rng) -> Vec<(&'static str, &'static str)> {
        let mut out = Vec::new();
        for key in ["a", "m", "z"] {
            if rng.next().is_multiple_of(3) {
                out.push((key, rng.pick(&VALUES)));
            }
        }
        out
    }

    /// One random change to `r`: a value, a new series or family (by
    /// name or declared, a counter with or without `_total`), a family's
    /// help declared, or `r` replaced by its clone.
    fn mutate(r: &mut Registry, rng: &mut Rng, names: &[&'static str]) {
        let name = rng.pick(names);
        let labels = labels(rng);
        let help = rng.pick(&HELP);
        match rng.next() % 10 {
            0 => r.counter(name, &labels).add(rng.next() % 1_000),
            1 => r.at(&Decl::<Counter>::new(name, help), &labels).inc(),
            2 => r.gauge(name, &labels).set(rng.pick(&GAUGES)),
            3 => r.at(&Decl::<Gauge>::new(name, help), &labels).add(1.0),
            4 | 5 => r.hist(name, &labels).record(rng.pick(&OBSERVED)),
            6 => r.at(&Decl::<Hist>::new(name, help), &labels).record(2.0),
            7 => *r = r.clone(),
            _ => {} // a warm capture of an unchanged registry
        }
    }

    /// Move every value of `r` without changing its shape.
    fn bump(r: &Registry) {
        r.counters.iter().for_each(|(_, _, c)| c.inc());
        r.gauges.iter().for_each(|(_, _, g)| g.add(1.0));
        r.histograms.iter().for_each(|(_, _, h)| h.record(5.0));
    }

    /// Capture `own` then `sim` (as `/metrics` does), move every value,
    /// render: the text must be the oracle's at capture time, byte for
    /// byte.
    fn check(e: &mut Exposition, out: &mut String, sim: &Registry, own: &Registry, step: &str) {
        e.capture(own);
        e.capture(sim);
        let expected = reference::served(sim, own);
        bump(sim);
        bump(own);
        out.clear();
        e.render(out);
        assert_eq!(*out, expected, "after {step}");
    }

    #[test]
    fn a_reused_exposition_renders_what_clone_merge_render_did() {
        // One exposition and one buffer throughout, so a stale layout
        // shows as a wrong byte.
        let (mut e, mut out) = (Exposition::default(), String::new());
        let (mut sim, mut own) = (Registry::new(), Registry::new());
        check(&mut e, &mut out, &sim, &own, "nothing registered");
        sim.gauge(decls::DRIFT_SCORE.name, &[("ou", "a")]).set(0.5);
        own.counter("m_requests_total", &[("endpoint", "metrics")]);
        own.hist("m_request_ns", &[]).record(1e4);
        check(&mut e, &mut out, &sim, &own, "a by-name family");
        sim.at(&decls::DRIFT_SCORE, &[("ou", "a")]);
        assert_eq!(sim.len(), 1);
        check(
            &mut e,
            &mut out,
            &sim,
            &own,
            "its declaration, no new series",
        );
        assert!(!out.contains("(undocumented)\n# TYPE ts_drift_score"));
        sim.counter("odd_counter", &[("k", "quo\"te\n")]).add(4);
        check(&mut e, &mut out, &sim, &own, "a counter without _total");
        sim.hist("a_lat_ns", &[("a", "1"), ("z", "back\\")])
            .record(3.0);
        sim.gauge("z_depth", &[]).set(2.0);
        check(
            &mut e,
            &mut out,
            &sim,
            &own,
            "families either side of own's",
        );
        sim = sim.clone();
        sim.counter("odd_counter", &[("k", "quo\"te\n")]).add(1);
        check(
            &mut e,
            &mut out,
            &sim,
            &own,
            "the registry replaced by its clone",
        );
        check(&mut e, &mut out, &sim, &own, "nothing");

        // Sim families sort either side of the self registry's.
        let sim_names = ["a_first", "b_second", "y_late", "z_last_total"];
        let own_names = ["m_middle", "n_middle_total"];
        for seed in 0..4 {
            let mut rng = Rng(seed);
            for step in 0..150 {
                if rng.next().is_multiple_of(4) {
                    mutate(&mut own, &mut rng, &own_names);
                } else {
                    mutate(&mut sim, &mut rng, &sim_names);
                }
                check(
                    &mut e,
                    &mut out,
                    &sim,
                    &own,
                    &format!("seed {seed} step {step}"),
                );
            }
        }
        for kind in ["# TYPE a_first_total counter", "# TYPE m_middle gauge"] {
            assert!(out.contains(kind), "{kind} never registered:\n{out}");
        }
    }
}
