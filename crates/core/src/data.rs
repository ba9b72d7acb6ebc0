//! The training-data wire format and its decoding into [`Sample`]s.
//!
//! A *record* is the fixed-size struct the Collector's FEATURES program
//! assembles on its BPF stack and publishes through `perf_event_output`
//! (paper §3.2: "the Collector packages the features and metrics together
//! into a struct (sample data point)"). The layout, in little-endian u64
//! words:
//!
//! | word        | contents                                             |
//! |-------------|------------------------------------------------------|
//! | 0           | OU id                                                |
//! | 1           | thread id                                            |
//! | 2           | subsystem index                                      |
//! | 3           | flags (`0` = plain OU; `n > 0` = fused pipeline with `n` OU feature groups, §5.2) |
//! | 4           | OU start time (ns)                                   |
//! | 5           | OU elapsed time (ns)                                 |
//! | 6           | number of metric words `M` (fixed per subsystem)     |
//! | 7           | number of valid payload words                        |
//! | 8 .. 8+M    | metrics (probe order: CPU×7, disk×4, net×4 as configured) |
//! | 8+M .. 8+M+32 | payload (features, then user-level metrics; zero-padded) |
//!
//! The record length is a compile-time constant per subsystem so the BPF
//! verifier can bounds-check the `perf_event_output` call.

use tscout_archive::Sample;

use crate::ou::{OuId, OuRegistry, Subsystem};

/// Header words before the metrics block.
pub const HEADER_WORDS: usize = 8;
/// Fixed payload capacity in words.
pub const MAX_PAYLOAD_WORDS: usize = 32;

/// Record size in bytes for a subsystem collecting `m` metric words.
pub fn record_bytes(m: usize) -> usize {
    (HEADER_WORDS + m + MAX_PAYLOAD_WORDS) * 8
}

/// A decoded wire record, before OU-schema interpretation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RawRecord {
    pub ou: u64,
    pub tid: u64,
    pub subsystem: u64,
    pub flags: u64,
    pub start_ns: u64,
    pub elapsed_ns: u64,
    pub metrics: Vec<u64>,
    pub payload: Vec<u64>,
}

/// Little-endian `u64` words read in place from record bytes.
#[derive(Debug, Clone, Copy)]
struct Words<'a>(&'a [u8]);

impl<'a> Words<'a> {
    fn len(self) -> usize {
        self.0.len() / 8
    }

    fn get(self, i: usize) -> u64 {
        u64::from_le_bytes(self.0[i * 8..][..8].try_into().expect("8-byte word"))
    }

    fn slice(self, words: std::ops::Range<usize>) -> Words<'a> {
        Words(&self.0[words.start * 8..words.end * 8])
    }

    fn iter(self) -> impl ExactSizeIterator<Item = u64> + 'a {
        self.0
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte word")))
    }
}

/// A validated wire record read in place from the ring: the header
/// scalars by value, metrics and payload as borrowed words. The
/// Processor decodes training points straight out of it.
#[derive(Debug, Clone, Copy)]
pub struct RecordView<'a> {
    pub ou: u16,
    pub tid: u32,
    pub subsystem: u64,
    pub flags: u64,
    pub start_ns: u64,
    pub elapsed_ns: u64,
    metrics: Words<'a>,
    /// The valid payload words (zero padding excluded).
    payload: Words<'a>,
}

impl<'a> RecordView<'a> {
    /// Validate a wire record. Returns `None` on malformed input
    /// (truncated, internally inconsistent, or an OU word above
    /// `u16::MAX` / a tid above `u32::MAX`) — the Processor drops such
    /// records rather than crashing, since ring overwrites are legal.
    pub fn parse(bytes: &'a [u8]) -> Option<Self> {
        if !bytes.len().is_multiple_of(8) || bytes.len() < HEADER_WORDS * 8 {
            return None;
        }
        let words = Words(bytes);
        let m = usize::try_from(words.get(6)).ok()?;
        let n_payload = usize::try_from(words.get(7)).ok()?;
        let body = HEADER_WORDS.checked_add(m)?;
        if n_payload > MAX_PAYLOAD_WORDS || body.checked_add(MAX_PAYLOAD_WORDS) != Some(words.len())
        {
            return None;
        }
        Some(RecordView {
            ou: u16::try_from(words.get(0)).ok()?,
            tid: u32::try_from(words.get(1)).ok()?,
            subsystem: words.get(2),
            flags: words.get(3),
            start_ns: words.get(4),
            elapsed_ns: words.get(5),
            metrics: words.slice(HEADER_WORDS..body),
            payload: words.slice(body..body + n_payload),
        })
    }

    fn to_raw(self) -> RawRecord {
        RawRecord {
            ou: self.ou.into(),
            tid: self.tid.into(),
            subsystem: self.subsystem,
            flags: self.flags,
            start_ns: self.start_ns,
            elapsed_ns: self.elapsed_ns,
            metrics: self.metrics.iter().collect(),
            payload: self.payload.iter().collect(),
        }
    }

    /// The fused-pipeline groups `[ou_id, n_feat, feats...]` packed in
    /// the payload, or `None` when they do not fit it or an OU id is
    /// above `u16::MAX`.
    fn groups(self) -> Option<impl Iterator<Item = (u16, Words<'a>)>> {
        let mut at = 0usize;
        for _ in 0..self.flags {
            u16::try_from(self.payload_word(at)?).ok()?;
            let n = usize::try_from(self.payload_word(at + 1)?).ok()?;
            at = (at + 2).checked_add(n)?;
            if at > self.payload.len() {
                return None;
            }
        }
        let payload = self.payload;
        let mut at = 0usize;
        Some((0..self.flags).map(move |_| {
            let n = payload.get(at + 1) as usize;
            // The OU id fits a u16: checked above.
            let group = (payload.get(at) as u16, payload.slice(at + 2..at + 2 + n));
            at += 2 + n;
            group
        }))
    }

    fn payload_word(self, i: usize) -> Option<u64> {
        (i < self.payload.len()).then(|| self.payload.get(i))
    }

    /// How many training points the record decodes into: one for a plain
    /// record, one per OU group for a fused-pipeline record, none when
    /// the subsystem is unknown or the groups are malformed (the record
    /// is then dropped).
    pub fn point_count(self) -> usize {
        if Subsystem::from_index(self.subsystem as usize).is_none() {
            0
        } else if self.flags == 0 {
            1
        } else {
            self.groups().map_or(0, Iterator::count)
        }
    }

    /// Decode into training points using the OU registry's feature
    /// schemas, handing each to `emit`. Plain records produce one point;
    /// fused-pipeline records (flags = n groups) produce one point per
    /// OU, with the shared metrics and elapsed time apportioned by each
    /// group's declared weight — the paper's "breaking apart which
    /// portion of the metrics corresponds to which OU" using offline
    /// models (§5.2/§6). The weight is the group's first feature (its
    /// tuple count), a proxy for per-OU work.
    ///
    /// Each point is built directly as an untagged [`Sample`]: the OU
    /// name and the three value vectors are its only allocations.
    pub fn for_each_point(self, registry: &OuRegistry, mut emit: impl FnMut(Sample)) {
        let Some(subsystem) = Subsystem::from_index(self.subsystem as usize) else {
            return;
        };
        let point = |ou: u16, elapsed_ns, metrics, features, user_metrics| Sample {
            ou,
            ou_name: registry
                .get(OuId(ou))
                .map_or_else(|| format!("ou_{ou}"), |d| d.name.clone()),
            subsystem: subsystem.index() as u8,
            tid: self.tid,
            template: 0,
            start_ns: self.start_ns,
            elapsed_ns,
            metrics,
            features,
            user_metrics,
        };
        if self.flags == 0 {
            let n_features = registry
                .get(OuId(self.ou))
                .map_or(self.payload.len(), |def| {
                    def.n_features.min(self.payload.len())
                });
            emit(point(
                self.ou,
                self.elapsed_ns,
                self.metrics.iter().collect(),
                self.payload
                    .slice(0..n_features)
                    .iter()
                    .map(|w| w as f64)
                    .collect(),
                self.payload
                    .slice(n_features..self.payload.len())
                    .iter()
                    .collect(),
            ));
            return;
        }

        let weight = |feats: Words<'_>| feats.iter().next().unwrap_or(1).max(1) as f64;
        let Some(total_weight) = self
            .groups()
            .map(|groups| groups.map(|(_, f)| weight(f)).sum::<f64>())
        else {
            return; // malformed; drop
        };
        for (ou, feats) in self.groups().into_iter().flatten() {
            let w = weight(feats) / total_weight;
            emit(point(
                ou,
                (self.elapsed_ns as f64 * w) as u64,
                self.metrics.iter().map(|m| (m as f64 * w) as u64).collect(),
                feats.iter().map(|w| w as f64).collect(),
                Vec::new(),
            ));
        }
    }
}

/// The OU id, tid and subsystem in a record's header (words 0, 1, 2),
/// read without a full decode so a torn record still names its sender.
/// An OU word above `u16::MAX` reads as missing, like an absent one.
pub(crate) fn header_ids(bytes: &[u8]) -> (Option<OuId>, u64, Option<Subsystem>) {
    let word = |i: usize| Some(Words(bytes.get(i * 8..i * 8 + 8)?).get(0));
    (
        word(0).and_then(|w| u16::try_from(w).ok()).map(OuId),
        word(1).unwrap_or(0),
        word(2).and_then(|i| Subsystem::from_index(usize::try_from(i).ok()?)),
    )
}

/// Decode a wire record into its owned form (`None` on malformed input,
/// see [`RecordView::parse`]).
pub fn decode_record(bytes: &[u8]) -> Option<RawRecord> {
    RecordView::parse(bytes).map(RecordView::to_raw)
}

/// Decode a wire record all the way into training points (none when it
/// is malformed).
pub fn decode_points(bytes: &[u8], registry: &OuRegistry) -> Vec<Sample> {
    let mut points = Vec::new();
    if let Some(view) = RecordView::parse(bytes) {
        view.for_each_point(registry, |p| points.push(p));
    }
    points
}

/// Encode a record (used by the user-space collection modes, which build
/// the identical struct without BPF).
pub fn encode_record(r: &RawRecord) -> Vec<u8> {
    let m = r.metrics.len();
    let mut words = Vec::with_capacity(HEADER_WORDS + m + MAX_PAYLOAD_WORDS);
    words.extend_from_slice(&[
        r.ou,
        r.tid,
        r.subsystem,
        r.flags,
        r.start_ns,
        r.elapsed_ns,
        m as u64,
        r.payload.len() as u64,
    ]);
    words.extend_from_slice(&r.metrics);
    words.extend_from_slice(&r.payload);
    words.resize(HEADER_WORDS + m + MAX_PAYLOAD_WORDS, 0);
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw() -> RawRecord {
        RawRecord {
            ou: 3,
            tid: 17,
            subsystem: Subsystem::ExecutionEngine.index() as u64,
            flags: 0,
            start_ns: 1000,
            elapsed_ns: 250,
            metrics: vec![10, 20, 30],
            payload: vec![5, 6, 7, 4096],
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let r = raw();
        let bytes = encode_record(&r);
        assert_eq!(bytes.len(), record_bytes(3));
        let d = decode_record(&bytes).unwrap();
        assert_eq!(d, r);
    }

    #[test]
    fn decode_rejects_truncated() {
        let bytes = encode_record(&raw());
        assert!(decode_record(&bytes[..bytes.len() - 8]).is_none());
        assert!(decode_record(&bytes[..17]).is_none());
        assert!(decode_record(&[]).is_none());
    }

    #[test]
    fn decode_rejects_inconsistent_payload_count() {
        let mut bytes = encode_record(&raw());
        // Corrupt n_payload to exceed capacity.
        bytes[7 * 8..8 * 8].copy_from_slice(&999u64.to_le_bytes());
        assert!(decode_record(&bytes).is_none());
    }

    #[test]
    fn split_plain_record_uses_feature_schema() {
        let mut reg = OuRegistry::new();
        // id 0..3 so that "ou 3" resolves.
        for n in ["a", "b", "c"] {
            reg.register(n, Subsystem::ExecutionEngine, 1);
        }
        let scan = reg.register("seq_scan", Subsystem::ExecutionEngine, 3);
        assert_eq!(scan.0, 3);
        let pts = decode_points(&encode_record(&raw()), &reg);
        assert_eq!(pts.len(), 1);
        let p = &pts[0];
        assert_eq!(p.ou_name, "seq_scan");
        assert_eq!(p.features, vec![5.0, 6.0, 7.0]);
        assert_eq!(p.user_metrics, vec![4096]); // memory probe word
        assert_eq!(p.elapsed_ns, 250);
    }

    #[test]
    fn split_fused_record_apportions_metrics() {
        let mut reg = OuRegistry::new();
        let a = reg.register("idx_lookup", Subsystem::ExecutionEngine, 2);
        let b = reg.register("filter", Subsystem::ExecutionEngine, 1);
        let r = RawRecord {
            ou: a.as_u64(),
            tid: 1,
            subsystem: 0,
            flags: 2,
            start_ns: 0,
            elapsed_ns: 900,
            metrics: vec![300],
            // group 1: ou=a, 2 feats [100, 8]; group 2: ou=b, 1 feat [200]
            payload: vec![a.as_u64(), 2, 100, 8, b.as_u64(), 1, 200],
        };
        let pts = decode_points(&encode_record(&r), &reg);
        assert_eq!(pts.len(), 2);
        // Weights 100:200 → elapsed 300/600, metric 100/200.
        assert_eq!(pts[0].elapsed_ns, 300);
        assert_eq!(pts[1].elapsed_ns, 600);
        assert_eq!(pts[0].metrics, vec![100]);
        assert_eq!(pts[1].metrics, vec![200]);
        assert_eq!(pts[0].features, vec![100.0, 8.0]);
        assert_eq!(pts[1].features, vec![200.0]);
    }

    #[test]
    fn split_malformed_fused_record_drops() {
        let reg = OuRegistry::new();
        let r = RawRecord {
            ou: 0,
            tid: 1,
            subsystem: 0,
            flags: 3, // claims 3 groups
            start_ns: 0,
            elapsed_ns: 1,
            metrics: vec![],
            payload: vec![0, 5, 1], // but group 1 claims 5 features
        };
        assert!(decode_points(&encode_record(&r), &reg).is_empty());
    }

    #[test]
    fn out_of_range_ids_are_rejected_not_truncated() {
        // OU word 65 539 would truncate to OU 3, tid 2^32 to tid 0.
        let ou = RawRecord {
            ou: 65_539,
            ..raw()
        };
        let tid = RawRecord {
            tid: 1 << 32,
            ..raw()
        };
        for r in [ou, tid] {
            assert!(RecordView::parse(&encode_record(&r)).is_none());
        }
        // One fused group naming OU 65 539 makes the record malformed.
        let payload = vec![0, 1, 100, 65_539, 1, 200];
        let bytes = encode_record(&RawRecord {
            flags: 2,
            payload,
            ..raw()
        });
        assert_eq!(RecordView::parse(&bytes).unwrap().point_count(), 0);
        assert!(decode_points(&bytes, &OuRegistry::new()).is_empty());
    }

    #[test]
    fn split_unknown_subsystem_drops() {
        let reg = OuRegistry::new();
        let mut r = raw();
        r.subsystem = 99;
        assert!(decode_points(&encode_record(&r), &reg).is_empty());
    }
}
