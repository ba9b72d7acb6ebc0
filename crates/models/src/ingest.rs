//! Streaming dataset ingestion from the training-data archive.
//!
//! The archive's scans lend one decoded block at a time as columns
//! ([`tscout_archive::ColumnBatch`]); this module reads the three
//! training uses — template, elapsed time, features — straight into
//! per-OU [`OuData`], one allocation per point (its owned feature row).
//! No `Sample` is built on the way, and the memory high-water mark is
//! one decoded block plus the datasets being built. Every row is laid
//! out by [`input_row`], like the driver's `build_datasets`.

use std::collections::BTreeMap;

use tscout_archive::{Archive, ColumnBatch, Projection};

use crate::dataset::{LabeledPoint, OuData};
use crate::input_row;

/// The columns a labeled point is made of.
const TRAINING_COLUMNS: Projection = Projection {
    template: true,
    elapsed_ns: true,
    features: true,
    ..Projection::NONE
};

/// Append one labeled point per row of `batch`.
fn push_points(data: &mut OuData, batch: &ColumnBatch, clock_ghz: f64, concurrency: usize) {
    data.points.reserve(batch.len());
    let targets = batch.template().iter().zip(batch.elapsed_ns());
    for ((&template, &elapsed_ns), row) in targets.zip(batch.features().rows()) {
        let mut features = Vec::new();
        let archived = row.iter().map(|bits| f64::from_bits(*bits));
        input_row(&mut features, archived, clock_ghz, concurrency as f64);
        data.points.push(LabeledPoint {
            features,
            target_ns: elapsed_ns as f64,
            template: template as u32,
        });
    }
}

/// Stream every archived sample into per-OU datasets (ordered by OU
/// name, like the driver's `build_datasets`).
pub fn datasets_from_archive(archive: &Archive, clock_ghz: f64, concurrency: usize) -> Vec<OuData> {
    let mut by_ou: BTreeMap<String, OuData> = BTreeMap::new();
    let mut scan = archive.scan_batches(None, TRAINING_COLUMNS);
    while let Some(batch) = scan.next_batch() {
        let name = &batch.ou().name;
        if !by_ou.contains_key(name) {
            by_ou.insert(name.clone(), OuData::new(name));
        }
        let data = by_ou.get_mut(name).expect("inserted above");
        push_points(data, batch, clock_ghz, concurrency);
    }
    by_ou.into_values().collect()
}

/// Stream one OU's archived samples into a dataset.
pub fn ou_data_from_archive(
    archive: &Archive,
    ou_name: &str,
    clock_ghz: f64,
    concurrency: usize,
) -> OuData {
    let mut data = OuData::new(ou_name);
    let mut scan = archive.scan_batches(Some(ou_name), TRAINING_COLUMNS);
    while let Some(batch) = scan.next_batch() {
        push_points(&mut data, batch, clock_ghz, concurrency);
    }
    data
}

#[cfg(test)]
mod tests {
    use super::*;
    use tscout_archive::{ArchiveOptions, Sample};
    use tscout_telemetry::Telemetry;

    fn sample(ou: u16, name: &str, i: u64) -> Sample {
        Sample {
            ou,
            ou_name: name.to_string(),
            subsystem: 0,
            tid: 1,
            template: (i % 3) as u32,
            start_ns: i * 100,
            elapsed_ns: 500 + i,
            metrics: vec![i],
            features: vec![i as f64, 2.0 * i as f64],
            user_metrics: vec![],
        }
    }

    #[test]
    fn archive_streams_into_datasets_with_context_features() {
        let dir = std::env::temp_dir().join(format!("tscout_ingest_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut a = Archive::open(&dir, ArchiveOptions::default(), Telemetry::new()).unwrap();
        for i in 0..60 {
            a.append(sample(
                (i % 2) as u16,
                ["scan", "sort"][(i % 2) as usize],
                i,
            ))
            .unwrap();
        }
        a.seal().unwrap();
        let data = datasets_from_archive(&a, 2.1, 4);
        assert_eq!(data.len(), 2);
        assert_eq!(data[0].name, "scan");
        assert_eq!(data[0].len() + data[1].len(), 60);
        let p = &data[0].points[1]; // sample i=2
        assert_eq!(p.features, vec![2.0, 4.0, 2.1, 4.0]);
        assert_eq!(p.target_ns, 502.0);
        assert_eq!(p.template, 2);
        let scan_only = ou_data_from_archive(&a, "scan", 2.1, 4);
        assert_eq!(scan_only.points, data[0].points);
        std::fs::remove_dir_all(&dir).ok();
    }
}
