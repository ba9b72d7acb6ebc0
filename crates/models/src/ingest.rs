//! Streaming dataset ingestion from the training-data archive.
//!
//! The archive's scans lend one decoded block at a time as columns
//! ([`tscout_archive::ColumnBatch`]); this module reads the three
//! training uses — template, elapsed time, features — straight into each
//! OU's [`OuData`] columns, laid out by [`input_values`] like the
//! driver's `build_datasets`; nothing is allocated per point. The OUs are
//! built side by side, one scan each, on `largest_first`'s pool.

use tscout_archive::{Archive, BatchScan, ColumnBatch, Projection};

use crate::dataset::OuData;
use crate::{input_values, largest_first};

/// The columns a labeled point is made of.
const TRAINING_COLUMNS: Projection = Projection {
    template: true,
    elapsed_ns: true,
    features: true,
    ..Projection::NONE
};

/// Append one labeled point per row of `batch`, its row ending in the
/// context columns `(clock_ghz, concurrency)`.
fn push_points(data: &mut OuData, batch: &ColumnBatch, (clock_ghz, concurrency): (f64, usize)) {
    let targets = batch.template().iter().zip(batch.elapsed_ns());
    for ((&template, &elapsed_ns), row) in targets.zip(batch.features().rows()) {
        let archived = row.iter().map(|bits| f64::from_bits(*bits));
        let row = input_values(archived, clock_ghz, concurrency as f64);
        data.points
            .push_row(row, elapsed_ns as f64, template as u32);
    }
}

/// `name`'s dataset started from its scan's first batch, with the scan to
/// finish it from; `None` when the scan lends nothing. The columns are
/// sized here, once — the plan's rows, each as wide as the first batch's
/// mean row — so a pool worker finishing the build fills memory the
/// calling thread allocated, and its malloc arena keeps none of it.
fn start(archive: &Archive, name: &str, context: (f64, usize)) -> Option<(OuData, BatchScan)> {
    let mut scan = archive.scan_batches(Some(name), TRAINING_COLUMNS);
    let rows = usize::try_from(scan.rows()).unwrap_or(usize::MAX);
    let batch = scan.next_batch()?;
    let mut data = OuData::new(name);
    let width = batch.features().flat().len().div_ceil(batch.len().max(1)) + 2;
    data.points.reserve(rows, rows.saturating_mul(width));
    push_points(&mut data, batch, context);
    Some((data, scan))
}

/// The rest of `scan`'s batches into `data`. Every pool job of
/// [`datasets_from_archive`] runs under this frame, whichever thread it
/// is on (`tools/pcprof`: `--under finish_ou`).
fn finish_ou((mut data, mut scan): (OuData, BatchScan), context: (f64, usize)) -> OuData {
    while let Some(batch) = scan.next_batch() {
        push_points(&mut data, batch, context);
    }
    data
}

/// Stream every archived sample into per-OU datasets, ordered by OU name
/// like the driver's `build_datasets`; an OU the archive lends no rows
/// of has none.
pub fn datasets_from_archive(archive: &Archive, clock_ghz: f64, concurrency: usize) -> Vec<OuData> {
    let context = (clock_ghz, concurrency);
    let start = |name: &String| start(archive, name, context);
    let started: Vec<_> = archive.ou_names().iter().filter_map(start).collect();
    largest_first(started, |(_, scan)| scan.rows(), |s| finish_ou(s, context))
}

/// Stream one OU's archived samples into a dataset.
pub fn ou_data_from_archive(
    archive: &Archive,
    ou_name: &str,
    clock_ghz: f64,
    concurrency: usize,
) -> OuData {
    let context = (clock_ghz, concurrency);
    let started = start(archive, ou_name, context);
    started.map_or_else(|| OuData::new(ou_name), |s| finish_ou(s, context))
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
        let p = data[0].points.at(1); // sample i=2
        assert_eq!(p.features, vec![2.0, 4.0, 2.1, 4.0]);
        assert_eq!(p.target_ns, 502.0);
        assert_eq!(p.template, 2);
        let scan_only = ou_data_from_archive(&a, "scan", 2.1, 4);
        assert_eq!(scan_only.points, data[0].points);
        std::fs::remove_dir_all(&dir).ok();
    }
}
