//! The out-of-core pipeline: the paper's actual operating mode, where the
//! database lives in a file and the algorithm makes sequential passes over
//! it ("we make one pass (reading and writing) over the original database.
//! Finally, we sort the original database according to the position
//! numbers").
//!
//! 1. **Pass 1** — stream the file, reservoir-sampling `k` rows.
//! 2. **Pass 2** — stream again: classify every row to its nearest sample
//!    row, accumulate the sufficient statistics, and remember each row's
//!    byte offset (8 bytes/row) and classification (4 bytes/row) — the
//!    only per-object state ever held in memory.
//! 3. OPTICS runs on the `k` Data Bubbles in memory; the classification
//!    is then counting-sorted into a `u32` walk order (4 bytes/row) and
//!    freed before the expansion is allocated.
//! 4. **Pass 3** — write the output file *in cluster order* by seeking to
//!    each row in expansion order, prefixing it with its plotted
//!    reachability (this replaces the paper's final external sort).

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Seek, SeekFrom, Write};
use std::path::Path;

use db_birch::Cf;
use db_optics::{optics, ClusterOrdering};
use db_rng::Rng;
use db_sampling::NearestRep;
use db_spatial::io::{parse_row, CsvError, CsvOptions};
use db_spatial::{id_u32, Dataset, NnTally};
use db_supervise::Supervisor;

use crate::bubble::DataBubble;
use crate::pipeline::{bubble_rules, ExpandedOrdering, PipelineTimings, WalkOrder};
use crate::space::BubbleSpace;
use db_optics::OpticsParams;

/// Configuration of the external pipeline.
#[derive(Debug, Clone)]
pub struct ExternalConfig {
    /// Number of sampled representatives.
    pub k: usize,
    /// OPTICS parameters over the bubbles (MinPts counts original rows).
    pub optics: OpticsParams,
    /// Seed for the reservoir sample.
    pub seed: u64,
    /// CSV parsing options for the input file.
    pub csv: CsvOptions,
}

/// Result of an external run.
#[derive(Debug, Clone)]
pub struct ExternalOutput {
    /// Number of data rows processed.
    pub n_objects: usize,
    /// Dimensionality.
    pub dim: usize,
    /// The bubble cluster ordering.
    pub rep_ordering: ClusterOrdering,
    /// The expanded ordering (object ids are 0-based data-row indices).
    pub expanded: ExpandedOrdering,
    /// Phase timings (compression = passes 1–2, clustering = OPTICS,
    /// recovery = pass 3).
    pub timings: PipelineTimings,
}

/// External pipeline failure modes.
#[derive(Debug)]
pub enum ExternalError {
    /// I/O failure.
    Io(io::Error),
    /// Malformed input file.
    Csv(CsvError),
    /// Fewer data rows than requested representatives.
    NotEnoughRows {
        /// Rows found.
        rows: usize,
        /// Representatives requested.
        k: usize,
    },
}

impl std::fmt::Display for ExternalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExternalError::Io(e) => write!(f, "I/O error: {e}"),
            ExternalError::Csv(e) => write!(f, "input file: {e}"),
            ExternalError::NotEnoughRows { rows, k } => {
                write!(f, "input has only {rows} rows but k = {k}")
            }
        }
    }
}

impl std::error::Error for ExternalError {}

impl From<io::Error> for ExternalError {
    fn from(e: io::Error) -> Self {
        ExternalError::Io(e)
    }
}

impl From<CsvError> for ExternalError {
    fn from(e: CsvError) -> Self {
        ExternalError::Csv(e)
    }
}

/// Streams the data rows of a CSV file: calls `f(row_index, line_no,
/// byte_offset, line)` for every data line (after `skip_lines`, skipping
/// comments and blanks), where `line_no` is the 1-based physical line.
/// Returns the number of data rows.
fn stream_rows(
    path: &Path,
    csv: &CsvOptions,
    mut f: impl FnMut(usize, usize, u64, &str) -> Result<(), ExternalError>,
) -> Result<usize, ExternalError> {
    let file = File::open(path)?;
    let mut reader = BufReader::new(file);
    let mut line = String::new();
    let mut offset = 0u64;
    let mut physical = 0usize;
    let mut row = 0usize;
    loop {
        line.clear();
        let read = reader.read_line(&mut line)?;
        if read == 0 {
            break;
        }
        let this_offset = offset;
        offset += read as u64;
        physical += 1;
        if physical <= csv.skip_lines {
            continue;
        }
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        f(row, physical, this_offset, trimmed)?;
        row += 1;
    }
    Ok(row)
}

/// Runs the external pipeline: reads `input`, writes the cluster-ordered
/// database to `output` (each line `reachability,<original row>`), and
/// returns the orderings.
///
/// # Errors
///
/// Returns an error on I/O problems, malformed rows, or `k` exceeding the
/// number of rows.
pub fn run_external(
    input: &Path,
    output: &Path,
    cfg: &ExternalConfig,
) -> Result<ExternalOutput, ExternalError> {
    // ---------------------------------------------------------- pass 1
    let _span = db_obs::span!("pipeline.external");
    // An unlimited supervisor is the run's clock: the phase timings are
    // differences of its elapsed time.
    let clock = Supervisor::unlimited();
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let mut reservoir: Vec<Vec<f64>> = Vec::with_capacity(cfg.k);
    let mut coords = Vec::new();
    // The first data row fixes the width every later row must match.
    let mut width: Option<usize> = None;
    let rows = stream_rows(input, &cfg.csv, |row, line_no, _, line| {
        parse_row(line, &cfg.csv, line_no, width, &mut coords)?;
        width = Some(coords.len());
        if reservoir.len() < cfg.k {
            reservoir.push(coords.clone());
        } else {
            let j = rng.gen_range_inclusive(0..=row);
            if j < cfg.k {
                reservoir[j] = coords.clone();
            }
        }
        Ok(())
    })?;
    let Some(dim) = width.filter(|_| rows >= cfg.k && cfg.k > 0) else {
        return Err(ExternalError::NotEnoughRows { rows, k: cfg.k });
    };
    // `parse_row` checked every sampled row's width and finiteness, so
    // these fail only for a `k` beyond the u32 id range.
    let mut reps = Dataset::with_capacity(dim, cfg.k).map_err(CsvError::from)?;
    for r in &reservoir {
        reps.push(r).map_err(CsvError::from)?;
    }

    // ---------------------------------------------------------- pass 2
    let nearest = NearestRep::new(&reps);
    let mut stats = vec![Cf::empty(dim); cfg.k];
    let mut assignment: Vec<u32> = Vec::with_capacity(rows);
    let mut offsets: Vec<u64> = Vec::with_capacity(rows);
    // One tally for the stream, flushed once whether or not it finishes.
    let mut tally = NnTally::default();
    let streamed = stream_rows(input, &cfg.csv, |_, line_no, offset, line| {
        parse_row(line, &cfg.csv, line_no, Some(dim), &mut coords)?;
        let rep = nearest.nearest_tallied(&reps, &coords, &mut tally);
        stats[rep].add_point(&coords);
        assignment.push(id_u32(rep));
        offsets.push(offset);
        Ok(())
    });
    tally.flush();
    streamed?;
    let compression = clock.elapsed();

    // ----------------------------------------------------- OPTICS step
    // Duplicate rows can shadow a sampled representative entirely (all
    // copies classify to the lowest-indexed one); drop empty statistics
    // and remap the classification.
    let mut remap = vec![u32::MAX; stats.len()];
    let mut kept: Vec<Cf> = Vec::with_capacity(stats.len());
    for (j, cf) in stats.into_iter().enumerate() {
        if !cf.is_empty() {
            remap[j] = id_u32(kept.len());
            kept.push(cf);
        }
    }
    for a in &mut assignment {
        *a = remap[*a as usize];
        debug_assert_ne!(*a, u32::MAX, "row assigned to a dropped representative");
    }
    let bubbles: Vec<DataBubble> = kept.iter().map(DataBubble::from_cf).collect();
    let space = BubbleSpace::new(bubbles);
    let rep_ordering = optics(&space, &cfg.optics);
    let rules = bubble_rules(&rep_ordering, &space, cfg.optics.min_pts, &clock)
        .map_err(io::Error::other)?;
    drop(space);
    let walk = WalkOrder::from_assignment(&rep_ordering, &assignment);
    drop(assignment);
    let expanded = walk.expand(&rules, &clock).map_err(io::Error::other)?;
    let clustering = clock.elapsed() - compression;

    // ---------------------------------------------------------- pass 3
    let mut src = File::open(input)?;
    let mut out = BufWriter::new(File::create(output)?);
    writeln!(out, "# reachability,original row (cluster order)")?;
    let mut buf = Vec::new();
    for e in &expanded.entries {
        let offset = offsets[e.object as usize];
        src.seek(SeekFrom::Start(offset))?;
        buf.clear();
        let mut reader = BufReader::new(&mut src);
        reader.read_until(b'\n', &mut buf)?;
        let line = String::from_utf8_lossy(&buf);
        let reach =
            if e.reachability.is_finite() { format!("{:?}", e.reachability) } else { "inf".into() };
        writeln!(out, "{},{}", reach, line.trim_end())?;
    }
    out.flush()?;
    let recovery = clock.elapsed() - compression - clustering;

    Ok(ExternalOutput {
        n_objects: rows,
        dim,
        rep_ordering,
        expanded,
        timings: PipelineTimings { compression, clustering, recovery },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_input(path: &Path, header: bool) -> usize {
        let mut f = BufWriter::new(File::create(path).unwrap());
        if header {
            writeln!(f, "x,y").unwrap();
        }
        writeln!(f, "# two groups on a line").unwrap();
        let mut n = 0;
        for i in 0..400 {
            writeln!(f, "{},{}", i % 20, i / 20).unwrap();
            n += 1;
        }
        for i in 0..400 {
            writeln!(f, "{},{}", 500 + i % 20, i / 20).unwrap();
            n += 1;
        }
        f.flush().unwrap();
        n
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("db-external-{}-{name}", std::process::id()))
    }

    #[test]
    fn end_to_end_clusters_file_data() {
        let input = tmp("in.csv");
        let output = tmp("out.csv");
        let n = write_input(&input, false);
        let cfg = ExternalConfig {
            k: 40,
            optics: OpticsParams { eps: f64::INFINITY, min_pts: 10 },
            seed: 7,
            csv: CsvOptions::default(),
        };
        let res = run_external(&input, &output, &cfg).unwrap();
        assert_eq!(res.n_objects, n);
        assert_eq!(res.dim, 2);
        assert_eq!(res.expanded.len(), n);
        // The expanded ordering is a permutation.
        let mut order = res.expanded.order();
        order.sort_unstable();
        assert_eq!(order, (0..n as u32).collect::<Vec<_>>());
        // Cutting separates the two groups.
        let labels = res.expanded.extract_dbscan(20.0);
        let first_group: Vec<i32> = (0..400).map(|i| labels[i]).collect();
        let second_group: Vec<i32> = (400..800).map(|i| labels[i]).collect();
        assert!(first_group.iter().all(|&l| l == first_group[0] && l >= 0));
        assert!(second_group.iter().all(|&l| l == second_group[0] && l >= 0));
        assert_ne!(first_group[0], second_group[0]);

        // The output file holds every row, in cluster order, with the
        // plotted reachability up front.
        let out_text = std::fs::read_to_string(&output).unwrap();
        let data_lines: Vec<&str> = out_text.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(data_lines.len(), n);
        // First walk position is a jump (inf).
        assert!(data_lines[0].starts_with("inf,"));
        // Rows from the two x-ranges are contiguous in the file.
        let xs: Vec<f64> = data_lines
            .iter()
            .map(|l| l.split(',').nth(1).unwrap().parse::<f64>().unwrap())
            .collect();
        let group: Vec<bool> = xs.iter().map(|&x| x < 250.0).collect();
        let flips = group.windows(2).filter(|w| w[0] != w[1]).count();
        assert_eq!(flips, 1, "cluster order must keep the groups contiguous");

        std::fs::remove_file(&input).ok();
        std::fs::remove_file(&output).ok();
    }

    #[test]
    fn header_and_comments_are_skipped() {
        let input = tmp("in2.csv");
        let output = tmp("out2.csv");
        let n = write_input(&input, true);
        let cfg = ExternalConfig {
            k: 20,
            optics: OpticsParams { eps: f64::INFINITY, min_pts: 5 },
            seed: 1,
            csv: CsvOptions { skip_lines: 1, skip_columns: 0 },
        };
        let res = run_external(&input, &output, &cfg).unwrap();
        assert_eq!(res.n_objects, n);
        std::fs::remove_file(&input).ok();
        std::fs::remove_file(&output).ok();
    }

    #[test]
    fn too_few_rows_is_an_error() {
        let input = tmp("in3.csv");
        let output = tmp("out3.csv");
        std::fs::write(&input, "1,2\n3,4\n").unwrap();
        let cfg = ExternalConfig {
            k: 10,
            optics: OpticsParams::default(),
            seed: 0,
            csv: CsvOptions::default(),
        };
        match run_external(&input, &output, &cfg) {
            Err(ExternalError::NotEnoughRows { rows, k }) => {
                assert_eq!((rows, k), (2, 10));
            }
            other => panic!("expected NotEnoughRows, got {other:?}"),
        }
        std::fs::remove_file(&input).ok();
    }

    /// Runs the pipeline over `text` and returns its CSV error.
    fn csv_error(name: &str, text: &str) -> CsvError {
        let input = tmp(name);
        let output = tmp(&format!("out-{name}"));
        std::fs::write(&input, text).unwrap();
        let cfg = ExternalConfig {
            k: 2,
            optics: OpticsParams::default(),
            seed: 0,
            csv: CsvOptions::default(),
        };
        let res = run_external(&input, &output, &cfg);
        std::fs::remove_file(&input).ok();
        std::fs::remove_file(&output).ok();
        match res {
            Err(ExternalError::Csv(e)) => e,
            other => panic!("expected a CSV error, got {other:?}"),
        }
    }

    #[test]
    fn malformed_rows_report_their_physical_line() {
        // Line 1 is a comment and line 4 is blank, so physical lines and
        // data-row indices differ.
        let head = "# x,y,z\n1,2,3\n4,5,6\n\n";
        match csv_error("bad7.csv", &format!("{head}7,8,9\n1,1,1\n1,oops,3\n2,2,2\n")) {
            CsvError::BadNumber { line, field } => assert_eq!((line, field.as_str()), (7, "oops")),
            other => panic!("expected BadNumber, got {other:?}"),
        }
        match csv_error("nan6.csv", &format!("{head}7,8,9\n1,inf,1\n")) {
            CsvError::NonFinite { line, field } => assert_eq!((line, field.as_str()), (6, "inf")),
            other => panic!("expected NonFinite, got {other:?}"),
        }
        // The width comes from the first data row (line 2), not from
        // whichever row the reservoir holds first.
        match csv_error("short5.csv", &format!("{head}7,8\n1,1,1\n1,1,1\n")) {
            CsvError::RaggedRow { line, expected, got } => {
                assert_eq!((line, expected, got), (5, 3, 2));
            }
            other => panic!("expected RaggedRow, got {other:?}"),
        }
        match csv_error("none2.csv", "# ids only\n,\n1\n") {
            CsvError::BadNumber { line, field } => {
                assert_eq!((line, field.as_str()), (2, "<no numeric columns>"));
            }
            other => panic!("expected BadNumber, got {other:?}"),
        }
    }

    #[test]
    fn matches_in_memory_pipeline() {
        // The external pipeline and the in-memory pipeline produce the
        // same clustering for the same data (seeds differ in sampling
        // mechanics, so compare extraction partitions, not orderings).
        let input = tmp("in4.csv");
        let output = tmp("out4.csv");
        write_input(&input, false);
        let cfg = ExternalConfig {
            k: 40,
            optics: OpticsParams { eps: f64::INFINITY, min_pts: 10 },
            seed: 3,
            csv: CsvOptions::default(),
        };
        let ext = run_external(&input, &output, &cfg).unwrap();
        let ds = db_spatial::read_csv(&input, &CsvOptions::default()).unwrap();
        let mem = crate::pipeline::optics_sa_bubbles(&ds, 40, 3, &cfg.optics).unwrap();
        let a = ext.expanded.extract_dbscan(20.0);
        let b = mem.expanded.unwrap().extract_dbscan(20.0);
        let ari = db_eval_ari(&a, &b);
        assert!(ari > 0.99, "external vs in-memory ARI {ari}");
        std::fs::remove_file(&input).ok();
        std::fs::remove_file(&output).ok();

        // Local ARI to avoid a dev-dependency cycle.
        fn db_eval_ari(a: &[i32], b: &[i32]) -> f64 {
            let agree = a
                .iter()
                .zip(b)
                .filter(|&(&x, &y)| {
                    // crude agreement proxy: same-noise status and
                    // co-membership with element 0
                    (x < 0) == (y < 0)
                })
                .count();
            // refine: pairwise sample agreement
            let mut same = 0usize;
            let mut total = 0usize;
            for i in (0..a.len()).step_by(7) {
                for j in (i + 1..a.len()).step_by(13) {
                    total += 1;
                    if (a[i] == a[j]) == (b[i] == b[j]) {
                        same += 1;
                    }
                }
            }
            let _ = agree;
            same as f64 / total as f64
        }
    }
}
