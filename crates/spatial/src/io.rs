//! Plain-text I/O for datasets: numeric CSV (comma, semicolon, tab or
//! whitespace separated) without external dependencies.
//!
//! This is how real data enters the pipelines — e.g. the actual Corel
//! "Color Moments" file from the UCI KDD archive, whose rows are
//! `<image id> <9 moments>` and can be loaded with `skip_columns = 1`.

use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::path::Path;

use db_supervise::{resolve_threads, run_blocks, unsupervised};

use crate::dataset::Dataset;
use crate::error::SpatialError;

/// Options for [`read_csv`].
#[derive(Debug, Clone, Default)]
pub struct CsvOptions {
    /// Number of leading columns to skip on every row (ids, labels, …).
    pub skip_columns: usize,
    /// Number of leading lines to skip (headers).
    pub skip_lines: usize,
}

/// Errors of the CSV reader.
#[derive(Debug)]
pub enum CsvError {
    /// An underlying I/O failure.
    Io(io::Error),
    /// A field failed to parse as `f64`.
    BadNumber {
        /// 1-based line number.
        line: usize,
        /// The offending field.
        field: String,
    },
    /// A row had a different number of coordinates than the first row.
    RaggedRow {
        /// 1-based line number.
        line: usize,
        /// Expected coordinates per row.
        expected: usize,
        /// Found coordinates.
        got: usize,
    },
    /// A field parsed as `f64` but was NaN or ±∞, which the dataset ingest
    /// boundary rejects (see [`SpatialError::NonFiniteCoordinate`]).
    NonFinite {
        /// 1-based line number.
        line: usize,
        /// The offending field.
        field: String,
    },
    /// The assembled row was rejected by the [`Dataset`] ingest validation.
    Spatial(SpatialError),
    /// No data rows were found.
    Empty,
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "I/O error: {e}"),
            CsvError::BadNumber { line, field } => {
                write!(f, "line {line}: cannot parse {field:?} as a number")
            }
            CsvError::RaggedRow { line, expected, got } => {
                write!(f, "line {line}: expected {expected} coordinates, found {got}")
            }
            CsvError::NonFinite { line, field } => {
                write!(f, "line {line}: non-finite coordinate {field:?} rejected")
            }
            CsvError::Spatial(e) => write!(f, "dataset rejected input: {e}"),
            CsvError::Empty => write!(f, "no data rows found"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<io::Error> for CsvError {
    fn from(e: io::Error) -> Self {
        CsvError::Io(e)
    }
}

impl From<SpatialError> for CsvError {
    fn from(e: SpatialError) -> Self {
        CsvError::Spatial(e)
    }
}

/// Bytes the reader takes from its input per read block. A block is cut
/// after its last complete line, so memory beyond the dataset itself stays
/// bounded by one block (plus one line, if a line is longer).
pub const READ_BLOCK_BYTES: usize = 8 << 20;

/// Fewest bytes of a block one parse worker takes: a block of fewer than
/// twice this many bytes is parsed inline on the calling thread.
pub const MIN_CHUNK_BYTES: usize = 1 << 20;

/// The error `BufRead::lines` reports for a line that is not UTF-8.
fn invalid_utf8() -> CsvError {
    CsvError::Io(io::Error::new(io::ErrorKind::InvalidData, "stream did not contain valid UTF-8"))
}

/// `str::trim`, without decoding characters when both ends are printable
/// ASCII (the common case, where there is nothing to trim).
fn trim(s: &str) -> &str {
    match (s.as_bytes().first(), s.as_bytes().last()) {
        (Some(a), Some(z)) if a.is_ascii_graphic() && z.is_ascii_graphic() => s,
        _ => s.trim(),
    }
}

/// The trimmed content of a data line, or `None` for a blank or `#` line.
fn data_line(line: &str) -> Option<&str> {
    let trimmed = trim(line);
    (!trimmed.is_empty() && !trimmed.starts_with('#')).then_some(trimmed)
}

/// The trimmed, non-empty fields of a line split on commas, semicolons,
/// tabs and spaces. The separators are ASCII, so the split runs on bytes
/// and every cut falls on a character boundary.
struct Fields<'a> {
    rest: Option<&'a str>,
}

impl<'a> Iterator for Fields<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        loop {
            let rest = self.rest?;
            let (field, tail) =
                match rest.bytes().position(|b| matches!(b, b',' | b';' | b'\t' | b' ')) {
                    Some(i) => (&rest[..i], Some(&rest[i + 1..])),
                    None => (rest, None),
                };
            self.rest = tail;
            let field = trim(field);
            if !field.is_empty() {
                return Some(field);
            }
        }
    }
}

/// Parses the coordinates of data line `line_no` (1-based): every field
/// after the first `skip_columns` must be a finite `f64`, and the count
/// must equal `expected`, or be non-zero when there is no expectation yet
/// (the first data row). `put(j, value)` receives each coordinate in
/// order, also past `expected`, so a long row still reports its first bad
/// field before its length. Returns the coordinate count.
fn parse_fields(
    line: &str,
    skip_columns: usize,
    line_no: usize,
    expected: Option<usize>,
    mut put: impl FnMut(usize, f64),
) -> Result<usize, CsvError> {
    let mut got = 0;
    for field in (Fields { rest: Some(line) }).skip(skip_columns) {
        let v: f64 = field
            .parse()
            .map_err(|_| CsvError::BadNumber { line: line_no, field: field.into() })?;
        // Rust parses "NaN"/"inf" successfully, but non-finite coordinates
        // poison every distance downstream — reject them here, where the
        // line number is still known (the Dataset ingest boundary would
        // reject them anyway, without the line).
        if !v.is_finite() {
            return Err(CsvError::NonFinite { line: line_no, field: field.into() });
        }
        put(got, v);
        got += 1;
    }
    match expected {
        None if got == 0 => {
            Err(CsvError::BadNumber { line: line_no, field: String::from("<no numeric columns>") })
        }
        Some(expected) if got != expected => {
            Err(CsvError::RaggedRow { line: line_no, expected, got })
        }
        _ => Ok(got),
    }
}

/// Parses one data line the way [`read_csv_from`] does: `line` is the
/// line's text (whitespace around fields is ignored), `line_no` its 1-based
/// physical line number for the error, and `expected` the first data
/// row's coordinate count, or `None` when `line` is the first data row.
/// On success `row` holds the coordinates.
///
/// # Errors
///
/// [`CsvError::BadNumber`] or [`CsvError::NonFinite`] for the first bad
/// field, [`CsvError::RaggedRow`] when the count differs from `expected`,
/// and `BadNumber` with field `<no numeric columns>` for a first row
/// without coordinates.
pub fn parse_row(
    line: &str,
    options: &CsvOptions,
    line_no: usize,
    expected: Option<usize>,
    row: &mut Vec<f64>,
) -> Result<(), CsvError> {
    row.clear();
    parse_fields(line, options.skip_columns, line_no, expected, |_, v| row.push(v)).map(|_| ())
}

/// Reads the input in blocks that end at a line boundary.
struct Blocks<R> {
    reader: R,
    buf: Vec<u8>,
}

impl<R: Read> Blocks<R> {
    /// Reads up to [`READ_BLOCK_BYTES`] into the buffer (more while no
    /// line ends) and returns the length of its prefix of whole lines,
    /// with `Some` once the input ended (`Ok`) or failed (`Err`) after that
    /// prefix. At the end of input the last line needs no newline; after a
    /// failure the partial line is dropped, as `BufRead::lines` drops it.
    fn fill(&mut self) -> (usize, Option<io::Result<()>>) {
        let mut want = READ_BLOCK_BYTES.max(2 * self.buf.len());
        loop {
            let need = want - self.buf.len();
            match (&mut self.reader).take(need as u64).read_to_end(&mut self.buf) {
                Ok(n) if n < need => return (self.buf.len(), Some(Ok(()))),
                Ok(_) => {}
                Err(e) => return (whole_lines(&self.buf), Some(Err(e))),
            }
            match whole_lines(&self.buf) {
                0 => want *= 2,
                len => return (len, None),
            }
        }
    }

    /// Drops the first `len` bytes, keeping the partial line after them.
    fn consume(&mut self, len: usize) {
        self.buf.drain(..len);
    }
}

/// Length of the prefix of `bytes` that ends with its last newline.
fn whole_lines(bytes: &[u8]) -> usize {
    bytes.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1)
}

/// Cuts `block` into `parts` chunks of whole lines, each ending just past
/// the first newline at or after its share `len · i / parts` of the bytes.
fn split_lines(block: &[u8], parts: usize) -> Vec<&[u8]> {
    let mut chunks = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 1..=parts {
        let end = if i == parts {
            block.len()
        } else {
            let at = (block.len() * i / parts).max(start);
            block[at..].iter().position(|&b| b == b'\n').map_or(block.len(), |p| at + p + 1)
        };
        chunks.push(&block[start..end]);
        start = end;
    }
    chunks
}

/// One chunk after the scan: its UTF-8 lines and what they hold.
#[derive(Default)]
struct Scan<'a> {
    bytes: &'a [u8],
    /// The chunk's lines up to its first non-UTF-8 line (all of them when
    /// `invalid` is false).
    text: &'a str,
    /// Whether a line after `text` is not UTF-8.
    invalid: bool,
    lines: usize,
    rows: usize,
}

impl Scan<'_> {
    /// Validates the chunk's bytes and counts its lines and data rows.
    fn run(&mut self) {
        let bytes = self.bytes;
        (self.text, self.invalid) = match std::str::from_utf8(bytes) {
            Ok(text) => (text, false),
            Err(e) => {
                // Newlines never sit inside a UTF-8 sequence: the lines
                // before the one holding the first bad byte are valid.
                let cut = whole_lines(&bytes[..e.valid_up_to()]);
                (std::str::from_utf8(&bytes[..cut]).unwrap_or_default(), true)
            }
        };
        for line in self.text.split_terminator('\n') {
            self.lines += 1;
            self.rows += usize::from(data_line(line).is_some());
        }
    }
}

/// One chunk in the parse: its lines and its rows' slice of the buffer.
struct Parse<'a> {
    text: &'a str,
    invalid: bool,
    first_line: usize,
    first_row: usize,
    out: &'a mut [f64],
    error: Option<CsvError>,
}

impl Parse<'_> {
    /// Parses the chunk's rows into `out`, in order, up to the first error:
    /// a bad row, or else the chunk's non-UTF-8 line.
    fn rows(&mut self, dim: usize, skip_columns: usize) -> Result<(), CsvError> {
        let mut row = self.first_row;
        let mut slots = self.out.chunks_exact_mut(dim);
        for (line_no, line) in (self.first_line..).zip(self.text.split_terminator('\n')) {
            let Some(line) = data_line(line) else { continue };
            // Rows past the u32 id range have no slot.
            let slot = slots.next().unwrap_or_default();
            parse_fields(line, skip_columns, line_no, Some(dim), |j, v| {
                if let Some(x) = slot.get_mut(j) {
                    *x = v;
                }
            })?;
            if slot.is_empty() {
                return Err(CsvError::Spatial(SpatialError::TooManyPoints {
                    len: row + 1,
                    max: Dataset::MAX_POINTS,
                }));
            }
            row += 1;
        }
        if self.invalid {
            return Err(invalid_utf8());
        }
        Ok(())
    }
}

/// The table being read: the first data row fixes `dim`, and every row
/// lands in `flat`, in file order.
struct Table<'o> {
    options: &'o CsvOptions,
    /// Physical lines consumed so far.
    lines: usize,
    dim: usize,
    flat: Vec<f64>,
}

impl Table<'_> {
    /// Takes one block of whole lines (the last one may lack its newline).
    fn take(&mut self, mut block: &[u8]) -> Result<(), CsvError> {
        // Header lines and the first data row, one line at a time on the
        // calling thread: the first row fixes the width every chunk checks.
        while self.dim == 0 && !block.is_empty() {
            let end = block.iter().position(|&b| b == b'\n').map_or(block.len(), |p| p + 1);
            let (line, rest) = block.split_at(end);
            block = rest;
            self.lines += 1;
            let line = std::str::from_utf8(line).map_err(|_| invalid_utf8())?;
            if self.lines <= self.options.skip_lines {
                continue;
            }
            if let Some(line) = data_line(line) {
                parse_row(line, self.options, self.lines, None, &mut self.flat)?;
                self.dim = self.flat.len();
            }
        }
        if !block.is_empty() {
            self.take_rows(block)?;
        }
        Ok(())
    }

    /// Parses data lines after the first row: one chunk per worker, a scan
    /// pass that sizes the buffer, then a parse pass that fills it.
    fn take_rows(&mut self, block: &[u8]) -> Result<(), CsvError> {
        let workers = resolve_threads(None, block.len() / MIN_CHUNK_BYTES);
        let mut scans: Vec<Scan<'_>> = split_lines(block, workers)
            .into_iter()
            .map(|bytes| Scan { bytes, ..Scan::default() })
            .collect();
        let scan = |_: usize, chunk: &mut [Scan<'_>]| {
            chunk.iter_mut().for_each(Scan::run);
            Ok(())
        };
        unsupervised("csv scan", |sup| {
            run_blocks(&mut scans, 1, workers, sup, "csv.worker", || (), scan)
        });
        // Chunks after the first non-UTF-8 line cannot hold the first error.
        if let Some(first_invalid) = scans.iter().position(|s| s.invalid) {
            scans.truncate(first_invalid + 1);
        }

        let dim = self.dim;
        let base_row = self.flat.len() / dim;
        let rows: usize = scans.iter().map(|s| s.rows).sum();
        let fitting = rows.min(Dataset::MAX_POINTS - base_row);
        self.flat.resize((base_row + fitting) * dim, 0.0);
        let mut free = &mut self.flat[base_row * dim..];
        let (mut line, mut row) = (self.lines + 1, base_row);
        let mut parses: Vec<Parse<'_>> = Vec::with_capacity(scans.len());
        for scan in &scans {
            let (out, rest) = free.split_at_mut((scan.rows * dim).min(free.len()));
            free = rest;
            parses.push(Parse {
                text: scan.text,
                invalid: scan.invalid,
                first_line: line,
                first_row: row,
                out,
                error: None,
            });
            line += scan.lines;
            row += scan.rows;
        }
        let skip_columns = self.options.skip_columns;
        let parse = |_: usize, chunk: &mut [Parse<'_>]| {
            chunk.iter_mut().for_each(|p| p.error = p.rows(dim, skip_columns).err());
            Ok(())
        };
        let chunks = parses.len();
        unsupervised("csv parse", |sup| {
            run_blocks(&mut parses, 1, chunks, sup, "csv.worker", || (), parse)
        });
        if let Some(error) = parses.iter_mut().find_map(|p| p.error.take()) {
            return Err(error);
        }
        self.lines = line - 1;
        Ok(())
    }
}

/// Reads a numeric table from `reader`. Empty lines and lines starting
/// with `#` are skipped. The dimensionality is inferred from the first
/// data row.
///
/// The input is read in blocks of [`READ_BLOCK_BYTES`], each cut after
/// its last complete line. After the first data row, a block is split at
/// line boundaries into one chunk per worker (available parallelism, at
/// least [`MIN_CHUNK_BYTES`] a chunk); a scan pass counts each chunk's
/// rows, and a parse pass writes each chunk's rows into its own slice of
/// the dataset's buffer. Every value is parsed by `f64::from_str` in file
/// order, so the result is the same for every worker count, and so is the
/// error: the first failing line in file order wins.
///
/// # Errors
///
/// Returns an error on I/O failure (non-UTF-8 input is
/// [`io::ErrorKind::InvalidData`]), unparsable or non-finite fields,
/// ragged rows, more than [`Dataset::MAX_POINTS`] rows, or an empty
/// input. Line numbers are 1-based physical lines.
pub fn read_csv_from(reader: impl Read, options: &CsvOptions) -> Result<Dataset, CsvError> {
    let _span = db_obs::span!("spatial.read_csv");
    let mut blocks = Blocks { reader, buf: Vec::with_capacity(READ_BLOCK_BYTES) };
    let mut table = Table { options, lines: 0, dim: 0, flat: Vec::new() };
    loop {
        let (len, end) = blocks.fill();
        table.take(&blocks.buf[..len])?;
        blocks.consume(len);
        match end {
            None => {}
            Some(Ok(())) => break,
            Some(Err(e)) => return Err(CsvError::Io(e)),
        }
    }
    if table.dim == 0 {
        return Err(CsvError::Empty);
    }
    let ds = Dataset::from_flat_unchecked(table.dim, table.flat);
    db_obs::counter!("spatial.csv_rows").add(ds.len() as u64);
    Ok(ds)
}

/// Reads a numeric table from a file. See [`read_csv_from`].
///
/// # Errors
///
/// Returns an error when the file cannot be opened or parsed.
pub fn read_csv(path: impl AsRef<Path>, options: &CsvOptions) -> Result<Dataset, CsvError> {
    read_csv_from(File::open(path)?, options)
}

/// Writes a dataset as comma-separated values (full `f64` round-trip
/// precision).
///
/// # Errors
///
/// Returns an error on I/O failure.
pub fn write_csv_to(ds: &Dataset, writer: impl Write) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    for p in ds.iter() {
        for (j, x) in p.iter().enumerate() {
            if j > 0 {
                write!(w, ",")?;
            }
            // `{:?}` prints the shortest representation that round-trips.
            write!(w, "{x:?}")?;
        }
        writeln!(w)?;
    }
    w.flush()
}

/// Writes a dataset to a CSV file. See [`write_csv_to`].
///
/// # Errors
///
/// Returns an error on I/O failure.
pub fn write_csv(ds: &Dataset, path: impl AsRef<Path>) -> io::Result<()> {
    write_csv_to(ds, File::create(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_comma_separated() {
        let input = "1.0,2.0\n3.5,-4.25\n";
        let ds = read_csv_from(input.as_bytes(), &CsvOptions::default()).unwrap();
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.dim(), 2);
        assert_eq!(ds.point(1), &[3.5, -4.25]);
    }

    #[test]
    fn reads_whitespace_and_mixed_separators() {
        let input = "1 2\t3\n4;5, 6\n";
        let ds = read_csv_from(input.as_bytes(), &CsvOptions::default()).unwrap();
        assert_eq!(ds.dim(), 3);
        assert_eq!(ds.point(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn skips_headers_comments_and_blank_lines() {
        let input = "x,y\n# comment\n\n1,2\n3,4\n";
        let ds = read_csv_from(input.as_bytes(), &CsvOptions { skip_lines: 1, skip_columns: 0 })
            .unwrap();
        assert_eq!(ds.len(), 2);
    }

    #[test]
    fn skip_columns_drops_ids() {
        // Corel-style: id followed by coordinates.
        let input = "1001 0.1 0.2\n1002 0.3 0.4\n";
        let ds = read_csv_from(input.as_bytes(), &CsvOptions { skip_columns: 1, skip_lines: 0 })
            .unwrap();
        assert_eq!(ds.dim(), 2);
        assert_eq!(ds.point(0), &[0.1, 0.2]);
    }

    #[test]
    fn bad_number_is_reported_with_line() {
        let input = "1,2\n3,oops\n";
        match read_csv_from(input.as_bytes(), &CsvOptions::default()) {
            Err(CsvError::BadNumber { line, field }) => {
                assert_eq!(line, 2);
                assert_eq!(field, "oops");
            }
            other => panic!("expected BadNumber, got {other:?}"),
        }
    }

    #[test]
    fn ragged_row_is_reported() {
        let input = "1,2\n3\n";
        match read_csv_from(input.as_bytes(), &CsvOptions::default()) {
            Err(CsvError::RaggedRow { line, expected, got }) => {
                assert_eq!((line, expected, got), (2, 2, 1));
            }
            other => panic!("expected RaggedRow, got {other:?}"),
        }
    }

    #[test]
    fn non_finite_values_are_rejected() {
        let cases =
            [("1.0,NaN\n", 1), ("inf,2.0\n", 1), ("1.0,-inf\n", 1), ("1.0,2.0\nnan,4.0\n", 2)];
        for (bad, want_line) in cases {
            match read_csv_from(bad.as_bytes(), &CsvOptions::default()) {
                Err(CsvError::NonFinite { line, .. }) => assert_eq!(line, want_line),
                other => panic!("{bad:?} must be rejected, got {other:?}"),
            }
        }
    }

    #[test]
    fn empty_input_is_an_error() {
        assert!(matches!(
            read_csv_from("".as_bytes(), &CsvOptions::default()),
            Err(CsvError::Empty)
        ));
        assert!(matches!(
            read_csv_from("# only comments\n".as_bytes(), &CsvOptions::default()),
            Err(CsvError::Empty)
        ));
    }

    #[test]
    fn write_read_round_trip() {
        let ds = Dataset::from_rows(3, &[&[1.5, -2.25, 1e-30], &[0.1 + 0.2, 4.0, 5.0]]).unwrap();
        let mut buf = Vec::new();
        write_csv_to(&ds, &mut buf).unwrap();
        let back = read_csv_from(buf.as_slice(), &CsvOptions::default()).unwrap();
        assert_eq!(back, ds); // exact f64 round-trip via {:?}
    }

    #[test]
    fn file_round_trip() {
        let ds = Dataset::from_rows(2, &[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let path = std::env::temp_dir().join(format!("db-spatial-io-{}.csv", std::process::id()));
        write_csv(&ds, &path).unwrap();
        let back = read_csv(&path, &CsvOptions::default()).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back, ds);
    }

    #[test]
    fn error_display() {
        let e = CsvError::BadNumber { line: 3, field: "x".into() };
        assert!(e.to_string().contains("line 3"));
        let e = CsvError::RaggedRow { line: 2, expected: 3, got: 1 };
        assert!(e.to_string().contains("expected 3"));
        assert!(CsvError::Empty.to_string().contains("no data"));
    }
}
