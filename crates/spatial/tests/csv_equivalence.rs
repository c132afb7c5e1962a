//! Differential test of the chunked CSV reader (`read_csv_from`) against
//! the line-by-line reader it replaced, kept below as the reference: equal
//! `Dataset` bits on generated tables, and equal errors (variant, line,
//! field) on mutated ones, with the mutations placed in the first, a
//! middle and the last chunk and on both sides of every chunk and block
//! cut.
//!
//! The reader's worker count follows the available parallelism, so the
//! same cases run the inline path on one CPU (`taskset -c 0`) and split
//! blocks into chunks on two or more.

use std::io::{self, BufRead, BufReader, Read};
use std::sync::OnceLock;

use db_datagen::{differential_corpora, ds1, gaussian_family, Ds1Params, GaussianFamilyParams};
use db_spatial::io::{MIN_CHUNK_BYTES, READ_BLOCK_BYTES};
use db_spatial::{read_csv_from, write_csv_to, CsvError, CsvOptions, Dataset};
use db_supervise::resolve_threads;

// ------------------------------------------------------------ reference

fn fields(line: &str) -> impl Iterator<Item = &str> {
    line.split([',', ';', '\t', ' ']).filter(|f| !f.trim().is_empty()).map(str::trim)
}

/// The line-by-line reader: one `String` per line from
/// `BufReader::lines`, one `Dataset::push` per row.
fn reference(reader: impl Read, options: &CsvOptions) -> Result<Dataset, CsvError> {
    let reader = BufReader::new(reader);
    let mut ds: Option<Dataset> = None;
    let mut row: Vec<f64> = Vec::new();
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        if idx < options.skip_lines {
            continue;
        }
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        row.clear();
        for field in fields(trimmed).skip(options.skip_columns) {
            let v: f64 = field
                .parse()
                .map_err(|_| CsvError::BadNumber { line: idx + 1, field: field.to_string() })?;
            if !v.is_finite() {
                return Err(CsvError::NonFinite { line: idx + 1, field: field.to_string() });
            }
            row.push(v);
        }
        match &mut ds {
            None => {
                if row.is_empty() {
                    return Err(CsvError::BadNumber {
                        line: idx + 1,
                        field: String::from("<no numeric columns>"),
                    });
                }
                let mut d = Dataset::new(row.len())?;
                d.push(&row)?;
                ds = Some(d);
            }
            Some(d) => {
                if row.len() != d.dim() {
                    return Err(CsvError::RaggedRow {
                        line: idx + 1,
                        expected: d.dim(),
                        got: row.len(),
                    });
                }
                d.push(&row)?;
            }
        }
    }
    ds.ok_or(CsvError::Empty)
}

// ----------------------------------------------------------- comparison

/// What a read returned, comparable across the two readers: the table's
/// bits, or the error's variant and fields (an I/O error by kind and
/// message).
#[derive(Debug, PartialEq)]
enum Outcome {
    Table { dim: usize, bits: Vec<u64> },
    Failed(String),
}

fn outcome(read: Result<Dataset, CsvError>) -> Outcome {
    match read {
        Ok(ds) => Outcome::Table {
            dim: ds.dim(),
            bits: ds.as_flat().iter().map(|x| x.to_bits()).collect(),
        },
        Err(CsvError::Io(e)) => Outcome::Failed(format!("Io({:?}, {e})", e.kind())),
        Err(e) => Outcome::Failed(format!("{e:?}")),
    }
}

/// Reads `input` with both readers, asserts they agree, and returns the
/// outcome.
fn check(input: &[u8], options: &CsvOptions, case: &str) -> Outcome {
    let want = outcome(reference(input, options));
    let got = outcome(read_csv_from(input, options));
    if got != want {
        let show = |o: &Outcome| match o {
            Outcome::Table { dim, bits } => format!("table dim {dim}, {} values", bits.len()),
            Outcome::Failed(e) => e.clone(),
        };
        panic!("{case}: chunked reader returned {}, reference {}", show(&got), show(&want));
    }
    got
}

fn failure(input: &[u8], options: &CsvOptions, case: &str) -> String {
    match check(input, options, case) {
        Outcome::Failed(e) => e,
        Outcome::Table { .. } => panic!("{case}: expected an error"),
    }
}

fn csv(ds: &Dataset) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_csv_to(ds, &mut bytes).unwrap();
    bytes
}

fn ds1_csv(n: usize) -> Vec<u8> {
    csv(&ds1(&Ds1Params { n, noise_fraction: 0.05 }, 7).data)
}

/// DS1 rows filling two chunks of one block on two or more CPUs.
const ONE_BLOCK_ROWS: usize = 64_000;
/// DS1 rows filling two read blocks.
const TWO_BLOCK_ROWS: usize = 260_000;

fn one_block() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| ds1_csv(ONE_BLOCK_ROWS))
}

fn two_blocks() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| ds1_csv(TWO_BLOCK_ROWS))
}

// --------------------------------------------------------------- layout

/// Where the reader cuts `bytes`: the end of every read block, and every
/// chunk cut inside a block. `first_row_end` is the byte after the first
/// data row, where chunking starts.
struct Layout {
    blocks: Vec<usize>,
    chunks: Vec<usize>,
}

fn next_newline(bytes: &[u8], from: usize) -> usize {
    from + bytes[from..].iter().position(|&b| b == b'\n').unwrap()
}

fn layout(bytes: &[u8], first_row_end: usize) -> Layout {
    let (mut blocks, mut chunks) = (Vec::new(), Vec::new());
    let mut start = 0;
    while start < bytes.len() {
        let end = if start + READ_BLOCK_BYTES > bytes.len() {
            bytes.len()
        } else {
            let window = &bytes[start..start + READ_BLOCK_BYTES];
            start + window.iter().rposition(|&b| b == b'\n').unwrap() + 1
        };
        let rest = start.max(first_row_end);
        if rest < end {
            let len = end - rest;
            let workers = resolve_threads(None, len / MIN_CHUNK_BYTES);
            for i in 1..workers {
                chunks.push(next_newline(bytes, rest + len * i / workers) + 1);
            }
        }
        blocks.push(end);
        start = end;
    }
    Layout { blocks, chunks }
}

/// Byte range of 1-based line `line` (without its newline).
fn line_range(bytes: &[u8], line: usize) -> std::ops::Range<usize> {
    let mut start = 0;
    for _ in 1..line {
        start = next_newline(bytes, start) + 1;
    }
    let end = bytes[start..].iter().position(|&b| b == b'\n').map_or(bytes.len(), |p| start + p);
    start..end
}

/// 1-based line holding byte `pos`.
fn line_at(bytes: &[u8], pos: usize) -> usize {
    1 + bytes[..pos].iter().filter(|&&b| b == b'\n').count()
}

/// The lines on both sides of every cut in `cuts`.
fn around(bytes: &[u8], cuts: &[usize]) -> Vec<usize> {
    cuts.iter().flat_map(|&c| [line_at(bytes, c - 1), line_at(bytes, c)]).collect()
}

// ------------------------------------------------------------ mutations

/// A length-preserving corruption of one line, so every cut stays where
/// the layout put it.
#[derive(Clone, Copy, Debug)]
enum Mutation {
    /// First byte becomes `x`: a field that does not parse.
    BadNumber,
    /// First field becomes `NaN` padded with spaces.
    NaN,
    /// First field becomes `inf` padded with spaces.
    Inf,
    /// Everything after the first comma becomes spaces: a short row.
    Short,
    /// The last `.` becomes `,`: one field more.
    Long,
    /// First byte becomes 0xFF: not UTF-8.
    NotUtf8,
}

const MUTATIONS: [Mutation; 6] = [
    Mutation::BadNumber,
    Mutation::NaN,
    Mutation::Inf,
    Mutation::Short,
    Mutation::Long,
    Mutation::NotUtf8,
];

fn mutate(bytes: &mut [u8], line: usize, m: Mutation) {
    let r = line_range(bytes, line);
    let text = &mut bytes[r];
    let comma = text.iter().position(|&b| b == b',').unwrap();
    match m {
        Mutation::BadNumber => text[0] = b'x',
        Mutation::NaN | Mutation::Inf => {
            let word: &[u8] = if matches!(m, Mutation::NaN) { b"NaN" } else { b"inf" };
            assert!(comma >= word.len(), "field too short to hold {word:?}");
            text[..word.len()].copy_from_slice(word);
            text[word.len()..comma].fill(b' ');
        }
        Mutation::Short => text[comma + 1..].fill(b' '),
        Mutation::Long => {
            let dot = text.iter().rposition(|&b| b == b'.').unwrap();
            assert!(dot > comma, "the last field has no '.' to split");
            text[dot] = b',';
        }
        Mutation::NotUtf8 => text[0] = 0xFF,
    }
}

/// The error line a failure string names, if any.
fn error_line(failure: &str) -> Option<usize> {
    let at = failure.find("line: ")? + "line: ".len();
    failure[at..].split(|c: char| !c.is_ascii_digit()).next()?.parse().ok()
}

/// Every mutation in `mutations` on every line in `lines`: both readers must agree, and
/// every mutation but non-UTF-8 must fail on that very line.
fn mutations_agree(base: &[u8], lines: &[usize], mutations: &[Mutation], case: &str) {
    for &line in lines {
        for &m in mutations {
            let mut bytes = base.to_vec();
            mutate(&mut bytes, line, m);
            let e =
                failure(&bytes, &CsvOptions::default(), &format!("{case}: {m:?} on line {line}"));
            match m {
                Mutation::NotUtf8 => assert!(e.starts_with("Io(InvalidData"), "{e}"),
                // A first row of another width sets the width: the second
                // row is the ragged one.
                Mutation::Short | Mutation::Long if line == 1 => {
                    assert_eq!(error_line(&e), Some(2), "{case}: {m:?}: {e}");
                }
                _ => assert_eq!(error_line(&e), Some(line), "{case}: {m:?}: {e}"),
            }
        }
    }
}

// ---------------------------------------------------------------- cases

#[test]
fn differential_corpora_read_bit_identically() {
    for seed in [1, 42] {
        for corpus in differential_corpora(seed) {
            let bytes = csv(&corpus.labeled.data);
            let read = check(&bytes, &CsvOptions::default(), corpus.name);
            assert!(matches!(read, Outcome::Table { .. }), "{}", corpus.name);
        }
    }
}

#[test]
fn ds1_and_16d_gaussians_read_bit_identically_across_blocks() {
    let gauss = gaussian_family(
        &GaussianFamilyParams { n: 32_000, dim: 16, clusters: 15, ..Default::default() },
        3,
    );
    for (name, bytes, dim) in [("ds1", two_blocks().to_vec(), 2), ("gauss16", csv(&gauss.data), 16)]
    {
        assert!(layout(&bytes, line_range(&bytes, 1).end + 1).blocks.len() >= 2, "{name}");
        let Outcome::Table { bits, .. } = check(&bytes, &CsvOptions::default(), name) else {
            panic!("{name}: expected a table");
        };
        assert_eq!(bits.len(), bytes.iter().filter(|&&b| b == b'\n').count() * dim, "{name}");
    }
}

#[test]
fn sizes_cover_one_chunk_several_chunks_and_several_blocks() {
    let parallel = resolve_threads(None, usize::MAX) >= 2;
    let small = ds1_csv(2_000);
    // The chunk counts are the fewest two CPUs give: more CPUs split the
    // 8 MiB first block of `two_blocks` into more chunks (up to 7).
    for (bytes, want_chunks, want_blocks) in
        [(small.as_slice(), 1, 1), (one_block(), 2, 1), (two_blocks(), 3, 2)]
    {
        let n = bytes.len();
        let l = layout(bytes, line_range(bytes, 1).end + 1);
        assert_eq!(l.blocks.len(), want_blocks, "{n} bytes");
        // Each block is one chunk more than its chunk cuts.
        let chunks = l.blocks.len() + l.chunks.len();
        if parallel {
            assert!(chunks >= want_chunks, "{n} bytes: {chunks} chunks");
        } else {
            assert_eq!(chunks, want_blocks, "{n} bytes");
        }
        check(bytes, &CsvOptions::default(), &format!("{n} bytes"));
    }
}

#[test]
fn errors_agree_in_every_chunk_and_at_every_chunk_cut() {
    let bytes = one_block();
    let l = layout(bytes, line_range(bytes, 1).end + 1);
    let last = line_at(bytes, bytes.len() - 1);
    let mut lines = vec![1, 2, 3, last / 3, last - 1, last];
    lines.extend(around(bytes, &l.chunks));
    mutations_agree(bytes, &lines, &MUTATIONS, "one block");
}

#[test]
fn errors_agree_at_block_cuts() {
    // Chunk cuts and the kinds of error are covered above; here the lines
    // around the block cut and the file's last line, one error of each
    // kind of check (field, width, encoding).
    let bytes = two_blocks();
    let l = layout(bytes, line_range(bytes, 1).end + 1);
    let mut lines = around(bytes, &l.blocks[..1]);
    lines.push(line_at(bytes, bytes.len() - 1));
    let kinds = [Mutation::BadNumber, Mutation::Short, Mutation::NotUtf8];
    mutations_agree(bytes, &lines, &kinds, "two blocks");
}

#[test]
fn the_earliest_of_two_errors_wins() {
    let bytes = two_blocks();
    let l = layout(bytes, line_range(bytes, 1).end + 1);
    let last = line_at(bytes, bytes.len() - 1);
    // One line early in the file, one late in the first block (its last
    // chunk when it has several), one past the block cut.
    let early = 10;
    let late = line_at(bytes, l.blocks[0] - 1) - 5;
    let next_block = (line_at(bytes, l.blocks[0]) + last) / 2;
    for (a, b) in [(early, late), (late, next_block)] {
        for (first, second) in [
            (Mutation::Short, Mutation::BadNumber),
            (Mutation::BadNumber, Mutation::NaN),
            (Mutation::Long, Mutation::Short),
        ] {
            let mut bytes = bytes.to_vec();
            mutate(&mut bytes, a, first);
            mutate(&mut bytes, b, second);
            let case = format!("{first:?} on {a}, {second:?} on {b}");
            assert_eq!(error_line(&failure(&bytes, &CsvOptions::default(), &case)), Some(a));
        }
    }
}

#[test]
fn invalid_utf8_counts_only_when_no_earlier_line_failed() {
    let bytes = two_blocks();
    let l = layout(bytes, line_range(bytes, 1).end + 1);
    let mid_block = line_at(bytes, l.blocks[0] / 2);
    let next_block = line_at(bytes, l.blocks[0]) + 3;
    for (a, b) in [(20, 40), (20, mid_block), (mid_block, next_block)] {
        // Non-UTF-8 first: the I/O error wins over the later bad number.
        let mut first = bytes.to_vec();
        mutate(&mut first, a, Mutation::NotUtf8);
        mutate(&mut first, b, Mutation::BadNumber);
        let e = failure(&first, &CsvOptions::default(), &format!("bytes {a}, number {b}"));
        assert!(e.starts_with("Io(InvalidData"), "{e}");
        // Bad number first: it wins over the later non-UTF-8 line.
        let mut second = bytes.to_vec();
        mutate(&mut second, a, Mutation::BadNumber);
        mutate(&mut second, b, Mutation::NotUtf8);
        let e = failure(&second, &CsvOptions::default(), &format!("number {a}, bytes {b}"));
        assert_eq!(error_line(&e), Some(a), "{e}");
    }
}

#[test]
fn formatting_variants_agree() {
    let opts = CsvOptions::default();
    let base = one_block().to_vec();
    let text = String::from_utf8(base.clone()).unwrap();

    // CRLF line ends.
    check(text.replace('\n', "\r\n").as_bytes(), &opts, "crlf");
    // No final newline.
    check(&base[..base.len() - 1], &opts, "no final newline");
    // Comments, blank and whitespace-only lines between the rows, and
    // mixed separators.
    let mut mixed = String::new();
    for (i, line) in text.lines().enumerate() {
        match i % 7 {
            0 => mixed.push_str("# comment\n\n   \t\n"),
            3 => mixed.push_str(&line.replace(',', " ; ")),
            5 => mixed.push_str(&format!("  {}\t", line.replace(',', "\t"))),
            _ => mixed.push_str(line),
        }
        mixed.push('\n');
    }
    check(mixed.as_bytes(), &opts, "comments, blanks and separators");
    // Unicode whitespace around fields and lines.
    check("\u{a0}1.5,\u{2003}2\n3,4\u{3000}\n".as_bytes(), &opts, "unicode whitespace");

    // A header running past the first chunk cut.
    let header_lines = line_at(&base, base.len() * 2 / 3);
    let headed = CsvOptions { skip_lines: header_lines, skip_columns: 0 };
    let mut with_header = base.clone();
    mutate(&mut with_header, header_lines / 2, Mutation::BadNumber);
    check(&with_header, &headed, "long header");
    // Non-UTF-8 inside the skipped header is still an I/O error.
    mutate(&mut with_header, header_lines - 1, Mutation::NotUtf8);
    let e = failure(&with_header, &headed, "non-UTF-8 header");
    assert!(e.starts_with("Io(InvalidData"), "{e}");

    // Leading id columns.
    let mut ids = String::new();
    for (i, line) in text.lines().enumerate() {
        ids.push_str(&format!("{i} label{} {line}\n", i % 3));
    }
    check(ids.as_bytes(), &CsvOptions { skip_columns: 2, skip_lines: 0 }, "skip_columns");
    // Skipping every column: the first row has none left.
    let e = failure(ids.as_bytes(), &CsvOptions { skip_columns: 9, skip_lines: 0 }, "no columns");
    assert!(e.contains("<no numeric columns>"), "{e}");

    // Empty and comment-only input.
    for input in ["", "\n\n", "# only\n# comments", "   \n# x\n\r\n"] {
        assert_eq!(failure(input.as_bytes(), &opts, input), "Empty");
    }
    // Small tables through the inline path, including a first row that
    // is not the first line.
    for input in ["1\n2", "# h\n\n1,2\n3,4\n", "1,2\n3\n", "x,y\n1,2\n"] {
        check(input.as_bytes(), &opts, input);
    }
}

/// A reader that fails after `left` bytes.
struct FailingReader<'a> {
    bytes: &'a [u8],
    left: usize,
}

impl Read for FailingReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.left == 0 {
            return Err(io::Error::other("disk gone"));
        }
        let n = buf.len().min(self.left).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        (self.bytes, self.left) = (&self.bytes[n..], self.left - n);
        Ok(n)
    }
}

#[test]
fn a_failing_reader_fails_after_the_lines_before_it() {
    let base = two_blocks();
    let l = layout(base, line_range(base, 1).end + 1);
    let mut bad = base.to_vec();
    let bad_line = line_at(base, l.blocks[0] / 2);
    mutate(&mut bad, bad_line, Mutation::BadNumber);
    for stop in [0, 100, l.blocks[0] / 3, l.blocks[0] + 1_000] {
        for bytes in [base, &bad] {
            let want =
                outcome(reference(FailingReader { bytes, left: stop }, &CsvOptions::default()));
            let got =
                outcome(read_csv_from(FailingReader { bytes, left: stop }, &CsvOptions::default()));
            assert!(got == want, "failure after {stop} bytes: {got:?} vs {want:?}");
            assert!(matches!(got, Outcome::Failed(_)));
        }
    }
}
