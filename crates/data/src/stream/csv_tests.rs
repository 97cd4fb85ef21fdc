//! [`CsvStreamSource`]'s framing and read-ahead against a reference
//! reader built from `BufRead::lines` and `str::split`: the same rows, the
//! same errors at the same line numbers, and the same quarantine, however
//! the reader hands out its bytes and however far ahead the source reads.

use std::io::{self, BufRead, BufReader, Read};

use proptest::collection;
use proptest::prelude::*;

use super::*;

/// A reader that hands out `data` in reads of at most `step` bytes and
/// fails once, with [`io::ErrorKind::Other`], on reaching byte `fail_at`.
struct Trickle<'a> {
    data: &'a [u8],
    at: usize,
    step: usize,
    fail_at: Option<usize>,
}

impl<'a> Trickle<'a> {
    fn new(data: &'a [u8], step: usize, fail_at: Option<usize>) -> Self {
        Trickle {
            data,
            at: 0,
            step,
            fail_at,
        }
    }
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.fail_at == Some(self.at) {
            self.fail_at = None;
            return Err(io::Error::other("reader failed"));
        }
        let mut end = (self.at + self.step.min(buf.len())).min(self.data.len());
        if let Some(fail) = self.fail_at {
            end = end.min(fail);
        }
        let n = end - self.at;
        buf[..n].copy_from_slice(&self.data[self.at..end]);
        self.at = end;
        Ok(n)
    }
}

/// One block-sized pull: the block's rows flattened row-major with the
/// label last (as bits), or an error token: `P<line>` a row error, `U` a
/// line that is not UTF-8, `E` the reader failing.
type Pull = std::result::Result<Vec<u64>, String>;

/// The reference reader: `BufRead::lines`, a plain field split and the
/// row-error policy applied line by line.
struct Reference<R> {
    lines: io::Lines<BufReader<R>>,
    line: usize,
    d: usize,
    cap: Option<usize>,
    quarantine: Vec<usize>,
}

impl<R: Read> Reference<R> {
    fn new(reader: R, d: usize, cap: Option<usize>) -> Self {
        let mut lines = BufReader::new(reader).lines();
        lines.next();
        Reference {
            lines,
            line: 1,
            d,
            cap,
            quarantine: Vec::new(),
        }
    }

    fn next_block(&mut self, k: usize) -> Option<Pull> {
        let mut rows = Vec::new();
        let mut n = 0;
        while n < k {
            let line = match self.lines.next() {
                None => break,
                Some(Ok(line)) => line,
                Some(Err(e)) if e.kind() == io::ErrorKind::InvalidData => {
                    return Some(Err("U".to_string()))
                }
                Some(Err(_)) => return Some(Err("E".to_string())),
            };
            self.line += 1;
            if line.trim().is_empty() {
                continue;
            }
            let fields: Option<Vec<f64>> = line
                .split(',')
                .map(|f| f.trim().parse::<f64>().ok().filter(|v| v.is_finite()))
                .collect();
            match fields {
                Some(fields) if fields.len() == self.d + 1 => {
                    rows.extend(fields.iter().map(|v| v.to_bits()));
                    n += 1;
                }
                _ => match self.cap {
                    Some(cap) if self.quarantine.len() < cap => self.quarantine.push(self.line),
                    _ => return Some(Err(format!("P{}", self.line))),
                },
            }
        }
        (n > 0).then_some(Ok(rows))
    }
}

fn token(e: &DataError) -> String {
    match e {
        DataError::Parse { line, .. } => format!("P{line}"),
        DataError::Io(e) if e.kind() == io::ErrorKind::InvalidData => "U".to_string(),
        DataError::Io(_) => "E".to_string(),
        other => panic!("unexpected error kind: {other}"),
    }
}

fn flatten(xs: &[f64], ys: &[f64], d: usize) -> Vec<u64> {
    xs.chunks_exact(d)
        .zip(ys)
        .flat_map(|(x, &y)| {
            x.iter()
                .chain([&y])
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        })
        .collect()
}

/// A CSV with `d` feature columns whose data lines are `lines`, each
/// followed by its ending.
fn csv(d: usize, lines: &[(Vec<u8>, &[u8])]) -> Vec<u8> {
    let mut csv: Vec<u8> = (0..d).flat_map(|j| format!("f{j},").into_bytes()).collect();
    csv.extend_from_slice(b"label\n");
    for (line, ending) in lines {
        csv.extend_from_slice(line);
        csv.extend_from_slice(ending);
    }
    csv
}

/// Checks a [`CsvStreamSource`] over `Trickle::new(csv, step, fail_at)`
/// against the reference over the same reader, with `cap` the
/// `SkipUpTo` cap (`None` is Strict): through `next_block` at a cycle of
/// `sizes`, then through a `for_each_block` at `sizes[0]` re-entered after
/// each error. Returns the pulls of the first pass.
fn check(
    csv: &[u8],
    d: usize,
    cap: Option<usize>,
    step: usize,
    fail_at: Option<usize>,
    sizes: &[usize],
) -> Vec<Pull> {
    let open = || {
        CsvStreamSource::from_reader(Trickle::new(csv, step, fail_at))
            .unwrap()
            .with_row_error_policy(cap.map_or(RowErrorPolicy::Strict, RowErrorPolicy::SkipUpTo))
    };
    let max_calls = 2 * csv.iter().filter(|&&b| b == b'\n').count() + 4;

    let mut reference = Reference::new(Trickle::new(csv, step, fail_at), d, cap);
    let mut src = open();
    let mut pulls = Vec::new();
    for call in 0..max_calls {
        let k = sizes[call % sizes.len()];
        let want = reference.next_block(k);
        let got = match src.next_block(k) {
            Ok(block) => block.map(|b| Ok(flatten(b.xs(), b.ys(), d))),
            Err(e) => Some(Err(token(&e))),
        };
        assert_eq!(got, want, "call {call} at {k} rows, reads of {step} bytes");
        match want {
            Some(pull) => pulls.push(pull),
            None => break,
        }
    }
    let quarantined: Vec<usize> = src.quarantine().iter().map(|q| q.line).collect();
    assert_eq!(quarantined, reference.quarantine);

    let k = sizes[0];
    let mut reference = Reference::new(Trickle::new(csv, step, fail_at), d, cap);
    let want: Vec<Pull> = std::iter::from_fn(|| reference.next_block(k))
        .take(max_calls)
        .collect();
    let mut src = open();
    let mut got: Vec<Pull> = Vec::new();
    for _ in 0..max_calls {
        let drained = src.for_each_block(k, &mut |b| {
            got.push(Ok(flatten(b.xs(), b.ys(), d)));
            Ok(())
        });
        match drained {
            Ok(()) => break,
            Err(e) => got.push(Err(token(&e))),
        }
    }
    assert_eq!(got, want, "visitor at {k} rows, reads of {step} bytes");
    let quarantined: Vec<usize> = src.quarantine().iter().map(|q| q.line).collect();
    assert_eq!(quarantined, reference.quarantine);
    pulls
}

/// A good data line: `d + 1` fields, each led by `pad`.
fn row(d: usize, seed: u32, pad: &str) -> Vec<u8> {
    (0..=d)
        .map(|j| {
            format!(
                "{pad}{}",
                f64::from((seed + 7 * j as u32) % 40) * 0.25 - 5.0
            )
        })
        .collect::<Vec<_>>()
        .join(",")
        .into_bytes()
}

/// One generated data line (without its ending). Kinds from 9 on are
/// good rows; below: blank, whitespace, Unicode whitespace, a row padded
/// with multi-byte whitespace, a row with an extra text field, a line
/// that is not UTF-8, a row led by a multi-byte text field, a row longer
/// than the reader buffer, and a row with a lone `\r` inside a field.
fn framing_line(kind: u8, d: usize, seed: u32) -> Vec<u8> {
    match kind {
        0 => Vec::new(),
        1 => b" \t ".to_vec(),
        2 => "\u{3000}\u{a0} ".as_bytes().to_vec(),
        3 => row(d, seed, "\u{2003}"),
        4 => [row(d, seed, ""), b",x".to_vec()].concat(),
        5 => b"1,\xff".to_vec(),
        6 => [b"\xc3\xa9,".to_vec(), row(d - 1, seed, "")].concat(),
        7 => row(d, seed, &" ".repeat(READ_BUF_BYTES + 3)),
        8 => [b"1\r2,".to_vec(), row(d - 1, seed, "")].concat(),
        _ => row(d, seed, ""),
    }
}

/// The line endings a data line may carry: LF, CRLF, or a lone CR, which
/// ends no line.
const ENDINGS: [&[u8]; 3] = [b"\n", b"\r\n", b"\r"];

/// Read sizes the framing is checked at: single bytes (every multi-byte
/// character split across reads), an odd small size, and one byte either
/// side of the reader buffer.
const STEPS: [usize; 5] = [1, 7, READ_BUF_BYTES - 1, READ_BUF_BYTES, READ_BUF_BYTES + 1];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Short files of every line kind and ending, read in every step
    /// size, sometimes failing at an arbitrary byte past the header.
    #[test]
    fn framing_matches_a_lines_reader_at_every_read_size(
        d in 2usize..4,
        lines in collection::vec((0u8..14, 0u32..1_000, 0usize..3), 0..40),
        final_newline in proptest::bool::ANY,
        (fails, fail) in (proptest::bool::ANY, 0.0..=1.0f64),
        policy in 0usize..5,
        sizes in collection::vec(1usize..6, 1..3),
    ) {
        let last = lines.len().saturating_sub(1);
        let lines: Vec<(Vec<u8>, &[u8])> = lines
            .iter()
            .enumerate()
            .map(|(i, &(kind, seed, ending))| {
                let ending = if i == last && !final_newline { b"" } else { ENDINGS[ending] };
                (framing_line(kind, d, seed), ending)
            })
            .collect();
        let csv = csv(d, &lines);
        let header = csv.iter().position(|&b| b == b'\n').unwrap() + 1;
        let fail_at = fails.then(|| header + ((csv.len() - header) as f64 * fail) as usize);
        // Policy 0 is Strict, `n` is `SkipUpTo(n − 1)`.
        let cap = policy.checked_sub(1);
        for step in STEPS {
            check(&csv, d, cap, step, fail_at, &sizes);
        }
    }
}

/// A long file of good rows over `d = 2`, with the data lines at the
/// given file line numbers (the header is line 1) made bad.
fn long_csv(lines: usize, bad: &[usize]) -> Vec<u8> {
    let lines: Vec<(Vec<u8>, &[u8])> = (2..lines + 2)
        .map(|no| {
            let kind = if bad.contains(&no) { 4 } else { 9 };
            (framing_line(kind, 2, no as u32), &b"\n"[..])
        })
        .collect();
    csv(2, &lines)
}

/// The byte where file line `no` (1-based) starts.
fn line_start(csv: &[u8], no: usize) -> usize {
    let mut newlines = csv.iter().enumerate().filter(|&(_, &b)| b == b'\n');
    newlines.nth(no - 2).map_or(0, |(i, _)| i + 1)
}

fn rows_of(pull: &Pull) -> usize {
    pull.as_ref().map_or(0, |bits| bits.len() / 3)
}

#[test]
fn strict_aborts_inside_the_read_ahead_window_then_resumes() {
    // Block 1 holds lines 2–4097; line 6,000 is framed ahead while it
    // parses, and line 3,000 aborts block 1 first.
    let csv = long_csv(12_000, &[3_000, 6_000]);
    let pulls = check(&csv, 2, None, READ_BUF_BYTES, None, &[4_096]);
    let errors: Vec<&str> = pulls
        .iter()
        .filter_map(|p| p.as_ref().err())
        .map(String::as_str)
        .collect();
    assert_eq!(errors, ["P3000", "P6000"]);
    // An abort drops its block's earlier rows: only lines 6,001–12,001
    // come back.
    assert_eq!(pulls.iter().map(rows_of).sum::<usize>(), 6_001);
}

#[test]
fn skip_up_to_quarantines_rows_framed_ahead_and_aborts_where_the_cap_runs_out() {
    let bad = [500, 4_200, 4_300, 5_000, 7_000, 9_100];
    let csv = long_csv(10_000, &bad);
    for cap in [2, 4, 6] {
        let pulls = check(&csv, 2, Some(cap), READ_BUF_BYTES, None, &[2_048, 3_000]);
        let first_error = pulls.iter().find_map(|p| p.as_ref().err());
        match bad.get(cap) {
            Some(&line) => assert_eq!(first_error, Some(&format!("P{line}"))),
            None => assert_eq!(first_error, None),
        }
    }
}

#[test]
fn a_reader_error_met_reading_ahead_comes_after_the_rows_before_it() {
    // Blocks of 1,000 rows: the error sits where row 4,001 starts, so
    // the source meets it while reading ahead during an earlier block.
    let csv = long_csv(8_000, &[]);
    let fail_at = line_start(&csv, 4_002);
    for step in [7, READ_BUF_BYTES] {
        let pulls = check(&csv, 2, None, step, Some(fail_at), &[1_000]);
        let rows: Vec<usize> = pulls.iter().map(rows_of).collect();
        assert_eq!(&rows[..4], [1_000; 4], "reads of {step} bytes");
        assert_eq!(pulls[4], Err("E".to_string()), "reads of {step} bytes");
        assert_eq!(
            rows[5..].iter().sum::<usize>(),
            4_000,
            "reads of {step} bytes"
        );
    }
}

#[test]
fn mixed_pulls_at_any_size_match_a_single_drain() {
    let csv = long_csv(60_000, &[]);
    let open = || CsvStreamSource::from_reader(&csv[..]).unwrap();
    let mut whole = Vec::new();
    open()
        .for_each_block(8_192, &mut |b| {
            whole.extend(flatten(b.xs(), b.ys(), 2));
            Ok(())
        })
        .unwrap();
    assert_eq!(whole.len(), 60_000 * 3);
    for (offset, visit_last) in [(0, true), (1, false), (2, true), (3, false)] {
        let sizes = [1, 4_095, 4_097, 20_000];
        let mut src = open();
        let mut got = Vec::new();
        for call in 0..3 {
            let k = sizes[(offset + call) % sizes.len()];
            let block = src.next_block(k).unwrap().unwrap();
            assert_eq!(block.rows(), k);
            got.extend(flatten(block.xs(), block.ys(), 2));
            let lent = src
                .lend_block(sizes[(offset + call + 1) % sizes.len()], &mut |b| {
                    got.extend(flatten(b.xs(), b.ys(), 2));
                    Ok(())
                })
                .unwrap();
            assert!(lent);
        }
        let k = sizes[(offset + 3) % sizes.len()];
        if visit_last {
            src.for_each_block(k, &mut |b| {
                got.extend(flatten(b.xs(), b.ys(), 2));
                Ok(())
            })
            .unwrap();
        } else {
            while let Some(b) = src.next_block(k).unwrap() {
                got.extend(flatten(b.xs(), b.ys(), 2));
            }
        }
        assert!(
            got == whole,
            "pull order starting at size {}",
            sizes[offset]
        );
    }
}

#[cfg(feature = "parallel")]
#[test]
fn a_helper_parses_only_beside_a_second_worker() {
    // `available_parallelism` follows the affinity mask, so under
    // `taskset -c 0` no window is parsed beside a helper.
    assert_eq!(reads_ahead(WINDOW_LINES), rayon::current_num_threads() > 1);
    assert!(!reads_ahead(MIN_RANGE_LINES - 1));
}

#[test]
fn the_byte_scan_finds_what_position_finds() {
    let hay: Vec<u8> = (0..200u32).map(|i| (i * 37 % 251) as u8).collect();
    for needle in [b'\n', b',', 0, 0x80, 0xff, 1] {
        for from in 0..hay.len() {
            let want = hay[from..].iter().position(|&b| b == needle);
            assert_eq!(
                find_byte(needle, &hay[from..]),
                want,
                "{needle} from {from}"
            );
        }
    }
    for line in ["", ",", "a,", ",b", "1,,2", "αβ,γ,,δ"] {
        assert!(fields(line).eq(line.split(',')), "{line:?}");
    }
}

#[test]
fn a_crlf_split_across_reads_is_not_part_of_the_last_field() {
    // The `\r` of line 2 is the last byte of the first reader buffer, its
    // `\n` the first of the next.
    let mut csv = b"a,label\n".to_vec();
    let pad = READ_BUF_BYTES - 1 - csv.len() - b"1,x".len();
    csv.extend(" ".repeat(pad).bytes());
    csv.extend_from_slice(b"1,x\r\n3,4\r\n");
    assert_eq!(csv[READ_BUF_BYTES - 1], b'\r');
    for step in [1, 7, READ_BUF_BYTES] {
        let mut src = CsvStreamSource::from_reader(Trickle::new(&csv, step, None)).unwrap();
        match src.next_block(4) {
            Err(DataError::Parse { line: 2, detail }) => {
                assert_eq!(detail, "`x` is not a number", "reads of {step} bytes");
            }
            other => panic!("reads of {step} bytes: {other:?}"),
        }
        let block = src.next_block(4).unwrap().unwrap();
        assert_eq!((block.xs(), block.ys()), (&[3.0][..], &[4.0][..]));
    }
}

#[test]
fn blank_lines_take_no_room_in_the_windows() {
    // 4 MiB of whitespace lines, then one row.
    let mut csv = b"a,label\n".to_vec();
    csv.extend(b" \t \r\n".repeat(800_000));
    csv.extend_from_slice(b"1,2\n");
    let mut src = CsvStreamSource::from_reader(&csv[..]).unwrap();
    let block = src.next_block(1).unwrap().unwrap();
    assert_eq!((block.xs(), block.ys()), (&[1.0][..], &[2.0][..]));
    let held = src.window.bytes.capacity() + src.ahead.bytes.capacity();
    assert!(held <= 2 * READ_BUF_BYTES, "windows hold {held} bytes");
    assert!(src.next_block(1).unwrap().is_none());
}
