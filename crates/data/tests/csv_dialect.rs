//! Pins of the CSV dialect `CsvStreamSource` reads: line endings, blank
//! lines, a missing final newline, invalid UTF-8, error order, resumption
//! after an error and the `SkipUpTo` quarantine list.
//!
//! Every case drains a fresh source with `next_block(1)`, `next_block(3)`
//! and `next_block(4096)`, going on after each error, and records one
//! token per call: the row count of a yielded block, `P<line>` for a parse
//! error at that line, or `U` for a line that is not valid UTF-8. The
//! `for_each_block` drain, re-entered after each error, must record the
//! same tokens as `next_block` at the same block size.

use std::io::ErrorKind;

use fm_data::stream::{CsvStreamSource, RowErrorPolicy, RowSource};
use fm_data::DataError;

/// Block sizes every case is drained at.
const SIZES: [usize; 3] = [1, 3, 4096];

fn token(e: &DataError) -> String {
    match e {
        DataError::Parse { line, .. } => format!("P{line}"),
        DataError::Io(io) if io.kind() == ErrorKind::InvalidData => "U".to_string(),
        other => panic!("unexpected error kind: {other}"),
    }
}

fn open(csv: &[u8], policy: RowErrorPolicy) -> CsvStreamSource<&[u8]> {
    CsvStreamSource::from_reader(csv)
        .unwrap()
        .with_row_error_policy(policy)
}

/// What one drain saw: its tokens, the labels of every yielded row, and
/// the quarantined line numbers.
#[derive(Debug, PartialEq)]
struct Drain {
    tokens: String,
    ys: Vec<f64>,
    quarantine: Vec<usize>,
}

fn pull(csv: &[u8], policy: RowErrorPolicy, k: usize) -> Drain {
    let mut src = open(csv, policy);
    let mut tokens = Vec::new();
    let mut ys = Vec::new();
    for _ in 0..1_000 {
        match src.next_block(k) {
            Ok(Some(b)) => {
                assert!(b.rows() <= k);
                tokens.push(b.rows().to_string());
                ys.extend_from_slice(b.ys());
            }
            Ok(None) => break,
            Err(e) => tokens.push(token(&e)),
        }
    }
    assert!(
        src.next_block(k).unwrap().is_none(),
        "exhausted stays exhausted"
    );
    Drain {
        tokens: tokens.join(" "),
        ys,
        quarantine: src.quarantine().iter().map(|q| q.line).collect(),
    }
}

fn visit(csv: &[u8], policy: RowErrorPolicy, k: usize) -> Drain {
    let mut src = open(csv, policy);
    let mut tokens = Vec::new();
    let mut ys = Vec::new();
    for _ in 0..1_000 {
        let done = src.for_each_block(k, &mut |b| {
            assert!(b.rows() <= k);
            tokens.push(b.rows().to_string());
            ys.extend_from_slice(b.ys());
            Ok(())
        });
        match done {
            Ok(()) => break,
            Err(e) => tokens.push(token(&e)),
        }
    }
    Drain {
        tokens: tokens.join(" "),
        ys,
        quarantine: src.quarantine().iter().map(|q| q.line).collect(),
    }
}

/// Checks one file under one policy: `tokens[i]` is the expected trace at
/// `SIZES[i]`, `ys` the labels a one-row drain yields, `quarantine` the
/// skipped lines (the same at every block size).
fn check(csv: &[u8], policy: RowErrorPolicy, tokens: [&str; 3], ys: &[f64], quarantine: &[usize]) {
    for (k, want) in SIZES.into_iter().zip(tokens) {
        let pulled = pull(csv, policy, k);
        assert_eq!(pulled.tokens, want, "next_block({k})");
        assert_eq!(
            pulled.quarantine, quarantine,
            "quarantine at next_block({k})"
        );
        assert_eq!(visit(csv, policy, k), pulled, "for_each_block({k})");
        if k == 1 {
            assert_eq!(pulled.ys, ys, "labels at next_block(1)");
        }
    }
}

#[test]
fn crlf_line_endings_are_stripped() {
    let csv = b"a,b,label\r\n0.5,1,2\r\n\r\n3,4,5\r\nx,1,2\r\n6,7,8\r\n";
    let src = open(csv, RowErrorPolicy::Strict);
    assert_eq!(src.header(), ["a", "b", "label"]);
    check(
        csv,
        RowErrorPolicy::Strict,
        ["1 1 P5 1", "P5 1", "P5 1"],
        &[2.0, 5.0, 8.0],
        &[],
    );
}

#[test]
fn whitespace_only_lines_count_but_are_skipped() {
    // Lines 2, 4, 5, 7 and 8 are blank: spaces and tabs, a vertical tab,
    // and Unicode whitespace (no-break and ideographic spaces).
    let csv = "a,b,label\n \n1,2,3\n\t \n\u{b}\n4,5,6\n\u{a0}\u{3000}\n   \nbad,1,2\n7,8,9\n";
    check(
        csv.as_bytes(),
        RowErrorPolicy::Strict,
        ["1 1 P9 1", "P9 1", "P9 1"],
        &[3.0, 6.0, 9.0],
        &[],
    );
}

#[test]
fn last_line_without_newline_is_read() {
    check(
        b"a,b,label\n1,2,3\n4,5,6",
        RowErrorPolicy::Strict,
        ["1 1", "2", "2"],
        &[3.0, 6.0],
        &[],
    );
    // A lone `\r` with no `\n` after it stays on the line; the field trim
    // removes it.
    check(
        b"a,b,label\n1,2,3\n4,5,6\r",
        RowErrorPolicy::Strict,
        ["1 1", "2", "2"],
        &[3.0, 6.0],
        &[],
    );
    check(
        b"a,b,label\n1,2,3\n4,5",
        RowErrorPolicy::Strict,
        ["1 P3", "P3", "P3"],
        &[3.0],
        &[],
    );
}

#[test]
fn invalid_utf8_mid_file_is_an_io_error_under_every_policy() {
    let csv = b"a,b,label\n1,2,3\n4,\xff,6\n7,8,9\n";
    for policy in [RowErrorPolicy::Strict, RowErrorPolicy::SkipUpTo(5)] {
        check(csv, policy, ["1 U 1", "U 1", "U 1"], &[3.0, 9.0], &[]);
    }
}

#[test]
fn a_parse_error_before_a_utf8_error_comes_first() {
    let csv = b"a,b,label\n1,2,3\nbad,2,3\n4,\xff,6\n7,8,9\n";
    check(
        csv,
        RowErrorPolicy::Strict,
        ["1 P3 U 1", "P3 U 1", "P3 U 1"],
        &[3.0, 9.0],
        &[],
    );
    check(
        csv,
        RowErrorPolicy::SkipUpTo(5),
        ["1 U 1", "U 1", "U 1"],
        &[3.0, 9.0],
        &[3],
    );
}

#[test]
fn a_drain_resumes_at_the_line_after_an_error() {
    let csv = b"a,b,label\n1,2,3\nbad\n4,5,6\n7,8,9\nx,1,2\n10,11,12\n";
    check(
        csv,
        RowErrorPolicy::Strict,
        ["1 P3 1 1 P6 1", "P3 P6 1", "P3 P6 1"],
        &[3.0, 6.0, 9.0, 12.0],
        &[],
    );
    // Line numbers follow `BufRead::lines`: a line that fails UTF-8
    // decoding is not counted, so the `bad` row on file line 4 reports
    // line 3.
    let csv = b"a,b,label\n1,2,3\n\xff\nbad\n4,5,6\n";
    check(
        csv,
        RowErrorPolicy::Strict,
        ["1 U P3 1", "U P3 1", "U P3 1"],
        &[3.0, 6.0],
        &[],
    );
}

#[test]
fn skip_up_to_quarantines_in_file_order_and_tops_blocks_up() {
    let csv = b"a,b,label\n1,2,3\nx,2,3\n4,5,6\n\n4,5\n7,8,9\n1,2,3,4\n10,11,12\n";
    // Lines 3 and 6 fill the quarantine; line 8 overflows it and fails
    // its call, and the drain resumes at line 9. At three rows a block,
    // the skipped lines make the first block read on to line 7.
    check(
        csv,
        RowErrorPolicy::SkipUpTo(2),
        ["1 1 1 P8 1", "3 P8 1", "P8 1"],
        &[3.0, 6.0, 9.0, 12.0],
        &[3, 6],
    );
    let src = {
        let mut src = open(csv, RowErrorPolicy::SkipUpTo(8));
        while src.next_block(2).unwrap().is_some() {}
        src
    };
    let lines: Vec<usize> = src.quarantine().iter().map(|q| q.line).collect();
    assert_eq!(lines, [3, 6, 8]);
    assert!(src.quarantine()[1]
        .reason
        .contains("expected 3 fields, found 2"));
}

/// A file of `rows` good rows (label = file line) with `bad` lines
/// replaced by a non-numeric field.
fn long_file(rows: usize, bad: &[usize]) -> Vec<u8> {
    let mut csv = b"a,b,label\n".to_vec();
    for line in 2..rows + 2 {
        let row = if bad.contains(&line) {
            "x,0,0\n".to_string()
        } else {
            format!("0.5,{},{line}\n", line % 7)
        };
        csv.extend_from_slice(row.as_bytes());
    }
    csv
}

#[test]
fn long_blocks_resolve_failures_across_parse_ranges() {
    // Blocks of 5,000 and 9,000 lines span several parse ranges (and, at
    // 9,000, two windows): failures in later ranges must skip, abort and
    // resume at their own lines.
    let bad = [100, 3_000, 4_900, 7_500];
    let csv = long_file(12_000, &bad);
    let mut src = open(&csv, RowErrorPolicy::SkipUpTo(8));
    let block = src.next_block(5_000).unwrap().unwrap();
    assert_eq!(block.rows(), 5_000);
    let want: Vec<f64> = (2..5_005)
        .filter(|l| !bad.contains(l))
        .map(|l| l as f64)
        .collect();
    assert_eq!(block.ys(), want);
    assert_eq!(block.xs()[1], 2.0);
    assert_eq!(block.xs()[2 * 4_999 + 1], (5_004 % 7) as f64);
    let block = src.next_block(9_000).unwrap().unwrap();
    assert_eq!(block.rows(), 6_996);
    assert_eq!(block.ys()[0], 5_005.0);
    let quarantined: Vec<usize> = src.quarantine().iter().map(|q| q.line).collect();
    assert_eq!(quarantined, bad);

    // Strict: the first failure of each block aborts it, wherever its
    // range, and the next call resumes after it.
    let csv = long_file(12_000, &[4_900, 4_950]);
    for k in [5_000, 9_000] {
        let trace = pull(&csv, RowErrorPolicy::Strict, k);
        let want = if k == 5_000 {
            "P4900 P4950 5000 2051"
        } else {
            "P4900 P4950 7051"
        };
        assert_eq!(trace.tokens, want, "next_block({k})");
        assert_eq!(visit(&csv, RowErrorPolicy::Strict, k), trace);
    }
}

/// What one call of `next_block(1)` yields: a row's bits (features, then
/// the label) or the error's text.
type Outcome = Result<Vec<u64>, String>;

/// Where a raw field goes in the reference reader.
#[derive(Clone, Copy)]
enum Role {
    Feature(usize),
    Label,
    Skip,
}

/// The reference reader: `BufRead::lines`, `str::split(',')`, `str::trim`
/// and `str::parse::<f64>`, line by line, with the column selection of
/// `select` (`None`: every column a feature, the label last) and up to
/// `cap` rows quarantined. Returns what each `next_block(1)` call yields
/// and the quarantine as `(line, reason)`.
fn reference(
    csv: &[u8],
    select: Option<(&[&str], &str)>,
    cap: Option<usize>,
) -> (Vec<Outcome>, Vec<(usize, String)>) {
    use std::io::BufRead;
    let mut lines = csv.lines();
    let header = lines.next().unwrap().unwrap();
    let header: Vec<&str> = header.split(',').collect();
    let roles: Vec<Role> = match select {
        None => (0..header.len() - 1)
            .map(Role::Feature)
            .chain([Role::Label])
            .collect(),
        Some((features, label)) => header
            .iter()
            .map(|name| match features.iter().position(|f| f == name) {
                Some(slot) => Role::Feature(slot),
                None if *name == label => Role::Label,
                None => Role::Skip,
            })
            .collect(),
    };
    let d = roles
        .iter()
        .filter(|r| matches!(r, Role::Feature(_)))
        .count();
    let parse = |line: &str| -> Result<Vec<u64>, String> {
        let fields: Vec<&str> = line.split(',').collect();
        let mut row = vec![0.0; d + 1];
        for (k, v) in fields.iter().enumerate() {
            let expected = || format!("expected {} fields, found {}", roles.len(), fields.len());
            let slot = match roles.get(k).ok_or_else(expected)? {
                Role::Feature(slot) => *slot,
                Role::Label => d,
                Role::Skip => continue,
            };
            let reason = match v.trim().parse::<f64>() {
                Ok(value) if value.is_finite() => {
                    row[slot] = value;
                    continue;
                }
                Ok(_) => "is not a finite number",
                Err(_) => "is not a number",
            };
            return Err(match select {
                None => format!("`{v}` {reason}"),
                Some(_) => format!("field {}: `{v}` {reason}", k + 1),
            });
        }
        if fields.len() != roles.len() {
            return Err(format!(
                "expected {} fields, found {}",
                roles.len(),
                fields.len()
            ));
        }
        Ok(row.iter().map(|v| v.to_bits()).collect())
    };
    let (mut outcomes, mut quarantine) = (Vec::new(), Vec::new());
    let mut lineno = 1;
    for line in lines {
        let line = match line {
            Ok(line) => line,
            Err(e) => {
                outcomes.push(Err(format!("I/O error: {e}")));
                continue;
            }
        };
        lineno += 1;
        if line.trim().is_empty() {
            continue;
        }
        match parse(&line) {
            Ok(row) => outcomes.push(Ok(row)),
            Err(detail) => {
                let text = format!("CSV parse error at line {lineno}: {detail}");
                match cap {
                    Some(cap) if quarantine.len() < cap => quarantine.push((lineno, text)),
                    _ => outcomes.push(Err(text)),
                }
            }
        }
    }
    (outcomes, quarantine)
}

/// Drains `csv` with `next_block(1)`, going on after each error, under
/// Strict and under `SkipUpTo(16)`, and checks every call and the
/// quarantine against [`reference`].
fn check_edges(csv: &[u8], select: Option<(&[&str], &str)>) {
    for cap in [None, Some(16)] {
        let policy = cap.map_or(RowErrorPolicy::Strict, RowErrorPolicy::SkipUpTo);
        let mut src = open(csv, policy);
        if let Some((features, label)) = select {
            src = src.select_columns(features, label).unwrap();
        }
        let mut outcomes = Vec::new();
        for _ in 0..1_000 {
            match src.next_block(1) {
                Ok(Some(b)) => {
                    let row = b.xs().iter().chain(b.ys()).map(|v| v.to_bits());
                    outcomes.push(Ok(row.collect()));
                }
                Ok(None) => break,
                Err(e) => outcomes.push(Err(e.to_string())),
            }
        }
        let quarantine: Vec<(usize, String)> = src
            .quarantine()
            .iter()
            .map(|q| (q.line, q.reason.clone()))
            .collect();
        let (want, want_quarantine) = reference(csv, select, cap);
        assert_eq!(outcomes, want, "{policy:?}");
        assert_eq!(quarantine, want_quarantine, "{policy:?}");
    }
}

#[test]
fn number_forms_outside_the_one_pass_parse_read_as_str_parse_reads_them() {
    let csv = "a,b,label\n+1,.5,1.\n-0,1e5,1E-5\n0.1,-0.0,1e+2\n1,2,3\n";
    check_edges(csv.as_bytes(), None);
}

#[test]
fn padded_fields_are_trimmed_as_str_trim_trims_them() {
    let csv = "a,b,label\n 1 ,\t2\t, 3 \n\u{2003}1,2\u{2003},\u{a0}3\u{3000}\n\u{b}1\u{c},2\r,3\n1, 2 x,3\n";
    check_edges(csv.as_bytes(), None);
}

#[test]
fn non_finite_fields_fail_with_their_reason() {
    let csv = "a,b,label\nNaN,1,2\n1,inf,2\n1,2,1e400\n1,2,-1e400\n1,2,1e-400\n4,5,6\n";
    check_edges(csv.as_bytes(), None);
}

#[test]
fn long_mantissas_read_as_str_parse_reads_them() {
    let csv = "a,b,label\n\
        1.2345678901234567890,0.12345678901234567890123,-98765432109876543210987.5\n\
        12345678901234567890,1234567890123456789012345,0.000000000000000000001234567890123456789\n\
        9007199254740993.0000,100000000000000000000,0.30000000000000004441\n";
    check_edges(csv.as_bytes(), None);
}

#[test]
fn a_bad_field_before_invalid_utf8_still_fails_on_the_utf8() {
    check_edges(b"a,b,label\n1,2,3\nbad,\xff,3\n1,x\xff,3\n4,5,6\n", None);
}

#[test]
fn selected_columns_skip_non_ascii_text() {
    let csv = "a,name,b,label\n1,Zoë,2,3\n4,東京,5,6\n7,plain,8,9\n1,Zoë,x,3\n1,Zoë,2\n";
    check_edges(csv.as_bytes(), Some((&["b", "a"], "label")));
    let csv = b"a,name,b,label\n1,Zo\xc3\xab,2,3\n4,\xff,5,6\n7,ok,8,9\n";
    check_edges(csv, Some((&["b", "a"], "label")));
}

#[test]
fn exponents_past_65536_are_clipped_as_str_parse_clips_them() {
    // `str::parse` stops adding exponent digits once the exponent reaches
    // 65,536: after 99,999 zeros past the point, `1e1000004` reads 1.
    let zeros = "0".repeat(99_999);
    let csv = format!(
        "a,b,label\n0.{zeros}1e1000004,0.{zeros}1e100004,1\n\
         -0.{zeros}1e-1000004,0.{zeros}1e65536,2\n1e65536,1e-65537,3\n"
    );
    check_edges(csv.as_bytes(), None);
}
