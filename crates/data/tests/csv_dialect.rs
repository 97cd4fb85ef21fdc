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
