//! The one framed-line text codec behind every accumulator-state format:
//! `fm-checkpoint v1` ([`crate::checkpoint`]) here, and `fm-accum v2` /
//! `fm-ctl v1` in `fm-federated`.
//!
//! A frame is line-oriented ASCII, one `key value…` pair per line, closed
//! by a `checksum <16-hex FNV-1a-64>` line over every preceding byte
//! ([`checksum64`], the integrity primitive the WAL frames its records
//! with). Floats are written with Rust's shortest-round-trip formatting,
//! so a decoded frame reproduces the encoded bits exactly.
//!
//! Decoding refuses hostile bytes with a typed [`CodecError`], never a
//! panic, and every refusal names where it happened: the byte count of a
//! torn frame, or the 1-based body line of a malformed field. Each format
//! maps the error into its own domain error (`FmError::Checkpoint`,
//! `FederatedError::Wire`).
//!
//! Both accumulator formats carry the same state section — the staged
//! rows of the partial chunk, then the merge counter's runs, each a
//! [`Coefficients`] body covering `2^rank` chunks — so it is written and
//! read here once ([`push_state`], [`LineReader::staged`],
//! [`LineReader::runs`]).

use std::fmt::{self, Write as _};

pub use fm_privacy::wal::checksum64;

use crate::coefficients::Coefficients;

/// Why a frame was refused, with its position in the frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CodecError {}

/// Result alias for decoding.
pub type CodecResult<T> = std::result::Result<T, CodecError>;

fn err(reason: impl Into<String>) -> CodecError {
    CodecError(reason.into())
}

/// Appends `v` in shortest-round-trip form (bit-exact on reparse),
/// formatted straight into `out`.
pub(crate) fn push_f64(out: &mut String, v: f64) {
    // Writing into a `String` cannot fail.
    let _ = write!(out, "{v}");
}

/// Appends a `tag v0 v1 …` line.
pub(crate) fn push_floats_line(out: &mut String, tag: &str, vals: &[f64]) {
    out.push_str(tag);
    for &v in vals {
        out.push(' ');
        push_f64(out, v);
    }
    out.push('\n');
}

/// Closes a frame: appends the checksum line over every byte so far.
pub fn seal(out: &mut String) {
    let sum = checksum64(out.as_bytes());
    let _ = writeln!(out, "checksum {sum:016x}");
}

/// Verifies the trailing checksum line of a frame and returns the body it
/// closes over. The frame must end exactly at that line's newline: a frame
/// missing even its final byte is refused, naming how many bytes arrived.
///
/// # Errors
/// [`CodecError`] for a missing, torn, malformed or mismatched checksum.
pub fn unseal(text: &str) -> CodecResult<&str> {
    let body_end = text.rfind("checksum ").ok_or_else(|| {
        err(format!(
            "missing checksum line in a {}-byte frame (truncated?)",
            text.len()
        ))
    })?;
    let (body, sum_line) = text.split_at(body_end);
    let sum_hex = sum_line.strip_prefix("checksum ").expect("split at match");
    let Some(sum_hex) = sum_hex.strip_suffix('\n') else {
        return Err(err(format!(
            "frame torn mid-checksum at byte {}",
            text.len()
        )));
    };
    let expected = u64::from_str_radix(sum_hex, 16)
        .map_err(|_| err(format!("unparseable checksum {sum_hex:?}")))?;
    if sum_hex.len() != 16 || checksum64(body.as_bytes()) != expected {
        return Err(err(format!(
            "checksum mismatch over a {}-byte body: frame is corrupt or truncated",
            body.len()
        )));
    }
    Ok(body)
}

/// Parses one finite float token.
///
/// # Errors
/// [`CodecError`] for a missing, unparseable or non-finite token.
pub(crate) fn parse_f64_tok(what: &str, tok: Option<&str>) -> CodecResult<f64> {
    let tok = tok.ok_or_else(|| err(format!("missing {what}")))?;
    let v: f64 = tok
        .parse()
        .map_err(|_| err(format!("unparseable {what} {tok:?}")))?;
    if v.is_finite() {
        Ok(v)
    } else {
        Err(err(format!("{what} must be finite, got {tok}")))
    }
}

/// Appends the accumulator-state section: `staged <k>`, the staged rows'
/// `stage_ys` and `stage_xs`, then `<tag>s <n>` and one `<tag> <rank>`
/// line plus [`Coefficients::encode_body`] per counter run.
pub fn push_state<C: Coefficients>(
    out: &mut String,
    staged_xs: &[f64],
    staged_ys: &[f64],
    tag: &str,
    runs: &[(u32, C)],
) {
    let _ = writeln!(out, "staged {}", staged_ys.len());
    push_floats_line(out, "stage_ys", staged_ys);
    push_floats_line(out, "stage_xs", staged_xs);
    let _ = writeln!(out, "{tag}s {}", runs.len());
    for (rank, part) in runs {
        let _ = writeln!(out, "{tag} {rank}");
        part.encode_body(out);
    }
}

/// Refuses a row count that disagrees with the chunk grid: every run holds
/// full chunks, and only the staged rows of the partial chunk are extra.
///
/// # Errors
/// [`CodecError`] when `rows ≠ chunks · chunk_rows + staged`.
pub fn check_rows(rows: usize, chunks: usize, chunk_rows: usize, staged: usize) -> CodecResult<()> {
    let expected = chunks
        .checked_mul(chunk_rows)
        .and_then(|v| v.checked_add(staged));
    if expected == Some(rows) {
        Ok(())
    } else {
        Err(err(format!(
            "row count {rows} inconsistent with {chunks} chunks of \
             {chunk_rows} rows plus {staged} staged"
        )))
    }
}

/// Sequential tagged-line reader over a frame body. Tracks the 1-based
/// line number so every refusal names where in the frame it happened.
pub struct LineReader<'a> {
    lines: std::str::Lines<'a>,
    line: usize,
}

impl<'a> LineReader<'a> {
    /// A reader over `body` (an [`unseal`]ed frame).
    #[must_use]
    pub fn new(body: &'a str) -> Self {
        LineReader {
            lines: body.lines(),
            line: 0,
        }
    }

    /// Consumes the next line.
    ///
    /// # Errors
    /// [`CodecError`] when the body ends.
    pub fn next_line(&mut self) -> CodecResult<&'a str> {
        self.line += 1;
        let at = self.line;
        self.lines
            .next()
            .ok_or_else(|| err(format!("body truncated at line {at}")))
    }

    /// Consumes the next line, requiring tag `tag`; returns the rest.
    ///
    /// # Errors
    /// [`CodecError`] for a missing line or a different key.
    pub fn tagged(&mut self, tag: &str) -> CodecResult<&'a str> {
        let line = self.next_line()?;
        match line.strip_prefix(tag) {
            Some("") => Ok(""),
            Some(rest) if rest.starts_with(' ') => Ok(&rest[1..]),
            _ => Err(self.error(format!(
                "expected `{tag} …`, found {line:?} (unknown or out-of-order key)"
            ))),
        }
    }

    /// Consumes a `tag <value>` line.
    ///
    /// # Errors
    /// [`CodecError`] for a missing line, a different key, or a value that
    /// does not parse as a `T`.
    pub fn field<T: std::str::FromStr>(&mut self, tag: &str) -> CodecResult<T> {
        let rest = self.tagged(tag)?;
        rest.parse::<T>()
            .map_err(|_| self.error(format!("unparseable {tag} {rest:?}")))
    }

    /// Consumes a `tag <value>` line if the next line carries `tag`.
    ///
    /// # Errors
    /// [`CodecError`] when the line is present but its value is malformed.
    pub(crate) fn optional_field<T: std::str::FromStr>(
        &mut self,
        tag: &str,
    ) -> CodecResult<Option<T>> {
        let next = self.lines.clone().next();
        match next.and_then(|line| line.strip_prefix(tag)) {
            Some(rest) if rest.starts_with(' ') => self.field(tag).map(Some),
            _ => Ok(None),
        }
    }

    /// Consumes a `tag v0 v1 …` line carrying exactly `n` finite floats.
    ///
    /// # Errors
    /// [`CodecError`] for a different key, a malformed or non-finite
    /// value, or a value count other than `n`.
    pub(crate) fn floats(&mut self, tag: &str, n: usize) -> CodecResult<Vec<f64>> {
        let rest = self.tagged(tag)?;
        let vals: Vec<f64> = rest
            .split(' ')
            .filter(|t| !t.is_empty())
            .map(|t| parse_f64_tok(tag, Some(t)).map_err(|e| self.error(e)))
            .collect::<CodecResult<_>>()?;
        if vals.len() != n {
            return Err(self.error(format!("{tag}: expected {n} values, found {}", vals.len())));
        }
        Ok(vals)
    }

    /// Requires the body to be fully consumed.
    ///
    /// # Errors
    /// [`CodecError`] naming the first trailing line.
    pub fn end(&mut self, after: &str) -> CodecResult<()> {
        match self.lines.next() {
            None => Ok(()),
            Some(_) => Err(err(format!(
                "line {}: trailing content after the {after}",
                self.line + 1
            ))),
        }
    }

    /// Reads the staged-rows part of [`push_state`]'s section at
    /// dimensionality `d`: `(staged_xs, staged_ys)`, fewer rows than one
    /// `chunk_rows`-row chunk.
    ///
    /// # Errors
    /// [`CodecError`] for malformed lines, a staged count that would fill
    /// a chunk, or float counts that disagree with it.
    pub fn staged(&mut self, d: usize, chunk_rows: usize) -> CodecResult<(Vec<f64>, Vec<f64>)> {
        let staged: usize = self.field("staged")?;
        if staged >= chunk_rows {
            return Err(self.error(format!(
                "{staged} staged rows cannot fit a {chunk_rows}-row chunk mid-fill"
            )));
        }
        let ys = self.floats("stage_ys", staged)?;
        let n_xs = staged
            .checked_mul(d)
            .ok_or_else(|| self.error(format!("{staged} staged rows of d = {d} overflow")))?;
        let xs = self.floats("stage_xs", n_xs)?;
        Ok((xs, ys))
    }

    /// Reads the runs part of [`push_state`]'s section at dimensionality
    /// `d`, for a contribution whose first chunk sits at `start_chunk` on
    /// the shared grid. Each run must start at a chunk aligned to its
    /// `2^rank` span — replaying an unaligned run would regroup sums the
    /// single-machine merge tree never groups. Returns the runs and the
    /// number of chunks they cover.
    ///
    /// # Errors
    /// [`CodecError`] for malformed lines or bodies, ranks past the
    /// addressable grid, unaligned runs, or chunk-count overflow.
    pub fn runs<C: Coefficients>(
        &mut self,
        tag: &str,
        d: usize,
        start_chunk: usize,
    ) -> CodecResult<(Vec<(u32, C)>, usize)> {
        let n_runs: usize = self.field(&format!("{tag}s"))?;
        let mut runs = Vec::with_capacity(n_runs.min(1024));
        let mut chunks = 0usize;
        for _ in 0..n_runs {
            let rank: u32 = self.field(tag)?;
            if rank >= usize::BITS {
                return Err(self.error(format!("{tag} rank {rank} overflows the chunk grid")));
            }
            let run_chunks = 1usize << rank;
            let position = start_chunk
                .checked_add(chunks)
                .ok_or_else(|| self.error("chunk position overflows"))?;
            if position % run_chunks != 0 {
                return Err(self.error(format!(
                    "{tag} of 2^{rank} chunks is not aligned at chunk {position}: \
                     replaying it would regroup sums the single-machine tree never groups"
                )));
            }
            let part = C::decode_body(self, d)?;
            if part.dim() != d {
                return Err(self.error(format!(
                    "{tag} partial has d = {}, the frame says {d}",
                    part.dim()
                )));
            }
            chunks = chunks
                .checked_add(run_chunks)
                .ok_or_else(|| self.error("run chunks overflow the addressable grid"))?;
            runs.push((rank, part));
        }
        Ok((runs, chunks))
    }

    /// The error for a malformed value on the line just read.
    #[must_use]
    pub(crate) fn error(&self, reason: impl fmt::Display) -> CodecError {
        err(format!("line {}: {reason}", self.line))
    }
}
