//! Checkpointing for streaming fits: serialize and restore the state of a
//! [`CoefficientAccumulator`](crate::assembly::CoefficientAccumulator), of
//! either coefficient type, so a killed out-of-core `partial_fit` can
//! resume **bit-identical** to an uninterrupted run.
//!
//! What makes bit-identity possible is that the streaming accumulator's
//! entire state is small and exact: the fixed chunk grid position (the
//! staged rows of the current partial chunk), the binary-counter merge
//! stack of `O(log n_chunks)` partials, and the row count. All floats are
//! written with Rust's shortest-round-trip formatting — the same regime
//! `persist::SavedModel` uses — so a restored accumulator continues from
//! exactly the floating-point state the interrupted one held, and the
//! final release matches an uninterrupted fit bit for bit.
//!
//! # Format (`fm-checkpoint v1`)
//!
//! Line-oriented ASCII, one `key value…` pair per line, closed by a
//! whole-file checksum:
//!
//! ```text
//! fm-checkpoint v1
//! kind quadratic            (or polynomial)
//! d 4
//! chunk_rows 4096
//! rows 10000
//! reservation 3             (optional: WAL reservation id, see below)
//! staged 2
//! stage_ys <f>…
//! stage_xs <f>…
//! partials 2
//! partial 3                 (counter-stack rank, bottom → top)
//! beta <f>
//! alpha <f>·d
//! m <f>·d²
//! partial 1
//! …
//! checksum <16-hex FNV-1a-64 of every preceding byte>
//! ```
//!
//! Polynomial partials replace the `beta`/`alpha`/`m` lines with
//! `terms <k>` followed by `term <coeff> <e₁> … <e_d>` lines in the
//! polynomial's canonical (degree-major) term order — each coefficient
//! type's [`Coefficients`] body, the same one `fm-accum v2` uploads carry.
//!
//! The checksum closes over the whole file, so truncation or corruption
//! *anywhere* — down to a missing final newline — is refused, and a
//! half-written checkpoint can never silently resume as a shorter fit.
//! Unknown keys and version mismatches are refused too (same stance as
//! `persist`). Framing, the line reader and the staged-rows/runs section
//! are [`crate::codec`]'s, shared with `fm-federated`'s wire format, so
//! every refusal names the body line or byte count where it happened.
//!
//! # WAL integration: resume never re-debits
//!
//! A checkpoint may carry the WAL reservation id of the in-flight fit
//! ([`crate::session::FitPermit::id`]). On restart, recovery seals that
//! reservation as spent (fail-closed); re-attaching to it via
//! [`crate::session::SharedPrivacySession::resume_reservation`] hands back
//! a permit for the *already-debited* budget, so finishing the resumed fit
//! draws no new ε.

use crate::assembly::StreamCore;
use crate::codec::{self, LineReader};
use crate::coefficients::Coefficients;
use crate::{FmError, Result};

/// Magic first line of a checkpoint file, with the format version.
pub const CHECKPOINT_MAGIC: &str = "fm-checkpoint v1";

/// Serializes an accumulator core (plus an optional WAL reservation id)
/// to the versioned, checksummed text format.
pub(crate) fn write_core<C: Coefficients>(
    core: &StreamCore<C>,
    reservation: Option<u64>,
) -> String {
    let mut out = String::new();
    out.push_str(CHECKPOINT_MAGIC);
    out.push('\n');
    out.push_str(&format!("kind {}\n", C::KIND));
    out.push_str(&format!("d {}\n", core.dim()));
    out.push_str(&format!("chunk_rows {}\n", core.chunk_rows()));
    out.push_str(&format!("rows {}\n", core.rows()));
    if let Some(id) = reservation {
        out.push_str(&format!("reservation {id}\n"));
    }
    let (xs, ys) = core.staged();
    codec::push_state(&mut out, xs, ys, "partial", core.partials());
    codec::seal(&mut out);
    out
}

/// Parses and validates a checkpoint, rebuilding the accumulator core.
///
/// Refuses version mismatches, kind mismatches, checksum failures (any
/// truncation or corruption), and structural violations (shapes, counter
/// rank ordering, row accounting).
pub(crate) fn parse_core<C: Coefficients>(text: &str) -> Result<(StreamCore<C>, Option<u64>)> {
    let mut lines = LineReader::new(codec::unseal(text)?);
    let magic = lines.next_line()?;
    if magic != CHECKPOINT_MAGIC {
        return Err(lines
            .error(format!(
                "unsupported checkpoint format {magic:?} (expected {CHECKPOINT_MAGIC:?})"
            ))
            .into());
    }
    let kind = lines.tagged("kind")?;
    if kind != C::KIND {
        return Err(lines
            .error(format!(
                "checkpoint holds a {kind} accumulator, expected {}",
                C::KIND
            ))
            .into());
    }
    let d: usize = lines.field("d")?;
    if d == 0 {
        return Err(lines.error("checkpointed d must be ≥ 1").into());
    }
    let chunk_rows: usize = lines.field("chunk_rows")?;
    if chunk_rows == 0 {
        return Err(lines.error("checkpointed chunk_rows must be ≥ 1").into());
    }
    let rows: usize = lines.field("rows")?;
    let reservation = lines.optional_field("reservation")?;
    let (stage_xs, stage_ys) = lines.staged(d, chunk_rows)?;
    // The counter stack starts at chunk 0 with ranks strictly decreasing
    // bottom → top, so every run is aligned by construction.
    let (stack, chunks) = lines.runs::<C>("partial", d, 0)?;
    lines.end("last partial")?;
    if let Some(w) = stack.windows(2).find(|w| w[1].0 >= w[0].0) {
        return Err(FmError::Checkpoint {
            reason: format!(
                "counter ranks must strictly decrease (…, {}, {})",
                w[0].0, w[1].0
            ),
        });
    }
    // Row accounting must be exact: mid-fit, every flushed chunk holds
    // exactly `chunk_rows` rows (the ragged tail only flushes at finish).
    codec::check_rows(rows, chunks, chunk_rows, stage_ys.len())?;

    Ok((
        StreamCore::restore(d, chunk_rows, rows, stage_xs, stage_ys, stack),
        reservation,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fm_poly::{Polynomial, QuadraticForm};

    fn roundtrip_quadratic(core: &StreamCore<QuadraticForm>, reservation: Option<u64>) {
        let text = write_core(core, reservation);
        let (restored, res) = parse_core::<QuadraticForm>(&text).unwrap();
        assert_eq!(res, reservation);
        assert_eq!(restored.dim(), core.dim());
        assert_eq!(restored.chunk_rows(), core.chunk_rows());
        assert_eq!(restored.rows(), core.rows());
        assert_eq!(restored.staged(), core.staged());
        assert_eq!(restored.partials().len(), core.partials().len());
        for ((ra, pa), (rb, pb)) in restored.partials().iter().zip(core.partials()) {
            assert_eq!(ra, rb);
            assert_eq!(pa, pb);
        }
        // Serialization is deterministic: re-writing reproduces the bytes.
        assert_eq!(write_core(&restored, reservation), text);
    }

    fn populated_core(rows: usize, d: usize, chunk_rows: usize) -> StreamCore<QuadraticForm> {
        let mut core = StreamCore::new(d, chunk_rows);
        let xs: Vec<f64> = (0..rows * d)
            .map(|i| ((i as f64) * 0.37).sin() * 0.1)
            .collect();
        let ys: Vec<f64> = (0..rows).map(|i| ((i as f64) * 0.11).cos()).collect();
        core.push_rows(&crate::linreg::LinearObjective, &xs, &ys)
            .unwrap();
        core
    }

    #[test]
    fn quadratic_core_round_trips_bitwise() {
        for (rows, chunk) in [(0usize, 8usize), (3, 8), (8, 8), (21, 8), (100, 7)] {
            roundtrip_quadratic(&populated_core(rows, 3, chunk), None);
            roundtrip_quadratic(&populated_core(rows, 3, chunk), Some(42));
        }
    }

    #[test]
    fn corruption_and_truncation_are_refused() {
        let text = write_core(&populated_core(21, 3, 8), Some(7));
        // Any single-byte flip in the body must be caught.
        for pos in [0usize, 10, text.len() / 2, text.len() - 20] {
            let mut evil = text.clone().into_bytes();
            evil[pos] ^= 0x01;
            let evil = String::from_utf8_lossy(&evil).into_owned();
            assert!(
                parse_core::<QuadraticForm>(&evil).is_err(),
                "flip at {pos} accepted"
            );
        }
        // Truncation at any line boundary must be caught.
        let mut prefix = String::new();
        for line in text.lines().take(text.lines().count() - 1) {
            prefix.push_str(line);
            prefix.push('\n');
            assert!(parse_core::<QuadraticForm>(&prefix).is_err());
        }
        // Kind mismatch must be caught even with a valid checksum.
        assert!(parse_core::<Polynomial>(&text).is_err());
    }

    #[test]
    fn polynomial_core_round_trips_bitwise() {
        let d = 2;
        let mut core: StreamCore<Polynomial> = StreamCore::new(d, 4);
        let xs: Vec<f64> = (0..10 * d).map(|i| (i as f64) * 0.01).collect();
        let ys: Vec<f64> = (0..10).map(|i| (i as f64) * 0.1).collect();
        core.push_rows(&crate::generic::QuarticObjective, &xs, &ys)
            .unwrap();
        let text = write_core(&core, None);
        let (restored, res) = parse_core::<Polynomial>(&text).unwrap();
        assert_eq!(res, None);
        assert_eq!(restored.rows(), core.rows());
        for ((ra, pa), (rb, pb)) in restored.partials().iter().zip(core.partials()) {
            assert_eq!(ra, rb);
            let a: Vec<_> = pa.terms().map(|(m, c)| (m.clone(), c.to_bits())).collect();
            let b: Vec<_> = pb.terms().map(|(m, c)| (m.clone(), c.to_bits())).collect();
            assert_eq!(a, b);
        }
        assert_eq!(write_core(&restored, None), text);
    }

    #[test]
    fn checkpoint_errors_carry_positions() {
        let text = write_core(&populated_core(21, 3, 8), None);
        // A checkpoint missing only its final newline is torn, and the
        // refusal names the byte count that arrived…
        let err = parse_core::<QuadraticForm>(&text[..text.len() - 1])
            .err()
            .expect("torn checkpoint accepted");
        assert!(err.to_string().contains("byte"), "{err}");
        // …and a malformed field names its body line (`rows` is line 5).
        let body_end = text.rfind("checksum ").unwrap();
        let mut forged = text[..body_end].replace("rows 21", "rows nonsense");
        codec::seal(&mut forged);
        let err = parse_core::<QuadraticForm>(&forged)
            .err()
            .expect("malformed row count accepted");
        assert!(err.to_string().contains("line 5"), "{err}");
    }

    #[test]
    fn row_accounting_violations_are_refused() {
        let text = write_core(&populated_core(21, 3, 8), None);
        // Forge a higher row count and re-checksum: structurally valid,
        // semantically impossible.
        let body_end = text.rfind("checksum ").unwrap();
        let forged_body = text[..body_end].replace("rows 21", "rows 2100");
        let forged = format!(
            "{forged_body}checksum {:016x}\n",
            codec::checksum64(forged_body.as_bytes())
        );
        assert!(parse_core::<QuadraticForm>(&forged).is_err());
    }
}
