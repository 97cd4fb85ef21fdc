//! The `fm-accum v2` wire format: a versioned, checksummed serialization
//! of streaming-accumulator state for cross-process federated fitting —
//! plus the tiny `fm-ctl v1` control format coordinators use to
//! re-assign grid positions in a recovery sub-round ([`ControlMsg`]).
//!
//! A federated client ships its contribution to the coordinator as one
//! payload holding the client's position on the shared chunk grid, its
//! pre-merged counter runs (each covering `2^rank` consecutive chunks),
//! and — for the final client of a central-noise round — the raw rows of
//! the ragged tail chunk. Both formats are frames of the one framed-line
//! codec [`fm_core::codec`] that `fm-checkpoint v1`
//! ([`fm_core::checkpoint`]) also uses: line-oriented ASCII, one
//! `key value…` pair per line, floats written with Rust's
//! shortest-round-trip formatting (bit-exact on reparse), closed by a
//! whole-payload FNV-1a-64 checksum ([`fm_core::codec::checksum64`]). The
//! staged-rows and runs section, and each run's [`Coefficients`] body, are
//! the checkpoint's too.
//!
//! v2 adds one header line over v1: `round`, a coordinator-chosen round
//! id. Together with the client label and the payload checksum it makes
//! uploads **idempotent** — a retransmit after an ambiguous failure
//! carries the same `(round, client, checksum)` identity, so the
//! coordinator dedups it exactly-once instead of refusing the round, and
//! a stale frame from an earlier round is recognized and ignored.
//!
//! # Format
//!
//! ```text
//! fm-accum v2
//! kind quadratic            (or polynomial)
//! client alice              (budget label: no whitespace/control, ≤ 128 bytes)
//! round 7                   (coordinator-chosen round id)
//! mode clean                (or noisy)
//! d 4
//! chunk_rows 4096
//! start_chunk 8             (the client's first chunk on the shared grid)
//! rows 40960
//! staged 0                  (ragged-tail rows riding along raw)
//! stage_ys <f>…
//! stage_xs <f>…
//! runs 2
//! run 3                     (counter rank: this partial covers 2³ chunks)
//! beta <f>
//! alpha <f>·d
//! m <f>·d²
//! run 1
//! …
//! checksum <16-hex FNV-1a-64 of every preceding byte>
//! ```
//!
//! Polynomial partials replace the `beta`/`alpha`/`m` lines with
//! `terms <k>` followed by `term <coeff> <e₁> … <e_d>` lines, exactly as
//! checkpoints do — both formats write each run with
//! [`Coefficients::encode_body`].
//!
//! # What decode refuses
//!
//! The checksum closes over the whole payload, so truncation or
//! corruption *anywhere* — a torn tail, a flipped byte mid-run — is
//! refused before any field is trusted. On top of that, decoding
//! enforces the structural invariants the merge-tree replay depends on:
//! version skew, unknown or out-of-order keys, a run that is not aligned
//! at its own grid position (`(start_chunk + chunks so far) mod 2^rank ≠
//! 0`), row counts inconsistent with the chunk grid, staged rows in a
//! noisy payload, and non-finite floats are all typed
//! [`crate::FederatedError::Wire`] errors, never panics. Every refusal
//! names *where* it happened — the 1-based body line, or the byte count
//! of a torn payload — so a faulted transcript can be debugged from the
//! error alone.

use std::fmt::Write as _;

use fm_core::codec::{self, LineReader};
use fm_core::Coefficients;
use fm_poly::QuadraticForm;

use crate::error::{wire, Result};
use crate::plan::ClientShare;

/// Magic first line of an `fm-accum` payload, with the format version.
pub const ACCUM_MAGIC: &str = "fm-accum v2";

/// Magic first line of an `fm-ctl` control message.
pub const CTL_MAGIC: &str = "fm-ctl v1";

/// Bytes [`AccumUpload::encode`] reserves for its fixed lines (magic,
/// header keys, section counts, checksum), besides the client label.
const HEADER_BYTES: usize = 256;

/// Bytes reserved per float token: the longest shortest-round-trip `f64`
/// (24 characters, as in `-2.2250738585072014e-308`) and its separator.
const FLOAT_TOKEN_BYTES: usize = 25;

/// Whether a payload carries exact (clean) accumulator state or a
/// client-side perturbed (noisy) objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadMode {
    /// Exact coefficient partials; the coordinator draws the noise once
    /// at release (central-noise trust model).
    Clean,
    /// The client perturbed its own contribution before upload
    /// (local-noise trust model); the payload carries exactly one rank-0
    /// run holding the noisy objective and no raw rows.
    Noisy,
}

impl PayloadMode {
    fn token(self) -> &'static str {
        match self {
            PayloadMode::Clean => "clean",
            PayloadMode::Noisy => "noisy",
        }
    }

    fn parse(tok: &str) -> Result<Self> {
        match tok {
            "clean" => Ok(PayloadMode::Clean),
            "noisy" => Ok(PayloadMode::Noisy),
            other => Err(wire(format!("unknown mode {other:?}"))),
        }
    }
}

/// One client's contribution to a federated round, as carried by the
/// `fm-accum v2` wire format: the client's identity, round id and grid
/// position, its pre-merged counter runs, and (final client of a central
/// round only) the raw rows of the ragged tail chunk.
#[derive(Debug, Clone, PartialEq)]
pub struct AccumUpload<P = QuadraticForm> {
    /// The client's budget label (what the coordinator debits; no
    /// whitespace or control characters, at most 128 bytes).
    pub client: String,
    /// The round this upload belongs to. Retransmits carry the same
    /// round id; a coordinator ignores frames from other rounds.
    pub round: u64,
    /// Clean accumulator state or a client-side perturbed objective.
    pub mode: PayloadMode,
    /// The working dimensionality (intercept augmentation included).
    pub d: usize,
    /// The shared chunk-grid size every party agreed on.
    pub chunk_rows: usize,
    /// The client's first chunk on the shared grid.
    pub start_chunk: usize,
    /// Rows this contribution covers.
    pub rows: usize,
    /// Pre-merged counter runs `(rank, partial)` in grid order; each
    /// covers `2^rank` consecutive chunks starting at an aligned position.
    pub runs: Vec<(u32, P)>,
    /// Row-major features of the ragged tail rows (empty off the tail).
    pub staged_xs: Vec<f64>,
    /// Labels of the ragged tail rows (empty off the tail).
    pub staged_ys: Vec<f64>,
}

impl<P: Coefficients> AccumUpload<P> {
    /// Serializes the upload to the versioned, checksummed `fm-accum v2`
    /// text format. Floats are written shortest-round-trip, so
    /// [`AccumUpload::decode`] reproduces the exact bits.
    #[must_use]
    pub fn encode(&self) -> String {
        // Sized for a quadratic body per run (1 + d + d² floats); other
        // bodies grow the buffer as they need.
        let floats = self.staged_xs.len()
            + self.staged_ys.len()
            + self.runs.len() * (1 + self.d + self.d * self.d);
        let mut out =
            String::with_capacity(HEADER_BYTES + self.client.len() + floats * FLOAT_TOKEN_BYTES);
        out.push_str(ACCUM_MAGIC);
        out.push('\n');
        // Writing into a `String` cannot fail.
        let _ = write!(
            out,
            "kind {}\nclient {}\nround {}\nmode {}\nd {}\nchunk_rows {}\nstart_chunk {}\nrows {}\n",
            P::KIND,
            self.client,
            self.round,
            self.mode.token(),
            self.d,
            self.chunk_rows,
            self.start_chunk,
            self.rows,
        );
        codec::push_state(
            &mut out,
            &self.staged_xs,
            &self.staged_ys,
            "run",
            &self.runs,
        );
        codec::seal(&mut out);
        out
    }

    /// Parses and validates an `fm-accum v2` payload.
    ///
    /// # Errors
    /// [`crate::FederatedError::Wire`] for checksum failures (any truncation or
    /// mid-payload corruption), version or kind skew, unknown or
    /// out-of-order keys, malformed numbers, and structural violations:
    /// unaligned runs, row counts inconsistent with the chunk grid,
    /// staged rows that cannot belong to a partial chunk, or a noisy
    /// payload carrying anything but a single rank-0 run. Errors carry
    /// the offending body line or the torn payload's byte count.
    pub fn decode(text: &str) -> Result<Self> {
        let mut lines = LineReader::new(codec::unseal(text)?);
        let magic = lines.next_line()?;
        if magic != ACCUM_MAGIC {
            return Err(wire(format!(
                "unsupported payload format {magic:?} (expected {ACCUM_MAGIC:?})"
            )));
        }
        let kind = lines.tagged("kind")?;
        if kind != P::KIND {
            return Err(wire(format!(
                "payload holds a {kind} accumulator, expected {}",
                P::KIND
            )));
        }
        let client = lines.tagged("client")?.to_string();
        validate_client_label(&client)?;
        let round = lines.field("round")?;
        let mode = PayloadMode::parse(lines.tagged("mode")?)?;
        let d: usize = lines.field("d")?;
        if d == 0 {
            return Err(wire("uploaded d must be ≥ 1"));
        }
        let chunk_rows: usize = lines.field("chunk_rows")?;
        if chunk_rows == 0 {
            return Err(wire("uploaded chunk_rows must be ≥ 1"));
        }
        let start_chunk = lines.field("start_chunk")?;
        let rows = lines.field("rows")?;
        let (staged_xs, staged_ys) = lines.staged(d, chunk_rows)?;
        let staged = staged_ys.len();
        let (runs, chunks_total) = lines.runs::<P>("run", d, start_chunk)?;
        lines.end("last run")?;

        match mode {
            PayloadMode::Clean => {
                // Every run holds exactly 2^rank full chunks; only the
                // ragged tail travels as raw rows.
                codec::check_rows(rows, chunks_total, chunk_rows, staged)?;
            }
            PayloadMode::Noisy => {
                // A noisy upload is one perturbed objective — never raw
                // rows, never a grid position.
                if runs.len() != 1 || runs[0].0 != 0 {
                    return Err(wire("a noisy payload must carry exactly one rank-0 run"));
                }
                if staged != 0 {
                    return Err(wire("a noisy payload must not carry raw staged rows"));
                }
                if start_chunk != 0 {
                    return Err(wire("a noisy payload has no grid position"));
                }
                if rows == 0 {
                    return Err(wire("a noisy payload must cover at least one row"));
                }
            }
        }

        Ok(AccumUpload {
            client,
            round,
            mode,
            d,
            chunk_rows,
            start_chunk,
            rows,
            runs,
            staged_xs,
            staged_ys,
        })
    }
}

/// A coordinator→client control message in a fault-tolerant round, as
/// carried by the checksummed `fm-ctl v1` line format:
///
/// ```text
/// fm-ctl v1
/// type assign               (or done)
/// round 7
/// start_row 4096            (assign only: the re-planned share)
/// rows 8192
/// start_chunk 1
/// chunks 2
/// tail_rows 0
/// checksum <16-hex FNV-1a-64 of every preceding byte>
/// ```
///
/// After the upload phase of a quorum round, survivors wait for control
/// messages: an [`ControlMsg::Assign`] asks the client to re-contribute
/// its rows at a new grid position (a dropped peer's range was
/// re-planned), a [`ControlMsg::Done`] releases it from the round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlMsg {
    /// Re-contribute under the carried share (same local rows, possibly
    /// a new `start_chunk`) and upload again.
    Assign {
        /// The round being salvaged.
        round: u64,
        /// The client's re-planned position on the shared grid.
        share: ClientShare,
    },
    /// The round is complete; the client may leave.
    Done {
        /// The finished round.
        round: u64,
    },
}

impl ControlMsg {
    /// Serializes the message to the checksummed `fm-ctl v1` format.
    #[must_use]
    pub fn encode(&self) -> String {
        let mut out = String::new();
        out.push_str(CTL_MAGIC);
        out.push('\n');
        match self {
            ControlMsg::Assign { round, share } => {
                out.push_str("type assign\n");
                out.push_str(&format!("round {round}\n"));
                out.push_str(&format!("start_row {}\n", share.start_row));
                out.push_str(&format!("rows {}\n", share.rows));
                out.push_str(&format!("start_chunk {}\n", share.start_chunk));
                out.push_str(&format!("chunks {}\n", share.chunks));
                out.push_str(&format!("tail_rows {}\n", share.tail_rows));
            }
            ControlMsg::Done { round } => {
                out.push_str("type done\n");
                out.push_str(&format!("round {round}\n"));
            }
        }
        codec::seal(&mut out);
        out
    }

    /// Parses and validates an `fm-ctl v1` message.
    ///
    /// # Errors
    /// [`crate::FederatedError::Wire`] for checksum failures, version
    /// skew, unknown message types, malformed fields, or a share whose
    /// row count disagrees with its chunk geometry.
    pub fn decode(text: &str) -> Result<Self> {
        let mut lines = LineReader::new(codec::unseal(text)?);
        let magic = lines.next_line()?;
        if magic != CTL_MAGIC {
            return Err(wire(format!(
                "unsupported control format {magic:?} (expected {CTL_MAGIC:?})"
            )));
        }
        let msg = match lines.tagged("type")? {
            "assign" => ControlMsg::Assign {
                round: lines.field("round")?,
                share: ClientShare {
                    start_row: lines.field("start_row")?,
                    rows: lines.field("rows")?,
                    start_chunk: lines.field("start_chunk")?,
                    chunks: lines.field("chunks")?,
                    tail_rows: lines.field("tail_rows")?,
                },
            },
            "done" => ControlMsg::Done {
                round: lines.field("round")?,
            },
            other => return Err(wire(format!("unknown control type {other:?}"))),
        };
        lines.end("control message")?;
        Ok(msg)
    }
}

/// Refuses client labels that could not serve as budget-ledger tokens:
/// empty, over 128 bytes, or containing whitespace/control characters
/// (which would also corrupt the line-oriented format).
fn validate_client_label(label: &str) -> Result<()> {
    if label.is_empty() || label.len() > 128 {
        return Err(wire(format!(
            "client label must be 1–128 bytes, got {}",
            label.len()
        )));
    }
    if label.chars().any(|c| c.is_whitespace() || c.is_control()) {
        return Err(wire(format!(
            "client label {label:?} contains whitespace or control characters"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::FederatedError;
    use fm_core::codec::checksum64;
    use fm_linalg::Matrix;
    use fm_poly::Polynomial;

    fn sample_upload() -> AccumUpload<QuadraticForm> {
        let d = 2;
        let part = |seed: f64| {
            let m = Matrix::from_vec(d, d, vec![seed, seed * 0.5, seed * 0.5, seed * 2.0]).unwrap();
            QuadraticForm::new(m, vec![seed * 0.1, -seed], seed * 0.01)
        };
        AccumUpload {
            client: "alice".to_string(),
            round: 7,
            mode: PayloadMode::Clean,
            d,
            chunk_rows: 4,
            start_chunk: 4,
            rows: 4 * 4 + 4 + 2,
            runs: vec![(2, part(1.3)), (0, part(-0.7))],
            staged_xs: vec![0.1, 0.2, 0.3, 0.4],
            staged_ys: vec![0.5, -0.5],
        }
    }

    /// The bytes `sample_upload` encodes to, pinned so a change to the
    /// writer cannot change the format unnoticed.
    const SAMPLE_FRAME: &str = "fm-accum v2
kind quadratic
client alice
round 7
mode clean
d 2
chunk_rows 4
start_chunk 4
rows 22
staged 2
stage_ys 0.5 -0.5
stage_xs 0.1 0.2 0.3 0.4
runs 2
run 2
beta 0.013000000000000001
alpha 0.13 -1.3
m 1.3 0.65 0.65 2.6
run 0
beta -0.006999999999999999
alpha -0.06999999999999999 0.7
m -0.7 -0.35 -0.35 -1.4
checksum 85f026eb24f58cf5
";

    #[test]
    fn encoding_keeps_its_pinned_bytes() {
        assert_eq!(sample_upload().encode(), SAMPLE_FRAME);
    }

    #[test]
    fn round_trips_bitwise() {
        let upload = sample_upload();
        let text = upload.encode();
        let back = AccumUpload::<QuadraticForm>::decode(&text).unwrap();
        assert_eq!(back, upload);
        // Deterministic: re-encoding reproduces the bytes.
        assert_eq!(back.encode(), text);
    }

    #[test]
    fn every_prefix_is_refused() {
        let text = sample_upload().encode();
        for cut in 0..text.len() {
            let prefix = &text[..cut];
            assert!(
                AccumUpload::<QuadraticForm>::decode(prefix).is_err(),
                "prefix of {cut} bytes accepted"
            );
        }
    }

    #[test]
    fn corruption_version_skew_and_kind_skew_are_refused() {
        let text = sample_upload().encode();
        for pos in [0usize, 12, text.len() / 2, text.len() - 3] {
            let mut evil = text.clone().into_bytes();
            evil[pos] ^= 0x01;
            let evil = String::from_utf8_lossy(&evil).into_owned();
            assert!(
                AccumUpload::<QuadraticForm>::decode(&evil).is_err(),
                "flip at {pos} accepted"
            );
        }
        // Version skew with a freshly valid checksum is still refused.
        let body = text[..text.rfind("checksum ").unwrap()].replace("v2", "v3");
        let skewed = format!("{body}checksum {:016x}\n", checksum64(body.as_bytes()));
        let err = AccumUpload::<QuadraticForm>::decode(&skewed).unwrap_err();
        assert!(matches!(err, FederatedError::Wire { .. }));
        // A quadratic payload is not a polynomial payload.
        assert!(AccumUpload::<Polynomial>::decode(&text).is_err());
    }

    fn reframe(text: &str, from: &str, to: &str) -> String {
        let body = text[..text.rfind("checksum ").unwrap()].replace(from, to);
        format!("{body}checksum {:016x}\n", checksum64(body.as_bytes()))
    }

    #[test]
    fn structural_violations_are_refused_even_with_valid_checksums() {
        let text = sample_upload().encode();
        // Unaligned run: moving the client off its aligned start makes the
        // rank-2 run start at chunk 5.
        let forged = reframe(&text, "start_chunk 4", "start_chunk 5");
        assert!(AccumUpload::<QuadraticForm>::decode(&forged).is_err());
        // Row accounting.
        let forged = reframe(&text, "rows 22", "rows 23");
        assert!(AccumUpload::<QuadraticForm>::decode(&forged).is_err());
        // A noisy payload may not carry staged rows or multiple runs.
        let forged = reframe(&text, "mode clean", "mode noisy");
        assert!(AccumUpload::<QuadraticForm>::decode(&forged).is_err());
        // Ranks past the grid.
        let forged = reframe(&text, "run 2\n", &format!("run {}\n", u32::MAX));
        assert!(AccumUpload::<QuadraticForm>::decode(&forged).is_err());
    }

    #[test]
    fn noisy_payloads_carry_one_rank0_run_and_nothing_else() {
        let mut upload = sample_upload();
        upload.mode = PayloadMode::Noisy;
        upload.runs.truncate(1);
        upload.runs[0].0 = 0;
        upload.staged_xs.clear();
        upload.staged_ys.clear();
        upload.start_chunk = 0;
        upload.rows = 9;
        let back = AccumUpload::<QuadraticForm>::decode(&upload.encode()).unwrap();
        assert_eq!(back, upload);

        upload.rows = 0;
        assert!(AccumUpload::<QuadraticForm>::decode(&upload.encode()).is_err());
    }

    #[test]
    fn wire_errors_carry_positions() {
        // A torn payload names its byte count…
        let text = sample_upload().encode();
        let torn = &text[..text.len() - 1];
        let err = AccumUpload::<QuadraticForm>::decode(torn).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("byte") || msg.contains("-byte"), "{msg}");
        // …and a structural refusal names its body line. `rows` is the
        // 9th line of a v2 payload (after magic/kind/client/round/mode/
        // d/chunk_rows/start_chunk).
        let forged = reframe(&text, "rows 22", "rows nonsense");
        let err = AccumUpload::<QuadraticForm>::decode(&forged).unwrap_err();
        assert!(err.to_string().contains("line 9"), "{err}");
    }

    #[test]
    fn control_messages_round_trip_and_refuse_every_prefix() {
        let assign = ControlMsg::Assign {
            round: 12,
            share: ClientShare {
                start_row: 64,
                rows: 32,
                start_chunk: 8,
                chunks: 4,
                tail_rows: 0,
            },
        };
        let done = ControlMsg::Done { round: 12 };
        for msg in [assign, done] {
            let text = msg.encode();
            assert_eq!(ControlMsg::decode(&text).unwrap(), msg);
            for cut in 0..text.len() {
                assert!(
                    ControlMsg::decode(&text[..cut]).is_err(),
                    "prefix of {cut} bytes accepted"
                );
            }
        }
        // A control message is not an upload and vice versa.
        assert!(AccumUpload::<QuadraticForm>::decode(&done.encode()).is_err());
        assert!(ControlMsg::decode(&sample_upload().encode()).is_err());
    }

    #[test]
    fn hostile_client_labels_are_refused() {
        for label in ["", "two words", "tab\tchar", &"x".repeat(129)] {
            let mut upload = sample_upload();
            upload.client = label.to_string();
            assert!(
                AccumUpload::<QuadraticForm>::decode(&upload.encode()).is_err(),
                "label {label:?} accepted"
            );
        }
    }
}
