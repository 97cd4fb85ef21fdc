//! Crash-safe, write-ahead-logged privacy accounting.
//!
//! The ε-DP guarantee of the functional mechanism is only as strong as the
//! accounting around it: a process that crashes *after* drawing Laplace noise
//! but *before* recording the debit could re-spend the same ε on restart,
//! silently voiding the privacy claim. [`WalLedger`] closes that hole with a
//! two-phase, fail-closed protocol:
//!
//! 1. **Reserve** — before any data is scanned or noise drawn, a
//!    `reserve <id> <ε> <δ> <tenant> <label>` record is appended and
//!    fsync'd. Only once the fsync has returned may the caller touch data.
//! 2. **Commit / Abort** — after the mechanism releases its output the
//!    reservation is committed; a reservation whose fit never touched the
//!    data may instead be aborted, returning the ε to the pool.
//!
//! Recovery replays the log and treats every *dangling* reservation (a
//! `reserve` with no matching `commit`/`abort`) as **spent**: the crash may
//! have happened a nanosecond after the noise draw, so doubt resolves
//! against the adversary, never against the data owner. Recovered dangling
//! reservations are *sealed* — they still count as spent and may be resumed
//! or committed, but can never be aborted.
//!
//! # On-disk format
//!
//! The log is line-oriented ASCII. Every line — including the header — is
//! *framed*: `"<body>*<16-hex FNV-1a-64 checksum of body>"`. Floats are
//! printed with Rust's shortest-round-trip formatting, so replaying a log
//! reproduces every ε bit-for-bit (the same regime `persist::SavedModel`
//! uses). Record bodies:
//!
//! ```text
//! fm-wal v1                      (header)
//! reserve <id> <eps> <delta> <tenant> <label>
//! commit <id>
//! abort <id>
//! spent <eps> <delta> <fits> <tenant>   (compaction summary)
//! ```
//!
//! A checksum-invalid or truncated **final** line is a *torn tail*: the
//! `append + fsync` that was writing it never returned, so its caller never
//! proceeded to scan data — dropping it is sound, and recovery truncates
//! the file back to the last whole record. A checksum failure anywhere
//! *before* the final line cannot be explained by a crash mid-append and is
//! refused as corruption.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::budget::EpsDeltaEntry;
use crate::{PrivacyError, Result};

/// Magic first-line body identifying a functional-mechanism WAL, with the
/// format version. Bump the version on any incompatible record change.
pub const WAL_MAGIC: &str = "fm-wal v1";

/// 64-bit FNV-1a checksum of `bytes`.
///
/// Dependency-free and stable across platforms; used to frame every WAL
/// record and reused by `fm-core`'s checkpoint files so both durability
/// formats share one integrity primitive.
#[must_use]
pub fn checksum64(bytes: &[u8]) -> u64 {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET_BASIS;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// Frames a record body as `"<body>*<16-hex checksum>"`.
#[must_use]
pub fn frame(body: &str) -> String {
    format!("{body}*{:016x}", checksum64(body.as_bytes()))
}

/// Verifies and strips the checksum frame, returning the body.
///
/// Returns `None` if the line has no frame or the checksum does not match.
#[must_use]
pub fn unframe(line: &str) -> Option<&str> {
    let (body, sum) = line.rsplit_once('*')?;
    if sum.len() != 16 {
        return None;
    }
    let sum = u64::from_str_radix(sum, 16).ok()?;
    (checksum64(body.as_bytes()) == sum).then_some(body)
}

/// A single in-flight (or recovered) budget reservation.
#[derive(Debug, Clone, PartialEq)]
pub struct Reservation {
    /// Monotonically increasing reservation id, unique within one log.
    pub id: u64,
    /// The tenant being debited.
    pub tenant: String,
    /// A caller-chosen label for the fit (mirrors parallel-scope labels).
    pub label: String,
    /// Reserved ε.
    pub epsilon: f64,
    /// Reserved δ.
    pub delta: f64,
    /// `true` when this reservation was found dangling by recovery. Sealed
    /// reservations are permanently spent (fail-closed) and refuse `abort`.
    pub sealed: bool,
}

/// What [`WalLedger::open`] found while replaying an existing log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// `true` if the log did not exist (or was an empty torn creation) and
    /// was initialised fresh.
    pub fresh: bool,
    /// Number of whole records replayed.
    pub records: usize,
    /// Dangling reservations found and sealed as spent (fail-closed).
    pub sealed_dangling: usize,
    /// `true` if a torn (checksum-invalid or unterminated) final record was
    /// dropped and the file truncated back to the last whole record.
    pub torn_tail_dropped: bool,
}

/// Live size/garbage statistics of a [`WalLedger`] — what a compaction
/// policy consults to decide *when* to fold settled history into `spent`
/// summaries (see [`CompactionPolicy`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Settled (`commit`/`abort`) records in the live log — pure garbage
    /// to a replay, since each one only cancels an earlier `reserve`.
    /// Reset to zero by [`WalLedger::compact`].
    pub settled_records: usize,
    /// Exact byte length of the log file (tracked, not stat'd: the ledger
    /// owns every write).
    pub file_bytes: u64,
    /// Reservations currently open (in-flight or recovered-dangling).
    pub open_reservations: usize,
    /// Open reservations that are sealed — recovered dangling after a
    /// crash, awaiting resume. A conservative compaction policy leaves
    /// the log untouched while any exist.
    pub sealed_reservations: usize,
    /// Wall-clock time since the ledger was opened or last compacted —
    /// what a [`CompactionPolicy::age`] threshold consults. A quiet
    /// ledger accumulates age without accumulating records, so an age
    /// trigger bounds how stale a long-idle log's layout can get.
    pub age: Duration,
}

/// When to fold a WAL's settled history into per-tenant `spent` summaries:
/// compact once the settled-record count **or** the file size crosses its
/// threshold. Thresholds are coarse by design — compaction is correct at
/// any time (reservation ids survive it); the policy only bounds how much
/// replayable garbage a long-lived serving process lets accumulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionPolicy {
    /// Compact once this many settled (`commit`/`abort`) records have
    /// accumulated since open or the last compaction.
    pub max_settled_records: usize,
    /// Compact once the log file exceeds this many bytes.
    pub max_file_bytes: u64,
    /// Compact once this much wall-clock time has passed since open or
    /// the last compaction, regardless of how little garbage accrued.
    /// `None` (the default) disables the time trigger.
    pub max_age: Option<Duration>,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        CompactionPolicy {
            max_settled_records: 1024,
            max_file_bytes: 256 * 1024,
            max_age: None,
        }
    }
}

impl CompactionPolicy {
    /// Overrides the settled-record threshold.
    #[must_use]
    pub fn settled_records(mut self, max: usize) -> Self {
        self.max_settled_records = max.max(1);
        self
    }

    /// Overrides the file-size threshold.
    #[must_use]
    pub fn file_bytes(mut self, max: u64) -> Self {
        self.max_file_bytes = max.max(1);
        self
    }

    /// Enables the time trigger: compact once [`WalStats::age`] reaches
    /// `max`. Size triggers bound garbage but never fire on a quiet
    /// ledger; an age bound guarantees a long-lived serving process
    /// folds history on a schedule even when traffic is sparse.
    #[must_use]
    pub fn age(mut self, max: Duration) -> Self {
        self.max_age = Some(max);
        self
    }

    /// Whether `stats` has crossed any enabled threshold.
    #[must_use]
    pub fn due(&self, stats: &WalStats) -> bool {
        stats.settled_records >= self.max_settled_records
            || stats.file_bytes >= self.max_file_bytes
            || self.max_age.is_some_and(|max| stats.age >= max)
    }
}

/// A durable, two-phase ε/δ ledger backed by a write-ahead log.
///
/// See the [module docs](self) for the protocol and on-disk format.
#[derive(Debug)]
pub struct WalLedger {
    file: File,
    path: PathBuf,
    next_id: u64,
    open: BTreeMap<u64, Reservation>,
    /// Committed spend per tenant: (Σε, Σδ, fits).
    committed: BTreeMap<String, (f64, f64, usize)>,
    /// Settled (`commit`/`abort`) records in the live log; see [`WalStats`].
    settled_records: usize,
    /// Exact byte length of the log file; see [`WalStats`].
    file_bytes: u64,
    /// When the log was opened or last compacted; see [`WalStats::age`].
    epoch: Instant,
}

fn io_err(op: &'static str, err: &std::io::Error) -> PrivacyError {
    PrivacyError::Durability {
        op,
        detail: err.to_string(),
    }
}

fn corrupt(op: &'static str, detail: impl Into<String>) -> PrivacyError {
    PrivacyError::Durability {
        op,
        detail: detail.into(),
    }
}

/// Validates a tenant or label token: non-empty, printable, no whitespace
/// (tokens are whitespace-delimited in record bodies), at most 128 bytes.
fn validate_token(op: &'static str, what: &str, token: &str) -> Result<()> {
    let ok = !token.is_empty()
        && token.len() <= 128
        && token.chars().all(|c| !c.is_whitespace() && !c.is_control());
    if ok {
        Ok(())
    } else {
        Err(corrupt(
            op,
            format!("invalid {what} {token:?}: must be 1..=128 non-whitespace printable bytes"),
        ))
    }
}

fn parse_f64(op: &'static str, field: &str, tok: &str) -> Result<f64> {
    tok.parse::<f64>()
        .map_err(|_| corrupt(op, format!("unparseable {field} {tok:?}")))
}

fn parse_u64(op: &'static str, field: &str, tok: &str) -> Result<u64> {
    tok.parse::<u64>()
        .map_err(|_| corrupt(op, format!("unparseable {field} {tok:?}")))
}

/// Parses a `spent` summary total, which sums reservations that each
/// passed [`EpsDeltaEntry::validated`]: finite and non-negative.
fn parse_total(op: &'static str, field: &str, tok: &str) -> Result<f64> {
    let v = parse_f64(op, field, tok)?;
    if v.is_finite() && v >= 0.0 {
        Ok(v)
    } else {
        Err(corrupt(
            op,
            format!("{field} total {tok:?} must be finite and non-negative"),
        ))
    }
}

impl WalLedger {
    /// Opens (creating if absent) the log at `path`, replaying any existing
    /// records with fail-closed recovery semantics.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, on a mid-log checksum failure, or on records
    /// that reference unknown reservation ids (both indicate corruption a
    /// crash cannot explain).
    pub fn open(path: impl AsRef<Path>) -> Result<(Self, RecoveryReport)> {
        const OP: &str = "recover";
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| io_err(OP, &e))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).map_err(|e| io_err(OP, &e))?;

        let mut ledger = WalLedger {
            file,
            path,
            next_id: 1,
            open: BTreeMap::new(),
            committed: BTreeMap::new(),
            settled_records: 0,
            file_bytes: 0,
            epoch: Instant::now(),
        };
        let mut report = RecoveryReport::default();

        // A file with no complete (newline-terminated) header is either
        // brand new or a creation that crashed mid-header-write; both are
        // safe to (re)initialise, since no reserve can precede the header.
        if !bytes.contains(&b'\n') {
            ledger.file.set_len(0).map_err(|e| io_err(OP, &e))?;
            ledger
                .file
                .seek(SeekFrom::Start(0))
                .map_err(|e| io_err(OP, &e))?;
            ledger.append_line(OP, WAL_MAGIC)?;
            report.fresh = true;
            return Ok((ledger, report));
        }

        // Split into lines, tracking the byte offset of each line start so
        // a torn tail can be physically truncated away.
        let mut valid_len = 0usize;
        let mut lines: Vec<&[u8]> = Vec::new();
        let mut start = 0usize;
        for (i, &b) in bytes.iter().enumerate() {
            if b == b'\n' {
                lines.push(&bytes[start..i]);
                start = i + 1;
            }
        }
        let tail = &bytes[start..]; // bytes after the last newline, if any

        let decode = |raw: &[u8]| -> Option<String> {
            let line = std::str::from_utf8(raw).ok()?;
            unframe(line).map(str::to_owned)
        };

        let header = decode(lines[0])
            .ok_or_else(|| corrupt(OP, "log header is not a framed fm-wal line"))?;
        if header != WAL_MAGIC {
            return Err(corrupt(
                OP,
                format!("unsupported log format {header:?} (expected {WAL_MAGIC:?})"),
            ));
        }
        valid_len += lines[0].len() + 1;

        for (idx, raw) in lines.iter().enumerate().skip(1) {
            let is_last_line = idx == lines.len() - 1 && tail.is_empty();
            match decode(raw) {
                Some(body) => {
                    ledger.replay(&body)?;
                    report.records += 1;
                    valid_len += raw.len() + 1;
                }
                None if is_last_line => {
                    // Torn tail: the append that wrote it never returned.
                    report.torn_tail_dropped = true;
                    break;
                }
                None => {
                    return Err(corrupt(
                        OP,
                        format!("checksum failure at record {idx} (not the final line)"),
                    ))
                }
            }
        }
        if !tail.is_empty() {
            // Unterminated final record. If it happens to checksum (only
            // the trailing newline was lost) accept it, else drop it.
            match decode(tail) {
                Some(body) => {
                    ledger.replay(&body)?;
                    report.records += 1;
                    // Re-terminate it below by truncating *without* it and
                    // re-appending, keeping the invariant that every durable
                    // record is newline-terminated.
                    ledger
                        .file
                        .set_len(valid_len as u64)
                        .map_err(|e| io_err(OP, &e))?;
                    ledger
                        .file
                        .seek(SeekFrom::End(0))
                        .map_err(|e| io_err(OP, &e))?;
                    let line = std::str::from_utf8(tail).expect("decoded above");
                    ledger
                        .file
                        .write_all(line.as_bytes())
                        .map_err(|e| io_err(OP, &e))?;
                    ledger.file.write_all(b"\n").map_err(|e| io_err(OP, &e))?;
                    ledger.file.sync_data().map_err(|e| io_err(OP, &e))?;
                    valid_len += tail.len() + 1;
                }
                None => report.torn_tail_dropped = true,
            }
        }

        if valid_len < bytes.len() {
            ledger
                .file
                .set_len(valid_len as u64)
                .map_err(|e| io_err(OP, &e))?;
        }
        ledger
            .file
            .seek(SeekFrom::End(0))
            .map_err(|e| io_err(OP, &e))?;
        // `valid_len` is the exact surviving byte length after any torn-tail
        // truncation and re-termination above.
        ledger.file_bytes = valid_len as u64;

        // Fail closed: every dangling reservation is sealed as spent.
        for res in ledger.open.values_mut() {
            res.sealed = true;
            report.sealed_dangling += 1;
        }
        Ok((ledger, report))
    }

    /// Replays one record body into in-memory state.
    fn replay(&mut self, body: &str) -> Result<()> {
        const OP: &str = "recover";
        let mut toks = body.split(' ');
        match toks.next() {
            Some("reserve") => {
                let (id, eps, delta, tenant, label) = match (
                    toks.next(),
                    toks.next(),
                    toks.next(),
                    toks.next(),
                    toks.next(),
                    toks.next(),
                ) {
                    (Some(id), Some(e), Some(d), Some(t), Some(l), None) => (id, e, d, t, l),
                    _ => return Err(corrupt(OP, format!("malformed reserve record {body:?}"))),
                };
                let id = parse_u64(OP, "reservation id", id)?;
                // The same (ε, δ) check `reserve` applies before writing.
                let entry = EpsDeltaEntry::validated(
                    parse_f64(OP, "epsilon", eps)?,
                    parse_f64(OP, "delta", delta)?,
                )
                .map_err(|e| corrupt(OP, format!("reservation {id}: {e}")))?;
                let next_id = id.checked_add(1).ok_or_else(|| {
                    corrupt(OP, format!("reservation id {id} exhausts the id space"))
                })?;
                let res = Reservation {
                    id,
                    tenant: tenant.to_owned(),
                    label: label.to_owned(),
                    epsilon: entry.epsilon,
                    delta: entry.delta,
                    sealed: false,
                };
                if self.open.insert(id, res).is_some() {
                    return Err(corrupt(OP, format!("duplicate reservation id {id}")));
                }
                self.next_id = self.next_id.max(next_id);
            }
            Some("commit") => {
                let id = match (toks.next(), toks.next()) {
                    (Some(id), None) => parse_u64(OP, "reservation id", id)?,
                    _ => return Err(corrupt(OP, format!("malformed commit record {body:?}"))),
                };
                let res = self
                    .open
                    .remove(&id)
                    .ok_or_else(|| corrupt(OP, format!("commit of unknown reservation {id}")))?;
                self.replay_settled(res.tenant, res.epsilon, res.delta, 1)?;
                self.settled_records += 1;
            }
            Some("abort") => {
                let id = match (toks.next(), toks.next()) {
                    (Some(id), None) => parse_u64(OP, "reservation id", id)?,
                    _ => return Err(corrupt(OP, format!("malformed abort record {body:?}"))),
                };
                if self.open.remove(&id).is_none() {
                    return Err(corrupt(OP, format!("abort of unknown reservation {id}")));
                }
                self.settled_records += 1;
            }
            Some("spent") => {
                let (eps, delta, fits, tenant) = match (
                    toks.next(),
                    toks.next(),
                    toks.next(),
                    toks.next(),
                    toks.next(),
                ) {
                    (Some(e), Some(d), Some(n), Some(t), None) => (e, d, n, t),
                    _ => return Err(corrupt(OP, format!("malformed spent record {body:?}"))),
                };
                let eps = parse_total(OP, "epsilon", eps)?;
                let delta = parse_total(OP, "delta", delta)?;
                let fits = usize::try_from(parse_u64(OP, "fit count", fits)?)
                    .map_err(|_| corrupt(OP, "fit count overflows usize"))?;
                self.replay_settled(tenant.to_owned(), eps, delta, fits)?;
            }
            other => {
                return Err(corrupt(
                    OP,
                    format!("unknown record kind {:?}", other.unwrap_or("")),
                ))
            }
        }
        Ok(())
    }

    /// Adds a replayed settlement to `tenant`'s committed totals. A fit
    /// count past `usize::MAX` or a non-finite ε/δ total is corruption: the
    /// session rebuilt from this log could not account for it.
    fn replay_settled(
        &mut self,
        tenant: String,
        epsilon: f64,
        delta: f64,
        fits: usize,
    ) -> Result<()> {
        const OP: &str = "recover";
        let slot = self.committed.entry(tenant).or_insert((0.0, 0.0, 0));
        let (eps_total, delta_total) = (slot.0 + epsilon, slot.1 + delta);
        match slot.2.checked_add(fits) {
            Some(fits_total) if eps_total.is_finite() && delta_total.is_finite() => {
                *slot = (eps_total, delta_total, fits_total);
                Ok(())
            }
            _ => Err(corrupt(
                OP,
                "a tenant's committed ε, δ or fit count overflows",
            )),
        }
    }

    /// Appends a framed, newline-terminated record and fsyncs it.
    fn append_line(&mut self, op: &'static str, body: &str) -> Result<()> {
        let mut line = frame(body);
        line.push('\n');
        self.file
            .write_all(line.as_bytes())
            .map_err(|e| io_err(op, &e))?;
        self.file_bytes += line.len() as u64;
        self.file.sync_data().map_err(|e| io_err(op, &e))
    }

    /// Durably reserves `(epsilon, delta)` for `tenant` under `label`.
    ///
    /// The record is fsync'd before this returns: a caller that has a
    /// reservation id in hand may scan data and draw noise knowing a crash
    /// can only *over*-count the spend, never under-count it.
    ///
    /// # Errors
    ///
    /// Fails on invalid (ε, δ), invalid tenant/label tokens, or I/O errors.
    pub fn reserve(&mut self, tenant: &str, label: &str, epsilon: f64, delta: f64) -> Result<u64> {
        const OP: &str = "reserve";
        EpsDeltaEntry::validated(epsilon, delta)?;
        validate_token(OP, "tenant", tenant)?;
        validate_token(OP, "label", label)?;
        let id = self.next_id;
        self.append_line(
            OP,
            &format!("reserve {id} {epsilon} {delta} {tenant} {label}"),
        )?;
        self.next_id += 1;
        self.open.insert(
            id,
            Reservation {
                id,
                tenant: tenant.to_owned(),
                label: label.to_owned(),
                epsilon,
                delta,
                sealed: false,
            },
        );
        Ok(id)
    }

    /// Durably commits reservation `id`, settling it as spent.
    ///
    /// # Errors
    ///
    /// Fails if `id` is not an open reservation or on I/O errors.
    pub fn commit(&mut self, id: u64) -> Result<()> {
        const OP: &str = "commit";
        if !self.open.contains_key(&id) {
            return Err(corrupt(OP, format!("unknown reservation {id}")));
        }
        self.append_line(OP, &format!("commit {id}"))?;
        let res = self.open.remove(&id).expect("checked above");
        let slot = self.committed.entry(res.tenant).or_insert((0.0, 0.0, 0));
        slot.0 += res.epsilon;
        slot.1 += res.delta;
        slot.2 += 1;
        self.settled_records += 1;
        Ok(())
    }

    /// Durably aborts reservation `id`, returning its ε/δ to the pool.
    ///
    /// Only legitimate when the reserved fit **never touched the data** —
    /// e.g. it was refused by pre-scan validation. Sealed (crash-recovered)
    /// reservations refuse to abort: the crash may have happened after the
    /// noise draw, so their spend is permanent.
    ///
    /// # Errors
    ///
    /// Fails if `id` is unknown or sealed, or on I/O errors.
    pub fn abort(&mut self, id: u64) -> Result<()> {
        const OP: &str = "abort";
        match self.open.get(&id) {
            None => return Err(corrupt(OP, format!("unknown reservation {id}"))),
            Some(res) if res.sealed => {
                return Err(corrupt(
                    OP,
                    format!(
                        "reservation {id} was recovered from a crash and is fail-closed spent; \
                         it can be committed or resumed but never aborted"
                    ),
                ))
            }
            Some(_) => {}
        }
        self.append_line(OP, &format!("abort {id}"))?;
        self.open.remove(&id);
        self.settled_records += 1;
        Ok(())
    }

    /// Looks up an open (possibly sealed) reservation by id.
    #[must_use]
    pub fn reservation(&self, id: u64) -> Option<&Reservation> {
        self.open.get(&id)
    }

    /// Iterates over all open reservations in id order.
    pub fn open_reservations(&self) -> impl Iterator<Item = &Reservation> {
        self.open.values()
    }

    /// Total spent (Σε, Σδ) — committed **plus** open reservations, since an
    /// open reservation's fit may already have drawn noise (fail-closed).
    #[must_use]
    pub fn spent(&self) -> (f64, f64) {
        let (mut eps, mut delta) = (0.0, 0.0);
        for &(e, d, _) in self.committed.values() {
            eps += e;
            delta += d;
        }
        for res in self.open.values() {
            eps += res.epsilon;
            delta += res.delta;
        }
        (eps, delta)
    }

    /// Spent (Σε, Σδ) attributed to one tenant, committed plus open.
    #[must_use]
    pub fn spent_for(&self, tenant: &str) -> (f64, f64) {
        let (mut eps, mut delta) = self
            .committed
            .get(tenant)
            .map_or((0.0, 0.0), |&(e, d, _)| (e, d));
        for res in self.open.values().filter(|r| r.tenant == tenant) {
            eps += res.epsilon;
            delta += res.delta;
        }
        (eps, delta)
    }

    /// Number of settled fits plus open reservations.
    #[must_use]
    pub fn fits(&self) -> usize {
        self.committed
            .values()
            .fold(self.open.len(), |total, &(_, _, n)| total.saturating_add(n))
    }

    /// Per-tenant committed totals `(tenant, Σε, Σδ, fits)` in tenant order
    /// (open reservations are *not* folded in; see [`Self::spent_for`]).
    pub fn committed_by_tenant(&self) -> impl Iterator<Item = (&str, f64, f64, usize)> {
        self.committed
            .iter()
            .map(|(t, &(e, d, n))| (t.as_str(), e, d, n))
    }

    /// Rewrites the log as one `spent` summary per tenant plus the open
    /// reservations, atomically (write-temp + fsync + rename + dir fsync).
    ///
    /// Reservation ids survive compaction, so checkpoints referencing them
    /// stay resumable. Sealed status is re-derived on the next recovery
    /// (a compacted open reservation replays as dangling again).
    ///
    /// # Errors
    ///
    /// Fails on I/O errors; the original log is untouched on failure.
    pub fn compact(&mut self) -> Result<()> {
        const OP: &str = "compact";
        let tmp_path = self.path.with_extension("wal.tmp");
        let mut out = String::new();
        out.push_str(&frame(WAL_MAGIC));
        out.push('\n');
        for (tenant, &(eps, delta, fits)) in &self.committed {
            out.push_str(&frame(&format!("spent {eps} {delta} {fits} {tenant}")));
            out.push('\n');
        }
        for res in self.open.values() {
            out.push_str(&frame(&format!(
                "reserve {} {} {} {} {}",
                res.id, res.epsilon, res.delta, res.tenant, res.label
            )));
            out.push('\n');
        }
        {
            let mut tmp = File::create(&tmp_path).map_err(|e| io_err(OP, &e))?;
            tmp.write_all(out.as_bytes()).map_err(|e| io_err(OP, &e))?;
            tmp.sync_data().map_err(|e| io_err(OP, &e))?;
        }
        std::fs::rename(&tmp_path, &self.path).map_err(|e| io_err(OP, &e))?;
        if let Some(dir) = self.path.parent() {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_data();
            }
        }
        self.file = OpenOptions::new()
            .append(true)
            .open(&self.path)
            .map_err(|e| io_err(OP, &e))?;
        self.settled_records = 0;
        self.file_bytes = out.len() as u64;
        self.epoch = Instant::now();
        Ok(())
    }

    /// Current size/garbage statistics; see [`WalStats`].
    #[must_use]
    pub fn stats(&self) -> WalStats {
        WalStats {
            settled_records: self.settled_records,
            file_bytes: self.file_bytes,
            open_reservations: self.open.len(),
            sealed_reservations: self.open.values().filter(|r| r.sealed).count(),
            age: self.epoch.elapsed(),
        }
    }

    /// The path of the backing log file.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_wal(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("fm-wal-test-{tag}-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn frame_round_trips_and_rejects_flips() {
        let line = frame("reserve 1 0.5 0 acme fit");
        assert_eq!(unframe(&line), Some("reserve 1 0.5 0 acme fit"));
        let mut broken = line.clone().into_bytes();
        broken[0] ^= 0x20;
        let broken = String::from_utf8(broken).unwrap();
        assert_eq!(unframe(&broken), None);
        assert_eq!(unframe("no frame here"), None);
    }

    #[test]
    fn reserve_commit_abort_round_trip() {
        let path = tmp_wal("rcr");
        {
            let (mut wal, report) = WalLedger::open(&path).unwrap();
            assert!(report.fresh);
            let a = wal.reserve("acme", "fit-1", 0.5, 0.0).unwrap();
            let b = wal.reserve("globex", "fit-2", 0.25, 1e-6).unwrap();
            wal.commit(a).unwrap();
            wal.abort(b).unwrap();
            assert_eq!(wal.spent(), (0.5, 0.0));
            assert_eq!(wal.fits(), 1);
        }
        let (wal, report) = WalLedger::open(&path).unwrap();
        assert!(!report.fresh);
        assert_eq!(report.sealed_dangling, 0);
        assert_eq!(wal.spent(), (0.5, 0.0));
        assert_eq!(wal.spent_for("acme"), (0.5, 0.0));
        assert_eq!(wal.spent_for("globex"), (0.0, 0.0));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn dangling_reservation_is_sealed_spent_and_unabortable() {
        let path = tmp_wal("dangle");
        let id = {
            let (mut wal, _) = WalLedger::open(&path).unwrap();
            wal.reserve("acme", "doomed", 0.75, 0.0).unwrap()
        }; // dropped with the reservation dangling, as a crash would
        let (mut wal, report) = WalLedger::open(&path).unwrap();
        assert_eq!(report.sealed_dangling, 1);
        assert_eq!(wal.spent(), (0.75, 0.0));
        let res = wal.reservation(id).unwrap();
        assert!(res.sealed);
        assert!(matches!(
            wal.abort(id),
            Err(PrivacyError::Durability { op: "abort", .. })
        ));
        // Committing the sealed reservation is fine (it was spent anyway).
        wal.commit(id).unwrap();
        assert_eq!(wal.spent(), (0.75, 0.0));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_dropped_but_mid_log_corruption_is_refused() {
        let path = tmp_wal("torn");
        {
            let (mut wal, _) = WalLedger::open(&path).unwrap();
            let id = wal.reserve("acme", "ok", 0.5, 0.0).unwrap();
            wal.commit(id).unwrap();
        }
        let clean = std::fs::read(&path).unwrap();

        // Truncating mid-final-record drops just that record.
        std::fs::write(&path, &clean[..clean.len() - 3]).unwrap();
        let (wal, report) = WalLedger::open(&path).unwrap();
        assert!(report.torn_tail_dropped);
        // The commit was torn away, so the reserve dangles: still spent.
        assert_eq!(wal.spent(), (0.5, 0.0));
        assert_eq!(report.sealed_dangling, 1);
        drop(wal);

        // Flipping a byte in the middle of the log is corruption.
        let mut evil = clean.clone();
        let mid = evil.len() / 2;
        evil[mid] ^= 0x01;
        std::fs::write(&path, &evil).unwrap();
        assert!(WalLedger::open(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compaction_preserves_totals_and_open_reservations() {
        let path = tmp_wal("compact");
        let open_id;
        {
            let (mut wal, _) = WalLedger::open(&path).unwrap();
            for i in 0..5 {
                let id = wal.reserve("acme", &format!("fit-{i}"), 0.1, 0.0).unwrap();
                wal.commit(id).unwrap();
            }
            open_id = wal.reserve("globex", "in-flight", 0.25, 1e-7).unwrap();
            let before = wal.spent();
            wal.compact().unwrap();
            assert_eq!(wal.spent(), before);
            // The compacted log keeps accepting appends.
            let id = wal.reserve("acme", "post-compact", 0.05, 0.0).unwrap();
            wal.commit(id).unwrap();
        }
        let (wal, report) = WalLedger::open(&path).unwrap();
        assert_eq!(wal.spent_for("acme"), (0.1 * 5.0 + 0.05, 0.0));
        assert_eq!(wal.spent_for("globex"), (0.25, 1e-7));
        assert!(wal.reservation(open_id).is_some());
        assert_eq!(report.sealed_dangling, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stats_track_bytes_and_settled_records_across_compaction_and_reopen() {
        let path = tmp_wal("stats");
        {
            let (mut wal, _) = WalLedger::open(&path).unwrap();
            let fresh = wal.stats();
            assert_eq!(fresh.settled_records, 0);
            assert_eq!(fresh.open_reservations, 0);
            assert_eq!(
                fresh.file_bytes,
                std::fs::metadata(&path).unwrap().len(),
                "fresh log: tracked bytes must equal the file length"
            );

            let a = wal.reserve("acme", "a", 0.1, 0.0).unwrap();
            wal.commit(a).unwrap();
            let b = wal.reserve("acme", "b", 0.1, 0.0).unwrap();
            wal.abort(b).unwrap();
            let _dangling = wal.reserve("globex", "open", 0.2, 0.0).unwrap();
            let s = wal.stats();
            assert_eq!(s.settled_records, 2);
            assert_eq!(s.open_reservations, 1);
            assert_eq!(s.sealed_reservations, 0);
            assert_eq!(s.file_bytes, std::fs::metadata(&path).unwrap().len());

            let policy = CompactionPolicy::default().settled_records(2);
            assert!(policy.due(&s));
            wal.compact().unwrap();
            let after = wal.stats();
            assert_eq!(after.settled_records, 0);
            assert_eq!(after.open_reservations, 1);
            assert_eq!(after.file_bytes, std::fs::metadata(&path).unwrap().len());
            assert!(after.file_bytes < s.file_bytes);
            assert!(!policy.due(&after));
        }
        // Reopen: replayed stats agree with the file, dangling is sealed.
        let (wal, _) = WalLedger::open(&path).unwrap();
        let replayed = wal.stats();
        assert_eq!(replayed.settled_records, 0);
        assert_eq!(replayed.open_reservations, 1);
        assert_eq!(replayed.sealed_reservations, 1);
        assert_eq!(replayed.file_bytes, std::fs::metadata(&path).unwrap().len());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compaction_policy_thresholds_trigger_independently() {
        let policy = CompactionPolicy::default()
            .settled_records(10)
            .file_bytes(1000);
        let mut s = WalStats::default();
        assert!(!policy.due(&s));
        s.settled_records = 10;
        assert!(policy.due(&s));
        s.settled_records = 0;
        s.file_bytes = 1000;
        assert!(policy.due(&s));
    }

    #[test]
    fn age_threshold_triggers_alone_and_resets_on_compaction() {
        let policy = CompactionPolicy::default()
            .settled_records(usize::MAX)
            .file_bytes(u64::MAX)
            .age(Duration::from_millis(5));
        let mut s = WalStats::default();
        // Below the age bound nothing else can fire.
        assert!(!policy.due(&s));
        s.age = Duration::from_millis(5);
        assert!(policy.due(&s));
        // Without the age trigger the same stats stay quiescent.
        assert!(!CompactionPolicy::default()
            .settled_records(usize::MAX)
            .file_bytes(u64::MAX)
            .due(&s));

        // Against a real ledger: a quiet log with zero settled records
        // still comes due on age alone, and compaction resets the clock.
        let path = tmp_wal("age");
        let (mut wal, _) = WalLedger::open(&path).unwrap();
        let _open = wal.reserve("acme", "in-flight", 0.1, 0.0).unwrap();
        assert_eq!(wal.stats().settled_records, 0);
        std::thread::sleep(Duration::from_millis(6));
        assert!(policy.due(&wal.stats()));
        wal.compact().unwrap();
        let after = wal.stats();
        assert!(
            after.age < Duration::from_millis(5),
            "compaction must reset the age clock (got {:?})",
            after.age
        );
        let _ = std::fs::remove_file(&path);
    }

    /// Opens a log holding `records` after the header, each framed with
    /// a valid checksum.
    fn open_with_records(tag: &str, records: &[&str]) -> Result<(WalLedger, RecoveryReport)> {
        let path = tmp_wal(tag);
        let mut text = frame(WAL_MAGIC);
        text.push('\n');
        for record in records {
            text.push_str(&frame(record));
            text.push('\n');
        }
        std::fs::write(&path, text).unwrap();
        let opened = WalLedger::open(&path);
        let _ = std::fs::remove_file(&path);
        opened
    }

    #[test]
    fn replay_refuses_the_last_reservation_id() {
        let opened = open_with_records("max-id", &["reserve 18446744073709551615 0.5 0 t l"]);
        assert!(matches!(opened, Err(PrivacyError::Durability { .. })));
    }

    #[test]
    fn replay_refuses_a_negative_spent_total() {
        let opened = open_with_records("neg-spent", &["spent -0.5 0 1 t"]);
        assert!(matches!(opened, Err(PrivacyError::Durability { .. })));
    }

    #[test]
    fn replay_refuses_a_non_finite_reservation() {
        let opened = open_with_records("nan-eps", &["reserve 2 NaN 0 t l"]);
        assert!(matches!(opened, Err(PrivacyError::Durability { .. })));
    }

    #[test]
    fn replay_refuses_fit_counts_that_overflow() {
        let max = usize::MAX;
        let opened = open_with_records(
            "fits-overflow",
            &[&format!("spent 0.5 0 {max} t"), "spent 0.5 0 1 t"],
        );
        assert!(matches!(opened, Err(PrivacyError::Durability { .. })));
    }

    #[test]
    fn fit_counts_across_tenants_saturate() {
        let max = usize::MAX;
        let (wal, _) = open_with_records(
            "fits-tenants",
            &[&format!("spent 0.5 0 {max} a"), "spent 0.5 0 1 b"],
        )
        .unwrap();
        assert_eq!(wal.fits(), usize::MAX);
    }

    #[test]
    fn replay_refuses_an_infinite_epsilon_total() {
        let opened = open_with_records("eps-overflow", &["spent 1e308 0 1 t", "spent 1e308 0 1 t"]);
        assert!(matches!(opened, Err(PrivacyError::Durability { .. })));
    }

    #[test]
    fn tokens_with_whitespace_are_refused() {
        let path = tmp_wal("tokens");
        let (mut wal, _) = WalLedger::open(&path).unwrap();
        assert!(wal.reserve("two words", "fit", 0.5, 0.0).is_err());
        assert!(wal.reserve("acme", "", 0.5, 0.0).is_err());
        assert!(wal.reserve("acme", "tab\tlabel", 0.5, 0.0).is_err());
        let _ = std::fs::remove_file(&path);
    }
}
