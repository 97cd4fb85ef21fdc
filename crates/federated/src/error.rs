//! Typed errors for the federated subsystem.

use fm_core::FmError;

/// Everything that can go wrong between a federated client and its
/// coordinator. Wire violations, transport failures, and protocol
/// violations are deliberately separate variants: a checksum mismatch
/// (corruption in flight) calls for a retransmit, a protocol violation
/// (a client uploading off-grid) calls for rejecting the client, and an
/// [`FmError`] is the fit itself refusing. The transport variants split
/// further by what a caller can do about them — a [`TimedOut`] or
/// [`TornFrame`] recv is worth retrying, a [`Disconnected`] peer is
/// gone, and a [`Quorum`] failure means the round itself is lost.
///
/// [`TimedOut`]: FederatedError::TimedOut
/// [`TornFrame`]: FederatedError::TornFrame
/// [`Disconnected`]: FederatedError::Disconnected
/// [`Quorum`]: FederatedError::Quorum
#[derive(Debug)]
pub enum FederatedError {
    /// A payload failed `fm-accum v2` validation: version skew, checksum
    /// mismatch, torn tail, structural violation.
    Wire {
        /// What was violated.
        reason: String,
    },
    /// The byte transport failed for a reason not covered by a more
    /// specific variant: I/O error, poisoned channel, an unsupported
    /// operation.
    Transport {
        /// The operation that failed (`"send"`, `"recv"`, …).
        op: &'static str,
        /// Why.
        detail: String,
    },
    /// A blocking transport operation hit its deadline before the peer
    /// delivered. The message may still arrive — retrying is sound, and
    /// idempotent uploads make a retransmit after an ambiguous timeout
    /// safe.
    TimedOut {
        /// The operation that timed out (`"send"`, `"recv"`, …).
        op: &'static str,
    },
    /// The peer hung up: the channel is closed and no further message
    /// can ever arrive. Retrying is pointless — under a quorum policy
    /// this client is dropped from the round.
    Disconnected {
        /// The operation that observed the hang-up.
        op: &'static str,
    },
    /// A frame ended mid-message: the stream died after `at` of the
    /// `expected` bytes. The offsets pin down exactly where a torn
    /// transcript stops.
    TornFrame {
        /// The operation that observed the tear (`"recv"`, …).
        op: &'static str,
        /// Bytes actually delivered before the stream ended.
        at: usize,
        /// Bytes the frame promised.
        expected: usize,
    },
    /// A frame's length prefix exceeds the transport's cap — a hostile
    /// or corrupt peer must not drive a giant allocation.
    OversizedFrame {
        /// The operation that refused the frame.
        op: &'static str,
        /// The length the frame claimed.
        len: usize,
        /// The transport's cap ([`crate::transport::MAX_FRAME`]).
        cap: usize,
    },
    /// Too few clients survived for the round to release: `survivors`
    /// remained but the quorum policy requires `min_clients`. Nothing
    /// was debited.
    Quorum {
        /// Clients still connected when the round gave up.
        survivors: usize,
        /// The policy's minimum.
        min_clients: usize,
    },
    /// A structurally valid payload that violates the round's protocol:
    /// wrong dimensionality, off-grid chunk position, a mid-stream ragged
    /// tail, a noisy upload in a clean round, a client equivocating
    /// (two different payloads under one label in one round).
    Protocol {
        /// What was violated.
        reason: String,
    },
    /// An error surfaced by the underlying fitting machinery (admission,
    /// assembly, release).
    Fm(FmError),
}

impl FederatedError {
    /// Whether retrying the failed operation could succeed: `true` for
    /// transient failures (timeouts, torn frames, wire corruption — the
    /// peer may retransmit — and generic transport errors), `false` for
    /// terminal ones (a disconnected peer, protocol violations, quorum
    /// loss, oversized frames, and fit errors). [`RetryPolicy::run`]
    /// retries exactly the former.
    ///
    /// [`RetryPolicy::run`]: crate::transport::RetryPolicy::run
    #[must_use]
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            FederatedError::Wire { .. }
                | FederatedError::Transport { .. }
                | FederatedError::TimedOut { .. }
                | FederatedError::TornFrame { .. }
        )
    }
}

impl std::fmt::Display for FederatedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FederatedError::Wire { reason } => write!(f, "wire format violation: {reason}"),
            FederatedError::Transport { op, detail } => {
                write!(f, "transport failure during {op}: {detail}")
            }
            FederatedError::TimedOut { op } => {
                write!(
                    f,
                    "transport {op} hit its deadline before the peer delivered"
                )
            }
            FederatedError::Disconnected { op } => {
                write!(f, "peer hung up during {op}: the channel is closed")
            }
            FederatedError::TornFrame { op, at, expected } => write!(
                f,
                "torn frame during {op}: the stream ended after {at} of {expected} bytes"
            ),
            FederatedError::OversizedFrame { op, len, cap } => write!(
                f,
                "oversized frame refused during {op}: {len} bytes exceeds the {cap}-byte cap"
            ),
            FederatedError::Quorum {
                survivors,
                min_clients,
            } => write!(
                f,
                "quorum lost: {survivors} client(s) survived but the policy requires \
                 {min_clients}; nothing was debited"
            ),
            FederatedError::Protocol { reason } => write!(f, "protocol violation: {reason}"),
            FederatedError::Fm(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FederatedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FederatedError::Fm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FmError> for FederatedError {
    fn from(e: FmError) -> Self {
        FederatedError::Fm(e)
    }
}

/// The wire formats are `fm_core::codec` frames: every codec refusal is a
/// wire violation.
impl From<fm_core::codec::CodecError> for FederatedError {
    fn from(e: fm_core::codec::CodecError) -> Self {
        wire(e.0)
    }
}

/// Result alias for fallible federated operations.
pub type Result<T> = std::result::Result<T, FederatedError>;

/// Shorthand for a [`FederatedError::Wire`].
pub(crate) fn wire(reason: impl Into<String>) -> FederatedError {
    FederatedError::Wire {
        reason: reason.into(),
    }
}

/// Shorthand for a [`FederatedError::Protocol`].
pub(crate) fn protocol(reason: impl Into<String>) -> FederatedError {
    FederatedError::Protocol {
        reason: reason.into(),
    }
}

/// Shorthand for a [`FederatedError::Transport`].
pub(crate) fn transport(op: &'static str, detail: impl Into<String>) -> FederatedError {
    FederatedError::Transport {
        op,
        detail: detail.into(),
    }
}

/// Shorthand for a [`FederatedError::TimedOut`].
pub(crate) fn timed_out(op: &'static str) -> FederatedError {
    FederatedError::TimedOut { op }
}

/// Shorthand for a [`FederatedError::Disconnected`].
pub(crate) fn disconnected(op: &'static str) -> FederatedError {
    FederatedError::Disconnected { op }
}
