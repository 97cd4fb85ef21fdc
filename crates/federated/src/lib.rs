//! # fm-federated — cross-process federated fitting for the functional
//! mechanism
//!
//! Zhang et al.'s functional mechanism (PVLDB 2012) perturbs the
//! *coefficients* of the polynomial objective, and those coefficients
//! are sums over tuples — so they compose across parties by addition.
//! This crate turns that observation into a wire protocol: K clients
//! each accumulate a contiguous, chunk-aligned slice of the dataset with
//! the same streaming machinery a single machine uses
//! ([`fm_core::CoefficientAccumulator`]), ship their pre-merged partials
//! over a versioned, checksummed text format (`fm-accum v2`,
//! [`wire`]), and a coordinator merges them at matching merge-tree
//! ranks, debits each client's ε exactly once through a
//! parallel-composition scope on the shared privacy ledger
//! ([`fm_core::session::SharedPrivacySession`]), and releases one model.
//!
//! Two trust models share the protocol (see [`NoiseMode`]):
//!
//! * **central noise** — exact partials travel; the coordinator draws
//!   the mechanism's noise once. The released coefficients are
//!   **bit-identical** to a single-machine fit over the concatenated
//!   rows at the same chunk size and RNG state: the wire format round-
//!   trips floats exactly, and runs are replayed at aligned grid
//!   positions, so no floating-point sum is ever regrouped.
//! * **local noise** — each client perturbs its own Δ-scaled
//!   contribution before upload ([`FederatedClient::contribute_noisy`]);
//!   the coordinator only post-processes. Same ε per client, `√K`× the
//!   noise standard deviation — the measured utility gap between the
//!   two models is exactly the price of not trusting the coordinator.
//!
//! Transports are pluggable ([`Transport`]): an in-memory pair for
//! in-process rounds and length-prefixed frames over any
//! `Read`/`Write` stream (Unix sockets, TCP, pipes) for real process
//! boundaries.
//!
//! Rounds are **fault-tolerant** when asked to be: transports take
//! deadlines (typed [`FederatedError::TimedOut`], wired through
//! `set_read_timeout` on socket-backed streams), a deterministic
//! [`RetryPolicy`] retries transient failures, uploads are idempotent
//! (retransmits dedup by `(round, client, checksum)`), and a
//! [`QuorumPolicy`] lets [`Coordinator::run_round_with_quorum`] salvage
//! a round on client dropout by re-planning the grid onto survivors —
//! debiting exactly the clients whose data entered the release.
//! [`FaultInjectingTransport`] scripts the failures (drop, delay,
//! duplicate, torn frame at byte N) deterministically for tests.
//!
//! [`FederatedError::TimedOut`]: FederatedError::TimedOut

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod coordinator;
pub mod error;
pub mod fault;
pub mod plan;
pub mod transport;
pub mod wire;

pub use client::FederatedClient;
pub use coordinator::{Coordinator, NoiseMode, QuorumPolicy, RoundReport};
pub use error::{FederatedError, Result};
pub use fault::{FaultInjectingTransport, TransportFault};
pub use plan::{dyadic_segments, ClientShare, ShardPlan};
pub use transport::{
    DeadlineMedium, InMemoryTransport, RetryPolicy, StreamTransport, Transport, MAX_FRAME,
};
pub use wire::{AccumUpload, ControlMsg, PayloadMode, ACCUM_MAGIC, CTL_MAGIC};
