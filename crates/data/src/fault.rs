//! Fault injection for ingestion pipelines: [`FaultInjectingSource`].
//!
//! The crash-safety story of the workspace (WAL-backed accounting in
//! `fm-privacy`, checkpointable streaming fits in `fm-core`) is only
//! testable if failures can be produced on demand, deterministically, at a
//! chosen point in a stream. [`FaultInjectingSource`] wraps any
//! [`RowSource`] and injects exactly one fault when the inner source
//! reaches its Nth block:
//!
//! * [`Fault::Io`] — a transport error, as a failing disk would produce;
//! * [`Fault::Truncate`] — a silent early EOF, as a half-written file
//!   would produce;
//! * [`Fault::MalformedRows`] — a block whose rows violate the paper's
//!   normalization contract (`‖x‖₂ ≤ 1`), as un-normalized or corrupt
//!   data would produce.
//!
//! The wrapper is deterministic and transport-level only: up to the
//! injection point it forwards the inner source's blocks unchanged, so a
//! fit that survives the fault (or a sweep that never reaches it) remains
//! bit-identical to one over the bare source.

use crate::error::DataError;
use crate::stream::{RowBlock, RowSource};
use crate::Result;

/// Which failure a [`FaultInjectingSource`] injects at its trigger block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Fail with [`DataError::Io`] in place of the Nth block.
    Io,
    /// End the stream silently just before the Nth block (early EOF).
    Truncate,
    /// Replace the Nth block with one whose rows break the `‖x‖₂ ≤ 1`
    /// normalization contract (every feature forced to `2`), so whatever
    /// row validation the consumer runs must trip.
    MalformedRows,
}

/// A [`RowSource`] wrapper that injects one deterministic [`Fault`] when
/// the inner source yields its `at_block`-th block (0-based, counted in
/// the *inner* source's block sizing). See the [module docs](self).
///
/// Only `next_block` is overridden: the visitor path is the trait's
/// default, which pulls every block through it, so the injection point
/// sees every block on both paths.
#[derive(Debug)]
pub struct FaultInjectingSource<S> {
    inner: S,
    fault: Fault,
    at_block: usize,
    yielded: usize,
    fired: bool,
}

impl<S: RowSource> FaultInjectingSource<S> {
    /// Wraps `inner`, arming `fault` to fire in place of block `at_block`
    /// (0-based). If the stream ends before reaching that block the fault
    /// never fires.
    #[must_use]
    pub fn new(inner: S, fault: Fault, at_block: usize) -> Self {
        FaultInjectingSource {
            inner,
            fault,
            at_block,
            yielded: 0,
            fired: false,
        }
    }

    /// Whether the armed fault has fired.
    #[must_use]
    pub fn fired(&self) -> bool {
        self.fired
    }

    /// Unwraps the inner source.
    #[must_use]
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Applies the armed fault to the inner source's next block, or
    /// passes it through untouched when the trigger has not been reached.
    fn apply(&mut self, block: Option<RowBlock>) -> Result<Option<RowBlock>> {
        let Some(block) = block else { return Ok(None) };
        if self.fired || self.yielded != self.at_block {
            self.yielded += 1;
            return Ok(Some(block));
        }
        self.fired = true;
        self.yielded += 1;
        match self.fault {
            Fault::Io => Err(DataError::Io(std::io::Error::other(format!(
                "injected I/O fault at block {}",
                self.at_block
            )))),
            Fault::Truncate => Ok(None),
            Fault::MalformedRows => {
                let d = block.d();
                let rows = block.rows();
                let xs = vec![2.0; rows * d];
                let block = RowBlock::new(xs, block.ys().to_vec(), d)
                    .expect("malformed block keeps the original shape");
                Ok(Some(block))
            }
        }
    }
}

impl<S: RowSource> RowSource for FaultInjectingSource<S> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn hint_rows(&self) -> Option<usize> {
        self.inner.hint_rows()
    }

    fn next_block(&mut self, max_rows: usize) -> Result<Option<RowBlock>> {
        if self.fired && self.fault == Fault::Truncate {
            return Ok(None);
        }
        let block = self.inner.next_block(max_rows)?;
        self.apply(block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::stream::InMemorySource;

    fn source_of(rows: usize) -> InMemorySource<'static> {
        // Leaking keeps the fixture 'static; a handful of tiny datasets
        // per test process is fine.
        let xs: Vec<f64> = (0..rows * 2).map(|i| (i as f64) * 1e-3).collect();
        let ys: Vec<f64> = (0..rows).map(|i| i as f64).collect();
        let x = fm_linalg::Matrix::from_vec(rows, 2, xs).unwrap();
        let data = Box::leak(Box::new(Dataset::new(x, ys).unwrap()));
        InMemorySource::new(data)
    }

    #[test]
    fn passes_through_before_the_trigger() {
        let mut src = FaultInjectingSource::new(source_of(10), Fault::Io, 100);
        let mut rows = 0;
        while let Some(b) = src.next_block(3).unwrap() {
            rows += b.rows();
        }
        assert_eq!(rows, 10);
        assert!(!src.fired());
    }

    #[test]
    fn io_fault_fires_at_the_nth_block() {
        let mut src = FaultInjectingSource::new(source_of(10), Fault::Io, 2);
        assert!(src.next_block(3).unwrap().is_some());
        assert!(src.next_block(3).unwrap().is_some());
        assert!(matches!(src.next_block(3), Err(DataError::Io(_))));
        assert!(src.fired());
    }

    #[test]
    fn truncate_ends_the_stream_early_and_stays_ended() {
        let mut src = FaultInjectingSource::new(source_of(10), Fault::Truncate, 1);
        let first = src.next_block(3).unwrap().unwrap();
        assert_eq!(first.rows(), 3);
        assert!(src.next_block(3).unwrap().is_none());
        assert!(src.next_block(3).unwrap().is_none());
        assert!(src.fired());
    }

    #[test]
    fn malformed_rows_break_the_norm_contract() {
        let mut src = FaultInjectingSource::new(source_of(10), Fault::MalformedRows, 0);
        let block = src.next_block(4).unwrap().unwrap();
        assert_eq!(block.rows(), 4);
        assert!(block.xs().iter().all(|&v| v == 2.0));
        // ‖(2, 2)‖₂ = 2√2 > 1: any consumer-side row validation must trip.
    }

    #[test]
    fn visitor_path_sees_the_fault_too() {
        let mut src = FaultInjectingSource::new(source_of(10), Fault::Io, 1);
        let mut seen = 0usize;
        let err = src.for_each_block(3, &mut |b| {
            seen += b.rows();
            Ok(())
        });
        assert!(matches!(err, Err(DataError::Io(_))));
        assert_eq!(seen, 3);
    }
}
