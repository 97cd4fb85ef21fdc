//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each call into a
//! library layer — nothing inside the library is instrumented. A span has
//! a name (`layer.call`), start and end offsets from the tracer's epoch,
//! the span that caused it (if any) and the workload op it belongs to.
//! Counts are recorded at the same boundaries. Spans stay in memory and
//! are written out once, when the run ends.
//!
//! A span's **self time** is its duration minus the durations of its
//! direct children (children always nest inside their parent on the same
//! thread). Spans recorded on another thread — a prefetch worker — are
//! roots of their own.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Identifier of a recorded span (used as a parent link).
pub type SpanId = u64;

struct Span {
    id: SpanId,
    parent: Option<SpanId>,
    op: u64,
    name: &'static str,
    start: Duration,
    end: Duration,
}

/// Thread-safe span and counter store.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<BTreeMap<&'static str, f64>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(BTreeMap::new()),
        }
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id so
    /// it can parent nested spans.
    pub fn span<T>(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.epoch.elapsed();
        let out = f(id);
        let end = self.epoch.elapsed();
        self.push(Span {
            id,
            parent,
            op,
            name,
            start,
            end,
        });
        out
    }

    /// Records an already-timed interval as a span.
    pub fn record(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            parent,
            op,
            name,
            start: start.saturating_duration_since(self.epoch),
            end: end.saturating_duration_since(self.epoch),
        });
        id
    }

    /// Reserves an id for a span whose interval is recorded later with
    /// [`Tracer::record_as`] (children can link to it before it closes).
    pub fn reserve(&self) -> SpanId {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a span under an id taken from [`Tracer::reserve`].
    pub fn record_as(
        &self,
        id: SpanId,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) {
        self.push(Span {
            id,
            parent,
            op,
            name,
            start: start.saturating_duration_since(self.epoch),
            end: end.saturating_duration_since(self.epoch),
        });
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Adds `by` to the counter `name`.
    pub fn count(&self, name: &'static str, by: f64) {
        *self
            .counts
            .lock()
            .expect("counter store poisoned")
            .entry(name)
            .or_insert(0.0) += by;
    }

    /// The counter `name` (0 when never touched).
    pub fn counter(&self, name: &str) -> f64 {
        self.counts
            .lock()
            .expect("counter store poisoned")
            .get(name)
            .copied()
            .unwrap_or(0.0)
    }

    /// Number of spans recorded.
    pub fn spans(&self) -> usize {
        self.spans.lock().expect("span store poisoned").len()
    }

    /// Total self time, in seconds, of every span, keyed by span name.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut child_time: BTreeMap<SpanId, f64> = BTreeMap::new();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                *child_time.entry(p).or_insert(0.0) += (s.end - s.start).as_secs_f64();
            }
        }
        let mut out = BTreeMap::new();
        for s in spans.iter() {
            let own = (s.end - s.start).as_secs_f64() - child_time.get(&s.id).unwrap_or(&0.0);
            *out.entry(s.name).or_insert(0.0) += own.max(0.0);
        }
        out
    }

    /// Total wall time, in seconds, of every span named `name`.
    pub fn wall_seconds(&self, name: &str) -> f64 {
        self.spans
            .lock()
            .expect("span store poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64())
            .sum()
    }

    /// Total wall time, in seconds, of the direct children of every span
    /// named `name`.
    pub fn child_seconds(&self, name: &str) -> f64 {
        let spans = self.spans.lock().expect("span store poisoned");
        let parents: BTreeSet<SpanId> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.id)
            .collect();
        spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| parents.contains(&p)))
            .map(|s| (s.end - s.start).as_secs_f64())
            .sum()
    }

    /// Writes every span as a tab-separated line
    /// (`id parent op name start_s end_s`) to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut text = String::from("id\tparent\top\tname\tstart_s\tend_s\n");
        for s in spans.iter() {
            let _ = writeln!(
                text,
                "{}\t{}\t{}\t{}\t{:.9}\t{:.9}",
                s.id,
                s.parent.map_or_else(|| "-".to_string(), |p| p.to_string()),
                s.op,
                s.name,
                s.start.as_secs_f64(),
                s.end.as_secs_f64()
            );
        }
        std::fs::write(path, text)
    }
}

/// Runs `f` inside a span when tracing, or plainly when not.
pub fn span<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    op: u64,
    parent: Option<SpanId>,
    f: impl FnOnce(Option<SpanId>) -> T,
) -> T {
    match tracer {
        Some(t) => t.span(name, op, parent, |id| f(Some(id))),
        None => f(None),
    }
}
