//! The benchmark's global allocator: the system allocator, counting the
//! heap bytes in use and their high-water mark.
//!
//! `peak_heap_mb` is read from these counters rather than from the
//! resident set. The resident set also holds what the allocator keeps
//! after a free (per-thread arenas, untrimmed heap tops), and how much it
//! keeps depends on how the threads happened to interleave, so on a
//! loaded host the same run reads tens of MiB apart. The live bytes do
//! not depend on that.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Heap bytes the process holds now.
static IN_USE: AtomicUsize = AtomicUsize::new(0);
/// The most `IN_USE` has been since the current [`Window`] started.
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The allocator `main.rs` installs.
pub struct Counting;

fn grow(bytes: usize) {
    let now = IN_USE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    if now > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(now, Ordering::Relaxed);
    }
}

fn shrink(bytes: usize) {
    IN_USE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every call is forwarded to `System` with the caller's layout;
// the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size > layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }
}

/// Tracks the heap's high-water mark from [`Window::start`] to
/// [`Window::stop`]: the memory a workload holds while it is measured,
/// inputs included, without the set-up's transient peak.
pub struct Window(());

impl Window {
    pub fn start() -> Self {
        PEAK.store(IN_USE.load(Ordering::Relaxed), Ordering::Relaxed);
        Window(())
    }

    /// The peak heap in use since [`Window::start`], in MiB.
    pub fn stop(self) -> f64 {
        PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
    }
}

/// The process's peak resident set in MiB (`VmHWM`, set-up included), if
/// readable; for the human-readable report only.
pub fn vm_hwm_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
