//! Summary statistics and host probes shared by every workload.

use std::time::Instant;

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation;
/// 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest tail percentile with at least ten samples beyond it:
/// `Some((label, value))` for p99 from 1000 samples, p90 from 100.
pub fn tail(values: &[f64]) -> Option<(&'static str, f64)> {
    if values.len() >= 1000 {
        Some(("p99", quantile(values, 0.99)))
    } else if values.len() >= 100 {
        Some(("p90", quantile(values, 0.90)))
    } else {
        None
    }
}

/// This core's practical FMA ceiling in GFLOP/s, measured with a
/// register-resident kernel: eight independent 8-lane `mul_add` chains,
/// no memory traffic. One thread, so the figure is per core.
pub fn fma_ceiling_gflops_per_core(seconds: f64) -> f64 {
    // Eight named accumulators: few enough to stay in registers.
    let mut a0 = [1.0_f64; 8];
    let mut a1 = [1.1_f64; 8];
    let mut a2 = [1.2_f64; 8];
    let mut a3 = [1.3_f64; 8];
    let mut a4 = [1.4_f64; 8];
    let mut a5 = [1.5_f64; 8];
    let mut a6 = [1.6_f64; 8];
    let mut a7 = [1.7_f64; 8];
    let x = std::hint::black_box(1.000_000_1_f64);
    let y = std::hint::black_box(1e-9_f64);
    let start = Instant::now();
    let mut iters = 0u64;
    while start.elapsed().as_secs_f64() < seconds {
        for _ in 0..100_000 {
            for l in 0..8 {
                a0[l] = x.mul_add(a0[l], y);
                a1[l] = x.mul_add(a1[l], y);
                a2[l] = x.mul_add(a2[l], y);
                a3[l] = x.mul_add(a3[l], y);
                a4[l] = x.mul_add(a4[l], y);
                a5[l] = x.mul_add(a5[l], y);
                a6[l] = x.mul_add(a6[l], y);
                a7[l] = x.mul_add(a7[l], y);
            }
        }
        iters += 100_000;
    }
    let elapsed = start.elapsed().as_secs_f64();
    let total: f64 = [a0, a1, a2, a3, a4, a5, a6, a7].iter().flatten().sum();
    assert!(std::hint::black_box(total).is_finite());
    iters as f64 * 8.0 * 8.0 * 2.0 / elapsed / 1e9
}

/// What the reference op takes at the nominal host speed every reported
/// timing is converted to.
const NOMINAL_REFERENCE_S: f64 = 0.012;

/// A fixed piece of work outside the library: a multiply-add pass over
/// 16 MiB and a parse of 60,000 decimal floats (cores, caches and
/// memory). This host shares its cores and caches with other tenants,
/// and its speed swings by up to 2× within a minute; the reference op
/// slows down with it, so dividing by the reference op removes that
/// swing. The work runs once on one thread and once on two threads at
/// once: every workload keeps both cores busy, and a tenant that takes
/// one core slows them while a one-thread pass runs on the other, free
/// core at full speed. Workloads time it only while the library is idle (no prefetch
/// worker, assembly thread or fit in flight), so the library's own work
/// cannot slow it. It touches no disk: fsyncs leave flush work on the
/// host after they return, which would slow a disk probe after a
/// WAL-heavy change and hide that change.
pub struct HostSpeed {
    buf: Vec<f64>,
    text: String,
}

impl HostSpeed {
    pub fn new() -> Self {
        HostSpeed {
            buf: (0..2_000_000).map(|i| f64::from(i % 97) * 0.01).collect(),
            text: (0..60_000)
                .map(|i| format!("{},", f64::from(i) * 0.123_456_789))
                .collect(),
        }
    }

    /// Seconds one pass of the fixed work takes on this thread.
    fn pass_s(&self) -> f64 {
        let t0 = Instant::now();
        let mut acc = 0.0f64;
        for &v in &self.buf {
            acc = v.mul_add(v, acc);
        }
        for token in self.text.split(',') {
            if let Ok(v) = token.parse::<f64>() {
                acc += v;
            }
        }
        std::hint::black_box(acc);
        t0.elapsed().as_secs_f64()
    }

    /// Seconds one reference op takes right now: a pass on this thread
    /// alone, then a pass on each of two threads at once (the slower
    /// counts).
    fn reference_s(&self) -> f64 {
        let alone = self.pass_s();
        let both = std::thread::scope(|s| {
            let other = s.spawn(|| self.pass_s());
            let mine = self.pass_s();
            mine.max(other.join().expect("reference pass panicked"))
        });
        alone + both
    }
}

/// Converts measured times to the nominal host speed one slice of work
/// at a time: the reference op is timed before and after each slice, and
/// the slice's times are scaled by nominal ÷ their mean.
pub struct Slicer<'h> {
    host: &'h HostSpeed,
    before: f64,
}

impl<'h> Slicer<'h> {
    /// Starts the first slice.
    pub fn new(host: &'h HostSpeed) -> Self {
        Slicer {
            host,
            before: host.reference_s(),
        }
    }

    /// Ends the current slice (starting the next) and returns the factor
    /// that converts its measured seconds to nominal seconds.
    pub fn scale(&mut self) -> f64 {
        let after = self.host.reference_s();
        let scale = NOMINAL_REFERENCE_S / ((self.before + after) / 2.0);
        self.before = after;
        scale
    }
}

/// Flops one row costs the degree-2 assembly kernels at dimensionality
/// `d`: one fused multiply-add per entry of the symmetric `M`'s upper
/// triangle, of `α`, and of `β`.
pub fn assembly_flops_per_row(d: usize) -> f64 {
    (d * (d + 1) / 2 + d + 1) as f64 * 2.0
}
