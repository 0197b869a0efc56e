//! The host-speed reference.
//!
//! On a shared host the speed of a core drifts: on a 2-core Xeon the same
//! solve took 23 ms in some ten-second windows and 38 ms in others, for
//! minutes at a time, and every wall-time median follows. The slowdown
//! hits all code alike, so the benchmark times a fixed kernel of its own
//! after each operation and reports each time scaled to the kernel's
//! nominal speed, `t * NOMINAL_MS / kernel_ms`, with `kernel_ms` the
//! median kernel time around the operation. Over 45-second windows of
//! back-to-back 30 ms solves on that host, medians of the raw times spread
//! 15% (quartiles over median), medians of each solve's time over the
//! kernel time next to it 0.2%. The kernel is not the program's code, so
//! no change to the program moves it.

use std::hint::black_box;
use std::time::Instant;

use crate::sample::median;

/// The kernel's time on an unloaded 2-core Xeon host, ms: scaled times
/// read as wall times on that host.
pub const NOMINAL_MS: f64 = 1.5;

/// Order of the matrix the kernel eliminates; 460 KiB, cache-resident.
const N: usize = 240;

/// Operations on each side of an operation whose kernel times set its
/// scale: one kernel time is noisy at the millisecond scale, and a median
/// over about four seconds of a run still follows the host's speed.
const SMOOTHING: usize = 7;

pub struct Reference {
    matrix: Vec<f64>,
}

impl Reference {
    /// A kernel that has run once, so its matrix is resident.
    pub fn new() -> Reference {
        let mut r = Reference { matrix: vec![0.0; N * N] };
        r.time();
        r
    }

    /// Run the kernel once; returns its time, ms.
    pub fn time(&mut self) -> f64 {
        let t = Instant::now();
        black_box(eliminate(black_box(&mut self.matrix)));
        t.elapsed().as_secs_f64() * 1e3
    }
}

/// Replace each kernel time by the median of those of the operations
/// within `SMOOTHING` places of it, in run order.
pub fn smooth(kernel_ms: &mut [f64]) {
    let raw = kernel_ms.to_vec();
    for (i, k) in kernel_ms.iter_mut().enumerate() {
        let window = &raw[i.saturating_sub(SMOOTHING)..(i + SMOOTHING + 1).min(raw.len())];
        *k = median(window);
    }
}

/// `t` scaled to the kernel's nominal speed, given the kernel time `ref_ms`
/// measured around it.
pub fn scaled(t: f64, ref_ms: f64) -> f64 {
    t * NOMINAL_MS / ref_ms
}

/// Gaussian elimination without pivoting of a fixed diagonally dominant
/// matrix, rebuilt on every call.
fn eliminate(a: &mut [f64]) -> f64 {
    for i in 0..N {
        for j in 0..N {
            let diagonal = if i == j { 1000.0 } else { 0.0 };
            a[i * N + j] = ((i * 31 + j * 17) % 97) as f64 + diagonal;
        }
    }
    for k in 0..N {
        let pivot = a[k * N + k];
        for i in k + 1..N {
            let f = a[i * N + k] / pivot;
            for j in k..N {
                a[i * N + j] -= f * a[k * N + j];
            }
        }
    }
    a[N * N - 1]
}
