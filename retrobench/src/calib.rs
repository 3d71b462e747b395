//! Machine-speed calibration of the end-to-end times.
//!
//! The benchmark runs on shared machines whose speed steps by a quarter
//! or more within minutes, as neighbours come and go, while staying
//! steady over the half-minute of one run. A fixed kernel that is part
//! of the benchmark, not of the program, is timed before a run sets up
//! and again after it has measured, while nothing else of the run is
//! busy. The run's end-to-end times are then reported at the reference
//! speed: each time is multiplied by [`REFERENCE_MS`] over the kernel's
//! median in this run, and each rate divided by the same factor. A
//! slower program still reads slower; a slower machine, which slows the
//! kernel as much, does not.
//!
//! The raw figures and the kernel time are printed on an info line
//! before the result line; traced runs report the kernel time as
//! `machine.calib_ms`.

use std::cell::RefCell;
use std::time::Instant;

use crate::stats::median;

/// The kernel's time, ms, at the reference speed: about its median on
/// the 2-core VM the benchmark was written on.
pub const REFERENCE_MS: f64 = 13.0;

/// Kernel samples taken at each end of a run.
pub const SAMPLES: usize = 11;

thread_local! {
    /// The kernel's buffers, made once per thread so that its speed
    /// depends on the machine, not on the state of the heap.
    static BUFFERS: RefCell<(Vec<u64>, Vec<u64>)> =
        RefCell::new((vec![0; 1 << 19], vec![0; 1 << 18]));
}

/// One pass of the kernel: fill and sort 4 MB of integers, then insert
/// keys into a 2 MB open-addressing table. Returns a checksum.
pub fn kernel() -> u64 {
    BUFFERS.with(|b| {
        let (values, table) = &mut *b.borrow_mut();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for v in values.iter_mut() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *v = state;
        }
        values.sort_unstable();
        table.fill(0);
        let mask = table.len() - 1;
        let mut repeats = 0u64;
        for &v in values.iter().step_by(4) {
            let key = (v >> 20) | 1;
            let mut i = (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) as usize & mask;
            loop {
                match table[i] {
                    0 => {
                        table[i] = key;
                        break;
                    }
                    k if k == key => {
                        repeats += 1;
                        break;
                    }
                    _ => i = (i + 1) & mask,
                }
            }
        }
        repeats ^ values[values.len() / 2]
    })
}

/// Kernel samples gathered over a run.
#[derive(Debug, Default)]
pub struct Calibration {
    samples_ms: Vec<f64>,
}

impl Calibration {
    /// Take [`SAMPLES`] timed passes of the kernel, after one untimed
    /// pass that makes its buffers.
    pub fn take(&mut self) {
        std::hint::black_box(kernel());
        for _ in 0..SAMPLES {
            let t = Instant::now();
            std::hint::black_box(kernel());
            self.samples_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }

    /// Median kernel time of the run, ms.
    pub fn kernel_ms(&self) -> f64 {
        median(&self.samples_ms)
    }

    /// What a raw time is multiplied by (and a rate divided by) to read
    /// at the reference speed.
    pub fn factor(&self) -> f64 {
        REFERENCE_MS / self.kernel_ms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_factor_scales_to_reference() {
        assert_eq!(kernel(), kernel());
        let mut c = Calibration::default();
        c.take();
        assert!(c.kernel_ms() > 0.0);
        assert!((c.factor() * c.kernel_ms() - REFERENCE_MS).abs() < 1e-9);
    }
}
