//! Host-speed calibration for the closed-loop, CPU-bound workload.
//!
//! On a shared host, other tenants contend for the core the benchmark
//! runs on. That slows the engine code by up to about 1.6x for tens of
//! seconds to minutes at a time, longer than a run, and no clock shows it
//! (it is not steal time). A run's host times would then measure its
//! neighbours as much as the program. A fixed reference kernel, timed
//! next to the measured passes, slows under the same contention; scaling
//! the host times by the kernel's slowdown cancels most of it, while any
//! change in the program's own cost passes through in full.
//!
//! The kernel is a register-only loop of unpredictable branches. Every
//! small kernel tried (this one, random updates of a 1 MiB or 16 MiB
//! table, a 1 MiB pointer chase, four independent arithmetic streams and
//! 512 distinct functions called through a table) slowed by only 1.2-1.3x
//! while testbed passes slowed by 1.6x. Over two 200 s recordings on a
//! 2-vCPU Intel Xeon guest, the log of the median pass time per 10 s
//! window followed the log of this kernel's time with slope 1.96 and 2.08
//! (residual standard deviation 0.04, against 0.11-0.17 unscaled); the
//! 1 MiB table kernel gave 2.15 and 1.22. Host times are therefore scaled
//! by the square of this kernel's nominal over measured time.

use std::time::Instant;

/// The reference kernel's time on a quiet host (2-vCPU Intel Xeon guest),
/// in milliseconds: calibrated times are host times at that speed.
pub const NOMINAL_MS: f64 = 6.1;

/// The power of the kernel's slowdown that the engine code's slowdown
/// follows (see the module documentation).
pub const EXPONENT: i32 = 2;

/// Loop iterations per kernel run.
const ITERATIONS: u64 = 500_000;

/// Runs the reference kernel once and returns its host time in
/// milliseconds.
pub fn reference_ms() -> f64 {
    let start = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0u64;
    for i in 0..ITERATIONS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = match x & 7 {
            0 => acc.wrapping_add(i),
            1 => acc ^ x,
            2 => acc.rotate_left(3),
            3 => acc.wrapping_mul(3),
            4 => acc.wrapping_sub(x >> 3),
            5 => acc | 1,
            6 => acc & !2,
            _ => acc.wrapping_add(7),
        };
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64() * 1e3
}

/// The factor that scales a host time measured beside reference runs of
/// median `reference_ms` to the nominal host speed.
pub fn factor(reference_ms: f64) -> f64 {
    (NOMINAL_MS / reference_ms).powi(EXPONENT)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slower_reference_scales_times_down() {
        assert_eq!(factor(NOMINAL_MS), 1.0);
        assert!((factor(1.25 * NOMINAL_MS) - 0.64).abs() < 1e-12);
        assert!(reference_ms() > 0.0);
    }
}
