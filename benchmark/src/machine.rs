//! What the harness asks of the machine rather than of the program:
//! a calibration loop that tells a disturbed run from a quiet one, the
//! process's peak memory, and where the benchmark may write.

use std::path::PathBuf;
use std::time::Instant;

/// A fixed scalar loop (2²³ dependent xorshift-multiply rounds), the
/// fastest of five goes. Its time depends on the clock the core runs
/// at and on who else is using it, not on the program under test.
pub fn spin_calib_s() -> f64 {
    let once = || {
        let t = Instant::now();
        let mut x: u64 = std::hint::black_box(0x2545_F491_4F6C_DD1D);
        for _ in 0..(1u32 << 23) {
            x ^= x >> 12;
            x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
        std::hint::black_box(x);
        t.elapsed().as_secs_f64()
    };
    (0..5).map(|_| once()).fold(f64::INFINITY, f64::min)
}

/// A run whose calibration loop ran more than this much slower or faster
/// after the workload than before it is marked noisy.
pub const NOISY_SHARE: f64 = 0.10;

pub fn is_noisy(before_s: f64, after_s: f64) -> bool {
    (after_s / before_s - 1.0).abs() > NOISY_SHARE
}

/// The calibration loop timed before a workload, to be timed again
/// after it.
pub struct Calibration {
    before_s: f64,
}

impl Calibration {
    pub fn start() -> Calibration {
        Calibration { before_s: spin_calib_s() }
    }

    /// Time the loop again and say so: `(seconds now, run is noisy)`.
    pub fn finish(&self) -> (f64, bool) {
        let after_s = spin_calib_s();
        let noisy = is_noisy(self.before_s, after_s);
        println!(
            "machine: calibration loop {:.5} s before, {after_s:.5} s after the workload{}",
            self.before_s,
            if noisy { " — NOISY, differs by more than a tenth" } else { "" }
        );
        (after_s, noisy)
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// `VmHWM` of this process in MiB: the most memory it ever held.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// `benchmark/out/`: result files, traces and the temporary checkpoint
/// store. Inside the checkout the binary was built in, and named in the
/// root `.gitignore`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_a_positive_peak_rss() {
        assert!(peak_rss_mib().unwrap() > 1.0);
    }

    #[test]
    fn noisy_is_a_tenth_either_way() {
        assert!(!is_noisy(1.0, 1.09));
        assert!(!is_noisy(1.0, 0.91));
        assert!(is_noisy(1.0, 1.11));
        assert!(is_noisy(1.0, 0.89));
    }
}
