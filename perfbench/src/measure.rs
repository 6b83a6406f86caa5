//! Statistics, seeded draws and process resource readings.

use std::time::Instant;

/// Splitmix64: one u64 in, one well-mixed u64 out, no state.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Maps a draw to `[0, 1)`.
pub fn unit(z: u64) -> f64 {
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Median of `v` (mean of the middle pair for an even count; 0 when empty).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// The tail of a latency sample: the highest percentile with at least ten
/// samples beyond it. With ten or fewer samples no percentile qualifies,
/// and the maximum is reported instead (`pct` = 100).
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub value: f64,
    pub pct: f64,
    pub n: usize,
}

pub fn tail(v: &[f64]) -> Tail {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n <= 10 {
        return Tail {
            value: s.last().copied().unwrap_or(0.0),
            pct: 100.0,
            n,
        };
    }
    Tail {
        value: s[n - 11],
        pct: 100.0 * (n - 10) as f64 / n as f64,
        n,
    }
}

/// Ratio that reads 0 when nothing was attempted.
pub fn frac(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Host parallelism the pinned thread counts are recorded against.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPU time (user + system) this process has used, all threads included,
/// in seconds. Linux reports it in clock ticks of 1/100 s.
pub fn cpu_seconds() -> f64 {
    const TICKS_PER_S: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / TICKS_PER_S
}

/// Process CPU seconds per wall second over an interval.
pub struct CpuClock {
    cpu0: f64,
    wall0: Instant,
}

impl CpuClock {
    pub fn start() -> Self {
        CpuClock {
            cpu0: cpu_seconds(),
            wall0: Instant::now(),
        }
    }

    pub fn cpu_per_wall(&self) -> f64 {
        frac(
            cpu_seconds() - self.cpu0,
            self.wall0.elapsed().as_secs_f64(),
        )
    }
}

/// Runs a workload's set-up `reps` times and returns the last result and
/// the median set-up time in seconds. Earlier results go to `discard`
/// (outside the timing) so that threads they own are stopped.
pub fn repeat_setup<T>(
    reps: usize,
    mut build: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        if let Some(prev) = last.take() {
            discard(prev);
        }
        let t0 = Instant::now();
        let built = build()?;
        times.push(t0.elapsed().as_secs_f64());
        last = Some(built);
    }
    let last = last.expect("at least one set-up ran");
    Ok((last, median(&times)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 30.0);
        assert_eq!(t.pct, 75.0);
        let few = tail(&[3.0, 1.0, 2.0]);
        assert_eq!((few.value, few.pct, few.n), (3.0, 100.0, 3));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn proc_readings_are_positive() {
        assert!(peak_rss_mb() > 0.0);
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = mix(x ^ i);
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() > 0.0);
    }
}
