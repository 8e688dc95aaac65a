//! What the host lets the benchmark observe — process CPU time, the speed
//! of a fixed reference task, CPU steal and peak memory — and the order
//! statistics every metric is reduced with.
//!
//! The benchmark runs on shared virtual machines whose speed drifts, so
//! every timed sample is scaled by the speed of the reference task run
//! next to it (see [`Reference`]); the steal over each timed phase (see
//! [`Phase`]) is a diagnostic.

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time (user + system) consumed by every thread of this process so
/// far, including threads that already exited, with nanosecond resolution
/// (`/proc/self/stat` only counts 10 ms ticks).
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` for the whole call,
    // and the kernel writes nothing else; the clock id is a constant every
    // Linux kernel supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Seconds one unit of [`reference_task`] takes at the speed every time
/// metric is quoted in: about what a quiet 2-vCPU cloud VM (Firecracker,
/// x86-64) measured while the benchmark was built.
pub const REFERENCE_UNIT_S: f64 = 15e-6;

/// A fixed piece of work built from the standard library only (no code of
/// the program under test, so no change to it can change this): each unit
/// formats 64 pseudo-random floats into text, parses them back and hashes
/// the text, the kind of work a JSON round trip does.
fn reference_task(units: u64) -> u64 {
    use std::fmt::Write;
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut text = String::new();
    for unit in 0..units {
        text.clear();
        let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ unit;
        let values: Vec<f64> = (0..64)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect();
        for v in &values {
            let _ = write!(text, "{v},");
        }
        let parsed: f64 = text
            .split_terminator(',')
            .map(|s| s.parse::<f64>().unwrap_or(f64::NAN))
            .sum();
        for b in text.bytes() {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        hash ^= parsed.to_bits();
    }
    hash
}

/// Time spent on the reference task next to a sample.
///
/// The host's speed drifts by ±20% over minutes, through CPU steal and
/// through slowdowns no counter shows. Work timed next to the reference
/// task, on the same thread and clock, drifts with it; so every time
/// metric is the measured time scaled by how much slower than
/// [`REFERENCE_UNIT_S`] the reference task ran next to it.
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    wall_s: f64,
    cpu_s: f64,
    units: u64,
}

impl Reference {
    /// Runs `units` units of the reference task on this thread and times
    /// them.
    pub fn run(units: u64) -> Self {
        let (started, cpu) = (std::time::Instant::now(), process_cpu_s());
        std::hint::black_box(reference_task(std::hint::black_box(units)));
        Self {
            wall_s: started.elapsed().as_secs_f64(),
            cpu_s: process_cpu_s() - cpu,
            units,
        }
    }

    pub fn merge(self, other: Reference) -> Self {
        Self {
            wall_s: self.wall_s + other.wall_s,
            cpu_s: self.cpu_s + other.cpu_s,
            units: self.units + other.units,
        }
    }

    pub fn unit_wall_s(&self) -> f64 {
        self.wall_s / self.units as f64
    }

    pub fn unit_cpu_s(&self) -> f64 {
        self.cpu_s / self.units as f64
    }
}

/// Host-wide CPU time counters from the first line of `/proc/stat`, in
/// clock ticks summed over every CPU.
#[derive(Debug, Clone, Copy)]
struct HostTicks {
    steal: u64,
    /// Ticks the CPUs ran or wanted to run: everything but idle and iowait.
    busy: u64,
}

impl HostTicks {
    /// Reads the counters now (all zero where `/proc/stat` is unreadable,
    /// which makes every steal share 0).
    pub fn now() -> Self {
        let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = text
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        let field = |i: usize| fields.get(i).copied().unwrap_or(0);
        // user nice system idle iowait irq softirq steal; guest time is
        // already counted in user and nice.
        Self {
            steal: field(7),
            busy: field(0) + field(1) + field(2) + field(5) + field(6) + field(7),
        }
    }

    /// Share of the CPU time the host's CPUs wanted between `earlier` and
    /// `self` that the hypervisor stole.
    pub fn steal_share_since(&self, earlier: &HostTicks) -> f64 {
        let busy = self.busy.saturating_sub(earlier.busy);
        if busy == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / busy as f64
    }
}

/// Resets this process's peak resident set size to its current one, so
/// [`peak_rss_mib`] reports the peak since this call.
fn reset_peak_rss() {
    // Best effort: without it the peak covers the whole process lifetime.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// What the host did over one timed phase of a run.
pub struct Phase {
    /// Share of the CPU time the host's CPUs wanted that the hypervisor
    /// stole.
    pub steal_share: f64,
    /// Peak resident set size of this process over the phase.
    pub peak_rss_mib: f64,
}

impl Phase {
    /// Runs `work` and measures the phase around it.
    pub fn measure<T>(work: impl FnOnce() -> T) -> (T, Self) {
        reset_peak_rss();
        let ticks = HostTicks::now();
        let out = work();
        let phase = Self {
            steal_share: HostTicks::now().steal_share_since(&ticks),
            peak_rss_mib: peak_rss_mib(),
        };
        (out, phase)
    }
}

/// Median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Linear-interpolated percentile `q` in `[0, 100]` (NaN when empty).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q / 100.0 * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// First quartile, median and third quartile, computed exactly like
/// Python's `statistics.quantiles(values, n=4)` (its default "exclusive"
/// method). Needs at least two values; one value is its own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    match ld {
        0 => return [f64::NAN; 3],
        1 => return [data[0]; 3],
        _ => {}
    }
    let m = ld + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn reference_task_is_fixed_work() {
        assert_eq!(reference_task(3), reference_task(3));
        assert_ne!(reference_task(3), reference_task(4));
        let (a, b) = (Reference::run(20), Reference::run(30));
        let both = a.merge(b);
        assert_eq!(both.units, 50);
        assert!(both.unit_wall_s() > 0.0 && both.unit_cpu_s() > 0.0);
    }

    #[test]
    fn process_cpu_time_advances_with_work() {
        let before = process_cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_cpu_s() > before, "{x}");
    }
}
