//! Measurement helpers: process CPU time, peak RSS, the tail-percentile
//! rule, medians, a seeded generator, the host-speed calibration that
//! scales measured times, and the span accumulators the traced runs
//! record into.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Latency at the highest percentile that still has at least
/// [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The latency at that percentile.
    pub value: f64,
    /// The percentile, in percent.
    pub percentile: f64,
    /// Samples strictly beyond it.
    pub beyond: usize,
}

/// How many samples the tail percentile must leave beyond itself.
pub const TAIL_BEYOND: usize = 10;

/// The tail rule: with `n` samples and nearest-rank percentiles, the
/// p-th percentile is the sample of rank `ceil(p·n/100)`, which leaves
/// `n - rank` samples beyond it. The highest p leaving at least ten is
/// `100·(n-10)/n`, whose value is the eleventh-largest sample. `None`
/// when fewer than eleven samples exist.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = n - TAIL_BEYOND;
    Some(Tail {
        value: sorted[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        beyond: n - rank,
    })
}

/// Median (mean of the middle pair for even counts); `NaN` when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(target_os = "linux")]
mod ffi {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }

    /// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>`.
    pub const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

    extern "C" {
        // std already links libc, which provides this symbol.
        pub fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
}

/// CPU time consumed so far by every thread of this process, from
/// `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`.
#[cfg(target_os = "linux")]
pub fn process_cpu_time() -> Duration {
    let mut ts = ffi::Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the whole
    // call, and the clock id is a constant the kernel always accepts.
    let rc = unsafe { ffi::clock_gettime(ffi::CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time is only read through Linux's process clock.
#[cfg(not(target_os = "linux"))]
pub fn process_cpu_time() -> Duration {
    panic!("process CPU time needs CLOCK_PROCESS_CPUTIME_ID (Linux only)")
}

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status` text,
/// in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(value)
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

/// SplitMix64: a small seeded generator for input synthesis.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A span accumulator: total nanoseconds and calls of one layer
/// boundary. Shared across threads by the seam wrappers.
#[derive(Debug, Default)]
pub struct Acc {
    nanos: AtomicU64,
    calls: AtomicU64,
}

impl Acc {
    /// Runs `f`, adding its wall time and one call.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let out = f();
        self.add(started.elapsed());
        out
    }

    /// Adds one call of duration `d`.
    pub fn add(&self, d: Duration) {
        self.nanos.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    /// Total milliseconds recorded.
    pub fn ms(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 / 1e6
    }

    /// Calls recorded.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Forgets everything recorded so far (warm-up is discarded).
    pub fn reset(&self) {
        self.nanos.store(0, Ordering::Relaxed);
        self.calls.store(0, Ordering::Relaxed);
    }
}

/// What one calibration pass takes on the nominal host, in
/// milliseconds. Scaled times read as if measured on that host.
pub const CAL_NOMINAL_MS: f64 = 0.5;

/// Side of the calibration kernel's square matrices.
const CAL_N: usize = 48;
/// Matrix products in one calibration pass.
const CAL_PRODUCTS: usize = 4;
/// Passes per calibration; the fastest one counts, so a pass the
/// scheduler interrupts does not skew the scale.
const CAL_PASSES: usize = 2;

/// A fixed floating-point kernel owned by the benchmark: dense products
/// of two constant 48×48 matrices. Nothing in it depends on the
/// program, so a change to the program cannot change its time; only
/// the host's speed can.
pub struct Kernel {
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
}

impl Kernel {
    /// The kernel with its constant inputs.
    pub fn new() -> Kernel {
        let mut rng = SplitMix::new(0x5eed);
        let mut fill = || -> Vec<f64> {
            (0..CAL_N * CAL_N)
                .map(|_| rng.below(1000) as f64 / 1000.0 - 0.5)
                .collect()
        };
        let (a, b) = (fill(), fill());
        Kernel {
            a,
            b,
            c: vec![0.0; CAL_N * CAL_N],
        }
    }

    /// One pass, in milliseconds. Every pass does identical work on
    /// identical inputs.
    fn pass(&mut self) -> f64 {
        let started = Instant::now();
        for _ in 0..CAL_PRODUCTS {
            for i in 0..CAL_N {
                for j in 0..CAL_N {
                    let mut acc = 0.0;
                    for k in 0..CAL_N {
                        acc += self.a[i * CAL_N + k] * self.b[k * CAL_N + j];
                    }
                    self.c[i * CAL_N + j] = acc;
                }
            }
            std::hint::black_box(&mut self.c);
        }
        ms(started.elapsed())
    }

    /// The fastest of [`CAL_PASSES`] passes, in milliseconds.
    pub fn calibrate(&mut self) -> f64 {
        (0..CAL_PASSES)
            .map(|_| self.pass())
            .fold(f64::INFINITY, f64::min)
    }
}

/// One stretch of work timed by a [`HostClock`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Timed {
    /// Wall time of the stretch.
    pub wall: Duration,
    /// Process CPU time of the stretch, every thread included.
    pub cpu: Duration,
    /// Factor from measured to nominal-host time: the nominal
    /// calibration time over the mean of the calibrations just before
    /// and just after the stretch.
    pub scale: f64,
}

impl Timed {
    /// Wall milliseconds as measured.
    pub fn ms(&self) -> f64 {
        ms(self.wall)
    }

    /// Wall milliseconds scaled to the nominal host.
    pub fn scaled_ms(&self) -> f64 {
        self.ms() * self.scale
    }
}

/// A sum of stretches, such as the pieces of one set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct Total {
    /// Milliseconds as measured.
    pub ms: f64,
    /// Milliseconds scaled to the nominal host.
    pub scaled_ms: f64,
}

/// Times stretches of work and the host's speed around each one.
///
/// A shared host runs this benchmark at a speed that drifts by a
/// quarter or more within seconds, as other tenants come and go. Each
/// stretch is bracketed by calibrations of a fixed kernel, and its
/// times are scaled by how much slower or faster than nominal the host
/// ran that kernel next to it. Calibration time is outside every
/// stretch.
pub struct HostClock {
    kernel: Kernel,
    /// The calibration that ended the previous stretch, in ms.
    last_ms: f64,
    /// Start of the open stretch: wall and process CPU clocks.
    open: Option<(Instant, Duration)>,
    /// Every calibration so far, in ms.
    calibrations: Vec<f64>,
}

impl HostClock {
    /// A clock whose first stretch is preceded by a calibration (after
    /// one discarded warm-up calibration).
    pub fn new() -> HostClock {
        let mut kernel = Kernel::new();
        kernel.calibrate();
        let last_ms = kernel.calibrate();
        HostClock {
            kernel,
            last_ms,
            open: None,
            calibrations: vec![last_ms],
        }
    }

    /// Opens a stretch.
    pub fn start(&mut self) {
        self.open = Some((Instant::now(), process_cpu_time()));
    }

    /// Closes the open stretch and calibrates.
    pub fn stop(&mut self) -> Timed {
        let ended = self.end();
        let now_ms = self.kernel.calibrate();
        self.close(ended, now_ms)
    }

    /// Ends the open stretch; [`HostClock::close`] scales it once the
    /// calibration after it is measured.
    pub fn end(&mut self) -> Timed {
        let (wall, cpu) = self.open.take().expect("a stretch is open");
        Timed {
            wall: wall.elapsed(),
            cpu: process_cpu_time().saturating_sub(cpu),
            scale: f64::NAN,
        }
    }

    /// Scales an ended stretch by the calibration before it and
    /// `calibration_ms`, measured just after it.
    pub fn close(&mut self, ended: Timed, calibration_ms: f64) -> Timed {
        let scale = CAL_NOMINAL_MS / ((self.last_ms + calibration_ms) / 2.0);
        self.last_ms = calibration_ms;
        self.calibrations.push(calibration_ms);
        Timed { scale, ..ended }
    }

    /// Runs `f` as one stretch.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, Timed) {
        self.start();
        let out = f();
        (out, self.stop())
    }

    /// Runs `f` as one stretch and adds it to `total`.
    pub fn time_into<R>(&mut self, total: &mut Total, f: impl FnOnce() -> R) -> R {
        let (out, t) = self.time(f);
        total.ms += t.ms();
        total.scaled_ms += t.scaled_ms();
        out
    }

    /// Median calibration so far, in ms.
    pub fn median_calibration_ms(&self) -> f64 {
        median(&self.calibrations)
    }
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_eleventh_largest_sample() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&samples).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.beyond, 10);
        // Exactly ten samples are strictly beyond the reported value.
        assert_eq!(samples.iter().filter(|&&s| s > t.value).count(), 10);
    }

    #[test]
    fn tail_percentile_rises_with_the_sample_count() {
        let samples: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        let t = tail(&samples).unwrap();
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 989.0);
        let small: Vec<f64> = (0..11).map(f64::from).collect();
        let t = tail(&small).unwrap();
        assert_eq!(t.value, 0.0);
        assert_eq!(t.beyond, 10);
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        assert_eq!(tail(&[1.0; 10]), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn cpu_time_advances_with_work() {
        let before = process_cpu_time();
        let mut x = 0u64;
        let started = Instant::now();
        while started.elapsed() < Duration::from_millis(30) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let spent = process_cpu_time() - before;
        assert!(spent >= Duration::from_millis(10), "spent {spent:?}");
    }

    #[test]
    fn host_clock_scales_by_the_calibration_around_a_stretch() {
        let mut clock = HostClock::new();
        let ((), t) = clock.time(|| std::thread::sleep(Duration::from_millis(5)));
        assert!(t.wall >= Duration::from_millis(5));
        assert!(t.scale.is_finite() && t.scale > 0.0);
        assert_eq!(t.scaled_ms(), t.ms() * t.scale);
        // The kernel is sized near its nominal time on a typical host.
        let cal = clock.median_calibration_ms();
        assert!(
            cal > CAL_NOMINAL_MS / 20.0 && cal < CAL_NOMINAL_MS * 20.0,
            "{cal}"
        );
        // A stretch closed with a given calibration is scaled by the
        // mean of it and the one before.
        clock.start();
        let ended = clock.end();
        let first = clock.close(ended, CAL_NOMINAL_MS * 2.0);
        clock.start();
        let ended = clock.end();
        let second = clock.close(ended, CAL_NOMINAL_MS * 4.0);
        assert!(first.scale.is_finite());
        assert_eq!(second.scale, 1.0 / 3.0);
    }

    #[test]
    fn calibration_passes_do_identical_work() {
        let mut kernel = Kernel::new();
        kernel.pass();
        let first = kernel.c.clone();
        kernel.pass();
        assert_eq!(kernel.c, first);
    }

    #[test]
    fn vm_hwm_parses_kib() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    4096 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(4096));
        assert_eq!(parse_vm_hwm_kib("VmRSS: 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM: 12 MB\n"), None);
        assert!(peak_rss_mib().unwrap() > 0.0);
    }

    #[test]
    fn splitmix_is_seeded_and_shuffles_a_permutation() {
        let mut a = SplitMix::new(7);
        let mut b = SplitMix::new(7);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut items: Vec<u32> = (0..50).collect();
        SplitMix::new(3).shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(items, sorted);
    }

    #[test]
    fn acc_sums_calls_and_time() {
        let acc = Acc::default();
        acc.add(Duration::from_micros(1500));
        assert_eq!(acc.time(|| 5), 5);
        assert_eq!(acc.calls(), 2);
        assert!(acc.ms() >= 1.5);
        acc.reset();
        assert_eq!(acc.calls(), 0);
    }
}
