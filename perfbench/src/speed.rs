//! Host speed, measured alongside the work, so that times and rates can be
//! reported at one reference speed.
//!
//! The benchmark runs on a few virtual CPUs of a shared host, whose speed
//! swings by a third within seconds and stays low for tens of seconds (the
//! CPU time of a solve moves with its wall time, so this is not time spent
//! descheduled but the core itself running slower). A fixed kernel of the
//! benchmark's own — the same work on every commit — is timed in short
//! slices interleaved with the operations. An operation's time is then
//! scaled by [`REFERENCE_SLICE_S`] over the mean slice time around it: a
//! slow stretch of the host lengthens both and cancels out, while a change
//! to the program moves only the operation.
//!
//! The kernel is a chain of integer multiplies, unpredictable branches and
//! floating-point multiply-adds on registers. Timed beside solver work on a
//! 2-vCPU virtual machine, it tracked the host's slow stretches best of the
//! kernels tried; pointer chases over rings from 4 KiB to 32 MiB hardly
//! moved, so the slowdown is in the core's execution, not its memory.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Kernel steps per slice (about 100 µs at the reference speed).
const STEPS: u32 = 11_000;
/// Operation time between two slices, seconds: slices take about a
/// fifteenth of the measured stretch.
const CADENCE_S: f64 = 0.0015;
/// Pause between the slices of a [`sample_until`] thread: about one per
/// cent of a core.
const SAMPLE_PERIOD: Duration = Duration::from_millis(10);
/// Slices on each side of an operation that set its speed.
const NEIGHBOURS: usize = 8;
/// Seconds on each side of an operation over which a sampling thread's
/// steal readings set its share of the processors.
const STEAL_SPAN_S: f64 = 0.5;
/// Slice time at the reference speed, seconds: about the median slice on
/// the machine the bounds were set on, a 2-vCPU virtual machine, so that
/// scaled times read close to its raw ones.
pub const REFERENCE_SLICE_S: f64 = 100e-6;

/// How a slice is timed.
#[derive(Clone, Copy)]
enum Clock {
    /// Wall time: the slice runs on the measuring thread, between
    /// operations, so it meets whatever slows the operations.
    Wall,
    /// CPU time of the slicing thread: the slice runs beside a
    /// multi-threaded workload and must not count its waits for a core.
    ThreadCpu,
}

/// The calibration kernel's state and the slices timed so far.
pub struct Speed {
    clock: Clock,
    state: u64,
    epoch: Instant,
    last: f64,
    /// Wall time spent in slices, seconds.
    busy: f64,
    /// `(end of the slice since epoch, slice time)`, both seconds, in order.
    slices: Vec<(f64, f64)>,
    /// `(seconds since epoch, stolen ticks, all ticks)` of the whole machine
    /// from `/proc/stat`, read by a sampling thread, in order.
    steal: Vec<(f64, u64, u64)>,
}

impl Speed {
    /// Slices on the calling thread, timed in wall time from `epoch`.
    pub fn new(epoch: Instant) -> Speed {
        Speed::with_clock(epoch, Clock::Wall)
    }

    fn with_clock(epoch: Instant, clock: Clock) -> Speed {
        let mut speed = Speed {
            clock,
            state: 0x9E37_79B9_7F4A_7C15,
            epoch,
            last: 0.0,
            busy: 0.0,
            slices: Vec::new(),
            steal: Vec::new(),
        };
        // A few untimed slices first, so the first timed one runs warm.
        for _ in 0..8 {
            speed.slice();
        }
        speed.slices.clear();
        speed.busy = 0.0;
        speed
    }

    /// One slice of the kernel, timed and recorded.
    fn slice(&mut self) {
        let t0 = Instant::now();
        let cpu0 = match self.clock {
            Clock::Wall => 0.0,
            Clock::ThreadCpu => thread_cpu_s(),
        };
        let (mut a, mut f) = (self.state, 1.0f64);
        for i in 0..STEPS {
            a = a
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(u64::from(i));
            if a >> 63 == 1 {
                f = f.mul_add(1.000_000_1, 0.3);
            } else {
                a ^= a >> 29;
            }
        }
        self.state = std::hint::black_box(a ^ f.to_bits());
        let wall = t0.elapsed().as_secs_f64();
        let took = match self.clock {
            Clock::Wall => wall,
            Clock::ThreadCpu => thread_cpu_s() - cpu0,
        };
        let end = t0.duration_since(self.epoch).as_secs_f64() + wall;
        self.slices.push((end, took));
        self.busy += wall;
        self.last = end;
    }

    /// Runs a slice when [`CADENCE_S`] has passed since the last one. Call
    /// it between operations, outside their timed spans.
    pub fn tick(&mut self) {
        if self.epoch.elapsed().as_secs_f64() - self.last >= CADENCE_S {
            self.slice();
        }
    }

    /// Wall time spent in slices so far, seconds.
    pub fn busy_s(&self) -> f64 {
        self.busy
    }

    /// Scale for an operation that ran from `start` to `end`: the reference
    /// slice time over the mean time of the slices run meanwhile and the
    /// [`NEIGHBOURS`] on each side, times the share of the processors the
    /// host left the machine around it when steal was read. Multiply a time
    /// by it, divide a rate by it.
    pub fn scale(&self, start: Instant, end: Instant) -> f64 {
        if self.slices.is_empty() {
            return 1.0;
        }
        let since = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64();
        let (from, to) = (since(start), since(end));
        let j0 = self.slices.partition_point(|&(e, _)| e <= from);
        let j1 = self.slices.partition_point(|&(e, _)| e <= to);
        let hi = (j1 + NEIGHBOURS).min(self.slices.len());
        let lo = j0.saturating_sub(NEIGHBOURS).min(hi - 1);
        let near = &self.slices[lo..hi];
        let mean = near.iter().map(|&(_, d)| d).sum::<f64>() / near.len() as f64;
        REFERENCE_SLICE_S / mean * self.available(from, to)
    }

    /// Share of the processors not stolen by the host between `from` and
    /// `to` (seconds since epoch), widened by [`STEAL_SPAN_S`] on each side;
    /// 1 without steal readings.
    fn available(&self, from: f64, to: f64) -> f64 {
        let j0 = self
            .steal
            .partition_point(|&(t, _, _)| t < from - STEAL_SPAN_S)
            .saturating_sub(1);
        let j1 = self
            .steal
            .partition_point(|&(t, _, _)| t <= to + STEAL_SPAN_S)
            .min(self.steal.len().saturating_sub(1));
        match (self.steal.get(j0), self.steal.get(j1)) {
            (Some(&(_, s0, a0)), Some(&(_, s1, a1))) if a1 > a0 => {
                1.0 - s1.saturating_sub(s0) as f64 / (a1 - a0) as f64
            }
            _ => 1.0,
        }
    }

    /// Median slice time so far, seconds.
    pub fn median_slice_s(&self) -> f64 {
        crate::stats::median(&self.slices.iter().map(|&(_, d)| d).collect::<Vec<_>>())
    }

    /// Slices timed so far.
    pub fn slices(&self) -> usize {
        self.slices.len()
    }
}

/// Slices every [`SAMPLE_PERIOD`] on the calling thread, timed in its CPU
/// time, until `stop` is set; for a workload whose own threads keep the
/// cores busy. Run it on a thread of its own.
///
/// CPU time leaves out the time the host stole from the virtual CPUs, which
/// the workload's wall-clock figures do include; so the machine's steal
/// counters are read with every slice too (see [`Speed::scale`]).
pub fn sample_until(epoch: Instant, stop: &AtomicBool) -> Speed {
    let mut speed = Speed::with_clock(epoch, Clock::ThreadCpu);
    while !stop.load(Ordering::Relaxed) {
        speed.slice();
        if let Some((stolen, all)) = steal_ticks() {
            speed
                .steal
                .push((epoch.elapsed().as_secs_f64(), stolen, all));
        }
        std::thread::sleep(SAMPLE_PERIOD);
    }
    speed
}

/// The machine's stolen and total processor ticks so far, from the `cpu`
/// line of `/proc/stat`; `None` where it cannot be read.
fn steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .take(8)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    // user, nice, system, idle, iowait, irq, softirq, steal.
    (ticks.len() == 8).then(|| (ticks[7], ticks.iter().sum()))
}

/// CPU time of the calling thread, seconds.
fn thread_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` (two 64-bit
    // fields on 64-bit Linux, matching `Timespec`) through a pointer to a
    // live local, and reads nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Prints the host speed a run measured, to standard error.
pub fn report(speed: &Speed) {
    let stolen = match (speed.steal.first(), speed.steal.last()) {
        (Some(&(_, s0, a0)), Some(&(_, s1, a1))) if a1 > a0 => format!(
            ", {:.1}% of the processors stolen by the host",
            100.0 * s1.saturating_sub(s0) as f64 / (a1 - a0) as f64
        ),
        _ => String::new(),
    };
    eprintln!(
        "host speed: median slice {:.1} us over {} slices (reference {:.1} us){stolen}",
        speed.median_slice_s() * 1e6,
        speed.slices(),
        REFERENCE_SLICE_S * 1e6
    );
}
