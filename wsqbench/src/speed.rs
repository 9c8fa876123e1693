//! Reference-speed timing.
//!
//! The sandbox is a guest on a busy host: a fixed arithmetic loop takes
//! 160 µs there when the host is quiet and 190–270 µs, shifting every
//! few seconds, when it is not (README "Machine speed"), so a CPU-bound
//! run's raw wall time moves ±15 % with nothing changed. A short
//! calibration kernel, run every 100 ms on the measuring thread, tracks
//! that speed; timings of work that is the program's own CPU are divided
//! by it, i.e. reported as they would read at the reference speed. Work
//! that is simulated waiting (`fanout_slow_web`) is reported raw: timers
//! do not slow down with the clock.

use std::time::{Duration, Instant};

/// What the kernel takes at the reference speed, µs: the fastest level
/// seen on the 2-core sandbox this benchmark was sized on. Only ratios
/// to it are used, so on another machine every normalised time shifts
/// by one factor, the same for both sides of a comparison.
const REF_KERNEL_US: f64 = 160.0;
const KERNEL_STEPS: u64 = 50_000;
/// 1 MiB: sits in L2 on a quiet host and is pushed out of it by a noisy
/// neighbour, so the kernel feels cache contention as the engine does.
const TABLE_WORDS: usize = 128 * 1024;
/// How long one speed reading stays in use.
const SLICE: Duration = Duration::from_millis(100);

/// Integer mixing with random access over the table: multiplies and
/// cache traffic, like the engine's own hashing and tuple shuffling.
fn kernel_us(table: &mut [u64]) -> f64 {
    let t0 = Instant::now();
    let mut x = 0x1234_u64;
    for i in 0..KERNEL_STEPS {
        x = x.wrapping_add(i);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        let slot = x as usize & (TABLE_WORDS - 1);
        table[slot] = table[slot].wrapping_add(x);
    }
    std::hint::black_box(&mut *table);
    t0.elapsed().as_nanos() as f64 / 1e3
}

/// Reads the machine's current speed relative to the reference (2.0 =
/// everything takes twice as long).
pub struct Speedometer {
    table: Vec<u64>,
}

impl Speedometer {
    pub fn new() -> Speedometer {
        Speedometer {
            table: vec![0; TABLE_WORDS],
        }
    }

    /// The faster of two kernel runs: a preempted run reads slow, never
    /// fast.
    pub fn read(&mut self) -> f64 {
        kernel_us(&mut self.table).min(kernel_us(&mut self.table)) / REF_KERNEL_US
    }
}

/// A clock for one measuring thread that converts raw durations to
/// reference-speed ones. Disabled, it is a plain clock (slowdown 1).
pub struct RefClock {
    meter: Option<Speedometer>,
    started: Instant,
    /// Time spent taking readings, which neither clock counts.
    reading: Duration,
    slowdown: f64,
    slice_start: Instant,
    /// Reference-speed seconds of the closed slices.
    elapsed_ref_s: f64,
}

impl RefClock {
    pub fn start(normalise: bool) -> RefClock {
        let mut meter = normalise.then(Speedometer::new);
        let slowdown = meter.as_mut().map_or(1.0, Speedometer::read);
        let now = Instant::now();
        RefClock {
            meter,
            started: now,
            reading: Duration::ZERO,
            slowdown,
            slice_start: now,
            elapsed_ref_s: 0.0,
        }
    }

    fn close_slice(&mut self) {
        self.elapsed_ref_s += self.slice_start.elapsed().as_secs_f64() / self.slowdown;
    }

    /// Call between ops: takes a fresh speed reading when the current
    /// one is 100 ms old. The reading's own time is not counted.
    pub fn tick(&mut self) {
        if self.slice_start.elapsed() >= SLICE {
            self.close_slice();
            let t0 = Instant::now();
            if let Some(meter) = &mut self.meter {
                self.slowdown = meter.read();
            }
            self.slice_start = Instant::now();
            self.reading += self.slice_start - t0;
        }
    }

    /// Reference-speed seconds since `start`.
    pub fn now_s(&self) -> f64 {
        self.elapsed_ref_s + self.slice_start.elapsed().as_secs_f64() / self.slowdown
    }

    /// Raw seconds per reference second since `start`: the slowdown a
    /// whole pass ran under, for timings summed over it.
    pub fn mean_slowdown(&self) -> f64 {
        (self.started.elapsed() - self.reading).as_secs_f64() / self.now_s()
    }

    /// A raw duration measured just now, at reference speed.
    pub fn scale(&self, raw: f64) -> f64 {
        raw / self.slowdown
    }
}

/// Time one set-up at reference speed (set-up is CPU on every workload):
/// the slowdown is read before and after, and their mean applied.
pub fn timed_setup<T>(work: impl FnOnce() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut meter = Speedometer::new();
    let before = meter.read();
    let t0 = Instant::now();
    let out = work();
    let raw_s = t0.elapsed().as_secs_f64();
    let after = meter.read();
    Ok((out?, raw_s / ((before + after) / 2.0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_disabled_clock_is_a_plain_clock() {
        let mut clock = RefClock::start(false);
        clock.tick();
        assert_eq!(clock.scale(12.5), 12.5);
        std::thread::sleep(Duration::from_millis(5));
        assert!(clock.now_s() >= 0.005);
    }

    #[test]
    fn scaling_divides_by_the_slowdown() {
        let mut clock = RefClock::start(false);
        clock.slowdown = 1.25;
        assert_eq!(clock.scale(10.0), 8.0);
        clock.slice_start = Instant::now() - Duration::from_millis(500);
        assert!((clock.now_s() - 0.4).abs() < 0.05, "{}", clock.now_s());
        clock.tick();
        assert!((clock.now_s() - 0.4).abs() < 0.05, "{}", clock.now_s());
        let plain = RefClock::start(false);
        std::thread::sleep(Duration::from_millis(5));
        assert!((plain.mean_slowdown() - 1.0).abs() < 0.01);
    }

    #[test]
    fn the_speedometer_reads_a_plausible_positive_ratio() {
        let r = Speedometer::new().read();
        assert!(r.is_finite() && r > 0.0);
    }
}
