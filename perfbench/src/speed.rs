//! Machine-speed normalisation.
//!
//! The benchmark runs on a few cores of a shared host whose speed moves by
//! tens of percent over a few seconds: a fixed single-threaded loop, with
//! nothing else running in the machine, took anywhere from 21 to 29 ms
//! from one 3-second stretch to the next, and its CPU time moved with it
//! (the host slows the cores; it does not only take them away). At other
//! times the hypervisor holds the cores outright (steal). A run of the
//! program meets different stretches than the next run, so its raw times
//! measure the host as much as the program.
//!
//! A fixed calibration kernel (the probe) therefore runs beside the
//! workload, in the benchmark's own thread, at moments when the program is
//! idle. Each timing is scaled by `REF_MS / probe`, the probe being the
//! median of the probes taken around that timing: the result is the time
//! the operation would have taken had the machine run at the speed at
//! which the probe takes [`REF_MS`]. Work that keeps the CPUs busy (closed
//! loops, archive builds) is further scaled by the share of the CPUs'
//! wanted time the hypervisor did not steal around it. The program's code
//! does not affect the probe, so a slower program still reads slower; only
//! the host's speed cancels out. Raw wall-clock figures are printed beside
//! the normalised ones.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The probe's time at the reference speed: its median on the recording
/// machine (see README).
pub const REF_MS: f64 = 3.5;

/// Probes within this much of a timing's start or end are the ones its
/// speed is taken from.
const NEIGHBOURHOOD: Duration = Duration::from_millis(500);

/// Words in the probe's buffer: 256 KiB, inside L2 like most of the
/// kernels' working blocks.
const WORDS: usize = 1 << 15;

/// Steps of the probe's loop over that buffer.
const STEPS: usize = 1 << 17;

/// Words in the probe's large buffer: 8 MiB, past L2, so the probe also
/// feels the shared cache, the memory and the page walks that the
/// program's larger arrays meet.
const BIG_WORDS: usize = 1 << 20;

/// Dependent random loads from the large buffer.
const BIG_STEPS: usize = 1 << 13;

/// Pseudo-random words, the same on every run.
fn words(n: usize) -> Vec<u64> {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect()
}

fn buffers() -> (&'static [u64], &'static [u64]) {
    static BUF: OnceLock<(Vec<u64>, Vec<u64>)> = OnceLock::new();
    let (small, big) = BUF.get_or_init(|| (words(WORDS), words(BIG_WORDS)));
    (small, big)
}

/// One run of the calibration kernel: a mix of data-dependent loads,
/// integer hashing, bit counting and floating-point multiply-adds, like
/// the bitplane coders and transforms it stands in for, then a chain of
/// dependent loads across a buffer larger than L2. Returns its wall time
/// in milliseconds.
pub fn probe() -> f64 {
    let (buf, big) = buffers();
    let t = Instant::now();
    let (mut h, mut j) = (0x243f_6a88_85a3_08d3u64, 0usize);
    let (mut a, mut b) = (0.0f64, 1.0f64);
    let mut bits = 0u32;
    for i in 0..STEPS {
        let w = buf[j];
        h = (h ^ w).rotate_left(23).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        bits += (w & h).count_ones();
        let v = (w >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        a = a.mul_add(0.999_999, v);
        b = b.mul_add(0.5, v * v) + 0.25;
        j = (j + 97 + (h as usize & 63) + (i & 1)) & (WORDS - 1);
    }
    for _ in 0..BIG_STEPS {
        let w = big[j];
        h = (h ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        j = (h >> 32) as usize & (BIG_WORDS - 1);
    }
    black_box((h, a, b, bits));
    t.elapsed().as_secs_f64() * 1e3
}

/// The machine's CPU time so far, in `/proc/stat` ticks, all CPUs
/// together.
#[derive(Clone, Copy)]
pub struct CpuTicks {
    /// User, nice, system, irq and softirq time.
    pub busy: u64,
    /// Time the hypervisor held a CPU that had work.
    pub stolen: u64,
    /// Every column, idle included.
    pub total: u64,
}

pub fn cpu_ticks() -> Option<CpuTicks> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let v: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    Some(CpuTicks {
        busy: v.first()? + v.get(1)? + v.get(2)? + v.get(5)? + v.get(6)?,
        stolen: *v.get(7)?,
        total: v.iter().sum(),
    })
}

/// Probes and CPU-time readings taken during a run, in time order.
#[derive(Default)]
pub struct Speed {
    probes: Vec<(Instant, f64)>,
    ticks: Vec<(Instant, u64, u64)>,
}

impl Speed {
    /// Runs the probe now and keeps it, with a CPU-time reading.
    pub fn probe(&mut self) {
        self.tick();
        let at = Instant::now();
        let ms = probe();
        self.probes.push((at, ms));
    }

    /// Keeps a probe taken elsewhere.
    pub fn push(&mut self, at: Instant, ms: f64) {
        self.probes.push((at, ms));
    }

    /// Keeps a CPU-time reading taken now.
    fn tick(&mut self) {
        if let Some(t) = cpu_ticks() {
            self.ticks.push((Instant::now(), t.busy, t.stolen));
        }
    }

    pub fn len(&self) -> usize {
        self.probes.len()
    }

    /// The factor that takes a wall-clock timing over `[start, end]` of
    /// work that keeps the CPUs busy to the reference speed: the speed
    /// factor times the share of the CPUs' wanted time that the
    /// hypervisor did not steal around the interval.
    pub fn factor(&self, start: Instant, end: Instant) -> f64 {
        self.speed_factor(start, end) * (1.0 - self.stolen_share(start, end))
    }

    /// `REF_MS` over the median probe taken within [`NEIGHBOURHOOD`] of
    /// `[start, end]` (or the two probes nearest to it when none was); 1
    /// when the run took no probe.
    pub fn speed_factor(&self, start: Instant, end: Instant) -> f64 {
        let near: Vec<f64> = self
            .probes
            .iter()
            .filter(|(at, _)| *at + NEIGHBOURHOOD >= start && *at <= end + NEIGHBOURHOOD)
            .map(|p| p.1)
            .collect();
        let ms = if near.is_empty() {
            let k = self.probes.partition_point(|p| p.0 < start);
            let nearest: Vec<f64> = self.probes
                [k.saturating_sub(1)..(k + 1).min(self.probes.len())]
                .iter()
                .map(|p| p.1)
                .collect();
            crate::stats::median(&nearest)
        } else {
            crate::stats::median(&near)
        };
        if ms > 0.0 {
            REF_MS / ms
        } else {
            1.0
        }
    }

    /// Share of the CPUs' wanted time the hypervisor stole between the
    /// last reading at least [`NEIGHBOURHOOD`] before `start` (or the
    /// first reading) and the first at least as far after `end` (or the
    /// last): `/proc/stat` counts in 10 ms ticks, so the span is widened
    /// until the count means something.
    fn stolen_share(&self, start: Instant, end: Instant) -> f64 {
        if self.ticks.len() < 2 {
            return 0.0;
        }
        let from = self
            .ticks
            .partition_point(|t| t.0 + NEIGHBOURHOOD <= start)
            .saturating_sub(1);
        let to = self
            .ticks
            .partition_point(|t| t.0 < end + NEIGHBOURHOOD)
            .min(self.ticks.len() - 1);
        let (a, b) = (self.ticks[from], self.ticks[to.max(from)]);
        let (busy, stolen) = (b.1 - a.1, b.2 - a.2);
        if busy + stolen == 0 {
            0.0
        } else {
            stolen as f64 / (busy + stolen) as f64
        }
    }

    /// Median factor over the run: how fast the machine ran against the
    /// reference, for the environment record.
    pub fn median_factor(&self) -> f64 {
        let ms: Vec<f64> = self.probes.iter().map(|p| p.1).collect();
        if ms.is_empty() {
            1.0
        } else {
            REF_MS / crate::stats::median(&ms)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_takes_the_median_probe_around_the_interval() {
        let t0 = Instant::now();
        let mut s = Speed::default();
        for (k, ms) in [2.0, 2.0, 4.0, 100.0].into_iter().enumerate() {
            s.push(t0 + Duration::from_millis(300 * k as u64), ms);
        }
        // probes at 0, 300 and 600 ms are within 500 ms of [0, 100 ms];
        // with no CPU-time readings nothing counts as stolen
        let f = s.factor(t0, t0 + Duration::from_millis(100));
        assert_eq!(f, REF_MS / 2.0);
        // a timing far from every probe takes the nearest ones
        let late = t0 + Duration::from_secs(10);
        assert_eq!(s.factor(late, late), REF_MS / 100.0);
        assert_eq!(Speed::default().factor(t0, t0), 1.0);
    }

    #[test]
    fn stolen_share_discounts_the_factor() {
        let t0 = Instant::now();
        let mut s = Speed::default();
        s.push(t0, REF_MS);
        // 20 of 100 wanted ticks stolen across the readings
        s.ticks.push((t0, 1000, 50));
        s.ticks.push((t0 + Duration::from_secs(2), 1080, 70));
        let mid = t0 + Duration::from_secs(1);
        assert!((s.factor(mid, mid) - 0.8).abs() < 1e-12);
        assert_eq!(s.speed_factor(mid, mid), 1.0);
    }
}
