//! Pieces every workload shares: inputs and their ground truth, output
//! checks, the exact-repeat check on counts, the scratch directory and the
//! report that becomes the benchmark's output.

use crate::speed::Speed;
use crate::stats;
use pqr_datagen::RawDataset;
use pqr_qoi::QoiExpr;
use std::collections::BTreeMap;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The raw-data side of a workload: the generated fields and, per
/// registered QoI, its expression and its true values on those fields.
pub struct Inputs {
    pub raw: RawDataset,
    pub qois: Vec<(&'static str, QoiExpr)>,
    pub truth: BTreeMap<&'static str, Vec<f64>>,
}

impl Inputs {
    pub fn new(raw: RawDataset, qois: Vec<(&'static str, QoiExpr)>) -> Self {
        let n = raw.num_elements();
        let nv = raw.fields.len();
        let truth = qois
            .iter()
            .map(|(name, expr)| {
                let mut x = vec![0.0; nv];
                let values = (0..n)
                    .map(|j| {
                        for (i, (_, f)) in raw.fields.iter().enumerate() {
                            x[i] = f[j];
                        }
                        expr.eval(&x)
                    })
                    .collect();
                (*name, values)
            })
            .collect();
        Self { raw, qois, truth }
    }

    pub fn raw_bytes(&self) -> u64 {
        self.raw.raw_bytes() as u64
    }

    /// An archive builder holding these fields and QoIs.
    pub fn builder(&self) -> pqr_core::ArchiveBuilder {
        let mut b = pqr_core::ArchiveBuilder::new(&self.raw.dims);
        for (name, data) in &self.raw.fields {
            b = b.field(name, data.clone());
        }
        for (name, expr) in &self.qois {
            b = b.qoi(name, expr.clone());
        }
        b
    }
}

/// Slack for floating-point evaluation order between the engine and the
/// check: the true error may exceed the certified bound by this relative
/// share of the QoI's magnitude and still count as certified.
const EVAL_SLACK: f64 = 1e-12;

/// Checks one certified target: it must be satisfied, its certified bound
/// must meet its tolerance, and its true error against the datagen truth
/// must stay within the certified bound.
pub fn check_target(
    name: &str,
    truth: &[f64],
    values: &[f64],
    satisfied: bool,
    bound: f64,
    tol_abs: f64,
) -> Result<(), String> {
    if !satisfied || bound.is_nan() || bound > tol_abs {
        return Err(format!(
            "{name}: not certified (satisfied {satisfied}, bound {bound:.3e}, tolerance {tol_abs:.3e})"
        ));
    }
    if values.len() != truth.len() {
        return Err(format!(
            "{name}: {} values for {} points",
            values.len(),
            truth.len()
        ));
    }
    let mut worst = (0.0f64, 0usize);
    for (j, (v, t)) in values.iter().zip(truth).enumerate() {
        let excess = (v - t).abs() - bound - EVAL_SLACK * t.abs().max(v.abs());
        let excess = if excess.is_nan() {
            f64::INFINITY
        } else {
            excess
        };
        if excess > worst.0 {
            worst = (excess, j);
        }
    }
    if worst.0 > 0.0 {
        let j = worst.1;
        return Err(format!(
            "{name}: true error {:.3e} at point {j} exceeds certified bound {bound:.3e}",
            (values[j] - truth[j]).abs()
        ));
    }
    Ok(())
}

/// Attempted and failed operations, with the first failure messages.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
    /// Counts that must repeat exactly for one seed: key → first value.
    counts: BTreeMap<String, u64>,
    pub count_mismatches: Vec<String>,
    /// Set when the run cannot stand as a measurement.
    pub invalid: Option<String>,
}

impl Outcome {
    /// Records one attempted operation and its check.
    pub fn record(&mut self, what: &str, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = check {
            self.fail(format!("{what}: {e}"));
        }
    }

    /// Records a failure of an operation already counted as attempted.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.messages.len() < 20 {
            self.messages.push(message);
        }
    }

    /// A count that must be identical every time `key` recurs under one
    /// seed; a differing repeat is flagged.
    pub fn repeat_count(&mut self, key: String, value: u64) {
        match self.counts.get(&key) {
            None => {
                self.counts.insert(key, value);
            }
            Some(&first) if first != value => {
                self.count_mismatches
                    .push(format!("{key}: first {first}, repeat {value}"));
            }
            Some(_) => {}
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.count_mismatches.is_empty() && self.invalid.is_none()
    }
}

/// One reported metric: its value, unit, how many samples it summarises
/// and which statistic it is.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
    pub stat: String,
}

#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn add(
        &mut self,
        name: &'static str,
        unit: &'static str,
        value: f64,
        samples: usize,
        stat: impl Into<String>,
    ) {
        assert!(stats::valid_metric_name(name), "metric name {name}");
        self.0.push(Metric {
            name,
            unit,
            value,
            samples,
            stat: stat.into(),
        });
    }

    /// Replaces the value of an already reported metric.
    pub fn set(&mut self, name: &str, value: f64, samples: usize, stat: &str) {
        let m = self
            .0
            .iter_mut()
            .find(|m| m.name == name)
            .expect("metric reported before");
        m.value = value;
        m.samples = samples;
        m.stat = stat.into();
    }

    /// `latency_p50_ms`: the median of the per-window p50s, so a passing
    /// disturbance on the machine moves one window, not the result.
    /// `latency_tail_ms`: the highest of p90/p95/p99 with ten samples
    /// beyond it, per window when every window has 100 samples (the median
    /// window's), else over the whole run. Both are taken at the reference
    /// speed (see `speed.rs`); the wall-clock figures are reported beside
    /// them as `latency_p50_wall_ms` and `latency_tail_wall_ms`.
    pub fn latency(&mut self, ops: &[Op], norm: &[f64], unit: usize, out: &mut Outcome) {
        let n = ops.len();
        if n < WINDOWS {
            out.invalid = Some(format!("{n} latency samples"));
            self.add("latency_p50_ms", "ms", 0.0, n, "too few samples");
            self.add("latency_tail_ms", "ms", 0.0, n, "too few samples");
            return;
        }
        let wall: Vec<f64> = ops.iter().map(Op::wall_ms).collect();
        let windows = windows(n, unit);
        let tail_per_window = windows.iter().all(|w| w.len() >= 100);
        let names = [
            ("latency_p50_ms", "latency_tail_ms", "at reference speed, "),
            (
                "latency_p50_wall_ms",
                "latency_tail_wall_ms",
                "wall clock, ",
            ),
        ];
        for (values, (p50_name, tail_name, clock)) in [norm, &wall].into_iter().zip(names) {
            let p50s: Vec<f64> = windows
                .iter()
                .map(|w| stats::median(&values[w.clone()]))
                .collect();
            self.add(
                p50_name,
                "ms",
                stats::median(&p50s),
                n,
                format!("{clock}median of {} windows' p50", windows.len()),
            );
            // the tail is taken per window too when every window holds
            // enough samples for it, else over the whole run
            let (parts, scope) = if tail_per_window {
                (windows.clone(), "median of windows' ")
            } else {
                (std::iter::once(0..n).collect(), "")
            };
            let mut tails = Vec::new();
            let mut label = String::new();
            for w in parts {
                let s = stats::sorted(&values[w]);
                match stats::tail_percentile(s.len()) {
                    Some(p) => {
                        tails.push(stats::percentile(&s, p));
                        label = format!("{clock}{scope}p{p}");
                    }
                    None => {
                        out.invalid = Some(format!(
                            "{} latency samples: too few for a tail with ten samples beyond p90",
                            s.len()
                        ));
                        tails.push(s[s.len() - 1]);
                        label = format!("{clock}max");
                    }
                }
            }
            self.add(tail_name, "ms", stats::median(&tails), n, label);
        }
    }

    /// Closed loop: `throughput_rps` (replies per busy second) and
    /// `goodput_rps` (certified replies within `limit_ms` per busy
    /// second), each the median over windows and at the reference speed;
    /// the wall-clock throughput goes beside them. Returns the throughput.
    pub fn closed_loop_rates(
        &mut self,
        ops: &[Op],
        norm: &[f64],
        unit: usize,
        limit_ms: f64,
    ) -> f64 {
        let n = ops.len();
        let (mut rates, mut good, mut wall) = (Vec::new(), Vec::new(), Vec::new());
        let windows = windows(n, unit);
        for w in &windows {
            let busy_s = norm[w.clone()].iter().sum::<f64>() / 1e3;
            rates.push(w.len() as f64 / busy_s);
            let within = w.clone().filter(|&i| ops[i].ok && norm[i] <= limit_ms);
            good.push(within.count() as f64 / busy_s);
            let wall_s = ops[w.clone()].iter().map(Op::wall_ms).sum::<f64>() / 1e3;
            wall.push(w.len() as f64 / wall_s);
        }
        let rate = stats::median(&rates);
        let stat = format!(
            "per busy second at reference speed, median of {} windows",
            windows.len()
        );
        self.add("throughput_rps", "replies/s", rate, n, stat.clone());
        self.add(
            "goodput_rps",
            "replies/s",
            stats::median(&good),
            n,
            format!("within {limit_ms} ms, {stat}"),
        );
        self.add(
            "throughput_wall_rps",
            "replies/s",
            stats::median(&wall),
            n,
            format!(
                "per busy wall-clock second, median of {} windows",
                windows.len()
            ),
        );
        rate
    }
}

/// One timed operation: when it started (or was due) and ended, and
/// whether its output checked out.
pub struct Op {
    pub start: Instant,
    pub end: Instant,
    pub ok: bool,
}

impl Op {
    pub fn wall_ms(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64() * 1e3
    }
}

/// Each operation's time at the reference speed, for work that keeps the
/// CPUs busy (closed loops, archive builds).
pub fn normalised_ms(ops: &[Op], speed: &Speed) -> Vec<f64> {
    ops.iter()
        .map(|o| o.wall_ms() * speed.factor(o.start, o.end))
        .collect()
}

/// Each request's latency at the reference speed, for an open loop whose
/// requests mostly wait and wake: scaled by the speed factor only.
pub fn normalised_open_ms(ops: &[Op], speed: &Speed) -> Vec<f64> {
    ops.iter()
        .map(|o| o.wall_ms() * speed.speed_factor(o.start, o.end))
        .collect()
}

/// Most windows a run's operations are split into.
pub const WINDOWS: usize = 5;

/// `n` operations (in time order) in up to [`WINDOWS`] consecutive
/// windows, each a whole number of `unit`s, the period of the workload's
/// request mix, so every window weighs the mix alike; the last window
/// takes the rest.
fn windows(n: usize, unit: usize) -> Vec<Range<usize>> {
    let periods = (n / unit).max(1);
    let k = periods.min(WINDOWS);
    let per = periods / k * unit;
    (0..k)
        .map(|i| i * per..if i + 1 == k { n } else { (i + 1) * per })
        .collect()
}

/// Scratch directory under the checkout for archive files; removed when
/// dropped.
pub struct WorkDir(PathBuf, std::sync::atomic::AtomicUsize);

impl WorkDir {
    pub fn new() -> std::io::Result<Self> {
        let p = PathBuf::from(".bench_work").join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&p)?;
        Ok(Self(p, Default::default()))
    }

    /// A path no earlier call returned. Archives go to fresh files: an
    /// ingest writes a new archive, it does not overwrite an old one.
    pub fn fresh(&self, name: &str) -> PathBuf {
        let k = self.1.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.0.join(format!("{k}-{name}"))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // the parent goes too when no other run is using it
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// Length and FNV-1a hash of a file: identity of a written archive.
pub fn file_identity(path: &Path) -> std::io::Result<(u64, u64)> {
    let bytes = std::fs::read(path)?;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in &bytes {
        h = (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
    }
    Ok((bytes.len() as u64, h))
}

/// The process's peak resident set (VmHWM) in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Worker threads the benchmark hands the library: the library's resolved
/// count (`PQR_THREADS`, else the cores), clamped to the cores.
pub fn workers() -> usize {
    pqr_util::par::worker_count().min(nproc())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
