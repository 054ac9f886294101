//! The repository benchmark.
//!
//! `perfbench --workload <ingest|retrieve-cold|serve-shared> --seed <n>
//! --seconds <s> --trace <0|1>` builds the workload's inputs from the
//! seed, sets up (several times; the median is `setup_s`), measures for
//! the given seconds, checks every output against the generated truth,
//! and prints a report followed by one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the run replays the
//! workload down the layer ladder (see `ladder.rs`) and reports per-layer
//! metrics instead. See README.md for what each metric means.

mod cold;
mod common;
mod ingest;
mod ladder;
mod mix;
mod shared;
mod speed;
mod stats;
mod trace;

use common::{Metrics, Outcome};
use std::sync::OnceLock;
use std::time::Instant;

/// End-to-end metrics every workload reports, with their units.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_rps", "replies/s"),
    ("goodput_rps", "replies/s"),
    ("bytes_per_reply", "B"),
    ("ingest_mb_s", "MB/s"),
    ("archive_ratio", "x"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run. A layer a workload does not use
/// reports 0.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("mgard.encode_mb_s", "MB/s"),
    ("zfp.encode_mb_s", "MB/s"),
    ("sz.encode_mb_s", "MB/s"),
    ("field.refactor_ms", "ms"),
    ("fragstore.write_ms", "ms"),
    ("fragstore.archive_bytes", "B"),
    ("archive.open_ms", "ms"),
    ("plan.resolve_ms", "ms"),
    ("fragstore.read_ms", "ms"),
    ("fragstore.read_ops", "count"),
    ("fragstore.fragments_read", "count"),
    ("mgard.decode_mb_s", "MB/s"),
    ("zfp.decode_mb_s", "MB/s"),
    ("sz.decode_mb_s", "MB/s"),
    ("mgard.recompose_ms", "ms"),
    ("refactored.refine_ms", "ms"),
    ("refactored.recompose_passes", "count"),
    ("refactored.recon_cache_hits", "count"),
    ("qoi.estimate_ms", "ms"),
    ("engine.iterations", "count"),
    ("engine.execute_ms", "ms"),
    ("engine.self_ms", "ms"),
    ("archive.service_ms", "ms"),
    ("server.service_ms", "ms"),
    ("server.queue_wait_p50_ms", "ms"),
    ("server.queue_wait_max_ms", "ms"),
    ("server.coalesced_share", "share"),
    ("server.shed", "count"),
    ("wire.overhead_ms", "ms"),
    ("wire.bytes_per_reply", "B"),
    ("store.fragments_decoded", "count"),
    ("store.refine_reuses", "count"),
    ("store.epoch_short_circuits", "count"),
    ("store.plan_front_hit_ratio", "share"),
    ("store.decode_free_share", "share"),
    ("store.resident_mb", "MB"),
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.late_share", "share"),
    ("trace.overhead_pct", "%"),
    ("failed_frac", "share"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a result needs beside its metrics to be read later.
#[derive(Default)]
pub struct Notes {
    pub working_set_bytes: u64,
    pub offered_rps: Option<f64>,
    pub limit_ms: Option<f64>,
    pub connections: Option<usize>,
    /// Median speed factor of the timed phase and the probes it rests on.
    pub speed: Option<(f64, usize)>,
}

static PROCESS_START: OnceLock<Instant> = OnceLock::new();

/// Runs `setup` [`SETUPS`] times, keeps the last result, and returns it
/// with the median set-up time in seconds and the number of set-ups. The
/// first set-up is timed from process start.
pub fn repeated_setup<S>(mut setup: impl FnMut() -> S) -> (S, (f64, usize)) {
    let mut times = Vec::new();
    let mut last = None;
    for k in 0..SETUPS {
        let t = if k == 0 {
            *PROCESS_START.get().expect("set in main")
        } else {
            Instant::now()
        };
        drop(last.take());
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (
        last.expect("at least one set-up"),
        (stats::median(&times), SETUPS),
    )
}

/// Records the tracing overhead: recorded spans times the measured cost
/// of one span, as a share of the traced run's wall time.
pub fn trace_overhead(m: &mut Metrics, tr: &trace::Trace) {
    let wall_ms = PROCESS_START
        .get()
        .expect("set in main")
        .elapsed()
        .as_secs_f64()
        * 1e3;
    let cost_ms = tr.len() as f64 * trace::Trace::cost_per_span_ns() / 1e6;
    m.add(
        "trace.overhead_pct",
        "%",
        100.0 * cost_ms / wall_ms,
        tr.len(),
        "span cost / run wall time",
    );
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// `key: value` of the machine's cache sizes, from sysfs.
fn cache_sizes() -> String {
    let mut out = Vec::new();
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read =
            |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).map(|s| s.trim().to_string());
        if let (Ok(level), Ok(kind), Ok(size)) = (read("level"), read("type"), read("size")) {
            if level != "1" {
                out.push(format!("L{level} {kind} {size}"));
            }
        }
    }
    if out.is_empty() {
        "unknown".into()
    } else {
        out.join(", ")
    }
}

/// Share of CPU time the hypervisor took from this machine during the
/// run: a noisy neighbour shows here, not in the program.
fn steal_pct(start: Option<speed::CpuTicks>, end: Option<speed::CpuTicks>) -> String {
    match (start, end) {
        (Some(a), Some(b)) if b.total > a.total => format!(
            "{:.2}",
            100.0 * (b.stolen - a.stolen) as f64 / (b.total - a.total) as f64
        ),
        _ => "null".into(),
    }
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn main() {
    PROCESS_START.get_or_init(Instant::now);
    let cpu_start = speed::cpu_ticks();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <ingest|retrieve-cold|serve-shared> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let mut out = Outcome::default();
    let mut notes = Notes::default();
    let mut metrics = match args.workload.as_str() {
        "ingest" => ingest::run(&args, &mut out, &mut notes),
        "retrieve-cold" => cold::run(&args, &mut out, &mut notes),
        "serve-shared" => shared::run(&args, &mut out, &mut notes),
        other => {
            eprintln!("perfbench: unknown workload '{other}'");
            std::process::exit(2);
        }
    };
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    metrics.add("peak_rss_mb", "MB", common::peak_rss_mb(), 1, "VmHWM");
    if args.trace {
        metrics.add(
            "failed_frac",
            "share",
            failed_frac,
            out.attempted as usize,
            "failed / attempted",
        );
    }

    // the environment this result was measured in
    let git = if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown (not a git checkout)".into()
    };
    let env = [
        ("workload", json_str(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", (args.trace as u8).to_string()),
        ("nproc", common::nproc().to_string()),
        ("workers", common::workers().to_string()),
        (
            "PQR_THREADS",
            json_str(&std::env::var("PQR_THREADS").unwrap_or_else(|_| "unset".into())),
        ),
        ("rustc", json_str(&command_line("rustc", &["--version"]))),
        ("git_commit", json_str(&git)),
        (
            "offered_rps",
            notes.offered_rps.map_or("null".into(), |r| format!("{r}")),
        ),
        (
            "latency_limit_ms",
            notes.limit_ms.map_or("null".into(), |r| format!("{r}")),
        ),
        (
            "working_set_bytes_computed",
            notes.working_set_bytes.to_string(),
        ),
        ("caches", json_str(&cache_sizes())),
        ("host_steal_pct", steal_pct(cpu_start, speed::cpu_ticks())),
        (
            "connections",
            notes.connections.map_or("null".into(), |c| c.to_string()),
        ),
        (
            "speed_factor",
            notes
                .speed
                .map_or("null".into(), |(f, _)| format!("{f:.4}")),
        ),
        (
            "speed_probes",
            notes.speed.map_or("null".into(), |(_, n)| n.to_string()),
        ),
    ];
    let env: Vec<String> = env.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    println!("# env {{{}}}", env.join(", "));

    // keep exactly the metrics this mode reports, each once, in list order
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut body = Vec::new();
    for &(name, unit) in wanted {
        let found = metrics.0.iter().find(|m| m.name == name);
        let (value, samples, stat) = match found {
            Some(m) => {
                assert_eq!(m.unit, unit, "unit of {name}");
                let idle = m.samples == 0 && m.value == 0.0;
                (
                    m.value,
                    m.samples,
                    if idle {
                        "idle on this workload"
                    } else {
                        m.stat.as_str()
                    },
                )
            }
            None if args.trace => (0.0, 0, "idle on this workload"),
            None => panic!("workload {} did not report {name}", args.workload),
        };
        println!("# {name:<30} {value:>14.4} {unit:<9} n={samples:<6} {stat}");
        body.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": {}}}",
            json_str(unit)
        ));
    }
    if !args.trace {
        println!(
            "# {:<30} {:>14.4} {:<9} n={:<6} failed / attempted",
            "failed_frac", failed_frac, "share", out.attempted
        );
    }
    // what the workload measured beyond this mode's list, for the reader
    for m in metrics
        .0
        .iter()
        .filter(|m| !wanted.iter().any(|w| w.0 == m.name))
    {
        println!(
            "# also {:<25} {:>14.4} {:<9} n={:<6} {}",
            m.name, m.value, m.unit, m.samples, m.stat
        );
    }
    for msg in &out.messages {
        println!("# FAILED {msg}");
    }
    for msg in &out.count_mismatches {
        println!("# COUNT MISMATCH {msg}");
    }
    if let Some(why) = &out.invalid {
        println!("# INVALID RUN {why}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_printed_metric_name_is_valid() {
        for (name, _) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(stats::valid_metric_name(name), "{name}");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let workloads = 3;
        assert_eq!(
            json.matches("\"name\":").count(),
            workloads + END_TO_END.len() + PER_LAYER.len()
        );
    }
}
