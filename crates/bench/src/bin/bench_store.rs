//! Bounded-memory store harness: one mixed-tolerance request series
//! replayed against the same archive under three store budgets —
//! unbounded, ½ and ⅛ of the measured working set — then emits
//! `BENCH_store.json` (CI gates peak residency against the budget and
//! throughput against the unbounded arm).
//!
//! The unbounded arm doubles as the working-set probe: eviction is off but
//! the [`StoreBudget`] still tracks peak resident bytes, so its peak *is*
//! the working set the bounded arms are budgeted from. The series streams
//! across three field groups and then revisits each at a tighter and a
//! looser tolerance, so bounded arms must evict cold groups and
//! transparently rehydrate them on revisit — the cost the bench measures.
//!
//! Reported per arm: wall time, requests-per-second, peak/final resident
//! bytes, evictions, rehydration decodes/bytes and source bytes, plus the
//! derived throughput ratios. Sizes scale with `PQR_SCALE`; the output
//! path can be overridden with `PQR_BENCH_OUT`.

use pqr_bench::scaled;
use pqr_core::{Archive, ArchiveBuilder};
use pqr_progressive::pager::StoreBudget;
use pqr_qoi::QoiExpr;
use std::sync::Arc;
use std::time::Instant;

/// Timing repetitions per arm; the best (least-noise) run is recorded.
const RUNS: usize = 3;

/// Streaming pass over all six fields, tight revisits of the first
/// three, then one loose revisit: the tight revisits mix rehydration
/// with genuine advances, the final loose one is pure rehydration work
/// for a bounded store (no new fragments). Each request derives from a
/// single field — the store's eviction granularity — so even a ⅛ budget
/// (smaller than one decoded field here) serves the series with at most
/// one rehydration per revisit rather than thrashing inside a request.
const SERIES: [(&str, f64); 10] = [
    ("Vx2", 1e-4),
    ("Vy2", 1e-4),
    ("Vz2", 1e-4),
    ("P2", 1e-4),
    ("T2", 1e-4),
    ("Rho2", 1e-4),
    ("Vx2", 1e-7),
    ("Vy2", 1e-7),
    ("Vz2", 1e-7),
    ("Vx2", 1e-2),
];

struct Arm {
    budget_bytes: u64,
    wall_ms: f64,
    peak_resident: u64,
    resident_end: u64,
    evictions: u64,
    rehydration_decodes: u64,
    rehydration_bytes: u64,
    source_bytes: u64,
}

impl Arm {
    fn requests_per_s(&self) -> f64 {
        SERIES.len() as f64 / (self.wall_ms / 1e3).max(1e-9)
    }
}

fn build_archive(path: &std::path::Path) {
    let n = scaled(120_000);
    let mut builder = ArchiveBuilder::new(&[n]);
    for (f, name) in ["Vx", "Vy", "Vz", "P", "T", "rho"].iter().enumerate() {
        // smooth flow + deterministic broadband noise:
        // the noise floor keeps deep bitplanes incompressible so tight
        // tolerances carry real decode (and thus real rehydration) work
        let mut s = 0x9e37_79b9_7f4a_7c15u64 ^ (f as u64);
        builder = builder.field(
            name,
            (0..n)
                .map(|i| {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    let noise = (s as f64 / u64::MAX as f64 - 0.5) * 2.0;
                    let x = i as f64 / n as f64;
                    (x * (7.0 + f as f64)).sin() * 20.0 + (x * 31.0).cos() * 3.0 + noise + 40.0
                })
                .collect(),
        );
    }
    for (f, name) in ["Vx2", "Vy2", "Vz2", "P2", "T2", "Rho2"].iter().enumerate() {
        builder = builder.qoi(name, QoiExpr::var(f).pow(2));
    }
    builder
        .build()
        .expect("archive build")
        .save(path)
        .expect("archive save");
}

/// Replays the series against a fresh service under `limit` (0 =
/// unbounded); each request is its own session, as a serving layer would
/// issue them.
fn run_arm(path: &std::path::Path, limit: u64) -> Arm {
    let mut best: Option<Arm> = None;
    for _ in 0..RUNS {
        let budget = Arc::new(if limit == 0 {
            StoreBudget::unbounded()
        } else {
            StoreBudget::with_limit(limit)
        });
        // archive open + service construction inside the timed region:
        // both arms pay identical setup, so ratios isolate eviction cost
        let t0 = Instant::now();
        let archive = Archive::open(path).expect("open archive");
        let service = archive
            .service_with_budget(Arc::clone(&budget))
            .expect("service");
        for (name, tol) in SERIES {
            let mut session = service.session().expect("session");
            assert!(
                session.request(name, tol).expect("request").satisfied,
                "every bench request must certify ({name}@{tol})"
            );
        }
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let stats = service.store_stats();
        let arm = Arm {
            budget_bytes: limit,
            wall_ms,
            peak_resident: budget.peak_resident_bytes(),
            resident_end: stats.resident_bytes,
            evictions: stats.evictions,
            rehydration_decodes: stats.rehydration_decodes,
            rehydration_bytes: stats.rehydration_bytes,
            source_bytes: archive.source_stats().fetched_bytes,
        };
        if best.as_ref().is_none_or(|b| arm.wall_ms < b.wall_ms) {
            best = Some(arm);
        }
    }
    best.expect("at least one run")
}

fn json_arm(a: &Arm) -> String {
    format!(
        "{{\"budget_bytes\": {}, \"wall_ms\": {:.2}, \"requests_per_s\": {:.2}, \
         \"peak_resident_bytes\": {}, \"resident_end_bytes\": {}, \"evictions\": {}, \
         \"rehydration_decodes\": {}, \"rehydration_bytes\": {}, \"source_bytes\": {}}}",
        a.budget_bytes,
        a.wall_ms,
        a.requests_per_s(),
        a.peak_resident,
        a.resident_end,
        a.evictions,
        a.rehydration_decodes,
        a.rehydration_bytes,
        a.source_bytes
    )
}

fn main() {
    let dir = std::env::temp_dir().join("pqr_bench_store");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("store_{}.pqrx", std::process::id()));
    build_archive(&path);

    let unbounded = run_arm(&path, 0);
    let working_set = unbounded.peak_resident;
    assert!(working_set > 0, "peak tracking must see the working set");
    let half = run_arm(&path, working_set / 2);
    let eighth = run_arm(&path, working_set / 8);
    std::fs::remove_file(&path).ok();

    // eviction granularity is one field; the budget can be transiently
    // overshot by at most the field being (re)charged before enforcement
    // runs, so CI allows peaks up to budget + this slack
    let slack = working_set / 4;
    let ratio_half = half.requests_per_s() / unbounded.requests_per_s().max(1e-9);
    let ratio_eighth = eighth.requests_per_s() / unbounded.requests_per_s().max(1e-9);
    let json = format!(
        "{{\n  \"schema\": \"pqr-bench-store/1\",\n  \"requests\": {},\n  \
         \"traffic\": \"6 fields streamed, 3 revisited tight, one loose revisit (10 requests)\",\n  \
         \"working_set_bytes\": {working_set},\n  \"slack_bytes\": {slack},\n  \
         \"unbounded\": {},\n  \"half\": {},\n  \"eighth\": {},\n  \
         \"throughput_ratio_half\": {ratio_half:.3},\n  \
         \"throughput_ratio_eighth\": {ratio_eighth:.3}\n}}\n",
        SERIES.len(),
        json_arm(&unbounded),
        json_arm(&half),
        json_arm(&eighth),
    );
    let out = std::env::var("PQR_BENCH_OUT").unwrap_or_else(|_| "BENCH_store.json".into());
    std::fs::write(&out, &json).expect("write BENCH_store.json");
    println!("{json}");
    println!(
        "# unbounded {:.1} ms, half {:.1} ms ({ratio_half:.2}x), eighth {:.1} ms \
         ({ratio_eighth:.2}x); eighth peak {} B vs budget {} B (+{} slack); wrote {out}",
        unbounded.wall_ms,
        half.wall_ms,
        eighth.wall_ms,
        eighth.peak_resident,
        eighth.budget_bytes,
        slack
    );
}
