//! `ingest`: NYX-style 3-D velocity fields refactored to archive files
//! under PMGARD-HB, PZFP and PSZ3. Only the encode kernels and the
//! streaming fragment-store writer work here; the read path is idle.

use crate::common::{
    check_target, file_identity, normalised_ms, workers, Inputs, Metrics, Op, Outcome, WorkDir,
};
use crate::ladder::{self, Counters};
use crate::mix;
use crate::speed::Speed;
use crate::trace::Trace;
use crate::{Args, Notes};
use pqr_core::{Archive, RetrievalRequest};
use pqr_datagen::nyx::{self, NyxConfig};
use pqr_progressive::refactored::Scheme;
use pqr_qoi::library::velocity_magnitude;
use std::time::Instant;

/// Grid side of the generated fields: 48³ × 3 fields = 2.65 MB raw, so a
/// run times well over a hundred ingests.
pub const SIDE: usize = 48;

pub const SCHEMES: [Scheme; 3] = [Scheme::PmgardHb, Scheme::Pzfp, Scheme::Psz3];

/// An ingest slower than this misses the latency limit (about four times
/// the slowest scheme's ingest on the recording machine; see README).
pub const LIMIT_MS: f64 = 1000.0;

/// The deep retrieve each new archive is verified with.
const VERIFY_TOL: f64 = 1e-5;

/// NYX-style velocity fields of side `side`, seeded.
pub fn nyx_fields(seed: u64, side: usize) -> pqr_datagen::RawDataset {
    nyx::generate(&NyxConfig {
        n: side,
        seed: seed ^ 0x0057_a9e5,
        ..NyxConfig::small()
    })
}

/// Re-opens a written archive and checks one deep retrieve against the
/// truth. Returns (source bytes fetched, refine rounds).
fn verify(path: &std::path::Path, inputs: &Inputs) -> Result<(u64, u64), String> {
    let archive = Archive::open(path).map_err(|e| e.to_string())?;
    let mut session = archive.session().map_err(|e| e.to_string())?;
    let report = session
        .execute(&RetrievalRequest::new().qoi("V", VERIFY_TOL))
        .map_err(|e| e.to_string())?;
    let t = &report.targets[0];
    let values = session.qoi_values("V").map_err(|e| e.to_string())?;
    check_target(
        "V",
        &inputs.truth["V"],
        &values,
        t.satisfied,
        t.max_est_error,
        t.tol_abs,
    )?;
    Ok((
        archive.source_stats().fetched_bytes,
        report.iterations as u64,
    ))
}

struct Setup {
    inputs: Inputs,
    /// Per scheme: the verified archive's (length, hash).
    identity: Vec<(u64, u64)>,
    verify_bytes: u64,
}

/// Datagen, then one ingest per scheme, each re-opened and verified.
fn setup(args: &Args, dir: &WorkDir, out: &mut Outcome) -> Setup {
    let inputs = Inputs::new(
        nyx_fields(args.seed, SIDE),
        vec![("V", velocity_magnitude(0, 3))],
    );
    let mut identity = Vec::new();
    let mut verify_bytes = 0;
    for scheme in SCHEMES {
        let path = dir.fresh(&format!("verified-{}.pqrx", scheme.name()));
        let written = inputs
            .builder()
            .scheme(scheme)
            .build_to_path(&path, workers(), false);
        let check = written
            .map_err(|e| e.to_string())
            .and_then(|bytes| {
                out.repeat_count(format!("ingest.archive_bytes.{}", scheme.name()), bytes);
                verify(&path, &inputs)
            })
            .map(|(bytes, iterations)| {
                out.repeat_count(format!("ingest.verify_bytes.{}", scheme.name()), bytes);
                out.repeat_count(
                    format!("ingest.verify_iterations.{}", scheme.name()),
                    iterations,
                );
                verify_bytes += bytes;
            });
        out.record(&format!("verify {}", scheme.name()), check);
        identity.push(file_identity(&path).unwrap_or_default());
    }
    Setup {
        inputs,
        identity,
        verify_bytes,
    }
}

pub fn run(args: &Args, out: &mut Outcome, notes: &mut Notes) -> Metrics {
    let dir = WorkDir::new().expect("create the scratch directory");
    let (s, setup_s) = crate::repeated_setup(|| setup(args, &dir, out));
    let raw = s.inputs.raw_bytes();
    notes.working_set_bytes = raw + s.identity.iter().map(|i| i.0).max().unwrap_or(0);
    let mut m = Metrics::default();
    m.add("setup_s", "s", setup_s.0, setup_s.1, "median of setups");
    if args.trace {
        traced(args, &s, &dir, out, &mut m);
        return m;
    }

    let order = mix::ingest_order(args.seed, 10_000);
    let (mut ops, mut archive_bytes) = (Vec::new(), 0u64);
    let mut speed = Speed::default();
    let t0 = Instant::now();
    for (i, &k) in order.iter().enumerate() {
        // stop between cycles only, so every scheme weighs alike
        if i % SCHEMES.len() == 0 && t0.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        let builder = s.inputs.builder().scheme(SCHEMES[k]);
        let path = dir.fresh("ingest.pqrx");
        speed.probe();
        let start = Instant::now();
        let written = builder.build_to_path(&path, workers(), false);
        let end = Instant::now();
        // every ingest of one scheme writes the archive verified in setup
        let check = written.map_err(|e| e.to_string()).and_then(|bytes| {
            archive_bytes += bytes;
            match file_identity(&path) {
                Ok(id) if id == s.identity[k] => Ok(()),
                Ok(_) => Err("archive differs from the verified one".into()),
                Err(e) => Err(e.to_string()),
            }
        });
        ops.push(Op {
            start,
            end,
            ok: check.is_ok(),
        });
        out.record(&format!("ingest {}", SCHEMES[k].name()), check);
        let _ = std::fs::remove_file(&path);
    }
    speed.probe();
    notes.speed = Some((speed.median_factor(), speed.len()));
    let n = ops.len();
    let norm = normalised_ms(&ops, &speed);
    m.latency(&ops, &norm, SCHEMES.len(), out);
    let rate = m.closed_loop_rates(&ops, &norm, SCHEMES.len(), LIMIT_MS);
    m.add(
        "bytes_per_reply",
        "B",
        s.verify_bytes as f64 / SCHEMES.len() as f64,
        SCHEMES.len(),
        "verification retrieve",
    );
    m.add(
        "ingest_mb_s",
        "MB/s",
        raw as f64 / 1e6 * rate,
        n,
        "raw MB per busy second at reference speed, median of windows",
    );
    m.add(
        "archive_ratio",
        "x",
        (raw * n as u64) as f64 / archive_bytes.max(1) as f64,
        n,
        "raw / archive",
    );
    notes.limit_ms = Some(LIMIT_MS);
    m
}

/// Per scheme, twice: the kernels alone, then the in-memory refactor and
/// the streaming write. The passes repeat until `--seconds` have passed;
/// each pass must write the same archive bytes.
fn traced(args: &Args, s: &Setup, dir: &WorkDir, out: &mut Outcome, m: &mut Metrics) {
    let mut tr = Trace::new();
    let mut ctr = Counters::default();
    let order = mix::ingest_order(args.seed, 2);
    let (t0, mut req, mut cycle_bytes) = (Instant::now(), 0u64, 0);
    while req == 0 || t0.elapsed().as_secs_f64() < args.seconds {
        let mut pass_bytes = 0;
        for &k in &order {
            let scheme = SCHEMES[k];
            let r =
                ladder::encode_kernels(&mut tr, &mut ctr, req, &s.inputs, scheme).and_then(|_| {
                    ladder::ingest_split(&mut tr, req, &s.inputs, scheme, dir, workers())
                });
            req += 1;
            out.record(
                &format!("traced ingest {}", scheme.name()),
                r.map(|bytes| pass_bytes += bytes)
                    .map_err(|e| e.to_string()),
            );
        }
        out.repeat_count("traced.archive_bytes".into(), pass_bytes);
        // the order holds each scheme twice
        cycle_bytes = pass_bytes / 2;
    }
    ladder::per_layer(m, &tr, &ctr, 0, cycle_bytes, &[]);
    crate::trace_overhead(m, &tr);
}
