//! `retrieve-cold`: a closed loop with one client. Each analyst opens a
//! file archive cold (NYX-style 3-D velocity under PMGARD-HB, PZFP or
//! PSZ3) and walks 1–3 non-increasing tolerances with single- and
//! multi-target requests through `Session::execute`. Decode kernels,
//! recompose, fragment reads and the QoI estimate carry the time; there is
//! no store and no server.

use crate::common::{check_target, normalised_ms, workers, Inputs, Metrics, Op, Outcome, WorkDir};
use crate::ingest::SCHEMES;
use crate::ladder::{self, Counters, FieldLadder};
use crate::mix::{self, Walk, COLD_DATASETS, COLD_TARGETS};
use crate::speed::Speed;
use crate::trace::Trace;
use crate::{Args, Notes};
use pqr_core::{Archive, RetrievalRequest, Session};
use pqr_progressive::fragstore::{FileSource, FragmentSource};
use pqr_progressive::plan::PlanReport;
use pqr_qoi::library::velocity_magnitude;
use pqr_qoi::QoiExpr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Grid side: 48³ × 3 velocity fields = 2.65 MB raw per dataset.
const SIDE: usize = 48;

/// A cold request slower than this misses the latency limit (see README).
const LIMIT_MS: f64 = 1000.0;

/// Analysts replayed down the layer ladder in the traced run.
const TRACE_WALKS: usize = 12;

struct Setup {
    /// Per dataset: its fields and truth, and its archive per scheme.
    datasets: Vec<Inputs>,
    paths: Vec<Vec<PathBuf>>,
    archive_bytes: u64,
    /// Raw MB built into archives and the builds' seconds at reference
    /// speed.
    ingest: (f64, f64),
}

/// Dataset `d` of the run with this seed.
fn inputs(seed: u64, d: usize) -> Inputs {
    let v = velocity_magnitude(0, 3);
    Inputs::new(
        crate::ingest::nyx_fields(mix::Rng::derive(seed, 100 + d as u64).next_u64(), SIDE),
        vec![
            ("V", v.clone()),
            ("KE", v.pow(2).scale(0.5)),
            ("Vx2", QoiExpr::var(0).pow(2)),
        ],
    )
}

fn request(walk: &Walk, tol: f64) -> RetrievalRequest {
    COLD_TARGETS[walk.target]
        .iter()
        .fold(RetrievalRequest::new(), |r, name| r.qoi(name, tol))
}

/// Checks every target of an executed request against the truth and
/// records the request's counts, which must repeat for the same walk.
fn check(
    out: &mut Outcome,
    inputs: &Inputs,
    session: &Session,
    walk: &Walk,
    k: usize,
    report: &PlanReport,
    bytes: u64,
) -> bool {
    let key = format!(
        "cold.d{}.{}.{}.{:?}",
        walk.dataset,
        SCHEMES[walk.scheme].name(),
        COLD_TARGETS[walk.target].join("+"),
        &walk.tols[..=k]
    );
    out.repeat_count(format!("{key}.bytes"), bytes);
    out.repeat_count(format!("{key}.iterations"), report.iterations as u64);
    let result = report.targets.iter().try_for_each(|t| {
        let values = session.qoi_values(&t.name).map_err(|e| e.to_string())?;
        check_target(
            &t.name,
            &inputs.truth[t.name.as_str()],
            &values,
            t.satisfied,
            t.max_est_error,
            t.tol_abs,
        )
    });
    let ok = result.is_ok();
    out.record(&key, result);
    ok
}

/// One analyst, untraced. Returns each request's timing and check with
/// the source bytes it fetched; the first request's latency includes
/// opening the archive.
fn walk(out: &mut Outcome, inputs: &Inputs, path: &Path, w: &Walk) -> Vec<(Op, u64)> {
    let t0 = Instant::now();
    let opened = Archive::open(path).and_then(|a| a.session().map(|s| (a, s)));
    let (archive, mut session) = match opened {
        Ok(x) => x,
        Err(e) => {
            out.record("open archive", Err(e.to_string()));
            return Vec::new();
        }
    };
    let mut res = Vec::new();
    let mut before = 0;
    for (k, &tol) in w.tols.iter().enumerate() {
        let start = if k == 0 { t0 } else { Instant::now() };
        let report = session.execute(&request(w, tol));
        let end = Instant::now();
        let total = archive.source_stats().fetched_bytes;
        let bytes = total - before;
        before = total;
        let ok = match report {
            Ok(r) => check(out, inputs, &session, w, k, &r, bytes),
            Err(e) => {
                out.record("execute", Err(e.to_string()));
                false
            }
        };
        res.push((Op { start, end, ok }, bytes));
    }
    res
}

fn setup(args: &Args, dir: &WorkDir, out: &mut Outcome) -> Setup {
    let datasets: Vec<Inputs> = (0..COLD_DATASETS).map(|d| inputs(args.seed, d)).collect();
    let (mut paths, mut archive_bytes, mut builds) = (Vec::new(), 0, Vec::new());
    let mut speed = Speed::default();
    for (d, inputs) in datasets.iter().enumerate() {
        let mut per_scheme = Vec::new();
        for scheme in SCHEMES {
            let path = dir.fresh(&format!("d{d}-{}.pqrx", scheme.name()));
            speed.probe();
            let start = Instant::now();
            match inputs
                .builder()
                .scheme(scheme)
                .build_to_path(&path, workers(), false)
            {
                Ok(bytes) => {
                    builds.push(Op {
                        start,
                        end: Instant::now(),
                        ok: true,
                    });
                    archive_bytes += bytes;
                    out.repeat_count(format!("cold.archive_bytes.d{d}.{}", scheme.name()), bytes);
                }
                Err(e) => out.record("build archive", Err(e.to_string())),
            }
            per_scheme.push(path);
        }
        paths.push(per_scheme);
    }
    speed.probe();
    let ingest_s = normalised_ms(&builds, &speed).iter().sum::<f64>() / 1e3;
    // warm-up: one fixed walk per archive
    for (dataset, per_scheme) in paths.iter().enumerate() {
        for (scheme, path) in per_scheme.iter().enumerate() {
            let w = Walk {
                dataset,
                scheme,
                target: 0,
                tols: vec![1e-3, 1e-5],
            };
            walk(out, &datasets[dataset], path, &w);
        }
    }
    let raw = datasets.iter().map(Inputs::raw_bytes).sum::<u64>() * SCHEMES.len() as u64;
    Setup {
        datasets,
        paths,
        archive_bytes,
        ingest: (raw as f64 / 1e6, ingest_s),
    }
}

pub fn run(args: &Args, out: &mut Outcome, notes: &mut Notes) -> Metrics {
    let dir = WorkDir::new().expect("create the scratch directory");
    let (mut ingest_mb, mut ingest_s) = (0.0, 0.0);
    let (s, setup_s) = crate::repeated_setup(|| {
        let s = setup(args, &dir, out);
        ingest_mb += s.ingest.0;
        ingest_s += s.ingest.1;
        s
    });
    let raw = s.datasets.iter().map(Inputs::raw_bytes).sum::<u64>();
    // one request touches one dataset and one of its archives
    let archives = (COLD_DATASETS * SCHEMES.len()) as u64;
    notes.working_set_bytes = raw / COLD_DATASETS as u64 + s.archive_bytes / archives;
    notes.limit_ms = Some(LIMIT_MS);
    let mut m = Metrics::default();
    m.add("setup_s", "s", setup_s.0, setup_s.1, "median of setups");
    if args.trace {
        traced(args, &s, &dir, out, &mut m);
        return m;
    }

    let (mut ops, mut bytes) = (Vec::new(), 0u64);
    let mut speed = Speed::default();
    let t0 = Instant::now();
    let deck = mix::cold_walks(args.seed, 1).len();
    for (i, w) in mix::cold_walks(args.seed, 50).iter().enumerate() {
        // stop between decks only, so every run weighs the mix alike
        if i % deck == 0 && t0.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        speed.probe();
        let path = &s.paths[w.dataset][w.scheme];
        for (op, b) in walk(out, &s.datasets[w.dataset], path, w) {
            ops.push(op);
            bytes += b;
        }
    }
    speed.probe();
    notes.speed = Some((speed.median_factor(), speed.len()));
    let n = ops.len();
    let norm = normalised_ms(&ops, &speed);
    m.latency(&ops, &norm, deck, out);
    m.closed_loop_rates(&ops, &norm, deck, LIMIT_MS);
    m.add(
        "bytes_per_reply",
        "B",
        bytes as f64 / n.max(1) as f64,
        n,
        "mean source bytes",
    );
    m.add(
        "ingest_mb_s",
        "MB/s",
        ingest_mb / ingest_s,
        setup_s.1 * archives as usize,
        "raw MB per second over every set-up archive build, at reference speed",
    );
    m.add(
        "archive_ratio",
        "x",
        (raw * SCHEMES.len() as u64) as f64 / s.archive_bytes.max(1) as f64,
        archives as usize,
        "raw / archive",
    );
    m
}

/// The first [`TRACE_WALKS`] analysts, each request replayed down the
/// ladder: plan, execute, then per field the fragment read, the reader
/// refinement and the kernel decode, then the QoI estimate.
fn traced(args: &Args, s: &Setup, dir: &WorkDir, out: &mut Outcome, m: &mut Metrics) {
    let mut tr = Trace::new();
    let mut ctr = Counters::default();
    let mut rid = 0u64;
    for scheme in SCHEMES {
        let inputs = &s.datasets[0];
        let r = ladder::encode_kernels(&mut tr, &mut ctr, rid, inputs, scheme)
            .and_then(|_| ladder::ingest_split(&mut tr, rid, inputs, scheme, dir, workers()));
        out.record("traced ingest", r.map(drop).map_err(|e| e.to_string()));
        rid += 1;
    }
    let (mut self_ms, mut requests, mut passes) = (Vec::new(), 0usize, 0);
    let walks: Vec<Walk> = mix::cold_walks(args.seed, 1)
        .into_iter()
        .take(TRACE_WALKS)
        .collect();
    let t0 = Instant::now();
    // the same walks repeat until `--seconds` have passed; each pass must
    // repeat the engine's round count exactly
    while passes == 0 || t0.elapsed().as_secs_f64() < args.seconds {
        passes += 1;
        let iterations_before = ctr.get("engine.iterations");
        for w in &walks {
            let path = &s.paths[w.dataset][w.scheme];
            let open = tr.enter("archive.open", rid);
            let opened = Archive::open(path);
            tr.exit(open);
            let r = opened.and_then(|archive| {
                let mut session = archive.session()?;
                let manifest = archive.manifest()?;
                let src: Arc<dyn FragmentSource> = Arc::new(FileSource::open(path)?);
                let mut fields = (0..manifest.num_fields())
                    .map(|i| FieldLadder::open(Arc::clone(&src), &manifest, i))
                    .collect::<pqr_util::error::Result<Vec<_>>>()?;
                let mut prev = vec![f64::INFINITY; fields.len()];
                let mut before = 0;
                for (k, &tol) in w.tols.iter().enumerate() {
                    rid += 1;
                    requests += 1;
                    let req = request(w, tol);
                    tr.leaf("plan.resolve", rid, || session.plan(&req))?;
                    let exec = tr.enter("engine.execute", rid);
                    let report = session.execute(&req);
                    let exec_ms = tr.exit(exec);
                    let report = report?;
                    let total = archive.source_stats().fetched_bytes;
                    check(
                        out,
                        &s.datasets[w.dataset],
                        &session,
                        w,
                        k,
                        &report,
                        total - before,
                    );
                    before = total;
                    for (i, f) in fields.iter_mut().enumerate() {
                        let b = report.field_bounds[i];
                        if b < prev[i] {
                            f.advance(&mut tr, &mut ctr, rid, b)?;
                            prev[i] = b;
                        }
                    }
                    let specs = COLD_TARGETS[w.target]
                        .iter()
                        .map(|n| archive.spec(n, tol))
                        .collect::<pqr_util::error::Result<Vec<_>>>()?;
                    let est = tr.enter("qoi.estimate", rid);
                    drop(std::hint::black_box(
                        session.engine().scan_qois(&specs, &report.field_bounds),
                    ));
                    let est_ms = tr.exit(est);
                    let refine = tr.request_ms("refactored.refine", rid);
                    self_ms.push(exec_ms - refine - report.iterations as f64 * est_ms);
                    ctr.add_plan(&report);
                }
                Ok(())
            });
            if let Err(e) = r {
                out.record("traced walk", Err(e.to_string()));
            }
            rid += 1;
        }
        out.repeat_count(
            "traced.engine.iterations".into(),
            (ctr.get("engine.iterations") - iterations_before) as u64,
        );
    }
    ladder::per_layer(m, &tr, &ctr, requests, s.archive_bytes, &self_ms);
    m.set(
        "engine.iterations",
        ctr.get("engine.iterations") / passes as f64,
        requests / passes,
        "count: sum over one pass of the traced requests",
    );
    crate::trace_overhead(m, &tr);
}
