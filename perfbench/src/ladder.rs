//! The traced layer ladder: replays a workload's work one layer at a time
//! through each layer's public API, with a span around every call.
//!
//! Layers, top to bottom: socket (`pqr_serve::ServeClient`) → service
//! (`pqr_core::DatasetService`) → session/engine (`pqr_core::Session`,
//! `pqr_progressive::engine`) → field reader
//! (`pqr_progressive::refactored::FieldReader`) and fragment store
//! (`pqr_progressive::fragstore`) → kernels (`pqr_mgard`, `pqr_zfp`,
//! `pqr_sz`). The spans are opened here, outside the program.

use crate::common::{Inputs, Metrics, WorkDir};
use crate::stats;
use crate::trace::Trace;
use pqr_mgard::{Basis, MgardCursor, MgardMeta, MgardRefactorer};
use pqr_progressive::field::Dataset;
use pqr_progressive::fragstore::{FragmentId, FragmentSource, Manifest};
use pqr_progressive::plan::PlanReport;
use pqr_progressive::refactored::{default_snapshot_bounds, FieldReader, Scheme};
use pqr_sz::{SzCompressor, SzConfig};
use pqr_util::error::Result;
use pqr_zfp::{ZfpCursor, ZfpMeta, ZfpRefactorer};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Named counters gathered beside the spans.
#[derive(Default)]
pub struct Counters(BTreeMap<&'static str, f64>);

impl Counters {
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_default() += v;
    }

    /// The `PlanReport` counts the per-layer metrics report.
    pub fn add_plan(&mut self, report: &PlanReport) {
        self.add("engine.iterations", report.iterations as f64);
        self.add("fragstore.read_ops", report.read_ops as f64);
        self.add("fragstore.fragments_read", report.fragments_read as f64);
        self.add(
            "refactored.recompose_passes",
            report.recompose_passes as f64,
        );
        self.add(
            "refactored.recon_cache_hits",
            report.recon_cache_hits as f64,
        );
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Kernel span and byte-counter names of a scheme's encoder and decoder.
pub fn kernel_names(scheme: Scheme) -> (&'static str, &'static str) {
    match scheme {
        Scheme::PmgardHb | Scheme::PmgardOb => ("mgard.encode", "mgard.decode"),
        Scheme::Pzfp => ("zfp.encode", "zfp.decode"),
        Scheme::Psz3 | Scheme::Psz3Delta => ("sz.encode", "sz.decode"),
    }
}

/// Encodes every field with the scheme's kernel directly, one field at a
/// time on one thread, and counts the raw bytes encoded. PSZ3's kernel
/// work for a field is one compression per rung of the bound ladder.
pub fn encode_kernels(
    tr: &mut Trace,
    ctr: &mut Counters,
    req: u64,
    inputs: &Inputs,
    scheme: Scheme,
) -> Result<()> {
    let (span, _) = kernel_names(scheme);
    let dims = &inputs.raw.dims;
    for (_, data) in &inputs.raw.fields {
        let id = tr.enter(span, req);
        match scheme {
            Scheme::PmgardHb => drop(std::hint::black_box(
                MgardRefactorer::new(Basis::Hierarchical).refactor(data, dims)?,
            )),
            Scheme::Pzfp => drop(std::hint::black_box(
                ZfpRefactorer::new().refactor(data, dims)?,
            )),
            Scheme::Psz3 => {
                let range = pqr_util::stats::value_range(data);
                let sz = SzCompressor::new(SzConfig::default());
                for rb in default_snapshot_bounds() {
                    drop(std::hint::black_box(sz.compress(data, dims, rb * range)?));
                }
            }
            other => unreachable!("the benchmark does not ingest {}", other.name()),
        }
        tr.exit(id);
        ctr.add(span, (data.len() * 8) as f64);
    }
    Ok(())
}

/// One ingest split in two: the in-memory refactor
/// (`Dataset::refactor_with_workers`) and the streaming write of the same
/// refactor to a file (`Dataset::refactor_to_path`). Returns the archive
/// bytes written.
pub fn ingest_split(
    tr: &mut Trace,
    req: u64,
    inputs: &Inputs,
    scheme: Scheme,
    dir: &WorkDir,
    workers: usize,
) -> Result<u64> {
    let mut ds = Dataset::new(&inputs.raw.dims);
    for (name, data) in &inputs.raw.fields {
        ds.add_field(name, data.clone())?;
    }
    let bounds = default_snapshot_bounds();
    let refactored = tr.leaf("field.refactor", req, || {
        ds.refactor_with_workers(scheme, &bounds, workers)
    })?;
    drop(std::hint::black_box(refactored));
    let path = dir.fresh("traced.pqrx");
    let written = tr.leaf("fragstore.to_path", req, || {
        ds.refactor_to_path(scheme, &bounds, None, &[], &path, workers, false)
    });
    let _ = std::fs::remove_file(&path);
    written
}

/// A field's kernel decode state, fed the same fragments its reader takes.
enum Kernel {
    Mgard {
        cursor: MgardCursor,
        level_base: Vec<u32>,
        buf: Vec<f64>,
    },
    Zfp(ZfpCursor),
    Sz(SzCompressor),
}

/// One field replayed down the ladder: the fragment store, the field
/// reader and the kernel, each fed the same fragment schedule.
pub struct FieldLadder {
    source: Arc<dyn FragmentSource>,
    field: u32,
    scheme: Scheme,
    reader: FieldReader,
    kernel: Kernel,
}

impl FieldLadder {
    pub fn open(
        source: Arc<dyn FragmentSource>,
        manifest: &Manifest,
        field: usize,
    ) -> Result<Self> {
        let scheme = manifest.fields[field].scheme;
        let reader = FieldReader::open(Arc::clone(&source), manifest, field)?;
        let meta = || {
            source.fetch(FragmentId {
                field: field as u32,
                index: 0,
            })
        };
        let kernel = match scheme {
            Scheme::PmgardHb | Scheme::PmgardOb => {
                let meta = MgardMeta::from_bytes(&meta()?)?;
                let mut level_base = Vec::new();
                let mut base = 1u32;
                for lm in meta.levels() {
                    level_base.push(base);
                    base += lm.num_planes;
                }
                Kernel::Mgard {
                    cursor: MgardCursor::new(meta),
                    level_base,
                    buf: Vec::new(),
                }
            }
            Scheme::Pzfp => Kernel::Zfp(ZfpCursor::new(ZfpMeta::from_bytes(&meta()?)?)),
            Scheme::Psz3 | Scheme::Psz3Delta => Kernel::Sz(SzCompressor::new(SzConfig::default())),
        };
        Ok(Self {
            source,
            field: field as u32,
            scheme,
            reader,
            kernel,
        })
    }

    /// Advances the field to bound `eb`: reads the fragments the reader
    /// would fetch in one batch (`FragmentSource::read_many`), refines the
    /// reader (`FieldReader::refine_to`), and pushes the same bytes
    /// through the kernel decoder.
    pub fn advance(&mut self, tr: &mut Trace, ctr: &mut Counters, req: u64, eb: f64) -> Result<()> {
        let ids: Vec<FragmentId> = self
            .reader
            .plan_refine_to(eb)
            .into_iter()
            .map(|index| FragmentId {
                field: self.field,
                index,
            })
            .collect();
        if ids.is_empty() {
            return Ok(());
        }
        let blobs = tr.leaf("fragstore.read", req, || self.source.read_many(&ids))?;
        tr.leaf("refactored.refine", req, || self.reader.refine_to(eb))?;

        let (_, span) = kernel_names(self.scheme);
        let bytes: usize = blobs.iter().map(|b| b.len()).sum();
        match &mut self.kernel {
            Kernel::Mgard {
                cursor,
                level_base,
                buf,
            } => {
                let levels: Vec<usize> = ids
                    .iter()
                    .map(|id| {
                        level_base
                            .iter()
                            .rposition(|&b| b <= id.index)
                            .expect("payload fragment")
                    })
                    .collect();
                tr.leaf(span, req, || {
                    for (l, blob) in levels.iter().zip(&blobs) {
                        cursor.push_plane(*l, blob)?;
                    }
                    Ok::<(), pqr_util::error::PqrError>(())
                })?;
                let workers = crate::common::workers();
                tr.leaf("mgard.recompose", req, || {
                    cursor.reconstruct_into(buf, workers)
                });
            }
            Kernel::Zfp(cursor) => tr.leaf(span, req, || {
                for blob in &blobs {
                    cursor.push_plane(blob)?;
                }
                Ok::<(), pqr_util::error::PqrError>(())
            })?,
            Kernel::Sz(sz) => tr.leaf(span, req, || {
                for blob in &blobs {
                    drop(std::hint::black_box(sz.decompress(blob)?));
                }
                Ok::<(), pqr_util::error::PqrError>(())
            })?,
        }
        ctr.add(span, bytes as f64);
        Ok(())
    }
}

/// MB/s of a kernel: bytes counted under `name` over the time of the spans
/// called `name`; 0 when the kernel did not run.
pub fn rate_mb_s(tr: &Trace, ctr: &Counters, name: &str) -> f64 {
    let ms = tr.total_ms(name);
    if ms > 0.0 {
        ctr.get(name) / 1e6 / (ms / 1e3)
    } else {
        0.0
    }
}

/// The per-layer metrics every traced run reports from its spans and
/// counters; a layer without spans reports 0.
pub fn per_layer(
    m: &mut Metrics,
    tr: &Trace,
    ctr: &Counters,
    requests: usize,
    archive_bytes: u64,
    self_ms: &[f64],
) {
    let med = |name: &str| {
        let v = tr.per_request_ms(name);
        (stats::median(&v), v.len())
    };
    let per_req = |name: &str| ctr.get(name) / requests.max(1) as f64;
    for (metric, span) in [
        ("mgard.encode_mb_s", "mgard.encode"),
        ("zfp.encode_mb_s", "zfp.encode"),
        ("sz.encode_mb_s", "sz.encode"),
        ("mgard.decode_mb_s", "mgard.decode"),
        ("zfp.decode_mb_s", "zfp.decode"),
        ("sz.decode_mb_s", "sz.decode"),
    ] {
        m.add(
            metric,
            "MB/s",
            rate_mb_s(tr, ctr, span),
            tr.durations_ms(span).len(),
            "MB per kernel second",
        );
    }
    let refactor = tr.per_request_ms("field.refactor");
    let write: Vec<f64> = tr
        .per_request_ms("fragstore.to_path")
        .iter()
        .zip(&refactor)
        .map(|(p, r)| p - r)
        .collect();
    m.add(
        "field.refactor_ms",
        "ms",
        stats::median(&refactor),
        refactor.len(),
        "median per ingest",
    );
    m.add(
        "fragstore.write_ms",
        "ms",
        stats::median(&write),
        write.len(),
        "median per ingest",
    );
    m.add(
        "fragstore.archive_bytes",
        "B",
        archive_bytes as f64,
        1,
        "count",
    );
    for (metric, span) in [
        ("archive.open_ms", "archive.open"),
        ("plan.resolve_ms", "plan.resolve"),
        ("fragstore.read_ms", "fragstore.read"),
        ("mgard.recompose_ms", "mgard.recompose"),
        ("refactored.refine_ms", "refactored.refine"),
        ("qoi.estimate_ms", "qoi.estimate"),
        ("engine.execute_ms", "engine.execute"),
    ] {
        let (v, n) = med(span);
        m.add(metric, "ms", v, n, "median per request");
    }
    for metric in [
        "fragstore.read_ops",
        "fragstore.fragments_read",
        "refactored.recompose_passes",
        "refactored.recon_cache_hits",
    ] {
        m.add(
            metric,
            "count",
            per_req(metric),
            requests,
            "mean per request",
        );
    }
    m.add(
        "engine.iterations",
        "count",
        ctr.get("engine.iterations"),
        requests,
        "count: sum over traced requests",
    );
    m.add(
        "engine.self_ms",
        "ms",
        stats::median(self_ms),
        self_ms.len(),
        "median: execute - reader rung - iterations x estimate",
    );
}
