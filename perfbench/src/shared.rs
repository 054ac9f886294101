//! `serve-shared`: an open loop of Poisson arrivals at one fixed offered
//! rate against an in-process `pqr_serve::Server` on loopback, default
//! `ServerConfig` (coalescing on, unbounded store). Each arrival is one
//! retrieve on a rotating user session (`OPEN`, then 1–3 retrieves) over a
//! GE-style dataset with the velocity mask and the six QoIs of Eq. 1–6.
//! Tolerances are skewed loose and warm-up has already decoded the
//! deepest one, so admission, coalescing, snapshot adoption, planning, QoI
//! estimation and the wire carry the time; the kernels are nearly idle.

use crate::common::{
    check_target, normalised_ms, normalised_open_ms, nproc, workers, Inputs, Metrics, Op, Outcome,
    WorkDir,
};
use crate::ladder::{self, Counters, FieldLadder};
use crate::mix::{self, SharedRequest, SHARED_DEEPEST, SHARED_TARGETS, TOLS};
use crate::speed::{self, Speed};
use crate::trace::Trace;
use crate::{stats, Args, Notes};
use pqr_core::{Archive, RetrievalRequest};
use pqr_datagen::ge::{self, GeConfig};
use pqr_progressive::fragstore::{FileSource, FragmentSource};
use pqr_progressive::refactored::FieldReader;
use pqr_serve::{Registry, RemoteReport, Reply, ServeClient, Server, ServerConfig, StatsSnapshot};
use std::collections::btree_map::{BTreeMap, Entry};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// GE-style blocks × mean block length: about 49k points per field.
const BLOCKS: usize = 24;

/// Archive builds per set-up that `ingest_mb_s` is the median of.
const INGEST_REPEATS: usize = 12;
const BLOCK_LEN: usize = 2048;

/// Fixed offered rate and latency limit (see README for how they were
/// set from the measured capacity).
pub const OFFERED_RPS: f64 = 20.0;
pub const LIMIT_MS: f64 = 250.0;

/// Connections (one sender thread each): at most two, and never more than
/// the cores.
fn streams() -> usize {
    nproc().min(2)
}

/// How often the open-loop phase tries to probe the machine's speed.
const PROBE_EVERY: Duration = Duration::from_millis(50);

/// A request sent this long after it was due counts as late.
const LATE_MS: f64 = 1.0;

/// Requests replayed in-process down the ladder in the traced run.
const REPLAY: usize = 64;

const DATASET: &str = "ge";
const MASK: [&str; 3] = ["VelocityX", "VelocityY", "VelocityZ"];

struct Setup {
    inputs: Inputs,
    path: PathBuf,
    archive_bytes: u64,
    /// Per build: raw MB per second.
    ingest_rates: Vec<f64>,
    server: Server,
    warm_replies: u64,
}

fn inputs(seed: u64) -> Inputs {
    let raw = ge::concat(&ge::generate(&GeConfig {
        blocks: BLOCKS,
        mean_block_len: BLOCK_LEN,
        wall_fraction: 0.03,
        seed: seed ^ 0x6745_2301,
    }));
    Inputs::new(raw, pqr_qoi::ge::all())
}

fn request(target: usize, tol: f64) -> RetrievalRequest {
    SHARED_TARGETS[target]
        .iter()
        .fold(RetrievalRequest::new(), |r, name| r.qoi(name, tol))
}

/// Checks a remote reply's certified targets against the truth.
fn check_remote(inputs: &Inputs, report: &RemoteReport) -> Result<(), String> {
    report.targets.iter().try_for_each(|t| {
        let values = report
            .values
            .get(&t.name)
            .ok_or_else(|| format!("{}: no values in the reply", t.name))?;
        check_target(
            &t.name,
            &inputs.truth[t.name.as_str()],
            values,
            t.satisfied,
            t.max_est_error,
            t.tol_abs,
        )
    })
}

/// Every target at every tolerance up to the deepest, loosest first, each
/// on a fresh session: afterwards the store holds the deepest state the
/// timed phase asks for.
fn warm_up_sequence() -> Vec<(usize, f64)> {
    TOLS.iter()
        .filter(|&&t| t >= SHARED_DEEPEST)
        .flat_map(|&tol| (0..SHARED_TARGETS.len()).map(move |k| (k, tol)))
        .collect()
}

fn setup(args: &Args, dir: &WorkDir, out: &mut Outcome) -> Result<Setup, String> {
    let inputs = inputs(args.seed);
    // the archive is small, so its ingest rate is the median of several
    // builds, each on one worker: a build this short times steadily on one
    // thread but not across two. Every build must write the same bytes.
    let mut archive_bytes = 0;
    let mut paths = Vec::new();
    let mut speed = Speed::default();
    let mut builds = Vec::new();
    for _ in 0..INGEST_REPEATS {
        let builder = inputs.builder().mask(&MASK);
        let p = dir.fresh("ge.pqrx");
        speed.probe();
        let start = Instant::now();
        archive_bytes = builder
            .build_to_path(&p, 1, false)
            .map_err(|e| e.to_string())?;
        builds.push(Op {
            start,
            end: Instant::now(),
            ok: true,
        });
        out.repeat_count("shared.archive_bytes".into(), archive_bytes);
        paths.push(p);
    }
    speed.probe();
    let mb = inputs.raw_bytes() as f64 / 1e6;
    let rates: Vec<f64> = normalised_ms(&builds, &speed)
        .iter()
        .map(|ms| mb / (ms / 1e3))
        .collect();
    // serve the first; the others were only timed
    let path = paths.remove(0);
    for p in paths {
        let _ = std::fs::remove_file(p);
    }
    let mut registry = Registry::new();
    registry
        .register(DATASET, Archive::open(&path).map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    let server = Server::start("127.0.0.1:0", registry, ServerConfig::default())
        .map_err(|e| e.to_string())?;

    let mut client = ServeClient::connect(server.local_addr()).map_err(|e| e.to_string())?;
    let mut iterations = 0;
    let warm = warm_up_sequence();
    for &(k, tol) in &warm {
        let reply = client
            .open(DATASET)
            .and_then(|_| client.retrieve(&request(k, tol), SHARED_TARGETS[k], false));
        let check = match reply {
            Ok(Reply::Ok(r)) => {
                iterations += r.iterations;
                check_remote(&inputs, &r)
            }
            Ok(Reply::Busy { reason, .. }) => Err(format!("shed: {reason}")),
            Err(e) => Err(e.to_string()),
        };
        out.record("warm-up retrieve", check);
    }
    client.close().map_err(|e| e.to_string())?;
    let st = server.stats();
    let d = &st.datasets[0];
    out.repeat_count("shared.warm.source_bytes".into(), d.source.fetched_bytes);
    out.repeat_count(
        "shared.warm.store_fragments_decoded".into(),
        d.store.fragments_decoded,
    );
    out.repeat_count("shared.warm.iterations".into(), iterations);
    Ok(Setup {
        inputs,
        path,
        archive_bytes,
        ingest_rates: rates,
        server,
        warm_replies: warm.len() as u64,
    })
}

/// One timed retrieve as the load generator saw it.
struct Sample {
    /// Due → certified reply.
    latency_ms: f64,
    /// Due → sent.
    lag_ms: f64,
    ok: bool,
    queue_wait_ms: u64,
    decoded: u64,
    /// Reply time since the phase started.
    done_s: f64,
    due: Instant,
    done: Instant,
}

impl Sample {
    fn due_s(&self) -> f64 {
        self.done_s - self.latency_ms / 1e3
    }
}

/// One connection's share of the schedule: sleeps until each request is
/// due, sends it, and times it from when it was due.
fn sender(
    addr: SocketAddr,
    inputs: &Inputs,
    schedule: &[SharedRequest],
    start: Instant,
    busy: &Busy,
    mut tr: Option<&mut Trace>,
) -> (Vec<Sample>, Vec<String>) {
    let (mut samples, mut failures) = (Vec::new(), Vec::new());
    let mut client = match ServeClient::connect(addr) {
        Ok(c) => c,
        Err(e) => return (samples, vec![format!("connect: {e}")]),
    };
    let mut session = usize::MAX;
    for r in schedule {
        let due = start + Duration::from_secs_f64(r.due_s);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        busy.enter();
        let sent = Instant::now();
        let mut result = Ok(());
        if r.session != session {
            session = r.session;
            result = match client.open(DATASET) {
                Ok(Reply::Ok(_)) => Ok(()),
                Ok(Reply::Busy { reason, .. }) => Err(format!("open shed: {reason}")),
                Err(e) => Err(format!("open: {e}")),
            };
        }
        let (mut queue_wait_ms, mut decoded) = (0, 0);
        if result.is_ok() {
            let span = tr
                .as_mut()
                .map(|t| t.enter("socket.retrieve", r.session as u64));
            let reply = client.retrieve(&request(r.target, r.tol), SHARED_TARGETS[r.target], false);
            if let (Some(t), Some(span)) = (tr.as_mut(), span) {
                t.exit(span);
            }
            result = match reply {
                Ok(Reply::Ok(rep)) => {
                    queue_wait_ms = rep.queue_wait_ms;
                    decoded = rep.store_fragments_decoded;
                    check_remote(inputs, &rep)
                }
                Ok(Reply::Busy { reason, .. }) => Err(format!("shed: {reason}")),
                Err(e) => Err(e.to_string()),
            };
        }
        let done = Instant::now();
        busy.exit();
        if let Err(e) = &result {
            failures.push(format!(
                "retrieve {:?} at {:e}: {e}",
                SHARED_TARGETS[r.target], r.tol
            ));
        }
        samples.push(Sample {
            latency_ms: done.duration_since(due).as_secs_f64() * 1e3,
            lag_ms: sent.saturating_duration_since(due).as_secs_f64() * 1e3,
            ok: result.is_ok(),
            queue_wait_ms,
            decoded,
            done_s: done.duration_since(start).as_secs_f64(),
            due,
            done,
        });
    }
    if let Err(e) = client.close() {
        failures.push(format!("close: {e}"));
    }
    (samples, failures)
}

/// Requests in flight, and requests ever sent, across the senders: the
/// speed probe runs only while nothing is in flight.
#[derive(Default)]
struct Busy {
    in_flight: AtomicUsize,
    sent: AtomicUsize,
}

impl Busy {
    fn enter(&self) {
        self.sent.fetch_add(1, Ordering::SeqCst);
        self.in_flight.fetch_add(1, Ordering::SeqCst);
    }

    fn exit(&self) {
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
    }

    /// Probes the machine's speed every [`PROBE_EVERY`] until `stop`,
    /// keeping only probes during which no request was in flight or sent,
    /// so the server's own work never reads as a slow machine.
    fn probe_idle(&self, stop: &AtomicBool) -> Speed {
        let mut speed = Speed::default();
        while !stop.load(Ordering::SeqCst) {
            std::thread::sleep(PROBE_EVERY);
            let sent = self.sent.load(Ordering::SeqCst);
            if self.in_flight.load(Ordering::SeqCst) != 0 {
                continue;
            }
            let at = Instant::now();
            let ms = speed::probe();
            if self.in_flight.load(Ordering::SeqCst) == 0
                && self.sent.load(Ordering::SeqCst) == sent
            {
                speed.push(at, ms);
            }
        }
        speed
    }
}

/// The open-loop phase: one sender thread per connection, and the speed
/// probe beside them.
fn open_loop(
    args: &Args,
    s: &Setup,
    out: &mut Outcome,
    tr: &mut Trace,
) -> (Vec<Sample>, Speed, StatsSnapshot, StatsSnapshot) {
    let n = (OFFERED_RPS * args.seconds).round() as usize;
    let schedule = mix::shared_schedule(args.seed, n, args.seconds, streams());
    let addr = s.server.local_addr();
    let before = s.server.stats();
    // a short lead lets every sender connect before the first arrival
    let start = Instant::now() + Duration::from_millis(50);
    let (busy, stop) = (Busy::default(), AtomicBool::new(false));
    let (results, speed) = std::thread::scope(|scope| {
        let prober = scope.spawn(|| busy.probe_idle(&stop));
        let handles: Vec<_> = schedule
            .iter()
            .map(|stream| {
                let busy = &busy;
                scope.spawn(move || {
                    let mut t = Trace::new();
                    let tr = args.trace.then_some(&mut t);
                    let (samples, failures) = sender(addr, &s.inputs, stream, start, busy, tr);
                    (samples, failures, t)
                })
            })
            .collect();
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("sender thread panicked"))
            .collect();
        stop.store(true, Ordering::SeqCst);
        (results, prober.join().expect("probe thread panicked"))
    });
    let after = s.server.stats();
    let mut samples = Vec::new();
    for ((smp, failures, t), stream) in results.into_iter().zip(&schedule) {
        // a request a sender never got to send (its connection failed)
        // counts as attempted and failed
        out.attempted += stream.len() as u64;
        out.failed += (stream.len() - smp.iter().filter(|f| f.ok).count()) as u64;
        out.messages.extend(failures.into_iter().take(20));
        samples.extend(smp);
        tr.absorb(t);
    }
    // in schedule order across connections
    samples.sort_by(|a, b| a.due_s().partial_cmp(&b.due_s()).expect("finite"));
    (samples, speed, before, after)
}

pub fn run(args: &Args, out: &mut Outcome, notes: &mut Notes) -> Metrics {
    let dir = WorkDir::new().expect("create the scratch directory");
    let mut rates = Vec::new();
    let (s, setup_s) = crate::repeated_setup(|| {
        let s = setup(args, &dir, out);
        if let Ok(s) = &s {
            rates.extend_from_slice(&s.ingest_rates);
        }
        s
    });
    let s = match s {
        Ok(s) => s,
        Err(e) => {
            out.record("set-up", Err(e));
            out.invalid = Some("set-up failed".into());
            return Metrics::default();
        }
    };
    let raw = s.inputs.raw_bytes();
    notes.working_set_bytes = raw + s.archive_bytes;
    notes.offered_rps = Some(OFFERED_RPS);
    notes.limit_ms = Some(LIMIT_MS);
    notes.connections = Some(streams());
    let mut m = Metrics::default();
    m.add("setup_s", "s", setup_s.0, setup_s.1, "median of setups");

    let mut tr = Trace::new();
    let (samples, speed, before, after) = open_loop(args, &s, out, &mut tr);
    notes.speed = Some((speed.median_factor(), speed.len()));
    let lag: Vec<f64> = samples.iter().map(|x| x.lag_ms).collect();
    let lag_p99 = if lag.is_empty() {
        0.0
    } else {
        stats::percentile(&stats::sorted(&lag), 99.0)
    };
    // a backlog that is still there at the end of the phase means the
    // generator fell behind its schedule, not that it stalled and recovered
    let tail_lag = stats::median(&lag[lag.len() - lag.len() / 10..]);
    if tail_lag > LIMIT_MS {
        out.invalid = Some(format!(
            "the load generator fell behind its schedule: median send lag over the last tenth {tail_lag:.1} ms > limit {LIMIT_MS} ms"
        ));
    }
    let n = samples.len();
    // load-generator health goes with every run
    let late = lag.iter().filter(|&&l| l > LATE_MS).count();
    m.add("loadgen.lag_p99_ms", "ms", lag_p99, n, "p99 of send - due");
    m.add(
        "loadgen.late_share",
        "share",
        late as f64 / n.max(1) as f64,
        n,
        format!("sent > {LATE_MS} ms after due"),
    );
    if args.trace {
        server_layers(&mut m, &samples, &before, &after);
        traced(args, &s, &dir, out, &mut m, tr);
        return m;
    }

    let ops: Vec<Op> = samples
        .iter()
        .map(|x| Op {
            start: x.due,
            end: x.done,
            ok: x.ok,
        })
        .collect();
    let norm = normalised_open_ms(&ops, &speed);
    let ok = samples.iter().filter(|x| x.ok).count();
    let within = samples
        .iter()
        .zip(&norm)
        .filter(|&(x, &ms)| x.ok && ms <= LIMIT_MS)
        .count();
    let phase_s = samples.iter().map(|x| x.done_s).fold(0.0, f64::max);
    let fetched = after.datasets[0].source.fetched_bytes;
    m.latency(&ops, &norm, 1, out);
    m.add(
        "throughput_rps",
        "replies/s",
        ok as f64 / phase_s,
        n,
        "certified replies per second",
    );
    m.add(
        "goodput_rps",
        "replies/s",
        within as f64 / phase_s,
        n,
        format!("within {LIMIT_MS} ms at reference speed"),
    );
    m.add(
        "bytes_per_reply",
        "B",
        fetched as f64 / (s.warm_replies + n as u64) as f64,
        n + s.warm_replies as usize,
        "source bytes since server start / replies",
    );
    m.add(
        "ingest_mb_s",
        "MB/s",
        stats::median(&rates),
        rates.len(),
        "median over set-up archive builds at reference speed",
    );
    m.add(
        "archive_ratio",
        "x",
        raw as f64 / s.archive_bytes.max(1) as f64,
        1,
        "raw / archive",
    );
    m
}

/// Server, wire and store metrics of the open-loop phase.
fn server_layers(
    m: &mut Metrics,
    samples: &[Sample],
    before: &StatsSnapshot,
    after: &StatsSnapshot,
) {
    let n = samples.len();
    let retrieves = (after.retrieves - before.retrieves).max(1) as f64;
    let (b, a) = (&before.datasets[0].store, &after.datasets[0].store);
    let waits: Vec<f64> = samples.iter().map(|x| x.queue_wait_ms as f64).collect();
    m.add(
        "server.service_ms",
        "ms",
        (after.service_ms_total - before.service_ms_total) as f64 / retrieves,
        n,
        "mean: service time total / retrieves",
    );
    m.add(
        "server.queue_wait_p50_ms",
        "ms",
        stats::median(&waits),
        n,
        "p50 of reply queue_wait_ms",
    );
    m.add(
        "server.queue_wait_max_ms",
        "ms",
        waits.iter().copied().fold(0.0, f64::max),
        n,
        "max of reply queue_wait_ms",
    );
    m.add(
        "server.coalesced_share",
        "share",
        (after.coalesced_requests - before.coalesced_requests) as f64 / retrieves,
        n,
        "coalesced / retrieves",
    );
    m.add(
        "server.shed",
        "count",
        (after.shed_busy + after.shed_admission - before.shed_busy - before.shed_admission) as f64,
        n,
        "count",
    );
    m.add(
        "wire.bytes_per_reply",
        "B",
        (after.bytes_out - before.bytes_out) as f64 / n.max(1) as f64,
        n,
        "bytes out / replies",
    );
    m.add(
        "store.fragments_decoded",
        "count",
        a.fragments_decoded as f64,
        n,
        "count since server start",
    );
    m.add(
        "store.refine_reuses",
        "count",
        (a.refine_reuses - b.refine_reuses) as f64,
        n,
        "count in the timed phase",
    );
    m.add(
        "store.epoch_short_circuits",
        "count",
        (a.epoch_short_circuits - b.epoch_short_circuits) as f64,
        n,
        "count in the timed phase",
    );
    let (hits, misses) = (
        a.plan_front_hits - b.plan_front_hits,
        a.plan_front_misses - b.plan_front_misses,
    );
    m.add(
        "store.plan_front_hit_ratio",
        "share",
        hits as f64 / (hits + misses).max(1) as f64,
        (hits + misses) as usize,
        "hits / (hits + misses)",
    );
    let free = samples.iter().filter(|x| x.ok && x.decoded == 0).count();
    m.add(
        "store.decode_free_share",
        "share",
        free as f64 / n.max(1) as f64,
        n,
        "replies decoding nothing / replies",
    );
    m.add(
        "store.resident_mb",
        "MB",
        a.resident_bytes as f64 / 1e6,
        1,
        "resident bytes at the end (unbounded store)",
    );
}

/// The in-process ladder under the socket: the first [`REPLAY`] requests
/// of the schedule on a `DatasetService` warmed the same way, then the
/// kernels replaying the store's deepest decode.
fn traced(
    args: &Args,
    s: &Setup,
    dir: &WorkDir,
    out: &mut Outcome,
    m: &mut Metrics,
    mut tr: Trace,
) {
    let mut ctr = Counters::default();
    let mut self_ms = Vec::new();
    let mut requests = 0;
    let r = (|| -> pqr_util::error::Result<()> {
        ladder::encode_kernels(
            &mut tr,
            &mut ctr,
            0,
            &s.inputs,
            pqr_progressive::refactored::Scheme::PmgardHb,
        )?;
        ladder::ingest_split(
            &mut tr,
            0,
            &s.inputs,
            pqr_progressive::refactored::Scheme::PmgardHb,
            dir,
            workers(),
        )?;
        let archive = Archive::open(&s.path)?;
        let service = archive.service()?;
        for (k, tol) in warm_up_sequence() {
            service.session()?.execute(&request(k, tol))?;
        }
        let n = (OFFERED_RPS * args.seconds).round() as usize;
        let mut schedule: Vec<SharedRequest> =
            mix::shared_schedule(args.seed, n, args.seconds, streams())
                .into_iter()
                .flatten()
                .collect();
        schedule.sort_by(|a, b| a.due_s.partial_cmp(&b.due_s).expect("finite"));
        let mut sessions = BTreeMap::new();
        for (i, r) in schedule.iter().take(REPLAY).enumerate() {
            let rid = 1 + i as u64;
            requests += 1;
            let session = match sessions.entry(r.session) {
                Entry::Occupied(o) => o.into_mut(),
                Entry::Vacant(v) => v.insert(service.session()?),
            };
            let req = request(r.target, r.tol);
            tr.leaf("plan.resolve", rid, || session.plan(&req))?;
            let svc = tr.enter("archive.service", rid);
            let exec = tr.enter("engine.execute", rid);
            let report = session.execute(&req);
            let exec_ms = tr.exit(exec);
            let values = tr.leaf("qoi.values", rid, || {
                SHARED_TARGETS[r.target]
                    .iter()
                    .map(|name| session.qoi_values(name))
                    .collect::<pqr_util::error::Result<Vec<_>>>()
            });
            tr.exit(svc);
            let (report, values) = (report?, values?);
            let check = report.targets.iter().zip(&values).try_for_each(|(t, v)| {
                check_target(
                    &t.name,
                    &s.inputs.truth[t.name.as_str()],
                    v,
                    t.satisfied,
                    t.max_est_error,
                    t.tol_abs,
                )
            });
            out.record("replayed retrieve", check);
            for (i, &b) in report.field_bounds.iter().enumerate() {
                let mut view =
                    FieldReader::open_shared(Arc::clone(service.store()), service.manifest(), i)?;
                tr.leaf("refactored.refine", rid, || view.refine_to(b))?;
            }
            let specs = SHARED_TARGETS[r.target]
                .iter()
                .map(|name| archive.spec(name, r.tol))
                .collect::<pqr_util::error::Result<Vec<_>>>()?;
            let est = tr.enter("qoi.estimate", rid);
            drop(std::hint::black_box(
                session.engine().scan_qois(&specs, &report.field_bounds),
            ));
            let est_ms = tr.exit(est);
            self_ms.push(
                exec_ms
                    - tr.request_ms("refactored.refine", rid)
                    - report.iterations as f64 * est_ms,
            );
            ctr.add_plan(&report);
        }
        ladder::per_layer(m, &tr, &ctr, requests, s.archive_bytes, &self_ms);
        let (service_ms, n) = (tr.per_request_ms("archive.service"), requests);
        let service_p50 = stats::median(&service_ms);
        m.add(
            "archive.service_ms",
            "ms",
            service_p50,
            n,
            "median per request",
        );
        let socket_p50 = stats::median(&tr.durations_ms("socket.retrieve"));
        m.add(
            "wire.overhead_ms",
            "ms",
            socket_p50 - service_p50,
            n,
            "p50 socket retrieve - p50 service",
        );

        // the kernels replaying the shared store's deepest decode, once
        let mut kt = Trace::new();
        let mut kc = Counters::default();
        let manifest = archive.manifest()?;
        let src: Arc<dyn FragmentSource> = Arc::new(FileSource::open(&s.path)?);
        for i in 0..manifest.num_fields() {
            let mut f = FieldLadder::open(Arc::clone(&src), &manifest, i)?;
            f.advance(&mut kt, &mut kc, i as u64, service.store().field_bound(i))?;
        }
        m.set(
            "mgard.decode_mb_s",
            ladder::rate_mb_s(&kt, &kc, "mgard.decode"),
            manifest.num_fields(),
            "store's deepest decode replayed",
        );
        m.set(
            "mgard.recompose_ms",
            stats::median(&kt.durations_ms("mgard.recompose")),
            manifest.num_fields(),
            "median per field, store's deepest decode",
        );
        m.set(
            "fragstore.read_ms",
            stats::median(&kt.durations_ms("fragstore.read")),
            manifest.num_fields(),
            "median per field, store's deepest decode",
        );
        tr.absorb(kt);
        Ok(())
    })();
    if let Err(e) = r {
        out.record("traced replay", Err(e.to_string()));
    }
    crate::trace_overhead(m, &tr);
}
