//! The traced layer ladder: timed calls into each module's public
//! functions, made from benchmark code, over one workload's database and
//! reads. Every host-path stage is a separate pass over the probe reads, so
//! no stage runs on caches its predecessor warmed for the same read.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mc_kmer::{Feature, Location};
use mc_net::protocol::{decode_classify_into, encode_classify_packed, encode_results_into};
use mc_net::{NetClient, ReloadHook};
use mc_seqio::SequenceRecord;
use metacache::candidate::{accumulate_locations_into, top_candidates_into};
use metacache::classify::classify_candidates;
use metacache::pipeline::{StreamingClassifier, StreamingConfig};
use metacache::query::{Classifier, QueryScratch};
use metacache::serving::ServingEngine;
use metacache::{
    CandidateList, Classification, Database, HostBackend, ShardedDatabase, SketchScratch,
};

use crate::serve::{engine_config, router_engine, with_server};
use crate::util::{median, nproc, secs, tail, Trace};
use crate::{Check, Metrics};

/// What the ladder runs on.
pub struct LayerCtx<'a> {
    /// The database as the workload serves it.
    pub db: Arc<Database>,
    /// Probe reads and their oracle classifications on `db`.
    pub reads: &'a [SequenceRecord],
    pub oracle: &'a [Classification],
    /// The workload's interleaved read file and its record count.
    pub reads_file: &'a Path,
    pub file_reads: usize,
    /// Request sizes of the workload, cycled by the request-level probes.
    pub request_sizes: &'a [usize],
}

/// Length of each request-level probe, in seconds.
const PROBE_SECS: f64 = 1.0;

/// Cycle through `reads` in contiguous requests of the given sizes.
struct Requests<'a> {
    reads: &'a [SequenceRecord],
    sizes: &'a [usize],
    next_size: usize,
    cursor: usize,
}

impl<'a> Requests<'a> {
    fn new(reads: &'a [SequenceRecord], sizes: &'a [usize]) -> Self {
        Self {
            reads,
            sizes,
            next_size: 0,
            cursor: 0,
        }
    }

    /// The next request: `(first read index, reads)`.
    fn next_request(&mut self) -> (usize, &'a [SequenceRecord]) {
        let n = self.sizes[self.next_size % self.sizes.len()].min(self.reads.len());
        self.next_size += 1;
        if self.cursor + n > self.reads.len() {
            self.cursor = 0;
        }
        let start = self.cursor;
        self.cursor += n;
        (start, &self.reads[start..start + n])
    }
}

fn ns_per(d: Duration, n: usize) -> f64 {
    d.as_nanos() as f64 / n.max(1) as f64
}

/// The probes every workload runs alike, under one root span: host stages,
/// batch and streaming throughput, engine, wire codec and loopback.
/// Returns the root span and the loopback rate.
pub fn common(
    ctx: &LayerCtx,
    trace: &Trace,
    m: &mut Metrics,
    check: &mut Check,
    record_server_stats: bool,
) -> (Option<u32>, f64) {
    let (_, _, root) = trace.span("ladder", None, 0, || ());
    host_stages(ctx, trace, root, m);
    let batch_rate = throughput_layers(ctx, trace, root, m, check);
    let engine_rate = engine_probe(ctx, trace, root, batch_rate, m, check);
    wire_probe(ctx, trace, root, m);
    let loopback = loopback_probe(ctx, trace, root, engine_rate, m, check, record_server_stats);
    (root, loopback)
}

/// Host hot path, one pass per stage: parse, sketch, lookup,
/// accumulate/top, whole `candidates_with`, classify.
fn host_stages(ctx: &LayerCtx, trace: &Trace, root: Option<u32>, m: &mut Metrics) {
    let db = &ctx.db;
    let classifier = Classifier::new(Arc::clone(db));
    let reads = ctx.reads;
    let n = reads.len();

    // mc_seqio: parse the interleaved file (pairs re-joined).
    let (parsed, d, _) = trace.span("parse", root, 0, || {
        let mut records = 0usize;
        for record in crate::inputs::open_interleaved(ctx.reads_file).expect("open read file") {
            std::hint::black_box(record.expect("parse read file"));
            records += 1;
        }
        records
    });
    assert_eq!(parsed, ctx.file_reads, "parsed record count");
    m.push("parse.ns_per_read", ns_per(d, parsed), "ns");

    // Warm the table and the code once before the timed passes.
    let mut scratch = QueryScratch::new();
    for r in reads {
        std::hint::black_box(classifier.candidates_with(r, &mut scratch));
    }

    // metacache::sketch
    let sketcher = classifier.sketcher();
    let mut sk = SketchScratch::new();
    let mut feats: Vec<Feature> = Vec::new();
    let (features, d, _) = trace.span("sketch", root, 0, || {
        let mut total = 0usize;
        for r in reads {
            feats.clear();
            sketcher.sketch_record_into(r, &mut sk, &mut feats);
            total += feats.len();
        }
        total
    });
    m.push("sketch.ns_per_read", ns_per(d, n), "ns");
    m.push(
        "sketch.features_per_read",
        features as f64 / n as f64,
        "count",
    );
    let per_read: Vec<Vec<Feature>> = reads
        .iter()
        .map(|r| {
            let mut f = Vec::new();
            sketcher.sketch_record_into(r, &mut sk, &mut f);
            f
        })
        .collect();

    // metacache::database lookup, batched per read as the hot path does.
    let mut locs: Vec<Location> = Vec::new();
    let (locations, d, _) = trace.span("lookup", root, 0, || {
        let mut total = 0usize;
        for f in &per_read {
            locs.clear();
            total += db.query_features_into(f, &mut locs);
        }
        total
    });
    m.push("lookup.ns_per_read", ns_per(d, n), "ns");
    m.push(
        "lookup.locations_per_read",
        locations as f64 / n as f64,
        "count",
    );
    let (mut hits, mut queried) = (0usize, 0usize);
    for f in &per_read {
        for &feature in f {
            locs.clear();
            queried += 1;
            if db.query_feature_into(feature, &mut locs) > 0 {
                hits += 1;
            }
        }
    }
    m.push(
        "lookup.hit_ratio",
        hits as f64 / queried.max(1) as f64,
        "ratio",
    );
    let sorted: Vec<Vec<Location>> = per_read
        .iter()
        .map(|f| {
            let mut l = Vec::new();
            db.query_features_into(f, &mut l);
            l.sort_unstable();
            l
        })
        .collect();
    drop(per_read);

    // metacache::candidate: accumulate + top candidates over sorted runs.
    let mut counts: Vec<(Location, u32)> = Vec::new();
    let mut list = CandidateList::new(db.config.top_candidates);
    let ((), d_acc, _) = trace.span("accumulate_top", root, 0, || {
        for (r, l) in reads.iter().zip(&sorted) {
            accumulate_locations_into(l, &mut counts);
            top_candidates_into(
                &counts,
                db.config.sliding_window_size(r.total_len()),
                &mut list,
            );
            std::hint::black_box(&list);
        }
    });
    drop(sorted);
    m.push("accumulate_top.ns_per_read", ns_per(d_acc, n), "ns");

    // metacache::query: the whole Classifier::candidates_with.
    let ((), d_cand, _) = trace.span("candidates", root, 0, || {
        for r in reads {
            std::hint::black_box(classifier.candidates_with(r, &mut scratch));
        }
    });
    let d_sketch = trace.total("sketch").0;
    let d_lookup = trace.total("lookup").0;
    m.push("candidates.ns_per_read", ns_per(d_cand, n), "ns");
    // sort_location_runs is crate-private: its cost is the residual.
    let residual = ns_per(d_cand, n) - ns_per(d_sketch, n) - ns_per(d_lookup, n) - ns_per(d_acc, n);
    m.push("sort.ns_per_read_derived", residual, "ns");

    // metacache::classify over the precomputed candidate lists.
    let lists: Vec<CandidateList> = reads
        .iter()
        .map(|r| classifier.candidates_with(r, &mut scratch).clone())
        .collect();
    let (classified, d, _) = trace.span("classify", root, 0, || {
        lists
            .iter()
            .filter(|l| classify_candidates(db, &db.config, l).is_classified())
            .count()
    });
    m.push("classify.ns_per_read", ns_per(d, n), "ns");
    m.push("classified_ratio", classified as f64 / n as f64, "ratio");
}

/// Repeat `pass` for at least `min_secs` (and three passes); returns the
/// median reads/s.
fn repeated_rate(
    trace: &Trace,
    name: &'static str,
    root: Option<u32>,
    min_secs: f64,
    reads: usize,
    mut pass: impl FnMut() -> bool,
    check: &mut Check,
) -> f64 {
    let started = Instant::now();
    let mut rates = Vec::new();
    let mut i = 0u64;
    while rates.len() < 3 || secs(started.elapsed()) < min_secs {
        let (ok, d, _) = trace.span(name, root, i, &mut pass);
        check.attempt(ok);
        rates.push(reads as f64 / secs(d));
        i += 1;
    }
    median(&rates)
}

/// `Classifier::classify_batch` and `StreamingClassifier` over the probe
/// reads with all CPUs. Returns the batch rate.
fn throughput_layers(
    ctx: &LayerCtx,
    trace: &Trace,
    root: Option<u32>,
    m: &mut Metrics,
    check: &mut Check,
) -> f64 {
    let classifier = Classifier::new(Arc::clone(&ctx.db));
    let n = ctx.reads.len();
    let batch = repeated_rate(
        trace,
        "classify_batch",
        root,
        0.5,
        n,
        || classifier.classify_batch(ctx.reads) == ctx.oracle,
        check,
    );
    let streaming = StreamingClassifier::with_config(
        Arc::clone(&ctx.db),
        StreamingConfig {
            workers: nproc(),
            ..StreamingConfig::default()
        },
    );
    let stream = repeated_rate(
        trace,
        "streaming",
        root,
        0.5,
        n,
        || streaming.classify_iter(ctx.reads.iter().cloned()).0 == ctx.oracle,
        check,
    );
    m.push("classify_batch.reads_per_s", batch, "reads/s");
    m.push("streaming.reads_per_s", stream, "reads/s");
    m.push("streaming.over_batch", stream / batch, "ratio");
    batch
}

/// A closed loop of requests for [`PROBE_SECS`]: `call` answers one
/// request with `Some(classifications)`, or `None` when it failed. Returns
/// (reads/s, request latencies in ms).
fn closed_loop(
    ctx: &LayerCtx,
    trace: &Trace,
    name: &'static str,
    root: Option<u32>,
    check: &mut Check,
    mut call: impl FnMut(&[SequenceRecord]) -> Option<Vec<Classification>>,
) -> (f64, Vec<f64>) {
    let mut requests = Requests::new(ctx.reads, ctx.request_sizes);
    let mut latencies = Vec::new();
    let mut done_reads = 0usize;
    let started = Instant::now();
    let mut id = 0u64;
    while secs(started.elapsed()) < PROBE_SECS || latencies.len() < 20 {
        let (first, chunk) = requests.next_request();
        let (out, d, _) = trace.span(name, root, id, || call(chunk));
        id += 1;
        match out {
            Some(c) => {
                check.attempt(c[..] == ctx.oracle[first..first + chunk.len()]);
                done_reads += chunk.len();
            }
            None => check.fail(),
        }
        latencies.push(d.as_secs_f64() * 1e3);
    }
    (done_reads as f64 / secs(started.elapsed()), latencies)
}

/// Engine layer: one session's `classify_batch` at the workload's request
/// sizes. Returns engine reads/s.
fn engine_probe(
    ctx: &LayerCtx,
    trace: &Trace,
    root: Option<u32>,
    batch_rate: f64,
    m: &mut Metrics,
    check: &mut Check,
) -> f64 {
    let engine = ServingEngine::host_with_config(Arc::clone(&ctx.db), engine_config());
    let (rate, latencies) = {
        let mut session = engine.session();
        // Warm-up: lazy worker state and caches.
        let mut warm = Requests::new(ctx.reads, ctx.request_sizes);
        for _ in 0..8 {
            session.classify_batch(warm.next_request().1);
        }
        closed_loop(ctx, trace, "engine.request", root, check, |chunk| {
            Some(session.classify_batch(chunk))
        })
    };
    let stats = engine.shutdown();
    m.push("engine.reads_per_s", rate, "reads/s");
    m.push("engine.over_classify_batch", rate / batch_rate, "ratio");
    m.push("engine.request_ms_p99", tail(&latencies).1, "ms");
    m.push(
        "engine.peak_queue_batches",
        stats.peak_queue_batches as f64,
        "batches",
    );
    rate
}

/// Wire codec: request encode / server-side decode and response encode at
/// the workload's request sizes.
fn wire_probe(ctx: &LayerCtx, trace: &Trace, root: Option<u32>, m: &mut Metrics) {
    let mut requests = Requests::new(ctx.reads, ctx.request_sizes);
    let shapes: Vec<(usize, &[SequenceRecord])> =
        (0..512).map(|_| requests.next_request()).collect();
    let total_reads: usize = shapes.iter().map(|(_, r)| r.len()).sum();
    let (frames, d_enc, _) = trace.span("wire.encode", root, 0, || {
        shapes
            .iter()
            .enumerate()
            .map(|(i, (_, r))| encode_classify_packed(i as u64, r).expect("encodable request"))
            .collect::<Vec<Vec<u8>>>()
    });
    let request_bytes: usize = frames.iter().map(Vec::len).sum();
    let mut decoded = Vec::new();
    let ((), d_dec, _) = trace.span("wire.decode", root, 0, || {
        for f in &frames {
            decode_classify_into(f[4], &f[5..], &mut decoded).expect("decodable request");
        }
    });
    let mut response = Vec::new();
    let mut response_bytes = 0usize;
    for (i, (first, r)) in shapes.iter().enumerate() {
        encode_results_into(
            &mut response,
            i as u64,
            &ctx.oracle[*first..first + r.len()],
            Some(0),
        )
        .expect("encodable response");
        response_bytes += response.len();
    }
    m.push(
        "wire.request_bytes_per_read",
        request_bytes as f64 / total_reads as f64,
        "bytes",
    );
    m.push(
        "wire.response_bytes_per_read",
        response_bytes as f64 / total_reads as f64,
        "bytes",
    );
    m.push("encode.ns_per_read", ns_per(d_enc, total_reads), "ns");
    m.push("decode.ns_per_read", ns_per(d_dec, total_reads), "ns");
}

/// Net layer: `NetServer` over an engine, one `NetClient` at the
/// workload's request sizes. Returns loopback reads/s.
fn loopback_probe(
    ctx: &LayerCtx,
    trace: &Trace,
    root: Option<u32>,
    engine_rate: f64,
    m: &mut Metrics,
    check: &mut Check,
    record_server_stats: bool,
) -> f64 {
    let engine = ServingEngine::host_with_config(Arc::clone(&ctx.db), engine_config());
    let ((rate, _), stats) = with_server(&engine, None, |addr| {
        let mut client = NetClient::connect(addr).expect("connect loopback");
        let mut warm = Requests::new(ctx.reads, ctx.request_sizes);
        for _ in 0..8 {
            client
                .classify_batch(warm.next_request().1)
                .expect("warm-up request");
        }
        closed_loop(ctx, trace, "loopback.request", root, check, |chunk| {
            client.classify_batch(chunk).ok()
        })
    });
    engine.shutdown();
    m.push("loopback.reads_per_s", rate, "reads/s");
    m.push("loopback.over_engine", rate / engine_rate, "ratio");
    if record_server_stats {
        server_stats(&stats, m);
    }
    rate
}

/// `ServerStats` counters read at drain.
pub fn server_stats(stats: &mc_net::ServerStats, m: &mut Metrics) {
    m.push("server.requests", stats.requests as f64, "count");
    m.push("server.shed_requests", stats.shed_requests as f64, "count");
    m.push(
        "server.protocol_errors",
        stats.protocol_errors as f64,
        "count",
    );
}

/// Per-leg candidate cost of a shard split, single thread.
pub fn shard_legs(
    split: &ShardedDatabase,
    reads: &[SequenceRecord],
    trace: &Trace,
    root: Option<u32>,
    m: &mut Metrics,
) {
    const NAMES: [&str; 2] = [
        "shard0.candidates_ns_per_read",
        "shard1.candidates_ns_per_read",
    ];
    let mut scratch = QueryScratch::new();
    for (leg, shard) in split.shards().iter().enumerate().take(2) {
        let classifier = Classifier::new(Arc::clone(shard));
        for r in reads {
            std::hint::black_box(classifier.candidates_with(r, &mut scratch));
        }
        let ((), d, _) = trace.span("shard.candidates", root, leg as u64, || {
            for r in reads {
                std::hint::black_box(classifier.candidates_with(r, &mut scratch));
            }
        });
        m.push(NAMES[leg], ns_per(d, reads.len()), "ns");
    }
    let max = split
        .shards()
        .iter()
        .map(|s| s.table_bytes())
        .max()
        .unwrap_or(0);
    m.push("shard.table_mb_max", max as f64 / 1e6, "MB");
}

/// Shard + router layers on the workload's own references: split a fresh
/// copy two ways, serve each shard, route, and stream through the router.
pub fn router_probe(
    ctx: &LayerCtx,
    owned: Database,
    trace: &Trace,
    root: Option<u32>,
    loopback_rate: f64,
    m: &mut Metrics,
    check: &mut Check,
) {
    let (split, d, _) = trace.span("split", root, 0, || {
        ShardedDatabase::round_robin(owned, 2).expect("two-way split")
    });
    m.push("split.s", secs(d), "s");
    shard_legs(&split, ctx.reads, trace, root, m);
    let shard_engines: Vec<ServingEngine> = split
        .shards()
        .iter()
        .map(|s| ServingEngine::host_with_config(Arc::clone(s), engine_config()))
        .collect();
    let rate = with_server(&shard_engines[0], None, |a0| {
        with_server(&shard_engines[1], None, |a1| {
            let router = router_engine(Arc::clone(split.meta()), &[a0, a1]);
            let (rate, _) = with_server(&router, None, |addr| {
                let mut client = NetClient::connect(addr).expect("connect router");
                let mut warm = Requests::new(ctx.reads, ctx.request_sizes);
                for _ in 0..8 {
                    client
                        .classify_batch(warm.next_request().1)
                        .expect("warm-up request");
                }
                closed_loop(ctx, trace, "router.request", root, check, |chunk| {
                    client.classify_batch(chunk).ok()
                })
                .0
            });
            router.shutdown();
            rate
        })
        .0
    })
    .0;
    for e in shard_engines {
        e.shutdown();
    }
    m.push("router.reads_per_s", rate, "reads/s");
    m.push("router.over_loopback", rate / loopback_rate, "ratio");
}

/// Write path beside reads on one server: apply a delta to a fresh copy,
/// then swap generations through `Reload` frames under a streaming client.
pub fn reload_probe(
    ctx: &LayerCtx,
    mut owned: Database,
    delta: metacache::DatabaseDelta,
    trace: &Trace,
    root: Option<u32>,
    m: &mut Metrics,
    check: &mut Check,
) {
    let (stats, d, _) = trace.span("reload.apply", root, 0, || owned.apply_delta(delta));
    stats.expect("delta applies");
    m.push("reload.apply_s", secs(d), "s");
    let next = Arc::new(owned);
    let next_oracle = Classifier::new(Arc::clone(&next)).classify_batch(ctx.reads);
    // The generation check can only fail if the two oracles differ.
    let differ = ctx
        .oracle
        .iter()
        .zip(&next_oracle)
        .filter(|(a, b)| a != b)
        .count();
    assert!(
        differ > 0,
        "the reload delta changes no probe read's classification"
    );
    let generations = [Arc::clone(&ctx.db), Arc::clone(&next)];
    let hook: ReloadHook = Arc::new(move |engine: &ServingEngine| {
        let g = (engine.generation() + 1) as usize % 2;
        Ok(engine.reload_backend(HostBackend::new(Arc::clone(&generations[g]))))
    });
    let oracles = [ctx.oracle, &next_oracle[..]];
    let engine = ServingEngine::host_with_config(Arc::clone(&ctx.db), engine_config());
    let stop = AtomicBool::new(false);
    let completions: Mutex<Vec<(Instant, usize)>> = Mutex::new(Vec::new());
    let (windows, _) = with_server(&engine, Some(hook), |addr| {
        std::thread::scope(|scope| {
            let traffic = scope.spawn(|| {
                let mut client = NetClient::connect(addr).expect("connect loopback");
                let mut requests = Requests::new(ctx.reads, ctx.request_sizes);
                let mut local = Check::default();
                let mut done = Vec::new();
                while !stop.load(Ordering::SeqCst) {
                    let (first, chunk) = requests.next_request();
                    match client.classify_batch(chunk) {
                        Ok(c) => {
                            let g = client.database_generation().unwrap_or(0) as usize % 2;
                            local.attempt(c[..] == oracles[g][first..first + chunk.len()]);
                            done.push((Instant::now(), chunk.len()));
                        }
                        Err(_) => local.fail(),
                    }
                }
                completions.lock().expect("completions").extend(done);
                local
            });
            let mut admin = NetClient::connect(addr).expect("connect admin");
            let mut windows = Vec::new();
            let mut acks = Vec::new();
            std::thread::sleep(Duration::from_secs_f64(PROBE_SECS / 3.0));
            for i in 0..2u64 {
                let t0 = Instant::now();
                let (ack, d, _) = trace.span("reload.ack", root, i, || admin.reload());
                check.attempt(ack.is_ok());
                acks.push(d.as_secs_f64() * 1e3);
                windows.push((t0, Instant::now() + Duration::from_millis(100)));
                std::thread::sleep(Duration::from_secs_f64(PROBE_SECS / 3.0));
            }
            stop.store(true, Ordering::SeqCst);
            check.merge(traffic.join().expect("traffic thread"));
            m.push("reload.ack_ms", median(&acks), "ms");
            windows
        })
    });
    engine.shutdown();
    let completions = completions.into_inner().expect("completions");
    m.push(
        "reload.dip_ratio",
        dip_ratio(&completions, &windows),
        "ratio",
    );
}

/// Reads/s completed inside the windows over reads/s outside them.
pub fn dip_ratio(completions: &[(Instant, usize)], windows: &[(Instant, Instant)]) -> f64 {
    let (Some(first), Some(last)) = (completions.first(), completions.last()) else {
        return f64::NAN;
    };
    let inside = |t: Instant| windows.iter().any(|(a, b)| t >= *a && t <= *b);
    let window_secs: f64 = windows
        .iter()
        .map(|(a, b)| secs(b.saturating_duration_since(*a)))
        .sum();
    let total_secs = secs(last.0.saturating_duration_since(first.0));
    let (mut in_reads, mut out_reads) = (0usize, 0usize);
    for &(t, n) in completions {
        if inside(t) {
            in_reads += n;
        } else {
            out_reads += n;
        }
    }
    let in_rate = in_reads as f64 / window_secs.max(1e-9);
    let out_rate = out_reads as f64 / (total_secs - window_secs).max(1e-9);
    in_rate / out_rate
}

/// Serialization layer on a copy of the database: save, then load back
/// into the condensed layout.
pub fn serialize_probe(
    db: &Database,
    dir: &Path,
    trace: &Trace,
    root: Option<u32>,
    m: &mut Metrics,
) {
    let (report, d, _) = trace.span("save", root, 0, || {
        metacache::serialize::save(db, dir, "probe").expect("save database")
    });
    m.push("save.s", secs(d), "s");
    let (loaded, d, _) = trace.span("load", root, 0, || {
        metacache::serialize::load(dir, "probe").expect("load database")
    });
    let file_mb = report.total_bytes as f64 / 1e6;
    m.push("load.s", secs(d), "s");
    m.push("load.mb_per_s", file_mb / secs(d), "MB/s");
    m.push("db.file_mb", file_mb, "MB");
    m.push(
        "table_mb.condensed",
        loaded.table_bytes() as f64 / 1e6,
        "MB",
    );
    for f in &report.files {
        let _ = std::fs::remove_file(f);
    }
}
