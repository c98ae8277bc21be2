//! `routed_reload`: a router in front of two shard servers on loopback. The
//! shards are condensed tables split from one build with
//! `ShardedDatabase::round_robin`. One client streams 1024-read batches
//! closed-loop through pipelined `NetClient::classify_iter`, while on a
//! fixed schedule the topology is reloaded with a `DatabaseDelta`: the
//! router's reload hook rebuilds, applies the updates, splits, swaps its own
//! metadata and then tells each shard to reload, the order `mc-serve route`
//! uses. This is the only workload with scatter-gather, the per-shard
//! re-sketch and the database write path running beside reads.
//!
//! Generation `g` is the references plus the first `g` updates; each update
//! adds genomes the off-reference reads are drawn from, so every generation
//! classifies some reads differently from the one before (asserted).
//!
//! The oracle gate checks every frame of every call against the oracle of
//! the generation the router reports, exactly. The reload sweep itself (the
//! router's swap and the shard reloads, about 0.1 s) is fenced: the
//! hook waits until the client's call in flight has finished and holds the
//! next call back until every shard has reloaded. Rebuild, update and split,
//! the bulk of a reload, run beside reads. Without the fence the router
//! answers calls during the sweep that no single generation produced: after
//! its swap it tags generation `g - 1` shard answers with `g`, and a batch
//! it pinned before its swap can merge shard lists of `g` under the
//! metadata of `g - 1`. That is a defect of the router, which the benchmark
//! does not hide by loosening the gate; the fence's pause counts in the
//! latency of the call it holds back.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use mc_datagen::community::ReferenceCollection;
use mc_net::{NetClient, ReloadHook, RouterBackend};
use mc_seqio::SequenceRecord;
use metacache::query::Classifier;
use metacache::serving::ServingEngine;
use metacache::{Classification, Database, DatabaseDelta, HostBackend, ShardedDatabase};

use crate::inputs::{self, ReadMix, RefShape};
use crate::layers::{self, LayerCtx};
use crate::serve::{engine_config, router_config, router_engine, with_server};
use crate::util::{
    dist_json, llc_bytes, median, nproc, peak_rss_mb, reset_peak_rss, secs, tail, work_dir, Json,
    Retries, Trace, MAX_RETRIES,
};
use crate::{Args, Check, Metrics, Outcome};

/// ~4 Mbp split two ways.
const REFS: RefShape = RefShape {
    genera: 8,
    species_per_genus: 4,
    genome_length: 100_000,
    afs_genomes: 2,
    afs_length: 300_000,
    afs_scaffolds: 16,
};

const MIX: ReadMix = ReadMix {
    hiseq: 3_000,
    miseq: 1_000,
    paired: 1_000,
    off_reference: 600,
};

/// Reads per `classify_iter` call.
const CALL_READS: usize = 1024;
/// Timed segments per run, one reload at the middle of each.
const SEGMENTS: usize = 4;
/// Reloads a run can make: one per segment attempt, repeats included.
const UPDATES: usize = SEGMENTS + MAX_RETRIES as usize;
/// Absent genomes each update adds, and their length.
const GENOMES_PER_UPDATE: usize = 2;
const ABSENT_LENGTH: usize = 100_000;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
const SHARDS: usize = 2;

/// Timings the router's reload hook records.
#[derive(Default)]
struct HookTimes {
    apply_s: Vec<f64>,
    split_s: Vec<f64>,
    shard_ack_ms: Vec<f64>,
    /// The fenced sweep: router swap plus every shard reload.
    sweep_ms: Vec<f64>,
}

/// Holds the streaming client back between calls while the reload hook
/// swaps the router and the shards (see the module docs).
#[derive(Default)]
struct Fence {
    state: Mutex<FenceState>,
    changed: Condvar,
}

#[derive(Default)]
struct FenceState {
    closed: bool,
    in_call: bool,
}

impl Fence {
    fn lock(&self) -> std::sync::MutexGuard<'_, FenceState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Client side: wait while the fence is closed, then start a call.
    fn enter(&self) {
        let mut state = self.lock();
        while state.closed {
            state = self.changed.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        state.in_call = true;
    }

    /// Client side: the call has returned every answer.
    fn leave(&self) {
        self.lock().in_call = false;
        self.changed.notify_all();
    }

    /// Hook side: close the fence, wait out the call in flight, run
    /// `sweep` with no call in flight, then reopen.
    fn closed<T>(&self, sweep: impl FnOnce() -> T) -> T {
        let mut state = self.lock();
        state.closed = true;
        while state.in_call {
            state = self.changed.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        drop(state);
        let out = sweep();
        self.lock().closed = false;
        self.changed.notify_all();
        out
    }
}

/// Everything one timed phase produced.
#[derive(Default)]
struct Drive {
    call_ms: Vec<f64>,
    reads: usize,
    elapsed: f64,
    reload_s: Vec<f64>,
    completions: Vec<(Instant, usize)>,
    windows: Vec<(Instant, Instant)>,
    check: Check,
    steals: Vec<f64>,
}

pub fn run(args: &Args) -> Outcome {
    let trace = Trace::new(args.trace);
    let dir = work_dir(&args.workload, args.seed);
    std::fs::create_dir_all(&dir).expect("create work directory");
    let mut m = Metrics::default();
    let mut check = Check::default();

    let refs = Arc::new(inputs::references(args.seed, REFS));
    let absent = inputs::absent_genomes(args.seed, UPDATES * GENOMES_PER_UPDATE, ABSENT_LENGTH);
    let reads = inputs::read_mix(args.seed, &refs, &absent, MIX);
    let reads_file = dir.join("reads.fq");
    inputs::write_interleaved(&reads_file, &reads).expect("write read file");
    let updates = Arc::new(inputs::update_deltas(&absent, GENOMES_PER_UPDATE));
    assert_eq!(updates.len(), UPDATES, "one update per possible reload");
    drop(absent);
    // One oracle per generation, and how many reads each generation
    // classifies differently from the one before.
    let mut oracles = Vec::with_capacity(UPDATES + 1);
    let mut db = inputs::build(&refs);
    oracles.push(Classifier::new(&db).classify_batch(&reads));
    for update in updates.iter() {
        db.apply_delta(update.clone()).expect("update applies");
        oracles.push(Classifier::new(&db).classify_batch(&reads));
    }
    drop(db);
    let oracle_diff: Vec<u64> = oracles
        .windows(2)
        .map(|w| w[0].iter().zip(&w[1]).filter(|(a, b)| a != b).count() as u64)
        .collect();
    assert!(
        oracle_diff.iter().all(|&n| n > 0),
        "an update changes no read's classification: {oracle_diff:?}"
    );
    reset_peak_rss();

    let mut setups = Vec::new();
    let mut builds = Vec::new();
    let mut splits = Vec::new();
    let mut gate = Check::default();
    let mut measured = None;
    for rep in 0..SETUP_REPEATS {
        let started = Instant::now();
        let db = inputs::build(&refs);
        builds.push(secs(started.elapsed()));
        let host_table = db.table_bytes();
        let t = Instant::now();
        let split = Arc::new(ShardedDatabase::round_robin(db, SHARDS).expect("split"));
        splits.push(secs(t.elapsed()));
        let last = rep + 1 == SETUP_REPEATS;
        let out = topology(&refs, &updates, &split, |router_addr, times, fence| {
            let mut probe = NetClient::connect(router_addr).expect("connect router");
            let first = probe.classify_batch(&reads[..1]).expect("first request");
            check.attempt(first[0] == oracles[0][0]);
            setups.push(secs(started.elapsed()));
            drop(probe);
            if !last {
                return None;
            }
            let mut client = NetClient::connect(router_addr).expect("connect router");
            // Warm-up: router legs connect lazily, caches fill.
            for (i, chunk) in reads.chunks(CALL_READS).enumerate() {
                let (out, _) = client
                    .classify_iter(chunk.iter().cloned())
                    .expect("warm-up");
                check.attempt(out[..] == oracles[0][i * CALL_READS..][..chunk.len()]);
            }
            // Segments of equal length, each with one reload at its middle,
            // each repeated if other guests stole the machine during it.
            // Every attempt's answers pass the gate, kept or not.
            let mut retries = Retries::new();
            let mut segments = |n: usize, traced: Option<&Trace>| {
                let mut all = Drive::default();
                for _ in 0..n {
                    let (d, steal) = retries.run(|| {
                        let mut d = drive(
                            router_addr,
                            &mut client,
                            fence,
                            &reads,
                            &oracles,
                            args.seconds / SEGMENTS as f64,
                            traced,
                        );
                        gate.merge(std::mem::take(&mut d.check));
                        d
                    });
                    all.steals.push(steal);
                    all.merge(d);
                }
                all
            };
            let (main, overhead) = if args.trace {
                let untraced = segments(SEGMENTS / 2, None);
                let traced = segments(SEGMENTS / 2, Some(&trace));
                let rate = |d: &Drive| d.reads as f64 / d.elapsed;
                let overhead = 1.0 - rate(&traced) / rate(&untraced);
                let mut both = untraced;
                both.merge(traced);
                (both, Some(overhead))
            } else {
                (segments(SEGMENTS, None), None)
            };
            let retries_used = retries.used;
            let hook_times = std::mem::take(&mut *times.lock().expect("hook times"));
            // Reload up to the last generation whatever the number of
            // repeated segments, so every run peaks on the same database
            // size, then gate one call on that generation.
            let mut generation = client.database_generation().unwrap_or(0);
            while (generation as usize) < UPDATES {
                match NetClient::connect(router_addr).and_then(|mut admin| admin.reload()) {
                    Ok(g) => {
                        check.attempt(true);
                        generation = g;
                    }
                    Err(_) => {
                        check.fail();
                        break;
                    }
                }
            }
            match client.classify_iter(reads[..CALL_READS].iter().cloned()) {
                Ok((got, _)) => {
                    let g = client.database_generation().unwrap_or(0) as usize;
                    check.attempt(g == UPDATES && got[..] == oracles[g][..CALL_READS]);
                }
                Err(_) => check.fail(),
            }
            Some((main, overhead, hook_times, retries_used))
        });
        if let Some(((main, overhead, hook_times, retries_used), server)) = out {
            measured = Some((
                main,
                overhead,
                hook_times,
                retries_used,
                server,
                split,
                host_table,
            ));
        }
    }
    let (drive_out, overhead, hook_times, retries_used, router_stats, split, host_table) =
        measured.expect("last set-up measured");
    check.merge(gate);

    let rate = drive_out.reads as f64 / drive_out.elapsed;
    m.push("setup_s", median(&setups), "s");
    m.push("reads_per_s", rate, "reads/s");
    m.push("p50_ms", median(&drive_out.call_ms), "ms");
    m.push("tail_ms", tail(&drive_out.call_ms).1, "ms");
    m.push("rss_mb", peak_rss_mb(), "MB");

    if args.trace {
        let build_s = median(&builds);
        m.push("build.s", build_s, "s");
        m.push(
            "build.mbases_per_s",
            inputs::mbases(&refs) / build_s,
            "Mbases/s",
        );
        m.push("table_mb.host", host_table as f64 / 1e6, "MB");
        m.push("split.s", median(&splits), "s");
        m.push("reload.apply_s", median(&hook_times.apply_s), "s");
        m.push("reload.ack_ms", median(&hook_times.shard_ack_ms), "ms");
        m.push(
            "reload.dip_ratio",
            layers::dip_ratio(&drive_out.completions, &drive_out.windows),
            "ratio",
        );
        layers::server_stats(&router_stats, &mut m);
        m.push("trace.overhead_frac", overhead.expect("traced run"), "frac");

        // Layer ladder on the unsharded generation-0 database.
        let db = Arc::new(inputs::build(&refs));
        let ctx = LayerCtx {
            db: Arc::clone(&db),
            reads: &reads,
            oracle: &oracles[0],
            reads_file: &reads_file,
            file_reads: reads.len(),
            request_sizes: &[CALL_READS],
        };
        let (root, loopback) = layers::common(&ctx, &trace, &mut m, &mut check, false);
        layers::serialize_probe(&db, &dir, &trace, root, &mut m);
        layers::shard_legs(&split, &reads, &trace, root, &mut m);
        let steady = steady_rate(&drive_out);
        m.push("router.reads_per_s", steady, "reads/s");
        m.push("router.over_loopback", steady / loopback, "ratio");
        let _ = trace.write_to(&dir.with_extension("spans.jsonl"));
    }

    let record = Json::obj()
        .str("layout", split.shards()[0].partitions[0].store.kind())
        .int("shards", SHARDS as u64)
        .int("table_bytes", split.table_bytes() as u64)
        .int("llc_bytes", llc_bytes())
        .bool(
            "table_exceeds_llc",
            split.table_bytes() as u64 > llc_bytes(),
        )
        .num("reference_mbases", inputs::mbases(&refs))
        .set("reads", MIX.json())
        .int("call_reads", CALL_READS as u64)
        .int("genomes_per_update", GENOMES_PER_UPDATE as u64)
        .int("reloads_measured", drive_out.reload_s.len() as u64)
        .set(
            "oracle_diff_reads",
            Json::Arr(oracle_diff.iter().map(|&n| Json::Int(n)).collect()),
        )
        .int("engine_workers", nproc() as u64)
        .num("reload_s", median(&drive_out.reload_s))
        .set("reload_s_all", dist_json(&drive_out.reload_s))
        .num("p50_ms", median(&drive_out.call_ms))
        .num("p99_ms", tail(&drive_out.call_ms).1)
        .set("call_ms", dist_json(&drive_out.call_ms))
        .num("steady_reads_per_s", steady_rate(&drive_out))
        .set("steal_frac", dist_json(&drive_out.steals))
        .int("steal_retries", u64::from(retries_used))
        .set("reload_apply_s", dist_json(&hook_times.apply_s))
        .set("reload_split_s", dist_json(&hook_times.split_s))
        .set("reload_shard_ack_ms", dist_json(&hook_times.shard_ack_ms))
        .set("reload_sweep_ms", dist_json(&hook_times.sweep_ms))
        .set("setup_s", dist_json(&setups))
        .int("spans", trace.len() as u64);
    let _ = std::fs::remove_dir_all(&dir);
    Outcome {
        check,
        metrics: m,
        record,
    }
}

impl Drive {
    fn merge(&mut self, other: Drive) {
        self.call_ms.extend(other.call_ms);
        self.reads += other.reads;
        self.elapsed += other.elapsed;
        self.reload_s.extend(other.reload_s);
        self.completions.extend(other.completions);
        self.windows.extend(other.windows);
        self.check.merge(other.check);
        self.steals.extend(other.steals);
    }
}

/// Reads/s of the calls that completed outside every reload window.
fn steady_rate(d: &Drive) -> f64 {
    let inside = |t: Instant| d.windows.iter().any(|(a, b)| t >= *a && t <= *b);
    let window_secs: f64 = d
        .windows
        .iter()
        .map(|(a, b)| secs(b.saturating_duration_since(*a)))
        .sum();
    let reads: usize = d
        .completions
        .iter()
        .filter(|(t, _)| !inside(*t))
        .map(|(_, n)| n)
        .sum();
    reads as f64 / (d.elapsed - window_secs).max(1e-9)
}

/// Generation `g` (at least 1) built the way a reload builds it: the
/// references, then updates `0..g`. Returns it with the time of applying
/// the last update, the write-path step the reload adds.
fn generation_db(
    refs: &ReferenceCollection,
    updates: &[DatabaseDelta],
    g: usize,
) -> Result<(Database, f64), String> {
    let newest = updates
        .get(g - 1)
        .ok_or(format!("no update left for generation {g}"))?;
    let mut db = inputs::build(refs);
    for update in &updates[..g - 1] {
        db.apply_delta(update.clone()).map_err(|e| e.to_string())?;
    }
    let t = Instant::now();
    db.apply_delta(newest.clone()).map_err(|e| e.to_string())?;
    Ok((db, secs(t.elapsed())))
}

/// Bring up two shard servers and the router over `split`, run `body`
/// against the router's address and the fence its reload hook closes, and
/// tear everything down.
fn topology<T>(
    refs: &Arc<ReferenceCollection>,
    updates: &Arc<Vec<DatabaseDelta>>,
    split: &Arc<ShardedDatabase>,
    body: impl FnOnce(SocketAddr, &Mutex<HookTimes>, &Fence) -> Option<T>,
) -> Option<(T, mc_net::ServerStats)> {
    // The split the shard hooks publish next; the router hook fills it.
    let next: Arc<Mutex<Option<Arc<ShardedDatabase>>>> = Arc::new(Mutex::new(None));
    let shard_hook = |k: usize| -> ReloadHook {
        let next = Arc::clone(&next);
        Arc::new(move |engine: &ServingEngine| {
            let split = next
                .lock()
                .expect("next split")
                .clone()
                .ok_or("no split staged")?;
            Ok(engine.reload_backend(HostBackend::new(Arc::clone(&split.shards()[k]))))
        })
    };
    let engines: Vec<ServingEngine> = split
        .shards()
        .iter()
        .map(|s| ServingEngine::host_with_config(Arc::clone(s), engine_config()))
        .collect();
    let times = Arc::new(Mutex::new(HookTimes::default()));
    let fence = Arc::new(Fence::default());
    let (out, _) = with_server(&engines[0], Some(shard_hook(0)), |a0| {
        with_server(&engines[1], Some(shard_hook(1)), |a1| {
            let addrs = [a0, a1];
            let router = router_engine(Arc::clone(split.meta()), &addrs);
            let hook: ReloadHook = {
                let (refs, updates, next, times, fence) = (
                    Arc::clone(refs),
                    Arc::clone(updates),
                    Arc::clone(&next),
                    Arc::clone(&times),
                    Arc::clone(&fence),
                );
                Arc::new(move |engine: &ServingEngine| {
                    let g = engine.generation() as usize + 1;
                    let (db, apply_s) = generation_db(&refs, &updates, g)?;
                    let t = Instant::now();
                    let split =
                        ShardedDatabase::round_robin(db, SHARDS).map_err(|e| e.to_string())?;
                    let split_s = secs(t.elapsed());
                    let meta = Arc::clone(split.meta());
                    *next.lock().expect("next split") = Some(Arc::new(split));
                    let backend = RouterBackend::new(meta, &addrs, router_config())
                        .map_err(|e| e.to_string())?;
                    let mut acks = Vec::new();
                    let t = Instant::now();
                    let generation = fence.closed(|| -> Result<u64, String> {
                        let generation = engine.reload_backend(backend);
                        for addr in addrs {
                            let t = Instant::now();
                            NetClient::connect(addr)
                                .and_then(|mut c| c.reload())
                                .map_err(|e| format!("reload shard {addr}: {e}"))?;
                            acks.push(secs(t.elapsed()) * 1e3);
                        }
                        Ok(generation)
                    })?;
                    let sweep_ms = secs(t.elapsed()) * 1e3;
                    let mut times = times.lock().expect("hook times");
                    times.apply_s.push(apply_s);
                    times.split_s.push(split_s);
                    times.shard_ack_ms.extend(acks);
                    times.sweep_ms.push(sweep_ms);
                    Ok(generation)
                })
            };
            let out = with_server(&router, Some(hook), |addr| body(addr, &times, &fence));
            router.shutdown();
            out
        })
        .0
    });
    for e in engines {
        e.shutdown();
    }
    let (value, stats) = out;
    value.map(|v| (v, stats))
}

/// One timed segment: the client streams calls closed-loop while the main
/// thread reloads the topology once, at the segment's middle. Every call's
/// answers must equal the oracle of the generation the router reports.
fn drive(
    router: SocketAddr,
    client: &mut NetClient,
    fence: &Fence,
    reads: &[SequenceRecord],
    oracles: &[Vec<Classification>],
    seconds: f64,
    trace: Option<&Trace>,
) -> Drive {
    let stop = AtomicBool::new(false);
    let started = Instant::now();
    let mut out = Drive::default();
    std::thread::scope(|scope| {
        let streamer = scope.spawn(|| {
            let mut d = Drive::default();
            let mut call = 0usize;
            let calls = reads.len().div_ceil(CALL_READS);
            while !stop.load(Ordering::SeqCst) {
                let i = call % calls;
                call += 1;
                let first = i * CALL_READS;
                let chunk = &reads[first..(first + CALL_READS).min(reads.len())];
                // A call held back by the fence counts the wait.
                let t0 = Instant::now();
                fence.enter();
                let result = client.classify_iter(chunk.iter().cloned());
                fence.leave();
                let t1 = Instant::now();
                match result {
                    Ok((got, _)) => {
                        let g = client.database_generation().unwrap_or(0) as usize;
                        let matches = oracles
                            .get(g)
                            .is_some_and(|o| got[..] == o[first..][..chunk.len()]);
                        if !matches {
                            eprintln!(
                                "mc-perfbench: routed call of reads {first}.. tagged \
                                 generation {g} differs from that generation's oracle"
                            );
                        }
                        d.check.attempt(matches);
                        d.reads += chunk.len();
                        d.completions.push((t1, chunk.len()));
                    }
                    Err(_) => d.check.fail(),
                }
                d.call_ms.push(secs(t1 - t0) * 1e3);
                if let Some(t) = trace {
                    t.record("routed.call", t0, t1, None, call as u64);
                }
            }
            d
        });
        let due = started + Duration::from_secs_f64(seconds / 2.0);
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let t0 = Instant::now();
        let ack = NetClient::connect(router).and_then(|mut admin| admin.reload());
        let t1 = Instant::now();
        match ack {
            Ok(_) => out.check.attempt(true),
            Err(_) => out.check.fail(),
        }
        out.reload_s.push(secs(t1 - t0));
        out.windows.push((t0, t1 + Duration::from_millis(100)));
        if let Some(t) = trace {
            t.record("routed.reload", t0, t1, None, 0);
        }
        let end = started + Duration::from_secs_f64(seconds);
        std::thread::sleep(end.saturating_duration_since(Instant::now()));
        stop.store(true, Ordering::SeqCst);
        let d = streamer.join().expect("streaming client");
        out.elapsed = secs(started.elapsed());
        out.call_ms = d.call_ms;
        out.reads = d.reads;
        out.completions = d.completions;
        out.check.merge(d.check);
    });
    out
}
