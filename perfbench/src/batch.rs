//! `batch_loaded`: a lab's offline run. A read file is classified against a
//! database that was saved to disk and loaded back (the condensed layout
//! every loaded database serves from), through `StreamingClassifier` with
//! one worker per CPU, in a closed loop of whole-file passes. The reference
//! set is large enough that the condensed table does not fit the LLC, and a
//! share of the reads comes from genomes absent from the database, so the
//! lookup miss path runs too. Engine, network and router are bypassed.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use metacache::pipeline::{StreamingClassifier, StreamingConfig};
use metacache::query::Classifier;

use crate::inputs::{self, ReadMix, RefShape};
use crate::layers::{self, LayerCtx};
use crate::util::{
    dist_json, llc_bytes, median, nproc, peak_rss_mb, reset_peak_rss, secs, tail, work_dir, Json,
    Retries, Trace,
};
use crate::{Args, Check, Metrics, Outcome};

/// ~40 Mbp: the condensed table is ~130 MB, above a 105 MiB LLC.
const REFS: RefShape = RefShape {
    genera: 36,
    species_per_genus: 5,
    genome_length: 200_000,
    afs_genomes: 4,
    afs_length: 1_000_000,
    afs_scaffolds: 64,
};

const MIX: ReadMix = ReadMix {
    hiseq: 7_000,
    miseq: 3_500,
    paired: 3_500,
    off_reference: 2_000,
};

/// Genomes absent from the database, the source of the off-reference reads.
const ABSENT_GENOMES: usize = 4;
const ABSENT_LENGTH: usize = 200_000;

/// Loads per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Timed segments per run.
const SEGMENTS: usize = 8;

/// Reads of the layer ladder's stage passes.
const PROBE_READS: usize = 8_192;

pub fn run(args: &Args) -> Outcome {
    let trace = Trace::new(args.trace);
    let dir = work_dir(&args.workload, args.seed);
    std::fs::create_dir_all(&dir).expect("create work directory");
    let mut m = Metrics::default();
    let mut check = Check::default();

    // Inputs on disk, written by a child process: the read file and the
    // saved database.
    let status = std::process::Command::new(std::env::current_exe().expect("own executable"))
        .args(["--seed", &args.seed.to_string(), "--prepare"])
        .arg(&dir)
        .status()
        .expect("run input preparation");
    assert!(status.success(), "input preparation failed: {status}");
    let prep = Prep::read(&dir);
    let reads_file = dir.join("reads.fq");
    let reads: Vec<_> = inputs::open_interleaved(&reads_file)
        .expect("open read file")
        .map(|r| r.expect("parse read file"))
        .collect();

    // Set-up: load the database (condensed layout), several times.
    reset_peak_rss();
    let mut loads = Vec::new();
    let mut db = None;
    for _ in 0..SETUP_REPEATS {
        drop(db.take());
        let started = Instant::now();
        db = Some(metacache::serialize::load(&dir, "db").expect("load database"));
        loads.push(secs(started.elapsed()));
    }
    let db = db.expect("at least one load");
    let setup_s = median(&loads);
    let layout = db.partitions[0].store.kind();

    let oracle = Classifier::new(Arc::clone(&db)).classify_batch(&reads);
    let streaming = StreamingClassifier::with_config(
        Arc::clone(&db),
        StreamingConfig {
            workers: nproc(),
            ..StreamingConfig::default()
        },
    );
    let pass = |check: &mut Check| -> Duration {
        let started = Instant::now();
        let mut out = Vec::with_capacity(reads.len());
        let stream = inputs::open_interleaved(&reads_file).expect("open read file");
        let summary = streaming.classify_stream(stream, |_, _, c| out.push(*c));
        let elapsed = started.elapsed();
        match summary {
            Ok(_) => check.attempt(out == oracle),
            Err(_) => check.fail(),
        }
        elapsed
    };

    // Warm-up: page cache, table pages, thread start-up.
    pass(&mut check);
    let timed = |budget: f64, traced: bool, check: &mut Check| -> Vec<f64> {
        let started = Instant::now();
        let mut times = Vec::new();
        while times.len() < 3 || secs(started.elapsed()) < budget {
            let t0 = Instant::now();
            let d = pass(check);
            if traced {
                trace.record("batch.pass", t0, Instant::now(), None, times.len() as u64);
            }
            times.push(secs(d) * 1e3);
        }
        times
    };
    // The timed phase is measured in segments, each repeated if other
    // guests stole the machine during it (see `Retries`).
    let mut retries = Retries::new();
    let mut steals = Vec::new();
    let mut segments = |n: usize, traced: bool, check: &mut Check| -> Vec<f64> {
        let mut times = Vec::new();
        for _ in 0..n {
            let (t, steal) = retries.run(|| timed(args.seconds / SEGMENTS as f64, traced, check));
            times.extend(t);
            steals.push(steal);
        }
        times
    };
    let pass_ms = if args.trace {
        let untraced = segments(SEGMENTS / 2, false, &mut check);
        let traced = segments(SEGMENTS / 2, true, &mut check);
        let overhead = median(&traced) / median(&untraced) - 1.0;
        m.push("trace.overhead_frac", overhead, "frac");
        traced
    } else {
        segments(SEGMENTS, false, &mut check)
    };
    let rates: Vec<f64> = pass_ms
        .iter()
        .map(|ms| reads.len() as f64 / (ms / 1e3))
        .collect();
    m.push("setup_s", setup_s, "s");
    m.push("reads_per_s", median(&rates), "reads/s");
    m.push("p50_ms", median(&pass_ms), "ms");
    m.push("tail_ms", tail(&pass_ms).1, "ms");
    m.push("rss_mb", peak_rss_mb(), "MB");

    // Pre-step layers measured on the way to the inputs.
    let file_mb = prep.file_bytes as f64 / 1e6;
    m.push("build.s", prep.build_s, "s");
    m.push("build.mbases_per_s", prep.mbases / prep.build_s, "Mbases/s");
    m.push("table_mb.host", prep.host_table as f64 / 1e6, "MB");
    m.push("table_mb.condensed", db.table_bytes() as f64 / 1e6, "MB");
    m.push("save.s", prep.save_s, "s");
    m.push("load.s", setup_s, "s");
    m.push("load.mb_per_s", file_mb / setup_s, "MB/s");
    m.push("db.file_mb", file_mb, "MB");

    if args.trace {
        let probe: Vec<_> = reads.iter().take(PROBE_READS).cloned().collect();
        let probe_oracle = &oracle[..probe.len()];
        let ctx = LayerCtx {
            db: Arc::clone(&db),
            reads: &probe,
            oracle: probe_oracle,
            reads_file: &reads_file,
            file_reads: reads.len(),
            request_sizes: &[1024],
        };
        let (root, loopback) = layers::common(&ctx, &trace, &mut m, &mut check, true);
        let owned = || {
            Arc::try_unwrap(metacache::serialize::load(&dir, "db").expect("load database"))
                .ok()
                .expect("fresh load is unshared")
        };
        layers::router_probe(&ctx, owned(), &trace, root, loopback, &mut m, &mut check);
        let absent = inputs::absent_genomes(args.seed, ABSENT_GENOMES, ABSENT_LENGTH);
        let delta = inputs::update_deltas(&absent, 1).swap_remove(0);
        layers::reload_probe(&ctx, owned(), delta, &trace, root, &mut m, &mut check);
        let _ = trace.write_to(&dir.with_extension("spans.jsonl"));
    }

    let record = Json::obj()
        .str("layout", layout)
        .int("table_bytes", db.table_bytes() as u64)
        .int("llc_bytes", llc_bytes())
        .bool("table_exceeds_llc", db.table_bytes() as u64 > llc_bytes())
        .num("reference_mbases", prep.mbases)
        .int("reference_targets", prep.targets)
        .set("reads", MIX.json())
        .int("read_file_bytes", prep.read_file_bytes)
        .int("workers", nproc() as u64)
        .set("setup_s", dist_json(&loads))
        .set("pass_ms", dist_json(&pass_ms))
        .set("steal_frac", dist_json(&steals))
        .int("steal_retries", u64::from(retries.used))
        .set("reads_per_s", dist_json(&rates))
        .int("spans", trace.len() as u64);
    drop(streaming);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    Outcome {
        check,
        metrics: m,
        record,
    }
}

/// What the preparation child measured on the way to the inputs.
struct Prep {
    build_s: f64,
    save_s: f64,
    host_table: u64,
    file_bytes: u64,
    read_file_bytes: u64,
    mbases: f64,
    targets: u64,
}

impl Prep {
    fn write(&self, dir: &Path) {
        let line = format!(
            "{} {} {} {} {} {} {}\n",
            self.build_s,
            self.save_s,
            self.host_table,
            self.file_bytes,
            self.read_file_bytes,
            self.mbases,
            self.targets
        );
        std::fs::write(dir.join("prep.txt"), line).expect("write preparation record");
    }

    fn read(dir: &Path) -> Self {
        let text = std::fs::read_to_string(dir.join("prep.txt")).expect("preparation record");
        let f: Vec<&str> = text.split_whitespace().collect();
        let num = |i: usize| -> f64 { f[i].parse().expect("numeric preparation field") };
        Self {
            build_s: num(0),
            save_s: num(1),
            host_table: num(2) as u64,
            file_bytes: num(3) as u64,
            read_file_bytes: num(4) as u64,
            mbases: num(5),
            targets: num(6) as u64,
        }
    }
}

/// Child-process half of set-up: generate references and reads from the
/// seed, write the read file, build the host-table database and save it.
pub fn prepare(args: &Args, dir: &Path) {
    let refs = inputs::references(args.seed, REFS);
    let absent = inputs::absent_genomes(args.seed, ABSENT_GENOMES, ABSENT_LENGTH);
    let reads = inputs::read_mix(args.seed, &refs, &absent, MIX);
    let read_file_bytes =
        inputs::write_interleaved(&dir.join("reads.fq"), &reads).expect("write read file");
    drop(reads);
    let started = Instant::now();
    let db = inputs::build(&refs);
    let build_s = secs(started.elapsed());
    let started = Instant::now();
    let saved = metacache::serialize::save(&db, dir, "db").expect("save database");
    Prep {
        build_s,
        save_s: secs(started.elapsed()),
        host_table: db.table_bytes() as u64,
        file_bytes: saved.total_bytes,
        read_file_bytes,
        mbases: inputs::mbases(&refs),
        targets: refs.target_count() as u64,
    }
    .write(dir);
}
