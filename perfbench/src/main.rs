//! The MetaCache reproduction's benchmark: two workloads, end-to-end
//! metrics with tracing off, per-layer metrics from a separate traced run.
//!
//! ```text
//! mc-perfbench --workload <batch_loaded|routed_reload>
//!              --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs are generated from `--seed`; every classification is checked
//! against `Classifier::classify_batch` on the same database generation.
//! The last line of standard output is the result object; the full run
//! record goes to `.bench_work/records/` and to standard error. See
//! `perfbench/README.md` for what each workload and metric is for.

mod batch;
mod inputs;
mod layers;
mod routed;
mod serve;
mod util;

use util::{git_commit, llc_bytes, nproc, Json};

/// End-to-end metrics, printed by every workload with tracing off.
pub const END_TO_END: [&str; 5] = ["setup_s", "reads_per_s", "p50_ms", "tail_ms", "rss_mb"];

/// Per-layer metrics, printed by every workload's traced run.
pub const PER_LAYER: [&str; 45] = [
    "sketch.ns_per_read",
    "sketch.features_per_read",
    "lookup.ns_per_read",
    "lookup.locations_per_read",
    "lookup.hit_ratio",
    "candidates.ns_per_read",
    "accumulate_top.ns_per_read",
    "sort.ns_per_read_derived",
    "classify.ns_per_read",
    "classified_ratio",
    "parse.ns_per_read",
    "classify_batch.reads_per_s",
    "streaming.reads_per_s",
    "streaming.over_batch",
    "load.s",
    "load.mb_per_s",
    "db.file_mb",
    "save.s",
    "build.s",
    "build.mbases_per_s",
    "table_mb.host",
    "table_mb.condensed",
    "engine.reads_per_s",
    "engine.over_classify_batch",
    "engine.request_ms_p99",
    "engine.peak_queue_batches",
    "wire.request_bytes_per_read",
    "wire.response_bytes_per_read",
    "encode.ns_per_read",
    "decode.ns_per_read",
    "loopback.reads_per_s",
    "loopback.over_engine",
    "server.requests",
    "server.shed_requests",
    "server.protocol_errors",
    "shard0.candidates_ns_per_read",
    "shard1.candidates_ns_per_read",
    "router.reads_per_s",
    "router.over_loopback",
    "shard.table_mb_max",
    "split.s",
    "reload.apply_s",
    "reload.ack_ms",
    "reload.dip_ratio",
    "trace.overhead_frac",
];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Internal: write `batch_loaded`'s on-disk inputs into this directory
    /// and exit (run as a child process so its memory never counts).
    pub prepare: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        prepare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => args.trace = value == "1",
            "--prepare" => args.prepare = Some(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// Named metric values with units, in report order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn get(&self, name: &str) -> Option<(f64, &'static str)> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, u)| (*v, *u))
    }

    fn json(&self) -> Json {
        let mut obj = Json::obj();
        for (name, value, unit) in &self.0 {
            obj = obj.set(name, Json::obj().num("value", *value).str("unit", unit));
        }
        obj
    }
}

/// Oracle-gate bookkeeping: requests attempted, requests that failed
/// (error, `Busy`, timeout), and answers that differed from the oracle.
#[derive(Default, Clone, Copy)]
pub struct Check {
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
}

impl Check {
    /// One answered request; `matches` says whether it equalled the oracle.
    pub fn attempt(&mut self, matches: bool) {
        self.attempted += 1;
        if !matches {
            self.mismatches += 1;
        }
    }

    /// One request that got no answer.
    pub fn fail(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    pub fn merge(&mut self, other: Check) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
    }
}

/// What a workload hands back: the gate, the metrics and the record.
pub struct Outcome {
    pub check: Check,
    pub metrics: Metrics,
    pub record: Json,
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("mc-perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some(dir) = &args.prepare {
        batch::prepare(&args, std::path::Path::new(dir));
        return;
    }
    let outcome = match args.workload.as_str() {
        "batch_loaded" => batch::run(&args),
        "routed_reload" => routed::run(&args),
        other => {
            eprintln!("mc-perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };

    let wanted: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut printed = Metrics::default();
    for name in wanted {
        let (value, unit) = outcome
            .metrics
            .get(name)
            .unwrap_or_else(|| panic!("workload did not measure {name}"));
        printed.push(name, value, unit);
    }
    let check = outcome.check;
    let correct = check.mismatches == 0;
    let record = Json::obj()
        .str("workload", &args.workload)
        .int("seed", args.seed)
        .num("seconds", args.seconds)
        .bool("trace", args.trace)
        .int("nproc", nproc() as u64)
        .int("llc_bytes", llc_bytes())
        .str("commit", &git_commit())
        .int("attempted", check.attempted)
        .int("failed", check.failed)
        .int("mismatches", check.mismatches)
        .num(
            "failed_frac",
            check.failed as f64 / check.attempted.max(1) as f64,
        )
        .set("workload_record", outcome.record)
        .set("metrics", outcome.metrics.json());
    let rendered = record.render();
    let dir = std::path::Path::new(".bench_work").join("records");
    if std::fs::create_dir_all(&dir).is_ok() {
        let name = format!(
            "{}-seed{}-trace{}.json",
            args.workload,
            args.seed,
            u8::from(args.trace)
        );
        let _ = std::fs::write(dir.join(name), &rendered);
    }
    eprintln!("{rendered}");
    if !correct {
        eprintln!(
            "mc-perfbench: ORACLE MISMATCH: {} answers differed from Classifier::classify_batch",
            check.mismatches
        );
    }
    let result = Json::obj()
        .bool("correct", correct)
        .int("attempted", check.attempted.max(1))
        .int("failed", check.failed)
        .set("metrics", printed.json());
    println!("{}", result.render());
    if !correct {
        std::process::exit(1);
    }
}
