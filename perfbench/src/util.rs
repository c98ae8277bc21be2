//! Measurement plumbing shared by every workload: seeds, timing
//! distributions, machine facts, the run record and the span recorder.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Derive an independent sub-seed from the workload seed (splitmix64), so
/// every generator of a run is fixed by `--seed` alone.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Number of CPUs the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Last-level cache size in bytes from sysfs (`0` when unknown).
pub fn llc_bytes() -> u64 {
    let mut best = (0u32, 0u64);
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let level = std::fs::read_to_string(format!("{dir}/level"));
        let size = std::fs::read_to_string(format!("{dir}/size"));
        let (Ok(level), Ok(size)) = (level, size) else {
            continue;
        };
        let level: u32 = level.trim().parse().unwrap_or(0);
        let size = size.trim();
        let (digits, scale) = match size.chars().last() {
            Some('K') => (&size[..size.len() - 1], 1u64 << 10),
            Some('M') => (&size[..size.len() - 1], 1u64 << 20),
            Some('G') => (&size[..size.len() - 1], 1u64 << 30),
            _ => (size, 1),
        };
        let bytes = digits.parse::<u64>().unwrap_or(0) * scale;
        if level > best.0 {
            best = (level, bytes);
        }
    }
    best.1
}

/// The commit of the working tree, from `git rev-parse` (or `unknown`
/// outside a git checkout).
pub fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn status_kib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with(field))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// Peak resident memory of this process since the last
/// [`reset_peak_rss`], in MB.
pub fn peak_rss_mb() -> f64 {
    status_kib("VmHWM:") / 1024.0
}

/// Restart peak-RSS tracking at the current resident size, so input
/// generation before the workload's set-up does not count.
pub fn reset_peak_rss() {
    // Best effort: kernels without `clear_refs` keep the lifetime peak.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// CPU time the hypervisor gave to other guests ("steal", from
/// `/proc/stat`) since `start`, as a share of this machine's CPU time over
/// the same wall time. Interference from outside the guest shows here and
/// nowhere else, so the record carries it beside every timed phase.
pub struct Steal {
    ticks: u64,
    at: Instant,
}

impl Steal {
    pub fn start() -> Self {
        Self {
            ticks: steal_ticks(),
            at: Instant::now(),
        }
    }

    pub fn frac(&self) -> f64 {
        // USER_HZ is 100 on every Linux ABI.
        let stolen = steal_ticks().saturating_sub(self.ticks) as f64 / 100.0;
        stolen / (secs(self.at.elapsed()) * nproc() as f64).max(1e-9)
    }
}

/// A timed segment whose steal share exceeds this is measured again.
pub const STEAL_LIMIT: f64 = 0.03;
/// Repeated segments allowed per run.
pub const MAX_RETRIES: u32 = 6;

/// A run's budget of repeated segments. A segment that lost more than
/// [`STEAL_LIMIT`] of the machine to other guests is repeated while the
/// budget lasts, and the attempt with the least steal is kept. Every
/// attempt still passes the oracle gate; only the timing of a disturbed
/// attempt is set aside.
pub struct Retries {
    left: u32,
    pub used: u32,
}

impl Retries {
    pub fn new() -> Self {
        Self {
            left: MAX_RETRIES,
            used: 0,
        }
    }

    /// Measure `attempt`; returns the kept result and its steal share.
    pub fn run<T>(&mut self, mut attempt: impl FnMut() -> T) -> (T, f64) {
        let mut best: Option<(T, f64)> = None;
        loop {
            let steal = Steal::start();
            let out = attempt();
            let frac = steal.frac();
            if best.as_ref().is_none_or(|(_, s)| frac < *s) {
                best = Some((out, frac));
            }
            if frac <= STEAL_LIMIT || self.left == 0 {
                break;
            }
            self.left -= 1;
            self.used += 1;
        }
        best.expect("at least one attempt")
    }
}

fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().next()?.to_string();
            line.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Seconds as f64.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Median of a sample (`NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile with at least ten samples beyond it, capped at
/// p99: `(percentile, value)`. With fewer than eleven samples there is no
/// such percentile and the maximum is returned as percentile 100.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (f64::NAN, f64::NAN);
    }
    if n < 11 {
        return (100.0, v[n - 1]);
    }
    // Rank (1-based) of p99, or the rank that leaves exactly ten beyond.
    let p99_rank = (n * 99).div_ceil(100);
    let rank = p99_rank.min(n - 10);
    (100.0 * rank as f64 / n as f64, v[rank - 1])
}

/// A timing distribution summarised the way every timing is reported:
/// median, tail percentile and sample count.
pub fn dist_json(values: &[f64]) -> Json {
    let (pct, value) = tail(values);
    Json::obj()
        .num("p50", median(values))
        .num("tail_percentile", pct)
        .num("tail", value)
        .int("samples", values.len() as u64)
}

/// A minimal JSON value builder (the run record and the result line).
#[derive(Clone, Debug)]
pub enum Json {
    Num(f64),
    Int(u64),
    Str(String),
    Bool(bool),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj() -> Self {
        Json::Obj(Vec::new())
    }

    pub fn set(mut self, key: &str, value: Json) -> Self {
        if let Json::Obj(fields) = &mut self {
            fields.push((key.to_string(), value));
        }
        self
    }

    pub fn num(self, key: &str, value: f64) -> Self {
        self.set(key, Json::Num(value))
    }

    pub fn int(self, key: &str, value: u64) -> Self {
        self.set(key, Json::Int(value))
    }

    pub fn str(self, key: &str, value: &str) -> Self {
        self.set(key, Json::Str(value.to_string()))
    }

    pub fn bool(self, key: &str, value: bool) -> Self {
        self.set(key, Json::Bool(value))
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Num(v) if v.is_finite() => {
                let _ = write!(out, "{v:?}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(key.clone()).write(out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// One recorded span: a timed call into a layer, made from benchmark code.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub request: u64,
}

/// In-memory span recorder. Disabled recorders cost one branch per call,
/// and the untraced runs never create an enabled one.
pub struct Trace {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Trace {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Record a span that ran from `start` to `end`; returns its id.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        request: u64,
    ) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        let id = spans.len() as u32;
        spans.push(Span {
            id,
            name,
            start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.origin).as_nanos() as u64,
            parent,
            request,
        });
        Some(id)
    }

    /// Time `f` as one span.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration, Option<u32>) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let id = self.record(name, start, end, parent, request);
        (out, end - start, id)
    }

    /// Total duration and count of the spans named `name`.
    pub fn total(&self, name: &str) -> (Duration, usize) {
        let spans = self.spans.lock().expect("span recorder poisoned");
        spans
            .iter()
            .filter(|s| s.name == name)
            .fold((Duration::ZERO, 0), |(d, n), s| {
                (d + Duration::from_nanos(s.end_ns - s.start_ns), n + 1)
            })
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span recorder poisoned").len()
    }

    /// Write every span as JSON lines.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span recorder poisoned");
        let mut out = String::with_capacity(spans.len() * 96);
        for s in spans.iter() {
            let line = Json::obj()
                .int("id", u64::from(s.id))
                .str("name", s.name)
                .int("start_ns", s.start_ns)
                .int("end_ns", s.end_ns)
                .set(
                    "parent",
                    s.parent
                        .map_or(Json::Str(String::new()), |p| Json::Int(u64::from(p))),
                )
                .int("request", s.request);
            out.push_str(&line.render());
            out.push('\n');
        }
        std::fs::write(path, out)
    }
}

/// Where a run keeps its scratch files: under the working directory, which
/// the harness runs from the root of a checkout.
pub fn work_dir(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(".bench_work").join(format!("{workload}-{seed}-{}", std::process::id()))
}
