//! Small helpers shared by every workload: seeded inputs, FNV work
//! fingerprints, medians and percentiles, `/proc` readings, failure
//! accounting and the benchmark's own layer spans.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// SplitMix64 finaliser: derives independent sub-seeds (world, corpus,
/// fault, trace, query stream) from the `--seed` argument.
pub fn derive(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded xorshift64* stream for workload draws.
pub struct Stream(u64);

impl Stream {
    pub fn new(seed: u64) -> Self {
        Stream(derive(seed, 0x5EED) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// Incremental FNV-1a, the repository's fingerprint of choice.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn eat(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn eat_u64(&mut self, v: u64) {
        self.eat(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Median of the samples (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Nearest-rank percentile (0 when empty).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Logical cores the benchmark may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU time of the whole process, in seconds, from
/// `/proc/self/stat` (fields 14 and 15, in USER_HZ = 100 ticks per second,
/// the fixed kernel ABI value for `/proc`).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; fields resume after its ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // `rest` starts at field 3 (state), so utime (14) is index 11.
    (tick(11) + tick(12)) / 100.0
}

/// Wall time and process CPU time of one call, with the CPU utilisation
/// over `wall × nproc`.
pub struct Busy {
    pub wall_s: f64,
    pub cpu_util: f64,
}

pub fn busy<T>(f: impl FnOnce() -> T) -> (T, Busy) {
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let out = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu = cpu_seconds() - cpu0;
    let cpu_util = cpu / (wall_s * nproc() as f64).max(1e-9);
    (out, Busy { wall_s, cpu_util })
}

/// Attempted / failed operation counts behind the result line's
/// `attempted` and `failed` fields.
#[derive(Default)]
pub struct Acct {
    pub attempted: u64,
    pub failed: u64,
}

impl Acct {
    /// Run one operation: an `Err` or a panic counts it as failed.
    pub fn op<T>(&mut self, what: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(v)) => Some(v),
            Ok(Err(e)) => {
                self.fail(format!("{what}: {e}"));
                None
            }
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "panic".to_string());
                self.fail(format!("{what}: panicked: {msg}"));
                None
            }
        }
    }

    /// Record a failed check on an operation already counted.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        eprintln!("[census_bench] FAILED {problem}");
    }

    /// A correctness check: a false `ok` is a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }
}

/// One benchmark-side span around a call into a layer.
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_s: f64,
    pub end_s: f64,
}

/// The benchmark's own spans, kept in memory and written out at the end.
pub struct Spans {
    epoch: Instant,
    stack: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Time `f` as a span named `name`, child of the innermost open span.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
        let id = self.spans.len();
        let start_s = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.stack.last().copied(),
            start_s,
            end_s: start_s,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        let end_s = self.epoch.elapsed().as_secs_f64();
        self.spans[id].end_s = end_s;
        (out, end_s - start_s)
    }

    /// JSON lines, one span each, with its self time (duration minus the
    /// part its children cover).
    pub fn to_jsonl(&self) -> String {
        let mut child_s = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_s[p] += s.end_s - s.start_s;
            }
        }
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_s - s.start_s;
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{},\"start_s\":{},\"end_s\":{},\"self_s\":{}}}\n",
                s.name,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_s,
                s.end_s,
                dur - child_s[i]
            ));
        }
        out
    }
}

/// `day`'s stored files in `dir`, keyed by sidecar kind (one file each).
pub fn sidecar_files(
    dir: &std::path::Path,
    day: u32,
) -> Result<Vec<(&'static str, std::path::PathBuf)>, String> {
    let mut by_kind: Vec<(&'static str, std::path::PathBuf)> = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("list {}: {e}", dir.display()))?;
    let day_prefix = format!("census-day-{day:05}.");
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if !name.starts_with(&day_prefix) {
            continue;
        }
        let kind = sidecar_kind(&name).ok_or_else(|| format!("unexpected file {name}"))?;
        if by_kind.iter().any(|(k, _)| *k == kind) {
            return Err(format!("day {day}: two {kind} sidecars"));
        }
        by_kind.push((kind, entry.path()));
    }
    by_kind.sort_unstable();
    Ok(by_kind)
}

/// Size of `day`'s stored files in `dir`, keyed by sidecar kind.
pub fn sidecar_bytes(dir: &std::path::Path, day: u32) -> Result<Vec<(&'static str, u64)>, String> {
    sidecar_files(dir, day)?
        .into_iter()
        .map(|(kind, path)| {
            let len = std::fs::metadata(&path)
                .map_err(|e| format!("stat {}: {e}", path.display()))?
                .len();
            Ok((kind, len))
        })
        .collect()
}

/// The sidecar kind of a stored file name (`None` for anything else,
/// including leftover `.tmp` files).
pub fn sidecar_kind(name: &str) -> Option<&'static str> {
    if !name.starts_with("census-day-") {
        return None;
    }
    [
        (".trace.chrome.json", "chrome"),
        (".trace.jsonl", "trace"),
        (".telemetry.jsonl", "telemetry"),
        (".stats.json", "stats"),
        (".health.series", "health"),
        (".jsonl", "jsonl"),
        (".idx", "idx"),
    ]
    .into_iter()
    .find(|(suffix, _)| name.ends_with(suffix))
    .map(|(_, kind)| kind)
}
