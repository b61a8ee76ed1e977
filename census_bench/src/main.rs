//! The census benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path census_bench/Cargo.toml -- \
//!     --workload <census-day|gcd-full-scan|archive-query|traced-faulted-day> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input is generated from `--seed`. With `--trace 0` the run times
//! the workload end to end; with `--trace 1` it puts the benchmark's own
//! spans around the calls into each layer and reports the per-layer
//! numbers instead. The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! See `census_bench/README.md` for the metrics and workloads.

mod archive;
mod day;
mod publish;
mod scan;
mod util;

use std::collections::BTreeMap;
use std::path::PathBuf;

use util::Acct;

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("task_s", "s"),
    ("rate_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-protocol labels of the anycast stage, in pipeline order.
pub const LABELS: [&str; 6] = ["ICMPv4", "TCPv4", "UDPv4", "ICMPv6", "TCPv6", "UDPv6"];

/// Per-layer metrics, reported by every workload with `--trace 1`. A layer
/// the workload never calls reads 0.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = vec![
        ("netsim.world_gen_s".into(), "s"),
        ("hitlist.build_s".into(), "s"),
        ("hitlist.targets.v4".into(), "count"),
        ("hitlist.targets.v4dns".into(), "count"),
        ("hitlist.targets.v6".into(), "count"),
    ];
    for (metric, unit) in [
        ("core.measure_s", "s"),
        ("core.probes", "count"),
        ("core.records", "count"),
        ("core.reply_ratio", "ratio"),
        ("core.cpu_util", "ratio"),
        ("core.classify_s", "s"),
        ("core.ats", "count"),
    ] {
        for l in LABELS {
            m.push((format!("{metric}.{l}"), unit));
        }
    }
    for (name, unit) in [
        ("core.degraded_workers", "count"),
        ("core.fabric_drops", "count"),
        ("census.day_s", "s"),
        ("census.at_assembly_s", "s"),
        ("census.gcd_targets", "count"),
        ("census.records_published", "count"),
        ("census.unattributed_s", "s"),
        ("gcd.campaign_s", "s"),
        ("gcd.tcp_retry_s", "s"),
        ("gcd.probes", "count"),
        ("gcd.precheck_probes", "count"),
        ("gcd.overlap_tests", "count"),
        ("gcd.anycast_ratio", "ratio"),
        ("gcd.cpu_util", "ratio"),
        ("store.save_s", "s"),
    ] {
        m.push((name.into(), unit));
    }
    for kind in publish::SIDECARS {
        m.push((format!("store.bytes.{kind}"), "bytes"));
    }
    for kind in publish::SIDECARS {
        m.push((format!("store.serialise_s.{kind}"), "s"));
    }
    for (name, unit) in [
        ("query.open_s", "s"),
        ("query.point_p50_us", "us"),
        ("query.point_p99_us", "us"),
        ("query.history_us", "us"),
        ("query.diff_ms", "ms"),
        ("query.cache_hit_ratio", "ratio"),
        ("query.bytes_read_ratio", "ratio"),
        ("health.open_s", "s"),
        ("health.findings_s", "s"),
        ("health.findings", "count"),
        ("trace.events", "count"),
        ("trace.dropped", "count"),
        ("trace.export_s", "s"),
    ] {
        m.push((name.into(), unit));
    }
    m
}

/// What one run hands back to `main`.
#[derive(Default)]
pub struct Report {
    /// Metric values by name (end-to-end or per-layer, per `--trace`).
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable lines: the workload's own named figures.
    pub lines: Vec<String>,
    /// Input facts (scale, seeds, sizes) printed with the host facts.
    pub facts: Vec<(String, String)>,
    /// The canonical work fingerprint, checked against `fingerprints.tsv`.
    pub fingerprint: Option<u64>,
    /// Spans the benchmark recorded (trace runs only), as JSON lines.
    pub spans_jsonl: String,
}

impl Report {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    pub fn line(&mut self, s: String) {
        eprintln!("[census_bench] {s}");
        self.lines.push(s);
    }

    pub fn fact(&mut self, k: &str, v: impl ToString) {
        self.facts.push((k.to_string(), v.to_string()));
    }
}

/// Input sets with a recorded work fingerprint: `fingerprints.tsv`
/// holds seeds `0..INPUT_SETS` for every workload.
const INPUT_SETS: u64 = 16;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    /// The `--seed` given.
    pub given_seed: u64,
    /// The input set it selects (`--seed` mod `INPUT_SETS`); every input
    /// is derived from this, so every run is checked against a recorded
    /// fingerprint.
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory for stores and span files, inside the checkout.
    pub work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = get("--workload")?;
    let given_seed: u64 = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seed = given_seed % INPUT_SETS;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("--trace").as_deref() {
        Ok("0") | Err(_) => false,
        Ok("1") => true,
        Ok(other) => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    // Work files live next to the benchmark's sources, inside the checkout.
    let work = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{workload}-{seed}-{}", std::process::id()));
    Ok(Args {
        workload,
        given_seed,
        seed,
        seconds,
        trace,
        work,
    })
}

/// The fingerprint recorded for `(workload, seed)`, if any.
fn recorded_fingerprint(workload: &str, seed: u64) -> Option<u64> {
    include_str!("../fingerprints.tsv").lines().find_map(|l| {
        let mut f = l.split_whitespace();
        match (f.next(), f.next(), f.next()) {
            (Some(w), Some(s), Some(fp)) if w == workload && s.parse() == Ok(seed) => {
                u64::from_str_radix(fp.trim_start_matches("0x"), 16).ok()
            }
            _ => None,
        }
    })
}

/// The checkout's commit. Outside a git checkout (no `.git` next to the
/// benchmark) git is not asked, so it never searches parent directories.
fn git_commit() -> String {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    root.join(".git")
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .arg("-C")
                .arg(&root)
                .args(["rev-parse", "HEAD"])
                .output()
                .ok()
        })
        .flatten()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .or_else(|| std::env::var("GIT_COMMIT").ok())
        .unwrap_or_else(|| "unknown".into())
}

fn host_facts(args: &Args) -> Vec<(String, String)> {
    let features: Vec<&str> = [
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("bmi2", cfg!(target_feature = "bmi2")),
        ("avx512f", cfg!(target_feature = "avx512f")),
    ]
    .into_iter()
    .filter_map(|(f, on)| on.then_some(f))
    .collect();
    vec![
        ("nproc".into(), util::nproc().to_string()),
        (
            "profile".into(),
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
        (
            "rustflags".into(),
            option_env!("RUSTFLAGS").unwrap_or("").into(),
        ),
        ("target_features".into(), features.join(",")),
        ("shards".into(), util::nproc().to_string()),
        (
            "gcd_chunks".into(),
            laces_gcd::engine::DEFAULT_GCD_CHUNKS.to_string(),
        ),
        ("seed".into(), args.given_seed.to_string()),
        ("input_set".into(), args.seed.to_string()),
        ("seconds".into(), args.seconds.to_string()),
        ("trace".into(), u8::from(args.trace).to_string()),
        ("git_commit".into(), git_commit()),
    ]
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("census_bench: {e}");
            std::process::exit(2);
        }
    };
    let mut acct = Acct::default();
    let run: fn(&Args, &mut Acct) -> Result<Report, String> = match args.workload.as_str() {
        "census-day" => day::census_day,
        "traced-faulted-day" => day::traced_faulted_day,
        "gcd-full-scan" => scan::gcd_full_scan,
        "archive-query" => archive::archive_query,
        other => {
            eprintln!("census_bench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("census_bench: cannot create {}: {e}", args.work.display());
        std::process::exit(2);
    }
    let outcome = run(&args, &mut acct);
    let _ = std::fs::remove_dir_all(&args.work);
    let mut report = match outcome {
        Ok(r) => r,
        Err(e) => {
            // The workload could not finish: nothing to report.
            eprintln!("census_bench: {} aborted: {e}", args.workload);
            std::process::exit(1);
        }
    };

    match (
        report.fingerprint,
        recorded_fingerprint(&args.workload, args.seed),
    ) {
        (Some(got), Some(want)) => acct.check(got == want, || {
            format!("work fingerprint {got:#018x} != recorded {want:#018x}")
        }),
        (Some(_), None) => acct.fail(format!(
            "no fingerprint recorded for {} input set {}",
            args.workload, args.seed
        )),
        (None, _) => acct.fail("workload produced no work fingerprint".into()),
    }
    report.line(format!(
        "error_rate {} ({} failed of {} attempted operations)",
        acct.failed as f64 / acct.attempted.max(1) as f64,
        acct.failed,
        acct.attempted
    ));
    if let Some(fp) = report.fingerprint {
        report.line(format!(
            "fingerprint {} {} {fp:#018x}",
            args.workload, args.seed
        ));
    }
    if args.trace {
        let spans = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        if std::fs::write(&spans, &report.spans_jsonl).is_ok() {
            report.line(format!("spans written to {}", spans.display()));
        }
    }

    let mut facts = host_facts(&args);
    facts.extend(report.facts.iter().cloned());
    let facts_json: Vec<String> = facts
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    println!("# workload {}", args.workload);
    for l in &report.lines {
        println!("# {l}");
    }
    println!("# host {{{}}}", facts_json.join(", "));

    let names: Vec<(String, &str)> = if args.trace {
        per_layer_metrics()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    let mut metrics = Vec::new();
    for (name, unit) in names {
        let value = report.metrics.get(&name).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        metrics.push(format!(
            "{}: {{\"value\": {value:?}, \"unit\": {}}}",
            json_str(&name),
            json_str(unit)
        ));
    }
    let correct = acct.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        acct.attempted.max(1),
        acct.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
