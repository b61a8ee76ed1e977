//! Health-service benchmark: `BENCH_pr10.json`.
//!
//! Three numbers ship with the health layer, and CI gates on all of
//! them: (1) longitudinal scan throughput — a 56-day `health.series`
//! archive read end-to-end through [`laces_census::health::HealthService`]
//! with a 1-byte cache budget, so every read pays the full sidecar
//! decode; (2) detector determinism — two independently-built services
//! over the same archive must produce identical findings fingerprints;
//! (3) monitor overhead — a disabled [`Monitor`] wrapped around the
//! `BENCH_pr4` workload (same spec id, targets and rate) must cost ≤ 5%
//! against the bare `run_measurement` baseline, measured in the same
//! process off the same heap.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use laces_census::health::detect::{findings_fingerprint, run_all};
use laces_census::health::service::series_file_name;
use laces_census::health::{
    DaySeries, DetectorConfig, HealthService, Monitor, MonitorConfig, SERIES_VERSION,
};
use laces_core::orchestrator::run_measurement;
use laces_core::spec::MeasurementSpec;

use crate::artifacts::{Artifacts, Scale};

/// Days in the synthetic longitudinal archive (a paper-scale census
/// epoch: 8 weeks).
const ARCHIVE_DAYS: u32 = 56;

/// The day the synthetic archive degrades (crash+fabric-style attributed
/// loss), so the detector suite has something real to find.
const FAULTED_DAY: u32 = 40;

/// Disabled-monitor overhead gate, percent.
const OVERHEAD_GATE_PCT: f64 = 5.0;

/// SplitMix64: the deterministic jitter source for the synthetic archive
/// (no RNG crate, no wall clock).
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One synthetic day: paper-scale volumes with seeded day-to-day jitter,
/// plus an attributed-loss spike on [`FAULTED_DAY`].
fn synth_series(day: u32, seed: u64) -> DaySeries {
    let mut rng = seed ^ (u64::from(day) << 32);
    let jitter = |rng: &mut u64, span: u64| mix(rng) % span.max(1);
    let probes_sent = 4_000_000 + jitter(&mut rng, 40_000);
    let faulted = day == FAULTED_DAY;
    let lost = if faulted { probes_sent / 25 } else { 0 };
    let replies = probes_sent * 62 / 100 - lost;
    let mut series = DaySeries {
        version: SERIES_VERSION,
        day,
        probes_sent,
        replies,
        unanswered: probes_sent - replies - lost,
        loss_by_cause: Default::default(),
        loss_detail: Default::default(),
        stage_sim_ms: [
            ("ICMPv4".to_string(), 400_000 + jitter(&mut rng, 2_000)),
            ("GCD".to_string(), 120_000 + jitter(&mut rng, 1_000)),
        ]
        .into_iter()
        .collect(),
        day_sim_ms: 540_000 + jitter(&mut rng, 3_000),
        degraded: Vec::new(),
        ats_per_protocol: [("ICMPv4".to_string(), 12_000 + jitter(&mut rng, 50))]
            .into_iter()
            .collect(),
        gcd_target_count: 12_000 + jitter(&mut rng, 50),
        sites_enumerated: 38_000 + jitter(&mut rng, 400),
        anycast_confirmed: 11_500 + jitter(&mut rng, 40),
        published: 11_900 + jitter(&mut rng, 40),
        candidates: 4_100_000,
        trace_dropped: Default::default(),
        counters: Default::default(),
        gauges: Default::default(),
    };
    // A handful of raw counters/gauges so day-over-day diffs do real work.
    for k in 0..16u32 {
        series.counters.insert(
            format!("worker.{k:02}.orders"),
            250_000 + jitter(&mut rng, 500),
        );
        series
            .gauges
            .insert(format!("stage.{k:02}.depth"), 32 + jitter(&mut rng, 8));
    }
    if faulted {
        series
            .loss_by_cause
            .insert("fabric.dropped".to_string(), lost);
        series
            .loss_detail
            .insert("ICMPv4.fabric.dropped".to_string(), lost);
    }
    series
}

/// Write the synthetic archive and return its directory.
fn synth_archive(seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join("laces-health-bench");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("bench archive dir");
    for day in 0..ARCHIVE_DAYS {
        let series = synth_series(day, seed);
        std::fs::write(dir.join(series_file_name(day)), series.encode()).expect("sidecar writes");
    }
    dir
}

fn overhead_pct(baseline: f64, measured: f64) -> f64 {
    if baseline > 0.0 {
        (baseline - measured) / baseline * 100.0
    } else {
        0.0
    }
}

/// The `health` section of `BENCH_pr10.json`.
#[derive(Debug, Clone)]
pub struct HealthBench {
    /// Scale label the run used.
    pub scale: String,
    /// Days in the synthetic archive.
    pub archive_days: u32,
    /// Full-archive scan passes timed.
    pub scan_passes: u32,
    /// Sidecar reads performed (days × passes), each paying a decode.
    pub scan_reads: u64,
    /// Wall clock of the scan, milliseconds.
    pub scan_wall_ms: f64,
    /// Sidecar reads per second.
    pub reads_per_s: f64,
    /// Findings the detector suite produced over the archive.
    pub findings: u64,
    /// Findings fingerprint from the first service.
    pub fingerprint: u64,
    /// Findings fingerprint from an independently-built second service.
    pub rerun_fingerprint: u64,
    /// The determinism gate: both fingerprints identical.
    pub fingerprint_match: bool,
    /// Probes in the monitor workload (identical across all three runs).
    pub probes_sent: u64,
    /// Bare `run_measurement` throughput, probes/s.
    pub baseline_probes_per_s: f64,
    /// Throughput under a disabled monitor.
    pub disabled_probes_per_s: f64,
    /// `(baseline − disabled) / baseline`, percent; ≤ 5 is the PR gate.
    pub disabled_overhead_pct: f64,
    /// Throughput under an enabled monitor (1 s simulated ticks).
    pub enabled_probes_per_s: f64,
    /// Enabled-monitor overhead, percent (informational, not gated).
    pub enabled_overhead_pct: f64,
    /// Ticks the enabled monitor snapshotted.
    pub enabled_ticks: u64,
    /// All gates passed.
    pub target_met: bool,
}

impl HealthBench {
    /// Serialise as the full `BENCH_pr10.json` object (stable key order).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"scale\": \"{}\",", self.scale);
        let _ = writeln!(s, "  \"health\": {{");
        let _ = writeln!(
            s,
            "    \"scan\": {{\"archive_days\": {}, \"passes\": {}, \"reads\": {}, \"wall_ms\": {:.3}, \"reads_per_s\": {:.1}}},",
            self.archive_days, self.scan_passes, self.scan_reads, self.scan_wall_ms, self.reads_per_s
        );
        let _ = writeln!(
            s,
            "    \"detectors\": {{\"findings\": {}, \"fingerprint\": {}, \"rerun_fingerprint\": {}, \"fingerprint_match\": {}}},",
            self.findings, self.fingerprint, self.rerun_fingerprint, self.fingerprint_match
        );
        let _ = writeln!(
            s,
            "    \"monitor\": {{\"probes_sent\": {}, \"baseline_probes_per_s\": {:.1}, \"disabled\": {{\"probes_per_s\": {:.1}, \"overhead_pct\": {:.2}}}, \"enabled\": {{\"probes_per_s\": {:.1}, \"overhead_pct\": {:.2}, \"ticks\": {}}}}},",
            self.probes_sent,
            self.baseline_probes_per_s,
            self.disabled_probes_per_s,
            self.disabled_overhead_pct,
            self.enabled_probes_per_s,
            self.enabled_overhead_pct,
            self.enabled_ticks
        );
        let _ = writeln!(s, "    \"target_met\": {}", self.target_met);
        let _ = writeln!(s, "  }}");
        s.push_str("}\n");
        s
    }
}

/// Run the health benchmark on the `BENCH_pr4` workload world.
pub fn run_health_bench(a: &Artifacts) -> HealthBench {
    let seed = 0x10_ACE5;
    let dir = synth_archive(seed);
    let cfg = DetectorConfig::standard(seed);

    // (1) Longitudinal scan: a 1-byte cache budget makes every series()
    // call a disk read + decode, so reads/s measures the sidecar path.
    let passes: u32 = match a.scale {
        Scale::Tiny => 50,
        _ => 200,
    };
    let t0 = Instant::now();
    let mut checksum = 0u64;
    for _ in 0..passes {
        let mut service = HealthService::open(&dir)
            .cache_budget(1)
            .build()
            .expect("bench archive opens");
        for day in 0..ARCHIVE_DAYS {
            checksum ^= service.series(day).expect("series reads").probes_sent;
        }
    }
    let scan_wall_ms = t0.elapsed().as_secs_f64() * 1000.0;
    let scan_reads = u64::from(ARCHIVE_DAYS) * u64::from(passes);
    assert_ne!(checksum, u64::MAX, "keep the scan loop observable");

    // (2) Detector determinism across independently-built services.
    let findings = {
        let mut service = HealthService::open(&dir).build().expect("archive opens");
        run_all(&service.all_series().expect("archive loads"), &cfg)
    };
    let fingerprint = findings_fingerprint(&findings, &cfg);
    let rerun_fingerprint = {
        let mut service = HealthService::open(&dir).build().expect("archive reopens");
        findings_fingerprint(
            &run_all(&service.all_series().expect("archive reloads"), &cfg),
            &cfg,
        )
    };
    let fingerprint_match = fingerprint == rerun_fingerprint;
    let _ = std::fs::remove_dir_all(&dir);

    // (3) Monitor overhead on the BENCH_pr4 workload.
    let spec = MeasurementSpec::builder(30_001, a.world.std_platforms.production)
        .targets(Arc::clone(&a.hit_v4()))
        .rate_per_s(10_000)
        .build(&a.world)
        .expect("valid monitor bench spec");
    let mut probes_sent = 0u64;
    let mut timed = |monitor: Option<&Monitor>| -> f64 {
        let t0 = Instant::now();
        let sent = match monitor {
            None => {
                run_measurement(&a.world, &spec)
                    .expect("valid spec")
                    .probes_sent
            }
            Some(m) => {
                let (outcome, _) = m
                    .run(&spec, || run_measurement(&a.world, &spec))
                    .expect("valid spec");
                outcome.probes_sent
            }
        };
        probes_sent = sent;
        sent as f64 / t0.elapsed().as_secs_f64()
    };
    // Interleaved repeats, fastest of each kept: load from whatever else
    // shares the host drifts over the measurement, and interleaving lands
    // that drift on every side alike instead of on one phase.
    let disabled = Monitor::disabled();
    let enabled = Monitor::new(MonitorConfig::every_ms(1_000));
    let (mut baseline_probes_per_s, mut disabled_probes_per_s, mut enabled_probes_per_s) =
        (1.0f64, 0.0f64, 0.0f64);
    for _ in 0..3 {
        baseline_probes_per_s = baseline_probes_per_s.max(timed(None));
        disabled_probes_per_s = disabled_probes_per_s.max(timed(Some(&disabled)));
        enabled_probes_per_s = enabled_probes_per_s.max(timed(Some(&enabled)));
    }
    let enabled_ticks = {
        let outcome = run_measurement(&a.world, &spec).expect("valid spec");
        enabled.observe(&spec, &outcome).ticks.len() as u64
    };
    let disabled_overhead_pct = overhead_pct(baseline_probes_per_s, disabled_probes_per_s);
    let enabled_overhead_pct = overhead_pct(baseline_probes_per_s, enabled_probes_per_s);

    HealthBench {
        scale: format!("{:?}", a.scale),
        archive_days: ARCHIVE_DAYS,
        scan_passes: passes,
        scan_reads,
        scan_wall_ms,
        reads_per_s: if scan_wall_ms > 0.0 {
            scan_reads as f64 * 1000.0 / scan_wall_ms
        } else {
            0.0
        },
        findings: findings.len() as u64,
        fingerprint,
        rerun_fingerprint,
        fingerprint_match,
        probes_sent,
        baseline_probes_per_s,
        disabled_probes_per_s,
        disabled_overhead_pct,
        enabled_probes_per_s,
        enabled_overhead_pct,
        enabled_ticks,
        target_met: fingerprint_match
            && !findings.is_empty()
            && disabled_overhead_pct <= OVERHEAD_GATE_PCT,
    }
}

/// [`run_health_bench`] from a scale tag (what `--bin health_bench`
/// uses to regenerate `BENCH_pr10.json`).
pub fn run_health_bench_at(scale: Scale) -> HealthBench {
    run_health_bench(&Artifacts::new(scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_archive_is_deterministic_and_faulted_once() {
        for day in [0, 17, FAULTED_DAY, ARCHIVE_DAYS - 1] {
            let a = synth_series(day, 1);
            let b = synth_series(day, 1);
            assert_eq!(a, b);
            assert_eq!(a.attributed_loss() > 0, day == FAULTED_DAY);
            let decoded = DaySeries::decode(&a.encode()).expect("round-trips");
            assert_eq!(decoded, a);
        }
        assert_ne!(synth_series(3, 1), synth_series(3, 2), "seed matters");
    }

    #[test]
    fn health_bench_runs_gates_and_serialises() {
        let bench = run_health_bench(&Artifacts::new(Scale::Tiny));
        assert!(bench.fingerprint_match, "detectors must be deterministic");
        assert!(bench.findings >= 1, "the faulted day must be found");
        assert!(bench.reads_per_s > 0.0);
        assert!(
            bench.disabled_overhead_pct <= OVERHEAD_GATE_PCT,
            "disabled monitor overhead {:.2}% exceeds the {OVERHEAD_GATE_PCT}% gate",
            bench.disabled_overhead_pct
        );
        assert!(bench.target_met);
        let json = bench.to_json();
        let v: serde::Value = serde_json::from_str(&json).expect("BENCH_pr10.json parses");
        let health = v.get("health").expect("health section");
        for key in ["scan", "detectors", "monitor", "target_met"] {
            assert!(health.get(key).is_some(), "missing {key}");
        }
    }
}
