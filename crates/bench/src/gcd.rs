//! GCD campaign benchmark: `BENCH_pr9.json`.
//!
//! The GCD campaign runs at the probing pipeline's per-probe cost
//! profile: per-chunk probe sessions with reusable buffers on the prepared
//! wire path, a campaign-scoped [`VpGeometry`] memo behind every selection
//! and overlap test, and the grid-indexed city geolocation. The original
//! engine is a test-only oracle inside `laces-gcd` (`engine::reference`),
//! whose unit tests pin the shipped engine byte-identical to it. This
//! benchmark times the shipped engine alone:
//!
//! - **the `BENCH_pr2` GCD workload** (the `gcd_enumeration` perf section:
//!   full v4 hitlist, Ark-dev platform, no precheck) — wall clock with an
//!   FNV-1a fingerprint over the canonical [`GcdReport`] that every timed
//!   repeat must reproduce, plus the same fingerprint at chunk counts
//!   {1, 16} (the chunk-layout invariance the `gcd_invariance` suite pins
//!   at test scale, re-checked here at bench scale). At the `Huge` scale
//!   the run is judged against the reference engine's frozen numbers from
//!   the committed `BENCH_pr9.json` ([`REFERENCE_PROBES_PER_S`],
//!   [`REFERENCE_FINGERPRINT`]);
//! - **a full-platform section at the `Huge` scale** — the §5.1.1
//!   bi-annual GCD_Ark posture (precheck on), where the precheck's
//!   single-VP gate makes the per-probe savings and the enumeration memo
//!   carry different weights than in the no-precheck scan.
//!
//! [`VpGeometry`]: laces_gcd::VpGeometry

use std::net::IpAddr;
use std::time::Instant;

use laces_gcd::engine::{run_campaign, GcdConfig, GcdReport};

use crate::artifacts::{Artifacts, Scale};

/// Acceptance floor: the shipped engine must beat the reference engine's
/// frozen throughput by at least this factor on the headline workload.
pub const TARGET_SPEEDUP: f64 = 3.0;

/// Frozen anchor: committed `BENCH_pr9.json` `campaign.before_probes_per_s`
/// — the original reference engine on the Huge headline workload.
pub const REFERENCE_PROBES_PER_S: f64 = 1_720_888.5;

/// Frozen anchor: the output fingerprint both engines carried on the Huge
/// headline workload. A Huge run must reproduce it bit-for-bit or the
/// throughput comparison is meaningless.
pub const REFERENCE_FINGERPRINT: u64 = 0x8263_c939_6915_1a52;

/// One timed campaign run.
struct CampaignRun {
    report: GcdReport,
    wall_ms: f64,
}

impl CampaignRun {
    fn probes_per_s(&self) -> f64 {
        if self.wall_ms > 0.0 {
            self.report.probes_sent as f64 * 1000.0 / self.wall_ms
        } else {
            0.0
        }
    }

    /// FNV-1a over the canonical campaign outputs: per-prefix results,
    /// probe totals, the serialized run report, and the trace export.
    /// `chunk_report` is deliberately excluded — it is the one field
    /// documented to depend on the chunk layout.
    fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
        };
        eat(&self.report.probes_sent.to_le_bytes());
        eat(&(self.report.n_vps as u64).to_le_bytes());
        eat(&(self.report.results.len() as u64).to_le_bytes());
        for (prefix, r) in &self.report.results {
            eat(format!("{prefix}").as_bytes());
            eat(serde_json::to_string(r)
                .expect("result serialises")
                .as_bytes());
        }
        eat(self.report.telemetry.to_jsonl().as_bytes());
        eat(self.report.trace_report.to_jsonl().as_bytes());
        h
    }
}

/// Run the campaign three times and keep the fastest run (later runs see
/// a warm allocator, mirroring the probing benchmark's `best_of`), plus
/// whether every repeat fingerprinted identically. Three rather than two
/// because the runs are short enough that a single frequency-scaling or
/// scheduling hiccup would otherwise land in the reported number.
fn best_of(a: &Artifacts, targets: &[IpAddr], cfg: &GcdConfig) -> (CampaignRun, bool) {
    let mut best = timed(a, targets, cfg);
    let fingerprint = best.fingerprint();
    let mut reproducible = true;
    for _ in 0..2 {
        let run = timed(a, targets, cfg);
        reproducible &= run.fingerprint() == fingerprint;
        if run.wall_ms < best.wall_ms {
            best = run;
        }
    }
    (best, reproducible)
}

fn timed(a: &Artifacts, targets: &[IpAddr], cfg: &GcdConfig) -> CampaignRun {
    let t0 = Instant::now();
    let report = run_campaign(&a.world, a.world.std_platforms.ark_dev, targets, cfg)
        .expect("unicast VP platform");
    CampaignRun {
        report,
        wall_ms: t0.elapsed().as_secs_f64() * 1000.0,
    }
}

/// The `Huge`-scale full-platform section: the §5.1.1 GCD_Ark posture
/// (precheck on, fresh measurement id so nothing aliases the cached
/// artifact scans).
#[derive(Debug, Clone)]
pub struct FullPlatformBench {
    /// Targets scanned.
    pub n_targets: u64,
    /// Participating VPs.
    pub n_vps: usize,
    /// Probes the campaign transmitted.
    pub probes_sent: u64,
    /// Wall clock, milliseconds (best of 3).
    pub wall_ms: f64,
    /// Every timed repeat fingerprinted identically.
    pub fingerprint_match: bool,
}

/// The comparison against the reference engine's frozen Huge-scale run.
/// Present only at the `Huge` scale — the anchor was recorded there, so
/// only a Huge run is the same workload.
#[derive(Debug, Clone)]
pub struct ReferenceAnchor {
    /// [`REFERENCE_PROBES_PER_S`], echoed for the JSON reader.
    pub probes_per_s: f64,
    /// Whether this run reproduced [`REFERENCE_FINGERPRINT`] bit-for-bit.
    pub fingerprint_match: bool,
    /// Headline throughput over the frozen reference throughput.
    pub speedup: f64,
}

/// The `BENCH_pr9.json` report.
#[derive(Debug, Clone)]
pub struct GcdBench {
    /// Scale label the run used.
    pub scale: String,
    /// Targets in the headline workload.
    pub n_targets: u64,
    /// Participating VPs.
    pub n_vps: usize,
    /// Probes the campaign transmitted (fingerprint component).
    pub probes_sent: u64,
    /// Wall clock, milliseconds (best of 3).
    pub after_wall_ms: f64,
    /// Throughput.
    pub after_probes_per_s: f64,
    /// Output fingerprint of the headline workload.
    pub fingerprint_after: u64,
    /// Every timed repeat reproduced `fingerprint_after`.
    pub fingerprint_match: bool,
    /// Fingerprint at chunk count 1.
    pub fingerprint_chunks_1: u64,
    /// Fingerprint at chunk count 16.
    pub fingerprint_chunks_16: u64,
    /// Both chunk counts reproduced the headline fingerprint.
    pub chunk_invariant: bool,
    /// The frozen reference comparison (Huge scale only).
    pub reference_anchor: Option<ReferenceAnchor>,
    /// The acceptance floor on the anchored speedup.
    pub target_speedup: f64,
    /// Present only at the `Huge` scale.
    pub full_platform: Option<FullPlatformBench>,
    /// The anchored speedup reached `target_speedup` with every
    /// fingerprint intact (the full-platform section included). Judged at
    /// Huge only: no other scale has a same-workload baseline, so it is
    /// `false` there.
    pub target_met: bool,
}

impl GcdBench {
    /// Serialise as the full `BENCH_pr9.json` object (stable key order).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"scale\": \"{}\",", self.scale);
        let _ = writeln!(s, "  \"campaign\": {{");
        let _ = writeln!(s, "    \"n_targets\": {},", self.n_targets);
        let _ = writeln!(s, "    \"n_vps\": {},", self.n_vps);
        let _ = writeln!(s, "    \"probes_sent\": {},", self.probes_sent);
        let _ = writeln!(s, "    \"after_wall_ms\": {:.3},", self.after_wall_ms);
        let _ = writeln!(
            s,
            "    \"after_probes_per_s\": {:.1},",
            self.after_probes_per_s
        );
        let _ = writeln!(
            s,
            "    \"fingerprint_after\": \"{:#018x}\",",
            self.fingerprint_after
        );
        let _ = writeln!(s, "    \"fingerprint_match\": {}", self.fingerprint_match);
        let _ = writeln!(s, "  }},");
        let _ = writeln!(s, "  \"chunk_invariance\": {{");
        let _ = writeln!(
            s,
            "    \"fingerprint_chunks_1\": \"{:#018x}\",",
            self.fingerprint_chunks_1
        );
        let _ = writeln!(
            s,
            "    \"fingerprint_chunks_16\": \"{:#018x}\",",
            self.fingerprint_chunks_16
        );
        let _ = writeln!(s, "    \"chunk_invariant\": {}", self.chunk_invariant);
        let _ = writeln!(s, "  }},");
        match &self.reference_anchor {
            None => {
                let _ = writeln!(s, "  \"reference_anchor\": null,");
            }
            Some(r) => {
                let _ = writeln!(s, "  \"reference_anchor\": {{");
                let _ = writeln!(s, "    \"probes_per_s\": {:.1},", r.probes_per_s);
                let _ = writeln!(s, "    \"fingerprint\": \"{REFERENCE_FINGERPRINT:#018x}\",");
                let _ = writeln!(s, "    \"fingerprint_match\": {},", r.fingerprint_match);
                let _ = writeln!(s, "    \"speedup\": {:.3}", r.speedup);
                let _ = writeln!(s, "  }},");
            }
        }
        match &self.full_platform {
            None => {
                let _ = writeln!(s, "  \"full_platform\": null,");
            }
            Some(fp) => {
                let _ = writeln!(s, "  \"full_platform\": {{");
                let _ = writeln!(s, "    \"n_targets\": {},", fp.n_targets);
                let _ = writeln!(s, "    \"n_vps\": {},", fp.n_vps);
                let _ = writeln!(s, "    \"probes_sent\": {},", fp.probes_sent);
                let _ = writeln!(s, "    \"wall_ms\": {:.3},", fp.wall_ms);
                let _ = writeln!(s, "    \"fingerprint_match\": {}", fp.fingerprint_match);
                let _ = writeln!(s, "  }},");
            }
        }
        let _ = writeln!(s, "  \"target_speedup\": {:.1},", self.target_speedup);
        let _ = writeln!(s, "  \"target_met\": {}", self.target_met);
        s.push_str("}\n");
        s
    }
}

fn run_full_platform(a: &Artifacts, targets: &[IpAddr]) -> FullPlatformBench {
    // Fresh measurement id: 30_002 is the headline workload and the
    // 20_00x ids are the cached artifact scans.
    let mut cfg = GcdConfig::daily(30_009, 0);
    cfg.precheck = true;
    eprintln!(
        "[gcd] full-platform section ({} targets, precheck on)...",
        targets.len()
    );
    let (run, fingerprint_match) = best_of(a, targets, &cfg);
    FullPlatformBench {
        n_targets: targets.len() as u64,
        n_vps: run.report.n_vps,
        probes_sent: run.report.probes_sent,
        wall_ms: run.wall_ms,
        fingerprint_match,
    }
}

/// Run the GCD campaign benchmark on the artifact cache's world.
pub fn run_gcd_bench(a: &Artifacts) -> GcdBench {
    let targets = a.hit_v4();

    // The BENCH_pr2 `gcd_enumeration` workload, verbatim: same id, same
    // platform, no precheck (every VP probes every target).
    let mut cfg = GcdConfig::daily(30_002, 0);
    cfg.precheck = false;

    eprintln!("[gcd] headline workload ({} targets)...", targets.len());
    let (after, fingerprint_match) = best_of(a, &targets, &cfg);
    let fingerprint_after = after.fingerprint();

    // Chunk-layout invariance at bench scale: 1 and 16 chunks must
    // reproduce the headline fingerprint exactly.
    eprintln!("[gcd] chunk invariance (1 and 16 chunks)...");
    let fingerprint_at = |threads: usize| {
        let mut c = cfg.clone();
        c.threads = threads;
        timed(a, &targets, &c).fingerprint()
    };
    let fingerprint_chunks_16 = fingerprint_at(16);
    let fingerprint_chunks_1 = fingerprint_at(1);
    let chunk_invariant =
        fingerprint_chunks_1 == fingerprint_after && fingerprint_chunks_16 == fingerprint_after;

    // The frozen anchor was recorded at Huge, so only a Huge run is the
    // same deterministic workload.
    let reference_anchor = (a.scale == Scale::Huge).then(|| ReferenceAnchor {
        probes_per_s: REFERENCE_PROBES_PER_S,
        fingerprint_match: fingerprint_after == REFERENCE_FINGERPRINT,
        speedup: after.probes_per_s() / REFERENCE_PROBES_PER_S,
    });
    let full_platform = (a.scale == Scale::Huge).then(|| run_full_platform(a, &targets));

    let target_met = fingerprint_match
        && chunk_invariant
        && reference_anchor
            .as_ref()
            .is_some_and(|r| r.fingerprint_match && r.speedup >= TARGET_SPEEDUP)
        && full_platform.as_ref().is_none_or(|fp| fp.fingerprint_match);

    GcdBench {
        scale: format!("{:?}", a.scale),
        n_targets: targets.len() as u64,
        n_vps: after.report.n_vps,
        probes_sent: after.report.probes_sent,
        after_wall_ms: after.wall_ms,
        after_probes_per_s: after.probes_per_s(),
        fingerprint_after,
        fingerprint_match,
        fingerprint_chunks_1,
        fingerprint_chunks_16,
        chunk_invariant,
        reference_anchor,
        target_speedup: TARGET_SPEEDUP,
        full_platform,
        target_met,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_bench_runs_and_serialises_at_tiny() {
        let a = Artifacts::new(Scale::Tiny);
        let bench = run_gcd_bench(&a);
        assert!(bench.probes_sent > 0, "workload must be non-trivial");
        assert!(
            bench.fingerprint_match,
            "timed repeats diverged from {:#018x}",
            bench.fingerprint_after
        );
        assert!(
            bench.chunk_invariant,
            "chunk counts diverged: 1 -> {:#018x}, 16 -> {:#018x}, headline {:#018x}",
            bench.fingerprint_chunks_1, bench.fingerprint_chunks_16, bench.fingerprint_after
        );
        assert!(bench.full_platform.is_none(), "Huge-only section leaked");
        assert!(bench.reference_anchor.is_none(), "Huge-only anchor leaked");
        assert!(
            !bench.target_met,
            "no baseline outside Huge: nothing to meet"
        );
        let json = bench.to_json();
        let v: serde::Value = serde_json::from_str(&json).expect("BENCH_pr9.json parses");
        let serde::Value::Obj(fields) = v else {
            panic!("top level must be an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        for want in [
            "scale",
            "campaign",
            "chunk_invariance",
            "reference_anchor",
            "full_platform",
            "target_speedup",
            "target_met",
        ] {
            assert!(keys.contains(&want), "missing {want} in {keys:?}");
        }
    }
}
