//! The original GCD engine (test-only oracle).
//!
//! [`run_campaign_reference`] runs a campaign target-major at the old
//! per-probe cost profile: an allocating `build_probe` through the scalar
//! `send_probe_observed` wire path (per-call source and route resolution,
//! reply-byte synthesis), per-pair haversines for every selection and
//! overlap test, and [`enumerate_counted`] over the city database. It
//! shares the campaign frame (chunking, fault injection, telemetry) with
//! [`run_campaign`], and the tests below pin the two engines
//! byte-identical: results, telemetry and trace export, at chunk counts
//! {1, 4, 16}, under VP selection and with a panicking chunk.
#![cfg(test)]

use std::net::IpAddr;
use std::sync::Arc;

use laces_core::MeasurementError;
use laces_geo::Coord;
use laces_netsim::wire::{MeasurementCtx, ProbeSource, WireStats};
use laces_netsim::{platform as plat, PlatformId, World};
use laces_packet::probe::{build_probe, ProbeEncoding, ProbeMeta};
use laces_packet::PrefixKey;
use laces_trace::Tracer;

use super::{
    check_platform, classify_and_trace, participating_vps, run_campaign, run_chunked, trace_probe,
    trace_verdict, vp_wire_id, GcdClass, GcdConfig, GcdReport, PrefixGcd,
};
use crate::enumerate::{enumerate_counted, RttSample};

/// [`run_campaign`] on the original engine. Byte-identical output.
fn run_campaign_reference(
    world: &Arc<World>,
    platform: PlatformId,
    targets: &[IpAddr],
    cfg: &GcdConfig,
) -> Result<GcdReport, MeasurementError> {
    check_platform(world, platform)?;
    let vps = participating_vps(world, platform, cfg);
    Ok(run_chunked(
        targets,
        cfg,
        vps.len(),
        |part, wire, tests, tracer| {
            part.iter()
                .map(|&target| {
                    let r = measure_target_reference(
                        world, platform, &vps, target, cfg, wire, tests, tracer,
                    );
                    (PrefixKey::of(target), r)
                })
                .collect()
        },
    ))
}

/// Measure one target at the original cost profile: allocating probe
/// construction, the scalar observed wire path, recomputed haversines.
#[allow(clippy::too_many_arguments)]
fn measure_target_reference(
    world: &Arc<World>,
    platform: PlatformId,
    vps: &[(usize, Coord)],
    target: IpAddr,
    cfg: &GcdConfig,
    wire: &WireStats,
    overlap_tests: &mut u64,
    tracer: &Tracer,
) -> PrefixGcd {
    let ctx = MeasurementCtx {
        id: cfg.measurement_id,
        day: cfg.day,
        span_ms: 0,
    };
    let prefix = PrefixKey::of(target);
    let mut samples: Vec<RttSample> = Vec::with_capacity(vps.len());

    let probe_from = |vp: usize| -> Option<f64> {
        let src = match target {
            IpAddr::V4(_) => plat::vp_src_v4(platform, vp),
            IpAddr::V6(_) => plat::vp_src_v6(platform, vp),
        };
        let mut best: Option<f64> = None;
        // Fixed window start for rate invariance; see `send_vp_batch`.
        let window_start = u64::from(cfg.measurement_id) * 1000;
        for attempt in 0..cfg.attempts.max(1) {
            let tx = window_start + u64::from(attempt) * 50;
            let meta = ProbeMeta {
                measurement_id: cfg.measurement_id,
                worker_id: vp_wire_id(vp),
                tx_time_ms: tx,
            };
            let pkt = build_probe(src, target, cfg.protocol, &meta, ProbeEncoding::PerWorker);
            if let Ok(Some(d)) = world.send_probe_observed(
                ProbeSource::Vp { platform, vp },
                &pkt,
                tx,
                window_start,
                &ctx,
                wire,
            ) {
                best = Some(best.map_or(d.rtt_ms, |b: f64| b.min(d.rtt_ms)));
            }
        }
        best
    };

    let mut start = 0usize;
    if cfg.precheck {
        // Responsiveness gate from the first participating VP.
        let Some((vp0, c0)) = vps.first().copied() else {
            trace_verdict(tracer, prefix, GcdClass::Unresponsive);
            return PrefixGcd {
                class: GcdClass::Unresponsive,
                enumeration: enumerate_counted(&[], &world.db, overlap_tests),
            };
        };
        let best = probe_from(vp0);
        trace_probe(tracer, prefix, vp0, best);
        match best {
            Some(rtt) => samples.push(RttSample {
                vp: vp0,
                vp_coord: c0,
                rtt_ms: rtt,
            }),
            None => {
                trace_verdict(tracer, prefix, GcdClass::Unresponsive);
                return PrefixGcd {
                    class: GcdClass::Unresponsive,
                    enumeration: enumerate_counted(&[], &world.db, overlap_tests),
                };
            }
        }
        start = 1;
    }
    for &(vp, coord) in &vps[start..] {
        let best = probe_from(vp);
        trace_probe(tracer, prefix, vp, best);
        if let Some(rtt) = best {
            samples.push(RttSample {
                vp,
                vp_coord: coord,
                rtt_ms: rtt,
            });
        }
    }

    let tests_before = *overlap_tests;
    let enumeration = enumerate_counted(&samples, &world.db, overlap_tests);
    let tests_here = *overlap_tests - tests_before;
    classify_and_trace(tracer, prefix, enumeration, tests_here)
}

mod tests {
    use std::sync::OnceLock;

    use laces_netsim::WorldConfig;
    use laces_obs::DegradedReason;
    use laces_trace::TraceConfig;

    use super::*;

    /// Shared tiny world — generated once for the whole test binary.
    fn world() -> &'static Arc<World> {
        static WORLD: OnceLock<Arc<World>> = OnceLock::new();
        WORLD.get_or_init(|| Arc::new(World::generate(WorldConfig::tiny())))
    }

    fn targets(world: &World, n: usize) -> Vec<IpAddr> {
        world.targets[..world.n_v4]
            .iter()
            .take(n)
            .map(|t| match t.prefix {
                PrefixKey::V4(p) => IpAddr::V4(p.addr(laces_netsim::targets::REPRESENTATIVE_HOST)),
                PrefixKey::V6(_) => unreachable!(),
            })
            .collect()
    }

    /// A traced campaign config, so the trace comparison is never vacuous.
    fn cfg_with(id: u32, threads: usize) -> GcdConfig {
        let mut cfg = GcdConfig::daily(id, 0);
        cfg.attempts = 2;
        cfg.threads = threads;
        cfg.trace = TraceConfig::all(0x9C0D);
        cfg
    }

    /// Assert two campaign reports are observably identical: every per-prefix
    /// result, the probe count, the serialized run report, and the trace
    /// export. `chunk_report` is deliberately NOT compared — it is the one
    /// field documented to depend on the chunk layout.
    fn assert_reports_equal(a: &GcdReport, b: &GcdReport, label: &str) {
        assert_eq!(a.results, b.results, "{label}: results diverge");
        assert_eq!(
            a.probes_sent, b.probes_sent,
            "{label}: probes_sent diverges"
        );
        assert_eq!(a.n_vps, b.n_vps, "{label}: n_vps diverges");
        assert_eq!(
            a.telemetry.to_jsonl(),
            b.telemetry.to_jsonl(),
            "{label}: serialized run report diverges"
        );
        assert_eq!(
            a.trace_report.to_jsonl(),
            b.trace_report.to_jsonl(),
            "{label}: trace export diverges"
        );
    }

    #[test]
    fn fast_engine_matches_the_reference_byte_for_byte() {
        let w = world();
        let t = targets(w, 80);
        let cfg = cfg_with(47_001, 4);
        let fast = run_campaign(w, w.std_platforms.ark_dev, &t, &cfg).expect("unicast platform");
        let reference =
            run_campaign_reference(w, w.std_platforms.ark_dev, &t, &cfg).expect("unicast platform");
        assert!(!fast.results.is_empty(), "workload must be non-trivial");
        assert!(
            !fast.trace_report.to_jsonl().is_empty(),
            "tracing must be live or the trace comparison is vacuous"
        );
        assert_reports_equal(&fast, &reference, "fast-vs-reference");
    }

    #[test]
    fn fast_engine_matches_the_reference_under_vp_selection() {
        // The Atlas-style config exercises every memoized geometry consumer:
        // the flaky-VP filter, the min-distance selection, the max-VP stride,
        // and a no-precheck campaign (all VPs probe every target).
        let w = world();
        let t = targets(w, 50);
        let mut cfg = cfg_with(47_002, 3);
        cfg.precheck = false;
        cfg.min_vp_distance_km = Some(400.0);
        cfg.max_vps = Some(9);
        let fast = run_campaign(w, w.std_platforms.atlas, &t, &cfg).expect("unicast platform");
        let reference =
            run_campaign_reference(w, w.std_platforms.atlas, &t, &cfg).expect("unicast platform");
        assert!(fast.n_vps <= 9, "max_vps must have engaged");
        assert_reports_equal(&fast, &reference, "atlas fast-vs-reference");
    }

    #[test]
    fn reference_engine_matches_across_chunk_counts() {
        let w = world();
        let t = targets(w, 80);
        let fast_single = run_campaign(w, w.std_platforms.ark_dev, &t, &cfg_with(47_003, 1))
            .expect("unicast platform");
        // The reference engine is chunked identically.
        let ref_single =
            run_campaign_reference(w, w.std_platforms.ark_dev, &t, &cfg_with(47_003, 1))
                .expect("unicast platform");
        let ref_chunked =
            run_campaign_reference(w, w.std_platforms.ark_dev, &t, &cfg_with(47_003, 16))
                .expect("unicast platform");
        assert_reports_equal(&ref_single, &ref_chunked, "reference threads=16");
        assert_reports_equal(&fast_single, &ref_single, "fast-vs-reference threads=1");
    }

    #[test]
    fn faulted_chunk_quarantines_its_targets_on_both_engines() {
        let w = world();
        let t = targets(w, 80);
        let clean = run_campaign(w, w.std_platforms.ark_dev, &t, &cfg_with(47_004, 4))
            .expect("unicast platform");

        let mut cfg = cfg_with(47_004, 4);
        cfg.fault_chunk = Some(1);
        let fast = run_campaign(w, w.std_platforms.ark_dev, &t, &cfg).expect("unicast platform");
        let reference =
            run_campaign_reference(w, w.std_platforms.ark_dev, &t, &cfg).expect("unicast platform");

        // The fault plan degrades both engines identically.
        assert_reports_equal(&fast, &reference, "faulted fast-vs-reference");
        assert!(fast.is_degraded(), "lost chunk must degrade the campaign");
        assert_eq!(
            fast.degraded_reasons(),
            &[DegradedReason::GcdChunkLost { targets: 20 }],
            "chunk 1 of 4 holds a quarter of the 80 targets"
        );
        assert_eq!(fast.telemetry.counter("gcd.targets_lost"), 20);
        assert_eq!(fast.results.len(), 60, "surviving chunks all publish");
        // Surviving results are exactly the clean run's (per-chunk probing is
        // independent, so a lost sibling changes nothing).
        for (prefix, result) in &fast.results {
            assert_eq!(
                Some(result),
                clean.results.get(prefix),
                "surviving result for {prefix} diverges from the clean run"
            );
        }
        // And the fault plan is chunk-layout-stable in what it loses: the same
        // plan at chunk count 4 always loses the same 20 targets.
        let again = run_campaign(w, w.std_platforms.ark_dev, &t, &cfg).expect("unicast platform");
        assert_reports_equal(&fast, &again, "faulted rerun");
    }
}
