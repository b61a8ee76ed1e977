//! GCD engine invariance: chunking is pure execution layout.
//!
//! The campaign's chunk fan-out changes *only* throughput. Every
//! per-prefix result, the serialized telemetry, and the flight-recorder
//! export must be byte-identical across chunk counts {1, 4, 16}; the
//! chunk layout may show only in the quarantined `chunk_report` and in
//! opt-in trace markers. These tests pin that claim, mirroring the probing
//! pipeline's `shard_invariance.rs`. The comparison against the original
//! engine (including the faulted-chunk plan) runs next to that test-only
//! oracle, in `laces-gcd`'s `engine::reference` unit tests.

use std::net::IpAddr;
use std::sync::{Arc, OnceLock};

use laces_gcd::engine::{run_campaign, GcdConfig, GcdReport};
use laces_netsim::{World, WorldConfig};
use laces_packet::PrefixKey;
use laces_trace::TraceConfig;

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
fn outputs_are_byte_identical_across_chunk_counts() {
    let w = world();
    let t = targets(w, 80);
    let baseline = run_campaign(w, w.std_platforms.ark_dev, &t, &cfg_with(47_003, 1))
        .expect("unicast platform");
    for threads in [4usize, 16] {
        let outcome = run_campaign(w, w.std_platforms.ark_dev, &t, &cfg_with(47_003, threads))
            .expect("unicast platform");
        assert_reports_equal(&baseline, &outcome, &format!("threads={threads}"));
        assert_eq!(
            outcome.chunk_report.gauge("gcd.threads"),
            threads as u64,
            "chunk layout must land in chunk_report"
        );
    }
}

#[test]
fn chunk_markers_are_opt_in_and_quarantined() {
    let w = world();
    let t = targets(w, 40);

    // TraceConfig::all leaves chunk markers off: the canonical trace and
    // telemetry never mention the chunk layout.
    let outcome = run_campaign(w, w.std_platforms.ark_dev, &t, &cfg_with(47_005, 4))
        .expect("unicast platform");
    assert!(
        !outcome.trace_report.to_jsonl().contains("GcdChunk"),
        "chunk markers leaked into the invariant trace"
    );
    assert!(
        !outcome.telemetry.to_jsonl().contains("gcd.threads")
            && !outcome.telemetry.to_jsonl().contains("gcd.chunks"),
        "chunk-layout gauges leaked into the invariant run report"
    );
    assert_eq!(outcome.chunk_report.gauge("gcd.threads"), 4);
    assert_eq!(outcome.chunk_report.gauge("gcd.chunks"), 4);

    // Opting in surfaces one marker per chunk.
    let mut cfg = cfg_with(47_005, 4);
    cfg.trace = TraceConfig::all(0x9C0D).with_shard_spans();
    let traced = run_campaign(w, w.std_platforms.ark_dev, &t, &cfg).expect("unicast platform");
    assert_eq!(
        traced.trace_report.to_jsonl().matches("GcdChunk").count(),
        4,
        "one chunk marker per spawned chunk"
    );
}

#[test]
fn oversized_platform_is_rejected_up_front() {
    // The probe wire format carries the witnessing VP in a u16; a platform
    // with more VPs than that id space must be rejected before any probing
    // (previously the id silently saturated, aliasing every VP >= 65535).
    // The guard fires before the campaign resolves routes or builds its
    // geometry memo, so a synthetic VP list on a generated world — far
    // cheaper than generating 65 536 routed VPs — exercises it fully.
    let mut w = World::generate(WorldConfig::tiny());
    let template = w
        .platform(w.std_platforms.atlas)
        .vps()
        .expect("unicast platform")[0]
        .clone();
    let huge = laces_netsim::PlatformId(
        u16::try_from(w.platforms.len()).expect("platform registry fits u16"),
    );
    w.platforms.push(laces_netsim::Platform {
        name: "synthetic-huge".into(),
        kind: laces_netsim::PlatformKind::Unicast {
            vps: vec![template; usize::from(u16::MAX) + 1],
        },
    });
    let w = Arc::new(w);
    let t = targets(&w, 4);
    let err = run_campaign(&w, huge, &t, &cfg_with(47_006, 1))
        .expect_err("oversized platform must be rejected");
    assert_eq!(
        err,
        laces_core::MeasurementError::PlatformTooLarge {
            platform: huge,
            n_vps: usize::from(u16::MAX) + 1,
        }
    );
    assert!(err.to_string().contains("65536"));
}
