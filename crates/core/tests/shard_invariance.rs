//! Shard-count invariance: sharding is pure execution layout.
//!
//! The tentpole claim of the sharded probing pipeline is that
//! `spec.shards` changes *only* which thread streams which contiguous
//! slice of the hitlist — every record, the classification built from
//! them, the serialized run report, and the flight-recorder export are
//! byte-identical for any shard count, with and without an active fault
//! plan, and under a mid-stream abort. These tests pin that claim on the
//! paper-topology world across shard counts {1, 4, 16} (single inline
//! shard, even split, and more shards than some slices have targets),
//! mirroring `batch_invariance.rs` — plus the trace export, which batch
//! invariance does not pin.

use std::net::IpAddr;
use std::sync::{Arc, OnceLock};

use laces_core::classify::AnycastClassification;
use laces_core::error::MeasurementError;
use laces_core::fault::FaultPlan;
use laces_core::orchestrator::run_measurement;
use laces_core::results::{MeasurementOutcome, ProbeRecord};
use laces_core::spec::MeasurementSpec;
use laces_netsim::{World, WorldConfig};
use laces_obs::{metrics, names, Histogram};
use laces_packet::PrefixKey;
use laces_trace::TraceConfig;

/// Shared paper-topology world (32-site production platform, reduced
/// target mass) — generated once for the whole test binary.
fn world() -> &'static Arc<World> {
    static WORLD: OnceLock<Arc<World>> = OnceLock::new();
    WORLD.get_or_init(|| Arc::new(World::generate(WorldConfig::paper_topology_tiny_targets())))
}

fn hitlist(world: &World, n: usize) -> Arc<Vec<IpAddr>> {
    Arc::new(
        world.targets[..world.n_v4]
            .iter()
            .take(n)
            .map(|t| match t.prefix {
                PrefixKey::V4(p) => IpAddr::V4(p.addr(laces_netsim::targets::REPRESENTATIVE_HOST)),
                PrefixKey::V6(_) => unreachable!(),
            })
            .collect(),
    )
}

fn spec_with(
    world: &World,
    id: u32,
    targets: Arc<Vec<IpAddr>>,
    faults: FaultPlan,
    shards: usize,
) -> MeasurementSpec {
    MeasurementSpec::builder(id, world.std_platforms.production)
        .targets(targets)
        .faults(faults)
        .trace(TraceConfig::all(0x5A17))
        .shards(shards)
        .build(world)
        .expect("valid spec")
}

/// Assert two outcomes are observably identical: records, classification,
/// the full serialized run report, and the trace export. `shard_report`
/// is deliberately NOT compared — it is the one field documented to
/// depend on `spec.shards`.
fn assert_outputs_equal(a: &MeasurementOutcome, b: &MeasurementOutcome, label: &str) {
    assert_eq!(a.records, b.records, "{label}: records diverge");
    assert_eq!(
        a.probes_sent, b.probes_sent,
        "{label}: probes_sent diverges"
    );
    assert_eq!(
        a.failed_workers, b.failed_workers,
        "{label}: failed workers diverge"
    );
    assert_eq!(
        a.worker_health, b.worker_health,
        "{label}: worker health diverges"
    );
    let class_a = format!("{:?}", AnycastClassification::from_outcome(a));
    let class_b = format!("{:?}", AnycastClassification::from_outcome(b));
    assert_eq!(class_a, class_b, "{label}: classification diverges");
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
fn outputs_are_byte_identical_across_shard_counts() {
    let w = world();
    let targets = hitlist(w, 120);
    let baseline = run_measurement(
        w,
        &spec_with(w, 42_001, Arc::clone(&targets), FaultPlan::none(), 1),
    )
    .expect("valid spec");
    assert!(!baseline.records.is_empty(), "workload must be non-trivial");
    assert!(
        !baseline.trace_report.to_jsonl().is_empty(),
        "tracing must be live or the trace comparison is vacuous"
    );
    for shards in [4usize, 16] {
        let outcome = run_measurement(
            w,
            &spec_with(w, 42_001, Arc::clone(&targets), FaultPlan::none(), shards),
        )
        .expect("valid spec");
        assert_outputs_equal(&baseline, &outcome, &format!("shards={shards}"));
    }
}

#[test]
fn faulted_outputs_are_byte_identical_across_shard_counts() {
    let w = world();
    let targets = hitlist(w, 120);
    // A crash point that lands mid-slice for every tested shard count,
    // plus lossy/duplicating capture fabric and a seal rejection — the
    // full fault surface crossing shard boundaries.
    let plan = || {
        FaultPlan::with_seed(0xBA7C)
            .and_crash(3, 37)
            .and_fabric(0.05, 0.03)
    };
    let baseline = run_measurement(w, &spec_with(w, 42_002, Arc::clone(&targets), plan(), 1))
        .expect("valid spec");
    assert_eq!(baseline.failed_workers, vec![3], "crash plan must fire");
    assert!(
        baseline.telemetry.counter("fabric.dropped") > 0,
        "fabric drop must fire"
    );
    for shards in [4usize, 16] {
        let outcome = run_measurement(
            w,
            &spec_with(w, 42_002, Arc::clone(&targets), plan(), shards),
        )
        .expect("valid spec");
        assert_outputs_equal(&baseline, &outcome, &format!("faulted shards={shards}"));
    }
}

#[test]
fn midstream_abort_is_byte_identical_across_shard_counts() {
    let w = world();
    let targets = hitlist(w, 50);
    let plan = || FaultPlan::with_seed(0xAB07).and_fabric(0.02, 0.01);
    // Learn the run's total record count, then schedule the abort exactly
    // on the final record: the abort path executes (counter + degraded
    // reason) but deterministically cuts nothing, so the outcome stays
    // comparable across shard counts.
    let reference = run_measurement(w, &spec_with(w, 42_003, Arc::clone(&targets), plan(), 1))
        .expect("valid spec");
    let total = reference.records.len();
    assert!(total > 0, "workload must be non-trivial");

    let abort_plan = || plan().and_abort_after(total);
    let baseline = run_measurement(
        w,
        &spec_with(w, 42_003, Arc::clone(&targets), abort_plan(), 1),
    )
    .expect("valid spec");
    assert_eq!(baseline.telemetry.counter("orchestrator.aborts"), 1);
    assert!(baseline.is_degraded(), "abort must degrade the run");
    assert_eq!(
        baseline.records, reference.records,
        "abort on the final record must cut nothing"
    );
    for shards in [4usize, 16] {
        let outcome = run_measurement(
            w,
            &spec_with(w, 42_003, Arc::clone(&targets), abort_plan(), shards),
        )
        .expect("valid spec");
        assert_outputs_equal(&baseline, &outcome, &format!("aborted shards={shards}"));
    }
}

#[test]
fn shard_report_reflects_the_layout_without_leaking_into_telemetry() {
    let w = world();
    let targets = hitlist(w, 120);
    let outcome = run_measurement(
        w,
        &spec_with(w, 42_004, Arc::clone(&targets), FaultPlan::none(), 4),
    )
    .expect("valid spec");
    assert_eq!(outcome.shard_report.gauge("orchestrator.shards"), 4);
    let stages = &outcome.shard_report.stages;
    assert_eq!(stages.len(), 1, "one parent stage for the sharded stream");
    assert_eq!(stages[0].name, "stream:sharded");
    assert_eq!(stages[0].children.len(), 4, "one child stage per shard");
    let targets_covered: u64 = stages[0]
        .children
        .iter()
        .map(|c| c.counter("targets"))
        .sum();
    assert_eq!(targets_covered, 120, "shard slices must cover the hitlist");
    // The canonical telemetry must not mention shard layout at all.
    assert!(
        !outcome.telemetry.to_jsonl().contains("shard"),
        "shard-dependent keys leaked into the invariant run report"
    );
}

#[test]
fn builder_rejects_zero_shards() {
    let w = world();
    let err = MeasurementSpec::builder(42_005, w.std_platforms.production)
        .targets(hitlist(w, 4))
        .shards(0)
        .build(w)
        .unwrap_err();
    assert_eq!(err, MeasurementError::InvalidShardCount);
    assert!(err.to_string().contains("shard count"));
}

#[test]
fn builder_rejects_zero_rate() {
    let w = world();
    let err = MeasurementSpec::builder(42_006, w.std_platforms.production)
        .targets(hitlist(w, 4))
        .rate_per_s(0)
        .build(w)
        .unwrap_err();
    assert_eq!(err, MeasurementError::InvalidRate);
    assert!(err.to_string().contains("rate"));
}

// ---------------------------------------------------------------------------
// Seal equivalence: block-sorted arenas, shard-order concatenation and the
// backstop sort give exactly the globally sorted records, also when the
// blocks do not line up.
// ---------------------------------------------------------------------------

/// The test's own reference order: one global sort on the full record
/// key, independent of the library's sort.
fn globally_sorted(records: &[ProbeRecord]) -> Vec<ProbeRecord> {
    let mut v = records.to_vec();
    // Start from an order the pipeline never produces.
    v.reverse();
    v.sort_by(|a, b| {
        (
            a.prefix,
            a.tx_worker,
            a.rx_worker,
            a.tx_time_ms,
            a.rx_time_ms,
            a.protocol,
            a.chaos_identity.as_deref(),
        )
            .cmp(&(
                b.prefix,
                b.tx_worker,
                b.rx_worker,
                b.tx_time_ms,
                b.rx_time_ms,
                b.protocol,
                b.chaos_identity.as_deref(),
            ))
    });
    v
}

/// Run `targets` under `plan` at shards {1, 4, 16} × batch sizes
/// {1, 16, 256}; every run's records must serialise byte-identically to
/// the globally sorted records, and every run must match the first one.
fn assert_seal_equivalence(
    id: u32,
    targets: &Arc<Vec<IpAddr>>,
    plan: impl Fn() -> FaultPlan,
    label: &str,
) -> MeasurementOutcome {
    let w = world();
    let mut first: Option<MeasurementOutcome> = None;
    for shards in [1usize, 4, 16] {
        for batch_size in [1usize, 16, 256] {
            let spec = MeasurementSpec::builder(id, w.std_platforms.production)
                .targets(Arc::clone(targets))
                .faults(plan())
                .shards(shards)
                .batch_size(batch_size)
                .build(w)
                .expect("valid spec");
            let outcome = run_measurement(w, &spec).expect("valid spec");
            let cell = format!("{label} shards={shards} batch={batch_size}");
            assert_eq!(
                serde_json::to_string(&outcome.records).unwrap(),
                serde_json::to_string(&globally_sorted(&outcome.records)).unwrap(),
                "{cell}: records are not the globally sorted multiset"
            );
            // The RTT distribution, observed per shard at capture, must
            // be the one of the published records, deferred captures
            // included.
            let mut rtts = Histogram::new(&metrics::RTT_BUCKETS_MS);
            for rtt in outcome.records.iter().filter_map(ProbeRecord::rtt_ms) {
                rtts.observe(rtt);
            }
            assert_eq!(
                outcome.telemetry.histograms.get(names::worker::RTT_MS),
                Some(&rtts.snapshot()),
                "{cell}: RTT histogram is not the published records'"
            );
            match &first {
                None => first = Some(outcome),
                Some(base) => {
                    assert_eq!(
                        serde_json::to_string(&base.records).unwrap(),
                        serde_json::to_string(&outcome.records).unwrap(),
                        "{cell}: records diverge"
                    );
                    assert_eq!(
                        base.telemetry.to_jsonl(),
                        outcome.telemetry.to_jsonl(),
                        "{cell}: serialized run report diverges"
                    );
                }
            }
        }
    }
    let base = first.expect("at least one cell");
    assert!(
        !base.records.is_empty(),
        "{label}: workload must be non-trivial"
    );
    base
}

#[test]
fn seal_is_globally_sorted_for_a_shuffled_hitlist() {
    let w = world();
    let mut targets = hitlist(w, 120).to_vec();
    // Seeded Fisher–Yates: the shards' slices are no longer prefix-sorted,
    // so neither are their blocks.
    let mut state = 0x5EA1_u64;
    for i in (1..targets.len()).rev() {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let j = usize::try_from((state >> 33) % (i as u64 + 1)).unwrap();
        targets.swap(i, j);
    }
    let prefixes: Vec<PrefixKey> = targets.iter().map(|a| PrefixKey::of(*a)).collect();
    assert!(
        !prefixes.is_sorted(),
        "the shuffled hitlist must not be prefix-sorted"
    );
    assert_seal_equivalence(42_101, &Arc::new(targets), FaultPlan::none, "shuffled");
}

#[test]
fn seal_is_globally_sorted_under_misaligned_batch_rounds() {
    let w = world();
    let targets = hitlist(w, 120);
    // Delayed channels shift those workers' batch boundaries off the
    // others', so most rounds never see every sender flush; one channel
    // also closes mid-stream.
    let plan = || {
        FaultPlan::with_seed(0x0DE1)
            .and_order_fault(2, 5, None)
            .and_order_fault(9, 17, Some(60))
    };
    let base = assert_seal_equivalence(42_102, &targets, plan, "order-delay");
    assert!(
        base.telemetry.counter("orchestrator.orders_streamed") > 0,
        "orders must stream"
    );
}

#[test]
fn seal_is_globally_sorted_with_deferred_captures() {
    let w = world();
    let targets = hitlist(w, 120);
    // Worker 3 crashes mid-stream and loses its buffered captures; worker
    // 5 is scheduled to crash past the end of the stream, survives, and
    // drains its deferred captures into the late arena at seal.
    let plan = || {
        FaultPlan::with_seed(0xDEFE)
            .and_crash(3, 37)
            .and_crash(5, 1_000_000)
            .and_fabric(0.05, 0.03)
    };
    let base = assert_seal_equivalence(42_103, &targets, plan, "deferred");
    assert_eq!(base.failed_workers, vec![3], "only worker 3 may crash");
    assert!(
        base.records.iter().any(|r| r.rx_worker == 5),
        "the surviving worker's deferred captures must be published"
    );
}
