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
use laces_core::results::MeasurementOutcome;
use laces_core::spec::MeasurementSpec;
use laces_netsim::{World, WorldConfig};
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
