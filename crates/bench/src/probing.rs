//! Probing-pipeline before/after benchmark: `BENCH_pr4.json`.
//!
//! The batched probing pipeline (probe batches on the order channels, a
//! per-worker [`ProbeSession`](laces_netsim::ProbeSession) holding
//! pre-resolved route handles, reused probe buffers) claims a wall-clock
//! win with bit-identical outputs. This module proves both halves in one
//! run:
//!
//! - **before** — a faithful replica of the pre-batching hot path: one
//!   channel send per order, a fresh probe allocation per target, the
//!   scalar `send_probe_observed` (which resolves routes through the
//!   world's cache lock on every probe), one fabric send per delivery and
//!   one result send per record;
//! - **after** — the real batched `run_measurement` path.
//!
//! Both run the same spec (same id, targets, rate — the workload of
//! `BENCH_pr2.json`'s `probing_pipeline` section), and the report carries
//! an FNV-1a fingerprint over `(probes_sent, replies_delivered, canonical
//! records)` for each side plus a `fingerprint_match` flag: a speedup only
//! counts if the two pipelines did identical work.

use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel;
use laces_core::orchestrator::run_measurement;
use laces_core::rate::window_start_ms;
use laces_core::results::ProbeRecord;
use laces_core::spec::MeasurementSpec;
use laces_core::worker::ProbeOrder;
use laces_netsim::wire::{MeasurementCtx, ProbeSource};
use laces_netsim::{platform as plat, Delivery, WireStats, World};
use laces_obs::metrics::BATCH_SIZE_BUCKETS;
use laces_obs::{Histogram, HistogramSnapshot};
use laces_packet::probe::{build_probe, parse_reply, ProbeMeta};
use laces_packet::PrefixKey;

use crate::artifacts::Artifacts;

/// Queue depth of the pre-batching per-worker order channels.
const LEGACY_ORDER_QUEUE: usize = 4_096;

/// What one pipeline run produced: the canonical record multiset plus the
/// deterministic wire totals, and how long it took. Shared with the
/// sharding benchmark (`BENCH_pr6.json`), which compares runs of the same
/// workload the same way.
pub(crate) struct PipelineRun {
    pub(crate) records: Vec<ProbeRecord>,
    pub(crate) probes_sent: u64,
    pub(crate) replies_delivered: u64,
    pub(crate) wall_ms: f64,
}

impl PipelineRun {
    pub(crate) fn probes_per_s(&self) -> f64 {
        if self.wall_ms > 0.0 {
            self.probes_sent as f64 * 1000.0 / self.wall_ms
        } else {
            0.0
        }
    }

    /// FNV-1a over the deterministic outputs: wire totals plus every
    /// canonical record. Equal fingerprints mean the two pipelines probed
    /// the same workload and produced byte-identical results.
    pub(crate) fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
        };
        eat(&self.probes_sent.to_le_bytes());
        eat(&self.replies_delivered.to_le_bytes());
        eat(&(self.records.len() as u64).to_le_bytes());
        for r in &self.records {
            let line = format!(
                "{:?}|{:?}|{}|{:?}|{:?}|{}|{:?}",
                r.prefix,
                r.protocol,
                r.rx_worker,
                r.tx_worker,
                r.tx_time_ms,
                r.rx_time_ms,
                r.chaos_identity
            );
            eat(line.as_bytes());
        }
        h
    }
}

/// The orchestrator's canonical record order (workers race to the result
/// stream; sorting removes the scheduler noise before fingerprinting): a
/// total order over every record field, so the sorted multiset is unique.
fn sort_canonical(records: &mut [ProbeRecord]) {
    records.sort_unstable_by(|a, b| {
        (
            a.prefix,
            a.tx_worker,
            a.rx_worker,
            a.tx_time_ms,
            a.rx_time_ms,
            a.protocol,
        )
            .cmp(&(
                b.prefix,
                b.tx_worker,
                b.rx_worker,
                b.tx_time_ms,
                b.rx_time_ms,
                b.protocol,
            ))
            .then_with(|| a.chaos_identity.cmp(&b.chaos_identity))
    });
}

/// Replica of the pre-batching measurement hot path, kept here so the
/// benchmark's "before" side stays runnable after the production code moved
/// on: scalar orders, per-probe allocation, per-probe route-cache lock,
/// per-delivery fabric sends, per-record result sends. Fault-free only.
fn run_legacy(world: &Arc<World>, spec: &MeasurementSpec) -> PipelineRun {
    let n_workers = world.platform(spec.platform).n_vps();
    let span_ms = spec.span_ms(n_workers);
    let ctx = MeasurementCtx {
        id: spec.id,
        day: spec.day,
        span_ms,
    };
    let src_addr = plat::anycast_src_v4(spec.platform);

    let t0 = Instant::now();
    let wire_stats = WireStats::new();
    let mut order_txs = Vec::with_capacity(n_workers);
    let mut order_rxs = Vec::with_capacity(n_workers);
    let mut cap_txs = Vec::with_capacity(n_workers);
    let mut cap_rxs = Vec::with_capacity(n_workers);
    for _ in 0..n_workers {
        let (ot, or) = channel::bounded::<ProbeOrder>(LEGACY_ORDER_QUEUE);
        order_txs.push(ot);
        order_rxs.push(or);
        let (ct, cr) = channel::unbounded::<Delivery>();
        cap_txs.push(ct);
        cap_rxs.push(cr);
    }
    let (rec_tx, rec_rx) = channel::unbounded::<ProbeRecord>();

    let mut records = Vec::new();
    std::thread::scope(|scope| {
        for (w, (orders, captures)) in order_rxs.into_iter().zip(cap_rxs).enumerate() {
            let fabric = cap_txs.clone();
            let rec = rec_tx.clone();
            let wire_stats = &wire_stats;
            scope.spawn(move || {
                let source = ProbeSource::Worker {
                    platform: spec.platform,
                    site: w,
                };
                let process = |d: Delivery, rec: &channel::Sender<ProbeRecord>| {
                    if let Ok(info) = parse_reply(&d.packet, spec.id, d.rx_time_ms) {
                        let _ = rec.send(ProbeRecord {
                            prefix: PrefixKey::of(d.packet.src),
                            protocol: info.protocol,
                            rx_worker: w as u16,
                            tx_worker: info.tx_worker,
                            tx_time_ms: info.tx_time_ms,
                            rx_time_ms: d.rx_time_ms,
                            chaos_identity: info.chaos_identity,
                        });
                    }
                };
                for order in orders.iter() {
                    let tx_time = order.window_start_ms + spec.offset_ms * w as u64;
                    let meta = ProbeMeta {
                        measurement_id: spec.id,
                        worker_id: w as u16,
                        tx_time_ms: tx_time,
                    };
                    // One fresh allocation per probe, one lock acquisition
                    // per send: the costs the batched pipeline removed.
                    let pkt =
                        build_probe(src_addr, order.target, spec.protocol, &meta, spec.encoding);
                    if let Ok(Some(d)) = world.send_probe_observed(
                        source,
                        &pkt,
                        tx_time,
                        order.window_start_ms,
                        &ctx,
                        wire_stats,
                    ) {
                        if let Some(s) = fabric.get(d.rx_index) {
                            let _ = s.send(d);
                        }
                    }
                    while let Ok(d) = captures.try_recv() {
                        process(d, &rec);
                    }
                }
                drop(fabric);
                for d in captures.iter() {
                    process(d, &rec);
                }
            });
        }
        drop(cap_txs);
        drop(rec_tx);

        scope.spawn(move || {
            for (i, &target) in spec.targets.iter().enumerate() {
                let order = ProbeOrder {
                    target,
                    window_start_ms: window_start_ms(i, spec.rate_per_s),
                };
                for tx in &order_txs {
                    let _ = tx.send(order);
                }
            }
        });

        for r in rec_rx.iter() {
            records.push(r);
        }
    });
    sort_canonical(&mut records);
    PipelineRun {
        probes_sent: wire_stats.probes.get(),
        replies_delivered: wire_stats.deliveries.get(),
        records,
        wall_ms: t0.elapsed().as_secs_f64() * 1000.0,
    }
}

/// The production batched pipeline.
fn run_batched(world: &Arc<World>, spec: &MeasurementSpec) -> PipelineRun {
    let t0 = Instant::now();
    let outcome = run_measurement(world, spec).expect("valid spec");
    let wall_ms = t0.elapsed().as_secs_f64() * 1000.0;
    PipelineRun {
        probes_sent: outcome.probes_sent,
        replies_delivered: outcome.telemetry.counter("fabric.replies_delivered"),
        records: outcome.records,
        wall_ms,
    }
}

/// The `probing` section of `BENCH_pr4.json`.
#[derive(Debug, Clone)]
pub struct ProbingBench {
    /// Scale label the run used.
    pub scale: String,
    /// Number of targets in the measured world.
    pub n_targets: usize,
    /// Batch size the batched side ran with.
    pub batch_size: usize,
    /// Deterministic workload totals (identical on both sides when
    /// `fingerprint_match` holds).
    pub probes_sent: u64,
    /// Replies the wire delivered (workload fingerprint component).
    pub replies_delivered: u64,
    /// Canonical records produced.
    pub records: u64,
    /// FNV-1a over the pre-batching pipeline's outputs.
    pub fingerprint_before: u64,
    /// FNV-1a over the batched pipeline's outputs.
    pub fingerprint_after: u64,
    /// Whether the two pipelines produced identical outputs.
    pub fingerprint_match: bool,
    /// Pre-batching wall clock, milliseconds.
    pub before_wall_ms: f64,
    /// Pre-batching throughput, probes per second.
    pub before_probes_per_s: f64,
    /// Batched wall clock, milliseconds.
    pub after_wall_ms: f64,
    /// Batched throughput, probes per second.
    pub after_probes_per_s: f64,
    /// `after_probes_per_s / before_probes_per_s`.
    pub speedup: f64,
    /// Distribution of batch sizes the orchestrator issued (reconstructed
    /// from the deterministic schedule: `floor(n/B)` full batches plus a
    /// partial tail per worker).
    pub batch_size_histogram: HistogramSnapshot,
}

impl ProbingBench {
    /// Serialise as the full `BENCH_pr4.json` object (stable key order).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let join = |v: &[u64]| {
            v.iter()
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        };
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"scale\": \"{}\",", self.scale);
        let _ = writeln!(s, "  \"n_targets\": {},", self.n_targets);
        let _ = writeln!(s, "  \"probing\": {{");
        let _ = writeln!(s, "    \"batch_size\": {},", self.batch_size);
        let _ = writeln!(s, "    \"probes_sent\": {},", self.probes_sent);
        let _ = writeln!(s, "    \"replies_delivered\": {},", self.replies_delivered);
        let _ = writeln!(s, "    \"records\": {},", self.records);
        let _ = writeln!(
            s,
            "    \"fingerprint_before\": \"{:#018x}\",",
            self.fingerprint_before
        );
        let _ = writeln!(
            s,
            "    \"fingerprint_after\": \"{:#018x}\",",
            self.fingerprint_after
        );
        let _ = writeln!(s, "    \"fingerprint_match\": {},", self.fingerprint_match);
        let _ = writeln!(
            s,
            "    \"before\": {{\"wall_ms\": {:.3}, \"probes_per_s\": {:.1}}},",
            self.before_wall_ms, self.before_probes_per_s
        );
        let _ = writeln!(
            s,
            "    \"after\": {{\"wall_ms\": {:.3}, \"probes_per_s\": {:.1}}},",
            self.after_wall_ms, self.after_probes_per_s
        );
        let _ = writeln!(s, "    \"speedup\": {:.2},", self.speedup);
        let _ = writeln!(s, "    \"batch_size_histogram\": {{");
        let _ = writeln!(
            s,
            "      \"bounds\": [{}],",
            join(&self.batch_size_histogram.bounds)
        );
        let _ = writeln!(
            s,
            "      \"counts\": [{}],",
            join(&self.batch_size_histogram.counts)
        );
        let _ = writeln!(s, "      \"count\": {},", self.batch_size_histogram.count);
        let _ = writeln!(s, "      \"sum\": {}", self.batch_size_histogram.sum);
        let _ = writeln!(s, "    }}");
        let _ = writeln!(s, "  }}");
        s.push_str("}\n");
        s
    }
}

/// Run a pipeline twice and keep the faster run: both runs produce
/// identical outputs (the pipelines are deterministic), and the first run
/// doubles as warm-up — page faults and allocator growth land there, so
/// the reported throughput is steady-state, not first-touch.
pub(crate) fn best_of(mut run: impl FnMut() -> PipelineRun) -> PipelineRun {
    let first = run();
    let second = run();
    if second.wall_ms < first.wall_ms {
        second
    } else {
        first
    }
}

/// Run the before/after probing benchmark on the artifact cache's world.
/// The workload is `BENCH_pr2.json`'s `probing_pipeline` spec (same id,
/// targets and rate), so the two files' deterministic counters line up.
pub fn run_probing_bench(a: &Artifacts) -> ProbingBench {
    let spec = MeasurementSpec::builder(30_001, a.world.std_platforms.production)
        .targets(Arc::clone(&a.hit_v4()))
        .rate_per_s(10_000)
        .build(&a.world)
        .expect("valid probing bench spec");

    let before = best_of(|| run_legacy(&a.world, &spec));
    let after = best_of(|| run_batched(&a.world, &spec));
    let fingerprint_before = before.fingerprint();
    let fingerprint_after = after.fingerprint();

    // Reconstruct the batch-size distribution from the deterministic
    // schedule (the measurement path itself carries no batch-size-dependent
    // telemetry — its reports are bit-identical across batch sizes).
    let n_workers = a.world.platform(spec.platform).n_vps();
    let mut hist = Histogram::new(&BATCH_SIZE_BUCKETS);
    let full = spec.targets.len() / spec.batch_size;
    let rem = spec.targets.len() % spec.batch_size;
    for _ in 0..n_workers {
        for _ in 0..full {
            hist.observe(spec.batch_size as u64);
        }
        if rem > 0 {
            hist.observe(rem as u64);
        }
    }

    let before_probes_per_s = before.probes_per_s();
    let after_probes_per_s = after.probes_per_s();
    ProbingBench {
        scale: format!("{:?}", a.scale),
        n_targets: a.world.n_targets(),
        batch_size: spec.batch_size,
        probes_sent: after.probes_sent,
        replies_delivered: after.replies_delivered,
        records: after.records.len() as u64,
        fingerprint_before,
        fingerprint_after,
        fingerprint_match: fingerprint_before == fingerprint_after,
        before_wall_ms: before.wall_ms,
        before_probes_per_s,
        after_wall_ms: after.wall_ms,
        after_probes_per_s,
        speedup: if before_probes_per_s > 0.0 {
            after_probes_per_s / before_probes_per_s
        } else {
            0.0
        },
        batch_size_histogram: hist.snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifacts::Scale;

    #[test]
    fn probing_bench_outputs_match_and_serialise() {
        let a = Artifacts::new(Scale::Tiny);
        let bench = run_probing_bench(&a);
        assert!(bench.probes_sent > 0, "workload must be non-trivial");
        assert!(
            bench.fingerprint_match,
            "legacy and batched pipelines diverged: {:#018x} vs {:#018x}",
            bench.fingerprint_before, bench.fingerprint_after
        );
        // Every order appears in exactly one batch, so the histogram's sum
        // of batch sizes equals the probes sent.
        assert_eq!(
            bench.batch_size_histogram.sum, bench.probes_sent,
            "schedule reconstruction must account for every probe"
        );
        let json = bench.to_json();
        let v: serde::Value = serde_json::from_str(&json).expect("BENCH_pr4.json parses");
        if let serde::Value::Obj(fields) = v {
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            for want in ["scale", "n_targets", "probing"] {
                assert!(keys.contains(&want), "missing {want} in {keys:?}");
            }
        } else {
            panic!("top level must be an object");
        }
    }
}
