//! The threaded reference pipeline (test-only).
//!
//! [`run_measurement_threaded`] runs a measurement in the process shape
//! of the real system: one OS thread per Worker
//! ([`run_worker`](crate::worker::threaded::run_worker)), a streamer
//! thread feeding per-worker bounded `crossbeam` order queues, an
//! unbounded capture fabric between sites, and one result stream into the
//! collector. Its captures take the full probe → reply byte round trip.
//! For abort-free fault plans it produces outcomes bit-identical to the
//! sharded [`run_measurement`](super::run_measurement) (modulo
//! `shard_report`, which it leaves empty); the test below pins that.
#![cfg(test)]

use std::sync::Arc;

use crossbeam::channel;
use laces_netsim::World;
use laces_obs::{names, Counter, DegradedReason, RunReport};
use laces_packet::PrefixKey;
use laces_trace::{Component, OrderFaultCause, TraceEvent, Tracer};

use super::{
    base_telemetry, empty_hitlist_outcome, finalize_outcome, merge_worker_telemetry,
    platform_src_addr, validated_workers, worker_wire_id, AbortHandle, RunTotals,
};
use crate::auth::{AuthKey, Sealed};
use crate::error::MeasurementError;
use crate::rate::window_start_ms;
use crate::results::{MeasurementOutcome, WorkerHealth, WorkerStatus, WorkerTelemetry};
use crate::spec::MeasurementSpec;
use crate::worker::threaded::{run_worker, ProbeBatch, WorkerEvent, WorkerFailure, WorkerOut};
use crate::worker::{ProbeOrder, StartOrder};

/// How many orders may queue per worker before the hitlist stream blocks
/// (the paper's Orchestrator buffers the hitlist and streams it; workers
/// keep only a small in-flight window).
const ORDER_QUEUE: usize = 4_096;

/// Run a measurement on the threaded reference pipeline: one OS thread per
/// worker, `crossbeam` channels for the order stream, capture fabric and
/// result stream.
///
/// # Errors
///
/// As [`run_measurement`](super::run_measurement).
pub(crate) fn run_measurement_threaded(
    world: &Arc<World>,
    spec: &MeasurementSpec,
) -> Result<MeasurementOutcome, MeasurementError> {
    let abort = &AbortHandle::new();
    let n_workers = validated_workers(world, spec)?;
    let span_ms = spec.span_ms(n_workers);
    let tracer = Tracer::new(spec.trace);
    let mut telemetry = base_telemetry(spec, n_workers, span_ms);

    if spec.targets.is_empty() {
        return Ok(empty_hitlist_outcome(spec, n_workers, telemetry, &tracer));
    }

    let key = AuthKey::derive(world.cfg.seed ^ u64::from(spec.id));
    let src_addr = platform_src_addr(spec);

    // Channels: per-worker bounded order queues; unbounded capture fabric
    // (replies in flight; unbounded rules out cyclic backpressure deadlock);
    // one shared result stream.
    let mut order_txs = Vec::with_capacity(n_workers);
    let mut order_rxs = Vec::with_capacity(n_workers);
    let mut cap_txs = Vec::with_capacity(n_workers);
    let mut cap_rxs = Vec::with_capacity(n_workers);
    // The queue bound is denominated in *orders*: batching the stream must
    // not multiply the per-worker in-flight window by the batch size.
    let batch_queue = (ORDER_QUEUE / spec.batch_size.max(1)).max(1);
    for _ in 0..n_workers {
        let (ot, or) = channel::bounded::<ProbeBatch>(batch_queue);
        order_txs.push(ot);
        order_rxs.push(or);
        let (ct, cr) = channel::unbounded();
        cap_txs.push(ct);
        cap_rxs.push(cr);
    }
    let (out_tx, out_rx) = channel::unbounded::<WorkerOut>();

    let mut records = Vec::new();
    let mut probes_sent = 0u64;
    let mut failed_workers = Vec::new();
    let mut worker_health: Vec<WorkerHealth> = Vec::with_capacity(n_workers);

    // Streamer-side counters, shared by reference with the stream thread
    // inside the scope. Orders-streamed is a plain sum; stalls count the
    // schedule's rate-limiter waits (the points where the next target's
    // window opens strictly later than the previous one's) — derived from
    // the deterministic schedule, not from channel backpressure, which is
    // scheduler noise.
    let orders_streamed = Counter::new();
    let order_stalls = Counter::new();

    std::thread::scope(|scope| {
        for (w, (orders, captures)) in order_rxs.into_iter().zip(cap_rxs).enumerate() {
            let wid = worker_wire_id(w);
            let start = StartOrder {
                measurement_id: spec.id,
                platform: spec.platform,
                worker_id: wid,
                protocol: spec.protocol,
                encoding: spec.encoding,
                offset_ms: spec.offset_ms,
                span_ms,
                day: spec.day,
                src_addr,
                fail_after: spec.faults.crash_after(wid),
                fabric_faults: spec.faults.fabric,
            };
            // A seal-rejection fault seals this worker's order under a key
            // derived from a corrupted seed, so the worker's own key (R8)
            // refuses it.
            let seal_key = if spec.faults.rejects_seal(wid) {
                AuthKey::derive(world.cfg.seed ^ u64::from(spec.id) ^ 0x0BAD_5EA1)
            } else {
                key
            };
            let sealed = Sealed::seal(seal_key, start);
            let fabric = cap_txs.clone();
            let out = out_tx.clone();
            let out_err = out_tx.clone();
            let world = Arc::clone(world);
            let worker_tracer = tracer.clone();
            scope.spawn(move || {
                // A worker whose start order fails authentication never
                // starts; the platform degrades to the remaining workers
                // instead of poisoning the thread scope (R5).
                if run_worker(
                    &world,
                    key,
                    sealed,
                    orders,
                    captures,
                    fabric,
                    out,
                    worker_tracer,
                )
                .is_err()
                {
                    // laces-lint: allow(discarded-fallibility) — failure event on a channel the aborting CLI may already have closed; the degradation is also recorded by the collector's own accounting
                    let _ = out_err.send(WorkerOut::Event(WorkerEvent::Failed {
                        worker: wid,
                        telemetry: WorkerTelemetry::default(),
                        cause: WorkerFailure::SealRejected,
                    }));
                }
            });
        }
        // The orchestrator keeps no capture senders or result senders.
        drop(cap_txs);
        drop(out_tx);

        // Stream the hitlist at the configured rate. Each target is ordered
        // to every worker; a worker that died has a closed queue and is
        // skipped (R5: measurement continues with the remaining workers).
        let stream_abort = abort.clone();
        let orders_streamed = &orders_streamed;
        let order_stalls = &order_stalls;
        let stream_tracer = tracer.clone();
        scope.spawn(move || {
            let mut txs: Vec<Option<_>> = order_txs.into_iter().map(Some).collect();
            let mut sent = vec![0usize; txs.len()];
            // Per-worker batch accumulators: one channel send per
            // `spec.batch_size` orders instead of one per target. Fault
            // semantics stay per-order — delays and closes are applied to
            // individual orders before they enter a batch.
            let mut pending: Vec<Vec<ProbeOrder>> = txs.iter().map(|_| Vec::new()).collect();
            let flush =
                |w: usize, pending: &mut Vec<Vec<ProbeOrder>>, tx: &channel::Sender<ProbeBatch>| {
                    if pending[w].is_empty() {
                        return;
                    }
                    let orders = std::mem::take(&mut pending[w]);
                    orders_streamed.add(orders.len() as u64);
                    // laces-lint: allow(discarded-fallibility) — a closed order queue means the worker died; skipping it is R5 graceful degradation (the measurement continues with the remaining workers)
                    let _ = tx.send(ProbeBatch { orders });
                };
            let mut aborted = false;
            let mut last_window = 0u64;
            for (i, &target) in spec.targets.iter().enumerate() {
                if stream_abort.is_aborted() {
                    // CLI disconnected: stop streaming; workers wind down.
                    // Accumulated but unsent batches are dropped — the
                    // abort cuts the stream at a batch boundary (R3: no
                    // unnecessary probes).
                    aborted = true;
                    break;
                }
                let window = window_start_ms(i, spec.rate_per_s);
                if window > last_window {
                    order_stalls.inc();
                    last_window = window;
                }
                let order = ProbeOrder {
                    target,
                    window_start_ms: window,
                };
                let prefix = PrefixKey::of(target);
                for w in 0..txs.len() {
                    let wid = worker_wire_id(w);
                    // Non-sender workers (single-VP precheck mode) receive
                    // no orders but still capture replies.
                    if !spec.is_sender(wid) {
                        continue;
                    }
                    if let Some(f) = spec.faults.order_fault(wid) {
                        if i < f.delay_orders {
                            // The channel came up late; early orders are
                            // lost in the disconnected stream.
                            stream_tracer.record_for(Component::Orchestrator, prefix, || {
                                TraceEvent::OrderFault {
                                    prefix,
                                    worker: wid,
                                    cause: OrderFaultCause::Delayed,
                                }
                            });
                            continue;
                        }
                        if f.close_after.is_some_and(|c| sent[w] >= c) {
                            // Dropping the sender closes the worker's order
                            // stream; it completes with what it received —
                            // including a final partial batch.
                            if let Some(tx) = txs[w].take() {
                                flush(w, &mut pending, &tx);
                            }
                            stream_tracer.record_for(Component::Orchestrator, prefix, || {
                                TraceEvent::OrderFault {
                                    prefix,
                                    worker: wid,
                                    cause: OrderFaultCause::ChannelClosed,
                                }
                            });
                            continue;
                        }
                    }
                    if let Some(tx) = &txs[w] {
                        stream_tracer.record_for(Component::Orchestrator, prefix, || {
                            TraceEvent::OrderIssued {
                                prefix,
                                worker: wid,
                                window_start_ms: window,
                            }
                        });
                        pending[w].push(order);
                        sent[w] += 1;
                        if pending[w].len() >= spec.batch_size {
                            flush(w, &mut pending, tx);
                        }
                    }
                }
            }
            // End of hitlist: flush the partial tail batches.
            if !aborted {
                for (w, tx) in txs.iter().enumerate() {
                    if let Some(tx) = tx {
                        flush(w, &mut pending, tx);
                    }
                }
            }
            // Dropping the senders closes every worker's order stream.
        });

        // Aggregate the live result stream (this is the CLI's sink file).
        for msg in out_rx.iter() {
            match msg {
                WorkerOut::Records(batch) => {
                    records.extend(batch);
                    if spec
                        .faults
                        .abort_after_records
                        .is_some_and(|n| records.len() >= n)
                    {
                        // Mid-stream abort fault: the CLI disconnects, but
                        // everything collected so far is kept.
                        abort.abort();
                    }
                }
                WorkerOut::Event(WorkerEvent::Done {
                    worker,
                    telemetry: t,
                }) => {
                    probes_sent += t.probes_sent;
                    merge_worker_telemetry(&mut telemetry, worker, &t);
                    worker_health.push(WorkerHealth {
                        worker,
                        status: WorkerStatus::Completed,
                        probes_sent: t.probes_sent,
                    });
                }
                WorkerOut::Event(WorkerEvent::Failed {
                    worker,
                    telemetry: t,
                    cause,
                }) => {
                    probes_sent += t.probes_sent;
                    merge_worker_telemetry(&mut telemetry, worker, &t);
                    // One unsampled fault event per failed worker: probes it
                    // had not sent and captures it held are attributed to it
                    // by `TraceReport::explain`.
                    tracer.record(Component::Control, || TraceEvent::WorkerFault {
                        worker,
                        cause: match cause {
                            WorkerFailure::Crash => "crash".into(),
                            WorkerFailure::SealRejected => "seal rejected".into(),
                        },
                        after_probes: t.probes_sent,
                    });
                    match cause {
                        WorkerFailure::Crash => {
                            telemetry.add_degraded(DegradedReason::WorkerCrashed { worker });
                        }
                        WorkerFailure::SealRejected => {
                            telemetry.inc(names::orchestrator::SEAL_REJECTIONS, 1);
                            telemetry.add_degraded(DegradedReason::SealRejected { worker });
                        }
                    }
                    failed_workers.push(worker);
                    worker_health.push(WorkerHealth {
                        worker,
                        status: WorkerStatus::Failed,
                        probes_sent: t.probes_sent,
                    });
                }
            }
        }
    });

    Ok(finalize_outcome(
        spec,
        n_workers,
        span_ms,
        abort,
        &tracer,
        RunTotals {
            records,
            probes_sent,
            failed_workers,
            worker_health,
            telemetry,
            shard_report: RunReport::new(),
            orders_streamed: orders_streamed.get(),
            rate_limiter_stalls: order_stalls.get(),
        },
    ))
}

mod tests {
    use std::net::IpAddr;

    use laces_netsim::WorldConfig;
    use laces_trace::TraceConfig;

    use super::*;
    use crate::classify::AnycastClassification;
    use crate::fault::FaultPlan;
    use crate::orchestrator::run_measurement;

    /// The sharded pipeline against the threaded reference on the
    /// paper-topology world (32-site production platform), traced, at four
    /// shards: records, classification, the serialized run report and the
    /// trace export must all be identical. `shard_report` is the one field
    /// documented to depend on the layout, so it is not compared.
    #[test]
    fn sharded_pipeline_matches_the_threaded_reference() {
        let w = Arc::new(World::generate(WorldConfig::paper_topology_tiny_targets()));
        let targets: Vec<IpAddr> = w.targets[..w.n_v4]
            .iter()
            .take(120)
            .map(|t| match t.prefix {
                PrefixKey::V4(p) => IpAddr::V4(p.addr(laces_netsim::targets::REPRESENTATIVE_HOST)),
                PrefixKey::V6(_) => unreachable!(),
            })
            .collect();
        let spec = MeasurementSpec::builder(42_001, w.std_platforms.production)
            .targets(Arc::new(targets))
            .faults(FaultPlan::none())
            .trace(TraceConfig::all(0x5A17))
            .shards(4)
            .build(&w)
            .expect("valid spec");
        let sharded = run_measurement(&w, &spec).expect("valid spec");
        let threaded = run_measurement_threaded(&w, &spec).expect("valid spec");

        assert!(!sharded.records.is_empty(), "workload must be non-trivial");
        assert_eq!(threaded.records, sharded.records, "records diverge");
        assert_eq!(threaded.probes_sent, sharded.probes_sent);
        assert_eq!(threaded.failed_workers, sharded.failed_workers);
        assert_eq!(threaded.worker_health, sharded.worker_health);
        assert_eq!(
            format!("{:?}", AnycastClassification::from_outcome(&threaded)),
            format!("{:?}", AnycastClassification::from_outcome(&sharded)),
            "classification diverges"
        );
        assert_eq!(
            threaded.telemetry.to_jsonl(),
            sharded.telemetry.to_jsonl(),
            "serialized run report diverges"
        );
        assert_eq!(
            threaded.trace_report.to_jsonl(),
            sharded.trace_report.to_jsonl(),
            "trace export diverges"
        );
    }
}
