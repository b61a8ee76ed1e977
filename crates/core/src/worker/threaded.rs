//! The thread-per-worker reference Worker (test-only).
//!
//! [`run_worker`] runs one Worker as an OS thread: probe batches arrive
//! over a bounded channel, captured replies travel between sites over an
//! unbounded capture fabric, and validated records plus one lifecycle
//! event stream back to the Orchestrator. Captures take the full
//! probe → reply byte round trip. It is the oracle the sharded pipeline is
//! compared against (`orchestrator::threaded`), and it carries the
//! worker-level R8 checks below: a worker refuses a start order that does
//! not authenticate, and its capture filter drops replies that belong to
//! other measurements.
#![cfg(test)]

use std::sync::Arc;

use crossbeam::channel::{Receiver, Sender, TrySendError};
use laces_netsim::wire::{BatchProbe, FabricStats, FabricVerdict, MeasurementCtx, ProbeSource};
use laces_netsim::{Delivery, WireStats, World};
use laces_obs::Counter;
use laces_packet::probe::{build_probe_into, parse_reply, ProbeMeta};
use laces_packet::{PacketError, PrefixKey};
use laces_trace::{Component, FabricFaultKind, TraceEvent, Tracer};

use super::{ProbeOrder, StartOrder};
use crate::auth::{AuthKey, Sealed};
use crate::results::{ProbeRecord, WorkerTelemetry};

/// How many validated records a worker accumulates before flushing a
/// [`WorkerOut::Records`] batch to the Orchestrator. Purely a transport
/// knob (the aggregate record multiset is batch-independent).
const RECORD_FLUSH: usize = 256;

/// A batch of probe orders: one channel send from the Orchestrator carries
/// up to `spec.batch_size` orders, so streaming a hitlist of `n` targets
/// costs `ceil(n / batch_size)` sends per worker instead of `n`.
///
/// Fault semantics stay per-*order*: a crash scheduled after N orders fires
/// mid-batch exactly where it would have fired in an unbatched stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ProbeBatch {
    /// The orders, in schedule order.
    pub orders: Vec<ProbeOrder>,
}

/// Why a worker failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WorkerFailure {
    /// The worker disconnected mid-measurement (outage; R5).
    Crash,
    /// The worker's start order failed authentication (R8); it never
    /// probed.
    SealRejected,
}

/// Worker lifecycle events interleaved with results.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum WorkerEvent {
    /// Worker finished its order stream and drained captures.
    Done {
        /// Worker id.
        worker: u16,
        /// What the worker observed.
        telemetry: WorkerTelemetry,
    },
    /// Worker dropped out of the measurement (R5).
    Failed {
        /// Worker id.
        worker: u16,
        /// What the worker observed before failing.
        telemetry: WorkerTelemetry,
        /// Why it failed.
        cause: WorkerFailure,
    },
}

/// Messages a worker emits toward the Orchestrator/CLI.
#[derive(Debug, Clone)]
pub(crate) enum WorkerOut {
    /// A batch of validated captures. The Orchestrator merges batches
    /// order-independently (records are canonically re-sorted), so the
    /// flush granularity never shows in the outcome.
    Records(Vec<ProbeRecord>),
    /// Lifecycle event.
    Event(WorkerEvent),
}

/// Errors that prevent a worker from starting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum WorkerError {
    /// The start order's authentication tag did not verify (R8).
    BadAuth,
    /// The wire rejected a probe batch as malformed. Structurally
    /// unreachable for probes built by `build_probe_into`, but the error
    /// is propagated rather than discarded: a worker that somehow hands
    /// the wire garbage fails loudly and the platform degrades, instead
    /// of silently losing its probes.
    Wire(PacketError),
}

impl std::fmt::Display for WorkerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkerError::BadAuth => write!(f, "start order failed authentication"),
            WorkerError::Wire(e) => write!(f, "wire rejected a probe batch: {e}"),
        }
    }
}

impl std::error::Error for WorkerError {}

/// Validate one capture and buffer the record (flushed in batches by the
/// caller). Anything that is not a reply to this measurement (other
/// measurements, backscatter) is dropped exactly as the real capture
/// filter drops it.
fn process_capture(
    d: &Delivery,
    measurement_id: u32,
    rx_worker: u16,
    records: &mut Vec<ProbeRecord>,
    records_streamed: &Counter,
    captures_rejected: &Counter,
    tracer: &Tracer,
) {
    let prefix = PrefixKey::of(d.packet.src);
    if let Ok(info) = parse_reply(&d.packet, measurement_id, d.rx_time_ms) {
        tracer.record_for(Component::Capture, prefix, || TraceEvent::Captured {
            prefix,
            rx_worker,
            rx_time_ms: d.rx_time_ms,
            accepted: true,
            chaos_identity: info.chaos_identity.as_deref().map(str::to_string),
        });
        records.push(ProbeRecord {
            prefix,
            protocol: info.protocol,
            rx_worker,
            tx_worker: info.tx_worker,
            tx_time_ms: info.tx_time_ms,
            rx_time_ms: d.rx_time_ms,
            chaos_identity: info.chaos_identity,
        });
        records_streamed.inc();
    } else {
        tracer.record_for(Component::Capture, prefix, || TraceEvent::Captured {
            prefix,
            rx_worker,
            rx_time_ms: d.rx_time_ms,
            accepted: false,
            chaos_identity: None,
        });
        captures_rejected.inc();
    }
}

/// Flush buffered records as one [`WorkerOut::Records`] batch.
fn flush_records(records: &mut Vec<ProbeRecord>, out: &Sender<WorkerOut>) {
    if !records.is_empty() {
        // laces-lint: allow(discarded-fallibility) — send fails only when the CLI aborted and closed the out channel; dropping the batch is the designed wind-down (R3: no work after abort)
        let _ = out.send(WorkerOut::Records(std::mem::take(records)));
    }
}

/// Run a worker to completion.
///
/// * `orders` — probe-order batches from the Orchestrator; channel close
///   ends the probing phase.
/// * `captures` — reply batches the wire delivers to this site (fed by all
///   workers' sends); channel close (every peer finished) ends the capture
///   phase.
/// * `fabric` — capture senders toward every worker, indexed by site.
/// * `out` — stream of record batches and lifecycle events toward the CLI.
/// * `tracer` — flight recorder for probe-lifecycle events; pass
///   [`Tracer::disabled`] to record nothing (one branch per hook).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_worker(
    world: &Arc<World>,
    key: AuthKey,
    start: Sealed<StartOrder>,
    orders: Receiver<ProbeBatch>,
    captures: Receiver<Vec<Delivery>>,
    fabric: Vec<Sender<Vec<Delivery>>>,
    out: Sender<WorkerOut>,
    tracer: Tracer,
) -> Result<(), WorkerError> {
    let start = start.open(key).ok_or(WorkerError::BadAuth)?;
    let ctx = MeasurementCtx {
        id: start.measurement_id,
        day: start.day,
        span_ms: start.span_ms,
    };
    let source = ProbeSource::Worker {
        platform: start.platform,
        site: start.worker_id as usize,
    };
    // Resolve the per-worker route handles once, at start-order time: the
    // probing loop below never touches the world's route cache lock.
    let mut session = world.probe_session(source);
    session.attach_tracer(tracer.clone());

    // Worker-local telemetry: the wire and fabric stats observe sends, the
    // capture counters observe the filter. All are order-independent sums,
    // so the totals carried back to the Orchestrator are deterministic.
    let wire_stats = WireStats::new();
    let fabric_stats = FabricStats::new();
    let records_streamed = Counter::new();
    let captures_rejected = Counter::new();

    let mut failed = false;
    // A worker scheduled to crash defers all capture draining: which
    // captures a dying worker managed to flush before the crash is a
    // thread-scheduling race in the real system, and modelling it as "none"
    // is the only choice that keeps outcomes bit-identical across reruns of
    // the same fault plan. If the order stream ends before the crash point
    // is reached, the worker survives and drains everything in the final
    // phase (the capture channel is unbounded, so nothing was lost).
    let doomed = start.fail_after.is_some();

    // Reused across batches: probe byte buffers (one per order slot),
    // the wire's delivery output, per-site fabric accumulators, and the
    // outgoing record buffer. Steady state allocates nothing per probe.
    let mut pool: Vec<Vec<u8>> = Vec::new();
    let mut deliveries: Vec<Delivery> = Vec::new();
    let mut pending: Vec<Vec<Delivery>> = fabric.iter().map(|_| Vec::new()).collect();
    let mut records: Vec<ProbeRecord> = Vec::new();

    // Probing phase: interleave batch processing with opportunistic capture
    // draining (results stream out while probing is still under way).
    let mut processed_orders = 0usize;
    for batch in orders.iter() {
        // "Crash after N orders" counts *orders*, not batches: truncate the
        // batch at the crash point so the worker dies exactly where it
        // would have in an unbatched stream.
        let take = match start.fail_after {
            Some(limit) => {
                let remaining = limit.saturating_sub(processed_orders);
                if remaining < batch.orders.len() {
                    failed = true;
                }
                remaining.min(batch.orders.len())
            }
            None => batch.orders.len(),
        };

        if take > 0 {
            if pool.len() < take {
                pool.resize_with(take, Vec::new);
            }
            let tx_offset = start.offset_ms * u64::from(start.worker_id);
            for (order, buf) in batch.orders[..take].iter().zip(pool.iter_mut()) {
                let prefix = PrefixKey::of(order.target);
                tracer.record_for(Component::Worker, prefix, || TraceEvent::ProbeSent {
                    prefix,
                    worker: start.worker_id,
                    tx_time_ms: order.window_start_ms + tx_offset,
                });
                let meta = ProbeMeta {
                    measurement_id: start.measurement_id,
                    worker_id: start.worker_id,
                    tx_time_ms: order.window_start_ms + tx_offset,
                };
                build_probe_into(
                    start.src_addr,
                    order.target,
                    start.protocol,
                    &meta,
                    start.encoding,
                    buf,
                );
            }
            let probes: Vec<BatchProbe<'_>> = batch.orders[..take]
                .iter()
                .zip(pool.iter())
                .map(|(order, bytes)| BatchProbe {
                    dst: order.target,
                    bytes,
                    tx_time_ms: order.window_start_ms + tx_offset,
                    window_start_ms: order.window_start_ms,
                    // The full byte round trip: the zero-copy sharded
                    // path is validated against it.
                    meta: None,
                })
                .collect();
            world
                .send_probe_batch(
                    &mut session,
                    start.src_addr,
                    start.protocol,
                    &probes,
                    &ctx,
                    &wire_stats,
                    &mut deliveries,
                )
                .map_err(WorkerError::Wire)?;
            processed_orders += take;

            for delivery in deliveries.drain(..) {
                let verdict = start.fabric_faults.map_or(FabricVerdict::Deliver, |f| {
                    f.verdict_observed(&delivery, &fabric_stats)
                });
                if verdict != FabricVerdict::Deliver {
                    // Only faults are recorded: a reply with no FabricFault
                    // event passed through the fabric untouched.
                    let prefix = PrefixKey::of(delivery.packet.src);
                    tracer.record_for(Component::Fabric, prefix, || TraceEvent::FabricFault {
                        prefix,
                        tx_worker: start.worker_id,
                        rx_worker: u16::try_from(delivery.rx_index).unwrap_or(u16::MAX),
                        rx_time_ms: delivery.rx_time_ms,
                        kind: if verdict == FabricVerdict::Drop {
                            FabricFaultKind::Dropped
                        } else {
                            FabricFaultKind::Duplicated
                        },
                    });
                }
                if verdict == FabricVerdict::Drop {
                    continue;
                }
                let rx = delivery.rx_index;
                if rx == usize::from(start.worker_id) && rx < fabric.len() && !doomed {
                    // Self-delivery: this worker is its own capture site, so
                    // skip the fabric round-trip and validate in place.
                    if verdict == FabricVerdict::Duplicate {
                        process_capture(
                            &delivery,
                            start.measurement_id,
                            start.worker_id,
                            &mut records,
                            &records_streamed,
                            &captures_rejected,
                            &tracer,
                        );
                    }
                    process_capture(
                        &delivery,
                        start.measurement_id,
                        start.worker_id,
                        &mut records,
                        &records_streamed,
                        &captures_rejected,
                        &tracer,
                    );
                } else if let Some(p) = pending.get_mut(rx) {
                    if verdict == FabricVerdict::Duplicate {
                        p.push(delivery.clone());
                    }
                    p.push(delivery);
                }
            }
            // One fabric send per (batch, receiving site) with captures.
            for (p, s) in pending.iter_mut().zip(&fabric) {
                if !p.is_empty() {
                    forward(s, std::mem::take(p));
                }
            }
        }

        if failed {
            break;
        }
        if !doomed {
            while let Ok(caps) = captures.try_recv() {
                for d in &caps {
                    process_capture(
                        d,
                        start.measurement_id,
                        start.worker_id,
                        &mut records,
                        &records_streamed,
                        &captures_rejected,
                        &tracer,
                    );
                }
            }
        }
        if records.len() >= RECORD_FLUSH {
            flush_records(&mut records, &out);
        }
    }

    // "Crash after N orders" fires once the worker has processed N orders,
    // even when the stream closed right at that point rather than
    // delivering an N+1-th order (otherwise a crash scheduled exactly at
    // the end of the hitlist would silently never happen).
    if !failed
        && start
            .fail_after
            .is_some_and(|limit| processed_orders >= limit)
    {
        failed = true;
    }

    // A failed worker vanishes: it neither probes nor captures further.
    drop(fabric);
    let telemetry = |records_streamed: u64, captures_rejected: u64| WorkerTelemetry {
        probes_sent: wire_stats.probes.get(),
        replies_delivered: wire_stats.deliveries.get(),
        unanswered: wire_stats.unanswered.get(),
        fabric_dropped: fabric_stats.dropped.get(),
        fabric_duplicated: fabric_stats.duplicated.get(),
        records_streamed,
        captures_rejected,
    };
    if failed {
        flush_records(&mut records, &out);
        // laces-lint: allow(discarded-fallibility) — lifecycle event on a channel the aborting CLI may already have closed; the failure is also visible through the worker's silence
        let _ = out.send(WorkerOut::Event(WorkerEvent::Failed {
            worker: start.worker_id,
            telemetry: telemetry(records_streamed.get(), captures_rejected.get()),
            cause: WorkerFailure::Crash,
        }));
        return Ok(());
    }

    // Capture phase: drain until every worker has dropped its senders.
    for caps in captures.iter() {
        for d in &caps {
            process_capture(
                d,
                start.measurement_id,
                start.worker_id,
                &mut records,
                &records_streamed,
                &captures_rejected,
                &tracer,
            );
        }
        if records.len() >= RECORD_FLUSH {
            flush_records(&mut records, &out);
        }
    }
    flush_records(&mut records, &out);
    // laces-lint: allow(discarded-fallibility) — lifecycle event on a channel the aborting CLI may already have closed; a lost Done only matters to a consumer that chose to stop listening
    let _ = out.send(WorkerOut::Event(WorkerEvent::Done {
        worker: start.worker_id,
        telemetry: telemetry(records_streamed.get(), captures_rejected.get()),
    }));
    Ok(())
}

/// Forward a capture batch into a site's queue. A send can only fail if
/// the receiving worker crashed; the replies are then lost with it, like
/// packets to a dead site.
fn forward(s: &Sender<Vec<Delivery>>, d: Vec<Delivery>) {
    match s.try_send(d) {
        Ok(()) | Err(TrySendError::Disconnected(_)) => {}
        Err(TrySendError::Full(d)) => {
            // laces-lint: allow(discarded-fallibility) — a failed send means the receiving worker crashed between try_send and send; its replies are lost with it, like packets to a dead site
            let _ = s.send(d);
        }
    }
}

/// Worker-level security behaviour (R8): a worker must refuse
/// instructions that do not authenticate, and must ignore captured
/// packets from other measurements.
mod tests {
    use super::*;
    use crossbeam::channel;
    use laces_netsim::{platform as plat, WorldConfig};
    use laces_packet::probe::{build_probe, ProbeEncoding};
    use laces_packet::Protocol;

    fn world() -> Arc<World> {
        Arc::new(World::generate(WorldConfig::tiny()))
    }

    fn start_order(world: &World, id: u32) -> StartOrder {
        StartOrder {
            measurement_id: id,
            platform: world.std_platforms.production,
            worker_id: 0,
            protocol: Protocol::Icmp,
            encoding: ProbeEncoding::PerWorker,
            offset_ms: 1_000,
            span_ms: 31_000,
            day: 0,
            src_addr: plat::anycast_src_v4(world.std_platforms.production),
            fail_after: None,
            fabric_faults: None,
        }
    }

    #[test]
    fn worker_refuses_unauthenticated_start_order() {
        let w = world();
        let good_key = AuthKey::derive(1);
        let bad_key = AuthKey::derive(2);
        let sealed = Sealed::seal(bad_key, start_order(&w, 900));

        let (_order_tx, order_rx) = channel::bounded::<ProbeBatch>(8);
        let (_cap_tx, cap_rx) = channel::unbounded();
        let (out_tx, out_rx) = channel::unbounded::<WorkerOut>();

        let err = run_worker(
            &w,
            good_key,
            sealed,
            order_rx,
            cap_rx,
            vec![],
            out_tx,
            laces_trace::Tracer::disabled(),
        );
        assert_eq!(err, Err(WorkerError::BadAuth));
        // A refused worker emits nothing.
        assert!(out_rx.try_recv().is_err());
    }

    #[test]
    fn worker_discards_captures_from_other_measurements() {
        let w = world();
        let key = AuthKey::derive(3);
        let sealed = Sealed::seal(key, start_order(&w, 901));

        // Build a *foreign* reply (different measurement id) and inject it as a
        // capture; the worker's validation must drop it.
        let target = w
            .targets
            .iter()
            .find(|t| t.resp.icmp && t.prefix.is_v4())
            .map(|t| match t.prefix {
                laces_packet::PrefixKey::V4(p) => std::net::IpAddr::V4(p.addr(77)),
                _ => unreachable!(),
            })
            .unwrap();
        let src = plat::anycast_src_v4(w.std_platforms.production);
        let foreign_probe = build_probe(
            src,
            target,
            Protocol::Icmp,
            &ProbeMeta {
                measurement_id: 999_999,
                worker_id: 0,
                tx_time_ms: 0,
            },
            ProbeEncoding::PerWorker,
        );
        let ctx = MeasurementCtx {
            id: 999_999,
            day: 0,
            span_ms: 0,
        };
        let delivery = w
            .send_probe(
                ProbeSource::Worker {
                    platform: w.std_platforms.production,
                    site: 0,
                },
                &foreign_probe,
                0,
                0,
                &ctx,
            )
            .unwrap()
            .expect("target responds");

        let (order_tx, order_rx) = channel::bounded::<ProbeBatch>(8);
        let (cap_tx, cap_rx) = channel::unbounded();
        let (out_tx, out_rx) = channel::unbounded::<WorkerOut>();

        cap_tx.send(vec![delivery]).unwrap();
        drop(cap_tx);
        drop(order_tx); // no orders: worker goes straight to the capture phase

        run_worker(
            &w,
            key,
            sealed,
            order_rx,
            cap_rx,
            vec![],
            out_tx,
            laces_trace::Tracer::disabled(),
        )
        .unwrap();

        let msgs: Vec<WorkerOut> = out_rx.iter().collect();
        // Only the lifecycle Done event; the foreign capture produced no record,
        // but the filter counted the rejection in the worker's telemetry.
        assert_eq!(msgs.len(), 1);
        match &msgs[0] {
            WorkerOut::Event(WorkerEvent::Done { telemetry, .. }) => {
                assert_eq!(telemetry.probes_sent, 0);
                assert_eq!(telemetry.records_streamed, 0);
                assert_eq!(telemetry.captures_rejected, 1);
            }
            other => panic!("expected a Done event, got {other:?}"),
        }
    }

    #[test]
    fn worker_processes_orders_and_validates_own_captures() {
        let w = world();
        let key = AuthKey::derive(4);
        let id = 902;
        let sealed = Sealed::seal(key, start_order(&w, id));

        // A handful of responsive targets.
        let targets: Vec<std::net::IpAddr> = w
            .targets
            .iter()
            .filter(|t| t.resp.icmp && t.prefix.is_v4())
            .take(20)
            .map(|t| match t.prefix {
                laces_packet::PrefixKey::V4(p) => std::net::IpAddr::V4(p.addr(77)),
                _ => unreachable!(),
            })
            .collect();

        let (order_tx, order_rx) = channel::bounded::<ProbeBatch>(64);
        let (cap_tx, cap_rx) = channel::unbounded();
        let (out_tx, out_rx) = channel::unbounded::<WorkerOut>();

        let orders: Vec<ProbeOrder> = targets
            .iter()
            .enumerate()
            .map(|(i, &t)| ProbeOrder {
                target: t,
                window_start_ms: i as u64 * 100,
            })
            .collect();
        // Deliberately uneven batch split: the worker must treat batch
        // boundaries as pure transport framing.
        let (head, tail) = orders.split_at(13);
        order_tx
            .send(ProbeBatch {
                orders: head.to_vec(),
            })
            .unwrap();
        order_tx
            .send(ProbeBatch {
                orders: tail.to_vec(),
            })
            .unwrap();
        drop(order_tx);

        // Fabric: route every delivery back to this single worker regardless of
        // its true catchment (single-worker harness).
        run_worker(
            &w,
            key,
            sealed,
            order_rx,
            cap_rx,
            vec![cap_tx; 32],
            out_tx,
            laces_trace::Tracer::disabled(),
        )
        .unwrap();

        let msgs: Vec<WorkerOut> = out_rx.iter().collect();
        let records: usize = msgs
            .iter()
            .filter_map(|m| match m {
                WorkerOut::Records(rs) => Some(rs.len()),
                _ => None,
            })
            .sum();
        let done = msgs.iter().any(|m| {
            matches!(
                m,
                WorkerOut::Event(WorkerEvent::Done { telemetry, .. })
                    if telemetry.probes_sent == 20
            )
        });
        assert!(done, "worker must report 20 probes sent");
        assert!(
            records > 10,
            "expected most probes to yield validated records, got {records}"
        );
    }
}
