//! The Orchestrator component.
//!
//! The Orchestrator is the central controller: it seals start orders for
//! every Worker, streams the hitlist to them at the configured rate
//! (buffering it so workers never hold it, R10), collects the result
//! stream, and survives worker failures by completing the measurement with
//! the remaining workers (R5).
//!
//! One pipeline implements the contract ([`run_measurement`]): the
//! hitlist is split into `spec.shards` deterministic contiguous slices;
//! each shard runs the stream → probe → capture chain *inline* with its
//! own per-worker [`ProbeSession`]s, batch accumulators and
//! [`RecordArena`], and the arenas are merged exactly once at seal time.
//! No channels, no cross-shard locks on the hot path.
//!
//! Records, classification inputs, telemetry and trace exports are
//! byte-identical across shard counts: every per-order decision (rate
//! window, fault cutoffs, RNG draws, trace sampling) is a pure function of
//! the order's *global hitlist index* and per-probe coordinates, never of
//! shard layout or thread interleaving, and records are canonically
//! re-sorted at seal time. The only shard-dependent outputs are
//! quarantined in [`MeasurementOutcome::shard_report`] and the opt-in
//! [`TraceEvent::ShardSpan`] events.
//!
//! The process-shaped form of the same contract — each Worker an OS
//! thread, the streams `crossbeam` channels, captures taking the full
//! reply byte round trip — is kept as a test-only oracle in
//! `orchestrator::threaded`, which pins the sharded pipeline
//! bit-identical to it for abort-free fault plans.
//!
//! Every run assembles a [`RunReport`]: aggregate and per-worker counters,
//! the RTT distribution, a stage timing on the simulated clock, and the
//! typed degradation events. For abort-free fault plans the report is
//! bit-identical across reruns (see `laces-obs` for the rules that make
//! that hold).

use std::net::IpAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use laces_netsim::wire::{BatchProbe, FabricVerdict, MeasurementCtx, ProbeSource};
use laces_netsim::{platform as plat, Delivery, FabricStats, ProbeSession, WireStats, World};
use laces_obs::{
    metrics, names, DegradedReason, Histogram, RunReport, ShardStages, SimClock, StageTimer,
};
use laces_packet::probe::{attribute_prepared, parse_reply, ProbeMeta};
use laces_packet::{IpVersion, PrefixKey};
use laces_trace::{Component, FabricFaultKind, OrderFaultCause, TraceEvent, Tracer};

use crate::auth::{AuthKey, Sealed};
use crate::error::MeasurementError;
use crate::rate::window_start_ms;
use crate::results::{
    sort_canonical, MeasurementOutcome, ProbeRecord, RecordArena, WorkerHealth, WorkerStatus,
    WorkerTelemetry,
};
use crate::spec::MeasurementSpec;
use crate::worker::{ProbeOrder, StartOrder};

#[cfg(test)]
mod threaded;

/// Measurement ids with this bit set are reserved for the internal
/// precheck pass of [`run_with_precheck`]; user measurements must stay
/// below it. The explicit partition guarantees a precheck can never share
/// an id with any user measurement (two measurements sharing an id would
/// accept each other's replies).
pub const PRECHECK_ID_BIT: u32 = 0x8000_0000;

/// Worker index → wire id. Worker counts are validated to `1..=64` before
/// any conversion, so this can never truncate; the fallback value only
/// satisfies the type without an `as`-cast on an identifier (laces-lint
/// R7 keeps id conversions checked).
fn worker_wire_id(w: usize) -> u16 {
    u16::try_from(w).unwrap_or(u16::MAX)
}

/// Run a measurement to completion and aggregate the result stream.
///
/// # Errors
///
/// [`MeasurementError::NotAnycast`] when the spec's platform is a unicast
/// VP platform, [`MeasurementError::WorkerCount`] when the platform's
/// worker count cannot be attributed by the probe encodings (1..=64),
/// [`MeasurementError::InvalidRate`] / [`MeasurementError::InvalidShardCount`]
/// when a hand-built spec bypassed the builder with a zero rate or zero
/// shard count.
pub fn run_measurement(
    world: &Arc<World>,
    spec: &MeasurementSpec,
) -> Result<MeasurementOutcome, MeasurementError> {
    run_measurement_abortable(world, spec, &AbortHandle::new())
}

/// A cancellation handle for a running measurement (R5: "Disconnecting the
/// CLI can be used to cancel incorrect measurements"). Cloneable; setting
/// it stops the Orchestrator's hitlist stream, after which workers finish
/// their in-flight probes, drain captures, and report normally — no
/// unnecessary probes are sent (R3).
#[derive(Debug, Clone, Default)]
pub struct AbortHandle(Arc<std::sync::atomic::AtomicBool>);

impl AbortHandle {
    /// A fresh, un-triggered handle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cancel the measurement (idempotent).
    pub fn abort(&self) {
        self.0.store(true, std::sync::atomic::Ordering::Release);
    }

    /// Whether cancellation was requested.
    pub fn is_aborted(&self) -> bool {
        self.0.load(std::sync::atomic::Ordering::Acquire)
    }
}

/// Merge one worker's telemetry into the run report under the per-worker
/// namespace and the aggregate counters.
fn merge_worker_telemetry(report: &mut RunReport, worker: u16, t: &WorkerTelemetry) {
    let w = usize::from(worker);
    report.inc(
        &names::per_worker(names::worker::PROBES_SENT, w),
        t.probes_sent,
    );
    report.inc(
        &names::per_worker(names::worker::RECORDS_STREAMED, w),
        t.records_streamed,
    );
    report.inc(
        &names::per_worker(names::worker::CAPTURES_REJECTED, w),
        t.captures_rejected,
    );
    report.inc(names::worker::PROBES_SENT, t.probes_sent);
    report.inc(names::worker::RECORDS_STREAMED, t.records_streamed);
    report.inc(names::worker::CAPTURES_REJECTED, t.captures_rejected);
    report.inc(names::fabric::REPLIES_DELIVERED, t.replies_delivered);
    report.inc(names::fabric::UNANSWERED, t.unanswered);
    report.inc(names::fabric::DROPPED, t.fabric_dropped);
    report.inc(names::fabric::DUPLICATED, t.fabric_duplicated);
}

/// Validate the spec against the platform and return the worker count.
fn validated_workers(world: &World, spec: &MeasurementSpec) -> Result<usize, MeasurementError> {
    let platform = world.platform(spec.platform);
    if !platform.is_anycast() {
        return Err(MeasurementError::NotAnycast {
            platform: spec.platform,
        });
    }
    let n_workers = platform.n_vps();
    if !(1..=64).contains(&n_workers) {
        return Err(MeasurementError::WorkerCount { n_workers });
    }
    // The builder rejects these up front; hand-built specs that bypassed it
    // are rejected here rather than silently repaired (the old 0 → 1
    // rate clamp turned misconfigured censuses into 10 000× slower ones).
    if spec.rate_per_s == 0 {
        return Err(MeasurementError::InvalidRate);
    }
    if spec.shards == 0 {
        return Err(MeasurementError::InvalidShardCount);
    }
    Ok(n_workers)
}

/// The run-level gauges every pipeline records before streaming.
fn base_telemetry(spec: &MeasurementSpec, n_workers: usize, span_ms: u64) -> RunReport {
    let mut telemetry = RunReport::new();
    telemetry.set_gauge(names::orchestrator::N_WORKERS, n_workers as u64);
    telemetry.set_gauge(names::orchestrator::N_TARGETS, spec.targets.len() as u64);
    telemetry.set_gauge(names::orchestrator::SPAN_MS, span_ms);
    telemetry.set_gauge(names::orchestrator::RATE_PER_S, u64::from(spec.rate_per_s));
    telemetry.set_gauge(
        names::orchestrator::PROBE_BUDGET,
        spec.probe_budget(if spec.senders.is_some() {
            spec.senders.as_ref().map_or(0, |s| s.len())
        } else {
            n_workers
        }),
    );
    if let Some(fabric) = &spec.faults.fabric {
        // Planned fabric fault rates, in permille, next to the observed
        // fabric.dropped / fabric.duplicated counters.
        telemetry.set_gauge(
            names::fabric::PLANNED_DROP_PERMILLE,
            (fabric.drop_rate * 1000.0) as u64,
        );
        telemetry.set_gauge(
            names::fabric::PLANNED_DUP_PERMILLE,
            (fabric.dup_rate * 1000.0) as u64,
        );
    }
    telemetry
}

/// The complete (and cheap) measurement over an empty hitlist: spawning a
/// platform of workers — or shards — to stream zero orders would only burn
/// threads. Prechecks over fully-unresponsive target sets hit this path.
/// The fault plan still applies where it would with real workers: start
/// orders are authenticated before any probing, so seal rejections fail
/// their workers even here, and a crash scheduled after zero orders fires
/// with zero orders delivered; later crashes and order-channel faults need
/// deliveries that never happen.
fn empty_hitlist_outcome(
    spec: &MeasurementSpec,
    n_workers: usize,
    mut telemetry: RunReport,
    tracer: &Tracer,
) -> MeasurementOutcome {
    let worker_health: Vec<WorkerHealth> = (0..n_workers)
        .map(|w| {
            let w = worker_wire_id(w);
            let status = if spec.faults.rejects_seal(w) {
                telemetry.inc(names::orchestrator::SEAL_REJECTIONS, 1);
                telemetry.add_degraded(DegradedReason::SealRejected { worker: w });
                tracer.record(Component::Control, || TraceEvent::WorkerFault {
                    worker: w,
                    cause: "seal rejected".into(),
                    after_probes: 0,
                });
                WorkerStatus::Failed
            } else if spec.faults.crash_after(w) == Some(0) {
                telemetry.add_degraded(DegradedReason::WorkerCrashed { worker: w });
                tracer.record(Component::Control, || TraceEvent::WorkerFault {
                    worker: w,
                    cause: "crash".into(),
                    after_probes: 0,
                });
                WorkerStatus::Failed
            } else {
                WorkerStatus::Completed
            };
            WorkerHealth {
                worker: w,
                status,
                probes_sent: 0,
            }
        })
        .collect();
    let failed_workers: Vec<u16> = worker_health
        .iter()
        .filter(|h| h.status == WorkerStatus::Failed)
        .map(|h| h.worker)
        .collect();
    MeasurementOutcome {
        measurement_id: spec.id,
        platform: spec.platform,
        protocol: spec.protocol,
        n_workers,
        probes_sent: 0,
        n_targets: 0,
        records: Vec::new(),
        failed_workers,
        worker_health,
        telemetry,
        shard_report: RunReport::new(),
        trace_report: tracer.snapshot(""),
    }
}

/// The anycast source address for the spec's target family. The family of
/// the measurement follows the first target (hitlists are single-family);
/// the platform announces both an IPv4 and IPv6 prefix.
fn platform_src_addr(spec: &MeasurementSpec) -> IpAddr {
    let family = spec
        .targets
        .first()
        .map(|a| IpVersion::of(*a))
        .unwrap_or(IpVersion::V4);
    match family {
        IpVersion::V4 => plat::anycast_src_v4(spec.platform),
        IpVersion::V6 => plat::anycast_src_v6(spec.platform),
    }
}

/// Everything a pipeline hands to the shared epilogue.
struct RunTotals {
    records: Vec<ProbeRecord>,
    /// The RTT distribution of `records`, observed where they were
    /// captured.
    rtts: Histogram,
    probes_sent: u64,
    failed_workers: Vec<u16>,
    worker_health: Vec<WorkerHealth>,
    telemetry: RunReport,
    shard_report: RunReport,
    orders_streamed: u64,
    rate_limiter_stalls: u64,
}

/// The shared measurement epilogue: canonical sorts, stream counters,
/// abort accounting, the RTT distribution and the stage span — shared with
/// the test-only threaded oracle so outcomes stay comparable field by
/// field.
fn finalize_outcome(
    spec: &MeasurementSpec,
    n_workers: usize,
    span_ms: u64,
    abort: &AbortHandle,
    tracer: &Tracer,
    totals: RunTotals,
) -> MeasurementOutcome {
    let RunTotals {
        mut records,
        rtts,
        probes_sent,
        mut failed_workers,
        worker_health: mut health,
        mut telemetry,
        shard_report,
        orders_streamed,
        rate_limiter_stalls,
    } = totals;
    failed_workers.sort_unstable();
    health.sort_unstable_by_key(|h| h.worker);
    // Canonical record order: shards (or worker threads) race to the
    // result stream, so the arrival order is scheduler noise. Sorting
    // makes equal runs serialise identically (fault plans are replayable
    // bit-for-bit). The sharded pipeline hands over block-sorted arenas
    // in shard order, so this is one linear pass unless the input was out
    // of order (an unsorted hitlist, deferred captures); it is the single
    // correctness backstop either way.
    sort_canonical(&mut records);

    telemetry.inc(names::orchestrator::ORDERS_STREAMED, orders_streamed);
    telemetry.inc(
        names::orchestrator::RATE_LIMITER_STALLS,
        rate_limiter_stalls,
    );
    telemetry.inc(names::orchestrator::RECORDS_COLLECTED, records.len() as u64);
    if abort.is_aborted() {
        telemetry.inc(names::orchestrator::ABORTS, 1);
        telemetry.add_degraded(DegradedReason::Aborted);
    }
    // The RTT distribution was observed at capture (one histogram per
    // shard, merged additively — a multiset, so order-independent by
    // construction).
    telemetry.record_histogram(names::worker::RTT_MS, rtts.snapshot());
    // Stage timing on the simulated clock: the probing phase spans the
    // rate-limited hitlist stream plus the last worker's offset window
    // (R6's quantity, per measurement).
    let mut clock = SimClock::new();
    let mut stage = StageTimer::start(format!("measurement:{:?}", spec.protocol), &clock);
    stage.count("targets", spec.targets.len() as u64);
    stage.count("probes_sent", probes_sent);
    let sim_ms = window_start_ms(spec.targets.len().saturating_sub(1), spec.rate_per_s) + span_ms;
    clock.advance(sim_ms);
    telemetry.push_stage(stage.finish(&clock));
    tracer.record(Component::Control, || TraceEvent::StageSpan {
        name: format!("measurement:{:?}", spec.protocol),
        start_ms: 0,
        sim_ms,
    });

    MeasurementOutcome {
        measurement_id: spec.id,
        platform: spec.platform,
        protocol: spec.protocol,
        n_workers,
        probes_sent,
        n_targets: spec.targets.len(),
        records,
        failed_workers,
        worker_health: health,
        telemetry,
        shard_report,
        trace_report: tracer.snapshot(""),
    }
}

// ---------------------------------------------------------------------------
// Sharded pipeline
// ---------------------------------------------------------------------------

/// How a shard disposes of a delivery addressed to worker `rx`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CaptureMode {
    /// The worker cannot fail: validate the capture inline.
    Live,
    /// The worker is scheduled to crash: whether its captures survive
    /// depends on whether the crash point is actually reached, which is
    /// only known once the stream ends. Buffer them; a surviving worker
    /// drains the buffer in the final phase, a crashed one loses it —
    /// exactly the deferred-drain semantics of a worker process scheduled
    /// to crash.
    Deferred,
    /// The worker's start order failed authentication: it never runs, and
    /// deliveries to it vanish like packets to a dead site.
    Lost,
}

/// Per-worker fault cutoffs, precomputed on *global hitlist indices* so
/// every shard applies identical per-order semantics to its slice. The
/// k-th order a worker receives is always the k-th index of its eligible
/// range, so "delay N", "close after N" and "crash after N orders" are all
/// pure index arithmetic — canonical order, not per-shard arrival order.
#[derive(Debug, Clone)]
struct WorkerPlan {
    /// Whether the worker transmits probes (sender restriction).
    sender: bool,
    /// The worker's start order failed authentication (R8).
    seal_rejected: bool,
    /// Crash-after-N-orders limit, if scheduled.
    crash_limit: Option<usize>,
    /// Global indices `i < delay` are delay-faulted (order lost).
    delay: usize,
    /// Global indices `i >= close_at` are closed-channel-faulted.
    close_at: usize,
    /// Global indices `i >= probe_end` are issued but never probed (the
    /// worker is past its crash point or never started).
    probe_end: usize,
    /// Capture disposition for deliveries addressed to this worker.
    capture: CaptureMode,
}

impl WorkerPlan {
    fn of(spec: &MeasurementSpec, world: &World, wid: u16, src_addr: IpAddr, span_ms: u64) -> Self {
        let sender = spec.is_sender(wid);
        // Authentication is exercised for real, exactly as a worker process
        // does: seal a start order (under a corrupted key when the fault
        // plan says so) and try to open it with the worker's key.
        let key = AuthKey::derive(world.cfg.seed ^ u64::from(spec.id));
        let seal_key = if spec.faults.rejects_seal(wid) {
            AuthKey::derive(world.cfg.seed ^ u64::from(spec.id) ^ 0x0BAD_5EA1)
        } else {
            key
        };
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
        let seal_rejected = Sealed::seal(seal_key, start).open(key).is_none();
        let crash_limit = if seal_rejected {
            None
        } else {
            spec.faults.crash_after(wid)
        };
        let (delay, close_after) = match spec.faults.order_fault(wid) {
            Some(f) => (f.delay_orders, f.close_after),
            None => (0, None),
        };
        let close_at = close_after.map_or(usize::MAX, |c| delay.saturating_add(c));
        let probe_end = if seal_rejected || !sender {
            0
        } else {
            crash_limit.map_or(usize::MAX, |l| delay.saturating_add(l))
        };
        let capture = if seal_rejected {
            CaptureMode::Lost
        } else if spec.faults.crash_after(wid).is_some() {
            CaptureMode::Deferred
        } else {
            CaptureMode::Live
        };
        WorkerPlan {
            sender,
            seal_rejected,
            crash_limit,
            delay,
            close_at,
            probe_end,
            capture,
        }
    }
}

/// Everything a shard borrows from the run, shared read-only across
/// shards.
struct ShardCtx<'a> {
    world: &'a World,
    spec: &'a MeasurementSpec,
    plans: &'a [WorkerPlan],
    src_addr: IpAddr,
    ctx: MeasurementCtx,
    tracer: &'a Tracer,
    abort: &'a AbortHandle,
    accepted: &'a AtomicUsize,
}

/// Validated-capture accumulation: shard-local record arena plus the
/// per-worker rx-side counters, wired to the shared abort trigger.
struct CaptureSink<'a> {
    measurement_id: u32,
    arena: RecordArena,
    /// RTTs of the accumulated records.
    rtts: Histogram,
    records_streamed: Vec<u64>,
    captures_rejected: Vec<u64>,
    abort_after: Option<usize>,
    accepted: &'a AtomicUsize,
    abort: &'a AbortHandle,
    tracer: &'a Tracer,
}

impl<'a> CaptureSink<'a> {
    fn new(cx: &ShardCtx<'a>, n_workers: usize) -> Self {
        CaptureSink {
            measurement_id: cx.spec.id,
            arena: RecordArena::new(),
            rtts: Histogram::new(&metrics::RTT_BUCKETS_MS),
            records_streamed: vec![0; n_workers],
            captures_rejected: vec![0; n_workers],
            abort_after: cx.spec.faults.abort_after_records,
            accepted: cx.accepted,
            abort: cx.abort,
            tracer: cx.tracer,
        }
    }

    /// Validate one capture at worker `rx` and accumulate the record —
    /// the worker's capture filter: anything that is not a reply to this
    /// measurement (other measurements, backscatter) is counted as
    /// rejected and produces no record.
    fn capture(&mut self, d: &Delivery, rx: usize) {
        let rx_worker = worker_wire_id(rx);
        let prefix = PrefixKey::of(d.packet.src);
        // Fast-path deliveries carry pre-parsed attribution; resolving it
        // is bit-identical to parsing the reply bytes (see
        // `attribute_prepared`), so both arms validate the same way.
        let parsed = match &d.reply {
            Some(p) => attribute_prepared(d.packet.protocol, p, self.measurement_id, d.rx_time_ms),
            None => parse_reply(&d.packet, self.measurement_id, d.rx_time_ms),
        };
        if let Ok(info) = parsed {
            self.tracer
                .record_for(Component::Capture, prefix, || TraceEvent::Captured {
                    prefix,
                    rx_worker,
                    rx_time_ms: d.rx_time_ms,
                    accepted: true,
                    chaos_identity: info.chaos_identity.as_deref().map(str::to_string),
                });
            let record = ProbeRecord {
                prefix,
                protocol: info.protocol,
                rx_worker,
                tx_worker: info.tx_worker,
                tx_time_ms: info.tx_time_ms,
                rx_time_ms: d.rx_time_ms,
                chaos_identity: info.chaos_identity,
            };
            if let Some(rtt) = record.rtt_ms() {
                self.rtts.observe(rtt);
            }
            self.arena.push(record);
            self.records_streamed[rx] += 1;
            if let Some(limit) = self.abort_after {
                // Mid-stream abort fault: the CLI disconnects once `limit`
                // records were accepted run-wide, but everything collected
                // so far is kept.
                if self.accepted.fetch_add(1, Ordering::AcqRel) + 1 >= limit {
                    self.abort.abort();
                }
            }
        } else {
            self.tracer
                .record_for(Component::Capture, prefix, || TraceEvent::Captured {
                    prefix,
                    rx_worker,
                    rx_time_ms: d.rx_time_ms,
                    accepted: false,
                    chaos_identity: None,
                });
            self.captures_rejected[rx] += 1;
        }
    }
}

/// Per-(shard, worker) transmit state: the resolved route session, wire
/// and fabric stats, and the batch
/// accumulator. `batch[..probed]` is the prefix that is actually
/// transmitted (orders past the worker's crash point are issued and
/// counted but never probed — matching a worker that died with orders
/// still queued).
struct ShardWorker {
    wid: u16,
    session: Option<ProbeSession>,
    wire: WireStats,
    fabric: FabricStats,
    batch: Vec<ProbeOrder>,
    probed: usize,
}

/// What one shard reports back to the merge.
struct ShardOutput {
    index: usize,
    lo: usize,
    hi: usize,
    /// Block-sorted records (see [`RecordArena::sort_block`]).
    arena: RecordArena,
    rtts: Histogram,
    /// Per-worker tx-side telemetry (rx-side fields zero).
    tx: Vec<WorkerTelemetry>,
    records_streamed: Vec<u64>,
    captures_rejected: Vec<u64>,
    /// Deliveries buffered for crash-scheduled workers, per worker.
    deferred: Vec<Vec<Delivery>>,
    /// Eligible orders issued per worker (the crash-limit denominator).
    issued: Vec<u64>,
    orders_streamed: u64,
    rate_limiter_stalls: u64,
    probes_sent: u64,
}

/// The contiguous slice of shard `s` out of `shards` over `n` targets:
/// sizes differ by at most one, earlier shards take the remainder.
fn shard_bounds(n: usize, shards: usize, s: usize) -> (usize, usize) {
    let base = n / shards;
    let rem = n % shards;
    let lo = s * base + s.min(rem);
    let hi = lo + base + usize::from(s < rem);
    (lo, hi)
}

/// Run one shard of the hitlist stream inline: per-order fault semantics,
/// batch accumulation, wire transmission, fabric verdicts and capture
/// validation, all against the shard's own sessions and arenas.
fn run_shard(cx: &ShardCtx<'_>, index: usize, lo: usize, hi: usize) -> ShardOutput {
    let spec = cx.spec;
    let n_workers = cx.plans.len();
    let mut workers: Vec<ShardWorker> = (0..n_workers)
        .map(|w| {
            let plan = &cx.plans[w];
            let session = if plan.sender && !plan.seal_rejected {
                let mut s = cx.world.probe_session(ProbeSource::Worker {
                    platform: spec.platform,
                    site: w,
                });
                s.attach_tracer(cx.tracer.clone());
                Some(s)
            } else {
                None
            };
            ShardWorker {
                wid: worker_wire_id(w),
                session,
                wire: WireStats::new(),
                fabric: FabricStats::new(),
                batch: Vec::new(),
                probed: 0,
            }
        })
        .collect();
    let mut sink = CaptureSink::new(cx, n_workers);
    let mut deferred: Vec<Vec<Delivery>> = (0..n_workers).map(|_| Vec::new()).collect();
    let mut issued = vec![0u64; n_workers];
    let mut orders_streamed = 0u64;
    let mut deliveries: Vec<Delivery> = Vec::new();

    // One closure-free flush path, shared by the batch-boundary and tail
    // flushes: count the whole batch as issued (orders past a crash point
    // were still streamed), transmit the probed prefix, apply fabric
    // verdicts and dispose of the deliveries per the rx worker's capture
    // mode.
    macro_rules! flush {
        ($w:expr) => {{
            let w: usize = $w;
            let ws = &mut workers[w];
            if !ws.batch.is_empty() {
                orders_streamed += ws.batch.len() as u64;
                issued[w] += ws.batch.len() as u64;
                let take = ws.probed;
                if take > 0 {
                    let tx_offset = spec.offset_ms * u64::from(ws.wid);
                    for order in &ws.batch[..take] {
                        let prefix = PrefixKey::of(order.target);
                        let wid = ws.wid;
                        cx.tracer
                            .record_for(Component::Worker, prefix, || TraceEvent::ProbeSent {
                                prefix,
                                worker: wid,
                                tx_time_ms: order.window_start_ms + tx_offset,
                            });
                    }
                    // Zero-copy fast path: the probe's metadata rides the
                    // batch instead of serialized bytes, so neither probe
                    // nor reply packets are materialized — the wire hands
                    // back pre-attributed deliveries with the identical
                    // record outcome.
                    let probes: Vec<BatchProbe<'_>> = ws.batch[..take]
                        .iter()
                        .map(|order| BatchProbe {
                            dst: order.target,
                            bytes: &[],
                            tx_time_ms: order.window_start_ms + tx_offset,
                            window_start_ms: order.window_start_ms,
                            meta: Some((
                                ProbeMeta {
                                    measurement_id: spec.id,
                                    worker_id: ws.wid,
                                    tx_time_ms: order.window_start_ms + tx_offset,
                                },
                                spec.encoding,
                            )),
                        })
                        .collect();
                    if let Some(session) = ws.session.as_mut() {
                        // laces-lint: allow(discarded-fallibility) — the zero-copy path sends metadata with empty byte slices; the wire's only error source is parsing probe bytes, which this path never does
                        let _ = cx.world.send_probe_batch(
                            session,
                            cx.src_addr,
                            spec.protocol,
                            &probes,
                            &cx.ctx,
                            &ws.wire,
                            &mut deliveries,
                        );
                    }
                    for d in deliveries.drain(..) {
                        let verdict = spec.faults.fabric.map_or(FabricVerdict::Deliver, |f| {
                            f.verdict_observed(&d, &ws.fabric)
                        });
                        if verdict != FabricVerdict::Deliver {
                            // Only faults are recorded: a reply with no
                            // FabricFault event passed through untouched.
                            let prefix = PrefixKey::of(d.packet.src);
                            let tx_worker = ws.wid;
                            cx.tracer.record_for(Component::Fabric, prefix, || {
                                TraceEvent::FabricFault {
                                    prefix,
                                    tx_worker,
                                    rx_worker: worker_wire_id(d.rx_index),
                                    rx_time_ms: d.rx_time_ms,
                                    kind: if verdict == FabricVerdict::Drop {
                                        FabricFaultKind::Dropped
                                    } else {
                                        FabricFaultKind::Duplicated
                                    },
                                }
                            });
                        }
                        if verdict == FabricVerdict::Drop {
                            continue;
                        }
                        let rx = d.rx_index;
                        match cx.plans.get(rx).map(|p| p.capture) {
                            Some(CaptureMode::Live) => {
                                if verdict == FabricVerdict::Duplicate {
                                    sink.capture(&d, rx);
                                }
                                sink.capture(&d, rx);
                            }
                            Some(CaptureMode::Deferred) => {
                                if verdict == FabricVerdict::Duplicate {
                                    deferred[rx].push(d.clone());
                                }
                                deferred[rx].push(d);
                            }
                            Some(CaptureMode::Lost) | None => {}
                        }
                    }
                }
                workers[w].batch.clear();
                workers[w].probed = 0;
            }
        }};
    }

    // Stream the shard's slice at the schedule's global rate windows.
    let mut aborted = false;
    for i in lo..hi {
        if cx.abort.is_aborted() {
            // CLI disconnected: stop streaming; accumulated but unsent
            // batches are dropped — the abort cuts the stream at a batch
            // boundary (R3: no unnecessary probes).
            aborted = true;
            break;
        }
        let target = spec.targets[i];
        let window = window_start_ms(i, spec.rate_per_s);
        let prefix = PrefixKey::of(target);
        let mut round_flushed = false;
        for w in 0..n_workers {
            let plan = &cx.plans[w];
            // Non-sender workers (single-VP precheck mode) receive no
            // orders but still capture replies.
            if !plan.sender {
                continue;
            }
            let wid = workers[w].wid;
            if i < plan.delay {
                // The channel came up late; early orders are lost in the
                // disconnected stream.
                cx.tracer
                    .record_for(Component::Orchestrator, prefix, || TraceEvent::OrderFault {
                        prefix,
                        worker: wid,
                        cause: OrderFaultCause::Delayed,
                    });
                continue;
            }
            if i >= plan.close_at {
                // Channel closed by the fault plan; the worker completes
                // with what it received.
                cx.tracer
                    .record_for(Component::Orchestrator, prefix, || TraceEvent::OrderFault {
                        prefix,
                        worker: wid,
                        cause: OrderFaultCause::ChannelClosed,
                    });
                continue;
            }
            cx.tracer.record_for(Component::Orchestrator, prefix, || {
                TraceEvent::OrderIssued {
                    prefix,
                    worker: wid,
                    window_start_ms: window,
                }
            });
            let ws = &mut workers[w];
            ws.batch.push(ProbeOrder {
                target,
                window_start_ms: window,
            });
            if i < plan.probe_end {
                ws.probed += 1;
            }
            if ws.batch.len() >= spec.batch_size {
                flush!(w);
                round_flushed = true;
            }
        }
        // Once every sender has flushed, the records of all orders up to
        // `i` are in the arena: sort that block while it is in cache. On
        // a prefix-sorted hitlist the blocks then follow each other in
        // canonical order, and the seal's backstop sort is one linear
        // pass. Batches misaligned by order faults close fewer, larger
        // blocks, which are still in order.
        if round_flushed && workers.iter().all(|ws| ws.batch.is_empty()) {
            sink.arena.sort_block();
        }
    }
    // End of slice: flush the partial tail batches (unless aborted — an
    // abort drops accumulated batches).
    if !aborted {
        for w in 0..n_workers {
            flush!(w);
        }
    }
    sink.arena.sort_block();

    // Stall counting is a pure function of the slice bounds: the number of
    // indices in [lo, hi) whose window opens strictly later than their
    // predecessor's. `prev` is seeded from the last index *before* the
    // slice, so summing per-shard counts reproduces the single-streamer
    // count of window transitions exactly. An aborted shard counts none.
    let mut rate_limiter_stalls = 0u64;
    let mut prev = if lo == 0 {
        0
    } else {
        window_start_ms(lo - 1, spec.rate_per_s)
    };
    let streamed_hi = if aborted { lo } else { hi };
    for i in lo..streamed_hi {
        let w = window_start_ms(i, spec.rate_per_s);
        if w > prev {
            rate_limiter_stalls += 1;
            prev = w;
        }
    }

    let tx: Vec<WorkerTelemetry> = workers
        .iter()
        .map(|ws| WorkerTelemetry {
            probes_sent: ws.wire.probes.get(),
            replies_delivered: ws.wire.deliveries.get(),
            unanswered: ws.wire.unanswered.get(),
            fabric_dropped: ws.fabric.dropped.get(),
            fabric_duplicated: ws.fabric.duplicated.get(),
            records_streamed: 0,
            captures_rejected: 0,
        })
        .collect();
    let probes_sent = tx.iter().map(|t| t.probes_sent).sum();
    ShardOutput {
        index,
        lo,
        hi,
        arena: sink.arena,
        rtts: sink.rtts,
        tx,
        records_streamed: sink.records_streamed,
        captures_rejected: sink.captures_rejected,
        deferred,
        issued,
        orders_streamed,
        rate_limiter_stalls,
        probes_sent,
    }
}

/// [`run_measurement`] with a cancellation handle — the sharded inline
/// pipeline.
///
/// # Errors
///
/// As [`run_measurement`].
pub fn run_measurement_abortable(
    world: &Arc<World>,
    spec: &MeasurementSpec,
    abort: &AbortHandle,
) -> Result<MeasurementOutcome, MeasurementError> {
    let n_workers = validated_workers(world, spec)?;
    let span_ms = spec.span_ms(n_workers);
    let tracer = Tracer::new(spec.trace);
    let mut telemetry = base_telemetry(spec, n_workers, span_ms);

    if spec.targets.is_empty() {
        return Ok(empty_hitlist_outcome(spec, n_workers, telemetry, &tracer));
    }

    let src_addr = platform_src_addr(spec);
    let plans: Vec<WorkerPlan> = (0..n_workers)
        .map(|w| WorkerPlan::of(spec, world, worker_wire_id(w), src_addr, span_ms))
        .collect();
    let n = spec.targets.len();
    let shards = spec.shards.min(n).max(1);
    let accepted = AtomicUsize::new(0);
    let cx = ShardCtx {
        world,
        spec,
        plans: &plans,
        src_addr,
        ctx: MeasurementCtx {
            id: spec.id,
            day: spec.day,
            span_ms,
        },
        tracer: &tracer,
        abort,
        accepted: &accepted,
    };

    let mut outs: Vec<ShardOutput> = Vec::with_capacity(shards);
    let mut lost_shards = 0u64;
    if shards == 1 {
        // The single-shard census runs entirely on the calling thread: no
        // spawn, no join, no synchronisation at all.
        outs.push(run_shard(&cx, 0, 0, n));
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..shards)
                .map(|s| {
                    let cx = &cx;
                    let (lo, hi) = shard_bounds(n, shards, s);
                    scope.spawn(move || run_shard(cx, s, lo, hi))
                })
                .collect();
            for (s, h) in handles.into_iter().enumerate() {
                match h.join() {
                    Ok(o) => outs.push(o),
                    Err(_) => {
                        // A panicked shard is a bug, not a modelled fault;
                        // degrade loudly instead of poisoning the scope.
                        lost_shards += 1;
                        telemetry.add_degraded(DegradedReason::Stage {
                            stage: format!("shard.{s:03}"),
                            detail: "shard thread panicked; its slice is missing".into(),
                        });
                    }
                }
            }
        });
    }
    if lost_shards > 0 {
        telemetry.inc(names::orchestrator::SHARD_FAILURES, lost_shards);
    }

    // Crash determination in canonical order: "crash after N orders"
    // counts the orders actually issued to the worker across all shards —
    // global eligible-index arithmetic, not per-shard arrival order.
    let mut delivered = vec![0u64; n_workers];
    for o in &outs {
        for (w, n) in o.issued.iter().enumerate() {
            delivered[w] += n;
        }
    }
    let crash_fires: Vec<bool> = plans
        .iter()
        .enumerate()
        .map(|(w, p)| {
            p.crash_limit
                .is_some_and(|l| delivered[w] >= u64::try_from(l).unwrap_or(u64::MAX))
        })
        .collect();

    // Deferred-capture resolution: a crash-scheduled worker that survived
    // (the stream ended before its crash point) drains its buffered
    // deliveries now, exactly like a worker process's final capture
    // phase; a crashed worker loses them with its site.
    let mut late = CaptureSink::new(&cx, n_workers);
    for o in &mut outs {
        for (rx, &crashed) in crash_fires.iter().enumerate() {
            if crashed {
                o.deferred[rx].clear();
                continue;
            }
            let dels = std::mem::take(&mut o.deferred[rx]);
            for d in &dels {
                late.capture(d, rx);
            }
        }
    }

    // Per-worker terminal accounting, in worker order. Every merge
    // operation is order-independent, so the report matches one merged in
    // worker arrival order.
    let mut probes_sent = 0u64;
    let mut failed_workers: Vec<u16> = Vec::new();
    let mut worker_health: Vec<WorkerHealth> = Vec::with_capacity(n_workers);
    for (w, plan) in plans.iter().enumerate() {
        let wid = worker_wire_id(w);
        let mut t = WorkerTelemetry::default();
        for o in &outs {
            t.probes_sent += o.tx[w].probes_sent;
            t.replies_delivered += o.tx[w].replies_delivered;
            t.unanswered += o.tx[w].unanswered;
            t.fabric_dropped += o.tx[w].fabric_dropped;
            t.fabric_duplicated += o.tx[w].fabric_duplicated;
            t.records_streamed += o.records_streamed[w];
            t.captures_rejected += o.captures_rejected[w];
        }
        t.records_streamed += late.records_streamed[w];
        t.captures_rejected += late.captures_rejected[w];
        probes_sent += t.probes_sent;
        merge_worker_telemetry(&mut telemetry, wid, &t);
        if plan.seal_rejected {
            tracer.record(Component::Control, || TraceEvent::WorkerFault {
                worker: wid,
                cause: "seal rejected".into(),
                after_probes: t.probes_sent,
            });
            telemetry.inc(names::orchestrator::SEAL_REJECTIONS, 1);
            telemetry.add_degraded(DegradedReason::SealRejected { worker: wid });
            failed_workers.push(wid);
            worker_health.push(WorkerHealth {
                worker: wid,
                status: WorkerStatus::Failed,
                probes_sent: t.probes_sent,
            });
        } else if crash_fires[w] {
            tracer.record(Component::Control, || TraceEvent::WorkerFault {
                worker: wid,
                cause: "crash".into(),
                after_probes: t.probes_sent,
            });
            telemetry.add_degraded(DegradedReason::WorkerCrashed { worker: wid });
            failed_workers.push(wid);
            worker_health.push(WorkerHealth {
                worker: wid,
                status: WorkerStatus::Failed,
                probes_sent: t.probes_sent,
            });
        } else {
            worker_health.push(WorkerHealth {
                worker: wid,
                status: WorkerStatus::Completed,
                probes_sent: t.probes_sent,
            });
        }
    }

    // Shard-layout diagnostics live in their own report: per-shard stage
    // timers plus the shard count, quarantined from the canonical
    // telemetry so the invariance contract stays byte-exact.
    let mut shard_report = RunReport::new();
    shard_report.set_gauge(names::orchestrator::SHARDS, shards as u64);
    let mut stages = ShardStages::new();
    for o in &outs {
        if o.hi == o.lo {
            continue;
        }
        let start_ms = window_start_ms(o.lo, spec.rate_per_s);
        let end_ms = window_start_ms(o.hi - 1, spec.rate_per_s).saturating_add(span_ms);
        stages.record(
            o.index,
            start_ms,
            end_ms.saturating_sub(start_ms),
            &[
                ("targets", (o.hi - o.lo) as u64),
                ("orders_streamed", o.orders_streamed),
                ("probes_sent", o.probes_sent),
            ],
        );
        if spec.trace.shard_spans {
            let shard = worker_wire_id(o.index);
            let (lo64, n64) = (o.lo as u64, (o.hi - o.lo) as u64);
            tracer.record(Component::Control, || TraceEvent::ShardSpan {
                shard,
                start_index: lo64,
                n_targets: n64,
                start_ms,
                sim_ms: end_ms.saturating_sub(start_ms),
            });
        }
    }
    shard_report.push_stage(stages.finish("stream:sharded"));

    let orders_streamed: u64 = outs.iter().map(|o| o.orders_streamed).sum();
    let rate_limiter_stalls: u64 = outs.iter().map(|o| o.rate_limiter_stalls).sum();
    // Shard-index order (`outs` is joined in spawn order), deferred
    // captures last: block-sorted arenas of a prefix-sorted hitlist
    // concatenate into an already canonical vector.
    let mut rtts = late.rtts;
    let mut arenas: Vec<RecordArena> = Vec::with_capacity(outs.len() + 1);
    for o in outs {
        rtts.merge(&o.rtts);
        arenas.push(o.arena);
    }
    arenas.push(late.arena);
    let records = RecordArena::merge(arenas);

    Ok(finalize_outcome(
        spec,
        n_workers,
        span_ms,
        abort,
        &tracer,
        RunTotals {
            records,
            rtts,
            probes_sent,
            failed_workers,
            worker_health,
            telemetry,
            shard_report,
            orders_streamed,
            rate_limiter_stalls,
        },
    ))
}

/// Result of a prechecked measurement (§6 future work: "check
/// responsiveness from a single VP before probing from all VPs").
#[derive(Debug, Clone)]
pub struct PrecheckedOutcome {
    /// The full measurement over responsive targets only.
    pub outcome: MeasurementOutcome,
    /// Probes spent by the single-worker precheck pass.
    pub precheck_probes: u64,
    /// Targets that answered the precheck and were probed fully.
    pub responsive_targets: usize,
    /// Targets skipped as unresponsive.
    pub skipped_targets: usize,
}

impl PrecheckedOutcome {
    /// Total probes across both phases.
    pub fn total_probes(&self) -> u64 {
        self.precheck_probes + self.outcome.probes_sent
    }
}

/// Run a measurement with a single-worker responsiveness precheck: worker
/// `precheck_worker` probes the full hitlist alone (all workers capture);
/// only targets that answered are then probed by the full platform.
///
/// On a hitlist with unresponsive share `u`, this saves roughly
/// `u × (n_workers - 1) / n_workers` of the probe budget at the cost of
/// missing targets that lose the single precheck probe.
///
/// # Errors
///
/// [`MeasurementError::ReservedId`] when `spec.id` has [`PRECHECK_ID_BIT`]
/// set: the precheck pass needs its own measurement id (replies to the
/// precheck must not validate against the full pass), and ids with that
/// bit are reserved for it. Platform errors as [`run_measurement`].
pub fn run_with_precheck(
    world: &Arc<World>,
    spec: &MeasurementSpec,
    precheck_worker: u16,
) -> Result<PrecheckedOutcome, MeasurementError> {
    if spec.id & PRECHECK_ID_BIT != 0 {
        return Err(MeasurementError::ReservedId { id: spec.id });
    }
    let mut pre = spec.clone();
    pre.id = spec.id | PRECHECK_ID_BIT;
    pre.senders = Some(vec![precheck_worker]);
    let pre_outcome = run_measurement(world, &pre)?;

    let responsive: std::collections::BTreeSet<laces_packet::PrefixKey> =
        pre_outcome.records.iter().map(|r| r.prefix).collect();
    let filtered: Vec<std::net::IpAddr> = spec
        .targets
        .iter()
        .copied()
        .filter(|a| responsive.contains(&laces_packet::PrefixKey::of(*a)))
        .collect();
    let skipped = spec.targets.len() - filtered.len();

    let mut full = spec.clone();
    full.targets = Arc::new(filtered);
    let outcome = run_measurement(world, &full)?;
    Ok(PrecheckedOutcome {
        responsive_targets: outcome.n_targets,
        skipped_targets: skipped,
        precheck_probes: pre_outcome.probes_sent,
        outcome,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_bounds_partition_contiguously() {
        for (n, shards) in [(10, 3), (7, 7), (25_419, 16), (5, 1), (3, 16)] {
            let shards = shards.min(n).max(1);
            let mut next = 0;
            for s in 0..shards {
                let (lo, hi) = shard_bounds(n, shards, s);
                assert_eq!(lo, next, "n={n} shards={shards} s={s}");
                assert!(hi >= lo);
                next = hi;
            }
            assert_eq!(next, n, "slices must cover the hitlist exactly");
            // Balanced: sizes differ by at most one.
            let sizes: Vec<usize> = (0..shards)
                .map(|s| {
                    let (lo, hi) = shard_bounds(n, shards, s);
                    hi - lo
                })
                .collect();
            let min = sizes.iter().min().copied().unwrap_or(0);
            let max = sizes.iter().max().copied().unwrap_or(0);
            assert!(max - min <= 1, "n={n} shards={shards} sizes={sizes:?}");
        }
    }

    #[test]
    fn worker_wire_ids_are_exact_in_range() {
        assert_eq!(worker_wire_id(0), 0);
        assert_eq!(worker_wire_id(63), 63);
    }

    /// The arenas [`run_measurement`] merges for `spec`, in shard order,
    /// with the late arena left out (it is empty without crash plans).
    fn shard_arenas(world: &Arc<World>, spec: &MeasurementSpec) -> Vec<RecordArena> {
        let n_workers = validated_workers(world, spec).expect("valid platform");
        let span_ms = spec.span_ms(n_workers);
        let src_addr = platform_src_addr(spec);
        let plans: Vec<WorkerPlan> = (0..n_workers)
            .map(|w| WorkerPlan::of(spec, world, worker_wire_id(w), src_addr, span_ms))
            .collect();
        let (accepted, abort, tracer) =
            (AtomicUsize::new(0), AbortHandle::new(), Tracer::disabled());
        let cx = ShardCtx {
            world,
            spec,
            plans: &plans,
            src_addr,
            ctx: MeasurementCtx {
                id: spec.id,
                day: spec.day,
                span_ms,
            },
            tracer: &tracer,
            abort: &abort,
            accepted: &accepted,
        };
        let n = spec.targets.len();
        let shards = spec.shards.min(n);
        (0..shards)
            .map(|s| {
                let (lo, hi) = shard_bounds(n, shards, s);
                run_shard(&cx, s, lo, hi).arena
            })
            .collect()
    }

    /// On a prefix-sorted hitlist every shard closes its arena as a run
    /// of canonically sorted blocks that follow each other in order, so
    /// the shard-order concatenation needs no sorting at seal — also when
    /// delayed order channels misalign the senders' batch rounds.
    #[test]
    fn block_sorted_arenas_concatenate_sorted_for_a_prefix_sorted_hitlist() {
        use crate::results::canonical_cmp;
        use laces_netsim::WorldConfig;

        let w = Arc::new(World::generate(WorldConfig::tiny()));
        let mut targets: Vec<IpAddr> = w.targets[..w.n_v4]
            .iter()
            .filter_map(|t| match t.prefix {
                PrefixKey::V4(p) => Some(IpAddr::V4(
                    p.addr(laces_netsim::targets::REPRESENTATIVE_HOST),
                )),
                PrefixKey::V6(_) => None,
            })
            .take(300)
            .collect();
        targets.sort_by_key(|a| PrefixKey::of(*a));
        let targets = Arc::new(targets);
        let misaligned = crate::fault::FaultPlan::none()
            .and_order_fault(2, 5, None)
            .and_order_fault(9, 17, Some(60));
        for plan in [crate::fault::FaultPlan::none(), misaligned] {
            for shards in [1usize, 4, 16] {
                for batch_size in [1usize, 16, 256] {
                    let spec = MeasurementSpec::builder(77, w.std_platforms.production)
                        .targets(Arc::clone(&targets))
                        .faults(plan.clone())
                        .shards(shards)
                        .batch_size(batch_size)
                        .build(&w)
                        .expect("valid spec");
                    let arenas = shard_arenas(&w, &spec);
                    assert_eq!(arenas.len(), shards);
                    let records = RecordArena::merge(arenas);
                    assert!(!records.is_empty(), "workload must be non-trivial");
                    assert!(
                        records.is_sorted_by(|a, b| canonical_cmp(a, b).is_le()),
                        "{plan:?} shards={shards} batch={batch_size}: \
                         concatenation is not canonical"
                    );
                }
            }
        }
    }

    /// A one-worker capture sink filtering for `measurement_id`.
    fn sink<'a>(
        measurement_id: u32,
        accepted: &'a AtomicUsize,
        abort: &'a AbortHandle,
        tracer: &'a Tracer,
    ) -> CaptureSink<'a> {
        CaptureSink {
            measurement_id,
            arena: RecordArena::new(),
            rtts: Histogram::new(&metrics::RTT_BUCKETS_MS),
            records_streamed: vec![0],
            captures_rejected: vec![0],
            abort_after: None,
            accepted,
            abort,
            tracer,
        }
    }

    /// R8 on the shipped capture filter: a reply to another measurement is
    /// counted as rejected and produces no record, both when the wire
    /// hands back a prepared reply and when the reply bytes are parsed.
    #[test]
    fn capture_filter_rejects_foreign_measurement_ids_on_both_arms() {
        use laces_netsim::WorldConfig;
        use laces_packet::probe::{build_probe, ProbeEncoding};
        use laces_packet::Protocol;

        let w = World::generate(WorldConfig::tiny());
        let production = w.std_platforms.production;
        let src = plat::anycast_src_v4(production);
        let source = ProbeSource::Worker {
            platform: production,
            site: 0,
        };
        let foreign = 999_999;
        let ctx = MeasurementCtx {
            id: foreign,
            day: 0,
            span_ms: 0,
        };
        let meta = ProbeMeta {
            measurement_id: foreign,
            worker_id: 0,
            tx_time_ms: 0,
        };
        let mut targets = w
            .targets
            .iter()
            .filter(|t| t.resp.icmp)
            .filter_map(|t| match t.prefix {
                PrefixKey::V4(p) => Some(IpAddr::V4(p.addr(77))),
                PrefixKey::V6(_) => None,
            });

        let mut session = w.probe_session(source);
        let mut out = Vec::new();
        let prepared = targets
            .clone()
            .find_map(|dst| {
                let probe = BatchProbe {
                    dst,
                    bytes: &[],
                    tx_time_ms: 0,
                    window_start_ms: 0,
                    meta: Some((meta, ProbeEncoding::PerWorker)),
                };
                w.send_probe_batch(
                    &mut session,
                    src,
                    Protocol::Icmp,
                    &[probe],
                    &ctx,
                    &WireStats::new(),
                    &mut out,
                )
                .ok()?;
                out.pop()
            })
            .expect("a responsive target");
        assert!(prepared.reply.is_some(), "prepared-reply arm not exercised");
        let parsed = targets
            .find_map(|dst| {
                let pkt = build_probe(src, dst, Protocol::Icmp, &meta, ProbeEncoding::PerWorker);
                w.send_probe(source, &pkt, 0, 0, &ctx).ok().flatten()
            })
            .expect("a responsive target");
        assert!(parsed.reply.is_none(), "parse_reply arm not exercised");

        let (accepted, abort, tracer) =
            (AtomicUsize::new(0), AbortHandle::new(), Tracer::disabled());
        for (arm, d) in [("prepared-reply", &prepared), ("parse_reply", &parsed)] {
            let mut own = sink(901, &accepted, &abort, &tracer);
            own.capture(d, 0);
            assert_eq!(
                own.captures_rejected,
                vec![1],
                "{arm}: rejection not counted"
            );
            assert_eq!(own.records_streamed, vec![0], "{arm}");
            assert!(
                own.arena.is_empty(),
                "{arm}: a foreign reply produced a record"
            );
            // Control: the same delivery validates under its own id, so the
            // rejection above is the measurement-id filter at work.
            let mut theirs = sink(foreign, &accepted, &abort, &tracer);
            theirs.capture(d, 0);
            assert_eq!(theirs.records_streamed, vec![1], "{arm}: control rejected");
            assert_eq!(theirs.captures_rejected, vec![0], "{arm}");
        }
    }
}
