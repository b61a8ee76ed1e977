//! Measurement results: the records workers stream back and their
//! aggregation at the CLI.

use std::cmp::Ordering;
use std::sync::Arc;

use laces_netsim::PlatformId;
use laces_obs::{Degraded, DegradedReason, RunReport};
use laces_packet::{PrefixKey, Protocol};
use serde::{Deserialize, Serialize};

/// One captured, validated reply.
///
/// This is what a Worker streams to the Orchestrator the moment a reply is
/// captured (R5: workers hold no state; R10: results leave the worker
/// immediately).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProbeRecord {
    /// Census prefix of the responding address.
    pub prefix: PrefixKey,
    /// Protocol of the reply.
    pub protocol: Protocol,
    /// Worker that captured the reply.
    pub rx_worker: u16,
    /// Worker that sent the eliciting probe (decoded from the echoed
    /// metadata; `None` under static encoding).
    pub tx_worker: Option<u16>,
    /// Probe transmit time (echoed), if recoverable.
    pub tx_time_ms: Option<u64>,
    /// Capture time.
    pub rx_time_ms: u64,
    /// CHAOS identity disclosed by the responder, if any. `Arc<str>` so
    /// fabric duplicates and classification share one allocation.
    pub chaos_identity: Option<Arc<str>>,
}

impl ProbeRecord {
    /// Round-trip time computed from echoed transmit time, as the real tool
    /// does (`None` when attribution is unavailable).
    pub fn rtt_ms(&self) -> Option<u64> {
        self.tx_time_ms.map(|tx| self.rx_time_ms.saturating_sub(tx))
    }
}

/// The canonical record order: a total order over every field of a
/// [`ProbeRecord`], so records that compare equal are field-identical and
/// the sorted multiset is unique whatever sort strategy or input order
/// produced it. The key leads with the census fields
/// `(prefix, tx_worker, rx_worker, tx_time_ms, rx_time_ms)`; `protocol`
/// and `chaos_identity` break the remaining ties (static-encoding CHAOS
/// replies can tie on the first five while disclosing different
/// identities).
pub(crate) fn canonical_cmp(a: &ProbeRecord, b: &ProbeRecord) -> Ordering {
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
}

/// Sort records into the canonical order ([`canonical_cmp`]), in place.
/// The sort detects an already-sorted slice in one linear pass, which is
/// what the block-sorted shard arenas hand it in the common case.
pub(crate) fn sort_canonical(records: &mut [ProbeRecord]) {
    records.sort_unstable_by(canonical_cmp);
}

/// Shard-local accumulation of in-flight [`ProbeRecord`]s.
///
/// Each shard of the sharded stream pushes the records its deliveries
/// produce into its own arena — no locks, no per-record channel sends, no
/// cross-shard sharing — and the Orchestrator merges all arenas exactly
/// once at seal time into the canonical record vector.
///
/// The arena is *block-sorted*: after every batch round in which all of a
/// shard's senders flushed, the shard calls `RecordArena::sort_block`,
/// which sorts the records pushed since the previous block while they are
/// still in cache. A prefix-sorted hitlist then yields arenas that are
/// each canonically sorted, and their shard-order concatenation is too,
/// so the seal's backstop sort only verifies the order in one linear
/// pass. That moved the seal's sorting onto the shard threads: on a
/// paper-scale ICMPv4 stage (8.74 M records, 2 shards, 2-core host) the
/// serial global sort took 2.14–2.19 s, and the backstop pass over
/// block-sorted arenas takes 0.14 s.
///
/// The canonical output is a *sorted multiset*, so neither the shard
/// order of the merge nor the within-arena order can show in the outcome:
/// block sorting only makes the backstop cheap, never changes its result.
#[derive(Debug, Default)]
pub struct RecordArena {
    records: Vec<ProbeRecord>,
    /// Length of the prefix already sorted block by block.
    sorted: usize,
}

impl RecordArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty arena pre-sized for `n` records.
    pub fn with_capacity(n: usize) -> Self {
        RecordArena {
            records: Vec::with_capacity(n),
            sorted: 0,
        }
    }

    /// Append one record.
    #[inline]
    pub fn push(&mut self, record: ProbeRecord) {
        self.records.push(record);
    }

    /// Records accumulated so far.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Canonically sort the records pushed since the last call, closing
    /// them into one block.
    pub(crate) fn sort_block(&mut self) {
        sort_canonical(&mut self.records[self.sorted..]);
        self.sorted = self.records.len();
    }

    /// Concatenate shard arenas in the given order into one record vector
    /// (a multiset — the caller applies the canonical sort). The first
    /// non-empty arena donates its buffer, so the peak is one full-size
    /// buffer plus the arenas not yet moved, never two full-size buffers.
    pub fn merge(arenas: Vec<RecordArena>) -> Vec<ProbeRecord> {
        let total: usize = arenas.iter().map(RecordArena::len).sum();
        let mut arenas = arenas.into_iter().skip_while(RecordArena::is_empty);
        let mut base = arenas.next().map(|a| a.records).unwrap_or_default();
        base.reserve_exact(total - base.len());
        for arena in arenas {
            base.extend(arena.records);
        }
        base
    }
}

/// What one worker observed about its own run, merged by the Orchestrator
/// into the run report. Every field is a sum of per-probe / per-capture
/// contributions, so the merged totals are independent of shard layout
/// and thread scheduling (the obs determinism rules).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerTelemetry {
    /// Probes the worker transmitted.
    pub probes_sent: u64,
    /// Replies the wire delivered back to the worker's sends.
    pub replies_delivered: u64,
    /// Sends that elicited no delivery (dead target, loss, unroutable).
    pub unanswered: u64,
    /// Deliveries the capture fabric dropped at this worker's send side.
    pub fabric_dropped: u64,
    /// Deliveries the capture fabric duplicated at this worker's send side.
    pub fabric_duplicated: u64,
    /// Validated captures the worker streamed out as records.
    pub records_streamed: u64,
    /// Captures rejected by the filter (other measurements, backscatter).
    pub captures_rejected: u64,
}

/// Terminal state of one worker within a measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkerStatus {
    /// The worker processed its whole order stream and drained captures.
    Completed,
    /// The worker disconnected mid-measurement or rejected its start
    /// order; its remaining probes and its captures are lost.
    Failed,
}

/// Per-worker health entry in a [`MeasurementOutcome`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerHealth {
    /// Worker id.
    pub worker: u16,
    /// How the worker ended.
    pub status: WorkerStatus,
    /// Probes the worker transmitted.
    pub probes_sent: u64,
}

/// Aggregated outcome of one measurement, as assembled at the CLI.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MeasurementOutcome {
    /// Measurement id.
    pub measurement_id: u32,
    /// Probing platform.
    pub platform: PlatformId,
    /// Protocol probed.
    pub protocol: Protocol,
    /// Number of workers that started.
    pub n_workers: usize,
    /// Total probes transmitted across workers.
    pub probes_sent: u64,
    /// Number of targets in the hitlist.
    pub n_targets: usize,
    /// Every captured reply, in canonical order (sorted, so equal runs
    /// serialise identically).
    pub records: Vec<ProbeRecord>,
    /// Workers that failed mid-measurement.
    pub failed_workers: Vec<u16>,
    /// Terminal state of every worker, sorted by worker id.
    pub worker_health: Vec<WorkerHealth>,
    /// Everything the run observed about itself: per-worker and aggregate
    /// counters, the RTT distribution, stage timing on the simulated
    /// clock, and the typed degradation events (worker failures, seal
    /// rejections, mid-stream aborts). Replaces PR 1's `degraded: bool`;
    /// the bool is now derived via [`MeasurementOutcome::is_degraded`].
    /// Consumers (the census pipeline) publish degraded runs anyway but
    /// must carry the reasons forward.
    pub telemetry: RunReport,
    /// Shard-layout diagnostics: per-shard stage timings (slice bounds,
    /// probe counts, sim-clock spans) for the sharded hitlist stream.
    /// Unlike [`telemetry`](MeasurementOutcome::telemetry), this report
    /// depends on `spec.shards` — one child stage per shard — so it is
    /// excluded from the cross-shard-count invariance contract (and from
    /// it alone; it is still bit-identical across reruns at a fixed shard
    /// count).
    pub shard_report: RunReport,
    /// The flight recorder's causal event log for this measurement
    /// (empty and disabled unless the spec enabled tracing). Feed it to
    /// [`laces_trace::TraceReport::explain`] to justify a verdict.
    pub trace_report: laces_trace::TraceReport,
}

impl MeasurementOutcome {
    /// Whether the measurement ran degraded: at least one worker failed,
    /// or an abort was requested mid-run (even one that landed after the
    /// hitlist had fully streamed — a disconnected CLI makes the run
    /// suspect regardless of how much survived).
    pub fn is_degraded(&self) -> bool {
        self.telemetry.is_degraded()
    }

    /// The typed events that degraded this measurement.
    pub fn degraded_reasons(&self) -> &[DegradedReason] {
        self.telemetry.degraded_reasons()
    }
}

impl Degraded for MeasurementOutcome {
    fn degraded_reasons(&self) -> &[DegradedReason] {
        self.telemetry.degraded_reasons()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(rx: u16, t: u64) -> ProbeRecord {
        ProbeRecord {
            prefix: PrefixKey::of("10.0.0.1".parse().unwrap()),
            protocol: Protocol::Icmp,
            rx_worker: rx,
            tx_worker: Some(0),
            tx_time_ms: Some(0),
            rx_time_ms: t,
            chaos_identity: None,
        }
    }

    fn keys(records: &[ProbeRecord]) -> Vec<(u16, u64)> {
        records
            .iter()
            .map(|r| (r.rx_worker, r.rx_time_ms))
            .collect()
    }

    #[test]
    fn arena_merge_preserves_the_multiset() {
        let rec = |rx: u16, t: u64| ProbeRecord {
            prefix: PrefixKey::of("10.0.0.1".parse().unwrap()),
            protocol: Protocol::Icmp,
            rx_worker: rx,
            tx_worker: Some(0),
            tx_time_ms: Some(0),
            rx_time_ms: t,
            chaos_identity: None,
        };
        let mut a = RecordArena::new();
        let mut b = RecordArena::with_capacity(4);
        let c = RecordArena::new();
        a.push(rec(0, 1));
        b.push(rec(1, 2));
        b.push(rec(1, 2)); // fabric duplicate: multiset keeps both
        b.push(rec(2, 3));
        assert_eq!(a.len(), 1);
        assert!(!b.is_empty());
        assert!(c.is_empty());
        let mut merged = RecordArena::merge(vec![a, b, c]);
        assert_eq!(merged.len(), 4);
        merged.sort_unstable_by_key(|r| (r.rx_worker, r.rx_time_ms));
        let keys: Vec<(u16, u64)> = merged.iter().map(|r| (r.rx_worker, r.rx_time_ms)).collect();
        assert_eq!(keys, vec![(0, 1), (1, 2), (1, 2), (2, 3)]);
    }

    #[test]
    fn arena_merge_concatenates_in_arena_order() {
        let mut a = RecordArena::new();
        let mut b = RecordArena::new();
        a.push(rec(2, 3));
        b.push(rec(1, 2));
        b.push(rec(0, 1));
        let merged = RecordArena::merge(vec![RecordArena::new(), a, b, RecordArena::new()]);
        assert_eq!(keys(&merged), vec![(2, 3), (1, 2), (0, 1)]);
        assert!(RecordArena::merge(vec![RecordArena::new()]).is_empty());
        assert!(RecordArena::merge(Vec::new()).is_empty());
    }

    #[test]
    fn sort_block_sorts_only_the_records_since_the_last_block() {
        let mut arena = RecordArena::new();
        arena.push(rec(5, 1));
        arena.push(rec(4, 1));
        arena.sort_block();
        arena.push(rec(3, 1));
        arena.push(rec(2, 1));
        arena.sort_block();
        arena.sort_block(); // an empty block is a no-op
        arena.push(rec(1, 1));
        assert_eq!(
            keys(&RecordArena::merge(vec![arena])),
            vec![(4, 1), (5, 1), (2, 1), (3, 1), (1, 1)]
        );
    }

    #[test]
    fn canonical_order_is_total_over_every_field() {
        // Static-encoding CHAOS replies: equal on the census 5-tuple,
        // different in protocol or disclosed identity.
        let base = ProbeRecord {
            tx_worker: None,
            tx_time_ms: None,
            ..rec(7, 10)
        };
        let chaos = |id: &str| ProbeRecord {
            protocol: Protocol::Chaos,
            chaos_identity: Some(id.into()),
            ..base.clone()
        };
        let sorted = vec![base.clone(), chaos("ams01"), chaos("fra02")];
        for start in 0..sorted.len() {
            let mut v = sorted.clone();
            v.rotate_left(start);
            v.reverse();
            sort_canonical(&mut v);
            assert_eq!(v, sorted, "rotation {start}");
        }
        for (a, b) in sorted.iter().zip(&sorted[1..]) {
            assert_eq!(canonical_cmp(a, b), Ordering::Less);
        }
        assert_eq!(canonical_cmp(&base, &base.clone()), Ordering::Equal);
    }

    #[test]
    fn rtt_from_echoed_time() {
        let r = ProbeRecord {
            prefix: PrefixKey::of("10.0.0.1".parse().unwrap()),
            protocol: Protocol::Icmp,
            rx_worker: 3,
            tx_worker: Some(1),
            tx_time_ms: Some(100),
            rx_time_ms: 142,
            chaos_identity: None,
        };
        assert_eq!(r.rtt_ms(), Some(42));
    }

    #[test]
    fn rtt_unavailable_without_attribution() {
        let r = ProbeRecord {
            prefix: PrefixKey::of("10.0.0.1".parse().unwrap()),
            protocol: Protocol::Icmp,
            rx_worker: 3,
            tx_worker: None,
            tx_time_ms: None,
            rx_time_ms: 142,
            chaos_identity: None,
        };
        assert_eq!(r.rtt_ms(), None);
    }

    #[test]
    fn rtt_saturates_on_clock_skew() {
        let r = ProbeRecord {
            prefix: PrefixKey::of("10.0.0.1".parse().unwrap()),
            protocol: Protocol::Tcp,
            rx_worker: 0,
            tx_worker: Some(0),
            tx_time_ms: Some(500),
            rx_time_ms: 400,
            chaos_identity: None,
        };
        assert_eq!(r.rtt_ms(), Some(0));
    }
}
