//! The handle-based census query service.
//!
//! [`QueryService`] answers the consumer-side query kinds — point lookup,
//! prefix history, AS ranking, day-over-day diff, per-site AT lists, day
//! summaries — from the per-day index sidecars, reading only the touched
//! sections of the touched days plus the one record span a full-record
//! fetch needs. An LRU day cache (bounded by [`cache_budget`]) keeps hot
//! days resident; answers are byte-identical regardless of cache state,
//! open order, or day-visit order, because every answer is a pure function
//! of the on-disk sidecars.
//!
//! [`cache_budget`]: QueryServiceBuilder::cache_budget

use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use laces_obs::{names, RunReport};
use laces_packet::PrefixKey;

use crate::diff_types::{CensusDiff, FootprintChange};
use crate::error::QueryError;
use crate::idx::{
    decode_as_postings, decode_city_ids, decode_city_postings, decode_city_strs, decode_header,
    decode_prefixes, decode_summary, encode_key, fnv1a, index_file_name, AsPosting, DaySummary,
    Entry, Header, Postings, FLAG_ANYCAST_BASED, FLAG_GCD_CONFIRMED, FLAG_HAS_GCD, FLAG_PARTIAL,
    HEADER_LEN, SEC_AS_POSTINGS, SEC_CITY_IDS, SEC_CITY_POSTINGS, SEC_CITY_STRS, SEC_PREFIXES,
    SEC_SUMMARY,
};
use crate::ranking::{rank_from_counts, AsnRank};

/// Default cache budget: 64 MiB of resident index sections.
pub const DEFAULT_CACHE_BUDGET: u64 = 64 << 20;

/// Everything the index knows about one prefix on one day, without
/// touching the day's JSONL. [`QueryService::record_json`] fetches the
/// full published record when the point answer is not enough.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixPoint {
    /// The day.
    pub day: u32,
    /// The prefix.
    pub prefix: PrefixKey,
    /// Any anycast-based protocol verdict is anycast.
    pub anycast_based_positive: bool,
    /// GCD confirmed anycast.
    pub gcd_confirmed: bool,
    /// The record carries a GCD summary.
    pub has_gcd: bool,
    /// Partial-anycast flag.
    pub partial: bool,
    /// Maximum receiving-VP count across protocols.
    pub max_vps: usize,
    /// iGreedy-enumerated site count.
    pub n_sites: usize,
    /// Origin AS, when the announcement tables resolved one.
    pub origin_asn: Option<u32>,
    /// Geolocated site cities, in record order.
    pub cities: Vec<String>,
    /// Byte span of the full record in the day's JSONL.
    pub record_offset: u64,
    /// Length of that span (excluding the newline).
    pub record_len: u32,
}

/// Builder for [`QueryService`] — `QueryService::open(store).days(..).cache_budget(..).build()?`.
#[derive(Debug, Clone)]
pub struct QueryServiceBuilder {
    dir: PathBuf,
    days: Option<Vec<u32>>,
    cache_budget: u64,
}

impl QueryServiceBuilder {
    /// Restrict the service to these days (default: every indexed day in
    /// the store). The service's day order is always ascending.
    pub fn days(mut self, days: impl IntoIterator<Item = u32>) -> Self {
        let mut v: Vec<u32> = days.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        self.days = Some(v);
        self
    }

    /// Bound the resident index-section cache, in bytes. Loading a day
    /// past the budget evicts least-recently-touched days; the most
    /// recently touched day is never evicted, so a single oversized day
    /// still works. Budget only affects I/O volume, never answers.
    pub fn cache_budget(mut self, bytes: u64) -> Self {
        self.cache_budget = bytes;
        self
    }

    /// Open the service: enumerate the store's index sidecars and validate
    /// the requested day set. No index bytes are read yet — headers and
    /// sections load lazily on first touch.
    pub fn build(self) -> Result<QueryService, QueryError> {
        let mut available: Vec<u32> = Vec::new();
        let dir_iter = std::fs::read_dir(&self.dir).map_err(|source| QueryError::Io {
            path: self.dir.clone(),
            source,
        })?;
        for entry in dir_iter {
            let entry = entry.map_err(|source| QueryError::Io {
                path: self.dir.clone(),
                source,
            })?;
            let is_file = entry.file_type().map(|t| t.is_file()).unwrap_or(false);
            if !is_file {
                continue;
            }
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(day) = parse_index_name(&name) {
                available.push(day);
            }
        }
        available.sort_unstable();
        available.dedup();
        let days = match self.days {
            Some(requested) => {
                for d in &requested {
                    if available.binary_search(d).is_err() {
                        return Err(QueryError::MissingIndex {
                            day: *d,
                            path: self.dir.join(index_file_name(*d)),
                        });
                    }
                }
                requested
            }
            None => available,
        };
        if days.is_empty() {
            return Err(QueryError::NoDays);
        }
        let handles = days
            .iter()
            .map(|&day| DayHandle::new(&self.dir, day))
            .collect();
        Ok(QueryService {
            dir: self.dir,
            days,
            handles,
            cache_budget: self.cache_budget,
            resident_bytes: 0,
            clock: 0,
            telemetry: RunReport::new(),
        })
    }
}

/// Strict `census-day-NNNNN.idx` name → day. At least five digits, digits
/// only — foreign files never parse.
fn parse_index_name(name: &str) -> Option<u32> {
    let rest = name.strip_prefix("census-day-")?;
    let num = rest.strip_suffix(".idx")?;
    if num.len() < 5 || !num.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    num.parse().ok()
}

/// The decoded `AS_POSTINGS` section: the per-AS rows plus the flat
/// record-position postings they index into.
type AsPostingsSection = (Vec<AsPosting>, Vec<u32>);

/// One day's on-disk artifact map plus its degraded flag — the
/// operational "what does this day carry" answer, from
/// [`QueryService::day_artifacts`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DayArtifacts {
    /// The day.
    pub day: u32,
    /// The day ran degraded (from the index summary; equals
    /// `!store.load_telemetry(day).degraded_reasons().is_empty()`).
    pub degraded: bool,
    /// The published records (`census-day-NNNNN.jsonl`).
    pub records: PathBuf,
    /// The binary query index sidecar.
    pub index: PathBuf,
    /// The stats sidecar, when present.
    pub stats: Option<PathBuf>,
    /// The greppable telemetry JSONL sidecar, when present.
    pub telemetry: Option<PathBuf>,
    /// The flight-recorder event log, when the day ran with tracing.
    pub trace: Option<PathBuf>,
    /// The Chrome trace-event file, when the day ran with tracing.
    pub chrome_trace: Option<PathBuf>,
    /// The longitudinal health point (`laces-health` sidecar), when
    /// present.
    pub health_series: Option<PathBuf>,
}

/// Per-day lazy state: paths always, header and sections on first touch.
#[derive(Debug)]
struct DayHandle {
    day: u32,
    idx_path: PathBuf,
    jsonl_path: PathBuf,
    header: Option<Header>,
    prefixes: Option<Arc<Vec<Entry>>>,
    cities: Option<Arc<Vec<String>>>,
    city_ids: Option<Arc<Vec<u32>>>,
    city_postings: Option<Arc<Postings>>,
    as_postings: Option<Arc<AsPostingsSection>>,
    summary: Option<Arc<DaySummary>>,
    resident: u64,
    last_touch: u64,
}

impl DayHandle {
    fn new(dir: &Path, day: u32) -> Self {
        DayHandle {
            day,
            idx_path: dir.join(index_file_name(day)),
            jsonl_path: dir.join(format!("census-day-{day:05}.jsonl")),
            header: None,
            prefixes: None,
            cities: None,
            city_ids: None,
            city_postings: None,
            as_postings: None,
            summary: None,
            resident: 0,
            last_touch: 0,
        }
    }

    fn drop_resident(&mut self) -> u64 {
        let freed = self.resident;
        self.header = None;
        self.prefixes = None;
        self.cities = None;
        self.city_ids = None;
        self.city_postings = None;
        self.as_postings = None;
        self.summary = None;
        self.resident = 0;
        freed
    }
}

/// The indexed census read handle. All methods take `&mut self` (the
/// cache mutates); answers are pure functions of the sidecar files.
#[derive(Debug)]
pub struct QueryService {
    dir: PathBuf,
    days: Vec<u32>,
    handles: Vec<DayHandle>,
    cache_budget: u64,
    resident_bytes: u64,
    clock: u64,
    telemetry: RunReport,
}

/// Up-front buffer reservation of [`read_at`]; longer reads grow with the
/// bytes actually read. Covers every record span and small section.
const READ_PREALLOC: usize = 64 * 1024;

/// Read `len` bytes at `offset` of `path` — the service's only file
/// access primitive; nothing ever reads a whole day file. `len` comes
/// from an index header whose fingerprint is unkeyed, so it is untrusted:
/// the read goes through [`Read::take`] and the buffer grows only with
/// the bytes the file actually holds, and a short read is
/// [`QueryError::Corrupt`].
fn read_at(path: &Path, offset: u64, len: usize, day: u32) -> Result<Vec<u8>, QueryError> {
    let map_io = |source: std::io::Error| {
        if source.kind() == std::io::ErrorKind::NotFound {
            QueryError::MissingIndex {
                day,
                path: path.to_path_buf(),
            }
        } else {
            QueryError::Io {
                path: path.to_path_buf(),
                source,
            }
        }
    };
    let mut f = std::fs::File::open(path).map_err(map_io)?;
    f.seek(SeekFrom::Start(offset)).map_err(map_io)?;
    let short_read = |detail: String| QueryError::Corrupt {
        day,
        detail: format!(
            "short read at {offset}+{len} of {}: {detail}",
            path.display()
        ),
    };
    let mut buf = Vec::with_capacity(len.min(READ_PREALLOC));
    f.take(len as u64)
        .read_to_end(&mut buf)
        .map_err(|source| short_read(source.to_string()))?;
    if buf.len() != len {
        return Err(short_read(format!("only {} bytes present", buf.len())));
    }
    Ok(buf)
}

impl QueryService {
    /// Start building a service over a store directory. Accepts anything
    /// path-like — in particular `&CensusStore` via its `AsRef<Path>`.
    pub fn open(store: impl AsRef<Path>) -> QueryServiceBuilder {
        QueryServiceBuilder {
            dir: store.as_ref().to_path_buf(),
            days: None,
            cache_budget: DEFAULT_CACHE_BUDGET,
        }
    }

    /// The days this service answers for, ascending.
    pub fn days(&self) -> &[u32] {
        &self.days
    }

    /// The store directory.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// Query-side telemetry: lookup and cache counters plus residency
    /// gauges, in the workspace's standard [`RunReport`] shape.
    pub fn telemetry(&self) -> &RunReport {
        &self.telemetry
    }

    /// Drop every resident section (the cache, not the service). Answers
    /// after a clear are identical to answers before it.
    pub fn clear_cache(&mut self) {
        for h in &mut self.handles {
            h.drop_resident();
        }
        self.resident_bytes = 0;
        self.update_gauges();
    }

    // -- cache plumbing -----------------------------------------------------

    fn pos_of(&self, day: u32) -> Result<usize, QueryError> {
        self.days
            .binary_search(&day)
            .map_err(|_| QueryError::UnknownDay { day })
    }

    fn touch(&mut self, pos: usize) {
        self.clock += 1;
        self.handles[pos].last_touch = self.clock;
    }

    fn update_gauges(&mut self) {
        self.telemetry
            .set_gauge(names::query::RESIDENT_BYTES, self.resident_bytes);
        let resident_days = self.handles.iter().filter(|h| h.resident > 0).count();
        self.telemetry
            .set_gauge(names::query::RESIDENT_DAYS, resident_days as u64);
    }

    fn account(&mut self, pos: usize, bytes: u64) {
        self.handles[pos].resident += bytes;
        self.resident_bytes += bytes;
        self.evict_over_budget(pos);
        self.update_gauges();
    }

    /// Evict least-recently-touched days until within budget. The day at
    /// `protect` (the one being served) is never evicted.
    fn evict_over_budget(&mut self, protect: usize) {
        while self.resident_bytes > self.cache_budget {
            let victim = self
                .handles
                .iter()
                .enumerate()
                .filter(|(i, h)| *i != protect && h.resident > 0)
                .min_by_key(|(_, h)| h.last_touch)
                .map(|(i, _)| i);
            let Some(v) = victim else { break };
            let freed = self.handles[v].drop_resident();
            self.resident_bytes -= freed;
            self.telemetry.inc(names::query::CACHE_EVICTIONS, 1);
        }
    }

    fn header(&mut self, pos: usize) -> Result<Header, QueryError> {
        self.touch(pos);
        if let Some(h) = self.handles[pos].header {
            self.telemetry.inc(names::query::CACHE_HITS, 1);
            return Ok(h);
        }
        self.telemetry.inc(names::query::CACHE_MISSES, 1);
        let day = self.handles[pos].day;
        let path = self.handles[pos].idx_path.clone();
        let bytes = read_at(&path, 0, HEADER_LEN, day)?;
        let h = decode_header(&bytes, day)?;
        self.handles[pos].header = Some(h);
        self.telemetry.inc(names::query::DAYS_OPENED, 1);
        self.telemetry
            .inc(names::query::INDEX_BYTES_READ, HEADER_LEN as u64);
        self.account(pos, HEADER_LEN as u64);
        Ok(h)
    }

    fn read_section(&mut self, pos: usize, sec: usize) -> Result<Vec<u8>, QueryError> {
        let h = self.header(pos)?;
        let day = self.handles[pos].day;
        let (offset, len, fp) = h.sections[sec];
        let path = self.handles[pos].idx_path.clone();
        let bytes = read_at(&path, offset, len as usize, day)?;
        if fnv1a(&bytes) != fp {
            return Err(QueryError::Corrupt {
                day,
                detail: format!("section {sec} fingerprint mismatch"),
            });
        }
        self.telemetry.inc(names::query::SECTIONS_LOADED, 1);
        self.telemetry.inc(names::query::INDEX_BYTES_READ, len);
        Ok(bytes)
    }

    fn prefixes(&mut self, pos: usize) -> Result<Arc<Vec<Entry>>, QueryError> {
        self.touch(pos);
        if let Some(p) = &self.handles[pos].prefixes {
            self.telemetry.inc(names::query::CACHE_HITS, 1);
            return Ok(Arc::clone(p));
        }
        self.telemetry.inc(names::query::CACHE_MISSES, 1);
        let bytes = self.read_section(pos, SEC_PREFIXES)?;
        let h = self.header(pos)?;
        let arc = Arc::new(decode_prefixes(&bytes, &h)?);
        self.handles[pos].prefixes = Some(Arc::clone(&arc));
        self.account(pos, bytes.len() as u64);
        Ok(arc)
    }

    fn cities(&mut self, pos: usize) -> Result<Arc<Vec<String>>, QueryError> {
        self.touch(pos);
        if let Some(c) = &self.handles[pos].cities {
            self.telemetry.inc(names::query::CACHE_HITS, 1);
            return Ok(Arc::clone(c));
        }
        self.telemetry.inc(names::query::CACHE_MISSES, 1);
        let bytes = self.read_section(pos, SEC_CITY_STRS)?;
        let h = self.header(pos)?;
        let arc = Arc::new(decode_city_strs(&bytes, &h)?);
        self.handles[pos].cities = Some(Arc::clone(&arc));
        self.account(pos, bytes.len() as u64);
        Ok(arc)
    }

    fn city_ids(&mut self, pos: usize) -> Result<Arc<Vec<u32>>, QueryError> {
        self.touch(pos);
        if let Some(c) = &self.handles[pos].city_ids {
            self.telemetry.inc(names::query::CACHE_HITS, 1);
            return Ok(Arc::clone(c));
        }
        self.telemetry.inc(names::query::CACHE_MISSES, 1);
        let bytes = self.read_section(pos, SEC_CITY_IDS)?;
        let h = self.header(pos)?;
        let arc = Arc::new(decode_city_ids(&bytes, &h)?);
        self.handles[pos].city_ids = Some(Arc::clone(&arc));
        self.account(pos, bytes.len() as u64);
        Ok(arc)
    }

    fn city_postings(&mut self, pos: usize) -> Result<Arc<Postings>, QueryError> {
        self.touch(pos);
        if let Some(p) = &self.handles[pos].city_postings {
            self.telemetry.inc(names::query::CACHE_HITS, 1);
            return Ok(Arc::clone(p));
        }
        self.telemetry.inc(names::query::CACHE_MISSES, 1);
        let bytes = self.read_section(pos, SEC_CITY_POSTINGS)?;
        let h = self.header(pos)?;
        let arc = Arc::new(decode_city_postings(&bytes, &h)?);
        self.handles[pos].city_postings = Some(Arc::clone(&arc));
        self.account(pos, bytes.len() as u64);
        Ok(arc)
    }

    fn as_postings(&mut self, pos: usize) -> Result<Arc<AsPostingsSection>, QueryError> {
        self.touch(pos);
        if let Some(p) = &self.handles[pos].as_postings {
            self.telemetry.inc(names::query::CACHE_HITS, 1);
            return Ok(Arc::clone(p));
        }
        self.telemetry.inc(names::query::CACHE_MISSES, 1);
        let bytes = self.read_section(pos, SEC_AS_POSTINGS)?;
        let h = self.header(pos)?;
        let arc = Arc::new(decode_as_postings(&bytes, &h)?);
        self.handles[pos].as_postings = Some(Arc::clone(&arc));
        self.account(pos, bytes.len() as u64);
        Ok(arc)
    }

    fn summary_arc(&mut self, pos: usize) -> Result<Arc<DaySummary>, QueryError> {
        self.touch(pos);
        if let Some(s) = &self.handles[pos].summary {
            self.telemetry.inc(names::query::CACHE_HITS, 1);
            return Ok(Arc::clone(s));
        }
        self.telemetry.inc(names::query::CACHE_MISSES, 1);
        let bytes = self.read_section(pos, SEC_SUMMARY)?;
        let h = self.header(pos)?;
        let arc = Arc::new(decode_summary(&bytes, &h)?);
        self.handles[pos].summary = Some(Arc::clone(&arc));
        self.account(pos, bytes.len() as u64);
        Ok(arc)
    }

    fn entry_of(
        &mut self,
        pos: usize,
        prefix: PrefixKey,
    ) -> Result<Option<(usize, Entry)>, QueryError> {
        let entries = self.prefixes(pos)?;
        let key = encode_key(prefix);
        match entries.binary_search_by_key(&key, |e| (e.key_tag, e.key_net)) {
            Ok(i) => Ok(Some((i, entries[i]))),
            Err(_) => Ok(None),
        }
    }

    fn point_of_entry(&mut self, pos: usize, e: Entry) -> Result<PrefixPoint, QueryError> {
        let day = self.handles[pos].day;
        let cities = if e.city_count == 0 {
            Vec::new()
        } else {
            let names = self.cities(pos)?;
            let ids = self.city_ids(pos)?;
            let start = e.city_first as usize;
            let end = start + usize::from(e.city_count);
            let span = ids.get(start..end).ok_or_else(|| QueryError::Corrupt {
                day,
                detail: format!("city span {start}..{end} out of range"),
            })?;
            let mut out = Vec::with_capacity(span.len());
            for id in span {
                let name = names.get(*id as usize).ok_or_else(|| QueryError::Corrupt {
                    day,
                    detail: format!("city id {id} out of range"),
                })?;
                out.push(name.clone());
            }
            out
        };
        Ok(PrefixPoint {
            day,
            prefix: e.prefix(day)?,
            anycast_based_positive: e.flags & FLAG_ANYCAST_BASED != 0,
            gcd_confirmed: e.flags & FLAG_GCD_CONFIRMED != 0,
            has_gcd: e.flags & FLAG_HAS_GCD != 0,
            partial: e.flags & FLAG_PARTIAL != 0,
            max_vps: e.max_vps as usize,
            n_sites: e.n_sites as usize,
            origin_asn: e.origin_asn(),
            cities,
            record_offset: e.offset,
            record_len: e.len,
        })
    }

    // -- query kinds --------------------------------------------------------

    /// Point lookup: one prefix on one day, from the index alone.
    /// `Ok(None)` means the day published no record for the prefix.
    pub fn point(
        &mut self,
        day: u32,
        prefix: PrefixKey,
    ) -> Result<Option<PrefixPoint>, QueryError> {
        let pos = self.pos_of(day)?;
        self.telemetry.inc(names::query::POINT_LOOKUPS, 1);
        match self.entry_of(pos, prefix)? {
            Some((_, e)) => Ok(Some(self.point_of_entry(pos, e)?)),
            None => Ok(None),
        }
    }

    /// Fetch the full published JSONL record for one prefix on one day —
    /// the only query that touches the day file, and it reads exactly the
    /// record's byte span.
    pub fn record_json(
        &mut self,
        day: u32,
        prefix: PrefixKey,
    ) -> Result<Option<String>, QueryError> {
        let pos = self.pos_of(day)?;
        let Some((_, e)) = self.entry_of(pos, prefix)? else {
            return Ok(None);
        };
        let path = self.handles[pos].jsonl_path.clone();
        let bytes = read_at(&path, e.offset, e.len as usize, day)?;
        self.telemetry
            .inc(names::query::RECORD_BYTES_READ, u64::from(e.len));
        let s = String::from_utf8(bytes).map_err(|err| QueryError::Corrupt {
            day,
            detail: format!("record span not utf-8: {err}"),
        })?;
        Ok(Some(s))
    }

    /// The history of one prefix over every selected day:
    /// `(day, anycast_based?, gcd_confirmed?)`, answered from prefix
    /// tables only.
    pub fn history(&mut self, prefix: PrefixKey) -> Result<Vec<(u32, bool, bool)>, QueryError> {
        let days = self.days.clone();
        let mut out = Vec::with_capacity(days.len());
        for day in days {
            out.push(self.day_presence(day, prefix)?);
        }
        Ok(out)
    }

    /// [`history`](Self::history) restricted to `lo..=hi`.
    pub fn history_between(
        &mut self,
        prefix: PrefixKey,
        lo: u32,
        hi: u32,
    ) -> Result<Vec<(u32, bool, bool)>, QueryError> {
        let days: Vec<u32> = self
            .days
            .iter()
            .copied()
            .filter(|d| (lo..=hi).contains(d))
            .collect();
        let mut out = Vec::with_capacity(days.len());
        for day in days {
            out.push(self.day_presence(day, prefix)?);
        }
        Ok(out)
    }

    fn day_presence(
        &mut self,
        day: u32,
        prefix: PrefixKey,
    ) -> Result<(u32, bool, bool), QueryError> {
        let pos = self.pos_of(day)?;
        self.telemetry.inc(names::query::POINT_LOOKUPS, 1);
        Ok(match self.entry_of(pos, prefix)? {
            Some((_, e)) => (
                day,
                e.flags & FLAG_ANYCAST_BASED != 0,
                e.flags & FLAG_GCD_CONFIRMED != 0,
            ),
            None => (day, false, false),
        })
    }

    /// Per-day GCD-confirmed counts over every selected day, answered
    /// from day summaries only.
    pub fn daily_confirmed_counts(&mut self) -> Result<BTreeMap<u32, usize>, QueryError> {
        let days = self.days.clone();
        let mut out = BTreeMap::new();
        for day in days {
            let s = self.summary(day)?;
            out.insert(day, s.n_gcd_confirmed as usize);
        }
        Ok(out)
    }

    /// One day's aggregates, from the summary section only.
    pub fn summary(&mut self, day: u32) -> Result<DaySummary, QueryError> {
        let pos = self.pos_of(day)?;
        Ok((*self.summary_arc(pos)?).clone())
    }

    /// One day's artifact map: the degraded flag from the summary
    /// section plus the paths of every sidecar the store publishes for
    /// the day. The records and index paths always exist for a served
    /// day; the optional sidecars (telemetry, stats, trace,
    /// health series) are reported only when present on disk, so a
    /// monitoring consumer can see at a glance which observability
    /// surfaces the day carries.
    pub fn day_artifacts(&mut self, day: u32) -> Result<DayArtifacts, QueryError> {
        // laces-lint: allow(degraded-bypass) — carrying the already-derived summary flag; it was read through the Degraded trait at save time
        let degraded = self.summary(day)?.degraded;
        let stem = format!("census-day-{day:05}");
        let optional = |ext: &str| {
            let path = self.dir.join(format!("{stem}.{ext}"));
            path.exists().then_some(path)
        };
        Ok(DayArtifacts {
            day,
            degraded,
            records: self.dir.join(format!("{stem}.jsonl")),
            index: self.dir.join(index_file_name(day)),
            stats: optional("stats.json"),
            telemetry: optional("telemetry.jsonl"),
            trace: optional("trace.jsonl"),
            chrome_trace: optional("trace.chrome.json"),
            health_series: optional("health.series"),
        })
    }

    /// Table 6: origin ASes ranked by anycast prefixes originated on one
    /// day, from the AS postings only. A record counts toward its origin
    /// AS when either methodology saw anycast.
    pub fn asn_ranking(&mut self, day: u32) -> Result<Vec<AsnRank>, QueryError> {
        let pos = self.pos_of(day)?;
        let postings = self.as_postings(pos)?;
        let mut counts: BTreeMap<u32, (usize, usize)> = BTreeMap::new();
        for a in &postings.0 {
            counts.insert(a.asn, (a.v4 as usize, a.v6 as usize));
        }
        Ok(rank_from_counts(counts))
    }

    /// Day-over-day diff (GCD view), identical to the eager
    /// `laces-census` `diff(before, after)` on the same two days.
    pub fn diff(&mut self, before: u32, after: u32) -> Result<CensusDiff, QueryError> {
        let b = self.confirmed_footprints(before)?;
        let a = self.confirmed_footprints(after)?;
        let b_keys: BTreeSet<PrefixKey> = b.keys().copied().collect();
        let a_keys: BTreeSet<PrefixKey> = a.keys().copied().collect();
        let mut out = CensusDiff {
            appeared: a_keys.difference(&b_keys).copied().collect(),
            disappeared: b_keys.difference(&a_keys).copied().collect(),
            footprint_changes: Vec::new(),
        };
        for p in b_keys.intersection(&a_keys) {
            let (Some((sites_b, cities_b)), Some((sites_a, cities_a))) = (b.get(p), a.get(p))
            else {
                continue;
            };
            let set_b: BTreeSet<&String> = cities_b.iter().collect();
            let set_a: BTreeSet<&String> = cities_a.iter().collect();
            if sites_b != sites_a || set_b != set_a {
                out.footprint_changes.push(FootprintChange {
                    prefix: *p,
                    sites_before: *sites_b,
                    sites_after: *sites_a,
                    cities_gained: set_a.difference(&set_b).map(|s| (*s).clone()).collect(),
                    cities_lost: set_b.difference(&set_a).map(|s| (*s).clone()).collect(),
                });
            }
        }
        out.footprint_changes.sort_by_key(|c| c.prefix);
        Ok(out)
    }

    /// GCD-confirmed prefixes of one day with `(n_sites, cities)`.
    fn confirmed_footprints(
        &mut self,
        day: u32,
    ) -> Result<BTreeMap<PrefixKey, (usize, Vec<String>)>, QueryError> {
        let pos = self.pos_of(day)?;
        let entries = self.prefixes(pos)?;
        let confirmed: Vec<Entry> = entries
            .iter()
            .filter(|e| e.flags & FLAG_GCD_CONFIRMED != 0 && e.flags & FLAG_HAS_GCD != 0)
            .copied()
            .collect();
        let mut out = BTreeMap::new();
        for e in confirmed {
            let point = self.point_of_entry(pos, e)?;
            out.insert(point.prefix, (point.n_sites, point.cities));
        }
        Ok(out)
    }

    /// The sites (geolocated cities) one day's census enumerated, with the
    /// number of distinct prefixes served from each: `(city, n_prefixes)`,
    /// sorted by city name.
    pub fn sites(&mut self, day: u32) -> Result<Vec<(String, usize)>, QueryError> {
        let pos = self.pos_of(day)?;
        let names = self.cities(pos)?;
        let postings = self.city_postings(pos)?;
        let mut out = Vec::with_capacity(names.len());
        for (i, name) in names.iter().enumerate() {
            out.push((name.clone(), postings.records_of(i, day)?.len()));
        }
        Ok(out)
    }

    /// The per-site AT list: every prefix a day's census geolocated to
    /// `city`, ascending. Unknown cities answer an empty list.
    pub fn site_prefixes(&mut self, day: u32, city: &str) -> Result<Vec<PrefixKey>, QueryError> {
        let pos = self.pos_of(day)?;
        let names = self.cities(pos)?;
        let Ok(city_idx) = names.binary_search_by(|n| n.as_str().cmp(city)) else {
            return Ok(Vec::new());
        };
        let postings = self.city_postings(pos)?;
        let entries = self.prefixes(pos)?;
        let recs = postings.records_of(city_idx, day)?;
        let mut out = Vec::with_capacity(recs.len());
        for r in recs {
            let e = entries
                .get(*r as usize)
                .ok_or_else(|| QueryError::Corrupt {
                    day,
                    detail: format!("posting record {r} out of range"),
                })?;
            out.push(e.prefix(day)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::idx::{build_index, IndexRecord, SummaryInput};
    use laces_packet::{Prefix24, Prefix48};

    fn v4(i: u32) -> PrefixKey {
        PrefixKey::V4(Prefix24::from_network(i << 8))
    }

    fn v6(i: u128) -> PrefixKey {
        PrefixKey::V6(Prefix48::from_network(i << 80))
    }

    /// Shorthand for the error half of the Result-returning tests below:
    /// query, io and index-build errors all propagate via `?`.
    type AnyError = Box<dyn std::error::Error>;

    /// Write a synthetic day: JSONL lines (one fake record per prefix) and
    /// the matching sidecar with real offsets.
    type FakeRow<'a> = (PrefixKey, bool, bool, &'a [&'a str], Option<u32>);

    fn write_day(dir: &Path, day: u32, prefixes: &[FakeRow]) -> Result<(), AnyError> {
        let mut sorted = prefixes.to_vec();
        sorted.sort_by_key(|p| p.0);
        let mut jsonl = String::new();
        let mut records = Vec::new();
        for (prefix, anycast, confirmed, cities, asn) in sorted {
            let line = format!("{{\"prefix\":\"{prefix:?}\",\"day\":{day}}}");
            let offset = jsonl.len() as u64;
            let len = line.len() as u32;
            jsonl.push_str(&line);
            jsonl.push('\n');
            records.push(IndexRecord {
                prefix,
                offset,
                len,
                anycast_based_positive: anycast,
                gcd_confirmed: confirmed,
                has_gcd: confirmed,
                partial: false,
                max_vps: 4,
                n_sites: cities.len(),
                origin_asn: asn,
                cities: cities.iter().map(|s| s.to_string()).collect(),
            });
        }
        let bytes = build_index(
            day,
            &records,
            SummaryInput {
                anycast_probes: 10,
                gcd_probes: 5,
                gcd_target_count: records.len() as u64,
                degraded: false,
            },
        )?;
        std::fs::write(dir.join(format!("census-day-{day:05}.jsonl")), jsonl)?;
        std::fs::write(dir.join(index_file_name(day)), bytes)?;
        Ok(())
    }

    fn tmpdir(tag: &str) -> Result<PathBuf, std::io::Error> {
        let d = std::env::temp_dir().join(format!("laces-query-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d)?;
        Ok(d)
    }

    fn two_day_store(tag: &str) -> Result<PathBuf, AnyError> {
        let dir = tmpdir(tag)?;
        write_day(
            &dir,
            1,
            &[
                (v4(1), true, true, &["Tokyo", "Paris"], Some(100)),
                (v4(2), true, false, &[], Some(100)),
                (v6(1), false, true, &["Lima"], Some(200)),
            ],
        )?;
        write_day(
            &dir,
            2,
            &[
                (v4(1), true, true, &["Tokyo", "Paris", "Sydney"], Some(100)),
                (v4(3), true, true, &["Lima"], None),
            ],
        )?;
        Ok(dir)
    }

    #[test]
    fn point_and_history_and_counts() -> Result<(), AnyError> {
        let dir = two_day_store("point")?;
        let mut q = QueryService::open(&dir).build()?;
        assert_eq!(q.days(), &[1, 2]);

        let p = q.point(1, v4(1))?.expect("v4(1) is indexed on day 1");
        assert!(p.anycast_based_positive && p.gcd_confirmed);
        assert_eq!(p.cities, vec!["Tokyo".to_string(), "Paris".to_string()]);
        assert_eq!(p.origin_asn, Some(100));
        assert!(q.point(1, v4(9))?.is_none());

        assert_eq!(q.history(v4(3))?, vec![(1, false, false), (2, true, true)]);
        assert_eq!(q.history_between(v4(1), 2, 2)?.len(), 1);

        let counts = q.daily_confirmed_counts()?;
        assert_eq!(counts[&1], 2);
        assert_eq!(counts[&2], 2);
        Ok(())
    }

    #[test]
    fn record_json_reads_exact_span() -> Result<(), AnyError> {
        let dir = two_day_store("span")?;
        let mut q = QueryService::open(&dir).build()?;
        let line = q.record_json(2, v4(3))?.expect("v4(3) is indexed on day 2");
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"day\":2"));
        assert!(q.record_json(2, v4(9))?.is_none());
        // Only the record's bytes were read from the day file.
        assert_eq!(
            q.telemetry().counter("query.record_bytes_read"),
            line.len() as u64
        );
        Ok(())
    }

    #[test]
    fn ranking_sites_and_diff() -> Result<(), AnyError> {
        let dir = two_day_store("rank")?;
        let mut q = QueryService::open(&dir).build()?;
        let ranks = q.asn_ranking(1)?;
        // AS 100: v4(1) + v4(2); AS 200: v6(1).
        assert_eq!(
            ranks[0],
            AsnRank {
                asn: 100,
                v4: 2,
                v6: 0
            }
        );
        assert_eq!(
            ranks[1],
            AsnRank {
                asn: 200,
                v4: 0,
                v6: 1
            }
        );

        let sites = q.sites(1)?;
        assert_eq!(
            sites,
            vec![
                ("Lima".to_string(), 1),
                ("Paris".to_string(), 1),
                ("Tokyo".to_string(), 1)
            ]
        );
        assert_eq!(q.site_prefixes(1, "Lima")?, vec![v6(1)]);
        assert!(q.site_prefixes(1, "Atlantis")?.is_empty());

        let d = q.diff(1, 2)?;
        assert_eq!(d.appeared, [v4(3)].into_iter().collect());
        assert_eq!(d.disappeared, [v6(1)].into_iter().collect());
        assert_eq!(d.footprint_changes.len(), 1);
        assert_eq!(
            d.footprint_changes[0].cities_gained,
            vec!["Sydney".to_string()]
        );
        Ok(())
    }

    #[test]
    fn answers_invariant_under_cache_budget_and_visit_order() -> Result<(), AnyError> {
        let dir = two_day_store("inv")?;
        // Tiny budget: every touch evicts the other day.
        let mut tight = QueryService::open(&dir).cache_budget(1).build()?;
        // Huge budget, and visit day 2 first.
        let mut roomy = QueryService::open(&dir).cache_budget(u64::MAX).build()?;
        let _ = roomy.point(2, v4(1))?;

        for q in [&mut tight, &mut roomy] {
            assert_eq!(q.history(v4(1))?, vec![(1, true, true), (2, true, true)]);
            assert_eq!(q.diff(1, 2)?.footprint_changes.len(), 1);
        }
        let a = tight.asn_ranking(2)?;
        let b = roomy.asn_ranking(2)?;
        assert_eq!(a, b);
        assert!(tight.telemetry().counter("query.cache_evictions") > 0);

        // Clearing the cache never changes answers.
        let before = roomy.daily_confirmed_counts()?;
        roomy.clear_cache();
        assert_eq!(roomy.daily_confirmed_counts()?, before);
        Ok(())
    }

    #[test]
    fn builder_validates_day_set() -> Result<(), AnyError> {
        let dir = two_day_store("dayset")?;
        assert!(matches!(
            QueryService::open(&dir).days([1, 7]).build(),
            Err(QueryError::MissingIndex { day: 7, .. })
        ));
        let mut q = QueryService::open(&dir).days([2]).build()?;
        assert_eq!(q.days(), &[2]);
        assert!(matches!(
            q.point(1, v4(1)),
            Err(QueryError::UnknownDay { day: 1 })
        ));
        let empty = tmpdir("empty")?;
        assert!(matches!(
            QueryService::open(&empty).build(),
            Err(QueryError::NoDays)
        ));
        Ok(())
    }

    #[test]
    fn foreign_files_are_not_indexed_days() -> Result<(), AnyError> {
        let dir = tmpdir("foreign")?;
        write_day(&dir, 3, &[(v4(1), true, false, &[], None)])?;
        for name in [
            "census-day-00004.idx.tmp",
            "census-day-abc.idx",
            "census-day-+0005.idx",
            "notes.txt",
        ] {
            std::fs::write(dir.join(name), b"junk")?;
        }
        std::fs::create_dir_all(dir.join("census-day-00006.idx"))?;
        let q = QueryService::open(&dir).build()?;
        assert_eq!(q.days(), &[3]);
        Ok(())
    }

    #[test]
    fn corrupt_sidecar_is_reported_with_day() -> Result<(), AnyError> {
        let dir = tmpdir("corrupt")?;
        write_day(&dir, 9, &[(v4(1), true, true, &["Oslo"], Some(1))])?;
        let path = dir.join(index_file_name(9));
        let mut bytes = std::fs::read(&path)?;
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF; // flip a summary byte → section fp mismatch
        std::fs::write(&path, bytes)?;
        let mut q = QueryService::open(&dir).build()?;
        assert!(q.point(9, v4(1))?.is_some(), "prefix table intact");
        assert!(matches!(
            q.summary(9),
            Err(QueryError::Corrupt { day: 9, .. })
        ));
        Ok(())
    }

    fn u64_at(bytes: &[u8], at: usize) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&bytes[at..at + 8]);
        u64::from_le_bytes(b)
    }

    fn u32_at(bytes: &[u8], at: usize) -> usize {
        let mut b = [0u8; 4];
        b.copy_from_slice(&bytes[at..at + 4]);
        u32::from_le_bytes(b) as usize
    }

    /// Header byte offset of section `sec`'s descriptor (offset, len, fp).
    fn descriptor(sec: usize) -> usize {
        40 + sec * 24
    }

    /// Recompute every section fingerprint that still covers bytes in the
    /// file, then the header fingerprint: what a hostile writer does so a
    /// forged length passes every fingerprint check.
    fn refingerprint(bytes: &mut [u8]) {
        for sec in 0..crate::idx::N_SECTIONS {
            let d = descriptor(sec);
            let (off, len) = (u64_at(bytes, d) as usize, u64_at(bytes, d + 8) as usize);
            if let Some(body) = bytes.get(off..off.saturating_add(len)) {
                let fp = fnv1a(body);
                bytes[d + 16..d + 24].copy_from_slice(&fp.to_le_bytes());
            }
        }
        bytes[32..40].fill(0);
        let fp = fnv1a(&bytes[..HEADER_LEN]);
        bytes[32..40].copy_from_slice(&fp.to_le_bytes());
    }

    /// A two-record day with cities and ASes, its sidecar path and bytes.
    fn hostile_day(tag: &str) -> Result<(PathBuf, PathBuf, Vec<u8>), AnyError> {
        let dir = tmpdir(tag)?;
        write_day(
            &dir,
            9,
            &[
                (v4(1), true, true, &["Oslo", "Rome"], Some(1)),
                (v4(2), true, true, &["Oslo"], Some(2)),
            ],
        )?;
        let path = dir.join(index_file_name(9));
        let bytes = std::fs::read(&path)?;
        let mut same = bytes.clone();
        refingerprint(&mut same);
        assert_eq!(
            same, bytes,
            "refingerprint must be the identity on a valid index"
        );
        Ok((dir, path, bytes))
    }

    #[test]
    fn inflated_section_length_is_a_typed_error() -> Result<(), AnyError> {
        let (dir, path, mut bytes) = hostile_day("inflated-section")?;
        // Claim a terabyte for the summary section: `read_at` must not
        // allocate it before noticing the file is short.
        let d = descriptor(SEC_SUMMARY) + 8;
        bytes[d..d + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        refingerprint(&mut bytes);
        std::fs::write(&path, &bytes)?;
        let mut q = QueryService::open(&dir).build()?;
        assert!(matches!(
            q.summary(9),
            Err(QueryError::Corrupt { day: 9, .. })
        ));
        Ok(())
    }

    #[test]
    fn inflated_city_postings_length_is_a_typed_error() -> Result<(), AnyError> {
        let (dir, path, mut bytes) = hostile_day("inflated-city-postings")?;
        // The flat posting count follows the n_cities span pairs.
        let at = u64_at(&bytes, descriptor(SEC_CITY_POSTINGS)) as usize + u32_at(&bytes, 20) * 8;
        bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        refingerprint(&mut bytes);
        std::fs::write(&path, &bytes)?;
        let mut q = QueryService::open(&dir).build()?;
        assert!(matches!(
            q.sites(9),
            Err(QueryError::Corrupt { day: 9, .. })
        ));
        Ok(())
    }

    #[test]
    fn inflated_as_postings_length_is_a_typed_error() -> Result<(), AnyError> {
        let (dir, path, mut bytes) = hostile_day("inflated-as-postings")?;
        // The flat posting count follows the AS count and n_asns entries.
        let at = u64_at(&bytes, descriptor(SEC_AS_POSTINGS)) as usize + 4 + u32_at(&bytes, 28) * 20;
        bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        refingerprint(&mut bytes);
        std::fs::write(&path, &bytes)?;
        let mut q = QueryService::open(&dir).build()?;
        assert!(matches!(
            q.asn_ranking(9),
            Err(QueryError::Corrupt { day: 9, .. })
        ));
        Ok(())
    }
}
