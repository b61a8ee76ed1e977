//! Indexed query-service benchmark: `BENCH_pr7.json`.
//!
//! `laces-query` replaced the eager whole-corpus read path with
//! per-day binary index sidecars written at `save` time and a
//! lazily-loading [`QueryService`] handle. This module proves the two
//! tentpole claims in one run:
//!
//! - **latency without deserialisation** — millions of mixed point lookups
//!   (with a hot-prefix Zipf skew: rank drawn log-uniformly over the
//!   prefix universe, so a small hot set absorbs most of the traffic) and
//!   full longitudinal scans over the corpus answer under the
//!   [`TARGET_POINT_US`] per-lookup floor, while the service's own
//!   telemetry shows it read only a small fraction of the published bytes;
//! - **equivalence** — on fully-loaded reference days, every query kind is
//!   byte-identical (via the serialised JSON answer) to an eager answer
//!   from the loaded days: `record_json` against the published JSONL
//!   line, `history`/`daily_confirmed_counts`/`sites` against an
//!   in-memory recompute, `asn_ranking` against `rank_census_day`, and
//!   `diff` against `census::diff`.
//!
//! The corpus is synthetic and fully deterministic (integer-hash derived,
//! no RNG): at the `Huge` scale it is a 56-day longitudinal census with
//! weekly membership/footprint churn, saved through the real
//! [`CensusStore`] so the benchmark exercises the exact artifacts the
//! public repository would serve.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use laces_census::asn_ranking::rank_census_day;
use laces_census::record::{CensusRecord, CensusStats, DailyCensus, GcdSummary};
use laces_census::store::CensusStore;
use laces_core::classify::Class;
use laces_gcd::GcdClass;
use laces_packet::{Prefix24, Prefix48, PrefixKey, Protocol};

use crate::artifacts::{Artifacts, Scale};

/// Acceptance floor: mean point-lookup latency must stay under this.
pub const TARGET_POINT_US: f64 = 1_000.0;

/// City pool the synthetic GCD footprints draw from.
const CITIES: [&str; 32] = [
    "Amsterdam",
    "Ashburn",
    "Athens",
    "Auckland",
    "Bangkok",
    "Bogota",
    "Cairo",
    "Chicago",
    "Dallas",
    "Dubai",
    "Dublin",
    "Frankfurt",
    "Helsinki",
    "Johannesburg",
    "Lagos",
    "Lima",
    "London",
    "Madrid",
    "Miami",
    "Milan",
    "Mumbai",
    "Nairobi",
    "Osaka",
    "Paris",
    "Santiago",
    "Seattle",
    "Seoul",
    "Singapore",
    "Sydney",
    "Tokyo",
    "Toronto",
    "Warsaw",
];

/// Per-scale corpus and workload sizing.
struct Sizing {
    /// Census days in the corpus.
    days: u32,
    /// Prefix universe the days draw their membership from.
    universe: u32,
    /// Mixed point lookups in the timed loop.
    lookups: u64,
    /// Prefixes swept by the full longitudinal-scan loop.
    scan_prefixes: u32,
}

fn sizing(scale: Scale) -> Sizing {
    match scale {
        Scale::Tiny => Sizing {
            days: 3,
            universe: 400,
            lookups: 20_000,
            scan_prefixes: 100,
        },
        Scale::Mid => Sizing {
            days: 14,
            universe: 4_000,
            lookups: 500_000,
            scan_prefixes: 1_000,
        },
        // The paper's census cadence: 8 weeks of daily runs.
        Scale::Huge | Scale::Paper => Sizing {
            days: 56,
            universe: 12_000,
            lookups: 2_000_000,
            scan_prefixes: 4_000,
        },
    }
}

/// FNV-1a over the mixed integers — the corpus's only source of variety,
/// so every run of every process derives the identical corpus.
fn mix(a: u32, b: u32, salt: u32) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in [a, b, salt] {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// The `i`-th prefix of the universe (3:1 v4:v6, like the hitlists).
fn prefix_of(i: u32) -> PrefixKey {
    if i % 4 == 3 {
        PrefixKey::V6(Prefix48::from_network(
            (0x2001_0db8u128 << 96) | (u128::from(i) << 80),
        ))
    } else {
        PrefixKey::V4(Prefix24::from_network((10 << 24) | (i << 8)))
    }
}

/// Whether prefix `i` publishes a record on `day`: stable membership with
/// ~3% weekly churn plus rare one-day flaps, so day-over-day diffs are
/// small except across week boundaries.
fn present(i: u32, day: u32) -> bool {
    let epoch = day / 7;
    if mix(i, epoch, 1) % 100 < 3 {
        return false;
    }
    mix(i, day, 2) % 1000 >= 4
}

/// Build one synthetic census day.
fn synth_day(day: u32, universe: u32) -> DailyCensus {
    let epoch = day / 7;
    let mut records = BTreeMap::new();
    for i in 0..universe {
        if !present(i, day) {
            continue;
        }
        let prefix = prefix_of(i);
        // GCD verdict: stable per prefix; footprints re-draw weekly so the
        // longitudinal diffs carry footprint changes at week boundaries.
        let gcd = if mix(i, 0, 4) % 100 < 15 {
            None
        } else {
            let class = if mix(i, 0, 5) % 100 < 8 {
                GcdClass::Unicast
            } else {
                GcdClass::Anycast
            };
            let h = mix(i, epoch, 3);
            let n_cities = 1 + (h % 5) as usize;
            let start = (h >> 8) as usize;
            let step = 1 + ((h >> 16) % 7) as usize;
            let mut cities: Vec<String> = (0..n_cities)
                .map(|k| CITIES[(start + k * step) % CITIES.len()].to_string())
                .collect();
            cities.sort_unstable();
            cities.dedup();
            let n_sites = cities.len() + (h % 9) as usize;
            Some(GcdSummary {
                class,
                n_sites,
                cities,
            })
        };
        let gcd_confirmed = matches!(&gcd, Some(g) if g.class == GcdClass::Anycast);
        let mut anycast_based = BTreeMap::new();
        // ~5% anycast-based misses — unless that would leave the row with
        // no anycast evidence at all (the pipeline only publishes rows
        // where either methodology fires).
        if mix(i, 0, 6) % 100 < 5 && gcd_confirmed {
            anycast_based.insert(Protocol::Icmp, Class::Unicast);
        } else {
            anycast_based.insert(
                Protocol::Icmp,
                Class::Anycast {
                    n_vps: 2 + (mix(i, epoch, 7) % 40) as usize,
                },
            );
            anycast_based.insert(Protocol::Tcp, Class::Unresponsive);
        }
        let origin_asn = if mix(i, 0, 8) % 100 < 5 {
            None
        } else {
            // Geometric skew: AS 64500 originates ~half the universe,
            // 64501 a quarter, ... — a Table 6-shaped long tail.
            Some(64_500 + (i + 1).trailing_zeros())
        };
        records.insert(
            prefix,
            CensusRecord {
                prefix,
                anycast_based,
                gcd,
                partial: mix(i, 0, 9).is_multiple_of(50),
                origin_asn,
            },
        );
    }
    let mut stats = CensusStats {
        anycast_probes: 1_000 + u64::from(day) * 17,
        gcd_probes: 500 + u64::from(day) * 11,
        ..CensusStats::default()
    };
    stats.gcd_target_count = records.len();
    DailyCensus {
        day,
        records,
        stats,
    }
}

/// The equivalence section: every query kind checked byte-identical (via
/// serialised JSON) against an eager answer from fully-loaded reference
/// days.
#[derive(Debug, Clone)]
pub struct Equivalence {
    /// Days loaded eagerly for the comparison.
    pub days_checked: usize,
    /// `record_json` == the day file's own serialised record, every record.
    pub record_json_match: bool,
    /// `history` == the in-memory recompute over the same day set.
    pub history_match: bool,
    /// `daily_confirmed_counts` == the in-memory recompute.
    pub counts_match: bool,
    /// `asn_ranking` == `rank_census_day` on the loaded day.
    pub ranking_match: bool,
    /// `diff` == `census::diff` on the loaded day pair.
    pub diff_match: bool,
    /// `sites` == the in-memory per-city recompute.
    pub sites_match: bool,
}

impl Equivalence {
    /// Every check passed.
    pub fn all_match(&self) -> bool {
        self.record_json_match
            && self.history_match
            && self.counts_match
            && self.ranking_match
            && self.diff_match
            && self.sites_match
    }
}

/// The `BENCH_pr7.json` report.
#[derive(Debug, Clone)]
pub struct QueryBench {
    /// Scale label the run used.
    pub scale: String,
    /// Census days in the corpus.
    pub n_days: u32,
    /// Prefix universe size.
    pub prefix_universe: u32,
    /// Published records across all days.
    pub records_total: u64,
    /// Bytes of published JSONL across all days.
    pub corpus_bytes: u64,
    /// Bytes of index sidecars across all days.
    pub index_bytes: u64,
    /// Wall clock to synthesise + save the corpus, milliseconds.
    pub save_wall_ms: f64,
    /// Mixed point lookups executed.
    pub point_lookups: u64,
    /// Lookups that found a record.
    pub point_found: u64,
    /// Point-lookup loop wall clock, milliseconds.
    pub point_wall_ms: f64,
    /// Point lookups per second — the headline read throughput.
    pub reads_per_s: f64,
    /// Mean per-lookup latency, microseconds.
    pub mean_point_us: f64,
    /// Worst individually-timed lookup in a 2000-sample pass, microseconds
    /// (sampled after a cache clear, so cold index loads are in the pool).
    pub sampled_max_us: f64,
    /// Prefixes swept by the longitudinal-scan loop (full day range each).
    pub scan_prefixes: u32,
    /// Longitudinal-scan loop wall clock, milliseconds.
    pub scan_wall_ms: f64,
    /// Full-corpus scans per second.
    pub scans_per_s: f64,
    /// Wall clock for per-day AS rankings + consecutive-day diffs +
    /// per-day site lists, milliseconds.
    pub analytics_wall_ms: f64,
    /// Index bytes the service actually read (its own telemetry).
    pub index_bytes_read: u64,
    /// Record (day-file) bytes the service actually read.
    pub record_bytes_read: u64,
    /// `(index_bytes_read + record_bytes_read) / (corpus_bytes + index_bytes)`
    /// — re-reads of hot spans count every time, so on a tiny corpus this
    /// can exceed 1; at census scale an eager loader sits at ≥ 1 while the
    /// indexed path stays far below.
    pub bytes_read_fraction: f64,
    /// Resident day-cache bytes after the whole workload — bounded by the
    /// index mass (day files are never cached), the scale-independent
    /// "never loads full days" evidence.
    pub resident_bytes: u64,
    /// Day-cache hits / misses / evictions from the service telemetry.
    pub cache_hits: u64,
    /// See `cache_hits`.
    pub cache_misses: u64,
    /// See `cache_hits`.
    pub cache_evictions: u64,
    /// The per-lookup latency floor, microseconds.
    pub target_point_us: f64,
    /// The equivalence section.
    pub equivalence: Equivalence,
    /// Mean latency under the floor AND every equivalence check passed.
    pub target_met: bool,
}

impl QueryBench {
    /// Serialise as the full `BENCH_pr7.json` object (stable key order).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"scale\": \"{}\",", self.scale);
        let _ = writeln!(s, "  \"corpus\": {{");
        let _ = writeln!(s, "    \"n_days\": {},", self.n_days);
        let _ = writeln!(s, "    \"prefix_universe\": {},", self.prefix_universe);
        let _ = writeln!(s, "    \"records_total\": {},", self.records_total);
        let _ = writeln!(s, "    \"corpus_bytes\": {},", self.corpus_bytes);
        let _ = writeln!(s, "    \"index_bytes\": {},", self.index_bytes);
        let _ = writeln!(s, "    \"save_wall_ms\": {:.3}", self.save_wall_ms);
        let _ = writeln!(s, "  }},");
        let _ = writeln!(s, "  \"point\": {{");
        let _ = writeln!(s, "    \"lookups\": {},", self.point_lookups);
        let _ = writeln!(s, "    \"found\": {},", self.point_found);
        let _ = writeln!(s, "    \"wall_ms\": {:.3},", self.point_wall_ms);
        let _ = writeln!(s, "    \"reads_per_s\": {:.1},", self.reads_per_s);
        let _ = writeln!(s, "    \"mean_us\": {:.3},", self.mean_point_us);
        let _ = writeln!(s, "    \"sampled_max_us\": {:.1}", self.sampled_max_us);
        let _ = writeln!(s, "  }},");
        let _ = writeln!(s, "  \"scan\": {{");
        let _ = writeln!(s, "    \"prefixes\": {},", self.scan_prefixes);
        let _ = writeln!(s, "    \"wall_ms\": {:.3},", self.scan_wall_ms);
        let _ = writeln!(s, "    \"scans_per_s\": {:.1}", self.scans_per_s);
        let _ = writeln!(s, "  }},");
        let _ = writeln!(s, "  \"analytics_wall_ms\": {:.3},", self.analytics_wall_ms);
        let _ = writeln!(s, "  \"io\": {{");
        let _ = writeln!(s, "    \"index_bytes_read\": {},", self.index_bytes_read);
        let _ = writeln!(s, "    \"record_bytes_read\": {},", self.record_bytes_read);
        let _ = writeln!(
            s,
            "    \"bytes_read_fraction\": {:.6},",
            self.bytes_read_fraction
        );
        let _ = writeln!(s, "    \"resident_bytes\": {},", self.resident_bytes);
        let _ = writeln!(s, "    \"cache_hits\": {},", self.cache_hits);
        let _ = writeln!(s, "    \"cache_misses\": {},", self.cache_misses);
        let _ = writeln!(s, "    \"cache_evictions\": {}", self.cache_evictions);
        let _ = writeln!(s, "  }},");
        let _ = writeln!(s, "  \"equivalence\": {{");
        let _ = writeln!(
            s,
            "    \"days_checked\": {},",
            self.equivalence.days_checked
        );
        let _ = writeln!(
            s,
            "    \"record_json_match\": {},",
            self.equivalence.record_json_match
        );
        let _ = writeln!(
            s,
            "    \"history_match\": {},",
            self.equivalence.history_match
        );
        let _ = writeln!(
            s,
            "    \"counts_match\": {},",
            self.equivalence.counts_match
        );
        let _ = writeln!(
            s,
            "    \"ranking_match\": {},",
            self.equivalence.ranking_match
        );
        let _ = writeln!(s, "    \"diff_match\": {},", self.equivalence.diff_match);
        let _ = writeln!(s, "    \"sites_match\": {},", self.equivalence.sites_match);
        let _ = writeln!(s, "    \"all_match\": {}", self.equivalence.all_match());
        let _ = writeln!(s, "  }},");
        let _ = writeln!(s, "  \"target_point_us\": {:.1},", self.target_point_us);
        let _ = writeln!(s, "  \"target_met\": {}", self.target_met);
        s.push_str("}\n");
        s
    }
}

/// Log-uniform rank over `[0, n)`: rank 0 is drawn far more often than
/// rank n-1 — a Zipf(≈1)-shaped hot set without a per-draw harmonic sum.
fn zipf_rank(u: f64, n: u32) -> u32 {
    let r = (u * f64::from(n).ln()).exp().floor();
    // Floats only steer the workload shape; clamping keeps the index safe.
    if r >= f64::from(n) {
        n - 1
    } else if r >= 1.0 {
        (r as u32) - 1
    } else {
        0
    }
}

/// Deterministic xorshift64* stream for the workload draws (seeded, never
/// ambient — reruns replay the identical lookup sequence).
struct Stream(u64);

impl Stream {
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Shuffle the prefix universe deterministically so the Zipf hot set is
/// not the numerically-first prefixes (which would all be v4 and adjacent
/// in the index).
fn hot_order(universe: u32) -> Vec<u32> {
    let mut order: Vec<u32> = (0..universe).collect();
    order.sort_by_key(|&i| (mix(i, 0, 42), i));
    order
}

fn equivalence_check(store: &CensusStore, days: &[u32]) -> Equivalence {
    let n_ref = days.len().min(3);
    let ref_days: Vec<u32> = days[..n_ref].to_vec();
    let loaded: Vec<DailyCensus> = ref_days
        .iter()
        .map(|&d| store.load(d).expect("reference day loads"))
        .collect();
    let mut qs = store
        .query()
        .days(ref_days.iter().copied())
        .build()
        .expect("reference days indexed");

    let mut record_json_match = true;
    let mut history_match = true;
    let mut ranking_match = true;
    let mut sites_match = true;

    for census in &loaded {
        let day = census.day;
        for r in census.records.values() {
            let got = qs
                .record_json(day, r.prefix)
                .expect("indexed record fetch")
                .unwrap_or_default();
            let want = serde_json::to_string(r).expect("record serialises");
            record_json_match &= got == want;
        }
        // Rankings: byte-identical through the shared serialised shape.
        let got = serde_json::to_string(&qs.asn_ranking(day).expect("indexed ranking"))
            .expect("ranking serialises");
        let want = serde_json::to_string(&rank_census_day(census)).expect("ranking serialises");
        ranking_match &= got == want;
        // Site lists vs the in-memory recompute.
        let mut by_city: BTreeMap<String, usize> = BTreeMap::new();
        for r in census.records.values() {
            if let Some(g) = &r.gcd {
                for c in &g.cities {
                    *by_city.entry(c.clone()).or_default() += 1;
                }
            }
        }
        let want_sites: Vec<(String, usize)> = by_city.into_iter().collect();
        sites_match &= qs.sites(day).expect("indexed sites") == want_sites;
    }

    // Histories over the same day set, every universe prefix that appears
    // in any reference day plus a few that never do.
    let mut probes: Vec<PrefixKey> = loaded
        .iter()
        .flat_map(|c| c.records.keys().copied())
        .collect();
    probes.push(prefix_of(u32::MAX >> 8));
    probes.sort_unstable();
    probes.dedup();
    for p in probes {
        let want: Vec<(u32, bool, bool)> = loaded
            .iter()
            .map(|c| {
                let r = c.records.get(&p);
                (
                    c.day,
                    r.is_some_and(|r| r.anycast_based_positive()),
                    r.is_some_and(|r| r.gcd_confirmed()),
                )
            })
            .collect();
        history_match &= qs.history(p).expect("indexed history") == want;
    }

    let want_counts: BTreeMap<u32, usize> = loaded
        .iter()
        .map(|c| (c.day, c.gcd_confirmed().len()))
        .collect();
    let counts_match = qs.daily_confirmed_counts().expect("indexed counts") == want_counts;

    let diff_match = if loaded.len() >= 2 {
        let got = qs.diff(ref_days[0], ref_days[1]).expect("indexed diff");
        let want = laces_census::diff(&loaded[0], &loaded[1]);
        serde_json::to_string(&got).expect("diff serialises")
            == serde_json::to_string(&want).expect("diff serialises")
    } else {
        true
    };

    Equivalence {
        days_checked: n_ref,
        record_json_match,
        history_match,
        counts_match,
        ranking_match,
        diff_match,
        sites_match,
    }
}

/// Run the query benchmark. Only `a.scale` is consumed — the corpus is
/// synthetic, independent of the measured world.
pub fn run_query_bench(a: &Artifacts) -> QueryBench {
    run_query_bench_at(a.scale)
}

/// [`run_query_bench`] without an [`Artifacts`] in hand: the corpus is
/// synthetic, so no world needs generating just to carry the scale tag
/// (this is what `--bin query_bench` uses to regenerate `BENCH_pr7.json`).
pub fn run_query_bench_at(scale: Scale) -> QueryBench {
    let sz = sizing(scale);
    let dir: PathBuf =
        std::env::temp_dir().join(format!("laces-query-bench-{scale:?}").to_lowercase());
    let _ = std::fs::remove_dir_all(&dir);
    let store = CensusStore::open(&dir).expect("bench store dir");

    eprintln!(
        "[query] synthesising + saving {} days over a {}-prefix universe...",
        sz.days, sz.universe
    );
    let t0 = Instant::now();
    let mut records_total = 0u64;
    for day in 1..=sz.days {
        let census = synth_day(day, sz.universe);
        records_total += census.records.len() as u64;
        store.save(&census).expect("bench day saves");
    }
    let save_wall_ms = t0.elapsed().as_secs_f64() * 1000.0;

    let mut corpus_bytes = 0u64;
    let mut index_bytes = 0u64;
    for entry in std::fs::read_dir(&dir).expect("bench dir lists") {
        let entry = entry.expect("bench dir entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        let len = entry.metadata().expect("bench file metadata").len();
        if name.ends_with(".jsonl") {
            corpus_bytes += len;
        } else if name.ends_with(".idx") {
            index_bytes += len;
        }
    }

    let days: Vec<u32> = (1..=sz.days).collect();
    let mut qs = store.query().build().expect("bench corpus indexed");
    let order = hot_order(sz.universe);
    let mut stream = Stream(0x1ACE_5EED_0BAD_F00Du64 | 1);

    // -- mixed point lookups, Zipf-hot prefixes, uniform days ---------------
    eprintln!("[query] {} mixed point lookups...", sz.lookups);
    let mut found = 0u64;
    let t0 = Instant::now();
    for k in 0..sz.lookups {
        let rank = zipf_rank(stream.next_f64(), sz.universe);
        let prefix = prefix_of(order[rank as usize]);
        let day = 1 + (stream.next_u64() % u64::from(sz.days)) as u32;
        if k % 16 == 0 {
            // Every 16th lookup also fetches the full published record —
            // the "mixed" in mixed lookups.
            if qs.record_json(day, prefix).expect("bench lookup").is_some() {
                found += 1;
            }
        } else if qs.point(day, prefix).expect("bench lookup").is_some() {
            found += 1;
        }
    }
    let point_wall_ms = t0.elapsed().as_secs_f64() * 1000.0;
    let reads_per_s = sz.lookups as f64 / (point_wall_ms / 1000.0);
    let mean_point_us = point_wall_ms * 1000.0 / sz.lookups as f64;

    // -- sampled worst case, cold cache in the pool -------------------------
    qs.clear_cache();
    let mut sampled_max_us = 0.0f64;
    for k in 0..2_000u32 {
        let rank = zipf_rank(stream.next_f64(), sz.universe);
        let prefix = prefix_of(order[rank as usize]);
        let day = 1 + (u32::from(mix(k, 7, 7) as u16) % sz.days);
        let t = Instant::now();
        let _ = qs.point(day, prefix).expect("bench lookup");
        sampled_max_us = sampled_max_us.max(t.elapsed().as_secs_f64() * 1e6);
    }

    // -- longitudinal scans: full day range per prefix ----------------------
    eprintln!(
        "[query] {} longitudinal scans over {} days...",
        sz.scan_prefixes, sz.days
    );
    let t0 = Instant::now();
    for k in 0..sz.scan_prefixes {
        let prefix = prefix_of(order[(k % sz.universe) as usize]);
        let h = qs.history(prefix).expect("bench scan");
        debug_assert_eq!(h.len(), days.len());
    }
    let scan_wall_ms = t0.elapsed().as_secs_f64() * 1000.0;
    let scans_per_s = f64::from(sz.scan_prefixes) / (scan_wall_ms / 1000.0);

    // -- analytics: rankings, consecutive diffs, site lists -----------------
    let t0 = Instant::now();
    for &day in &days {
        let _ = qs.asn_ranking(day).expect("bench ranking");
        let _ = qs.sites(day).expect("bench sites");
    }
    for w in days.windows(2) {
        let _ = qs.diff(w[0], w[1]).expect("bench diff");
    }
    let _ = qs.daily_confirmed_counts().expect("bench counts");
    let analytics_wall_ms = t0.elapsed().as_secs_f64() * 1000.0;

    let telemetry = qs.telemetry();
    let index_bytes_read = telemetry.counter("query.index_bytes_read");
    let record_bytes_read = telemetry.counter("query.record_bytes_read");
    let cache_hits = telemetry.counter("query.cache_hits");
    let cache_misses = telemetry.counter("query.cache_misses");
    let cache_evictions = telemetry.counter("query.cache_evictions");
    let resident_bytes = telemetry.gauge("query.resident_bytes");
    let bytes_read_fraction =
        (index_bytes_read + record_bytes_read) as f64 / (corpus_bytes + index_bytes).max(1) as f64;

    let equivalence = equivalence_check(&store, &days);
    let target_met = mean_point_us < TARGET_POINT_US && equivalence.all_match();

    let _ = std::fs::remove_dir_all(&dir);

    QueryBench {
        scale: format!("{scale:?}"),
        n_days: sz.days,
        prefix_universe: sz.universe,
        records_total,
        corpus_bytes,
        index_bytes,
        save_wall_ms,
        point_lookups: sz.lookups,
        point_found: found,
        point_wall_ms,
        reads_per_s,
        mean_point_us,
        sampled_max_us,
        scan_prefixes: sz.scan_prefixes,
        scan_wall_ms,
        scans_per_s,
        analytics_wall_ms,
        index_bytes_read,
        record_bytes_read,
        bytes_read_fraction,
        cache_hits,
        cache_misses,
        cache_evictions,
        resident_bytes,
        target_point_us: TARGET_POINT_US,
        equivalence,
        target_met,
    }
}

/// A second service over the same corpus with a starvation-level cache
/// budget must answer identically — used by the unit test; the invariance
/// at realistic budgets is covered in `tests/tests/query_service.rs`.
#[cfg(test)]
fn tiny_budget_history(dir: &std::path::Path, prefix: PrefixKey) -> Vec<(u32, bool, bool)> {
    let mut qs = laces_census::QueryService::open(dir)
        .cache_budget(1)
        .build()
        .expect("bench corpus indexed");
    qs.history(prefix).expect("bench scan")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_bench_runs_and_serialises_at_tiny() {
        let a = Artifacts::new(Scale::Tiny);
        let bench = run_query_bench(&a);
        assert!(bench.records_total > 0);
        assert!(bench.point_found > 0, "hot set must hit published rows");
        assert!(bench.reads_per_s > 0.0);
        assert!(
            bench.equivalence.all_match(),
            "indexed answers diverged from the eager path: {:?}",
            bench.equivalence
        );
        assert!(
            bench.resident_bytes <= bench.index_bytes,
            "day files leaked into the cache: {} resident vs {} index bytes",
            bench.resident_bytes,
            bench.index_bytes
        );
        let json = bench.to_json();
        let v: serde::Value = serde_json::from_str(&json).expect("BENCH_pr7.json parses");
        let serde::Value::Obj(fields) = v else {
            panic!("top level must be an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        for want in [
            "scale",
            "corpus",
            "point",
            "scan",
            "io",
            "equivalence",
            "target_met",
        ] {
            assert!(keys.contains(&want), "missing {want} in {keys:?}");
        }
    }

    #[test]
    fn corpus_is_deterministic_and_budget_invariant() {
        let d1 = synth_day(9, 200);
        let d2 = synth_day(9, 200);
        assert_eq!(d1.to_jsonl(), d2.to_jsonl());
        assert!(!d1.records.is_empty());

        let dir = std::env::temp_dir().join("laces-query-bench-det-test");
        let _ = std::fs::remove_dir_all(&dir);
        let store = CensusStore::open(&dir).expect("store dir");
        for day in [1u32, 2, 3] {
            store.save(&synth_day(day, 200)).expect("day saves");
        }
        let p = d1.records.keys().next().copied().expect("non-empty day");
        let mut qs = store.query().build().expect("indexed");
        assert_eq!(
            qs.history(p).expect("history"),
            tiny_budget_history(&dir, p)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zipf_rank_is_hot_headed() {
        let mut s = Stream(7);
        let mut head = 0u32;
        for _ in 0..10_000 {
            if zipf_rank(s.next_f64(), 10_000) < 100 {
                head += 1;
            }
        }
        // Log-uniform: P(rank < 100) = ln(100)/ln(10000) ≈ 0.5.
        assert!(head > 3_000, "hot head only drew {head}/10000");
    }
}
