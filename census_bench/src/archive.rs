//! `archive-query`: the public read path. A seeded 56-day synthetic
//! archive shaped like published days (a 12 k-prefix universe, about
//! 650 k records) is written day by day through `CensusStore::save`. Then
//! one closed-loop client sends a seeded, Zipf-skewed mix of point
//! lookups, prefix histories and day-over-day diffs through
//! `QueryService` under a fixed cache budget, followed by
//! `HealthService::findings` over all days. No probing runs.

use std::collections::BTreeMap;
use std::time::Instant;

use laces_census::record::{CensusRecord, CensusStats, DailyCensus, GcdSummary};
use laces_census::store::CensusStore;
use laces_census::QueryService;
use laces_core::classify::Class;
use laces_gcd::GcdClass;
use laces_health::detect::findings_fingerprint;
use laces_health::{DetectorConfig, HealthService};
use laces_obs::names;
use laces_packet::{Prefix24, Prefix48, PrefixKey, Protocol};

use crate::publish::{
    check_serialised_matches, fresh_store, save_day, serialise_sidecars, SIDECARS,
};
use crate::util::{derive, median, peak_rss_mb, percentile, Acct, Fnv, Stream};
use crate::{Args, Report};

/// Corpus generations per run; `setup_s` is their median.
const SETUP_REPS: usize = 12;
/// Days in the archive: the paper's 8 weeks of daily runs.
const DAYS: u32 = 56;
/// Prefix universe the days draw their membership from.
const UNIVERSE: u32 = 12_000;
/// Lookups per pass of the query mix. The mix keeps the shares of
/// `bench::query`'s Huge mix (the `BENCH_pr7.json` workload: 2 M lookups,
/// every 16th of them a full-record fetch, 4,000 prefix histories, 55
/// consecutive-day diffs) at a quarter of its length, so that a pass
/// takes about a second and a half.
const LOOKUPS_PER_PASS: u64 = 500_000;
/// One history per this many lookups: 1,000 per pass, as 4,000 per 2 M.
const LOOKUPS_PER_HISTORY: u64 = 500;
/// One diff per this many lookups: 14 per pass, as 55 per 2 M.
const LOOKUPS_PER_DIFF: u64 = 35_000;
/// Day stride between the diffed pairs, so that a pass's 14 diffs spread
/// over the 56 days.
const DIFF_DAY_STRIDE: u32 = 4;
/// Days republished between two timed passes of the query mix.
const RESAVES_PER_PASS: usize = 16;
/// The query service's resident index budget (the service's default,
/// pinned here so a change of default does not change the workload).
const CACHE_BUDGET: u64 = 64 << 20;

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

/// Seeded integer hash: the corpus's only source of variety.
fn mix(seed: u64, a: u32, b: u32, salt: u32) -> u64 {
    let mut h = Fnv::new();
    h.eat_u64(seed);
    for v in [a, b, salt] {
        h.eat(&v.to_le_bytes());
    }
    h.finish()
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

/// Stable membership with ~3% weekly churn and rare one-day flaps, so
/// day-over-day diffs are small except across week boundaries.
fn present(seed: u64, i: u32, day: u32) -> bool {
    if mix(seed, i, day / 7, 1) % 100 < 3 {
        return false;
    }
    mix(seed, i, day, 2) % 1000 >= 4
}

/// One synthetic census day.
fn synth_day(seed: u64, day: u32) -> DailyCensus {
    let epoch = day / 7;
    let mut records = BTreeMap::new();
    for i in (0..UNIVERSE).filter(|&i| present(seed, i, day)) {
        let prefix = prefix_of(i);
        let gcd = (mix(seed, i, 0, 4) % 100 >= 15).then(|| {
            let class = if mix(seed, i, 0, 5) % 100 < 8 {
                GcdClass::Unicast
            } else {
                GcdClass::Anycast
            };
            // Footprints re-draw weekly.
            let h = mix(seed, i, epoch, 3);
            let n_cities = 1 + (h % 5) as usize;
            let start = (h >> 8) as usize;
            let step = 1 + ((h >> 16) % 7) as usize;
            let mut cities: Vec<String> = (0..n_cities)
                .map(|k| CITIES[(start + k * step) % CITIES.len()].to_string())
                .collect();
            cities.sort_unstable();
            cities.dedup();
            GcdSummary {
                class,
                n_sites: cities.len() + (h % 9) as usize,
                cities,
            }
        });
        let gcd_confirmed = matches!(&gcd, Some(g) if g.class == GcdClass::Anycast);
        let mut anycast_based = BTreeMap::new();
        // A published row always carries anycast evidence from at least
        // one methodology.
        if mix(seed, i, 0, 6) % 100 < 5 && gcd_confirmed {
            anycast_based.insert(Protocol::Icmp, Class::Unicast);
        } else {
            anycast_based.insert(
                Protocol::Icmp,
                Class::Anycast {
                    n_vps: 2 + (mix(seed, i, epoch, 7) % 40) as usize,
                },
            );
            anycast_based.insert(Protocol::Tcp, Class::Unresponsive);
        }
        // Geometric origin skew: a Table 6-shaped long tail.
        let origin_asn = (mix(seed, i, 0, 8) % 100 >= 5).then(|| 64_500 + (i + 1).trailing_zeros());
        records.insert(
            prefix,
            CensusRecord {
                prefix,
                anycast_based,
                gcd,
                partial: mix(seed, i, 0, 9).is_multiple_of(50),
                origin_asn,
            },
        );
    }
    let mut stats = CensusStats {
        anycast_probes: 1_000_000 + mix(seed, day, 0, 10) % 50_000,
        gcd_probes: 500_000 + mix(seed, day, 0, 11) % 20_000,
        ..CensusStats::default()
    };
    stats.gcd_target_count = records.len();
    DailyCensus {
        day,
        records,
        stats,
    }
}

/// Log-uniform rank over `[0, n)`: a Zipf(≈1)-shaped hot set.
fn zipf_rank(u: f64, n: u32) -> u32 {
    let r = (u * f64::from(n).ln()).exp().floor();
    if r >= f64::from(n) {
        n - 1
    } else if r >= 1.0 {
        r as u32 - 1
    } else {
        0
    }
}

/// Hot order of the universe: a seeded shuffle, hottest prefix first.
fn hot_order(seed: u64) -> Vec<u32> {
    let mut order: Vec<u32> = (0..UNIVERSE).collect();
    order.sort_by_key(|&i| (mix(seed, i, 0, 42), i));
    order
}

/// Latencies of one pass, by query kind, and the fingerprint of every
/// answer. Only the calls into the services are timed; drawing the next
/// query, hashing and checking its answer are not.
#[derive(Default)]
struct Pass {
    point_us: Vec<f64>,
    record_us: Vec<f64>,
    history_us: Vec<f64>,
    diff_ms: Vec<f64>,
    findings_s: f64,
    findings: usize,
    ops: u64,
    wall_s: f64,
    fingerprint: u64,
}

impl Pass {
    /// Seconds spent inside `QueryService` and `HealthService`, by kind:
    /// point, record, history, diff, findings.
    fn busy_s(&self) -> [f64; 5] {
        let sum = |xs: &[f64]| xs.iter().sum::<f64>();
        [
            sum(&self.point_us) * 1e-6,
            sum(&self.record_us) * 1e-6,
            sum(&self.history_us) * 1e-6,
            sum(&self.diff_ms) * 1e-3,
            self.findings_s,
        ]
    }
}

/// Run the mix once through `qs`, then the health findings through `hs`.
/// The mix has the shares of `bench::query`'s Huge mix, interleaved:
/// `LOOKUPS_PER_PASS` Zipf-hot lookups on uniform days, every 16th a
/// full-record fetch, one history of the next-hottest prefix per
/// `LOOKUPS_PER_HISTORY` lookups and one consecutive-day diff per
/// `LOOKUPS_PER_DIFF`. Every pass sends the same queries. With `corpus`,
/// every answer is also checked against the records it was published
/// from.
fn run_pass(
    seed: u64,
    order: &[u32],
    qs: &mut QueryService,
    hs: &mut HealthService,
    detectors: &DetectorConfig,
    corpus: Option<&[DailyCensus]>,
    acct: &mut Acct,
) -> Pass {
    let mut pass = Pass::default();
    let mut h = Fnv::new();
    let day_of = |d: u32| corpus.map(|c| &c[(d - 1) as usize]);
    let mut s = Stream::new(derive(seed, 5));
    let t_pass = Instant::now();
    for k in 0..LOOKUPS_PER_PASS {
        let prefix = prefix_of(order[zipf_rank(s.next_f64(), UNIVERSE) as usize]);
        let day = 1 + s.below(u64::from(DAYS)) as u32;
        let want = day_of(day).map(|c| c.records.get(&prefix));
        if k % 16 == 0 {
            let t0 = Instant::now();
            let answer = acct.op("record fetch", || {
                qs.record_json(day, prefix).map_err(|e| e.to_string())
            });
            pass.record_us.push(t0.elapsed().as_secs_f64() * 1e6);
            if let Some(record) = answer {
                h.eat_u64(record.as_ref().map_or(0, |r| r.len() as u64 + 1));
                h.eat(record.as_deref().unwrap_or_default().as_bytes());
                if let Some(want) = want {
                    let want = want.map(|r| serde_json::to_string(r).unwrap_or_default());
                    acct.check(record == want, || {
                        format!("day {day} {prefix:?}: wrong record")
                    });
                }
            }
        } else {
            let t0 = Instant::now();
            let answer = acct.op("point lookup", || {
                qs.point(day, prefix).map_err(|e| e.to_string())
            });
            pass.point_us.push(t0.elapsed().as_secs_f64() * 1e6);
            if let Some(point) = answer {
                match &point {
                    None => h.eat_u64(0),
                    Some(p) => {
                        h.eat_u64(1);
                        for flag in [
                            p.anycast_based_positive,
                            p.gcd_confirmed,
                            p.has_gcd,
                            p.partial,
                        ] {
                            h.eat(&[u8::from(flag)]);
                        }
                        for v in [p.max_vps as u64, p.n_sites as u64, p.record_offset] {
                            h.eat_u64(v);
                        }
                        h.eat_u64(u64::from(p.record_len));
                        h.eat_u64(p.origin_asn.map_or(u64::MAX, u64::from));
                        for city in &p.cities {
                            h.eat(city.as_bytes());
                            h.eat(&[0]);
                        }
                    }
                }
                if let Some(want) = want {
                    let ok = match (&point, want) {
                        (None, None) => true,
                        (Some(p), Some(r)) => {
                            p.anycast_based_positive == r.anycast_based_positive()
                                && p.gcd_confirmed == r.gcd_confirmed()
                                && p.origin_asn == r.origin_asn
                                && p.n_sites == r.gcd.as_ref().map_or(0, |g| g.n_sites)
                        }
                        _ => false,
                    };
                    acct.check(ok, || format!("day {day} {prefix:?}: wrong point answer"));
                }
            }
        }
        pass.ops += 1;

        if k % LOOKUPS_PER_HISTORY == LOOKUPS_PER_HISTORY - 1 {
            let prefix = prefix_of(order[(k / LOOKUPS_PER_HISTORY) as usize % order.len()]);
            let t0 = Instant::now();
            let answer = acct.op("history", || qs.history(prefix).map_err(|e| e.to_string()));
            pass.history_us.push(t0.elapsed().as_secs_f64() * 1e6);
            if let Some(history) = answer {
                for &(d, anycast, confirmed) in &history {
                    h.eat_u64(u64::from(d));
                    h.eat(&[u8::from(anycast), u8::from(confirmed)]);
                }
                if let Some(corpus) = corpus {
                    let want: Vec<(u32, bool, bool)> = corpus
                        .iter()
                        .map(|c| match c.records.get(&prefix) {
                            Some(r) => (c.day, r.anycast_based_positive(), r.gcd_confirmed()),
                            None => (c.day, false, false),
                        })
                        .collect();
                    acct.check(history == want, || format!("{prefix:?}: wrong history"));
                }
            }
            pass.ops += 1;
        }

        if k % LOOKUPS_PER_DIFF == LOOKUPS_PER_DIFF - 1 {
            let day = 1 + DIFF_DAY_STRIDE * (k / LOOKUPS_PER_DIFF) as u32;
            let t0 = Instant::now();
            let answer = acct.op("diff", || qs.diff(day, day + 1).map_err(|e| e.to_string()));
            pass.diff_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            if let Some(diff) = answer {
                let json = serde_json::to_string(&diff).unwrap_or_default();
                h.eat(json.as_bytes());
                if let (Some(a), Some(b)) = (day_of(day), day_of(day + 1)) {
                    let want = serde_json::to_string(&laces_census::diff(a, b)).unwrap_or_default();
                    acct.check(json == want, || {
                        format!("diff {day}->{}: wrong answer", day + 1)
                    });
                }
            }
            pass.ops += 1;
        }
    }
    let t0 = Instant::now();
    if let Some(findings) = acct.op("health findings", || {
        hs.findings(detectors).map_err(|e| e.to_string())
    }) {
        pass.findings_s = t0.elapsed().as_secs_f64();
        pass.findings = findings.len();
        h.eat_u64(findings_fingerprint(&findings, detectors));
    }
    pass.ops += 1;
    pass.wall_s = t_pass.elapsed().as_secs_f64();
    pass.fingerprint = h.finish();
    pass
}

pub fn archive_query(args: &Args, acct: &mut Acct) -> Result<Report, String> {
    let mut report = Report::default();
    let seed = derive(args.seed, 2);
    report.fact("corpus_seed", seed);
    report.fact("days", DAYS);
    report.fact("universe", UNIVERSE);
    report.fact("setup_reps", SETUP_REPS);
    report.fact("cache_budget_bytes", CACHE_BUDGET);
    report.fact("lookups_per_pass", LOOKUPS_PER_PASS);
    report.fact("histories_per_pass", LOOKUPS_PER_PASS / LOOKUPS_PER_HISTORY);
    report.fact("diffs_per_pass", LOOKUPS_PER_PASS / LOOKUPS_PER_DIFF);
    report.fact("clients", 1);

    // --- set-up: corpus generation, repeated; every repetition must
    // produce the same corpus -----------------------------------------
    let mut setup_s = Vec::new();
    let mut corpus: Vec<DailyCensus> = Vec::new();
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let days: Vec<DailyCensus> = (1..=DAYS).map(|d| synth_day(seed, d)).collect();
        setup_s.push(t0.elapsed().as_secs_f64());
        if rep == 0 {
            corpus = days;
        } else {
            let same = corpus
                .iter()
                .zip(&days)
                .all(|(a, b)| a.records == b.records);
            acct.check(same, || format!("corpus rep {rep} differs from rep 0"));
        }
    }
    let records: usize = corpus.iter().map(|c| c.records.len()).sum();
    report.fact("records", records);
    eprintln!("[census_bench] corpus: {records} records over {DAYS} days");

    // --- publication: every day through CensusStore::save -------------
    let store_dir = args.work.join("archive");
    let store: CensusStore = fresh_store(&store_dir)?;
    let mut publish_s = Vec::new();
    let mut bytes_by_kind: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut day_fingerprints = Vec::new();
    let mut h = Fnv::new();
    for census in &corpus {
        let published = acct
            .op("save", || save_day(&store, census))
            .ok_or_else(|| format!("day {} failed to save", census.day))?;
        publish_s.push(published.save_s);
        for (kind, n) in &published.bytes {
            *bytes_by_kind.entry(kind).or_default() += n;
        }
        h.eat_u64(published.fingerprint);
        day_fingerprints.push(published.fingerprint);
    }
    let stored_bytes: u64 = bytes_by_kind.values().sum();
    let publish_bytes = stored_bytes as f64 / f64::from(DAYS);

    // --- the read path ------------------------------------------------
    let t0 = Instant::now();
    let mut qs = store
        .query()
        .cache_budget(CACHE_BUDGET)
        .build()
        .map_err(|e| e.to_string())?;
    let query_open_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let mut hs = store.health().build().map_err(|e| e.to_string())?;
    let health_open_s = t0.elapsed().as_secs_f64();
    let detectors = DetectorConfig::standard(seed);
    let order = hot_order(seed);

    // The first pass checks every answer against the corpus and warms the
    // cache; it is not timed.
    eprintln!("[census_bench] archive saved; checking one pass of the query mix");
    let check = run_pass(
        seed,
        &order,
        &mut qs,
        &mut hs,
        &detectors,
        Some(&corpus),
        acct,
    );
    eprintln!(
        "[census_bench] checked pass: {:.3} s ({:?} s in the services), points {:.1} us, histories {:.1} us, diffs {:.3} ms (medians)",
        check.wall_s,
        check.busy_s(),
        median(&check.point_us),
        median(&check.history_us),
        median(&check.diff_ms)
    );
    h.eat_u64(check.fingerprint);
    let fingerprint = h.finish();
    drop(corpus);

    // Timed passes of the mix. Between passes the archive republishes
    // the next few days (identical bytes, so answers cannot change): the
    // save samples then spread over the whole run instead of the few
    // seconds of the first publication.
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut next_day = 0usize;
    loop {
        let pass = run_pass(seed, &order, &mut qs, &mut hs, &detectors, None, acct);
        acct.check(pass.fingerprint == check.fingerprint, || {
            format!(
                "pass {} answers differ from the checked pass",
                passes.len() + 1
            )
        });
        passes.push(pass);
        if args.trace || started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        for _ in 0..RESAVES_PER_PASS {
            let day = next_day % DAYS as usize;
            next_day += 1;
            let census = synth_day(seed, day as u32 + 1);
            if let Some(published) = acct.op("save", || save_day(&store, &census)) {
                publish_s.push(published.save_s);
                acct.check(published.fingerprint == day_fingerprints[day], || {
                    format!("day {}: republished bytes differ", census.day)
                });
            }
        }
    }
    // The rate counts only the time spent inside the services, not the
    // benchmark's own drawing, hashing and checking between the calls.
    let wall_s: f64 = passes.iter().map(|p| p.wall_s).sum();
    let ops_done: u64 = passes.iter().map(|p| p.ops).sum();
    let mut busy = [0.0f64; 5];
    for p in &passes {
        for (sum, s) in busy.iter_mut().zip(p.busy_s()) {
            *sum += s;
        }
    }
    let busy_s: f64 = busy.iter().sum();
    let ops_per_s = ops_done as f64 / busy_s;
    let samples = |of: fn(&Pass) -> &[f64]| -> Vec<f64> {
        let mut v: Vec<f64> = passes.iter().flat_map(|p| of(p).iter().copied()).collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let point_us = samples(|p| &p.point_us);
    let record_us = samples(|p| &p.record_us);
    let history_us = samples(|p| &p.history_us);
    let diff_ms = samples(|p| &p.diff_ms);

    report.line(format!(
        "publish_s {:.6} s (median of {} saves), publish_bytes {publish_bytes:.1} per day ({stored_bytes} over {DAYS} days, {records} records)",
        median(&publish_s),
        publish_s.len()
    ));
    report.line(format!(
        "query_p50_us {:.3}, query_p99_us {:.3} over {} point lookups (point only)",
        percentile(&point_us, 50.0),
        percentile(&point_us, 99.0),
        point_us.len()
    ));
    report.line(format!(
        "record fetch p50_us {:.3}, p99_us {:.3} over {} full-record fetches",
        percentile(&record_us, 50.0),
        percentile(&record_us, 99.0),
        record_us.len()
    ));
    report.line(format!(
        "query_ops_per_s {ops_per_s:.1} ({ops_done} operations in {} passes: {busy_s:.3} s inside the services of {wall_s:.3} s wall; one closed-loop client)",
        passes.len()
    ));
    let share = |x: f64| 100.0 * x / busy_s;
    report.line(format!(
        "query time by kind: point {:.1} %, record {:.1} %, history {:.1} %, diff {:.1} %, findings {:.1} %",
        share(busy[0]),
        share(busy[1]),
        share(busy[2]),
        share(busy[3]),
        share(busy[4])
    ));
    report.line(format!(
        "setup_s {:.4} s (median of {SETUP_REPS} corpus generations)",
        median(&setup_s)
    ));
    report.line(format!("peak_rss_mb {:.1} MB", peak_rss_mb()));
    report.fingerprint = Some(fingerprint);

    if args.trace {
        report.set("store.save_s", median(&publish_s));
        for (kind, n) in &bytes_by_kind {
            report.set(format!("store.bytes.{kind}"), *n as f64 / f64::from(DAYS));
        }
        // Serialise every day's sidecars again through the public
        // serialisers, for their per-sidecar times; each must equal the
        // stored file.
        let mut serialise_s: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for day in 1..=DAYS {
            let census = synth_day(seed, day);
            let s = serialise_sidecars(&census)?;
            if let Err(e) = check_serialised_matches(&store_dir, day, &s) {
                acct.fail(e);
            }
            for (kind, secs) in s.seconds {
                serialise_s.entry(kind).or_default().push(secs);
            }
        }
        for kind in SIDECARS {
            report.set(
                format!("store.serialise_s.{kind}"),
                median(&serialise_s[kind]),
            );
        }
        let t = qs.telemetry();
        let hits = t.counter(names::query::CACHE_HITS) as f64;
        let misses = t.counter(names::query::CACHE_MISSES) as f64;
        let read = (t.counter(names::query::INDEX_BYTES_READ)
            + t.counter(names::query::RECORD_BYTES_READ)) as f64;
        report.set("query.open_s", query_open_s);
        report.set("query.point_p50_us", percentile(&point_us, 50.0));
        report.set("query.point_p99_us", percentile(&point_us, 99.0));
        report.set("query.history_us", median(&history_us));
        report.set("query.diff_ms", median(&diff_ms));
        report.set("query.cache_hit_ratio", hits / (hits + misses).max(1.0));
        report.set(
            "query.bytes_read_ratio",
            read / (stored_bytes as f64).max(1.0),
        );
        report.set("health.open_s", health_open_s);
        report.set("health.findings_s", passes[0].findings_s);
        report.set("health.findings", passes[0].findings as f64);
    } else {
        report.set("setup_s", median(&setup_s));
        report.set("task_s", median(&publish_s));
        report.set("rate_per_s", ops_per_s);
        report.set("peak_rss_mb", peak_rss_mb());
    }
    drop(qs);
    drop(hs);
    let _ = std::fs::remove_dir_all(&store_dir);
    Ok(report)
}
