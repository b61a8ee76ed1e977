//! `gcd-full-scan`: the twice-yearly full-hitlist GCD_Ark scan on the
//! Paper world — `run_campaign` over the v4 and v6 hitlists with
//! `GcdConfig::daily`, precheck on and the default chunk fan-out. The
//! `gcd` and `geo` crates do all the work; the orchestrator,
//! classification and store do none, so a change to those must leave this
//! workload unchanged.

use std::net::IpAddr;
use std::sync::Arc;
use std::time::Instant;

use laces_gcd::engine::{run_campaign, GcdClass, GcdConfig, GcdReport};
use laces_netsim::World;
use laces_obs::names;

use crate::day::{setup, Hitlists, Setup};
use crate::util::{busy, median, peak_rss_mb, Acct, Busy, Fnv, Spans};
use crate::{Args, Report};

/// World generations per run; `setup_s` is their median.
const SETUP_REPS: usize = 2;

/// Measurement ids of the v4 and v6 campaigns.
const SCAN_IDS: (u32, u32) = (9_000, 9_001);

/// One v4 + v6 scan, its cost and the fingerprint of its results.
struct Scan {
    busy: Busy,
    probes: u64,
    targets: u64,
    overlap_tests: u64,
    anycast: usize,
    results: usize,
    fingerprint: u64,
}

fn campaign(world: &Arc<World>, targets: &[IpAddr], id: u32) -> Result<GcdReport, String> {
    let report = run_campaign(
        world,
        world.std_platforms.ark,
        targets,
        &GcdConfig::daily(id, 0),
    )
    .map_err(|e| e.to_string())?;
    if report.is_degraded() {
        return Err(format!(
            "campaign {id} degraded: {:?}",
            report.degraded_reasons()
        ));
    }
    Ok(report)
}

fn scan_once(world: &Arc<World>, v4: &[IpAddr], v6: &[IpAddr]) -> Result<Scan, String> {
    let (reports, busy) = busy(|| -> Result<_, String> {
        Ok((
            campaign(world, v4, SCAN_IDS.0)?,
            campaign(world, v6, SCAN_IDS.1)?,
        ))
    });
    let (r4, r6) = reports?;
    let mut h = Fnv::new();
    for r in [&r4, &r6] {
        for entry in &r.results {
            h.eat(
                serde_json::to_string(&entry)
                    .map_err(|e| e.to_string())?
                    .as_bytes(),
            );
        }
    }
    let overlap = |r: &GcdReport| r.telemetry.counter(names::gcd::ENUMERATION_OVERLAP_TESTS);
    Ok(Scan {
        busy,
        probes: r4.probes_sent + r6.probes_sent,
        targets: (v4.len() + v6.len()) as u64,
        overlap_tests: overlap(&r4) + overlap(&r6),
        anycast: r4.count(GcdClass::Anycast) + r6.count(GcdClass::Anycast),
        results: r4.results.len() + r6.results.len(),
        fingerprint: h.finish(),
    })
}

pub fn gcd_full_scan(args: &Args, acct: &mut Acct) -> Result<Report, String> {
    let mut report = Report::default();
    let mut spans = Spans::new();
    let set = setup(true, args.seed, SETUP_REPS, acct)?;
    let setup_s = set.setup_s();
    let Setup {
        world,
        hits,
        world_s,
        hit_s,
    } = set;
    let Hitlists { v4, v6, .. } = &hits;
    let (v4, v6) = (v4.addresses(), v6.addresses());
    report.fact("scale", "paper");
    report.fact("world_seed", world.cfg.seed);
    report.fact("setup_reps", SETUP_REPS);
    report.fact("targets", v4.len() + v6.len());

    // Warm-up: a scan of every 8th target fills the platform's route and
    // distance caches the timed scans reuse.
    let sample = |list: &[IpAddr]| list.iter().step_by(8).copied().collect::<Vec<_>>();
    acct.op("warm-up scan", || {
        scan_once(&world, &sample(&v4), &sample(&v6))
    })
    .ok_or("the warm-up scan failed")?;

    let started = Instant::now();
    let mut scan_s = Vec::new();
    let mut fingerprint = None;
    let mut last = None;
    while let Some(scan) = acct.op("scan", || {
        spans
            .time("gcd.campaign", |_| scan_once(&world, &v4, &v6))
            .0
    }) {
        let first = *fingerprint.get_or_insert(scan.fingerprint);
        acct.check(scan.fingerprint == first, || {
            format!(
                "scan results {:#018x} differ from the first scan's {first:#018x}",
                scan.fingerprint
            )
        });
        acct.check(scan.anycast > 0, || {
            "the scan found no anycast prefix".to_string()
        });
        scan_s.push(scan.busy.wall_s);
        report.line(format!(
            "scan: scan_s {:.4}, {} probes to {} targets, {} anycast of {} results",
            scan.busy.wall_s, scan.probes, scan.targets, scan.anycast, scan.results
        ));
        last = Some(scan);
        if args.trace || started.elapsed().as_secs_f64() + median(&scan_s) > args.seconds {
            break;
        }
    }
    let (scan, fingerprint) = last.zip(fingerprint).ok_or("no timed scan completed")?;
    report.line(format!(
        "scan_s {:.4} s (median of {} scans)",
        median(&scan_s),
        scan_s.len()
    ));
    report.line(format!(
        "setup_s {:.4} s (median of {} setups)",
        median(&setup_s),
        setup_s.len()
    ));
    report.line(format!("peak_rss_mb {:.1} MB", peak_rss_mb()));
    let mut h = Fnv::new();
    h.eat_u64(hits.fingerprint());
    h.eat_u64(fingerprint);
    report.fingerprint = Some(h.finish());

    if args.trace {
        report.set("netsim.world_gen_s", median(&world_s));
        report.set("hitlist.build_s", median(&hit_s));
        report.set("hitlist.targets.v4", hits.v4.len() as f64);
        report.set("hitlist.targets.v4dns", hits.v4_dns.len() as f64);
        report.set("hitlist.targets.v6", hits.v6.len() as f64);
        report.set("gcd.campaign_s", scan.busy.wall_s);
        report.set("gcd.probes", scan.probes as f64);
        // With the precheck on, one VP probes every target once first.
        report.set("gcd.precheck_probes", scan.targets as f64);
        report.set("gcd.overlap_tests", scan.overlap_tests as f64);
        report.set(
            "gcd.anycast_ratio",
            scan.anycast as f64 / (scan.results as f64).max(1.0),
        );
        report.set("gcd.cpu_util", scan.busy.cpu_util);
        report.spans_jsonl = spans.to_jsonl();
    } else {
        report.set("setup_s", median(&setup_s));
        report.set("task_s", median(&scan_s));
        report.set("rate_per_s", scan.probes as f64 / median(&scan_s));
        report.set("peak_rss_mb", peak_rss_mb());
    }
    Ok(report)
}
