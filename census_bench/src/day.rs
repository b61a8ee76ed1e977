//! The two census-day workloads.
//!
//! - `census-day`: the Paper world, `PipelineConfig::standard`, tracing
//!   off, no faults. R6's number: one day from start to committed
//!   artifacts.
//! - `traced-faulted-day`: the Mid world with 125‰ flight-recorder
//!   sampling and a seeded worker-crash + capture-fabric fault plan, so the
//!   tracer, the degraded paths and the trace sidecars do work.
//!
//! Both generate the world, run and save one warm-up day that fills the
//! lazy state (origin tables, route and geometry caches, a heap grown to
//! the day's sidecar sizes), then time days of
//! `run_day` + `CensusStore::save`, each saved to a fresh store. The
//! traced run (`--trace 1`) times one such day and then drives the same
//! day again layer by layer, with the same measurement ids, from the
//! benchmark's own code: hitlists, the six anycast measurements and their
//! classifications, AT assembly and the GCD stage. It must reach the same
//! AT set, GCD target set and GCD results as `run_day`.

use std::collections::{BTreeMap, BTreeSet};
use std::net::IpAddr;
use std::sync::Arc;
use std::time::Instant;

use laces_census::atlist::AtList;
use laces_census::pipeline::{CensusPipeline, DayOutput, PipelineConfig};
use laces_core::classify::AnycastClassification;
use laces_core::fault::FaultPlan;
use laces_core::orchestrator::run_measurement;
use laces_core::results::WorkerStatus;
use laces_core::spec::MeasurementSpec;
use laces_gcd::engine::{run_campaign, GcdClass, GcdConfig, GcdReport};
use laces_hitlist::Hitlist;
use laces_netsim::{World, WorldConfig};
use laces_obs::names;
use laces_packet::{PrefixKey, Protocol};
use laces_trace::{TraceConfig, Tracer};

use crate::publish::{check_serialised_matches, fresh_store, save_day, serialise_sidecars};
use crate::util::{busy, derive, median, nproc, peak_rss_mb, Acct, Fnv, Spans};
use crate::{Args, Report};

/// World generations per run; `setup_s` is their median.
const PAPER_SETUP_REPS: usize = 2;
const MID_SETUP_REPS: usize = 40;

/// Per-mille of targets the traced day samples.
const TRACE_PER_MILLE: u16 = 125;

/// Flight-recorder event cap per component buffer. At the default cap
/// (65,536) a traced Mid day writes ~470 MB and its save takes ~10 s, so a
/// run would time only two days and one slow stretch of the shared host
/// would move the whole figure. At this cap every buffer still overflows
/// (the drop path works), a day writes ~90 MB, and a run times several
/// short days whose median rides out such stretches.
const TRACE_CAP: usize = 8_192;

/// The shape of one census-day workload.
struct DayPlan {
    paper: bool,
    faulted: bool,
    setup_reps: usize,
    /// Timed days a run makes even when they overrun `--seconds`.
    min_days: usize,
}

pub fn census_day(args: &Args, acct: &mut Acct) -> Result<Report, String> {
    run(
        &DayPlan {
            paper: true,
            faulted: false,
            setup_reps: PAPER_SETUP_REPS,
            min_days: 1,
        },
        args,
        acct,
    )
}

pub fn traced_faulted_day(args: &Args, acct: &mut Acct) -> Result<Report, String> {
    run(
        &DayPlan {
            paper: false,
            faulted: true,
            setup_reps: MID_SETUP_REPS,
            min_days: 3,
        },
        args,
        acct,
    )
}

/// The seeded world configuration of a run.
pub fn world_config(paper: bool, seed: u64) -> WorldConfig {
    let mut cfg = if paper {
        WorldConfig::paper()
    } else {
        WorldConfig::paper_topology_tiny_targets()
    };
    cfg.seed = derive(seed, 1);
    cfg
}

/// The three hitlists a census day streams.
pub struct Hitlists {
    pub v4: Hitlist,
    pub v4_dns: Hitlist,
    pub v6: Hitlist,
}

impl Hitlists {
    pub fn build(world: &World) -> Self {
        Hitlists {
            v4: laces_hitlist::build_v4(world),
            v4_dns: laces_hitlist::build_v4_dns(world),
            v6: laces_hitlist::build_v6(world),
        }
    }

    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        for list in [&self.v4, &self.v4_dns, &self.v6] {
            h.eat_u64(list.len() as u64);
            for e in &list.entries {
                h.eat(format!("{}", e.addr).as_bytes());
            }
        }
        h.finish()
    }
}

/// The generated world and hitlists, with the seconds each set-up
/// repetition spent generating the world and building the hitlists.
pub struct Setup {
    pub world: Arc<World>,
    pub hits: Hitlists,
    pub world_s: Vec<f64>,
    pub hit_s: Vec<f64>,
}

impl Setup {
    /// Seconds of each whole set-up repetition.
    pub fn setup_s(&self) -> Vec<f64> {
        self.world_s
            .iter()
            .zip(&self.hit_s)
            .map(|(w, h)| w + h)
            .collect()
    }
}

/// Generate the world and its hitlists `reps` times; every repetition
/// must yield the same hitlists. Keeps the last world and hitlists.
pub fn setup(paper: bool, seed: u64, reps: usize, acct: &mut Acct) -> Result<Setup, String> {
    let mut world_s = Vec::new();
    let mut hit_s = Vec::new();
    let mut last = None;
    let mut first_fp = None;
    for rep in 0..reps {
        // Free the previous world before generating the next one.
        drop(last.take());
        let t0 = Instant::now();
        let world = Arc::new(World::generate(world_config(paper, seed)));
        world_s.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let hits = Hitlists::build(&world);
        hit_s.push(t0.elapsed().as_secs_f64());
        let fp = hits.fingerprint();
        let want = *first_fp.get_or_insert(fp);
        acct.check(fp == want, || {
            format!("setup rep {rep}: hitlists differ from rep 0")
        });
        acct.check(!hits.v4.is_empty() && !hits.v6.is_empty(), || {
            "setup produced an empty hitlist".to_string()
        });
        last = Some((world, hits));
    }
    let (world, hits) = last.ok_or("no setup repetitions")?;
    Ok(Setup {
        world,
        hits,
        world_s,
        hit_s,
    })
}

/// The seeded fault plan of `traced-faulted-day`: one production worker
/// crashes early in every anycast stage, and the capture fabric drops 5%
/// and duplicates 2% of replies.
fn fault_plan(world: &World, seed: u64) -> FaultPlan {
    let n_workers = world.platform(world.std_platforms.production).n_vps();
    let n_workers = u16::try_from(n_workers).unwrap_or(u16::MAX);
    FaultPlan::seeded(derive(seed, 3), n_workers, 1, 500).and_fabric(0.05, 0.02)
}

fn pipeline_config(world: &World, plan: &DayPlan, seed: u64) -> PipelineConfig {
    let mut cfg = PipelineConfig::standard(world);
    cfg.shards = Some(nproc());
    if plan.faulted {
        cfg.trace = TraceConfig::sampled(derive(seed, 4), TRACE_PER_MILLE);
        cfg.trace.cap_per_component = TRACE_CAP;
        cfg.faults = fault_plan(world, seed);
    }
    cfg
}

/// A day's degradation must be exactly what the fault plan predicts.
fn check_degraded(acct: &mut Acct, out: &DayOutput, cfg: &PipelineConfig) {
    let expected = !cfg.faults.doomed_workers().is_empty();
    acct.check(out.degraded() == expected, || {
        format!(
            "day {}: degraded={} but the fault plan predicts {expected} ({:?})",
            out.census.day,
            out.degraded(),
            out.census.degraded_reasons()
        )
    });
    acct.check(!out.census.records.is_empty(), || {
        format!("day {} published no records", out.census.day)
    });
}

/// The prefix set a day classified anycast by any protocol.
fn at_set(classifications: &BTreeMap<String, AnycastClassification>) -> BTreeSet<PrefixKey> {
    classifications
        .values()
        .flat_map(|c| c.anycast_targets())
        .collect()
}

fn gcd_fingerprint(results: &BTreeMap<PrefixKey, laces_gcd::PrefixGcd>) -> Result<u64, String> {
    let mut h = Fnv::new();
    for entry in results {
        h.eat(
            serde_json::to_string(&entry)
                .map_err(|e| e.to_string())?
                .as_bytes(),
        );
    }
    Ok(h.finish())
}

fn run(plan: &DayPlan, args: &Args, acct: &mut Acct) -> Result<Report, String> {
    let mut report = Report::default();
    let set = setup(plan.paper, args.seed, plan.setup_reps, acct)?;
    let setup_s = set.setup_s();
    let Setup {
        world,
        hits,
        world_s,
        hit_s,
    } = set;
    let cfg = pipeline_config(&world, plan, args.seed);
    report.fact("scale", if plan.paper { "paper" } else { "mid" });
    report.fact("world_seed", world.cfg.seed);
    report.fact("setup_reps", plan.setup_reps);
    report.fact("targets", hits.v4.len() + hits.v6.len());
    if plan.faulted {
        report.fact("fault_seed", cfg.faults.seed);
        report.fact("trace_seed", cfg.trace.seed);
        report.fact("trace_per_mille", TRACE_PER_MILLE);
        report.fact("trace_cap_per_component", TRACE_CAP);
    }

    let mut pipeline = CensusPipeline::new(Arc::clone(&world), cfg.clone());
    let warm = acct
        .op("warm-up day", || {
            pipeline.run_day(0).map_err(|e| e.to_string())
        })
        .ok_or("the warm-up day failed")?;
    check_degraded(acct, &warm, &cfg);
    // Saving the warm-up day warms the publication path too: the first
    // save in a process pays for growing the heap to the day's sidecar
    // sizes.
    let warm_dir = args.work.join("warm-up");
    let warm_store = fresh_store(&warm_dir)?;
    acct.op("warm-up save", || save_day(&warm_store, &warm.census));
    drop(warm);
    let _ = std::fs::remove_dir_all(&warm_dir);

    let store_dir = args.work.join("store");
    let started = Instant::now();
    let mut day_s = Vec::new();
    let mut probes = Vec::new();
    let mut fingerprint = None;
    let mut first_jsonl = None;
    let mut traced = None;
    for day in 1.. {
        let feedback_before = args.trace.then(|| pipeline.feedback.clone());
        let store = fresh_store(&store_dir)?;
        let t0 = Instant::now();
        let Some(out) = acct.op("run_day", || {
            pipeline.run_day(day).map_err(|e| e.to_string())
        }) else {
            break;
        };
        let run_day_s = t0.elapsed().as_secs_f64();
        let Some(published) = acct.op("save", || save_day(&store, &out.census)) else {
            break;
        };
        let wall = run_day_s + published.save_s;
        day_s.push(wall);
        probes.push((out.census.stats.anycast_probes + out.census.stats.gcd_probes) as f64);
        check_degraded(acct, &out, &cfg);
        if day == 1 {
            let mut h = Fnv::new();
            h.eat_u64(hits.fingerprint());
            h.eat_u64(published.fingerprint);
            fingerprint = Some(h.finish());
            if plan.faulted {
                first_jsonl = Some(out.census.to_jsonl());
            }
        }
        report.line(format!(
            "day {day}: day_s {wall:.4} (run_day {run_day_s:.4} + save {:.4}), publish_bytes {}, \
             {} records, {} anycast + {} GCD probes over {} targets, degraded reasons {:?}",
            published.save_s,
            published.total_bytes(),
            out.census.records.len(),
            out.census.stats.anycast_probes,
            out.census.stats.gcd_probes,
            hits.v4.len() + hits.v6.len(),
            out.census.degraded_reasons(),
        ));
        if let Some(feedback) = feedback_before {
            // The traced run times exactly one day, then takes it apart.
            // Its sidecars are rebuilt through the public serialisers and
            // compared with what the store wrote, before the store goes.
            let serialised = serialise_sidecars(&out.census)?;
            if let Err(e) = check_serialised_matches(&store_dir, day, &serialised) {
                acct.fail(e);
            }
            traced = Some((out, published, wall, feedback, serialised));
            break;
        }
        drop(out);
        let elapsed = started.elapsed().as_secs_f64();
        if day_s.len() >= plan.min_days && elapsed + median(&day_s) > args.seconds {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(&store_dir);
    if day_s.is_empty() {
        return Err("no census day completed".into());
    }

    if plan.faulted {
        // The flight recorder must not change what is published: an
        // untraced pipeline under the same fault plan publishes the same
        // JSONL for the first timed day.
        let mut untraced_cfg = cfg.clone();
        untraced_cfg.trace = TraceConfig::default();
        let mut untraced = CensusPipeline::new(Arc::clone(&world), untraced_cfg);
        let same = acct.op("untraced days", || {
            untraced.run_day(0).map_err(|e| e.to_string())?;
            let out = untraced.run_day(1).map_err(|e| e.to_string())?;
            Ok(Some(out.census.to_jsonl()) == first_jsonl)
        });
        acct.check(same == Some(true), || {
            "traced JSONL differs from the untraced run under the same fault plan".to_string()
        });
    }

    let median_day = median(&day_s);
    let rate = median(&probes) / median_day;
    report.line(format!(
        "day_s {median_day:.4} s (median of {} timed days)",
        day_s.len()
    ));
    report.line(format!(
        "setup_s {:.4} s (median of {} setups)",
        median(&setup_s),
        setup_s.len()
    ));
    report.line(format!("peak_rss_mb {:.1} MB", peak_rss_mb()));
    report.fingerprint = fingerprint;

    if let Some((out, published, wall, feedback, serialised)) = traced {
        let mut spans = Spans::new();
        layers(&mut report, &mut spans, acct, &world, &cfg, &out, &feedback)?;
        report.set("netsim.world_gen_s", median(&world_s));
        report.set("hitlist.build_s", median(&hit_s));
        report.set("hitlist.targets.v4", hits.v4.len() as f64);
        report.set("hitlist.targets.v4dns", hits.v4_dns.len() as f64);
        report.set("hitlist.targets.v6", hits.v6.len() as f64);
        report.set("census.day_s", wall);
        report.set(
            "census.gcd_targets",
            out.census.stats.gcd_target_count as f64,
        );
        report.set("census.records_published", out.census.records.len() as f64);
        report.set("store.save_s", published.save_s);
        for (kind, n) in &published.bytes {
            report.set(format!("store.bytes.{kind}"), *n as f64);
        }
        for (kind, s) in &serialised.seconds {
            report.set(format!("store.serialise_s.{kind}"), *s);
        }
        let trace = &out.census.stats.trace_report;
        report.set("trace.events", trace.n_events() as f64);
        report.set(
            "trace.dropped",
            trace
                .sections
                .iter()
                .flat_map(|s| s.dropped.values())
                .sum::<u64>() as f64,
        );
        if trace.enabled {
            let export: f64 = serialised
                .seconds
                .iter()
                .filter(|(k, _)| *k == "trace" || *k == "chrome")
                .map(|(_, s)| s)
                .sum();
            report.set("trace.export_s", export);
        }
        // What the layer spans leave unexplained of the day: pipeline glue
        // that only in-library spans can break down.
        let spanned: f64 = spans
            .spans
            .iter()
            .filter(|s| s.parent == Some(0))
            .map(|s| s.end_s - s.start_s)
            .sum();
        report.set("census.unattributed_s", wall - spanned - published.save_s);
        report.line(format!(
            "traced day: day_s {wall:.4} = layer spans {spanned:.4} + save {:.4} + unattributed {:.4}",
            published.save_s,
            wall - spanned - published.save_s
        ));
        report.spans_jsonl = spans.to_jsonl();
    } else {
        report.set("setup_s", median(&setup_s));
        report.set("task_s", median_day);
        report.set("rate_per_s", rate);
        report.set("peak_rss_mb", peak_rss_mb());
    }
    Ok(report)
}

/// Drive one census day layer by layer, mirroring `CensusPipeline::run_day`
/// with the same measurement ids and the feedback list the pipeline held
/// before that day, and compare the result with the pipeline's own day.
fn layers(
    report: &mut Report,
    spans: &mut Spans,
    acct: &mut Acct,
    world: &Arc<World>,
    cfg: &PipelineConfig,
    out: &DayOutput,
    feedback: &AtList,
) -> Result<(), String> {
    let day = out.census.day;
    let (replica, _) = spans.time("census.day", |spans| {
        let (hits, _) = spans.time("hitlist.build", |_| Hitlists::build(world));
        let mut addr_of: BTreeMap<PrefixKey, IpAddr> = BTreeMap::new();
        for h in [&hits.v4, &hits.v6] {
            for e in &h.entries {
                addr_of.insert(e.prefix, e.addr);
            }
        }

        // --- the six anycast measurements and their classifications ----
        let mut stages: Vec<(Protocol, &Hitlist)> = Vec::new();
        for &p in &cfg.protocols_v4 {
            stages.push((
                p,
                if p == Protocol::Udp {
                    &hits.v4_dns
                } else {
                    &hits.v4
                },
            ));
        }
        for &p in &cfg.protocols_v6 {
            stages.push((p, &hits.v6));
        }
        let mut classifications: BTreeMap<String, AnycastClassification> = BTreeMap::new();
        let (mut degraded_workers, mut fabric_drops) = (0u64, 0u64);
        for (stage_idx, (protocol, hitlist)) in stages.into_iter().enumerate() {
            let label = format!("{}{}", protocol.name(), hitlist.family.suffix());
            let mut builder = MeasurementSpec::builder(
                cfg.base_measurement_id + day * 32 + stage_idx as u32,
                cfg.anycast_platform,
            )
            .protocol(protocol)
            .targets(Arc::new(hitlist.addresses()))
            .rate_per_s(cfg.rate_per_s)
            .offset_ms(cfg.offset_ms)
            .day(day)
            .faults(cfg.faults.clone())
            .trace(cfg.trace);
            if let Some(shards) = cfg.shards {
                builder = builder.shards(shards);
            }
            let spec = acct.op("build spec", || {
                builder.build(world).map_err(|e| e.to_string())
            })?;
            let (outcome, b) = spans
                .time(&format!("core.measure.{label}"), |_| {
                    busy(|| run_measurement(world, &spec))
                })
                .0;
            let outcome = acct.op(&format!("measure {label}"), || {
                outcome.map_err(|e| e.to_string())
            })?;
            report.set(format!("core.measure_s.{label}"), b.wall_s);
            report.set(format!("core.cpu_util.{label}"), b.cpu_util);
            report.set(format!("core.probes.{label}"), outcome.probes_sent as f64);
            report.set(
                format!("core.records.{label}"),
                outcome.records.len() as f64,
            );
            report.set(
                format!("core.reply_ratio.{label}"),
                outcome.records.len() as f64 / (outcome.probes_sent as f64).max(1.0),
            );
            degraded_workers += outcome
                .worker_health
                .iter()
                .filter(|w| w.status == WorkerStatus::Failed)
                .count() as u64;
            fabric_drops += outcome.telemetry.counter(names::fabric::DROPPED);
            let (class, s) = spans.time(&format!("core.classify.{label}"), |_| {
                AnycastClassification::from_outcome_traced(&outcome, &Tracer::new(cfg.trace))
            });
            report.set(format!("core.classify_s.{label}"), s);
            report.set(
                format!("core.ats.{label}"),
                class.anycast_targets().len() as f64,
            );
            classifications.insert(label, class);
        }
        report.set("core.degraded_workers", degraded_workers as f64);
        report.set("core.fabric_drops", fabric_drops as f64);

        // --- AT assembly -----------------------------------------------
        let ((candidates, gcd_targets), s) = spans.time("census.at_assembly", |_| {
            let candidates = at_set(&classifications);
            let mut gcd_targets = candidates.clone();
            gcd_targets.extend(feedback.prefixes());
            gcd_targets.retain(|p| addr_of.contains_key(p));
            (candidates, gcd_targets)
        });
        report.set("census.at_assembly_s", s);

        // --- GCD over the ATs, TCP retry for the dark ones ---------------
        let at_addrs: Vec<IpAddr> = gcd_targets.iter().map(|p| addr_of[p]).collect();
        let mut gcd_cfg = GcdConfig::daily(cfg.base_measurement_id + day * 32 + 20, day);
        gcd_cfg.precheck = false;
        gcd_cfg.trace = cfg.trace;
        let ((main, b_main), s) = spans.time("gcd.campaign", |_| {
            busy(|| run_campaign(world, cfg.gcd_platform, &at_addrs, &gcd_cfg))
        });
        report.set("gcd.campaign_s", s);
        let mut main = acct.op("gcd campaign", || main.map_err(|e| e.to_string()))?;
        let dark: Vec<IpAddr> = main
            .results
            .iter()
            .filter(|(_, r)| r.class == GcdClass::Unresponsive)
            .map(|(p, _)| addr_of[p])
            .collect();
        let mut gcd_probes = main.probes_sent;
        let mut overlap = main
            .telemetry
            .counter(names::gcd::ENUMERATION_OVERLAP_TESTS);
        let mut precheck_probes = 0u64;
        let mut gcd_busy = (b_main.wall_s, b_main.cpu_util * b_main.wall_s);
        if !dark.is_empty() {
            let mut tcp_cfg = GcdConfig::daily(cfg.base_measurement_id + day * 32 + 21, day);
            tcp_cfg.protocol = Protocol::Tcp;
            tcp_cfg.precheck = true;
            tcp_cfg.trace = cfg.trace;
            let ((retry, b), s) = spans.time("gcd.tcp_retry", |_| {
                busy(|| run_campaign(world, cfg.gcd_platform, &dark, &tcp_cfg))
            });
            report.set("gcd.tcp_retry_s", s);
            let retry = acct.op("gcd tcp retry", || retry.map_err(|e| e.to_string()))?;
            gcd_busy = (gcd_busy.0 + b.wall_s, gcd_busy.1 + b.cpu_util * b.wall_s);
            gcd_probes += retry.probes_sent;
            overlap += retry
                .telemetry
                .counter(names::gcd::ENUMERATION_OVERLAP_TESTS);
            // The responsiveness precheck probes every target once from one VP.
            precheck_probes += dark.len() as u64 * u64::from(tcp_cfg.attempts);
            merge_retry(&mut main, retry);
        }
        report.set("gcd.probes", gcd_probes as f64);
        report.set("gcd.precheck_probes", precheck_probes as f64);
        report.set("gcd.overlap_tests", overlap as f64);
        report.set(
            "gcd.anycast_ratio",
            main.count(GcdClass::Anycast) as f64 / (main.results.len() as f64).max(1.0),
        );
        report.set("gcd.cpu_util", gcd_busy.1 / gcd_busy.0.max(1e-9));
        Some((candidates, gcd_targets, main))
    });

    // The layer-by-layer day must reach what `run_day` reached.
    let (candidates, gcd_targets, main) = replica.ok_or("the layer-by-layer day failed")?;
    acct.check(candidates == at_set(&out.classifications), || {
        "layer-by-layer AT set differs from run_day's".to_string()
    });
    let targets_match = main.results.keys().copied().collect::<BTreeSet<_>>() == gcd_targets
        && out.gcd.keys().copied().collect::<BTreeSet<_>>() == gcd_targets
        && gcd_targets.len() == out.census.stats.gcd_target_count;
    acct.check(targets_match, || {
        "layer-by-layer GCD target set differs from run_day's".to_string()
    });
    let (a, b) = (gcd_fingerprint(&main.results)?, gcd_fingerprint(&out.gcd)?);
    acct.check(a == b, || {
        format!("layer-by-layer GCD results {a:#018x} differ from run_day's {b:#018x}")
    });
    Ok(())
}

/// Fold the TCP retry's answers for ICMP-dark targets into the main report,
/// as the pipeline does.
fn merge_retry(main: &mut GcdReport, retry: GcdReport) {
    for (p, r) in retry.results {
        if r.class != GcdClass::Unresponsive {
            main.results.insert(p, r);
        }
    }
}
