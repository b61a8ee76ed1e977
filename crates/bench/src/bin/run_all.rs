//! Run the full experiment suite and write `EXPERIMENTS.md`.
//!
//! ```text
//! cargo run --release -p laces-bench --bin run_all [-- tiny|mid|paper] [--out PATH]
//! ```

use std::fmt::Write as _;

use laces_bench::{all_experiments, Artifacts, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = Scale::from_env_or_args(&args);
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "EXPERIMENTS.md".to_string());

    let artifacts = Artifacts::new(scale);
    let suite_start = std::time::Instant::now();

    let mut md = String::new();
    let _ = writeln!(md, "# LACeS — Experiment Results\n");
    let _ = writeln!(
        md,
        "Generated by `cargo run --release -p laces-bench --bin run_all` at scale `{scale:?}`."
    );
    let _ = writeln!(
        md,
        "World: {} targets, {} ASes, {} deployments, seed {:#x}.\n",
        artifacts.world.n_targets(),
        artifacts.world.topo.len(),
        artifacts.world.deployments.len(),
        artifacts.world.cfg.seed
    );
    let _ = writeln!(
        md,
        "Absolute numbers are expected to match the paper only for the anycast-side\n\
         populations (kept at paper scale); unicast-mass-dependent columns scale with\n\
         the configured hitlist size — see DESIGN.md §4. The *shape* claims noted under\n\
         each artifact are the reproduction targets.\n"
    );

    // Probing-pipeline before/after benchmark (batched vs pre-batching hot
    // path, identical workload fingerprint). Runs before the experiment
    // suite so its throughput numbers are measured on a quiet heap.
    eprintln!("\n========== perf: probing pipeline before/after ==========");
    let probing = laces_bench::run_probing_bench(&artifacts);
    eprintln!(
        "before {:.0} probes/s, after {:.0} probes/s, speedup {:.2}x, fingerprints match: {}",
        probing.before_probes_per_s,
        probing.after_probes_per_s,
        probing.speedup,
        probing.fingerprint_match
    );
    let pr4_path = std::path::Path::new(&out_path)
        .parent()
        .map(|d| d.join("BENCH_pr4.json"))
        .unwrap_or_else(|| "BENCH_pr4.json".into());
    std::fs::write(&pr4_path, probing.to_json()).expect("write probing bench file");
    eprintln!("wrote {}", pr4_path.display());

    // Tracing-overhead benchmark on the same workload, baselined against the
    // batched throughput just measured in this process.
    eprintln!("\n========== perf: flight-recorder tracing overhead ==========");
    let tracing = laces_bench::run_tracing_bench(&artifacts, &probing);
    eprintln!(
        "baseline {:.0} probes/s, disabled {:.0} probes/s ({:+.2}%), sampled {:.0} probes/s ({:+.2}%, {} events)",
        tracing.baseline_probes_per_s,
        tracing.disabled_probes_per_s,
        tracing.disabled_overhead_pct,
        tracing.sampled_probes_per_s,
        tracing.sampled_overhead_pct,
        tracing.sampled_events
    );
    let pr5_path = std::path::Path::new(&out_path)
        .parent()
        .map(|d| d.join("BENCH_pr5.json"))
        .unwrap_or_else(|| "BENCH_pr5.json".into());
    std::fs::write(&pr5_path, tracing.to_json()).expect("write tracing bench file");
    eprintln!("wrote {}", pr5_path.display());

    // Sharded-streamer benchmark on the same workload: invariance
    // fingerprints across shard counts plus throughput vs the frozen pr4
    // anchors (Mid scale). At the Huge scale this also runs a full
    // synthetic-hitlist census day end-to-end.
    eprintln!("\n========== perf: sharded streaming ==========");
    let sharding = laces_bench::run_sharding_bench(&artifacts);
    eprintln!(
        "best sharded ({} shards) {:.0} probes/s, fingerprints match across shard counts: {}",
        sharding.best_shards, sharding.best_probes_per_s, sharding.fingerprint_match
    );
    if let Some(anchor) = &sharding.pr4_anchor {
        eprintln!(
            "pr4 anchors: {:.2}x vs scalar single-streamer, {:.2}x vs batched single-streamer, pr4 fingerprint match: {}",
            anchor.speedup_vs_scalar, anchor.speedup_vs_batched, anchor.fingerprint_match
        );
    }
    if let Some(day) = &sharding.census_day {
        eprintln!(
            "census day: {} v4 + {} v6 targets, {} anycast + {} gcd probes, {} rows, degraded: {}, {:.1} s",
            day.hitlist_v4,
            day.hitlist_v6,
            day.anycast_probes,
            day.gcd_probes,
            day.census_rows,
            day.degraded,
            day.wall_ms / 1000.0
        );
    }
    let pr6_path = std::path::Path::new(&out_path)
        .parent()
        .map(|d| d.join("BENCH_pr6.json"))
        .unwrap_or_else(|| "BENCH_pr6.json".into());
    std::fs::write(&pr6_path, sharding.to_json()).expect("write sharding bench file");
    eprintln!("wrote {}", pr6_path.display());

    // Indexed query-service benchmark over a synthetic longitudinal corpus:
    // point-lookup latency/throughput, longitudinal scans, and the
    // byte-identical-to-eager-path equivalence checks.
    eprintln!("\n========== perf: indexed query service ==========");
    let query = laces_bench::run_query_bench(&artifacts);
    eprintln!(
        "{} lookups in {:.0} ms: {:.0} reads/s, mean {:.1} us (target < {:.0} us), sampled max {:.0} us; read {:.4} of published bytes; equivalence: {}; target met: {}",
        query.point_lookups,
        query.point_wall_ms,
        query.reads_per_s,
        query.mean_point_us,
        query.target_point_us,
        query.sampled_max_us,
        query.bytes_read_fraction,
        query.equivalence.all_match(),
        query.target_met
    );
    let pr7_path = std::path::Path::new(&out_path)
        .parent()
        .map(|d| d.join("BENCH_pr7.json"))
        .unwrap_or_else(|| "BENCH_pr7.json".into());
    std::fs::write(&pr7_path, query.to_json()).expect("write query bench file");
    eprintln!("wrote {}", pr7_path.display());

    // GCD campaign benchmark: the shipped engine's throughput, rerun and
    // chunk-count invariance at bench scale, and (Huge) the speedup over
    // the original engine's frozen numbers.
    eprintln!("\n========== perf: GCD campaign ==========");
    let gcd = laces_bench::run_gcd_bench(&artifacts);
    eprintln!(
        "{:.0} probes/s, reruns match: {}, chunk invariant: {}",
        gcd.after_probes_per_s, gcd.fingerprint_match, gcd.chunk_invariant
    );
    if let Some(r) = &gcd.reference_anchor {
        eprintln!(
            "reference anchor: {:.2}x (target {:.0}x), fingerprint match: {}",
            r.speedup, gcd.target_speedup, r.fingerprint_match
        );
    }
    if let Some(fp) = &gcd.full_platform {
        eprintln!(
            "full platform: {} targets, {} probes, {:.1} ms, reruns match: {}",
            fp.n_targets, fp.probes_sent, fp.wall_ms, fp.fingerprint_match
        );
    }
    let pr9_path = std::path::Path::new(&out_path)
        .parent()
        .map(|d| d.join("BENCH_pr9.json"))
        .unwrap_or_else(|| "BENCH_pr9.json".into());
    std::fs::write(&pr9_path, gcd.to_json()).expect("write gcd bench file");
    eprintln!("wrote {}", pr9_path.display());

    // Health-monitoring benchmark: longitudinal sidecar scan throughput,
    // detector determinism fingerprints, and the disabled-monitor
    // overhead gate on the BENCH_pr4 workload.
    eprintln!("\n========== perf: census health monitoring ==========");
    let health = laces_bench::run_health_bench(&artifacts);
    eprintln!(
        "{} sidecar reads: {:.0} reads/s; {} findings, fingerprint match: {}; monitor disabled {:+.2}%, enabled {:+.2}% ({} ticks); target met: {}",
        health.scan_reads,
        health.reads_per_s,
        health.findings,
        health.fingerprint_match,
        health.disabled_overhead_pct,
        health.enabled_overhead_pct,
        health.enabled_ticks,
        health.target_met
    );
    let pr10_path = std::path::Path::new(&out_path)
        .parent()
        .map(|d| d.join("BENCH_pr10.json"))
        .unwrap_or_else(|| "BENCH_pr10.json".into());
    std::fs::write(&pr10_path, health.to_json()).expect("write health bench file");
    eprintln!("wrote {}", pr10_path.display());

    for (id, title, f) in all_experiments() {
        eprintln!("\n========== {id}: {title} ==========");
        let t0 = std::time::Instant::now();
        let report = f(&artifacts);
        let dt = t0.elapsed();
        eprintln!("{}", report.body);
        eprintln!("[{id}] done in {dt:.1?}");
        md.push_str(&report.to_markdown());
        let _ = writeln!(md, "_Runtime: {dt:.1?}._\n");
    }

    // Machine-readable hot-path throughput snapshot, next to EXPERIMENTS.md.
    eprintln!("\n========== perf: hot-path throughput ==========");
    let perf = laces_bench::run_perf(&artifacts);
    let bench_path = std::path::Path::new(&out_path)
        .parent()
        .map(|d| d.join("BENCH_pr2.json"))
        .unwrap_or_else(|| "BENCH_pr2.json".into());
    std::fs::write(&bench_path, perf.to_json()).expect("write bench file");
    eprintln!("wrote {}", bench_path.display());

    let _ = writeln!(
        md,
        "---\nTotal suite runtime: {:.1?}.",
        suite_start.elapsed()
    );
    std::fs::write(&out_path, &md).expect("write experiments file");
    eprintln!(
        "\nwrote {out_path} ({} bytes) in {:.1?}",
        md.len(),
        suite_start.elapsed()
    );
}
