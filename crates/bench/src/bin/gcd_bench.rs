//! Regenerate `BENCH_pr9.json` (the GCD campaign benchmark)
//! at a chosen scale, without running the full `run_all` suite.
//!
//! ```text
//! cargo run --release -p laces-bench --bin gcd_bench [-- tiny|mid|huge|paper] [--out PATH]
//! ```

use laces_bench::{Artifacts, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = Scale::from_env_or_args(&args);
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_pr9.json".to_string());

    let artifacts = Artifacts::new(scale);
    let gcd = laces_bench::run_gcd_bench(&artifacts);
    eprintln!(
        "gcd campaign: {:.0} probes/s, reruns match: {}, chunk invariant: {}, target met: {}",
        gcd.after_probes_per_s, gcd.fingerprint_match, gcd.chunk_invariant, gcd.target_met
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
    std::fs::write(&out_path, gcd.to_json()).expect("BENCH_pr9.json writes");
    eprintln!("wrote {out_path}");
}
