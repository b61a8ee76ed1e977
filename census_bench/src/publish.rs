//! The publication layer as the benchmark sees it: `CensusStore::save`
//! timed as a whole, plus each sidecar rebuilt through the public
//! serialiser `save` calls, so every sidecar gets its own bytes and
//! serialise time.

use std::path::Path;
use std::time::Instant;

use laces_census::record::{CensusRecord, DailyCensus};
use laces_census::store::CensusStore;
use laces_health::{DaySeries, SeriesInput};
use laces_query::{build_index, IndexRecord, SummaryInput};

use crate::util::{sidecar_bytes, sidecar_files, Fnv};

/// Sidecar kinds in the order the store writes them.
pub const SIDECARS: [&str; 7] = [
    "jsonl",
    "idx",
    "stats",
    "telemetry",
    "trace",
    "chrome",
    "health",
];

/// One stored day: save wall time, bytes on disk per sidecar, and the
/// work fingerprint over what was published.
pub struct Published {
    pub save_s: f64,
    pub bytes: Vec<(&'static str, u64)>,
    pub fingerprint: u64,
}

impl Published {
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().map(|(_, n)| n).sum()
    }
}

/// Save `census` into `store` and read the result back: per-sidecar bytes
/// from the directory listing, and an FNV fingerprint over the day's
/// JSONL + index bytes as stored plus its degraded-reason set. The JSONL
/// on disk must equal the census's own serialisation.
pub fn save_day(store: &CensusStore, census: &DailyCensus) -> Result<Published, String> {
    let t0 = Instant::now();
    store.save(census).map_err(|e| e.to_string())?;
    let save_s = t0.elapsed().as_secs_f64();
    let dir = store.path();
    let bytes = sidecar_bytes(dir, census.day)?;
    let day_file = dir.join(format!("census-day-{:05}.jsonl", census.day));
    let jsonl =
        std::fs::read(&day_file).map_err(|e| format!("read back {}: {e}", day_file.display()))?;
    if jsonl != census.to_jsonl().as_bytes() {
        return Err(format!(
            "day {}: stored JSONL differs from the census",
            census.day
        ));
    }
    let idx_file = dir.join(laces_query::index_file_name(census.day));
    let idx =
        std::fs::read(&idx_file).map_err(|e| format!("read back {}: {e}", idx_file.display()))?;
    let mut h = Fnv::new();
    h.eat(&jsonl);
    h.eat(&idx);
    for reason in census.degraded_reasons() {
        h.eat(format!("{reason:?}").as_bytes());
    }
    Ok(Published {
        save_s,
        bytes,
        fingerprint: h.finish(),
    })
}

/// Bytes, content fingerprint and serialise seconds of each sidecar,
/// rebuilt through the public serialisers `CensusStore::save` calls.
/// Sidecars the day does not write (trace sidecars of an untraced day)
/// are empty. Only the serialiser call is timed; the fingerprint is taken
/// afterwards.
pub struct Serialised {
    pub bytes: Vec<(&'static str, u64)>,
    pub fnv: Vec<(&'static str, u64)>,
    pub seconds: Vec<(&'static str, f64)>,
}

pub fn serialise_sidecars(census: &DailyCensus) -> Result<Serialised, String> {
    let mut bytes = Vec::new();
    let mut fnv = Vec::new();
    let mut seconds = Vec::new();
    let mut timed = |kind: &'static str, f: &mut dyn FnMut() -> Result<Vec<u8>, String>| {
        let t0 = Instant::now();
        let out = f()?;
        seconds.push((kind, t0.elapsed().as_secs_f64()));
        bytes.push((kind, out.len() as u64));
        fnv.push((kind, fnv_of(&out)));
        Ok::<(), String>(())
    };
    let mut spans = Vec::new();
    timed("jsonl", &mut || {
        let (jsonl, s) = census.to_jsonl_with_spans();
        spans = s;
        Ok(jsonl.into_bytes())
    })?;
    timed("idx", &mut || {
        let records: Vec<IndexRecord> = census
            .records
            .values()
            .zip(&spans)
            .map(|(r, (_, offset, len))| index_record(r, *offset, *len))
            .collect();
        let idx = build_index(
            census.day,
            &records,
            SummaryInput {
                anycast_probes: census.stats.anycast_probes,
                gcd_probes: census.stats.gcd_probes,
                gcd_target_count: census.stats.gcd_target_count as u64,
                degraded: census.degraded(),
            },
        )
        .map_err(|e| e.to_string())?;
        Ok(idx)
    })?;
    timed("stats", &mut || {
        serde_json::to_string_pretty(&census.stats)
            .map(String::into_bytes)
            .map_err(|e| e.to_string())
    })?;
    timed("telemetry", &mut || {
        Ok(census.stats.telemetry.to_jsonl().into_bytes())
    })?;
    let traced = census.stats.trace_report.enabled;
    timed("trace", &mut || {
        Ok(if traced {
            census.stats.trace_report.to_jsonl().into_bytes()
        } else {
            Vec::new()
        })
    })?;
    timed("chrome", &mut || {
        Ok(if traced {
            census.stats.trace_report.to_chrome_json().into_bytes()
        } else {
            Vec::new()
        })
    })?;
    timed("health", &mut || {
        let series = DaySeries::derive(
            census.day,
            &census.stats.telemetry,
            &census.stats.trace_report,
            &SeriesInput {
                anycast_probes: census.stats.anycast_probes,
                gcd_probes: census.stats.gcd_probes,
                ats_per_protocol: census
                    .stats
                    .ats_per_protocol
                    .iter()
                    .map(|(k, v)| (k.clone(), *v as u64))
                    .collect(),
                gcd_target_count: census.stats.gcd_target_count as u64,
                published: census.records.len() as u64,
            },
        );
        Ok(series.encode().into_bytes())
    })?;
    Ok(Serialised {
        bytes,
        fnv,
        seconds,
    })
}

/// The index row `CensusStore::save` derives from a record and its span.
fn index_record(r: &CensusRecord, offset: u64, len: u32) -> IndexRecord {
    IndexRecord {
        prefix: r.prefix,
        offset,
        len,
        anycast_based_positive: r.anycast_based_positive(),
        gcd_confirmed: r.gcd_confirmed(),
        has_gcd: r.gcd.is_some(),
        partial: r.partial,
        max_vps: r.max_vps(),
        n_sites: r.gcd.as_ref().map_or(0, |g| g.n_sites),
        origin_asn: r.origin_asn,
        cities: r.gcd.as_ref().map(|g| g.cities.clone()).unwrap_or_default(),
    }
}

fn fnv_of(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.eat(bytes);
    h.finish()
}

/// The serialisers must produce exactly the bytes `save` wrote for `day`
/// into `dir`, or the per-sidecar numbers describe some other code path.
/// Each stored sidecar is read back and compared by length and FNV.
pub fn check_serialised_matches(
    dir: &Path,
    day: u32,
    serialised: &Serialised,
) -> Result<(), String> {
    let stored = sidecar_files(dir, day)?;
    for (&(kind, n), &(_, fnv)) in serialised.bytes.iter().zip(&serialised.fnv) {
        let on_disk = match stored.iter().find(|(k, _)| *k == kind) {
            Some((_, path)) => {
                std::fs::read(path).map_err(|e| format!("read back {}: {e}", path.display()))?
            }
            None => Vec::new(),
        };
        if on_disk.len() as u64 != n || fnv_of(&on_disk) != fnv {
            return Err(format!(
                "day {day} sidecar {kind}: serialiser output ({n} bytes) differs from the {} bytes the store wrote",
                on_disk.len()
            ));
        }
    }
    Ok(())
}

/// A fresh, empty store directory.
pub fn fresh_store(dir: &Path) -> Result<CensusStore, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    CensusStore::open(dir).map_err(|e| e.to_string())
}
