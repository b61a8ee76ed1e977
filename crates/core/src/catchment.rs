//! Anycast catchment mapping and analysis (verfploeter mode).
//!
//! The same measurement machinery that detects anycast also maps the
//! measuring deployment's own *catchments*: which site captures each
//! prefix's traffic (de Vries et al., IMC 2017 — the measurement that led
//! to MAnycast², §2.2). Operators use catchment maps for load balancing
//! and to predict the impact of adding or withdrawing a site; comparing
//! maps across days surfaces routing shifts.

use std::collections::{BTreeMap, BTreeSet};

use laces_packet::PrefixKey;
use serde::{Deserialize, Serialize};

use crate::classify::{insert_receivers, prefix_runs};
use crate::results::MeasurementOutcome;

/// A catchment map: for each responsive prefix, the set of sites that
/// captured its responses.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CatchmentMap {
    /// Number of sites on the measuring platform.
    pub n_sites: usize,
    /// Prefixes captured at exactly one site (the normal case).
    pub assignments: BTreeMap<PrefixKey, u16>,
    /// Prefixes captured at several sites — anycast targets or unstable
    /// routes (De Vries et al.'s original observation).
    pub multi_site: BTreeMap<PrefixKey, BTreeSet<u16>>,
}

impl CatchmentMap {
    /// Build a catchment map from a measurement outcome.
    pub fn from_outcome(outcome: &MeasurementOutcome) -> Self {
        let mut sites: BTreeMap<PrefixKey, BTreeSet<u16>> = BTreeMap::new();
        for (prefix, run) in prefix_runs(&outcome.records) {
            insert_receivers(run, sites.entry(prefix).or_default());
        }
        let mut assignments = BTreeMap::new();
        let mut multi_site = BTreeMap::new();
        for (p, s) in sites {
            // A one-element set is a stable single-site assignment; the
            // `if let` shape keeps the measurement path free of panics.
            if let (1, Some(&site)) = (s.len(), s.iter().next()) {
                assignments.insert(p, site);
            } else {
                multi_site.insert(p, s);
            }
        }
        CatchmentMap {
            n_sites: outcome.n_workers,
            assignments,
            multi_site,
        }
    }

    /// Prefixes captured per site (single-site assignments only).
    pub fn site_loads(&self) -> Vec<usize> {
        let mut loads = vec![0usize; self.n_sites];
        for &s in self.assignments.values() {
            if let Some(l) = loads.get_mut(usize::from(s)) {
                *l += 1;
            }
        }
        loads
    }

    /// Fraction of single-site prefixes captured by `site`.
    pub fn share(&self, site: u16) -> f64 {
        if self.assignments.is_empty() {
            return 0.0;
        }
        let n = self.assignments.values().filter(|&&s| s == site).count();
        n as f64 / self.assignments.len() as f64
    }

    /// Load imbalance: the largest catchment divided by the smallest
    /// non-empty one. 1.0 is perfectly balanced.
    pub fn imbalance(&self) -> f64 {
        let loads = self.site_loads();
        let max = loads.iter().copied().max().unwrap_or(0);
        let min = loads.iter().copied().filter(|&l| l > 0).min().unwrap_or(0);
        if min == 0 {
            return f64::INFINITY;
        }
        max as f64 / min as f64
    }

    /// Sites that captured nothing at all (candidate outages or
    /// announcement problems).
    pub fn silent_sites(&self) -> Vec<u16> {
        let mut captured = vec![false; self.n_sites];
        for &s in self.assignments.values() {
            if let Some(c) = captured.get_mut(usize::from(s)) {
                *c = true;
            }
        }
        for sites in self.multi_site.values() {
            for &s in sites {
                if let Some(c) = captured.get_mut(usize::from(s)) {
                    *c = true;
                }
            }
        }
        captured
            .iter()
            .enumerate()
            .filter(|(_, &c)| !c)
            .map(|(i, _)| i as u16)
            .collect()
    }
}

/// Differences between two catchment maps (e.g. consecutive days).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CatchmentShift {
    /// Prefixes assigned to the same site in both maps.
    pub stable: usize,
    /// Prefixes assigned to a different site.
    pub moved: usize,
    /// Prefixes assigned in `a` but absent (or multi-site) in `b`.
    pub lost: usize,
    /// Prefixes assigned in `b` but absent (or multi-site) in `a`.
    pub gained: usize,
}

impl CatchmentShift {
    /// Fraction of comparable prefixes that moved.
    pub fn churn(&self) -> f64 {
        let comparable = self.stable + self.moved;
        if comparable == 0 {
            0.0
        } else {
            self.moved as f64 / comparable as f64
        }
    }
}

/// Compare two catchment maps.
pub fn shift(a: &CatchmentMap, b: &CatchmentMap) -> CatchmentShift {
    let mut out = CatchmentShift::default();
    for (p, &sa) in &a.assignments {
        match b.assignments.get(p) {
            Some(&sb) if sa == sb => out.stable += 1,
            Some(_) => out.moved += 1,
            None => out.lost += 1,
        }
    }
    for p in b.assignments.keys() {
        if !a.assignments.contains_key(p) {
            out.gained += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::results::ProbeRecord;
    use laces_netsim::PlatformId;
    use laces_packet::Protocol;

    fn record(prefix: &str, rx: u16) -> ProbeRecord {
        ProbeRecord {
            prefix: PrefixKey::of(prefix.parse().unwrap()),
            protocol: Protocol::Icmp,
            rx_worker: rx,
            tx_worker: Some(0),
            tx_time_ms: Some(0),
            rx_time_ms: 1,
            chaos_identity: None,
        }
    }

    fn outcome(records: Vec<ProbeRecord>, n_workers: usize) -> MeasurementOutcome {
        MeasurementOutcome {
            measurement_id: 1,
            platform: PlatformId(0),
            protocol: Protocol::Icmp,
            n_workers,
            probes_sent: 0,
            n_targets: 4,
            records,
            failed_workers: vec![],
            worker_health: vec![],
            telemetry: laces_obs::RunReport::new(),
            shard_report: Default::default(),
            trace_report: Default::default(),
        }
    }

    fn map(assignments: &[(&str, u16)], n: usize) -> CatchmentMap {
        CatchmentMap::from_outcome(&outcome(
            assignments.iter().map(|(p, s)| record(p, *s)).collect(),
            n,
        ))
    }

    #[test]
    fn splits_single_and_multi_site() {
        let m = CatchmentMap::from_outcome(&outcome(
            vec![
                record("10.0.0.1", 0),
                record("10.0.1.1", 1),
                record("10.0.1.1", 2),
            ],
            4,
        ));
        assert_eq!(m.assignments.len(), 1);
        assert_eq!(m.multi_site.len(), 1);
        assert_eq!(m.site_loads(), vec![1, 0, 0, 0]);
    }

    #[test]
    fn shares_and_imbalance() {
        let m = map(
            &[
                ("10.0.0.1", 0),
                ("10.0.1.1", 0),
                ("10.0.2.1", 0),
                ("10.0.3.1", 1),
            ],
            3,
        );
        assert!((m.share(0) - 0.75).abs() < 1e-9);
        assert!((m.share(1) - 0.25).abs() < 1e-9);
        assert_eq!(m.share(2), 0.0);
        assert!((m.imbalance() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn imbalance_of_empty_map_is_infinite() {
        let m = map(&[], 3);
        assert!(m.imbalance().is_infinite());
    }

    #[test]
    fn silent_sites_detected() {
        let m = map(&[("10.0.0.1", 0), ("10.0.1.1", 2)], 4);
        assert_eq!(m.silent_sites(), vec![1, 3]);
    }

    #[test]
    fn shift_accounting() {
        let a = map(&[("10.0.0.1", 0), ("10.0.1.1", 1), ("10.0.2.1", 2)], 4);
        let b = map(&[("10.0.0.1", 0), ("10.0.1.1", 3), ("10.0.9.1", 1)], 4);
        let s = shift(&a, &b);
        assert_eq!(
            s,
            CatchmentShift {
                stable: 1,
                moved: 1,
                lost: 1,
                gained: 1
            }
        );
        assert!((s.churn() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn churn_of_empty_comparison_is_zero() {
        assert_eq!(CatchmentShift::default().churn(), 0.0);
    }
}
