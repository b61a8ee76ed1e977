//! Pins the grid-indexed `CityDb` disk queries byte-identical to a
//! linear scan of the city table over an exhaustive disk grid: a center
//! on every embedded city plus antimeridian/pole/ocean centers, crossed
//! with radii spanning 1 km to the 20 000 km hemisphere-plus regime. Any
//! divergence here means the grid cover dropped a cell.

use laces_geo::{CityDb, CityId, Coord, Disk};

/// Linear-scan reference for `CityDb::most_populous_in`: the pre-index
/// implementation (`max_by_key` keeps the highest index among ties).
fn most_populous_in_linear(db: &CityDb, disk: &Disk) -> Option<CityId> {
    db.iter()
        .filter(|(_, c)| disk.contains(&c.coord))
        .max_by_key(|(_, c)| c.population)
        .map(|(id, _)| id)
}

/// Linear-scan reference for `CityDb::all_in`: descending population,
/// ties by ascending index.
fn all_in_linear(db: &CityDb, disk: &Disk) -> Vec<CityId> {
    let mut ids: Vec<(CityId, u64)> = db
        .iter()
        .filter(|(_, c)| disk.contains(&c.coord))
        .map(|(id, c)| (id, c.population))
        .collect();
    ids.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ids.into_iter().map(|(id, _)| id).collect()
}

/// Radii (km) spanning the regimes the cover logic switches between:
/// sub-cell, cell-sized, multi-cell, pole-reaching and >hemisphere disks.
const RADII_KM: &[f64] = &[
    1.0, 5.0, 25.0, 120.0, 556.0, 1_000.0, 2_300.0, 5_000.0, 9_000.0, 14_000.0, 20_000.0,
];

fn assert_equivalent(db: &CityDb, disk: &Disk, what: &str) {
    assert_eq!(
        db.most_populous_in(disk),
        most_populous_in_linear(db, disk),
        "most_populous_in diverged for {what} (center {:?}, r {} km)",
        disk.center,
        disk.radius_km
    );
    assert_eq!(
        db.all_in(disk),
        all_in_linear(db, disk),
        "all_in diverged for {what} (center {:?}, r {} km)",
        disk.center,
        disk.radius_km
    );
}

#[test]
fn grid_matches_linear_on_every_city_center() {
    let db = CityDb::embedded();
    for (id, city) in db.iter() {
        for &r in RADII_KM {
            let disk = Disk::new(city.coord, r);
            assert_equivalent(&db, &disk, city.name);
            // A 1 km disk centred on a city must find that city: catches a
            // cover that is "equivalently wrong" on both paths.
            if r <= 1.0 {
                assert!(db.all_in(&disk).contains(&id), "{} lost itself", city.name);
            }
        }
    }
}

#[test]
fn grid_matches_linear_on_antimeridian_disks() {
    let db = CityDb::embedded();
    // Centers straddling the ±180° seam, including Fiji/Auckland latitudes
    // where cities sit on both sides of the wrap.
    for &lat in &[-45.0, -36.85, -18.14, 0.0, 35.0, 64.0] {
        for &lon in &[179.95, 180.0, -180.0, -179.95, 174.9, -174.9] {
            for &r in RADII_KM {
                let disk = Disk::new(Coord::new(lat, lon), r);
                assert_equivalent(&db, &disk, "antimeridian");
            }
        }
    }
}

#[test]
fn grid_matches_linear_on_polar_disks() {
    let db = CityDb::embedded();
    // Exactly-on-pole and near-pole centers: the longitude half-width
    // formula degenerates here, so the cover must fall back to visiting
    // every column.
    for &lat in &[90.0, 89.9, 85.0, -85.0, -89.9, -90.0] {
        for &lon in &[0.0, -77.0, 121.5, 180.0] {
            for &r in RADII_KM {
                let disk = Disk::new(Coord::new(lat, lon), r);
                assert_equivalent(&db, &disk, "polar");
            }
        }
    }
}

#[test]
fn grid_matches_linear_on_a_global_center_lattice() {
    let db = CityDb::embedded();
    // A deterministic lattice of centers with deliberately awkward offsets
    // (cell corners, mid-cells, ocean, both hemispheres).
    let mut lat = -88.7;
    while lat <= 89.0 {
        let mut lon = -179.3;
        while lon <= 180.0 {
            for &r in &[30.0, 556.0, 3_000.0, 11_000.0] {
                let disk = Disk::new(Coord::new(lat, lon), r);
                assert_equivalent(&db, &disk, "lattice");
            }
            lon += 33.3;
        }
        lat += 17.9;
    }
}

#[test]
fn degenerate_disks_match() {
    let db = CityDb::embedded();
    // Zero radius: contains only coordinate-exact hits (plus the 1e-9 km
    // tolerance); must behave identically on both paths.
    let ams = db.iter().find(|(_, c)| c.name == "Amsterdam").unwrap().1;
    for disk in [
        Disk::new(ams.coord, 0.0),
        Disk::new(Coord::new(0.0, 0.0), 0.0),
        // Larger than any surface distance: every city, both paths.
        Disk::new(Coord::new(12.3, -45.6), 40_000.0),
    ] {
        assert_equivalent(&db, &disk, "degenerate");
    }
    let everything = db.all_in(&Disk::new(Coord::new(12.3, -45.6), 40_000.0));
    assert_eq!(everything.len(), db.len());
}
