//! The z-axis domain decomposition and the halo-depth rule.
//!
//! Slabs are contiguous and balanced: the first `nz % workers` slabs
//! take one extra plane. Each worker steps its slab *extended* by `k`
//! halo planes across every cut face (see [`crate::slab`] for why that
//! buys `k` steps between exchanges); [`halo_depth`] picks the one `k`
//! a whole slab group runs with.

/// A contiguous z range of the global grid: one worker's share, or
/// that share grown by its halo planes ([`Slab::extended`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Slab {
    /// First global z plane of this slab.
    pub z0: usize,
    /// Number of z planes.
    pub nz: usize,
}

impl Slab {
    /// This slab grown by `k` planes across each cut face. A face on
    /// the global boundary (`z = 0` or `z = nz_global`) is physical and
    /// is not extended: the array halo already realizes it.
    pub fn extended(self, k: usize, nz_global: usize) -> Slab {
        let lo = if self.z0 > 0 { k } else { 0 };
        let hi = if self.z0 + self.nz < nz_global { k } else { 0 };
        Slab {
            z0: self.z0 - lo,
            nz: self.nz + lo + hi,
        }
    }
}

/// Split `nz` planes over `workers` contiguous slabs.
pub fn split_z(nz: usize, workers: usize) -> Result<Vec<Slab>, String> {
    if workers == 0 {
        return Err("cannot decompose over 0 workers".to_string());
    }
    if workers > nz {
        return Err(format!(
            "cannot split nz = {nz} over {workers} workers; every slab needs at least one plane"
        ));
    }
    let base = nz / workers;
    let extra = nz % workers;
    let mut slabs = Vec::with_capacity(workers);
    let mut z0 = 0;
    for i in 0..workers {
        let n = base + usize::from(i < extra);
        slabs.push(Slab { z0, nz: n });
        z0 += n;
    }
    debug_assert_eq!(z0, nz);
    Ok(slabs)
}

/// Halo depth `k` — planes exchanged per cut and steps between
/// exchanges — for periods of `spp` steps over `slabs`.
///
/// A slab with `f` cut faces updates `f * k` halo planes per step on
/// top of its own `nz`, all of it redundant, so `k` is capped where
/// that overhead reaches 15 % of the thinnest slab with the most cut
/// faces (never below 1: exchanging every step is the floor). Within
/// the cap, the smallest `k` that needs no more exchanges per period
/// wins: fewer redundant planes, same message count. One slab has no
/// cut and steps whole periods.
pub fn halo_depth(spp: usize, slabs: &[Slab]) -> usize {
    if slabs.len() < 2 {
        return spp.max(1);
    }
    let thinnest = slabs.iter().map(|s| s.nz).min().unwrap_or(1);
    let faces = if slabs.len() > 2 { 2 } else { 1 };
    let cap = (thinnest * 15 / (100 * faces)).clamp(1, spp.max(1));
    let exchanges = spp.div_ceil(cap);
    spp.div_ceil(exchanges).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slabs_are_contiguous_balanced_and_exhaustive() {
        for nz in 1..40 {
            for w in 1..=nz {
                let slabs = split_z(nz, w).unwrap();
                assert_eq!(slabs.len(), w);
                let mut z = 0;
                for s in &slabs {
                    assert_eq!(s.z0, z);
                    assert!(s.nz >= 1);
                    z += s.nz;
                }
                assert_eq!(z, nz);
                let min = slabs.iter().map(|s| s.nz).min().unwrap();
                let max = slabs.iter().map(|s| s.nz).max().unwrap();
                assert!(max - min <= 1, "unbalanced split for nz={nz} w={w}");
            }
        }
    }

    #[test]
    fn extension_grows_cut_faces_only() {
        let slabs = split_z(30, 3).unwrap();
        assert_eq!(slabs[0].extended(2, 30), Slab { z0: 0, nz: 12 });
        assert_eq!(slabs[1].extended(2, 30), Slab { z0: 8, nz: 14 });
        assert_eq!(slabs[2].extended(2, 30), Slab { z0: 18, nz: 12 });
        assert_eq!(slabs[1].extended(0, 30), slabs[1]);
    }

    #[test]
    fn halo_depth_follows_the_redundancy_cap() {
        let two = split_z(96, 2).unwrap();
        // cap = 48 * 0.15 = 7 -> 3 exchanges per 18 steps -> k = 6.
        assert_eq!(halo_depth(18, &two), 6);
        // spp % k != 0: 3 exchanges of 7, 7, 6 steps.
        assert_eq!(halo_depth(20, &two), 7);
        // Two cut faces halve the cap.
        assert_eq!(halo_depth(18, &split_z(96, 3).unwrap()), 2);
        // Thin slabs clamp to the floor; short periods clamp to spp.
        assert_eq!(halo_depth(18, &split_z(24, 3).unwrap()), 1);
        assert_eq!(halo_depth(3, &split_z(400, 2).unwrap()), 3);
        // No cut: whole periods.
        assert_eq!(halo_depth(18, &split_z(96, 1).unwrap()), 18);
        for spp in 1..40 {
            for (nz, w) in [(24, 2), (24, 3), (96, 2), (200, 4), (7, 7)] {
                let slabs = split_z(nz, w).unwrap();
                let k = halo_depth(spp, &slabs);
                let thinnest = slabs.iter().map(|s| s.nz).min().unwrap();
                assert!((1..=spp).contains(&k), "spp={spp} nz={nz} w={w}: k={k}");
                assert!(k <= thinnest, "a neighbour must own k planes");
            }
        }
    }

    #[test]
    fn degenerate_splits_error() {
        assert!(split_z(4, 0).is_err());
        assert!(split_z(4, 5).is_err());
    }
}
