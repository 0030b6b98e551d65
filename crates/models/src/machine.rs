//! Machine descriptions.
//!
//! The paper's testbed is an 18-core Intel Haswell EP (Xeon E5-2699 v3,
//! 2.3 GHz nominal, Turbo off, CoD off, SMT off), 45 MiB shared L3 and
//! roughly 50 GB/s of applicable memory bandwidth (Sec. IV-A). Since this
//! reproduction runs on different hardware, the Haswell is modeled: the
//! cache simulator takes its capacities and the roofline model its
//! bandwidth and a calibrated per-core in-cache update rate.

/// A simulated (or real) machine for the performance models.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MachineSpec {
    pub name: &'static str,
    pub cores: usize,
    /// Private L1 data cache per core, bytes.
    pub l1_bytes: usize,
    /// Private L2 per core, bytes.
    pub l2_bytes: usize,
    /// Shared last-level cache, bytes.
    pub l3_bytes: usize,
    pub line_bytes: usize,
    /// Applicable memory bandwidth, bytes/s.
    pub mem_bw: f64,
    /// Clock, Hz.
    pub freq: f64,
    /// Fraction of L3 usable for tile data ("as a rule of thumb we assume
    /// that half the overall cache size is available", Sec. III-C).
    pub usable_cache_fraction: f64,
    /// Calibrated single-core update rate when decoupled from memory,
    /// LUP/s. The paper's kernel runs at ~5% of peak, core-bound in
    /// cache: MWD reaches ~130 MLUP/s on 18 cores at ~75% parallel
    /// efficiency, i.e. ~9.6 MLUP/s per core.
    pub core_lups: f64,
    /// Linear parallel-overhead coefficient for the in-core rate:
    /// `eff(t) = 1 / (1 + alpha * (t - 1))`. Calibrated so 18 threads
    /// give the paper's ~75% MWD parallel efficiency.
    pub parallel_alpha: f64,
    /// Dispatch cost of one executor work item (one diamond row at one
    /// wavefront position: window arithmetic, six component-kernel
    /// calls, the row barrier), in LUPs of core time. Calibrated on the
    /// `nx = 16` grids of the README's tuning table, where the item is
    /// small enough to see it: `dw=8, bz=1` runs at 0.8x of `bz=3..6`.
    pub item_overhead_lups: f64,
    /// Extra cost per item of a shared tile (`tg.size() > 1`), in LUPs:
    /// one barrier crossing with work between crossings (170-300 ns
    /// measured) plus the first touch of lines another core just wrote.
    pub sync_overhead_lups: f64,
    /// Fraction of a shared tile's item work spent fetching operands
    /// that another member of the group wrote in the previous row
    /// (cross-core transfer between private caches), per unit of the
    /// remote operand share `1 - 1/tg.size()`. Together with
    /// `sync_overhead_lups` it is sized so that a shared tile scores
    /// below 1WD tiles of the same diamond whenever those fit the cache
    /// window, and still at >= 0.9 for the paper's 9-thread groups on
    /// `nx = 480` rows — the rule of the paper and of arXiv 1510.04995:
    /// share a tile only to afford a larger diamond.
    pub share_cost: f64,
}

impl MachineSpec {
    /// The paper's Haswell EP testbed.
    pub const HASWELL_E5_2699_V3: MachineSpec = MachineSpec {
        name: "Intel Xeon E5-2699 v3 (Haswell EP, 18C)",
        cores: 18,
        l1_bytes: 32 * 1024,
        l2_bytes: 256 * 1024,
        l3_bytes: 45 * 1024 * 1024,
        line_bytes: 64,
        mem_bw: 50.0e9,
        freq: 2.3e9,
        usable_cache_fraction: 0.5,
        core_lups: 9.6e6,
        parallel_alpha: 0.0196,
        item_overhead_lups: 4.0,
        sync_overhead_lups: 8.0,
        share_cost: 0.15,
    };

    /// Usable L3 bytes for tile data (the paper's red vertical line in
    /// Fig. 5: 22.5 MiB on the Haswell).
    pub fn usable_l3(&self) -> f64 {
        self.l3_bytes as f64 * self.usable_cache_fraction
    }

    /// Parallel efficiency of the in-core rate at `threads` threads.
    pub fn efficiency(&self, threads: usize) -> f64 {
        1.0 / (1.0 + self.parallel_alpha * (threads.saturating_sub(1)) as f64)
    }

    /// In-core (cache-decoupled) performance limit at `threads`, LUP/s.
    pub fn core_bound(&self, threads: usize) -> f64 {
        self.core_lups * threads as f64 * self.efficiency(threads)
    }

    /// Fraction of a thread's time spent updating cells when its work
    /// arrives in items of `item_lups` LUPs each and its group has
    /// `tg_size` members: `w / (w + overhead)`, the overhead being the
    /// dispatch cost plus, for a shared tile, the barrier and the
    /// cross-core transfer of the `1 - 1/tg_size` of its operands that
    /// other members wrote.
    pub fn group_efficiency(&self, item_lups: f64, tg_size: usize) -> f64 {
        let mut overhead = self.item_overhead_lups;
        if tg_size > 1 {
            let remote = 1.0 - 1.0 / tg_size as f64;
            overhead += self.sync_overhead_lups + self.share_cost * remote * item_lups;
        }
        item_lups / (item_lups + overhead)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HSW: MachineSpec = MachineSpec::HASWELL_E5_2699_V3;

    #[test]
    fn usable_l3_is_22_5_mib() {
        assert_eq!(HSW.usable_l3(), 22.5 * 1024.0 * 1024.0);
    }

    #[test]
    fn full_chip_efficiency_matches_paper() {
        // "a parallel efficiency of about 75% on the full chip".
        let eff = HSW.efficiency(18);
        assert!((eff - 0.75).abs() < 0.01, "got {eff}");
    }

    #[test]
    fn single_thread_efficiency_is_one() {
        assert_eq!(HSW.efficiency(1), 1.0);
    }

    #[test]
    fn full_chip_core_bound_matches_mwd_plateau() {
        // MWD decoupled performance ~130 MLUP/s on the full chip (Fig. 6a).
        let p = HSW.core_bound(18) / 1e6;
        assert!((p - 130.0).abs() < 5.0, "got {p} MLUP/s");
    }

    #[test]
    fn bandwidth_is_50_gbs() {
        assert_eq!(HSW.mem_bw, 50.0e9);
    }
}
