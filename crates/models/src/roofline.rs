//! Bottleneck ("roofline", Hockney-style, paper ref. [26]) performance
//! model: `P = min(P_core(t), b_S / B_C)`.

use crate::machine::MachineSpec;

/// Eq. 10 — memory-bandwidth performance bound in MLUP/s for a given code
/// balance (bytes/LUP).
pub fn mem_bound_mlups(machine: &MachineSpec, code_balance: f64) -> f64 {
    machine.mem_bw / code_balance / 1e6
}

/// Combined estimate for an engine whose measured/modelled code balance at
/// `threads` threads is `code_balance`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PerfEstimate {
    pub mlups: f64,
    /// True when the memory interface, not the cores, is the bottleneck.
    pub memory_bound: bool,
    /// Implied memory bandwidth draw, bytes/s.
    pub mem_bw_used: f64,
}

pub fn perf_mlups(machine: &MachineSpec, threads: usize, code_balance: f64) -> PerfEstimate {
    perf_mlups_parallel(machine, threads, code_balance, 1.0)
}

/// The roofline with the core leg scaled by `parallel_eff`, the share
/// of the `threads` cores' time a configuration can keep busy (tile
/// concurrency x group efficiency for an MWD run):
/// `P = min(P_core(t) * parallel_eff, b_S / B_C)`.
pub fn perf_mlups_parallel(
    machine: &MachineSpec,
    threads: usize,
    code_balance: f64,
    parallel_eff: f64,
) -> PerfEstimate {
    let core = machine.core_bound(threads) * parallel_eff / 1e6;
    let mem = mem_bound_mlups(machine, code_balance);
    let mlups = core.min(mem);
    PerfEstimate {
        mlups,
        memory_bound: mem <= core,
        mem_bw_used: mlups * 1e6 * code_balance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HSW: MachineSpec = MachineSpec::HASWELL_E5_2699_V3;

    #[test]
    fn eq10_spatial_blocking_prediction() {
        // "P_mem = 50 GB/s / 1216 bytes/LUP = 41 MLUP/s" — and the paper
        // reports the measurement agrees.
        let p = mem_bound_mlups(&HSW, crate::balance::code_balance_spatial());
        assert!((p - 41.0).abs() < 0.5, "got {p}");
    }

    #[test]
    fn spatial_blocking_saturates_by_six_cores() {
        // Fig. 6a: the spatially blocked code saturates the memory
        // interface with about six cores.
        let bc = crate::balance::code_balance_spatial();
        let at5 = perf_mlups(&HSW, 5, bc);
        let at6 = perf_mlups(&HSW, 6, bc);
        assert!(!at5.memory_bound || at5.mlups > 35.0);
        assert!(at6.memory_bound, "6 threads must hit the bandwidth wall");
        assert!((at6.mlups - 41.0).abs() < 1.0);
    }

    #[test]
    fn mwd_stays_decoupled_on_the_full_chip() {
        // With diamond B_C at Dw=16 (~105 B/LUP), 18 cores stay core-bound
        // and land near 130 MLUP/s, drawing well under 50 GB/s — the
        // "38%-80% memory bandwidth saving".
        let bc = crate::balance::code_balance_diamond(16);
        let est = perf_mlups(&HSW, 18, bc);
        assert!(!est.memory_bound, "MWD must be decoupled");
        assert!((est.mlups - 130.0).abs() < 6.0, "got {}", est.mlups);
        let bw_fraction = est.mem_bw_used / HSW.mem_bw;
        assert!(
            bw_fraction < 0.62,
            "bandwidth saving >= 38%, used {bw_fraction}"
        );
    }

    #[test]
    fn speedup_over_spatial_is_three_to_four_x() {
        // The headline result: 3x-4x over optimal spatial blocking.
        let spatial = perf_mlups(&HSW, 18, crate::balance::code_balance_spatial()).mlups;
        let mwd = perf_mlups(&HSW, 18, crate::balance::code_balance_diamond(16)).mlups;
        let speedup = mwd / spatial;
        assert!(
            (3.0..=4.0).contains(&speedup),
            "speedup {speedup} outside the paper's 3x-4x band"
        );
    }

    #[test]
    fn mem_bw_used_never_exceeds_machine_bandwidth() {
        for threads in 1..=18 {
            for bc in [100.0, 400.0, 1216.0, 1344.0] {
                let est = perf_mlups(&HSW, threads, bc);
                assert!(est.mem_bw_used <= HSW.mem_bw * 1.0001);
            }
        }
    }
}
