//! LIKWID-style traffic report.

use crate::rowsim::Traffic;

/// The measurement a LIKWID MEM group run would report: memory-controller
/// read/write volumes over a counted number of lattice-site updates.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrafficReport {
    pub traffic: Traffic,
    pub lups: u64,
}

impl TrafficReport {
    pub fn new(traffic: Traffic, lups: u64) -> Self {
        TrafficReport { traffic, lups }
    }

    /// Measured code balance in bytes/LUP.
    pub fn code_balance(&self) -> f64 {
        self.traffic.total() as f64 / self.lups as f64
    }

    /// Memory bandwidth in GB/s implied by a given achieved update rate.
    pub fn bandwidth_gbs(&self, mlups: f64) -> f64 {
        mlups * 1e6 * self.code_balance() / 1e9
    }

    pub fn read_fraction(&self) -> f64 {
        self.traffic.read_bytes as f64 / self.traffic.total().max(1) as f64
    }
}

impl std::fmt::Display for TrafficReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MEM: {:.3} GB read, {:.3} GB write, {} LUP, {:.1} bytes/LUP",
            self.traffic.read_bytes as f64 / 1e9,
            self.traffic.write_bytes as f64 / 1e9,
            self.lups,
            self.code_balance()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> TrafficReport {
        TrafficReport::new(
            Traffic {
                read_bytes: 900_000,
                write_bytes: 300_000,
            },
            1000,
        )
    }

    #[test]
    fn code_balance_is_total_over_lups() {
        assert_eq!(report().code_balance(), 1200.0);
    }

    #[test]
    fn bandwidth_scales_with_mlups() {
        // 41 MLUP/s at 1216 B/LUP ~ 50 GB/s (the paper's Eq. 10 inverted).
        let r = TrafficReport::new(
            Traffic {
                read_bytes: 1216 * 1000,
                write_bytes: 0,
            },
            1000,
        );
        let bw = r.bandwidth_gbs(41.1);
        assert!((bw - 50.0).abs() < 0.05, "got {bw}");
    }

    #[test]
    fn read_fraction_and_display() {
        let r = report();
        assert!((r.read_fraction() - 0.75).abs() < 1e-12);
        let s = r.to_string();
        assert!(s.contains("bytes/LUP"), "{s}");
    }
}
