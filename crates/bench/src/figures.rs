//! Generators for every table and figure of the paper's evaluation.
//!
//! Each generator returns plain data (so tests can assert on shapes) and
//! has a `print_*` companion used by the `figures` binary. All
//! measurements run on the simulated Haswell EP substrate (see `mem-sim`);
//! grid sizes follow the paper, with the lateral extents optionally
//! reduced (`Scale::Quick`) — the x extent, which controls every cache
//! footprint (Eq. 11), is always the paper's.

use autotune::{rank, survivors, ModelEvaluator, SearchSpace};
use em_field::GridDims;
use mem_sim::{simulate_mwd_engine, simulate_spatial_engine, EngineResult};
use mwd_core::{diamond_rows, DiamondWidth, MwdConfig};
use perf_models::{
    cache_block_bytes, code_balance_diamond, code_balance_naive, code_balance_spatial,
    mem_bound_mlups, MachineSpec,
};

pub const HSW: MachineSpec = MachineSpec::HASWELL_E5_2699_V3;
const MIB: f64 = 1024.0 * 1024.0;

/// Problem-size scaling for the regeneration runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Smoke-test scale (integration tests).
    Tiny,
    /// Minutes-scale regeneration (default for the `figures` binary).
    Quick,
    /// Paper-exact grids (hours on this host).
    Full,
}

impl Scale {
    /// Cap applied to the lateral (y, z) extents.
    fn cap(self) -> usize {
        match self {
            Scale::Tiny => 32,
            Scale::Quick => 80,
            Scale::Full => usize::MAX,
        }
    }

    /// Simulation grid for a paper grid of side `n`: true Nx, capped
    /// ny/nz.
    pub fn grid(self, n: usize) -> GridDims {
        GridDims {
            nx: n,
            ny: n.min(self.cap()),
            nz: n.min(self.cap()),
        }
    }

    /// Time steps used for traffic measurement at diamond width `dw`.
    fn steps(self, dw: usize) -> usize {
        match self {
            Scale::Tiny => dw.max(4),
            _ => (2 * dw).max(8),
        }
    }

    /// Thread counts for the scaling figure.
    pub fn thread_counts(self) -> Vec<usize> {
        match self {
            Scale::Full => (1..=18).collect(),
            Scale::Quick => vec![1, 2, 4, 6, 9, 12, 15, 18],
            Scale::Tiny => vec![1, 6, 18],
        }
    }

    /// Grid sides for the grid-scaling figures (paper: 64..512 step 64).
    pub fn grid_sides(self) -> Vec<usize> {
        match self {
            Scale::Full => (1..=8).map(|i| i * 64).collect(),
            Scale::Quick => vec![64, 128, 256, 384, 512],
            Scale::Tiny => vec![64, 256],
        }
    }
}

/// Model-guided tuning of one figure point. `tg_sizes` restricts the
/// thread-group sizes (e.g. `[1]` for 1WD, `[6]` for 6WD).
pub fn tune_point(paper_dims: GridDims, threads: usize, tg_sizes: Option<&[usize]>) -> MwdConfig {
    let mut space = SearchSpace::default_for(threads);
    if let Some(s) = tg_sizes {
        space.tg_sizes = s.to_vec();
    }
    let mut model = ModelEvaluator::new(HSW, paper_dims, threads);
    let cands = space.candidates(paper_dims, threads);
    let ranked = rank(&mut model, survivors(cands, paper_dims, &HSW));
    let best = ranked.first().expect("tuning always yields a candidate");
    best.config
}

fn measure_mwd(cfg: &MwdConfig, sim: GridDims, steps: usize, threads: usize) -> EngineResult {
    simulate_mwd_engine(&HSW, sim, steps, cfg.dw, cfg.bz, cfg.groups, threads)
}

// ---------------------------------------------------------------- Sec. III

/// The in-text analytic table of Sec. III.
pub struct Sect3 {
    pub flops_per_lup: f64,
    pub bytes_per_cell: f64,
    pub bc_naive: f64,
    pub bc_spatial: f64,
    pub intensity_naive: f64,
    pub intensity_spatial: f64,
    pub pmem_spatial: f64,
    pub cs_example_per_nx: f64,
    pub bc_diamond: Vec<(usize, f64)>,
}

pub fn sect3() -> Sect3 {
    Sect3 {
        flops_per_lup: perf_models::FLOPS_PER_LUP,
        bytes_per_cell: perf_models::BYTES_PER_CELL,
        bc_naive: code_balance_naive(),
        bc_spatial: code_balance_spatial(),
        intensity_naive: perf_models::arithmetic_intensity(code_balance_naive()),
        intensity_spatial: perf_models::arithmetic_intensity(code_balance_spatial()),
        pmem_spatial: mem_bound_mlups(&HSW, code_balance_spatial()),
        cs_example_per_nx: cache_block_bytes(1, 4, 4),
        bc_diamond: [4, 8, 12, 16]
            .iter()
            .map(|&d| (d, code_balance_diamond(d)))
            .collect(),
    }
}

// ------------------------------------------------------------------ Fig. 5

#[derive(Clone, Copy, Debug)]
pub struct Fig5Point {
    pub bz: usize,
    pub dw: usize,
    /// Eq. 11 block size per thread, MiB (at the paper's Nx = 480).
    pub cs_mib: f64,
    pub bc_model: f64,
    pub bc_measured: f64,
}

/// Fig. 5: code balance vs cache block size, 1WD, single thread, 480^3.
pub fn fig5(scale: Scale) -> Vec<Fig5Point> {
    let mut out = Vec::new();
    let sim = scale.grid(480);
    for &bz in crate::paper::FIG5_BZ {
        for &dw in crate::paper::FIG5_DW {
            let cs = cache_block_bytes(480, dw, bz) / MIB;
            let r = simulate_mwd_engine(&HSW, sim, scale.steps(dw), dw, bz, 1, 1);
            out.push(Fig5Point {
                bz,
                dw,
                cs_mib: cs,
                bc_model: code_balance_diamond(dw),
                bc_measured: r.code_balance,
            });
        }
    }
    out
}

// ------------------------------------------------------------------ Fig. 6

#[derive(Clone, Copy, Debug)]
pub struct Fig6Point {
    pub threads: usize,
    pub spatial: EngineResult,
    pub one_wd: EngineResult,
    pub mwd: EngineResult,
    pub dw_1wd: usize,
    pub dw_mwd: usize,
}

/// Fig. 6: thread scaling at 384^3 — performance, bandwidth, code
/// balance, tuned diamond width, for spatial / 1WD / MWD.
pub fn fig6(scale: Scale) -> Vec<Fig6Point> {
    let paper_dims = GridDims::cubic(384);
    let sim = scale.grid(384);
    scale
        .thread_counts()
        .into_iter()
        .map(|t| {
            let spatial = simulate_spatial_engine(&HSW, sim, 2, t);
            let cfg1 = tune_point(paper_dims, t, Some(&[1]));
            let one_wd = measure_mwd(&cfg1, sim, scale.steps(cfg1.dw), t);
            let cfgm = tune_point(paper_dims, t, None);
            let mwd = measure_mwd(&cfgm, sim, scale.steps(cfgm.dw), t);
            Fig6Point {
                threads: t,
                spatial,
                one_wd,
                mwd,
                dw_1wd: cfg1.dw,
                dw_mwd: cfgm.dw,
            }
        })
        .collect()
}

// ------------------------------------------------------------------ Fig. 7

#[derive(Clone, Copy, Debug)]
pub struct Fig7Point {
    pub n: usize,
    pub spatial: EngineResult,
    pub one_wd: EngineResult,
    pub mwd: EngineResult,
    pub dw_1wd: usize,
    pub dw_mwd: usize,
    /// Tuned intra-tile parallelization (threads along x, z, components).
    pub tg: mwd_core::TgShape,
    pub groups: usize,
}

/// Fig. 7: grid-size scaling on the full socket (18 threads).
pub fn fig7(scale: Scale) -> Vec<Fig7Point> {
    let threads = 18;
    scale
        .grid_sides()
        .into_iter()
        .map(|n| {
            let paper_dims = GridDims::cubic(n);
            let sim = scale.grid(n);
            let spatial = simulate_spatial_engine(&HSW, sim, 2, threads);
            let cfg1 = tune_point(paper_dims, threads, Some(&[1]));
            let one_wd = measure_mwd(&cfg1, sim, scale.steps(cfg1.dw), threads);
            let cfgm = tune_point(paper_dims, threads, None);
            let mwd = measure_mwd(&cfgm, sim, scale.steps(cfgm.dw), threads);
            Fig7Point {
                n,
                spatial,
                one_wd,
                mwd,
                dw_1wd: cfg1.dw,
                dw_mwd: cfgm.dw,
                tg: cfgm.tg,
                groups: cfgm.groups,
            }
        })
        .collect()
}

// ------------------------------------------------------------------ Fig. 8

#[derive(Clone, Copy, Debug)]
pub struct Fig8Point {
    pub n: usize,
    pub tg_size: usize,
    pub dw: usize,
    pub result: EngineResult,
}

/// Fig. 8: thread-group size impact ({1,2,3,6,9,18}WD) over grid sizes.
pub fn fig8(scale: Scale) -> Vec<Fig8Point> {
    let threads = 18;
    let mut out = Vec::new();
    for n in scale.grid_sides() {
        let paper_dims = GridDims::cubic(n);
        let sim = scale.grid(n);
        for &tg_size in crate::paper::FIG8_TG_SIZES {
            let cfg = tune_point(paper_dims, threads, Some(&[tg_size]));
            let result = measure_mwd(&cfg, sim, scale.steps(cfg.dw), threads);
            out.push(Fig8Point {
                n,
                tg_size,
                dw: cfg.dw,
                result,
            });
        }
    }
    out
}

// ------------------------------------------------------- model validation

#[derive(Clone, Copy, Debug)]
pub struct ValidatePoint {
    pub dw: usize,
    pub bc_model: f64,
    pub bc_measured: f64,
    /// measured / model.
    pub ratio: f64,
}

/// Extra experiment: Eq. 12 against the simulator in the fits-in-cache
/// regime (tile comfortably resident, long runs).
pub fn validate(scale: Scale) -> Vec<ValidatePoint> {
    let sim = scale.grid(480);
    [4usize, 8, 16]
        .iter()
        .map(|&dw| {
            // Machine with ample cache for this tile: 3x the Eq. 11 block.
            let cs = cache_block_bytes(sim.nx, dw, 1);
            let machine = MachineSpec {
                l3_bytes: (3.0 * cs) as usize,
                ..HSW
            };
            let steps = 4 * dw;
            let r = simulate_mwd_engine(&machine, sim, steps, dw, 1, 1, 1);
            let bc_model = code_balance_diamond(dw);
            ValidatePoint {
                dw,
                bc_model,
                bc_measured: r.code_balance,
                ratio: r.code_balance / bc_model,
            }
        })
        .collect()
}

// ----------------------------------------------- thin-domain ablation

#[derive(Clone, Copy, Debug)]
pub struct ThinPoint {
    /// Which axis carries the thin extent.
    pub thin_axis: &'static str,
    pub dims: GridDims,
    pub dw: usize,
    pub result: EngineResult,
}

/// Ablation from the paper's conclusion: for "thin" domains (climate /
/// reservoir shaped), mapping the thin extent to the leading dimension
/// shrinks every cache block (Eq. 11 is proportional to Nx), affording
/// larger diamonds and lower code balance than mapping it to z.
pub fn thin_domain(scale: Scale) -> Vec<ThinPoint> {
    let threads = 18;
    let (thin, wide) = (64usize, 768usize);
    let cap = match scale {
        Scale::Tiny => 48,
        _ => 96,
    };
    let orientations: [(&'static str, GridDims, GridDims); 2] = [
        // Thin extent on x (recommended): paper dims for tuning keep the
        // true Nx; lateral extents capped for simulation speed.
        (
            "x (leading)",
            GridDims {
                nx: thin,
                ny: wide,
                nz: wide,
            },
            GridDims {
                nx: thin,
                ny: wide.min(cap),
                nz: wide.min(cap),
            },
        ),
        // Thin extent on z: full-length rows, fewer z planes.
        (
            "z (outer)",
            GridDims {
                nx: wide,
                ny: wide,
                nz: thin,
            },
            GridDims {
                nx: wide,
                ny: wide.min(cap),
                nz: thin,
            },
        ),
    ];
    orientations
        .into_iter()
        .map(|(thin_axis, paper_dims, sim)| {
            let cfg = tune_point(paper_dims, threads, None);
            let result = measure_mwd(&cfg, sim, scale.steps(cfg.dw), threads);
            ThinPoint {
                thin_axis,
                dims: paper_dims,
                dw: cfg.dw,
                result,
            }
        })
        .collect()
}

// ------------------------------------------------------------ Figs. 2 & 4

/// ASCII rendering of the diamond structure (Figs. 2/4): row kinds, time
/// levels, y intervals and wavefront lags.
pub fn shapes(dw: usize) -> String {
    let d = DiamondWidth::new(dw).expect("even dw");
    let rows = diamond_rows(d, dw as i64, 1);
    let mut s = String::new();
    s.push_str(&format!(
        "Diamond tile, Dw = {dw} (base Y = {dw}, n0 = 1); Ww = Dw + BZ - 1\n\n"
    ));
    for row in rows.iter().rev() {
        let width = (row.y_hi - row.y_lo + 1) as usize;
        let indent = (row.y_lo) as usize;
        let kind = match row.kind {
            em_field::FieldKind::E => 'E',
            em_field::FieldKind::H => 'H',
        };
        s.push_str(&format!(
            "t={:>2} lag={:>2} {} {}{}\n",
            row.time,
            row.lag,
            kind,
            " ".repeat(indent),
            (if kind == 'E' { "o" } else { "#" }).repeat(width),
        ));
    }
    s.push_str("\no = E cells (widths 1,3,..,Dw-1), # = H cells (2,4,..,Dw)\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sect3_matches_paper_numbers() {
        let s = sect3();
        assert_eq!(s.flops_per_lup, 248.0);
        assert_eq!(s.bytes_per_cell, 640.0);
        assert_eq!(s.bc_naive, 1344.0);
        assert_eq!(s.bc_spatial, 1216.0);
        assert!((s.pmem_spatial - 41.0).abs() < 0.5);
        assert_eq!(s.cs_example_per_nx, 14912.0);
    }

    #[test]
    fn shapes_renders_all_rows() {
        let s = shapes(8);
        assert_eq!(s.lines().filter(|l| l.starts_with("t=")).count(), 15);
        assert!(s.contains("ooooooo"), "widest E row of 7 cells:\n{s}");
        assert!(s.contains("########"), "widest H row of 8 cells:\n{s}");
    }

    #[test]
    fn fig5_tiny_shows_model_agreement_within_cache() {
        let pts = fig5(Scale::Tiny);
        assert_eq!(pts.len(), 12);
        // Points whose block fits well inside the usable cache must track
        // the Eq. 12 model; deeply oversized blocks must exceed it.
        let usable = HSW.usable_l3() / MIB;
        for p in &pts {
            if p.cs_mib < 0.5 * usable {
                assert!(
                    p.bc_measured < 2.2 * p.bc_model + 60.0,
                    "in-cache point strays from model: {p:?}"
                );
            }
        }
        let worst = pts
            .iter()
            .find(|p| p.cs_mib > 2.0 * usable)
            .expect("an oversized point");
        assert!(
            worst.bc_measured > 1.5 * worst.bc_model,
            "oversized block must diverge from the model: {worst:?}"
        );
    }

    #[test]
    fn validate_tracks_eq12() {
        for p in validate(Scale::Tiny) {
            assert!(
                p.ratio > 0.6 && p.ratio < 1.8,
                "Eq. 12 validation out of band: {p:?}"
            );
        }
    }

    #[test]
    fn thin_domain_prefers_thin_x() {
        let pts = thin_domain(Scale::Tiny);
        assert_eq!(pts.len(), 2);
        let x = &pts[0];
        let z = &pts[1];
        assert!(x.dw >= z.dw, "thin-x affords larger diamonds: {pts:?}");
        assert!(
            x.result.code_balance <= z.result.code_balance * 1.05,
            "thin-x must not lose on traffic: {pts:?}"
        );
    }

    #[test]
    fn tune_point_respects_tg_restriction() {
        let dims = GridDims::cubic(384);
        let cfg = tune_point(dims, 18, Some(&[6]));
        assert_eq!(cfg.tg.size(), 6);
        assert_eq!(cfg.groups, 3);
        let cfg1 = tune_point(dims, 18, Some(&[1]));
        assert_eq!(cfg1.tg.size(), 1);
        assert_eq!(cfg1.groups, 18);
    }
}
