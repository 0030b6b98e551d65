//! The MWD execution engine: thread groups cooperatively updating diamond
//! tiles from the shared FIFO queue, with multi-dimensional intra-tile
//! parallelization (x chunks x z sub-windows x component subsets).
//!
//! # Safety argument (referenced by every `unsafe` block below)
//!
//! Writes: a (tile, row, position) work item writes component arrays of
//! `row.kind` at cells `(x, y, z)` with `y` in the row's clipped interval
//! and `z` in the row's wavefront window. Within the item, group members
//! write disjoint `(component, z-chunk, x-chunk)` triples by construction
//! of `TgShape::coords` + `split_range`. Across items:
//!
//! - rows within one tile are separated by the group's [`SpinBarrier`]
//!   (release/acquire), and the wavefront windows make successive rows'
//!   read sets land in already-completed cells
//!   (`wavefront::tests::wavefront_satisfies_z_dependencies_exactly`);
//! - concurrently running tiles never overlap in writes, and never write
//!   what another in-flight tile reads (`TilePlan` antichain disjointness,
//!   verified by `tiling` tests and the plan validator);
//! - a completed tile's writes are published to dependent tiles through
//!   the queue's mutex (release on `complete`, acquire on `pop`) and the
//!   group's publish barrier.
//!
//! The end-to-end check is the bitwise oracle: for any configuration and
//! thread count, `run_mwd` must produce exactly the bits of `step_naive`.

use crate::barrier::{Padded, SpinBarrier};
use crate::cancel::{CancelToken, SolveError};
use crate::config::{split_range, split_range_aligned, MwdConfig};
use crate::queue::ReadyQueue;
use crate::tiling::{Tile, TilePlan};
use crate::wavefront::WavefrontSpec;
use em_field::{Component, State};
use em_kernels::update::update_component_rows_periodic_x;
use em_kernels::{update_component_rows, RawGrid};
use em_obs::{Recorder, ThreadLog};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Boundary handling of the temporally blocked engines. Periodic x uses
/// the loop-peeled kernels (the paper's outlook, Sec. VI): the wrap read
/// stays within the current (y, z) row of the opposite field, so the
/// diamond/wavefront dependency structure is untouched.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MwdBoundary {
    /// Homogeneous Dirichlet (zero halo) — the paper's benchmark mode.
    #[default]
    Dirichlet,
    /// Periodic along x, Dirichlet along y/z.
    PeriodicX,
}

/// Counters from one MWD run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Tiles executed (clipped diamonds).
    pub tiles: usize,
    /// Single-field cell updates performed (2 per LUP).
    pub half_updates: usize,
    /// Barrier crossings per thread (row/position synchronizations).
    pub barriers: usize,
    /// Thread count used.
    pub threads: usize,
}

/// Everything about one MWD run beyond `(state, cfg, nt)`. The default
/// is the paper's benchmark call: Dirichlet boundaries, no span
/// recording, a token that never fires.
#[derive(Clone, Debug, Default)]
pub struct MwdRun {
    pub boundary: MwdBoundary,
    /// Per-thread-group phase spans (`frontier_setup`, `queue_wait`,
    /// `diamond_update`) go here. Disabled, instrumentation reduces to
    /// one branch per call site, so the updates stay bit-identical.
    pub recorder: Recorder,
    /// Span id the phase spans nest under (0 = root).
    pub trace_parent: u64,
    /// Group leaders check the token before every tile claim; on a halt
    /// the queue is closed, every group winds down at its next claim,
    /// and the halt error is returned. The field state is then mid-plan
    /// and must be discarded.
    pub cancel: CancelToken,
}

/// Run `nt` time steps of the THIIM update with MWD temporal blocking.
///
/// Builds the tile plan for `(ny, nt, dw)`, then lets
/// `cfg.groups` thread groups of `cfg.tg.size()` threads each drain it.
/// Any valid configuration yields results bit-identical to
/// [`em_kernels::run_naive`].
pub fn run_mwd(state: &mut State, cfg: &MwdConfig, nt: usize) -> Result<RunStats, SolveError> {
    MwdRun::default().run(state, cfg, nt)
}

/// [`run_mwd`] with an explicit boundary selection and span recording
/// under `parent`; shorthand for the matching [`MwdRun`].
pub fn run_mwd_bc_rec(
    state: &mut State,
    cfg: &MwdConfig,
    nt: usize,
    boundary: MwdBoundary,
    rec: &Recorder,
    parent: u64,
) -> Result<RunStats, SolveError> {
    MwdRun {
        boundary,
        recorder: rec.clone(),
        trace_parent: parent,
        ..MwdRun::default()
    }
    .run(state, cfg, nt)
}

impl MwdRun {
    /// The one executor body: validate, build the tile plan, drain it.
    pub fn run(
        &self,
        state: &mut State,
        cfg: &MwdConfig,
        nt: usize,
    ) -> Result<RunStats, SolveError> {
        let (rec, parent) = (&self.recorder, self.trace_parent);
        let dims = state.dims();
        cfg.validate(dims)?;
        if nt == 0 {
            return Ok(RunStats {
                threads: cfg.threads(),
                ..RunStats::default()
            });
        }
        let mut log = rec.thread("mwd_plan", parent);
        let setup = log.start("frontier_setup");
        let plan = TilePlan::build(cfg.diamond()?, dims.ny, nt);
        log.end_kv(
            setup,
            if rec.is_enabled() {
                vec![("tiles", plan.tiles.len().to_string())]
            } else {
                Vec::new()
            },
        );
        drop(log);

        let wf = cfg.wavefront()?;
        let queue = ReadyQueue::new(&plan);
        let tg_size = cfg.tg.size();
        let groups: Vec<GroupCtx> = (0..cfg.groups).map(|_| GroupCtx::new(tg_size)).collect();
        let half_updates = AtomicUsize::new(0);
        let barriers = AtomicUsize::new(0);
        let tiles_run = AtomicUsize::new(0);

        // Raw view shared by all workers; see the module-level safety argument.
        let g = RawGrid::new(state);

        std::thread::scope(|scope| {
            for (gi, group) in groups.iter().enumerate() {
                for member in 0..tg_size {
                    let (plan, queue) = (&plan, &queue);
                    let half_updates = &half_updates;
                    let barriers = &barriers;
                    let tiles_run = &tiles_run;
                    let rec = rec.clone();
                    scope.spawn(move || {
                        let log = if rec.is_enabled() {
                            rec.thread(&format!("mwd g{gi}.{member}"), parent)
                        } else {
                            rec.thread("", parent)
                        };
                        worker(
                            &g,
                            plan,
                            cfg,
                            wf,
                            queue,
                            group,
                            member,
                            self.boundary,
                            log,
                            half_updates,
                            barriers,
                            tiles_run,
                            &self.cancel,
                        );
                    });
                }
            }
        });

        // A closed queue means a leader observed the token and abandoned
        // the plan: the field state is mid-update and must not be used.
        if queue.is_closed() {
            return Err(self
                .cancel
                .halt_error()
                .unwrap_or_else(|| SolveError::Cancelled("executor queue closed".to_string())));
        }

        Ok(RunStats {
            tiles: tiles_run.load(Ordering::Relaxed),
            // Workers accumulate component-cell updates; six per field cell.
            half_updates: half_updates.load(Ordering::Relaxed) / 6,
            barriers: barriers.load(Ordering::Relaxed),
            threads: cfg.threads(),
        })
    }
}

/// Sentinel published to a group's slot when the queue is drained.
const SHUTDOWN: usize = usize::MAX;

struct GroupCtx {
    barrier: SpinBarrier,
    /// Tile index + 1, or SHUTDOWN. On its own line: the members read
    /// it right after the publish barrier, whose counters sit beside it.
    slot: Padded,
}

impl GroupCtx {
    fn new(tg_size: usize) -> Self {
        GroupCtx {
            barrier: SpinBarrier::new(tg_size),
            slot: Padded(AtomicUsize::new(0)),
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn worker(
    g: &RawGrid<'_>,
    plan: &TilePlan,
    cfg: &MwdConfig,
    wf: WavefrontSpec,
    queue: &ReadyQueue<'_>,
    group: &GroupCtx,
    member: usize,
    boundary: MwdBoundary,
    mut log: ThreadLog,
    half_updates: &AtomicUsize,
    barriers: &AtomicUsize,
    tiles_run: &AtomicUsize,
    cancel: &CancelToken,
) {
    let leader = member == 0;
    let (ix, iz, ic) = cfg.tg.coords(member);
    let mut my_barriers = 0usize;
    let mut my_half = 0usize;
    let mut my_tiles = 0usize;

    loop {
        // Queue-wait phase: the leader's FIFO pop plus the publish
        // barrier every member parks on until the tile is announced.
        let wait = log.start("queue_wait");
        if leader {
            // The cancellation checkpoint: one atomic load (plus an
            // Instant read under a deadline) per tile claim. Closing
            // the queue wakes every other leader blocked in `pop`, so
            // all groups wind down without a straggler deadlocking on
            // tiles that will never complete.
            if cancel.halt_error().is_some() {
                queue.close();
            }
            let next = queue.pop().map(|t| t + 1).unwrap_or(SHUTDOWN);
            group.slot.0.store(next, Ordering::Release);
        }
        // Publish barrier: members learn the tile; pairs with the leader's
        // release store and closes the previous tile's epoch.
        group.barrier.wait();
        log.end(wait);
        my_barriers += 1;
        let slot = group.slot.0.load(Ordering::Acquire);
        if slot == SHUTDOWN {
            break;
        }
        let tile = &plan.tiles[slot - 1];

        let update = log.start("diamond_update");
        my_half += execute_tile(
            g,
            tile,
            cfg,
            wf,
            group,
            boundary,
            &mut my_barriers,
            ix,
            iz,
            ic,
        );
        if update.id() == 0 {
            log.end(update);
        } else {
            log.end_kv(update, vec![("tile", (slot - 1).to_string())]);
        }

        if leader {
            queue.complete(slot - 1);
            my_tiles += 1;
        }
    }
    drop(log);

    half_updates.fetch_add(my_half, Ordering::Relaxed);
    barriers.fetch_add(my_barriers, Ordering::Relaxed);
    tiles_run.fetch_add(my_tiles, Ordering::Relaxed);
}

/// Execute one tile cooperatively. Returns this member's cell updates.
#[allow(clippy::too_many_arguments)]
fn execute_tile(
    g: &RawGrid<'_>,
    tile: &Tile,
    cfg: &MwdConfig,
    wf: WavefrontSpec,
    group: &GroupCtx,
    boundary: MwdBoundary,
    my_barriers: &mut usize,
    ix: usize,
    iz: usize,
    ic: usize,
) -> usize {
    let dims = g.dims();
    let max_lag = tile.max_lag();
    let comps_per = 6 / cfg.tg.c;
    let mut half = 0usize;

    for p in wf.positions(dims.nz, max_lag) {
        for row in &tile.rows {
            let zwin = wf.window(p, row.lag, dims.nz);
            if !zwin.is_empty() {
                let my_z = split_range(zwin, cfg.tg.z, iz);
                // x chunks are lane-aligned so every member's rows hit
                // the SIMD fast path without per-chunk scalar tails (the
                // split stays a partition; results are bit-identical for
                // any chunking because cell updates are independent).
                let my_x = split_range_aligned(0..dims.nx, cfg.tg.x, ix, em_kernels::LANE_WIDTH);
                if !my_z.is_empty() && !my_x.is_empty() {
                    let comps = Component::of(row.kind);
                    for &comp in &comps[ic * comps_per..(ic + 1) * comps_per] {
                        // SAFETY: module-level argument — disjoint
                        // (component, z, x) split within the item; barriers
                        // order items; the plan orders tiles. The periodic
                        // wrap reads the same row of previous-row arrays,
                        // preserving the argument unchanged.
                        unsafe {
                            match boundary {
                                MwdBoundary::Dirichlet => update_component_rows(
                                    g,
                                    comp,
                                    my_z.clone(),
                                    row.y_range(),
                                    my_x.clone(),
                                ),
                                MwdBoundary::PeriodicX => update_component_rows_periodic_x(
                                    g,
                                    comp,
                                    my_z.clone(),
                                    row.y_range(),
                                    my_x.clone(),
                                ),
                            }
                        };
                    }
                    // Count component-cell updates; 6 of them make one
                    // single-field cell update.
                    half += my_z.len() * row.y_range().len() * my_x.len() * comps_per;
                }
            }
            // Row barrier: uniform across members (also for empty windows)
            // so control flow never diverges.
            group.barrier.wait();
            *my_barriers += 1;
        }
    }
    half
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TgShape;
    use em_field::GridDims;
    use em_kernels::run_naive;

    fn filled(dims: GridDims, seed: u64) -> State {
        let mut s = State::zeros(dims);
        s.fields.fill_deterministic(seed);
        s.coeffs.fill_deterministic(seed ^ 0xbeef);
        s
    }

    fn periodic_x() -> MwdRun {
        MwdRun {
            boundary: MwdBoundary::PeriodicX,
            ..MwdRun::default()
        }
    }

    fn with_token(cancel: CancelToken) -> MwdRun {
        MwdRun {
            cancel,
            ..MwdRun::default()
        }
    }

    fn assert_mwd_matches_naive(dims: GridDims, cfg: MwdConfig, nt: usize, seed: u64) {
        let mut reference = filled(dims, seed);
        let mut tiled = reference.clone();
        run_naive(&mut reference, nt);
        let stats = run_mwd(&mut tiled, &cfg, nt).expect("run_mwd");
        if let Some(m) = em_field::norms::first_mismatch(&tiled.fields, &reference.fields) {
            panic!("cfg {cfg:?} nt={nt} dims={dims}: first mismatch {m:?}");
        }
        assert_eq!(stats.threads, cfg.threads());
        // Each field cell updated once per step: ny*nz*nx per field per
        // step => 2*cells*nt single-field updates in total.
        assert_eq!(stats.half_updates, 2 * dims.cells() * nt);
    }

    #[test]
    fn single_thread_single_group_matches_naive() {
        let dims = GridDims::new(6, 8, 7);
        assert_mwd_matches_naive(dims, MwdConfig::one_wd(4, 2, 1), 5, 1);
    }

    #[test]
    fn multiple_single_thread_groups_match_naive() {
        // 1WD with 4 concurrent groups.
        let dims = GridDims::new(5, 12, 6);
        assert_mwd_matches_naive(dims, MwdConfig::one_wd(4, 3, 4), 6, 2);
    }

    #[test]
    fn component_parallel_group_matches_naive() {
        for c in [2usize, 3, 6] {
            let dims = GridDims::new(4, 8, 5);
            let cfg = MwdConfig {
                dw: 4,
                bz: 2,
                tg: TgShape { x: 1, z: 1, c },
                groups: 1,
            };
            assert_mwd_matches_naive(dims, cfg, 4, 3);
        }
    }

    #[test]
    fn x_parallel_group_matches_naive() {
        let dims = GridDims::new(9, 8, 5);
        let cfg = MwdConfig {
            dw: 4,
            bz: 1,
            tg: TgShape { x: 3, z: 1, c: 1 },
            groups: 1,
        };
        assert_mwd_matches_naive(dims, cfg, 4, 4);
    }

    #[test]
    fn z_parallel_group_matches_naive() {
        let dims = GridDims::new(4, 8, 9);
        let cfg = MwdConfig {
            dw: 4,
            bz: 4,
            tg: TgShape { x: 1, z: 2, c: 1 },
            groups: 1,
        };
        assert_mwd_matches_naive(dims, cfg, 4, 5);
    }

    #[test]
    fn full_multidimensional_groups_match_naive() {
        // 2 groups x (2*2*3) = 12 threads on an oversubscribed host —
        // correctness must not depend on core count.
        let dims = GridDims::new(8, 12, 8);
        let cfg = MwdConfig {
            dw: 4,
            bz: 2,
            tg: TgShape { x: 2, z: 2, c: 3 },
            groups: 2,
        };
        assert_mwd_matches_naive(dims, cfg, 5, 6);
    }

    #[test]
    fn large_diamond_and_wavefront_match_naive() {
        let dims = GridDims::new(4, 16, 12);
        let cfg = MwdConfig {
            dw: 8,
            bz: 6,
            tg: TgShape { x: 1, z: 2, c: 2 },
            groups: 2,
        };
        assert_mwd_matches_naive(dims, cfg, 9, 7);
    }

    #[test]
    fn domain_not_divisible_by_diamond_width() {
        let dims = GridDims::new(3, 7, 5);
        let cfg = MwdConfig {
            dw: 4,
            bz: 3,
            tg: TgShape { x: 1, z: 1, c: 2 },
            groups: 3,
        };
        assert_mwd_matches_naive(dims, cfg, 3, 8);
    }

    #[test]
    fn nt_smaller_than_diamond_height() {
        let dims = GridDims::new(4, 10, 4);
        assert_mwd_matches_naive(dims, MwdConfig::one_wd(8, 2, 2), 2, 9);
    }

    #[test]
    fn zero_steps_is_identity() {
        let dims = GridDims::cubic(4);
        let mut s = filled(dims, 10);
        let before = s.fields.clone();
        let stats = run_mwd(&mut s, &MwdConfig::one_wd(4, 1, 2), 0).unwrap();
        assert!(s.fields.bit_eq(&before));
        assert_eq!(stats.half_updates, 0);
    }

    #[test]
    fn invalid_config_is_rejected_without_running() {
        let dims = GridDims::cubic(4);
        let mut s = filled(dims, 11);
        let cfg = MwdConfig {
            dw: 3,
            bz: 1,
            tg: TgShape::SINGLE,
            groups: 1,
        };
        assert!(run_mwd(&mut s, &cfg, 2).is_err());
    }

    #[test]
    fn periodic_x_mwd_matches_halo_exchange_naive() {
        // The outlook feature: MWD with peeled periodic-x kernels must be
        // bit-identical to the halo-exchange naive reference, for any
        // thread-group shape.
        use em_kernels::boundary::{step_naive_with_boundary, Boundary};
        let dims = GridDims::new(7, 9, 8);
        for cfg in [
            MwdConfig::one_wd(4, 2, 2),
            MwdConfig {
                dw: 4,
                bz: 2,
                tg: TgShape { x: 2, z: 2, c: 3 },
                groups: 1,
            },
        ] {
            let mut reference = filled(dims, 321);
            let mut tiled = reference.clone();
            for _ in 0..5 {
                step_naive_with_boundary(&mut reference, Boundary::PeriodicX);
            }
            periodic_x().run(&mut tiled, &cfg, 5).expect("runs");
            // The halo cells differ (naive writes wrap copies there), so
            // compare interiors via the component-wise norm.
            for comp in em_field::Component::ALL {
                let a = reference.fields.comp(comp);
                let b = tiled.fields.comp(comp);
                for ((x, y, z), va) in a.iter_interior() {
                    let vb = b.get(x as isize, y as isize, z as isize);
                    assert!(
                        va.re.to_bits() == vb.re.to_bits() && va.im.to_bits() == vb.im.to_bits(),
                        "cfg {cfg:?} {comp} ({x},{y},{z}): {va:?} vs {vb:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn periodic_x_differs_from_dirichlet() {
        // Sanity: the boundary selection actually changes the physics.
        let dims = GridDims::new(5, 6, 6);
        let mut a = filled(dims, 11);
        let mut b = a.clone();
        let cfg = MwdConfig::one_wd(4, 1, 1);
        run_mwd(&mut a, &cfg, 3).unwrap();
        periodic_x().run(&mut b, &cfg, 3).unwrap();
        assert!(!a.fields.bit_eq(&b.fields));
    }

    #[test]
    fn pre_cancelled_token_halts_without_hanging() {
        // Multiple groups: every leader must wind down even though the
        // first one to observe the token closes the queue.
        let dims = GridDims::new(4, 16, 8);
        let mut s = filled(dims, 21);
        let cfg = MwdConfig {
            dw: 4,
            bz: 2,
            tg: TgShape { x: 1, z: 1, c: 2 },
            groups: 3,
        };
        let token = CancelToken::none();
        token.cancel();
        let err = with_token(token).run(&mut s, &cfg, 6).unwrap_err();
        assert!(matches!(err, SolveError::Cancelled(_)), "{err}");
    }

    #[test]
    fn expired_deadline_reports_timeout() {
        let dims = GridDims::new(4, 8, 6);
        let mut s = filled(dims, 22);
        let cfg = MwdConfig::one_wd(4, 2, 2);
        let token = CancelToken::with_deadline(std::time::Duration::from_millis(0));
        let err = with_token(token).run(&mut s, &cfg, 4).unwrap_err();
        assert!(matches!(err, SolveError::Timeout(_)), "{err}");
    }

    #[test]
    fn active_token_is_bit_identical_to_the_plain_path() {
        let dims = GridDims::new(5, 9, 7);
        let cfg = MwdConfig::one_wd(4, 2, 2);
        let mut plain = filled(dims, 23);
        let mut cancellable = plain.clone();
        run_mwd(&mut plain, &cfg, 5).unwrap();
        let stats = with_token(CancelToken::none())
            .run(&mut cancellable, &cfg, 5)
            .unwrap();
        assert!(plain.fields.bit_eq(&cancellable.fields));
        assert_eq!(stats.half_updates, 2 * dims.cells() * 5);
    }

    #[test]
    fn stats_count_tiles_and_barriers() {
        let dims = GridDims::new(4, 8, 4);
        let mut s = filled(dims, 12);
        let cfg = MwdConfig {
            dw: 4,
            bz: 2,
            tg: TgShape { x: 1, z: 1, c: 2 },
            groups: 1,
        };
        let stats = run_mwd(&mut s, &cfg, 4).unwrap();
        let plan = TilePlan::build(crate::diamond::DiamondWidth::new(4).unwrap(), 8, 4);
        assert_eq!(stats.tiles, plan.tiles.len());
        assert!(stats.barriers > 0);
    }
}
