//! The tuner: prune with the cache model, rank the survivors.
//!
//! One candidate policy ([`survivors`]) and one model ranking ([`rank`])
//! serve every caller — the resolve miss path, the figure harness and
//! `mwd tune --dry-run`; the tune-regret table measures what the policy
//! keeps. The model's score is one roofline,
//! `min(P_core(t) * concurrency / groups * group_eff, b_S / B_C)`
//! ([`score`]): the traffic term `B_C` is Eq. 12 and the two parallel
//! terms come from the [`TilePlan`] the executor would actually run
//! ([`ModelEvaluator`]). [`NativeEvaluator`] measures instead. The
//! cache simulator is not part of the search: `tests/sim_cross_check.rs`
//! holds the model's first choice against `mem_sim`'s code balance.

use crate::prune::{prune, CacheWindow};
use crate::space::Candidate;
use em_field::{GridDims, State};
use mwd_core::{run_mwd, DiamondWidth, TilePlan, WavefrontSpec};
use perf_models::{perf_mlups_parallel, MachineSpec};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// Outcome of list-scheduling a plan: `work / makespan` is the speed-up
/// the tile DAG admits on that many thread groups.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Schedule {
    /// Tiles scheduled (all of the plan's).
    pub tiles: usize,
    /// Total half-updates, the cost unit.
    pub work: u64,
    /// Time at which the last tile finishes.
    pub makespan: u64,
}

impl Schedule {
    pub fn speedup(&self) -> f64 {
        self.work as f64 / self.makespan.max(1) as f64
    }
}

/// FIFO list-scheduling of `plan` on `groups` thread groups with
/// [`Tile::half_updates`](mwd_core::Tile::half_updates) as tile cost:
/// the policy of `mwd_core::ReadyQueue` (roots in enumeration order, a
/// dependent enqueued when its last parent completes, a free group
/// takes the queue's front), with every group equally fast.
pub fn list_schedule(plan: &TilePlan, groups: usize) -> Schedule {
    let mut parents = plan.parents.clone();
    let mut ready: VecDeque<usize> = plan.roots().into();
    // (finish time, tile): the earliest finisher frees its group first,
    // ties by tile index so the result is deterministic.
    let mut running: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    let mut now = 0u64;
    let mut tiles = 0usize;
    loop {
        while running.len() < groups.max(1) {
            let Some(t) = ready.pop_front() else { break };
            running.push(Reverse((now + plan.tiles[t].half_updates() as u64, t)));
        }
        let Some(Reverse((finish, t))) = running.pop() else {
            break;
        };
        now = finish;
        tiles += 1;
        for &d in &plan.dependents[t] {
            parents[d] -= 1;
            if parents[d] == 0 {
                ready.push_back(d);
            }
        }
    }
    Schedule {
        tiles,
        work: plan.total_half_updates() as u64,
        makespan: now,
    }
}

/// The three factors of a candidate's score.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Factors {
    /// Bytes per LUP the candidate moves (Eq. 12).
    pub code_balance: f64,
    /// List-scheduled speed-up of its tile plan on its groups,
    /// `1 ..= groups`.
    pub concurrency: f64,
    /// Share of a thread's time left after per-item dispatch, barriers
    /// and cross-core sharing
    /// ([`MachineSpec::group_efficiency`]).
    pub group_eff: f64,
}

/// Weight of the bandwidth-utilisation discount in [`score`]. A machine
/// slows down before it reaches the bandwidth wall the roofline draws,
/// so of two configurations the cores can run about equally fast, the
/// one that moves fewer bytes is the better bet. Sized on the paper-scale
/// figures: at 18 threads on 384^3 the tuner has to prefer `Dw = 12`
/// (a third of the bandwidth) to `Dw = 8, BZ = 6` (half of it, 5 % more
/// group efficiency), or the MWD curve of Fig. 6 leaves the paper's
/// band of at least 38 % bandwidth saving. At two threads the discount is 2 % for
/// `Dw = 8` and 5 % for `Dw = 4`: smaller than any concurrency gap.
const BANDWIDTH_HEADROOM: f64 = 0.3;

/// The one scoring function, MLUP/s:
/// the roofline `min(P_core(t) * concurrency / groups * group_eff,
/// b_S / B_C)`, discounted by the share of the memory bandwidth it
/// draws.
pub fn score(machine: &MachineSpec, cand: &Candidate, threads: usize, f: &Factors) -> f64 {
    let parallel = f.concurrency / cand.groups as f64 * f.group_eff;
    let est = perf_mlups_parallel(machine, threads, f.code_balance, parallel);
    est.mlups * (1.0 - BANDWIDTH_HEADROOM * est.mem_bw_used / machine.mem_bw)
}

/// Time steps of the plans the parallel terms are read from, in diamond
/// widths: 16 tile rows, enough for the schedule to reach its steady
/// state (the speed-up does not move between 16 and 2400 steps).
const PLAN_DIAMONDS: usize = 8;

/// Closed-form evaluator of every candidate on one grid: Eq. 12 code
/// balance with a feasibility penalty from Eq. 11 (per-stream cache
/// shares), the parallel terms read from the tile plans the executor
/// would run, and [`score`] — how the paper's auto-tuner leans on the
/// models to bound the search. Plans and schedules are memoised per
/// `dw` and `(dw, groups)`: a resolve builds at most one plan per
/// diamond width of the search space.
pub struct ModelEvaluator {
    pub machine: MachineSpec,
    pub dims: GridDims,
    pub threads: usize,
    plans: HashMap<usize, TilePlan>,
    speedups: HashMap<(usize, usize), f64>,
}

impl ModelEvaluator {
    pub fn new(machine: MachineSpec, dims: GridDims, threads: usize) -> Self {
        ModelEvaluator {
            machine,
            dims,
            threads,
            plans: HashMap::new(),
            speedups: HashMap::new(),
        }
    }

    fn plan(&mut self, dw: usize) -> &TilePlan {
        let ny = self.dims.ny;
        self.plans.entry(dw).or_insert_with(|| {
            let d = DiamondWidth::new(dw).expect("candidates carry valid diamond widths");
            TilePlan::build(d, ny, PLAN_DIAMONDS * dw)
        })
    }

    /// List-scheduled speed-up of the candidate's plan on its groups.
    pub fn concurrency(&mut self, cand: &Candidate) -> f64 {
        if cand.groups == 1 {
            return 1.0;
        }
        let key = (cand.dw, cand.groups);
        if let Some(&s) = self.speedups.get(&key) {
            return s;
        }
        let s = list_schedule(self.plan(cand.dw), cand.groups).speedup();
        self.speedups.insert(key, s);
        s
    }

    /// Group efficiency at the candidate's mean work item: the executor
    /// issues one item per (tile row, wavefront position), so a member's
    /// mean item is the tile's cells over `rows x positions x tg.size()`.
    pub fn group_eff(&mut self, cand: &Candidate) -> f64 {
        let (nx, nz) = (self.dims.nx, self.dims.nz);
        let wf = WavefrontSpec::new(cand.bz).expect("candidates carry valid wavefronts");
        let plan = self.plan(cand.dw);
        let items: usize = plan
            .tiles
            .iter()
            .map(|t| t.rows.len() * wf.positions(nz, t.max_lag()).count())
            .sum();
        let lups = (plan.total_half_updates() * nx * nz) as f64 / 2.0;
        let item_lups = lups / (items * cand.tg.size()) as f64;
        self.machine.group_efficiency(item_lups, cand.tg.size())
    }

    pub fn factors(&mut self, cand: &Candidate) -> Factors {
        let usable = self.machine.usable_l3();
        let total = crate::prune::total_block_bytes(cand, self.dims);
        // Feasibility: blocks beyond the usable cache thrash; model the
        // penalty as reverting toward the spatial-blocking code balance.
        let over = (total / usable).clamp(1.0, 8.0);
        let bc = perf_models::code_balance_diamond(cand.dw) * over;
        Factors {
            code_balance: bc.min(perf_models::code_balance_spatial()),
            concurrency: self.concurrency(cand),
            group_eff: self.group_eff(cand),
        }
    }
}

/// Wall-clock evaluator: runs the candidate natively on a real state for
/// `probe_steps` steps and reports measured MLUP/s.
pub struct NativeEvaluator {
    pub state: State,
    pub probe_steps: usize,
}

impl NativeEvaluator {
    pub fn new(dims: GridDims, probe_steps: usize) -> Self {
        let mut state = State::zeros(dims);
        state.fields.fill_deterministic(0x7e57);
        state.coeffs.fill_deterministic(0x7e58);
        NativeEvaluator { state, probe_steps }
    }

    /// Measured MLUP/s of one run; `-inf` for a candidate that does not
    /// run on the probe grid.
    pub fn probe(&mut self, cand: &Candidate) -> f64 {
        let mut s = self.state.clone();
        let t0 = std::time::Instant::now();
        match run_mwd(&mut s, cand, self.probe_steps) {
            Ok(_) => {
                let secs = t0.elapsed().as_secs_f64();
                let lups = (s.dims().cells() * self.probe_steps) as f64;
                lups / secs / 1e6
            }
            Err(_) => f64::NEG_INFINITY,
        }
    }
}

/// The one candidate policy: `cands` pruned against the default cache
/// window (Eq. 11). The window's lower bound is a reuse argument —
/// blocks that small leave the cache idle while the grid streams from
/// memory — so it is dropped for a grid that is itself resident in the
/// usable cache. When nothing survives (degenerate grids) every
/// candidate is ranked instead of none.
pub fn survivors(cands: Vec<Candidate>, dims: GridDims, machine: &MachineSpec) -> Vec<Candidate> {
    let mut window = CacheWindow::default();
    if dims.state_bytes() as f64 <= machine.usable_l3() {
        window.lo_frac = 0.0;
    }
    let (kept, _) = prune(cands.clone(), dims, machine, window);
    if kept.is_empty() {
        cands
    } else {
        kept
    }
}

/// One row of the model ranking: a candidate, its [`score`] and the
/// factors behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Ranked {
    pub config: Candidate,
    pub score_mlups: f64,
    pub factors: Factors,
}

/// Why the candidate scores what it does: the roofline with its three
/// factors filled in (`mwd tune --dry-run` prints one per finalist).
impl std::fmt::Display for Ranked {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<32} {:>7.1} MLUP/s = min(core x {:.2}/{} x {:.3}, bw / {:.0} B/LUP)",
            self.config.to_compact(),
            self.score_mlups,
            self.factors.concurrency,
            self.config.groups,
            self.factors.group_eff,
            self.factors.code_balance,
        )
    }
}

/// The one model ranking: every candidate with its closed-form
/// [`score`], best first. The sort is stable, so ties keep enumeration
/// (smaller-Dw-first) order and the ranking is deterministic for a
/// fixed `MachineSpec`.
pub fn rank(model: &mut ModelEvaluator, cands: Vec<Candidate>) -> Vec<Ranked> {
    let mut ranked: Vec<Ranked> = cands
        .into_iter()
        .map(|config| {
            let factors = model.factors(&config);
            Ranked {
                config,
                score_mlups: score(&model.machine, &config, model.threads, &factors),
                factors,
            }
        })
        .collect();
    ranked.sort_by(|a, b| b.score_mlups.total_cmp(&a.score_mlups));
    ranked
}

/// The finalists of a ranking: its first `k` rows that differ in
/// `(dw, groups, tg.size())`. Variants of one diamond that differ only
/// in BZ or TG shape move the same bytes, so probing them again decides
/// little.
pub fn finalists(ranked: &[Ranked], k: usize) -> Vec<Ranked> {
    let shape = |r: &Ranked| (r.config.dw, r.config.groups, r.config.tg.size());
    let mut picked: Vec<Ranked> = Vec::new();
    for r in ranked {
        if picked.len() == k {
            break;
        }
        if !picked.iter().any(|p| shape(p) == shape(r)) {
            picked.push(*r);
        }
    }
    picked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::SearchSpace;

    const HSW: MachineSpec = MachineSpec::HASWELL_E5_2699_V3;

    fn ranked(dims: GridDims, threads: usize) -> (Vec<Candidate>, Vec<Ranked>) {
        let all = SearchSpace::default_for(threads).candidates(dims, threads);
        let cands = survivors(all, dims, &HSW);
        let mut model = ModelEvaluator::new(HSW, dims, threads);
        (cands.clone(), rank(&mut model, cands))
    }

    #[test]
    fn tuner_finds_a_fitting_large_diamond() {
        let dims = GridDims::cubic(480);
        let all = SearchSpace::default_for(18).candidates(dims, 18);
        let (kept, ranking) = ranked(dims, 18);
        assert!(kept.len() < all.len(), "Eq. 11 must prune something");
        // Large shared blocks should win: Dw >= 8 and a multi-thread TG.
        let (best, best_score) = (ranking[0].config, ranking[0].score_mlups);
        assert!(best.dw >= 8, "best {best:?}");
        assert!(best.tg.size() >= 6, "best {best:?}");
        assert!(best_score > 0.0);
        // Best really is the max of the scored set, and every survivor
        // is ranked exactly once.
        assert_eq!(ranking.len(), kept.len());
        let max = ranking
            .iter()
            .map(|r| r.score_mlups)
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(max, best_score);
    }

    #[test]
    fn tuner_is_deterministic() {
        let dims = GridDims::cubic(128);
        let (a, b) = (ranked(dims, 6).1, ranked(dims, 6).1);
        assert_eq!(a, b);
        // Ties keep enumeration order: the first of equal scores is the
        // earlier survivor.
        let kept = ranked(dims, 6).0;
        for w in a.windows(2) {
            if w[0].score_mlups == w[1].score_mlups {
                let pos = |c: &Candidate| kept.iter().position(|k| k == c).unwrap();
                assert!(pos(&w[0].config) < pos(&w[1].config), "{w:?}");
            }
        }
    }

    #[test]
    fn fallback_when_nothing_fits() {
        // Rows this long put even the smallest diamond's block beyond
        // the usable cache: nothing survives Eq. 11, so everything is
        // ranked rather than nothing.
        let dims = GridDims::new(1 << 16, 8, 8);
        let all = SearchSpace::default_for(2).candidates(dims, 2);
        assert!(!all.is_empty());
        let window = CacheWindow::default();
        assert!(!all
            .iter()
            .any(|c| crate::prune::cache_fit(c, dims, &HSW, window)));
        let (kept, ranking) = ranked(dims, 2);
        assert_eq!(kept, all);
        assert!(ranking[0].config.validate(dims).is_ok());
    }

    #[test]
    fn native_evaluator_runs_real_probes() {
        let dims = GridDims::new(8, 16, 8);
        let mut ev = NativeEvaluator::new(dims, 2);
        let cand = Candidate::one_wd(4, 2, 2);
        let score = ev.probe(&cand);
        assert!(score > 0.0, "native probe must complete, got {score}");
        let invalid = Candidate::one_wd(5, 2, 2);
        assert_eq!(ev.probe(&invalid), f64::NEG_INFINITY);
    }

    fn plan(dw: usize, ny: usize, nt: usize) -> TilePlan {
        TilePlan::build(DiamondWidth::new(dw).unwrap(), ny, nt)
    }

    #[test]
    fn one_group_schedules_at_speedup_exactly_one() {
        for (dw, ny, nt) in [(2, 5, 7), (8, 16, 64), (32, 16, 40), (12, 120, 48)] {
            let s = list_schedule(&plan(dw, ny, nt), 1);
            assert_eq!(s.makespan, s.work, "dw={dw} ny={ny} nt={nt}");
            assert_eq!(s.speedup(), 1.0);
        }
    }

    #[test]
    fn speedup_never_exceeds_the_group_count() {
        for dw in [2, 4, 8, 12, 16, 24, 32] {
            for ny in [4, 16, 37, 120] {
                let p = plan(dw, ny, 8 * dw);
                for groups in 1..=8 {
                    let s = list_schedule(&p, groups);
                    assert_eq!(s.tiles, p.tiles.len());
                    let x = s.speedup();
                    assert!(
                        (1.0..=groups as f64).contains(&x),
                        "dw={dw} ny={ny} groups={groups}: {x}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_diamond_spanning_y_leaves_the_other_groups_idle() {
        // dw >= 2*ny: every tile row holds one diamond (plus clipped
        // slivers), so the tile DAG is a chain.
        for (dw, ny) in [(32, 16), (24, 12), (16, 8), (8, 4), (32, 5)] {
            let p = plan(dw, ny, 8 * dw);
            for groups in 2..=8 {
                let x = list_schedule(&p, groups).speedup();
                assert!(x < 1.1, "dw={dw} ny={ny} groups={groups}: {x}");
            }
        }
    }

    #[test]
    fn narrow_diamonds_keep_two_groups_busy_on_sixteen_lines() {
        // The in-cache finding of the benchmark, from the plan alone.
        let at = |dw: usize| list_schedule(&plan(dw, 16, 8 * dw), 2).speedup();
        assert!(at(4) > 1.95 && at(8) > 1.95, "{} {}", at(4), at(8));
        assert!(at(12) < 1.6 && at(16) < 1.4, "{} {}", at(12), at(16));
        assert!(at(32) < 1.05, "{}", at(32));
    }

    #[test]
    fn one_group_schedule_matches_the_executor_drain() {
        let dims = GridDims::new(6, 10, 5);
        let (cfg, nt) = (Candidate::one_wd(4, 2, 1), 9);
        let mut state = State::zeros(dims);
        state.fields.fill_deterministic(1);
        state.coeffs.fill_deterministic(2);
        let stats = run_mwd(&mut state, &cfg, nt).unwrap();
        let s = list_schedule(&plan(cfg.dw, dims.ny, nt), 1);
        assert_eq!(s.tiles, stats.tiles);
        assert_eq!(s.makespan, s.work);
        // The plan counts (y, t) half-updates; the executor whole cells.
        assert_eq!(s.work as usize * dims.nx * dims.nz, stats.half_updates);
    }

    #[test]
    fn shared_tiles_score_below_private_tiles_of_the_same_diamond() {
        let dims = GridDims::new(16, 16, 24);
        let mut ev = ModelEvaluator::new(HSW, dims, 2);
        let mut eval = |c: &Candidate| score(&HSW, c, 2, &ev.factors(c));
        let private = Candidate::one_wd(8, 4, 2);
        for tg in mwd_core::TgShape::enumerate(2) {
            let shared = Candidate {
                tg,
                groups: 1,
                ..private
            };
            assert!(eval(&private) > eval(&shared), "{shared:?}");
        }
        // ...and a wider wavefront amortises the per-item dispatch.
        let f1 = ev.factors(&Candidate::one_wd(8, 1, 2));
        let f4 = ev.factors(&private);
        assert!(f4.group_eff > f1.group_eff, "{f1:?} {f4:?}");
        assert_eq!(f1.concurrency, f4.concurrency);
    }
}
