//! `grid-mem` and `grid-cache`: the bare MWD engine on a synthetic
//! seeded state — `em_kernels` + `mwd_core` do all the work.

use crate::harness::{Check, Workload};
use autotune::{Resolution, ResolveOptions, TuneCache, TuneKey};
use em_field::{Component, FieldSet, GridDims, State};
use em_obs::Recorder;
use mwd_core::{run_mwd_bc_rec, MwdBoundary, MwdConfig, RunStats};

/// 40 arrays x 640 B/cell = 1.106 GB: 4.06x a 260 MiB last-level
/// cache, the bandwidth-bound regime the paper is about.
pub const MEM_DIMS: GridDims = GridDims::cubic(120);
pub const MEM_STEPS: usize = 16;
/// 3.9 MB of state: resident in the two cores' private 2 MiB L2s. The
/// catalog's typical 24x24x72 (26.5 MB) lives in the last-level cache,
/// which a cloud host shares with its other tenants: there the same op
/// drifts by +-10 % over tens of seconds, here by +-1 %.
pub const CACHE_DIMS: GridDims = GridDims::new(16, 16, 24);
pub const CACHE_STEPS: usize = 2400;

/// A 64-bit FNV-1a-style fold over the raw words of all twelve field
/// arrays (halo included): any flipped bit anywhere changes it.
pub fn field_digest(fields: &FieldSet) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for comp in Component::ALL {
        for v in fields.comp(comp).as_slice() {
            h = (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// A fresh state filled from the two seeds.
pub fn alloc_fill(dims: GridDims, field_seed: u64, coeff_seed: u64) -> State {
    let mut s = State::zeros(dims);
    s.fields.fill_deterministic(field_seed);
    s.coeffs.fill_deterministic(coeff_seed);
    s
}

/// The tuned MWD configuration for `dims` at `threads`, resolved into
/// `cache` with native probing off (model + simulator stages only), so
/// the choice is deterministic per host.
pub fn resolve(
    cache: &mut TuneCache,
    dims: GridDims,
    threads: usize,
) -> Result<Resolution, String> {
    let ropts = ResolveOptions::default();
    debug_assert_eq!(ropts.refine_top, 0, "native probing must stay off");
    let key = TuneKey::for_host(&ropts.machine, dims, "mwd", threads);
    autotune::resolve(cache, &key, &ropts)
}

pub struct GridWorkload {
    pub dims: GridDims,
    pub steps: usize,
    pub threads: usize,
    pub field_seed: u64,
    pub coeff_seed: u64,
    /// The canary: run one step too many, so every digest is wrong.
    pub corrupt: bool,
    state: Option<State>,
    cfg: Option<MwdConfig>,
    want: Option<u64>,
    /// Seconds the reference's plain single-thread sweep took.
    pub naive_secs: f64,
    /// Counters of the last run.
    pub stats: RunStats,
}

impl GridWorkload {
    pub fn new(
        dims: GridDims,
        steps: usize,
        threads: usize,
        inputs: &crate::inputs::Inputs,
        corrupt: bool,
    ) -> Self {
        GridWorkload {
            dims,
            steps,
            threads,
            field_seed: inputs.field_seed(),
            coeff_seed: inputs.coeff_seed(),
            corrupt,
            state: None,
            cfg: None,
            want: None,
            naive_secs: 0.0,
            stats: RunStats::default(),
        }
    }

    pub fn state(&mut self) -> Result<&mut State, String> {
        self.state.as_mut().ok_or_else(|| "not set up".to_string())
    }

    pub fn config(&self) -> Result<MwdConfig, String> {
        self.cfg.ok_or_else(|| "not tuned".to_string())
    }

    /// First half of the set-up: allocate and fill the 40 arrays.
    pub fn alloc(&mut self) {
        self.state = Some(alloc_fill(self.dims, self.field_seed, self.coeff_seed));
    }

    /// Second half: resolve the tuned configuration from an empty cache.
    pub fn tune(&mut self) -> Result<(), String> {
        self.cfg = Some(resolve(&mut TuneCache::in_memory(), self.dims, self.threads)?.config);
        Ok(())
    }

    /// `steps` steps (one more under `--corrupt`) on `cfg`.
    pub fn run(&mut self, cfg: &MwdConfig, rec: &Recorder, parent: u64) -> Result<(), String> {
        let steps = self.steps + usize::from(self.corrupt);
        let state = self.state()?;
        self.stats = run_mwd_bc_rec(state, cfg, steps, MwdBoundary::Dirichlet, rec, parent)?;
        Ok(())
    }
}

impl Workload for GridWorkload {
    fn describe(&self) -> Vec<(String, String)> {
        vec![
            ("dims".into(), self.dims.to_string()),
            ("steps".into(), self.steps.to_string()),
            ("state_bytes".into(), self.dims.state_bytes().to_string()),
            (
                "tuned_config".into(),
                self.cfg.map_or("-".into(), |c| c.to_compact()),
            ),
        ]
    }

    fn teardown(&mut self) {
        self.state = None;
        self.cfg = None;
    }

    fn setup(&mut self) -> Result<(), String> {
        self.alloc();
        self.tune()
    }

    fn reference(&mut self) -> Result<(), String> {
        let (steps, seed) = (self.steps, self.field_seed);
        let state = self.state()?;
        state.fields.fill_deterministic(seed);
        let t0 = std::time::Instant::now();
        em_kernels::run_naive(state, steps);
        let naive_secs = t0.elapsed().as_secs_f64();
        self.want = Some(field_digest(&state.fields));
        self.naive_secs = naive_secs;
        Ok(())
    }

    fn prepare(&mut self) -> Result<(), String> {
        let seed = self.field_seed;
        self.state()?.fields.fill_deterministic(seed);
        Ok(())
    }

    fn op(&mut self, rec: &Recorder, parent: u64) -> Result<(), String> {
        let cfg = self.config()?;
        self.run(&cfg, rec, parent)
    }

    fn verify(&mut self) -> Check {
        let got = self.state.as_ref().map(|s| field_digest(&s.fields));
        Check {
            lups: (self.dims.cells() * self.steps) as u64,
            attempted: 1,
            failed: u64::from(got.is_none() || got != self.want),
        }
    }
}
