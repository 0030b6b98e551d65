//! The THIIM iteration driver.
//!
//! THIIM reaches the time-harmonic solution by iterating the FDFD time
//! stepping until the complex field amplitudes stop changing; the paper's
//! production runs iterate the kernel exactly as benchmarked here. The
//! driver is engine-agnostic: the same state steps through the naive
//! reference, the spatially blocked baseline, or the MWD engine (which is
//! bit-identical to naive by construction).

use crate::coeffs::build_coefficients;
use crate::geometry::Scene;
use crate::pml::PmlSpec;
use crate::source::SourceSpec;
use em_field::{norms, FieldSet, GridDims, State};
use em_kernels::boundary::{step_naive_with_boundary, Boundary};
use em_kernels::{step_spatial_mt, SpatialConfig};
use mwd_core::{CancelToken, MwdBoundary, MwdConfig, MwdRun, SolveError};

/// Execution engine selection.
#[derive(Clone, Debug)]
pub enum Engine {
    /// Reference sweep, Dirichlet boundaries.
    Naive,
    /// Reference sweep with periodic horizontal boundaries (production
    /// configuration; temporally blocked engines are Dirichlet-only,
    /// matching the paper's benchmark scope).
    NaivePeriodicXY,
    /// Spatially blocked baseline on `threads` threads.
    Spatial { cfg: SpatialConfig, threads: usize },
    /// Multicore wavefront diamond engine.
    Mwd(MwdConfig),
    /// MWD with loop-peeled periodic x boundaries (the paper's outlook
    /// feature): horizontal periodicity in the tiled engine itself.
    MwdPeriodicX(MwdConfig),
}

/// The problem description: what [`build_coefficients`] turns into the
/// arrays the stencil streams. Scenario specs, examples and tests all
/// spell one of these.
#[derive(Clone, Debug)]
pub struct SolverConfig {
    pub dims: GridDims,
    pub scene: Scene,
    /// Vacuum wavelength in grid cells (sets omega = 2*pi/lambda, c = 1).
    pub lambda_cells: f64,
    /// Vacuum wavelength in nm (material dispersion lookup).
    pub lambda_nm: f64,
    /// CFL safety factor; time step is `cfl / sqrt(3)` (3-D Yee limit).
    pub cfl: f64,
    pub pml: Option<PmlSpec>,
    pub source: Option<SourceSpec>,
}

impl SolverConfig {
    pub fn new(dims: GridDims, scene: Scene, lambda_cells: f64, lambda_nm: f64) -> Self {
        SolverConfig {
            dims,
            scene,
            lambda_cells,
            lambda_nm,
            cfl: 0.95,
            pml: None,
            source: None,
        }
    }

    pub fn omega(&self) -> f64 {
        std::f64::consts::TAU / self.lambda_cells
    }

    pub fn tau(&self) -> f64 {
        self.cfl / 3.0f64.sqrt()
    }
}

/// Convergence information from [`ThiimSolver::run_to_convergence`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConvergenceReport {
    pub periods: usize,
    pub steps: usize,
    pub rel_change: f64,
    pub converged: bool,
}

/// The seam between the one convergence loop and whatever advances the
/// fields: a local [`Engine`] or a distributed slab group. It is crossed
/// once per period, never per step, and what comes back is a number,
/// never a field.
///
/// The stepper, not the loop, owns the snapshot of the previous
/// period's fields, because only the stepper knows where the planes
/// live: [`norms::relative_change`] is defined as per-plane partials
/// combined in ascending z, so a local stepper reduces all planes
/// itself while a slab group combines what each worker reduced over the
/// planes it holds — bit for bit the same value.
pub trait Stepper {
    /// Advance `state` by one period of `spp` time steps, observing
    /// `cancel`, and return the relative change of the fields against
    /// the end of the previous period this stepper advanced —
    /// `f64::INFINITY` for its first, which has nothing to compare
    /// with. On a halt the fields are mid-update and must be discarded
    /// along with the returned error.
    fn period(
        &mut self,
        state: &mut State,
        spp: usize,
        cancel: &CancelToken,
    ) -> Result<f64, SolveError>;

    /// Called once after the last period, observing `cancel`: bring
    /// `state` up to date if the fields live elsewhere (a slab group
    /// gathers them here, once per job) and release what the stepper
    /// holds (remote workers, sockets). A local engine steps `state` in
    /// place and holds nothing.
    fn finish(self, _state: &mut State, _cancel: &CancelToken) -> Result<(), SolveError>
    where
        Self: Sized,
    {
        Ok(())
    }
}

/// The local [`Stepper`]: an [`Engine`], where the MWD executor's
/// phase spans go, and the snapshot of the previous period's fields.
pub struct EngineStepper<'a> {
    engine: &'a Engine,
    /// Span recorder for the MWD engines; a disabled one makes every
    /// instrumentation point a no-op.
    recorder: em_obs::Recorder,
    /// Ambient parent span id for executor spans (0 = root).
    trace_parent: u64,
    /// The fields at the end of the previous period, overwritten in
    /// place by the pass that reduces against them.
    snapshot: Option<FieldSet>,
    /// Reused `(num_z, den_z)` buffer of that pass.
    partials: Vec<(f64, f64)>,
}

impl<'a> EngineStepper<'a> {
    pub fn new(engine: &'a Engine, recorder: em_obs::Recorder, trace_parent: u64) -> Self {
        EngineStepper {
            engine,
            recorder,
            trace_parent,
            snapshot: None,
            partials: Vec::new(),
        }
    }

    pub fn untraced(engine: &'a Engine) -> Self {
        Self::new(engine, em_obs::Recorder::disabled(), 0)
    }

    /// Advance `state` by `n` time steps. The MWD engines check the
    /// token at every tile claim; the sequential engines check once per
    /// time step.
    pub fn step_n(
        &self,
        state: &mut State,
        n: usize,
        cancel: &CancelToken,
    ) -> Result<(), SolveError> {
        let mwd = |state: &mut State, cfg: &MwdConfig, boundary: MwdBoundary| {
            let run = MwdRun {
                boundary,
                recorder: self.recorder.clone(),
                trace_parent: self.trace_parent,
                cancel: cancel.clone(),
            };
            run.run(state, cfg, n).map(|_| ())
        };
        match self.engine {
            Engine::Naive => sweep_n(state, n, cancel, |s| {
                step_naive_with_boundary(s, Boundary::Dirichlet)
            }),
            Engine::NaivePeriodicXY => sweep_n(state, n, cancel, |s| {
                step_naive_with_boundary(s, Boundary::PeriodicXY)
            }),
            Engine::Spatial { cfg, threads } => {
                sweep_n(state, n, cancel, |s| step_spatial_mt(s, *cfg, *threads))
            }
            Engine::Mwd(cfg) => mwd(state, cfg, MwdBoundary::Dirichlet),
            Engine::MwdPeriodicX(cfg) => mwd(state, cfg, MwdBoundary::PeriodicX),
        }
    }
}

/// `n` whole-grid sweeps of a sequential engine, checking the token
/// once per time step.
fn sweep_n(
    state: &mut State,
    n: usize,
    cancel: &CancelToken,
    step: impl Fn(&mut State),
) -> Result<(), SolveError> {
    for _ in 0..n {
        if let Some(err) = cancel.halt_error() {
            return Err(err);
        }
        step(state);
    }
    Ok(())
}

impl Stepper for EngineStepper<'_> {
    fn period(
        &mut self,
        state: &mut State,
        spp: usize,
        cancel: &CancelToken,
    ) -> Result<f64, SolveError> {
        self.step_n(state, spp, cancel)?;
        let fields = &state.fields;
        let Some(snapshot) = &mut self.snapshot else {
            self.snapshot = Some(fields.clone());
            return Ok(f64::INFINITY);
        };
        self.partials.clear();
        norms::plane_changes(fields, snapshot, 0..fields.dims().nz, &mut self.partials);
        Ok(norms::combine_planes(self.partials.iter().copied()))
    }
}

/// The solver: state + physics parameters.
pub struct ThiimSolver {
    pub state: State,
    pub config: SolverConfig,
    pub omega: f64,
    pub tau: f64,
    /// Cells using the Eq. 5 back iteration.
    pub back_iteration_cells: usize,
    steps_done: usize,
}

impl ThiimSolver {
    pub fn new(config: SolverConfig) -> Self {
        let mut state = State::zeros(config.dims);
        let back = build_coefficients(&mut state, &config, false)
            .expect("a grid this host can hold fits u32 coefficient row offsets");
        ThiimSolver {
            state,
            omega: config.omega(),
            tau: config.tau(),
            back_iteration_cells: back,
            config,
            steps_done: 0,
        }
    }

    /// Time steps per optical period.
    pub fn steps_per_period(&self) -> usize {
        (std::f64::consts::TAU / (self.omega * self.tau)).round() as usize
    }

    pub fn steps_done(&self) -> usize {
        self.steps_done
    }

    /// Advance `n` time steps on the chosen engine.
    pub fn step_n(&mut self, engine: &Engine, n: usize) -> Result<(), SolveError> {
        EngineStepper::untraced(engine).step_n(&mut self.state, n, &CancelToken::none())?;
        self.steps_done += n;
        Ok(())
    }

    /// Iterate period by period until the relative field change per
    /// period drops below `tol`, or `max_periods` elapse.
    pub fn run_to_convergence(
        &mut self,
        engine: &Engine,
        tol: f64,
        max_periods: usize,
    ) -> Result<ConvergenceReport, SolveError> {
        let mut stepper = EngineStepper::untraced(engine);
        self.run_to_convergence_with(&mut stepper, tol, max_periods, &CancelToken::none())
    }

    /// The one convergence loop, over any [`Stepper`]. The token is
    /// checked before every period (and within the period by the
    /// stepper itself), so a cancelled or expired job halts within one
    /// solver period of the event — returning the token's halt instead
    /// of a report.
    pub fn run_to_convergence_with<S: Stepper + ?Sized>(
        &mut self,
        stepper: &mut S,
        tol: f64,
        max_periods: usize,
        cancel: &CancelToken,
    ) -> Result<ConvergenceReport, SolveError> {
        let spp = self.steps_per_period();
        let mut rel = f64::INFINITY;
        for period in 1..=max_periods {
            if let Some(err) = cancel.halt_error() {
                return Err(err);
            }
            rel = stepper.period(&mut self.state, spp, cancel)?;
            self.steps_done += spp;
            if rel < tol {
                return Ok(ConvergenceReport {
                    periods: period,
                    steps: self.steps_done,
                    rel_change: rel,
                    converged: true,
                });
            }
        }
        Ok(ConvergenceReport {
            periods: max_periods,
            steps: self.steps_done,
            rel_change: rel,
            converged: false,
        })
    }

    pub fn fields(&self) -> &FieldSet {
        &self.state.fields
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis;
    use crate::materials::Material;
    use em_field::Cplx;

    fn vacuum_wave_config(nz: usize, lambda: f64) -> SolverConfig {
        let dims = GridDims::new(4, 4, nz);
        let mut cfg = SolverConfig::new(dims, Scene::vacuum(), lambda, 550.0);
        cfg.pml = Some(PmlSpec::new(8));
        cfg.source = Some(SourceSpec::x_polarized(nz / 2, 1.0));
        cfg
    }

    #[test]
    fn steps_per_period_matches_omega_tau() {
        let s = ThiimSolver::new(vacuum_wave_config(32, 12.0));
        let spp = s.steps_per_period();
        let period = std::f64::consts::TAU / s.omega;
        assert!((spp as f64 * s.tau - period).abs() < s.tau);
    }

    #[test]
    fn expired_token_halts_before_stepping_with_timeout_error() {
        let mut s = ThiimSolver::new(vacuum_wave_config(32, 12.0));
        let token = CancelToken::with_deadline(std::time::Duration::from_millis(0));
        let mut stepper = EngineStepper::untraced(&Engine::NaivePeriodicXY);
        let err = s
            .run_to_convergence_with(&mut stepper, 1e-2, 50, &token)
            .unwrap_err();
        assert!(matches!(err, SolveError::Timeout(_)), "{err}");
        assert_eq!(s.steps_done(), 0, "expired token must not advance fields");
    }

    /// Trips its token on the way into the engine, so the engine — not
    /// the loop's own per-period check — is what has to notice.
    struct CancelOnEntry<'a>(EngineStepper<'a>);

    impl Stepper for CancelOnEntry<'_> {
        fn period(&mut self, s: &mut State, n: usize, c: &CancelToken) -> Result<f64, SolveError> {
            c.cancel();
            self.0.period(s, n, c)
        }
    }

    #[test]
    fn cancelled_token_halts_the_mwd_engine_with_cancelled_error() {
        let mut s = ThiimSolver::new(vacuum_wave_config(32, 12.0));
        let token = CancelToken::none();
        let cfg = MwdConfig {
            dw: 4,
            bz: 2,
            tg: mwd_core::TgShape { x: 1, z: 1, c: 3 },
            groups: 2,
        };
        let engine = Engine::Mwd(cfg);
        let mut stepper = CancelOnEntry(EngineStepper::untraced(&engine));
        let err = s
            .run_to_convergence_with(&mut stepper, 1e-2, 50, &token)
            .unwrap_err();
        assert!(matches!(err, SolveError::Cancelled(_)), "{err}");
        assert_eq!(s.steps_done(), 0, "a halted period is not counted");
    }

    /// A [`Stepper`] that touches no field: it records the `spp` of
    /// every crossing, reports the change of fields that never change
    /// (none to compare in its first period, zero after) and can cancel
    /// a token from inside a chosen call.
    #[derive(Default)]
    struct FakeStepper {
        calls: Vec<usize>,
        cancel_in_call: Option<(usize, CancelToken)>,
    }

    impl Stepper for FakeStepper {
        fn period(
            &mut self,
            _: &mut State,
            spp: usize,
            _: &CancelToken,
        ) -> Result<f64, SolveError> {
            self.calls.push(spp);
            if let Some((call, token)) = &self.cancel_in_call {
                if self.calls.len() == *call {
                    token.cancel();
                }
            }
            Ok(if self.calls.len() == 1 {
                f64::INFINITY
            } else {
                0.0
            })
        }
    }

    #[test]
    fn the_loop_cannot_converge_before_period_two() {
        // Unchanging fields have zero relative change, but period 1 has
        // nothing to compare against.
        let mut s = ThiimSolver::new(vacuum_wave_config(32, 12.0));
        let spp = s.steps_per_period();
        let mut fake = FakeStepper::default();
        let r = s
            .run_to_convergence_with(&mut fake, 1e-3, 50, &CancelToken::none())
            .unwrap();
        assert!(r.converged);
        assert_eq!((r.periods, r.rel_change), (2, 0.0));
        assert_eq!(fake.calls, vec![spp, spp], "one crossing per period");
        assert_eq!(r.steps, r.periods * spp);
        assert_eq!(s.steps_done(), r.steps);

        // The same through the real stepper, which owns the snapshot:
        // without a source the fields stay zero under any engine.
        let mut cfg = vacuum_wave_config(32, 12.0);
        cfg.source = None;
        let mut s = ThiimSolver::new(cfg);
        let r = s.run_to_convergence(&Engine::Naive, 1e-3, 50).unwrap();
        assert_eq!((r.converged, r.periods, r.rel_change), (true, 2, 0.0));
        let r = s.run_to_convergence(&Engine::Naive, 1e-3, 1).unwrap();
        assert_eq!((r.converged, r.rel_change), (false, f64::INFINITY));
    }

    #[test]
    fn a_token_cancelled_between_periods_stops_the_loop_without_another_step() {
        let mut s = ThiimSolver::new(vacuum_wave_config(32, 12.0));
        let token = CancelToken::none();
        let mut fake = FakeStepper {
            cancel_in_call: Some((2, token.clone())),
            ..Default::default()
        };
        let err = s
            .run_to_convergence_with(&mut fake, 0.0, 10, &token)
            .unwrap_err();
        assert!(matches!(err, SolveError::Cancelled(_)), "{err}");
        assert_eq!(fake.calls.len(), 2, "no period after the cancel");
    }

    #[test]
    fn vacuum_plane_wave_reaches_steady_state_with_correct_wavelength() {
        let lambda = 12.0;
        let nz = 64;
        let mut s = ThiimSolver::new(vacuum_wave_config(nz, lambda));
        // Weakly damped cavity modes make the last decade of convergence
        // slow; a 1% residual is far below the 5% wavelength tolerance
        // measured below.
        let r = s
            .run_to_convergence(&Engine::NaivePeriodicXY, 1e-2, 150)
            .expect("engine runs");
        assert!(r.converged, "no steady state: rel_change {}", r.rel_change);

        // Phase advance per cell in the travelling region below the
        // source: |arg(E(z+1)/E(z))| ~ 2 pi / lambda_numerical.
        let mut ks = vec![];
        for z in 14..24 {
            let a = analysis::ex_at_center(s.fields(), z);
            let b = analysis::ex_at_center(s.fields(), z + 1);
            assert!(a.abs() > 1e-9 && b.abs() > 1e-9, "wave must reach z={z}");
            let dphi = (b / a).arg().abs();
            ks.push(dphi);
        }
        let k_mean = ks.iter().sum::<f64>() / ks.len() as f64;
        let lambda_num = std::f64::consts::TAU / k_mean;
        assert!(
            (lambda_num - lambda).abs() / lambda < 0.05,
            "numerical wavelength {lambda_num} vs vacuum {lambda}"
        );
    }

    #[test]
    fn pml_yields_travelling_wave_not_standing_wave() {
        // Strong boundary reflections would imprint a standing-wave
        // pattern on |E|(z); with working PML the mid-region amplitude
        // ripple stays small.
        let mut s = ThiimSolver::new(vacuum_wave_config(64, 12.0));
        s.run_to_convergence(&Engine::NaivePeriodicXY, 5e-3, 60)
            .unwrap();
        let prof = analysis::intensity_profile_z(s.fields());
        let window = &prof[12..26]; // below the source, above the PML
        let max = window.iter().cloned().fold(0.0, f64::max);
        let min = window.iter().cloned().fold(f64::INFINITY, f64::min);
        // Intensity SWR (max/min) = ((1+R)/(1-R))^2; R=0.2 gives 2.25.
        assert!(
            max / min < 2.3,
            "standing-wave ratio too high: {max}/{min} = {}",
            max / min
        );
    }

    #[test]
    fn energy_flows_away_from_the_source() {
        let mut s = ThiimSolver::new(vacuum_wave_config(64, 12.0));
        s.run_to_convergence(&Engine::NaivePeriodicXY, 5e-3, 60)
            .unwrap();
        let below = analysis::poynting_z(s.fields(), 16);
        let above = analysis::poynting_z(s.fields(), 48);
        assert!(
            below < 0.0,
            "below the source flux must point to -z, got {below}"
        );
        assert!(
            above > 0.0,
            "above the source flux must point to +z, got {above}"
        );
    }

    #[test]
    fn back_iteration_keeps_silver_stable_where_forward_diverges() {
        let dims = GridDims::new(3, 3, 24);
        let mut scene = Scene::vacuum();
        let ag = scene.add_material(Material::silver());
        scene
            .layers
            .push(crate::geometry::Layer::flat(ag, 0.0, 8.0));
        let mut cfg = SolverConfig::new(dims, scene, 10.0, 550.0);
        cfg.pml = Some(PmlSpec::new(4));
        cfg.source = Some(SourceSpec::x_polarized(16, 1.0));

        // Stable path.
        let mut stable = ThiimSolver::new(cfg.clone());
        assert!(stable.back_iteration_cells > 0);
        stable.step_n(&Engine::NaivePeriodicXY, 200).unwrap();
        let e_stable = stable.state.fields.energy();
        assert!(
            e_stable.is_finite() && e_stable < 1e8,
            "stable energy {e_stable}"
        );

        // Forced forward iteration must blow up.
        let mut state = State::zeros(dims);
        build_coefficients(&mut state, &cfg, true).unwrap();
        for _ in 0..200 {
            em_kernels::boundary::step_naive_with_boundary(
                &mut state,
                em_kernels::boundary::Boundary::PeriodicXY,
            );
        }
        let e_fwd = state.fields.energy();
        assert!(
            !e_fwd.is_finite() || e_fwd > 1e3 * e_stable.max(1.0),
            "forward iteration should diverge: {e_fwd} vs {e_stable}"
        );
    }

    #[test]
    fn mwd_engine_is_bitwise_equal_to_naive_for_the_physics_state() {
        let dims = GridDims::new(4, 8, 16);
        let mut scene = Scene::vacuum();
        let g = scene.add_material(Material::glass());
        scene
            .layers
            .push(crate::geometry::Layer::flat(g, 4.0, 10.0));
        let mut cfg = SolverConfig::new(dims, scene, 8.0, 550.0);
        cfg.pml = Some(PmlSpec::new(3));
        cfg.source = Some(SourceSpec::x_polarized(12, 1.0));

        let mut a = ThiimSolver::new(cfg.clone());
        let mut b = ThiimSolver::new(cfg);
        // Seed both with identical nontrivial fields.
        a.state.fields.fill_deterministic(99);
        b.state.fields.fill_deterministic(99);
        a.step_n(&Engine::Naive, 6).unwrap();
        let mwd = MwdConfig {
            dw: 4,
            bz: 2,
            tg: mwd_core::TgShape { x: 1, z: 1, c: 3 },
            groups: 2,
        };
        b.step_n(&Engine::Mwd(mwd), 6).unwrap();
        assert!(
            a.fields().bit_eq(b.fields()),
            "MWD must reproduce naive bits on the physics problem: {:?}",
            norms::first_mismatch(a.fields(), b.fields())
        );
    }

    #[test]
    fn tandem_cell_absorbs_in_the_junctions() {
        let dims = GridDims::new(12, 12, 48);
        let scene = Scene::tandem_solar_cell(12, 12, 48);
        let mut cfg = SolverConfig::new(dims, scene.clone(), 10.0, 500.0);
        cfg.pml = Some(PmlSpec::new(6));
        cfg.source = Some(SourceSpec::x_polarized(42, 1.0));
        let mut s = ThiimSolver::new(cfg);
        assert!(
            s.back_iteration_cells > 0,
            "the Ag back contact needs Eq. 5"
        );
        s.step_n(&Engine::NaivePeriodicXY, 6 * s.steps_per_period())
            .unwrap();
        // Absorption in the silicon junctions (z in [0.20, 0.62)*48).
        let junctions = analysis::absorption_in_slab(s.fields(), &scene, 500.0, s.omega, 10, 30);
        assert!(junctions > 0.0, "junction absorption must be positive");
        // Vacuum region above the glass absorbs nothing.
        let vacuum_region =
            analysis::absorption_in_slab(s.fields(), &scene, 500.0, s.omega, 44, 48);
        assert_eq!(vacuum_region, 0.0);
    }

    #[test]
    fn periodic_x_mwd_engine_preserves_x_uniformity() {
        // With laterally uniform physics, the peeled periodic-x MWD
        // engine must keep the fields exactly x-uniform — no Dirichlet
        // edge artifacts along x.
        let dims = GridDims::new(6, 6, 32);
        let mut cfg = SolverConfig::new(dims, Scene::vacuum(), 8.0, 550.0);
        cfg.pml = Some(PmlSpec::new(6));
        cfg.source = Some(SourceSpec::x_polarized(24, 1.0));
        let mut s = ThiimSolver::new(cfg);
        let mwd = MwdConfig {
            dw: 4,
            bz: 2,
            tg: mwd_core::TgShape { x: 1, z: 1, c: 2 },
            groups: 2,
        };
        s.step_n(&Engine::MwdPeriodicX(mwd), 40).unwrap();
        assert!(s.state.fields.energy() > 0.0);
        for comp in em_field::Component::ALL {
            let arr = s.state.fields.comp(comp);
            for z in 0..dims.nz as isize {
                for y in 0..dims.ny as isize {
                    let v0 = arr.get(0, y, z);
                    for x in 1..dims.nx as isize {
                        let v = arr.get(x, y, z);
                        assert!(
                            (v - v0).abs() <= 1e-12 * (1.0 + v0.abs()),
                            "{comp} at ({x},{y},{z}) breaks x-uniformity"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn convergence_report_counts_steps() {
        let mut s = ThiimSolver::new(vacuum_wave_config(32, 8.0));
        let r = s.run_to_convergence(&Engine::Naive, 1e-30, 3).unwrap();
        assert!(!r.converged, "impossible tolerance can't converge");
        assert_eq!(r.periods, 3);
        assert_eq!(r.steps, 3 * s.steps_per_period());
        assert_eq!(s.steps_done(), r.steps);
        let _ = Cplx::ZERO;
    }
}
