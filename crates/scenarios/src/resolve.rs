//! The engine-resolution seam: everything between a declared engine
//! and a runnable one. `run_batch`, the job daemon's admission path and
//! `mwd tune` each make one call into [`EngineResolver`], which owns
//!
//! - **which kinds tune**: `auto` always, declared `mwd` /
//!   `mwd-periodic-x` engines under `--tune`, every kind for `mwd tune`;
//! - **the key**: periodic-x engines under their own kind, everything
//!   else as plain `mwd`; `auto`'s declared thread count, or the job's
//!   share when it is 0; the host fingerprint under the machine model
//!   the search itself tunes with — a detected `MachineSpec` plugs in
//!   here and nowhere else;
//! - **the search options**: `force` retunes each distinct key once per
//!   resolver, `refine_top` native probes per miss (the daemon's
//!   admission is always model only), and a dry run never probes or
//!   persists;
//! - **the answer**: the resolved [`EngineDecl`] and its [`TuneRecord`].

use crate::spec::EngineDecl;
use autotune::{host_fingerprint, Ranked, ResolveOptions, SharedTuneCache, TuneKey};
use em_field::GridDims;
use em_json::Json;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

/// How a batch resolves tuned configurations.
#[derive(Clone, Debug, Default)]
pub struct TunePlan {
    /// Persistent cache file; `None` keeps the cache in memory for this
    /// batch only.
    pub cache_path: Option<PathBuf>,
    /// Retune even when the cache already has an answer.
    pub force: bool,
    /// Natively probe this many model-ranked finalists per miss
    /// (0 = model stage only).
    pub refine_top: usize,
}

/// How one job's configuration came out of the tuning cache.
#[derive(Clone, Debug, PartialEq)]
pub struct TuneRecord {
    /// Whether the cache already had the answer (no search ran).
    pub cache_hit: bool,
    /// Pipeline stage that produced the configuration
    /// (`model` / `native`).
    pub stage: String,
    /// Native probes spent resolving *this* job (0 on a hit).
    pub native_probes: usize,
    pub score_mlups: f64,
    /// The resolved configuration, in `MwdConfig::to_compact` form.
    pub config: String,
}

impl TuneRecord {
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("cache_hit", Json::Bool(self.cache_hit)),
            ("stage", Json::str(&self.stage)),
            ("native_probes", Json::Int(self.native_probes as i64)),
            ("score_mlups", Json::Num(self.score_mlups)),
            ("config", Json::str(&self.config)),
        ])
    }
}

/// Which declared engines resolve through the cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Scope {
    /// `auto` only.
    Auto,
    /// `auto` and the declared MWD family (`--tune`).
    MwdFamily,
    /// Every kind (`mwd tune`).
    Everything,
}

/// A declared engine after resolution.
#[derive(Clone, Debug, PartialEq)]
pub struct Resolved {
    /// What will run: the tuned declaration, or the declared one as is
    /// when tuning does not apply to it.
    pub decl: EngineDecl,
    /// Where the configuration came from, when tuning applied.
    pub tuned: Option<TuneRecord>,
}

/// What `mwd tune --dry-run` shows for one engine.
#[derive(Clone, Debug)]
pub struct TunePreview {
    /// Engine kind and thread count the answer is keyed under.
    pub kind: String,
    pub threads: usize,
    /// `(config, stage)` of the cached answer, if there is one.
    pub cached: Option<(String, String)>,
    /// The model ranking's first four finalists (what `--refine 4`
    /// would probe), best first.
    pub finalists: Vec<Ranked>,
}

/// Resolves declared engines through one tuning cache (see the module
/// docs). `Sync`: the blocking plane admits from concurrent handlers.
pub struct EngineResolver {
    scope: Scope,
    /// `force` here is the caller's wish; [`Self::resolve`] grants it
    /// once per key.
    opts: ResolveOptions,
    dry_run: bool,
    cache: SharedTuneCache,
    /// Key ids `force` has already retuned through this resolver.
    retuned: Mutex<HashSet<String>>,
}

impl EngineResolver {
    fn new(
        scope: Scope,
        cache: SharedTuneCache,
        force: bool,
        refine_top: usize,
        dry_run: bool,
    ) -> Self {
        EngineResolver {
            scope,
            opts: ResolveOptions {
                // A dry run plans "without stepping any solver", which
                // rules out wall-clock probes; the analytic model
                // stage still resolves the plan's configurations.
                refine_top: if dry_run { 0 } else { refine_top },
                force,
                ..Default::default()
            },
            dry_run,
            cache,
            retuned: Mutex::default(),
        }
    }

    /// For `run_batch`: `auto` engines always resolve — against an
    /// in-memory cache when there is no plan — and a plan (`--tune`)
    /// extends that to declared MWD-family engines.
    pub fn for_batch(plan: Option<&TunePlan>, dry_run: bool) -> Result<Self, String> {
        let scope = if plan.is_some() {
            Scope::MwdFamily
        } else {
            Scope::Auto
        };
        let plan = plan.cloned().unwrap_or_default();
        let cache = match &plan.cache_path {
            Some(path) => SharedTuneCache::load(path)?,
            None => SharedTuneCache::in_memory(),
        };
        Ok(Self::new(
            scope,
            cache,
            plan.force,
            plan.refine_top,
            dry_run,
        ))
    }

    /// For the job daemon: `auto` only, never forced, model only (a
    /// miss runs on the admitting thread; native refinement is `mwd
    /// tune --refine`'s offline job), over the process-wide cache the
    /// server also persists at shutdown.
    pub fn for_service(cache: SharedTuneCache) -> Self {
        Self::new(Scope::Auto, cache, false, 0, false)
    }

    /// For `mwd tune`: every kind resolves, so the cache holds the MWD
    /// configuration for each scenario's grid whatever its spec
    /// declares. Filling the cache is the command's whole job, so
    /// without `--refine` it probes the top 2 finalists of every miss
    /// (`run` and `batch` default to 0; `serve` never probes).
    pub fn for_tune_command(
        cache_path: &Path,
        force: bool,
        refine_top: Option<usize>,
        dry_run: bool,
    ) -> Result<Self, String> {
        Ok(Self::new(
            Scope::Everything,
            SharedTuneCache::load(cache_path)?,
            force,
            refine_top.unwrap_or(2),
            dry_run,
        ))
    }

    /// The cache engine kind `decl` tunes under, if it tunes at all.
    fn tuned_kind(&self, decl: EngineDecl) -> Option<&'static str> {
        let tunes = match decl {
            EngineDecl::Auto { .. } => true,
            EngineDecl::Mwd { .. } | EngineDecl::MwdPeriodicX { .. } => self.scope != Scope::Auto,
            _ => self.scope == Scope::Everything,
        };
        let periodic_x = matches!(decl, EngineDecl::MwdPeriodicX { .. });
        tunes.then_some(if periodic_x { "mwd-periodic-x" } else { "mwd" })
    }

    /// Whether `decl` resolves through the cache here (otherwise
    /// [`Self::resolve`] hands it back as declared).
    pub fn tunes(&self, decl: EngineDecl) -> bool {
        self.tuned_kind(decl).is_some()
    }

    /// The threads `decl` runs with once resolved, for a job whose
    /// thread-budget share is `share` — known without resolving, since
    /// tuned configurations are thread-exact: `auto`'s declared count,
    /// or the share for `auto` with 0 and every other tuned kind.
    pub fn threads(&self, decl: EngineDecl, share: usize) -> usize {
        match decl {
            _ if !self.tunes(decl) => decl.threads(),
            EngineDecl::Auto { threads } if threads > 0 => threads,
            _ => share,
        }
    }

    /// The key `decl` resolves under on `dims`.
    fn key(&self, decl: EngineDecl, dims: GridDims, share: usize) -> Option<TuneKey> {
        let kind = self.tuned_kind(decl)?;
        let threads = self.threads(decl, share);
        Some(TuneKey::for_host(&self.opts.machine, dims, kind, threads))
    }

    /// Resolve one declared engine for a job on `dims` whose
    /// thread-budget share is `share`.
    pub fn resolve(
        &self,
        decl: EngineDecl,
        dims: GridDims,
        share: usize,
    ) -> Result<Resolved, String> {
        let Some(key) = self.key(decl, dims, share) else {
            return Ok(Resolved { decl, tuned: None });
        };
        let mut opts = self.opts.clone();
        if opts.force {
            let mut retuned = self.retuned.lock().unwrap_or_else(PoisonError::into_inner);
            opts.force = retuned.insert(key.id());
        }
        let r = self.cache.resolve(&key, &opts)?;
        Ok(Resolved {
            decl: EngineDecl::mwd_family(&key.engine, r.config),
            tuned: Some(TuneRecord {
                cache_hit: r.cache_hit,
                stage: r.stage.as_str().to_string(),
                native_probes: r.native_probes,
                score_mlups: r.score_mlups,
                config: r.config.to_compact(),
            }),
        })
    }

    /// Whether [`Self::resolve`] would be a pure lookup — nothing to
    /// tune, or an answer already cached — rather than a search.
    pub fn is_lookup(&self, decl: EngineDecl, dims: GridDims, share: usize) -> bool {
        match self.key(decl, dims, share) {
            Some(key) => !self.opts.force && self.cache.with(|c| c.get(&key).is_some()),
            None => true,
        }
    }

    /// What resolving `decl` would consult and rank, without resolving
    /// it; `None` when it does not tune here.
    pub fn preview(
        &self,
        decl: EngineDecl,
        dims: GridDims,
        share: usize,
    ) -> Result<Option<TunePreview>, String> {
        let Some(key) = self.key(decl, dims, share) else {
            return Ok(None);
        };
        let cached = self.cache.with(|c| {
            c.get(&key)
                .map(|e| (e.config.to_compact(), e.stage.as_str().to_string()))
        });
        Ok(Some(TunePreview {
            finalists: autotune::finalists(&autotune::ranked(&key, &self.opts)?, 4),
            kind: key.engine,
            threads: key.threads,
            cached,
        }))
    }

    /// The host fingerprint under the machine model this resolver tunes
    /// with (the daemon folds it into every content key).
    pub fn fingerprint(&self) -> String {
        host_fingerprint(&self.opts.machine)
    }

    /// Answers the cache holds.
    pub fn cached_entries(&self) -> usize {
        self.cache.len()
    }

    /// Persist new answers to a file-backed cache; a dry run plans but
    /// never writes. Returns whether a write happened.
    pub fn save(&self) -> Result<bool, String> {
        if self.dry_run {
            return Ok(false);
        }
        self.cache.save()
    }
}
