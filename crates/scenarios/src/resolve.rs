//! The engine-resolution seam: everything between a declared engine
//! and a runnable one. `run_batch`, the job daemon's admission path and
//! `mwd tune` each make one call into [`EngineResolver`], which owns
//!
//! - **which kinds tune**: `auto` always, declared `mwd` /
//!   `mwd-periodic-x` engines when a batch names a cache file, every
//!   kind for `mwd tune`;
//! - **the key**: periodic-x engines under their own kind, everything
//!   else as plain `mwd`; `auto`'s declared thread count, or the job's
//!   share when it is 0; the host fingerprint under the machine model
//!   the search itself tunes with — a detected `MachineSpec` plugs in
//!   here and nowhere else;
//! - **the search options**: only `mwd tune` probes natively
//!   (`refine_top`) and retunes (`force`, once per key per resolver);
//!   every other miss is the model's rank 1, kept in memory;
//! - **the answer**: the resolved [`EngineDecl`] and its [`TuneRecord`].
//!
//! One writer: [`EngineResolver::save`] is called by `mwd tune` alone.
//! `run`, `batch` and `serve` read the cache file and never write it,
//! so they cannot clobber entries another process stored meanwhile.

use crate::spec::EngineDecl;
use autotune::{host_fingerprint, Ranked, ResolveOptions, TuneCache, TuneKey};
use em_field::GridDims;
use em_json::Json;
use std::collections::HashSet;
use std::path::Path;
use std::sync::{Mutex, MutexGuard, PoisonError};

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
    /// `auto` and the declared MWD family (a batch given `--cache`).
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
    /// Searched under this lock, so each key is searched once however
    /// many threads ask; the rest find the stored entry as a hit.
    cache: Mutex<TuneCache>,
    /// Key ids `force` has already retuned through this resolver.
    retuned: Mutex<HashSet<String>>,
}

/// The resolver's state only changes by whole-entry inserts, so a
/// panicking peer's poison flag carries nothing worth aborting for.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl EngineResolver {
    fn new(scope: Scope, cache: TuneCache, force: bool, refine_top: usize) -> Self {
        EngineResolver {
            scope,
            opts: ResolveOptions {
                refine_top,
                force,
                ..Default::default()
            },
            cache: Mutex::new(cache),
            retuned: Mutex::default(),
        }
    }

    /// For `run_batch`: `auto` engines always resolve, against an
    /// in-memory cache when there is no file; a cache file (`--cache`)
    /// extends that to declared MWD-family engines. The file is read,
    /// never written, and a miss is the model's rank 1.
    pub fn for_batch(cache: Option<&Path>) -> Result<Self, String> {
        Ok(match cache {
            Some(path) => Self::new(Scope::MwdFamily, TuneCache::load(path)?, false, 0),
            None => Self::new(Scope::Auto, TuneCache::in_memory(), false, 0),
        })
    }

    /// For the job daemon: `auto` only, model only, over the cache it
    /// loaded at bind; a miss runs on the admitting thread and stays in
    /// memory (native refinement is `mwd tune --refine`'s offline job).
    pub fn for_service(cache: TuneCache) -> Self {
        Self::new(Scope::Auto, cache, false, 0)
    }

    /// For `mwd tune`, the one writer of cache files: every kind
    /// resolves, so the cache holds the MWD configuration for each
    /// scenario's grid whatever its spec declares. Filling the cache is
    /// the command's whole job, so without `--refine` it probes the top
    /// 2 finalists of every miss.
    pub fn for_tune_command(cache: TuneCache, force: bool, refine_top: Option<usize>) -> Self {
        Self::new(Scope::Everything, cache, force, refine_top.unwrap_or(2))
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
            opts.force = lock(&self.retuned).insert(key.id());
        }
        let r = autotune::resolve(&mut lock(&self.cache), &key, &opts)?;
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
            Some(key) => !self.opts.force && lock(&self.cache).get(&key).is_some(),
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
        let cached = lock(&self.cache)
            .get(&key)
            .map(|e| (e.config.to_compact(), e.stage.as_str().to_string()));
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
        lock(&self.cache).len()
    }

    /// Persist new answers to a file-backed cache (`mwd tune` only).
    /// Returns whether a write happened.
    pub fn save(&self) -> Result<bool, String> {
        lock(&self.cache).save()
    }
}
