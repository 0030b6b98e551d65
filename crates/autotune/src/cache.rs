//! The persistent, per-host tuning cache and the staged resolver.
//!
//! The paper's auto-tuner is only worth its cost if each `(machine,
//! grid, thread budget)` point is paid for once. This module makes the
//! search a cached subsystem: [`resolve`] answers "which [`MwdConfig`]
//! should this job run?" by staged lookup —
//!
//! 1. **cache hit**: a previous answer for the same [`TuneKey`]
//!    (host fingerprint, grid, engine kind, thread count) is returned
//!    as-is, with no model or native work;
//! 2. **model-pruned search**: the tuner's one candidate policy
//!    ([`survivors`]: Eq. 11 window) and one model ranking ([`rank`]:
//!    traffic, tile concurrency and group efficiency through one
//!    roofline, [`score`](crate::score)); rank 1 is the answer;
//! 3. **optional native refinement**: the first ranked candidates that
//!    differ in `(dw, groups, tg.size())` ([`finalists`]) are probed
//!    with wall-clock [`NativeEvaluator`] runs on a proxy grid;
//! 4. **store**: the winner is recorded and, for a file-backed cache,
//!    persisted as JSON next to the other result artifacts.
//!
//! The model stage is deterministic, so two misses on the same key pick
//! the same winner; the native stage trades that for measured truth,
//! which is exactly what the cache then pins down. Step 4 happens only
//! when the caller saves: `mwd tune` is the one command that does.

use crate::fingerprint::{host_fingerprint, is_current_revision};
use crate::space::SearchSpace;
use crate::tuner::{finalists, rank, survivors, ModelEvaluator, NativeEvaluator, Ranked};
use em_field::GridDims;
use em_json::Json;
use mwd_core::MwdConfig;
use perf_models::MachineSpec;
use std::path::{Path, PathBuf};

/// Which stage of the pipeline produced a cached configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Closed-form model ranking.
    Model,
    /// Wall-clock native probes of the model's finalists.
    Native,
}

impl Stage {
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Model => "model",
            Stage::Native => "native",
        }
    }

    pub fn parse(s: &str) -> Result<Stage, String> {
        match s {
            "model" => Ok(Stage::Model),
            "native" => Ok(Stage::Native),
            other => Err(format!("unknown tuning stage `{other}`")),
        }
    }
}

/// What a tuning answer is keyed by. Two jobs with equal keys are
/// interchangeable as far as the tuner is concerned.
#[derive(Clone, Debug, PartialEq)]
pub struct TuneKey {
    /// Host fingerprint: threads + active ISA + machine model
    /// (see [`host_fingerprint`]).
    pub fingerprint: String,
    pub dims: GridDims,
    /// Engine kind the configuration is for (`mwd` / `mwd-periodic-x`).
    pub engine: String,
    /// Total threads the configuration must occupy (the job's
    /// thread-budget slice).
    pub threads: usize,
}

impl TuneKey {
    /// The key for this host running `machine` as its model.
    pub fn for_host(
        machine: &MachineSpec,
        dims: GridDims,
        engine: &str,
        threads: usize,
    ) -> TuneKey {
        TuneKey {
            fingerprint: host_fingerprint(machine),
            dims,
            engine: engine.to_string(),
            threads,
        }
    }

    /// Canonical identity string (also the de-duplication key on disk).
    pub fn id(&self) -> String {
        key_id(
            &self.fingerprint,
            &format!("{}", self.dims),
            &self.engine,
            self.threads,
        )
    }
}

/// The one place the identity encoding lives: [`TuneKey::id`] and the
/// stored entries' keys must never drift apart.
fn key_id(fingerprint: &str, dims: &str, engine: &str, threads: usize) -> String {
    format!("{fingerprint}|{dims}|{engine}|t{threads}")
}

/// One stored tuning answer.
#[derive(Clone, Debug, PartialEq)]
pub struct TuneEntry {
    pub fingerprint: String,
    /// `NXxNYxNZ`, matching [`GridDims`]'s `Display`.
    pub dims: String,
    pub engine: String,
    pub threads: usize,
    pub config: MwdConfig,
    pub score_mlups: f64,
    pub stage: Stage,
    /// Native probes spent producing this entry (0 for `model`).
    pub native_probes: usize,
}

impl TuneEntry {
    fn key_id(&self) -> String {
        key_id(&self.fingerprint, &self.dims, &self.engine, self.threads)
    }

    /// This entry as an answer: served from the cache (no probes were
    /// spent by the asker) or freshly searched.
    pub(crate) fn resolution(&self, cache_hit: bool) -> Resolution {
        Resolution {
            config: self.config,
            score_mlups: self.score_mlups,
            stage: self.stage,
            cache_hit,
            native_probes: if cache_hit { 0 } else { self.native_probes },
        }
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("fingerprint".to_string(), Json::str(&self.fingerprint)),
            ("dims".to_string(), Json::str(&self.dims)),
            ("engine".to_string(), Json::str(&self.engine)),
            ("threads".to_string(), Json::Num(self.threads as f64)),
            ("config".to_string(), Json::str(self.config.to_compact())),
            ("score_mlups".to_string(), Json::Num(self.score_mlups)),
            ("stage".to_string(), Json::str(self.stage.as_str())),
            (
                "native_probes".to_string(),
                Json::Num(self.native_probes as f64),
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<TuneEntry, String> {
        let str_field = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("entry is missing string field `{key}`"))
        };
        let num_field = |key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("entry is missing numeric field `{key}`"))
        };
        // A count is a non-negative integer, never a coerced float.
        let count_field = |key: &str| -> Result<usize, String> {
            let n = num_field(key)?;
            v.get(key)
                .and_then(Json::as_i64)
                .and_then(|i| usize::try_from(i).ok())
                .ok_or_else(|| format!("field `{key}` is {n}, not a non-negative integer"))
        };
        Ok(TuneEntry {
            fingerprint: str_field("fingerprint")?,
            dims: str_field("dims")?,
            engine: str_field("engine")?,
            threads: count_field("threads")?,
            config: MwdConfig::from_compact(&str_field("config")?)?,
            score_mlups: num_field("score_mlups")?,
            stage: Stage::parse(&str_field("stage")?)?,
            native_probes: count_field("native_probes")?,
        })
    }
}

const CACHE_VERSION: f64 = 1.0;

/// The tuning cache: an ordered set of [`TuneEntry`]s, optionally backed
/// by a JSON file. In-memory caches (no path) give `engine = "auto"`
/// resolution without touching the filesystem.
#[derive(Clone, Debug)]
pub struct TuneCache {
    path: Option<PathBuf>,
    entries: Vec<TuneEntry>,
    dirty: bool,
}

/// The conventional on-disk location, next to the other result
/// artifacts.
pub fn default_cache_path() -> PathBuf {
    PathBuf::from("results").join("tune_cache.json")
}

impl TuneCache {
    /// An empty, unpersisted cache.
    pub fn in_memory() -> TuneCache {
        TuneCache {
            path: None,
            entries: Vec::new(),
            dirty: false,
        }
    }

    /// Load a file-backed cache; a missing file is an empty cache (first
    /// run), a malformed one is an error naming the path. Entries
    /// written under another model revision are dropped unread (they can
    /// never hit again, and their other fields may no longer parse), and
    /// the next [`save`](Self::save) rewrites the file without them.
    pub fn load(path: &Path) -> Result<TuneCache, String> {
        let mut cache = TuneCache {
            path: Some(path.to_path_buf()),
            entries: Vec::new(),
            dirty: false,
        };
        if !path.exists() {
            return Ok(cache);
        }
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read tuning cache {}: {e}", path.display()))?;
        let doc =
            em_json::parse(&text).map_err(|e| format!("tuning cache {}: {e}", path.display()))?;
        let version = doc.get("version").and_then(Json::as_f64).unwrap_or(0.0);
        if version != CACHE_VERSION {
            return Err(format!(
                "tuning cache {}: unsupported version {version} (expected {CACHE_VERSION})",
                path.display()
            ));
        }
        let entries = doc
            .get("entries")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("tuning cache {}: missing `entries` array", path.display()))?;
        for (i, e) in entries.iter().enumerate() {
            let stale = e
                .get("fingerprint")
                .and_then(Json::as_str)
                .is_some_and(|fp| !is_current_revision(fp));
            if stale {
                cache.dirty = true;
                continue;
            }
            let entry = TuneEntry::from_json(e)
                .map_err(|e| format!("tuning cache {} entry #{i}: {e}", path.display()))?;
            cache.entries.push(entry);
        }
        Ok(cache)
    }

    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    pub fn entries(&self) -> &[TuneEntry] {
        &self.entries
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn get(&self, key: &TuneKey) -> Option<&TuneEntry> {
        let id = key.id();
        self.entries.iter().find(|e| e.key_id() == id)
    }

    /// Insert or replace the entry for its key.
    pub fn put(&mut self, entry: TuneEntry) {
        let id = entry.key_id();
        match self.entries.iter_mut().find(|e| e.key_id() == id) {
            Some(slot) => {
                if *slot == entry {
                    return;
                }
                *slot = entry;
            }
            None => self.entries.push(entry),
        }
        self.dirty = true;
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("version".to_string(), Json::Num(CACHE_VERSION)),
            (
                "entries".to_string(),
                Json::Arr(self.entries.iter().map(TuneEntry::to_json).collect()),
            ),
        ])
    }

    /// Persist to the backing file if there is one and entries changed.
    /// Returns whether a write happened.
    pub fn save(&mut self) -> Result<bool, String> {
        let Some(path) = &self.path else {
            return Ok(false);
        };
        if !self.dirty {
            return Ok(false);
        }
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
            }
        }
        // Write-then-rename so a crash mid-write (or a concurrent
        // reader) never sees a torn file — `load` hard-errors on
        // malformed JSON, so a torn write would otherwise wedge every
        // later tuned run until the file is deleted by hand.
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        std::fs::write(&tmp, self.to_json().pretty())
            .map_err(|e| format!("cannot write tuning cache {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, path).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            format!("cannot move tuning cache into {}: {e}", path.display())
        })?;
        self.dirty = false;
        Ok(true)
    }
}

/// Knobs for [`resolve`]'s miss path.
#[derive(Clone, Debug)]
pub struct ResolveOptions {
    /// The modeled machine driving pruning and the model's scores.
    pub machine: MachineSpec,
    /// Natively probe at most this many model-ranked finalists
    /// (0 disables the native stage).
    pub refine_top: usize,
    /// Retune even on a cache hit.
    pub force: bool,
}

impl Default for ResolveOptions {
    fn default() -> Self {
        ResolveOptions {
            machine: MachineSpec::HASWELL_E5_2699_V3,
            refine_top: 0,
            force: false,
        }
    }
}

/// What [`resolve`] hands back: the configuration to run plus where it
/// came from.
#[derive(Clone, Debug, PartialEq)]
pub struct Resolution {
    pub config: MwdConfig,
    pub score_mlups: f64,
    pub stage: Stage,
    pub cache_hit: bool,
    /// Native probes spent by *this* resolution (0 on a hit).
    pub native_probes: usize,
}

/// Resolve a key through the staged pipeline, consulting and updating
/// `cache` (the caller persists file-backed caches via
/// [`TuneCache::save`]).
pub fn resolve(
    cache: &mut TuneCache,
    key: &TuneKey,
    opts: &ResolveOptions,
) -> Result<Resolution, String> {
    if let Some(entry) = cache.get(key).filter(|_| !opts.force) {
        return Ok(entry.resolution(true));
    }
    let entry = miss_entry(key, opts)?;
    let resolution = entry.resolution(false);
    cache.put(entry);
    Ok(resolution)
}

/// The deterministic part of a miss: the default space for the key's
/// thread count under the tuner's one candidate policy ([`survivors`])
/// and its one model ranking ([`rank`]), best first.
pub fn ranked(key: &TuneKey, opts: &ResolveOptions) -> Result<Vec<Ranked>, String> {
    let dims = key.dims;
    let threads = key.threads.max(1);
    let cands = SearchSpace::default_for(threads).candidates(dims, threads);
    if cands.is_empty() {
        return Err(format!(
            "no valid MWD candidate for {dims} at {threads} thread(s)"
        ));
    }
    let mut model = ModelEvaluator::new(opts.machine, dims, threads);
    Ok(rank(&mut model, survivors(cands, dims, &opts.machine)))
}

/// Steps per native probe.
const PROBE_STEPS: usize = 4;

/// The one miss body: [`ranked`], then optional native refinement, and
/// the entry to store under `key`.
fn miss_entry(key: &TuneKey, opts: &ResolveOptions) -> Result<TuneEntry, String> {
    let dims = key.dims;
    let ranked = ranked(key, opts)?;
    let (mut config, mut score_mlups) = (ranked[0].config, ranked[0].score_mlups);
    let mut stage = Stage::Model;

    // Stage: native refinement of the finalists on a proxy grid. The
    // proxy's shorter y extent admits fewer concurrent diamonds than
    // the real grid, so each measurement is carried over by the ratio of
    // the two list-scheduled speed-ups.
    let mut native_probes = 0;
    if opts.refine_top > 0 {
        let proxy = GridDims {
            nx: dims.nx,
            ny: dims.ny.clamp(1, 24),
            nz: dims.nz.clamp(1, 24),
        };
        let mut native = NativeEvaluator::new(proxy, PROBE_STEPS);
        let mut proxy_model = ModelEvaluator::new(opts.machine, proxy, key.threads);
        let mut measured: Option<(MwdConfig, f64)> = None;
        for f in finalists(&ranked, opts.refine_top) {
            let cand = &f.config;
            let s = native.probe(cand) * f.factors.concurrency / proxy_model.concurrency(cand);
            native_probes += 1;
            if s > 0.0 && measured.as_ref().is_none_or(|(_, ms)| s > *ms) {
                measured = Some((*cand, s));
            }
        }
        if let Some((cand, s)) = measured {
            (config, score_mlups, stage) = (cand, s, Stage::Native);
        }
    }
    Ok(TuneEntry {
        fingerprint: key.fingerprint.clone(),
        dims: format!("{dims}"),
        engine: key.engine.clone(),
        threads: key.threads,
        config,
        score_mlups,
        stage,
        native_probes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const HSW: MachineSpec = MachineSpec::HASWELL_E5_2699_V3;

    fn key(dims: GridDims, threads: usize) -> TuneKey {
        TuneKey::for_host(&HSW, dims, "mwd", threads)
    }

    #[test]
    fn miss_then_hit_returns_the_same_config_without_work() {
        let mut cache = TuneCache::in_memory();
        let k = key(GridDims::cubic(32), 2);
        let first = resolve(&mut cache, &k, &ResolveOptions::default()).unwrap();
        assert!(!first.cache_hit);
        assert!(first.config.validate(k.dims).is_ok());
        assert_eq!(first.config.threads(), 2);
        let second = resolve(&mut cache, &k, &ResolveOptions::default()).unwrap();
        assert!(second.cache_hit);
        assert_eq!(second.native_probes, 0);
        assert_eq!(second.config, first.config);
        assert_eq!(second.score_mlups, first.score_mlups);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_keys_get_distinct_entries() {
        let mut cache = TuneCache::in_memory();
        let o = ResolveOptions::default();
        resolve(&mut cache, &key(GridDims::cubic(32), 2), &o).unwrap();
        resolve(&mut cache, &key(GridDims::cubic(32), 1), &o).unwrap();
        resolve(&mut cache, &key(GridDims::new(16, 16, 48), 2), &o).unwrap();
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn force_retunes_but_stays_deterministic() {
        let mut cache = TuneCache::in_memory();
        let k = key(GridDims::cubic(32), 2);
        let first = resolve(&mut cache, &k, &ResolveOptions::default()).unwrap();
        let forced = resolve(
            &mut cache,
            &k,
            &ResolveOptions {
                force: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!forced.cache_hit);
        assert_eq!(
            forced.config, first.config,
            "the model stage is deterministic"
        );
        assert_eq!(forced.score_mlups, first.score_mlups);
    }

    #[test]
    fn cache_roundtrips_through_disk() {
        let dir = std::env::temp_dir().join(format!("autotune_cache_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("tune_cache.json");

        let mut cache = TuneCache::load(&path).unwrap();
        assert!(cache.is_empty(), "missing file loads empty");
        let k = key(GridDims::cubic(32), 2);
        let first = resolve(&mut cache, &k, &ResolveOptions::default()).unwrap();
        assert!(cache.save().unwrap(), "dirty cache writes");
        assert!(!cache.save().unwrap(), "clean cache does not rewrite");

        let mut reloaded = TuneCache::load(&path).unwrap();
        assert_eq!(reloaded.entries(), cache.entries());
        let hit = resolve(&mut reloaded, &k, &ResolveOptions::default()).unwrap();
        assert!(hit.cache_hit);
        assert_eq!(hit.config, first.config);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entries_of_an_older_model_revision_miss_and_are_overwritten() {
        let dir = std::env::temp_dir().join(format!("autotune_cache_rev_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("tune_cache.json");
        let k = key(GridDims::new(16, 16, 24), 2);
        // What the traffic-only scoring stored for this key, under the
        // fingerprint format that carried no model revision.
        let revision = format!("-m{}-", crate::fingerprint::MODEL_REVISION);
        let stale_config = MwdConfig::one_wd(32, 1, 2);
        let mut stale = TuneCache {
            path: Some(path.clone()),
            entries: vec![TuneEntry {
                fingerprint: k.fingerprint.replacen(&revision, "-", 1),
                dims: format!("{}", k.dims),
                engine: k.engine.clone(),
                threads: k.threads,
                config: stale_config,
                score_mlups: 18.8,
                stage: Stage::Model,
                native_probes: 0,
            }],
            dirty: true,
        };
        assert!(stale.save().unwrap());
        assert_stale_file_misses_and_is_overwritten(&path, &k, stale_config);

        // A revision-2 file as it sits on disk: its stage no longer
        // parses, and must not have to.
        let m2 = k.fingerprint.replacen(&revision, "-m2-", 1);
        let body = format!(
            r#"{{"version": 1, "entries": [{{"fingerprint": "{m2}", "dims": "{}",
            "engine": "mwd", "threads": 2, "config": "{}", "score_mlups": 18.8,
            "stage": "sim", "native_probes": 0}}]}}"#,
            k.dims,
            stale_config.to_compact()
        );
        std::fs::write(&path, &body).unwrap();
        assert_stale_file_misses_and_is_overwritten(&path, &k, stale_config);

        // The same entry under the current revision is a typed error
        // naming the path, not a silent drop.
        std::fs::write(&path, body.replace(&m2, &k.fingerprint)).unwrap();
        let err = TuneCache::load(&path).unwrap_err();
        assert!(err.contains("tune_cache.json entry #0"), "{err}");
        assert!(err.contains("unknown tuning stage `sim`"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn assert_stale_file_misses_and_is_overwritten(path: &Path, k: &TuneKey, stale: MwdConfig) {
        let mut cache = TuneCache::load(path).unwrap();
        assert!(cache.is_empty() && cache.dirty, "loads empty and dirty");
        let first = resolve(&mut cache, k, &ResolveOptions::default()).unwrap();
        assert!(!first.cache_hit, "a stale entry must not be served");
        assert_ne!(first.config, stale);
        assert!(cache.save().unwrap());

        let mut reloaded = TuneCache::load(path).unwrap();
        assert_eq!(reloaded.len(), 1, "the stale entry is gone from the file");
        let hit = resolve(&mut reloaded, k, &ResolveOptions::default()).unwrap();
        assert!(hit.cache_hit);
        assert_eq!(hit.config, first.config);
        assert!(!reloaded.save().unwrap(), "a pure hit rewrites nothing");
    }

    #[test]
    fn malformed_cache_files_error_with_the_path() {
        let dir = std::env::temp_dir().join(format!("autotune_cache_bad_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tune_cache.json");
        std::fs::write(&path, "{\"version\": 99, \"entries\": []}\n").unwrap();
        let err = TuneCache::load(&path).unwrap_err();
        assert!(err.contains("version 99"), "{err}");
        std::fs::write(&path, "not json").unwrap();
        assert!(TuneCache::load(&path).is_err());
        // Counts that a float cast would coerce to 0, 2 or usize::MAX.
        let k = key(GridDims::new(16, 16, 24), 2);
        for field in ["threads", "native_probes"] {
            for bad in ["-1", "2.5", "1e30"] {
                let entry = TuneEntry {
                    fingerprint: k.fingerprint.clone(),
                    dims: format!("{}", k.dims),
                    engine: k.engine.clone(),
                    threads: 2,
                    config: MwdConfig::one_wd(8, 1, 2),
                    score_mlups: 1.0,
                    stage: Stage::Model,
                    native_probes: 0,
                };
                let Json::Obj(mut pairs) = entry.to_json() else {
                    unreachable!()
                };
                pairs.iter_mut().find(|(k, _)| k == field).unwrap().1 =
                    em_json::parse(bad).unwrap();
                let doc = format!(
                    r#"{{"version": 1, "entries": [{}]}}"#,
                    Json::Obj(pairs).compact()
                );
                std::fs::write(&path, doc).unwrap();
                let err = TuneCache::load(&path).unwrap_err();
                assert!(err.contains("tune_cache.json entry #0"), "{err}");
                assert!(err.contains(&format!("field `{field}`")), "{err}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn native_refinement_probes_and_still_caches() {
        let mut cache = TuneCache::in_memory();
        let k = key(GridDims::new(8, 12, 12), 2);
        let opts = ResolveOptions {
            refine_top: 2,
            ..Default::default()
        };
        let r = resolve(&mut cache, &k, &opts).unwrap();
        assert!(!r.cache_hit);
        assert_eq!(r.native_probes, 2);
        assert_eq!(r.stage, Stage::Native);
        assert!(r.config.validate(k.dims).is_ok());
        // Second resolution is a pure hit: zero native probes.
        let hit = resolve(&mut cache, &k, &opts).unwrap();
        assert!(hit.cache_hit);
        assert_eq!(hit.native_probes, 0);
        assert_eq!(hit.config, r.config);
    }

    #[test]
    fn entry_json_roundtrips() {
        let entry = TuneEntry {
            fingerprint: "2t-avx2-test".to_string(),
            dims: "24x24x72".to_string(),
            engine: "mwd-periodic-x".to_string(),
            threads: 4,
            config: MwdConfig::one_wd(8, 2, 4),
            score_mlups: 123.5,
            stage: Stage::Native,
            native_probes: 3,
        };
        let back = TuneEntry::from_json(&entry.to_json()).unwrap();
        assert_eq!(back, entry);
    }
}
