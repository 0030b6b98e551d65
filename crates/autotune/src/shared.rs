//! A tuning-cache handle that many threads can resolve through at once:
//! one [`TuneCache`] behind one mutex.
//!
//! - **search under the lock**: [`SharedTuneCache::resolve`] is
//!   [`crate::resolve`] holding the cache lock, so each key is searched
//!   once however many threads ask; the rest find the stored entry as a
//!   hit. Resolvers of other keys wait out the search too, which costs
//!   milliseconds since the model is the whole search (0.33 s at the
//!   extreme `ny = 65536`). The event loop admits on one thread and
//!   `run_batch` and `mwd tune` resolve serially, so the blocking
//!   plane's handlers are the only concurrent callers.
//! - **single flush path**: [`SharedTuneCache::save`] is the one place
//!   the backing file is written, under the same lock as the entries.

use crate::cache::{resolve, Resolution, ResolveOptions, TuneCache, TuneKey};
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A cloneable, thread-safe handle to one [`TuneCache`].
#[derive(Clone)]
pub struct SharedTuneCache {
    cache: Arc<Mutex<TuneCache>>,
}

impl SharedTuneCache {
    /// Wrap an already-loaded cache.
    pub fn new(cache: TuneCache) -> SharedTuneCache {
        SharedTuneCache {
            cache: Arc::new(Mutex::new(cache)),
        }
    }

    /// The cache is only changed by whole-entry inserts, so a panicking
    /// peer's poison flag carries no information worth aborting for.
    fn lock(&self) -> MutexGuard<'_, TuneCache> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// An empty, unpersisted shared cache.
    pub fn in_memory() -> SharedTuneCache {
        SharedTuneCache::new(TuneCache::in_memory())
    }

    /// Load a file-backed shared cache (missing file = empty cache).
    pub fn load(path: &Path) -> Result<SharedTuneCache, String> {
        Ok(SharedTuneCache::new(TuneCache::load(path)?))
    }

    pub fn len(&self) -> usize {
        self.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Run `f` against the locked cache (for inspection; keep it short).
    pub fn with<R>(&self, f: impl FnOnce(&TuneCache) -> R) -> R {
        f(&self.lock())
    }

    /// Resolve a key under the cache lock: each distinct key is
    /// searched at most once no matter how many threads ask, and
    /// threads that arrive during the search observe a cache hit.
    pub fn resolve(&self, key: &TuneKey, opts: &ResolveOptions) -> Result<Resolution, String> {
        resolve(&mut self.lock(), key, opts)
    }

    /// Persist to the backing file if there is one and entries changed
    /// (the single flush path). Returns whether a write happened.
    pub fn save(&self) -> Result<bool, String> {
        self.lock().save()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::resolve;
    use em_field::GridDims;
    use perf_models::MachineSpec;
    use std::sync::atomic::{AtomicUsize, Ordering};

    const HSW: MachineSpec = MachineSpec::HASWELL_E5_2699_V3;

    fn key(dims: GridDims, threads: usize) -> TuneKey {
        TuneKey::for_host(&HSW, dims, "mwd", threads)
    }

    #[test]
    fn shared_miss_then_hit_matches_the_plain_cache() {
        let shared = SharedTuneCache::in_memory();
        let k = key(GridDims::cubic(16), 2);
        let first = shared.resolve(&k, &ResolveOptions::default()).unwrap();
        assert!(!first.cache_hit);
        let second = shared.resolve(&k, &ResolveOptions::default()).unwrap();
        assert!(second.cache_hit);
        assert_eq!(second.config, first.config);
        assert_eq!(shared.len(), 1);

        let mut plain = TuneCache::in_memory();
        let reference = resolve(&mut plain, &k, &ResolveOptions::default()).unwrap();
        assert_eq!(reference.config, first.config, "same staged pipeline");
    }

    #[test]
    fn concurrent_resolvers_of_one_key_pay_exactly_one_search() {
        // The satellite stress test: many threads, one key, native
        // refinement enabled — the probe must be paid exactly once.
        let shared = SharedTuneCache::in_memory();
        let k = key(GridDims::cubic(8), 2);
        let opts = ResolveOptions {
            refine_top: 1,
            ..Default::default()
        };
        let misses = AtomicUsize::new(0);
        let probes = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let r = shared.resolve(&k, &opts).unwrap();
                    if !r.cache_hit {
                        misses.fetch_add(1, Ordering::SeqCst);
                    }
                    probes.fetch_add(r.native_probes, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(misses.load(Ordering::SeqCst), 1, "one thread searches");
        assert_eq!(probes.load(Ordering::SeqCst), 1, "one native probe paid");
        assert_eq!(shared.len(), 1);
    }

    #[test]
    fn distinct_keys_resolve_concurrently_without_interference() {
        let shared = SharedTuneCache::in_memory();
        let keys: Vec<TuneKey> = (0..4)
            .map(|i| key(GridDims::cubic(8 + 4 * i), 1 + (i % 2)))
            .collect();
        std::thread::scope(|scope| {
            for k in &keys {
                let shared = shared.clone();
                scope.spawn(move || {
                    let r = shared.resolve(k, &ResolveOptions::default()).unwrap();
                    assert!(!r.cache_hit);
                });
            }
        });
        assert_eq!(shared.len(), keys.len());
        for k in &keys {
            assert!(
                shared
                    .resolve(k, &ResolveOptions::default())
                    .unwrap()
                    .cache_hit
            );
        }
    }

    #[test]
    fn shared_save_is_the_single_flush_path() {
        let dir = std::env::temp_dir().join(format!("shared_tune_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("tune_cache.json");
        let shared = SharedTuneCache::load(&path).unwrap();
        shared
            .resolve(&key(GridDims::cubic(16), 1), &ResolveOptions::default())
            .unwrap();
        assert!(shared.save().unwrap(), "dirty cache writes");
        assert!(!shared.save().unwrap(), "clean cache does not rewrite");
        let reloaded = SharedTuneCache::load(&path).unwrap();
        assert_eq!(reloaded.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
