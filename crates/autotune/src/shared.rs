//! A tuning-cache handle that many threads can resolve through at once.
//!
//! The batch runner resolves engines serially before any work starts, so
//! a plain `&mut TuneCache` is enough there. The job service admits
//! requests from concurrent connection handlers, and each admission may
//! need an `engine = "auto"` resolution — without coordination, N
//! simultaneous requests for the same key would pay the model search
//! (and any native probes) N times over.
//!
//! [`SharedTuneCache`] fixes both problems:
//!
//! - **interior locking**: the cache itself sits behind one mutex, so
//!   lookups and stores are race-free from any number of threads;
//! - **per-key single flight**: a miss claims its key in an in-flight
//!   set before searching; concurrent resolvers of the *same* key block
//!   on a condvar and are served the freshly stored entry as a cache
//!   hit, so the search (and every native probe) is paid exactly once.
//!   Resolvers of *different* keys never wait on each other's searches —
//!   the cache lock is released while a miss computes.
//! - **single flush path**: [`SharedTuneCache::save`] is the one place
//!   the backing file is written, under the same lock as the entries.

use crate::cache::{miss_entry, Resolution, ResolveOptions, TuneCache, TuneKey};
use std::collections::HashSet;
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

struct Inner {
    cache: Mutex<TuneCache>,
    /// Key ids currently being searched by some thread.
    inflight: Mutex<HashSet<String>>,
    /// Signalled whenever a search finishes (successfully or not).
    done: Condvar,
}

/// A cloneable, thread-safe handle to one [`TuneCache`].
#[derive(Clone)]
pub struct SharedTuneCache {
    inner: Arc<Inner>,
}

/// The payload is always left consistent (plain inserts/removes), so a
/// panicking peer's poison flag carries no information worth aborting
/// for.
fn relock<'a, T>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(PoisonError::into_inner)
}

impl SharedTuneCache {
    /// Wrap an already-loaded cache.
    pub fn new(cache: TuneCache) -> SharedTuneCache {
        SharedTuneCache {
            inner: Arc::new(Inner {
                cache: Mutex::new(cache),
                inflight: Mutex::new(HashSet::new()),
                done: Condvar::new(),
            }),
        }
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
        relock(self.inner.cache.lock()).len()
    }

    pub fn is_empty(&self) -> bool {
        relock(self.inner.cache.lock()).is_empty()
    }

    /// Run `f` against the locked cache (for inspection; keep it short).
    pub fn with<R>(&self, f: impl FnOnce(&TuneCache) -> R) -> R {
        f(&relock(self.inner.cache.lock()))
    }

    /// Resolve a key, paying each distinct key's search at most once no
    /// matter how many threads ask concurrently. Threads that arrive
    /// while the search runs block and then observe a cache hit.
    pub fn resolve(&self, key: &TuneKey, opts: &ResolveOptions) -> Result<Resolution, String> {
        let id = key.id();
        loop {
            let hit = relock(self.inner.cache.lock()).hit(key, opts);
            if let Some(hit) = hit {
                return Ok(hit);
            }
            let mut inflight = relock(self.inner.inflight.lock());
            if !inflight.contains(&id) {
                inflight.insert(id.clone());
                break;
            }
            // Another thread is searching this key: wait for it, then
            // re-check the cache (or reclaim the key if it failed).
            let _unused = relock(self.inner.done.wait(inflight));
        }

        // Search without holding either lock, so other keys resolve
        // concurrently.
        let result = miss_entry(key, opts).map(|entry| {
            let resolution = entry.resolution(false);
            relock(self.inner.cache.lock()).put(entry);
            resolution
        });
        relock(self.inner.inflight.lock()).remove(&id);
        self.inner.done.notify_all();
        result
    }

    /// Persist to the backing file if there is one and entries changed
    /// (the single flush path). Returns whether a write happened.
    pub fn save(&self) -> Result<bool, String> {
        relock(self.inner.cache.lock()).save()
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
