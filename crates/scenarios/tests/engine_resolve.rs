//! The engine-resolution seam, case by case — in particular the cases
//! its three former copies (`run_batch`, the scheduler, `mwd tune`) had
//! drifted apart on, and the one-cache-behind-one-lock contract the
//! daemon's concurrent admissions rely on.

use autotune::{ResolveOptions, TuneCache, TuneKey};
use em_field::GridDims;
use em_scenarios::{EngineDecl, EngineResolver};
use mwd_core::MwdConfig;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

const DIMS: GridDims = GridDims {
    nx: 8,
    ny: 12,
    nz: 12,
};

const AUTO: EngineDecl = EngineDecl::Auto { threads: 0 };

fn declared_mwd(threads: usize) -> EngineDecl {
    EngineDecl::auto("mwd", threads).unwrap()
}

/// A fresh scratch directory for one test.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("engine_resolve_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `mwd tune`'s resolver over an in-memory cache.
fn tune_command(force: bool, refine_top: usize) -> EngineResolver {
    EngineResolver::for_tune_command(TuneCache::in_memory(), force, Some(refine_top))
}

#[test]
fn only_the_tune_command_probes() {
    let path = temp_dir("probes").join("tune_cache.json");
    let batch = EngineResolver::for_batch(Some(&path)).unwrap();
    let t = batch.resolve(AUTO, DIMS, 2).unwrap().tuned.unwrap();
    assert_eq!((t.native_probes, t.stage.as_str()), (0, "model"));

    let tune = tune_command(false, 2);
    let t = tune.resolve(AUTO, DIMS, 2).unwrap().tuned.unwrap();
    assert_eq!((t.native_probes, t.stage.as_str()), (2, "native"));
}

#[test]
fn force_retunes_each_distinct_key_once_and_later_jobs_hit() {
    let resolver = tune_command(true, 0);
    let hit = |decl, share| {
        let t = resolver.resolve(decl, DIMS, share).unwrap().tuned.unwrap();
        t.cache_hit
    };
    assert!(!hit(AUTO, 2), "first job on a key searches");
    assert!(hit(AUTO, 2), "the second hits the fresh entry");
    assert!(!hit(AUTO, 1), "another share is another key");
    // A declared `mwd` engine at the same share is the same key as
    // `auto`: already retuned by this resolver.
    assert!(hit(declared_mwd(2), 2));
    assert_eq!(resolver.cached_entries(), 2);

    // Without `force` a second resolver over another (in-memory, so
    // here: empty) cache starts cold and then hits.
    let plain = EngineResolver::for_batch(None).unwrap();
    assert!(!plain.is_lookup(AUTO, DIMS, 2));
    plain.resolve(AUTO, DIMS, 2).unwrap();
    assert!(plain.is_lookup(AUTO, DIMS, 2));
}

#[test]
fn threads_zero_keys_under_the_share_and_a_declared_count_wins() {
    let resolver = EngineResolver::for_batch(None).unwrap();
    for share in [1, 2] {
        let r = resolver.resolve(AUTO, DIMS, share).unwrap();
        assert_eq!(r.decl.threads(), share);
        assert_eq!(r.decl.kind(), "mwd");
    }
    let pinned = EngineDecl::Auto { threads: 3 };
    let r = resolver.resolve(pinned, DIMS, 1).unwrap();
    assert_eq!(
        r.decl.threads(),
        3,
        "auto's own thread count beats the share"
    );
    assert!(
        resolver.is_lookup(pinned, DIMS, 2),
        "...so the share is not in its key"
    );
    assert!(
        resolver
            .resolve(pinned, DIMS, 2)
            .unwrap()
            .tuned
            .unwrap()
            .cache_hit
    );
}

#[test]
fn which_kinds_tune_depends_on_who_asks() {
    let naive = EngineDecl::Naive;
    let mwd = declared_mwd(2);
    let periodic = EngineDecl::auto("mwd-periodic-x", 2).unwrap();
    let dir = temp_dir("kinds");
    let path = dir.join("tune_cache.json");

    // No cache file (and the daemon): only `auto`; a declared engine is
    // left exactly as declared and asking about it is a pure lookup.
    let auto_only = EngineResolver::for_batch(None).unwrap();
    for decl in [naive, mwd, periodic] {
        assert!(!auto_only.tunes(decl));
        assert!(auto_only.is_lookup(decl, DIMS, 2));
        let r = auto_only.resolve(decl, DIMS, 2).unwrap();
        assert_eq!((r.decl, r.tuned), (decl, None));
    }
    assert!(auto_only.tunes(AUTO));
    assert_eq!(auto_only.cached_entries(), 0);

    // `--cache FILE`: the MWD family too, each under its own kind.
    let tuned = EngineResolver::for_batch(Some(&path)).unwrap();
    assert!(!tuned.tunes(naive));
    assert_eq!(tuned.resolve(mwd, DIMS, 2).unwrap().decl.kind(), "mwd");
    let r = tuned.resolve(periodic, DIMS, 2).unwrap();
    assert_eq!(r.decl.kind(), "mwd-periodic-x");
    assert!(!r.tuned.unwrap().cache_hit, "periodic-x is its own key");

    // `mwd tune`: every kind, non-MWD ones as plain `mwd`; 2 native
    // probes per miss unless told otherwise.
    let everything = EngineResolver::for_tune_command(TuneCache::load(&path).unwrap(), false, None);
    let r = everything.resolve(naive, DIMS, 2).unwrap();
    let t = r.tuned.unwrap();
    assert_eq!((r.decl.kind(), r.decl.threads()), ("mwd", 2));
    assert_eq!(t.native_probes, 2);
    assert_eq!(
        r.decl.mwd_config(),
        Some(MwdConfig::from_compact(&t.config).unwrap()),
        "the declaration and the record spell one configuration"
    );
    let p = everything.preview(periodic, DIMS, 2).unwrap().unwrap();
    assert_eq!(
        (p.kind.as_str(), p.threads, p.cached),
        ("mwd-periodic-x", 2, None)
    );
    assert!(!p.finalists.is_empty());
    let p = everything.preview(naive, DIMS, 2).unwrap().unwrap();
    assert_eq!(p.cached, Some((t.config, "native".to_string())));
    assert!(everything.save().unwrap());
    assert!(path.is_file());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_miss_then_a_hit_equals_plain_autotune_resolve() {
    let resolver = EngineResolver::for_batch(None).unwrap();
    let first = resolver.resolve(AUTO, DIMS, 2).unwrap().tuned.unwrap();
    assert!(!first.cache_hit);
    let second = resolver.resolve(AUTO, DIMS, 2).unwrap().tuned.unwrap();
    assert!(second.cache_hit);
    assert_eq!(second.config, first.config);
    assert_eq!(resolver.cached_entries(), 1);

    let opts = ResolveOptions::default();
    let key = TuneKey::for_host(&opts.machine, DIMS, "mwd", 2);
    let reference = autotune::resolve(&mut TuneCache::in_memory(), &key, &opts).unwrap();
    assert_eq!(
        reference.config.to_compact(),
        first.config,
        "same staged pipeline"
    );
    assert_eq!(reference.score_mlups, first.score_mlups);
}

#[test]
fn concurrent_resolvers_of_one_key_pay_exactly_one_search() {
    // Many threads, one key, native refinement enabled: the probe must
    // be paid exactly once, under the resolver's cache lock.
    let resolver = tune_command(false, 1);
    let dims = GridDims::cubic(8);
    let misses = AtomicUsize::new(0);
    let probes = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| {
                let t = resolver.resolve(AUTO, dims, 2).unwrap().tuned.unwrap();
                if !t.cache_hit {
                    misses.fetch_add(1, Ordering::SeqCst);
                }
                probes.fetch_add(t.native_probes, Ordering::SeqCst);
            });
        }
    });
    assert_eq!(misses.load(Ordering::SeqCst), 1, "one thread searches");
    assert_eq!(probes.load(Ordering::SeqCst), 1, "one native probe paid");
    assert_eq!(resolver.cached_entries(), 1);
}

#[test]
fn distinct_keys_resolve_concurrently() {
    let resolver = EngineResolver::for_batch(None).unwrap();
    let keys: Vec<(GridDims, usize)> = (0..4)
        .map(|i| (GridDims::cubic(8 + 4 * i), 1 + (i % 2)))
        .collect();
    std::thread::scope(|scope| {
        for &(dims, share) in &keys {
            let resolver = &resolver;
            scope.spawn(move || {
                let t = resolver.resolve(AUTO, dims, share).unwrap().tuned.unwrap();
                assert!(!t.cache_hit);
            });
        }
    });
    assert_eq!(resolver.cached_entries(), keys.len());
    for &(dims, share) in &keys {
        assert!(resolver.is_lookup(AUTO, dims, share));
    }
}

#[test]
fn the_tune_commands_save_writes_once_and_then_not_again() {
    let dir = temp_dir("save");
    let path = dir.join("tune_cache.json");
    let resolver =
        EngineResolver::for_tune_command(TuneCache::load(&path).unwrap(), false, Some(0));
    resolver.resolve(AUTO, GridDims::cubic(16), 1).unwrap();
    assert!(resolver.save().unwrap(), "a new answer writes");
    assert!(!resolver.save().unwrap(), "nothing new: no rewrite");
    assert_eq!(TuneCache::load(&path).unwrap().len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}
