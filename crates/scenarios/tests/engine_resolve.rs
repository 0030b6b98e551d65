//! The engine-resolution seam, case by case — in particular the cases
//! its three former copies (`run_batch`, the scheduler, `mwd tune`) had
//! drifted apart on.

use em_field::GridDims;
use em_scenarios::{EngineDecl, EngineResolver, TunePlan};
use mwd_core::MwdConfig;

const DIMS: GridDims = GridDims {
    nx: 8,
    ny: 12,
    nz: 12,
};

fn declared_mwd(threads: usize) -> EngineDecl {
    EngineDecl::auto("mwd", threads).unwrap()
}

fn plan(force: bool, refine_top: usize) -> TunePlan {
    TunePlan {
        cache_path: None,
        force,
        refine_top,
    }
}

#[test]
fn a_dry_run_never_probes_whatever_the_plan_says() {
    let auto = EngineDecl::Auto { threads: 0 };
    let dry = EngineResolver::for_batch(Some(&plan(false, 2)), true).unwrap();
    let t = dry.resolve(auto, DIMS, 2).unwrap().tuned.unwrap();
    assert_eq!((t.native_probes, t.stage.as_str()), (0, "model"));
    assert!(!dry.save().unwrap(), "a dry run plans but never writes");

    let wet = EngineResolver::for_batch(Some(&plan(false, 2)), false).unwrap();
    let t = wet.resolve(auto, DIMS, 2).unwrap().tuned.unwrap();
    assert_eq!((t.native_probes, t.stage.as_str()), (2, "native"));
}

#[test]
fn force_retunes_each_distinct_key_once_and_later_jobs_hit() {
    let resolver = EngineResolver::for_batch(Some(&plan(true, 0)), false).unwrap();
    let auto = EngineDecl::Auto { threads: 0 };
    let hit = |decl, share| {
        let t = resolver.resolve(decl, DIMS, share).unwrap().tuned.unwrap();
        t.cache_hit
    };
    assert!(!hit(auto, 2), "first job on a key searches");
    assert!(hit(auto, 2), "the second hits the fresh entry");
    assert!(!hit(auto, 1), "another share is another key");
    // A declared `mwd` engine at the same share is the same key as
    // `auto`: already retuned by this resolver.
    assert!(hit(declared_mwd(2), 2));
    assert_eq!(resolver.cached_entries(), 2);

    // Without `force` a second resolver over the same (in-memory, so
    // here: empty) cache starts cold and then hits.
    let plain = EngineResolver::for_batch(Some(&plan(false, 0)), false).unwrap();
    assert!(!plain.is_lookup(auto, DIMS, 2));
    plain.resolve(auto, DIMS, 2).unwrap();
    assert!(plain.is_lookup(auto, DIMS, 2));
}

#[test]
fn threads_zero_keys_under_the_share_and_a_declared_count_wins() {
    let resolver = EngineResolver::for_batch(None, false).unwrap();
    for share in [1, 2] {
        let r = resolver
            .resolve(EngineDecl::Auto { threads: 0 }, DIMS, share)
            .unwrap();
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

    // No plan (and the daemon): only `auto`; a declared engine is left
    // exactly as declared and asking about it is a pure lookup.
    let auto_only = EngineResolver::for_batch(None, false).unwrap();
    for decl in [naive, mwd, periodic] {
        assert!(!auto_only.tunes(decl));
        assert!(auto_only.is_lookup(decl, DIMS, 2));
        let r = auto_only.resolve(decl, DIMS, 2).unwrap();
        assert_eq!((r.decl, r.tuned), (decl, None));
    }
    assert!(auto_only.tunes(EngineDecl::Auto { threads: 0 }));
    assert_eq!(auto_only.cached_entries(), 0);

    // `--tune`: the MWD family too, each under its own kind.
    let tuned = EngineResolver::for_batch(Some(&plan(false, 0)), false).unwrap();
    assert!(!tuned.tunes(naive));
    assert_eq!(tuned.resolve(mwd, DIMS, 2).unwrap().decl.kind(), "mwd");
    let r = tuned.resolve(periodic, DIMS, 2).unwrap();
    assert_eq!(r.decl.kind(), "mwd-periodic-x");
    assert!(!r.tuned.unwrap().cache_hit, "periodic-x is its own key");

    // `mwd tune`: every kind, non-MWD ones as plain `mwd`; 2 native
    // probes per miss unless told otherwise.
    let dir = std::env::temp_dir().join(format!("engine_resolve_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("tune_cache.json");
    let everything = EngineResolver::for_tune_command(&path, false, None, false).unwrap();
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
