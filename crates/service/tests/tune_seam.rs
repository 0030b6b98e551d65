//! One cache file, one writer, two readers. A tuning cache warmed
//! through the engine-resolution seam the way `mwd tune` does it must
//! be a pure hit — same key, same configuration, no search, no probe —
//! for a `run_batch` of an `engine = "auto"` spec at the same thread
//! share and for a daemon bound to that cache file. `mwd tune`, the
//! batch runner and the scheduler used to build that key in three
//! places. Neither reader writes the file back.

use autotune::TuneCache;
use em_scenarios::runner::{run_batch, BatchOptions};
use em_scenarios::{EngineDecl, EngineResolver, GridDims, ScenarioSpec};
use em_service::server::ServiceSummary;
use em_service::{Server, ServerConfig};
use mwd_core::ThreadBudget;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const AUTO_SPEC: &str = r#"name = "seam-auto"
description = "tune seam workload"

[grid]
nx = 4
ny = 4
nz = 24

[physics]
lambda_cells = 8.0
lambda_nm = 550.0

[pml]
thickness = 4

[source]
z_plane = 18

[scene]
materials = ["vacuum"]
background = "vacuum"

[engine]
kind = "auto"

[convergence]
tol = 1e-2
max_periods = 2
"#;

fn http(addr: &str, method: &str, path: &str, body: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body).unwrap();
    let mut text = String::new();
    stream.read_to_string(&mut text).unwrap();
    let status = text.split(' ').nth(1).and_then(|s| s.parse().ok());
    let body = text.split_once("\r\n\r\n").map_or("", |(_, b)| b);
    (status.unwrap_or(0), body.to_string())
}

#[test]
fn a_cache_warmed_like_mwd_tune_is_a_pure_hit_for_the_batch_and_the_daemon() {
    let dir = std::env::temp_dir().join(format!("em_tune_seam_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache_path = dir.join("tune_cache.json");
    let spec = ScenarioSpec::from_toml_str(AUTO_SPEC).unwrap();
    let share = 1;

    // `mwd tune <spec> --threads 1 --refine 1 --cache <path>`: the
    // readers must serve the natively probed answer as stored.
    let warm = {
        let cache = TuneCache::load(&cache_path).unwrap();
        let resolver = EngineResolver::for_tune_command(cache, false, Some(1));
        let r = resolver.resolve(spec.engine, spec.dims(), share).unwrap();
        assert!(!r.tuned.as_ref().unwrap().cache_hit, "the file starts cold");
        assert!(resolver.save().unwrap(), "the answer is persisted");
        r
    };
    let warm_config = &warm.tuned.as_ref().unwrap().config;
    let written = std::fs::read(&cache_path).unwrap();

    // `mwd run <spec> --threads 1 --cache <path>`.
    let report = run_batch(
        std::slice::from_ref(&spec),
        &BatchOptions {
            workers: 1,
            threads: Some(share),
            budget: ThreadBudget::new(share),
            tune_cache: Some(cache_path.clone()),
            ..Default::default()
        },
    )
    .unwrap();
    let outcome = &report.outcomes[0];
    assert!(outcome.error.is_none(), "{:?}", outcome.error);
    let t = outcome.tuned.as_ref().expect("auto records its tuning");
    assert!(t.cache_hit, "tune and run must key identically");
    assert_eq!(t.native_probes, 0);
    assert_eq!(t.stage, "native");
    assert_eq!(&t.config, warm_config);
    assert_eq!(outcome.engine, warm.decl.label());
    assert_eq!(std::fs::read(&cache_path).unwrap(), written);

    let (addr, daemon) = serve(&cache_path);

    let (status, body) = http(&addr, "POST", "/jobs", AUTO_SPEC.as_bytes());
    assert_eq!(status, 202, "{body}");
    let sub = em_json::parse(&body).unwrap();
    let job = sub.get("job").unwrap().as_str().unwrap().to_string();
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        assert!(Instant::now() < deadline, "{job} never finished");
        let (status, body) = http(&addr, "GET", &format!("/jobs/{job}"), b"");
        assert_eq!(status, 200, "{body}");
        let doc = em_json::parse(&body).unwrap();
        match doc.get("state").unwrap().as_str().unwrap() {
            "done" => break,
            "failed" | "cancelled" | "timeout" => panic!("{job} ended badly: {body}"),
            _ => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    // The daemon resolves at admission, so its artifact names the tuned
    // configuration as the engine it ran (there is no `tuned` object).
    let (status, body) = http(&addr, "GET", &format!("/jobs/{job}/result"), b"");
    assert_eq!(status, 200, "{body}");
    let artifact = em_json::parse(&body).unwrap();
    let served = &artifact.get("outcomes").unwrap().as_arr().unwrap()[0];
    assert_eq!(
        served.get("engine").unwrap().as_str(),
        Some(warm.decl.label().as_str())
    );

    let (status, metrics) = http(&addr, "GET", "/metrics", b"");
    assert_eq!(status, 200);
    let tune_requests = |result: &str| -> f64 {
        let series = format!("em_tune_cache_requests_total{{result=\"{result}\"}} ");
        let line = metrics.lines().find(|l| l.starts_with(&series));
        line.unwrap_or_else(|| panic!("no `{series}` in /metrics"))[series.len()..]
            .trim()
            .parse()
            .unwrap()
    };
    assert_eq!(tune_requests("hit"), 1.0);
    assert_eq!(tune_requests("miss"), 0.0);

    let (status, _) = http(&addr, "POST", "/shutdown", b"");
    assert_eq!(status, 200);
    daemon.join().unwrap().unwrap();
    assert_eq!(std::fs::read(&cache_path).unwrap(), written);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `mwd serve --workers 1 --threads 1 --cache <path>`, on a free port.
fn serve(cache_path: &Path) -> (String, JoinHandle<Result<ServiceSummary, String>>) {
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        scheduler: em_service::SchedulerConfig {
            workers: 1,
            queue_depth: 4,
            budget: ThreadBudget::new(1),
            ..Default::default()
        },
        cache_path: Some(cache_path.to_path_buf()),
        quiet: true,
        ..Default::default()
    })
    .unwrap();
    let addr = format!("{}", server.local_addr().unwrap());
    (addr, std::thread::spawn(move || server.run()))
}

/// A daemon that missed on its cache file must not write it back over
/// what `mwd tune` stored while it ran.
#[test]
fn a_daemon_that_missed_leaves_entries_tune_stored_meanwhile() {
    let dir = std::env::temp_dir().join(format!("em_tune_lost_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache_path = dir.join("tune_cache.json");
    let (addr, daemon) = serve(&cache_path);
    let (status, body) = http(&addr, "POST", "/jobs", AUTO_SPEC.as_bytes());
    assert_eq!(status, 202, "{body}");

    // `mwd tune` stores an answer for another key while the daemon runs.
    let resolver =
        EngineResolver::for_tune_command(TuneCache::load(&cache_path).unwrap(), false, Some(0));
    let other = GridDims::new(4, 4, 32);
    resolver
        .resolve(EngineDecl::Auto { threads: 0 }, other, 1)
        .unwrap();
    assert!(resolver.save().unwrap());
    let written = std::fs::read(&cache_path).unwrap();

    let (status, _) = http(&addr, "POST", "/shutdown", b"");
    assert_eq!(status, 200);
    daemon.join().unwrap().unwrap();
    assert_eq!(std::fs::read(&cache_path).unwrap(), written);
    let _ = std::fs::remove_dir_all(&dir);
}
