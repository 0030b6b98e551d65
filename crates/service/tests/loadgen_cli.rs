//! The `loadgen` binary against an in-process daemon: mixed workload,
//! dedupe accounting, the report file, and the `--min-dedupe-hits` gate.

use em_service::{Server, ServerConfig};
use mwd_core::ThreadBudget;
use std::path::Path;
use std::process::Command;

const TINY_SPEC: &str = r#"name = "loadgen-tiny"
description = "loadgen workload"

[grid]
nx = 4
ny = 4
nz = 24

[physics]
lambda_cells = 8.0
lambda_nm = 550.0

[scene]
materials = ["vacuum"]
background = "vacuum"

[engine]
kind = "naive-periodic-xy"

[convergence]
tol = 1e-2
max_periods = 1
"#;

fn loadgen(dir: &Path, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("loadgen runs")
}

#[test]
fn loadgen_reports_dedupe_and_latency_into_its_report_file() {
    let dir = std::env::temp_dir().join(format!("loadgen_cli_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("tiny.toml"), TINY_SPEC).unwrap();
    // Whatever the report path held before is replaced, not merged into.
    std::fs::write(dir.join("report.json"), "{\n  \"stale\": true\n}\n").unwrap();

    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        scheduler: em_service::SchedulerConfig {
            workers: 1,
            queue_depth: 32,
            budget: ThreadBudget::new(1),
            ..Default::default()
        },
        quiet: true,
        ..Default::default()
    })
    .unwrap();
    let addr = format!("{}", server.local_addr().unwrap());
    let handle = std::thread::spawn(move || server.run());

    let out = loadgen(
        &dir,
        &[
            "--addr",
            &addr,
            "--requests",
            "14",
            "--concurrency",
            "3",
            "--dup-ratio",
            "0.5",
            "--spec",
            "tiny.toml",
            "--min-dedupe-hits",
            "4",
            "--report",
            "report.json",
            "--quiet",
            "--shutdown",
        ],
    );
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "loadgen failed:\n{stdout}\n{stderr}");
    assert!(stdout.contains("dedupe hits: 7/14"), "{stdout}");
    assert!(stdout.contains("result mismatches: 0"), "{stdout}");

    // --shutdown drained the daemon cleanly.
    let summary = handle.join().unwrap().unwrap();
    assert_eq!(summary.completed, 7, "7 unique variants solved");
    assert_eq!(summary.failed, 0);

    // The report is the whole file at --report.
    assert!(stdout.contains("report: report.json"), "{stdout}");
    let lg = em_json::parse(&std::fs::read_to_string(dir.join("report.json")).unwrap()).unwrap();
    assert!(lg.get("stale").is_none(), "the old file was replaced");
    assert_eq!(lg.get("requests").unwrap().as_i64(), Some(14));
    assert_eq!(lg.get("dedupe_hits").unwrap().as_i64(), Some(7));
    assert_eq!(lg.get("failures").unwrap().as_i64(), Some(0));
    assert_eq!(lg.get("result_mismatches").unwrap().as_i64(), Some(0));
    let rate = lg.get("dedupe_hit_rate").unwrap().as_f64().unwrap();
    assert!(
        rate >= 0.4,
        "acceptance: >=40% served from the store, got {rate}"
    );
    for p in ["p50", "p90", "p99"] {
        assert!(
            lg.get("total_ms")
                .unwrap()
                .get(p)
                .unwrap()
                .as_f64()
                .unwrap()
                > 0.0
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn loadgen_gate_fails_when_hits_are_impossible() {
    let dir = std::env::temp_dir().join(format!("loadgen_gate_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("tiny.toml"), TINY_SPEC).unwrap();

    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        scheduler: em_service::SchedulerConfig {
            workers: 1,
            budget: ThreadBudget::new(1),
            ..Default::default()
        },
        quiet: true,
        ..Default::default()
    })
    .unwrap();
    let addr = format!("{}", server.local_addr().unwrap());
    let handle = std::thread::spawn(move || server.run());

    // All-unique workload (dup-ratio 0) cannot produce dedupe hits, so
    // the gate must fail the run.
    let out = loadgen(
        &dir,
        &[
            "--addr",
            &addr,
            "--requests",
            "3",
            "--concurrency",
            "1",
            "--dup-ratio",
            "0",
            "--spec",
            "tiny.toml",
            "--min-dedupe-hits",
            "1",
            "--quiet",
            "--shutdown",
        ],
    );
    assert_eq!(out.status.code(), Some(1), "gate must fail");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("fewer than the required"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    handle.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
