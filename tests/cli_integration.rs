//! End-to-end tests of the `mwd` binary: spawn the built CLI in a temp
//! directory and assert exit codes, artifact presence, the JSON schema
//! of `batch_summary.json`, and the tune-cache round trip (the second
//! `tune` of the same key is a pure cache hit).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use thiim_mwd::json::{self, Json};
use thiim_mwd::scenarios::{builtin_names, ScenarioSpec};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mwd_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn mwd(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mwd"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("mwd binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn exit_code(out: &Output) -> i32 {
    out.status.code().expect("no signal")
}

/// First 12 hex digits of the spec content hash a spec file resolves
/// to — the suffix the batch runner embeds in artifact filenames.
fn hash12(spec_path: &Path) -> String {
    let spec = ScenarioSpec::from_toml_str(&std::fs::read_to_string(spec_path).unwrap()).unwrap();
    spec.content_hash()[..12].to_string()
}

/// A deterministic sub-second workload: one forced period on a 4x4x24
/// vacuum grid.
fn write_spec(dir: &Path, name: &str) -> PathBuf {
    let text = format!(
        r#"name = "{name}"
description = "cli integration workload"

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
kind = "naive-periodic-xy"

[convergence]
tol = 1e-300
max_periods = 1
"#
    );
    let path = dir.join(format!("{name}.toml"));
    std::fs::write(&path, text).unwrap();
    path
}

#[test]
fn list_covers_the_catalog_and_names_are_parseable() {
    let dir = temp_dir("list");
    let out = mwd(&dir, &["list"]);
    assert_eq!(exit_code(&out), 0, "{}", stderr(&out));
    let text = stdout(&out);
    for name in builtin_names() {
        assert!(text.contains(&name), "`{name}` missing from:\n{text}");
    }

    let names = mwd(&dir, &["list", "--names"]);
    assert_eq!(exit_code(&names), 0);
    let listed: Vec<String> = stdout(&names).lines().map(str::to_string).collect();
    assert_eq!(listed, builtin_names());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn show_roundtrips_builtins_and_rejects_unknown_scenarios() {
    let dir = temp_dir("show");
    let out = mwd(&dir, &["show", "vacuum-slab"]);
    assert_eq!(exit_code(&out), 0, "{}", stderr(&out));
    let spec = ScenarioSpec::from_toml_str(&stdout(&out)).expect("shown TOML parses");
    assert_eq!(spec.name, "vacuum-slab");
    assert!(spec.validate().is_ok());

    let bad = mwd(&dir, &["show", "no-such-scenario"]);
    assert_eq!(exit_code(&bad), 2);
    assert!(
        stderr(&bad).contains("vacuum-slab"),
        "error must list the built-ins: {}",
        stderr(&bad)
    );

    let unknown_cmd = mwd(&dir, &["frobnicate"]);
    assert_eq!(exit_code(&unknown_cmd), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_writes_one_schema_conforming_artifact_per_job() {
    let dir = temp_dir("run");
    let spec = write_spec(&dir, "cli-smoke");
    let out_dir = dir.join("out");
    let out = mwd(
        &dir,
        &[
            "run",
            spec.to_str().unwrap(),
            "--quiet",
            "--out",
            out_dir.to_str().unwrap(),
        ],
    );
    assert_eq!(exit_code(&out), 0, "{}", stderr(&out));

    let artifact = out_dir.join(format!("00_cli-smoke_0550nm_{}.json", hash12(&spec)));
    assert!(artifact.is_file(), "missing {}", artifact.display());
    let v = json::parse(&std::fs::read_to_string(&artifact).unwrap()).unwrap();
    assert_eq!(v.get("scenario").unwrap().as_str(), Some("cli-smoke"));
    assert_eq!(v.get("converged").unwrap().as_bool(), Some(false));
    assert_eq!(v.get("periods").unwrap().as_f64(), Some(1.0));
    assert_eq!(v.get("error"), Some(&Json::Null));
    assert!(v.get("energy").unwrap().as_f64().unwrap() > 0.0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batch_summary_has_the_documented_schema_in_job_order() {
    let dir = temp_dir("batch");
    let a = write_spec(&dir, "job-a");
    let b = write_spec(&dir, "job-b");
    let out_dir = dir.join("out");
    let out = mwd(
        &dir,
        &[
            "batch",
            a.to_str().unwrap(),
            b.to_str().unwrap(),
            "--workers",
            "2",
            "--quiet",
            "--out",
            out_dir.to_str().unwrap(),
        ],
    );
    assert_eq!(exit_code(&out), 0, "{}", stderr(&out));

    let summary =
        json::parse(&std::fs::read_to_string(out_dir.join("batch_summary.json")).unwrap()).unwrap();
    let jobs = summary.as_arr().expect("summary is a JSON array");
    assert_eq!(jobs.len(), 2);
    for (i, (job, name)) in jobs.iter().zip(["job-a", "job-b"]).enumerate() {
        for key in [
            "job",
            "scenario",
            "sweep_index",
            "lambda_nm",
            "lambda_cells",
            "dims",
            "engine",
            "threads",
            "dry_run",
            "converged",
            "periods",
            "steps",
            "rel_change",
            "energy",
            "back_iteration_cells",
            "wall_secs",
            "error",
        ] {
            assert!(job.get(key).is_some(), "job #{i} missing `{key}`");
        }
        assert_eq!(job.get("job").unwrap().as_f64(), Some(i as f64));
        assert_eq!(job.get("scenario").unwrap().as_str(), Some(name));
        assert_eq!(job.get("dims").unwrap().as_str(), Some("4x4x24"));
        assert_eq!(job.get("error"), Some(&Json::Null));
    }
    let csv = std::fs::read_to_string(out_dir.join("batch_summary.csv")).unwrap();
    assert_eq!(csv.lines().count(), 3, "header + one row per job");

    // A dry-run batch validates but writes no artifacts.
    let dry_dir = dir.join("dry");
    let dry = mwd(
        &dir,
        &[
            "batch",
            a.to_str().unwrap(),
            "--dry-run",
            "--quiet",
            "--out",
            dry_dir.to_str().unwrap(),
        ],
    );
    assert_eq!(exit_code(&dry), 0, "{}", stderr(&dry));
    assert!(stdout(&dry).contains("dry run"));
    assert!(!dry_dir.join("batch_summary.json").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tune_round_trip_second_invocation_is_a_pure_cache_hit() {
    let dir = temp_dir("tune");
    let spec = write_spec(&dir, "tune-me");
    let cache = dir.join("tune_cache.json");
    let base = [
        "tune",
        spec.to_str().unwrap(),
        "--cache",
        cache.to_str().unwrap(),
        "--threads",
        "2",
        "--refine",
        "0",
    ];

    let first = mwd(&dir, &base);
    assert_eq!(exit_code(&first), 0, "{}", stderr(&first));
    assert!(
        stdout(&first).contains("1 miss(es)"),
        "cold cache must miss:\n{}",
        stdout(&first)
    );
    assert!(cache.is_file());
    let body = std::fs::read_to_string(&cache).unwrap();
    let doc = json::parse(&body).unwrap();
    let entries = doc.get("entries").unwrap().as_arr().unwrap();
    assert_eq!(entries.len(), 1);
    let config = entries[0].get("config").unwrap().as_str().unwrap();
    assert!(
        mwd_core::MwdConfig::from_compact(config).is_ok(),
        "stored config `{config}` must parse"
    );
    assert_eq!(entries[0].get("threads").unwrap().as_f64(), Some(2.0));

    // Second invocation: pure hit, cache file untouched byte for byte.
    let second = mwd(&dir, &base);
    assert_eq!(exit_code(&second), 0, "{}", stderr(&second));
    assert!(
        stdout(&second).contains("1 cache hit(s), 0 miss(es), 0 native probe(s)"),
        "second tune must be a pure cache hit:\n{}",
        stdout(&second)
    );
    assert_eq!(std::fs::read_to_string(&cache).unwrap(), body);

    // Dry run reports the hit without rewriting anything.
    let dry = mwd(
        &dir,
        &[
            "tune",
            spec.to_str().unwrap(),
            "--cache",
            cache.to_str().unwrap(),
            "--threads",
            "2",
            "--dry-run",
        ],
    );
    assert_eq!(exit_code(&dry), 0, "{}", stderr(&dry));
    assert!(stdout(&dry).contains("hit"), "{}", stdout(&dry));
    // ...and says why the winner won: the finalists' three factors.
    assert!(stdout(&dry).contains("min(core x"), "{}", stdout(&dry));
    assert!(stdout(&dry).contains("B/LUP"), "{}", stdout(&dry));
    assert_eq!(std::fs::read_to_string(&cache).unwrap(), body);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_with_tune_records_provenance_in_the_artifact() {
    let dir = temp_dir("run_tune");
    let spec = write_spec(&dir, "tuned-run");
    let cache = dir.join("tc.json");
    let run = |out: &str| {
        mwd(
            &dir,
            &[
                "run",
                spec.to_str().unwrap(),
                "--engine",
                "auto",
                "--cache",
                cache.to_str().unwrap(),
                "--quiet",
                "--threads",
                "1",
                "--out",
                dir.join(out).to_str().unwrap(),
            ],
        )
    };
    let first = run("out1");
    assert_eq!(exit_code(&first), 0, "{}", stderr(&first));
    let art = |out: &str| {
        json::parse(
            &std::fs::read_to_string(
                dir.join(out)
                    .join(format!("00_tuned-run_0550nm_{}.json", hash12(&spec))),
            )
            .unwrap(),
        )
        .unwrap()
    };
    let v1 = art("out1");
    let t1 = v1.get("tuned").expect("tuned provenance present");
    assert_eq!(t1.get("cache_hit").unwrap().as_bool(), Some(false));
    assert!(v1
        .get("engine")
        .unwrap()
        .as_str()
        .unwrap()
        .starts_with("mwd("));

    let second = run("out2");
    assert_eq!(exit_code(&second), 0, "{}", stderr(&second));
    let v2 = art("out2");
    let t2 = v2.get("tuned").unwrap();
    assert_eq!(t2.get("cache_hit").unwrap().as_bool(), Some(true));
    assert_eq!(t2.get("native_probes").unwrap().as_f64(), Some(0.0));
    assert_eq!(
        t1.get("config").unwrap().as_str(),
        t2.get("config").unwrap().as_str()
    );
    // Tuning must not change the physics: identical energies bitwise.
    assert_eq!(
        v1.get("energy").unwrap().as_f64().unwrap().to_bits(),
        v2.get("energy").unwrap().as_f64().unwrap().to_bits()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_flag_writes_a_chrome_trace_and_prints_phase_totals_on_both_run_paths() {
    let dir = temp_dir("trace");
    let spec = write_spec(&dir, "traced");
    let spec = spec.to_str().unwrap();
    let cases: [(&str, &[&str]); 2] = [
        ("run", &["run", spec, "--engine", "mwd", "--quiet"]),
        ("dist", &["dist", "run", spec, "--workers", "2"]),
    ];
    for (tag, head) in cases {
        let trace = dir.join(format!("{tag}_trace.json"));
        let out_dir = dir.join(tag);
        let mut args = head.to_vec();
        args.extend([
            "--trace",
            trace.to_str().unwrap(),
            "--out",
            out_dir.to_str().unwrap(),
        ]);
        let out = mwd(&dir, &args);
        assert_eq!(exit_code(&out), 0, "{tag}: {}", stderr(&out));

        let doc = json::parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert!(
            events
                .iter()
                .any(|e| e.get("ph").and_then(Json::as_str) == Some("X")),
            "{tag}: no complete span in the trace"
        );
        let text = stdout(&out);
        assert!(text.contains("trace: "), "{tag}: {text}");
        assert!(
            text.lines().any(|l| l.trim_start().starts_with("phase ")),
            "{tag}: no phase totals in\n{text}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_scenario_files_fail_with_exit_code_2() {
    let dir = temp_dir("malformed");
    let path = dir.join("broken.toml");
    std::fs::write(&path, "name = \"broken\"\n[grid]\nnx = \"four\"\n").unwrap();
    let out = mwd(&dir, &["run", path.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 2);
    assert!(
        stderr(&out).contains("broken.toml"),
        "error names the file: {}",
        stderr(&out)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_command_refuses_the_flags_it_does_not_use() {
    let dir = temp_dir("flags");
    let spec = write_spec(&dir, "flags");
    let spec = spec.to_str().unwrap();
    // (command, its arguments, the refused flag): each exits 2 before
    // doing any work, naming the flag and the command.
    let cases: [(&str, &[&str], &str); 12] = [
        ("run", &["run", spec], "--deadline-secs"),
        ("run", &["run", spec], "--chaos"),
        ("run", &["run", spec], "--workers"),
        ("batch", &["batch", spec], "--addr"),
        ("tune", &["tune", spec], "--chaos"),
        ("tune", &["tune", spec], "--engine"),
        ("serve", &["serve"], "--deadline-secs"),
        ("serve", &["serve"], "--refine"),
        ("serve", &["serve"], "--trace"),
        ("dist run", &["dist", "run", spec], "--refine"),
        ("dist run", &["dist", "run", spec], "--cache"),
        ("dist run", &["dist", "run", spec], "--quiet"),
    ];
    for (cmd, head, flag) in cases {
        let mut args = head.to_vec();
        args.extend([flag, "1"]);
        let out = mwd(&dir, &args);
        assert_eq!(exit_code(&out), 2, "mwd {cmd} {flag}: {}", stdout(&out));
        let err = stderr(&out);
        assert!(
            err.contains(&format!("`mwd {cmd}`")) && err.contains(&format!("`{flag}`")),
            "mwd {cmd} {flag}: {err}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `run`/`batch` use `--refine` and `--force` only when they tune; without
/// `--tune` or `--cache` either flag exits 2 instead of being dropped.
#[test]
fn run_and_batch_refuse_tuning_flags_without_tune() {
    let dir = temp_dir("tuneflags");
    let spec = write_spec(&dir, "tuneflags");
    let spec = spec.to_str().unwrap();
    for (cmd, args) in [
        ("run", ["run", spec, "--refine", "3"].as_slice()),
        ("batch", ["batch", spec, "--force"].as_slice()),
    ] {
        let out = mwd(&dir, args);
        assert_eq!(exit_code(&out), 2, "mwd {args:?}: {}", stdout(&out));
        let err = stderr(&out);
        let flag = args[2];
        assert!(
            err.contains(&format!("`mwd {cmd}`"))
                && err.contains(&format!("`{flag}`"))
                && err.contains("`--tune`"),
            "mwd {args:?}: {err}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------------------------- serving

/// Minimal raw HTTP client for the serve tests (one request per
/// connection, as the daemon requires).
fn http(addr: &str, method: &str, path: &str, body: &[u8]) -> (u16, String) {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw).into_owned();
    let status = text
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let payload = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, payload)
}

#[test]
fn serve_answers_jobs_dedupes_and_drains_on_sigterm() {
    use std::io::BufRead;
    let dir = temp_dir("serve");
    let spec_path = write_spec(&dir, "served");
    let spec_toml = std::fs::read_to_string(&spec_path).unwrap();

    let mut child = Command::new(env!("CARGO_BIN_EXE_mwd"))
        .current_dir(&dir)
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--out",
            "store",
            "--cache",
            "tune_cache.json",
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("mwd serve starts");
    let mut reader = std::io::BufReader::new(child.stdout.take().unwrap());
    let mut addr = String::new();
    let mut first_lines = String::new();
    for _ in 0..10 {
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap() == 0 {
            break;
        }
        first_lines.push_str(&line);
        if let Some(rest) = line.trim().strip_prefix("listening on http://") {
            addr = rest.to_string();
            break;
        }
    }
    assert!(!addr.is_empty(), "no listening line in:\n{first_lines}");
    // Collect the rest of stdout (the drain summary) concurrently.
    let tail = std::thread::spawn(move || {
        let mut rest = String::new();
        std::io::Read::read_to_string(&mut reader, &mut rest).unwrap();
        rest
    });

    let (status, body) = http(&addr, "GET", "/healthz", b"");
    assert_eq!(status, 200, "{body}");

    // Submit, poll to completion, fetch the artifact.
    let (status, body) = http(&addr, "POST", "/jobs", spec_toml.as_bytes());
    assert_eq!(status, 202, "{body}");
    let sub = json::parse(&body).unwrap();
    let job = sub.get("job").unwrap().as_str().unwrap().to_string();
    let key = sub.get("key").unwrap().as_str().unwrap().to_string();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        assert!(std::time::Instant::now() < deadline, "job never finished");
        let (s, b) = http(&addr, "GET", &format!("/jobs/{job}"), b"");
        assert_eq!(s, 200, "{b}");
        let state = json::parse(&b)
            .unwrap()
            .get("state")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        if state == "done" {
            break;
        }
        assert!(state == "queued" || state == "running", "{b}");
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let (status, artifact) = http(&addr, "GET", &format!("/jobs/{job}/result"), b"");
    assert_eq!(status, 200);

    // The identical spec is served from the store, byte-identical.
    let (status, body) = http(&addr, "POST", "/jobs", spec_toml.as_bytes());
    assert_eq!(status, 200, "{body}");
    let dup = json::parse(&body).unwrap();
    assert_eq!(dup.get("status").unwrap().as_str(), Some("cached"));
    let (status, cached) = http(&addr, "GET", &format!("/results/{key}"), b"");
    assert_eq!(status, 200);
    assert_eq!(cached, artifact);

    // SIGTERM drains: exit code 0, a summary line, artifacts on disk.
    let kill = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .output()
        .unwrap();
    assert!(kill.status.success());
    let status = child.wait().unwrap();
    assert!(status.success(), "serve exited {status:?}");
    let rest = tail.join().unwrap();
    assert!(rest.contains("served"), "missing summary in:\n{rest}");
    assert!(
        dir.join("store").join(format!("{key}.json")).is_file(),
        "artifact persisted for the next daemon"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batch_sigterm_drains_and_still_writes_the_summary() {
    let dir = temp_dir("sigterm_batch");
    // Enough work that the drain usually interrupts it; the assertions
    // hold however the race lands.
    let specs: Vec<PathBuf> = (0..3)
        .map(|i| {
            let path = write_spec(&dir, &format!("drain-{i}"));
            let longer = std::fs::read_to_string(&path)
                .unwrap()
                .replace("max_periods = 1", "max_periods = 40");
            std::fs::write(&path, longer).unwrap();
            path
        })
        .collect();
    let out_dir = dir.join("out");
    let child = Command::new(env!("CARGO_BIN_EXE_mwd"))
        .current_dir(&dir)
        .args([
            "batch",
            specs[0].to_str().unwrap(),
            specs[1].to_str().unwrap(),
            specs[2].to_str().unwrap(),
            "--workers",
            "1",
            "--quiet",
            "--out",
            out_dir.to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("mwd batch starts");
    // Give the process time to install its signal hook and start job 0,
    // then request the drain.
    std::thread::sleep(std::time::Duration::from_millis(400));
    let kill = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .output()
        .unwrap();
    assert!(kill.status.success());
    let out = child.wait_with_output().unwrap();
    // Exit code 0 if everything finished before the signal, 1 if jobs
    // were cancelled — never a crash/signal death.
    let code = out.status.code().expect("exited, not signalled");
    assert!(code == 0 || code == 1, "unexpected exit {code}");

    // The drain still writes the full summary: one entry per job,
    // each either completed or cancelled.
    let summary =
        json::parse(&std::fs::read_to_string(out_dir.join("batch_summary.json")).unwrap()).unwrap();
    let jobs = summary.as_arr().expect("summary is an array");
    assert_eq!(jobs.len(), 3);
    let mut completed = 0;
    let mut cancelled = 0;
    for job in jobs {
        match job.get("error") {
            Some(Json::Null) | None => {
                completed += 1;
                assert!(job.get("energy").unwrap().as_f64().unwrap() > 0.0);
            }
            Some(e) => {
                assert!(
                    e.as_str().unwrap().starts_with("cancelled:"),
                    "unexpected error: {e:?}"
                );
                cancelled += 1;
            }
        }
    }
    assert_eq!(completed + cancelled, 3);
    if code == 1 {
        assert!(cancelled > 0, "failure exit implies cancelled jobs");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
