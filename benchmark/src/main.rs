//! The repo benchmark. One process measures one workload:
//!
//! ```text
//! em_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!              [--corrupt] [--baseline <dir>] [--out-dir <dir>]
//! ```
//!
//! `--trace 0` is the end-to-end pass (tracing off): from-scratch
//! set-ups, warm-up, best-of-N timed ops, every op verified. `--trace 1`
//! is the per-layer pass: every layer metric, plus a Chrome trace and
//! the per-layer self times of the named workload's op. The last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; the exit code is non-zero if any op failed.
//! `--corrupt` is the canary: the end-to-end pass runs one step too
//! many (or flips one byte), which must surface as failed ops.
//! `--baseline <dir>` merges the run into `<dir>/<host-slug>.json`.

mod grid;
mod harness;
mod host;
mod inputs;
mod layers;
mod metrics;
mod serve;
mod spans;
mod stack;
mod stats;

use em_json::Json;
use harness::Workload;
use inputs::Inputs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    corrupt: bool,
    baseline: Option<PathBuf>,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 12,
        seconds: 10.0,
        trace: false,
        corrupt: false,
        baseline: None,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => {
                a.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--corrupt" => a.corrupt = true,
            "--baseline" => a.baseline = Some(PathBuf::from(value()?)),
            "--out-dir" => a.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !metrics::WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            metrics::WORKLOADS.join(", ")
        ));
    }
    if !(a.seconds.is_finite() && a.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(a)
}

fn workload(name: &str, inputs: &Inputs, corrupt: bool) -> Box<dyn Workload> {
    let t = host::engine_threads();
    match name {
        "grid-mem" => Box::new(grid::GridWorkload::new(
            grid::MEM_DIMS,
            grid::MEM_STEPS,
            t,
            inputs,
            corrupt,
        )),
        "grid-cache" => Box::new(grid::GridWorkload::new(
            grid::CACHE_DIMS,
            grid::CACHE_STEPS,
            t,
            inputs,
            corrupt,
        )),
        "sweep-stack" => Box::new(stack::SweepWorkload::new(inputs, t, corrupt)),
        "dist-slab" => Box::new(stack::DistWorkload::new(inputs, corrupt)),
        "serve-mix" => Box::new(serve::ServeWorkload::new(inputs, corrupt)),
        other => unreachable!("parse_args admitted workload `{other}`"),
    }
}

/// Host and build facts every report carries.
fn host_facts() -> Vec<(String, String)> {
    let machine = autotune::ResolveOptions::default().machine;
    vec![
        ("git_rev".into(), em_obs::git_revision()),
        ("cpu_model".into(), host::cpu_model()),
        (
            "host_fingerprint".into(),
            autotune::host_fingerprint(&machine),
        ),
        ("isa".into(), em_kernels::active_isa().name().into()),
        ("nproc".into(), host::nproc().to_string()),
        ("engine_threads".into(), host::engine_threads().to_string()),
        (
            "llc_bytes".into(),
            host::llc_bytes().map_or("unknown".into(), |b| b.to_string()),
        ),
    ]
}

struct Outcome {
    /// Declared metrics, in declared order.
    metrics: Vec<(String, f64, String)>,
    attempted: u64,
    failed: u64,
    /// `key value` lines for the text report and the report file.
    info: Vec<(String, String)>,
}

fn end_to_end(a: &Args) -> Result<Outcome, String> {
    let mut w = workload(&a.workload, &Inputs { seed: a.seed }, a.corrupt);
    let m = harness::measure(w.as_mut(), a.seconds)?;
    let values = [m.solve_s(), m.mlups(), m.setup_s(), m.peak_rss_mib];
    let mut info = w.describe();
    info.extend([
        ("reps".to_string(), m.rep_times.len().to_string()),
        (
            "rep_median_s".to_string(),
            stats::median(&m.rep_times).to_string(),
        ),
        (
            "rep_iqr_s".to_string(),
            stats::iqr(&m.rep_times).to_string(),
        ),
        ("lups_per_op".to_string(), m.lups.to_string()),
        ("rep_times_s".to_string(), format!("{:?}", m.rep_times)),
        ("setup_times_s".to_string(), format!("{:?}", m.setup_times)),
    ]);
    Ok(Outcome {
        metrics: metrics::END_TO_END
            .iter()
            .zip(values)
            .map(|((n, u), v)| (n.to_string(), v, u.to_string()))
            .collect(),
        attempted: m.attempted,
        failed: m.failed,
        info,
    })
}

fn per_layer(a: &Args) -> Result<Outcome, String> {
    let scratch = a.out_dir.join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let mut ledger = layers::Ledger::new(&Inputs { seed: a.seed }, &scratch);
    let ran = ledger.run();
    let _ = std::fs::remove_dir_all(&scratch);
    ran?;

    let mut info: Vec<(String, String)> = ledger
        .notes
        .iter()
        .enumerate()
        .map(|(i, n)| (format!("note {}", i + 1), n.clone()))
        .collect();
    // The named workload's traced op: a Chrome trace on disk and the
    // self time per span name (span minus the part its children cover).
    if let Some((name, spans)) = ledger.traces.iter().find(|(n, _)| *n == a.workload) {
        let path = a.out_dir.join(format!("trace-{name}.json"));
        let trace = em_obs::Trace {
            spans: spans.clone(),
            ..Default::default()
        };
        trace
            .write_chrome(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        info.push(("chrome_trace".to_string(), path.display().to_string()));
        for t in spans::self_times(spans) {
            info.push((
                format!("self_time {} {}", spans::layer_of(t.name), t.name),
                format!(
                    "{:.6} s self of {:.6} s in {} span(s)",
                    t.self_us / 1e6,
                    t.total_us / 1e6,
                    t.count
                ),
            ));
        }
    }

    let metrics = metrics::PER_LAYER
        .iter()
        .map(|(name, unit)| {
            let v = ledger.values.iter().find(|(n, _)| n == name);
            v.map(|(_, v)| (name.to_string(), *v, unit.to_string()))
                .ok_or_else(|| format!("the per-layer pass did not measure `{name}`"))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Outcome {
        metrics,
        attempted: ledger.tally.attempted,
        failed: ledger.tally.failed,
        info,
    })
}

fn result_json(o: &Outcome) -> Json {
    Json::Obj(vec![
        ("correct".to_string(), Json::Bool(o.failed == 0)),
        ("attempted".to_string(), Json::Int(o.attempted as i64)),
        ("failed".to_string(), Json::Int(o.failed as i64)),
        (
            "metrics".to_string(),
            Json::Obj(
                o.metrics
                    .iter()
                    .map(|(name, value, unit)| {
                        (
                            name.clone(),
                            Json::obj(vec![
                                ("value", Json::Num(*value)),
                                ("unit", Json::str(unit)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

fn pairs_json(kv: &[(String, String)]) -> Json {
    Json::Obj(kv.iter().map(|(k, v)| (k.clone(), Json::str(v))).collect())
}

/// Merge this run into `<dir>/<host-slug>.json`: one document per
/// host, one entry per workload and pass.
fn merge_into_baseline(
    dir: &Path,
    a: &Args,
    host: &[(String, String)],
    o: &Outcome,
) -> Result<(), String> {
    let path = dir.join(format!("{}.json", host::slug()));
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    let mut doc = match std::fs::read_to_string(&path) {
        Ok(text) => em_json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Json::obj(vec![]),
        Err(e) => return Err(io(e)),
    };
    let run = Json::obj(vec![
        ("seed", Json::Int(a.seed as i64)),
        ("seconds", Json::Num(a.seconds)),
        ("info", pairs_json(&o.info)),
        ("result", result_json(o)),
    ]);
    let child = |doc: &Json, key: &str| doc.get(key).cloned().unwrap_or_else(|| Json::obj(vec![]));
    let mut runs = child(&doc, "runs");
    let mut of_workload = child(&runs, &a.workload);
    of_workload.set(if a.trace { "per_layer" } else { "end_to_end" }, run);
    runs.set(&a.workload, of_workload);
    doc.set("host", pairs_json(host));
    doc.set("runs", runs);
    std::fs::create_dir_all(dir).map_err(io)?;
    std::fs::write(&path, doc.pretty() + "\n").map_err(io)
}

fn run() -> Result<ExitCode, String> {
    let a = parse_args()?;
    let host = host_facts();
    let o = if a.trace {
        per_layer(&a)?
    } else {
        end_to_end(&a)?
    };
    if let Some((name, v, _)) = o.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("metric `{name}` is not finite ({v})"));
    }

    println!(
        "# workload: {}, seed: {}, seconds: {}, trace: {}",
        a.workload,
        a.seed,
        a.seconds,
        u8::from(a.trace)
    );
    for (k, v) in host.iter().chain(&o.info) {
        println!("# {k}: {v}");
    }
    for (name, value, unit) in &o.metrics {
        println!("{name} {value} {unit}");
    }
    if let Some(dir) = &a.baseline {
        merge_into_baseline(dir, &a, &host, &o)?;
    }
    println!("{}", result_json(&o).compact());
    Ok(if o.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{} of {} verified units failed", o.failed, o.attempted);
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    run().unwrap_or_else(|e| {
        eprintln!("em_benchmark: {e}");
        ExitCode::from(2)
    })
}
