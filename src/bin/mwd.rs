//! `mwd` — the scenario CLI.
//!
//! ```text
//! mwd list [--names]
//! mwd show <scenario>
//! mwd run <scenario>... [--engine K] [--threads N] [--cache FILE] [--dry-run]
//! mwd batch [<scenario>... | --all] [--workers N] [--engine K]
//!           [--threads N] [--cache FILE] [--dry-run] [--out DIR]
//! mwd tune [<scenario>... | --all] [--force] [--refine K] [--dry-run]
//!          [--cache FILE]
//! mwd serve [--addr HOST:PORT] [--workers N] [--threads N]
//!           [--queue-depth N] [--out DIR] [--cache FILE]
//! ```
//!
//! A `<scenario>` is a built-in name (`mwd list`) or a path to a
//! scenario TOML file. `run` executes its scenarios sequentially;
//! `batch` fans them out over a bounded worker pool that shares the
//! host's thread budget with each job's engine threads. `tune` fills
//! the persistent per-host tuning cache and is the only command that
//! writes it; `run`/`batch --cache` and `serve` read it to resolve
//! MWD configurations. `serve` runs the long-lived HTTP job daemon
//! with a content-addressed result store on top of the same machinery.
//!
//! `run`, `batch` and `serve` drain gracefully on SIGINT/SIGTERM:
//! in-flight jobs finish and artifacts/summaries are written.

use em_service::flags::{Flags, COUNT};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use thiim_mwd::scenarios::runner::{run_batch, BatchOptions, BatchReport};
use thiim_mwd::scenarios::{library, EngineResolver, ScenarioSpec};
use thiim_mwd::tuner;

const USAGE: &str = "mwd — declarative THIIM scenario runner

USAGE:
    mwd list [--names]                  list built-in scenarios
    mwd show <scenario>                 print a scenario as TOML
    mwd run <scenario>... [options]     run scenarios sequentially
    mwd batch [<scenario>...] [options] run scenarios on a worker pool
    mwd tune [<scenario>...] [options]  fill the per-host tuning cache
    mwd serve [options]                 run the HTTP job daemon
    mwd gen <list|emit|run|fuzz>        seeded scenario generators
    mwd dist run <scenario>... [options] distributed solve (z-slab workers)
    mwd help                            this text

SCENARIOS:
    a built-in name (see `mwd list`) or a path to a scenario .toml file;
    `batch`/`tune` with no scenarios (or with --all) use the whole catalog;
    --all does not combine with scenario names

OPTIONS (a command given an option it does not use exits 2):
    --engine <kind>    override every job's engine: auto, naive,
                       naive-periodic-xy, spatial, mwd, mwd-periodic-x
    --threads <n>      engine threads per job (default: budget share)
    --workers <n>      batch worker-pool size (default: thread budget)
    --cache <file>     tuning-cache file (tune default:
                       results/tune_cache.json); only tune writes it.
                       run/batch read it, and then resolve declared mwd
                       engines through it too
    --force            tune: retune even when the cache has an answer
    --refine <k>       tune: natively probe the model's top k finalists
                       (default 2; 0 stores the model's rank 1)
    --dry-run          validate and plan without stepping any solver
                       (tune: report hits/misses without searching)
    --out <dir>        artifact directory (default: results/scenarios;
                       serve: the content-addressed result store,
                       default results/service_store)
    --trace <file>     run/batch: write a Chrome trace-event JSON of the
                       run (per-worker job spans + per-thread-group MWD
                       phase spans); load it in Perfetto or chrome://tracing
    --quiet            suppress per-job status lines

GEN (seeded scenario generators; same (family, seed) => same spec; each
     subcommand takes only the flags listed after it, any other exits 2):
    mwd gen list                        the generator families
    mwd gen emit --family F --seed S    print the generated spec TOML
                 [--full]
    mwd gen run  --family F --seed S    generate and solve one spec
                 [--full] [--quiet] [--out DIR]
    mwd gen fuzz [--family F,...] [--seed S] [--count N] [--steps N]
                 [--full] [--corrupt] [--quiet] [--out DIR]
                                        differential fuzz: each case must
                                        validate, roundtrip, solve without
                                        NaN/panic and be bit-identical
                                        naive-vs-MWD; failures print a
                                        one-line (family, seed) repro
    --family <f[,f...]>  multilayer, rough-interface, nanoparticle,
                         nanowire (fuzz default: all, cycled)
    --seed <n>           base seed (default 42); fuzz case i uses seed+i
    --count <n>          fuzz cases (default 8; at least 1)
    --steps <n>          solver steps per fuzz case (default 6; at least 1)
    --full               draw from full-size parameter ranges instead of
                         the tiny smoke-test grids
    --corrupt            harness self-test: corrupt the MWD side and
                         require every case to be flagged
    --out <dir>          fuzz: write failing spec TOML here
                         run: artifact directory

DIST (z-axis domain decomposition; artifacts are bit-identical to a
     single-process `mwd run` of the same spec):
    mwd dist run <scenario>...          solve each scenario across worker
                                        processes, one contiguous z slab
                                        each, halo planes exchanged over
                                        local sockets
    --workers <n>        worker processes (default: the spec's `workers`
                         key; the flag overrides without changing the
                         spec hash)
    --threads <n>        engine threads across the job (default: host
                         budget), split evenly over workers
    --deadline-secs <n>  wall-clock budget; on expiry workers drain and
                         the job reports `timeout:`
    --out/--trace        as for `mwd run`
    --chaos <plan>       inject faults into the halo wire (as for serve)
    (`mwd dist worker` is the internal worker entry point, spawned by
    the coordinator; it is not meant to be invoked by hand)

SERVE OPTIONS:
    --addr <host:port>  bind address (default 127.0.0.1:7171; port 0
                        picks a free port, printed on startup)
    --workers <n>       concurrent jobs (default: min(2, host threads))
    --threads <n>       engine threads per job (default: budget share)
    --queue-depth <n>   queued-job cap before 429 (default 32)
    --cache <file>      tuning cache, read only (default
                        results/tune_cache.json); a miss ranks with the
                        model only and is kept in memory (fill the file
                        offline with `mwd tune --refine`)
    --memory-store      keep results in memory only (no --out directory)
    --io-timeout-secs <n>  total wall-clock budget per request, first
                        byte to last (default 10; requests that blow it
                        are answered 408 and counted in /metrics as
                        em_conn_timeouts_total)
    --conn-model <m>    connection plane: `event-loop` (epoll +
                        HTTP/1.1 keep-alive; Linux default) or
                        `blocking` (thread per connection, one request
                        per connection)
    --max-connections <n>  concurrent-connection cap; accepts pause at
                        the cap and resume as connections close
                        (default 1024)
    --chaos <plan>      deterministic fault injection, e.g.
                        `seed=42,panic=0.05,slow=0.2:1500,disk-error=0.05,
                        truncate=0.05,bit-flip=0.05,conn-drop=0.1`
                        (testing only; injected-fault counts appear in
                        /metrics as em_injected_faults)
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let Some(cmd) = args.first() else {
        print!("{USAGE}");
        return Ok(ExitCode::from(2));
    };
    match cmd.as_str() {
        "list" => cmd_list(&args[1..]),
        "show" => cmd_show(&args[1..]),
        "run" => cmd_run_or_batch(&args[1..], false),
        "batch" => cmd_run_or_batch(&args[1..], true),
        "tune" => cmd_tune(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "gen" => cmd_gen(&args[1..]),
        "dist" => cmd_dist(&args[1..]),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command `{other}`; try `mwd help`")),
    }
}

fn cmd_list(args: &[String]) -> Result<ExitCode, String> {
    let names_only = match args {
        [] => false,
        [flag] if flag == "--names" => true,
        _ => return Err("usage: mwd list [--names]".to_string()),
    };
    for spec in library::builtins() {
        if names_only {
            println!("{}", spec.name);
        } else {
            println!("{}", spec.summary());
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_show(args: &[String]) -> Result<ExitCode, String> {
    let [name] = args else {
        return Err("usage: mwd show <scenario>".to_string());
    };
    let spec = resolve_scenario(name)?;
    spec.validate()?;
    print!("{}", spec.to_toml_string());
    Ok(ExitCode::SUCCESS)
}

/// Parse `mwd {cmd}`'s arguments against `accepts`, the flags it takes
/// (`=` marks a flag with a value); any other flag exits 2.
fn flags(cmd: &str, accepts: &[&str], args: &[String]) -> Result<Flags, String> {
    Flags::parse(&format!("mwd {cmd}"), accepts, args).map_err(|e| format!("{e}; try `mwd help`"))
}

/// The scenarios `mwd {cmd}` names, or the whole catalog for `--all`
/// (and, where `none_is_all`, for no names).
fn named_or_all(cmd: &str, f: &Flags, none_is_all: bool) -> Result<Vec<ScenarioSpec>, String> {
    match (f.operands(), f.switch("--all")) {
        ([], true) => Ok(library::builtins()),
        ([], false) if none_is_all => Ok(library::builtins()),
        ([], false) => Err(format!(
            "usage: mwd {cmd} <scenario>... (or `mwd {cmd} --all`)"
        )),
        (_, true) => Err(format!(
            "`mwd {cmd}` takes scenario names or `--all`, not both"
        )),
        (names, false) => names.iter().map(|n| resolve_scenario(n)).collect(),
    }
}

/// A `--chaos` fault plan, parsed.
fn chaos(f: &Flags) -> Result<Option<em_faults::FaultPlan>, String> {
    f.string("--chaos")
        .map(|p| em_faults::FaultPlan::parse(p).map_err(|e| format!("--chaos: {e}")))
        .transpose()
}

fn resolve_scenario(name: &str) -> Result<ScenarioSpec, String> {
    if let Some(spec) = library::builtin(name) {
        return Ok(spec);
    }
    let path = std::path::Path::new(name);
    if path.is_file() {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        return ScenarioSpec::from_toml_str(&text).map_err(|e| format!("{}: {e}", path.display()));
    }
    Err(format!(
        "`{name}` is neither a built-in scenario nor a scenario file; \
         built-ins: {}",
        library::builtin_names().join(", ")
    ))
}

fn cmd_run_or_batch(args: &[String], batch: bool) -> Result<ExitCode, String> {
    let cmd = if batch { "batch" } else { "run" };
    let mut accepts = vec![
        "--all",
        "--engine=",
        "--threads=",
        "--cache=",
        "--dry-run",
        "--out=",
        "--trace=",
        "--quiet",
    ];
    if batch {
        accepts.push("--workers=");
    }
    let f = flags(cmd, &accepts, args)?;
    let specs = named_or_all(cmd, &f, batch)?;
    let trace = f.path("--trace");
    let recorder = if trace.is_some() {
        thiim_mwd::obs::Recorder::enabled()
    } else {
        thiim_mwd::obs::Recorder::disabled()
    };
    let dry_run = f.switch("--dry-run");
    let opts = BatchOptions {
        // `run` means "execute in order": a single worker; `batch` sizes
        // the pool from the shared thread budget unless overridden.
        workers: if batch {
            f.positive("--workers")?.unwrap_or(0)
        } else {
            1
        },
        engine_kind: f.string("--engine").map(str::to_string),
        threads: f.positive("--threads")?,
        dry_run,
        out_dir: f.path("--out").or(Some(PathBuf::from("results/scenarios"))),
        budget: mwd_core::ThreadBudget::host(),
        quiet: f.switch("--quiet"),
        tune_cache: f.path("--cache"),
        // SIGINT/SIGTERM drain the batch: workers finish their current
        // job, queued jobs are recorded as cancelled, and artifacts and
        // the batch summary are still written.
        stop: Some(em_service::shutdown::hooked_flag()),
        cancel: None,
        trace: recorder.clone(),
    };

    let report = run_batch(&specs, &opts)?;
    if let Some(path) = &trace {
        write_trace(&recorder, path)?;
    }
    print_report(&report, dry_run);
    if report.cancelled() > 0 {
        println!(
            "interrupted: {} job(s) cancelled before starting (completed work was kept)",
            report.cancelled()
        );
    }
    if report.failures() > 0 {
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// `mwd serve`: the long-running HTTP job daemon.
fn cmd_serve(args: &[String]) -> Result<ExitCode, String> {
    let f = flags(
        "serve",
        &[
            "--addr=",
            "--workers=",
            "--threads=",
            "--queue-depth=",
            "--out=",
            "--memory-store",
            "--cache=",
            "--io-timeout-secs=",
            "--conn-model=",
            "--max-connections=",
            "--chaos=",
            "--quiet",
        ],
        args,
    )?;
    if !f.operands().is_empty() {
        return Err("`mwd serve` takes no scenarios".to_string());
    }
    let out = f.path("--out");
    let memory_store = f.switch("--memory-store");
    if memory_store && out.is_some() {
        return Err("--memory-store and --out are mutually exclusive".to_string());
    }
    let cfg = em_service::ServerConfig {
        addr: f.string("--addr").unwrap_or("127.0.0.1:7171").to_string(),
        scheduler: em_service::SchedulerConfig {
            workers: f.positive("--workers")?.unwrap_or(0),
            threads_per_job: f.positive("--threads")?.unwrap_or(0),
            queue_depth: f.value("--queue-depth", COUNT)?.unwrap_or(32),
            budget: mwd_core::ThreadBudget::host(),
            ..Default::default()
        },
        store_dir: (!memory_store)
            .then(|| out.unwrap_or_else(|| PathBuf::from("results/service_store"))),
        cache_path: Some(f.path("--cache").unwrap_or_else(tuner::default_cache_path)),
        io_timeout_secs: f.positive("--io-timeout-secs")?.map_or(10, |n| n as u64),
        conn_model: f
            .string("--conn-model")
            .map(str::parse)
            .transpose()?
            .unwrap_or_default(),
        max_connections: f.positive("--max-connections")?.unwrap_or(1024),
        chaos: chaos(&f)?,
        quiet: f.switch("--quiet"),
        limits: Default::default(),
    };
    if let Some(plan) = &cfg.chaos {
        println!("chaos plan active: {}", plan.to_compact());
    }
    let server = em_service::Server::bind(&cfg)?;
    em_service::shutdown::install(server.stop_flag());
    let sched = server.scheduler();
    // The exact bound address first (tests and scripts parse this line
    // to find a port-0 daemon), then the capacity contract.
    println!("listening on http://{}", server.local_addr()?);
    println!(
        "capacity: {} worker(s) x {} thread(s) within a budget of {}; queue depth {}",
        sched.workers, sched.threads_per_job, sched.budget_total, sched.queue_depth
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    let summary = server.run()?;
    println!(
        "served {} request(s): {} completed, {} failed, {} cancelled, {} timed out; \
         {} stored result(s), dedupe rate {:.0}%",
        summary.requests,
        summary.completed,
        summary.failed,
        summary.cancelled,
        summary.timed_out,
        summary.store_entries,
        100.0 * summary.dedupe_rate,
    );
    Ok(ExitCode::SUCCESS)
}

/// `mwd tune`: resolve and persist the tuned MWD configuration for
/// each scenario's grid, reporting cache hits and misses. The only
/// command that probes natively or writes a tuning-cache file.
fn cmd_tune(args: &[String]) -> Result<ExitCode, String> {
    let f = flags(
        "tune",
        &[
            "--all",
            "--threads=",
            "--force",
            "--refine=",
            "--dry-run",
            "--cache=",
            "--quiet",
        ],
        args,
    )?;
    let specs = named_or_all("tune", &f, true)?;
    for spec in &specs {
        spec.validate()?;
    }

    let (dry_run, quiet) = (f.switch("--dry-run"), f.switch("--quiet"));
    let cache_path = f.path("--cache").unwrap_or_else(tuner::default_cache_path);
    // Tune for the thread count a sequential `mwd run` would grant
    // each job: the full host budget (or the explicit override).
    let threads = f
        .positive("--threads")?
        .unwrap_or_else(|| mwd_core::ThreadBudget::host().total());
    let refine = f.value("--refine", COUNT)?;
    let cache = tuner::TuneCache::load(&cache_path)?;
    let resolver = EngineResolver::for_tune_command(cache, f.switch("--force"), refine);

    let mut hits = 0usize;
    let mut misses = 0usize;
    let mut probes = 0usize;
    for spec in &specs {
        let heading = format!("{:<18} {:>11}", spec.name, format!("{}", spec.dims()));
        if dry_run {
            if quiet {
                continue;
            }
            if let Some(p) = resolver.preview(spec.engine, spec.dims(), threads)? {
                let status = match &p.cached {
                    Some((config, stage)) => format!("hit     {config} ({stage})"),
                    None => "miss    (would tune)".to_string(),
                };
                println!("{heading}  {:<14} t{:<3} {status}", p.kind, p.threads);
                // Why a configuration wins: the model ranking's
                // finalists with the three factors behind each score.
                for f in &p.finalists {
                    println!("    {f}");
                }
            }
            continue;
        }
        let r = resolver
            .resolve(spec.engine, spec.dims(), threads)
            .map_err(|e| format!("scenario `{}`: {e}", spec.name))?;
        let Some(t) = r.tuned else { continue };
        if t.cache_hit {
            hits += 1;
        } else {
            misses += 1;
        }
        probes += t.native_probes;
        if !quiet {
            println!(
                "{heading}  {:<14} t{:<3} {:<5} {:<8} {:<32} {:>8.1} MLUP/s",
                r.decl.kind(),
                r.decl.threads(),
                if t.cache_hit { "hit" } else { "miss" },
                t.stage,
                t.config,
                t.score_mlups,
            );
        }
    }

    if dry_run {
        println!(
            "dry run: {} scenario(s) against {} ({} entries)",
            specs.len(),
            cache_path.display(),
            resolver.cached_entries()
        );
        return Ok(ExitCode::SUCCESS);
    }
    resolver.save()?;
    println!(
        "tuned {} scenario(s): {hits} cache hit(s), {misses} miss(es), \
         {probes} native probe(s); cache {} ({} entries)",
        specs.len(),
        cache_path.display(),
        resolver.cached_entries()
    );
    Ok(ExitCode::SUCCESS)
}

/// `mwd gen`: the seeded scenario generators and the differential fuzz
/// harness; each subcommand takes its own flags.
fn cmd_gen(args: &[String]) -> Result<ExitCode, String> {
    use thiim_mwd::scenarios::gen::{generate, run_fuzz, Family, FuzzOptions, GenParams};

    let Some(sub) = args.first().map(String::as_str) else {
        return Err("usage: mwd gen <list|emit|run|fuzz> [options]; try `mwd help`".to_string());
    };
    let accepts: &[&str] = match sub {
        "list" => &[],
        "emit" => &["--family=", "--seed=", "--full"],
        "run" => &["--family=", "--seed=", "--full", "--quiet", "--out="],
        "fuzz" => &[
            "--family=",
            "--seed=",
            "--count=",
            "--steps=",
            "--full",
            "--corrupt",
            "--quiet",
            "--out=",
        ],
        other => {
            return Err(format!(
                "unknown `mwd gen` subcommand `{other}`; try `mwd help`"
            ))
        }
    };
    let f = flags(&format!("gen {sub}"), accepts, &args[1..])?;
    f.no_operands()?;
    if sub == "list" {
        for f in Family::ALL {
            println!("{:<16} {}", f.name(), f.description());
        }
        return Ok(ExitCode::SUCCESS);
    }

    let families = f
        .all("--family")
        .flat_map(|list| list.split(','))
        .map(|name| name.trim().parse())
        .collect::<Result<Vec<Family>, _>>()?;
    let seed = f.value("--seed", COUNT)?.unwrap_or(42);
    let params = if f.switch("--full") {
        GenParams::default()
    } else {
        GenParams::tiny()
    };

    if sub == "fuzz" {
        let (corrupt, quiet) = (f.switch("--corrupt"), f.switch("--quiet"));
        let opts = FuzzOptions {
            count: f.positive("--count")?.unwrap_or(8),
            seed,
            families: if families.is_empty() {
                Family::ALL.to_vec()
            } else {
                families
            },
            params,
            steps: f.positive("--steps")?.unwrap_or(6),
            corrupt,
            out_dir: f.path("--out"),
        };
        let report = run_fuzz(&opts)?;
        for f in &report.failures {
            eprintln!("FAIL {}", f.summary());
            eprintln!("     {}", f.repro_line());
        }
        if !quiet || !report.ok() {
            println!(
                "gen fuzz: {} case(s), {} failure(s){}",
                report.cases,
                report.failures.len(),
                if corrupt { " (corrupt mode)" } else { "" }
            );
        }
        return Ok(if report.ok() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }

    let [family] = families.as_slice() else {
        return Err(format!(
            "usage: mwd gen {sub} --family <one family> --seed <n>"
        ));
    };
    let spec = generate(*family, seed, &params)?;
    if sub == "emit" {
        print!("{}", spec.to_toml_string());
        return Ok(ExitCode::SUCCESS);
    }
    let report = run_batch(
        &[spec],
        &BatchOptions {
            workers: 1,
            out_dir: f.path("--out").or(Some(PathBuf::from("results/scenarios"))),
            budget: mwd_core::ThreadBudget::host(),
            quiet: f.switch("--quiet"),
            stop: Some(em_service::shutdown::hooked_flag()),
            ..Default::default()
        },
    )?;
    print_report(&report, false);
    Ok(if report.failures() > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// `mwd dist`: distributed solves (and the internal worker entry).
fn cmd_dist(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("run") => cmd_dist_run(&args[1..]),
        Some("worker") => cmd_dist_worker(&args[1..]),
        _ => Err("usage: mwd dist run <scenario>... [options]; try `mwd help`".to_string()),
    }
}

fn cmd_dist_run(args: &[String]) -> Result<ExitCode, String> {
    use thiim_mwd::dist::{run_dist, DistOptions, Launcher};

    let f = flags(
        "dist run",
        &[
            "--workers=",
            "--threads=",
            "--deadline-secs=",
            "--out=",
            "--trace=",
            "--chaos=",
        ],
        args,
    )?;
    if f.operands().is_empty() {
        return Err("usage: mwd dist run <scenario>... [options]".to_string());
    }
    let specs: Vec<ScenarioSpec> = f
        .operands()
        .iter()
        .map(|n| resolve_scenario(n))
        .collect::<Result<_, _>>()?;
    let workers = f.positive("--workers")?;
    let threads = f
        .positive("--threads")?
        .unwrap_or_else(|| mwd_core::ThreadBudget::host().total());
    let deadline_secs = f.positive("--deadline-secs")?;

    // SIGINT/SIGTERM drain: the coordinator aborts every worker over
    // the control protocol, workers exit cleanly, and whatever
    // completed is still written. An optional wall-clock deadline
    // rides the same token.
    let stop = em_service::shutdown::hooked_flag();
    let deadline =
        deadline_secs.map(|s| std::time::Instant::now() + std::time::Duration::from_secs(s as u64));
    let cancel = mwd_core::CancelToken::with_flag(stop, deadline);
    let trace = f.path("--trace");
    let recorder = if trace.is_some() {
        thiim_mwd::obs::Recorder::enabled()
    } else {
        thiim_mwd::obs::Recorder::disabled()
    };

    let t0 = std::time::Instant::now();
    let mut outcomes = Vec::new();
    let mut summaries = Vec::new();
    let mut workers_used = 1;
    for spec in &specs {
        // The flag overrides the spec's `workers` knob without
        // mutating the spec, so the artifact's spec hash matches a
        // single-process run byte for byte.
        let workers = workers.unwrap_or_else(|| spec.workers.max(1));
        workers_used = workers_used.max(workers);
        let opts = DistOptions {
            workers,
            threads,
            launcher: Launcher::Process {
                chaos: f.string("--chaos").map(str::to_string),
            },
            cancel: cancel.clone(),
            trace: recorder.clone(),
            trace_parent: 0,
            // One registry per spec: its per-worker series are this
            // spec's summary line.
            registry: Some(std::sync::Arc::new(thiim_mwd::obs::Registry::new())),
            faults: None,
        };
        outcomes.extend(run_dist(spec, &opts)?);
        summaries.push(dist_summary(&spec.name, &opts));
    }
    // Renumber into one flat batch, mirroring `run_batch`'s
    // deterministic job order across specs.
    for (i, out) in outcomes.iter_mut().enumerate() {
        out.job = i;
    }
    let mut report = BatchReport {
        outcomes,
        workers: workers_used,
        threads_per_job: threads,
        max_in_flight: 1,
        wall_secs: t0.elapsed().as_secs_f64(),
    };
    let dir = f
        .path("--out")
        .unwrap_or_else(|| PathBuf::from("results/scenarios"));
    thiim_mwd::scenarios::write_artifacts(&dir, &mut report.outcomes)?;

    if let Some(path) = &trace {
        write_trace(&recorder, path)?;
    }
    print_report(&report, false);
    for line in &summaries {
        println!("{line}");
    }
    if report.cancelled() > 0 {
        println!(
            "interrupted: {} job(s) drained cleanly (completed work was kept)",
            report.cancelled()
        );
    }
    // A SIGTERM drain is a clean exit; anything else with an error —
    // including a deadline expiry — is a failure.
    if report.failures() > report.cancelled() {
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// Where one spec's worker-periods went, summed over its workers from
/// the series the coordinator recorded into `opts.registry`: the halo
/// depth `k`, halo blocks applied (at most `2 * ceil(spp / k)` per
/// worker-period), blocked halo waits, seconds per period phase, and
/// the per-job field gathers (one slab per worker per job) with the
/// seconds they took.
fn dist_summary(name: &str, opts: &thiim_mwd::dist::DistOptions) -> String {
    use thiim_mwd::dist::{
        GATHERS_METRIC, GATHER_SECONDS_METRIC, HALO_DEPTH_METRIC, HALO_EXCHANGES_METRIC,
        HALO_WAIT_METRIC, PERIOD_PHASES, PERIOD_PHASE_METRIC,
    };
    let reg = opts.registry.as_ref().expect("dist run registers metrics");
    let (mut exchanges, mut wait_s, mut periods, mut gathers) = (0, 0.0, 0, 0);
    let mut phase_s = [0.0; 3];
    for w in 0..opts.workers {
        let idx = w.to_string();
        let worker = ("worker", idx.as_str());
        exchanges += reg.counter(HALO_EXCHANGES_METRIC, "", &[worker]).get();
        gathers += reg.counter(GATHERS_METRIC, "", &[worker]).get();
        wait_s += reg
            .histogram(HALO_WAIT_METRIC, "", &[worker])
            .snapshot()
            .sum;
        let phases = PERIOD_PHASES.map(|phase| {
            reg.histogram(PERIOD_PHASE_METRIC, "", &[worker, ("phase", phase)])
                .snapshot()
        });
        // One observation per phase per worker-period.
        periods += phases[0].count();
        for (total, snap) in phase_s.iter_mut().zip(&phases) {
            *total += snap.sum;
        }
    }
    format!(
        "dist {name}: workers {}, halo depth {}, worker-periods {periods}, \
         halo_exchanges {exchanges} ({:.2} per worker-period), halo_wait_s {wait_s:.6}, \
         compute_s {:.6}, exchange_s {:.6}, reduce_s {:.6}, final_gather_s {:.6}, \
         gathers {gathers}",
        opts.workers,
        reg.gauge(HALO_DEPTH_METRIC, "", &[]).get(),
        exchanges as f64 / periods.max(1) as f64,
        phase_s[0],
        phase_s[1],
        phase_s[2],
        reg.histogram(GATHER_SECONDS_METRIC, "", &[]).snapshot().sum,
    )
}

/// The worker side of `mwd dist run` — spawned by the coordinator,
/// never by hand.
fn cmd_dist_worker(args: &[String]) -> Result<ExitCode, String> {
    use thiim_mwd::dist::{run_worker, WorkerConfig};

    let f = flags("dist worker", &["--connect=", "--index=", "--chaos="], args)?;
    f.no_operands()?;
    let cfg = WorkerConfig {
        connect: f
            .string("--connect")
            .ok_or("mwd dist worker needs --connect <addr>")?
            .to_string(),
        index: f
            .value("--index", COUNT)?
            .ok_or("mwd dist worker needs --index <n>")?,
        faults: chaos(&f)?.map(|plan| std::sync::Arc::new(em_faults::FaultInjector::new(plan))),
    };
    match run_worker(&cfg) {
        Ok(()) => Ok(ExitCode::SUCCESS),
        Err(e) => {
            eprintln!("dist worker {}: {e}", cfg.index);
            Ok(ExitCode::FAILURE)
        }
    }
}

/// The `--trace` epilogue: drain the recorder into a Chrome trace file
/// and print what it held: phase totals and each build's coefficient
/// rows.
fn write_trace(recorder: &thiim_mwd::obs::Recorder, path: &Path) -> Result<(), String> {
    let trace = recorder.drain();
    trace
        .write_chrome(path)
        .map_err(|e| format!("cannot write trace {}: {e}", path.display()))?;
    println!(
        "trace: {} span(s) on {} thread(s) -> {}{}",
        trace.spans.len(),
        trace.threads.len(),
        path.display(),
        if trace.dropped > 0 {
            format!(" ({} span(s) dropped by ring buffers)", trace.dropped)
        } else {
            String::new()
        }
    );
    for p in trace.phase_totals() {
        println!(
            "  phase {:<16} {:>8} span(s) {:>10.3} ms total",
            p.name,
            p.count,
            p.total_us / 1e3
        );
    }
    // Where the bytes went: what every solver build left in its 28
    // coefficient arrays, next to Eq. 12's dense 28 x 16 B/cell.
    for s in trace.spans.iter().filter(|s| s.name == "solver_build") {
        let kv = |key: &str| {
            let (_, v) = s.kv.iter().find(|(k, _)| *k == key)?;
            v.parse::<u64>().ok()
        };
        let (Some(distinct), Some(total), Some(bytes)) = (
            kv("coeff_rows_distinct"),
            kv("coeff_rows_total"),
            kv("coeff_bytes"),
        ) else {
            continue;
        };
        let thread = trace.threads.iter().find(|(tid, _)| *tid == s.thread);
        println!(
            "  coeffs {:<14} {distinct} of {total} rows distinct ({:.2} %), {bytes} B",
            thread.map_or("", |(_, name)| name.as_str()),
            100.0 * distinct as f64 / total as f64
        );
    }
    Ok(())
}

fn print_report(report: &BatchReport, dry_run: bool) {
    println!();
    println!(
        "{:>3}  {:<18} {:>7}  {:<34} {:>9} {:>7}  status",
        "job", "scenario", "lambda", "engine", "periods", "wall"
    );
    for o in &report.outcomes {
        let status = match (&o.error, o.dry_run, o.converged) {
            (Some(e), _, _) => format!("FAILED: {e}"),
            (None, true, _) => "dry-run ok".to_string(),
            (None, false, true) => "converged".to_string(),
            (None, false, false) => "not converged".to_string(),
        };
        println!(
            "{:>3}  {:<18} {:>4} nm  {:<34} {:>9} {:>6.2}s  {}",
            o.job, o.scenario, o.lambda_nm, o.engine, o.periods, o.wall_secs, status
        );
    }
    println!();
    if dry_run {
        println!(
            "dry run: {} jobs validated on {} worker(s)",
            report.outcomes.len(),
            report.workers
        );
    } else {
        println!(
            "{} jobs on {} worker(s) x {} thread(s), peak {} in flight, {:.2}s wall, {} failed",
            report.outcomes.len(),
            report.workers,
            report.threads_per_job,
            report.max_in_flight,
            report.wall_secs,
            report.failures()
        );
        if let Some(a) = report.outcomes.iter().find_map(|o| o.artifact.as_ref()) {
            println!(
                "artifacts: {}",
                a.parent().unwrap_or(std::path::Path::new(".")).display()
            );
        }
    }
    let (hits, misses, probes) = report.tune_stats();
    if hits + misses > 0 {
        println!("tuning: {hits} cache hit(s), {misses} miss(es), {probes} native probe(s)");
    }
}
