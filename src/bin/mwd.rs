//! `mwd` — the scenario CLI.
//!
//! ```text
//! mwd list [--names]
//! mwd show <scenario>
//! mwd run <scenario>... [--engine K] [--threads N] [--tune] [--dry-run]
//! mwd batch [<scenario>... | --all] [--workers N] [--engine K]
//!           [--threads N] [--tune] [--cache FILE] [--dry-run] [--out DIR]
//! mwd tune [<scenario>... | --all] [--force] [--dry-run] [--cache FILE]
//! mwd serve [--addr HOST:PORT] [--workers N] [--threads N]
//!           [--queue-depth N] [--out DIR] [--cache FILE]
//! ```
//!
//! A `<scenario>` is a built-in name (`mwd list`) or a path to a
//! scenario TOML file. `run` executes its scenarios sequentially;
//! `batch` fans them out over a bounded worker pool that shares the
//! host's thread budget with each job's engine threads. `tune` fills
//! the persistent per-host tuning cache that `--tune` (and
//! `engine = "auto"` specs) resolve MWD configurations from. `serve`
//! runs the long-lived HTTP job daemon with a content-addressed result
//! store on top of the same machinery.
//!
//! `run`, `batch` and `serve` drain gracefully on SIGINT/SIGTERM:
//! in-flight jobs finish, artifacts/summaries are written, and the
//! tuning cache is persisted.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use thiim_mwd::scenarios::runner::{run_batch, BatchOptions, BatchReport, TunePlan};
use thiim_mwd::scenarios::spec::EngineDecl;
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
    `batch`/`tune` with no scenarios (or with --all) use the whole catalog

OPTIONS (a command given an option it does not use exits 2):
    --engine <kind>    override every job's engine: auto, naive,
                       naive-periodic-xy, spatial, mwd, mwd-periodic-x
    --threads <n>      engine threads per job (default: budget share)
    --workers <n>      batch worker-pool size (default: thread budget)
    --tune             resolve MWD-family engines through the tuning cache
    --cache <file>     tuning-cache path (default: results/tune_cache.json;
                       implies --tune for run/batch)
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

GEN (seeded scenario generators; same (family, seed) => same spec):
    mwd gen list                        the generator families
    mwd gen emit --family F --seed S    print the generated spec TOML
    mwd gen run  --family F --seed S    generate and solve one spec
    mwd gen fuzz [--count N] [--seed S] differential fuzz: each case must
                                        validate, roundtrip, solve without
                                        NaN/panic and be bit-identical
                                        naive-vs-MWD; failures print a
                                        one-line (family, seed) repro
    --family <f[,f...]>  multilayer, rough-interface, nanoparticle,
                         nanowire (fuzz default: all, cycled)
    --seed <n>           base seed (default 42); fuzz case i uses seed+i
    --count <n>          fuzz cases (default 8)
    --steps <n>          solver steps per fuzz case (default 6)
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
    --cache <file>      tuning cache; a miss ranks with the model only
                        (probe offline with `mwd tune --refine`)
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

struct CliOpts {
    scenarios: Vec<String>,
    all: bool,
    engine: Option<String>,
    threads: Option<usize>,
    workers: Option<usize>,
    dry_run: bool,
    out: Option<PathBuf>,
    quiet: bool,
    tune: bool,
    cache: Option<PathBuf>,
    force: bool,
    refine: Option<usize>,
    addr: Option<String>,
    queue_depth: Option<usize>,
    memory_store: bool,
    trace: Option<PathBuf>,
    io_timeout_secs: Option<u64>,
    conn_model: Option<em_service::ConnModel>,
    max_connections: Option<usize>,
    chaos: Option<String>,
    deadline_secs: Option<u64>,
}

/// The flags each command that goes through [`parse_opts`] accepts.
const RUN_FLAGS: &str =
    "--all --engine --threads --tune --cache --force --refine --dry-run --out --trace --quiet";
const BATCH_FLAGS: &str = "--all --engine --threads --tune --cache --force --refine --dry-run \
                           --out --trace --quiet --workers";
const TUNE_FLAGS: &str = "--all --threads --force --refine --dry-run --cache --quiet";
const SERVE_FLAGS: &str = "--addr --workers --threads --queue-depth --out --memory-store --cache \
                           --io-timeout-secs --conn-model --max-connections --chaos --quiet";
const DIST_RUN_FLAGS: &str = "--workers --threads --deadline-secs --out --trace --chaos";

/// Parse `mwd {cmd}`'s arguments; a flag not in `accepts` (one of the
/// lists above) exits 2 instead of being silently ignored, and so does
/// a listed flag this parser does not know.
fn parse_opts(cmd: &str, accepts: &str, args: &[String]) -> Result<CliOpts, String> {
    let mut o = CliOpts {
        scenarios: Vec::new(),
        all: false,
        engine: None,
        threads: None,
        workers: None,
        dry_run: false,
        out: None,
        quiet: false,
        tune: false,
        cache: None,
        force: false,
        refine: None,
        addr: None,
        queue_depth: None,
        memory_store: false,
        trace: None,
        io_timeout_secs: None,
        conn_model: None,
        max_connections: None,
        chaos: None,
        deadline_secs: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let mut count = |flag: &str| -> Result<usize, String> {
            value(flag)?
                .parse()
                .map_err(|_| format!("{flag} needs a non-negative integer"))
        };
        match a.as_str() {
            name if !name.starts_with("--") => o.scenarios.push(name.to_string()),
            flag if !accepts.split_whitespace().any(|f| f == flag) => {
                return Err(format!(
                    "`mwd {cmd}` does not take `{flag}`; try `mwd help`"
                ))
            }
            "--all" => o.all = true,
            "--dry-run" => o.dry_run = true,
            "--quiet" => o.quiet = true,
            "--tune" => o.tune = true,
            "--force" => o.force = true,
            "--engine" => o.engine = Some(value("--engine")?),
            "--threads" => o.threads = Some(count("--threads")?),
            "--workers" => o.workers = Some(count("--workers")?),
            "--refine" => o.refine = Some(count("--refine")?),
            "--cache" => o.cache = Some(PathBuf::from(value("--cache")?)),
            "--out" => o.out = Some(PathBuf::from(value("--out")?)),
            "--addr" => o.addr = Some(value("--addr")?),
            "--trace" => o.trace = Some(PathBuf::from(value("--trace")?)),
            "--queue-depth" => o.queue_depth = Some(count("--queue-depth")?),
            "--memory-store" => o.memory_store = true,
            "--io-timeout-secs" => {
                o.io_timeout_secs = Some(
                    value("--io-timeout-secs")?
                        .parse::<u64>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or("--io-timeout-secs needs a positive integer")?,
                )
            }
            "--conn-model" => o.conn_model = Some(value("--conn-model")?.parse()?),
            "--max-connections" => {
                o.max_connections = Some(
                    value("--max-connections")?
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or("--max-connections needs a positive integer")?,
                )
            }
            "--chaos" => o.chaos = Some(value("--chaos")?),
            "--deadline-secs" => {
                o.deadline_secs = Some(
                    value("--deadline-secs")?
                        .parse::<u64>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or("--deadline-secs needs a positive integer")?,
                )
            }
            flag => return Err(format!("unknown option `{flag}`; try `mwd help`")),
        }
    }
    if o.threads == Some(0) {
        return Err("--threads needs a positive integer".to_string());
    }
    if o.workers == Some(0) {
        return Err("--workers needs a positive integer".to_string());
    }
    Ok(o)
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
    let o = if batch {
        parse_opts("batch", BATCH_FLAGS, args)?
    } else {
        parse_opts("run", RUN_FLAGS, args)?
    };
    let specs: Vec<ScenarioSpec> = if o.scenarios.is_empty() || o.all {
        if !batch && !o.all {
            return Err("usage: mwd run <scenario>... (or `mwd run --all`)".to_string());
        }
        library::builtins()
    } else {
        o.scenarios
            .iter()
            .map(|n| resolve_scenario(n))
            .collect::<Result<_, _>>()?
    };

    // `--cache` implies `--tune`: naming the cache only makes sense if
    // the batch resolves configurations through it.
    let tune = (o.tune || o.cache.is_some()).then(|| TunePlan {
        cache_path: Some(o.cache.clone().unwrap_or_else(tuner::default_cache_path)),
        force: o.force,
        refine_top: o.refine.unwrap_or(0),
    });
    // SIGINT/SIGTERM drain the batch: workers finish their current job,
    // queued jobs are recorded as cancelled, artifacts and the batch
    // summary are still written (the tuning cache is persisted before
    // any job steps).
    let stop = em_service::shutdown::hooked_flag();
    let recorder = if o.trace.is_some() {
        thiim_mwd::obs::Recorder::enabled()
    } else {
        thiim_mwd::obs::Recorder::disabled()
    };
    let opts = BatchOptions {
        // `run` means "execute in order": a single worker; `batch` sizes
        // the pool from the shared thread budget unless overridden.
        workers: if batch { o.workers.unwrap_or(0) } else { 1 },
        engine_kind: o.engine.clone(),
        threads: o.threads,
        dry_run: o.dry_run,
        out_dir: Some(o.out.unwrap_or_else(|| PathBuf::from("results/scenarios"))),
        budget: mwd_core::ThreadBudget::host(),
        quiet: o.quiet,
        tune,
        stop: Some(stop),
        cancel: None,
        trace: recorder.clone(),
    };
    if let Some(kind) = &o.engine {
        // Fail on typos before any validation output scrolls past.
        EngineDecl::auto(kind, 1)?;
    }

    let report = run_batch(&specs, &opts)?;
    if let Some(path) = &o.trace {
        write_trace(&recorder, path)?;
    }
    print_report(&report, o.dry_run);
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
    let o = parse_opts("serve", SERVE_FLAGS, args)?;
    if !o.scenarios.is_empty() {
        return Err("`mwd serve` takes no scenarios".to_string());
    }
    if o.memory_store && o.out.is_some() {
        return Err("--memory-store and --out are mutually exclusive".to_string());
    }
    let cfg = em_service::ServerConfig {
        addr: o.addr.unwrap_or_else(|| "127.0.0.1:7171".to_string()),
        scheduler: em_service::SchedulerConfig {
            workers: o.workers.unwrap_or(0),
            threads_per_job: o.threads.unwrap_or(0),
            queue_depth: o.queue_depth.unwrap_or(32),
            budget: mwd_core::ThreadBudget::host(),
            ..Default::default()
        },
        store_dir: if o.memory_store {
            None
        } else {
            Some(
                o.out
                    .unwrap_or_else(|| PathBuf::from("results/service_store")),
            )
        },
        cache_path: Some(o.cache.unwrap_or_else(tuner::default_cache_path)),
        io_timeout_secs: o.io_timeout_secs.unwrap_or(10),
        conn_model: o.conn_model.unwrap_or_default(),
        max_connections: o.max_connections.unwrap_or(1024),
        chaos: o
            .chaos
            .as_deref()
            .map(|p| em_faults::FaultPlan::parse(p).map_err(|e| format!("--chaos: {e}")))
            .transpose()?,
        quiet: o.quiet,
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
         {} stored result(s), dedupe rate {:.0}%{}",
        summary.requests,
        summary.completed,
        summary.failed,
        summary.cancelled,
        summary.timed_out,
        summary.store_entries,
        100.0 * summary.dedupe_rate,
        if summary.cache_saved {
            "; tuning cache saved"
        } else {
            ""
        }
    );
    Ok(ExitCode::SUCCESS)
}

/// `mwd tune`: resolve (and persist) the tuned MWD configuration for
/// each scenario's grid, reporting cache hits and misses.
fn cmd_tune(args: &[String]) -> Result<ExitCode, String> {
    let o = parse_opts("tune", TUNE_FLAGS, args)?;
    let specs: Vec<ScenarioSpec> = if o.scenarios.is_empty() || o.all {
        library::builtins()
    } else {
        o.scenarios
            .iter()
            .map(|n| resolve_scenario(n))
            .collect::<Result<_, _>>()?
    };
    for spec in &specs {
        spec.validate()?;
    }

    let cache_path = o.cache.unwrap_or_else(tuner::default_cache_path);
    let resolver = EngineResolver::for_tune_command(&cache_path, o.force, o.refine, o.dry_run)?;
    // Tune for the thread count a sequential `mwd run --tune` would
    // grant each job: the full host budget (or the explicit override).
    let threads = o
        .threads
        .unwrap_or_else(|| mwd_core::ThreadBudget::host().total());

    let mut hits = 0usize;
    let mut misses = 0usize;
    let mut probes = 0usize;
    for spec in &specs {
        let heading = format!("{:<18} {:>11}", spec.name, format!("{}", spec.dims()));
        if o.dry_run {
            if o.quiet {
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
        if !o.quiet {
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

    if o.dry_run {
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
/// harness. Has its own flag set (family/seed/count/steps are not
/// meaningful to the other subcommands), so it parses independently of
/// [`parse_opts`].
fn cmd_gen(args: &[String]) -> Result<ExitCode, String> {
    use thiim_mwd::scenarios::gen::{generate, run_fuzz, Family, FuzzOptions, GenParams};

    let Some(sub) = args.first() else {
        return Err("usage: mwd gen <list|emit|run|fuzz> [options]; try `mwd help`".to_string());
    };
    if sub == "list" {
        for f in Family::ALL {
            println!("{:<16} {}", f.name(), f.description());
        }
        return Ok(ExitCode::SUCCESS);
    }

    // gen-specific flags.
    let mut families: Vec<Family> = Vec::new();
    let mut seed: u64 = 42;
    let mut count: usize = 8;
    let mut steps: usize = 6;
    let mut full = false;
    let mut corrupt = false;
    let mut quiet = false;
    let mut out: Option<PathBuf> = None;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--family" => {
                for name in value("--family")?.split(',') {
                    families.push(Family::from_name(name.trim()).ok_or_else(|| {
                        format!(
                            "unknown family `{name}` (known: {})",
                            Family::ALL
                                .iter()
                                .map(|f| f.name())
                                .collect::<Vec<_>>()
                                .join(", ")
                        )
                    })?);
                }
            }
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed needs a non-negative integer".to_string())?;
            }
            "--count" => {
                count = value("--count")?
                    .parse()
                    .map_err(|_| "--count needs a positive integer".to_string())?;
            }
            "--steps" => {
                steps = value("--steps")?
                    .parse()
                    .map_err(|_| "--steps needs a positive integer".to_string())?;
            }
            "--full" => full = true,
            "--corrupt" => corrupt = true,
            "--quiet" => quiet = true,
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            other => {
                return Err(format!(
                    "unknown `mwd gen` option `{other}`; try `mwd help`"
                ))
            }
        }
    }
    let params = if full {
        GenParams::default()
    } else {
        GenParams::tiny()
    };

    match sub.as_str() {
        "emit" | "run" => {
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
            let stop = em_service::shutdown::hooked_flag();
            let report = run_batch(
                &[spec],
                &BatchOptions {
                    workers: 1,
                    out_dir: Some(out.unwrap_or_else(|| PathBuf::from("results/scenarios"))),
                    budget: mwd_core::ThreadBudget::host(),
                    quiet,
                    stop: Some(stop),
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
        "fuzz" => {
            let opts = FuzzOptions {
                count,
                seed,
                families: if families.is_empty() {
                    Family::ALL.to_vec()
                } else {
                    families
                },
                params,
                steps,
                corrupt,
                out_dir: out,
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
            Ok(if report.ok() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        other => Err(format!(
            "unknown `mwd gen` subcommand `{other}`; try `mwd help`"
        )),
    }
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

    let o = parse_opts("dist run", DIST_RUN_FLAGS, args)?;
    if o.scenarios.is_empty() {
        return Err("usage: mwd dist run <scenario>... [options]".to_string());
    }
    let specs: Vec<ScenarioSpec> = o
        .scenarios
        .iter()
        .map(|n| resolve_scenario(n))
        .collect::<Result<_, _>>()?;

    // SIGINT/SIGTERM drain: the coordinator aborts every worker over
    // the control protocol, workers exit cleanly, and whatever
    // completed is still written. An optional wall-clock deadline
    // rides the same token.
    let stop = em_service::shutdown::hooked_flag();
    let deadline = o
        .deadline_secs
        .map(|s| std::time::Instant::now() + std::time::Duration::from_secs(s));
    let cancel = mwd_core::CancelToken::with_flag(stop, deadline);
    let recorder = if o.trace.is_some() {
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
        let workers = o.workers.unwrap_or_else(|| spec.workers.max(1));
        workers_used = workers_used.max(workers);
        let opts = DistOptions {
            workers,
            threads: o
                .threads
                .unwrap_or_else(|| mwd_core::ThreadBudget::host().total()),
            launcher: Launcher::Process {
                chaos: o.chaos.clone(),
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
        threads_per_job: o
            .threads
            .unwrap_or_else(|| mwd_core::ThreadBudget::host().total()),
        max_in_flight: 1,
        wall_secs: t0.elapsed().as_secs_f64(),
    };
    let dir = o.out.unwrap_or_else(|| PathBuf::from("results/scenarios"));
    thiim_mwd::scenarios::write_artifacts(&dir, &mut report.outcomes)?;

    if let Some(path) = &o.trace {
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

    let mut connect: Option<String> = None;
    let mut index: Option<usize> = None;
    let mut chaos: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--connect" => connect = Some(value("--connect")?),
            "--index" => {
                index = Some(
                    value("--index")?
                        .parse()
                        .map_err(|_| "--index needs a non-negative integer".to_string())?,
                )
            }
            "--chaos" => chaos = Some(value("--chaos")?),
            other => return Err(format!("unknown `mwd dist worker` option `{other}`")),
        }
    }
    let cfg = WorkerConfig {
        connect: connect.ok_or("mwd dist worker needs --connect <addr>")?,
        index: index.ok_or("mwd dist worker needs --index <n>")?,
        faults: chaos
            .as_deref()
            .map(|p| em_faults::FaultPlan::parse(p).map_err(|e| format!("--chaos: {e}")))
            .transpose()?
            .map(|plan| std::sync::Arc::new(em_faults::FaultInjector::new(plan))),
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Each allow-list names only flags `parse_opts` knows.
    #[test]
    fn every_listed_flag_is_parsed() {
        let lists = [
            RUN_FLAGS,
            BATCH_FLAGS,
            TUNE_FLAGS,
            SERVE_FLAGS,
            DIST_RUN_FLAGS,
        ];
        for list in lists {
            for flag in list.split_whitespace() {
                let args = [flag.to_string(), "1".to_string()];
                if let Err(e) = parse_opts("x", list, &args) {
                    assert!(!e.contains("unknown option"), "{flag}: {e}");
                }
            }
        }
    }
}
