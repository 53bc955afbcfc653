//! `chemcost` — command-line interface to the resource-estimation
//! framework.
//!
//! ```text
//! chemcost generate --machine aurora --out data.csv [--size N] [--seed S]
//! chemcost train    --data data.csv --out model.ccgb [--fast]
//! chemcost advise   --model model.ccgb --machine aurora --o 120 --v 900
//!                   [--goal stq|bq|pareto] [--budget NODE_HOURS] [--deadline SECONDS]
//! chemcost evaluate --model model.ccgb --data test.csv
//! chemcost importance --model model.ccgb --data data.csv
//! ```
//!
//! The CSV format is the one `chemcost-sim` writes
//! (`o,v,nodes,tile,seconds,node_hours` with a header row); `generate`
//! produces it from the bundled simulator, but measured data from a real
//! machine works identically.

use chemcost::core::advisor::{Advisor, Goal};
use chemcost::core::data::{samples_to_dataset, Target};
use chemcost::core::evaluation::features_of;
use chemcost::ml::gradient_boosting::GradientBoosting;
use chemcost::ml::importance::ranked_importance;
use chemcost::ml::metrics::Scores;
use chemcost::ml::persist::{load_gb, save_gb};
use chemcost::ml::Regressor;
use chemcost::serve::{
    ChaosProfile, Client, FaultPlane, ModelRegistry, RetryPolicy, Router, Server,
};
use chemcost::sim::datagen::{generate_dataset_sized, read_csv, table1_count, write_csv};
use chemcost::sim::machine::by_name;
use chemcost::sim::molecules::{self, BasisSet};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Parsed `--key value` / `--key=value` options plus the leading
/// subcommand.
#[derive(Debug)]
struct Args {
    command: String,
    options: HashMap<String, String>,
}

/// The options each subcommand understands; anything else is an error.
/// `None` means the command itself is unknown — main reports that with
/// the usage text, so option validation stays out of the way.
fn known_options(command: &str) -> Option<&'static [&'static str]> {
    match command {
        "generate" => Some(&["machine", "out", "size", "seed"]),
        "train" => Some(&["data", "out", "fast", "seed"]),
        "advise" => {
            Some(&["model", "machine", "o", "v", "molecule", "basis", "goal", "budget", "deadline"])
        }
        "evaluate" | "importance" => Some(&["model", "data"]),
        "serve" => Some(&[
            "addr",
            "model",
            "machine",
            "workers",
            "queue-cap",
            "max-conns",
            "chaos",
            "default-deadline-ms",
            "scrape-interval-ms",
            "slo-file",
        ]),
        "call" => Some(&["addr", "method", "path", "body", "deadline-ms", "retries"]),
        "quality" => Some(&["addr", "next"]),
        "top" => Some(&["addr", "slowest", "recent", "n", "watch", "route", "interval-ms"]),
        "health" => Some(&["addr", "watch", "window"]),
        "lifecycle" => {
            Some(&["addr", "model", "machine", "promote", "rollback", "freeze", "unfreeze"])
        }
        "version" | "--version" | "-V" => Some(&[]),
        "trace" => Some(&[
            "machine", "o", "v", "molecule", "basis", "nodes", "tile", "noise", "seed", "out",
        ]),
        "molecules" | "help" | "--help" | "-h" => Some(&[]),
        _ => None,
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let command = argv.first().cloned().ok_or("missing subcommand")?;
    let mut options = HashMap::new();
    let mut i = 1;
    while i < argv.len() {
        let key = argv[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --option, got {:?}", argv[i]))?;
        // `--key=value` form.
        if let Some((key, value)) = key.split_once('=') {
            check_known(&command, key)?;
            if value.is_empty() {
                return Err(format!("--{key}= requires a value"));
            }
            options.insert(key.to_string(), value.to_string());
            i += 1;
            continue;
        }
        check_known(&command, key)?;
        // `--key value` form; flags without a value (e.g. --fast) get "true".
        if i + 1 < argv.len() && !argv[i + 1].starts_with("--") {
            options.insert(key.to_string(), argv[i + 1].clone());
            i += 2;
        } else {
            options.insert(key.to_string(), "true".to_string());
            i += 1;
        }
    }
    Ok(Args { command, options })
}

fn check_known(command: &str, key: &str) -> Result<(), String> {
    if key.is_empty() {
        return Err("empty option name".into());
    }
    match known_options(command) {
        Some(allowed) if allowed.contains(&key) => Ok(()),
        Some(_) => Err(format!("unknown option --{key} for '{command}' (see `chemcost help`)")),
        None => Ok(()), // unknown command: main prints the usage text
    }
}

impl Args {
    fn get(&self, key: &str) -> Result<&str, String> {
        self.options.get(key).map(String::as_str).ok_or_else(|| format!("missing --{key}"))
    }

    fn get_parse<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.get(key)?.parse().map_err(|_| format!("--{key}: cannot parse {:?}", self.get(key)))
    }

    fn flag(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }
}

fn usage() -> &'static str {
    // One literal, so each line's leading spaces reach the output.
    "chemcost <command> [options]
commands:
  generate   --machine aurora|frontier --out FILE [--size N] [--seed S]
  train      --data FILE --out FILE [--fast] [--seed S]
  advise     --model FILE --machine NAME (--o O --v V |
              --molecule NAME --basis cc-pvdz|cc-pvtz|cc-pvqz|aug-cc-pvdz|aug-cc-pvtz)
             [--goal stq|bq|pareto] [--budget NH] [--deadline S]
  molecules  (list the built-in molecule catalog)
  evaluate   --model FILE --data FILE
  importance --model FILE --data FILE
  trace      --machine NAME --nodes N --tile T (--o O --v V | --molecule ... --basis ...)
             [--noise SIGMA] [--seed S] [--out FILE]  (per-task JSONL + utilization)
  serve      --model FILE --machine NAME [--addr HOST:PORT] [--workers N] [--queue-cap N]
             [--max-conns N] [--default-deadline-ms MS] [--scrape-interval-ms MS]
             [--slo-file FILE]
             [--chaos slow-io|drop-conn|truncate-body|saturate|poison-reload|all]
              (chaos seeded by CHEMCOST_CHAOS_SEED; SLO rules in docs/HEALTH.md)
  call       --path /v1/… [--addr HOST:PORT] [--method GET|POST] [--body JSON]
             [--deadline-ms MS] [--retries N]  (retrying client; GET and
              /v1/advise retry, other POSTs get one attempt)
  quality    [--addr HOST:PORT] [--next]  (model-quality report from a running
              daemon; --next asks for active-learning-ranked experiments)
  top        [--addr HOST:PORT] [--slowest | --recent] [--n ROWS] [--route SUBSTR]
             [--watch [--interval-ms MS]]  (per-request stage timelines from a
              daemon's flight recorder, /debug/requests; --watch tails new requests)
  health     [--addr HOST:PORT] [--window 5m] [--watch]  (SLO verdicts, alert
              states, and sparklines from /v1/health + /debug/slo; docs/HEALTH.md)
  lifecycle  [--addr HOST:PORT] [--model NAME] [--machine NAME]
             [--promote | --rollback | --freeze | --unfreeze]  (retrain/shadow/
              promote state from a running daemon; see docs/LIFECYCLE.md)
  version    (build identity: version, git sha, dirty flag)
observability: set CHEMCOST_LOG=error|warn|info|debug|trace for structured logs on
stderr, CHEMCOST_LOG_JSON=FILE for a JSONL copy (see docs/OBSERVABILITY.md,
docs/ROBUSTNESS.md)"
}

fn machine_of(args: &Args) -> Result<chemcost::sim::MachineModel, String> {
    let name = args.get("machine")?;
    by_name(name).ok_or_else(|| format!("unknown machine {name:?} (aurora|frontier)"))
}

fn cmd_generate(args: &Args) -> Result<(), String> {
    let machine = machine_of(args)?;
    let out = PathBuf::from(args.get("out")?);
    let size = args.get_parse::<usize>("size").unwrap_or_else(|_| table1_count(&machine));
    let seed = args.get_parse::<u64>("seed").unwrap_or(42);
    eprintln!("simulating {size} CCSD configurations on {} …", machine.name);
    let samples = generate_dataset_sized(&machine, size, seed);
    write_csv(&out, &samples).map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!("wrote {} samples to {}", samples.len(), out.display());
    Ok(())
}

fn load_samples(path: &str) -> Result<Vec<chemcost::sim::datagen::Sample>, String> {
    read_csv(Path::new(path)).map_err(|e| format!("reading {path}: {e}"))
}

fn cmd_train(args: &Args) -> Result<(), String> {
    let samples = load_samples(args.get("data")?)?;
    if samples.is_empty() {
        return Err("training data is empty".into());
    }
    let out = PathBuf::from(args.get("out")?);
    let train = samples_to_dataset(&samples, Target::Seconds);
    let mut gb = if args.flag("fast") {
        GradientBoosting::new(200, 6, 0.1)
    } else {
        GradientBoosting::paper_config()
    };
    gb.seed = args.get_parse::<u64>("seed").unwrap_or(0);
    eprintln!(
        "training GB ({} estimators, depth {}) on {} samples …",
        gb.n_estimators,
        gb.max_depth,
        train.len()
    );
    let started = std::time::Instant::now();
    gb.fit(&train.x, &train.y).map_err(|e| format!("training failed: {e}"))?;
    save_gb(&out, &gb).map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!(
        "trained in {:.2} s ({} stages), model saved to {}",
        started.elapsed().as_secs_f64(),
        gb.n_stages(),
        out.display()
    );
    Ok(())
}

/// Resolve the problem size either from explicit `--o/--v` or from
/// `--molecule/--basis`.
fn problem_of(args: &Args) -> Result<(usize, usize), String> {
    if let Ok(name) = args.get("molecule") {
        let molecule = molecules::by_name(name).ok_or_else(|| {
            format!("unknown molecule {name:?}; run `chemcost molecules` for the catalog")
        })?;
        let basis_name = args.get("basis").unwrap_or("cc-pvtz");
        let basis =
            BasisSet::parse(basis_name).ok_or_else(|| format!("unknown basis {basis_name:?}"))?;
        let p = molecule.problem(basis);
        eprintln!(
            "{} in {}: {} electrons → O = {}, V = {}",
            molecule.name,
            basis.name(),
            molecule.electrons(),
            p.o,
            p.v
        );
        Ok((p.o, p.v))
    } else {
        Ok((args.get_parse("o")?, args.get_parse("v")?))
    }
}

fn cmd_molecules() -> Result<(), String> {
    println!("{:<24} {:>9} | O, V per basis", "molecule", "electrons");
    for m in molecules::catalog() {
        let sizes: Vec<String> = BasisSet::all()
            .iter()
            .map(|&b| {
                let p = m.problem(b);
                format!("{}:({},{})", b.name(), p.o, p.v)
            })
            .collect();
        println!("{:<24} {:>9} | {}", m.name, m.electrons(), sizes.join("  "));
    }
    Ok(())
}

fn cmd_advise(args: &Args) -> Result<(), String> {
    let machine = machine_of(args)?;
    let gb = load_gb(Path::new(args.get("model")?)).map_err(|e| format!("loading model: {e}"))?;
    let (o, v) = problem_of(args)?;
    let advisor = Advisor::new(&gb, machine);
    let goal = args.get("goal").unwrap_or("stq");
    match goal {
        "stq" | "bq" => {
            let g = if goal == "stq" { Goal::ShortestTime } else { Goal::Budget };
            match advisor.answer(o, v, g) {
                Some(r) => println!(
                    "{}: (O={o}, V={v}) → {} nodes, tile {}  |  predicted {:.1} s, {:.2} node-hours",
                    g.abbrev(),
                    r.nodes,
                    r.tile,
                    r.predicted_seconds,
                    r.predicted_node_hours
                ),
                None => println!("no feasible configuration for (O={o}, V={v}) on this machine"),
            }
        }
        "pareto" => {
            let frontier = advisor.pareto_frontier(o, v);
            if frontier.is_empty() {
                println!("no feasible configuration for (O={o}, V={v}) on this machine");
            }
            println!("{:>6} {:>5} {:>12} {:>12}", "nodes", "tile", "seconds", "node-hours");
            for r in frontier {
                println!(
                    "{:>6} {:>5} {:>12.1} {:>12.2}",
                    r.nodes, r.tile, r.predicted_seconds, r.predicted_node_hours
                );
            }
        }
        other => return Err(format!("unknown --goal {other:?} (stq|bq|pareto)")),
    }
    if let Ok(budget) = args.get_parse::<f64>("budget") {
        match advisor.fastest_within_budget(o, v, budget) {
            Some(r) => println!(
                "within {budget:.2} node-hours: {} nodes, tile {} → {:.1} s",
                r.nodes, r.tile, r.predicted_seconds
            ),
            None => println!("no configuration fits within {budget:.2} node-hours"),
        }
    }
    if let Ok(deadline) = args.get_parse::<f64>("deadline") {
        match advisor.cheapest_within_deadline(o, v, deadline) {
            Some(r) => println!(
                "within {deadline:.0} s: {} nodes, tile {} → {:.2} node-hours",
                r.nodes, r.tile, r.predicted_node_hours
            ),
            None => println!("no configuration meets a {deadline:.0} s deadline"),
        }
    }
    Ok(())
}

fn cmd_evaluate(args: &Args) -> Result<(), String> {
    let gb = load_gb(Path::new(args.get("model")?)).map_err(|e| format!("loading model: {e}"))?;
    let samples = load_samples(args.get("data")?)?;
    if samples.is_empty() {
        return Err("evaluation data is empty".into());
    }
    let x = features_of(&samples);
    let pred = gb.predict(&x);
    let y: Vec<f64> = samples.iter().map(|s| s.seconds).collect();
    let scores = Scores::compute(&y, &pred);
    println!("{} samples: {scores}", samples.len());
    Ok(())
}

fn cmd_importance(args: &Args) -> Result<(), String> {
    let gb = load_gb(Path::new(args.get("model")?)).map_err(|e| format!("loading model: {e}"))?;
    let samples = load_samples(args.get("data")?)?;
    if samples.len() < 2 {
        return Err("need at least two samples".into());
    }
    let x = features_of(&samples);
    let y: Vec<f64> = samples.iter().map(|s| s.seconds).collect();
    let names: Vec<String> =
        chemcost::sim::datagen::FEATURE_NAMES.iter().map(|s| s.to_string()).collect();
    println!("permutation importance (MSE increase when shuffled):");
    for (name, imp) in ranked_importance(&gb, &x, &y, &names, 0) {
        println!("  {name:>6}: {imp:.2}");
    }
    Ok(())
}

/// Replay one CCSD iteration task-by-task and dump the execution trace
/// as per-task JSONL (to `--out` or stdout) plus a utilization summary
/// on stderr.
fn cmd_trace(args: &Args) -> Result<(), String> {
    let machine = machine_of(args)?;
    let (o, v) = problem_of(args)?;
    let nodes = args.get_parse::<usize>("nodes")?;
    let tile = args.get_parse::<usize>("tile")?;
    let noise = args.get_parse::<f64>("noise").unwrap_or(0.0);
    let seed = args.get_parse::<u64>("seed").unwrap_or(0);
    let problem = chemcost::sim::Problem::new(o, v);
    let cfg = chemcost::sim::Config::new(nodes, tile);
    let trace = chemcost::sim::trace::trace_iteration(&problem, &cfg, &machine, noise, seed)
        .map_err(|e| e.to_string())?;
    chemcost::obs::event!(
        chemcost::obs::Level::Info,
        "trace.done",
        o = o,
        v = v,
        nodes = nodes,
        tile = tile,
        tasks = trace.n_tasks(),
        makespan_s = trace.makespan,
        utilization = trace.utilization(),
    );
    let jsonl = trace.to_jsonl();
    match args.options.get("out") {
        Some(path) => {
            std::fs::write(path, &jsonl).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("wrote {} task records to {path}", trace.n_tasks());
        }
        None => print!("{jsonl}"),
    }
    eprintln!("{}", trace.summary());
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let machine_name = args.get("machine")?;
    by_name(machine_name)
        .ok_or_else(|| format!("unknown machine {machine_name:?} (aurora|frontier)"))?;
    let model_path = PathBuf::from(args.get("model")?);
    let addr = args.get("addr").unwrap_or("127.0.0.1:8080");
    let workers = match args.options.get("workers") {
        Some(_) => args.get_parse::<usize>("workers")?,
        None => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
    };
    if workers == 0 {
        return Err("--workers must be at least 1".into());
    }

    let model_name = model_path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "default".to_string());
    let registry = std::sync::Arc::new(ModelRegistry::new());
    registry.load_file(&model_name, machine_name, &model_path)?;
    registry.set_default(machine_name, &model_name)?;

    let default_deadline_ms = match args.options.get("default-deadline-ms") {
        Some(_) => {
            let ms = args.get_parse::<u64>("default-deadline-ms")?;
            if ms == 0 {
                return Err("--default-deadline-ms must be at least 1".into());
            }
            Some(ms)
        }
        None => None,
    };
    let router = Router::new(registry).with_default_deadline_ms(default_deadline_ms);
    let mut server =
        Server::bind(addr, router, workers).map_err(|e| format!("binding {addr}: {e}"))?;
    if args.options.contains_key("queue-cap") {
        let cap = args.get_parse::<usize>("queue-cap")?;
        if cap == 0 {
            return Err("--queue-cap must be at least 1".into());
        }
        server = server.with_queue_cap(cap);
    }
    if args.options.contains_key("max-conns") {
        let max = args.get_parse::<usize>("max-conns")?;
        if max == 0 {
            return Err("--max-conns must be at least 1".into());
        }
        server = server.with_max_conns(max);
    }
    if args.options.contains_key("scrape-interval-ms") || args.options.contains_key("slo-file") {
        let mut config = chemcost::serve::HealthConfig {
            slos: chemcost::serve::builtin_slos(),
            ..Default::default()
        };
        if args.options.contains_key("scrape-interval-ms") {
            let ms = args.get_parse::<u64>("scrape-interval-ms")?;
            if ms == 0 {
                return Err("--scrape-interval-ms must be at least 1".into());
            }
            config.scrape_interval = std::time::Duration::from_millis(ms);
        }
        if let Some(path) = args.options.get("slo-file") {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            let rules =
                chemcost::serve::parse_slo_file(&text).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("loaded {} SLO rule(s) from {path}", rules.len());
            config.slos.extend(rules);
        }
        server = server.with_health(config);
    }
    let mut chaos_note = String::new();
    if let Some(profile) = args.options.get("chaos") {
        let profile = ChaosProfile::parse(profile)
            .ok_or_else(|| format!("unknown --chaos {profile:?} ({})", ChaosProfile::NAMES))?;
        let plane = std::sync::Arc::new(FaultPlane::from_profile(profile));
        chaos_note = format!(", CHAOS {} seed {}", profile.name(), plane.seed());
        server = server.with_faults(plane);
    }
    let bound = server.local_addr().map_err(|e| format!("local addr: {e}"))?;
    eprintln!(
        "chemcost-serve listening on http://{bound} \
         (model {model_name:?} for {machine_name}, {workers} workers, \
         queue capacity {}, max {} conns{chaos_note}; POST /v1/shutdown to stop)",
        server.queue_cap(),
        server.max_conns()
    );
    server.run().map_err(|e| format!("server error: {e}"))
}

/// `chemcost call` — one HTTP call through the retrying client. Prints
/// the response body to stdout and a short status line to stderr; the
/// exit code is 0 for 2xx, 1 otherwise, so scripts can branch on it.
fn cmd_call(args: &Args) -> Result<(), String> {
    let addr = args.get("addr").unwrap_or("127.0.0.1:8080");
    let path = args.get("path")?;
    if !path.starts_with('/') {
        return Err(format!("--path must start with '/', got {path:?}"));
    }
    let body = args.get("body").unwrap_or("");
    let method = match args.get("method") {
        Ok(m) => m.to_ascii_uppercase(),
        Err(_) if body.is_empty() => "GET".to_string(),
        Err(_) => "POST".to_string(),
    };
    let mut policy = RetryPolicy::default();
    if args.options.contains_key("retries") {
        policy.max_attempts = args.get_parse::<u32>("retries")?.saturating_add(1);
    }
    let mut client = Client::new(addr).with_policy(policy);
    if args.options.contains_key("deadline-ms") {
        client = client.with_deadline_ms(Some(args.get_parse::<u64>("deadline-ms")?));
    }
    let resp =
        client.call(&method, path, body.as_bytes()).map_err(|e| format!("{method} {path}: {e}"))?;
    eprintln!(
        "{} {} → {} ({} attempt{})",
        method,
        path,
        resp.status,
        resp.attempts,
        if resp.attempts == 1 { "" } else { "s" }
    );
    println!("{}", resp.text());
    if resp.status >= 400 {
        return Err(format!("server answered {}", resp.status));
    }
    Ok(())
}

/// `chemcost quality`: fetch and summarize a running daemon's
/// model-quality report (or, with `--next`, its ranked experiment plan).
fn cmd_quality(args: &Args) -> Result<(), String> {
    use chemcost::serve::json::Json;
    let addr = args.get("addr").unwrap_or("127.0.0.1:8080");
    let path = if args.flag("next") { "/v1/quality/next_experiments" } else { "/v1/quality" };
    let client = Client::new(addr);
    let resp = client.call("GET", path, b"").map_err(|e| format!("GET {path}: {e}"))?;
    if resp.status >= 400 {
        return Err(format!("server answered {}: {}", resp.status, resp.text()));
    }
    let parsed = Json::parse(&resp.text()).map_err(|e| format!("bad response JSON: {e}"))?;
    if args.flag("next") {
        match parsed.get("model").and_then(Json::as_str) {
            Some(model) => println!(
                "next experiments for {} v{} on {} (strategy {}):",
                model,
                parsed.get("model_version").and_then(Json::as_usize).unwrap_or(0),
                parsed.get("machine").and_then(Json::as_str).unwrap_or("?"),
                parsed.get("strategy").and_then(Json::as_str).unwrap_or("US"),
            ),
            None => println!("no serving group has observations yet"),
        }
        let configs = parsed.get("configs").and_then(Json::as_array);
        match configs {
            Some(configs) if !configs.is_empty() => {
                // The ranked table can be long; write it so that a
                // closed pipe (`chemcost quality --next | head`) ends
                // the listing instead of panicking on broken pipe.
                use std::io::Write;
                let mut out = std::io::stdout().lock();
                let _ = writeln!(
                    out,
                    "{:>4} {:>6} {:>6} {:>6} {:>6} {:>10}",
                    "#", "O", "V", "nodes", "tile", "score"
                );
                for (i, c) in configs.iter().enumerate() {
                    if writeln!(
                        out,
                        "{:>4} {:>6} {:>6} {:>6} {:>6} {:>10.4}",
                        i + 1,
                        c.get("o").and_then(Json::as_usize).unwrap_or(0),
                        c.get("v").and_then(Json::as_usize).unwrap_or(0),
                        c.get("nodes").and_then(Json::as_usize).unwrap_or(0),
                        c.get("tile").and_then(Json::as_usize).unwrap_or(0),
                        c.get("score").and_then(Json::as_f64).unwrap_or(f64::NAN),
                    )
                    .is_err()
                    {
                        break;
                    }
                }
            }
            _ => {
                if let Some(reason) = parsed.get("reason").and_then(Json::as_str) {
                    println!("no experiments ranked: {reason}");
                }
            }
        }
        return Ok(());
    }
    if let Some(build) = parsed.get("build") {
        println!(
            "build: {} (git {}, dirty {})",
            build.get("version").and_then(Json::as_str).unwrap_or("?"),
            build.get("git_sha").and_then(Json::as_str).unwrap_or("?"),
            build.get("dirty").and_then(Json::as_str).unwrap_or("?"),
        );
    }
    if let (Some(journal), Some(obs)) = (parsed.get("journal"), parsed.get("observations")) {
        println!(
            "journal: {}/{} pending; observations: {} accepted, {} rejected",
            journal.get("pending").and_then(Json::as_usize).unwrap_or(0),
            journal.get("capacity").and_then(Json::as_usize).unwrap_or(0),
            obs.get("accepted").and_then(Json::as_usize).unwrap_or(0),
            obs.get("rejected").and_then(Json::as_usize).unwrap_or(0),
        );
    }
    let groups = parsed.get("groups").and_then(Json::as_array);
    match groups {
        Some(groups) if !groups.is_empty() => {
            for g in groups {
                let fmt = |key: &str| match g.get(key).and_then(Json::as_f64) {
                    Some(x) if x.is_finite() => format!("{x:.4}"),
                    _ => "n/a".to_string(),
                };
                println!(
                    "{} v{} on {}: {} obs (window {}), mape {}, bias_s {}, p50/p90/p99 {}/{}/{}, calib {}, drift_trips {}{}",
                    g.get("model").and_then(Json::as_str).unwrap_or("?"),
                    g.get("version").and_then(Json::as_usize).unwrap_or(0),
                    g.get("machine").and_then(Json::as_str).unwrap_or("?"),
                    g.get("observations").and_then(Json::as_usize).unwrap_or(0),
                    g.get("window").and_then(Json::as_usize).unwrap_or(0),
                    fmt("mape"),
                    fmt("bias_seconds"),
                    fmt("residual_p50"),
                    fmt("residual_p90"),
                    fmt("residual_p99"),
                    fmt("calibration_ratio"),
                    g.get("drift_trips").and_then(Json::as_usize).unwrap_or(0),
                    if g.get("degraded").and_then(Json::as_bool) == Some(true) {
                        "  ** DEGRADED **"
                    } else {
                        ""
                    },
                );
            }
        }
        _ => println!("no serving groups tracked"),
    }
    Ok(())
}

/// Column header shared by `top`'s one-shot sections and `--watch`.
fn timeline_header() -> String {
    format!(
        "{:>9} {:>4} {:>8} {:>8} {:>8} {:>8} {:>8} {:<18} request",
        "total_ms", "st", "read_us", "queue_us", "hand_us", "reord_us", "write_us", "trace"
    )
}

/// One flight-recorder entry as a `top` table row.
fn timeline_row(e: &chemcost::serve::json::Json) -> String {
    use chemcost::serve::json::Json;
    let stage = |name: &str| {
        e.get("stages").and_then(|s| s.get(name)).and_then(Json::as_f64).unwrap_or(0.0)
    };
    format!(
        "{:>9.3} {:>4} {:>8.0} {:>8.0} {:>8.0} {:>8.0} {:>8.0} {:<18} {} {}",
        e.get("total_us").and_then(Json::as_f64).unwrap_or(0.0) / 1000.0,
        e.get("status").and_then(Json::as_usize).unwrap_or(0),
        stage("read_us"),
        stage("queue_us"),
        stage("handler_us"),
        stage("reorder_us"),
        stage("write_us"),
        e.get("trace").and_then(Json::as_str).unwrap_or(""),
        e.get("method").and_then(Json::as_str).unwrap_or("?"),
        e.get("path").and_then(Json::as_str).unwrap_or("?"),
    )
}

/// `chemcost top --watch`: tail the flight recorder. Each poll asks
/// `/debug/requests?since_us=<high-water-mark>` so the daemon filters
/// server-side and only never-seen completions come back; rows stream
/// until Ctrl-C or the output pipe closes.
fn top_watch(args: &Args) -> Result<(), String> {
    use chemcost::serve::json::Json;
    use std::io::Write;
    let addr = args.get("addr").unwrap_or("127.0.0.1:8080");
    let interval_ms = args.get_parse::<u64>("interval-ms").unwrap_or(1000).max(50);
    let route = args.options.get("route");
    let client = Client::new(addr);
    let mut out = std::io::stdout().lock();
    if writeln!(out, "{}", timeline_header()).is_err() {
        return Ok(());
    }
    let mut since_us: u64 = 0;
    loop {
        let mut path = format!("/debug/requests?since_us={since_us}");
        if let Some(route) = route {
            path.push_str("&route=");
            path.push_str(route);
        }
        let resp = client.call("GET", &path, b"").map_err(|e| format!("GET {path}: {e}"))?;
        if resp.status >= 400 {
            return Err(format!("server answered {}: {}", resp.status, resp.text()));
        }
        let parsed = Json::parse(&resp.text()).map_err(|e| format!("bad response JSON: {e}"))?;
        if let Some(entries) = parsed.get("recent").and_then(Json::as_array) {
            for e in entries {
                since_us =
                    since_us.max(e.get("ts_us").and_then(Json::as_f64).unwrap_or(0.0) as u64);
                if writeln!(out, "{}", timeline_row(e)).is_err() {
                    return Ok(()); // downstream pipe closed (`| head`)
                }
            }
            let _ = out.flush();
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

/// `chemcost top`: fetch a running daemon's flight recorder
/// (`GET /debug/requests`) and render the slowest and most recent
/// request timelines with per-stage attribution. `--slowest` or
/// `--recent` limits the output to one section; `--n` caps rows;
/// `--route` keeps only paths containing the substring; `--watch`
/// tails new completions instead (see [`top_watch`]).
fn cmd_top(args: &Args) -> Result<(), String> {
    use chemcost::serve::json::Json;
    use std::io::Write;
    if args.flag("watch") {
        return top_watch(args);
    }
    let addr = args.get("addr").unwrap_or("127.0.0.1:8080");
    if args.flag("slowest") && args.flag("recent") {
        return Err("pick at most one of --slowest, --recent".into());
    }
    let limit = args.get_parse::<usize>("n").unwrap_or(usize::MAX).max(1);
    let client = Client::new(addr);
    let path = match args.options.get("route") {
        Some(route) => format!("/debug/requests?route={route}"),
        None => "/debug/requests".to_string(),
    };
    let resp = client.call("GET", &path, b"").map_err(|e| format!("GET {path}: {e}"))?;
    if resp.status >= 400 {
        return Err(format!("server answered {}: {}", resp.status, resp.text()));
    }
    let parsed = Json::parse(&resp.text()).map_err(|e| format!("bad response JSON: {e}"))?;
    println!(
        "{} requests completed; keeping slowest {} + most recent {}",
        parsed.get("completed").and_then(Json::as_usize).unwrap_or(0),
        parsed.get("slowest_cap").and_then(Json::as_usize).unwrap_or(0),
        parsed.get("recent_cap").and_then(Json::as_usize).unwrap_or(0),
    );
    // Broken-pipe-safe listing (`chemcost top | head`), like `quality`.
    let mut out = std::io::stdout().lock();
    let mut section = |title: &str, key: &str, newest_first: bool| {
        let Some(entries) = parsed.get(key).and_then(Json::as_array) else { return };
        if entries.is_empty() {
            let _ = writeln!(out, "\n{title}: none yet");
            return;
        }
        let _ = writeln!(out, "\n{title}:");
        let _ = writeln!(out, "{}", timeline_header());
        let rows: Vec<&Json> = if newest_first {
            entries.iter().rev().take(limit).collect()
        } else {
            entries.iter().take(limit).collect()
        };
        for e in rows {
            if writeln!(out, "{}", timeline_row(e)).is_err() {
                break;
            }
        }
    };
    if !args.flag("recent") {
        section("slowest", "slowest", false);
    }
    if !args.flag("slowest") {
        section("most recent (newest first)", "recent", true);
    }
    Ok(())
}

/// `chemcost health`: SLO verdicts from a running daemon — one line per
/// objective with its alert state, current burn-rate value against the
/// threshold, and an ASCII sparkline of the recent evaluation history
/// (`/v1/health` + `/debug/slo`). `--window 5m` trims the sparkline to
/// the last five minutes; `--watch` redraws every second. Exits
/// non-zero when a critical SLO is firing (the daemon answers 503), so
/// scripts can gate on it.
fn cmd_health(args: &Args) -> Result<(), String> {
    use chemcost::serve::json::Json;
    use std::io::Write;
    let addr = args.get("addr").unwrap_or("127.0.0.1:8080");
    let window = match args.options.get("window") {
        Some(w) => Some(chemcost::serve::parse_duration(w).map_err(|e| format!("--window: {e}"))?),
        None => None,
    };
    let watch = args.flag("watch");
    let client = Client::new(addr);
    loop {
        let resp =
            client.call("GET", "/v1/health", b"").map_err(|e| format!("GET /v1/health: {e}"))?;
        // 503 is the "critical SLO firing" verdict, not a transport
        // failure — render it like any other report.
        if resp.status >= 400 && resp.status != 503 {
            return Err(format!("server answered {}: {}", resp.status, resp.text()));
        }
        let parsed = Json::parse(&resp.text()).map_err(|e| format!("bad response JSON: {e}"))?;
        let status = parsed.get("status").and_then(Json::as_str).unwrap_or("?").to_string();
        if status == "disabled" {
            println!("health plane disabled on this daemon (started without it)");
            return Ok(());
        }
        let debug =
            client.call("GET", "/debug/slo", b"").map_err(|e| format!("GET /debug/slo: {e}"))?;
        let dbg = Json::parse(&debug.text()).map_err(|e| format!("bad response JSON: {e}"))?;
        let mut sparks: HashMap<String, String> = HashMap::new();
        if let Some(slos) = dbg.get("slos").and_then(Json::as_array) {
            for s in slos {
                let Some(name) = s.get("name").and_then(Json::as_str) else { continue };
                let Some(history) = s.get("history").and_then(Json::as_array) else { continue };
                let point_us = |p: &Json| p.get("unix_us").and_then(Json::as_f64).unwrap_or(0.0);
                let newest = history.iter().map(&point_us).fold(0.0, f64::max);
                // Trim against the server's own clock (the newest
                // point), so a skewed local clock cannot blank the line.
                let cutoff = match window {
                    Some(w) => newest - w.as_micros() as f64,
                    None => f64::NEG_INFINITY,
                };
                let values: Vec<f64> = history
                    .iter()
                    .filter(|p| point_us(p) >= cutoff)
                    .map(|p| p.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN))
                    .collect();
                sparks.insert(name.to_string(), chemcost::serve::sparkline(&values, 32));
            }
        }
        if watch {
            // Clear and home, like watch(1).
            print!("\x1b[2J\x1b[H");
        }
        println!(
            "health: {} (HTTP {}) — {} firing, {} pending; {} samples, {} evaluations",
            status,
            resp.status,
            parsed.get("firing").and_then(Json::as_usize).unwrap_or(0),
            parsed.get("pending").and_then(Json::as_usize).unwrap_or(0),
            parsed.get("samples").and_then(Json::as_usize).unwrap_or(0),
            parsed.get("evaluations").and_then(Json::as_usize).unwrap_or(0),
        );
        let mut out = std::io::stdout().lock();
        if let Some(slos) = parsed.get("slos").and_then(Json::as_array) {
            for s in slos {
                let name = s.get("name").and_then(Json::as_str).unwrap_or("?");
                let fmt = |key: &str| match s.get(key).and_then(Json::as_f64) {
                    Some(x) if x.is_finite() => format!("{x:>8.4}"),
                    _ => format!("{:>8}", "n/a"),
                };
                if writeln!(
                    out,
                    "{:>9}{} {:<24} {} {} {}  |{}|",
                    s.get("state").and_then(Json::as_str).unwrap_or("?"),
                    if s.get("critical").and_then(Json::as_bool) == Some(true) { "!" } else { " " },
                    name,
                    fmt("value"),
                    s.get("cmp").and_then(Json::as_str).unwrap_or("?"),
                    fmt("threshold"),
                    sparks.get(name).map(String::as_str).unwrap_or(""),
                )
                .is_err()
                {
                    return Ok(()); // downstream pipe closed
                }
            }
        }
        let _ = out.flush();
        drop(out);
        if !watch {
            if resp.status == 503 {
                return Err("critical SLO firing (HTTP 503)".into());
            }
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(1000));
    }
}

/// `chemcost lifecycle`: the retrain/shadow/promote state of a running
/// daemon, plus operator overrides — `--promote` swaps the current shadow
/// candidate in immediately, `--rollback` restores the version the last
/// promotion displaced, `--freeze`/`--unfreeze` pin or release a group.
fn cmd_lifecycle(args: &Args) -> Result<(), String> {
    use chemcost::serve::json::Json;
    let addr = args.get("addr").unwrap_or("127.0.0.1:8080");
    let client = Client::new(addr);
    let picked =
        [args.flag("promote"), args.flag("rollback"), args.flag("freeze"), args.flag("unfreeze")];
    if picked.iter().filter(|&&p| p).count() > 1 {
        return Err("pick at most one of --promote, --rollback, --freeze, --unfreeze".into());
    }
    let mut fields: Vec<(&'static str, Json)> = Vec::new();
    if let Ok(model) = args.get("model") {
        fields.push(("model", model.into()));
    }
    if let Ok(machine) = args.get("machine") {
        fields.push(("machine", machine.into()));
    }
    let action = if args.flag("promote") {
        Some("promote")
    } else if args.flag("rollback") {
        Some("rollback")
    } else if args.flag("freeze") {
        Some("freeze")
    } else if args.flag("unfreeze") {
        fields.push(("frozen", Json::Bool(false)));
        Some("freeze")
    } else {
        None
    };
    if let Some(action) = action {
        let path = format!("/v1/lifecycle/{action}");
        let body = Json::obj(fields).encode();
        let resp =
            client.call("POST", &path, body.as_bytes()).map_err(|e| format!("POST {path}: {e}"))?;
        if resp.status >= 400 {
            return Err(format!("server answered {}: {}", resp.status, resp.text()));
        }
        println!("{}", resp.text());
        return Ok(());
    }
    let resp =
        client.call("GET", "/v1/lifecycle", b"").map_err(|e| format!("GET /v1/lifecycle: {e}"))?;
    if resp.status >= 400 {
        return Err(format!("server answered {}: {}", resp.status, resp.text()));
    }
    let parsed = Json::parse(&resp.text()).map_err(|e| format!("bad response JSON: {e}"))?;
    println!(
        "trainer queue depth: {}",
        parsed.get("queue_depth").and_then(Json::as_usize).unwrap_or(0)
    );
    match parsed.get("groups").and_then(Json::as_array) {
        Some(groups) if !groups.is_empty() => {
            for g in groups {
                println!(
                    "{} on {}: state {}{}, retrains {}, shadow {} obs (mape {})",
                    g.get("model").and_then(Json::as_str).unwrap_or("?"),
                    g.get("machine").and_then(Json::as_str).unwrap_or("?"),
                    g.get("state").and_then(Json::as_str).unwrap_or("?"),
                    if g.get("frozen").and_then(Json::as_bool) == Some(true) {
                        " (FROZEN)"
                    } else {
                        ""
                    },
                    g.get("retrains").and_then(Json::as_usize).unwrap_or(0),
                    g.get("shadow_len").and_then(Json::as_usize).unwrap_or(0),
                    match g.get("shadow_mape").and_then(Json::as_f64) {
                        Some(x) if x.is_finite() => format!("{x:.4}"),
                        _ => "n/a".to_string(),
                    },
                );
                if let Some(lineage) = g.get("lineage").filter(|l| !matches!(**l, Json::Null)) {
                    println!(
                        "  lineage: parent v{}, {} observed rows, fit {} ms, seed {}",
                        lineage.get("parent_version").and_then(Json::as_usize).unwrap_or(0),
                        lineage.get("observed_rows").and_then(Json::as_usize).unwrap_or(0),
                        lineage.get("fit_duration_ms").and_then(Json::as_usize).unwrap_or(0),
                        lineage.get("seed").and_then(Json::as_f64).unwrap_or(0.0),
                    );
                }
                if let Some(last) = g.get("last_outcome").and_then(Json::as_str) {
                    println!("  last: {last}");
                }
            }
        }
        _ => println!("no lifecycle groups tracked"),
    }
    Ok(())
}

/// `chemcost version`: the build identity also exported as
/// `chemcost_build_info` on `/metrics` and under `build` in `/v1/quality`.
fn cmd_version() -> Result<(), String> {
    let (version, git_sha, dirty) = chemcost::serve::metrics::build_info();
    println!("chemcost {version} (git {git_sha}, dirty {dirty})");
    Ok(())
}

fn main() -> ExitCode {
    // Structured logging: CHEMCOST_LOG=level turns on stderr records,
    // CHEMCOST_LOG_JSON=path adds a JSONL copy. Silent when unset.
    chemcost::obs::init_from_env();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let result = match args.command.as_str() {
        "generate" => cmd_generate(&args),
        "train" => cmd_train(&args),
        "advise" => cmd_advise(&args),
        "evaluate" => cmd_evaluate(&args),
        "importance" => cmd_importance(&args),
        "trace" => cmd_trace(&args),
        "serve" => cmd_serve(&args),
        "call" => cmd_call(&args),
        "quality" => cmd_quality(&args),
        "top" => cmd_top(&args),
        "health" => cmd_health(&args),
        "lifecycle" => cmd_lifecycle(&args),
        "version" | "--version" | "-V" => cmd_version(),
        "molecules" => cmd_molecules(),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n\n{}", usage())),
    };
    // Push anything still sitting in buffered log sinks (the JSONL file
    // from CHEMCOST_LOG_JSON) before the process exits.
    chemcost::obs::flush();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_subcommand_and_options() {
        let a = parse_args(&argv(&["advise", "--o", "120", "--v", "900"])).unwrap();
        assert_eq!(a.command, "advise");
        assert_eq!(a.get("o").unwrap(), "120");
        assert_eq!(a.get_parse::<usize>("v").unwrap(), 900);
        let a =
            parse_args(&argv(&["train", "--data", "d.csv", "--out", "m.ccgb", "--fast"])).unwrap();
        assert!(a.flag("fast"));
        assert!(!a.flag("slow"));
    }

    #[test]
    fn missing_subcommand_errors() {
        assert!(parse_args(&[]).is_err());
    }

    #[test]
    fn malformed_option_errors() {
        assert!(parse_args(&argv(&["train", "data.csv"])).is_err());
    }

    #[test]
    fn missing_option_reported_by_name() {
        let a = parse_args(&argv(&["train"])).unwrap();
        let err = a.get("data").unwrap_err();
        assert!(err.contains("--data"));
    }

    #[test]
    fn flag_followed_by_option() {
        let a = parse_args(&argv(&["train", "--fast", "--data", "x.csv"])).unwrap();
        assert!(a.flag("fast"));
        assert_eq!(a.get("data").unwrap(), "x.csv");
    }

    #[test]
    fn equals_syntax_parses() {
        let a = parse_args(&argv(&["advise", "--o=120", "--v=900", "--goal=pareto"])).unwrap();
        assert_eq!(a.get_parse::<usize>("o").unwrap(), 120);
        assert_eq!(a.get("goal").unwrap(), "pareto");
    }

    #[test]
    fn equals_syntax_keeps_later_equals_signs() {
        let a = parse_args(&argv(&["generate", "--out=a=b.csv", "--machine", "aurora"])).unwrap();
        assert_eq!(a.get("out").unwrap(), "a=b.csv");
    }

    #[test]
    fn equals_without_value_errors() {
        let err = parse_args(&argv(&["advise", "--goal="])).unwrap_err();
        assert!(err.contains("requires a value"), "{err}");
    }

    #[test]
    fn unknown_option_rejected_with_command_context() {
        let err = parse_args(&argv(&["train", "--modle", "x.ccgb"])).unwrap_err();
        assert!(err.contains("--modle") && err.contains("'train'"), "{err}");
        let err = parse_args(&argv(&["advise", "--budge=3"])).unwrap_err();
        assert!(err.contains("--budge"), "{err}");
    }

    #[test]
    fn options_on_optionless_command_rejected() {
        assert!(parse_args(&argv(&["molecules", "--basis", "cc-pvtz"])).is_err());
        assert!(parse_args(&argv(&["help", "--verbose"])).is_err());
    }

    #[test]
    fn unknown_command_defers_to_usage_error() {
        // Options on an unknown command parse; main reports the command.
        let a = parse_args(&argv(&["frobnicate", "--whatever", "1"])).unwrap();
        assert_eq!(a.command, "frobnicate");
    }

    #[test]
    fn chaos_and_deadline_serve_options_accepted() {
        let a = parse_args(&argv(&[
            "serve",
            "--model=m.ccgb",
            "--machine=aurora",
            "--chaos=poison-reload",
            "--default-deadline-ms=250",
        ]))
        .unwrap();
        assert_eq!(a.get("chaos").unwrap(), "poison-reload");
        assert_eq!(a.get_parse::<u64>("default-deadline-ms").unwrap(), 250);
        // Typos are still rejected.
        assert!(parse_args(&argv(&["serve", "--model=m.ccgb", "--kaos=all"])).is_err());
    }

    #[test]
    fn call_options_accepted() {
        let a = parse_args(&argv(&[
            "call",
            "--path=/v1/advise",
            "--body",
            r#"{"o":120,"v":900}"#,
            "--deadline-ms=500",
            "--retries=2",
        ]))
        .unwrap();
        assert_eq!(a.get("path").unwrap(), "/v1/advise");
        assert_eq!(a.get_parse::<u64>("deadline-ms").unwrap(), 500);
        assert_eq!(a.get_parse::<u32>("retries").unwrap(), 2);
    }

    #[test]
    fn quality_and_version_options_accepted() {
        let a = parse_args(&argv(&["quality", "--addr=127.0.0.1:9100", "--next"])).unwrap();
        assert_eq!(a.get("addr").unwrap(), "127.0.0.1:9100");
        assert!(a.flag("next"));
        // version takes no options; typos are rejected with context.
        assert!(parse_args(&argv(&["version"])).is_ok());
        assert!(parse_args(&argv(&["--version"])).is_ok());
        assert!(parse_args(&argv(&["version", "--short"])).is_err());
        assert!(parse_args(&argv(&["quality", "--adr=x"])).is_err());
    }

    #[test]
    fn top_options_accepted() {
        let a = parse_args(&argv(&["top", "--addr=127.0.0.1:9100", "--slowest", "--n=5"])).unwrap();
        assert_eq!(a.get("addr").unwrap(), "127.0.0.1:9100");
        assert!(a.flag("slowest"));
        assert_eq!(a.get_parse::<usize>("n").unwrap(), 5);
        assert!(parse_args(&argv(&["top", "--recent"])).is_ok());
        assert!(parse_args(&argv(&["top", "--slow"])).is_err());
    }

    #[test]
    fn top_watch_options_accepted() {
        let a = parse_args(&argv(&["top", "--watch", "--route=/v1/advise", "--interval-ms=250"]))
            .unwrap();
        assert!(a.flag("watch"));
        assert_eq!(a.get("route").unwrap(), "/v1/advise");
        assert_eq!(a.get_parse::<u64>("interval-ms").unwrap(), 250);
        assert!(parse_args(&argv(&["top", "--wach"])).is_err());
    }

    #[test]
    fn health_options_accepted() {
        let a = parse_args(&argv(&["health", "--addr=127.0.0.1:9100", "--watch", "--window=5m"]))
            .unwrap();
        assert_eq!(a.get("addr").unwrap(), "127.0.0.1:9100");
        assert!(a.flag("watch"));
        assert_eq!(a.get("window").unwrap(), "5m");
        assert!(parse_args(&argv(&["health", "--widow=5m"])).is_err());
    }

    #[test]
    fn serve_health_options_accepted() {
        let a = parse_args(&argv(&[
            "serve",
            "--model=m.ccgb",
            "--machine=aurora",
            "--scrape-interval-ms=500",
            "--slo-file=slo.toml",
        ]))
        .unwrap();
        assert_eq!(a.get_parse::<u64>("scrape-interval-ms").unwrap(), 500);
        assert_eq!(a.get("slo-file").unwrap(), "slo.toml");
        assert!(parse_args(&argv(&["serve", "--model=m.ccgb", "--slofile=x"])).is_err());
    }

    #[test]
    fn lifecycle_options_accepted() {
        let a = parse_args(&argv(&[
            "lifecycle",
            "--addr=127.0.0.1:9100",
            "--model=gb",
            "--machine=aurora",
            "--promote",
        ]))
        .unwrap();
        assert_eq!(a.get("addr").unwrap(), "127.0.0.1:9100");
        assert_eq!(a.get("model").unwrap(), "gb");
        assert!(a.flag("promote"));
        assert!(parse_args(&argv(&["lifecycle", "--rollback"])).is_ok());
        assert!(parse_args(&argv(&["lifecycle", "--freeze"])).is_ok());
        assert!(parse_args(&argv(&["lifecycle", "--unfreeze"])).is_ok());
        assert!(parse_args(&argv(&["lifecycle", "--promot"])).is_err());
    }

    #[test]
    fn version_prints_the_build_triple() {
        let (version, _, _) = chemcost::serve::metrics::build_info();
        assert!(!version.is_empty());
        assert!(cmd_version().is_ok());
    }

    #[test]
    fn serve_options_accepted() {
        let a = parse_args(&argv(&[
            "serve",
            "--model=m.ccgb",
            "--machine",
            "aurora",
            "--addr=127.0.0.1:0",
            "--workers=2",
        ]))
        .unwrap();
        assert_eq!(a.get("addr").unwrap(), "127.0.0.1:0");
        assert_eq!(a.get_parse::<usize>("workers").unwrap(), 2);
    }

    #[test]
    fn serve_data_plane_options_accepted() {
        let a =
            parse_args(&argv(&["serve", "--model=m.ccgb", "--machine=aurora", "--max-conns=2048"]))
                .unwrap();
        assert_eq!(a.get_parse::<usize>("max-conns").unwrap(), 2048);
        // Typos are rejected like any other unknown option.
        assert!(parse_args(&argv(&["serve", "--model=m.ccgb", "--maxconns=9"])).is_err());
        // There is no batch tuning to set.
        for gone in ["--batch-window-us=150", "--batch-max=512"] {
            let err = parse_args(&argv(&["serve", "--model=m.ccgb", gone])).unwrap_err();
            assert!(err.contains("unknown option") && err.contains("serve"), "{gone}: {err}");
        }
    }
}
