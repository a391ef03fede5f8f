//! `moldable-svc` — serve the scheduling service over HTTP.
//!
//! ```text
//! moldable-svc [--addr HOST:PORT] [--workers N] [--shards N] [--eps N/D]
//!              [--max-body BYTES] [--race-threads N] [--idle-timeout SECONDS]
//!              [--cache-entries N] [--cache-shards N] [--quotas FILE]
//! ```
//!
//! `--quotas FILE` loads an operator admission rule set (the same JSON
//! object grammar as the request-level `quotas` field: `{"window": N,
//! "rules": [{"user", "project", "class", "max_procs", "max_jobs",
//! "max_resource_seconds"}, …]}`); tenant-tagged requests are admitted
//! against it fleet-wide, over-quota solves get a typed 429.
//!
//! Prints one JSON line `{"listening": "HOST:PORT", "workers": N,
//! "shards": ["HOST:PORT", …]}` to stdout once every listener is live
//! (port 0 resolves to the actual ephemeral ports — scripts read the
//! primary address from `"listening"`; `--shards N` binds N consecutive
//! ports from the base, each with its own worker pool, sharing one
//! response cache). Serves until killed. Endpoints: `POST /v1/solve`,
//! `POST /v1/race`, `GET /healthz`, `GET /metrics` — see DESIGN.md's
//! "Service front-end".

use moldable::sched::batch;
use moldable::svc::wire::parse_eps;
use moldable::svc::{AppConfig, ServerConfig, ShardedServer};
use serde_json::json;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage:
  moldable-svc [--addr HOST:PORT] [--workers N] [--shards N] [--eps N/D] [--max-body BYTES]
               [--race-threads N] [--idle-timeout SECONDS] [--cache-entries N] [--cache-shards N]
               [--quotas FILE]";

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn run(args: &[String]) -> Result<(), String> {
    let mut config = ServerConfig {
        addr: flag(args, "--addr").unwrap_or_else(|| "127.0.0.1:7878".into()),
        ..ServerConfig::default()
    };
    if let Some(workers) = flag(args, "--workers") {
        config.workers = match workers.parse() {
            Ok(0) | Err(_) => return Err("bad --workers (need an integer >= 1)".into()),
            Ok(w) => w,
        };
    }
    if let Some(secs) = flag(args, "--idle-timeout") {
        let secs: u64 = secs.parse().map_err(|_| "bad --idle-timeout (seconds)")?;
        config.idle_timeout = Duration::from_secs(secs.max(1));
    }
    let mut app = AppConfig {
        race_threads: batch::default_threads(moldable::sched::SOLVER_NAMES.len()),
        ..AppConfig::default()
    };
    if let Some(eps) = flag(args, "--eps") {
        app.default_eps = parse_eps(&eps)?;
    }
    if let Some(max_body) = flag(args, "--max-body") {
        app.max_body = match max_body.parse() {
            Ok(0) | Err(_) => return Err("bad --max-body (need bytes >= 1)".into()),
            Ok(b) => b,
        };
    }
    if let Some(threads) = flag(args, "--race-threads") {
        app.race_threads = match threads.parse() {
            Ok(0) | Err(_) => return Err("bad --race-threads (need an integer >= 1)".into()),
            Ok(t) => t,
        };
    }
    if let Some(entries) = flag(args, "--cache-entries") {
        // 0 is legal: it disables the response cache entirely.
        app.cache_entries = entries
            .parse()
            .map_err(|_| "bad --cache-entries (need an integer >= 0)")?;
    }
    if let Some(shards) = flag(args, "--cache-shards") {
        app.cache_shards = match shards.parse() {
            Ok(0) | Err(_) => return Err("bad --cache-shards (need an integer >= 1)".into()),
            Ok(s) => s,
        };
    }
    if let Some(path) = flag(args, "--quotas") {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read --quotas {path}: {e}"))?;
        app.quotas = Some(moldable::svc::wire::quotas_from_str(&text)?);
    }
    let shards: usize = match flag(args, "--shards") {
        None => 1,
        Some(raw) => match raw.parse() {
            Ok(0) | Err(_) => return Err("bad --shards (need an integer >= 1)".into()),
            Ok(s) => s,
        },
    };
    config.app = app;
    let workers = config.workers;
    let fleet = ShardedServer::bind(config, shards).map_err(|e| format!("bind failed: {e}"))?;
    let addrs: Vec<String> = fleet.addrs().iter().map(|a| a.to_string()).collect();
    println!(
        "{}",
        serde_json::to_string(&json!({
            "listening": addrs[0],
            "workers": workers,
            "shards": addrs,
        }))
        .expect("shim serialization is infallible")
    );
    // Flush so a pipe reader sees the address before the first request.
    use std::io::Write;
    let _ = std::io::stdout().flush();
    eprintln!(
        "moldable-svc listening on http://{} ({} shards x {} workers); endpoints: POST /v1/solve, POST /v1/race, GET /healthz, GET /metrics",
        addrs.join(" http://"),
        addrs.len(),
        workers,
    );
    // Serve until the process is killed: park this thread forever while
    // the worker pool runs.
    loop {
        std::thread::park();
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
