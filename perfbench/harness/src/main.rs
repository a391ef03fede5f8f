//! `perfbench` — the repository benchmark's measuring program.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           [--svc-bin PATH] [--out-dir DIR]
//! ```
//!
//! Runs one workload (`offline-compact`, `stream-lublin`, `svc-miss`,
//! `svc-hit`), checks every output it produces, and prints as its last
//! stdout line one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`: the end-to-end metrics untraced (`--trace 0`), or the
//! per-layer metrics from a traced run (`--trace 1`). The line before
//! it is a `{"detail": …}` object with the machine, sample counts and
//! the workload's own diagnostics. Exits 1 when any check failed.
//! `perfbench/run.py` builds this program and the `moldable-svc` binary
//! and is the command to run.

mod http;
mod offline;
mod solve;
mod stats;
mod stream;
mod svc;
mod trace;

use serde_json::{json, Value};
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics: every workload reports each of them.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("req_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("makespan_over_lb", "ratio"),
    ("mean_stretch", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run. A workload whose path does not
/// reach a layer reports it as 0 (no work done there).
pub const PER_LAYER: [(&str, &str); 27] = [
    ("workloads.generate_s", "s"),
    ("core.view.build_ms", "ms"),
    ("sched.estimator.ms", "ms"),
    ("sched.dual.probes", "count"),
    ("sched.dual.probe_ms", "ms"),
    ("sched.dual.accept_share", "share"),
    ("sched.solve.n_exponent", "exponent"),
    ("sched.place.ms", "ms"),
    ("sched.validate.ms", "ms"),
    ("svc.wire.parse_us", "us"),
    ("svc.wire.parse_mb_per_s", "MB/s"),
    ("svc.render.us", "us"),
    ("svc.cache.key_us", "us"),
    ("svc.cache.hit_share", "share"),
    ("svc.cache.memo_hit_share", "share"),
    ("svc.app.respond_us", "us"),
    ("svc.app.unattributed_share", "share"),
    ("svc.http.overhead_us", "us"),
    ("svc.server.busy_share", "share"),
    ("sim.stream.epochs", "count"),
    ("sim.stream.solve_calls", "count"),
    ("sim.stream.batch_jobs_mean", "count"),
    ("sim.stream.solve_share", "share"),
    ("sim.stream.engine_self_s", "s"),
    ("sim.stream.solve_p99_us", "us"),
    ("trace.coverage", "share"),
    ("trace.overhead_s", "s"),
];

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Checks (or requests) attempted in the measured phase.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// Metric name → value; units come from [`END_TO_END`]/[`PER_LAYER`].
    pub metrics: Vec<(&'static str, f64)>,
    /// Workload diagnostics printed on the detail line.
    pub detail: Vec<(String, Value)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn detail(&mut self, key: &str, value: Value) {
        self.detail.push((key.to_string(), value));
    }

    /// Count one check, failing it (with a note on stderr) unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub svc_bin: Option<PathBuf>,
    pub out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let need = |name: &str| flag(name).ok_or(format!("missing {name}"));
    let seconds: f64 = need("--seconds")?
        .parse()
        .map_err(|_| "bad --seconds".to_string())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: need("--workload")?,
        seed: need("--seed")?.parse().map_err(|_| "bad --seed")?,
        seconds,
        trace: match need("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad --trace `{other}` (0 or 1)")),
        },
        svc_bin: flag("--svc-bin").map(PathBuf::from),
        out_dir: PathBuf::from(flag("--out-dir").unwrap_or_else(|| ".".into())),
    })
}

/// Processors available to the benchmark.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this one),
/// in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One compact JSON line.
pub fn to_line(value: &Value) -> String {
    serde_json::to_string(value).expect("shim serialization is infallible")
}

fn run(args: &Args) -> Result<Outcome, String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.out_dir.display()))?;
    match args.workload.as_str() {
        "offline-compact" => Ok(offline::run(args)),
        "stream-lublin" => Ok(stream::run(args)),
        "svc-miss" => svc::run(args, svc::Mode::Miss),
        "svc-hit" => svc::run(args, svc::Mode::Hit),
        other => Err(format!("unknown workload `{other}`")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in table {
        let values: Vec<f64> = outcome
            .metrics
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .collect();
        let value = match values.as_slice() {
            [v] if v.is_finite() => *v,
            [] if args.trace => 0.0,
            _ => {
                eprintln!("perfbench: metric {name} missing, repeated or not finite");
                return ExitCode::from(2);
            }
        };
        metrics.push((name.to_string(), json!({ "value": value, "unit": unit })));
    }
    let mut detail = vec![
        ("workload".to_string(), json!(args.workload)),
        ("seed".to_string(), json!(args.seed)),
        ("seconds".to_string(), json!(args.seconds)),
        ("trace".to_string(), json!(args.trace)),
        (
            "machine".to_string(),
            json!({ "nproc": nproc(), "cpu_model": cpu_model() }),
        ),
    ];
    detail.extend(outcome.detail);
    println!("{}", to_line(&json!({ "detail": Value::Object(detail) })));
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    let result = json!({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": Value::Object(metrics),
    });
    println!("{}", to_line(&result));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
