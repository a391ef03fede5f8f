//! CLI/service parity: `moldable solve`/`race` and `POST /v1/solve`/
//! `/v1/race` run one request pipeline, so the same request must get
//! the same answer from either front end.
//!
//! * **Successes.** The CLI's stdout, with its CLI-only keys removed
//!   (`total_work` on `solve`; `threads` and each row's `wall_seconds`
//!   on `race`), must parse equal to the service body.
//! * **Failures.** The CLI's stderr envelope must be byte-identical to
//!   the service's error body, and the CLI must exit with status 1.
//!
//! The real binary runs against [`App::respond`] on the same request.
//! The file also pins `moldable schedule` stdout byte for byte for six
//! algorithms (goldens under `tests/data/schedule/`), and `moldable
//! simulate` stdout on the bundled SWF trace (goldens under
//! `tests/data/simulate/`).

use moldable::svc::http::Request;
use moldable::svc::{App, AppConfig};
use serde_json::Value;
use std::path::PathBuf;
use std::process::{Command, Output};

/// Four curve families on m = 64 (beyond the exact solver's caps).
const INSTANCE: &str = r#"{"m": 64, "jobs": [
    {"constant": 9},
    {"staircase": [[1, 100], [2, 60], [4, 50]]},
    {"ideal_with_overhead": {"t1": 500, "c": 2, "cap": 64}},
    {"table": [70, 40, 30]}
]}"#;

/// A well-formed instance with no jobs: every solver used to panic on it.
const NO_JOBS: &str = r#"{"m": 4, "jobs": []}"#;

/// A rule set that denies any m = 64 solve by `alice`.
const TIGHT_QUOTAS: &str = r#"{"rules": [{"user": "alice", "max_procs": 8}]}"#;

/// One request, spelled as CLI flags and as a JSON body.
#[derive(Default)]
struct Req {
    algo: Option<&'static str>,
    eps: Option<&'static str>,
    place: bool,
    topology: Option<&'static str>,
    policy: Option<&'static str>,
    /// The tenant's user (project and class default on both sides).
    tenant: Option<&'static str>,
    /// An in-request quota set, as JSON text.
    quotas: Option<&'static str>,
}

impl Req {
    fn argv(&self) -> Vec<String> {
        let mut argv = Vec::new();
        let mut push = |name: &str, value: Option<&str>| {
            if let Some(value) = value {
                argv.push(name.to_string());
                argv.push(value.to_string());
            }
        };
        push("--algo", self.algo);
        push("--eps", self.eps);
        push("--topology", self.topology);
        push("--policy", self.policy);
        push("--tenant", self.tenant);
        push("--quotas", self.quotas);
        if self.place {
            argv.push("--place".to_string());
        }
        argv
    }

    fn body(&self, instance: &str) -> String {
        let mut fields = vec![format!(r#""instance": {instance}"#)];
        let quoted = [
            ("algo", self.algo),
            ("eps", self.eps),
            ("topology", self.topology),
            ("policy", self.policy),
        ];
        for (key, value) in quoted {
            if let Some(value) = value {
                fields.push(format!(r#""{key}": "{value}""#));
            }
        }
        if self.place {
            fields.push(r#""placements": true"#.to_string());
        }
        if let Some(user) = self.tenant {
            fields.push(format!(r#""tenant": {{"user": "{user}"}}"#));
        }
        if let Some(quotas) = self.quotas {
            fields.push(format!(r#""quotas": {quotas}"#));
        }
        format!("{{{}}}", fields.join(", "))
    }
}

/// Write `instance` to a file named after `tag` (one per case, so
/// parallel tests never share a path).
fn instance_file(tag: &str, instance: &str) -> PathBuf {
    let path =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("cli_parity_{tag}.json"));
    std::fs::write(&path, instance).expect("write the instance file");
    path
}

fn run_cli(cmd: &str, input: &PathBuf, argv: &[String]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_moldable"))
        .arg(cmd)
        .arg("--input")
        .arg(input)
        .args(argv)
        .output()
        .expect("run the moldable binary")
}

/// The service's status and body for the same request.
fn run_service(cmd: &str, instance: &str, req: &Req) -> (u16, String) {
    let app = App::new(AppConfig::default());
    let resp = app.respond(&Request {
        method: "POST".into(),
        path: format!("/v1/{cmd}"),
        body: req.body(instance).into_bytes(),
        keep_alive: false,
    });
    let body = String::from_utf8(resp.body).expect("service replies are UTF-8");
    (resp.status, body)
}

/// Remove `keys` from a JSON object, asserting each was present.
fn strip(value: &mut Value, keys: &[&str]) {
    let Value::Object(fields) = value else {
        panic!("expected an object, got {value:?}");
    };
    for key in keys {
        let before = fields.len();
        fields.retain(|(k, _)| k != key);
        assert_eq!(fields.len() + 1, before, "CLI-only key `{key}` missing");
    }
}

fn assert_success_parity(tag: &str, cmd: &str, req: Req) {
    let input = instance_file(tag, INSTANCE);
    let out = run_cli(cmd, &input, &req.argv());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{tag}: CLI failed: {stderr}");
    let mut cli: Value =
        serde_json::from_str(std::str::from_utf8(&out.stdout).unwrap()).expect("CLI JSON");
    if cmd == "solve" {
        strip(&mut cli, &["total_work"]);
    } else {
        strip(&mut cli, &["threads"]);
        let Value::Object(fields) = &mut cli else {
            unreachable!("checked by strip")
        };
        let (_, results) = fields
            .iter_mut()
            .find(|(k, _)| k == "results")
            .expect("race replies carry results");
        let Value::Array(rows) = results else {
            panic!("results must be an array");
        };
        assert!(!rows.is_empty(), "{tag}: empty race");
        for row in rows {
            strip(row, &["wall_seconds"]);
        }
    }
    let (status, body) = run_service(cmd, INSTANCE, &req);
    assert_eq!(status, 200, "{tag}: {body}");
    let svc: Value = serde_json::from_str(&body).expect("service JSON");
    assert_eq!(cli, svc, "{tag}: CLI and service replies differ");
}

/// Run a failing request on both front ends; returns the error kind.
fn assert_failure_parity(tag: &str, cmd: &str, instance: &str, req: Req) -> String {
    let input = instance_file(tag, instance);
    let out = run_cli(cmd, &input, &req.argv());
    let stderr = String::from_utf8(out.stderr).expect("CLI stderr is UTF-8");
    assert_eq!(out.status.code(), Some(1), "{tag}: {stderr}");
    let (status, body) = run_service(cmd, instance, &req);
    assert_ne!(status, 200, "{tag}: the service accepted it: {body}");
    assert_eq!(
        stderr.trim_end_matches('\n'),
        body,
        "{tag}: CLI and service envelopes differ"
    );
    let envelope: Value = serde_json::from_str(&body).expect("envelope JSON");
    envelope["error"]["kind"].as_str().unwrap().to_string()
}

#[test]
fn solve_replies_match_the_service() {
    assert_success_parity("solve_plain", "solve", Req::default());
    assert_success_parity(
        "solve_place",
        "solve",
        Req {
            place: true,
            ..Req::default()
        },
    );
    assert_success_parity(
        "solve_contiguous_place",
        "solve",
        Req {
            algo: Some("contiguous-73-50"),
            place: true,
            ..Req::default()
        },
    );
    assert_success_parity(
        "solve_topology",
        "solve",
        Req {
            topology: Some("8*2*4"),
            policy: Some("packed"),
            ..Req::default()
        },
    );
    assert_success_parity(
        "solve_tenant",
        "solve",
        Req {
            tenant: Some("alice"),
            ..Req::default()
        },
    );
}

#[test]
fn race_replies_match_the_service() {
    assert_success_parity("race_plain", "race", Req::default());
    assert_success_parity(
        "race_place",
        "race",
        Req {
            place: true,
            ..Req::default()
        },
    );
}

#[test]
fn failures_carry_the_same_envelope() {
    let cases: Vec<(&str, &str, &str, Req, &str)> = vec![
        (
            "unknown_solver",
            "solve",
            INSTANCE,
            Req {
                algo: Some("quantum"),
                ..Req::default()
            },
            "unknown-solver",
        ),
        // The registry lookup runs before admission on both front ends.
        (
            "unknown_solver_over_quota",
            "solve",
            INSTANCE,
            Req {
                algo: Some("quantum"),
                tenant: Some("alice"),
                quotas: Some(TIGHT_QUOTAS),
                ..Req::default()
            },
            "unknown-solver",
        ),
        (
            "quota_denied",
            "solve",
            INSTANCE,
            Req {
                tenant: Some("alice"),
                quotas: Some(TIGHT_QUOTAS),
                ..Req::default()
            },
            "quota-denied",
        ),
        (
            "race_quota_denied",
            "race",
            INSTANCE,
            Req {
                tenant: Some("alice"),
                quotas: Some(TIGHT_QUOTAS),
                ..Req::default()
            },
            "quota-denied",
        ),
        (
            "topology_mismatch",
            "solve",
            INSTANCE,
            Req {
                topology: Some("2*2"),
                ..Req::default()
            },
            "bad-request",
        ),
        (
            "eps_over_one",
            "solve",
            INSTANCE,
            Req {
                eps: Some("3/2"),
                ..Req::default()
            },
            "bad-request",
        ),
        (
            "exact_too_large",
            "solve",
            INSTANCE,
            Req {
                algo: Some("exact"),
                ..Req::default()
            },
            "bad-request",
        ),
    ];
    for (tag, cmd, instance, req, kind) in cases {
        assert_eq!(
            assert_failure_parity(tag, cmd, instance, req),
            kind,
            "{tag}"
        );
    }
}

#[test]
fn an_instance_without_jobs_is_a_bad_request_everywhere() {
    // Each solver family once panicked on it: the dual searches, the
    // exact solver, the direct baselines, and the race's estimator.
    for (cmd, algo) in [
        ("solve", "linear"),
        ("solve", "exact"),
        ("solve", "two-approx"),
        ("race", "linear"),
    ] {
        let tag = format!("no_jobs_{cmd}_{algo}");
        let req = Req {
            algo: Some(algo),
            ..Req::default()
        };
        assert_eq!(
            assert_failure_parity(&tag, cmd, NO_JOBS, req),
            "bad-request",
            "{tag}"
        );
    }
    let input = instance_file("no_jobs_schedule", NO_JOBS);
    let out = run_cli("schedule", &input, &[]);
    assert_eq!(out.status.code(), Some(1));
}

fn schedule_data(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data/schedule")
        .join(name)
}

#[test]
fn schedule_output_is_pinned() {
    let input = schedule_data("instance.json");
    for algo in ["mrt", "alg1", "alg3", "linear", "ptas", "two-approx"] {
        let out = run_cli("schedule", &input, &["--algo".into(), algo.into()]);
        assert!(
            out.status.success(),
            "{algo}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let pinned = std::fs::read(schedule_data(&format!("{algo}.json"))).unwrap();
        assert!(
            out.stdout == pinned,
            "{algo}: schedule output drifted:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn schedule_accepts_every_registry_name() {
    // `fptas` outside m ≥ 8n/ε falls back instead of panicking (n = 6,
    // m = 64 here); the exact solver refuses the instance up front.
    let input = schedule_data("instance.json");
    let out = run_cli("schedule", &input, &["--algo".into(), "fptas".into()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let reply: Value = serde_json::from_str(std::str::from_utf8(&out.stdout).unwrap()).unwrap();
    assert_eq!(reply["algo"].as_str(), Some("fptas"));
    assert_eq!(reply["assignments"].as_array().unwrap().len(), 6);
    for (algo, kind) in [("exact", "bad-request"), ("quantum", "unknown-solver")] {
        let out = run_cli("schedule", &input, &["--algo".into(), algo.into()]);
        assert_eq!(out.status.code(), Some(1), "{algo}");
        let envelope: Value =
            serde_json::from_str(std::str::from_utf8(&out.stderr).unwrap().trim()).unwrap();
        assert_eq!(envelope["error"]["kind"].as_str(), Some(kind), "{algo}");
    }
}

fn simulate_data(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data/simulate")
        .join(name)
}

#[test]
fn simulate_output_is_pinned() {
    let trace = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/sample.swf");
    for (golden, engine) in [("trace.json", None), ("engine_epoch.json", Some("epoch"))] {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_moldable"));
        cmd.arg("simulate");
        if let Some(engine) = engine {
            cmd.args(["--engine", engine]);
        }
        let out = cmd
            .arg("--trace")
            .arg(&trace)
            .args(["--max-jobs", "64"])
            .output()
            .expect("run the moldable binary");
        assert!(
            out.status.success(),
            "{golden}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        // `wall_seconds` is the report's one timing field; every other
        // byte is pinned.
        let stdout: String = String::from_utf8(out.stdout)
            .expect("reports are UTF-8")
            .lines()
            .filter(|line| !line.starts_with("  \"wall_seconds\": "))
            .map(|line| format!("{line}\n"))
            .collect();
        let pinned = std::fs::read_to_string(simulate_data(golden)).unwrap();
        assert!(
            stdout == pinned,
            "{golden}: simulate output drifted:\n{stdout}"
        );
    }
}
