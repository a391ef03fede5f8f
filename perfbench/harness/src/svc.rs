//! `svc-miss` and `svc-hit`: the release `moldable-svc` binary under a
//! closed loop of keep-alive connections, plus in-process replays of
//! the same requests through `App::respond_parts` and the layers behind
//! it.
//!
//! `svc-miss` never sends a body twice in a run: connection `c` of `C`
//! takes body indices `start + c + C·i`, and body `g` is base instance
//! `g mod BASES` with one job's times shifted up by `g / BASES` ticks — a
//! distinct instance (shifting every step of a monotone curve keeps it
//! monotone) at the cost of one small re-serialization per request, so
//! the pool stays a few MB however long the run. `svc-hit` replays
//! `HIT_BODIES` bodies, so after warm-up every request is an exact-bytes
//! memo hit.

use crate::http::Conn;
use crate::solve::{registry, solve, ALGO};
use crate::stats::{median, percentile, resolves};
use crate::trace::{coverage, layers, Tracer};
use crate::{nproc, peak_rss_mb, Args, Outcome};
use moldable_core::instance::Instance;
use moldable_core::io::{CurveSpec, InstanceSpec};
use moldable_core::ratio::Ratio;
use moldable_core::view::JobView;
use moldable_sched::solver::MakespanSolver;
use moldable_sched::validate;
use moldable_svc::app::assignment_rows;
use moldable_svc::wire::parse_solve_body;
use moldable_svc::{App, AppConfig};
use moldable_workloads::{bench_instance, BenchFamily};
use serde_json::json;
use std::borrow::Cow;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Miss,
    Hit,
}

const N: usize = 16;
const M: u64 = 256;
/// Distinct base instances of the miss pool.
const BASES: u64 = 512;
/// Bodies the hit workload replays. The quality metrics average over
/// the answers served, and fewer bodies left them seed-dependent.
const HIT_BODIES: u64 = 256;
/// Closed-loop connections at most; see [`thread_budget`].
const CONNECTIONS: usize = 2;
/// Warm-up requests per connection before the timed phase: enough to
/// fill the caches (every hit body at least once) and to make set-up
/// time a steady quantity rather than a process-start jitter.
const WARMUP_MISS: u64 = 400;
const WARMUP_HIT: u64 = 4000;
/// Every `SAMPLE_EVERY`-th miss body is kept and checked byte for byte
/// (coprime with `BASES`, so the sample covers every base instance).
const SAMPLE_EVERY: u64 = 31;
/// The timed phase is cut into this many equal segments; throughput and
/// latency percentiles are medians over the segments, so a burst of
/// outside load moves one segment, not the result.
const SEGMENTS: usize = 10;
const SETUPS: usize = 3;
/// Cap on in-process replays in a traced run, which bounds the span file.
const IN_PROCESS_MAX: u64 = 20_000;
const PATH: &str = "/v1/solve";

/// One base body split around the job whose times the variants shift.
struct Base {
    head: String,
    job: CurveSpec,
    /// The unshifted job's text, so replayed bodies cost no formatting.
    job_text: String,
    tail: String,
}

struct Pool {
    bases: Vec<Base>,
}

fn shifted(spec: &CurveSpec, delta: u64) -> CurveSpec {
    match spec {
        CurveSpec::Constant(t) => CurveSpec::Constant(t + delta),
        CurveSpec::Staircase(steps) => {
            CurveSpec::Staircase(steps.iter().map(|&(p, t)| (p, t + delta)).collect())
        }
        other => other.clone(),
    }
}

impl Pool {
    fn generate(seed: u64, count: u64) -> Pool {
        let mut bases = Vec::new();
        let mut s = seed.wrapping_mul(0xD1B5_4A32_D192_ED03);
        while (bases.len() as u64) < count {
            s = s.wrapping_add(1);
            let inst = bench_instance(BenchFamily::Mixed, N, M, s);
            let spec = InstanceSpec::from_instance(&inst).expect("bench instances serialize");
            let Some(k) = spec
                .jobs
                .iter()
                .position(|j| matches!(j, CurveSpec::Constant(_) | CurveSpec::Staircase(_)))
            else {
                continue;
            };
            let body = serde_json::to_string(&json!({
                "instance": serde_json::to_value(&spec),
                "algo": ALGO,
                "eps": "1/4",
            }))
            .expect("shim serialization is infallible");
            // Locate job k: the k-th element of the `jobs` array.
            let jobs_at = body.find("\"jobs\":[").expect("jobs array") + "\"jobs\":[".len();
            let mut at = jobs_at;
            for j in &spec.jobs[..k] {
                at += serde_json::to_string(j).expect("infallible").len() + 1;
            }
            let job_text = serde_json::to_string(&spec.jobs[k]).expect("infallible");
            assert_eq!(&body[at..at + job_text.len()], job_text, "job split");
            bases.push(Base {
                head: body[..at].to_string(),
                job: spec.jobs[k].clone(),
                tail: body[at + job_text.len()..].to_string(),
                job_text,
            });
        }
        Pool { bases }
    }

    /// The shifted job text of body `g`; the body is `head + it + tail`.
    fn parts(&self, g: u64) -> (&Base, Cow<'_, str>) {
        let n = self.bases.len() as u64;
        let base = &self.bases[(g % n) as usize];
        let job = match g / n {
            0 => Cow::Borrowed(base.job_text.as_str()),
            delta => Cow::Owned(
                serde_json::to_string(&shifted(&base.job, delta)).expect("infallible"),
            ),
        };
        (base, job)
    }

    fn body(&self, g: u64) -> Vec<u8> {
        let (base, job) = self.parts(g);
        [base.head.as_bytes(), job.as_bytes(), base.tail.as_bytes()].concat()
    }
}

/// The server under test; killed and reaped on drop.
struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Server {
    fn start(bin: &Path, workers: usize) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--workers", &workers.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("piped stdout");
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = read.ok().and_then(|_| {
            let v: serde_json::Value = serde_json::from_str(line.trim()).ok()?;
            v.get("listening")?.as_str()?.parse().ok()
        });
        match addr {
            Some(addr) => Ok(Server { child, addr }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "server did not report its address: `{}`",
                    line.trim()
                ))
            }
        }
    }

    fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(&self.child.id().to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The `/metrics` counters the path assertions read.
#[derive(Clone, Copy, Debug, Default)]
struct Counters {
    solve: f64,
    hits: f64,
    body_hits: f64,
    busy_s: f64,
}

fn counters(addr: SocketAddr) -> Result<Counters, String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("/metrics connect: {e}"))?;
    let status = conn
        .request("GET", "/metrics", &[])
        .map_err(|e| format!("/metrics: {e}"))?;
    if status != 200 {
        return Err(format!("/metrics answered {status}"));
    }
    let v = serde_json::from_slice(&conn.body).map_err(|e| format!("/metrics body: {e}"))?;
    let num = |path: &[&str]| {
        path.iter()
            .try_fold(&v, |v, k| v.get(k))
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("/metrics lacks {}", path.join(".")))
    };
    Ok(Counters {
        solve: num(&["endpoints", "solve", "requests"])?,
        hits: num(&["cache", "hits"])?,
        body_hits: num(&["cache", "body_hits"])?,
        busy_s: num(&["service_time", "busy_seconds_total"])?,
    })
}

/// Which body index connection `c` sends as its `i`-th request.
fn body_index(mode: Mode, start: u64, conns: usize, c: usize, i: u64) -> u64 {
    match mode {
        Mode::Miss => start + c as u64 + conns as u64 * i,
        Mode::Hit => (c as u64 + i) % HIT_BODIES,
    }
}

/// The thread budget `(client connections, server workers)`: each count
/// stays within `nproc` — one client thread per connection, up to
/// [`CONNECTIONS`], and one server worker per processor. On fewer than
/// four processors client and server share them; a 2-vCPU machine runs
/// 2 + 2 threads, since a 1 + 1 split leaves the vCPUs idling between
/// requests and makes every reply pay a cross-CPU wake-up.
pub fn thread_budget(nproc: usize) -> (usize, usize) {
    (CONNECTIONS.min(nproc), nproc)
}

#[derive(Default)]
struct Load {
    /// `(seconds since the phase started, latency)` of each 2xx reply.
    done: Vec<(f64, f64)>,
    ok: u64,
    failed: u64,
    /// `(body index, response body)` kept for the byte-identity check.
    samples: Vec<(u64, Vec<u8>)>,
    wall: f64,
}

/// Closed loop: `conns` connections, each sending its next request once
/// the previous response has landed, for `requests` requests each or
/// until `seconds` have passed.
fn drive(
    addr: SocketAddr,
    pool: &Pool,
    mode: Mode,
    conns: usize,
    start: u64,
    requests: Option<u64>,
    seconds: f64,
) -> Load {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let per_conn: Vec<Load> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                scope.spawn(move || {
                    let mut load = Load::default();
                    let mut conn = None;
                    let mut i = 0u64;
                    while requests.map_or(Instant::now() < deadline, |r| i < r) {
                        let g = body_index(mode, start, conns, c, i);
                        i += 1;
                        let (base, job) = pool.parts(g);
                        if conn.is_none() {
                            conn = Conn::connect(addr).ok();
                        }
                        let Some(cn) = conn.as_mut() else {
                            load.failed += 1;
                            continue;
                        };
                        let t0 = Instant::now();
                        let parts =
                            [base.head.as_bytes(), job.as_bytes(), base.tail.as_bytes()];
                        match cn.request("POST", PATH, &parts) {
                            Ok(200) => {
                                load.done.push((
                                    started.elapsed().as_secs_f64(),
                                    t0.elapsed().as_secs_f64(),
                                ));
                                load.ok += 1;
                                let keep = match mode {
                                    Mode::Miss => g.is_multiple_of(SAMPLE_EVERY),
                                    Mode::Hit => i <= HIT_BODIES,
                                };
                                if keep {
                                    load.samples.push((g, cn.body.clone()));
                                }
                            }
                            Ok(_) => load.failed += 1,
                            Err(_) => {
                                load.failed += 1;
                                conn = None;
                            }
                        }
                    }
                    load
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = Load {
        wall: started.elapsed().as_secs_f64(),
        ..Load::default()
    };
    for l in per_conn {
        all.done.extend(l.done);
        all.ok += l.ok;
        all.failed += l.failed;
        all.samples.extend(l.samples);
    }
    all
}

/// Per-segment figures of a closed-loop phase cut into [`SEGMENTS`]
/// equal slices: 2xx replies per second and latency p50/p95/p99, plus
/// whether every segment resolves its p99.
struct Segments {
    rate: Vec<f64>,
    p50: Vec<f64>,
    p95: Vec<f64>,
    p99: Vec<f64>,
    resolved: bool,
}

fn segmented(load: &Load) -> Segments {
    let len = load.wall / SEGMENTS as f64;
    let mut seg = Segments {
        rate: vec![],
        p50: vec![],
        p95: vec![],
        p99: vec![],
        resolved: true,
    };
    for k in 0..SEGMENTS {
        let mut lat: Vec<f64> = load
            .done
            .iter()
            .filter(|(at, _)| ((at / len) as usize).min(SEGMENTS - 1) == k)
            .map(|&(_, l)| l)
            .collect();
        seg.rate.push(lat.len() as f64 / len);
        if lat.is_empty() {
            continue;
        }
        lat.sort_by(f64::total_cmp);
        seg.p50.push(percentile(&lat, 50.0));
        seg.p95.push(percentile(&lat, 95.0));
        seg.p99.push(percentile(&lat, 99.0));
        seg.resolved &= resolves(99.0, lat.len());
    }
    seg
}

/// Generate the pool, start the server and warm it up. Returns the
/// pool, the server, the first body index the timed phase may use, and
/// the seconds spent.
fn setup(
    args: &Args,
    mode: Mode,
    conns: usize,
    workers: usize,
) -> Result<(Pool, Server, u64, f64, f64), String> {
    let bin = args
        .svc_bin
        .as_ref()
        .ok_or("svc workloads need --svc-bin")?;
    let t0 = Instant::now();
    let pool = Pool::generate(
        args.seed,
        if mode == Mode::Hit { HIT_BODIES } else { BASES },
    );
    let gen_s = t0.elapsed().as_secs_f64();
    let server = Server::start(bin, workers)?;
    let warmup = if mode == Mode::Hit {
        WARMUP_HIT
    } else {
        WARMUP_MISS
    };
    let warm = drive(server.addr, &pool, mode, conns, 0, Some(warmup), 0.0);
    if warm.failed > 0 {
        return Err(format!("{} warm-up requests failed", warm.failed));
    }
    Ok((
        pool,
        server,
        warmup * conns as u64,
        gen_s,
        t0.elapsed().as_secs_f64(),
    ))
}

/// Quality of one served solve: `(makespan / lower bound, mean stretch)`.
fn quality(request: &[u8], response: &[u8]) -> Option<(f64, f64)> {
    let (_, inst) = parse_solve_body(request, &Ratio::new(1, 4)).ok()?;
    let v = serde_json::from_slice(response).ok()?;
    let makespan = v.get("makespan")?.as_f64()?;
    let lb = v.get("opt_lower_bound")?.as_f64()?;
    let rows = v.get("assignments")?.as_array()?;
    let mut stretch = 0.0;
    for r in rows {
        let job = inst.job(r.get("job")?.as_u64()? as u32);
        let num: f64 = r.get("start_num")?.as_str()?.parse().ok()?;
        let den: f64 = r.get("start_den")?.as_str()?.parse().ok()?;
        let done = num / den + r.get("duration")?.as_f64()?;
        stretch += done / job.time(inst.m()) as f64;
    }
    Some((makespan / lb.max(1.0), stretch / rows.len() as f64))
}

/// Byte-identity of the sampled responses against an in-process `App`,
/// plus their mean quality.
fn check_samples(o: &mut Outcome, pool: &Pool, samples: &[(u64, Vec<u8>)]) -> (f64, f64) {
    let app = App::new(AppConfig::default());
    let (mut ratio, mut stretch) = (0.0, 0.0);
    for (g, got) in samples {
        let body = pool.body(*g);
        let want = app.respond_parts("POST", PATH, &body);
        o.check(want.status == 200 && want.body == *got, || {
            format!("body {g}: served bytes differ from App::respond_parts")
        });
        match quality(&body, got) {
            Some((r, s)) => {
                ratio += r;
                stretch += s;
            }
            None => o.check(false, || format!("body {g}: unreadable solve response")),
        }
    }
    let n = samples.len().max(1) as f64;
    (ratio / n, stretch / n)
}

/// The path assertions: a miss run records no canonical-cache or memo
/// hit, a hit run answers at least 99% from the memo.
fn check_path(o: &mut Outcome, mode: Mode, before: Counters, after: Counters) -> (f64, f64) {
    let solves = (after.solve - before.solve).max(1.0);
    let hit_share = (after.hits - before.hits) / solves;
    let memo_share = (after.body_hits - before.body_hits) / solves;
    match mode {
        Mode::Miss => o.check(hit_share == 0.0 && memo_share == 0.0, || {
            format!("svc-miss saw cache hits: canonical {hit_share}, memo {memo_share}")
        }),
        Mode::Hit => o.check(memo_share >= 0.99, || {
            format!("svc-hit memo share {memo_share} < 0.99")
        }),
    }
    (hit_share, memo_share)
}

fn load_checks(o: &mut Outcome, load: &Load) {
    o.attempted += load.ok + load.failed;
    o.failed += load.failed;
    if load.failed > 0 {
        eprintln!("perfbench: {} requests failed", load.failed);
    }
}

pub fn run(args: &Args, mode: Mode) -> Result<Outcome, String> {
    let (conns, workers) = thread_budget(nproc());
    let mut o = Outcome::default();
    o.detail(
        "threads",
        json!({ "server_workers": workers, "client_connections": conns, "client_threads": conns }),
    );
    if args.trace {
        traced(args, mode, conns, workers, &mut o)?;
        return Ok(o);
    }
    let mut setups = Vec::new();
    let mut ready = None;
    for _ in 0..SETUPS {
        // Stop the previous set-up's server before starting the next.
        drop(ready.take());
        let (pool, server, start, _, secs) = setup(args, mode, conns, workers)?;
        setups.push(secs);
        ready = Some((pool, server, start));
    }
    let (pool, server, start) = ready.expect("at least one set-up");
    let before = counters(server.addr)?;
    let load = drive(server.addr, &pool, mode, conns, start, None, args.seconds);
    let after = counters(server.addr)?;
    let rss = server.peak_rss_mb().unwrap_or(0.0);
    drop(server);

    load_checks(&mut o, &load);
    let (hit_share, memo_share) = check_path(&mut o, mode, before, after);
    let (ratio, stretch) = check_samples(&mut o, &pool, &load.samples);
    if load.done.is_empty() {
        return Err("no request succeeded".into());
    }
    let seg = segmented(&load);
    let rate = median(&seg.rate);
    o.metric("setup_s", median(&setups));
    o.metric("jobs_per_s", N as f64 * rate);
    o.metric("req_per_s", rate);
    o.metric("latency_p50_ms", median(&seg.p50) * 1e3);
    o.metric("latency_p95_ms", median(&seg.p95) * 1e3);
    o.metric("makespan_over_lb", ratio);
    o.metric("mean_stretch", stretch);
    o.metric("peak_rss_mb", rss);
    o.detail(
        "samples",
        json!({
            "requests": load.ok,
            "checked_bytes": load.samples.len(),
            "segment_req_per_s": seg.rate,
            "latency_p99_ms": median(&seg.p99) * 1e3,
            "segment_p99_ms": seg.p99.iter().map(|v| v * 1e3).collect::<Vec<_>>(),
            "p99_resolved_per_segment": seg.resolved,
            "cache_hit_share": hit_share,
            "memo_hit_share": memo_share,
        }),
    );
    o.detail("setup_s_each", json!(setups));
    Ok(o)
}

/// The miss path of one request, layer by layer, as `App` runs it.
fn decompose(tracer: &Tracer, solver: &dyn MakespanSolver, body: &[u8]) -> Result<(), String> {
    let (_, inst) = tracer.span("svc.wire.parse", || {
        parse_solve_body(body, &Ratio::new(1, 4))
    })?;
    tracer.span("svc.cache.key", || inst.canonical_hash());
    let view = tracer.span("core.view", || JobView::build(&inst));
    let out = solve(solver, &view, tracer);
    tracer
        .span("sched.validate", || validate(&out.schedule, &inst))
        .map_err(|e| e.to_string())?;
    tracer.span("svc.render", || render(&inst, &out));
    Ok(())
}

/// The solve reply as `App` builds it (field order included).
fn render(inst: &Instance, out: &moldable_sched::SolveOutcome) -> String {
    serde_json::to_string(&json!({
        "schema": moldable_svc::wire::v2::SCHEMA,
        "algo": ALGO,
        "solver": ALGO,
        "n": inst.n(),
        "m": inst.m(),
        "eps": 0.25,
        "makespan": out.makespan.to_f64(),
        "ratio_bound": out.ratio_bound.as_ref().map(Ratio::to_f64),
        "opt_lower_bound": out.lower_bound,
        "probes": out.probes,
        "assignments": assignment_rows(inst, &out.schedule),
    }))
    .expect("shim serialization is infallible")
}

/// Traced run: an in-process phase replaying requests through
/// `App::respond_parts` and, for misses, through each layer behind it;
/// then an HTTP phase against the binary for the server-side shares.
fn traced(
    args: &Args,
    mode: Mode,
    conns: usize,
    workers: usize,
    o: &mut Outcome,
) -> Result<(), String> {
    let (pool, server, start, gen_s, _) = setup(args, mode, conns, workers)?;
    let half = args.seconds / 2.0;

    // In-process phase.
    let on = Tracer::new(true);
    let off = Tracer::new(false);
    let app = App::new(AppConfig::default());
    let solver = registry();
    let (mut untraced_s, mut traced_s, mut body_bytes) = (0.0, 0.0, 0usize);
    // Hit mode: the replayed bodies, answered once so the memo holds them.
    let bodies: Vec<Vec<u8>> = match mode {
        Mode::Hit => (0..HIT_BODIES).map(|g| pool.body(g)).collect(),
        Mode::Miss => Vec::new(),
    };
    for body in &bodies {
        app.respond_parts("POST", PATH, body);
    }
    let started = Instant::now();
    let mut i = 0u64;
    while started.elapsed().as_secs_f64() < half && i < IN_PROCESS_MAX {
        on.set_request(i);
        match mode {
            Mode::Hit => {
                let body = &bodies[(i % HIT_BODIES) as usize];
                let t0 = Instant::now();
                let plain = app.respond_parts("POST", PATH, body);
                untraced_s += t0.elapsed().as_secs_f64();
                let t0 = Instant::now();
                let r = on.span("svc.app.respond", || app.respond_parts("POST", PATH, body));
                traced_s += t0.elapsed().as_secs_f64();
                o.check(r.status == 200 && plain.body == r.body, || {
                    format!("in-process hit {i}: {}", r.status)
                });
            }
            Mode::Miss => {
                let body = pool.body(i);
                body_bytes += body.len();
                let r = on.span("svc.app.respond", || app.respond_parts("POST", PATH, &body));
                o.check(r.status == 200, || {
                    format!("in-process miss {i}: {}", r.status)
                });
                let t0 = Instant::now();
                let plain = decompose(&off, solver.as_ref(), &body);
                untraced_s += t0.elapsed().as_secs_f64();
                let t0 = Instant::now();
                let spanned = on.span("svc.request", || decompose(&on, solver.as_ref(), &body));
                traced_s += t0.elapsed().as_secs_f64();
                o.check(plain.is_ok() && spanned.is_ok(), || {
                    format!("decompose {i}: {spanned:?}")
                });
            }
        }
        i += 1;
    }
    let spans = on.spans();
    if let Err(e) = on.write_jsonl(&args.out_dir.join(format!("trace-{}.jsonl", args.workload)))
    {
        eprintln!("perfbench: could not write the span file: {e}");
    }
    let by_layer = layers(&spans);
    let med_us = |name: &str| {
        by_layer
            .get(name)
            .map_or(0.0, |l| median(&l.durations) * 1e6)
    };
    let respond_us = med_us("svc.app.respond");

    // HTTP phase.
    let before = counters(server.addr)?;
    let load = drive(server.addr, &pool, mode, conns, start, None, half);
    let after = counters(server.addr)?;
    drop(server);
    load_checks(o, &load);
    let (hit_share, memo_share) = check_path(o, mode, before, after);
    if load.done.is_empty() {
        return Err("no request succeeded".into());
    }
    let client_p50_us = median(&segmented(&load).p50) * 1e6;

    o.metric("workloads.generate_s", gen_s);
    o.metric("svc.cache.hit_share", hit_share);
    o.metric("svc.cache.memo_hit_share", memo_share);
    o.metric("svc.app.respond_us", respond_us);
    o.metric("svc.http.overhead_us", client_p50_us - respond_us);
    o.metric(
        "svc.server.busy_share",
        (after.busy_s - before.busy_s) / (workers as f64 * load.wall),
    );
    if mode == Mode::Miss {
        let parse = by_layer.get("svc.wire.parse").cloned().unwrap_or_default();
        let covered = coverage(&spans, "svc.request") * by_layer["svc.request"].total_s;
        let respond_total = by_layer["svc.app.respond"].total_s;
        let solves = by_layer.get("sched.solve").cloned().unwrap_or_default();
        let probes = by_layer
            .get("sched.dual.probe")
            .cloned()
            .unwrap_or_default();
        o.metric("svc.wire.parse_us", med_us("svc.wire.parse"));
        o.metric(
            "svc.wire.parse_mb_per_s",
            body_bytes as f64 / 1e6 / parse.total_s,
        );
        o.metric("core.view.build_ms", med_us("core.view") / 1e3);
        o.metric(
            "sched.estimator.ms",
            solves.self_s * 1e3 / solves.count.max(1) as f64,
        );
        o.metric(
            "sched.dual.probes",
            probes.count as f64 / solves.count.max(1) as f64,
        );
        o.metric(
            "sched.dual.probe_ms",
            probes.total_s * 1e3 / probes.count.max(1) as f64,
        );
        o.metric(
            "sched.dual.accept_share",
            probes.ok as f64 / probes.count.max(1) as f64,
        );
        o.metric("sched.validate.ms", med_us("sched.validate") / 1e3);
        o.metric("svc.render.us", med_us("svc.render"));
        o.metric("svc.cache.key_us", med_us("svc.cache.key"));
        o.metric("svc.app.unattributed_share", 1.0 - covered / respond_total);
        o.metric("trace.coverage", covered / respond_total);
        o.metric("trace.overhead_s", traced_s - untraced_s);
    } else {
        o.metric("trace.coverage", coverage(&spans, "svc.app.respond"));
        o.metric("trace.overhead_s", traced_s - untraced_s);
    }
    o.detail(
        "traced",
        json!({
            "in_process_requests": i,
            "spans": spans.len(),
            "http_requests": load.ok,
            "client_p50_us": client_p50_us,
            "untraced_s": untraced_s,
            "traced_s": traced_s,
        }),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_budget_stays_within_nproc() {
        assert_eq!(thread_budget(1), (1, 1));
        assert_eq!(thread_budget(2), (2, 2));
        assert_eq!(thread_budget(16), (2, 16));
    }

    #[test]
    fn miss_bodies_are_distinct_and_parse() {
        let pool = Pool::generate(3, 4);
        let bodies: Vec<Vec<u8>> = (0..12).map(|g| pool.body(g)).collect();
        for (i, a) in bodies.iter().enumerate() {
            parse_solve_body(a, &Ratio::new(1, 4)).expect("a valid solve body");
            assert!(bodies[i + 1..].iter().all(|b| b != a), "body {i} repeats");
        }
        let hashes: std::collections::BTreeSet<u128> = bodies
            .iter()
            .map(|b| {
                parse_solve_body(b, &Ratio::new(1, 4))
                    .unwrap()
                    .1
                    .canonical_hash()
                    .unwrap()
            })
            .collect();
        assert_eq!(
            hashes.len(),
            bodies.len(),
            "two bodies share a canonical instance"
        );
    }

    #[test]
    fn connections_walk_disjoint_body_indices() {
        let mut seen = std::collections::BTreeSet::new();
        for c in 0..2 {
            for i in 0..100 {
                assert!(seen.insert(body_index(Mode::Miss, 800, 2, c, i)));
            }
        }
        assert_eq!(*seen.iter().next().unwrap(), 800);
    }
}
