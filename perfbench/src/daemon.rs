//! `daemon-mixed`: an open-loop request mix over loopback TCP to an
//! in-process `dimmerd`.
//!
//! Requests are due at a fixed offered rate ([`RATE_PER_S`]) whether or
//! not earlier ones have finished. The mix holds repeats drawn from a key
//! set larger than the deliberately small memo budget (hits, and misses
//! caused by eviction), fresh seeds of quick single-protocol
//! `dynamics:<preset>` jobs (short misses), a small share of quick `city`
//! jobs (long misses that block the FIFO queue behind them) and `stats`
//! polls. The client uses two connections and two threads: one sends the
//! mix on schedule, the other reads its replies and fetches results on
//! the second connection, polling `status` for queued jobs. Latency runs
//! from a request's scheduled send time to the arrival of its result.
//!
//! Every result is compared byte for byte, by digest, with the offline
//! `ScenarioGrid::run(..).to_json()` of the same spec and seed.

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use dimmer_bench::harness::RunOptions;
use dimmer_bench::scenarios::DYNAMIC_SCENARIOS;
use dimmer_sim::SimRng;
use dimmerd::json::{self, Json};
use dimmerd::{Daemon, DaemonConfig, ScenarioSpec, WorldCache};

use crate::fnv;
use crate::stats::median;
use crate::trace::Tracer;
use crate::Measured;

/// Offered load, requests per second.
pub const RATE_PER_S: f64 = 8.0;
/// Memo budget: room for a handful of reports, fewer than the key set.
pub const MEMO_BUDGET_BYTES: usize = 16 * 1024;
/// Executor workers; each fans a grid out to `nproc / WORKERS` threads.
pub const WORKERS: usize = 1;
/// Client connections (and client threads).
pub const CONNECTIONS: usize = 2;
/// Set-up repetitions per run (the reported set-up time is their median).
pub const SETUP_REPS: usize = 9;

/// One block of the mix, in request counts: repeats, fresh dynamics
/// jobs, city jobs and `stats` polls. Every plan is whole blocks, each
/// shuffled by the seed, so the mix's composition never varies.
const BLOCK: [(Kind, usize); 4] = [
    (Kind::Repeat, 10),
    (Kind::Fresh, 6),
    (Kind::City, 1),
    (Kind::Stats, 3),
];
const PROTOCOLS: [&str; 4] = ["static", "pid", "dimmer-rule", "dimmer-dqn"];
const POLL_INTERVAL: Duration = Duration::from_micros(250);
const READ_WAIT: Duration = Duration::from_micros(100);
const REQUEST_TIMEOUT: Duration = Duration::from_secs(20);
/// Seed of the set-up's warm-up city job, outside every plan's seeds.
const WARMUP_SEED: u64 = u64::MAX;

/// What a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// A submit of one of the repeat keys.
    Repeat,
    /// A submit of a quick dynamics job with a fresh seed.
    Fresh,
    /// A submit of a quick city job with a fresh seed.
    City,
    /// A `stats` poll.
    Stats,
}

impl Kind {
    /// Span tag and job kind.
    pub fn tag(self) -> &'static str {
        match self {
            Kind::Repeat => "repeat",
            Kind::Fresh => "fresh",
            Kind::City => "city",
            Kind::Stats => "stats",
        }
    }

    /// The `bench.grid_run_ms.<kind>` job kind of a submit.
    fn job_kind(self) -> &'static str {
        match self {
            Kind::City => "city",
            _ => "dynamics",
        }
    }
}

/// One request of the plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// When it is due, from the start of the run.
    pub due: Duration,
    /// What it asks for.
    pub kind: Kind,
    /// The scenario spec object of a submit (`None` for polls).
    pub spec: Option<String>,
    /// The request line sent on the wire.
    pub line: String,
}

fn dynamics_spec(preset: &str, protocol: &str, seed: u64) -> String {
    format!(
        r#"{{"grid":"dynamics:{preset}","quick":true,"protocols":["{protocol}"],"seed":{seed}}}"#
    )
}

fn city_spec(seed: u64) -> String {
    format!(r#"{{"grid":"city","quick":true,"trials":1,"seed":{seed}}}"#)
}

fn submit_line(spec: &str) -> String {
    format!(r#"{{"cmd":"submit","spec":{spec}}}"#)
}

/// Every (preset, protocol) pair the dynamics jobs draw from.
fn combos() -> Vec<(&'static str, &'static str)> {
    DYNAMIC_SCENARIOS
        .iter()
        .flat_map(|&preset| PROTOCOLS.iter().map(move |&protocol| (preset, protocol)))
        .collect()
}

/// The request plan for `seed` over `seconds`: whole [`BLOCK`]s (at
/// least one) at [`RATE_PER_S`]. Repeats pick uniformly among 16 keys,
/// one per (preset, protocol) pair; fresh jobs cycle through the pairs
/// with new seeds.
pub fn plan(seed: u64, seconds: f64) -> Vec<Request> {
    let mut rng = SimRng::seed_from(SimRng::derive_seed(seed, &[0xda]));
    let combos = combos();
    let keys: Vec<String> = combos
        .iter()
        .enumerate()
        .map(|(k, (preset, protocol))| {
            dynamics_spec(
                preset,
                protocol,
                SimRng::derive_seed(seed, &[1, k as u64]) % 1_000_000,
            )
        })
        .collect();
    let block_len: usize = BLOCK.iter().map(|(_, n)| n).sum();
    let blocks = ((RATE_PER_S * seconds / block_len as f64).round() as usize).max(1);
    let mut kinds = Vec::with_capacity(blocks * block_len);
    for _ in 0..blocks {
        let mut block: Vec<Kind> = BLOCK
            .iter()
            .flat_map(|&(kind, n)| std::iter::repeat_n(kind, n))
            .collect();
        rng.shuffle(&mut block);
        kinds.extend(block);
    }
    let mut fresh = rng.index(combos.len());
    kinds
        .into_iter()
        .enumerate()
        .map(|(i, kind)| {
            let fresh_seed = SimRng::derive_seed(seed, &[2, i as u64]) % 1_000_000_000;
            let spec = match kind {
                Kind::Repeat => Some(keys[rng.index(keys.len())].clone()),
                Kind::Fresh => {
                    let (preset, protocol) = combos[fresh % combos.len()];
                    fresh += 1;
                    Some(dynamics_spec(preset, protocol, fresh_seed))
                }
                Kind::City => Some(city_spec(fresh_seed)),
                Kind::Stats => None,
            };
            let line = match &spec {
                Some(spec) => submit_line(spec),
                None => r#"{"cmd":"stats"}"#.to_string(),
            };
            Request {
                due: Duration::from_secs_f64(i as f64 / RATE_PER_S),
                kind,
                spec,
                line,
            }
        })
        .collect()
}

/// A running daemon: executors, the TCP server and its address.
pub struct Server {
    daemon: Daemon,
    addr: SocketAddr,
    server: Option<JoinHandle<std::io::Result<()>>>,
    executors: Vec<JoinHandle<()>>,
    /// The request plan this server will be driven with.
    pub plan: Vec<Request>,
}

/// One blocking request/reply exchange on `stream`.
fn exchange(reader: &mut BufReader<TcpStream>, line: &str) -> std::io::Result<String> {
    let stream = reader.get_mut();
    stream.write_all(format!("{line}\n").as_bytes())?;
    let mut reply = String::new();
    if reader.read_line(&mut reply)? == 0 {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    Ok(reply.trim_end().to_string())
}

fn connect(addr: SocketAddr) -> std::io::Result<BufReader<TcpStream>> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
    Ok(BufReader::new(stream))
}

impl Server {
    /// Starts a daemon with `threads` total worker threads, binds it to a
    /// loopback port, and warms it with one city job (world cache and
    /// code paths) before any request is timed.
    pub fn start(seed: u64, seconds: f64, threads: usize) -> std::io::Result<Server> {
        let daemon = Daemon::new(DaemonConfig {
            queue_limit: 64,
            threads: (threads / WORKERS).max(1),
            workers: WORKERS,
            memo_budget_bytes: MEMO_BUDGET_BYTES,
        });
        let executors = daemon.spawn_executors(WORKERS);
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let served = daemon.clone();
        let server = thread::spawn(move || dimmerd::server::serve(&served, listener));
        let server = Server {
            daemon,
            addr,
            server: Some(server),
            executors,
            plan: plan(seed, seconds),
        };
        let mut conn = connect(addr)?;
        let reply = exchange(&mut conn, &submit_line(&city_spec(WARMUP_SEED)))?;
        let job = json::parse(&reply)
            .ok()
            .and_then(|v| v.get("job").and_then(Json::as_u64))
            .ok_or_else(|| std::io::Error::other(format!("warm-up submit failed: {reply}")))?;
        server.daemon.wait_for_job(job);
        Ok(server)
    }

    fn stop(&mut self) {
        if let Ok(mut conn) = connect(self.addr) {
            let _ = exchange(&mut conn, r#"{"cmd":"shutdown"}"#);
        }
        if let Some(server) = self.server.take() {
            let _ = server.join();
        }
        for executor in self.executors.drain(..) {
            let _ = executor.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// How one request ended.
#[derive(Debug, Clone, PartialEq)]
enum Status {
    Pending,
    Done,
    Failed(String),
}

/// Client-side record of one request.
#[derive(Debug, Clone)]
struct Op {
    due: Instant,
    sent: Option<Instant>,
    replied: Option<Instant>,
    hit: bool,
    job: Option<u64>,
    ready: Option<Instant>,
    fetch_start: Option<Instant>,
    result: Option<Instant>,
    report_digest: Option<u64>,
    status: Status,
}

/// Reads whole lines from a stream whose reads time out after
/// [`READ_WAIT`].
struct LineReader {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl LineReader {
    fn poll(&mut self, out: &mut Vec<String>) -> std::io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        match self.stream.read(&mut chunk) {
            Ok(0) => return Err(std::io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(e),
        }
        while let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.buf.drain(..=pos).collect();
            out.push(String::from_utf8_lossy(&line[..pos]).into_owned());
        }
        Ok(())
    }
}

fn reply_ok(reply: &Json) -> bool {
    reply.get("ok") == Some(&Json::Bool(true))
}

fn reply_error(reply: &Json, raw: &str) -> String {
    reply
        .get("error")
        .and_then(Json::as_str)
        .unwrap_or(raw)
        .to_string()
}

/// What the client observed.
struct ClientLog {
    ops: Vec<Op>,
    final_stats: Option<Json>,
    end: Instant,
}

/// Drives `plan` against the server: one thread sends on schedule over
/// connection A, this thread reads A's replies and fetches results over
/// connection B.
fn drive(server: &Server) -> std::io::Result<ClientLog> {
    let plan = &server.plan;
    let conn_a = connect(server.addr)?.into_inner();
    conn_a.set_read_timeout(Some(READ_WAIT))?;
    let mut sender = conn_a.try_clone()?;
    let mut replies_a = LineReader {
        stream: conn_a,
        buf: Vec::new(),
    };
    let mut conn_b = connect(server.addr)?;
    let start = Instant::now();
    let mut ops: Vec<Op> = plan
        .iter()
        .map(|r| Op {
            due: start + r.due,
            sent: None,
            replied: None,
            hit: false,
            job: None,
            ready: None,
            fetch_start: None,
            result: None,
            report_digest: None,
            status: Status::Pending,
        })
        .collect();
    let dues: Vec<Instant> = ops.iter().map(|o| o.due).collect();
    let deadline = start + plan.last().map_or(Duration::ZERO, |r| r.due) + REQUEST_TIMEOUT;
    let (tx, rx) = mpsc::channel::<(usize, Instant)>();

    let mut final_stats = None;
    thread::scope(|scope| -> std::io::Result<()> {
        let send = scope.spawn(move || -> std::io::Result<()> {
            for (i, (request, due)) in plan.iter().zip(dues).enumerate() {
                let now = Instant::now();
                if due > now {
                    thread::sleep(due - now);
                }
                sender.write_all(format!("{}\n", request.line).as_bytes())?;
                if tx.send((i, Instant::now())).is_err() {
                    break;
                }
            }
            Ok(())
        });

        let mut awaiting: VecDeque<usize> = VecDeque::new();
        let mut queued: VecDeque<usize> = VecDeque::new();
        let mut ready: VecDeque<usize> = VecDeque::new();
        let mut lines = Vec::new();
        let mut last_poll = start;
        let mut sent_all = false;
        loop {
            // Results of finished jobs first: they are what latency waits on.
            while let Some(i) = ready.pop_front() {
                let op = &mut ops[i];
                let job = op.job.expect("ready ops carry a job id");
                op.fetch_start = Some(Instant::now());
                let raw = exchange(&mut conn_b, &format!(r#"{{"cmd":"result","job":{job}}}"#))?;
                let now = Instant::now();
                match json::parse(&raw) {
                    Ok(reply) if reply_ok(&reply) => {
                        match reply.get("report").and_then(Json::as_str) {
                            Some(report) => {
                                op.result = Some(now);
                                op.report_digest = Some(fnv::of_bytes(report.as_bytes()));
                                op.status = Status::Done;
                            }
                            None => op.status = Status::Failed("result without report".into()),
                        }
                    }
                    Ok(reply) => op.status = Status::Failed(reply_error(&reply, &raw)),
                    Err(e) => op.status = Status::Failed(e),
                }
            }
            // Poll the head of the FIFO queue.
            if let Some(&i) = queued.front() {
                if last_poll.elapsed() >= POLL_INTERVAL {
                    let job = ops[i].job.expect("queued ops carry a job id");
                    let raw = exchange(&mut conn_b, &format!(r#"{{"cmd":"status","job":{job}}}"#))?;
                    last_poll = Instant::now();
                    let state = json::parse(&raw)
                        .ok()
                        .and_then(|v| v.get("state").and_then(Json::as_str).map(str::to_string));
                    match state.as_deref() {
                        Some("done") => {
                            queued.pop_front();
                            ops[i].ready = Some(last_poll);
                            ready.push_back(i);
                            continue;
                        }
                        Some("queued") | Some("running") => {}
                        _ => {
                            queued.pop_front();
                            ops[i].status = Status::Failed(format!("status: {raw}"));
                        }
                    }
                }
            }
            // Replies to what connection A sent, in order.
            while let Ok((i, at)) = rx.try_recv() {
                ops[i].sent = Some(at);
                awaiting.push_back(i);
            }
            lines.clear();
            replies_a.poll(&mut lines)?;
            for raw in &lines {
                let i = match awaiting.pop_front() {
                    Some(i) => i,
                    // The send record is still in flight behind its reply.
                    None => match rx.recv() {
                        Ok((i, at)) => {
                            ops[i].sent = Some(at);
                            i
                        }
                        Err(_) => return Err(std::io::Error::other("reply without request")),
                    },
                };
                let now = Instant::now();
                let op = &mut ops[i];
                op.replied = Some(now);
                let reply = match json::parse(raw) {
                    Ok(reply) => reply,
                    Err(e) => {
                        op.status = Status::Failed(e);
                        continue;
                    }
                };
                if !reply_ok(&reply) {
                    op.status = Status::Failed(reply_error(&reply, raw));
                    continue;
                }
                if plan[i].kind == Kind::Stats {
                    op.result = Some(now);
                    op.status = Status::Done;
                    continue;
                }
                op.job = reply.get("job").and_then(Json::as_u64);
                match reply.get("state").and_then(Json::as_str) {
                    Some("done") => {
                        op.hit = true;
                        op.ready = Some(now);
                        ready.push_back(i);
                    }
                    Some("queued") => queued.push_back(i),
                    _ => op.status = Status::Failed(format!("submit: {raw}")),
                }
            }
            if !sent_all && send.is_finished() {
                // Every send record is in the channel once the sender ended.
                sent_all = true;
                while let Ok((i, at)) = rx.try_recv() {
                    ops[i].sent = Some(at);
                    awaiting.push_back(i);
                }
            }
            if sent_all && awaiting.is_empty() && queued.is_empty() && ready.is_empty() {
                break;
            }
            if Instant::now() > deadline {
                break;
            }
        }
        send.join().expect("sender thread does not panic")?;
        let raw = exchange(&mut conn_b, r#"{"cmd":"stats"}"#)?;
        final_stats = json::parse(&raw).ok();
        Ok(())
    })?;
    let end = Instant::now();
    for op in &mut ops {
        if op.status == Status::Pending {
            op.status = Status::Failed("timeout".into());
        }
    }
    Ok(ClientLog {
        ops,
        final_stats,
        end,
    })
}

/// The offline reference of one spec: report digest, grid time and the
/// report's simulated means.
struct Reference {
    digest: u64,
    bytes: usize,
    grid_ms: f64,
    reliability: f64,
    radio_on_ms: f64,
}

fn offline(
    spec_text: &str,
    kind: Kind,
    worlds: &mut WorldCache,
    tracer: &mut Tracer,
) -> Result<Reference, String> {
    let spec = ScenarioSpec::from_json(&json::parse(spec_text)?)?;
    let opts = RunOptions {
        trials: spec.trials()?,
        threads: 1,
        seed: spec.resolved_seed()?,
    };
    let start = Instant::now();
    let report = tracer.span(
        "bench.grid_run",
        kind.job_kind(),
        |_| -> Result<_, String> { Ok(spec.build(worlds)?.run(&opts)) },
    )?;
    let grid_ms = start.elapsed().as_secs_f64() * 1e3;
    let text = tracer.span("bench.to_json", kind.job_kind(), |_| report.to_json());
    let cell_mean = |name: &str| {
        let values: Vec<f64> = report
            .cells
            .iter()
            .filter_map(|c| c.metric(name).map(|a| a.mean))
            .collect();
        crate::stats::mean(&values)
    };
    Ok(Reference {
        digest: fnv::of_bytes(text.as_bytes()),
        bytes: text.len(),
        grid_ms,
        reliability: cell_mean("reliability"),
        radio_on_ms: cell_mean("radio_on_ms"),
    })
}

fn stat(stats: &Option<Json>, key: &str) -> f64 {
    stats
        .as_ref()
        .and_then(|s| s.get(key).and_then(Json::as_u64))
        .unwrap_or(0) as f64
}

/// Drives the plan, then checks every result against its offline run.
pub fn run(server: &Server, tracer: &mut Tracer) -> std::io::Result<Measured> {
    let plan = &server.plan;
    let log = drive(server)?;
    let start = log.ops.first().map_or(log.end, |o| o.due);

    // Offline references, once per distinct spec, in a fixed order.
    let mut specs: BTreeMap<&str, Kind> = BTreeMap::new();
    for (request, op) in plan.iter().zip(&log.ops) {
        if let (Some(spec), Status::Done) = (&request.spec, &op.status) {
            specs.insert(spec, request.kind);
        }
    }
    let mut worlds = WorldCache::new();
    let mut references = BTreeMap::new();
    let mut failed = 0u64;
    for (spec, kind) in &specs {
        match offline(spec, *kind, &mut worlds, tracer) {
            Ok(reference) => {
                references.insert(*spec, reference);
            }
            Err(_) => failed += 1,
        }
    }

    let mut latencies_ms = Vec::new();
    let mut queue_wait_ms = Vec::new();
    let mut lateness_ms = Vec::new();
    let mut delivered = 0u64;
    let mut last_result = start;
    for (request, op) in plan.iter().zip(&log.ops) {
        if let Some(sent) = op.sent {
            lateness_ms.push(sent.saturating_duration_since(op.due).as_secs_f64() * 1e3);
        }
        if op.status != Status::Done {
            failed += 1;
            continue;
        }
        let Some(spec) = &request.spec else { continue };
        let matches = references
            .get(spec.as_str())
            .is_some_and(|r| Some(r.digest) == op.report_digest);
        if !matches {
            failed += 1;
            continue;
        }
        let result = op.result.expect("done submits carry a result time");
        let latency = result.saturating_duration_since(op.due).as_secs_f64() * 1e3;
        latencies_ms.push(latency);
        delivered += 1;
        last_result = last_result.max(result);
        if !op.hit {
            queue_wait_ms.push(latency - references[spec.as_str()].grid_ms);
        }
    }

    let refs: Vec<&Reference> = references.values().collect();
    let mut digest = fnv::Fnv::default();
    for (spec, reference) in &references {
        digest.bytes(spec.as_bytes()).u64(reference.digest);
    }
    let mut measured = Measured {
        attempted: plan.len() as u64,
        failed,
        throughput_per_s: delivered as f64
            / last_result.saturating_duration_since(start).as_secs_f64(),
        latencies_ms,
        reliability: crate::stats::mean(&refs.iter().map(|r| r.reliability).collect::<Vec<_>>()),
        radio_on_ms: crate::stats::mean(&refs.iter().map(|r| r.radio_on_ms).collect::<Vec<_>>()),
        digest: digest.finish(),
        ..Measured::default()
    };
    let hits = log
        .ops
        .iter()
        .filter(|o| o.hit && o.status == Status::Done)
        .count();
    measured
        .notes
        .push(("requests".into(), plan.len().to_string()));
    measured.notes.push(("hits".into(), hits.to_string()));
    measured
        .notes
        .push(("distinct_specs".into(), specs.len().to_string()));
    measured
        .notes
        .push(("rate_per_s".into(), RATE_PER_S.to_string()));
    if let Some(stats) = &log.final_stats {
        measured
            .notes
            .push(("daemon_stats".into(), stats.to_string()));
    }
    if tracer.enabled() {
        record_request_spans(plan, &log, tracer);
        let mut layers = probes(server, tracer);
        let submitted = stat(&log.final_stats, "submitted").max(1.0);
        layers.push((
            "bench.grid_run_ms.dynamics".into(),
            median(&tracer.durations_us("bench.grid_run", Some("dynamics"))) / 1e3,
        ));
        layers.push((
            "bench.grid_run_ms.city".into(),
            median(&tracer.durations_us("bench.grid_run", Some("city"))) / 1e3,
        ));
        layers.push((
            "bench.to_json_us".into(),
            median(&tracer.durations_us("bench.to_json", None)),
        ));
        let bytes: Vec<f64> = refs.iter().map(|r| r.bytes as f64).collect();
        layers.push((
            "bench.report_kb".into(),
            crate::stats::mean(&bytes) / 1024.0,
        ));
        layers.push(("dimmerd.queue_wait_ms".into(), median(&queue_wait_ms)));
        layers.push((
            "dimmerd.memo_hit_ratio".into(),
            stat(&log.final_stats, "memo_hits") / submitted,
        ));
        layers.push((
            "dimmerd.memo_evictions".into(),
            stat(&log.final_stats, "memo_evictions"),
        ));
        layers.push((
            "dimmerd.busy_rejections".into(),
            stat(&log.final_stats, "busy_rejections"),
        ));
        layers.push((
            "client.send_lateness_ms".into(),
            crate::stats::tail(&lateness_ms).value,
        ));
        measured.layers = layers;
    }
    Ok(measured)
}

/// Turns the client's timestamps into request spans: the request, and
/// within it the submit exchange, the wait for the job and the fetch.
fn record_request_spans(plan: &[Request], log: &ClientLog, tracer: &mut Tracer) {
    for (request, op) in plan.iter().zip(&log.ops) {
        let (Some(end), tag) = (op.result, request.kind.tag()) else {
            continue;
        };
        let parent = tracer.record("client.request", tag, op.due, end, None);
        if let (Some(sent), Some(replied)) = (op.sent, op.replied) {
            tracer.record("dimmerd.submit", tag, sent, replied, parent);
        }
        if let (Some(replied), Some(ready)) = (op.replied, op.ready) {
            tracer.record("dimmerd.queue_wait", tag, replied, ready, parent);
        }
        if let Some(fetch) = op.fetch_start {
            tracer.record("dimmerd.result", tag, fetch, end, parent);
        }
    }
}

/// Protocol-layer probes without TCP: parsing the plan's lines, and a
/// memo-hit submit through `Daemon::handle_line`.
fn probes(server: &Server, tracer: &mut Tracer) -> Vec<(String, f64)> {
    const HIT_REPS: usize = 200;
    let mut out = Vec::new();
    for request in &server.plan {
        let _ = std::hint::black_box(tracer.span(
            "dimmerd.parse_request",
            request.kind.tag(),
            |_| dimmerd::proto::parse_request(&request.line),
        ));
    }
    out.push((
        "dimmerd.parse_us".into(),
        median(&tracer.durations_us("dimmerd.parse_request", None)),
    ));

    let daemon = Daemon::new(DaemonConfig {
        queue_limit: 4,
        threads: 1,
        workers: 1,
        memo_budget_bytes: MEMO_BUDGET_BYTES,
    });
    let executor = daemon.spawn_executor();
    let line = server
        .plan
        .iter()
        .find(|r| r.kind == Kind::Repeat)
        .map_or_else(|| submit_line(&city_spec(WARMUP_SEED)), |r| r.line.clone());
    let (reply, _) = daemon.handle_line(&line);
    let job = json::parse(&reply)
        .ok()
        .and_then(|v| v.get("job").and_then(Json::as_u64));
    if let Some(job) = job {
        daemon.wait_for_job(job);
        for _ in 0..HIT_REPS {
            std::hint::black_box(
                tracer.span("dimmerd.handle_line", "hit", |_| daemon.handle_line(&line)),
            );
        }
    }
    daemon.handle_line(r#"{"cmd":"shutdown"}"#);
    let _ = executor.join();
    out.push((
        "dimmerd.handle_hit_us".into(),
        median(&tracer.durations_us("dimmerd.handle_line", Some("hit"))),
    ));
    out
}
