//! End-to-end checks of the `dimmerd` serving path: memoized results are
//! byte-identical to fresh runs, scenario hashes are stable across
//! equivalent spec constructions, served reports carry the exact bytes the
//! `exp` command line writes for the same catalogue grid, and concurrent
//! TCP clients each get their deterministic report without stalls, even
//! after hostile input.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use dimmer_bench::catalogue::run_cli;
use dimmer_bench::harness::{HarnessCli, RunOptions};
use dimmerd::json::{self, Json};
use dimmerd::{Daemon, DaemonConfig, ScenarioSpec, WorldCache};

fn daemon() -> Daemon {
    daemon_with_workers(1)
}

fn daemon_with_workers(workers: usize) -> Daemon {
    Daemon::new(DaemonConfig {
        queue_limit: 16,
        threads: 2,
        workers,
        memo_budget_bytes: 64 * 1024 * 1024,
    })
}

/// Sends one request line in-process and parses the reply.
fn ask(d: &Daemon, line: &str) -> Json {
    let (reply, _) = d.handle_line(line);
    json::parse(&reply).expect("daemon replies are valid JSON")
}

fn submit_and_wait(d: &Daemon, line: &str) -> (u64, String) {
    let reply = ask(d, line);
    assert_eq!(
        reply.get("ok"),
        Some(&Json::Bool(true)),
        "submit: {reply:?}"
    );
    let job = reply.get("job").and_then(Json::as_u64).expect("job id");
    d.wait_for_job(job);
    let result = ask(d, &format!(r#"{{"cmd":"result","job":{job}}}"#));
    assert_eq!(
        result.get("ok"),
        Some(&Json::Bool(true)),
        "result: {result:?}"
    );
    let report = result
        .get("report")
        .and_then(Json::as_str)
        .expect("report payload")
        .to_string();
    (job, report)
}

#[test]
fn memoized_result_is_byte_identical_to_a_fresh_run() {
    let d = daemon();
    let executor = d.spawn_executor();

    let (_, first) = submit_and_wait(&d, r#"{"cmd":"submit","spec":{"grid":"table1","seed":7}}"#);

    // The offline reference: the same spec built and run directly through
    // the shared scheduler.
    let spec = json::parse(r#"{"grid":"table1","seed":7}"#).unwrap();
    let spec = ScenarioSpec::from_json(&spec).unwrap();
    let offline = spec
        .build(&mut WorldCache::new())
        .unwrap()
        .run(&RunOptions {
            trials: spec.trials().unwrap(),
            threads: 1,
            seed: spec.resolved_seed().unwrap(),
        })
        .to_json();
    assert_eq!(first, offline, "served report != offline scheduler bytes");

    // Resubmission answers at submit time ("done") from the memo, with
    // the identical bytes.
    let again = ask(&d, r#"{"cmd":"submit","spec":{"grid":"table1","seed":7}}"#);
    assert_eq!(again.get("state").and_then(Json::as_str), Some("done"));
    let job = again.get("job").and_then(Json::as_u64).unwrap();
    let result = ask(&d, &format!(r#"{{"cmd":"result","job":{job}}}"#));
    let memoized = result.get("report").and_then(Json::as_str).unwrap();
    assert_eq!(
        memoized, first,
        "memoized report drifted from the fresh run"
    );

    let stats = ask(&d, r#"{"cmd":"stats"}"#);
    assert!(
        stats.get("memo_hits").and_then(Json::as_u64).unwrap() >= 1,
        "resubmission must count as a memo hit: {stats:?}"
    );

    ask(&d, r#"{"cmd":"shutdown"}"#);
    executor.join().unwrap();
}

/// The `--json` bytes of `exp` run with `args`.
fn exp_json(args: &[&str]) -> String {
    let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    let cli = HarnessCli::parse_from(&args).expect("valid exp command line");
    run_cli(&cli).expect("exp runs the grid").to_json()
}

#[test]
fn warm_world_city_report_matches_the_exp_cli_bytes() {
    let d = daemon();
    let executor = d.spawn_executor();

    // The daemon resolves `city --quick` to 8 floods, 4 trials, seed 500
    // over the warm world cache, flooding serially; `exp` builds every
    // world cold and fans each trial's floods across 3 threads. Bytes must
    // agree exactly.
    let (_, served) = submit_and_wait(
        &d,
        r#"{"cmd":"submit","spec":{"grid":"city","quick":true}}"#,
    );
    let offline = exp_json(&["--grid", "city", "--quick", "--threads", "3"]);
    assert_eq!(served, offline, "warm-cache city report != exp bytes");

    // A second submission is a memo hit — and the worlds were only built
    // once (the whole point of the warm cache).
    submit_and_wait(
        &d,
        r#"{"cmd":"submit","spec":{"grid":"city","quick":true}}"#,
    );
    let stats = ask(&d, r#"{"cmd":"stats"}"#);
    assert_eq!(stats.get("world_misses").and_then(Json::as_u64), Some(1));
    assert!(stats.get("world_bytes").and_then(Json::as_u64).unwrap() > 0);

    ask(&d, r#"{"cmd":"shutdown"}"#);
    executor.join().unwrap();
}

#[test]
fn four_worker_daemon_serves_the_single_worker_bytes_and_memo_hits() {
    // The reference daemon: one executor, a spread of specs.
    let single = daemon_with_workers(1);
    let single_exec = single.spawn_executors(1);
    let specs: Vec<String> = (1..=5)
        .map(|seed| format!(r#"{{"cmd":"submit","spec":{{"grid":"table1","seed":{seed}}}}}"#))
        .collect();
    let mut reference = Vec::new();
    for spec in &specs {
        let (_, report) = submit_and_wait(&single, spec);
        reference.push(report);
    }

    // The 4-worker pool executes the same specs concurrently; every
    // report must be byte-identical to the single-worker daemon's.
    let pool = daemon_with_workers(4);
    let pool_execs = pool.spawn_executors(4);
    let jobs: Vec<u64> = specs
        .iter()
        .map(|spec| {
            let reply = ask(&pool, spec);
            assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply:?}");
            reply.get("job").and_then(Json::as_u64).expect("job id")
        })
        .collect();
    for (job, want) in jobs.iter().zip(&reference) {
        pool.wait_for_job(*job);
        let result = ask(&pool, &format!(r#"{{"cmd":"result","job":{job}}}"#));
        let report = result.get("report").and_then(Json::as_str).unwrap();
        assert_eq!(report, want, "job {job}: pool bytes drifted from 1-worker");
    }

    // Resubmitting the whole batch answers from the memo — same bytes,
    // one hit per spec, nothing recomputed.
    for (spec, want) in specs.iter().zip(&reference) {
        let again = ask(&pool, spec);
        assert_eq!(again.get("state").and_then(Json::as_str), Some("done"));
        let job = again.get("job").and_then(Json::as_u64).unwrap();
        let result = ask(&pool, &format!(r#"{{"cmd":"result","job":{job}}}"#));
        assert_eq!(
            result.get("report").and_then(Json::as_str),
            Some(want.as_str())
        );
    }
    let stats = ask(&pool, r#"{"cmd":"stats"}"#);
    assert_eq!(
        stats.get("memo_hits").and_then(Json::as_u64),
        Some(5),
        "each resubmission is one memo hit: {stats:?}"
    );
    assert_eq!(stats.get("completed").and_then(Json::as_u64), Some(10));

    ask(&pool, r#"{"cmd":"shutdown"}"#);
    for handle in pool_execs {
        handle.join().unwrap();
    }
    assert!(pool.is_stopped());
    ask(&single, r#"{"cmd":"shutdown"}"#);
    for handle in single_exec {
        handle.join().unwrap();
    }
}

#[test]
fn scenario_hashes_are_stable_across_equivalent_constructions() {
    let parse = |line: &str| ScenarioSpec::from_json(&json::parse(line).unwrap()).unwrap();
    // Field order, explicit-default protocols and explicit-default trials
    // all canonicalize identically.
    let variants = [
        r#"{"grid":"fig7","quick":true}"#,
        r#"{"quick":true,"grid":"fig7"}"#,
        r#"{"grid":"fig7","quick":true,"trials":1}"#,
        r#"{"grid":"fig7","quick":true,"protocols":["static","dimmer-dqn","crystal"]}"#,
    ];
    let reference = parse(variants[0]).hash().unwrap();
    for v in &variants[1..] {
        assert_eq!(parse(v).hash().unwrap(), reference, "{v} must hash equal");
    }
    // Different grids, scales and selections must not collide pairwise.
    let distinct = [
        r#"{"grid":"fig7","quick":false}"#,
        r#"{"grid":"fig7","quick":true,"trials":2}"#,
        r#"{"grid":"fig7","quick":true,"protocols":["static"]}"#,
        r#"{"grid":"fig5","quick":true}"#,
        r#"{"grid":"city","quick":true}"#,
        r#"{"grid":"dynamics:churn-storm","quick":true}"#,
        r#"{"grid":"dynamics:roaming-jammer","quick":true}"#,
    ];
    let mut hashes = vec![reference];
    for v in &distinct {
        let h = parse(v).hash().unwrap();
        assert!(!hashes.contains(&h), "{v} collided with an earlier spec");
        hashes.push(h);
    }
}

/// One TCP request/reply round trip against a live daemon socket.
fn tcp_ask(addr: std::net::SocketAddr, line: &str) -> Json {
    let stream = TcpStream::connect(addr).expect("connect to test daemon");
    let mut writer = stream.try_clone().expect("clone stream");
    writer.write_all(format!("{line}\n").as_bytes()).unwrap();
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).unwrap();
    json::parse(reply.trim()).expect("daemon replies are valid JSON")
}

#[test]
fn concurrent_tcp_clients_each_get_their_deterministic_report() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    let d = daemon();
    let executor = d.spawn_executor();
    let server = {
        let d = d.clone();
        std::thread::spawn(move || dimmerd::server::serve(&d, listener))
    };

    // Several clients submit the same grid at different seeds in
    // parallel; each must receive the report its seed determines.
    let seeds: Vec<u64> = (1..=4).collect();
    let clients: Vec<_> = seeds
        .iter()
        .map(|&seed| {
            std::thread::spawn(move || {
                let submit = tcp_ask(
                    addr,
                    &format!(r#"{{"cmd":"submit","spec":{{"grid":"table1","seed":{seed}}}}}"#),
                );
                assert_eq!(submit.get("ok"), Some(&Json::Bool(true)), "{submit:?}");
                let job = submit.get("job").and_then(Json::as_u64).unwrap();
                loop {
                    let status = tcp_ask(addr, &format!(r#"{{"cmd":"status","job":{job}}}"#));
                    match status.get("state").and_then(Json::as_str) {
                        Some("done") | Some("failed") => break,
                        _ => std::thread::sleep(std::time::Duration::from_millis(20)),
                    }
                }
                let result = tcp_ask(addr, &format!(r#"{{"cmd":"result","job":{job}}}"#));
                assert_eq!(result.get("ok"), Some(&Json::Bool(true)), "{result:?}");
                (
                    seed,
                    result
                        .get("report")
                        .and_then(Json::as_str)
                        .unwrap()
                        .to_string(),
                )
            })
        })
        .collect();

    for client in clients {
        let (seed, served) = client.join().expect("client thread");
        let spec = ScenarioSpec::from_json(
            &json::parse(&format!(r#"{{"grid":"table1","seed":{seed}}}"#)).unwrap(),
        )
        .unwrap();
        let offline = spec
            .build(&mut WorldCache::new())
            .unwrap()
            .run(&RunOptions {
                trials: 1,
                threads: 1,
                seed,
            })
            .to_json();
        assert_eq!(served, offline, "seed {seed}: served bytes drifted");
    }

    let stats = tcp_ask(addr, r#"{"cmd":"stats"}"#);
    assert_eq!(stats.get("completed").and_then(Json::as_u64), Some(4));

    let bye = tcp_ask(addr, r#"{"cmd":"shutdown"}"#);
    assert_eq!(bye.get("state").and_then(Json::as_str), Some("draining"));
    executor.join().unwrap();
    server.join().unwrap().expect("server exits cleanly");
}

#[test]
fn exp_cli_bytes_equal_daemon_bytes_for_every_builder_kind() {
    let d = daemon();
    let executor = d.spawn_executor();
    // A plain grid, a protocol grid whose `exp` timeline hands its run to
    // the grid, and an in-sim training grid (`--envs` is pure prefetch).
    let cases: [(&str, &[&str]); 3] = [
        (
            r#"{"grid":"table1","seed":3}"#,
            &["--grid", "table1", "--seed", "3"],
        ),
        (
            r#"{"grid":"dynamics:flash-crowd","quick":true,"protocols":["dimmer-zoo","static"]}"#,
            &[
                "--grid",
                "dynamics:flash-crowd",
                "--quick",
                "--protocols",
                "dimmer-zoo,static",
            ],
        ),
        (
            r#"{"grid":"train:calm","quick":true}"#,
            &["--grid", "train:calm", "--quick", "--envs", "2"],
        ),
    ];
    for (spec, args) in cases {
        let (_, served) = submit_and_wait(&d, &format!(r#"{{"cmd":"submit","spec":{spec}}}"#));
        assert_eq!(served, exp_json(args), "{spec}: daemon != exp bytes");
    }
    ask(&d, r#"{"cmd":"shutdown"}"#);
    executor.join().unwrap();
}

#[test]
fn duplicate_protocols_are_rejected_by_exp_and_the_daemon() {
    let reply = ask(
        &daemon(),
        r#"{"cmd":"submit","spec":{"grid":"fig5","protocols":["pid","static","pid"]}}"#,
    );
    assert_eq!(reply.get("ok"), Some(&Json::Bool(false)));
    let error = reply.get("error").and_then(Json::as_str).unwrap();
    assert!(error.contains("more than once"), "{error}");

    let args: Vec<String> = ["--grid", "fig5", "--protocols", "pid,static,pid"]
        .iter()
        .map(|a| a.to_string())
        .collect();
    let cli = HarnessCli::parse_from(&args).unwrap();
    let error = run_cli(&cli).expect_err("exp rejects the selection");
    assert!(error.contains("more than once"), "{error}");
}

/// A live daemon on an ephemeral port; returns its address and the
/// handles to join after `shutdown`.
fn serve() -> (
    std::net::SocketAddr,
    Vec<std::thread::JoinHandle<()>>,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    let d = daemon();
    let executors = d.spawn_executors(1);
    let server = std::thread::spawn(move || dimmerd::server::serve(&d, listener));
    (addr, executors, server)
}

/// One request line written in a single write, and its reply.
fn exchange(stream: &mut BufReader<TcpStream>, line: &str) -> Json {
    stream
        .get_mut()
        .write_all(format!("{line}\n").as_bytes())
        .unwrap();
    let mut reply = String::new();
    stream.read_line(&mut reply).unwrap();
    json::parse(reply.trim()).expect("daemon replies are valid JSON")
}

fn shut_down(
    addr: std::net::SocketAddr,
    executors: Vec<std::thread::JoinHandle<()>>,
    server: std::thread::JoinHandle<std::io::Result<()>>,
) {
    tcp_ask(addr, r#"{"cmd":"shutdown"}"#);
    for executor in executors {
        executor.join().unwrap();
    }
    server.join().unwrap().expect("server exits cleanly");
}

#[test]
fn sequential_exchanges_on_one_connection_do_not_stall() {
    let (addr, executors, server) = serve();
    let mut stream = BufReader::new(TcpStream::connect(addr).unwrap());
    // A reply split over two writes waits ~40 ms for the client's delayed
    // ACK, so 20 exchanges took ~0.9 s; one write each takes microseconds.
    let start = Instant::now();
    for _ in 0..20 {
        let stats = exchange(&mut stream, r#"{"cmd":"stats"}"#);
        assert_eq!(stats.get("ok"), Some(&Json::Bool(true)));
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_millis(400),
        "20 stats exchanges took {elapsed:?}"
    );
    drop(stream);
    shut_down(addr, executors, server);
}

#[test]
fn deeply_nested_submit_is_an_error_reply_not_a_crash() {
    let hostile = format!(
        r#"{{"cmd":"submit","spec":{{"grid":"fig5","protocols":{}}}}}"#,
        "[".repeat(100_000)
    );
    let d = daemon();
    let (reply, _) = d.handle_line(&hostile);
    let reply = json::parse(&reply).unwrap();
    assert_eq!(reply.get("ok"), Some(&Json::Bool(false)));
    assert!(reply
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("nesting"));

    let (addr, executors, server) = serve();
    let mut stream = BufReader::new(TcpStream::connect(addr).unwrap());
    let reply = exchange(&mut stream, &hostile);
    assert_eq!(reply.get("ok"), Some(&Json::Bool(false)), "{reply:?}");
    // The connection and the daemon both survive.
    let stats = exchange(&mut stream, r#"{"cmd":"stats"}"#);
    assert_eq!(stats.get("ok"), Some(&Json::Bool(true)));
    let stats = tcp_ask(addr, r#"{"cmd":"stats"}"#);
    assert_eq!(stats.get("ok"), Some(&Json::Bool(true)));
    drop(stream);
    shut_down(addr, executors, server);
}
