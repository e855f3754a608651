//! `dimmer-cli` — the client for the `dimmerd` daemon.
//!
//! ```text
//! dimmer-cli [--addr HOST:PORT] submit --grid NAME [--quick] [--trials N]
//!            [--seed S] [--protocols a,b,c] [--wait]
//! dimmer-cli [--addr HOST:PORT] status --job N
//! dimmer-cli [--addr HOST:PORT] result --job N
//! dimmer-cli [--addr HOST:PORT] stats
//! dimmer-cli [--addr HOST:PORT] shutdown
//! ```
//!
//! `submit` takes the same grid names and flags as the `exp` binary
//! (`--grid fig5`, `--grid dynamics:churn-storm`, ...; see
//! `dimmer_bench::catalogue`). `submit --wait` polls `status` until the
//! job settles, then prints the *unescaped* report JSON to stdout — the
//! exact bytes `exp --grid NAME --json PATH` writes for the same grid,
//! seed and trials. Every other command prints the daemon's reply line
//! verbatim.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use dimmerd::json::{self, Json};

fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(1);
}

/// One request/reply exchange on a fresh connection.
fn exchange(addr: &str, request: &str) -> Json {
    let stream = TcpStream::connect(addr)
        .unwrap_or_else(|e| fail(&format!("cannot connect to {addr}: {e}")));
    let mut writer = stream
        .try_clone()
        .unwrap_or_else(|e| fail(&format!("connection failed: {e}")));
    // One write per line, so Nagle's algorithm never holds a tail back.
    writer
        .write_all(format!("{request}\n").as_bytes())
        .unwrap_or_else(|e| fail(&format!("cannot send request: {e}")));
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .unwrap_or_else(|e| fail(&format!("cannot read reply: {e}")));
    if line.trim().is_empty() {
        fail("daemon closed the connection without a reply");
    }
    json::parse(line.trim()).unwrap_or_else(|e| fail(&format!("malformed reply: {e}")))
}

fn reply_field<'a>(reply: &'a Json, key: &str) -> &'a Json {
    reply
        .get(key)
        .unwrap_or_else(|| fail(&format!("reply missing \"{key}\": {reply}")))
}

fn require_ok(reply: &Json) {
    if reply.get("ok").and_then(Json::as_bool) != Some(true) {
        let message = reply
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("daemon refused the request");
        fail(message);
    }
}

fn main() {
    // lint: allow(D003) -- the one sanctioned ambient read: the CLI entry point
    let args: Vec<String> = std::env::args().skip(1).collect();

    let mut addr = "127.0.0.1:7878".to_string();
    let mut command: Option<String> = None;
    let mut grid: Option<String> = None;
    let mut job: Option<u64> = None;
    let mut quick = false;
    let mut wait = false;
    let mut trials: Option<u64> = None;
    let mut seed: Option<u64> = None;
    let mut protocols: Option<Vec<String>> = None;

    let mut i = 0;
    while i < args.len() {
        let flag = args[i].clone();
        let mut value = || -> String {
            i += 1;
            args.get(i)
                .cloned()
                .unwrap_or_else(|| fail(&format!("{flag} expects a value")))
        };
        match flag.as_str() {
            "--addr" => addr = value(),
            "--grid" => grid = Some(value()),
            "--job" => {
                job = Some(
                    value()
                        .parse()
                        .unwrap_or_else(|_| fail("--job expects a non-negative integer")),
                )
            }
            "--quick" => quick = true,
            "--wait" => wait = true,
            "--trials" => {
                trials = Some(
                    value()
                        .parse()
                        .unwrap_or_else(|_| fail("--trials expects a non-negative integer")),
                )
            }
            "--seed" => {
                seed = Some(
                    value()
                        .parse()
                        .unwrap_or_else(|_| fail("--seed expects a non-negative integer")),
                )
            }
            "--protocols" => {
                protocols = Some(value().split(',').map(|s| s.trim().to_string()).collect())
            }
            other if command.is_none() && !other.starts_with("--") => {
                command = Some(other.to_string());
            }
            other => fail(&format!("unexpected argument '{other}'")),
        }
        i += 1;
    }

    let Some(command) = command else {
        fail("usage: dimmer-cli [--addr HOST:PORT] submit|status|result|stats|shutdown ...");
    };

    match command.as_str() {
        "submit" => {
            let grid = grid.unwrap_or_else(|| fail("submit needs --grid NAME"));
            let mut spec = vec![("grid".to_string(), Json::Str(grid))];
            if quick {
                spec.push(("quick".to_string(), Json::Bool(true)));
            }
            if let Some(n) = trials {
                spec.push(("trials".to_string(), Json::Int(n)));
            }
            if let Some(s) = seed {
                spec.push(("seed".to_string(), Json::Int(s)));
            }
            if let Some(p) = protocols {
                spec.push((
                    "protocols".to_string(),
                    Json::Arr(p.into_iter().map(Json::Str).collect()),
                ));
            }
            let request = Json::Obj(vec![
                ("cmd".to_string(), Json::Str("submit".to_string())),
                ("spec".to_string(), Json::Obj(spec)),
            ])
            .to_string();
            let reply = exchange(&addr, &request);
            require_ok(&reply);
            if !wait {
                println!("{reply}");
                return;
            }
            let job = reply_field(&reply, "job")
                .as_u64()
                .unwrap_or_else(|| fail("reply carries no job id"));
            loop {
                let status = exchange(&addr, &format!(r#"{{"cmd":"status","job":{job}}}"#));
                require_ok(&status);
                match reply_field(&status, "state").as_str() {
                    Some("done") => break,
                    Some("failed") => break,
                    _ => std::thread::sleep(Duration::from_millis(100)),
                }
            }
            let result = exchange(&addr, &format!(r#"{{"cmd":"result","job":{job}}}"#));
            require_ok(&result);
            let report = reply_field(&result, "report")
                .as_str()
                .unwrap_or_else(|| fail("result reply carries no report"));
            // The report ends with its own newline.
            print!("{report}");
        }
        "status" | "result" => {
            let job = job.unwrap_or_else(|| fail(&format!("{command} needs --job N")));
            let reply = exchange(&addr, &format!(r#"{{"cmd":"{command}","job":{job}}}"#));
            println!("{reply}");
            if reply.get("ok").and_then(Json::as_bool) != Some(true) {
                std::process::exit(1);
            }
        }
        "stats" | "shutdown" => {
            let reply = exchange(&addr, &format!(r#"{{"cmd":"{command}"}}"#));
            println!("{reply}");
            if reply.get("ok").and_then(Json::as_bool) != Some(true) {
                std::process::exit(1);
            }
        }
        other => fail(&format!(
            "unknown command '{other}' (commands: submit, status, result, stats, shutdown)"
        )),
    }
}
