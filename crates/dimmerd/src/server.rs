//! TCP plumbing: newline-delimited request/reply framing over a listener.
//!
//! The accept loop polls a non-blocking listener so it can notice the
//! drain-complete flag after a `shutdown` request; each accepted
//! connection gets a plain thread reading one request line at a time and
//! writing one reply line back. All protocol logic lives in
//! [`Daemon`] — this module only moves bytes.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::thread;
use std::time::Duration;

use crate::service::Daemon;

/// How often the accept loop re-checks the stop flag.
const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// Serves `daemon` on `listener` until a `shutdown` request has been
/// processed **and** the executor has drained the queue. Call with the
/// executor already spawned.
pub fn serve(daemon: &Daemon, listener: TcpListener) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    loop {
        match listener.accept() {
            Ok((stream, _addr)) => {
                let daemon = daemon.clone();
                thread::spawn(move || handle_connection(&daemon, stream));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if daemon.is_stopped() {
                    return Ok(());
                }
                thread::sleep(ACCEPT_POLL);
            }
            Err(e) => return Err(e),
        }
    }
}

/// Reads request lines until EOF, answering each with one reply line.
fn handle_connection(daemon: &Daemon, stream: TcpStream) {
    // Replies are single small writes; without TCP_NODELAY a reply can wait
    // on the client's delayed ACK.
    if stream.set_nodelay(true).is_err() {
        return;
    }
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut writer = write_half;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return,
            Ok(_) => {}
            Err(_) => return,
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let (mut reply, _is_shutdown) = daemon.handle_line(trimmed);
        // One write per reply line: a separate write of the newline is held
        // back by Nagle's algorithm until the client ACKs the first one.
        reply.push('\n');
        if writer.write_all(reply.as_bytes()).is_err() {
            return;
        }
    }
}
