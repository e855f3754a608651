//! TCP plumbing: newline-delimited request/reply framing over a listener.
//!
//! The accept loop polls a non-blocking listener so it can notice the
//! drain-complete flag after a `shutdown` request; each accepted
//! connection gets a plain thread reading one request line at a time and
//! writing one reply line back. All protocol logic lives in
//! [`Daemon`] — this module only moves bytes, and refuses lines that are
//! too long or not UTF-8 with an error reply while the connection stays
//! open.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread;
use std::time::Duration;

use crate::proto::error_reply;
use crate::service::Daemon;

/// How often the accept loop re-checks the stop flag.
const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// The longest request line buffered, newline excluded. Real requests
/// are under 1 KiB; a longer line is discarded up to its newline rather
/// than grown without bound.
const MAX_LINE_BYTES: usize = 64 * 1024;

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
    let mut line = Vec::new();
    loop {
        line.clear();
        // One byte past the cap tells a full-length line from a longer one.
        match (&mut reader)
            .take(MAX_LINE_BYTES as u64 + 1)
            .read_until(b'\n', &mut line)
        {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        let mut reply = if line.len() > MAX_LINE_BYTES && line.last() != Some(&b'\n') {
            if reader.skip_until(b'\n').is_err() {
                return;
            }
            error_reply(&format!("request line longer than {MAX_LINE_BYTES} bytes"))
        } else {
            match std::str::from_utf8(&line) {
                Ok(text) if text.trim().is_empty() => continue,
                Ok(text) => daemon.handle_line(text.trim()).0,
                Err(_) => error_reply("request line is not valid UTF-8"),
            }
        };
        // One write per reply line: a separate write of the newline is held
        // back by Nagle's algorithm until the client ACKs the first one.
        reply.push('\n');
        if writer.write_all(reply.as_bytes()).is_err() {
            return;
        }
    }
}
