//! The load generator: socket connections and the closed loop.
//!
//! Inside the timed window the client does as little as it can: it writes a
//! pre-rendered line, reads frames, and stamps times.  Frames are parsed and
//! answers checked after the window.

use crate::gen::{Ask, Generator};
use crate::json;
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

/// How long a request may take before it counts as timed out.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    pub fn connect(path: &Path) -> io::Result<Conn> {
        let stream = UnixStream::connect(path)?;
        stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    pub fn send(&mut self, line: &str) -> io::Result<()> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.writer.write_all(&bytes)
    }

    pub fn recv(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        line.truncate(line.trim_end().len());
        Ok(line)
    }

    /// Sends `line` and reads frames up to its terminal one.
    pub fn ask(&mut self, line: &str) -> io::Result<Vec<String>> {
        self.send(line)?;
        let mut frames = Vec::new();
        loop {
            let frame = self.recv()?;
            let last = !json::is_chunk(&frame);
            frames.push(frame);
            if last {
                return Ok(frames);
            }
        }
    }

    /// One `stats` request, parsed.
    pub fn stats(&mut self) -> Result<json::Value, String> {
        let frames = self.ask("stats").map_err(|e| e.to_string())?;
        json::parse(frames.last().expect("ask returns a terminal frame"))
    }
}

/// One request as the client saw it.  Times are nanoseconds on the run's
/// clock.
#[derive(Debug, Clone)]
pub struct Reply {
    pub ask: Ask,
    pub sent: u64,
    pub first_chunk: Option<u64>,
    pub done: Option<u64>,
    pub frames: Vec<String>,
    /// Transport failure or timeout; the request then counts as failed.
    pub error: Option<String>,
}

impl Reply {
    /// Send → terminal frame, in milliseconds.
    pub fn latency_ms(&self) -> Option<f64> {
        self.done.map(|d| d.saturating_sub(self.sent) as f64 / 1e6)
    }

    /// Send → first chunk frame, in milliseconds.
    pub fn ttfi_ms(&self) -> Option<f64> {
        self.first_chunk
            .map(|d| d.saturating_sub(self.sent) as f64 / 1e6)
    }
}

pub fn since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// A closed loop: `conns` connections, each with one request in flight,
/// drawing requests from `gen` until `until` on the run clock.
pub fn closed_loop(
    socket: &Path,
    gen: &Mutex<Generator>,
    conns: usize,
    t0: Instant,
    until: u64,
) -> Vec<Reply> {
    let per_conn: Vec<Vec<Reply>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|_| {
                scope.spawn(move || {
                    let mut replies = Vec::new();
                    let mut conn = Conn::connect(socket).ok();
                    while since(t0) < until {
                        let ask = gen.lock().expect("generator lock").next_ask();
                        let sent = since(t0);
                        let mut reply = Reply {
                            ask,
                            sent,
                            first_chunk: None,
                            done: None,
                            frames: Vec::new(),
                            error: None,
                        };
                        match conn.as_mut() {
                            None => reply.error = Some("cannot connect".to_string()),
                            Some(c) => {
                                if let Err(e) = exchange(c, &mut reply, t0) {
                                    reply.error = Some(e.to_string());
                                }
                            }
                        }
                        if reply.error.is_some() {
                            // The connection state is unknown: start afresh.
                            conn = Conn::connect(socket).ok();
                        }
                        replies.push(reply);
                    }
                    replies
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    per_conn.into_iter().flatten().collect()
}

fn exchange(conn: &mut Conn, reply: &mut Reply, t0: Instant) -> io::Result<()> {
    conn.send(&reply.ask.line)?;
    loop {
        let frame = conn.recv()?;
        let at = since(t0);
        if json::is_chunk(&frame) {
            reply.first_chunk.get_or_insert(at);
            reply.frames.push(frame);
        } else {
            reply.done = Some(at);
            reply.frames.push(frame);
            return Ok(());
        }
    }
}
