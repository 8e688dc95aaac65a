//! A std-only threaded TCP front end for the [`Daemon`], plus a small
//! blocking client.
//!
//! Framing is one JSON object per `\n`-terminated line in each direction
//! (see [`crate::protocol`]). The listener runs one thread per connection;
//! the daemon serializes state mutations internally, so handler threads
//! need no coordination beyond calling [`Daemon::handle_line`].

use crate::daemon::Daemon;
use crate::protocol::{Request, Response};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

/// A running lvpd listener. Dropping it does not stop the daemon; call
/// [`Server::join`] for an orderly shutdown.
pub struct Server {
    daemon: Arc<Daemon>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// accepting connections against `daemon`.
    pub fn spawn(daemon: Arc<Daemon>, addr: impl ToSocketAddrs) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let accept_daemon = Arc::clone(&daemon);
        let acceptor = thread::spawn(move || {
            // Only this thread touches the worker list, so it needs no
            // lock (the old `Mutex` here could also poison and panic the
            // acceptor if a push ever unwound mid-lock).
            let mut workers: Vec<JoinHandle<()>> = Vec::new();
            for stream in listener.incoming() {
                if accept_daemon.is_shutdown() {
                    break;
                }
                let Ok(stream) = stream.and_then(with_nodelay) else {
                    continue;
                };
                // Reap finished connection handlers so the list stays
                // proportional to *live* connections instead of growing
                // by one handle per connection ever accepted. Joining a
                // finished thread returns immediately.
                let mut i = 0;
                while i < workers.len() {
                    if workers[i].is_finished() {
                        let _ = workers.swap_remove(i).join();
                    } else {
                        i += 1;
                    }
                }
                let daemon = Arc::clone(&accept_daemon);
                workers.push(thread::spawn(move || {
                    serve_connection(&daemon, stream, local_addr)
                }));
            }
            for handle in workers {
                let _ = handle.join();
            }
        });
        Ok(Self {
            daemon,
            local_addr,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Blocks until the daemon shuts down (a client sends the `shutdown`
    /// verb, or [`Server::shutdown`] is called from another thread), then
    /// joins every connection thread. Does not itself initiate shutdown.
    pub fn join(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }

    /// Initiates shutdown, wakes the acceptor, and joins every connection
    /// thread.
    pub fn shutdown(self) {
        self.daemon.request_shutdown();
        // The acceptor only observes the flag after an accept returns;
        // poke it with a throwaway connection so it wakes immediately.
        let _ = TcpStream::connect(self.local_addr);
        self.join();
    }
}

/// Turns Nagle's algorithm off on a connected stream. Both directions
/// carry one small line per message that the peer then waits on, so
/// coalescing writes only adds a delayed-ACK stall per pipelined batch.
fn with_nodelay(stream: TcpStream) -> io::Result<TcpStream> {
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Outcome of one bounded line read from a connection.
enum LineRead {
    /// A complete line within the size cap (without its `\n`).
    Line(Vec<u8>),
    /// The line exceeded the cap; its bytes were drained, not buffered.
    Oversized,
    /// Clean end of stream.
    Eof,
}

/// Reads one `\n`-terminated line, buffering at most `cap` bytes. Past the
/// cap the rest of the line is *drained* chunk by chunk (never held in
/// memory), so a malicious or misconfigured client sending a gigabyte
/// line costs the daemon one fixed-size buffer, not a gigabyte — and the
/// connection stays usable for the next request.
fn read_bounded_line(reader: &mut impl BufRead, cap: usize) -> io::Result<LineRead> {
    let mut line: Vec<u8> = Vec::new();
    let mut oversized = false;
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            // EOF. An unterminated oversized tail is still a rejection;
            // an unterminated in-cap tail is served as a final line.
            return Ok(if oversized {
                LineRead::Oversized
            } else if line.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Line(line)
            });
        }
        if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            if !oversized {
                line.extend_from_slice(&buf[..pos]);
            }
            reader.consume(pos + 1);
            return Ok(if oversized || line.len() > cap {
                LineRead::Oversized
            } else {
                LineRead::Line(line)
            });
        }
        let chunk = buf.len();
        if !oversized {
            line.extend_from_slice(buf);
            if line.len() > cap {
                // Switch to drain mode: release what we buffered.
                oversized = true;
                line = Vec::new();
            }
        }
        reader.consume(chunk);
    }
}

/// Serves one connection: one response line per request line, until the
/// peer closes or the daemon shuts down. `local_addr` lets the handler
/// poke the acceptor awake after a `shutdown` verb. Request lines longer
/// than [`DaemonConfig::max_request_bytes`](crate::daemon::DaemonConfig)
/// are rejected with a typed error response instead of buffered.
fn serve_connection(daemon: &Daemon, stream: TcpStream, local_addr: SocketAddr) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let cap = daemon.config().max_request_bytes;
    let mut writer = io::BufWriter::new(write_half);
    let mut reader = BufReader::new(stream);
    loop {
        let response = match read_bounded_line(&mut reader, cap) {
            Err(_) | Ok(LineRead::Eof) => break,
            Ok(LineRead::Oversized) => daemon.reject_oversized(),
            Ok(LineRead::Line(bytes)) => {
                let line = String::from_utf8_lossy(&bytes);
                if line.trim().is_empty() {
                    continue;
                }
                daemon.handle_line(&line)
            }
        };
        if writer
            .write_all(response.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush())
            .is_err()
        {
            break;
        }
        if daemon.is_shutdown() {
            // Wake the acceptor (blocked in accept) so it observes the
            // flag and the whole server winds down.
            let _ = TcpStream::connect(local_addr);
            break;
        }
    }
}

/// A minimal blocking lvpd client: one [`call`](Client::call) is one
/// request line out, one response line back.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to a running daemon.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let writer = with_nodelay(TcpStream::connect(addr)?)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Self { writer, reader })
    }

    /// Sends one request and blocks for its response.
    pub fn call(&mut self, request: &Request) -> io::Result<Response> {
        let line = serde_json::to_string(request)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut response = String::new();
        let read = self.reader.read_line(&mut response)?;
        if read == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        serde_json::from_str(&response)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    // A tiny buffer capacity forces the reader through its chunked drain
    // path even for short test inputs.
    fn chunked(bytes: &[u8]) -> BufReader<Cursor<Vec<u8>>> {
        BufReader::with_capacity(4, Cursor::new(bytes.to_vec()))
    }

    #[test]
    fn both_ends_of_a_connection_disable_nagle() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = with_nodelay(TcpStream::connect(listener.local_addr().unwrap()).unwrap());
        let (accepted, _) = listener.accept().unwrap();
        assert!(!accepted.nodelay().unwrap(), "sockets start with Nagle on");
        assert!(client.unwrap().nodelay().unwrap());
        assert!(with_nodelay(accepted).unwrap().nodelay().unwrap());
    }

    #[test]
    fn bounded_line_reader_caps_memory_not_the_connection() {
        // In-cap lines come back intact, across chunk boundaries.
        let mut r = chunked(b"hello world\nsecond\n");
        let LineRead::Line(first) = read_bounded_line(&mut r, 16).unwrap() else {
            panic!("expected a line");
        };
        assert_eq!(first, b"hello world");

        // An oversized line is drained and rejected — and the *next* line
        // on the same reader still parses, so one abusive request does
        // not wedge the connection.
        let mut r = chunked(b"0123456789abcdef-too-long\nok\n");
        assert!(matches!(
            read_bounded_line(&mut r, 8).unwrap(),
            LineRead::Oversized
        ));
        let LineRead::Line(next) = read_bounded_line(&mut r, 8).unwrap() else {
            panic!("expected the follow-up line");
        };
        assert_eq!(next, b"ok");

        // A line of exactly `cap` bytes is allowed; cap + 1 is not.
        let mut r = chunked(b"12345678\n123456789\n");
        assert!(matches!(
            read_bounded_line(&mut r, 8).unwrap(),
            LineRead::Line(l) if l == b"12345678"
        ));
        assert!(matches!(
            read_bounded_line(&mut r, 8).unwrap(),
            LineRead::Oversized
        ));

        // Unterminated tails: served when in cap, rejected when over.
        let mut r = chunked(b"tail");
        assert!(matches!(
            read_bounded_line(&mut r, 8).unwrap(),
            LineRead::Line(l) if l == b"tail"
        ));
        let mut r = chunked(b"unterminated-overflow");
        assert!(matches!(
            read_bounded_line(&mut r, 8).unwrap(),
            LineRead::Oversized
        ));
        let mut r = chunked(b"");
        assert!(matches!(
            read_bounded_line(&mut r, 8).unwrap(),
            LineRead::Eof
        ));
    }
}
