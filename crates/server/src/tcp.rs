//! TCP front-end: a thread-per-connection line server over [`Service`].
//!
//! Each connection gets its own [`crate::service::Session`] — its own pin
//! state — while all connections share the snapshot store and plan cache.
//! The protocol is strictly line-oriented: one request line in, one
//! response line out, so any line client (`nc`, a shell loop, the
//! [`Client`] helper) works.
//!
//! A reply costs one `write`: the session renders it, newline included,
//! into the connection's one reusable buffer, and the buffer goes to the
//! socket whole. Both ends set `TCP_NODELAY` — a request/reply protocol
//! never has a second small write for Nagle's algorithm to coalesce, and
//! with it on, a reply that left in two pieces (reply, then newline) stalled
//! ~40 ms on the peer's delayed ACK.

use crate::protocol::{ErrorKind, Response};
use crate::service::Service;
use crate::wire::WireSemiring;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A running server: the bound address plus a shutdown handle. Dropping the
/// handle shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server is listening on (useful with `addr == "…:0"`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting connections and joins the accept loop. Connections
    /// already established keep their sessions until the client hangs up.
    pub fn shutdown(mut self) {
        self.stop_accepting();
    }

    fn stop_accepting(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop blocks in accept(); poke it with a connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.stop_accepting();
        }
    }
}

/// Binds `addr` (e.g. `"127.0.0.1:0"`) and serves `service` until the
/// returned handle is shut down. One thread per connection; sessions never
/// panic on client input (failures are structured `err` replies).
pub fn serve<K: WireSemiring + 'static>(
    service: Service<K>,
    addr: &str,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let accept_stop = Arc::clone(&stop);
    let accept_thread = std::thread::spawn(move || {
        for stream in listener.incoming() {
            if accept_stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let service = service.clone();
            std::thread::spawn(move || {
                let _ = serve_connection(&service, stream);
            });
        }
    });
    Ok(ServerHandle {
        addr,
        stop,
        accept_thread: Some(accept_thread),
    })
}

/// Longest request line a connection accepts, in bytes before the newline.
/// A client that sends more without a `\n` gets one `err protocol` reply and
/// is disconnected, so a connection's request buffer is bounded.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// Reply-buffer capacity a connection keeps between requests; a larger reply
/// is served and its excess released.
const REPLY_BUFFER_KEEP: usize = 1 << 20;

/// Switches Nagle's algorithm off and splits the socket into a buffered
/// read half and a raw write half (every write is a whole line already).
fn open(stream: TcpStream) -> io::Result<(BufReader<TcpStream>, TcpStream)> {
    stream.set_nodelay(true)?;
    Ok((BufReader::new(stream.try_clone()?), stream))
}

fn serve_connection<K: WireSemiring>(service: &Service<K>, stream: TcpStream) -> io::Result<()> {
    let mut session = service.session();
    let (reader, writer) = open(stream)?;
    serve_lines(reader, writer, |line, reply| {
        session.handle_line_into(line, reply)
    })
}

/// The connection loop: read one bounded request line, let `handle` append
/// the reply to the (reused) buffer, send reply and newline in **one**
/// `write_all`. `handle` returns `true` to end the session after its reply.
fn serve_lines(
    mut reader: impl BufRead,
    mut writer: impl Write,
    mut handle: impl FnMut(&str, &mut String) -> bool,
) -> io::Result<()> {
    let mut line = Vec::new();
    let mut reply = String::new();
    loop {
        line.clear();
        let limit = MAX_REQUEST_LINE as u64 + 1;
        if reader.by_ref().take(limit).read_until(b'\n', &mut line)? == 0 {
            return Ok(());
        }
        let terminated = line.last() == Some(&b'\n');
        let done = if !terminated && line.len() > MAX_REQUEST_LINE {
            Response::error(ErrorKind::Protocol, "request line too long").render_into(&mut reply);
            true
        } else {
            let text = std::str::from_utf8(&line)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            handle(text.trim_end_matches(['\n', '\r']), &mut reply)
        };
        reply.push('\n');
        writer.write_all(reply.as_bytes())?;
        writer.flush()?;
        if done {
            return Ok(());
        }
        reply.clear();
        reply.shrink_to(REPLY_BUFFER_KEEP);
    }
}

/// A minimal blocking client for tests and examples: send a line, read the
/// reply line.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    request: String,
}

impl Client {
    /// Connects to a server (with `TCP_NODELAY` set, like the server's end).
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let (reader, writer) = open(TcpStream::connect(addr)?)?;
        Ok(Client {
            reader,
            writer,
            request: String::new(),
        })
    }

    /// Sends one request line (line and newline in one write) and reads the
    /// one response line.
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        self.request.clear();
        self.request.push_str(line);
        self.request.push('\n');
        self.writer.write_all(self.request.as_bytes())?;
        let mut response = String::new();
        if self.reader.read_line(&mut response)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while response.ends_with('\n') || response.ends_with('\r') {
            response.pop();
        }
        Ok(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Counts the `write` calls that reach the socket.
    struct CountingWriter {
        socket: TcpStream,
        writes: Arc<AtomicUsize>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.fetch_add(1, Ordering::SeqCst);
            self.socket.write(buf)
        }

        fn flush(&mut self) -> io::Result<()> {
            self.socket.flush()
        }
    }

    /// One `write` per reply whatever its size — in particular between 8 kB
    /// (a `BufWriter`'s capacity) and 64 kB (a loopback segment), where a
    /// reply sent as "reply, then newline" used to wait ~40 ms for the
    /// client's delayed ACK — and no-delay on both ends.
    #[test]
    fn every_reply_is_one_write_on_a_no_delay_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writes = Arc::new(AtomicUsize::new(0));
        let server_writes = Arc::clone(&writes);
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let (reader, socket) = open(stream).unwrap();
            assert!(socket.nodelay().unwrap(), "accepted sockets are no-delay");
            let writer = CountingWriter {
                socket,
                writes: server_writes,
            };
            // A request is the size of the reply it wants, newline included.
            serve_lines(reader, writer, |line, reply| {
                let bytes: usize = line.parse().unwrap();
                reply.extend(std::iter::repeat('x').take(bytes - 1));
                false
            })
            .unwrap();
        });
        let mut client = Client::connect(addr).unwrap();
        assert!(client.writer.nodelay().unwrap(), "clients are no-delay");
        for (sent, bytes) in [1, 8 * 1024 + 1, 64 * 1024 + 1, 1 << 20]
            .into_iter()
            .enumerate()
        {
            let reply = client.request(&bytes.to_string()).unwrap();
            assert_eq!(reply.len(), bytes - 1);
            assert_eq!(
                writes.load(Ordering::SeqCst),
                sent + 1,
                "a {bytes}-byte reply must be exactly one write"
            );
        }
        drop(client);
        server.join().unwrap();
    }
}
