//! The WSQ server: a thread-per-connection TCP front-end over one
//! shared [`SharedWsq`] instance (DESIGN.md §15).
//!
//! Every accepted connection gets its own [`wsq_core::Session`], but
//! all sessions share the *same* ReqPump — so identical external calls
//! coalesce across clients at the pump, a result the pump keeps (with
//! `WsqConfig::cache`) answers every later client, and cache misses equal
//! backend calls for the whole service. The ReqSync
//! buffer cap and the pump's per-destination caps likewise act as
//! fleet-wide admission control: N greedy clients share one launch
//! budget instead of getting N private ones.
//!
//! Lifecycle properties the tests pin down:
//!
//! * **Disconnect cancels calls.** Rows are streamed straight off a
//!   [`wsq_core::SessionCursor`] and written whenever a
//!   [`Frame::Rows`] batch fills; when a client vanishes mid-query the
//!   next write fails, the handler drops the cursor, whose query lease
//!   releases every pump slot the query held while ReqSync's `Drop`
//!   empties its buffer.
//! * **One `write` per small reply.** A reply's frames are encoded into
//!   one buffer that goes to the socket at exactly two points: when a
//!   `Rows` batch is full (with whatever header frames precede it) and
//!   when the reply ends — so no row waits longer than its batch, and a
//!   result of at most `rows_per_frame` rows (`Schema Rows Done`), an
//!   `Affected ScriptDone` pair or an in-band error is a single send.
//! * **Graceful shutdown drains in-flight queries.**
//!   [`ServerHandle::shutdown`] stops the accept loop, half-closes the
//!   *read* side of every live connection (so idle clients unblock) and
//!   joins the connection threads — a query mid-stream finishes writing
//!   its rows before its thread exits.
//!
//! ```no_run
//! use wsq_core::{SharedWsq, WsqConfig};
//! use wsq_server::{Server, ServerConfig};
//!
//! let shared = SharedWsq::open_in_memory(WsqConfig::fast()).unwrap();
//! let handle = Server::bind(shared, ServerConfig::default()).unwrap();
//! println!("listening on {}", handle.addr());
//! handle.shutdown();
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{self, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use wsq_common::WsqError;
use wsq_core::{QueryResult, Session, SharedWsq, StatementResult};
use wsq_protocol::{
    error_code, read_frame_into, write_frame, Frame, MetricsFormat, PROTOCOL_VERSION,
};

/// Server tuning knobs (the README's "server configuration" table).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind; port 0 picks a free port (see
    /// [`ServerHandle::addr`] for the resolved one).
    pub addr: String,
    /// Maximum concurrent connections; further clients get a wire
    /// error and are closed without a session.
    pub max_connections: usize,
    /// Rows per [`Frame::Rows`] batch when streaming results. Smaller
    /// batches surface first rows sooner (the paper's asynchronous-
    /// iteration payoff); larger ones cut framing overhead.
    pub rows_per_frame: usize,
    /// Server name reported in the [`Frame::Welcome`] handshake.
    pub name: String,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_connections: 64,
            rows_per_frame: 64,
            name: "wsq-server".to_string(),
        }
    }
}

/// The server factory. [`Server::bind`] consumes nothing but a
/// [`SharedWsq`] handle and returns a running [`ServerHandle`].
pub struct Server;

struct ServerState {
    shared: SharedWsq,
    config: ServerConfig,
    stopping: AtomicBool,
    active: AtomicUsize,
    /// Read-half clones of live connections, for shutdown's half-close.
    live: Mutex<HashMap<u64, TcpStream>>,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
}

/// A running server. Dropping the handle does *not* stop the server;
/// call [`ServerHandle::shutdown`] for an orderly stop.
pub struct ServerHandle {
    state: Arc<ServerState>,
    addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind `config.addr`, start the accept loop, and return a handle.
    pub fn bind(shared: SharedWsq, config: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(ServerState {
            shared,
            config,
            stopping: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            live: Mutex::new(HashMap::new()),
            conn_threads: Mutex::new(Vec::new()),
        });
        let accept_state = state.clone();
        let accept_thread = std::thread::Builder::new()
            .name("wsq-accept".to_string())
            .spawn(move || accept_loop(listener, accept_state))?;
        Ok(ServerHandle {
            state,
            addr,
            accept_thread: Some(accept_thread),
        })
    }
}

impl ServerHandle {
    /// The bound address (with the real port when `addr` asked for 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently being served.
    pub fn active_connections(&self) -> usize {
        self.state.active.load(Ordering::SeqCst)
    }

    /// Orderly stop: refuse new connections, half-close the read side
    /// of every live one (idle clients unblock immediately; queries
    /// mid-stream keep writing), and join every thread. Idempotent.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.state.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        // The accept loop only observes `stopping` after `accept()`
        // returns; poke it with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // Half-close *reads* only: a connection blocked reading a request
        // sees EOF and exits cleanly, while one mid-query can still
        // write its remaining rows.
        for (_, stream) in self.state.live.lock().iter() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        let threads: Vec<JoinHandle<()>> = std::mem::take(&mut *self.state.conn_threads.lock());
        for t in threads {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // An explicitly leaked handle keeps serving; a dropped one
        // stops, so tests (and the binary) can't strand threads.
        self.stop();
    }
}

fn accept_loop(listener: TcpListener, state: Arc<ServerState>) {
    for stream in listener.incoming() {
        if state.stopping.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Replies are small writes the client waits on; without
        // TCP_NODELAY, Nagle + delayed ACK turns each exchange into a
        // ~40 ms stall.
        let _ = stream.set_nodelay(true);
        if state.active.load(Ordering::SeqCst) >= state.config.max_connections {
            let mut s = stream;
            let _ = write_frame(
                &mut s,
                &Frame::Error {
                    code: error_code(&WsqError::Other(String::new())),
                    message: format!(
                        "server at capacity ({} connections)",
                        state.config.max_connections
                    ),
                },
            );
            continue;
        }
        state.active.fetch_add(1, Ordering::SeqCst);
        let conn_state = state.clone();
        let thread = std::thread::Builder::new()
            .name("wsq-conn".to_string())
            .spawn(move || {
                let session = conn_state.shared.session();
                let id = session.id();
                if let Ok(read_half) = stream.try_clone() {
                    conn_state.live.lock().insert(id, read_half);
                }
                let _ = serve_connection(stream, session, &conn_state);
                conn_state.live.lock().remove(&id);
                conn_state.active.fetch_sub(1, Ordering::SeqCst);
            });
        match thread {
            Ok(t) => state.conn_threads.lock().push(t),
            Err(_) => {
                state.active.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }
}

/// One connection's request/response loop. Any `Err` return is a
/// transport failure (the client is gone); protocol-level failures are
/// reported in-band as [`Frame::Error`] and the loop continues.
fn serve_connection(
    socket: TcpStream,
    mut session: Session,
    state: &ServerState,
) -> io::Result<()> {
    let mut requests = Requests::new(&socket);
    let mut stream = &socket;
    // Handshake first: anything else is a protocol error.
    match requests.next()? {
        Some(Frame::Hello { version, .. }) if version == PROTOCOL_VERSION => {}
        Some(Frame::Hello { version, .. }) => {
            write_frame(
                &mut stream,
                &Frame::Error {
                    code: error_code(&WsqError::Other(String::new())),
                    message: format!(
                        "protocol version mismatch: client {version}, server {PROTOCOL_VERSION}"
                    ),
                },
            )?;
            return Ok(());
        }
        _ => return Ok(()),
    }
    write_frame(
        &mut stream,
        &Frame::Welcome {
            version: PROTOCOL_VERSION,
            session: session.id(),
            server: state.config.name.clone(),
        },
    )?;

    let rows_per_frame = state.config.rows_per_frame.max(1);
    // The reply under construction: handlers append encoded frames, and
    // it is written when a `Rows` batch fills and when the reply ends.
    let mut out = Vec::new();
    while let Some(frame) = requests.next()? {
        match frame {
            Frame::Query { sql } => match session.query_cursor(&sql) {
                Ok(cursor) => stream_cursor(&mut stream, &mut out, cursor, rows_per_frame)?,
                Err(e) => push_error(&mut out, &e)?,
            },
            Frame::Execute { sql } => match session.execute(&sql) {
                Ok(results) => {
                    let n = results.len() as u32;
                    for r in results {
                        match r {
                            StatementResult::Rows(q) => {
                                send_result(&mut stream, &mut out, &q, rows_per_frame, None)?
                            }
                            StatementResult::Affected(rows) => {
                                write_frame(&mut out, &Frame::Affected { rows: rows as u64 })?
                            }
                        }
                    }
                    write_frame(&mut out, &Frame::ScriptDone { statements: n })?;
                }
                Err(e) => push_error(&mut out, &e)?,
            },
            Frame::Analyze { sql } => match session.analyze(&sql) {
                Ok((result, report)) => {
                    send_result(&mut stream, &mut out, &result, rows_per_frame, Some(report))?
                }
                Err(e) => push_error(&mut out, &e)?,
            },
            Frame::Explain { sql, verify } => {
                let text = if verify {
                    session.explain_verify(&sql)
                } else {
                    session.explain(&sql)
                };
                match text {
                    Ok(text) => write_frame(&mut out, &Frame::Info { text })?,
                    Err(e) => push_error(&mut out, &e)?,
                }
            }
            Frame::Metrics { format } => {
                let text = match format {
                    MetricsFormat::Text => session.metrics_text(),
                    MetricsFormat::Json => session.metrics_json(),
                };
                write_frame(&mut out, &Frame::Info { text })?;
            }
            Frame::Ping => write_frame(&mut out, &Frame::Pong)?,
            Frame::Goodbye => break,
            // A server→client frame (or repeated Hello) from a client is
            // a protocol violation; answer in-band and carry on.
            other => push_error(
                &mut out,
                &WsqError::Other(format!("unexpected frame: {other:?}")),
            )?,
        }
        send(&mut stream, &mut out)?;
    }
    Ok(())
}

/// The requests arriving on a connection: one buffered reader over the
/// socket, so a request that fits its buffer takes one `read`, decoded
/// from one payload buffer the connection keeps.
struct Requests<R> {
    reader: BufReader<R>,
    payload: Vec<u8>,
}

/// The largest payload buffer a connection keeps between requests; a
/// longer request's buffer is freed after it, so an idle connection holds
/// no more than this however long a request it once read.
const KEPT_PAYLOAD: usize = 64 * 1024;

impl<R: Read> Requests<R> {
    fn new(socket: R) -> Self {
        Requests {
            reader: BufReader::new(socket),
            payload: Vec::new(),
        }
    }

    /// The next request; `None` at a clean EOF between requests.
    fn next(&mut self) -> io::Result<Option<Frame>> {
        let frame = read_frame_into(&mut self.reader, &mut self.payload);
        if self.payload.capacity() > KEPT_PAYLOAD {
            self.payload = Vec::new();
        }
        frame
    }
}

/// Write the frames gathered in `out` with one `write` and empty it.
fn send(stream: &mut impl Write, out: &mut Vec<u8>) -> io::Result<()> {
    let sent = stream.write_all(out);
    out.clear();
    sent
}

/// Stream a cursor as `Schema Rows* Done`, sending each `Rows` batch as it
/// fills (the caller sends the tail). Any transport error drops the cursor
/// on the way out — that `Drop` is the disconnect-cancellation path (the
/// query's lease releases its pump slots; ReqSync drops its buffered
/// tuples).
fn stream_cursor(
    stream: &mut impl Write,
    out: &mut Vec<u8>,
    mut cursor: wsq_core::SessionCursor,
    rows_per_frame: usize,
) -> io::Result<()> {
    write_frame(
        out,
        &Frame::Schema {
            schema: cursor.schema().clone(),
        },
    )?;
    let mut total = 0u64;
    let mut batch = Vec::with_capacity(rows_per_frame);
    loop {
        match cursor.next_row() {
            Ok(Some(row)) => {
                batch.push(row);
                if batch.len() >= rows_per_frame {
                    total += batch.len() as u64;
                    write_frame(
                        out,
                        &Frame::Rows {
                            rows: std::mem::take(&mut batch),
                        },
                    )?;
                    send(stream, out)?;
                }
            }
            Ok(None) => break,
            Err(e) => {
                // Mid-stream execution error: report in-band; the
                // stream for this query ends without a Done.
                return push_error(out, &e);
            }
        }
    }
    if !batch.is_empty() {
        total += batch.len() as u64;
        write_frame(out, &Frame::Rows { rows: batch })?;
    }
    write_frame(out, &Frame::Done { rows: total })
}

/// Gather a materialized result as `Schema Rows* [Footer] Done`, sending
/// each full `Rows` batch (the caller sends the tail).
fn send_result(
    stream: &mut impl Write,
    out: &mut Vec<u8>,
    result: &QueryResult,
    rows_per_frame: usize,
    footer: Option<String>,
) -> io::Result<()> {
    write_frame(
        out,
        &Frame::Schema {
            schema: result.schema.clone(),
        },
    )?;
    for chunk in result.rows.chunks(rows_per_frame) {
        write_frame(
            out,
            &Frame::Rows {
                rows: chunk.to_vec(),
            },
        )?;
        if chunk.len() == rows_per_frame {
            send(stream, out)?;
        }
    }
    if let Some(report) = footer {
        write_frame(out, &Frame::Footer { report })?;
    }
    write_frame(
        out,
        &Frame::Done {
            rows: result.rows.len() as u64,
        },
    )
}

fn push_error(out: &mut Vec<u8>, e: &WsqError) -> io::Result<()> {
    write_frame(
        out,
        &Frame::Error {
            code: error_code(e),
            message: e.to_string(),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsq_common::{Column, DataType, Schema, Tuple, Value};

    /// A socket stand-in that keeps each `write` apart.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A socket stand-in that hands out at most one queued packet per
    /// `read`, and counts the reads.
    struct Packets {
        packets: std::collections::VecDeque<Vec<u8>>,
        reads: usize,
    }

    impl Read for Packets {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            let Some(mut packet) = self.packets.pop_front() else {
                return Ok(0);
            };
            let n = packet.len().min(buf.len());
            buf[..n].copy_from_slice(&packet[..n]);
            if n < packet.len() {
                self.packets.push_front(packet.split_off(n));
            }
            Ok(n)
        }
    }

    #[test]
    fn a_request_that_fits_takes_one_read() {
        let sent = [
            Frame::Query {
                sql: "SELECT Name FROM States".into(),
            },
            Frame::Ping,
            Frame::Execute {
                sql: "INSERT INTO Notes VALUES (1, 2, 'x')".into(),
            },
        ];
        let mut socket = Packets {
            packets: sent.iter().map(Frame::encode).collect(),
            reads: 0,
        };
        let mut requests = Requests::new(&mut socket);
        for (k, frame) in sent.iter().enumerate() {
            assert_eq!(requests.next().unwrap().as_ref(), Some(frame));
            assert_eq!(requests.reader.get_ref().reads, k + 1);
        }
        assert!(requests.next().unwrap().is_none());
    }

    #[test]
    fn a_request_longer_than_the_buffer_arrives_whole() {
        // Over several packets, and past both the reader's buffer and the
        // payload buffer a connection keeps.
        let frame = Frame::Query {
            sql: "x".repeat(3 * KEPT_PAYLOAD),
        };
        let bytes = frame.encode();
        let mut socket = Packets {
            packets: bytes.chunks(1500).map(<[u8]>::to_vec).collect(),
            reads: 0,
        };
        let mut requests = Requests::new(&mut socket);
        assert_eq!(requests.next().unwrap(), Some(frame));
        assert!(requests.payload.capacity() <= KEPT_PAYLOAD);
        assert!(requests.next().unwrap().is_none());

        // Cut short mid-frame: an error, not a clean EOF.
        let mut socket = Packets {
            packets: [bytes[..100].to_vec()].into(),
            reads: 0,
        };
        assert!(Requests::new(&mut socket).next().is_err());
    }

    fn frames(mut bytes: &[u8]) -> Vec<Frame> {
        let mut out = Vec::new();
        while !bytes.is_empty() {
            let (frame, used) = Frame::decode(bytes).unwrap();
            out.push(frame);
            bytes = &bytes[used..];
        }
        out
    }

    fn result(rows: i64) -> QueryResult {
        QueryResult {
            schema: Schema::new(vec![Column::new("n", DataType::Int)]),
            rows: (0..rows).map(|n| Tuple::new(vec![Value::Int(n)])).collect(),
        }
    }

    #[test]
    fn a_reply_is_written_when_a_rows_batch_fills_and_when_it_ends() {
        // Up to `rows_per_frame` rows: nothing is written before the reply
        // ends, and the caller's one `send` carries `Schema Rows Done`.
        let (mut socket, mut out) = (Writes::default(), Vec::new());
        send_result(&mut socket, &mut out, &result(3), 4, None).unwrap();
        assert!(socket.0.is_empty());
        send(&mut socket, &mut out).unwrap();
        assert!(out.is_empty());
        assert!(matches!(
            frames(&socket.0[0])[..],
            [
                Frame::Schema { .. },
                Frame::Rows { .. },
                Frame::Done { rows: 3 }
            ]
        ));
        assert_eq!(socket.0.len(), 1);

        // Longer: each full batch goes out as it fills (the first with the
        // schema), the short tail with the footer and `Done`.
        let (mut socket, mut out) = (Writes::default(), Vec::new());
        send_result(&mut socket, &mut out, &result(9), 4, Some("report".into())).unwrap();
        send(&mut socket, &mut out).unwrap();
        let writes: Vec<Vec<Frame>> = socket.0.iter().map(|w| frames(w)).collect();
        assert_eq!(writes.len(), 3);
        assert!(matches!(
            writes[0][..],
            [Frame::Schema { .. }, Frame::Rows { .. }]
        ));
        assert!(matches!(writes[1][..], [Frame::Rows { .. }]));
        assert!(matches!(
            writes[2][..],
            [
                Frame::Rows { .. },
                Frame::Footer { .. },
                Frame::Done { rows: 9 }
            ]
        ));
    }
}
