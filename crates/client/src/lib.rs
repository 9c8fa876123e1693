//! Client library for the WSQ server.
//!
//! [`Client`] speaks the `wsq-protocol` wire format over one TCP
//! connection: a handshake at connect time, then strict
//! request/response — each call sends one frame and reads the reply
//! stream to completion, so a `Client` is always at a frame boundary
//! between calls.
//!
//! The server executes every connection against the *same* shared
//! ReqPump and result caches, so two clients issuing the same
//! web-search expression perform one backend call between them (see
//! DESIGN.md §15).
//!
//! # Example
//!
//! Spin up an in-process server and query it:
//!
//! ```
//! use wsq_core::{SharedWsq, WsqConfig};
//! use wsq_server::{Server, ServerConfig};
//! use wsq_client::Client;
//!
//! let shared = SharedWsq::open_in_memory(WsqConfig::fast()).unwrap();
//! let handle = Server::bind(shared, ServerConfig::default()).unwrap();
//!
//! let mut client = Client::connect(handle.addr()).unwrap();
//! let result = client
//!     .query("SELECT Name FROM States ORDER BY Name LIMIT 2")
//!     .unwrap();
//! assert_eq!(result.rows.len(), 2);
//! assert_eq!(result.rows[0].get(0).as_str().unwrap(), "Alabama");
//!
//! client.goodbye().unwrap();
//! handle.shutdown();
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
use wsq_common::{Result, Tuple, WsqError};
use wsq_protocol::{
    error_from_wire, read_frame, write_frame, Frame, MetricsFormat, RowSet, PROTOCOL_VERSION,
};

/// One statement's outcome inside an [`Client::execute`] script.
#[derive(Debug, Clone, PartialEq)]
pub enum RemoteStatementResult {
    /// A SELECT's materialized rows.
    Rows(RowSet),
    /// A DDL/DML statement's affected-row count.
    Affected(u64),
}

/// A connection to a WSQ server.
///
/// Strictly request/response: every method sends one request frame and
/// consumes its full reply stream before returning, so errors leave the
/// connection at a frame boundary and the client remains usable.
pub struct Client {
    stream: TcpStream,
    /// The read side, buffered: the server sends a small reply's frames in
    /// one `write`, and one `read` here picks them all up.
    reader: BufReader<TcpStream>,
    session: u64,
    server: String,
}

impl Client {
    /// Connect and perform the handshake. `client_name` appears in the
    /// server's logs; [`Client::connect`] uses `"wsq-client"`.
    pub fn connect_as(addr: impl ToSocketAddrs, client_name: &str) -> Result<Client> {
        let mut stream = TcpStream::connect(addr).map_err(|e| WsqError::Io(e.to_string()))?;
        // Requests and replies are small writes the peer waits on; without
        // TCP_NODELAY, Nagle + delayed ACK stalls each round trip.
        stream
            .set_nodelay(true)
            .map_err(|e| WsqError::Io(e.to_string()))?;
        write_frame(
            &mut stream,
            &Frame::Hello {
                version: PROTOCOL_VERSION,
                client: client_name.to_string(),
            },
        )
        .map_err(io_err)?;
        match read_frame(&mut stream).map_err(io_err)? {
            Some(Frame::Welcome {
                version,
                session,
                server,
            }) => {
                if version != PROTOCOL_VERSION {
                    return Err(WsqError::Io(format!(
                        "server speaks protocol v{version}, client v{PROTOCOL_VERSION}"
                    )));
                }
                // Buffer reads only from here on: the handshake read
                // exactly its one frame off the bare stream.
                let reader = stream
                    .try_clone()
                    .map(BufReader::new)
                    .map_err(|e| WsqError::Io(e.to_string()))?;
                Ok(Client {
                    stream,
                    reader,
                    session,
                    server,
                })
            }
            Some(Frame::Error { code, message }) => Err(error_from_wire(code, message)),
            other => Err(unexpected(&other)),
        }
    }

    /// Connect with the default client name.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        Self::connect_as(addr, "wsq-client")
    }

    /// The server-assigned session id (tags this connection's trace
    /// events in the server's shared ring).
    pub fn session_id(&self) -> u64 {
        self.session
    }

    /// The server's self-reported name from the handshake.
    pub fn server_name(&self) -> &str {
        &self.server
    }

    /// Run one SELECT and materialize the full result.
    pub fn query(&mut self, sql: &str) -> Result<RowSet> {
        self.send(&Frame::Query {
            sql: sql.to_string(),
        })?;
        let (rows, _footer) = self.read_result_stream()?;
        Ok(rows)
    }

    /// Run one SELECT, invoking `on_row` as each row arrives (the wire
    /// form of asynchronous iteration's early-rows payoff: rows stream
    /// while the server's pump still has calls in flight). Returns the
    /// total row count from the stream's `Done` frame.
    pub fn query_streaming(&mut self, sql: &str, mut on_row: impl FnMut(&Tuple)) -> Result<u64> {
        self.send(&Frame::Query {
            sql: sql.to_string(),
        })?;
        // Schema header.
        match self.recv()? {
            Frame::Schema { .. } => {}
            Frame::Error { code, message } => return Err(error_from_wire(code, message)),
            other => return Err(unexpected(&Some(other))),
        }
        loop {
            match self.recv()? {
                Frame::Rows { rows } => rows.iter().for_each(&mut on_row),
                Frame::Done { rows } => return Ok(rows),
                Frame::Error { code, message } => return Err(error_from_wire(code, message)),
                other => return Err(unexpected(&Some(other))),
            }
        }
    }

    /// Run one SELECT with EXPLAIN ANALYZE instrumentation: the rows
    /// plus the server's full report (per-operator tree and the
    /// `-- pump:` / `-- trace:` / `-- cache[..]:` / `-- verify:`
    /// footer, byte-identical to a local `Wsq::analyze`).
    pub fn analyze(&mut self, sql: &str) -> Result<(RowSet, String)> {
        self.send(&Frame::Analyze {
            sql: sql.to_string(),
        })?;
        let (rows, footer) = self.read_result_stream()?;
        Ok((rows, footer.unwrap_or_default()))
    }

    /// Run a `;`-separated SQL script (DDL/DML/SELECT mix).
    pub fn execute(&mut self, sql: &str) -> Result<Vec<RemoteStatementResult>> {
        self.send(&Frame::Execute {
            sql: sql.to_string(),
        })?;
        let mut out = Vec::new();
        loop {
            match self.recv()? {
                Frame::Schema { schema } => {
                    // One SELECT's sub-stream: Rows* Done.
                    let mut rows = Vec::new();
                    loop {
                        match self.recv()? {
                            Frame::Rows { rows: mut batch } => rows.append(&mut batch),
                            Frame::Done { .. } => break,
                            Frame::Error { code, message } => {
                                return Err(error_from_wire(code, message))
                            }
                            other => return Err(unexpected(&Some(other))),
                        }
                    }
                    out.push(RemoteStatementResult::Rows(RowSet { schema, rows }));
                }
                Frame::Affected { rows } => out.push(RemoteStatementResult::Affected(rows)),
                Frame::ScriptDone { .. } => return Ok(out),
                Frame::Error { code, message } => return Err(error_from_wire(code, message)),
                other => return Err(unexpected(&Some(other))),
            }
        }
    }

    /// EXPLAIN (or EXPLAIN VERIFY) a SELECT without running it.
    pub fn explain(&mut self, sql: &str, verify: bool) -> Result<String> {
        self.send(&Frame::Explain {
            sql: sql.to_string(),
            verify,
        })?;
        self.read_info()
    }

    /// Fetch the server's shared metrics registry in the requested
    /// exposition format. Counters cover *all* sessions — this is where
    /// cross-session coalescing and cache hits show up.
    pub fn metrics(&mut self, format: MetricsFormat) -> Result<String> {
        self.send(&Frame::Metrics { format })?;
        self.read_info()
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<()> {
        self.send(&Frame::Ping)?;
        match self.recv()? {
            Frame::Pong => Ok(()),
            other => Err(unexpected(&Some(other))),
        }
    }

    /// Orderly goodbye; consumes the client and closes the connection.
    pub fn goodbye(mut self) -> Result<()> {
        self.send(&Frame::Goodbye)
    }

    fn send(&mut self, frame: &Frame) -> Result<()> {
        write_frame(&mut self.stream, frame).map_err(io_err)
    }

    fn recv(&mut self) -> Result<Frame> {
        match read_frame(&mut self.reader).map_err(io_err)? {
            Some(frame) => Ok(frame),
            None => Err(WsqError::Io(
                "server closed the connection mid-stream".to_string(),
            )),
        }
    }

    /// Consume a `Schema Rows* [Footer] Done` stream.
    fn read_result_stream(&mut self) -> Result<(RowSet, Option<String>)> {
        let schema = match self.recv()? {
            Frame::Schema { schema } => schema,
            Frame::Error { code, message } => return Err(error_from_wire(code, message)),
            other => return Err(unexpected(&Some(other))),
        };
        let mut rows = Vec::new();
        let mut footer = None;
        loop {
            match self.recv()? {
                Frame::Rows { rows: mut batch } => rows.append(&mut batch),
                Frame::Footer { report } => footer = Some(report),
                Frame::Done { .. } => return Ok((RowSet { schema, rows }, footer)),
                Frame::Error { code, message } => return Err(error_from_wire(code, message)),
                other => return Err(unexpected(&Some(other))),
            }
        }
    }

    fn read_info(&mut self) -> Result<String> {
        match self.recv()? {
            Frame::Info { text } => Ok(text),
            Frame::Error { code, message } => Err(error_from_wire(code, message)),
            other => Err(unexpected(&Some(other))),
        }
    }
}

fn io_err(e: std::io::Error) -> WsqError {
    WsqError::Io(e.to_string())
}

fn unexpected(frame: &Option<Frame>) -> WsqError {
    match frame {
        Some(f) => WsqError::Io(format!("unexpected frame from server: {f:?}")),
        None => WsqError::Io("connection closed by server".to_string()),
    }
}
