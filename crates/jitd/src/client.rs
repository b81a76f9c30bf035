//! # client — a blocking service client (and the chaos toolkit)
//!
//! One [`Client`] per connection: connect, handshake as a tenant, then
//! issue any number of requests in lockstep (one reply per request).
//! Every wire wait is bounded by the I/O timeout, so a wedged daemon
//! surfaces as a typed [`TransportError::Timeout`], never a hang.
//!
//! The chaos constructors ([`Client::send_truncated_frame`],
//! [`Client::send_garbage`], and plain `drop` mid-request) exist for the
//! robustness tests and the bench storm: they *are* the misbehaving
//! clients the daemon must survive.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use mpi_sim::{read_frame, write_frame, TransportError};

use crate::proto::{self, Arg, Hello, JitRequest, Reply, Request, ServiceStats, SERVICE_PROTO};

fn io_err(op: &'static str, e: std::io::Error) -> TransportError {
    TransportError::Io {
        op,
        message: e.to_string(),
    }
}

/// A connected, handshaken service client.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connect to a daemon on loopback and handshake as `tenant`.
    pub fn connect(port: u16, tenant: &str) -> Result<Client, TransportError> {
        Self::connect_with_timeout(port, tenant, Duration::from_secs(10))
    }

    pub fn connect_with_timeout(
        port: u16,
        tenant: &str,
        io_timeout: Duration,
    ) -> Result<Client, TransportError> {
        let stream = TcpStream::connect(("127.0.0.1", port)).map_err(|e| io_err("connect", e))?;
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(Some(io_timeout))
            .map_err(|e| io_err("set timeout", e))?;
        stream
            .set_write_timeout(Some(io_timeout))
            .map_err(|e| io_err("set timeout", e))?;
        let mut client = Client { stream };
        let hello = Hello {
            proto: SERVICE_PROTO,
            tenant: tenant.to_string(),
        };
        write_frame(&mut client.stream, &proto::encode_hello(&hello))?;
        match client.read_reply()? {
            Reply::HelloOk { .. } => Ok(client),
            Reply::Err { message } => Err(TransportError::Refused { message }),
            other => Err(TransportError::Corrupt {
                message: format!("unexpected handshake reply: {other:?}"),
            }),
        }
    }

    fn read_reply(&mut self) -> Result<Reply, TransportError> {
        let buf = read_frame(&mut self.stream)?;
        proto::decode_reply(&buf)
    }

    /// One request, one reply.
    pub fn request(&mut self, req: &Request) -> Result<Reply, TransportError> {
        write_frame(&mut self.stream, &proto::encode_request(req))?;
        self.read_reply()
    }

    /// Convenience: jit-and-invoke `class.method(args)` from `source`.
    pub fn jit(&mut self, req: JitRequest) -> Result<Reply, TransportError> {
        self.request(&Request::Jit(req))
    }

    /// Snapshot the daemon's service counters.
    pub fn stats(&mut self) -> Result<ServiceStats, TransportError> {
        match self.request(&Request::Stats)? {
            Reply::Stats(s) => Ok(*s),
            other => Err(TransportError::Corrupt {
                message: format!("unexpected stats reply: {other:?}"),
            }),
        }
    }

    /// Ask the daemon to drain and exit; resolves once acknowledged.
    pub fn shutdown(&mut self) -> Result<(), TransportError> {
        match self.request(&Request::Shutdown)? {
            Reply::Bye => Ok(()),
            other => Err(TransportError::Corrupt {
                message: format!("unexpected shutdown reply: {other:?}"),
            }),
        }
    }

    /// Chaos: send the first `keep` bytes of a valid request frame and
    /// drop the connection — the daemon must count a bad frame and move
    /// on, never hang on the missing remainder.
    pub fn send_truncated_frame(mut self, req: &Request, keep: usize) {
        let mut full = Vec::new();
        let _ = write_frame(&mut full, &proto::encode_request(req));
        let cut = keep.min(full.len().saturating_sub(1)).max(1);
        let _ = self.stream.write_all(&full[..cut]);
        let _ = self.stream.flush();
        // Drop closes the socket mid-frame.
    }

    /// Chaos: send bytes that are not a `WFR1` frame at all.
    pub fn send_garbage(mut self, junk: &[u8]) {
        let _ = self.stream.write_all(junk);
        let _ = self.stream.flush();
    }

    /// Chaos: send a fully valid request and drop the connection without
    /// reading the reply — a client that dies mid-request.
    pub fn send_and_die(mut self, req: &Request) {
        let _ = write_frame(&mut self.stream, &proto::encode_request(req));
        // Drop: by the time the daemon owes the reply, nobody is there.
    }
}

/// A convenient seed-arg builder for storm clients.
pub fn jit_request(
    file: &str,
    source: &str,
    class: &str,
    method: &str,
    args: Vec<Arg>,
) -> JitRequest {
    JitRequest {
        file: file.into(),
        source: source.into(),
        class: class.into(),
        method: method.into(),
        args,
        deadline_ms: 0,
        hold_ms: 0,
    }
}
