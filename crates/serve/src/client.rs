//! A blocking client for the `wsd-serve` protocol.
//!
//! One method per request; each writes a frame and reads frames until
//! the matching reply arrives, buffering any checkpoint pushes that
//! land in between (drain them with [`Client::take_checkpoints`]).
//!
//! [`Client::send_events`] is the exception: it is fire-and-forget and
//! pipelined. Its frames collect in a 64 KiB write buffer that goes out
//! in one socket write when it is full, before the next request, or
//! when the client is dropped, so a burst of small `Events` frames costs
//! one syscall per 64 KiB rather than one per frame. Frame boundaries
//! and order are unchanged. [`Client::flush`] is the barrier: it returns
//! once every event sent before it is applied. A dropped client's write
//! errors are lost, so a tenant confirms delivery with `flush`.

use std::collections::VecDeque;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

use wsd_core::{Algorithm, SnapshotError, WeightSpec};
use wsd_graph::{EdgeEvent, Pattern};

use crate::protocol::{
    encode_events_request, read_frame, write_frame, Checkpoint, Reply, Request, SessionEstimates,
    StatsReport, CHECKPOINT_OPCODE, IO_BUFFER_BYTES,
};

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The peer sent bytes that don't decode.
    Codec(SnapshotError),
    /// The server answered with an error reply.
    Server(String),
    /// The server closed the connection mid-request.
    Disconnected,
    /// The server answered with the wrong reply kind (protocol bug).
    UnexpectedReply(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Codec(e) => write!(f, "codec error: {e}"),
            ClientError::Server(msg) => write!(f, "server error: {msg}"),
            ClientError::Disconnected => write!(f, "server disconnected"),
            ClientError::UnexpectedReply(what) => write!(f, "unexpected reply (wanted {what})"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<SnapshotError> for ClientError {
    fn from(e: SnapshotError) -> Self {
        ClientError::Codec(e)
    }
}

/// A blocking connection to a `wsd-serve` server.
///
/// Dropping it writes out any `Events` frames still buffered; see the
/// [module docs](self) for the delivery contract.
pub struct Client {
    reader: BufReader<TcpStream>,
    /// Pending frames; written out when full, before every request's
    /// reply is awaited, and on drop.
    writer: BufWriter<TcpStream>,
    /// Outgoing frame buffer, reused across requests.
    frame: Vec<u8>,
    checkpoints: VecDeque<Checkpoint>,
}

impl Client {
    /// Connects over TCP.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = BufWriter::with_capacity(IO_BUFFER_BYTES, stream.try_clone()?);
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
            frame: Vec::new(),
            checkpoints: VecDeque::new(),
        })
    }

    /// Sends a request, together with any frames still buffered, and
    /// blocks for its reply, buffering pushes.
    fn request(&mut self, request: &Request) -> Result<Reply, ClientError> {
        let payload = request.encode();
        write_frame(&mut self.writer, &mut self.frame, |buf| buf.extend_from_slice(&payload))?;
        self.writer.flush()?;
        loop {
            let payload = read_frame(&mut self.reader)?.ok_or(ClientError::Disconnected)?;
            if payload.first() == Some(&CHECKPOINT_OPCODE) {
                self.checkpoints.push_back(Checkpoint::decode(&payload)?);
                continue;
            }
            return match Reply::decode(&payload)? {
                Reply::Error { message } => Err(ClientError::Server(message)),
                reply => Ok(reply),
            };
        }
    }

    /// Opens a session; `seed: None` lets the server derive one.
    pub fn open(
        &mut self,
        algorithm: Algorithm,
        capacity: u64,
        seed: Option<u64>,
        patterns: &[Pattern],
    ) -> Result<u64, ClientError> {
        let request = Request::Open { algorithm, capacity, seed, patterns: patterns.to_vec() };
        match self.request(&request)? {
            Reply::Opened { session } => Ok(session),
            _ => Err(ClientError::UnexpectedReply("Opened")),
        }
    }

    /// Streams an event batch (fire-and-forget; no reply). The batch is
    /// encoded from the borrowed slice into the connection's reused
    /// frame buffer: no copy of the events, no per-frame allocation once
    /// the buffer has grown to the batch size.
    ///
    /// The frame may wait in the client's write buffer until 64 KiB are
    /// pending, until the next request, or until the client is dropped.
    /// An `Ok` therefore means the frame is queued, not delivered; call
    /// [`Client::flush`] to know the events are applied.
    pub fn send_events(&mut self, session: u64, events: &[EdgeEvent]) -> Result<(), ClientError> {
        write_frame(&mut self.writer, &mut self.frame, |buf| {
            encode_events_request(session, events, buf)
        })?;
        Ok(())
    }

    /// Barrier: writes out every buffered frame and returns once every
    /// event previously sent for `session` is applied, with the
    /// session's lifetime event count.
    pub fn flush(&mut self, session: u64) -> Result<u64, ClientError> {
        match self.request(&Request::Flush { session })? {
            Reply::Flushed { events } => Ok(events),
            _ => Err(ClientError::UnexpectedReply("Flushed")),
        }
    }

    /// Reads all query estimates of a session.
    pub fn estimates(&mut self, session: u64) -> Result<SessionEstimates, ClientError> {
        match self.request(&Request::Estimates { session })? {
            Reply::Estimates(e) => Ok(e),
            _ => Err(ClientError::UnexpectedReply("Estimates")),
        }
    }

    /// Attaches one more pattern query; returns its handle slot.
    pub fn attach(&mut self, session: u64, pattern: Pattern) -> Result<u32, ClientError> {
        match self.request(&Request::Attach { session, pattern })? {
            Reply::Attached { query } => Ok(query),
            _ => Err(ClientError::UnexpectedReply("Attached")),
        }
    }

    /// Detaches a query by handle slot; returns its final estimate.
    pub fn detach(&mut self, session: u64, query: u32) -> Result<f64, ClientError> {
        match self.request(&Request::Detach { session, query })? {
            Reply::Detached { estimate } => Ok(estimate),
            _ => Err(ClientError::UnexpectedReply("Detached")),
        }
    }

    /// Serialises a session into a snapshot blob.
    pub fn snapshot(&mut self, session: u64) -> Result<Vec<u8>, ClientError> {
        match self.request(&Request::Snapshot { session })? {
            Reply::Snapshot { blob } => Ok(blob),
            _ => Err(ClientError::UnexpectedReply("Snapshot")),
        }
    }

    /// Revives a snapshot as a new session; returns the new id.
    pub fn restore(&mut self, blob: Vec<u8>) -> Result<u64, ClientError> {
        match self.request(&Request::Restore { blob })? {
            Reply::Opened { session } => Ok(session),
            _ => Err(ClientError::UnexpectedReply("Opened")),
        }
    }

    /// Subscribes this connection to checkpoint pushes (0 = off).
    pub fn subscribe(&mut self, session: u64, every: u64) -> Result<(), ClientError> {
        match self.request(&Request::Subscribe { session, every })? {
            Reply::Ok => Ok(()),
            _ => Err(ClientError::UnexpectedReply("Ok")),
        }
    }

    /// Closes a session; returns its lifetime event count.
    pub fn close(&mut self, session: u64) -> Result<u64, ClientError> {
        match self.request(&Request::Close { session })? {
            Reply::Closed { events } => Ok(events),
            _ => Err(ClientError::UnexpectedReply("Closed")),
        }
    }

    /// Hot-swaps the session's weight function mid-stream; returns the
    /// swap-point event count. Rejected swaps (dimension mismatch,
    /// non-WSD sampler) surface as [`ClientError::Server`] and leave
    /// the session untouched.
    pub fn swap_policy(&mut self, session: u64, spec: WeightSpec) -> Result<u64, ClientError> {
        match self.request(&Request::SwapPolicy { session, spec })? {
            Reply::PolicySwapped { events } => Ok(events),
            _ => Err(ClientError::UnexpectedReply("PolicySwapped")),
        }
    }

    /// Server-wide aggregated counters (versioned report).
    pub fn stats(&mut self) -> Result<StatsReport, ClientError> {
        match self.request(&Request::Stats)? {
            Reply::Stats(report) => Ok(report),
            _ => Err(ClientError::UnexpectedReply("Stats")),
        }
    }

    /// Human-readable metrics dump, one `name value` line per metric.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        match self.request(&Request::Metrics)? {
            Reply::Metrics { text } => Ok(text),
            _ => Err(ClientError::UnexpectedReply("Metrics")),
        }
    }

    /// Asks the server to shut down; returns once acknowledged.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Shutdown)? {
            Reply::Ok => Ok(()),
            _ => Err(ClientError::UnexpectedReply("Ok")),
        }
    }

    /// Drains every checkpoint push received so far, oldest first.
    pub fn take_checkpoints(&mut self) -> Vec<Checkpoint> {
        self.checkpoints.drain(..).collect()
    }
}
