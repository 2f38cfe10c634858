//! The `wsd-serve` wire protocol: length-prefixed frames over a byte
//! stream (TCP or any `Read`/`Write` pair).
//!
//! A frame is a `u32` little-endian payload length followed by the
//! payload; the payload's first byte is an opcode, the rest is the body
//! in the same [`ByteWriter`]/[`ByteReader`] encoding the snapshot
//! format uses (little-endian integers, `f64` as raw IEEE-754 bits).
//! Three frame classes share the stream:
//!
//! * **requests** (client → server, opcodes `0x01..=0x0E`);
//! * **replies** (server → client, opcodes `0x81..`), exactly one per
//!   request *except* [`Request::Events`], which is fire-and-forget —
//!   backpressure comes from the server's bounded ingestion rings, not
//!   from a round-trip;
//! * **pushes** (server → client, opcode [`CHECKPOINT_OPCODE`]),
//!   unsolicited checkpoint frames for subscribed sessions. Clients
//!   must tolerate a push arriving between a request and its reply.
//!
//! Event batches ride the 17-byte [`wsd_stream::wire`] encoding
//! unchanged, so an ingestion proxy can splice raw capture bytes into
//! an [`Request::Events`] body without re-encoding.

use std::io::{self, Read, Write};

use wsd_core::snapshot::{get_algorithm, get_pattern, put_algorithm, put_pattern};
use wsd_core::{Algorithm, ByteReader, ByteWriter, SnapshotError, WeightSpec};
use wsd_graph::{EdgeEvent, Pattern};
use wsd_stream::wire;

/// Frames larger than this are rejected before allocation (64 MiB).
pub const MAX_FRAME_BYTES: u32 = 64 << 20;

/// Size of the client's write buffer and of the server's per-connection
/// read buffer, and the largest step by which [`read_frame`] grows a
/// payload ahead of its bytes (64 KiB).
pub(crate) const IO_BUFFER_BYTES: usize = 64 << 10;

/// Opcode of unsolicited checkpoint push frames.
pub const CHECKPOINT_OPCODE: u8 = 0xC0;

/// Writes one length-prefixed frame whose payload `fill` appends to
/// `frame`, a buffer the caller reuses across frames (it is cleared
/// first).
///
/// The length prefix and the payload go to `w` in one `write_all`, and
/// `w` is not flushed: a buffered writer may hold the frame until its
/// owner flushes, so the owner decides when frames reach the peer.
pub fn write_frame(
    w: &mut impl Write,
    frame: &mut Vec<u8>,
    fill: impl FnOnce(&mut Vec<u8>),
) -> io::Result<()> {
    frame.clear();
    frame.extend_from_slice(&[0; 4]);
    fill(frame);
    let len = u32::try_from(frame.len() - 4)
        .ok()
        .filter(|&n| n <= MAX_FRAME_BYTES)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    frame[..4].copy_from_slice(&len.to_le_bytes());
    w.write_all(frame)
}

/// Appends the payload of a [`Request::Events`] frame to `out`, encoding
/// straight from the borrowed `events`: the one encoding of the frame,
/// shared by [`Request::encode`] and the client's copy-free
/// [`crate::Client::send_events`].
pub(crate) fn encode_events_request(session: u64, events: &[EdgeEvent], out: &mut Vec<u8>) {
    out.reserve(1 + 8 + events.len() * wire::EVENT_WIRE_BYTES);
    out.push(0x02);
    out.extend_from_slice(&session.to_le_bytes());
    for &ev in events {
        wire::encode_event(ev, out);
    }
}

/// Reads one length-prefixed frame; `Ok(None)` on clean EOF at a frame
/// boundary. EOF after 1–3 prefix bytes, or inside the payload, is a
/// torn stream and errors with `UnexpectedEof` — only a stream ending
/// before the first prefix byte is a clean close.
///
/// The payload grows as its bytes arrive, in steps of at most 64 KiB,
/// so a peer that declares a large frame and then stalls or hangs up
/// costs memory in proportion to what it sent, not to what it declared.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < len_bytes.len() {
        match r.read(&mut len_bytes[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream ended inside a frame length prefix",
                ));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "frame too large"));
    }
    let len = len as usize;
    let mut payload = Vec::with_capacity(len.min(IO_BUFFER_BYTES));
    while payload.len() < len {
        let start = payload.len();
        payload.resize(start + (len - start).min(IO_BUFFER_BYTES), 0);
        r.read_exact(&mut payload[start..])?;
    }
    Ok(Some(payload))
}

/// One client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Opens a session; the server assigns the id (and the shard).
    /// Without an explicit seed the server derives one deterministically
    /// from its base seed and the session id via `replica_seed`.
    Open {
        /// Sampling algorithm to run.
        algorithm: Algorithm,
        /// Reservoir capacity (number of edge slots).
        capacity: u64,
        /// Explicit sampler seed; `None` = server-derived.
        seed: Option<u64>,
        /// Patterns to attach at open, in attachment order.
        patterns: Vec<Pattern>,
    },
    /// Fire-and-forget event batch for one session.
    Events {
        /// Target session.
        session: u64,
        /// The ordered events.
        events: Vec<EdgeEvent>,
    },
    /// Reads every query estimate of a session.
    Estimates {
        /// Target session.
        session: u64,
    },
    /// Attaches one more pattern query mid-stream (warm-started).
    Attach {
        /// Target session.
        session: u64,
        /// Pattern for the new query.
        pattern: Pattern,
    },
    /// Detaches the query in handle slot `query`.
    Detach {
        /// Target session.
        session: u64,
        /// Handle slot index (as returned by attach / estimates).
        query: u32,
    },
    /// Serialises the session's full sampler state.
    Snapshot {
        /// Target session.
        session: u64,
    },
    /// Revives a snapshot as a **new** session (fresh id, possibly a
    /// different shard — this is how sessions migrate).
    Restore {
        /// An encoded `SessionSnapshot` blob.
        blob: Vec<u8>,
    },
    /// Subscribes to checkpoint pushes at a **global** cadence: one
    /// push each time the session's lifetime event count crosses a
    /// multiple of `every`, regardless of how the stream is split into
    /// `Events` frames (0 unsubscribes).
    Subscribe {
        /// Target session.
        session: u64,
        /// Checkpoint cadence in session events; 0 turns pushes off.
        every: u64,
    },
    /// Barrier: replies only after every event this connection queued
    /// for the session beforehand has been applied.
    Flush {
        /// Target session.
        session: u64,
    },
    /// Closes a session and frees its state.
    Close {
        /// Target session.
        session: u64,
    },
    /// Server-wide counters (the versioned [`StatsReport`]).
    Stats,
    /// Asks the whole server to shut down cleanly.
    Shutdown,
    /// The human-readable metrics dump (one `name value` line per
    /// metric).
    Metrics,
    /// Hot-swaps the session's weight function mid-stream (WSD family
    /// only): the reservoir keeps its admission-time weights, only
    /// future observations use the new spec. The policy parameters are
    /// validated at decode (finite floats, matching dimensions) before
    /// the command ever reaches a shard, mirroring `Restore`'s gating.
    SwapPolicy {
        /// Target session.
        session: u64,
        /// The weight function to install.
        spec: WeightSpec,
    },
}

/// One query's estimate inside [`Reply::Estimates`] or a checkpoint.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueryEstimate {
    /// Handle slot index of the query.
    pub query: u32,
    /// The pattern counted.
    pub pattern: Pattern,
    /// Current unbiased estimate.
    pub estimate: f64,
}

/// Estimates of every live query of one session.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionEstimates {
    /// The session id.
    pub session: u64,
    /// Events applied so far.
    pub events: u64,
    /// Edges currently stored by the sampler.
    pub stored_edges: u64,
    /// One entry per live query, attachment order.
    pub queries: Vec<QueryEstimate>,
}

/// Version tag carried by every encoded [`StatsReport`]. Bumped when
/// fields are added so a reader can reject frames it does not
/// understand instead of misparsing them. Version 1 was the PR 8
/// two-counter frame; version 2 added the full counter block.
pub const STATS_VERSION: u32 = 2;

/// Server-wide counters, aggregated across shards at request time.
/// All fields are totals since boot except [`StatsReport::sessions`],
/// which is a live gauge.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsReport {
    /// Sessions currently open across all shards.
    pub sessions: u64,
    /// Events applied across all sessions since boot.
    pub events: u64,
    /// `Events` batches applied since boot.
    pub batches: u64,
    /// Shard commands applied since boot (all kinds).
    pub commands: u64,
    /// Checkpoint push frames handed to connection writers.
    pub checkpoints_sent: u64,
    /// Checkpoint pushes dropped on subscriber-queue overflow.
    pub checkpoints_dropped: u64,
    /// Sessions created via `Open` or a wire `Restore`.
    pub sessions_opened: u64,
    /// Sessions removed via `Close`.
    pub sessions_closed: u64,
    /// Sessions dropped because a command on them panicked.
    pub sessions_poisoned: u64,
    /// Sessions revived from the data-dir at boot.
    pub sessions_restored: u64,
    /// Full command-queue backpressure stalls (once per stalled
    /// command).
    pub ring_stalls: u64,
    /// Snapshot files written to the durable store.
    pub autosave_writes: u64,
    /// Durable-store writes that failed.
    pub autosave_failures: u64,
}

/// One server reply.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// Generic success without data.
    Ok,
    /// Session created; carries its server-assigned id.
    Opened {
        /// The new session id.
        session: u64,
    },
    /// Estimate read-back.
    Estimates(SessionEstimates),
    /// Query attached; carries its handle slot.
    Attached {
        /// Handle slot index of the new query.
        query: u32,
    },
    /// Query detached; carries its final estimate.
    Detached {
        /// The detached query's last estimate.
        estimate: f64,
    },
    /// Snapshot blob.
    Snapshot {
        /// Encoded `SessionSnapshot` bytes.
        blob: Vec<u8>,
    },
    /// Flush barrier passed.
    Flushed {
        /// Events the session has applied in total.
        events: u64,
    },
    /// Session closed.
    Closed {
        /// Events the session applied over its lifetime.
        events: u64,
    },
    /// Server-wide counters.
    Stats(StatsReport),
    /// The metrics text dump.
    Metrics {
        /// One `name value` line per metric.
        text: String,
    },
    /// Weight function swapped; carries the swap-point event count.
    PolicySwapped {
        /// Events the session had applied when the swap took effect.
        events: u64,
    },
    /// Request failed; human-readable reason.
    Error {
        /// What went wrong.
        message: String,
    },
}

/// An unsolicited checkpoint push for a subscribed session.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// The session this checkpoint belongs to.
    pub session: u64,
    /// Events applied when the checkpoint was taken.
    pub events: u64,
    /// Every live query's estimate at that point.
    pub queries: Vec<QueryEstimate>,
}

fn put_query_estimates(w: &mut ByteWriter, queries: &[QueryEstimate]) {
    w.put_len(queries.len());
    for q in queries {
        w.put_u32(q.query);
        put_pattern(w, q.pattern);
        w.put_f64(q.estimate);
    }
}

fn get_query_estimates(r: &mut ByteReader<'_>) -> Result<Vec<QueryEstimate>, SnapshotError> {
    let n = r.get_len()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(QueryEstimate {
            query: r.get_u32()?,
            pattern: get_pattern(r)?,
            estimate: r.get_f64()?,
        });
    }
    Ok(out)
}

impl Request {
    /// Encodes the request as a frame payload (opcode + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            Request::Open { algorithm, capacity, seed, patterns } => {
                w.put_u8(0x01);
                put_algorithm(&mut w, *algorithm);
                w.put_u64(*capacity);
                match seed {
                    Some(s) => {
                        w.put_u8(1);
                        w.put_u64(*s);
                    }
                    None => w.put_u8(0),
                }
                w.put_len(patterns.len());
                for &p in patterns {
                    put_pattern(&mut w, p);
                }
            }
            Request::Events { session, events } => {
                let mut out = Vec::new();
                encode_events_request(*session, events, &mut out);
                return out;
            }
            Request::Estimates { session } => {
                w.put_u8(0x03);
                w.put_u64(*session);
            }
            Request::Attach { session, pattern } => {
                w.put_u8(0x04);
                w.put_u64(*session);
                put_pattern(&mut w, *pattern);
            }
            Request::Detach { session, query } => {
                w.put_u8(0x05);
                w.put_u64(*session);
                w.put_u32(*query);
            }
            Request::Snapshot { session } => {
                w.put_u8(0x06);
                w.put_u64(*session);
            }
            Request::Restore { blob } => {
                w.put_u8(0x07);
                w.put_bytes(blob);
            }
            Request::Subscribe { session, every } => {
                w.put_u8(0x08);
                w.put_u64(*session);
                w.put_u64(*every);
            }
            Request::Flush { session } => {
                w.put_u8(0x09);
                w.put_u64(*session);
            }
            Request::Close { session } => {
                w.put_u8(0x0A);
                w.put_u64(*session);
            }
            Request::Stats => w.put_u8(0x0B),
            Request::Shutdown => w.put_u8(0x0C),
            Request::Metrics => w.put_u8(0x0D),
            Request::SwapPolicy { session, spec } => {
                w.put_u8(0x0E);
                w.put_u64(*session);
                spec.encode_into(&mut w);
            }
        }
        w.into_bytes()
    }

    /// Decodes a frame payload into a request.
    pub fn decode(payload: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = ByteReader::new(payload);
        let req = match r.get_u8()? {
            0x01 => {
                let algorithm = get_algorithm(&mut r)?;
                let capacity = r.get_u64()?;
                let seed = if r.get_bool()? { Some(r.get_u64()?) } else { None };
                let n = r.get_len()?;
                let mut patterns = Vec::with_capacity(n);
                for _ in 0..n {
                    patterns.push(get_pattern(&mut r)?);
                }
                Request::Open { algorithm, capacity, seed, patterns }
            }
            0x02 => {
                let session = r.get_u64()?;
                let events = wire::decode_events(r.take(r.remaining())?)
                    .map_err(|_| SnapshotError::Invalid("event bytes"))?;
                Request::Events { session, events }
            }
            0x03 => Request::Estimates { session: r.get_u64()? },
            0x04 => Request::Attach { session: r.get_u64()?, pattern: get_pattern(&mut r)? },
            0x05 => Request::Detach { session: r.get_u64()?, query: r.get_u32()? },
            0x06 => Request::Snapshot { session: r.get_u64()? },
            0x07 => Request::Restore { blob: r.take(r.remaining())?.to_vec() },
            0x08 => Request::Subscribe { session: r.get_u64()?, every: r.get_u64()? },
            0x09 => Request::Flush { session: r.get_u64()? },
            0x0A => Request::Close { session: r.get_u64()? },
            0x0B => Request::Stats,
            0x0C => Request::Shutdown,
            0x0D => Request::Metrics,
            0x0E => {
                Request::SwapPolicy { session: r.get_u64()?, spec: WeightSpec::decode(&mut r)? }
            }
            _ => return Err(SnapshotError::BadTag("request opcode")),
        };
        r.finish()?;
        Ok(req)
    }
}

impl Reply {
    /// Encodes the reply as a frame payload (opcode + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            Reply::Ok => w.put_u8(0x81),
            Reply::Opened { session } => {
                w.put_u8(0x82);
                w.put_u64(*session);
            }
            Reply::Estimates(e) => {
                w.put_u8(0x83);
                w.put_u64(e.session);
                w.put_u64(e.events);
                w.put_u64(e.stored_edges);
                put_query_estimates(&mut w, &e.queries);
            }
            Reply::Attached { query } => {
                w.put_u8(0x84);
                w.put_u32(*query);
            }
            Reply::Detached { estimate } => {
                w.put_u8(0x85);
                w.put_f64(*estimate);
            }
            Reply::Snapshot { blob } => {
                w.put_u8(0x86);
                w.put_bytes(blob);
            }
            Reply::Flushed { events } => {
                w.put_u8(0x87);
                w.put_u64(*events);
            }
            Reply::Closed { events } => {
                w.put_u8(0x88);
                w.put_u64(*events);
            }
            Reply::Stats(s) => {
                w.put_u8(0x89);
                w.put_u32(STATS_VERSION);
                for v in [
                    s.sessions,
                    s.events,
                    s.batches,
                    s.commands,
                    s.checkpoints_sent,
                    s.checkpoints_dropped,
                    s.sessions_opened,
                    s.sessions_closed,
                    s.sessions_poisoned,
                    s.sessions_restored,
                    s.ring_stalls,
                    s.autosave_writes,
                    s.autosave_failures,
                ] {
                    w.put_u64(v);
                }
            }
            Reply::Metrics { text } => {
                w.put_u8(0x8A);
                w.put_len(text.len());
                w.put_bytes(text.as_bytes());
            }
            Reply::PolicySwapped { events } => {
                w.put_u8(0x8B);
                w.put_u64(*events);
            }
            Reply::Error { message } => {
                w.put_u8(0xFF);
                w.put_len(message.len());
                w.put_bytes(message.as_bytes());
            }
        }
        w.into_bytes()
    }

    /// Decodes a frame payload into a reply.
    pub fn decode(payload: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = ByteReader::new(payload);
        let reply = match r.get_u8()? {
            0x81 => Reply::Ok,
            0x82 => Reply::Opened { session: r.get_u64()? },
            0x83 => Reply::Estimates(SessionEstimates {
                session: r.get_u64()?,
                events: r.get_u64()?,
                stored_edges: r.get_u64()?,
                queries: get_query_estimates(&mut r)?,
            }),
            0x84 => Reply::Attached { query: r.get_u32()? },
            0x85 => Reply::Detached { estimate: r.get_f64()? },
            0x86 => Reply::Snapshot { blob: r.take(r.remaining())?.to_vec() },
            0x87 => Reply::Flushed { events: r.get_u64()? },
            0x88 => Reply::Closed { events: r.get_u64()? },
            0x89 => {
                if r.get_u32()? != STATS_VERSION {
                    return Err(SnapshotError::BadTag("stats version"));
                }
                Reply::Stats(StatsReport {
                    sessions: r.get_u64()?,
                    events: r.get_u64()?,
                    batches: r.get_u64()?,
                    commands: r.get_u64()?,
                    checkpoints_sent: r.get_u64()?,
                    checkpoints_dropped: r.get_u64()?,
                    sessions_opened: r.get_u64()?,
                    sessions_closed: r.get_u64()?,
                    sessions_poisoned: r.get_u64()?,
                    sessions_restored: r.get_u64()?,
                    ring_stalls: r.get_u64()?,
                    autosave_writes: r.get_u64()?,
                    autosave_failures: r.get_u64()?,
                })
            }
            0x8A => {
                let n = r.get_len()?;
                let text = String::from_utf8(r.take(n)?.to_vec())
                    .map_err(|_| SnapshotError::Invalid("metrics text utf-8"))?;
                Reply::Metrics { text }
            }
            0x8B => Reply::PolicySwapped { events: r.get_u64()? },
            0xFF => {
                let n = r.get_len()?;
                let message = String::from_utf8(r.take(n)?.to_vec())
                    .map_err(|_| SnapshotError::Invalid("error message utf-8"))?;
                Reply::Error { message }
            }
            _ => return Err(SnapshotError::BadTag("reply opcode")),
        };
        r.finish()?;
        Ok(reply)
    }
}

impl Checkpoint {
    /// Encodes the checkpoint as a push-frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u8(CHECKPOINT_OPCODE);
        w.put_u64(self.session);
        w.put_u64(self.events);
        put_query_estimates(&mut w, &self.queries);
        w.into_bytes()
    }

    /// Decodes a push-frame payload.
    pub fn decode(payload: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = ByteReader::new(payload);
        if r.get_u8()? != CHECKPOINT_OPCODE {
            return Err(SnapshotError::BadTag("checkpoint opcode"));
        }
        let cp = Checkpoint {
            session: r.get_u64()?,
            events: r.get_u64()?,
            queries: get_query_estimates(&mut r)?,
        };
        r.finish()?;
        Ok(cp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsd_graph::Edge;

    #[test]
    fn round_trips_every_request() {
        let requests = vec![
            Request::Open {
                algorithm: Algorithm::WsdH,
                capacity: 4096,
                seed: Some(42),
                patterns: vec![Pattern::Wedge, Pattern::Triangle, Pattern::Clique(5)],
            },
            Request::Open { algorithm: Algorithm::Wrs, capacity: 1, seed: None, patterns: vec![] },
            Request::Events {
                session: 7,
                events: vec![
                    EdgeEvent::insert(Edge::new(1, 2)),
                    EdgeEvent::delete(Edge::new(u64::MAX, 3)),
                ],
            },
            Request::Estimates { session: 9 },
            Request::Attach { session: 9, pattern: Pattern::FourClique },
            Request::Detach { session: 9, query: 2 },
            Request::Snapshot { session: 1 },
            Request::Restore { blob: vec![1, 2, 3, 255] },
            Request::Subscribe { session: 4, every: 4096 },
            Request::Flush { session: 4 },
            Request::Close { session: 4 },
            Request::Stats,
            Request::Shutdown,
            Request::Metrics,
            Request::SwapPolicy { session: 5, spec: WeightSpec::Uniform },
            Request::SwapPolicy { session: 5, spec: WeightSpec::Heuristic },
            Request::SwapPolicy {
                session: 6,
                spec: WeightSpec::Policy(wsd_core::LinearPolicy::new(
                    vec![0.5, -1.25, 1e-9],
                    0.75,
                    wsd_core::FeatureNorm::new(vec![1.0, 2.0, 3.0], vec![0.5, 1.0, 2.0]),
                )),
            },
        ];
        for req in requests {
            let payload = req.encode();
            assert_eq!(Request::decode(&payload).expect("decodes"), req);
        }
    }

    #[test]
    fn round_trips_every_reply() {
        let replies = vec![
            Reply::Ok,
            Reply::Opened { session: 3 },
            Reply::Estimates(SessionEstimates {
                session: 3,
                events: 10_000,
                stored_edges: 512,
                queries: vec![
                    QueryEstimate { query: 0, pattern: Pattern::Triangle, estimate: 1234.5 },
                    QueryEstimate { query: 2, pattern: Pattern::Wedge, estimate: -0.0 },
                ],
            }),
            Reply::Attached { query: 1 },
            Reply::Detached { estimate: f64::MIN_POSITIVE },
            Reply::Snapshot { blob: b"WSDS....".to_vec() },
            Reply::Flushed { events: 88 },
            Reply::Closed { events: 99 },
            Reply::Stats(StatsReport {
                sessions: 1024,
                events: u64::MAX,
                batches: 77,
                commands: 99,
                checkpoints_sent: 5,
                checkpoints_dropped: 1,
                sessions_opened: 1030,
                sessions_closed: 6,
                sessions_poisoned: 2,
                sessions_restored: 3,
                ring_stalls: 42,
                autosave_writes: 12,
                autosave_failures: 1,
            }),
            Reply::Metrics { text: "sessions_live 3\nevents_ingested_total 77\n".into() },
            Reply::PolicySwapped { events: 4096 },
            Reply::Error { message: "no such session".into() },
        ];
        for reply in replies {
            let payload = reply.encode();
            let decoded = Reply::decode(&payload).expect("decodes");
            // Estimate bits must survive exactly (−0.0 vs 0.0 included).
            if let (Reply::Estimates(a), Reply::Estimates(b)) = (&reply, &decoded) {
                for (qa, qb) in a.queries.iter().zip(&b.queries) {
                    assert_eq!(qa.estimate.to_bits(), qb.estimate.to_bits());
                }
            }
            assert_eq!(decoded, reply);
        }
    }

    #[test]
    fn round_trips_checkpoints_and_rejects_garbage() {
        let cp = Checkpoint {
            session: 12,
            events: 8192,
            queries: vec![QueryEstimate { query: 0, pattern: Pattern::Triangle, estimate: 7.0 }],
        };
        assert_eq!(Checkpoint::decode(&cp.encode()).expect("decodes"), cp);

        assert!(Request::decode(&[0x7E]).is_err());
        assert!(Reply::decode(&[0x00]).is_err());
        assert!(Checkpoint::decode(&[0x81]).is_err());
        // A stats frame with an unknown version tag must be rejected,
        // never misparsed as shifted fields.
        let mut stale = ByteWriter::new();
        stale.put_u8(0x89);
        stale.put_u32(1);
        stale.put_u64(3);
        stale.put_u64(4);
        assert!(Reply::decode(&stale.into_bytes()).is_err());
        let mut trailing = Request::Stats.encode();
        trailing.push(0);
        assert!(Request::decode(&trailing).is_err());
    }

    #[test]
    fn invalid_clique_orders_fail_at_decode() {
        // Clique(2) is below the smallest order and Clique(9) above the
        // largest: neither may reach a session constructor, which would
        // panic on them.
        for pattern in [Pattern::Clique(2), Pattern::Clique(9)] {
            let open = Request::Open {
                algorithm: Algorithm::WsdH,
                capacity: 64,
                seed: None,
                patterns: vec![Pattern::Triangle, pattern],
            };
            let attach = Request::Attach { session: 3, pattern };
            for req in [open, attach] {
                let err =
                    Request::decode(&req.encode()).expect_err("invalid order must not decode");
                assert!(matches!(err, SnapshotError::Invalid(_)), "{pattern:?}: {err}");
            }
        }
    }

    #[test]
    fn frames_round_trip_over_a_byte_stream() {
        let mut buf = Vec::new();
        let mut frame = Vec::new();
        write_frame(&mut buf, &mut frame, |b| b.extend_from_slice(&Request::Stats.encode()))
            .expect("writes");
        write_frame(&mut buf, &mut frame, |b| b.extend_from_slice(&Reply::Ok.encode()))
            .expect("writes");
        let mut cursor = io::Cursor::new(buf);
        let first = read_frame(&mut cursor).expect("reads").expect("frame");
        assert_eq!(Request::decode(&first).expect("decodes"), Request::Stats);
        let second = read_frame(&mut cursor).expect("reads").expect("frame");
        assert_eq!(Reply::decode(&second).expect("decodes"), Reply::Ok);
        assert_eq!(read_frame(&mut cursor).expect("clean EOF"), None);

        // A payload spanning several read steps arrives whole.
        let large: Vec<u8> = (0..3 * IO_BUFFER_BYTES + 5).map(|i| i as u8).collect();
        let mut buf = Vec::new();
        write_frame(&mut buf, &mut frame, |b| b.extend_from_slice(&large)).expect("writes");
        let mut cursor = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).expect("reads"), Some(large));
        assert_eq!(read_frame(&mut cursor).expect("clean EOF"), None);
    }

    /// A writer that records every `write` call, as an unbuffered socket
    /// turns each into a syscall.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_frame_is_one_write() {
        let events = vec![EdgeEvent::insert(Edge::new(1, 2)), EdgeEvent::delete(Edge::new(5, 3))];
        let request = Request::Events { session: 11, events: events.clone() };
        let mut w = CountingWriter::default();
        let mut frame = Vec::new();
        write_frame(&mut w, &mut frame, |buf| buf.extend_from_slice(&Reply::Ok.encode()))
            .expect("writes");
        assert_eq!(w.writes, 1);
        // The borrowed-slice encoding into the reused buffer is the same
        // frame as encoding the owned request.
        for _ in 0..2 {
            write_frame(&mut w, &mut frame, |buf| encode_events_request(11, &events, buf))
                .expect("writes");
        }
        assert_eq!(w.writes, 3);
        let mut cursor = io::Cursor::new(w.bytes);
        assert_eq!(read_frame(&mut cursor).expect("reads"), Some(Reply::Ok.encode()));
        for _ in 0..2 {
            let payload = read_frame(&mut cursor).expect("reads").expect("frame");
            assert_eq!(payload, request.encode());
            assert_eq!(Request::decode(&payload).expect("decodes"), request);
        }
        assert_eq!(read_frame(&mut cursor).expect("clean EOF"), None);
    }

    #[test]
    fn torn_length_prefix_is_an_error_not_a_clean_eof() {
        let mut framed = Vec::new();
        write_frame(&mut framed, &mut Vec::new(), |b| {
            b.extend_from_slice(&Request::Stats.encode())
        })
        .expect("writes");
        for cut in 1..4 {
            let mut cursor = io::Cursor::new(&framed[..cut]);
            let err = read_frame(&mut cursor).expect_err("torn prefix");
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
        // EOF before any prefix byte stays a clean close.
        let mut empty = io::Cursor::new(&[][..]);
        assert_eq!(read_frame(&mut empty).expect("clean EOF"), None);
        // EOF inside the payload is torn too.
        let mut torn_payload = io::Cursor::new(&framed[..framed.len() - 1]);
        let err = read_frame(&mut torn_payload).expect_err("torn payload");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    /// A reader that serves `data`, then EOF, and records the largest
    /// buffer any `read` call asks it to fill.
    struct FillRecorder<'a> {
        data: &'a [u8],
        largest_fill: usize,
    }

    impl Read for FillRecorder<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.largest_fill = self.largest_fill.max(buf.len());
            self.data.read(buf)
        }
    }

    #[test]
    fn a_frame_read_allocates_only_what_arrives() {
        // A peer declares the largest legal frame, sends 10 bytes and
        // hangs up. The read must tear without ever asking for more
        // than one 64 KiB step, let alone the 64 MiB the prefix claims.
        let mut data = MAX_FRAME_BYTES.to_le_bytes().to_vec();
        data.extend_from_slice(&[7; 10]);
        let mut reader = FillRecorder { data: &data, largest_fill: 0 };
        let err = read_frame(&mut reader).expect_err("torn payload");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(
            reader.largest_fill <= 64 << 10,
            "asked to fill {} bytes at once",
            reader.largest_fill
        );
    }
}
