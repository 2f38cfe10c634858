//! # wsd-serve
//!
//! A sharded, many-tenant session server for WSD stream sessions: the
//! serving layer the paper's deployment sketch implies but never
//! specifies. One server process hosts thousands of independent
//! [`StreamSession`](wsd_core::StreamSession)s — one per tenant stream
//! — sharded across worker threads, fed through one bounded command
//! queue per connection and shard with batched ingestion, and reachable
//! over a length-prefixed TCP protocol.
//!
//! * [`protocol`] — frames, requests, replies and checkpoint pushes;
//!   event batches use `wsd_stream::wire`'s 17-byte encoding verbatim.
//! * the server internals ([`serve`], [`RunningServer`]) — listener,
//!   connection readers, shard workers, the bounded command queues
//!   between them (a full queue blocks the connection's reader: the
//!   backpressure signal), and the `replica_seed`-derived deterministic
//!   per-session seeding.
//! * [`client`] — a blocking client speaking the full protocol; it
//!   pipelines fire-and-forget `Events` frames through a 64 KiB write
//!   buffer, and `flush` is the delivery barrier.
//! * [`store`] — the durable session store behind `--data-dir`:
//!   atomic one-file-per-session snapshot blobs plus a manifest that
//!   keeps minted session ids unique across crashes.
//!
//! ## Durability & observability
//!
//! With a [`ServerConfig::data_dir`], sessions autosave their canonical
//! snapshot every [`ServerConfig::autosave_every`] ingested events and
//! on clean shutdown; `Close` durably removes the file. Boot scans the
//! directory and revives every valid session under its **original id**
//! — a killed-and-rebooted server tracks a never-restarted twin
//! bit-for-bit from the autosave point. Corrupt or forged files are
//! quarantined aside (never fatal), and persisted capacities pass the
//! same admission gate as wire requests.
//!
//! Every shard keeps an atomic counter block (events, batches,
//! per-opcode command counts and latencies, checkpoint pushes, session
//! lifecycle, full-queue stalls, autosave writes); `Stats` aggregates
//! them into a versioned [`StatsReport`] and `Metrics` renders a
//! one-line-per-metric text dump. The full-queue count keeps its
//! `ring_*` names, `ring_stalls` on the wire and
//! `ring_full_stalls_total` in the dump, so existing readers of either
//! stay valid.
//!
//! ## Sessions move by value
//!
//! A session is pinned to `shard = id % num_shards` for life. Migration
//! and restarts go through the snapshot subsystem: `Snapshot` returns
//! the session's canonical byte encoding, `Restore` revives it under a
//! fresh id (hence, in general, a different shard) — and the restored
//! session is **bit-identical** going forward: every subsequent
//! estimate matches the uninterrupted original exactly, as pinned by
//! the core's lockstep suite and this crate's loopback tests.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod client;
mod metrics;
pub mod protocol;
mod server;
mod shard;
pub mod store;

pub use client::{Client, ClientError};
pub use protocol::{
    Checkpoint, QueryEstimate, Reply, Request, SessionEstimates, StatsReport, STATS_VERSION,
};
pub use server::{serve, RunningServer, ServerConfig};
