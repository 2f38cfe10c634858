//! The TCP front end: listener, per-connection reader threads,
//! session-id minting, and boot-time recovery from the durable store.
//!
//! Threading model: one listener thread blocks in `accept` (shutdown
//! wakes it by connecting to the server's own address); each
//! connection gets a reader thread that decodes frames and routes
//! commands; `num_shards` shard workers own the sessions. A connection
//! reaches shard `s` through a dedicated bounded command queue (a
//! `std::sync::mpsc::sync_channel`) created on first use, so all of a
//! session's commands from one connection arrive in order. Session ids
//! are minted from one atomic counter and a session lives on shard
//! `id % num_shards` — routing is pure arithmetic, no shared lookup
//! table. Per-session sampler seeds derive from the
//! server's base seed via the engine's `replica_seed` bijection, so a
//! server boot is one deterministic scheduling plan: session `n` gets
//! the same RNG stream no matter which connection opened it.
//!
//! With a [`ServerConfig::data_dir`], boot first replays the store:
//! every persisted session is revived **under its original id** (and
//! therefore on the shard that id maps to), the id counter resumes past
//! both the revived ids and the manifest watermark, and files that fail
//! validation — bad checksum, undecodable blob, inadmissible capacity,
//! a blob whose restore panics — are quarantined aside so a corrupt or
//! forged data-dir degrades into fewer revived sessions, never an
//! aborted boot.

use std::io::{self, BufReader};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use wsd_core::engine::replica_seed;
use wsd_core::{SessionSnapshot, StreamSession};

use crate::metrics::{self, ShardMetrics};
use crate::protocol::{read_frame, Reply, Request, IO_BUFFER_BYTES};
use crate::shard::{run_shard, ConnWriter, ShardCmd, ShardCtx, ShardHandle, Waker};
use crate::store::SessionStore;

/// Tuning knobs for [`serve`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Number of shard worker threads (each owns its sessions).
    pub shards: usize,
    /// Base seed; session `n` samples with `replica_seed(base, n)`
    /// unless the client supplied an explicit seed.
    pub base_seed: u64,
    /// Capacity of each connection→shard command queue, rounded up to
    /// a power of two (at least 2). A full queue blocks that
    /// connection's reader: the ingestion backpressure.
    pub ring_capacity: usize,
    /// Largest reservoir capacity a tenant may request, whether via
    /// `Open`, inside a `Restore` blob, or inside a persisted snapshot
    /// found in the data-dir at boot. Reservoirs eagerly allocate
    /// their capacity and an allocation failure aborts the process
    /// (`handle_alloc_error` does not unwind), so without this ceiling
    /// one hostile request could kill every tenant. Oversized requests
    /// get a `Reply::Error`; oversized persisted blobs are quarantined.
    pub max_capacity: u64,
    /// Directory for durable session snapshots; `None` = in-memory
    /// only (PR 8 behaviour).
    pub data_dir: Option<PathBuf>,
    /// Autosave cadence: persist a session every this many ingested
    /// events (0 = only on clean shutdown). Only meaningful with a
    /// `data_dir`.
    pub autosave_every: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let shards = thread::available_parallelism().map_or(2, |n| n.get().clamp(2, 8));
        ServerConfig {
            shards,
            base_seed: 0x5EED,
            ring_capacity: 256,
            max_capacity: 1 << 24,
            data_dir: None,
            autosave_every: 4096,
        }
    }
}

/// Live connection sockets, so shutdown can unblock their reader
/// threads: a reader parked in `read_frame` on an idle socket holds the
/// connection (and its writer thread) alive indefinitely otherwise.
struct ConnRegistry {
    next: AtomicU64,
    streams: Mutex<std::collections::HashMap<u64, TcpStream>>,
}

impl ConnRegistry {
    fn new() -> Self {
        ConnRegistry { next: AtomicU64::new(1), streams: Mutex::new(Default::default()) }
    }

    fn register(&self, stream: &TcpStream) -> u64 {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            self.streams.lock().expect("conn registry lock").insert(id, clone);
        }
        id
    }

    fn deregister(&self, id: u64) {
        self.streams.lock().expect("conn registry lock").remove(&id);
    }

    /// Severs every registered connection in both directions; blocked
    /// reads observe EOF, blocked writes error, and the detached
    /// reader/writer threads unwind instead of leaking.
    fn shutdown_all(&self) {
        let streams: Vec<TcpStream> =
            self.streams.lock().expect("conn registry lock").drain().map(|(_, s)| s).collect();
        for stream in streams {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

struct ServerShared {
    config: ServerConfig,
    /// Where shutdown connects to wake the blocked `accept`.
    wake_addr: SocketAddr,
    next_session: AtomicU64,
    shutdown: Arc<AtomicBool>,
    metrics: Vec<Arc<ShardMetrics>>,
    store: Option<Arc<SessionStore>>,
    connections: ConnRegistry,
    shards: Vec<ShardHandle>,
}

/// A bound, running server; dropping it does **not** stop it — call
/// [`RunningServer::shutdown`] or let a client send
/// [`Request::Shutdown`] and then [`RunningServer::wait`].
pub struct RunningServer {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    listener: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
    restored_sessions: u64,
    quarantined_files: u64,
}

/// Binds `addr` (use port 0 for an ephemeral port), replays the durable
/// store when one is configured, and starts the listener and shard
/// workers.
pub fn serve(addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<RunningServer> {
    assert!(config.shards > 0, "need at least one shard");
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    // An unspecified bind address is reached through loopback.
    let mut wake_addr = addr;
    if addr.ip().is_unspecified() {
        wake_addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }

    let store = match &config.data_dir {
        Some(dir) => Some(Arc::new(SessionStore::open(dir.clone())?)),
        None => None,
    };
    let metrics: Vec<Arc<ShardMetrics>> =
        (0..config.shards).map(|_| Arc::new(ShardMetrics::default())).collect();

    // Boot-time recovery: revive persisted sessions under their
    // original ids, before the shard workers exist, so the workers
    // start with their session maps pre-filled.
    let mut initial: Vec<Vec<(u64, StreamSession)>> =
        (0..config.shards).map(|_| Vec::new()).collect();
    let mut next_session = 1u64;
    let mut restored_sessions = 0u64;
    let mut quarantined_files = 0u64;
    if let Some(store) = &store {
        let scan = store.scan()?;
        quarantined_files = scan.quarantined;
        for persisted in scan.sessions {
            // Even a quarantined id must never be re-minted.
            next_session = next_session.max(persisted.session.saturating_add(1));
            match revive(&persisted.blob, persisted.events, config.max_capacity) {
                Ok(session) => {
                    let shard = (persisted.session % config.shards as u64) as usize;
                    // Counted live here, not by the shard worker when it
                    // starts: a `Stats` right after boot must see them.
                    metrics[shard].add(|m| &m.sessions_restored, 1);
                    metrics[shard].add(|m| &m.sessions_live, 1);
                    initial[shard].push((persisted.session, session));
                    restored_sessions += 1;
                }
                Err(()) => {
                    store.quarantine(persisted.session);
                    quarantined_files += 1;
                }
            }
        }
        next_session = next_session.max(store.watermark());
    }

    let shutdown = Arc::new(AtomicBool::new(false));
    let mut shards = Vec::with_capacity(config.shards);
    let mut workers = Vec::with_capacity(config.shards);
    for shard in 0..config.shards {
        let (reg_tx, reg_rx) = mpsc::channel();
        let waker = Arc::new(Waker::new());
        shards.push(ShardHandle { registrations: reg_tx, waker: Arc::clone(&waker) });
        let ctx = ShardCtx {
            registrations: reg_rx,
            waker,
            shutdown: Arc::clone(&shutdown),
            metrics: Arc::clone(&metrics[shard]),
            store: store.clone(),
            autosave_every: config.autosave_every,
            initial_sessions: std::mem::take(&mut initial[shard]),
        };
        workers.push(thread::spawn(move || run_shard(ctx)));
    }

    let shared = Arc::new(ServerShared {
        config,
        wake_addr,
        next_session: AtomicU64::new(next_session),
        shutdown: Arc::clone(&shutdown),
        metrics,
        store,
        connections: ConnRegistry::new(),
        shards,
    });

    let listener_shared = Arc::clone(&shared);
    let listener = thread::spawn(move || accept_loop(listener, listener_shared));
    Ok(RunningServer { addr, shared, listener, workers, restored_sessions, quarantined_files })
}

/// Decodes, gates, and restores one persisted blob. Every failure mode
/// — undecodable bytes, a capacity the admission gate rejects, an event
/// count that contradicts the blob, a restore that panics on forged
/// state — maps to `Err(())`, which the caller turns into a quarantine.
fn revive(blob: &[u8], expected_events: u64, max_capacity: u64) -> Result<StreamSession, ()> {
    let snapshot = SessionSnapshot::decode(blob).map_err(|_| ())?;
    admissible_capacity(snapshot.config.capacity, max_capacity).map_err(|_| ())?;
    let session = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        StreamSession::restore(&snapshot)
    }))
    .map_err(|_| ())?;
    if session.events() != expected_events {
        return Err(());
    }
    Ok(session)
}

impl RunningServer {
    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Sessions revived from the data-dir at boot.
    pub fn restored_sessions(&self) -> u64 {
        self.restored_sessions
    }

    /// Data-dir files quarantined at boot (corrupt, forged, or
    /// inadmissible).
    pub fn quarantined_files(&self) -> u64 {
        self.quarantined_files
    }

    /// Blocks until the server stops (a client sent `Shutdown`).
    pub fn wait(self) {
        let _ = self.listener.join();
        for worker in self.workers {
            let _ = worker.join();
        }
    }

    /// Stops the server from the owning thread and joins its workers.
    /// Live connections are severed so their detached reader and writer
    /// threads exit instead of idling on open sockets.
    pub fn shutdown(self) {
        request_shutdown(&self.shared);
        self.wait();
    }
}

/// Stops the server: sets the shutdown flag, wakes the shard workers,
/// severs live connections, and connects once to the server's own
/// address so the listener's blocking `accept` returns and sees the
/// flag. Serves both [`RunningServer::shutdown`] and a client's
/// [`Request::Shutdown`]; only the first call wakes the listener.
fn request_shutdown(shared: &ServerShared) {
    let first = !shared.shutdown.swap(true, Ordering::AcqRel);
    for shard in &shared.shards {
        shard.waker.wake();
    }
    shared.connections.shutdown_all();
    if first {
        let _ = TcpStream::connect(shared.wake_addr);
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<ServerShared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        match stream {
            Ok(stream) => {
                let shared = Arc::clone(&shared);
                // Reader threads are detached; they exit on EOF, on
                // frame errors, or when shutdown severs their socket.
                thread::spawn(move || {
                    let _ = serve_connection(stream, shared);
                });
            }
            // Back off instead of spinning on a persistent failure such
            // as running out of file descriptors.
            Err(_) => thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// One connection's command pipes, one per shard, created on demand.
struct ShardPipes {
    senders: Vec<Option<SyncSender<ShardCmd>>>,
}

impl ShardPipes {
    fn new(n: usize) -> Self {
        ShardPipes { senders: (0..n).map(|_| None).collect() }
    }

    /// Sends `cmd` to shard `shard`, blocking while its queue is full
    /// (that full queue **is** the ingestion backpressure).
    fn send(&mut self, shard: usize, shared: &ServerShared, cmd: ShardCmd) -> io::Result<()> {
        let gone = || io::Error::new(io::ErrorKind::BrokenPipe, "shard gone");
        let handle = &shared.shards[shard];
        let sender = match &mut self.senders[shard] {
            Some(sender) => sender,
            slot => {
                let bound = shared.config.ring_capacity.max(2).next_power_of_two();
                let (tx, rx) = mpsc::sync_channel(bound);
                handle.registrations.send(rx).map_err(|_| gone())?;
                handle.waker.wake();
                slot.insert(tx)
            }
        };
        match sender.try_send(cmd) {
            Ok(()) => {}
            Err(TrySendError::Full(cmd)) => {
                shared.metrics[shard].add(|m| &m.ring_stalls, 1);
                // Wake a parked shard before blocking on it to drain.
                handle.waker.wake();
                sender.send(cmd).map_err(|_| gone())?;
            }
            Err(TrySendError::Disconnected(_)) => return Err(gone()),
        }
        handle.waker.wake();
        Ok(())
    }
}

fn serve_connection(stream: TcpStream, shared: Arc<ServerShared>) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let conn_id = shared.connections.register(&stream);
    let result = drive_connection(stream, &shared, conn_id);
    shared.connections.deregister(conn_id);
    result
}

fn drive_connection(stream: TcpStream, shared: &Arc<ServerShared>, conn_id: u64) -> io::Result<()> {
    let writer = ConnWriter::spawn(stream.try_clone()?);
    // Sized to the client's write buffer: a coalesced burst of frames
    // drains in one or two reads.
    let mut reader = BufReader::with_capacity(IO_BUFFER_BYTES, stream);
    let mut pipes = ShardPipes::new(shared.config.shards);

    while let Some(payload) = read_frame(&mut reader)? {
        let request = match Request::decode(&payload) {
            Ok(request) => request,
            Err(e) => {
                send_reply(&writer, &Reply::Error { message: format!("bad request: {e}") })?;
                continue;
            }
        };
        let is_shutdown = matches!(request, Request::Shutdown);
        handle_request(request, shared, &writer, &mut pipes, conn_id)?;
        if is_shutdown {
            break;
        }
    }
    Ok(())
}

fn send_reply(writer: &ConnWriter, reply: &Reply) -> io::Result<()> {
    writer.send(reply.encode())
}

/// Enqueues a command built around a fresh reply channel and relays the
/// shard's answer back over the connection.
fn round_trip(
    shard: usize,
    shared: &ServerShared,
    writer: &ConnWriter,
    pipes: &mut ShardPipes,
    build: impl FnOnce(Sender<Reply>) -> ShardCmd,
) -> io::Result<()> {
    let (tx, rx) = mpsc::channel();
    pipes.send(shard, shared, build(tx))?;
    // A dropped sender without a reply means the whole shard stopped:
    // per-session failures (including panics) now answer explicitly
    // from the shard's catch-unwind path.
    let reply = rx.recv().unwrap_or_else(|_| Reply::Error { message: "shard stopped".into() });
    send_reply(writer, &reply)
}

/// Admission gate for tenant-supplied reservoir capacities: positive,
/// under the configured ceiling, and representable as `usize` (no
/// silent `as` truncation on 32-bit targets). The reservoirs eagerly
/// allocate their full capacity, so this check is the line between a
/// rejected request and an aborted process.
fn admissible_capacity(capacity: u64, max: u64) -> Result<usize, Reply> {
    if capacity == 0 {
        return Err(Reply::Error { message: "capacity must be positive".into() });
    }
    if capacity > max {
        return Err(Reply::Error {
            message: format!("capacity {capacity} exceeds server maximum {max}"),
        });
    }
    usize::try_from(capacity).map_err(|_| Reply::Error {
        message: format!("capacity {capacity} does not fit this platform's address space"),
    })
}

fn handle_request(
    request: Request,
    shared: &ServerShared,
    writer: &ConnWriter,
    pipes: &mut ShardPipes,
    conn_id: u64,
) -> io::Result<()> {
    let shard_of = |session: u64| (session % shared.config.shards as u64) as usize;
    let mint_session = || {
        let session = shared.next_session.fetch_add(1, Ordering::Relaxed);
        if let Some(store) = &shared.store {
            // Advance the durable watermark so this id is never
            // re-minted after a crash, even if the session is never
            // autosaved. Best-effort: a failed reservation costs id
            // uniqueness across a crash, not service.
            let _ = store.reserve_id(session);
        }
        session
    };

    match request {
        Request::Open { algorithm, capacity, seed, patterns } => {
            let capacity = match admissible_capacity(capacity, shared.config.max_capacity) {
                Ok(capacity) => capacity,
                Err(reply) => return send_reply(writer, &reply),
            };
            let session = mint_session();
            let seed = seed.unwrap_or_else(|| replica_seed(shared.config.base_seed, session));
            round_trip(shard_of(session), shared, writer, pipes, |reply| ShardCmd::Open {
                session,
                algorithm,
                capacity,
                seed,
                patterns,
                reply,
            })
        }
        Request::Restore { blob } => match SessionSnapshot::decode(&blob) {
            Ok(snapshot) => {
                // A snapshot declares the capacity the revived session
                // will allocate, so it passes the same admission gate as
                // an explicit Open.
                if let Err(reply) =
                    admissible_capacity(snapshot.config.capacity, shared.config.max_capacity)
                {
                    return send_reply(writer, &reply);
                }
                let session = mint_session();
                round_trip(shard_of(session), shared, writer, pipes, |reply| ShardCmd::Restore {
                    session,
                    snapshot: Box::new(snapshot),
                    reply,
                })
            }
            Err(e) => send_reply(writer, &Reply::Error { message: format!("bad snapshot: {e}") }),
        },
        Request::Events { session, events } => {
            // Fire-and-forget: no reply frame, backpressure via the queue.
            pipes.send(shard_of(session), shared, ShardCmd::Events { session, events })
        }
        Request::Estimates { session } => {
            round_trip(shard_of(session), shared, writer, pipes, |reply| ShardCmd::Estimates {
                session,
                reply,
            })
        }
        Request::Attach { session, pattern } => {
            round_trip(shard_of(session), shared, writer, pipes, |reply| ShardCmd::Attach {
                session,
                pattern,
                reply,
            })
        }
        Request::Detach { session, query } => {
            round_trip(shard_of(session), shared, writer, pipes, |reply| ShardCmd::Detach {
                session,
                query,
                reply,
            })
        }
        Request::Snapshot { session } => {
            round_trip(shard_of(session), shared, writer, pipes, |reply| ShardCmd::Snapshot {
                session,
                reply,
            })
        }
        Request::Subscribe { session, every } => {
            // Gate the cadence here, where we can still answer with an
            // error reply: on 32-bit targets a cadence above usize::MAX
            // used to truncate into a zero-size batch driver whose
            // assert panicked and silently poisoned the session.
            if usize::try_from(every).is_err() {
                return send_reply(
                    writer,
                    &Reply::Error {
                        message: format!(
                            "subscribe cadence {every} is not representable on this server"
                        ),
                    },
                );
            }
            let conn = writer.clone();
            round_trip(shard_of(session), shared, writer, pipes, |reply| ShardCmd::Subscribe {
                session,
                every,
                conn,
                reply,
            })
        }
        Request::Flush { session } => {
            round_trip(shard_of(session), shared, writer, pipes, |reply| ShardCmd::Flush {
                session,
                reply,
            })
        }
        Request::Close { session } => {
            round_trip(shard_of(session), shared, writer, pipes, |reply| ShardCmd::Close {
                session,
                reply,
            })
        }
        Request::SwapPolicy { session, spec } => {
            // The spec already passed the decode-time gate (finite
            // parameters, frame size cap); dimension-vs-session checks
            // happen on the owning shard, which answers with a typed
            // rejection and leaves the session untouched.
            round_trip(shard_of(session), shared, writer, pipes, |reply| ShardCmd::SwapPolicy {
                session,
                spec: Box::new(spec),
                reply,
            })
        }
        Request::Stats => send_reply(writer, &Reply::Stats(metrics::aggregate(&shared.metrics))),
        Request::Metrics => {
            send_reply(writer, &Reply::Metrics { text: metrics::render_text(&shared.metrics) })
        }
        Request::Shutdown => {
            send_reply(writer, &Reply::Ok)?;
            // Deregister first: the queued Ok must drain through this
            // connection's writer before the socket closes, while every
            // *other* connection is severed immediately.
            shared.connections.deregister(conn_id);
            request_shutdown(shared);
            Ok(())
        }
    }
}
