//! Shard workers: each worker thread exclusively owns the sessions
//! whose id maps to it (`session % num_shards`) and drains the bounded
//! command queues its connections registered, one queue per connection.
//!
//! Exclusive ownership is what makes the sharding sound: a
//! `StreamSession` is `Send` but not `Sync` (its sampler is a
//! `Box<dyn EdgeSampler>`, and the trait requires only `Send`), so
//! sessions never migrate between live threads — migration happens by
//! value, through snapshot bytes, as a `Restore` that mints a new id on
//! a possibly different shard, or through the durable store across a
//! process restart (revived under the *original* id at boot).
//!
//! Per-session command order is preserved because one connection sends
//! all commands for a shard through one FIFO queue, and the worker
//! applies each queue's commands in receive order. That ordering is what
//! gives `Flush` its barrier meaning and keeps checkpoint pushes ahead
//! of the flush reply on the socket.

use std::collections::HashMap;
use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use wsd_core::{Algorithm, SessionBuilder, SessionSnapshot, StreamSession, WeightSpec};
use wsd_graph::{EdgeEvent, Pattern};

use crate::metrics::{CmdKind, ShardMetrics};
use crate::protocol::{self, Checkpoint, QueryEstimate, Reply, SessionEstimates};
use crate::store::SessionStore;

/// Outbound frames buffered per connection. Replies block the sending
/// reader thread when the queue is full (slowing only that client);
/// checkpoint pushes never block — a subscriber whose queue overflows
/// loses the subscription instead.
const OUTBOUND_QUEUE_FRAMES: usize = 256;

/// Write half of one client connection: a bounded frame queue drained
/// by a dedicated writer thread that owns the socket.
///
/// The single writer thread keeps frames whole on the wire, and —
/// crucially for tenant isolation — no enqueuer ever blocks on the
/// peer's TCP window. The connection's reader thread enqueues replies
/// with a blocking [`ConnWriter::send`]; shard workers enqueue
/// checkpoint pushes with the non-blocking [`ConnWriter::try_send`], so
/// a subscriber that stops reading can stall neither a shard worker nor
/// the other sessions on it.
#[derive(Clone)]
pub(crate) struct ConnWriter {
    frames: SyncSender<Vec<u8>>,
}

impl ConnWriter {
    /// Takes ownership of the connection's write half and spawns its
    /// writer thread. The thread exits when every `ConnWriter` clone is
    /// dropped or the socket errors; after a socket error all further
    /// sends fail, which the reader thread turns into a hangup.
    pub(crate) fn spawn(mut stream: TcpStream) -> Self {
        let (frames, drain) = mpsc::sync_channel::<Vec<u8>>(OUTBOUND_QUEUE_FRAMES);
        thread::spawn(move || {
            let mut buf = Vec::new();
            while let Ok(frame) = drain.recv() {
                let framed = protocol::write_frame(&mut stream, &mut buf, |buf| {
                    buf.extend_from_slice(&frame);
                });
                if framed.is_err() {
                    break;
                }
            }
        });
        ConnWriter { frames }
    }

    /// Enqueues a frame, blocking while the queue is full. Reader-thread
    /// use only: blocking here slows just this connection's client.
    pub(crate) fn send(&self, frame: Vec<u8>) -> io::Result<()> {
        self.frames
            .send(frame)
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "connection writer gone"))
    }

    /// Enqueues a frame without ever blocking; errors when the queue is
    /// full or the writer died. Shard-worker use only.
    pub(crate) fn try_send(&self, frame: Vec<u8>) -> Result<(), ()> {
        self.frames.try_send(frame).map_err(|_| ())
    }
}

/// Commands a connection enqueues for a shard worker.
pub(crate) enum ShardCmd {
    /// Create a session with the given spec under the given id.
    Open {
        session: u64,
        algorithm: Algorithm,
        capacity: usize,
        seed: u64,
        patterns: Vec<Pattern>,
        reply: Sender<Reply>,
    },
    /// Revive a decoded snapshot under a fresh id.
    Restore { session: u64, snapshot: Box<SessionSnapshot>, reply: Sender<Reply> },
    /// Apply an ordered event batch (fire-and-forget).
    Events { session: u64, events: Vec<EdgeEvent> },
    /// Read all query estimates.
    Estimates { session: u64, reply: Sender<Reply> },
    /// Attach one more pattern query.
    Attach { session: u64, pattern: Pattern, reply: Sender<Reply> },
    /// Detach the query in the given handle slot.
    Detach { session: u64, query: u32, reply: Sender<Reply> },
    /// Serialise the session.
    Snapshot { session: u64, reply: Sender<Reply> },
    /// Set the checkpoint push cadence (0 = off).
    Subscribe { session: u64, every: u64, conn: ConnWriter, reply: Sender<Reply> },
    /// Barrier: reply once all prior commands on this queue are applied.
    Flush { session: u64, reply: Sender<Reply> },
    /// Drop the session.
    Close { session: u64, reply: Sender<Reply> },
    /// Hot-swap the session's weight function (WSD family only).
    SwapPolicy { session: u64, spec: Box<WeightSpec>, reply: Sender<Reply> },
}

/// Parks a shard worker when every command queue is empty; senders
/// wake it.
pub(crate) struct Waker {
    signalled: Mutex<bool>,
    cv: Condvar,
}

impl Waker {
    pub(crate) fn new() -> Self {
        Waker { signalled: Mutex::new(false), cv: Condvar::new() }
    }

    pub(crate) fn wake(&self) {
        *self.signalled.lock().expect("waker lock") = true;
        self.cv.notify_one();
    }

    /// Waits until woken or the timeout elapses; clears the signal.
    pub(crate) fn wait(&self, timeout: Duration) {
        let guard = self.signalled.lock().expect("waker lock");
        let (mut guard, _) = self
            .cv
            .wait_timeout_while(guard, timeout, |signalled| !*signalled)
            .expect("waker wait");
        *guard = false;
    }
}

/// A connection-side handle for registering command queues and waking
/// a shard.
#[derive(Clone)]
pub(crate) struct ShardHandle {
    pub(crate) registrations: Sender<Receiver<ShardCmd>>,
    pub(crate) waker: Arc<Waker>,
}

struct SessionEntry {
    session: StreamSession,
    /// Checkpoint cadence in *lifetime session events*; 0 = off. A push
    /// fires exactly when `session.events()` crosses a multiple of this,
    /// no matter how the stream was split into `Events` frames — the
    /// within-cadence remainder therefore lives in the session's own
    /// event counter, not in any per-frame state.
    subscribe_every: u64,
    /// Where checkpoint pushes go (the subscribing connection).
    push_to: Option<ConnWriter>,
    /// Events applied since the last durable autosave.
    events_since_save: u64,
}

impl SessionEntry {
    fn new(session: StreamSession) -> Self {
        SessionEntry { session, subscribe_every: 0, push_to: None, events_since_save: 0 }
    }
}

/// Everything a shard worker owns for its lifetime.
pub(crate) struct ShardCtx {
    /// New command queues from connections.
    pub(crate) registrations: Receiver<Receiver<ShardCmd>>,
    /// Parked-worker wakeups.
    pub(crate) waker: Arc<Waker>,
    /// Server-wide stop flag.
    pub(crate) shutdown: Arc<AtomicBool>,
    /// This shard's counter block.
    pub(crate) metrics: Arc<ShardMetrics>,
    /// The durable store, when the server runs with a data-dir.
    pub(crate) store: Option<Arc<SessionStore>>,
    /// Autosave cadence in events per session; 0 = only on shutdown.
    pub(crate) autosave_every: u64,
    /// Sessions revived from the store at boot, under their original
    /// ids (all of which map to this shard); `serve` already counted
    /// them in `sessions_live`.
    pub(crate) initial_sessions: Vec<(u64, StreamSession)>,
}

struct ShardState {
    sessions: HashMap<u64, SessionEntry>,
    /// Sessions dropped by a panicking command, so later commands on
    /// them get an explicit "poisoned" error instead of the ambiguous
    /// "no such session". Bounded so a hostile tenant can't grow it
    /// without limit; once full, older poisonings degrade to the
    /// generic error.
    poisoned: HashMap<u64, ()>,
}

/// Upper bound on remembered poisoned-session ids per shard.
const POISONED_CAP: usize = 1024;

/// How many commands one queue may run before the worker moves on —
/// the fairness quantum across a shard's connections.
const RING_QUANTUM: usize = 64;

/// Worker idle park time; bounds shutdown latency when a wake is lost
/// to a race.
const IDLE_PARK: Duration = Duration::from_millis(2);

/// The shard worker loop. Returns when `shutdown` is set, after a final
/// durable save of every live session (so a *clean* shutdown persists
/// exactly the applied state; a SIGKILL falls back to the last
/// autosave).
pub(crate) fn run_shard(ctx: ShardCtx) {
    let mut queues: Vec<Receiver<ShardCmd>> = Vec::new();
    let mut state = ShardState { sessions: HashMap::new(), poisoned: HashMap::new() };
    let ShardCtx {
        registrations,
        waker,
        shutdown,
        metrics,
        store,
        autosave_every,
        initial_sessions,
    } = ctx;
    for (id, session) in initial_sessions {
        state.sessions.insert(id, SessionEntry::new(session));
    }
    loop {
        if shutdown.load(Ordering::Acquire) {
            if let Some(store) = &store {
                for (&id, entry) in &state.sessions {
                    save_session(store, id, entry, &metrics);
                }
            }
            metrics.sessions_live.fetch_sub(state.sessions.len() as u64, Ordering::Relaxed);
            return;
        }
        queues.extend(registrations.try_iter());
        let mut worked = false;
        queues.retain(|queue| {
            for _ in 0..RING_QUANTUM {
                // `Disconnected` comes only once the connection is gone
                // and its queue drained: the queue is finished for good.
                let cmd = match queue.try_recv() {
                    Ok(cmd) => cmd,
                    Err(TryRecvError::Empty) => return true,
                    Err(TryRecvError::Disconnected) => return false,
                };
                worked = true;
                let kind = cmd.kind();
                metrics.count_cmd(kind);
                let start = Instant::now();
                apply_guarded(&mut state, cmd, &metrics, store.as_ref(), autosave_every);
                let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                metrics.time_cmd(kind, nanos);
            }
            true
        });
        if !worked {
            waker.wait(IDLE_PARK);
        }
    }
}

fn poisoned_reply(id: u64) -> Reply {
    Reply::Error {
        message: format!(
            "session {id} is poisoned: a command on it panicked (stream contract violation?) \
             and the session was dropped"
        ),
    }
}

/// Applies one command, containing panics to the offending session: a
/// tenant feeding a contract-violating stream (say, re-inserting a live
/// edge) must not take down the shard's other sessions. The panicking
/// session is dropped — its state can no longer be trusted, in memory
/// *and* on disk — and the client gets an explicit poisoned-session
/// error: from the catch-unwind path when the command carried a reply
/// channel, and on every later command targeting the dropped id.
fn apply_guarded(
    state: &mut ShardState,
    cmd: ShardCmd,
    metrics: &ShardMetrics,
    store: Option<&Arc<SessionStore>>,
    autosave_every: u64,
) {
    let culprit = cmd.session_id();
    if let Some(id) = culprit {
        if state.poisoned.contains_key(&id) {
            // `Close` is the tenant acknowledging the loss; forget the
            // id so the bounded set drains.
            if matches!(cmd, ShardCmd::Close { .. }) {
                state.poisoned.remove(&id);
            }
            if let Some(reply) = cmd.reply_sender() {
                let _ = reply.send(poisoned_reply(id));
            }
            return;
        }
    }
    let reply_on_panic = cmd.reply_sender();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        apply(state, cmd, metrics, store, autosave_every);
    }));
    if outcome.is_err() {
        if let Some(id) = culprit {
            if state.sessions.remove(&id).is_some() {
                metrics.sessions_live.fetch_sub(1, Ordering::Relaxed);
            }
            metrics.add(|m| &m.sessions_poisoned, 1);
            if state.poisoned.len() < POISONED_CAP {
                state.poisoned.insert(id, ());
            }
            if let Some(store) = store {
                // The last autosave predates the violation; a reboot
                // must not resurrect a session the client saw die.
                let _ = store.remove(id);
            }
            if let Some(reply) = reply_on_panic {
                let _ = reply.send(poisoned_reply(id));
            }
        } else if let Some(reply) = reply_on_panic {
            let _ = reply
                .send(Reply::Error { message: "command panicked before a session existed".into() });
        }
    }
}

impl ShardCmd {
    /// The session a command targets (`None` only for commands that
    /// create one, which cannot corrupt existing state).
    fn session_id(&self) -> Option<u64> {
        match self {
            ShardCmd::Open { .. } | ShardCmd::Restore { .. } => None,
            ShardCmd::Events { session, .. }
            | ShardCmd::Estimates { session, .. }
            | ShardCmd::Attach { session, .. }
            | ShardCmd::Detach { session, .. }
            | ShardCmd::Snapshot { session, .. }
            | ShardCmd::Subscribe { session, .. }
            | ShardCmd::Flush { session, .. }
            | ShardCmd::Close { session, .. }
            | ShardCmd::SwapPolicy { session, .. } => Some(*session),
        }
    }

    /// A clone of the command's reply channel, for error paths that
    /// outlive the command value itself (the catch-unwind path).
    fn reply_sender(&self) -> Option<Sender<Reply>> {
        match self {
            ShardCmd::Events { .. } => None,
            ShardCmd::Open { reply, .. }
            | ShardCmd::Restore { reply, .. }
            | ShardCmd::Estimates { reply, .. }
            | ShardCmd::Attach { reply, .. }
            | ShardCmd::Detach { reply, .. }
            | ShardCmd::Snapshot { reply, .. }
            | ShardCmd::Subscribe { reply, .. }
            | ShardCmd::Flush { reply, .. }
            | ShardCmd::Close { reply, .. }
            | ShardCmd::SwapPolicy { reply, .. } => Some(reply.clone()),
        }
    }

    /// The metrics slot this command counts against.
    pub(crate) fn kind(&self) -> CmdKind {
        match self {
            ShardCmd::Open { .. } => CmdKind::Open,
            ShardCmd::Restore { .. } => CmdKind::Restore,
            ShardCmd::Events { .. } => CmdKind::Events,
            ShardCmd::Estimates { .. } => CmdKind::Estimates,
            ShardCmd::Attach { .. } => CmdKind::Attach,
            ShardCmd::Detach { .. } => CmdKind::Detach,
            ShardCmd::Snapshot { .. } => CmdKind::Snapshot,
            ShardCmd::Subscribe { .. } => CmdKind::Subscribe,
            ShardCmd::Flush { .. } => CmdKind::Flush,
            ShardCmd::Close { .. } => CmdKind::Close,
            ShardCmd::SwapPolicy { .. } => CmdKind::SwapPolicy,
        }
    }
}

fn apply(
    state: &mut ShardState,
    cmd: ShardCmd,
    metrics: &ShardMetrics,
    store: Option<&Arc<SessionStore>>,
    autosave_every: u64,
) {
    let sessions = &mut state.sessions;
    match cmd {
        ShardCmd::Open { session, algorithm, capacity, seed, patterns, reply } => {
            let mut builder = SessionBuilder::new(algorithm, capacity, seed);
            for p in patterns {
                builder = builder.query(p);
            }
            sessions.insert(session, SessionEntry::new(builder.build()));
            metrics.add(|m| &m.sessions_live, 1);
            metrics.add(|m| &m.sessions_opened, 1);
            let _ = reply.send(Reply::Opened { session });
        }
        ShardCmd::Restore { session, snapshot, reply } => {
            let restored = StreamSession::restore(&snapshot);
            sessions.insert(session, SessionEntry::new(restored));
            metrics.add(|m| &m.sessions_live, 1);
            metrics.add(|m| &m.sessions_opened, 1);
            let _ = reply.send(Reply::Opened { session });
        }
        ShardCmd::Events { session, events } => {
            let Some(entry) = sessions.get_mut(&session) else {
                return; // fire-and-forget: unknown session drops the batch
            };
            ingest(session, entry, &events, metrics);
            metrics.add(|m| &m.events, events.len() as u64);
            metrics.add(|m| &m.batches, 1);
            entry.events_since_save += events.len() as u64;
            if let Some(store) = store {
                if autosave_every > 0 && entry.events_since_save >= autosave_every {
                    save_session(store, session, entry, metrics);
                    entry.events_since_save = 0;
                }
            }
        }
        ShardCmd::Estimates { session, reply } => {
            let r = with_session(sessions, session, |entry| {
                Reply::Estimates(estimates_of(session, &entry.session))
            });
            let _ = reply.send(r);
        }
        ShardCmd::Attach { session, pattern, reply } => {
            // Checked before attaching: a pattern the session cannot
            // count is the tenant's error, not a contract violation, so
            // it must not poison the session or delete its file.
            let r = with_session(sessions, session, |entry| {
                match entry.session.check_attach(pattern) {
                    Ok(()) => {
                        let id = entry.session.attach(pattern);
                        Reply::Attached { query: id.index() as u32 }
                    }
                    Err(e) => Reply::Error { message: format!("attach rejected: {e}") },
                }
            });
            let _ = reply.send(r);
        }
        ShardCmd::Detach { session, query, reply } => {
            let r = with_session(sessions, session, |entry| {
                let found = entry.session.queries().find(|(id, _)| id.index() == query as usize);
                match found {
                    Some((id, _)) => Reply::Detached { estimate: entry.session.detach(id) },
                    None => Reply::Error { message: format!("no query in slot {query}") },
                }
            });
            let _ = reply.send(r);
        }
        ShardCmd::Snapshot { session, reply } => {
            let r = with_session(sessions, session, |entry| Reply::Snapshot {
                blob: entry.session.snapshot().encode(),
            });
            let _ = reply.send(r);
        }
        ShardCmd::Subscribe { session, every, conn, reply } => {
            let r = with_session(sessions, session, |entry| {
                entry.subscribe_every = every;
                entry.push_to = if every > 0 { Some(conn.clone()) } else { None };
                Reply::Ok
            });
            let _ = reply.send(r);
        }
        ShardCmd::Flush { session, reply } => {
            let r = with_session(sessions, session, |entry| Reply::Flushed {
                events: entry.session.events(),
            });
            let _ = reply.send(r);
        }
        ShardCmd::Close { session, reply } => {
            let r = match sessions.remove(&session) {
                Some(entry) => {
                    metrics.sessions_live.fetch_sub(1, Ordering::Relaxed);
                    metrics.add(|m| &m.sessions_closed, 1);
                    if let Some(store) = store {
                        // Close frees the state durably too: a reboot
                        // must not revive a session the tenant ended.
                        let _ = store.remove(session);
                    }
                    Reply::Closed { events: entry.session.events() }
                }
                None => no_such_session(session),
            };
            let _ = reply.send(r);
        }
        ShardCmd::SwapPolicy { session, spec, reply } => {
            let r = with_session(sessions, session, |entry| {
                // A rejected swap (wrong dimension, non-WSD sampler)
                // leaves the session untouched and answers with the
                // typed reason.
                match entry.session.set_weight_fn(*spec) {
                    Ok(()) => Reply::PolicySwapped { events: entry.session.events() },
                    Err(e) => Reply::Error { message: format!("policy swap rejected: {e}") },
                }
            });
            let _ = reply.send(r);
        }
    }
}

/// Serialises one session into the durable store, counting the outcome.
/// A failed write leaves the in-memory session untouched — durability
/// degrades, service does not.
fn save_session(store: &SessionStore, id: u64, entry: &SessionEntry, metrics: &ShardMetrics) {
    let blob = entry.session.snapshot().encode();
    match store.save(id, entry.session.events(), &blob) {
        Ok(()) => metrics.add(|m| &m.autosave_writes, 1),
        Err(_) => metrics.add(|m| &m.autosave_failures, 1),
    }
}

/// Applies one event batch. Subscribed sessions are fed in sub-chunks
/// aligned to the **global** checkpoint cadence: a push fires exactly
/// when the session's lifetime event count reaches a multiple of
/// `subscribe_every`, independent of how the tenant framed the stream —
/// `Subscribe(every=10)` over 7-event frames still pushes at 10, 20,
/// 30, … and never at frame tails.
fn ingest(id: u64, entry: &mut SessionEntry, events: &[EdgeEvent], metrics: &ShardMetrics) {
    let every = entry.subscribe_every;
    let Some(conn) = entry.push_to.clone().filter(|_| every > 0) else {
        entry.session.process_batch(events);
        return;
    };
    let mut rest = events;
    let mut push_failed = false;
    while !rest.is_empty() {
        // Distance to the next cadence boundary; in 1..=every.
        let until_boundary = every - (entry.session.events() % every);
        let take = usize::try_from(until_boundary).map_or(rest.len(), |u| rest.len().min(u));
        let (chunk, tail) = rest.split_at(take);
        entry.session.process_batch(chunk);
        rest = tail;
        if entry.session.events().is_multiple_of(every) {
            let report = estimates_of(id, &entry.session);
            let frame =
                Checkpoint { session: id, events: report.events, queries: report.queries }.encode();
            // Non-blocking on purpose: this runs on the shard worker,
            // so a subscriber that stops draining its connection must
            // lose its subscription, never stall the shard's other
            // sessions.
            if conn.try_send(frame).is_err() {
                push_failed = true;
                // No more pushes coming; apply the remainder in one go.
                entry.session.process_batch(rest);
                break;
            }
            metrics.add(|m| &m.checkpoints_sent, 1);
        }
    }
    if push_failed {
        // The subscriber hung up or fell too far behind; stop paying
        // for pushes.
        metrics.add(|m| &m.checkpoints_dropped, 1);
        entry.subscribe_every = 0;
        entry.push_to = None;
    }
}

fn estimates_of(id: u64, session: &StreamSession) -> SessionEstimates {
    let report = session.report();
    SessionEstimates {
        session: id,
        events: report.events,
        stored_edges: report.stored_edges as u64,
        queries: report
            .queries
            .iter()
            .map(|q| QueryEstimate {
                query: q.id.index() as u32,
                pattern: q.pattern,
                estimate: q.estimate,
            })
            .collect(),
    }
}

fn with_session(
    sessions: &mut HashMap<u64, SessionEntry>,
    id: u64,
    f: impl FnOnce(&mut SessionEntry) -> Reply,
) -> Reply {
    match sessions.get_mut(&id) {
        Some(entry) => f(entry),
        None => no_such_session(id),
    }
}

fn no_such_session(id: u64) -> Reply {
    Reply::Error { message: format!("no such session {id}") }
}

impl std::fmt::Debug for ShardCmd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self.kind() {
            CmdKind::Open => "Open",
            CmdKind::Restore => "Restore",
            CmdKind::Events => "Events",
            CmdKind::Estimates => "Estimates",
            CmdKind::Attach => "Attach",
            CmdKind::Detach => "Detach",
            CmdKind::Snapshot => "Snapshot",
            CmdKind::Subscribe => "Subscribe",
            CmdKind::Flush => "Flush",
            CmdKind::Close => "Close",
            CmdKind::SwapPolicy => "SwapPolicy",
        })
    }
}
