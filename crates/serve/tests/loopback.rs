//! End-to-end loopback tests: a real server on an ephemeral TCP port,
//! real clients, real frames.

use std::time::{Duration, Instant};

use wsd_core::{Algorithm, SamplerState, SessionBuilder, SessionSnapshot};
use wsd_graph::{Edge, EdgeEvent, Pattern};
use wsd_serve::{serve, Client, ClientError, ServerConfig};

fn boot(shards: usize) -> (wsd_serve::RunningServer, Client) {
    let config =
        ServerConfig { shards, base_seed: 99, ring_capacity: 64, ..ServerConfig::default() };
    let server = serve("127.0.0.1:0", config).expect("binds");
    let client = Client::connect(server.local_addr()).expect("connects");
    (server, client)
}

/// Three waves of clique churn (mirrors the core lockstep suite).
fn churn_stream(n: u64) -> Vec<EdgeEvent> {
    let mut out = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            out.push(EdgeEvent::insert(Edge::new(a, b)));
        }
    }
    for a in 0..n {
        for b in (a + 1)..n {
            if (a + b) % 3 == 0 {
                out.push(EdgeEvent::delete(Edge::new(a, b)));
            }
        }
    }
    for a in 0..n {
        for b in (a + 1)..n {
            if (a + b) % 3 == 0 {
                out.push(EdgeEvent::insert(Edge::new(a, b)));
            }
        }
    }
    out
}

#[test]
fn server_matches_in_process_session_bit_for_bit() {
    // The served estimate must be *exactly* what an in-process session
    // with the same algorithm/capacity/seed computes: the server adds
    // transport and sharding, never arithmetic.
    let (server, mut client) = boot(2);
    let stream = churn_stream(12);
    let patterns = [Pattern::Wedge, Pattern::Triangle];

    let session = client.open(Algorithm::WsdH, 32, Some(1234), &patterns).expect("opens");
    for chunk in stream.chunks(37) {
        client.send_events(session, chunk).expect("sends");
    }
    let events = client.flush(session).expect("flushes");
    assert_eq!(events, stream.len() as u64);

    let mut local = SessionBuilder::new(Algorithm::WsdH, 32, 1234)
        .query(Pattern::Wedge)
        .query(Pattern::Triangle)
        .build();
    local.process_batch(&stream);

    let served = client.estimates(session).expect("estimates");
    let local_report = local.report();
    assert_eq!(served.events, local.events());
    assert_eq!(served.queries.len(), 2);
    for (q, l) in served.queries.iter().zip(&local_report.queries) {
        assert_eq!(q.pattern, l.pattern);
        assert_eq!(q.estimate.to_bits(), l.estimate.to_bits(), "{:?}", q.pattern);
    }
    server.shutdown();
}

#[test]
fn snapshot_restore_over_the_wire_is_bit_identical() {
    // attach → events → snapshot → restore (new shard) → more events on
    // both: the restored session must track the original bit-for-bit.
    let (server, mut client) = boot(3);
    let stream = churn_stream(13);
    let (head, tail) = stream.split_at(stream.len() / 2);

    let original = client.open(Algorithm::Wrs, 40, Some(7), &[Pattern::Triangle]).expect("opens");
    let wedge_slot = client.attach(original, Pattern::Wedge).expect("attaches");
    assert_eq!(wedge_slot, 1);
    client.send_events(original, head).expect("sends");
    client.flush(original).expect("flushes");

    let blob = client.snapshot(original).expect("snapshots");
    let restored = client.restore(blob).expect("restores");
    assert_ne!(restored, original, "restore mints a fresh session id");

    for target in [original, restored] {
        client.send_events(target, tail).expect("sends");
        client.flush(target).expect("flushes");
    }
    let a = client.estimates(original).expect("estimates");
    let b = client.estimates(restored).expect("estimates");
    assert_eq!(a.events, b.events);
    let bits_a: Vec<u64> = a.queries.iter().map(|q| q.estimate.to_bits()).collect();
    let bits_b: Vec<u64> = b.queries.iter().map(|q| q.estimate.to_bits()).collect();
    assert_eq!(bits_a, bits_b, "restored session diverged from the original");

    // Snapshot blobs of both must also agree (canonical encoding).
    let snap_a = client.snapshot(original).expect("snapshots");
    let snap_b = client.snapshot(restored).expect("snapshots");
    assert_eq!(snap_a, snap_b);
    server.shutdown();
}

#[test]
fn policy_hot_swap_over_the_wire_matches_in_process() {
    // Served SwapPolicy must be exactly the in-process `set_weight_fn`:
    // heuristic prefix → swap to a learned policy → suffix, with the
    // served estimates and snapshot bit-identical to a local twin.
    use wsd_core::{FeatureNorm, LinearPolicy, WeightSpec};
    let (server, mut client) = boot(2);
    let stream = churn_stream(12);
    let (head, tail) = stream.split_at(stream.len() / 2);
    // Triangle leads, so it is the weight pattern: dim = 3 + 3 = 6.
    let patterns = [Pattern::Triangle, Pattern::Wedge];
    let policy = LinearPolicy::new(
        vec![2.5, -0.75, 0.5, 0.25, -0.5, 1.5],
        0.75,
        FeatureNorm::new(vec![1.0, 0.5, 2.0, 0.0, 0.0, 1.0], vec![2.0, 1.0, 4.0, 1.0, 1.0, 2.0]),
    );

    let session = client.open(Algorithm::WsdH, 32, Some(77), &patterns).expect("opens");
    client.send_events(session, head).expect("sends");
    client.flush(session).expect("flushes");
    let at = client.swap_policy(session, WeightSpec::Policy(policy.clone())).expect("swaps");
    assert_eq!(at, head.len() as u64, "swap point is the flushed prefix");
    client.send_events(session, tail).expect("sends");
    client.flush(session).expect("flushes");

    let mut local = SessionBuilder::new(Algorithm::WsdH, 32, 77)
        .query(Pattern::Triangle)
        .query(Pattern::Wedge)
        .build();
    local.process_batch(head);
    local.set_weight_fn(WeightSpec::Policy(policy)).expect("swaps");
    local.process_batch(tail);

    let served = client.estimates(session).expect("estimates");
    let report = local.report();
    assert_eq!(served.events, local.events());
    for (q, l) in served.queries.iter().zip(&report.queries) {
        assert_eq!(q.estimate.to_bits(), l.estimate.to_bits(), "{:?}", q.pattern);
    }
    // Snapshots agree too: the served swap updated the session's
    // rebuildable configuration exactly as the in-process swap did.
    assert_eq!(client.snapshot(session).expect("snapshots"), local.snapshot().encode());

    // Rejected swaps answer with the typed reason and leave the
    // session serving.
    match client.swap_policy(session, WeightSpec::Policy(LinearPolicy::neutral(5))) {
        Err(ClientError::Server(msg)) => {
            assert!(msg.contains("policy swap rejected"), "{msg}")
        }
        other => panic!("wanted a rejection, got {other:?}"),
    }
    let triest = client.open(Algorithm::Triest, 16, Some(1), &[Pattern::Wedge]).expect("opens");
    assert!(matches!(
        client.swap_policy(triest, WeightSpec::Heuristic),
        Err(ClientError::Server(_))
    ));
    assert!(client.estimates(session).is_ok());
    server.shutdown();
}

#[test]
fn checkpoint_subscription_pushes_timelines() {
    let (server, mut client) = boot(2);
    let stream = churn_stream(10);

    let session = client.open(Algorithm::Triest, 64, Some(3), &[Pattern::Triangle]).expect("opens");
    client.subscribe(session, 10).expect("subscribes");
    client.send_events(session, &stream).expect("sends");
    client.flush(session).expect("flushes");

    let checkpoints = client.take_checkpoints();
    // Pushes fire exactly when the session's lifetime event count
    // crosses a multiple of the cadence — never for a partial tail.
    let expected = stream.len() / 10;
    assert_eq!(checkpoints.len(), expected);
    for (i, cp) in checkpoints.iter().enumerate() {
        assert_eq!(cp.events, (i as u64 + 1) * 10, "checkpoint off-cadence");
        assert_eq!(cp.session, session);
        assert_eq!(cp.queries.len(), 1);
        assert_eq!(cp.queries[0].pattern, Pattern::Triangle);
    }

    // Unsubscribe stops the stream of pushes. (After the churn stream
    // every pair is live again, so deletions keep the stream feasible.)
    client.subscribe(session, 0).expect("unsubscribes");
    let deletions: Vec<EdgeEvent> =
        (0..9).map(|a| EdgeEvent::delete(Edge::new(a, a + 1))).collect();
    client.send_events(session, &deletions).expect("sends");
    client.flush(session).expect("flushes");
    assert!(client.take_checkpoints().is_empty());
    server.shutdown();
}

#[test]
fn checkpoint_cadence_is_global_across_unaligned_frames() {
    // The cadence counts the session's lifetime events, not each
    // `Events` frame from zero: every=10 over 7-event frames must push
    // at exactly 10, 20, 30, … — the old per-frame driver drifted to
    // 7-aligned boundaries and fired an extra push per frame tail.
    let (server, mut client) = boot(2);
    let stream = churn_stream(10);
    assert_eq!(stream.len() % 7, 5, "stream must not align with the frames");

    let session = client.open(Algorithm::Wrs, 48, Some(11), &[Pattern::Wedge]).expect("opens");
    client.subscribe(session, 10).expect("subscribes");
    for frame in stream.chunks(7) {
        client.send_events(session, frame).expect("sends");
    }
    client.flush(session).expect("flushes");

    let checkpoints = client.take_checkpoints();
    let cadence: Vec<u64> = checkpoints.iter().map(|cp| cp.events).collect();
    let want: Vec<u64> = (1..=stream.len() as u64 / 10).map(|i| i * 10).collect();
    assert_eq!(cadence, want, "pushes must land on exact global multiples of 10");

    // A checkpoint's payload is the estimate at that exact prefix: the
    // push at N must match an in-process session fed the first N events.
    let mut local = SessionBuilder::new(Algorithm::Wrs, 48, 11).query(Pattern::Wedge).build();
    let mut fed = 0usize;
    for cp in &checkpoints {
        local.process_batch(&stream[fed..cp.events as usize]);
        fed = cp.events as usize;
        let local_bits = local.report().queries[0].estimate.to_bits();
        assert_eq!(
            cp.queries[0].estimate.to_bits(),
            local_bits,
            "checkpoint at {} is not the exact prefix estimate",
            cp.events
        );
    }
    server.shutdown();
}

#[test]
fn detach_close_and_errors_round_trip() {
    let (server, mut client) = boot(2);
    let session = client
        .open(Algorithm::ThinkD, 16, None, &[Pattern::Wedge, Pattern::Triangle])
        .expect("opens");
    client.send_events(session, &churn_stream(8)).expect("sends");
    client.flush(session).expect("flushes");

    let final_estimate = client.detach(session, 0).expect("detaches");
    assert!(final_estimate.is_finite());
    let remaining = client.estimates(session).expect("estimates");
    assert_eq!(remaining.queries.len(), 1);
    assert_eq!(remaining.queries[0].query, 1, "surviving query keeps its slot");

    assert!(matches!(client.detach(session, 0), Err(ClientError::Server(_))));
    assert!(matches!(client.estimates(9999), Err(ClientError::Server(_))));
    assert!(matches!(client.restore(vec![1, 2, 3]), Err(ClientError::Server(_))));

    // Hostile capacities must bounce as error replies, not as a
    // process-aborting allocation: the reservoirs allocate eagerly.
    assert!(matches!(
        client.open(Algorithm::Triest, u64::MAX, None, &[]),
        Err(ClientError::Server(_))
    ));
    assert!(matches!(client.open(Algorithm::Triest, 0, None, &[]), Err(ClientError::Server(_))));
    // Same gate for a snapshot blob declaring an absurd capacity.
    let blob = client.snapshot(session).expect("snapshots");
    let mut snap = wsd_core::SessionSnapshot::decode(&blob).expect("decodes");
    snap.config.capacity = u64::MAX;
    assert!(matches!(client.restore(snap.encode()), Err(ClientError::Server(_))));
    // The server survived all of it.
    assert!(client.estimates(session).is_ok());

    let events = client.close(session).expect("closes");
    assert!(events > 0);
    assert!(matches!(client.estimates(session), Err(ClientError::Server(_))));
    server.shutdown();
}

#[test]
fn rejected_attach_leaves_the_session_serving() {
    // A pattern a session cannot count is the tenant's error, not a
    // stream-contract violation: an over-budget pattern is refused by
    // the shard's attach check, an invalid clique order never decodes.
    // Neither may poison the session.
    let (server, mut client) = boot(1);
    let small = client.open(Algorithm::Triest, 2, Some(1), &[Pattern::Wedge]).expect("opens");
    let large = client.open(Algorithm::WsdH, 64, Some(2), &[Pattern::Triangle]).expect("opens");
    let stream = churn_stream(8);
    for session in [small, large] {
        client.send_events(session, &stream).expect("sends");
    }

    match client.attach(small, Pattern::Triangle) {
        Err(ClientError::Server(msg)) => {
            assert!(msg.contains("must be ≥ |H|"), "wanted a budget error, got: {msg}")
        }
        other => panic!("a triangle must not fit a capacity-2 reservoir, got {other:?}"),
    }
    for pattern in [Pattern::Clique(2), Pattern::Clique(9)] {
        match client.attach(large, pattern) {
            Err(ClientError::Server(msg)) => {
                assert!(!msg.contains("poisoned"), "{pattern:?} poisoned the session: {msg}")
            }
            other => panic!("{pattern:?} must be rejected, got {other:?}"),
        }
    }

    for session in [small, large] {
        assert_eq!(client.flush(session).expect("still serving"), stream.len() as u64);
        assert_eq!(client.estimates(session).expect("estimates").queries.len(), 1);
    }
    assert_eq!(client.stats().expect("stats").sessions_poisoned, 0);
    server.shutdown();
}

#[test]
fn forged_restore_is_rejected_before_any_shard() {
    // Three well-tagged forgeries of a snapshot's sampler state: a heap
    // key equal to the capacity would size the restored heap's index by
    // that key, a heap key on the arena ID the stream's final deletion
    // freed would make the next admitted insert push that ID twice, and
    // a zero edge weight would make that edge's inclusion probability
    // zero. The server must answer each Restore with an error at decode
    // time, and the connection must go on serving.
    let (server, mut client) = boot(2);
    let stream = churn_stream(10);
    let original = client.open(Algorithm::WsdH, 16, Some(5), &[Pattern::Triangle]).expect("opens");
    client.send_events(original, &stream).expect("sends");
    client.flush(original).expect("flushes");
    let snapshot = |client: &mut Client| {
        SessionSnapshot::decode(&client.snapshot(original).expect("snapshots"))
            .expect("an honest snapshot decodes")
    };
    let SamplerState::Wsd { sample, .. } = snapshot(&mut client).sampler else {
        panic!("a WSD-H session snapshots a WSD state")
    };
    let (u, slots) = &sample.layout.vertices[0];
    client.send_events(original, &[EdgeEvent::delete(Edge::new(*u, slots[0].0))]).expect("sends");
    client.flush(original).expect("flushes");
    let honest = snapshot(&mut client);
    let SamplerState::Wsd { sample, .. } = &honest.sampler else { unreachable!() };
    let freed = *sample.layout.free.last().expect("the deletion freed an arena ID");
    for what in ["a heap key at the capacity", "a heap key on a freed ID", "a zero edge weight"] {
        let mut forged = honest.clone();
        let SamplerState::Wsd { heap, sample, .. } = &mut forged.sampler else { unreachable!() };
        match what {
            "a heap key at the capacity" => heap[0].0 = 16,
            "a heap key on a freed ID" => heap[0].0 = freed,
            _ => sample.meta[0].1 = 0.0,
        }
        match client.restore(forged.encode()) {
            Err(ClientError::Server(msg)) => {
                assert!(msg.contains("bad snapshot"), "{what}: wanted a decode error, got: {msg}")
            }
            other => panic!("{what} must be rejected, got {other:?}"),
        }
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.sessions_opened, 1, "the forged restore must not reach a shard");
    assert_eq!(stats.sessions_poisoned, 0);

    let fresh = client.open(Algorithm::WsdH, 16, Some(6), &[Pattern::Triangle]).expect("opens");
    client.send_events(fresh, &stream).expect("sends");
    assert_eq!(client.flush(fresh).expect("serves"), stream.len() as u64);
    assert_eq!(client.estimates(fresh).expect("estimates").queries.len(), 1);
    server.shutdown();
}

#[cfg(debug_assertions)]
#[test]
fn poisoned_session_does_not_take_down_its_shard() {
    // A tenant violating the stream contract (re-inserting a live edge
    // trips the samplers' debug asserts) loses its session; a healthy
    // session on the same single shard keeps answering.
    let (server, mut client) = boot(1);
    let healthy = client.open(Algorithm::Triest, 16, Some(1), &[Pattern::Wedge]).expect("opens");
    let poisoned = client.open(Algorithm::Triest, 16, Some(2), &[Pattern::Wedge]).expect("opens");

    let dup = EdgeEvent::insert(Edge::new(1, 2));
    client.send_events(poisoned, &[dup, dup]).expect("sends");
    // The panic unwinds the poisoned session; its next command gets an
    // explicit poisoned-session error, not a generic "shard stopped".
    match client.flush(poisoned) {
        Err(ClientError::Server(msg)) => {
            assert!(msg.contains("poisoned"), "wanted a poisoned-session error, got: {msg}")
        }
        other => panic!("wanted a poisoned-session error, got {other:?}"),
    }

    let stream = churn_stream(6);
    client.send_events(healthy, &stream).expect("sends");
    assert_eq!(client.flush(healthy).expect("flushes"), stream.len() as u64);
    server.shutdown();
}

#[test]
fn hung_subscriber_cannot_stall_its_shard() {
    // A subscriber that stops reading must lose its subscription (its
    // bounded outbound queue overflows), never block the shard worker:
    // other tenants' commands on the same shard keep completing.
    let (server, mut subscriber) = boot(1);
    let mut feeder = Client::connect(server.local_addr()).expect("connects");

    let session =
        subscriber.open(Algorithm::Triest, 16, Some(9), &[Pattern::Wedge]).expect("opens");
    subscriber.subscribe(session, 1).expect("subscribes");

    // ~25 MB of checkpoint frames at one per event — far beyond the
    // subscriber's queue plus any TCP buffering — while the subscriber
    // never reads a byte. Without the overflow-drops-the-subscription
    // rule the shard worker would wedge here and flush would never
    // return.
    let events: Vec<EdgeEvent> =
        (0..600_000u64).map(|i| EdgeEvent::insert(Edge::new(i, i + 1))).collect();
    feeder.send_events(session, &events).expect("sends");
    let applied = feeder.flush(session).expect("shard survived the hung subscriber");
    assert_eq!(applied, events.len() as u64);

    // The shard still serves fresh tenants.
    let healthy = feeder.open(Algorithm::Triest, 16, Some(10), &[Pattern::Wedge]).expect("opens");
    let stream = churn_stream(6);
    feeder.send_events(healthy, &stream).expect("sends");
    assert_eq!(feeder.flush(healthy).expect("flushes"), stream.len() as u64);
    server.shutdown();
}

#[test]
fn thousand_concurrent_sessions_across_shards() {
    // The acceptance bar: ≥ 1000 live sessions on one server, all
    // ingesting, every one answering with a sane estimate.
    const SESSIONS: usize = 1024;
    let (server, mut client) = boot(4);
    let stream = churn_stream(9);

    let algorithms = [Algorithm::WsdH, Algorithm::Triest, Algorithm::ThinkD, Algorithm::Wrs];
    let mut ids = Vec::with_capacity(SESSIONS);
    for i in 0..SESSIONS {
        let algorithm = algorithms[i % algorithms.len()];
        ids.push(client.open(algorithm, 24, None, &[Pattern::Triangle]).expect("opens"));
    }
    let sessions = client.stats().expect("stats").sessions;
    assert!(sessions >= SESSIONS as u64, "only {sessions} sessions live");

    for &id in &ids {
        client.send_events(id, &stream).expect("sends");
    }
    for &id in &ids {
        assert_eq!(client.flush(id).expect("flushes"), stream.len() as u64);
    }
    let total_events = client.stats().expect("stats").events;
    assert_eq!(total_events, (stream.len() * SESSIONS) as u64);

    // Identically-seeded sessions must agree bit-for-bit (deterministic
    // scheduling); spot-check a sampled pair per algorithm via an
    // explicit seed reopen.
    for &algorithm in &algorithms {
        let a = client.open(algorithm, 24, Some(5), &[Pattern::Triangle]).expect("opens");
        let b = client.open(algorithm, 24, Some(5), &[Pattern::Triangle]).expect("opens");
        client.send_events(a, &stream).expect("sends");
        client.send_events(b, &stream).expect("sends");
        client.flush(a).expect("flushes");
        client.flush(b).expect("flushes");
        let ea = client.estimates(a).expect("estimates").queries[0].estimate;
        let eb = client.estimates(b).expect("estimates").queries[0].estimate;
        assert_eq!(ea.to_bits(), eb.to_bits(), "{algorithm:?}");
    }
    for &id in &ids {
        client.close(id).expect("closes");
    }
    server.shutdown();
}

#[test]
fn many_connections_share_one_server() {
    let (server, mut admin) = boot(2);
    let handles: Vec<_> = (0..8)
        .map(|i| {
            let addr = server.local_addr();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connects");
                let stream = churn_stream(8 + i % 3);
                let session =
                    client.open(Algorithm::Wrs, 16, Some(i), &[Pattern::Wedge]).expect("opens");
                client.send_events(session, &stream).expect("sends");
                let events = client.flush(session).expect("flushes");
                assert_eq!(events, stream.len() as u64);
                client.close(session).expect("closes");
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker");
    }
    let report = admin.stats().expect("stats");
    assert_eq!(report.sessions, 0, "every session was closed");
    assert_eq!(report.sessions_opened, 8);
    assert_eq!(report.sessions_closed, 8);
    server.shutdown();
}

#[test]
fn stats_and_metrics_reconcile_with_client_accounting() {
    // The counters are not decorative: after a known workload, the
    // aggregated report must agree exactly with what the client did.
    let (server, mut client) = boot(2);
    let stream = churn_stream(10); // 75 events
    let frames = stream.chunks(7).count() as u64;

    let session = client.open(Algorithm::Triest, 64, Some(3), &[Pattern::Triangle]).expect("opens");
    client.subscribe(session, 10).expect("subscribes");
    for frame in stream.chunks(7) {
        client.send_events(session, frame).expect("sends");
    }
    client.flush(session).expect("flushes");

    let report = client.stats().expect("stats");
    assert_eq!(report.sessions, 1);
    assert_eq!(report.sessions_opened, 1);
    assert_eq!(report.sessions_closed, 0);
    assert_eq!(report.sessions_poisoned, 0);
    assert_eq!(report.sessions_restored, 0);
    assert_eq!(report.events, stream.len() as u64);
    assert_eq!(report.batches, frames);
    assert_eq!(report.checkpoints_sent, stream.len() as u64 / 10);
    assert_eq!(report.checkpoints_dropped, 0);
    assert_eq!(report.autosave_writes, 0, "no data-dir, no writes");
    assert_eq!(report.autosave_failures, 0);
    // Open + Subscribe + Events×frames + Flush all route through shards.
    assert!(report.commands >= 3 + frames, "commands={}", report.commands);
    // The client really received what the server says it pushed.
    assert_eq!(client.take_checkpoints().len() as u64, report.checkpoints_sent);

    // The text dump is the same counters, rendered one per line.
    let text = client.metrics().expect("metrics");
    let line = |name: &str, value: u64| format!("{name} {value}");
    assert!(text.lines().any(|l| l == line("shards", 2)), "{text}");
    assert!(text.lines().any(|l| l == line("sessions_live", 1)), "{text}");
    assert!(
        text.lines().any(|l| l == line("events_ingested_total", stream.len() as u64)),
        "{text}"
    );
    assert!(text.lines().any(|l| l == line("event_batches_total", frames)), "{text}");
    assert!(
        text.lines().any(|l| l == line("checkpoints_sent_total", stream.len() as u64 / 10)),
        "{text}"
    );
    assert!(text.lines().any(|l| l == line("cmd_open_total", 1)), "{text}");
    assert!(text.lines().any(|l| l == line("cmd_flush_total", 1)), "{text}");

    client.close(session).expect("closes");
    let report = client.stats().expect("stats");
    assert_eq!(report.sessions, 0);
    assert_eq!(report.sessions_closed, 1);
    server.shutdown();
}

#[test]
fn shutdown_unblocks_idle_connections() {
    // An idle connection's server-side reader sits in `read_frame`;
    // shutdown must sever the socket so that thread exits rather than
    // leaking, which the client observes as a prompt EOF.
    let (server, mut active) = boot(2);
    let mut idle = Client::connect(server.local_addr()).expect("connects");
    let session = active.open(Algorithm::Triest, 16, Some(1), &[Pattern::Wedge]).expect("opens");
    active.send_events(session, &churn_stream(6)).expect("sends");
    active.flush(session).expect("flushes");

    server.shutdown();

    // The idle connection was cut by the server, not left dangling: a
    // request on it now fails fast instead of hanging forever.
    let err = idle.flush(session);
    assert!(err.is_err(), "idle connection should observe the shutdown");
}

#[test]
fn pipelined_frames_are_visible_to_the_next_request() {
    // Frames well under the client's 64 KiB write buffer may sit in it,
    // but the next request on the connection carries them out ahead of
    // itself: the estimates reply counts every one of their events.
    let (server, mut client) = boot(2);
    let stream = churn_stream(12);
    let frames: Vec<&[EdgeEvent]> = stream.chunks(9).collect();
    // Length prefix, opcode and session id, then 17 bytes per event.
    let bytes: usize = frames.iter().map(|f| 4 + 1 + 8 + 17 * f.len()).sum();
    assert!(frames.len() > 1 && bytes < 64 << 10, "{} frames, {bytes} bytes", frames.len());

    let session = client.open(Algorithm::Triest, 64, Some(4), &[Pattern::Triangle]).expect("opens");
    for frame in &frames {
        client.send_events(session, frame).expect("sends");
    }
    let estimates = client.estimates(session).expect("estimates");
    assert_eq!(estimates.events, stream.len() as u64);

    let mut local = SessionBuilder::new(Algorithm::Triest, 64, 4).query(Pattern::Triangle).build();
    local.process_batch(&stream);
    let want = local.report().queries[0].estimate.to_bits();
    assert_eq!(estimates.queries[0].estimate.to_bits(), want);
    assert_eq!(client.stats().expect("stats").batches, frames.len() as u64);
    server.shutdown();
}

#[test]
fn dropped_client_delivers_its_buffered_frames() {
    // A client dropped with frames still in its write buffer writes them
    // out on drop. Another connection's view of the session is ordered
    // only by time, so it polls until every event has been applied.
    let (server, mut observer) = boot(2);
    let stream = churn_stream(12);
    let mut sender = Client::connect(server.local_addr()).expect("connects");
    let session = sender.open(Algorithm::Wrs, 48, Some(8), &[Pattern::Wedge]).expect("opens");
    for frame in stream.chunks(11) {
        sender.send_events(session, frame).expect("sends");
    }
    // Under 64 KiB and no request since: nothing has left the sender.
    assert_eq!(observer.estimates(session).expect("estimates").events, 0);
    drop(sender);

    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let events = observer.estimates(session).expect("estimates").events;
        if events == stream.len() as u64 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "only {events} of {} events arrived after the drop",
            stream.len()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    server.shutdown();
}

#[test]
fn shutdown_of_a_server_nobody_connected_to() {
    // The listener blocks in `accept`; shutdown must wake it even when
    // no client ever connects, or `shutdown` would never return.
    let server =
        serve("127.0.0.1:0", ServerConfig { shards: 2, ..ServerConfig::default() }).expect("binds");
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let stopper = std::thread::spawn(move || {
        server.shutdown();
        let _ = done_tx.send(());
    });
    done_rx.recv_timeout(Duration::from_secs(30)).expect("shutdown of an idle server returns");
    stopper.join().expect("shutdown thread");
}
