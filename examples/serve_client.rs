//! `wsd-serve` client driver: a snapshot/restore round-trip demo plus
//! the durability drill the CI smoke test runs against a real server
//! process.
//!
//! ```text
//! cargo run --release --example serve_client                       # in-process demo
//! cargo run --release --example serve_client -- ADDR               # demo vs external server
//! cargo run --release --example serve_client -- --durability-ingest ADDR
//! cargo run --release --example serve_client -- --durability-verify ADDR
//! cargo run --release --example serve_client -- --stats ADDR
//! cargo run --release --example serve_client -- --swap-policy ADDR REGISTRY_DIR
//! ```
//!
//! The demo opens a WSD-H session, attaches a query, feeds a head,
//! snapshots and restores it, attaches a 4-clique query to the original
//! and to the restored session, then feeds both the tail. The two must
//! agree bit for bit right after that attach (both warm up from their
//! own sample) and again after the tail.
//!
//! The durability pair is one drill split by a server kill:
//! `--durability-ingest` opens eight mixed-algorithm sessions and feeds
//! each a 13 000-event head in frames sized exactly to the server's
//! `--autosave-every 500` (104 000 events total), flushes, and leaves
//! the server running — ready to be `kill -9`ed. After a reboot from
//! the same `--data-dir`, `--durability-verify` feeds each revived
//! session the 700-event tail under its **original id**, checks every
//! estimate bit-for-bit against an in-process twin that saw the whole
//! stream uninterrupted, reconciles the server's counters, and shuts
//! the server down. `--stats` just prints the metrics dump. All modes
//! exit non-zero on any mismatch.

use std::process::ExitCode;

use wsd::core::{Algorithm, PolicyRegistry, SessionBuilder, WeightSpec};
use wsd::graph::{Edge, EdgeEvent, Pattern};
use wsd::serve::{serve, Client, ServerConfig};

/// Per-session head length; a multiple of the smoke test's
/// `--autosave-every 500`, so the last completed autosave covers the
/// whole head and a kill anywhere after the ingest flush is recoverable
/// to exactly this point.
const HEAD_EVENTS: usize = 13_000;
/// Per-session tail fed after the reboot.
const TAIL_EVENTS: usize = 700;
/// Sessions in the drill; a fresh server mints ids 1..=SESSIONS.
const SESSIONS: u64 = 8;

fn churn(n: u64) -> Vec<EdgeEvent> {
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
    out
}

/// The drill stream: all-insert chain, so every prefix is valid for
/// every algorithm and both halves of the drill can regenerate it.
fn drill_stream() -> Vec<EdgeEvent> {
    (0..(HEAD_EVENTS + TAIL_EVENTS) as u64)
        .map(|i| EdgeEvent::insert(Edge::new(i, i + 1)))
        .collect()
}

fn drill_spec(i: u64) -> (Algorithm, u64, u64) {
    let algorithms = [Algorithm::WsdH, Algorithm::Triest, Algorithm::ThinkD, Algorithm::Wrs];
    (algorithms[(i % 4) as usize], 64, 1_000 + i)
}

fn durability_ingest(addr: &str) -> ExitCode {
    let mut client = Client::connect(addr).expect("connect");
    let stream = drill_stream();
    let head = &stream[..HEAD_EVENTS];
    for i in 0..SESSIONS {
        let (algorithm, capacity, seed) = drill_spec(i);
        let id = client
            .open(algorithm, capacity, Some(seed), &[Pattern::Wedge, Pattern::Triangle])
            .expect("open");
        if id != i + 1 {
            eprintln!("FAILED: expected session id {} from a fresh server, got {id}", i + 1);
            return ExitCode::FAILURE;
        }
        // Frames of exactly the autosave cadence: each frame completes
        // an autosave before the next is accepted.
        for frame in head.chunks(500) {
            client.send_events(id, frame).expect("send");
        }
        let applied = client.flush(id).expect("flush");
        if applied != HEAD_EVENTS as u64 {
            eprintln!("FAILED: session {id} applied {applied}, wanted {HEAD_EVENTS}");
            return ExitCode::FAILURE;
        }
        println!("session {id}: {algorithm:?} ingested {applied} head events");
    }
    let report = client.stats().expect("stats");
    println!(
        "ingest done: {} sessions, {} events, {} autosave writes ({} failed)",
        report.sessions, report.events, report.autosave_writes, report.autosave_failures
    );
    if report.events != (SESSIONS as usize * HEAD_EVENTS) as u64 || report.autosave_failures != 0 {
        eprintln!("FAILED: ingest counters off");
        return ExitCode::FAILURE;
    }
    // Leave the server running: the smoke test kills it with SIGKILL.
    println!("OK: server is now carrying {} durable sessions", report.sessions);
    ExitCode::SUCCESS
}

fn durability_verify(addr: &str) -> ExitCode {
    let mut client = Client::connect(addr).expect("connect");
    let stream = drill_stream();
    let tail = &stream[HEAD_EVENTS..];
    let mut ok = true;
    for i in 0..SESSIONS {
        let (algorithm, capacity, seed) = drill_spec(i);
        let id = i + 1;
        client.send_events(id, tail).expect("send tail");
        let applied = client.flush(id).expect("revived session accepts events");
        if applied != (HEAD_EVENTS + TAIL_EVENTS) as u64 {
            eprintln!("FAILED: session {id} at {applied} events after the tail");
            ok = false;
            continue;
        }
        // The reference twin never went down: head + tail, one process.
        let mut twin = SessionBuilder::new(algorithm, capacity as usize, seed)
            .query(Pattern::Wedge)
            .query(Pattern::Triangle)
            .build();
        twin.process_batch(&stream);
        let twin_report = twin.report();
        let served = client.estimates(id).expect("estimates");
        for (q, t) in served.queries.iter().zip(&twin_report.queries) {
            let same = q.estimate.to_bits() == t.estimate.to_bits();
            println!(
                "session {id} {:?}: revived {} vs twin {} — {}",
                q.pattern,
                q.estimate,
                t.estimate,
                if same { "bit-identical" } else { "MISMATCH" }
            );
            ok &= same;
        }
    }
    // Counter reconciliation: this server only ever saw the tails, and
    // every session must have been revived from disk, not re-opened.
    let report = client.stats().expect("stats");
    if report.sessions_restored != SESSIONS {
        eprintln!("FAILED: {} sessions restored, wanted {SESSIONS}", report.sessions_restored);
        ok = false;
    }
    if report.events != SESSIONS * TAIL_EVENTS as u64 {
        eprintln!(
            "FAILED: rebooted server ingested {} events, wanted {}",
            report.events,
            SESSIONS * TAIL_EVENTS as u64
        );
        ok = false;
    }
    client.shutdown_server().expect("shutdown");
    if ok {
        println!("OK: rebooted server tracked the never-killed twin bit-for-bit");
        ExitCode::SUCCESS
    } else {
        eprintln!("FAILED: durability drill found divergence");
        ExitCode::FAILURE
    }
}

/// The rl-smoke drill: for every `.wsdp` artifact in `dir`, open a
/// WSD-H session on the external server, feed a head, hot-swap the
/// learned policy over the wire, feed a tail, and demand the estimates
/// stay bit-identical to an in-process twin that used
/// `set_weight_fn` at the same point. Shuts the server down at the end.
fn swap_policy_drill(addr: &str, dir: &str) -> ExitCode {
    let registry = PolicyRegistry::open(dir).expect("registry dir scans");
    if registry.is_empty() {
        eprintln!("FAILED: no policy artifacts under {dir}");
        return ExitCode::FAILURE;
    }
    if !registry.rejected().is_empty() {
        for (path, err) in registry.rejected() {
            eprintln!("FAILED: rejected artifact {}: {err}", path.display());
        }
        return ExitCode::FAILURE;
    }
    let mut client = Client::connect(addr).expect("connect");
    let stream = churn(14);
    let (head, tail) = stream.split_at(stream.len() / 2);
    let mut ok = true;
    let mut swaps = 0u64;
    for artifact in registry.iter() {
        let pattern = artifact.meta.pattern;
        let seed = 4_242 + swaps;
        // The first query is the weight pattern, so the artifact's
        // dimension matches the session's by construction.
        let session = client.open(Algorithm::WsdH, 48, Some(seed), &[pattern]).expect("open");
        client.send_events(session, head).expect("send head");
        client.flush(session).expect("flush head");
        let spec = WeightSpec::Policy(artifact.policy.clone());
        let at = client.swap_policy(session, spec.clone()).expect("swap over the wire");
        swaps += 1;
        if at != head.len() as u64 {
            eprintln!("FAILED: swap point {at}, wanted {}", head.len());
            ok = false;
        }
        client.send_events(session, tail).expect("send tail");
        client.flush(session).expect("flush tail");

        let mut twin = SessionBuilder::new(Algorithm::WsdH, 48, seed).query(pattern).build();
        twin.process_batch(head);
        twin.set_weight_fn(spec).expect("in-process swap");
        twin.process_batch(tail);

        let served = client.estimates(session).expect("estimates");
        let twin_bits = twin.report().queries[0].estimate.to_bits();
        let same = served.queries[0].estimate.to_bits() == twin_bits;
        println!(
            "{} ({}): served {} vs in-process twin {} — {}",
            artifact.file_name(),
            pattern.name(),
            served.queries[0].estimate,
            f64::from_bits(twin_bits),
            if same { "bit-identical" } else { "MISMATCH" }
        );
        ok &= same;
        client.close(session).expect("close");
    }
    // The swaps must have been counted on the shard that applied them.
    let metrics = client.metrics().expect("metrics");
    if !metrics.lines().any(|l| l == format!("cmd_swap_policy_total {swaps}")) {
        eprintln!("FAILED: metrics did not count {swaps} policy swaps:\n{metrics}");
        ok = false;
    }
    client.shutdown_server().expect("shutdown");
    if ok {
        println!("OK: {swaps} served policy swaps matched their in-process twins bit-for-bit");
        ExitCode::SUCCESS
    } else {
        eprintln!("FAILED: policy-swap drill found divergence");
        ExitCode::FAILURE
    }
}

/// Prints every query estimate of sessions `a` and `b` side by side and
/// returns whether the two agree bit for bit.
fn same_estimates(client: &mut Client, a: u64, b: u64, when: &str) -> bool {
    let ea = client.estimates(a).expect("estimates");
    let eb = client.estimates(b).expect("estimates");
    println!("{when}:");
    let mut ok = ea.events == eb.events && ea.queries.len() == eb.queries.len();
    for (qa, qb) in ea.queries.iter().zip(&eb.queries) {
        let same = qa.estimate.to_bits() == qb.estimate.to_bits();
        println!(
            "  {:?}: original {} vs restored {} — {}",
            qa.pattern,
            qa.estimate,
            qb.estimate,
            if same { "bit-identical" } else { "MISMATCH" }
        );
        ok &= same;
    }
    ok
}

fn dump_stats(addr: &str) -> ExitCode {
    let mut client = Client::connect(addr).expect("connect");
    print!("{}", client.metrics().expect("metrics"));
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [flag, addr] if flag == "--durability-ingest" => return durability_ingest(addr),
        [flag, addr] if flag == "--durability-verify" => return durability_verify(addr),
        [flag, addr] if flag == "--stats" => return dump_stats(addr),
        [flag, addr, dir] if flag == "--swap-policy" => return swap_policy_drill(addr, dir),
        [] | [_] => {}
        _ => {
            eprintln!(
                "usage: serve_client [ADDR | --durability-ingest ADDR | \
                 --durability-verify ADDR | --stats ADDR | --swap-policy ADDR REGISTRY_DIR]"
            );
            return ExitCode::from(2);
        }
    }

    let external = args.first().cloned();
    // Without an address, boot a server inside this process.
    let (local_server, addr) = match &external {
        Some(addr) => (None, addr.clone()),
        None => {
            let server = serve("127.0.0.1:0", ServerConfig::default()).expect("bind server");
            let addr = server.local_addr().to_string();
            (Some(server), addr)
        }
    };
    println!("connecting to {addr}");
    let mut client = Client::connect(addr.as_str()).expect("connect");

    // At this stream and capacity, the restored sample's vertex table
    // iterates its edges in another hash order than the original's, so
    // a warm-up that replayed the sample in table order would differ in
    // its last bits.
    let stream = churn(20);
    let (head, tail) = stream.split_at(stream.len() / 2);

    let session =
        client.open(Algorithm::WsdH, 64, Some(42), &[Pattern::Triangle]).expect("open session");
    println!("opened session {session}");
    let wedge = client.attach(session, Pattern::Wedge).expect("attach");
    println!("attached wedge query in slot {wedge}");

    client.send_events(session, head).expect("send events");
    let applied = client.flush(session).expect("flush");
    println!("applied {applied} events");
    let before = client.estimates(session).expect("estimates");
    for q in &before.queries {
        println!("  {:?} ≈ {}", q.pattern, q.estimate);
    }

    let blob = client.snapshot(session).expect("snapshot");
    println!("snapshot: {} bytes", blob.len());
    let twin = client.restore(blob).expect("restore");
    println!("restored as session {twin}");

    // A query attached to both right after the restore warms up from
    // each session's own sample: the two warm-ups must agree bit for bit.
    for target in [session, twin] {
        client.attach(target, Pattern::FourClique).expect("attach after restore");
    }
    println!("attached a 4-clique query to both");
    let mut ok = same_estimates(&mut client, session, twin, "after attach");

    for target in [session, twin] {
        client.send_events(target, tail).expect("send tail");
        client.flush(target).expect("flush tail");
    }
    ok &= same_estimates(&mut client, session, twin, "after the tail");

    client.close(session).expect("close");
    client.close(twin).expect("close twin");
    if external.is_some() {
        client.shutdown_server().expect("shutdown");
        println!("asked server to shut down");
    }
    if let Some(server) = local_server {
        client.shutdown_server().expect("shutdown");
        server.wait();
    }
    if ok {
        println!("OK: restored session matched the original bit-for-bit");
        ExitCode::SUCCESS
    } else {
        eprintln!("FAILED: restored session diverged");
        ExitCode::FAILURE
    }
}
