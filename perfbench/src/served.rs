//! The served workload `serve-mixed`: a loopback `wsd-serve` with
//! `ServerConfig::default()` and `SESSIONS` sessions mixing the weighted
//! WSD-H with the uniform Triest, ThinkD and WRS, each opened with an
//! explicit seed and a small capacity, all fed the same Barabási–Albert
//! light-deletion stream.
//!
//! The load is a closed loop on one client thread and one connection.
//! Round `r` sends one `FRAME`-event `Events` frame to every session,
//! then reads the `Estimates` of session `r mod SESSIONS`. Rings are FIFO
//! per connection and shard, so that read waits for the round's frames
//! on its shard. A pass ends with a `Flush` of every session.
//!
//! Pass `k` opens its sessions with the seeds of replica
//! `k mod REPLICAS`. Each replica's first pass is checked against
//! in-process twins; later passes must reproduce it bit for bit.

use std::time::Instant;

use wsd_core::{Algorithm, SessionBuilder, StreamSession};
use wsd_graph::{EdgeEvent, Pattern};
use wsd_serve::{Client, Request, ServerConfig, StatsReport};
use wsd_stream::gen::GeneratorConfig;
use wsd_stream::Scenario;

use crate::probe::{exact_pass, snapshot_round_trip, wire_codec_ns};
use crate::trace::Tracer;
use crate::util::{
    derive, mean, median, process_cpu, put_tails, put_timings, quantile, rss_kib, thread_cpu,
    trimmed_mean, Checks, Metrics, PassTiming, Reference, GRAPH_SEED,
};
use crate::{pin, Args};

const SESSIONS: usize = 64;
/// Events per `Events` frame.
const FRAME: usize = 64;
/// Barabási–Albert vertices of the per-session stream (≈ 6 events each).
const VERTICES: u64 = 1_350;
const CAPACITY: usize = 1_024;
const REPLICAS: usize = 8;
const ALGORITHMS: [Algorithm; 4] =
    [Algorithm::WsdH, Algorithm::Triest, Algorithm::ThinkD, Algorithm::Wrs];
/// Bound on the mean |estimate − exact| / exact over all sessions.
const ERROR_BOUND: f64 = 1.5;

struct Workload {
    events: Vec<EdgeEvent>,
    exact: u64,
    instances: u64,
    exact_secs: f64,
}

impl Workload {
    fn frames(&self) -> std::slice::Chunks<'_, EdgeEvent> {
        self.events.chunks(FRAME)
    }

    /// Events applied by every session after `rounds` rounds.
    fn sent_after(&self, rounds: usize) -> u64 {
        (rounds * FRAME).min(self.events.len()) as u64
    }
}

/// Sampler seeds of one replica's sessions.
fn seeds(seed: u64, replica: usize) -> Vec<u64> {
    let base = derive(seed, 100 + replica as u64);
    (0..SESSIONS as u64).map(|i| derive(base, i)).collect()
}

/// Outcome of one served pass. Set-up, ingest and read times are CPU
/// time of the whole process (client and server threads); a round's
/// writes are CPU time of the client thread.
#[derive(Default)]
struct Served {
    setup_secs: f64,
    ingest_secs: f64,
    wall_ingest_secs: f64,
    wall_secs: f64,
    rss_mb: f64,
    batch_us: Vec<f64>,
    read_us: Vec<f64>,
    wall_read_us: Vec<f64>,
    /// Final estimate bits and stored edges, per session.
    finals: Vec<(u64, u64)>,
    stats: StatsReport,
    metrics_text: String,
}

fn op<T, E: std::fmt::Display>(
    checks: &mut Checks,
    what: &str,
    r: Result<T, E>,
) -> Result<T, String> {
    checks.op(what, r).ok_or_else(|| format!("{what} failed"))
}

/// Boots a server, opens the sessions, runs every round, flushes, and
/// reads back the counters and final estimates.
fn served_pass(
    w: &Workload,
    seeds: &[u64],
    group: u64,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Result<Served, String> {
    let mut out = Served::default();
    let root = tracer.begin("bench", "served pass", group);
    let rss_before = rss_kib();
    let boot = Instant::now();
    let boot_cpu = process_cpu();
    let server = tracer
        .span("serve", "serve", group, || wsd_serve::serve("127.0.0.1:0", ServerConfig::default()));
    let server = op(checks, "boot server", server)?;
    let client =
        tracer.span("serve", "Client::connect", group, || Client::connect(server.local_addr()));
    let mut client = op(checks, "connect", client)?;
    let mut ids = Vec::with_capacity(SESSIONS);
    for (i, &seed) in seeds.iter().enumerate() {
        let alg = ALGORITHMS[i % ALGORITHMS.len()];
        let opened = tracer.span("serve", "Client::open", group, || {
            client.open(alg, CAPACITY as u64, Some(seed), &[Pattern::Triangle])
        });
        ids.push(op(checks, "open", opened)?);
    }
    out.setup_secs = process_cpu() - boot_cpu;

    let first_send = Instant::now();
    let first_send_cpu = process_cpu();
    for (r, frame) in w.frames().enumerate() {
        let t0 = Instant::now();
        let (c0, s0) = (process_cpu(), thread_cpu());
        for &id in &ids {
            let sent = tracer
                .span("serve", "Client::send_events", r as u64, || client.send_events(id, frame));
            op(checks, "send_events", sent)?;
        }
        let s1 = thread_cpu();
        let target = ids[r % SESSIONS];
        let est = tracer.span("serve", "Client::estimates", r as u64, || client.estimates(target));
        let est = op(checks, "estimates", est)?;
        let (t2, c2) = (Instant::now(), process_cpu());
        checks.expect(est.session == target && est.events == w.sent_after(r + 1), || {
            format!("round {r}: read saw {} events of session {}", est.events, est.session)
        });
        out.batch_us.push((s1 - s0) * 1e6);
        out.read_us.push((c2 - c0) * 1e6);
        out.wall_read_us.push((t2 - t0).as_secs_f64() * 1e6);
    }
    let sent = w.events.len() as u64;
    for &id in &ids {
        let flushed = tracer.span("serve", "Client::flush", group, || client.flush(id));
        let flushed = op(checks, "flush", flushed)?;
        checks.expect(flushed == sent, || format!("Flushed.events {flushed} != {sent} sent"));
    }
    out.ingest_secs = process_cpu() - first_send_cpu;
    out.wall_ingest_secs = first_send.elapsed().as_secs_f64();
    if let (Some(before), Some(after)) = (rss_before, rss_kib()) {
        out.rss_mb = after.saturating_sub(before) as f64 / 1024.0;
    }

    let stats = tracer.span("serve", "Client::stats", group, || client.stats());
    out.stats = op(checks, "stats", stats)?;
    let total = sent * SESSIONS as u64;
    let frames = w.frames().len() as u64 * SESSIONS as u64;
    checks.expect(out.stats.events == total && out.stats.batches == frames, || {
        format!(
            "StatsReport events {} / batches {} != {total} / {frames} sent",
            out.stats.events, out.stats.batches
        )
    });
    for &id in &ids {
        let est = tracer.span("serve", "Client::estimates (final)", group, || client.estimates(id));
        let est = op(checks, "estimates", est)?;
        let estimate = est.queries.first().map_or(f64::NAN, |q| q.estimate);
        out.finals.push((estimate.to_bits(), est.stored_edges));
    }
    let text = tracer.span("serve", "Client::metrics", group, || client.metrics());
    out.metrics_text = op(checks, "metrics", text)?;
    out.wall_secs = boot.elapsed().as_secs_f64();
    tracer.span("serve", "RunningServer::shutdown", group, || server.shutdown());
    tracer.end(root);
    Ok(out)
}

/// In-process twins of one replica's sessions: with `query`, exact twins
/// of the served sessions; without, zero-query twins of `algorithm`, or
/// of each session's own algorithm when `None`.
fn twins(seeds: &[u64], query: bool, algorithm: Option<Algorithm>) -> Vec<StreamSession> {
    seeds
        .iter()
        .enumerate()
        .map(|(i, &seed)| {
            let alg = algorithm.unwrap_or(ALGORITHMS[i % ALGORITHMS.len()]);
            let builder = SessionBuilder::new(alg, CAPACITY, seed);
            if query {
                builder.query(Pattern::Triangle).build()
            } else {
                builder.with_weight_pattern(Pattern::Triangle).build()
            }
        })
        .collect()
}

/// Drives the twins with the served rounds' frames, in the same order,
/// on this thread. Returns the CPU seconds spent in `process_batch`.
fn drive(w: &Workload, sessions: &mut [StreamSession]) -> f64 {
    let t = thread_cpu();
    for frame in w.frames() {
        for s in sessions.iter_mut() {
            s.process_batch(frame);
        }
    }
    thread_cpu() - t
}

fn twin_finals(sessions: &[StreamSession]) -> Vec<(u64, u64)> {
    sessions
        .iter()
        .map(|s| {
            let (id, _) = s.queries().next().expect("one query");
            (s.estimate(id).to_bits(), s.stored_edges() as u64)
        })
        .collect()
}

/// Snapshot round trip of every twin. Returns the total encoded bytes
/// and snapshot and restore seconds.
fn snapshot_all(
    sessions: &[StreamSession],
    checks: &mut Checks,
    tracer: &mut Tracer,
) -> (usize, f64, f64) {
    sessions.iter().fold((0, 0.0, 0.0), |(b, s, r), session| {
        let (bytes, snap, restore) = snapshot_round_trip(session, checks, tracer);
        (b + bytes, s + snap, r + restore)
    })
}

fn generate(seed: u64, tracer: &mut Tracer) -> Result<Workload, String> {
    let edges = GeneratorConfig::BarabasiAlbert { vertices: VERTICES, edges_per_vertex: 5 }
        .generate(GRAPH_SEED);
    let events = Scenario::default_light().apply(&edges, derive(seed, 2));
    let t = thread_cpu();
    let (counter, instances) = tracer
        .span("graph", "ExactCounter::apply", 0, || exact_pass(Pattern::Triangle, &events))?;
    Ok(Workload { exact: counter.count(), events, instances, exact_secs: thread_cpu() - t })
}

pub fn run(args: &Args, checks: &mut Checks, tracer: &mut Tracer) -> Result<Metrics, String> {
    let w = generate(args.seed, tracer)?;
    checks.expect(w.exact > 0, || "exact triangle count is 0 at end of stream".to_string());
    eprintln!(
        "perfbench: serve-mixed seed {}: {SESSIONS} sessions x {} events, {} frames each, exact {}",
        args.seed,
        w.events.len(),
        w.frames().len(),
        w.exact
    );
    if args.trace {
        traced(&w, args, checks, tracer)
    } else {
        untraced(&w, args, checks)
    }
}

fn untraced(w: &Workload, args: &Args, checks: &mut Checks) -> Result<Metrics, String> {
    let mut off = Tracer::new(false);
    let total = (w.events.len() * SESSIONS) as f64;
    let mut first: Vec<Vec<(u64, u64)>> = Vec::new();
    let mut errors = Vec::new();
    let mut timings = Vec::new();
    let (mut rss_mb, mut state, mut applied) = (0.0, (0u64, 0usize), 0u64);
    let mut reference = Reference::new();
    let started = Instant::now();
    let mut k = 0usize;
    while k < REPLICAS || started.elapsed().as_secs_f64() < args.seconds {
        let replica = k % REPLICAS;
        let seeds = seeds(args.seed, replica);
        reference.run();
        let pass = served_pass(w, &seeds, k as u64, &mut off, checks)?;
        if k < REPLICAS {
            let mut sessions = twins(&seeds, true, None);
            drive(w, &mut sessions);
            checks.ops((w.frames().len() * SESSIONS) as u64);
            let inproc = twin_finals(&sessions);
            for (i, (served, twin)) in pass.finals.iter().zip(&inproc).enumerate() {
                checks.expect(served == twin, || {
                    format!("replica {replica} session {i}: served state differs from its twin")
                });
                let estimate = f64::from_bits(twin.0);
                checks.expect(estimate.is_finite(), || {
                    format!("replica {replica} session {i}: non-finite estimate")
                });
                errors.push((estimate - w.exact as f64).abs() / w.exact as f64);
            }
            let (bytes, _, _) = snapshot_all(&sessions, checks, &mut off);
            if k == 0 {
                rss_mb = pass.rss_mb;
                state = (inproc.iter().map(|f| f.1).sum(), bytes);
                applied = pass.stats.events;
            }
            first.push(pass.finals.clone());
        } else {
            checks.expect(pass.finals == first[replica], || {
                format!("pass {k}: replica {replica} differs from its first pass")
            });
        }
        timings.push(PassTiming {
            events_per_s: total / pass.ingest_secs,
            batch_us: pass.batch_us,
            read_us: pass.read_us,
            setup_secs: pass.setup_secs,
        });
        k += 1;
    }
    eprintln!("perfbench: {k} served passes in {:.1} s", started.elapsed().as_secs_f64());
    let rel_error = trimmed_mean(&errors);
    for (a, alg) in ALGORITHMS.iter().enumerate() {
        let per: Vec<f64> = errors.iter().skip(a).step_by(ALGORITHMS.len()).copied().collect();
        eprintln!("perfbench: {} mean relative error {:.4}", alg.name(), mean(&per));
    }
    checks.expect(rel_error <= ERROR_BOUND, || {
        format!("mean relative error {rel_error:.4} > bound {ERROR_BOUND}")
    });
    let mut pinned = deterministic(w, state, applied);
    pinned.push(("rel_error", rel_error));
    pin::check(&args.workload, args.seed, &pinned, checks);

    let mut m = Metrics::default();
    put_timings(&timings, reference.slowdown(), &mut m);
    m.put("rel_error", rel_error);
    m.put("rss_mb", rss_mb);
    Ok(m)
}

/// Outputs of replica 0 that must repeat exactly across runs.
fn deterministic(w: &Workload, state: (u64, usize), applied: u64) -> Vec<(&'static str, f64)> {
    vec![
        ("graph.instances_per_event", w.instances as f64 / w.events.len() as f64),
        ("core.stored_edges", state.0 as f64),
        ("core.state_bytes", state.1 as f64),
        ("serve.events_applied", applied as f64),
    ]
}

/// Value of one `name value` line of the server's metrics dump.
fn metric(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// Share of the shards' wall time spent applying commands, from the
/// server's own per-kind counts and mean apply times.
fn shard_busy(text: &str, wall_secs: f64) -> f64 {
    let busy_us: f64 = text
        .lines()
        .filter_map(|l| {
            let (name, count) = l.split_once(' ')?;
            let kind = name.strip_prefix("cmd_")?.strip_suffix("_total")?;
            Some(count.parse::<f64>().ok()? * metric(text, &format!("cmd_{kind}_mean_us")))
        })
        .sum();
    busy_us / (wall_secs * 1e6 * metric(text, "shards").max(1.0))
}

#[derive(Clone, Copy)]
enum Variant {
    Traced,
    Untraced,
    Inproc,
    SamplerTwin,
    ReservoirTwin,
}

fn traced(
    w: &Workload,
    args: &Args,
    checks: &mut Checks,
    tracer: &mut Tracer,
) -> Result<Metrics, String> {
    use Variant::*;
    let total = (w.events.len() * SESSIONS) as f64;
    let seeds = seeds(args.seed, 0);
    let mut off = Tracer::new(false);
    let mut secs: [Vec<f64>; 5] = Default::default();
    let (mut build_us, mut shard, mut stalls) = (Vec::new(), Vec::new(), Vec::new());
    let (mut wall_rates, mut wall_reads) = (Vec::new(), Vec::new());
    let (mut batch_us, mut read_us) = (Vec::new(), Vec::new());
    let mut state = None;
    let mut applied = 0;
    let mut reference = Reference::new();
    let started = Instant::now();
    let mut round = 0usize;
    while round < 5 || started.elapsed().as_secs_f64() < args.seconds {
        reference.run();
        let mut order = [Traced, Untraced, Inproc, SamplerTwin, ReservoirTwin];
        order.rotate_left(round % 5);
        for variant in order {
            let s = match variant {
                Traced | Untraced => {
                    let t = if matches!(variant, Traced) { &mut *tracer } else { &mut off };
                    let pass = served_pass(w, &seeds, round as u64, t, checks)?;
                    if matches!(variant, Traced) {
                        let text = &pass.metrics_text;
                        shard.push([
                            metric(text, "cmd_events_mean_us"),
                            metric(text, "cmd_estimates_mean_us"),
                            shard_busy(text, pass.wall_secs),
                        ]);
                        stalls.push(pass.stats.ring_stalls as f64);
                        applied = pass.stats.events;
                    } else {
                        wall_rates.push(total / pass.wall_ingest_secs);
                        wall_reads.extend(pass.wall_read_us);
                        batch_us.extend(pass.batch_us);
                        read_us.extend(pass.read_us);
                    }
                    pass.ingest_secs
                }
                Inproc => {
                    let t = thread_cpu();
                    let mut sessions = tracer
                        .span("core", "SessionBuilder::build", 0, || twins(&seeds, true, None));
                    build_us.push((thread_cpu() - t) * 1e6);
                    let root = tracer.begin("bench", "in-process pass", round as u64);
                    let secs =
                        tracer.span("core", "StreamSession::process_batch", round as u64, || {
                            drive(w, &mut sessions)
                        });
                    tracer.end(root);
                    checks.ops((w.frames().len() * SESSIONS) as u64);
                    if state.is_none() {
                        let (bytes, snap, restore) = snapshot_all(&sessions, checks, tracer);
                        let stored: u64 = sessions.iter().map(|s| s.stored_edges() as u64).sum();
                        state = Some((stored, bytes, snap, restore));
                    }
                    secs
                }
                SamplerTwin | ReservoirTwin => {
                    let alg = matches!(variant, ReservoirTwin).then_some(Algorithm::WsdUniform);
                    let mut sessions = twins(&seeds, false, alg);
                    let root = tracer.begin("bench", "twin pass", round as u64);
                    let secs = tracer.span(
                        "core",
                        "twin StreamSession::process_batch",
                        round as u64,
                        || drive(w, &mut sessions),
                    );
                    tracer.end(root);
                    checks.ops((w.frames().len() * SESSIONS) as u64);
                    secs
                }
            };
            secs[variant as usize].push(s);
        }
        round += 1;
    }
    eprintln!("perfbench: {round} traced rounds in {:.1} s", started.elapsed().as_secs_f64());
    let [traced_s, served_s, inproc_s, sampler_s, reservoir_s] = secs.map(|v| median(&v));
    let (stored, bytes, snap, restore) = state.expect("at least one in-process pass");
    pin::check(&args.workload, args.seed, &deterministic(w, (stored, bytes), applied), checks);

    // Codec cost on the workload's own frames: the stream wire format
    // and the serve protocol's request frames.
    let (wire_enc, wire_dec) = wire_codec_ns(&w.events, FRAME, checks, tracer);
    let requests: Vec<Request> =
        w.frames().map(|f| Request::Events { session: 1, events: f.to_vec() }).collect();
    let n = w.events.len() as f64;
    let frames = requests.len() as f64;
    let (mut req_enc, mut req_dec) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let t = thread_cpu();
        let payloads: Vec<Vec<u8>> = tracer
            .span("serve", "Request::encode", 0, || requests.iter().map(Request::encode).collect());
        req_enc.push((thread_cpu() - t) * 1e9 / frames);
        let t = thread_cpu();
        let decoded = tracer.span("serve", "Request::decode", 0, || {
            payloads.iter().map(|p| Request::decode(p)).collect::<Result<Vec<_>, _>>()
        });
        req_dec.push((thread_cpu() - t) * 1e9 / frames);
        if let Some(decoded) = checks.op("Request::decode", decoded) {
            checks.expect(decoded == requests, || "request round trip changed".to_string());
        }
    }

    let send_ns = tracer.durations("Client::send_events");
    let read_ns = tracer.durations("Client::estimates");
    let open_ns = tracer.durations("Client::open");
    let inproc_rate = total / inproc_s;
    let mut m = Metrics::default();
    m.put("stream.wire_encode_ns_per_event", wire_enc);
    m.put("stream.wire_decode_ns_per_event", wire_dec);
    m.put("graph.exact_ns_per_event", w.exact_secs * 1e9 / n);
    m.put("graph.instances_per_event", w.instances as f64 / n);
    m.put("core.sampler_ns_per_event", sampler_s * 1e9 / total);
    m.put("core.reservoir_ns_per_event", reservoir_s * 1e9 / total);
    m.put("core.weight_ns_per_event", (sampler_s - reservoir_s) * 1e9 / total);
    m.put("core.query_ns_per_event", (inproc_s - sampler_s) * 1e9 / total);
    m.put("core.stored_edges", stored as f64);
    m.put("core.state_bytes", bytes as f64);
    m.put("core.snapshot_us", snap * 1e6);
    m.put("core.restore_us", restore * 1e6);
    m.put("core.build_us", median(&build_us));
    m.put("serve.send_ns_per_event", send_ns.iter().sum::<f64>() / (total * shard.len() as f64));
    m.put("serve.encode_ns_per_frame", median(&req_enc));
    m.put("serve.decode_ns_per_frame", median(&req_dec));
    m.put("serve.read_wait_us", mean(&read_ns) / 1e3);
    m.put("serve.shard_events_mean_us", median(&shard.iter().map(|s| s[0]).collect::<Vec<_>>()));
    m.put("serve.shard_estimates_mean_us", median(&shard.iter().map(|s| s[1]).collect::<Vec<_>>()));
    m.put("serve.shard_busy_frac", median(&shard.iter().map(|s| s[2]).collect::<Vec<_>>()));
    m.put("serve.ring_stalls", median(&stalls));
    m.put("serve.open_us", median(&open_ns) / 1e3);
    m.put("serve.inproc_events_per_s", inproc_rate);
    m.put("serve.inproc_ratio", (total / served_s) / inproc_rate);
    m.put("serve.events_applied", applied as f64);
    m.put("serve.wall_events_per_s", median(&wall_rates));
    m.put("serve.wall_read_p50_us", quantile(&wall_reads, 0.5));
    m.put("serve.wall_read_p99_us", quantile(&wall_reads, 0.99));
    m.put("trace.overhead_frac", traced_s / served_s - 1.0);
    m.put("host.slowdown", reference.slowdown());
    put_tails(&batch_us, &read_us, reference.slowdown(), &mut m);
    Ok(m)
}
