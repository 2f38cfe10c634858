//! The in-process workloads: one `StreamSession` fed fixed-size batches
//! on the benchmark thread, in a closed loop.
//!
//! * `ba-learned` — a Barabási–Albert (m = 5) light-deletion stream into
//!   one WSD-L session weighted by the checked-in `ba-light` triangle
//!   policy, one triangle query, capacity 5% of the events.
//! * `hub-burst` — a 24-core hub-clique stream whose first half carries
//!   massive-deletion bursts, into one WSD-H session answering
//!   wedge + triangle + 4-clique through the layered plan, capacity 10%.
//!
//! A run repeats whole passes over the stream. Pass `k` samples with
//! replica seed `k mod REPLICAS`; the first `REPLICAS` passes give the
//! accuracy figures and state checks, later passes must reproduce them
//! bit for bit.

use std::hint::black_box;
use std::time::Instant;

use wsd_core::{Algorithm, LinearPolicy, PolicyRegistry, QueryId, SessionBuilder, StreamSession};
use wsd_graph::{Edge, EdgeEvent, ExactCounter, Op, Pattern};
use wsd_stream::gen::GeneratorConfig;
use wsd_stream::Scenario;

use crate::probe::{bits, estimates, exact_pass, snapshot_round_trip, wire_codec_ns};
use crate::trace::Tracer;
use crate::util::{
    derive, mean, median, put_tails, put_timings, rss_kib, thread_cpu, trimmed_mean, Checks,
    Metrics, PassTiming, Reference, GRAPH_SEED,
};
use crate::{pin, Args};

/// Events per `process_batch` call.
const BATCH: usize = 1024;
/// Directory of the checked-in policy artifacts, relative to the
/// checkout root the benchmark runs from.
const POLICY_DIR: &str = "artifacts/policies";

const BA_VERTICES: u64 = 50_000;
const HUB_SPOKES: u64 = 30_000;
/// Expected massive-deletion bursts over the hub stream's bursty half.
const HUB_EXPECTED_BURSTS: f64 = 48.0;
/// Bursts a hub stream may have; a placement outside is re-drawn, so
/// that the share of deletion work, and with it the batch times, varies
/// little between seeds.
const HUB_BURSTS: std::ops::RangeInclusive<usize> = 40..=56;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    BaLearned,
    HubBurst,
}

/// Generated inputs plus their exact reference.
struct Workload {
    kind: Kind,
    events: Vec<EdgeEvent>,
    patterns: Vec<Pattern>,
    /// Exact end-of-stream count per query pattern.
    exact: Vec<u64>,
    /// Σ over patterns and events of instances completed or destroyed.
    instances: u64,
    exact_secs: f64,
    capacity: usize,
    /// Accuracy replicas: distinct sampler seeds per run.
    replicas: usize,
    /// Bound on the mean |estimate − exact| / exact over the replicas.
    error_bound: f64,
    /// The exact counters, kept alive so that the session cannot reuse
    /// their memory and hide its own growth from `rss_mb`.
    _reference: Vec<ExactCounter>,
    /// The learned policy, loaded by the first set-up (WSD-L only).
    policy: Option<LinearPolicy>,
}

impl Workload {
    fn generate(kind: Kind, seed: u64, tracer: &mut Tracer) -> Result<Self, String> {
        let (events, patterns, capacity, replicas, error_bound) = match kind {
            Kind::BaLearned => {
                let edges =
                    GeneratorConfig::BarabasiAlbert { vertices: BA_VERTICES, edges_per_vertex: 5 }
                        .generate(GRAPH_SEED);
                let events = Scenario::default_light().apply(&edges, derive(seed, 2));
                let capacity = events.len() / 20;
                (events, vec![Pattern::Triangle], capacity, 200, 0.5)
            }
            Kind::HubBurst => {
                let edges = GeneratorConfig::HubClique { clique: 24, spokes: HUB_SPOKES }
                    .generate(GRAPH_SEED);
                let events = hub_stream(&edges, seed);
                let capacity = events.len() / 10;
                let patterns = vec![Pattern::Wedge, Pattern::Triangle, Pattern::FourClique];
                (events, patterns, capacity, 160, 1.0)
            }
        };
        let started = thread_cpu();
        let mut exact = Vec::with_capacity(patterns.len());
        let mut reference = Vec::with_capacity(patterns.len());
        let mut instances = 0u64;
        for &p in &patterns {
            let span = tracer.begin("graph", "ExactCounter::apply", 0);
            let (counter, touched) = exact_pass(p, &events)?;
            tracer.end(span);
            exact.push(counter.count());
            reference.push(counter);
            instances += touched;
        }
        let exact_secs = thread_cpu() - started;
        Ok(Workload {
            kind,
            events,
            patterns,
            exact,
            instances,
            exact_secs,
            capacity,
            replicas,
            error_bound,
            _reference: reference,
            policy: None,
        })
    }

    fn algorithm(&self) -> Algorithm {
        match self.kind {
            Kind::BaLearned => Algorithm::WsdL,
            Kind::HubBurst => Algorithm::WsdH,
        }
    }

    /// Program set-up: policy load (WSD-L) and session build. Returns
    /// the session and the policy-load and build CPU times in seconds.
    fn set_up(
        &mut self,
        seed: u64,
        tracer: &mut Tracer,
    ) -> Result<(StreamSession, f64, f64), String> {
        let started = thread_cpu();
        let mut builder = SessionBuilder::new(self.algorithm(), self.capacity, seed);
        if self.kind == Kind::BaLearned {
            let span = tracer.begin("core", "PolicyRegistry::open+lookup", 0);
            let registry = PolicyRegistry::open(POLICY_DIR)
                .map_err(|e| format!("open policy registry {POLICY_DIR}: {e}"))?;
            let artifact = registry
                .lookup(Pattern::Triangle, "ba-light")
                .ok_or_else(|| format!("no ba-light triangle policy in {POLICY_DIR}"))?;
            builder = builder.with_policy(artifact.policy.clone());
            tracer.end(span);
            if self.policy.is_none() {
                self.policy = Some(artifact.policy.clone());
            }
        }
        let policy_secs = thread_cpu() - started;
        let session = tracer.span("core", "SessionBuilder::build", 0, || {
            builder.queries(self.patterns.iter().copied()).build()
        });
        let build_secs = thread_cpu() - started - policy_secs;
        Ok((session, policy_secs, build_secs))
    }

    /// A zero-query twin: the main session's sampler alone
    /// (`WsdUniform` = the reservoir alone, no weight evaluation).
    fn twin(&self, algorithm: Algorithm, seed: u64) -> StreamSession {
        let mut builder = SessionBuilder::new(algorithm, self.capacity, seed)
            .with_weight_pattern(Pattern::Triangle);
        if algorithm == Algorithm::WsdL {
            builder = builder.with_policy(self.policy.clone().expect("policy loaded by set-up"));
        }
        builder.build()
    }

    fn rel_errors(&self, estimates: &[f64]) -> Vec<f64> {
        estimates.iter().zip(&self.exact).map(|(e, &x)| (e - x as f64).abs() / x as f64).collect()
    }
}

/// The hub stream: the first half of the edges under massive deletion
/// (expected `HUB_EXPECTED_BURSTS` bursts, within `HUB_BURSTS`),
/// then the second half inserted, so every query has live instances at
/// the end of the stream.
fn hub_stream(edges: &[Edge], seed: u64) -> Vec<EdgeEvent> {
    let half = edges.len() / 2;
    let scenario = Scenario::Massive { alpha: HUB_EXPECTED_BURSTS / half as f64, beta_m: 0.8 };
    let mut events = (0u64..)
        .map(|attempt| scenario.apply(&edges[..half], derive(seed, 2 + 1000 * attempt)))
        .find(|events| HUB_BURSTS.contains(&bursts(events)))
        .expect("some placement has enough bursts");
    events.extend(edges[half..].iter().map(|&e| EdgeEvent::insert(e)));
    events
}

/// Number of maximal runs of deletions.
fn bursts(events: &[EdgeEvent]) -> usize {
    let mut previous = Op::Insert;
    let mut runs = 0;
    for ev in events {
        if ev.op == Op::Delete && previous == Op::Insert {
            runs += 1;
        }
        previous = ev.op;
    }
    runs
}

/// CPU times of one pass over the stream, on the benchmark thread.
#[derive(Default)]
struct Pass {
    setup_secs: f64,
    ingest_secs: f64,
    batch_us: Vec<f64>,
    read_us: Vec<f64>,
}

/// Feeds the stream to `session` in `BATCH`-event calls. Each batch is
/// followed by a read of every query's estimate (read-after-write).
fn ingest(session: &mut StreamSession, events: &[EdgeEvent], tracer: &mut Tracer, pass: &mut Pass) {
    let queries: Vec<QueryId> = session.queries().map(|(id, _)| id).collect();
    for (group, batch) in events.chunks(BATCH).enumerate() {
        let group = group as u64;
        let t0 = thread_cpu();
        tracer.span("core", "StreamSession::process_batch", group, || session.process_batch(batch));
        let t1 = thread_cpu();
        if !queries.is_empty() {
            tracer.span("core", "StreamSession::estimate", group, || {
                for &q in &queries {
                    black_box(session.estimate(q));
                }
            });
        }
        let t2 = thread_cpu();
        pass.ingest_secs += t1 - t0;
        pass.batch_us.push((t1 - t0) * 1e6);
        pass.read_us.push((t2 - t0) * 1e6);
    }
}

pub fn run(
    kind: Kind,
    args: &Args,
    checks: &mut Checks,
    tracer: &mut Tracer,
) -> Result<Metrics, String> {
    let mut w = Workload::generate(kind, args.seed, tracer)?;
    for (p, &x) in w.patterns.iter().zip(&w.exact) {
        checks.expect(x > 0, || format!("exact {} count is 0 at end of stream", p.name()));
    }
    eprintln!(
        "perfbench: {} seed {}: {} events, capacity {}, exact {:?}",
        args.workload,
        args.seed,
        w.events.len(),
        w.capacity,
        w.exact
    );
    if args.trace {
        traced(&mut w, args, checks, tracer)
    } else {
        untraced(&mut w, args, checks)
    }
}

fn untraced(w: &mut Workload, args: &Args, checks: &mut Checks) -> Result<Metrics, String> {
    let n = w.events.len() as f64;
    let mut off = Tracer::new(false);
    let mut first: Vec<Vec<u64>> = Vec::new();
    let mut errors = Vec::new();
    let mut timings = Vec::new();
    let mut rss_mb = 0.0;
    let mut state = (0usize, 0usize);
    let mut reference = Reference::new();
    let started = Instant::now();
    let mut k = 0usize;
    while k < w.replicas || started.elapsed().as_secs_f64() < args.seconds {
        let replica = k % w.replicas;
        let rss_before = rss_kib();
        let mut pass = Pass::default();
        reference.run();
        let t = thread_cpu();
        let (mut session, _, _) = w.set_up(derive(args.seed, 100 + replica as u64), &mut off)?;
        pass.setup_secs = thread_cpu() - t;
        ingest(&mut session, &w.events, &mut off, &mut pass);
        if k == 0 {
            if let (Some(before), Some(after)) = (rss_before, rss_kib()) {
                rss_mb = after.saturating_sub(before) as f64 / 1024.0;
            }
        }
        checks.ops(2 * pass.batch_us.len() as u64 + 1);
        let est = estimates(&session);
        if k < w.replicas {
            checks.expect(est.iter().all(|e| e.is_finite()), || {
                format!("replica {replica}: non-finite estimate {est:?}")
            });
            errors.extend(w.rel_errors(&est));
            let (bytes, _, _) = snapshot_round_trip(&session, checks, &mut off);
            if k == 0 {
                state = (session.stored_edges(), bytes);
            }
            first.push(bits(&est));
        } else {
            checks.expect(bits(&est) == first[replica], || {
                format!("pass {k}: replica {replica} estimates differ from its first pass")
            });
        }
        timings.push(PassTiming {
            events_per_s: n / pass.ingest_secs,
            batch_us: pass.batch_us,
            read_us: pass.read_us,
            setup_secs: pass.setup_secs,
        });
        k += 1;
    }
    eprintln!("perfbench: {k} passes in {:.1} s", started.elapsed().as_secs_f64());
    let per_replica: Vec<f64> = errors.chunks(w.patterns.len()).map(mean).collect();
    let rel_error = trimmed_mean(&per_replica);
    for (i, p) in w.patterns.iter().enumerate() {
        let per: Vec<f64> = errors.iter().skip(i).step_by(w.patterns.len()).copied().collect();
        eprintln!("perfbench: {} mean relative error {:.4}", p.name(), mean(&per));
    }
    checks.expect(rel_error <= w.error_bound, || {
        format!("mean relative error {rel_error:.4} > bound {}", w.error_bound)
    });
    let mut pinned = deterministic(w, state, &first[0]);
    pinned.push(("rel_error", rel_error));
    pin::check(&args.workload, args.seed, &pinned, checks);

    let mut m = Metrics::default();
    put_timings(&timings, reference.slowdown(), &mut m);
    m.put("rel_error", rel_error);
    m.put("rss_mb", rss_mb);
    Ok(m)
}

/// Outputs of replica 0 that must repeat exactly across runs.
fn deterministic(w: &Workload, state: (usize, usize), est: &[u64]) -> Vec<(&'static str, f64)> {
    let mut v = vec![
        ("graph.instances_per_event", w.instances as f64 / w.events.len() as f64),
        ("core.stored_edges", state.0 as f64),
        ("core.state_bytes", state.1 as f64),
    ];
    const NAMES: [&str; 3] = ["replica0.estimate0", "replica0.estimate1", "replica0.estimate2"];
    v.extend(NAMES.iter().zip(est).map(|(&name, &b)| (name, f64::from_bits(b))));
    v
}

/// The pass variants of the traced run, alternated in rotating order.
#[derive(Clone, Copy)]
enum Variant {
    Traced,
    Untraced,
    SamplerTwin,
    ReservoirTwin,
}

fn traced(
    w: &mut Workload,
    args: &Args,
    checks: &mut Checks,
    tracer: &mut Tracer,
) -> Result<Metrics, String> {
    use Variant::*;
    let n = w.events.len() as f64;
    let seed = derive(args.seed, 100);
    let mut off = Tracer::new(false);
    let mut ns: [Vec<f64>; 4] = Default::default();
    let (mut policy_us, mut build_us) = (Vec::new(), Vec::new());
    let (mut batch_us, mut read_us) = (Vec::new(), Vec::new());
    let mut snapshot = None;
    let mut reference = Reference::new();
    let started = Instant::now();
    let mut round = 0usize;
    while round < 4 || started.elapsed().as_secs_f64() < args.seconds {
        reference.run();
        let mut order = [Traced, Untraced, SamplerTwin, ReservoirTwin];
        order.rotate_left(round % 4);
        for variant in order {
            let mut pass = Pass::default();
            match variant {
                Traced | Untraced => {
                    let t = if matches!(variant, Traced) { &mut *tracer } else { &mut off };
                    let root = t.begin("bench", "pass", round as u64);
                    let (mut session, policy_secs, build_secs) = w.set_up(seed, t)?;
                    ingest(&mut session, &w.events, t, &mut pass);
                    t.end(root);
                    checks.ops(2 * pass.batch_us.len() as u64 + 1);
                    if matches!(variant, Untraced) {
                        batch_us.extend(pass.batch_us.iter().copied());
                        read_us.extend(pass.read_us.iter().copied());
                    } else {
                        policy_us.push(policy_secs * 1e6);
                        build_us.push(build_secs * 1e6);
                        if snapshot.is_none() {
                            let (bytes, snap, restore) = snapshot_round_trip(&session, checks, t);
                            snapshot = Some((session.stored_edges(), bytes, snap, restore));
                            let state = (session.stored_edges(), bytes);
                            let est = bits(&estimates(&session));
                            pin::check(
                                &args.workload,
                                args.seed,
                                &deterministic(w, state, &est),
                                checks,
                            );
                        }
                    }
                }
                SamplerTwin | ReservoirTwin => {
                    let alg = if matches!(variant, SamplerTwin) {
                        w.algorithm()
                    } else {
                        Algorithm::WsdUniform
                    };
                    let mut twin = w.twin(alg, seed);
                    let root = tracer.begin("bench", "twin pass", round as u64);
                    tracer.span("core", "twin StreamSession::process_batch", round as u64, || {
                        ingest(&mut twin, &w.events, &mut off, &mut pass)
                    });
                    tracer.end(root);
                    checks.ops(pass.batch_us.len() as u64);
                }
            }
            ns[variant as usize].push(pass.ingest_secs * 1e9 / n);
        }
        round += 1;
    }
    eprintln!("perfbench: {round} traced rounds in {:.1} s", started.elapsed().as_secs_f64());
    let [traced_ns, full_ns, sampler_ns, reservoir_ns] = ns.map(|v| median(&v));

    let (enc, dec) = wire_codec_ns(&w.events, BATCH, checks, tracer);

    let (stored, bytes, snap, restore) = snapshot.expect("at least one traced pass");
    let mut m = Metrics::default();
    m.put("stream.wire_encode_ns_per_event", enc);
    m.put("stream.wire_decode_ns_per_event", dec);
    m.put("graph.exact_ns_per_event", w.exact_secs * 1e9 / n);
    m.put("graph.instances_per_event", w.instances as f64 / n);
    m.put("core.sampler_ns_per_event", sampler_ns);
    m.put("core.reservoir_ns_per_event", reservoir_ns);
    m.put("core.weight_ns_per_event", sampler_ns - reservoir_ns);
    m.put("core.query_ns_per_event", full_ns - sampler_ns);
    m.put("core.stored_edges", stored as f64);
    m.put("core.state_bytes", bytes as f64);
    m.put("core.snapshot_us", snap * 1e6);
    m.put("core.restore_us", restore * 1e6);
    m.put("core.build_us", median(&build_us));
    if w.kind == Kind::BaLearned {
        m.put("core.policy_load_us", median(&policy_us));
    }
    m.put("trace.overhead_frac", traced_ns / full_ns - 1.0);
    m.put("host.slowdown", reference.slowdown());
    put_tails(&batch_us, &read_us, reference.slowdown(), &mut m);
    Ok(m)
}
