//! `accuracy_gate` — CI gate on estimator accuracy.
//!
//! Runs a small fixed-seed ensemble of every deletion-capable sampler —
//! the weighted ones (WSD-H, WSD-U, GPS-A) *and* the uniform baselines
//! (Triest, ThinkD, WRS) — over two deterministic streams and asserts
//! that the triangle / 4-clique relative error of the ensemble mean
//! stays under a pinned bound. Everything is seeded and the ensemble merge is
//! thread-count-invariant, so the computed errors are exact constants of
//! the codebase: the gate is deterministic (never flaky) and catches
//! estimator breakage — a wrong inclusion probability, a dropped
//! instance class, a broken intersection kernel — that the throughput
//! smoke and even the bit-identity goldens can miss once goldens are
//! deliberately regenerated.
//!
//! On top of the standalone (single-query) cells, the weighted samplers
//! are gated as **3-pattern sessions** — one shared triangle-weighted
//! sampler answering wedge/triangle/4-clique at once — so the
//! shared-sample estimates of the session API are accuracy-gated, not
//! just benchmarked. The triangle query of such a session is
//! bit-identical to the standalone session (the weight pass fuses with
//! it); the wedge and 4-clique queries ride a triangle-weighted sample
//! and carry their own pinned bounds.
//!
//! Bounds are pinned ≈2× above the currently observed error so that
//! ordinary variance drift under intentional estimator changes passes,
//! while order-of-magnitude breakage fails. Exits non-zero listing every
//! violated cell. Observed errors (and therefore the pinned bounds)
//! were regenerated once in PR 5 when ensemble replica seeds moved from
//! additive to splitmix derivation.

use wsd_bench::policies::policy_cache_dir;
use wsd_core::engine::Ensemble;
use wsd_core::{Algorithm, PolicyRegistry, SessionBuilder};
use wsd_graph::{ExactCounter, Pattern};
use wsd_stream::gen::GeneratorConfig;
use wsd_stream::{EventStream, Scenario};

const REPLICAS: usize = 8;
const BASE_SEED: u64 = 1000;

struct Gate {
    stream: &'static str,
    algorithm: Algorithm,
    pattern: Pattern,
    /// Maximum tolerated `|mean - truth| / truth`.
    bound: f64,
}

/// The standalone (single-query) gated cells. Bounds pinned ≈2–3×
/// above the observed fixed-seed errors (see the table `accuracy_gate`
/// prints; WSD-U 4-clique — the uniform-weight control — carries the
/// widest band, matching its by-design variance, and the uniform
/// baselines carry wider bands than the weighted samplers for the same
/// reason). 4-cliques are gated on the hub stream only: the BA stream's
/// exact 4-clique count is a double-digit number at this scale, so its
/// relative error at a 20% budget is variance, not signal.
#[rustfmt::skip]
const GATES: &[Gate] = &[
    Gate { stream: "ba-light",  algorithm: Algorithm::WsdH,       pattern: Pattern::Triangle,   bound: 0.10 },
    Gate { stream: "ba-light",  algorithm: Algorithm::WsdUniform, pattern: Pattern::Triangle,   bound: 0.10 },
    Gate { stream: "ba-light",  algorithm: Algorithm::GpsA,       pattern: Pattern::Triangle,   bound: 0.10 },
    Gate { stream: "ba-light",  algorithm: Algorithm::Triest,     pattern: Pattern::Triangle,   bound: 0.08 },
    Gate { stream: "ba-light",  algorithm: Algorithm::ThinkD,     pattern: Pattern::Triangle,   bound: 0.05 },
    Gate { stream: "ba-light",  algorithm: Algorithm::Wrs,        pattern: Pattern::Triangle,   bound: 0.05 },
    Gate { stream: "hub-light", algorithm: Algorithm::WsdH,       pattern: Pattern::Triangle,   bound: 0.15 },
    Gate { stream: "hub-light", algorithm: Algorithm::WsdUniform, pattern: Pattern::Triangle,   bound: 0.12 },
    Gate { stream: "hub-light", algorithm: Algorithm::GpsA,       pattern: Pattern::Triangle,   bound: 0.20 },
    Gate { stream: "hub-light", algorithm: Algorithm::Triest,     pattern: Pattern::Triangle,   bound: 0.12 },
    Gate { stream: "hub-light", algorithm: Algorithm::ThinkD,     pattern: Pattern::Triangle,   bound: 0.10 },
    Gate { stream: "hub-light", algorithm: Algorithm::Wrs,        pattern: Pattern::Triangle,   bound: 0.15 },
    // Re-pinned in PR 5 (splitmix replica seeds): observed 0.2135.
    Gate { stream: "hub-light", algorithm: Algorithm::WsdH,       pattern: Pattern::FourClique, bound: 0.45 },
    Gate { stream: "hub-light", algorithm: Algorithm::WsdUniform, pattern: Pattern::FourClique, bound: 0.50 },
    Gate { stream: "hub-light", algorithm: Algorithm::GpsA,       pattern: Pattern::FourClique, bound: 0.15 },
    Gate { stream: "hub-light", algorithm: Algorithm::Triest,     pattern: Pattern::FourClique, bound: 0.60 },
    Gate { stream: "hub-light", algorithm: Algorithm::ThinkD,     pattern: Pattern::FourClique, bound: 0.25 },
    Gate { stream: "hub-light", algorithm: Algorithm::Wrs,        pattern: Pattern::FourClique, bound: 0.90 },
];

/// The 3-pattern-session cells: wedge/triangle/4-clique answered by one
/// triangle-weighted sampler per weighted algorithm. Triangle bounds
/// match the standalone cells exactly (the estimates are bit-identical
/// — asserted below, not just bounded); wedge and 4-clique ride the
/// shared triangle-weighted sample.
#[rustfmt::skip]
const SESSION_GATES: &[Gate] = &[
    Gate { stream: "ba-light",  algorithm: Algorithm::WsdH,       pattern: Pattern::Triangle,   bound: 0.10 },
    Gate { stream: "ba-light",  algorithm: Algorithm::WsdUniform, pattern: Pattern::Triangle,   bound: 0.10 },
    Gate { stream: "ba-light",  algorithm: Algorithm::GpsA,       pattern: Pattern::Triangle,   bound: 0.10 },
    Gate { stream: "ba-light",  algorithm: Algorithm::WsdH,       pattern: Pattern::Wedge,      bound: 0.10 },
    Gate { stream: "ba-light",  algorithm: Algorithm::WsdUniform, pattern: Pattern::Wedge,      bound: 0.10 },
    Gate { stream: "ba-light",  algorithm: Algorithm::GpsA,       pattern: Pattern::Wedge,      bound: 0.10 },
    Gate { stream: "hub-light", algorithm: Algorithm::WsdH,       pattern: Pattern::Triangle,   bound: 0.15 },
    Gate { stream: "hub-light", algorithm: Algorithm::WsdUniform, pattern: Pattern::Triangle,   bound: 0.12 },
    Gate { stream: "hub-light", algorithm: Algorithm::GpsA,       pattern: Pattern::Triangle,   bound: 0.20 },
    Gate { stream: "hub-light", algorithm: Algorithm::WsdH,       pattern: Pattern::FourClique, bound: 0.30 },
    Gate { stream: "hub-light", algorithm: Algorithm::WsdUniform, pattern: Pattern::FourClique, bound: 0.50 },
    Gate { stream: "hub-light", algorithm: Algorithm::GpsA,       pattern: Pattern::FourClique, bound: 0.30 },
];

const SESSION_PATTERNS: [Pattern; 3] = [Pattern::Wedge, Pattern::Triangle, Pattern::FourClique];

/// The learned-weight claim, CI-enforced: on these (stream, pattern)
/// cells the checked-in `wsd-train` grid artifact's WSD-L observed
/// error must not exceed WSD-H's at the same reservoir capacity and
/// ensemble seeds. Cells are pinned where the shipped artifacts win;
/// everything is fixed-seed, so a regression here means the policy
/// pipeline (trainer, artifact codec, registry, WSD-L serving) changed
/// behaviour — exactly what this gate exists to catch. The remaining
/// trained cells still print their margins below for visibility.
const LEARNED_GATES: &[(&str, Pattern)] = &[
    ("ba-light", Pattern::Wedge),
    ("ba-light", Pattern::Triangle),
    ("hub-light", Pattern::Wedge),
    ("hub-light", Pattern::Triangle),
    ("hub-light", Pattern::FourClique),
];

fn streams() -> Vec<(&'static str, EventStream)> {
    let ba = GeneratorConfig::BarabasiAlbert { vertices: 1200, edges_per_vertex: 5 }.generate(7);
    let hub = GeneratorConfig::HubClique { clique: 32, spokes: 1500 }.generate(17);
    vec![
        ("ba-light", Scenario::default_light().apply(&ba, 3)),
        ("hub-light", Scenario::default_light().apply(&hub, 8)),
    ]
}

fn main() {
    let mut failures = Vec::new();
    for (name, events) in streams() {
        let capacity = events.len() / 5;
        let truth_of = |pattern| {
            ExactCounter::count_stream(pattern, events.iter().copied())
                .expect("generated streams are feasible") as f64
        };
        let truths = [
            (Pattern::Wedge, truth_of(Pattern::Wedge)),
            (Pattern::Triangle, truth_of(Pattern::Triangle)),
            (Pattern::FourClique, truth_of(Pattern::FourClique)),
        ];
        let truth_for = |pattern: Pattern| {
            let t = truths.iter().find(|(p, _)| *p == pattern).expect("truth").1;
            assert!(t > 0.0, "{name}: ground truth for {} is 0", pattern.name());
            t
        };
        eprintln!(
            "accuracy_gate: {name} ({} events, M={capacity}, truths: wedge={}, tri={}, 4c={})",
            events.len(),
            truths[0].1,
            truths[1].1,
            truths[2].1
        );
        // Standalone cells: single-query sessions.
        // The weighted triangle estimates are kept for the session
        // cells' fused-query bit-equality assert — same alg, stream,
        // capacity and seeds, so rerunning them would be pure waste.
        let mut standalone_triangles: std::collections::HashMap<Algorithm, Vec<f64>> =
            Default::default();
        for gate in GATES.iter().filter(|g| g.stream == name) {
            let truth = truth_for(gate.pattern);
            let report =
                Ensemble::new(REPLICAS).with_base_seed(BASE_SEED).run_sessions(&events, |seed| {
                    SessionBuilder::new(gate.algorithm, capacity, seed).query(gate.pattern).build()
                });
            if gate.pattern == Pattern::Triangle {
                standalone_triangles.insert(gate.algorithm, report.queries[0].1.estimates.clone());
            }
            let mean = report.queries[0].1.mean;
            let err = (mean - truth).abs() / truth;
            let verdict = if err <= gate.bound { "ok" } else { "FAIL" };
            eprintln!(
                "  {:>6} x {:<9} rel-err {:>7.4} (bound {:.2}) {}",
                gate.algorithm.name(),
                gate.pattern.name(),
                err,
                gate.bound,
                verdict
            );
            if err > gate.bound {
                failures.push(format!(
                    "{name}: {} on {}: relative error {err:.4} exceeds bound {:.2}",
                    gate.algorithm.name(),
                    gate.pattern.name(),
                    gate.bound
                ));
            }
        }
        // Session cells: one triangle-weighted sampler per algorithm
        // answering the whole pattern grid.
        for alg in [Algorithm::WsdH, Algorithm::WsdUniform, Algorithm::GpsA] {
            let report =
                Ensemble::new(REPLICAS).with_base_seed(BASE_SEED).run_sessions(&events, |seed| {
                    SessionBuilder::new(alg, capacity, seed)
                        .queries(SESSION_PATTERNS)
                        .with_weight_pattern(Pattern::Triangle)
                        .build()
                });
            // The fused triangle query must be bit-identical to the
            // standalone triangle session — a free equivalence check on
            // the real evaluation workload (estimates captured from the
            // standalone GATES cells above).
            let standalone =
                standalone_triangles.get(&alg).expect("triangle gate ran for every weighted alg");
            let fused = report.for_pattern(Pattern::Triangle).expect("triangle query");
            assert_eq!(
                &fused.estimates,
                standalone,
                "{name}: {} session triangle query diverged from the standalone session",
                alg.name()
            );
            for gate in SESSION_GATES.iter().filter(|g| g.stream == name && g.algorithm == alg) {
                let truth = truth_for(gate.pattern);
                let mean = report.for_pattern(gate.pattern).expect("gated query").mean;
                let err = (mean - truth).abs() / truth;
                let verdict = if err <= gate.bound { "ok" } else { "FAIL" };
                eprintln!(
                    "  {:>6} x {:<9} rel-err {:>7.4} (bound {:.2}) {} [3-pattern session]",
                    alg.name(),
                    gate.pattern.name(),
                    err,
                    gate.bound,
                    verdict
                );
                if err > gate.bound {
                    failures.push(format!(
                        "{name}: {} session query {}: relative error {err:.4} exceeds bound {:.2}",
                        alg.name(),
                        gate.pattern.name(),
                        gate.bound
                    ));
                }
            }
        }
        // Learned cells: every registry artifact trained for this
        // stream's scenario family, WSD-L vs WSD-H at equal capacity
        // and seeds. Enforced on the LEARNED_GATES cells.
        let registry = PolicyRegistry::open(policy_cache_dir()).expect("registry dir scans");
        for artifact in registry.iter().filter(|a| a.meta.scenario == name) {
            let pattern = artifact.meta.pattern;
            let truth = truth_for(pattern);
            let err_of = |report: wsd_core::engine::SessionEnsembleReport| {
                (report.queries[0].1.mean - truth).abs() / truth
            };
            let learned = err_of(Ensemble::new(REPLICAS).with_base_seed(BASE_SEED).run_sessions(
                &events,
                |seed| {
                    SessionBuilder::new(Algorithm::WsdL, capacity, seed)
                        .query(pattern)
                        .with_policy(artifact.policy.clone())
                        .build()
                },
            ));
            let heuristic = err_of(
                Ensemble::new(REPLICAS).with_base_seed(BASE_SEED).run_sessions(&events, |seed| {
                    SessionBuilder::new(Algorithm::WsdH, capacity, seed).query(pattern).build()
                }),
            );
            let enforced = LEARNED_GATES.contains(&(name, pattern));
            let won = learned <= heuristic;
            let verdict = match (enforced, won) {
                (true, true) => "ok",
                (true, false) => "FAIL",
                (false, _) => "info",
            };
            eprintln!(
                "  WSD-L x {:<9} rel-err {:>7.4} vs WSD-H {:>7.4} {} [learned, {}]",
                pattern.name(),
                learned,
                heuristic,
                verdict,
                if enforced { "enforced" } else { "unenforced" },
            );
            if enforced && !won {
                failures.push(format!(
                    "{name}: learned policy on {}: WSD-L error {learned:.4} exceeds \
                     WSD-H error {heuristic:.4} at equal capacity",
                    pattern.name(),
                ));
            }
        }
        // The claim needs its artifacts: a missing or unreadable .wsdp
        // must fail the gate, not silently skip the cell.
        for &(stream, pattern) in LEARNED_GATES.iter().filter(|(s, _)| *s == name) {
            if registry.lookup(pattern, stream).is_none() {
                failures.push(format!(
                    "{name}: no registry artifact for enforced learned cell ({stream}, {})",
                    pattern.name(),
                ));
            }
        }
    }
    if failures.is_empty() {
        eprintln!("accuracy_gate: all {} cells within bounds", GATES.len() + SESSION_GATES.len());
    } else {
        eprintln!("accuracy_gate: {} violation(s):", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}
