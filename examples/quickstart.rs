//! Quickstart: estimate wedge, triangle and 4-clique counts on a fully
//! dynamic graph stream with **one shared sampler pass** under a fixed
//! memory budget, and compare against the exact counts.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use wsd::prelude::*;

fn main() {
    // 1. A dynamic graph: a social-style synthetic graph whose edges
    //    arrive in natural (growth) order, with 20% of them deleted at
    //    random later positions — the paper's light-deletion scenario.
    let edges = GeneratorConfig::HolmeKim { vertices: 4_000, edges_per_vertex: 6, triad_prob: 0.6 }
        .generate(1);
    let events = Scenario::default_light().apply(&edges, 1);
    println!("stream: {} events ({} edge insertions)", events.len(), edges.len());

    // 2. One WSD-H session under a 5% memory budget answers the paper's
    //    whole pattern grid from a single weighted edge sample — the
    //    sampling machinery (the dominant per-event cost) is paid once,
    //    not once per pattern, and one layered enumeration pass per
    //    event feeds all three queries (wedge ⊂ triangle ⊂ 4-clique
    //    nest; each estimate is bit-identical to a single-query
    //    session's).
    let budget = edges.len() / 20;
    let patterns = [Pattern::Wedge, Pattern::Triangle, Pattern::FourClique];
    let mut session = SessionBuilder::new(Algorithm::WsdH, budget, 42)
        .queries(patterns)
        .with_weight_pattern(Pattern::Triangle)
        .build();

    // 3. Single pass over the stream, with exact counters riding along
    //    for the comparison.
    let mut exact: Vec<ExactCounter> = patterns.iter().map(|&p| ExactCounter::new(p)).collect();
    session.process_batch(&events);
    for ev in &events {
        for x in &mut exact {
            x.apply(*ev).expect("generated streams are feasible");
        }
    }

    // 4. Report: every query of the one session against its exact count.
    //    (Single runs are noisy for the rarest patterns — the estimators
    //    are *unbiased*, not low-variance; average replicas with
    //    `Ensemble::run_sessions` to tighten, as the paper's protocol
    //    does.)
    let report = session.report();
    println!(
        "{} session: {} events, {} edges stored, {} queries",
        report.algorithm,
        report.events,
        report.stored_edges,
        report.queries.len()
    );
    for (q, x) in report.queries.iter().zip(&exact) {
        let truth = x.count() as f64;
        let are = (q.estimate - truth).abs() / truth * 100.0;
        println!(
            "{:>9}: estimate {:>14.1}  exact {:>12}  (ARE {:.2}%)",
            q.pattern.name(),
            q.estimate,
            x.count(),
            are
        );
    }

    // 5. Queries also attach mid-stream: `attach_many` warms up a whole
    //    batch of new queries from ONE replay of the current sample and
    //    tracks subsequent events incrementally. (Here the stream is
    //    over, so the warm-up is the whole story.)
    let late = session.attach_many(&[Pattern::Triangle, Pattern::Wedge]);
    println!(
        "late-attached queries (one warm-up replay of the final sample): triangle {:.1}, wedge {:.1}",
        session.estimate(late[0]),
        session.estimate(late[1])
    );
}
