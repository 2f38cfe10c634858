//! **Table VI** — the **insertion-only** special case on cit-PT:
//! triangle ARE / MARE / running time for WSD-L, GPS, Triest, ThinkD and
//! WRS. (Without deletions, WSD-H and GPS-A reduce exactly to GPS, so
//! the paper lists plain GPS. GPS runs on the WSD sampler's
//! insertion-only mode, and wsd-core's `session_equivalence` suite pins
//! GPS, WSD-H and GPS-A bit-identical on insertion-only streams.)

use wsd_bench::policies::{capacity_for, train_or_load};
use wsd_bench::runner::{run_cell, AlgoSpec, Workload};
use wsd_bench::table::{pct, secs};
use wsd_bench::{Args, Table};
use wsd_core::Algorithm;
use wsd_graph::Pattern;
use wsd_stream::dataset::by_name;
use wsd_stream::Scenario;

fn main() {
    let mut args = Args::parse();
    args.scenario = "insert".to_string();
    let pattern = Pattern::Triangle;
    let test = by_name("cit-PT").expect("registry dataset");
    let train = by_name("cit-HE").expect("registry dataset");
    let edges = test.edges_scaled(args.scale);
    let workload = Workload::build(&edges, Scenario::InsertOnly, pattern, args.seed);
    let capacity = capacity_for(edges.len(), pattern);
    let policy = train_or_load(
        &train,
        args.scale,
        pattern,
        "insert",
        args.train_iters,
        args.seed,
        args.no_cache,
    )
    .policy;
    let algorithms = [
        AlgoSpec::wsd_l(policy),
        AlgoSpec::new(Algorithm::Gps),
        AlgoSpec::new(Algorithm::Triest),
        AlgoSpec::new(Algorithm::ThinkD),
        AlgoSpec::new(Algorithm::Wrs),
    ];
    let mut header = vec!["Metric".to_string()];
    header.extend(algorithms.iter().map(AlgoSpec::label));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(&header_refs);
    let cells: Vec<_> = algorithms
        .iter()
        .map(|spec| {
            eprintln!("running {}…", spec.label());
            run_cell(spec, &workload, capacity, args.seed, args.reps, args.time_reps)
        })
        .collect();
    t.section(&format!("cit-PT, insertion-only ({} events, M = {capacity})", workload.len()));
    t.row(std::iter::once("ARE (%)".to_string()).chain(cells.iter().map(|c| pct(c.are))).collect());
    t.row(
        std::iter::once("MARE (%)".to_string()).chain(cells.iter().map(|c| pct(c.mare))).collect(),
    );
    t.row(
        std::iter::once("Time (s)".to_string())
            .chain(cells.iter().map(|c| secs(c.seconds)))
            .collect(),
    );
    t.emit("Table VI: insertion-only scenario, cit-PT", args.csv.as_deref());
}
