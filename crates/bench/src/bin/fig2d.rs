//! **Figure 2(d) / 4(d)** — the relationship between an edge's learned
//! weight (mean over repetitions of WSD-L) and the number of triangles
//! that contain it by the end of the stream. The paper shows a scatter
//! plot; this binary prints the same relationship bucketed by triangle
//! count, which should be monotone increasing if the policy learned the
//! Eq. (19–21) intuition.

use std::sync::{Arc, Mutex};
use wsd_bench::policies::{capacity_for, scenario_by_kind, train_or_load};
use wsd_bench::runner::Workload;
use wsd_bench::{Args, Table};
use wsd_core::algorithms::WsdSampler;
use wsd_core::{StreamSession, TemporalPooling};
use wsd_graph::{Adjacency, Edge, FxHashMap, Op, Pattern};
use wsd_stream::dataset::by_name;

fn main() {
    let args = Args::parse();
    let pattern = Pattern::Triangle;
    let test = by_name("cit-PT").expect("registry dataset");
    let edges = test.edges_scaled(args.scale);
    let scenario = scenario_by_kind(&args.scenario, edges.len());
    let workload = Workload::build(&edges, scenario, pattern, args.seed);
    let capacity = capacity_for(edges.len(), pattern);
    let policy = train_or_load(
        &by_name("cit-HE").expect("registry dataset"),
        args.scale,
        pattern,
        &args.scenario,
        args.train_iters,
        args.seed,
        args.no_cache,
    )
    .policy;
    // Mean weight per edge across repetitions of WSD-L.
    let acc: Arc<Mutex<FxHashMap<Edge, (f64, u64)>>> = Arc::new(Mutex::new(FxHashMap::default()));
    for rep in 0..args.reps as u64 {
        eprintln!("weight-collection rep {rep}…");
        let mut sampler = WsdSampler::new(
            pattern,
            capacity,
            Box::new(policy.clone()),
            TemporalPooling::Max,
            args.seed + rep,
        );
        let acc2 = acc.clone();
        sampler.set_observer(Box::new(move |e, _state, w| {
            let mut m = acc2.lock().unwrap();
            let entry = m.entry(e).or_insert((0.0, 0));
            entry.0 += w;
            entry.1 += 1;
        }));
        StreamSession::from_parts(Box::new(sampler), &[pattern]).process_all(&workload.stream);
    }
    // Triangles containing each edge in the final graph.
    let mut final_graph = Adjacency::new();
    for ev in workload.stream.iter() {
        match ev.op {
            Op::Insert => final_graph.insert(ev.edge),
            Op::Delete => final_graph.remove(ev.edge),
        };
    }
    // Bucket edges by their final triangle count; report the mean weight
    // per bucket (log-ish buckets, as scatter density in the paper).
    let buckets: &[(u64, u64)] =
        &[(0, 0), (1, 1), (2, 3), (4, 7), (8, 15), (16, 31), (32, 63), (64, u64::MAX)];
    let mut sums = vec![(0.0f64, 0u64); buckets.len()];
    let acc = acc.lock().unwrap();
    for e in final_graph.edges() {
        let Some(&(wsum, n)) = acc.get(&e) else { continue };
        let mean_w = wsum / n as f64;
        let tri = final_graph.common_neighbor_count(e.u(), e.v()) as u64;
        let b = buckets.iter().position(|&(lo, hi)| tri >= lo && tri <= hi).unwrap();
        sums[b].0 += mean_w;
        sums[b].1 += 1;
    }
    let mut t = Table::new(&["#triangles containing edge", "edges", "mean learned weight"]);
    t.section(&format!("cit-PT, {} deletion scenario, {} reps of WSD-L", args.scenario, args.reps));
    for ((lo, hi), (wsum, n)) in buckets.iter().zip(&sums) {
        if *n == 0 {
            continue;
        }
        let label = if *hi == u64::MAX {
            format!("{lo}+")
        } else if lo == hi {
            format!("{lo}")
        } else {
            format!("{lo}–{hi}")
        };
        t.row(vec![label, format!("{n}"), format!("{:.3}", wsum / *n as f64)]);
    }
    t.emit(
        &format!(
            "Figure {}: weight vs triangle count ({} deletion)",
            if args.scenario == "light" { "4(d)" } else { "2(d)" },
            args.scenario
        ),
        args.csv.as_deref(),
    );
}
