//! Run the full pipeline on a *real* edge-list file (SNAP /
//! networkrepository format) — the path for reproducing the paper on its
//! original datasets when you have them on disk.
//!
//! ```sh
//! cargo run --release --example real_edge_list -- /path/to/edges.txt
//! ```
//!
//! Without an argument, a small demo file is written to a temp directory
//! and used instead, so the example is runnable out of the box.

use std::io::Write as _;
use wsd::prelude::*;
use wsd::stream::loader::load_edge_list;
use wsd::stream::StreamStats;

fn demo_file() -> std::path::PathBuf {
    // A toy "web" graph in the usual whitespace format with comments.
    let path = std::env::temp_dir().join("wsd-demo-edges.txt");
    let mut f = std::fs::File::create(&path).expect("temp file");
    writeln!(f, "# demo edge list (u v per line)").unwrap();
    let edges =
        GeneratorConfig::Copying { vertices: 2_000, out_degree: 6, copy_prob: 0.7 }.generate(3);
    for e in edges {
        writeln!(f, "{} {}", e.u(), e.v()).unwrap();
    }
    path
}

fn main() {
    let path = std::env::args().nth(1).map(Into::into).unwrap_or_else(demo_file);
    println!("loading {} …", std::path::Path::new(&path).display());
    let edges = match load_edge_list(&path) {
        Ok(e) => e,
        Err(err) => {
            eprintln!("could not load edge list: {err}");
            std::process::exit(1);
        }
    };
    println!("{} unique undirected edges (self-loops/duplicates dropped)", edges.len());

    // Build the paper's massive-deletion stream over the file's natural
    // order and describe it.
    let events = Scenario::default_massive(edges.len()).apply(&edges, 9);
    let stats = StreamStats::compute(&events);
    println!(
        "stream: {} events = {} inserts + {} deletes; final graph {} edges / {} vertices",
        stats.events, stats.insertions, stats.deletions, stats.final_edges, stats.final_vertices
    );

    // Estimate triangles with a 5% budget and compare against exact.
    let budget = (edges.len() / 20).max(100);
    let mut session =
        SessionBuilder::new(Algorithm::WsdH, budget, 1).query(Pattern::Triangle).build();
    let (triangles, _) = session.queries().next().expect("one query");
    session.process_batch(&events);
    let truth = ExactCounter::count_stream(Pattern::Triangle, events).expect("feasible") as f64;
    println!(
        "triangles: exact {truth}, WSD-H estimate {:.1} (budget {budget} edges)",
        session.estimate(triangles)
    );
}
