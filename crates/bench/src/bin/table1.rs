//! **Table I** — dataset statistics: the train/test registry standing in
//! for the paper's eight real graphs, which are not redistributable
//! (`wsd_stream::dataset` documents the substitution).

use wsd_bench::{Args, Table};
use wsd_graph::Adjacency;
use wsd_stream::dataset::registry;

fn main() {
    let args = Args::parse();
    let mut t = Table::new(&["Category", "Graph (Train)", "|E|", "Graph (Test)", "|E| ", "Model"]);
    t.section(&format!("Dataset registry (scale ×{})", args.scale));
    for pair in registry() {
        let e_train = pair.train.edges_scaled(args.scale).len();
        let e_test = pair.test.edges_scaled(args.scale).len();
        t.row(vec![
            pair.category.name().to_string(),
            pair.train.name.to_string(),
            format!("{e_train}"),
            pair.test.name.to_string(),
            format!("{e_test}"),
            pair.test.config.model_name().to_string(),
        ]);
    }
    t.section("Test-graph structure");
    for pair in registry() {
        let edges = pair.test.edges_scaled(args.scale);
        let mut g = Adjacency::new();
        for e in &edges {
            g.insert(*e);
        }
        let tri = wsd_graph::exact::count_static(wsd_graph::Pattern::Triangle, &g);
        let wedge = wsd_graph::exact::count_static(wsd_graph::Pattern::Wedge, &g);
        t.row(vec![
            pair.category.name().to_string(),
            "—".into(),
            format!("V={} ", g.num_vertices()),
            pair.test.name.to_string(),
            format!("tri={tri}"),
            format!("wedge={wedge}"),
        ]);
    }
    t.emit("Table I: dataset statistics", args.csv.as_deref());
}
