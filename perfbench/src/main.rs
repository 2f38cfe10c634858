//! `perfbench` — the end-to-end and per-layer benchmark of WSD ingest,
//! in process and through `wsd-serve`.
//!
//! ```text
//! perfbench --workload <ba-learned|hub-burst|serve-mixed> --seed N --seconds N --trace <0|1>
//! ```
//!
//! Inputs are generated from `--seed`; the measured loop runs for
//! `--seconds`. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` runs the traced variant, writes
//! its spans to `perfbench/out/`, and reports the per-layer metrics.
//! See `perfbench/README.md` for the workloads and metric definitions.

mod inproc;
mod pin;
mod probe;
mod served;
mod trace;
mod util;

use std::path::PathBuf;

use trace::Tracer;
use util::{Checks, Metrics};

const USAGE: &str = "usage: perfbench --workload <ba-learned|hub-burst|serve-mixed> --seed N \
                     --seconds N --trace <0|1>";

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("ingest_events_per_s", "events/cpu-s"),
    ("batch_p50_us", "cpu-us"),
    ("read_p50_us", "cpu-us"),
    ("rel_error", "fraction"),
    ("setup_s", "s"),
    ("rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A
/// workload that bypasses a layer reports that layer's metrics as 0.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("stream.wire_encode_ns_per_event", "ns/event"),
    ("stream.wire_decode_ns_per_event", "ns/event"),
    ("graph.exact_ns_per_event", "ns/event"),
    ("graph.instances_per_event", "instances/event"),
    ("core.sampler_ns_per_event", "ns/event"),
    ("core.reservoir_ns_per_event", "ns/event"),
    ("core.weight_ns_per_event", "ns/event"),
    ("core.query_ns_per_event", "ns/event"),
    ("core.stored_edges", "count"),
    ("core.state_bytes", "bytes"),
    ("core.snapshot_us", "us"),
    ("core.restore_us", "us"),
    ("core.build_us", "us"),
    ("core.policy_load_us", "us"),
    ("serve.send_ns_per_event", "ns/event"),
    ("serve.encode_ns_per_frame", "ns/frame"),
    ("serve.decode_ns_per_frame", "ns/frame"),
    ("serve.read_wait_us", "us"),
    ("serve.shard_events_mean_us", "us"),
    ("serve.shard_estimates_mean_us", "us"),
    ("serve.shard_busy_frac", "fraction"),
    ("serve.ring_stalls", "count"),
    ("serve.open_us", "us"),
    ("serve.inproc_events_per_s", "events/s"),
    ("serve.inproc_ratio", "ratio"),
    ("serve.events_applied", "count"),
    ("serve.wall_events_per_s", "events/s"),
    ("serve.wall_read_p50_us", "us"),
    ("serve.wall_read_p99_us", "us"),
    ("trace.overhead_frac", "fraction"),
    ("trace.bench_self_frac", "fraction"),
    ("trace.stream_self_frac", "fraction"),
    ("trace.graph_self_frac", "fraction"),
    ("trace.core_self_frac", "fraction"),
    ("trace.serve_self_frac", "fraction"),
    ("host.slowdown", "ratio"),
    ("tail.batch_p99_us", "cpu-us"),
    ("tail.read_p99_us", "cpu-us"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = |what: &str| format!("{flag} expects {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| bad("a positive number"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    util::keep_freed_memory();
    let mut checks = Checks::default();
    let mut tracer = Tracer::new(args.trace);
    let run = match args.workload.as_str() {
        "ba-learned" => inproc::run(inproc::Kind::BaLearned, &args, &mut checks, &mut tracer),
        "hub-burst" => inproc::run(inproc::Kind::HubBurst, &args, &mut checks, &mut tracer),
        "serve-mixed" => served::run(&args, &mut checks, &mut tracer),
        other => {
            eprintln!("error: unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut metrics = run.unwrap_or_else(|e| {
        eprintln!("perfbench: cannot run {}: {e}", args.workload);
        std::process::exit(1);
    });

    let expected: &[(&str, &str)] = if args.trace {
        for (layer, frac) in tracer.self_fractions() {
            metrics.put(&format!("trace.{layer}_self_frac"), frac);
        }
        let path = PathBuf::from("perfbench/out")
            .join(format!("trace-{}-seed{}.tsv", args.workload, args.seed));
        if checks.op("write span file", tracer.write(&path)).is_some() {
            eprintln!("perfbench: spans written to {}", path.display());
        }
        &PER_LAYER
    } else {
        &END_TO_END
    };
    print_result(&args, expected, &metrics, &mut checks);
}

/// Prints the metrics in declaration order, human-readable on stderr
/// and as the final JSON line on stdout.
fn print_result(args: &Args, expected: &[(&str, &str)], metrics: &Metrics, checks: &mut Checks) {
    let mut fields = Vec::with_capacity(expected.len());
    for &(name, unit) in expected {
        let found = metrics.0.iter().find(|(n, _)| n == name);
        // A layer the workload bypasses reports 0; an end-to-end metric
        // must always be measured.
        let value = match found {
            Some(&(_, v)) => v,
            None if args.trace => 0.0,
            None => panic!("end-to-end metric {name} not measured"),
        };
        checks.expect(value.is_finite(), || format!("{name} is not finite ({value})"));
        let value = if value.is_finite() { value } else { 0.0 };
        eprintln!("  {name:<34} {value:>16.4} {unit}");
        fields.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    for (name, _) in &metrics.0 {
        assert!(expected.iter().any(|(n, _)| n == name), "undeclared metric {name}");
    }
    eprintln!(
        "perfbench: {} seed {} trace {}: {} operations attempted, {} failed",
        args.workload, args.seed, args.trace as u8, checks.attempted, checks.failed
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed,
        fields.join(", ")
    );
}
