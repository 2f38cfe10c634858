//! Experiment execution: build a workload once, run every algorithm over
//! it with repeated seeds, and aggregate ARE/MARE/runtime.
//!
//! All repetition grids run through the engine layer of `wsd-core`:
//! accuracy repetitions execute as an [`Ensemble`] (independently seeded
//! replicas on a thread pool, results slotted by replica index so output
//! never depends on scheduling), and every stream pass — including the
//! serial timing passes — ingests events in batches through a
//! [`BatchDriver`].

use crate::metrics::{are, mean_std, MareAccumulator};
use std::sync::Arc;
use std::time::Instant;
use wsd_core::engine::{BatchDriver, Ensemble};
use wsd_core::{Algorithm, LinearPolicy, SessionBuilder, StreamSession, TemporalPooling};
use wsd_graph::Pattern;
use wsd_stream::{EventStream, Scenario, TruthTimeline};

/// Minimum ground truth for a checkpoint to count towards MARE and for
/// the ARE evaluation point to be considered well-conditioned. Relative
/// errors against counts below this are dominated by integer shot noise
/// rather than estimator quality.
pub const MIN_TRUTH: f64 = 50.0;

/// A fully prepared workload: the stream, its exact timeline, and the
/// evaluation endpoint.
pub struct Workload {
    /// The event stream (possibly truncated to the evaluation endpoint).
    pub stream: Arc<EventStream>,
    /// Exact counts per event (same truncation).
    pub truth: Arc<Vec<f64>>,
    /// Pattern being counted.
    pub pattern: Pattern,
    /// Events between MARE checkpoints.
    pub stride: usize,
    /// MARE conditioning floor: checkpoints below this exact count are
    /// skipped (`max(MIN_TRUTH, 1% of the peak)`).
    pub mare_floor: f64,
}

impl Workload {
    /// Builds a workload from an ordered edge list and a scenario.
    ///
    /// The stream is truncated at the last event where the exact count is
    /// still ≥ `max(MIN_TRUTH, 5% of its running peak)`. Rationale: under
    /// our scaled-down massive scenario a deletion burst near the stream
    /// end can leave only double-digit exact counts, where *relative*
    /// error measures integer shot noise rather than estimator quality —
    /// the paper's 10⁶× larger streams leave millions of instances even
    /// after a burst, so its end-of-stream ARE is naturally
    /// well-conditioned. The 5% rule keeps every *mid-stream* burst (and
    /// the recovery from it) inside the evaluated prefix while pinning
    /// the measurement to a statistically meaningful endpoint. All
    /// algorithms see the identical truncated stream, so comparisons are
    /// unaffected. Light-deletion and insertion-only workloads are
    /// essentially never truncated.
    pub fn build(
        edges: &[wsd_graph::Edge],
        scenario: Scenario,
        pattern: Pattern,
        scenario_seed: u64,
    ) -> Self {
        let mut stream = scenario.apply(edges, scenario_seed);
        let timeline = TruthTimeline::compute(pattern, &stream);
        let peak = timeline.series().iter().copied().max().unwrap_or(0) as f64;
        assert!(
            peak >= MIN_TRUTH,
            "workload is degenerate: peak exact count {peak} for {}",
            pattern.name()
        );
        let floor = (0.05 * peak).max(MIN_TRUTH);
        let eval_at = timeline
            .series()
            .iter()
            .rposition(|&c| c as f64 >= floor)
            .expect("peak above threshold implies a valid endpoint");
        stream.truncate(eval_at + 1);
        let truth: Vec<f64> = timeline.series()[..=eval_at].iter().map(|&c| c as f64).collect();
        let stride = (stream.len() / 200).max(1);
        Self {
            stream: Arc::new(stream),
            truth: Arc::new(truth),
            pattern,
            stride,
            mare_floor: (0.01 * peak).max(MIN_TRUTH),
        }
    }

    /// Ground truth at the evaluation endpoint.
    pub fn final_truth(&self) -> f64 {
        *self.truth.last().expect("non-empty workload")
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.stream.len()
    }

    /// True if there are no events (never for built workloads).
    pub fn is_empty(&self) -> bool {
        self.stream.is_empty()
    }
}

/// Per-repetition accuracy result.
#[derive(Copy, Clone, Debug)]
pub struct RunResult {
    /// Absolute relative error at the evaluation endpoint.
    pub are: f64,
    /// Mean absolute relative error over checkpoints.
    pub mare: f64,
}

/// Aggregated accuracy + timing for one algorithm on one workload.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// Mean ARE over repetitions.
    pub are: f64,
    /// Sample std of ARE.
    pub are_std: f64,
    /// Mean MARE over repetitions.
    pub mare: f64,
    /// Mean wall-clock seconds for one full pass (timing reps).
    pub seconds: f64,
}

/// How to construct the sessions of one algorithm column.
#[derive(Clone)]
pub struct AlgoSpec {
    /// Which algorithm to run.
    pub algorithm: Algorithm,
    /// Policy for WSD-L.
    pub policy: Option<LinearPolicy>,
    /// Pooling variant (Table XIII).
    pub pooling: TemporalPooling,
    /// Optional display-name override.
    pub label: Option<String>,
}

impl AlgoSpec {
    /// Plain spec for an algorithm.
    pub fn new(algorithm: Algorithm) -> Self {
        Self { algorithm, policy: None, pooling: TemporalPooling::Max, label: None }
    }

    /// WSD-L with a trained policy.
    pub fn wsd_l(policy: LinearPolicy) -> Self {
        Self {
            algorithm: Algorithm::WsdL,
            policy: Some(policy),
            pooling: TemporalPooling::Max,
            label: None,
        }
    }

    /// Column label.
    pub fn label(&self) -> String {
        self.label.clone().unwrap_or_else(|| self.algorithm.name().to_string())
    }

    /// Builds a single-query session for this column.
    pub fn session(&self, pattern: Pattern, capacity: usize, seed: u64) -> StreamSession {
        self.session_multi(&[pattern], capacity, seed)
    }

    /// Builds one shared-sampler session answering several patterns at
    /// once (the weight pattern is the first query's).
    pub fn session_multi(&self, patterns: &[Pattern], capacity: usize, seed: u64) -> StreamSession {
        let mut b = SessionBuilder::new(self.algorithm, capacity, seed)
            .queries(patterns.iter().copied())
            .with_pooling(self.pooling);
        if let Some(p) = &self.policy {
            b = b.with_policy(p.clone());
        }
        b.build()
    }
}

/// Runs one accuracy repetition: ingests the stream in batches of the
/// workload's checkpoint stride, sampling MARE at every batch boundary.
///
/// Checkpoint positions are the historical per-event protocol's — event
/// indices `0, stride, 2·stride, …` plus the final event — obtained by
/// processing the first event as its own batch, so MARE columns stay
/// comparable across the engine refactor.
pub fn run_once(spec: &AlgoSpec, w: &Workload, capacity: usize, seed: u64) -> RunResult {
    let mut session = spec.session(w.pattern, capacity, seed);
    let (qid, _) = session.queries().next().expect("single-query session");
    let mut mare = MareAccumulator::new(w.mare_floor);
    let truth = &w.truth;
    if let Some(head) = w.stream.get(..1) {
        session.process_batch(head);
        mare.record(session.estimate(qid), truth[0]);
        BatchDriver::with_batch_size(w.stride).run_session_with_checkpoints(
            &mut session,
            &w.stream[1..],
            &mut |consumed, session| {
                // `consumed` counts tail events; the last processed
                // absolute event index is exactly `consumed`.
                mare.record(session.estimate(qid), truth[consumed]);
            },
        );
    }
    RunResult { are: are(session.estimate(qid), w.final_truth()), mare: mare.value() }
}

/// Runs `reps` accuracy repetitions as an engine ensemble (seed `i` is
/// `replica_seed(base_seed, i)`, results in replica order regardless of
/// threading) and `time_reps` serial batched timing passes.
pub fn run_cell(
    spec: &AlgoSpec,
    w: &Workload,
    capacity: usize,
    base_seed: u64,
    reps: usize,
    time_reps: usize,
) -> CellResult {
    // `reps == 0` is a timing-only cell: skip the accuracy ensemble
    // (mean_std of an empty slice is (0, 0)).
    let results: Vec<RunResult> = if reps == 0 {
        Vec::new()
    } else {
        Ensemble::new(reps).with_base_seed(base_seed).map(|seed| run_once(spec, w, capacity, seed))
    };
    let (are, are_std) = mean_std(&results.iter().map(|r| r.are).collect::<Vec<_>>());
    let (mare, _) = mean_std(&results.iter().map(|r| r.mare).collect::<Vec<_>>());
    // Timing: serial full passes without checkpoint bookkeeping.
    let driver = BatchDriver::new();
    let mut times = Vec::with_capacity(time_reps);
    for r in 0..time_reps {
        let mut session =
            spec.session(w.pattern, capacity, base_seed.wrapping_add(7000 + r as u64));
        let (qid, _) = session.queries().next().expect("single-query session");
        let start = Instant::now();
        driver.run_session(&mut session, &w.stream);
        times.push(start.elapsed().as_secs_f64());
        std::hint::black_box(session.estimate(qid));
    }
    let (seconds, _) = mean_std(&times);
    CellResult { are, are_std, mare, seconds }
}

/// Runs a whole algorithm row through the engine: one [`CellResult`] per
/// spec, each cell's repetitions executing as a parallel ensemble. The
/// drivers behind the paper's comparison tables iterate (datasets ×
/// algorithms × seeds) through this single entry point.
pub fn run_grid(
    specs: &[AlgoSpec],
    w: &Workload,
    capacity: usize,
    base_seed: u64,
    reps: usize,
    time_reps: usize,
) -> Vec<CellResult> {
    specs
        .iter()
        .map(|spec| {
            eprintln!("  running {} ({} events, M = {capacity})…", spec.label(), w.len());
            run_cell(spec, w, capacity, base_seed, reps, time_reps)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsd_stream::gen::GeneratorConfig;

    fn edges() -> Vec<wsd_graph::Edge> {
        GeneratorConfig::HolmeKim { vertices: 150, edges_per_vertex: 4, triad_prob: 0.5 }
            .generate(8)
    }

    #[test]
    fn workload_truncates_to_conditioned_endpoint() {
        let w = Workload::build(
            &edges(),
            Scenario::Massive { alpha: 0.02, beta_m: 0.9 },
            Pattern::Triangle,
            3,
        );
        assert!(w.final_truth() >= MIN_TRUTH);
        assert!(!w.is_empty());
        assert_eq!(w.stream.len(), w.truth.len());
    }

    #[test]
    fn run_once_exact_with_huge_capacity() {
        let w = Workload::build(&edges(), Scenario::default_light(), Pattern::Triangle, 3);
        let r = run_once(&AlgoSpec::new(Algorithm::WsdH), &w, 10_000, 1);
        assert_eq!(r.are, 0.0);
        assert_eq!(r.mare, 0.0);
    }

    #[test]
    fn run_cell_aggregates() {
        let w = Workload::build(&edges(), Scenario::default_light(), Pattern::Triangle, 3);
        let cell = run_cell(&AlgoSpec::new(Algorithm::ThinkD), &w, 120, 1, 6, 1);
        assert!(cell.are >= 0.0);
        assert!(cell.mare > 0.0, "a bounded sample must have some error");
        assert!(cell.seconds > 0.0);
        assert!(cell.are_std >= 0.0);
    }

    #[test]
    fn parallel_and_serial_reps_agree() {
        // Same seeds → same per-rep results regardless of threading.
        // The ensemble derives replica seeds via the splitmix bijection,
        // so the serial reference must too.
        use wsd_core::engine::replica_seed;
        let w = Workload::build(&edges(), Scenario::default_light(), Pattern::Triangle, 3);
        let spec = AlgoSpec::new(Algorithm::WsdH);
        let serial: Vec<RunResult> =
            (0..4).map(|r| run_once(&spec, &w, 100, replica_seed(50, r))).collect();
        let cell = run_cell(&spec, &w, 100, 50, 4, 1);
        let mean_serial = serial.iter().map(|r| r.are).sum::<f64>() / 4.0;
        assert!((cell.are - mean_serial).abs() < 1e-12);
    }
}
