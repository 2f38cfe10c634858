//! Parallel ensemble execution of independently seeded replicas.

use crate::session::StreamSession;
use wsd_graph::{EdgeEvent, Pattern};

/// Derives the RNG seed of replica `replica` from `base_seed` with a
/// SplitMix64-style bijective finalizer over the keyed stream position.
///
/// The historical derivation was plain addition (`base_seed + replica`),
/// under which *adjacent base seeds share replica RNG streams wholesale*
/// — base 7 replica 1 and base 8 replica 0 ran byte-identical samplers,
/// so two "independent" ensemble configurations could silently overlap.
/// The mixed derivation gives every `(base, replica)` pair its own
/// stream (the collision regression test pins this); it is also why
/// fixed-seed artifacts captured under the additive scheme (accuracy
/// gate bounds) were regenerated once, as noted in CHANGES.md.
pub fn replica_seed(base_seed: u64, replica: u64) -> u64 {
    // SplitMix64's golden-gamma stream position, keyed by the base seed,
    // then the standard finalizer (Steele et al., "Fast Splittable
    // Pseudorandom Number Generators").
    let mut z = base_seed.wrapping_add(replica.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic fork–join map: computes `f(0), …, f(n-1)` on up to
/// `threads` OS threads and returns the results **in index order**.
///
/// Work is dealt in contiguous index blocks; each result lands in its
/// own slot, so the output is a pure function of `f` and `n` — never of
/// thread scheduling. With `threads <= 1` (or `n <= 1`) the map runs
/// inline on the caller's thread.
pub fn parallel_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.max(1).min(n);
    if threads == 1 {
        return (0..n).map(f).collect();
    }
    let mut out: Vec<Option<T>> = Vec::new();
    out.resize_with(n, || None);
    let block = n.div_ceil(threads);
    std::thread::scope(|scope| {
        for (block_idx, chunk) in out.chunks_mut(block).enumerate() {
            let f = &f;
            scope.spawn(move || {
                let start = block_idx * block;
                for (offset, slot) in chunk.iter_mut().enumerate() {
                    *slot = Some(f(start + offset));
                }
            });
        }
    });
    out.into_iter().map(|slot| slot.expect("every index filled by construction")).collect()
}

/// Merged statistics of an ensemble run.
#[derive(Clone, Debug)]
pub struct EnsembleReport {
    /// Per-replica final estimates, in replica order (replica `i` was
    /// seeded with [`replica_seed`]`(base_seed, i)`).
    pub estimates: Vec<f64>,
    /// Mean of the replica estimates — the ensemble's point estimate
    /// (the mean of unbiased estimators is unbiased).
    pub mean: f64,
    /// Unbiased sample variance of the replica estimates (0 for a single
    /// replica).
    pub variance: f64,
    /// Standard error of the mean, `sqrt(variance / replicas)`.
    pub std_error: f64,
    /// Normal-approximation 95% confidence interval for the mean.
    pub ci95: (f64, f64),
}

impl EnsembleReport {
    fn from_estimates(estimates: Vec<f64>) -> Self {
        let n = estimates.len() as f64;
        let mean = estimates.iter().sum::<f64>() / n;
        let variance = if estimates.len() < 2 {
            0.0
        } else {
            estimates.iter().map(|e| (e - mean).powi(2)).sum::<f64>() / (n - 1.0)
        };
        let std_error = (variance / n).sqrt();
        let half = 1.96 * std_error;
        Self { estimates, mean, variance, std_error, ci95: (mean - half, mean + half) }
    }
}

/// Executes N independently seeded replicas of a multi-query session
/// over the same stream on a thread pool and merges their estimates —
/// the paper's repeated-runs protocol as a first-class parallel
/// primitive.
///
/// Replica `i` is built by the caller's factory from seed
/// [`replica_seed`]`(base_seed, i)` and ingests the stream through
/// [`StreamSession::process_batch`]. Determinism: for fixed seeds the
/// merged report is identical regardless of the thread count (replica
/// results are slotted by index; see [`parallel_map`]).
///
/// ```
/// use wsd_core::engine::Ensemble;
/// use wsd_core::{Algorithm, SessionBuilder};
/// use wsd_graph::{Edge, EdgeEvent, Pattern};
///
/// let events: Vec<EdgeEvent> = (0..200u64)
///     .map(|i| EdgeEvent::insert(Edge::new(i % 20, 20 + (i % 31))))
///     .collect();
/// // One sampler per replica answers wedge and triangle together.
/// let report = Ensemble::new(8).with_threads(4).run_sessions(&events, |seed| {
///     SessionBuilder::new(Algorithm::WsdH, 64, seed)
///         .query(Pattern::Wedge)
///         .query(Pattern::Triangle)
///         .build()
/// });
/// assert_eq!(report.queries.len(), 2);
/// let (pattern, triangles) = &report.queries[1];
/// assert_eq!(*pattern, Pattern::Triangle);
/// assert_eq!(triangles.estimates.len(), 8);
/// assert!(triangles.ci95.0 <= triangles.mean && triangles.mean <= triangles.ci95.1);
/// ```
#[derive(Copy, Clone, Debug)]
pub struct Ensemble {
    replicas: usize,
    threads: usize,
    base_seed: u64,
}

impl Ensemble {
    /// An ensemble of `replicas` replicas, defaulting to one thread per
    /// available CPU and base seed 0.
    ///
    /// # Panics
    ///
    /// Panics if `replicas == 0`.
    pub fn new(replicas: usize) -> Self {
        assert!(replicas > 0, "ensemble needs at least one replica");
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self { replicas, threads, base_seed: 0 }
    }

    /// Sets the worker thread count (clamped to ≥ 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the base seed; replica `i` uses
    /// [`replica_seed`]`(base_seed, i)`.
    pub fn with_base_seed(mut self, base_seed: u64) -> Self {
        self.base_seed = base_seed;
        self
    }

    /// Number of replicas.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// Worker thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs an ensemble of multi-query sessions: replica `i` is the
    /// session built from `replica_seed(base_seed, i)`, every replica
    /// ingests the whole stream, and each query position is merged
    /// into its own [`EnsembleReport`]. All replicas must attach the
    /// same query patterns in the same order.
    pub fn run_sessions<F>(&self, stream: &[EdgeEvent], build: F) -> SessionEnsembleReport
    where
        F: Fn(u64) -> StreamSession + Sync,
    {
        let reports = parallel_map(self.replicas, self.threads, |i| {
            let mut session = build(replica_seed(self.base_seed, i as u64));
            session.process_batch(stream);
            session.report()
        });
        let queries = reports[0]
            .queries
            .iter()
            .enumerate()
            .map(|(qi, first)| {
                let estimates = reports
                    .iter()
                    .map(|r| {
                        assert_eq!(
                            r.queries[qi].pattern, first.pattern,
                            "replica sessions must attach identical queries"
                        );
                        r.queries[qi].estimate
                    })
                    .collect();
                (first.pattern, EnsembleReport::from_estimates(estimates))
            })
            .collect();
        SessionEnsembleReport { queries }
    }

    /// Runs an arbitrary per-replica computation on the pool, returning
    /// results in replica order. The generalisation of
    /// [`Ensemble::run_sessions`] used by the evaluation harness, whose
    /// replicas also track checkpoint errors rather than just the final
    /// estimate.
    pub fn map<T, F>(&self, per_replica: F) -> Vec<T>
    where
        T: Send,
        F: Fn(u64) -> T + Sync,
    {
        parallel_map(self.replicas, self.threads, |i| {
            per_replica(replica_seed(self.base_seed, i as u64))
        })
    }
}

/// Per-query merged statistics of [`Ensemble::run_sessions`]: one
/// [`EnsembleReport`] per query position, in attachment order.
#[derive(Clone, Debug)]
pub struct SessionEnsembleReport {
    /// `(pattern, merged replica statistics)` per attached query.
    pub queries: Vec<(Pattern, EnsembleReport)>,
}

impl SessionEnsembleReport {
    /// The merged report of the first query counting `pattern`.
    pub fn for_pattern(&self, pattern: Pattern) -> Option<&EnsembleReport> {
        self.queries.iter().find(|(p, _)| *p == pattern).map(|(_, r)| r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Algorithm;
    use crate::session::SessionBuilder;
    use wsd_graph::Edge;

    fn stream() -> Vec<EdgeEvent> {
        // A clique stream with some deletions mixed in.
        let mut events = Vec::new();
        for a in 0..24u64 {
            for b in (a + 1)..24 {
                events.push(EdgeEvent::insert(Edge::new(a, b)));
            }
        }
        for a in 0..8u64 {
            events.push(EdgeEvent::delete(Edge::new(a, a + 1)));
        }
        events
    }

    #[test]
    fn parallel_map_is_index_ordered() {
        for threads in [1, 2, 3, 8] {
            let out = parallel_map(17, threads, |i| i * i);
            assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(parallel_map(0, 4, |i| i).is_empty());
    }

    #[test]
    fn report_statistics() {
        let r = EnsembleReport::from_estimates(vec![1.0, 3.0]);
        assert_eq!(r.mean, 2.0);
        assert_eq!(r.variance, 2.0);
        assert_eq!(r.std_error, 1.0);
        assert_eq!(r.ci95, (2.0 - 1.96, 2.0 + 1.96));
        let single = EnsembleReport::from_estimates(vec![5.0]);
        assert_eq!(single.mean, 5.0);
        assert_eq!(single.variance, 0.0);
        assert_eq!(single.ci95, (5.0, 5.0));
    }

    #[test]
    fn merged_estimate_is_thread_count_invariant() {
        let events = stream();
        let run = |threads: usize, alg: Algorithm| {
            Ensemble::new(6)
                .with_threads(threads)
                .with_base_seed(99)
                .run_sessions(&events, |seed| {
                    SessionBuilder::new(alg, 48, seed).query(Pattern::Triangle).build()
                })
                .queries
                .remove(0)
                .1
        };
        for alg in [Algorithm::WsdH, Algorithm::Triest, Algorithm::Wrs] {
            let one = run(1, alg);
            for threads in [2, 4, 7] {
                let multi = run(threads, alg);
                assert_eq!(one.estimates, multi.estimates, "{alg:?} @ {threads} threads");
                assert_eq!(one.mean, multi.mean);
            }
        }
    }

    #[test]
    fn replicas_differ_but_mean_is_reasonable() {
        let events = stream();
        let report = Ensemble::new(12).with_base_seed(5).run_sessions(&events, |seed| {
            SessionBuilder::new(Algorithm::ThinkD, 64, seed).query(Pattern::Triangle).build()
        });
        let report = report.for_pattern(Pattern::Triangle).unwrap();
        // Budgeted replicas disagree (variance > 0) …
        assert!(report.variance > 0.0);
        // … but the width of the CI is consistent with the spread.
        assert!(report.ci95.0 < report.mean && report.mean < report.ci95.1);
    }

    /// The additive scheme collided wholesale: `(base, r)` and
    /// `(base + 1, r - 1)` shared a replica seed, so adjacent base
    /// seeds ran byte-identical sampler replicas. The splitmix
    /// derivation must keep every pair distinct — and must not
    /// degenerate to the additive scheme.
    #[test]
    fn replica_seeds_do_not_collide_across_adjacent_bases() {
        let mut seen = std::collections::HashSet::new();
        for base in 0..32u64 {
            for r in 0..32u64 {
                assert!(
                    seen.insert(replica_seed(base, r)),
                    "replica seed collision at base {base}, replica {r}"
                );
                assert_ne!(
                    replica_seed(base, r),
                    base.wrapping_add(r),
                    "derivation degenerated to plain addition"
                );
            }
        }
        // The regression itself, spelled out: the old overlap pair.
        assert_ne!(replica_seed(7, 1), replica_seed(8, 0));
    }

    #[test]
    fn session_ensemble_merges_per_query() {
        let events = stream();
        let run = |threads: usize| {
            Ensemble::new(6).with_threads(threads).with_base_seed(42).run_sessions(
                &events,
                |seed| {
                    SessionBuilder::new(Algorithm::WsdH, 48, seed)
                        .query(Pattern::Triangle)
                        .query(Pattern::Wedge)
                        .build()
                },
            )
        };
        let one = run(1);
        assert_eq!(one.queries.len(), 2);
        assert_eq!(one.queries[0].0, Pattern::Triangle);
        assert_eq!(one.queries[1].0, Pattern::Wedge);
        assert!(one.for_pattern(Pattern::Wedge).unwrap().mean > 0.0);
        // Thread-count invariance carries over to session ensembles.
        for threads in [2, 5] {
            let multi = run(threads);
            for (a, b) in one.queries.iter().zip(&multi.queries) {
                assert_eq!(a.1.estimates, b.1.estimates);
            }
        }
        // The triangle query of the two-query ensemble matches a
        // triangle-only ensemble bit-for-bit (same seeds, weight pass
        // fused with the triangle query).
        let solo = Ensemble::new(6).with_base_seed(42).run_sessions(&events, |seed| {
            SessionBuilder::new(Algorithm::WsdH, 48, seed).query(Pattern::Triangle).build()
        });
        assert_eq!(
            solo.for_pattern(Pattern::Triangle).unwrap().estimates,
            one.for_pattern(Pattern::Triangle).unwrap().estimates
        );
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn zero_replicas_panics() {
        let _ = Ensemble::new(0);
    }
}
