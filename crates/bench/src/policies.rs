//! Train-or-load cache for WSD-L policies.
//!
//! Every experiment that includes a WSD-L column needs a policy trained
//! on the matching training graph (Table I pairing). Training is cheap
//! at this scale but not free, so trained policies are cached as
//! `artifacts/policies/<key>.policy` — checksummed
//! [`PolicyArtifact`] bytes, keyed by everything that affects the
//! result. The `.policy` extension keeps cache entries out of the
//! [`wsd_core::PolicyRegistry`]'s `*.wsdp` scan; an entry that fails to
//! decode is simply retrained.

use std::path::PathBuf;
use std::time::Duration;
use wsd_core::{LinearPolicy, PolicyArtifact, PolicyMeta, TemporalPooling};
use wsd_graph::Pattern;
use wsd_rl::trainer::{train, TrainerConfig};
use wsd_stream::{DatasetSpec, Scenario};

/// Where cached policies live: `<repo>/artifacts/policies`.
pub fn policy_cache_dir() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(|root| root.join("artifacts").join("policies"))
        .expect("bench crate lives two levels below the workspace root")
}

fn sanitize(name: &str) -> String {
    name.chars().map(|c| if c.is_ascii_alphanumeric() || c == '-' { c } else { '_' }).collect()
}

/// The outcome of [`train_or_load`].
pub struct PolicyOutcome {
    /// The ready-to-use policy.
    pub policy: LinearPolicy,
    /// Wall-clock training time; `None` if loaded from cache.
    pub train_time: Option<Duration>,
}

/// Returns a policy for (training graph, pattern, scenario), training it
/// with `iterations` DDPG steps on first use and caching the result.
///
/// `scale` participates in the cache key because it changes the training
/// graph itself.
#[allow(clippy::too_many_arguments)]
pub fn train_or_load(
    train_spec: &DatasetSpec,
    scale: f64,
    pattern: Pattern,
    scenario_kind: &str,
    iterations: usize,
    seed: u64,
    no_cache: bool,
) -> PolicyOutcome {
    train_or_load_pooled(
        train_spec,
        scale,
        pattern,
        scenario_kind,
        iterations,
        seed,
        no_cache,
        TemporalPooling::Max,
    )
}

/// [`train_or_load`] with an explicit temporal pooling variant (the
/// Table XIII ablation trains separate Max/Avg policies).
#[allow(clippy::too_many_arguments)]
pub fn train_or_load_pooled(
    train_spec: &DatasetSpec,
    scale: f64,
    pattern: Pattern,
    scenario_kind: &str,
    iterations: usize,
    seed: u64,
    no_cache: bool,
    pooling: TemporalPooling,
) -> PolicyOutcome {
    // The scenario is re-derived against the *training* graph size so
    // that the expected number of massive bursts matches the test
    // streams.
    let edges = train_spec.edges_scaled(scale).len();
    let scenario = scenario_by_kind(scenario_kind, edges);
    train_custom(
        train_spec,
        scale,
        pattern,
        scenario,
        scenario_kind,
        iterations,
        seed,
        no_cache,
        pooling,
    )
}

/// The fully explicit variant: trains (or loads) a policy for an
/// arbitrary scenario; `cache_tag` must uniquely describe the scenario
/// (it is part of the cache key).
#[allow(clippy::too_many_arguments)]
pub fn train_custom(
    train_spec: &DatasetSpec,
    scale: f64,
    pattern: Pattern,
    scenario: Scenario,
    cache_tag: &str,
    iterations: usize,
    seed: u64,
    no_cache: bool,
    pooling: TemporalPooling,
) -> PolicyOutcome {
    let key = format!(
        "{}-s{:.3}-{}-{}-it{}-seed{}-{}",
        sanitize(train_spec.name),
        scale,
        sanitize(&pattern.name()),
        sanitize(cache_tag),
        iterations,
        seed,
        pooling.name()
    );
    let dir = policy_cache_dir();
    let path = dir.join(format!("{key}.policy"));
    if !no_cache {
        if let Ok(artifact) = PolicyArtifact::load(&path) {
            if artifact.meta.pattern == pattern {
                return PolicyOutcome { policy: artifact.policy, train_time: None };
            }
        }
    }
    let edges = train_spec.edges_scaled(scale);
    let capacity = train_capacity(edges.len(), pattern);
    let mut cfg = TrainerConfig::paper_defaults(pattern, capacity);
    cfg.iterations = iterations;
    cfg.seed = seed;
    cfg.pooling = pooling;
    let report = train(&edges, scenario, &cfg);
    let artifact = PolicyArtifact {
        meta: PolicyMeta {
            pattern,
            scenario: cache_tag.to_string(),
            capacity: capacity as u64,
            train_seed: seed,
            iterations: iterations as u64,
        },
        policy: report.policy,
    };
    std::fs::create_dir_all(&dir).ok();
    if let Err(e) = artifact.save(&path) {
        eprintln!("warning: could not cache policy at {}: {e}", path.display());
    }
    PolicyOutcome { policy: artifact.policy, train_time: Some(report.wall_time) }
}

/// The reservoir budget used in experiments: the paper's *relative*
/// sizing — its fixed M = 200 000 spans 0.07%–6.7% of its graphs; we use
/// the upper range (5%, ≈ its com-YT setting) because small absolute
/// samples at our scale otherwise drown the comparison in shot noise —
/// floored to stay meaningful on tiny `--quick` runs.
pub fn capacity_for(num_edges: usize, pattern: Pattern) -> usize {
    ((num_edges as f64 * 0.05) as usize).max(pattern.num_edges() + 20)
}

/// Training budget: same relative sizing against the training graph.
pub fn train_capacity(num_edges: usize, pattern: Pattern) -> usize {
    capacity_for(num_edges, pattern)
}

/// Maps a `--scenario` string to a [`Scenario`] scaled to a stream of
/// `num_edges` insertions.
pub fn scenario_by_kind(kind: &str, num_edges: usize) -> Scenario {
    match kind {
        "massive" => Scenario::default_massive(num_edges),
        "light" => Scenario::default_light(),
        "insert" => Scenario::InsertOnly,
        other => panic!("unknown scenario kind {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_has_floor_and_scales() {
        assert_eq!(capacity_for(100_000, Pattern::Triangle), 5000);
        assert!(capacity_for(10, Pattern::FourClique) >= 26);
    }

    #[test]
    fn scenario_mapping() {
        assert_eq!(scenario_by_kind("light", 10), Scenario::default_light());
        assert!(matches!(scenario_by_kind("massive", 100), Scenario::Massive { .. }));
        assert_eq!(scenario_by_kind("insert", 5), Scenario::InsertOnly);
    }

    #[test]
    #[should_panic(expected = "unknown scenario")]
    fn unknown_scenario_panics() {
        let _ = scenario_by_kind("nope", 1);
    }

    #[test]
    fn sanitize_strips_specials() {
        assert_eq!(sanitize("synthetic (train)"), "synthetic__train_");
        assert_eq!(sanitize("cit-PT"), "cit-PT");
    }

    #[test]
    fn train_or_load_roundtrip() {
        // Uses a tiny budget; exercises the cache write + read path.
        let spec = wsd_stream::dataset::by_name("cit-HE").unwrap();
        let first = train_or_load(&spec, 0.05, Pattern::Triangle, "insert", 5, 999, true);
        assert!(first.train_time.is_some());
        let second = train_or_load(&spec, 0.05, Pattern::Triangle, "insert", 5, 999, false);
        assert!(second.train_time.is_none(), "second call must hit the cache");
        assert_eq!(first.policy, second.policy);
    }
}
