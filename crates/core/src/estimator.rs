//! The shared estimator kernel of the weighted samplers.
//!
//! Algorithm 2 (and its GPS/GPS-A analogues) updates the running count on
//! *every* event: enumerate the pattern instances the event's edge
//! completes (insertion) or destroys (deletion) against the sampled
//! graph, and add/subtract per instance the product of inverse inclusion
//! probabilities of the instance's sampled partner edges,
//!
//! ```text
//! Δc = Σ_J  Π_{e ∈ J \ e_t}  1 / P[r(e) > τ]   with  P = min(1, w(e)/τ).
//! ```
//!
//! One layered enumeration pass per event ([`LayeredLevels`]) computes
//! this mass for every pattern a session counts, each at its level, and
//! also feeds the RL state accumulator (|H_k| and the temporal block of
//! Eq. 19–22), so neither a second query nor state extraction costs a
//! second enumeration.
//!
//! Partner edges arrive from the enumeration kernel as dense arena IDs,
//! so the inner loop is hash-free: one `1/p` read (lazily τ-stamped,
//! see [`crate::sampled_graph::WeightedSample`]) and — when the state
//! accumulator rides along — one arrival-time read per partner, both
//! plain array accesses against the same resolved ID.
//!
//! Each instance's product is evaluated left-associated in emission
//! order (`1.0 * i1 * ... * ik`) and instance products are summed in
//! emission order; the golden-value tests pin the resulting bits.

use crate::sampled_graph::WeightedSample;
use crate::state::StateAccumulator;
use wsd_graph::patterns::EnumScratch;
use wsd_graph::{Edge, LayeredLevels, Pattern};

/// The per-event output of [`layered_weighted_mass`]: per-level masses
/// and instance counts (indexed by [`LayeredLevels`] level; inactive
/// levels stay 0), plus the endpoint degrees in the sampled graph. The
/// instance count `|H_k|` at the weight level is a free by-product of
/// the enumeration: the heuristic weight `9·|H_k| + 1` consumes it
/// without needing the full state.
pub(crate) struct LayeredMassUpdate {
    /// `Σ_J Π 1/p` per level.
    pub mass: [f64; LayeredLevels::COUNT],
    /// Completed instances per level.
    pub instances: [u64; LayeredLevels::COUNT],
    /// Degree of `e.u()` in the sampled graph.
    pub deg_u: usize,
    /// Degree of `e.v()` in the sampled graph.
    pub deg_v: usize,
}

/// Computes, per active level, the estimator mass `Σ_J Π 1/p` of the
/// instances completed by `e` against `sample` (which must not contain
/// `e`), using threshold `tau` for inclusion probabilities — one
/// enumeration pass feeding every query of a session at its level. When
/// `acc` rides along it records, with the current event time, the
/// partner arrival times of the instances at its level (`acc.0`) only:
/// the weight observation's state.
///
/// The endpoint degrees ride along in the result — enumeration resolves
/// both neighbourhoods anyway, so the state extraction gets them without
/// two further hash probes.
///
/// Each level's sum is the one a pass over that level alone would
/// produce, bit for bit: the layered kernel emits each level in the
/// per-pattern order, per-level sums start from 0.0, every chain is the
/// same left-associated product, and the lazy `1/p` cache is idempotent
/// within an event (same τ ⇒ same epoch ⇒ same values no matter which
/// instance fills them). `sample` is mutable only for that cache; the
/// sample's content is untouched.
pub(crate) fn layered_weighted_mass(
    levels: LayeredLevels,
    sample: &mut WeightedSample,
    e: Edge,
    tau: f64,
    scratch: &mut EnumScratch,
    acc: Option<(usize, &mut StateAccumulator, u64)>,
) -> LayeredMassUpdate {
    debug_assert!(!sample.contains(e), "estimator edge must not be sampled");
    let (adj, mut meta) = sample.estimator_view(tau);
    let mut mass = [0.0f64; LayeredLevels::COUNT];
    let mut instances = [0u64; LayeredLevels::COUNT];
    if tau <= 0.0 {
        // Fill-phase fast path: `τ = 0` makes every inclusion
        // probability exactly 1, so each instance contributes exactly
        // 1.0 (the product of 1.0s) and the `1/p` reads are skipped
        // wholesale — later τ-stamped reads recompute the same values
        // lazily. Partner times still stream into the accumulator at its
        // level.
        let (deg_u, deg_v) = match acc {
            Some((acc_level, acc, now)) => {
                levels.for_each_completed(adj, e, scratch, |level, partners| {
                    if level == acc_level {
                        acc.begin_instance(now);
                        for &p in partners {
                            acc.push_partner_time(meta.time(p));
                        }
                        acc.commit_instance();
                    }
                    instances[level] += 1;
                    mass[level] += 1.0;
                })
            }
            None => levels.for_each_completed(adj, e, scratch, |level, partners| {
                let _ = partners;
                instances[level] += 1;
                mass[level] += 1.0;
            }),
        };
        return LayeredMassUpdate { mass, instances, deg_u, deg_v };
    }
    // Wedge-level fast path: a width-1 instance folds its single `1/p`
    // directly, skipping the partner-slice loop. The wedge level is
    // emitted first, so running it ahead of the remaining levels
    // preserves the global emission order — and `1.0 * x == x` bitwise
    // keeps the per-level sums unchanged.
    // Skipped when the accumulator rides at the wedge level: that arm
    // needs the partner times too.
    let mut remaining = levels;
    let mut wedge_degs = None;
    if remaining.active(LayeredLevels::WEDGE)
        && !matches!(&acc, Some((level, _, _)) if *level == LayeredLevels::WEDGE)
    {
        remaining.clear(LayeredLevels::WEDGE);
        wedge_degs = Some(Pattern::for_each_wedge_partner(adj, e, |id| {
            instances[LayeredLevels::WEDGE] += 1;
            mass[LayeredLevels::WEDGE] += meta.inv_p(id);
        }));
    }
    if remaining.is_empty() {
        if let Some((deg_u, deg_v)) = wedge_degs {
            return LayeredMassUpdate { mass, instances, deg_u, deg_v };
        }
    }
    let (deg_u, deg_v) = match acc {
        Some((acc_level, acc, now)) => {
            remaining.for_each_completed(adj, e, scratch, |level, partners| {
                let mut prod = 1.0;
                if level == acc_level {
                    acc.begin_instance(now);
                    for &p in partners {
                        let (inv_p, time) = meta.inv_p_time(p);
                        prod *= inv_p;
                        acc.push_partner_time(time);
                    }
                    acc.commit_instance();
                } else {
                    for &p in partners {
                        prod *= meta.inv_p(p);
                    }
                }
                instances[level] += 1;
                mass[level] += prod;
            })
        }
        None => remaining.for_each_completed(adj, e, scratch, |level, partners| {
            let mut prod = 1.0;
            for &p in partners {
                prod *= meta.inv_p(p);
            }
            instances[level] += 1;
            mass[level] += prod;
        }),
    };
    LayeredMassUpdate { mass, instances, deg_u, deg_v }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampled_graph::EdgeMeta;
    use crate::state::{StateAccumulator, TemporalPooling};

    fn sample_with(edges: &[(u64, u64, f64, u64)]) -> WeightedSample {
        let mut s = WeightedSample::new();
        for &(a, b, weight, time) in edges {
            s.insert(Edge::new(a, b), EdgeMeta { weight, time });
        }
        s
    }

    /// The per-pattern reference the layered kernel is pinned against:
    /// one plain pass over `pattern`'s own kernel
    /// ([`Pattern::for_each_completed`]), no fast paths. Returns the
    /// mass, the instance count and the endpoint degrees.
    fn weighted_mass(
        pattern: Pattern,
        sample: &mut WeightedSample,
        e: Edge,
        tau: f64,
        scratch: &mut EnumScratch,
        mut acc: Option<(&mut StateAccumulator, u64)>,
    ) -> (f64, u64, (usize, usize)) {
        let (adj, mut meta) = sample.estimator_view(tau);
        let (mut mass, mut instances) = (0.0, 0u64);
        let degs = pattern.for_each_completed(adj, e, scratch, |partners| {
            let mut prod = 1.0;
            if let Some((acc, now)) = acc.as_mut() {
                acc.begin_instance(*now);
            }
            for &p in partners {
                let (inv_p, time) = meta.inv_p_time(p);
                prod *= inv_p;
                if let Some((acc, _)) = acc.as_mut() {
                    acc.push_partner_time(time);
                }
            }
            if let Some((acc, _)) = acc.as_mut() {
                acc.commit_instance();
            }
            instances += 1;
            mass += prod;
        });
        (mass, instances, degs)
    }

    /// The layered kernel at the triangle level alone.
    fn triangle_mass(
        s: &mut WeightedSample,
        e: Edge,
        tau: f64,
        acc: Option<(&mut StateAccumulator, u64)>,
    ) -> LayeredMassUpdate {
        let levels = LayeredLevels::of([Pattern::Triangle]);
        let acc = acc.map(|(acc, now)| (LayeredLevels::TRIANGLE, acc, now));
        layered_weighted_mass(levels, s, e, tau, &mut EnumScratch::default(), acc)
    }

    #[test]
    fn mass_is_product_of_inverse_probabilities() {
        // Triangle 1-2-3 closing edge (1,3); partners (1,2) w=2, (2,3) w=4.
        let mut s = sample_with(&[(1, 2, 2.0, 0), (2, 3, 4.0, 1)]);
        let tri = LayeredLevels::TRIANGLE;
        // τ = 8 → p(1,2) = 2/8 = .25, p(2,3) = 4/8 = .5 → mass = 4 * 2 = 8.
        let m = triangle_mass(&mut s, Edge::new(1, 3), 8.0, None);
        assert_eq!(m.mass[tri], 8.0);
        assert_eq!(m.instances[tri], 1);
        assert_eq!((m.deg_u, m.deg_v), (1, 1), "degrees ride along with the mass");
        // τ = 0 → all probabilities 1 → mass = 1 per instance.
        let m = triangle_mass(&mut s, Edge::new(1, 3), 0.0, None);
        assert_eq!(m.mass[tri], 1.0);
        // Back to τ = 8: the epoch moves again, the cache must not serve
        // the τ = 0 values.
        let m = triangle_mass(&mut s, Edge::new(1, 3), 8.0, None);
        assert_eq!(m.mass[tri], 8.0);
    }

    #[test]
    fn accumulator_sees_every_instance() {
        // Two triangles closed by (1,2): via 3 and via 4.
        let mut s =
            sample_with(&[(1, 3, 1.0, 10), (2, 3, 1.0, 11), (1, 4, 1.0, 12), (2, 4, 1.0, 13)]);
        let mut acc = StateAccumulator::new(3, TemporalPooling::Max);
        let m = triangle_mass(&mut s, Edge::new(1, 2), 0.0, Some((&mut acc, 20)));
        assert_eq!(m.mass[LayeredLevels::TRIANGLE], 2.0);
        assert_eq!(m.instances[LayeredLevels::TRIANGLE], 2);
        assert_eq!((m.deg_u, m.deg_v), (2, 2));
        assert_eq!(acc.instances(), 2);
        let state = acc.finish(2, 2);
        // Sorted times: (10,11,20) and (12,13,20); max per position.
        assert_eq!(state.values(), &[2.0, 2.0, 2.0, 12.0, 13.0, 20.0]);
    }

    #[test]
    fn no_instances_no_mass() {
        let mut s = sample_with(&[(5, 6, 1.0, 0)]);
        let m = triangle_mass(&mut s, Edge::new(1, 2), 0.0, None);
        assert_eq!(m.mass, [0.0; LayeredLevels::COUNT]);
        assert_eq!(m.instances, [0; LayeredLevels::COUNT]);
    }

    /// The layered mass pass must match per-pattern passes to the bit —
    /// per level, per τ, with the accumulator riding at each level.
    #[test]
    fn layered_mass_matches_per_pattern_passes_bitwise() {
        // Hub closure (1,20): wedges at both endpoints, 9 triangles via
        // 11..=19, a few 4-cliques via the chords among 11..13 and one
        // 5-clique {1, 20, 11, 12, 13}.
        let mut edges = Vec::new();
        for (i, w) in (11..=19u64).enumerate() {
            edges.push((1, w, 1.5 + i as f64, 2 * i as u64));
            edges.push((20, w, 4.0 - 0.3 * i as f64, 2 * i as u64 + 1));
        }
        edges.push((11, 12, 2.5, 40));
        edges.push((11, 13, 3.5, 41));
        edges.push((12, 13, 1.25, 42));
        let e = Edge::new(1, 20);
        let patterns = [Pattern::Wedge, Pattern::Triangle, Pattern::FourClique, Pattern::Clique(5)];
        let all = LayeredLevels::of(patterns);
        for tau in [0.0, 2.0, 64.0] {
            for acc_pattern in patterns {
                let acc_level = LayeredLevels::level_of(acc_pattern);
                let mut s = sample_with(&edges);
                let mut scratch = EnumScratch::default();
                let mut acc = StateAccumulator::new(acc_pattern.num_edges(), TemporalPooling::Max);
                let m = layered_weighted_mass(
                    all,
                    &mut s,
                    e,
                    tau,
                    &mut scratch,
                    Some((acc_level, &mut acc, 99)),
                );
                for p in patterns {
                    let level = LayeredLevels::level_of(p);
                    let mut s_ref = sample_with(&edges);
                    let mut acc_ref = StateAccumulator::new(p.num_edges(), TemporalPooling::Max);
                    let acc_arg = (level == acc_level).then_some((&mut acc_ref, 99u64));
                    let (mass, instances, degs) =
                        weighted_mass(p, &mut s_ref, e, tau, &mut scratch, acc_arg);
                    let what = format!("τ={tau} acc at {acc_pattern:?}, level {p:?}");
                    assert_eq!(m.mass[level].to_bits(), mass.to_bits(), "{what}: mass diverged");
                    assert_eq!(m.instances[level], instances, "{what}");
                    assert_eq!((m.deg_u, m.deg_v), degs, "{what}");
                    if level == acc_level {
                        assert_eq!(
                            acc.finish(m.deg_u, m.deg_v).values(),
                            acc_ref.finish(degs.0, degs.1).values(),
                            "{what}: accumulator diverged"
                        );
                    }
                }
            }
        }
    }
}
