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
//! The same enumeration pass feeds the RL state accumulator (|H_k| and
//! the temporal block of Eq. 19–22), so state extraction costs no second
//! enumeration.
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

/// The per-event output of [`weighted_mass`]: the estimator mass, the
/// number of completed instances `|H_k|` (a free by-product of the
/// enumeration; the heuristic weight `9·|H_k| + 1` consumes it without
/// needing the full state), and the endpoint degrees in the sampled
/// graph.
pub(crate) struct MassUpdate {
    /// `Σ_J Π 1/p` over the completed instances.
    pub mass: f64,
    /// Number of completed instances.
    pub instances: u64,
    /// Degree of `e.u()` in the sampled graph.
    pub deg_u: usize,
    /// Degree of `e.v()` in the sampled graph.
    pub deg_v: usize,
}

/// Computes the estimator mass `Σ_J Π 1/p` for the instances completed
/// by `e` against `sample` (which must not contain `e`), using threshold
/// `tau` for inclusion probabilities. If `acc` is provided, each
/// instance's partner arrival times are recorded with the current event
/// time `now`.
///
/// The endpoint degrees ride along in the result — enumeration resolves
/// both neighbourhoods anyway, so the state extraction gets them without
/// two further hash probes — as does the completed-instance count.
///
/// `sample` is mutable only for the lazy `1/p` cache; the sample's
/// content is untouched.
pub(crate) fn weighted_mass(
    pattern: Pattern,
    sample: &mut WeightedSample,
    e: Edge,
    tau: f64,
    scratch: &mut EnumScratch,
    acc: Option<(&mut StateAccumulator, u64)>,
) -> MassUpdate {
    debug_assert!(!sample.contains(e), "estimator edge must not be sampled");
    let (adj, mut meta) = sample.estimator_view(tau);
    let mut mass = 0.0;
    let mut instances = 0u64;
    if tau <= 0.0 {
        // Fill-phase fast path: `τ = 0` makes every inclusion
        // probability exactly 1, so each instance contributes exactly
        // 1.0 (the scalar product of 1.0s) and the `1/p` reads can be
        // skipped wholesale — later τ-stamped reads recompute the same
        // values lazily. Partner arrival times are still streamed into
        // the accumulator when one rides along.
        let (deg_u, deg_v) = match acc {
            Some((acc, now)) => pattern.for_each_completed(adj, e, scratch, |partners| {
                acc.begin_instance(now);
                for &p in partners {
                    acc.push_partner_time(meta.time(p));
                }
                acc.commit_instance();
                instances += 1;
                mass += 1.0;
            }),
            None => pattern.for_each_completed(adj, e, scratch, |partners| {
                let _ = partners;
                instances += 1;
                mass += 1.0;
            }),
        };
        return MassUpdate { mass, instances, deg_u, deg_v };
    }
    // Width-1 fast path: a wedge instance's "product" is a single
    // `1/p`, so the partner-slice loop below is pure overhead — fold
    // the partner IDs directly. Same instances, same emission order,
    // and `1.0 * x == x` bitwise, so the sum is unchanged.
    if matches!(pattern, Pattern::Wedge) && acc.is_none() {
        let (deg_u, deg_v) = Pattern::for_each_wedge_partner(adj, e, |id| {
            instances += 1;
            mass += meta.inv_p(id);
        });
        return MassUpdate { mass, instances, deg_u, deg_v };
    }
    // The accumulator is resolved *outside* the enumeration so each arm
    // hands the kernel a closure with no per-instance branching left.
    let (deg_u, deg_v) = match acc {
        Some((acc, now)) => pattern.for_each_completed(adj, e, scratch, |partners| {
            let mut prod = 1.0;
            acc.begin_instance(now);
            for &p in partners {
                let (inv_p, time) = meta.inv_p_time(p);
                prod *= inv_p;
                acc.push_partner_time(time);
            }
            acc.commit_instance();
            instances += 1;
            mass += prod;
        }),
        None => pattern.for_each_completed(adj, e, scratch, |partners| {
            let mut prod = 1.0;
            for &p in partners {
                prod *= meta.inv_p(p);
            }
            instances += 1;
            mass += prod;
        }),
    };
    MassUpdate { mass, instances, deg_u, deg_v }
}

/// The per-event output of [`layered_weighted_mass`]: per-level masses
/// and instance counts (indexed by [`LayeredLevels`] level constants;
/// inactive levels stay 0), plus the endpoint degrees.
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

/// Layered analogue of [`weighted_mass`]: one enumeration pass over the
/// active `levels`, accumulating each level's mass independently — the
/// session's shared mass pass feeding every nested query at its level.
/// When `acc` rides along it records partner times only for instances
/// of its level (`acc.0`), exactly as the fused weight-pattern pass
/// does.
///
/// Bit-identity with per-pattern [`weighted_mass`] calls holds arm by
/// arm: the layered kernel emits each level in the per-pattern order,
/// per-level sums start from 0.0, every chain is the same
/// left-associated product, and the lazy `1/p` cache is idempotent
/// within an event (same τ ⇒ same epoch ⇒ same values no matter which
/// pass fills them).
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
        // Fill-phase fast path, mirrored from `weighted_mass`: every
        // inclusion probability is exactly 1, so each instance
        // contributes 1.0 and the `1/p` reads are skipped; partner
        // times still stream into the accumulator at its level.
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
    // Wedge-level fast path, mirrored from `weighted_mass`: a width-1
    // instance folds its single `1/p` directly, skipping the
    // partner-slice loop. The wedge level is emitted first, so running
    // it ahead of the remaining levels preserves the global emission
    // order — and `1.0 * x == x` bitwise keeps the per-level sums
    // unchanged.
    // Skipped when the accumulator rides at the wedge level: that arm
    // needs the partner times too.
    let mut remaining = levels;
    let mut wedge_degs = None;
    if remaining.wedge && !matches!(&acc, Some((level, _, _)) if *level == LayeredLevels::WEDGE) {
        remaining.wedge = false;
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

    #[test]
    fn mass_is_product_of_inverse_probabilities() {
        // Triangle 1-2-3 closing edge (1,3); partners (1,2) w=2, (2,3) w=4.
        let mut s = sample_with(&[(1, 2, 2.0, 0), (2, 3, 4.0, 1)]);
        let mut scratch = EnumScratch::default();
        // τ = 8 → p(1,2) = 2/8 = .25, p(2,3) = 4/8 = .5 → mass = 4 * 2 = 8.
        let m = weighted_mass(Pattern::Triangle, &mut s, Edge::new(1, 3), 8.0, &mut scratch, None);
        assert_eq!(m.mass, 8.0);
        assert_eq!(m.instances, 1);
        assert_eq!((m.deg_u, m.deg_v), (1, 1), "degrees ride along with the mass");
        // τ = 0 → all probabilities 1 → mass = 1 per instance.
        let m = weighted_mass(Pattern::Triangle, &mut s, Edge::new(1, 3), 0.0, &mut scratch, None);
        assert_eq!(m.mass, 1.0);
        // Back to τ = 8: the epoch moves again, the cache must not serve
        // the τ = 0 values.
        let m = weighted_mass(Pattern::Triangle, &mut s, Edge::new(1, 3), 8.0, &mut scratch, None);
        assert_eq!(m.mass, 8.0);
    }

    #[test]
    fn accumulator_sees_every_instance() {
        // Two triangles closed by (1,2): via 3 and via 4.
        let mut s =
            sample_with(&[(1, 3, 1.0, 10), (2, 3, 1.0, 11), (1, 4, 1.0, 12), (2, 4, 1.0, 13)]);
        let mut scratch = EnumScratch::default();
        let mut acc = StateAccumulator::new(3, TemporalPooling::Max);
        let m = weighted_mass(
            Pattern::Triangle,
            &mut s,
            Edge::new(1, 2),
            0.0,
            &mut scratch,
            Some((&mut acc, 20)),
        );
        assert_eq!(m.mass, 2.0);
        assert_eq!(m.instances, 2);
        assert_eq!((m.deg_u, m.deg_v), (2, 2));
        assert_eq!(acc.instances(), 2);
        let state = acc.finish(2, 2);
        // Sorted times: (10,11,20) and (12,13,20); max per position.
        assert_eq!(state.values(), &[2.0, 2.0, 2.0, 12.0, 13.0, 20.0]);
    }

    #[test]
    fn no_instances_no_mass() {
        let mut s = sample_with(&[(5, 6, 1.0, 0)]);
        let mut scratch = EnumScratch::default();
        let m = weighted_mass(Pattern::Triangle, &mut s, Edge::new(1, 2), 0.0, &mut scratch, None);
        assert_eq!(m.mass, 0.0);
        assert_eq!(m.instances, 0);
    }

    /// The layered mass pass must match per-pattern passes to the bit —
    /// per level, per τ, with and without the accumulator.
    #[test]
    fn layered_mass_matches_per_pattern_passes_bitwise() {
        // Hub closure (1,20): wedges at both endpoints, 9 triangles via
        // 11..=19, and a few 4-cliques via the chords among 11..13.
        let mut edges = Vec::new();
        for (i, w) in (11..=19u64).enumerate() {
            edges.push((1, w, 1.5 + i as f64, 2 * i as u64));
            edges.push((20, w, 4.0 - 0.3 * i as f64, 2 * i as u64 + 1));
        }
        edges.push((11, 12, 2.5, 40));
        edges.push((11, 13, 3.5, 41));
        edges.push((12, 13, 1.25, 42));
        let e = Edge::new(1, 20);
        let all = LayeredLevels { wedge: true, triangle: true, four_clique: true };
        let patterns = [Pattern::Wedge, Pattern::Triangle, Pattern::FourClique];
        for tau in [0.0, 2.0, 64.0] {
            // Accumulator on the triangle level, as the fused weight
            // pass runs it.
            let mut s = sample_with(&edges);
            let mut scratch = EnumScratch::default();
            let mut acc = StateAccumulator::new(3, TemporalPooling::Max);
            let m = layered_weighted_mass(
                all,
                &mut s,
                e,
                tau,
                &mut scratch,
                Some((LayeredLevels::TRIANGLE, &mut acc, 99)),
            );
            for (level, &p) in patterns.iter().enumerate() {
                let mut s_ref = sample_with(&edges);
                let mut acc_ref = StateAccumulator::new(3, TemporalPooling::Max);
                let acc_arg = (level == LayeredLevels::TRIANGLE).then_some((&mut acc_ref, 99u64));
                let r = weighted_mass(p, &mut s_ref, e, tau, &mut scratch, acc_arg);
                assert_eq!(
                    m.mass[level].to_bits(),
                    r.mass.to_bits(),
                    "τ={tau} level {level}: layered mass diverged"
                );
                assert_eq!(m.instances[level], r.instances, "τ={tau} level {level}");
                assert_eq!((m.deg_u, m.deg_v), (r.deg_u, r.deg_v), "τ={tau}");
                if level == LayeredLevels::TRIANGLE {
                    assert_eq!(
                        acc.finish(m.deg_u, m.deg_v).values(),
                        acc_ref.finish(r.deg_u, r.deg_v).values(),
                        "τ={tau}: accumulator diverged"
                    );
                }
            }
        }
    }
}
