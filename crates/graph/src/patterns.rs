//! Subgraph patterns and *completion enumeration*.
//!
//! Every estimator in the paper (Algorithm 2 for WSD, the GPS/GPS-A
//! estimators, and the uniform baselines) is driven by one kernel: given a
//! graph `G` (the sampled graph or the full graph) and an edge `e = (u,v)`
//! *not currently in* `G`, enumerate the instances of the pattern `H` that
//! would be completed by adding `e` — i.e. instances of `H` in `G ∪ {e}`
//! that contain `e`. The same kernel also measures destroyed instances:
//! the instances containing `e` in a graph that currently holds `e` are
//! exactly the instances completed by re-adding `e` to `G \ {e}`.
//!
//! Enumeration yields the partner edges as dense **edge IDs** straight
//! out of the adjacency arena ([`crate::adjacency::EdgeId`]): the
//! intersection kernel touches the slots holding the IDs anyway, so the
//! estimators upstream get zero-hash access to per-edge metadata instead
//! of reconstructing `Edge` keys and re-hashing them per partner.
//!
//! [`Pattern::for_each_completed`] is **generic over the callback**
//! (`impl FnMut`), so the estimator's per-instance mass/state closure is
//! fused straight into the galloping intersection kernel — one
//! monomorphised loop per pattern with no per-instance dynamic dispatch.
//! The counting kernel [`Pattern::count_completed`] is additionally
//! generic over the adjacency's [`IdPayload`], so the ID-free
//! [`VertexAdjacency`] of the uniform baselines shares it.
//!
//! Supported patterns:
//!
//! * [`Pattern::Wedge`] — length-2 paths (the paper's `∧`).
//! * [`Pattern::Triangle`] — 3-cliques (`△`), with a common-neighbour fast
//!   path.
//! * [`Pattern::FourClique`] — 4-cliques, with a pairwise-adjacency fast
//!   path over common neighbours.
//! * [`Pattern::Clique`]`(k)` — generic k-cliques for `k ≥ 3` via recursive
//!   extension (an extension beyond the paper's evaluation, which stops at
//!   4-cliques).

use crate::adjacency::{Adjacency, AdjacencyBase, CommonEdge, EdgeId, IdPayload};
use crate::edge::{Edge, Vertex};

#[cfg(doc)]
use crate::adjacency::VertexAdjacency;

/// Maximum supported clique order for [`Pattern::Clique`].
///
/// The bound exists only to keep the stack-allocated scratch buffers small;
/// enumeration cost explodes combinatorially long before this limit.
pub const MAX_CLIQUE: u8 = 8;

/// A subgraph pattern `H`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Pattern {
    /// A path with two edges (three vertices), a.k.a. length-2 path.
    Wedge,
    /// A 3-clique.
    Triangle,
    /// A 4-clique.
    FourClique,
    /// A k-clique for arbitrary `3 ≤ k ≤ MAX_CLIQUE`. `Clique(3)` and
    /// `Clique(4)` behave identically to the dedicated variants (which are
    /// fast paths kept for clarity and benchmarking).
    Clique(u8),
}

impl Pattern {
    /// Number of edges `|H|` in the pattern (used for the state dimension
    /// `|H| + 3` of the RL policy and the `M ≥ |H|` requirement of the
    /// unbiasedness theorems).
    #[inline]
    pub fn num_edges(&self) -> usize {
        match self {
            Pattern::Wedge => 2,
            Pattern::Triangle => 3,
            Pattern::FourClique => 6,
            Pattern::Clique(k) => {
                let k = *k as usize;
                k * (k - 1) / 2
            }
        }
    }

    /// Number of vertices in the pattern.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        match self {
            Pattern::Wedge => 3,
            Pattern::Triangle => 3,
            Pattern::FourClique => 4,
            Pattern::Clique(k) => *k as usize,
        }
    }

    /// A short human-readable name (used in experiment tables).
    pub fn name(&self) -> String {
        match self {
            Pattern::Wedge => "wedge".into(),
            Pattern::Triangle => "triangle".into(),
            Pattern::FourClique => "4-clique".into(),
            Pattern::Clique(k) => format!("{k}-clique"),
        }
    }

    /// Validates the pattern parameters (clique order bounds).
    pub fn validate(&self) -> Result<(), String> {
        match self {
            Pattern::Clique(k) if *k < 3 => Err(format!("clique order must be ≥ 3, got {k}")),
            Pattern::Clique(k) if *k > MAX_CLIQUE => {
                Err(format!("clique order must be ≤ {MAX_CLIQUE}, got {k}"))
            }
            _ => Ok(()),
        }
    }

    /// Counts the instances of `self` completed by adding `e` to `g`.
    ///
    /// `g` must not currently contain `e`; instances are those of
    /// `g ∪ {e}` that use `e`. This is the exact-count kernel; it avoids
    /// materialising partner edges and never touches edge IDs, so it runs
    /// on the ID-free [`VertexAdjacency`] as well as the arena-tracked
    /// [`Adjacency`] — one monomorphised copy per adjacency flavour.
    pub fn count_completed<P: IdPayload>(
        &self,
        g: &AdjacencyBase<P>,
        e: Edge,
        scratch: &mut EnumScratch,
    ) -> u64 {
        match self {
            Pattern::Wedge => {
                let (u, v) = e.endpoints();
                // Wedges centred at u pair e with each other edge at u;
                // same at v. Exclude the opposite endpoint in case callers
                // pass a graph that already contains e. Degrees make this
                // O(1) — no neighbourhood walk.
                let present = usize::from(g.adjacent(u, v));
                let du = g.degree(u) - present;
                let dv = g.degree(v) - present;
                (du + dv) as u64
            }
            Pattern::Triangle | Pattern::Clique(3) => {
                let (u, v) = e.endpoints();
                g.common_neighbor_count(u, v) as u64
            }
            Pattern::FourClique | Pattern::Clique(4) => {
                let (u, v) = e.endpoints();
                g.common_neighbors_into(u, v, &mut scratch.common);
                let c = &scratch.common;
                let mut n = 0u64;
                for (i, &w) in c.iter().enumerate() {
                    // One neighbourhood resolution per outer vertex; the
                    // inner loop is pure dense membership scans.
                    let nw = g.neighborhood(w);
                    for &x in &c[(i + 1)..] {
                        if nw.contains(x) {
                            n += 1;
                        }
                    }
                }
                n
            }
            Pattern::Clique(k) => {
                let (u, v) = e.endpoints();
                let need = (*k - 2) as usize;
                g.common_neighbors_into(u, v, &mut scratch.common);
                scratch.common.sort_unstable();
                let cand0 = std::mem::take(&mut scratch.common);
                scratch.clique_cur.clear();
                let mut n = 0u64;
                clique_extend(g, &cand0, need, scratch, &mut |_| n += 1);
                scratch.common = cand0;
                n
            }
        }
    }

    /// Streams the partner edge ID of every wedge completed by adding
    /// `e` to `g` — the wedge kernel's exact instances and emission
    /// order (`u`'s slots, then `v`'s) without the partner-slice
    /// plumbing. A wedge instance has exactly one partner edge, so
    /// mass-only consumers can fold over the IDs directly. Returns the
    /// endpoint degrees, as the full kernels do.
    pub fn for_each_wedge_partner(
        g: &Adjacency,
        e: Edge,
        mut f: impl FnMut(EdgeId),
    ) -> (usize, usize) {
        let (u, v) = e.endpoints();
        let (us, ids_u) = g.neighbor_entries(u);
        for (i, &w) in us.iter().enumerate() {
            if w != v {
                f(ids_u[i]);
            }
        }
        let (vs, ids_v) = g.neighbor_entries(v);
        for (i, &w) in vs.iter().enumerate() {
            if w != u {
                f(ids_v[i]);
            }
        }
        (us.len(), vs.len())
    }

    /// Enumerates the instances of `self` completed by adding `e` to `g`,
    /// invoking `f` once per instance with the *partner edges* — the
    /// instance's edges excluding `e` itself (the `J \ e_t` of Algorithm
    /// 2) — as arena edge IDs. Partner slices are only valid during the
    /// callback; resolve endpoints with [`Adjacency::edge_endpoints`] if
    /// needed.
    ///
    /// The callback is a generic `impl FnMut`, so hot callers (the
    /// estimator mass loop, the WRS instance weigher) get one fused,
    /// monomorphised kernel per pattern — the per-instance work inlines
    /// into the intersection loop itself.
    ///
    /// Returns the degrees of `e`'s endpoints in `g` — a free by-product
    /// of the neighbourhood lookups enumeration performs anyway, saving
    /// the state extraction (Eq. 19–22) two hash probes per event.
    pub fn for_each_completed(
        &self,
        g: &Adjacency,
        e: Edge,
        scratch: &mut EnumScratch,
        mut f: impl FnMut(&[EdgeId]),
    ) -> (usize, usize) {
        let (u, v) = e.endpoints();
        match self {
            Pattern::Wedge => Pattern::for_each_wedge_partner(g, e, |id| {
                let partner = [id];
                f(&partner);
            }),
            Pattern::Triangle | Pattern::Clique(3) => {
                // Stream instances straight out of the intersection — no
                // scratch materialisation; each hit's two partner IDs go
                // directly into the callback.
                let mut partner = [0 as EdgeId; 2];
                g.for_each_common_edge(u, v, |_, eu, ev| {
                    partner[0] = eu;
                    partner[1] = ev;
                    f(&partner);
                })
            }
            Pattern::FourClique | Pattern::Clique(4) => {
                let degs = g.common_edges_into(u, v, &mut scratch.common_edges);
                let c = &scratch.common_edges;
                let mut partner = [0 as EdgeId; 5];
                for (i, ci) in c.iter().enumerate() {
                    // One neighbourhood resolution per outer vertex; the
                    // inner pair probes are dense finds carrying the
                    // (w,x) partner ID out on hits.
                    let nw = g.neighborhood(ci.w);
                    for cj in &c[(i + 1)..] {
                        if let Some(wx) = nw.id_of(cj.w) {
                            partner[0] = ci.eu;
                            partner[1] = ci.ev;
                            partner[2] = cj.eu;
                            partner[3] = cj.ev;
                            partner[4] = wx;
                            f(&partner);
                        }
                    }
                }
                degs
            }
            Pattern::Clique(k) => {
                let need = (*k - 2) as usize;
                let degs = g.common_edges_into(u, v, &mut scratch.common_edges);
                scratch.common_edges.sort_unstable_by_key(|c| c.w);
                let common = std::mem::take(&mut scratch.common_edges);
                let mut cand0 = std::mem::take(&mut scratch.common);
                cand0.clear();
                cand0.extend(common.iter().map(|c| c.w));
                scratch.clique_cur.clear();
                // Reuse the scratch partner buffer across instances —
                // the per-instance Vec allocation here used to dominate
                // generic-clique enumeration cost.
                let mut partner = std::mem::take(&mut scratch.partner);
                clique_extend(g, &cand0, need, scratch, &mut |chosen| {
                    // Materialise all edges among {u, v} ∪ chosen except
                    // e. The (u,w)/(v,w) IDs come from the sorted common
                    // triples (binary search by w — `chosen` preserves
                    // the sorted order); chosen-chosen IDs need one
                    // membership probe each, which the recursion's
                    // adjacency filter paid for anyway.
                    partner.clear();
                    for &w in chosen {
                        let ce = common[common
                            .binary_search_by_key(&w, |c| c.w)
                            .expect("chosen vertex is a common neighbour")];
                        partner.push(ce.eu);
                        partner.push(ce.ev);
                    }
                    for i in 0..chosen.len() {
                        for j in (i + 1)..chosen.len() {
                            let id = g
                                .edge_id_between(chosen[i], chosen[j])
                                .expect("clique extension vertices are adjacent");
                            partner.push(id);
                        }
                    }
                    f(&partner);
                });
                scratch.partner = partner;
                scratch.common = cand0;
                scratch.common_edges = common;
                degs
            }
        }
    }
}

/// The set of nesting levels a **layered** enumeration pass emits:
/// wedges, triangles and 4-cliques share one walk per event because the
/// patterns nest — every 4-clique pair-probe runs over the same common
/// neighbourhood the triangle kernel intersects, and the wedge kernel
/// walks the same endpoint neighbourhoods. A multi-query session unions
/// its queries' levels into one `LayeredLevels` and runs
/// [`LayeredLevels::for_each_completed`] (or the count mode) once per
/// event instead of one per-pattern pass per query.
///
/// Levels are dense indices ([`LayeredLevels::WEDGE`] = 0,
/// [`LayeredLevels::TRIANGLE`] = 1, [`LayeredLevels::FOUR_CLIQUE`] = 2)
/// so consumers can accumulate per-level results in a flat `[T; 3]`.
/// Patterns wider than a 4-clique don't nest into this ladder
/// ([`LayeredLevels::level_of`] returns `None`) and stay on the
/// per-pattern kernels.
///
/// **Emission contract:** at each level the instances, their partner-ID
/// order *and* their relative order are exactly those of the
/// corresponding per-pattern kernel ([`Pattern::for_each_completed`]).
/// Levels are emitted in ascending order (all wedges, then all
/// triangles, then all 4-cliques). Estimators sum per level, so this
/// makes a layered pass bit-identical to the per-pattern passes it
/// replaces — the shared walk is a pure cost optimisation, never a
/// numeric one. The shared work is real: when both the triangle and
/// 4-clique levels are active
/// the galloping hub–hub intersection runs **once**, filling the
/// common-edge buffer that the triangle level replays (the buffer fill
/// *is* the streaming intersection callback, same hits in the same
/// order) and the 4-clique level pair-probes.
#[derive(Copy, Clone, Default, PartialEq, Eq, Debug)]
pub struct LayeredLevels {
    /// Emit wedge instances (level [`LayeredLevels::WEDGE`]).
    pub wedge: bool,
    /// Emit triangle instances (level [`LayeredLevels::TRIANGLE`]).
    pub triangle: bool,
    /// Emit 4-clique instances (level [`LayeredLevels::FOUR_CLIQUE`]).
    pub four_clique: bool,
}

impl LayeredLevels {
    /// Level index of wedge instances.
    pub const WEDGE: usize = 0;
    /// Level index of triangle instances.
    pub const TRIANGLE: usize = 1;
    /// Level index of 4-clique instances.
    pub const FOUR_CLIQUE: usize = 2;
    /// Number of levels in the ladder (the length of per-level arrays).
    pub const COUNT: usize = 3;

    /// The level a pattern's instances are served at, or `None` if the
    /// pattern doesn't nest into the wedge→triangle→4-clique ladder
    /// (generic cliques of order ≥ 5).
    #[inline]
    pub fn level_of(pattern: Pattern) -> Option<usize> {
        match pattern {
            Pattern::Wedge => Some(Self::WEDGE),
            Pattern::Triangle | Pattern::Clique(3) => Some(Self::TRIANGLE),
            Pattern::FourClique | Pattern::Clique(4) => Some(Self::FOUR_CLIQUE),
            Pattern::Clique(_) => None,
        }
    }

    /// The canonical pattern emitted at `level` (used for differential
    /// testing against the per-pattern kernels).
    #[inline]
    pub fn pattern_at(level: usize) -> Pattern {
        match level {
            Self::WEDGE => Pattern::Wedge,
            Self::TRIANGLE => Pattern::Triangle,
            Self::FOUR_CLIQUE => Pattern::FourClique,
            _ => panic!("no such layered level: {level}"),
        }
    }

    /// Marks `level` active.
    #[inline]
    pub fn set(&mut self, level: usize) {
        match level {
            Self::WEDGE => self.wedge = true,
            Self::TRIANGLE => self.triangle = true,
            Self::FOUR_CLIQUE => self.four_clique = true,
            _ => panic!("no such layered level: {level}"),
        }
    }

    /// True iff `level` is active.
    #[inline]
    pub fn active(&self, level: usize) -> bool {
        match level {
            Self::WEDGE => self.wedge,
            Self::TRIANGLE => self.triangle,
            Self::FOUR_CLIQUE => self.four_clique,
            _ => false,
        }
    }

    /// True iff no level is active.
    #[inline]
    pub fn is_empty(&self) -> bool {
        !(self.wedge || self.triangle || self.four_clique)
    }

    /// Layered analogue of [`Pattern::for_each_completed`]: one pass
    /// over `g`'s neighbourhoods enumerating, for every active level,
    /// the instances completed by adding `e` — invoking
    /// `f(level, partner_ids)` per instance. Per level, instances and
    /// their order are exactly those of the per-pattern kernel; levels
    /// are emitted in ascending order. Returns the endpoint degrees, as
    /// the per-pattern kernels do.
    pub fn for_each_completed(
        &self,
        g: &Adjacency,
        e: Edge,
        scratch: &mut EnumScratch,
        mut f: impl FnMut(usize, &[EdgeId]),
    ) -> (usize, usize) {
        let (u, v) = e.endpoints();
        let mut degs = (g.degree(u), g.degree(v));
        if self.wedge {
            let mut partner = [0 as EdgeId];
            let (us, ids_u) = g.neighbor_entries(u);
            for (i, &w) in us.iter().enumerate() {
                if w != v {
                    partner[0] = ids_u[i];
                    f(Self::WEDGE, &partner);
                }
            }
            let (vs, ids_v) = g.neighbor_entries(v);
            for (i, &w) in vs.iter().enumerate() {
                if w != u {
                    partner[0] = ids_v[i];
                    f(Self::WEDGE, &partner);
                }
            }
            degs = (us.len(), vs.len());
        }
        match (self.triangle, self.four_clique) {
            (true, false) => {
                let mut partner = [0 as EdgeId; 2];
                degs = g.for_each_common_edge(u, v, |_, eu, ev| {
                    partner[0] = eu;
                    partner[1] = ev;
                    f(Self::TRIANGLE, &partner);
                });
            }
            (_, true) => {
                // One galloped intersection serves both upper levels:
                // the buffer fill is the streaming callback, so the
                // triangle replay sees the same hits in the same order.
                degs = g.common_edges_into(u, v, &mut scratch.common_edges);
                let c = &scratch.common_edges;
                if self.triangle {
                    let mut partner = [0 as EdgeId; 2];
                    for ci in c {
                        partner[0] = ci.eu;
                        partner[1] = ci.ev;
                        f(Self::TRIANGLE, &partner);
                    }
                }
                let mut partner = [0 as EdgeId; 5];
                for (i, ci) in c.iter().enumerate() {
                    let nw = g.neighborhood(ci.w);
                    for cj in &c[(i + 1)..] {
                        if let Some(wx) = nw.id_of(cj.w) {
                            partner[0] = ci.eu;
                            partner[1] = ci.ev;
                            partner[2] = cj.eu;
                            partner[3] = cj.ev;
                            partner[4] = wx;
                            f(Self::FOUR_CLIQUE, &partner);
                        }
                    }
                }
            }
            (false, false) => {}
        }
        degs
    }

    /// Layered analogue of [`Pattern::count_completed`]: per-level
    /// completion counts from one pass (inactive levels report 0).
    /// Generic over the adjacency payload so the ID-free
    /// [`VertexAdjacency`] of the uniform baselines shares it. When
    /// both upper levels are active the common neighbourhood is
    /// materialised once and serves both the triangle count (its
    /// length) and the 4-clique pair probes.
    pub fn count_completed<P: IdPayload>(
        &self,
        g: &AdjacencyBase<P>,
        e: Edge,
        scratch: &mut EnumScratch,
    ) -> [u64; Self::COUNT] {
        let (u, v) = e.endpoints();
        let mut counts = [0u64; Self::COUNT];
        if self.wedge {
            let present = usize::from(g.adjacent(u, v));
            let du = g.degree(u) - present;
            let dv = g.degree(v) - present;
            counts[Self::WEDGE] = (du + dv) as u64;
        }
        if self.four_clique {
            g.common_neighbors_into(u, v, &mut scratch.common);
            let c = &scratch.common;
            if self.triangle {
                counts[Self::TRIANGLE] = c.len() as u64;
            }
            let mut n = 0u64;
            for (i, &w) in c.iter().enumerate() {
                let nw = g.neighborhood(w);
                for &x in &c[(i + 1)..] {
                    if nw.contains(x) {
                        n += 1;
                    }
                }
            }
            counts[Self::FOUR_CLIQUE] = n;
        } else if self.triangle {
            counts[Self::TRIANGLE] = g.common_neighbor_count(u, v) as u64;
        }
        counts
    }
}

/// Reusable scratch buffers for pattern enumeration; create one per
/// counter/thread and pass it to every call to avoid per-event allocation.
#[derive(Default, Clone, Debug)]
pub struct EnumScratch {
    /// Common-neighbour vertices (counting fast paths; doubles as the
    /// level-0 candidate buffer of the generic-clique kernels).
    common: Vec<Vertex>,
    /// Common neighbours with partner edge IDs (enumeration paths),
    /// sorted by vertex inside the generic-clique kernel.
    common_edges: Vec<CommonEdge>,
    clique_cand: Vec<Vec<Vertex>>,
    clique_cur: Vec<Vertex>,
    /// Partner-ID buffer reused across generic-clique instances.
    partner: Vec<EdgeId>,
}

/// Recursive k-clique extension shared by the counting and enumeration
/// kernels: finds all `need`-subsets `S` of `cand` (the sorted common
/// neighbourhood of `e`'s endpoints) such that `S` induces a clique,
/// invoking `f(S)`. `S` is yielded in increasing vertex order so each
/// instance is produced exactly once. Generic over the adjacency payload
/// — only membership probes are performed; the enumeration caller
/// resolves IDs in its callback.
fn clique_extend<P: IdPayload>(
    g: &AdjacencyBase<P>,
    cand0: &[Vertex],
    need: usize,
    scratch: &mut EnumScratch,
    f: &mut dyn FnMut(&[Vertex]),
) {
    if scratch.clique_cand.is_empty() {
        scratch.clique_cand.resize(MAX_CLIQUE as usize, Vec::new());
    }
    return recurse(g, cand0, need, scratch, f);

    fn recurse<P: IdPayload>(
        g: &AdjacencyBase<P>,
        cand: &[Vertex],
        need: usize,
        scratch: &mut EnumScratch,
        f: &mut dyn FnMut(&[Vertex]),
    ) {
        if need == 0 {
            f(&scratch.clique_cur);
            return;
        }
        if cand.len() < need {
            return;
        }
        for (i, &w) in cand.iter().enumerate() {
            scratch.clique_cur.push(w);
            if need == 1 {
                f(&scratch.clique_cur);
            } else {
                // Next candidates: later vertices adjacent to w.
                let depth = scratch.clique_cur.len();
                let mut next = std::mem::take(&mut scratch.clique_cand[depth]);
                next.clear();
                next.extend(cand[i + 1..].iter().copied().filter(|&x| g.adjacent(w, x)));
                recurse(g, &next, need - 1, scratch, f);
                scratch.clique_cand[depth] = next;
            }
            scratch.clique_cur.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency::VertexAdjacency;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn graph(edges: &[(Vertex, Vertex)]) -> Adjacency {
        let mut g = Adjacency::new();
        for &(a, b) in edges {
            g.insert(Edge::new(a, b));
        }
        g
    }

    fn count(p: Pattern, g: &Adjacency, e: Edge) -> u64 {
        let mut s = EnumScratch::default();
        p.count_completed(g, e, &mut s)
    }

    /// Enumerates partner sets, resolving edge IDs back to edges through
    /// the arena.
    fn enumerate(p: Pattern, g: &Adjacency, e: Edge) -> Vec<BTreeSet<Edge>> {
        let mut s = EnumScratch::default();
        let mut out = Vec::new();
        p.for_each_completed(g, e, &mut s, |partners| {
            out.push(partners.iter().map(|&id| g.edge_endpoints(id)).collect());
        });
        out
    }

    #[test]
    fn pattern_sizes() {
        assert_eq!(Pattern::Wedge.num_edges(), 2);
        assert_eq!(Pattern::Triangle.num_edges(), 3);
        assert_eq!(Pattern::FourClique.num_edges(), 6);
        assert_eq!(Pattern::Clique(5).num_edges(), 10);
        assert_eq!(Pattern::Wedge.num_vertices(), 3);
        assert_eq!(Pattern::Clique(6).num_vertices(), 6);
    }

    #[test]
    fn validation() {
        assert!(Pattern::Clique(2).validate().is_err());
        assert!(Pattern::Clique(3).validate().is_ok());
        assert!(Pattern::Clique(MAX_CLIQUE + 1).validate().is_err());
        assert!(Pattern::Wedge.validate().is_ok());
    }

    #[test]
    fn wedge_completion() {
        // Star: 1 connected to 2,3,4. Adding (2,3) completes wedges
        // centred at 2 (via edge 1-2? no: centred at 2 pairs (2,3) with
        // edges at 2, i.e. (1,2)) and at 3 ((1,3)).
        let g = graph(&[(1, 2), (1, 3), (1, 4)]);
        let e = Edge::new(2, 3);
        assert_eq!(count(Pattern::Wedge, &g, e), 2);
        let inst = enumerate(Pattern::Wedge, &g, e);
        assert_eq!(inst.len(), 2);
        assert!(inst.contains(&BTreeSet::from([Edge::new(1, 2)])));
        assert!(inst.contains(&BTreeSet::from([Edge::new(1, 3)])));
    }

    #[test]
    fn triangle_completion() {
        let g = graph(&[(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]);
        // Adding (1,4): common neighbours of 1 and 4 are {2,3}.
        let e = Edge::new(1, 4);
        assert_eq!(count(Pattern::Triangle, &g, e), 2);
        let inst = enumerate(Pattern::Triangle, &g, e);
        assert!(inst.contains(&BTreeSet::from([Edge::new(1, 2), Edge::new(2, 4)])));
        assert!(inst.contains(&BTreeSet::from([Edge::new(1, 3), Edge::new(3, 4)])));
    }

    #[test]
    fn four_clique_completion() {
        // K4 minus edge (1,4); adding (1,4) completes exactly one 4-clique.
        let g = graph(&[(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]);
        let e = Edge::new(1, 4);
        assert_eq!(count(Pattern::FourClique, &g, e), 1);
        let inst = enumerate(Pattern::FourClique, &g, e);
        assert_eq!(inst.len(), 1);
        assert_eq!(
            inst[0],
            BTreeSet::from([
                Edge::new(1, 2),
                Edge::new(1, 3),
                Edge::new(2, 3),
                Edge::new(2, 4),
                Edge::new(3, 4),
            ])
        );
    }

    /// All 7 non-empty level subsets.
    fn level_subsets() -> Vec<LayeredLevels> {
        let mut out = Vec::new();
        for bits in 1u8..8 {
            out.push(LayeredLevels {
                wedge: bits & 1 != 0,
                triangle: bits & 2 != 0,
                four_clique: bits & 4 != 0,
            });
        }
        out
    }

    /// Per-level instances from a layered pass (instance mode).
    fn enumerate_layered(
        levels: LayeredLevels,
        g: &Adjacency,
        e: Edge,
    ) -> (Vec<Vec<Vec<EdgeId>>>, (usize, usize)) {
        let mut s = EnumScratch::default();
        let mut out: Vec<Vec<Vec<EdgeId>>> = vec![Vec::new(); LayeredLevels::COUNT];
        let mut last_level = 0;
        let degs = levels.for_each_completed(g, e, &mut s, |level, partners| {
            assert!(levels.active(level), "emitted at inactive level {level}");
            assert!(level >= last_level, "levels must be emitted in ascending order");
            last_level = level;
            out[level].push(partners.to_vec());
        });
        (out, degs)
    }

    /// The layered differential harness: on every level subset, the
    /// layered pass must reproduce each active level's per-pattern
    /// kernel output — same instances, same partner order, same
    /// relative order, same degrees — and the layered count must match
    /// the per-pattern counts. Bit-identity of the session
    /// estimators rests on exactly this contract.
    fn assert_layered_matches_per_pattern(g: &Adjacency, e: Edge) {
        let mut s = EnumScratch::default();
        for levels in level_subsets() {
            let (inst, degs) = enumerate_layered(levels, g, e);
            let counts = levels.count_completed(g, e, &mut s);
            for level in 0..LayeredLevels::COUNT {
                let p = LayeredLevels::pattern_at(level);
                if !levels.active(level) {
                    assert!(inst[level].is_empty(), "{levels:?}: inactive level {level} emitted");
                    assert_eq!(counts[level], 0, "{levels:?}: inactive level {level} counted");
                    continue;
                }
                let mut per_pattern: Vec<Vec<EdgeId>> = Vec::new();
                let degs_ref = p.for_each_completed(g, e, &mut s, |partners| {
                    per_pattern.push(partners.to_vec())
                });
                assert_eq!(degs, degs_ref, "{levels:?}/{p:?}: degree by-product diverged");
                assert_eq!(
                    inst[level], per_pattern,
                    "{levels:?}/{p:?}: layered emission order diverged"
                );
                assert_eq!(
                    counts[level],
                    per_pattern.len() as u64,
                    "{levels:?}/{p:?}: layered count diverged"
                );
            }
        }
    }

    #[test]
    fn layered_emission_matches_per_pattern_kernels() {
        // A hub star: 1 and 13 share 2..=12, so (1,13) closes eleven
        // triangles, plus wedges and one 4-clique regime.
        let mut g = Adjacency::new();
        for v in 2..=12u64 {
            g.insert(Edge::new(1, v));
            g.insert(Edge::new(13, v));
        }
        g.insert(Edge::new(2, 3));
        g.insert(Edge::new(2, 4));
        g.insert(Edge::new(3, 4));
        assert_layered_matches_per_pattern(&g, Edge::new(1, 13));
        // A sparse event (no completions at any level) and a dense one.
        assert_layered_matches_per_pattern(&g, Edge::new(40, 41));
        let dense = graph(&[(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (1, 5), (4, 5), (3, 5)]);
        assert_layered_matches_per_pattern(&dense, Edge::new(1, 4));
    }

    #[test]
    fn layered_count_runs_on_vertex_only_adjacency() {
        let edges = [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (1, 5), (4, 5)];
        let g = graph(&edges);
        let mut lean = VertexAdjacency::new();
        for &(a, b) in &edges {
            lean.insert(Edge::new(a, b));
        }
        let mut s = EnumScratch::default();
        for e in [Edge::new(1, 4), Edge::new(3, 5), Edge::new(2, 5)] {
            for levels in level_subsets() {
                assert_eq!(
                    levels.count_completed(&g, e, &mut s),
                    levels.count_completed(&lean, e, &mut s),
                    "{levels:?} at {e:?}: ID-free layered count diverges"
                );
            }
        }
    }

    #[test]
    fn layered_level_mapping() {
        assert_eq!(LayeredLevels::level_of(Pattern::Wedge), Some(LayeredLevels::WEDGE));
        assert_eq!(LayeredLevels::level_of(Pattern::Triangle), Some(LayeredLevels::TRIANGLE));
        assert_eq!(LayeredLevels::level_of(Pattern::Clique(3)), Some(LayeredLevels::TRIANGLE));
        assert_eq!(LayeredLevels::level_of(Pattern::FourClique), Some(LayeredLevels::FOUR_CLIQUE));
        assert_eq!(LayeredLevels::level_of(Pattern::Clique(4)), Some(LayeredLevels::FOUR_CLIQUE));
        assert_eq!(LayeredLevels::level_of(Pattern::Clique(5)), None, "≥5-cliques don't nest");
        let mut levels = LayeredLevels::default();
        assert!(levels.is_empty());
        levels.set(LayeredLevels::TRIANGLE);
        assert!(levels.active(LayeredLevels::TRIANGLE) && !levels.active(LayeredLevels::WEDGE));
    }

    #[test]
    fn count_runs_on_vertex_only_adjacency() {
        let edges = [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (1, 5), (4, 5)];
        let g = graph(&edges);
        let mut lean = VertexAdjacency::new();
        for &(a, b) in &edges {
            lean.insert(Edge::new(a, b));
        }
        let mut s = EnumScratch::default();
        for e in [Edge::new(1, 4), Edge::new(3, 5), Edge::new(2, 5)] {
            for p in [Pattern::Wedge, Pattern::Triangle, Pattern::FourClique, Pattern::Clique(5)] {
                assert_eq!(
                    p.count_completed(&g, e, &mut s),
                    p.count_completed(&lean, e, &mut s),
                    "{p:?} at {e:?}: ID-free count diverges from tracked count"
                );
            }
        }
    }

    #[test]
    fn clique_generic_matches_fast_paths() {
        // Random-ish small dense graph.
        let edges: Vec<(Vertex, Vertex)> = (0..8)
            .flat_map(|a| ((a + 1)..8).map(move |b| (a, b)))
            .filter(|&(a, b)| (a * 31 + b * 17) % 3 != 0)
            .collect();
        let g = graph(&edges);
        for e in [Edge::new(0, 1), Edge::new(2, 5), Edge::new(3, 7)] {
            if g.contains(e) {
                continue;
            }
            assert_eq!(count(Pattern::Triangle, &g, e), count(Pattern::Clique(3), &g, e));
            assert_eq!(count(Pattern::FourClique, &g, e), count(Pattern::Clique(4), &g, e));
            // Enumerated partner sets must agree between the fast paths
            // and the generic kernel (as sets; order may differ).
            let t_fast: BTreeSet<_> = enumerate(Pattern::Triangle, &g, e).into_iter().collect();
            let t_gen: BTreeSet<_> = enumerate(Pattern::Clique(3), &g, e).into_iter().collect();
            assert_eq!(t_fast, t_gen);
            let f_fast: BTreeSet<_> = enumerate(Pattern::FourClique, &g, e).into_iter().collect();
            let f_gen: BTreeSet<_> = enumerate(Pattern::Clique(4), &g, e).into_iter().collect();
            assert_eq!(f_fast, f_gen);
        }
    }

    #[test]
    fn five_clique_in_k5() {
        // K5 minus one edge; adding it back completes exactly one 5-clique
        // (and C(3,1)=3 ... no: all 5 vertices are required).
        let mut g = Adjacency::new();
        for a in 0..5u64 {
            for b in (a + 1)..5 {
                g.insert(Edge::new(a, b));
            }
        }
        let e = Edge::new(0, 1);
        g.remove(e);
        assert_eq!(count(Pattern::Clique(5), &g, e), 1);
        let inst = enumerate(Pattern::Clique(5), &g, e);
        assert_eq!(inst.len(), 1);
        assert_eq!(inst[0].len(), Pattern::Clique(5).num_edges() - 1);
    }

    #[test]
    fn empty_graph_completes_nothing() {
        let g = Adjacency::new();
        let e = Edge::new(1, 2);
        for p in [Pattern::Wedge, Pattern::Triangle, Pattern::FourClique, Pattern::Clique(5)] {
            assert_eq!(count(p, &g, e), 0);
            assert!(enumerate(p, &g, e).is_empty());
        }
    }

    /// Brute force: count instances of the pattern containing edge e in
    /// g ∪ {e} by enumerating all vertex subsets.
    fn brute_force(p: Pattern, g: &Adjacency, e: Edge) -> u64 {
        let mut g2 = g.clone();
        g2.insert(e);
        let verts: Vec<Vertex> = g2.vertices().collect();
        let mut count = 0u64;
        match p {
            Pattern::Wedge => {
                // Ordered center with two distinct neighbours; instance
                // contains e.
                for &c in &verts {
                    let ns: Vec<Vertex> = g2.neighbors(c).collect();
                    for i in 0..ns.len() {
                        for j in (i + 1)..ns.len() {
                            let e1 = Edge::new(c, ns[i]);
                            let e2 = Edge::new(c, ns[j]);
                            if e1 == e || e2 == e {
                                count += 1;
                            }
                        }
                    }
                }
            }
            Pattern::Triangle | Pattern::Clique(3) => {
                count = subsets_containing(&g2, e, 3);
            }
            Pattern::FourClique | Pattern::Clique(4) => {
                count = subsets_containing(&g2, e, 4);
            }
            Pattern::Clique(k) => {
                count = subsets_containing(&g2, e, k as usize);
            }
        }
        count
    }

    /// Counts k-vertex cliques of g containing both endpoints of e.
    fn subsets_containing(g: &Adjacency, e: Edge, k: usize) -> u64 {
        let verts: Vec<Vertex> = g.vertices().collect();
        let n = verts.len();
        let mut count = 0u64;
        let mut idx: Vec<usize> = (0..k).collect();
        if n < k {
            return 0;
        }
        loop {
            let subset: Vec<Vertex> = idx.iter().map(|&i| verts[i]).collect();
            let has_u = subset.contains(&e.u());
            let has_v = subset.contains(&e.v());
            if has_u && has_v {
                let mut clique = true;
                'outer: for i in 0..k {
                    for j in (i + 1)..k {
                        if !g.adjacent(subset[i], subset[j]) {
                            clique = false;
                            break 'outer;
                        }
                    }
                }
                if clique {
                    count += 1;
                }
            }
            // next combination
            let mut i = k;
            loop {
                if i == 0 {
                    return count;
                }
                i -= 1;
                if idx[i] != i + n - k {
                    break;
                }
            }
            idx[i] += 1;
            for j in (i + 1)..k {
                idx[j] = idx[j - 1] + 1;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_layered_matches_per_pattern(
            edges in proptest::collection::vec((0u64..9, 0u64..9), 0..25),
            (a, b) in (0u64..9, 0u64..9),
        ) {
            prop_assume!(a != b);
            let e = Edge::new(a, b);
            let mut g = Adjacency::new();
            for (x, y) in edges {
                if let Some(ed) = Edge::try_new(x, y) {
                    if ed != e {
                        g.insert(ed);
                    }
                }
            }
            assert_layered_matches_per_pattern(&g, e);
        }

        #[test]
        fn prop_completion_matches_brute_force(
            edges in proptest::collection::vec((0u64..9, 0u64..9), 0..25),
            (a, b) in (0u64..9, 0u64..9),
        ) {
            prop_assume!(a != b);
            let e = Edge::new(a, b);
            let mut g = Adjacency::new();
            let mut lean = VertexAdjacency::new();
            for (x, y) in edges {
                if let Some(ed) = Edge::try_new(x, y) {
                    if ed != e {
                        g.insert(ed);
                        lean.insert(ed);
                    }
                }
            }
            for p in [Pattern::Wedge, Pattern::Triangle, Pattern::FourClique, Pattern::Clique(5)] {
                let fast = count(p, &g, e);
                let brute = brute_force(p, &g, e);
                prop_assert_eq!(fast, brute, "pattern {:?}", p);
                // The ID-free adjacency shares the counting kernel.
                let mut s = EnumScratch::default();
                prop_assert_eq!(p.count_completed(&lean, e, &mut s), brute, "lean {:?}", p);
                // Enumeration count agrees with the counting kernel and
                // yields distinct instances.
                let inst = enumerate(p, &g, e);
                prop_assert_eq!(inst.len() as u64, fast);
                let uniq: BTreeSet<_> = inst.iter().cloned().collect();
                prop_assert_eq!(uniq.len(), inst.len(), "duplicate instances");
                for i in &inst {
                    prop_assert_eq!(i.len(), p.num_edges() - 1);
                    prop_assert!(!i.contains(&e));
                }
            }
        }
    }
}
