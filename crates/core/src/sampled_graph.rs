//! The weighted sampled graph: reservoir edges plus their metadata,
//! stored in **dense arrays indexed by arena edge ID**.
//!
//! The weighted samplers (WSD, GPS, GPS-A) need, for every sampled edge,
//! its weight (to evaluate the inclusion probability `min(1, w/τ)` at
//! estimation time) and its arrival time (for the temporal block of the
//! RL state). The adjacency half is what pattern enumeration runs
//! against — and since the adjacency arena mints a dense [`EdgeId`] per
//! live edge, all metadata lives in dense slot arrays indexed by that
//! ID: the estimator's per-partner metadata access is a plain array
//! read, not a hash probe.
//!
//! # Slot grouping
//!
//! The metadata is grouped into two ID-indexed slot arrays by *access
//! pattern*, not by field: the estimator's per-partner read touches the
//! τ-stamp and the cached `1/p` together on every partner, so those two
//! live adjacent in one 16-byte `ProbSlot`; the admission path writes
//! weight and arrival time together once per admitted edge, so those
//! pair up in `MetaSlot`. One partner probe in the mass pass is one
//! cache line instead of two, and one admission is two grouped stores
//! plus a single bounds/resize check instead of four independent `Vec`
//! maintenance paths.
//!
//! # The τ-epoch `1/p` cache
//!
//! The estimator divides by the inclusion probability
//! `p = min(1, w(e)/τ)` for every partner edge of every instance. `w(e)`
//! is fixed at admission and `τ` changes only on some events, so the
//! inverse probability is cached per edge and stamped with the *τ-epoch*
//! in which it was computed; a change of `τ` bumps the epoch (an O(1)
//! bulk invalidation) and each edge's `1/p` is lazily recomputed on its
//! next use. The cached value is produced by exactly the expression the
//! uncached path evaluated (`1.0 / inclusion_prob(w, τ)`), so estimates
//! are bit-identical with caching on.

use crate::rank::inclusion_prob;
use wsd_graph::{Adjacency, Edge, EdgeId};

/// Metadata stored per sampled edge.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct EdgeMeta {
    /// The weight the edge was assigned on arrival, `w(e)`.
    pub weight: f64,
    /// The stream position (event index) at which the edge arrived.
    pub time: u64,
}

/// Admission-time metadata of one edge slot: written together on every
/// insert, read together by the estimator's temporal path.
#[derive(Copy, Clone, Default, Debug)]
struct MetaSlot {
    /// `w(e)` — the weight assigned on arrival.
    weight: f64,
    /// Arrival time (event index).
    time: u64,
}

/// Estimation-time cache of one edge slot: the τ-stamp and the `1/p` it
/// validates share a slot so the mass pass's per-partner probe (stamp
/// check + cached read) touches one cache line.
#[derive(Copy, Clone, Default, Debug)]
struct ProbSlot {
    /// τ-epoch in which `inv_p` was computed; 0 is never current.
    stamp: u64,
    /// Cached `1 / min(1, w/τ)`, valid iff `stamp == epoch`.
    inv_p: f64,
}

/// Reservoir content as a graph: adjacency + per-edge metadata slots.
#[derive(Clone, Debug)]
pub struct WeightedSample {
    adj: Adjacency,
    /// Admission metadata per edge ID.
    meta: Vec<MetaSlot>,
    /// τ-stamped `1/p` cache per edge ID.
    prob: Vec<ProbSlot>,
    /// Current τ-epoch (starts at 1 so zeroed stamps read as stale).
    epoch: u64,
    /// The τ the current epoch corresponds to.
    tau: f64,
}

impl Default for WeightedSample {
    fn default() -> Self {
        Self { adj: Adjacency::new(), meta: Vec::new(), prob: Vec::new(), epoch: 1, tau: 0.0 }
    }
}

impl WeightedSample {
    /// Creates an empty sample.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty sample pre-sized for a reservoir of `edges`
    /// edges: the ID-indexed slot arrays are allocated up front, so they
    /// never reallocate mid-stream (a reservoir of `M` edges holds at
    /// most `M` concurrent IDs). The vertex table grows with the
    /// vertices it holds.
    pub fn with_capacity(edges: usize) -> Self {
        Self {
            meta: Vec::with_capacity(edges + 1),
            prob: Vec::with_capacity(edges + 1),
            ..Self::default()
        }
    }

    /// The adjacency view (for pattern enumeration and degrees).
    #[inline]
    pub fn adj(&self) -> &Adjacency {
        &self.adj
    }

    /// Number of sampled edges.
    #[inline]
    pub fn len(&self) -> usize {
        self.adj.num_edges()
    }

    /// True if nothing is sampled.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// True if the edge is sampled.
    #[inline]
    pub fn contains(&self, e: Edge) -> bool {
        self.adj.contains(e)
    }

    /// The arena ID of a sampled edge.
    #[inline]
    pub fn id_of(&self, e: Edge) -> Option<EdgeId> {
        self.adj.edge_id(e)
    }

    /// Metadata of a sampled edge.
    #[inline]
    pub fn meta(&self, e: Edge) -> Option<EdgeMeta> {
        let i = self.adj.edge_id(e)? as usize;
        Some(EdgeMeta { weight: self.meta[i].weight, time: self.meta[i].time })
    }

    /// Inserts an edge with its metadata, returning its arena ID (dense,
    /// recycled, bounded by the peak sample size — safe to index side
    /// arrays and the reservoir heap with).
    ///
    /// # Panics
    ///
    /// Panics if the edge is already sampled (duplicate reservoir entries
    /// indicate a framework bug and must not be masked).
    pub fn insert(&mut self, e: Edge, meta: EdgeMeta) -> EdgeId {
        let id = self
            .adj
            .insert_full(e)
            .unwrap_or_else(|| panic!("edge {e:?} inserted twice into WeightedSample"));
        let i = id as usize;
        if i >= self.meta.len() {
            self.meta.resize(i + 1, MetaSlot::default());
            self.prob.resize(i + 1, ProbSlot::default());
        }
        self.meta[i] = MetaSlot { weight: meta.weight, time: meta.time };
        // The slot may be recycled: whatever 1/p its previous tenant
        // cached must not leak to the new edge.
        self.prob[i].stamp = 0;
        id
    }

    /// Removes an edge, returning its metadata if it was sampled.
    pub fn remove(&mut self, e: Edge) -> Option<EdgeMeta> {
        self.remove_full(e).map(|(_, m)| m)
    }

    /// Removes an edge, returning the (now recycled) arena ID it held
    /// and its metadata if it was sampled.
    pub fn remove_full(&mut self, e: Edge) -> Option<(EdgeId, EdgeMeta)> {
        let id = self.adj.remove_full(e)?;
        let i = id as usize;
        Some((id, EdgeMeta { weight: self.meta[i].weight, time: self.meta[i].time }))
    }

    /// Removes a sampled edge by its arena ID (the reservoir-heap
    /// eviction path), returning its endpoints.
    pub fn remove_by_id(&mut self, id: EdgeId) -> Edge {
        // Find-free: the arena's mirror table resolves both neighbour
        // slots directly, and its slot/endpoint cross-check keeps the
        // heap/sample-desync failure fast in release builds.
        self.adj.remove_by_id(id)
    }

    /// Iterates sampled edges with metadata.
    pub fn iter(&self) -> impl Iterator<Item = (Edge, EdgeMeta)> + '_ {
        self.adj.edges().map(|e| (e, self.meta(e).expect("live edge has metadata")))
    }

    /// The serializable dynamic state: the adjacency layout (slot
    /// orders and arena verbatim — see
    /// [`wsd_graph::AdjacencyLayout`]) plus per-live-edge admission
    /// metadata `(id, weight, time)` in ascending ID order. The τ-epoch
    /// `1/p` cache is *not* captured: it is pure derived state,
    /// recomputed lazily from `(weight, τ)` by exactly the expression
    /// the uncached path evaluates, so a restored sample estimates
    /// bit-identically with a cold cache.
    pub fn snapshot_state(&self) -> (wsd_graph::AdjacencyLayout, Vec<(EdgeId, f64, u64)>) {
        let layout = self.adj.layout_snapshot();
        let mut meta: Vec<(EdgeId, f64, u64)> = layout
            .vertices
            .iter()
            .flat_map(|(u, slots)| {
                slots.iter().filter(move |&&(w, _)| *u < w).map(|&(_, id)| {
                    let m = &self.meta[id as usize];
                    (id, m.weight, m.time)
                })
            })
            .collect();
        meta.sort_unstable_by_key(|&(id, _, _)| id);
        (layout, meta)
    }

    /// Restores the state captured by
    /// [`WeightedSample::snapshot_state`]: the adjacency re-materialises
    /// verbatim, metadata slots refill per live ID, and the `1/p` cache
    /// restarts cold (epoch 1, all stamps stale).
    pub fn restore_state(
        &mut self,
        layout: &wsd_graph::AdjacencyLayout,
        meta: &[(EdgeId, f64, u64)],
    ) {
        self.adj = Adjacency::from_layout(layout);
        let bound = layout.id_bound as usize;
        self.meta.clear();
        self.meta.resize(bound, MetaSlot::default());
        self.prob.clear();
        self.prob.resize(bound, ProbSlot::default());
        for &(id, weight, time) in meta {
            self.meta[id as usize] = MetaSlot { weight, time };
        }
        self.epoch = 1;
        self.tau = 0.0;
    }

    /// Splits the sample into the adjacency (for enumeration) and a
    /// mutable metadata view bound to the threshold `tau` — the
    /// estimator hot path. A `tau` different from the previous call's
    /// bumps the τ-epoch, invalidating every cached `1/p` in O(1).
    #[inline]
    pub(crate) fn estimator_view(&mut self, tau: f64) -> (&Adjacency, MetaView<'_>) {
        if tau != self.tau {
            self.tau = tau;
            self.epoch += 1;
        }
        (
            &self.adj,
            MetaView { meta: &self.meta, prob: &mut self.prob, epoch: self.epoch, tau: self.tau },
        )
    }
}

/// Dense, zero-hash access to per-partner metadata during one estimator
/// pass, with lazy τ-stamped `1/p` recomputation.
pub(crate) struct MetaView<'a> {
    meta: &'a [MetaSlot],
    prob: &'a mut [ProbSlot],
    epoch: u64,
    tau: f64,
}

impl MetaView<'_> {
    /// The inverse inclusion probability `1 / min(1, w/τ)` of a sampled
    /// edge — cached, recomputed only when the edge's τ-epoch stamp is
    /// stale. Stamp and cached value share a slot: the steady-state hit
    /// (stamp current) is one cache-line touch.
    #[inline]
    pub(crate) fn inv_p(&mut self, id: EdgeId) -> f64 {
        let i = id as usize;
        if self.prob[i].stamp != self.epoch {
            self.prob[i] = ProbSlot {
                stamp: self.epoch,
                inv_p: 1.0 / inclusion_prob(self.meta[i].weight, self.tau),
            };
        }
        self.prob[i].inv_p
    }

    /// Both metadata reads of the estimator loop in one call — the
    /// partner is resolved once and used twice.
    #[inline]
    pub(crate) fn inv_p_time(&mut self, id: EdgeId) -> (f64, u64) {
        (self.inv_p(id), self.meta[id as usize].time)
    }

    /// Arrival time of a sampled edge.
    #[inline]
    pub(crate) fn time(&self, id: EdgeId) -> u64 {
        self.meta[id as usize].time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_keeps_adj_and_meta_in_sync() {
        let mut s = WeightedSample::new();
        let e = Edge::new(1, 2);
        s.insert(e, EdgeMeta { weight: 2.0, time: 7 });
        assert!(s.contains(e));
        assert!(s.adj().contains(e));
        assert_eq!(s.len(), 1);
        assert_eq!(s.meta(e), Some(EdgeMeta { weight: 2.0, time: 7 }));
        let m = s.remove(e).unwrap();
        assert_eq!(m.time, 7);
        assert!(!s.contains(e));
        assert!(!s.adj().contains(e));
        assert!(s.is_empty());
        assert!(s.remove(e).is_none());
    }

    #[test]
    #[should_panic(expected = "inserted twice")]
    fn duplicate_insert_panics() {
        let mut s = WeightedSample::new();
        let e = Edge::new(1, 2);
        s.insert(e, EdgeMeta { weight: 1.0, time: 0 });
        s.insert(e, EdgeMeta { weight: 1.0, time: 1 });
    }

    #[test]
    fn iter_yields_all() {
        let mut s = WeightedSample::new();
        s.insert(Edge::new(1, 2), EdgeMeta { weight: 1.0, time: 0 });
        s.insert(Edge::new(2, 3), EdgeMeta { weight: 2.0, time: 1 });
        assert_eq!(s.iter().count(), 2);
    }

    #[test]
    fn remove_by_id_round_trips() {
        let mut s = WeightedSample::new();
        let e = Edge::new(4, 9);
        let id = s.insert(e, EdgeMeta { weight: 3.0, time: 5 });
        assert_eq!(s.id_of(e), Some(id));
        assert_eq!(s.remove_by_id(id), e);
        assert!(s.is_empty());
    }

    #[test]
    fn recycled_slot_does_not_leak_cached_inv_p() {
        let mut s = WeightedSample::new();
        let a = s.insert(Edge::new(1, 2), EdgeMeta { weight: 2.0, time: 0 });
        {
            let (_, mut view) = s.estimator_view(8.0);
            assert_eq!(view.inv_p(a), 4.0); // p = 2/8
        }
        s.remove(Edge::new(1, 2));
        // Recycles slot `a` with a different weight; τ unchanged, so the
        // epoch does not move — the stale stamp must force recompute.
        let b = s.insert(Edge::new(3, 4), EdgeMeta { weight: 4.0, time: 1 });
        assert_eq!(a, b, "slot must be recycled for this test to bite");
        let (_, mut view) = s.estimator_view(8.0);
        assert_eq!(view.inv_p(b), 2.0); // p = 4/8
    }

    #[test]
    fn snapshot_restore_preserves_layout_meta_and_estimates() {
        let mut s = WeightedSample::with_capacity(8);
        for (i, (a, b)) in [(1, 2), (2, 3), (1, 3), (4, 5), (2, 5), (3, 5)].iter().enumerate() {
            s.insert(Edge::new(*a, *b), EdgeMeta { weight: 1.0 + i as f64, time: i as u64 });
        }
        s.remove(Edge::new(2, 3));
        s.remove(Edge::new(4, 5));
        s.insert(Edge::new(6, 7), EdgeMeta { weight: 9.0, time: 10 });
        // Warm the 1/p cache so restore provably does not depend on it.
        let warm_id = s.id_of(Edge::new(1, 2)).unwrap();
        {
            let (_, mut view) = s.estimator_view(4.0);
            let _ = view.inv_p(warm_id);
        }
        let (layout, meta) = s.snapshot_state();
        let mut r = WeightedSample::with_capacity(8);
        r.restore_state(&layout, &meta);
        assert_eq!(r.len(), s.len());
        for (e, m) in s.iter() {
            assert_eq!(r.meta(e), Some(m));
            assert_eq!(r.id_of(e), s.id_of(e), "arena IDs must survive restore");
        }
        // Re-snapshot of the untouched restore is identical.
        let again = r.snapshot_state();
        assert_eq!(again.0, layout);
        assert_eq!(again.1, meta);
        // Same future mints (free-list order verbatim).
        let mut s2 = s.clone();
        let na = s2.insert(Edge::new(8, 9), EdgeMeta { weight: 1.0, time: 11 });
        let nb = r.insert(Edge::new(8, 9), EdgeMeta { weight: 1.0, time: 11 });
        assert_eq!(na, nb);
        // Cold cache recomputes to identical bits.
        let (_, mut sv) = s2.estimator_view(4.0);
        let (_, mut rv) = r.estimator_view(4.0);
        assert_eq!(sv.inv_p(warm_id).to_bits(), rv.inv_p(warm_id).to_bits());
    }

    #[test]
    fn tau_change_invalidates_cache() {
        let mut s = WeightedSample::new();
        let id = s.insert(Edge::new(1, 2), EdgeMeta { weight: 2.0, time: 0 });
        {
            let (_, mut view) = s.estimator_view(4.0);
            assert_eq!(view.inv_p(id), 2.0);
            // Second read within the epoch: served from cache.
            assert_eq!(view.inv_p(id), 2.0);
        }
        let (_, mut view) = s.estimator_view(8.0);
        assert_eq!(view.inv_p(id), 4.0, "new τ must recompute");
        assert_eq!(view.inv_p_time(id), (4.0, 0));
    }
}
