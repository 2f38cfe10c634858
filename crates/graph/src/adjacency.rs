//! Dynamic adjacency structure shared by the samplers and the exact
//! counter, built around a **dense edge-ID arena** and one
//! iterate-and-probe **intersection kernel**.
//!
//! The structure supports the three operations every algorithm in the
//! paper performs per event: edge insert, edge delete, and neighbourhood
//! queries (degree, membership, iteration, common-neighbour intersection).
//!
//! # Storage
//!
//! Neighbourhoods are stored as dense parallel arrays of
//! `(neighbour, edge id)` in **insertion order** (cache-local iteration —
//! the enumeration hot path walks these slices millions of times per
//! run), in three tiers by degree:
//!
//! * **inline** — up to [`INLINE`] slots live in the vertex-table entry
//!   itself. Under reservoir budgets most sampled vertices never hold
//!   more, so creating, scanning and pruning them touches no heap
//!   memory: no allocation, no free, no pointer chase.
//! * **heap** — from the next neighbour on, the slots move to two heap
//!   `Vec`s and stay there for the rest of the set's life.
//! * **indexed** — past [`SPILL_THRESHOLD`] a hash index is attached,
//!   keeping membership probes and insert/remove maintenance O(1) for
//!   hubs, while smaller sets keep branch-predictable linear scans.
//!
//! Both storage forms keep `push` / `swap_remove` slot order, so which
//! form a set is in never shows in emission order, edge IDs or layout
//! snapshots. Each endpoint of an edge insert, removal or intersection
//! costs one vertex-table lookup; the one exception is a removal by edge
//! that empties its first endpoint, which prunes it with a second. That
//! first lookup is a `get_mut`, not an `entry`: an `entry` on an absent
//! key reserves room for an insert, so removing an absent edge could
//! grow the table.
//!
//! The vertex table grows with the vertices it holds; nothing pre-sizes
//! it. How it grew decides its hash iteration order, which a graph
//! rebuilt from its layout does not share, so no result may depend on
//! that order: the estimators' warm-up replays sort the sample by
//! [`Edge`] first.
//!
//! # Intersection
//!
//! A common-neighbour query walks the smaller side's dense slots and
//! probes the larger side for each (its hash index when indexed, a
//! linear scan below), so it **emits in the smaller side's dense slot
//! order** — the order of its `items` array, insertion order as permuted
//! by `swap_remove`-backfilled deletions. The estimators' floating-point
//! sums are evaluated in enumeration order, and the golden-value tests
//! pin them bit-for-bit: the probing strategy is free to change, but
//! emission order is part of the contract.
//!
//! No query allocates: callers either consume
//! [`AdjacencyBase::neighbor_slice`] directly or reuse a scratch buffer
//! via [`AdjacencyBase::common_neighbors_into`] /
//! [`Adjacency::common_edges_into`].
//!
//! # The edge-ID arena
//!
//! Every live edge owns a dense [`EdgeId`] minted by a slab allocator
//! (freed IDs are recycled LIFO), so the ID space never exceeds the peak
//! number of *concurrently* live edges — under reservoir budgets, the
//! reservoir capacity. Both directions of an edge store the same ID, and
//! the intersection kernels surface partner **edge IDs** directly
//! ([`Adjacency::for_each_common_edge`]), which is what lets the
//! estimators upstream replace per-partner `Edge`-keyed hash lookups
//! with plain dense-array reads.
//!
//! # ID-free counters
//!
//! The structure is generic over an [`IdPayload`]: [`Adjacency`]
//! (`P = EdgeId`) carries the arena, while [`VertexAdjacency`]
//! (`P = ()`) compiles all per-edge ID bookkeeping away — no arena, no
//! per-neighbour ID array, no recycling — for the uniform baselines
//! (Triest, ThinkD) whose count-only paths never consume IDs.

use crate::edge::{Edge, Vertex};
use crate::fxhash::FxHashMap;
use std::collections::hash_map::Entry;

/// Dense identifier of a live edge, minted by the [`Adjacency`] arena.
///
/// IDs are recycled when edges are removed, so they stay small (bounded
/// by the peak live-edge count) and can index plain `Vec`s. An ID is
/// only meaningful while its edge is live; holding one across a
/// [`Adjacency::remove`] of that edge is a logic error.
pub type EdgeId = u32;

/// Per-neighbour payload stored alongside each adjacency entry: either a
/// dense arena [`EdgeId`] ([`Adjacency`]) or nothing at all
/// ([`VertexAdjacency`]). Sealed — exactly those two instantiations
/// exist, and all `TRACKED` branches are resolved at compile time.
pub trait IdPayload:
    Copy + PartialEq + std::fmt::Debug + Default + private::Sealed + 'static
{
    /// Whether this payload carries arena edge IDs (drives the arena
    /// bookkeeping; const-folded per instantiation).
    const TRACKED: bool;
    /// Wraps a freshly minted arena ID.
    fn from_id(id: EdgeId) -> Self;
    /// Unwraps the arena ID (meaningless for untracked payloads; only
    /// reachable behind `TRACKED` branches).
    fn id(self) -> EdgeId;
}

mod private {
    /// Seals [`super::IdPayload`] to `EdgeId` and `()`.
    pub trait Sealed {}
    impl Sealed for super::EdgeId {}
    impl Sealed for () {}
}

impl IdPayload for EdgeId {
    const TRACKED: bool = true;

    #[inline]
    fn from_id(id: EdgeId) -> Self {
        id
    }

    #[inline]
    fn id(self) -> EdgeId {
        self
    }
}

impl IdPayload for () {
    const TRACKED: bool = false;

    #[inline]
    fn from_id(_: EdgeId) -> Self {}

    #[inline]
    fn id(self) -> EdgeId {
        0
    }
}

/// A common neighbour `w` of a vertex pair `(u, v)` together with the
/// IDs of the two edges connecting it: `eu` is the ID of `(u, w)` and
/// `ev` the ID of `(v, w)` (with respect to the argument order of the
/// query that produced it).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct CommonEdge {
    /// The common neighbour.
    pub w: Vertex,
    /// ID of the edge between the first query vertex and `w`.
    pub eu: EdgeId,
    /// ID of the edge between the second query vertex and `w`.
    pub ev: EdgeId,
}

/// The serializable layout of an [`AdjacencyBase`]: every neighbourhood's
/// dense slot order verbatim, plus the edge-ID arena's free list.
///
/// Slot order is *observable* state — enumeration emits in dense slot
/// order and the estimators' floating-point sums are evaluated in
/// emission order — so a snapshot that re-sorted neighbourhoods would
/// restore a graph whose future estimates diverge bit-wise from the
/// original. [`AdjacencyBase::layout_snapshot`] therefore copies each
/// `items` array slot-for-slot, and [`AdjacencyBase::from_layout`]
/// replays it verbatim.
///
/// The vertex list itself is sorted by vertex id: the hash map that
/// holds the neighbourhoods has no observable order on the event path
/// (per-vertex lookups only), so the snapshot canonicalises it — two
/// graphs in the same live state produce byte-identical layouts
/// regardless of their map histories.
///
/// Purely derived acceleration state (the hash indexes) is not captured;
/// restore re-attaches it from the current degree. That changes probing
/// strategy only, never emission order.
#[derive(Clone, Debug, PartialEq)]
pub struct AdjacencyLayout {
    /// Per vertex (ascending by id): its neighbours and connecting edge
    /// IDs in dense slot order. IDs are all zero for untracked payloads.
    pub vertices: Vec<(Vertex, Vec<(Vertex, EdgeId)>)>,
    /// The arena free list, LIFO order verbatim — it decides which IDs
    /// future inserts mint. Empty for untracked payloads.
    pub free: Vec<EdgeId>,
    /// Exclusive upper bound of the ID space (`endpoints.len()`); the
    /// live IDs and `free` partition `0..id_bound` exactly. Zero for
    /// untracked payloads.
    pub id_bound: u32,
}

/// Neighbourhood size up to which the `(neighbour, edge id)` slots are
/// kept inline in the vertex-table entry; the next neighbour moves them
/// to heap arrays. Three slots are what fit in the space of the heap
/// form's two `Vec`s for both payloads, so inlining costs the 56-byte
/// set no size.
pub const INLINE: usize = 3;

/// Neighbourhood size beyond which a hash index is attached for O(1)
/// membership probes. Below it, linear scans over the dense array win on
/// real hardware (no hashing, no pointer chase).
pub const SPILL_THRESHOLD: usize = 16;

/// The dense `(neighbour, payload)` slots of one neighbourhood, in
/// insertion order as permuted by `swap_remove` backfills. Both forms
/// implement the same `push` / `swap_remove` semantics, so slot order —
/// and with it emission order, mirror slots and layout snapshots — does
/// not depend on which form a set is in.
#[derive(Clone, Debug)]
enum Slots<P: IdPayload> {
    /// Up to [`INLINE`] slots inside the vertex-table entry itself:
    /// creating, scanning and pruning the vertex touch no heap memory.
    Inline { len: u8, items: [Vertex; INLINE], ids: [P; INLINE] },
    /// Parallel heap arrays, from the `INLINE + 1`-th neighbour on;
    /// `ids[i]` is the payload of the edge to `items[i]` (for `P = ()` a
    /// `Vec<()>` — a length with no storage). A set that moved here stays
    /// here, as the index does.
    Heap { items: Vec<Vertex>, ids: Vec<P> },
}

impl<P: IdPayload> Default for Slots<P> {
    fn default() -> Self {
        Slots::Inline { len: 0, items: [0; INLINE], ids: [P::default(); INLINE] }
    }
}

impl<P: IdPayload> Slots<P> {
    /// The slots of a restored neighbourhood, verbatim, in the form its
    /// degree calls for.
    fn from_entries(entries: &[(Vertex, EdgeId)]) -> Self {
        if entries.len() <= INLINE {
            let mut slots = Self::default();
            for &(w, id) in entries {
                slots.push(w, P::from_id(id));
            }
            slots
        } else {
            Slots::Heap {
                items: entries.iter().map(|&(w, _)| w).collect(),
                ids: entries.iter().map(|&(_, id)| P::from_id(id)).collect(),
            }
        }
    }

    #[inline]
    fn items(&self) -> &[Vertex] {
        match self {
            Slots::Inline { len, items, .. } => &items[..usize::from(*len)],
            Slots::Heap { items, .. } => items,
        }
    }

    #[inline]
    fn ids(&self) -> &[P] {
        match self {
            Slots::Inline { len, ids, .. } => &ids[..usize::from(*len)],
            Slots::Heap { ids, .. } => ids,
        }
    }

    #[inline]
    fn len(&self) -> usize {
        match self {
            Slots::Inline { len, .. } => usize::from(*len),
            Slots::Heap { items, .. } => items.len(),
        }
    }

    /// Appends a slot, moving the set to the heap when the inline slots
    /// are full.
    #[inline]
    fn push(&mut self, v: Vertex, id: P) {
        match self {
            Slots::Inline { len, items, ids } if usize::from(*len) < INLINE => {
                items[usize::from(*len)] = v;
                ids[usize::from(*len)] = id;
                *len += 1;
            }
            Slots::Inline { items, ids, .. } => {
                let mut heap_items = Vec::with_capacity(2 * INLINE);
                heap_items.extend_from_slice(items);
                heap_items.push(v);
                let mut heap_ids = Vec::with_capacity(2 * INLINE);
                heap_ids.extend_from_slice(ids);
                heap_ids.push(id);
                *self = Slots::Heap { items: heap_items, ids: heap_ids };
            }
            Slots::Heap { items, ids } => {
                items.push(v);
                ids.push(id);
            }
        }
    }

    /// Removes slot `pos` with `Vec::swap_remove` semantics (the last
    /// slot moves into `pos`), returning the removed payload.
    #[inline]
    fn swap_remove(&mut self, pos: usize) -> P {
        match self {
            Slots::Inline { len, items, ids } => {
                let n = usize::from(*len);
                assert!(pos < n, "swap_remove of slot {pos} in a set of {n}");
                let id = ids[pos];
                items[pos] = items[n - 1];
                ids[pos] = ids[n - 1];
                *len -= 1;
                id
            }
            Slots::Heap { items, ids } => {
                items.swap_remove(pos);
                ids.swap_remove(pos)
            }
        }
    }
}

/// One vertex's neighbourhood: its dense [`Slots`], plus a hash position
/// index past [`SPILL_THRESHOLD`].
#[derive(Clone, Default, Debug)]
struct NeighborSet<P: IdPayload> {
    slots: Slots<P>,
    /// vertex → slot in `items`; `Some` once spilled (kept for the rest
    /// of the set's life — churn around the threshold must not thrash).
    /// Boxed so the unspilled majority pays a niche-packed pointer, not
    /// 40 inline bytes, keeping the per-set footprint — and so the
    /// vertex table every `adj.get` walks — small.
    index: Option<Box<FxHashMap<Vertex, u32>>>,
}

// The set lives inline in the vertex table, so its size is what every
// vertex lookup pays for: 56 bytes whichever the payload, so a table
// slot with its `u64` key is 64 bytes.
const _: () = assert!(
    std::mem::size_of::<NeighborSet<EdgeId>>() == 56
        && std::mem::size_of::<NeighborSet<()>>() == 56
);

impl<P: IdPayload> NeighborSet<P> {
    /// A restored neighbourhood: the recorded slots verbatim, with the
    /// hash index attached if its degree calls for one.
    fn from_entries(entries: &[(Vertex, EdgeId)]) -> Self {
        let slots = Slots::from_entries(entries);
        let index = (slots.len() > SPILL_THRESHOLD).then(|| {
            Box::new(slots.items().iter().enumerate().map(|(i, &w)| (w, i as u32)).collect())
        });
        Self { slots, index }
    }

    #[inline]
    fn len(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The neighbours in dense slot order.
    #[inline]
    fn items(&self) -> &[Vertex] {
        self.slots.items()
    }

    /// The payloads, parallel to [`NeighborSet::items`].
    #[inline]
    fn ids(&self) -> &[P] {
        self.slots.ids()
    }

    /// Slot of `v`, if present.
    ///
    /// Unspilled sets screen with `contains` before locating the slot:
    /// the membership scan vectorises (no index to carry), and probe
    /// workloads — the common-neighbour intersections — are miss-heavy,
    /// so the extra position pass runs only on the rare hit.
    #[inline]
    fn find(&self, v: Vertex) -> Option<usize> {
        match &self.index {
            Some(idx) => idx.get(&v).map(|&i| i as usize),
            None => {
                let items = self.items();
                if items.contains(&v) {
                    items.iter().position(|&w| w == v)
                } else {
                    None
                }
            }
        }
    }

    /// The payload of the edge to `v`, if present. For untracked
    /// payloads this is a pure membership probe — the slot resolution is
    /// compiled away.
    #[inline]
    fn find_payload(&self, v: Vertex) -> Option<P> {
        if P::TRACKED {
            self.find(v).map(|i| self.ids()[i])
        } else if self.contains(v) {
            Some(P::default())
        } else {
            None
        }
    }

    #[inline]
    fn contains(&self, v: Vertex) -> bool {
        match &self.index {
            Some(idx) => idx.contains_key(&v),
            None => self.items().contains(&v),
        }
    }

    /// Whether some neighbour occupies two slots — corrupt state that
    /// only a forged layout can produce. Linear past the spill threshold
    /// (the index collapses duplicates), quadratic below it.
    fn has_duplicate(&self) -> bool {
        match &self.index {
            Some(idx) => idx.len() != self.len(),
            None => {
                let items = self.items();
                items.iter().enumerate().any(|(i, w)| items[..i].contains(w))
            }
        }
    }

    /// Appends `(v, id)`; the caller guarantees `v` is absent.
    fn push_unchecked(&mut self, v: Vertex, id: P) {
        debug_assert!(!self.contains(v), "push_unchecked of a present neighbour");
        if let Some(idx) = &mut self.index {
            idx.insert(v, self.slots.len() as u32);
        }
        self.slots.push(v, id);
        self.note_insert();
    }

    /// Inserts `(v, id)` unless `v` is already present; the duplicate
    /// check and the insertion share one probe. Returns `true` on insert.
    fn insert_checked(&mut self, v: Vertex, id: P) -> bool {
        match &mut self.index {
            Some(idx) => {
                if idx.contains_key(&v) {
                    return false;
                }
                idx.insert(v, self.slots.len() as u32);
                self.slots.push(v, id);
                self.note_insert();
                true
            }
            None => {
                if self.items().contains(&v) {
                    return false;
                }
                self.push_unchecked(v, id);
                true
            }
        }
    }

    /// Post-insert bookkeeping: attach the index when the set crosses
    /// [`SPILL_THRESHOLD`].
    #[inline]
    fn note_insert(&mut self) {
        if self.index.is_none() && self.len() > SPILL_THRESHOLD {
            self.index = Some(Box::new(
                self.items().iter().enumerate().map(|(i, &w)| (w, i as u32)).collect(),
            ));
        }
    }

    /// Removes `v`, returning the stored payload if it was present.
    fn remove(&mut self, v: Vertex) -> Option<P> {
        let pos = match &mut self.index {
            Some(idx) => idx.remove(&v)? as usize,
            None => self.items().iter().position(|&w| w == v)?,
        };
        let id = self.slots.swap_remove(pos);
        if let (Some(idx), Some(&moved)) = (&mut self.index, self.slots.items().get(pos)) {
            idx.insert(moved, pos as u32);
        }
        Some(id)
    }

    /// Removes the entry at `pos` (the caller already resolved the
    /// slot, e.g. through the arena's mirror table), returning the
    /// `(vertex, payload)` that `swap_remove` backfilled into `pos`, if
    /// any — the caller re-points that edge's mirror entry. Performs
    /// exactly the dense-array / index mutations of
    /// [`NeighborSet::remove`], so slot layouts (and everything
    /// downstream that observes them) are independent of which removal
    /// path ran.
    fn swap_remove_at(&mut self, pos: usize) -> Option<(Vertex, P)> {
        if let Some(idx) = &mut self.index {
            idx.remove(&self.slots.items()[pos]);
        }
        self.slots.swap_remove(pos);
        let moved = self.items().get(pos).map(|&w| (w, self.ids()[pos]));
        if let (Some(idx), Some((w, _))) = (&mut self.index, moved) {
            idx.insert(w, pos as u32);
        }
        moved
    }
}

/// A dynamic, undirected, simple-graph adjacency structure, generic over
/// the per-edge [`IdPayload`]. Use the [`Adjacency`] (arena-tracked) or
/// [`VertexAdjacency`] (ID-free) aliases.
///
/// Vertices with no incident edges are pruned eagerly so the memory
/// footprint tracks the number of live edges — important for reservoirs
/// whose content churns over millions of events.
#[derive(Clone, Default, Debug)]
pub struct AdjacencyBase<P: IdPayload> {
    adj: FxHashMap<Vertex, NeighborSet<P>>,
    num_edges: usize,
    /// Arena: endpoints per edge ID. Entries of freed IDs are stale until
    /// the ID is recycled. Untouched (empty) when `P` is untracked.
    endpoints: Vec<Edge>,
    /// Arena mirror table: `mirror[id] = [slot of v in u's set, slot of
    /// u in v's set]` for the live edge `(u, v) = endpoints[id]` (`u <
    /// v` canonical). Maintained through every insert and `swap_remove`
    /// backfill, it makes removals *find-free*: a removal by ID reads
    /// both slots directly, a removal by edge resolves one endpoint's
    /// slot and mirrors the other. Parallel to `endpoints`; untouched
    /// when `P` is untracked.
    mirror: Vec<[u32; 2]>,
    /// Freed IDs awaiting recycling (LIFO, so the ID space stays dense).
    free: Vec<EdgeId>,
}

/// The arena-tracked adjacency: every live edge owns a dense recycled
/// [`EdgeId`], and the intersection kernels surface partner IDs.
pub type Adjacency = AdjacencyBase<EdgeId>;

/// The ID-free adjacency for count-only algorithms: same neighbour
/// storage, hash index and intersection kernel, but no arena and no
/// per-entry ID array — insert/remove touch exactly one `Vec<Vertex>`
/// per direction.
pub type VertexAdjacency = AdjacencyBase<()>;

impl<P: IdPayload> AdjacencyBase<P> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Number of vertices with at least one incident edge.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    /// True if the graph has no edges.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.num_edges == 0
    }

    /// Inserts an edge. Returns `true` if the edge was not already
    /// present. For [`VertexAdjacency`] this is the whole story; for
    /// [`Adjacency`] it also mints an arena ID (see
    /// [`Adjacency::insert_full`]).
    #[inline]
    pub fn insert(&mut self, e: Edge) -> bool {
        self.insert_impl(e).is_some()
    }

    fn insert_impl(&mut self, e: Edge) -> Option<EdgeId> {
        let (u, v) = e.endpoints();
        // Peek the ID the arena will assign, so the duplicate check and
        // the forward insertion share a single probe of u's set.
        let id: EdgeId = if P::TRACKED {
            match self.free.last() {
                Some(&id) => id,
                None => EdgeId::try_from(self.endpoints.len()).expect("edge-ID arena overflow"),
            }
        } else {
            0
        };
        let u_set = self.adj.entry(u).or_default();
        if !u_set.insert_checked(v, P::from_id(id)) {
            return None;
        }
        let u_slot = u_set.len() - 1;
        let v_set = self.adj.entry(v).or_default();
        let v_slot = v_set.len();
        v_set.push_unchecked(u, P::from_id(id));
        if P::TRACKED {
            // Commit the mint.
            match self.free.pop() {
                Some(_) => {
                    self.endpoints[id as usize] = e;
                    self.mirror[id as usize] = [u_slot as u32, v_slot as u32];
                }
                None => {
                    self.endpoints.push(e);
                    self.mirror.push([u_slot as u32, v_slot as u32]);
                }
            }
        }
        self.num_edges += 1;
        Some(id)
    }

    /// Removes an edge. Returns `true` if the edge was present.
    #[inline]
    pub fn remove(&mut self, e: Edge) -> bool {
        self.remove_impl(e).is_some()
    }

    /// One vertex-table lookup per endpoint. u's is a plain `get_mut`:
    /// the edge may be absent, and an `entry` on an absent key reserves
    /// room for an insert first, so a removal of an absent edge could
    /// grow the table. u is therefore pruned by key, the one case that
    /// costs a third lookup. v is present whenever the edge is, so its
    /// entry detaches and prunes.
    fn remove_impl(&mut self, e: Edge) -> Option<EdgeId> {
        let (u, v) = e.endpoints();
        let u_set = self.adj.get_mut(&u)?;
        if P::TRACKED {
            // One find on u's side resolves the slot and the ID; the
            // mirror table hands over v's slot for free.
            let u_slot = u_set.find(v)?;
            let id = u_set.ids()[u_slot].id();
            let v_slot = self.mirror[id as usize][1] as usize;
            if Self::detach(u_set, u, u_slot, &self.endpoints, &mut self.mirror) {
                self.adj.remove(&u);
            }
            self.detach_present(v, v_slot);
            self.free.push(id);
            self.num_edges -= 1;
            return Some(id);
        }
        let id = u_set.remove(v)?;
        if u_set.is_empty() {
            self.adj.remove(&u);
        }
        let Entry::Occupied(mut v_entry) = self.adj.entry(v) else {
            panic!("adjacency symmetry violated: missing reverse entry");
        };
        let id2 = v_entry
            .get_mut()
            .remove(u)
            .expect("adjacency symmetry violated: missing reverse neighbour");
        debug_assert_eq!(id, id2, "edge ID asymmetry for {e:?}");
        if v_entry.get().is_empty() {
            v_entry.remove();
        }
        self.num_edges -= 1;
        Some(id.id())
    }

    /// Drops slot `pos` of `set` — `x`'s neighbourhood — re-pointing the
    /// mirror entry of whichever edge `swap_remove` backfilled into the
    /// slot, and returns whether the set emptied; the caller prunes `x`
    /// through the lookup it already holds. Tracked arenas only (the
    /// mirror table is what makes the slot known without a find).
    fn detach(
        set: &mut NeighborSet<P>,
        x: Vertex,
        pos: usize,
        endpoints: &[Edge],
        mirror: &mut [[u32; 2]],
    ) -> bool {
        debug_assert!(P::TRACKED, "detach requires the arena mirror table");
        if let Some((_, moved)) = set.swap_remove_at(pos) {
            let m = moved.id() as usize;
            // The backfilled slot belongs to edge m's x-side: re-point
            // whichever half of its mirror entry names x.
            let side = usize::from(endpoints[m].u() != x);
            mirror[m][side] = pos as u32;
            false
        } else {
            set.is_empty()
        }
    }

    /// [`AdjacencyBase::detach`] on a vertex that symmetry guarantees is
    /// present: one entry lookup finds, detaches and prunes it.
    fn detach_present(&mut self, x: Vertex, pos: usize) {
        let Entry::Occupied(mut entry) = self.adj.entry(x) else {
            panic!("adjacency symmetry violated: missing entry");
        };
        if Self::detach(entry.get_mut(), x, pos, &self.endpoints, &mut self.mirror) {
            entry.remove();
        }
    }

    /// True if the edge is present.
    #[inline]
    pub fn contains(&self, e: Edge) -> bool {
        let (u, v) = e.endpoints();
        self.adj.get(&u).is_some_and(|s| s.contains(v))
    }

    /// True if `u` and `v` are adjacent (order-insensitive; false for `u == v`).
    #[inline]
    pub fn adjacent(&self, u: Vertex, v: Vertex) -> bool {
        u != v && self.adj.get(&u).is_some_and(|s| s.contains(v))
    }

    /// Degree of `x` (0 if unknown).
    #[inline]
    pub fn degree(&self, x: Vertex) -> usize {
        self.adj.get(&x).map_or(0, NeighborSet::len)
    }

    /// The neighbours of `x` as a dense slice (empty if unknown).
    ///
    /// This is the allocation-free view the enumeration hot paths walk;
    /// order is unspecified but deterministic for a given event history.
    #[inline]
    pub fn neighbor_slice(&self, x: Vertex) -> &[Vertex] {
        self.adj.get(&x).map_or(&[], NeighborSet::items)
    }

    /// Iterates the neighbours of `x`.
    pub fn neighbors(&self, x: Vertex) -> impl Iterator<Item = Vertex> + '_ {
        self.neighbor_slice(x).iter().copied()
    }

    /// Iterates the vertices with at least one incident edge.
    pub fn vertices(&self) -> impl Iterator<Item = Vertex> + '_ {
        self.adj.keys().copied()
    }

    /// Iterates all live edges (each once, in canonical form) in the
    /// vertex table's hash order, which depends on the table's history:
    /// sort them wherever the order can reach a result.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.adj.iter().flat_map(|(&u, set)| {
            set.items().iter().copied().filter(move |&v| u < v).map(move |v| Edge::new(u, v))
        })
    }

    /// The shared intersection kernel: calls `f(w, pu, pv)` for each
    /// common neighbour `w` of `u` and `v` with the payloads of `(u, w)`
    /// and `(v, w)`, returning `(deg u, deg v)`.
    ///
    /// Walks the smaller side's dense array in slot order and probes the
    /// larger (hash index if spilled, linear scan below the threshold),
    /// so it emits in the smaller side's dense slot order (its insertion
    /// order as permuted by `swap_remove` deletions): the floating-point
    /// accumulation order downstream, which the golden tests pin
    /// bit-for-bit.
    #[inline]
    fn for_each_common_entry(
        &self,
        u: Vertex,
        v: Vertex,
        mut f: impl FnMut(Vertex, P, P),
    ) -> (usize, usize) {
        let (nu, nv) = (self.adj.get(&u), self.adj.get(&v));
        let (Some(nu), Some(nv)) = (nu, nv) else {
            // The lookups above already know the degrees: an absent
            // endpoint has none.
            return (nu.map_or(0, NeighborSet::len), nv.map_or(0, NeighborSet::len));
        };
        let u_is_small = nu.len() <= nv.len();
        let (small, large) = if u_is_small { (nu, nv) } else { (nv, nu) };
        let small_ids = small.ids();
        for (i, &w) in small.items().iter().enumerate() {
            if let Some(p) = large.find_payload(w) {
                if u_is_small {
                    f(w, small_ids[i], p);
                } else {
                    f(w, p, small_ids[i]);
                }
            }
        }
        (nu.len(), nv.len())
    }

    /// Calls `f` for each common neighbour of `u` and `v`.
    ///
    /// Runs on the shared intersection kernel; for untracked payloads the
    /// probes are pure membership tests (no slot resolution). See
    /// [`Adjacency::for_each_common_edge`] for the ID-carrying variant.
    #[inline]
    pub fn for_each_common_neighbor(&self, u: Vertex, v: Vertex, mut f: impl FnMut(Vertex)) {
        self.for_each_common_entry(u, v, |w, _, _| f(w));
    }

    /// A reusable handle on `x`'s neighbourhood for repeated probes
    /// against the *same* vertex — e.g. the 4-clique kernels, which test
    /// one common neighbour against every later one. Resolving the
    /// vertex's set once turns O(k) hash probes into one probe plus
    /// O(k) dense membership scans.
    #[inline]
    pub fn neighborhood(&self, x: Vertex) -> Neighborhood<'_, P> {
        Neighborhood(self.adj.get(&x))
    }

    /// Collects the common neighbours of `u` and `v` into `out` (cleared
    /// first). Using a caller-provided buffer avoids per-event allocation
    /// in the hot enumeration loops.
    pub fn common_neighbors_into(&self, u: Vertex, v: Vertex, out: &mut Vec<Vertex>) {
        out.clear();
        self.for_each_common_neighbor(u, v, |w| out.push(w));
    }

    /// Number of common neighbours of `u` and `v`.
    pub fn common_neighbor_count(&self, u: Vertex, v: Vertex) -> usize {
        let mut n = 0;
        self.for_each_common_neighbor(u, v, |_| n += 1);
        n
    }

    /// Removes all edges and vertices (and resets the ID arena).
    pub fn clear(&mut self) {
        self.adj.clear();
        self.num_edges = 0;
        self.endpoints.clear();
        self.mirror.clear();
        self.free.clear();
    }

    /// Debug-only structural invariant check: symmetry, no self-loops,
    /// the edge counter matching the stored sets, index coherence of
    /// spilled neighbourhoods, and — for tracked payloads — arena
    /// coherence (ID symmetry, endpoint agreement, and exact live/free
    /// partition of the ID space).
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let mut half_edges = 0usize;
        let mut live_ids = std::collections::BTreeSet::new();
        for (&u, set) in &self.adj {
            assert!(!set.is_empty(), "vertex {u} retained with empty set");
            assert_eq!(set.items().len(), set.ids().len(), "parallel array drift at {u}");
            if let Some(idx) = &set.index {
                assert!(matches!(set.slots, Slots::Heap { .. }), "indexed inline set at {u}");
                assert_eq!(idx.len(), set.len(), "index size drift at {u}");
                for (i, &w) in set.items().iter().enumerate() {
                    assert_eq!(
                        idx.get(&w).copied(),
                        Some(i as u32),
                        "index out of sync at {u} slot {i}"
                    );
                }
            }
            for (i, &v) in set.items().iter().enumerate() {
                assert_ne!(u, v, "self-loop stored at {u}");
                let rev = self.adj.get(&v).expect("asymmetric edge");
                let j = rev.find(u).unwrap_or_else(|| panic!("asymmetric edge {u}-{v}"));
                if P::TRACKED {
                    let id = set.ids()[i].id();
                    assert_eq!(rev.ids()[j].id(), id, "edge ID asymmetry on {u}-{v}");
                    assert_eq!(
                        self.endpoints[id as usize],
                        Edge::new(u, v),
                        "arena endpoints out of sync for id {id}"
                    );
                    let side = usize::from(u > v);
                    assert_eq!(
                        self.mirror[id as usize][side] as usize, i,
                        "mirror slot out of sync for id {id} at {u}"
                    );
                    if u < v {
                        assert!(live_ids.insert(id), "edge ID {id} stored for two edges");
                    }
                }
            }
            half_edges += set.len();
        }
        assert_eq!(half_edges % 2, 0);
        assert_eq!(self.num_edges, half_edges / 2, "edge counter drift");
        if P::TRACKED {
            let free: std::collections::BTreeSet<_> = self.free.iter().copied().collect();
            assert_eq!(free.len(), self.free.len(), "duplicate IDs on the free list");
            assert!(free.iter().all(|id| (*id as usize) < self.endpoints.len()));
            assert!(live_ids.is_disjoint(&free), "freed ID still live");
            assert_eq!(
                live_ids.len() + free.len(),
                self.endpoints.len(),
                "ID space is not exactly partitioned into live and free"
            );
        } else {
            assert!(self.endpoints.is_empty() && self.free.is_empty(), "untracked arena touched");
        }
    }

    /// Captures the observable layout of the graph — every
    /// neighbourhood's dense slot order verbatim, plus the arena free
    /// list — in the canonical (vertex-sorted) form described on
    /// [`AdjacencyLayout`].
    pub fn layout_snapshot(&self) -> AdjacencyLayout {
        let mut vertices: Vec<(Vertex, Vec<(Vertex, EdgeId)>)> = self
            .adj
            .iter()
            .map(|(&u, set)| {
                let slots = set.items().iter().zip(set.ids()).map(|(&w, &p)| (w, p.id())).collect();
                (u, slots)
            })
            .collect();
        vertices.sort_unstable_by_key(|&(u, _)| u);
        AdjacencyLayout {
            vertices,
            free: self.free.clone(),
            id_bound: u32::try_from(self.endpoints.len()).expect("edge-ID arena overflow"),
        }
    }

    /// Rebuilds a graph from a [`layout_snapshot`]: every neighbourhood
    /// re-materialises in the recorded slot order, the arena re-derives
    /// its endpoint and mirror tables from the per-slot IDs, and the
    /// free list is replayed verbatim so future ID mints match the
    /// original graph's. The hash indexes are re-attached from the
    /// current degree.
    ///
    /// [`layout_snapshot`]: AdjacencyBase::layout_snapshot
    ///
    /// # Panics
    ///
    /// Panics if the layout is not a simple undirected graph: a vertex
    /// listed twice or without neighbours, a self-loop, a neighbour
    /// listed twice, or a half-edge without its reverse. For tracked
    /// payloads it also panics unless every ID below `id_bound` names
    /// one edge from both of its sides or sits on the free list exactly
    /// once. The check is O(E) and runs in release builds too: layouts
    /// arrive in snapshot blobs, and a restore that accepted a corrupt
    /// one would go on running on it.
    pub fn from_layout(layout: &AdjacencyLayout) -> Self {
        // `seen[id]` marks which sides of its edge have named an ID
        // (bit `side`, as in the mirror table), or that it is free.
        const BOTH_SIDES: u8 = 0b11;
        const FREE: u8 = 0b100;
        let mut adj =
            FxHashMap::with_capacity_and_hasher(layout.vertices.len(), Default::default());
        let mut half_edges = 0usize;
        let bound = if P::TRACKED { layout.id_bound as usize } else { 0 };
        if P::TRACKED {
            // Live and free IDs partition `0..id_bound` exactly (checked
            // in full below); counting them first also keeps a forged
            // bound from sizing the arena tables beyond the layout.
            let live: usize =
                layout.vertices.iter().map(|(_, slots)| slots.len()).sum::<usize>() / 2;
            assert_eq!(bound, live + layout.free.len(), "layout id_bound disagrees with its IDs");
        }
        // Arena tables sized to the exact recorded bound; slots of freed
        // IDs stay at these placeholders — they are never read before
        // the ID is recycled (and rewritten) by a future insert.
        let mut endpoints = vec![Edge::new(0, 1); bound];
        let mut mirror = vec![[0u32; 2]; bound];
        let mut seen = vec![0u8; bound];
        for (u, slots) in &layout.vertices {
            assert!(!slots.is_empty(), "adjacency layout lists vertex {u} without neighbours");
            for (slot, &(w, id)) in slots.iter().enumerate() {
                assert_ne!(*u, w, "self-loop in adjacency layout");
                if P::TRACKED {
                    assert!((id as usize) < bound, "layout edge ID {id} beyond id_bound");
                    let (id, side, e) = (id as usize, usize::from(*u > w), Edge::new(*u, w));
                    if seen[id] == 0 {
                        endpoints[id] = e;
                    }
                    assert_eq!(endpoints[id], e, "layout edge ID {id} names two edges");
                    assert_eq!(seen[id] & (1 << side), 0, "layout edge ID {id} repeats a side");
                    seen[id] |= 1 << side;
                    mirror[id][side] = slot as u32;
                }
            }
            let set = NeighborSet::<P>::from_entries(slots);
            assert!(!set.has_duplicate(), "adjacency layout lists a neighbour of {u} twice");
            half_edges += set.len();
            assert!(adj.insert(*u, set).is_none(), "adjacency layout lists vertex {u} twice");
        }
        if P::TRACKED {
            for &id in &layout.free {
                assert!((id as usize) < bound, "free edge ID {id} beyond id_bound");
                assert_eq!(seen[id as usize], 0, "free edge ID {id} is live or listed twice");
                seen[id as usize] = FREE;
            }
            if let Some(id) = seen.iter().position(|&s| s != BOTH_SIDES && s != FREE) {
                panic!("layout edge ID {id} is neither a whole edge nor free");
            }
        } else {
            // No IDs pair the halves up: look each reverse half up.
            for (&u, set) in &adj {
                for &w in set.items() {
                    assert!(
                        adj.get(&w).is_some_and(|rev| rev.contains(u)),
                        "asymmetric adjacency layout: {u}-{w} has no reverse"
                    );
                }
            }
        }
        let restored = Self {
            adj,
            num_edges: half_edges / 2,
            endpoints,
            mirror,
            free: if P::TRACKED { layout.free.clone() } else { Vec::new() },
        };
        if cfg!(debug_assertions) {
            restored.check_invariants();
        }
        restored
    }
}

impl Adjacency {
    /// Exclusive upper bound on the currently live edge IDs: every ID
    /// returned by [`Adjacency::insert_full`] or stored in the
    /// neighbourhood arrays is `< id_bound()`. Use it to size dense side
    /// arrays indexed by [`EdgeId`].
    #[inline]
    pub fn id_bound(&self) -> usize {
        self.endpoints.len()
    }

    /// Inserts an edge, returning its freshly minted arena ID (`None` if
    /// the edge was already present). IDs of removed edges are recycled.
    pub fn insert_full(&mut self, e: Edge) -> Option<EdgeId> {
        self.insert_impl(e)
    }

    /// Removes an edge, returning the arena ID it held (now freed for
    /// recycling) if it was present.
    pub fn remove_full(&mut self, e: Edge) -> Option<EdgeId> {
        self.remove_impl(e)
    }

    /// Removes a live edge by its arena ID — the reservoir eviction
    /// path — returning its endpoints. *Find-free*: both neighbour-set
    /// slots come straight from the mirror table, and each endpoint
    /// costs one vertex-table lookup, pruning included.
    ///
    /// # Panics
    ///
    /// The ID must be live (obtained from this graph and not removed
    /// since); a stale ID would silently remove the wrong edge, so the
    /// slot/endpoint cross-check stays on in release builds (one array
    /// load — far cheaper than the find scan it replaced).
    pub fn remove_by_id(&mut self, id: EdgeId) -> Edge {
        let e = self.endpoints[id as usize];
        let (u, v) = e.endpoints();
        let [u_slot, v_slot] = self.mirror[id as usize];
        // The stale-ID cross-check rides on u's lookup: a live ID's
        // u-side slot names v.
        let Entry::Occupied(mut u_entry) = self.adj.entry(u) else {
            panic!("remove_by_id of a stale edge ID");
        };
        assert_eq!(
            u_entry.get().items().get(u_slot as usize),
            Some(&v),
            "remove_by_id of a stale edge ID"
        );
        if Self::detach(u_entry.get_mut(), u, u_slot as usize, &self.endpoints, &mut self.mirror) {
            u_entry.remove();
        }
        self.detach_present(v, v_slot as usize);
        self.free.push(id);
        self.num_edges -= 1;
        e
    }

    /// The arena ID of a live edge, if present.
    #[inline]
    pub fn edge_id(&self, e: Edge) -> Option<EdgeId> {
        let (u, v) = e.endpoints();
        self.edge_id_between(u, v)
    }

    /// The arena ID of the edge between `a` and `b`, if present
    /// (order-insensitive; `None` for `a == b`). One membership probe —
    /// the ID rides along with the slot the probe finds.
    #[inline]
    pub fn edge_id_between(&self, a: Vertex, b: Vertex) -> Option<EdgeId> {
        if a == b {
            return None;
        }
        self.adj.get(&a)?.find_payload(b)
    }

    /// The endpoints of a live edge ID.
    ///
    /// The ID must be live (obtained from this graph and not removed
    /// since); stale IDs return arbitrary previously stored endpoints.
    #[inline]
    pub fn edge_endpoints(&self, id: EdgeId) -> Edge {
        self.endpoints[id as usize]
    }

    /// The neighbours of `x` and the IDs of the connecting edges, as
    /// parallel dense slices (`ids[i]` is the ID of `(x, vertices[i])`).
    #[inline]
    pub fn neighbor_entries(&self, x: Vertex) -> (&[Vertex], &[EdgeId]) {
        self.adj.get(&x).map_or((&[], &[]), |s| (s.items(), s.ids()))
    }

    /// Calls `f(w, id(u,w), id(v,w))` for each common neighbour `w` of
    /// `u` and `v`, returning `(deg u, deg v)`.
    ///
    /// This is the ID-carrying face of the shared intersection kernel (see
    /// [`AdjacencyBase::for_each_common_neighbor`]): the edge IDs ride
    /// along with the slots the intersection touches anyway, so
    /// surfacing them is free — the zero-hash path the estimators
    /// enumerate partner edges through. The degrees are a free
    /// by-product of the two vertex lookups the intersection performs
    /// regardless; callers that need them (the state extraction of
    /// Eq. 19–22) avoid two further hash probes.
    #[inline]
    pub fn for_each_common_edge(
        &self,
        u: Vertex,
        v: Vertex,
        f: impl FnMut(Vertex, EdgeId, EdgeId),
    ) -> (usize, usize) {
        self.for_each_common_entry(u, v, f)
    }

    /// Collects the common neighbours of `u` and `v` with their edge IDs
    /// into `out` (cleared first), returning `(deg u, deg v)`; `eu`/`ev`
    /// follow the `(u, v)` argument order.
    pub fn common_edges_into(
        &self,
        u: Vertex,
        v: Vertex,
        out: &mut Vec<CommonEdge>,
    ) -> (usize, usize) {
        out.clear();
        self.for_each_common_edge(u, v, |w, eu, ev| out.push(CommonEdge { w, eu, ev }))
    }
}

/// A borrowed view of one vertex's neighbourhood, for repeated probes
/// without re-resolving the vertex (see [`AdjacencyBase::neighborhood`]).
pub struct Neighborhood<'a, P: IdPayload = EdgeId>(Option<&'a NeighborSet<P>>);

impl<P: IdPayload> Copy for Neighborhood<'_, P> {}

impl<P: IdPayload> Clone for Neighborhood<'_, P> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<P: IdPayload> Neighborhood<'_, P> {
    /// Degree of the vertex (0 if it has no live edges).
    #[inline]
    pub fn len(&self) -> usize {
        self.0.map_or(0, NeighborSet::len)
    }

    /// True if the vertex has no live edges.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if `v` is a neighbour.
    #[inline]
    pub fn contains(&self, v: Vertex) -> bool {
        self.0.is_some_and(|s| s.contains(v))
    }
}

impl Neighborhood<'_, EdgeId> {
    /// The arena ID of the edge to `v`, if `v` is a neighbour.
    #[inline]
    pub fn id_of(&self, v: Vertex) -> Option<EdgeId> {
        self.0?.find_payload(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn insert_remove_roundtrip() {
        let mut g = Adjacency::new();
        let e = Edge::new(1, 2);
        assert!(g.insert(e));
        assert!(!g.insert(e), "duplicate insert must report false");
        assert!(g.contains(e));
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.num_vertices(), 2);
        assert!(g.remove(e));
        assert!(!g.remove(e), "duplicate remove must report false");
        assert!(!g.contains(e));
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.num_vertices(), 0, "isolated vertices must be pruned");
    }

    #[test]
    fn vertex_only_variant_tracks_no_arena() {
        let mut g = VertexAdjacency::new();
        assert!(g.insert(Edge::new(1, 2)));
        assert!(!g.insert(Edge::new(1, 2)));
        assert!(g.insert(Edge::new(2, 3)));
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(2), 2);
        assert_eq!(g.common_neighbor_count(1, 3), 1);
        g.check_invariants();
        assert!(g.remove(Edge::new(1, 2)));
        assert!(!g.remove(Edge::new(1, 2)));
        g.check_invariants();
    }

    #[test]
    fn ids_are_minted_and_recycled() {
        let mut g = Adjacency::new();
        let a = g.insert_full(Edge::new(1, 2)).unwrap();
        let b = g.insert_full(Edge::new(2, 3)).unwrap();
        assert_ne!(a, b);
        assert_eq!(g.insert_full(Edge::new(1, 2)), None, "duplicate yields no ID");
        assert_eq!(g.edge_id(Edge::new(1, 2)), Some(a));
        assert_eq!(g.edge_id_between(3, 2), Some(b));
        assert_eq!(g.edge_id_between(2, 2), None);
        assert_eq!(g.edge_endpoints(a), Edge::new(1, 2));
        assert_eq!(g.remove_full(Edge::new(1, 2)), Some(a));
        // LIFO recycling: the freed ID is handed to the next insertion.
        let c = g.insert_full(Edge::new(5, 6)).unwrap();
        assert_eq!(c, a);
        assert_eq!(g.edge_endpoints(c), Edge::new(5, 6));
        assert_eq!(g.id_bound(), 2, "ID space bounded by peak live edges");
        g.check_invariants();
    }

    #[test]
    fn neighbor_entries_are_parallel() {
        let mut g = Adjacency::new();
        let ids: Vec<EdgeId> =
            [2, 3, 4].iter().map(|&v| g.insert_full(Edge::new(1, v)).unwrap()).collect();
        let (vs, es) = g.neighbor_entries(1);
        assert_eq!(vs.len(), 3);
        assert_eq!(es.len(), 3);
        for (i, &v) in vs.iter().enumerate() {
            assert_eq!(g.edge_id(Edge::new(1, v)), Some(es[i]));
            assert!(ids.contains(&es[i]));
        }
        assert_eq!(g.neighbor_entries(99), (&[] as &[Vertex], &[] as &[EdgeId]));
    }

    #[test]
    fn degree_and_neighbors() {
        let mut g = Adjacency::new();
        for v in [2, 3, 4] {
            g.insert(Edge::new(1, v));
        }
        assert_eq!(g.degree(1), 3);
        assert_eq!(g.degree(2), 1);
        assert_eq!(g.degree(99), 0);
        let ns: BTreeSet<_> = g.neighbors(1).collect();
        assert_eq!(ns, BTreeSet::from([2, 3, 4]));
        assert_eq!(g.neighbors(99).count(), 0);
        assert_eq!(g.neighbor_slice(99), &[] as &[Vertex]);
        let mut slice: Vec<_> = g.neighbor_slice(1).to_vec();
        slice.sort_unstable();
        assert_eq!(slice, vec![2, 3, 4]);
    }

    #[test]
    fn common_neighbors() {
        // Triangle 1-2-3 plus pendant 4 on 1.
        let mut g = Adjacency::new();
        for (a, b) in [(1, 2), (2, 3), (1, 3), (1, 4)] {
            g.insert(Edge::new(a, b));
        }
        let mut buf = Vec::new();
        g.common_neighbors_into(1, 2, &mut buf);
        assert_eq!(buf, vec![3]);
        assert_eq!(g.common_neighbor_count(1, 2), 1);
        assert_eq!(g.common_neighbor_count(3, 4), 1); // via 1
        assert_eq!(g.common_neighbor_count(2, 4), 1); // via 1
        assert_eq!(g.common_neighbor_count(1, 99), 0);
    }

    #[test]
    fn common_edges_carry_correct_ids() {
        let mut g = Adjacency::new();
        for (a, b) in [(1, 2), (2, 3), (1, 3), (1, 4), (2, 4)] {
            g.insert(Edge::new(a, b));
        }
        let mut buf = Vec::new();
        g.common_edges_into(1, 2, &mut buf);
        assert_eq!(buf.len(), 2); // w ∈ {3, 4}
        for ce in &buf {
            assert_eq!(g.edge_id(Edge::new(1, ce.w)), Some(ce.eu), "eu must be (u,w)");
            assert_eq!(g.edge_id(Edge::new(2, ce.w)), Some(ce.ev), "ev must be (v,w)");
        }
        // Argument order flips the roles.
        let mut flipped = Vec::new();
        g.common_edges_into(2, 1, &mut flipped);
        for ce in &flipped {
            assert_eq!(g.edge_id(Edge::new(2, ce.w)), Some(ce.eu));
            assert_eq!(g.edge_id(Edge::new(1, ce.w)), Some(ce.ev));
        }
    }

    #[test]
    fn edges_iterator_yields_each_edge_once() {
        let mut g = Adjacency::new();
        let edges = [(1, 2), (2, 3), (1, 3), (4, 5)];
        for (a, b) in edges {
            g.insert(Edge::new(a, b));
        }
        let got: BTreeSet<_> = g.edges().collect();
        let want: BTreeSet<_> = edges.iter().map(|&(a, b)| Edge::new(a, b)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn adjacent_is_symmetric_and_loop_free() {
        let mut g = Adjacency::new();
        g.insert(Edge::new(1, 2));
        assert!(g.adjacent(1, 2));
        assert!(g.adjacent(2, 1));
        assert!(!g.adjacent(1, 1));
        assert!(!g.adjacent(1, 3));
    }

    #[test]
    fn clear_resets() {
        let mut g = Adjacency::new();
        g.insert(Edge::new(1, 2));
        g.clear();
        assert!(g.is_empty());
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.id_bound(), 0, "clear must reset the arena");
    }

    #[test]
    fn spill_to_indexed_storage_preserves_semantics() {
        // Grow a hub far past SPILL_THRESHOLD, then churn it.
        let mut g = Adjacency::new();
        let n = (3 * SPILL_THRESHOLD) as Vertex;
        for v in 1..=n {
            assert!(g.insert(Edge::new(0, v)));
        }
        assert_eq!(g.degree(0), n as usize);
        for v in 1..=n {
            assert!(g.adjacent(0, v));
        }
        g.check_invariants();
        // Remove every odd neighbour (exercises indexed swap_remove).
        for v in (1..=n).step_by(2) {
            assert!(g.remove(Edge::new(0, v)));
        }
        g.check_invariants();
        for v in 1..=n {
            assert_eq!(g.adjacent(0, v), v % 2 == 0, "vertex {v}");
        }
        // Re-insert into the spilled set.
        assert!(g.insert(Edge::new(0, 1)));
        assert!(!g.insert(Edge::new(0, 1)));
        g.check_invariants();
        // Spilled sets must still resolve IDs through the index.
        for v in 2..=n {
            if v % 2 == 0 {
                let id = g.edge_id(Edge::new(0, v)).expect("live edge has an ID");
                assert_eq!(g.edge_endpoints(id), Edge::new(0, v));
            }
        }
    }

    /// Drives two hubs across the spill threshold both ways — grow past
    /// it, delete far below it, re-insert past it again — in repeated
    /// waves, checking membership, IDs and the hub–hub intersection
    /// throughout. The index is retained once attached; below-threshold
    /// operation with an index present is exactly the state this pins.
    #[test]
    fn spill_threshold_crossing_waves() {
        let mut g = Adjacency::new();
        let top = (2 * SPILL_THRESHOLD) as Vertex;
        let (hub_a, hub_b) = (5000u64, 6000u64);
        g.insert(Edge::new(hub_a, hub_b));
        // Persistent common neighbours so the intersection stays
        // non-trivial across waves.
        for obs in [7000u64, 7001, 7002] {
            g.insert(Edge::new(hub_a, obs));
            g.insert(Edge::new(hub_b, obs));
        }
        for wave in 0..4u64 {
            // Grow both hubs past the spill threshold with disjoint
            // leaf ranges (no new commons).
            for v in 1..=top {
                assert!(g.insert(Edge::new(hub_a, v)), "wave {wave}: a-leaf {v}");
                assert!(g.insert(Edge::new(hub_b, 100_000 + v)), "wave {wave}: b-leaf {v}");
            }
            g.check_invariants();
            assert!(g.degree(hub_a) > SPILL_THRESHOLD);
            let mut got = Vec::new();
            g.for_each_common_edge(hub_a, hub_b, |w, eu, ev| {
                assert_eq!(g.edge_id(Edge::new(hub_a, w)), Some(eu));
                assert_eq!(g.edge_id(Edge::new(hub_b, w)), Some(ev));
                got.push(w);
            });
            let want: BTreeSet<Vertex> = BTreeSet::from([7000, 7001, 7002]);
            assert_eq!(got.iter().copied().collect::<BTreeSet<_>>(), want, "wave {wave}");
            // Shrink far below the threshold again.
            for v in 1..=top {
                assert!(g.remove(Edge::new(hub_a, v)), "wave {wave}: remove a-leaf {v}");
                assert!(g.remove(Edge::new(hub_b, 100_000 + v)), "wave {wave}: remove b-leaf {v}");
            }
            g.check_invariants();
            assert_eq!(g.degree(hub_a), 4);
            assert_eq!(g.common_neighbor_count(hub_a, hub_b), 3);
        }
    }

    #[test]
    fn indexed_hubs_intersect_in_slot_order() {
        // Two hubs far past the spill threshold sharing an interleaved
        // subset of neighbours, with long non-common runs on both sides
        // — the probes through the index must report exactly the common
        // set, in the iterated side's dense slot order.
        let mut g = Adjacency::new();
        let (a, b) = (10_000u64, 20_000u64);
        g.insert(Edge::new(a, b));
        // Common neighbours: multiples of 7 (inserted in a scattered
        // order so insertion order ≠ vertex order).
        let mut common: Vec<Vertex> = (1..=20u64).map(|k| 7 * k).collect();
        common.swap(0, 19);
        common.swap(3, 11);
        for &w in &common {
            g.insert(Edge::new(a, w));
            g.insert(Edge::new(b, w));
        }
        // Non-common runs: a gets 100 odd-ball vertices below, b gets
        // 100 above, so most probes miss.
        for k in 0..100u64 {
            g.insert(Edge::new(a, 1_000 + 2 * k));
            g.insert(Edge::new(b, 30_000 + 2 * k));
        }
        // Churn after both hubs are indexed: delete some commons, add
        // fresh commons, so slot order ≠ insertion order.
        for k in [2u64, 9] {
            g.remove(Edge::new(a, 7 * k));
            g.remove(Edge::new(b, 7 * k));
        }
        for w in [500u64, 501, 502] {
            g.insert(Edge::new(a, w));
            g.insert(Edge::new(b, w));
        }
        g.check_invariants();
        let mut got = Vec::new();
        let degs = g.for_each_common_edge(a, b, |w, eu, ev| {
            assert_eq!(g.edge_id(Edge::new(a, w)), Some(eu));
            assert_eq!(g.edge_id(Edge::new(b, w)), Some(ev));
            got.push(w);
        });
        assert_eq!(degs, (g.degree(a), g.degree(b)));
        // Same set AND same order as a plain walk of the iterated
        // (smaller) side's dense slots.
        let small = if g.degree(a) <= g.degree(b) { a } else { b };
        let want: Vec<Vertex> =
            g.neighbors(small).filter(|&w| g.adjacent(a, w) && g.adjacent(b, w)).collect();
        assert_eq!(got, want);
        assert_eq!(got.len(), 21); // 20 - 2 deleted + 3 fresh
    }

    /// A callback may re-enter common-neighbour queries on the same
    /// indexed vertices while the outer enumeration is mid-flight.
    #[test]
    fn intersection_callbacks_may_reenter() {
        let mut g = Adjacency::new();
        let (a, b, c) = (1u64, 2u64, 3u64);
        for (x, y) in [(a, b), (a, c), (b, c)] {
            g.insert(Edge::new(x, y));
        }
        // Push all three past the spill threshold with shared leaves.
        let top = (2 * SPILL_THRESHOLD) as Vertex;
        for v in 100..(100 + top) {
            for hub in [a, b, c] {
                g.insert(Edge::new(hub, v));
            }
        }
        let mut outer = 0;
        let mut inner_total = 0;
        g.for_each_common_neighbor(a, b, |_| {
            outer += 1;
            // Re-enters the kernel on overlapping indexed vertices
            // while the outer enumeration is mid-flight.
            inner_total += g.common_neighbor_count(a, c);
        });
        assert_eq!(outer, top as usize + 1); // leaves + c
        assert_eq!(inner_total, outer * (top as usize + 1)); // leaves + b per call
    }

    /// Reference model: a plain set of canonical edges.
    #[derive(Default)]
    struct Model(BTreeSet<Edge>);

    impl Model {
        fn degree(&self, x: Vertex) -> usize {
            self.0.iter().filter(|e| e.touches(x)).count()
        }
        fn common(&self, u: Vertex, v: Vertex) -> BTreeSet<Vertex> {
            let nbrs = |x: Vertex| -> BTreeSet<Vertex> {
                self.0.iter().filter(|e| e.touches(x)).map(|e| e.other(x)).collect()
            };
            nbrs(u).intersection(&nbrs(v)).copied().collect()
        }
    }

    proptest! {
        /// The adjacency structure agrees with a naive set-of-edges model
        /// under arbitrary interleavings of inserts and removes.
        #[test]
        fn prop_matches_reference_model(
            ops in proptest::collection::vec((any::<bool>(), 0u64..12, 0u64..12), 0..300),
        ) {
            let mut g = Adjacency::new();
            let mut m = Model::default();
            for (insert, a, b) in ops {
                let Some(e) = Edge::try_new(a, b) else { continue };
                if insert {
                    prop_assert_eq!(g.insert(e), m.0.insert(e));
                } else {
                    let was = m.0.remove(&e);
                    prop_assert_eq!(g.remove(e), was);
                }
            }
            g.check_invariants();
            prop_assert_eq!(g.num_edges(), m.0.len());
            let got: BTreeSet<_> = g.edges().collect();
            prop_assert_eq!(&got, &m.0);
            for x in 0u64..12 {
                prop_assert_eq!(g.degree(x), m.degree(x));
            }
            for u in 0u64..12 {
                for v in (u + 1)..12 {
                    let mut buf = Vec::new();
                    g.common_neighbors_into(u, v, &mut buf);
                    let got: BTreeSet<_> = buf.into_iter().collect();
                    prop_assert_eq!(got, m.common(u, v));
                }
            }
        }

        /// The hybrid storage agrees with the model *around the spill
        /// threshold*: a small vertex universe over many ops forces hub
        /// degrees through SPILL_THRESHOLD repeatedly.
        #[test]
        fn prop_spill_boundary_matches_model(
            ops in proptest::collection::vec((any::<bool>(), 0u64..26, 0u64..26), 0..600),
        ) {
            let mut g = Adjacency::new();
            let mut m = Model::default();
            for (insert, a, b) in ops {
                let Some(e) = Edge::try_new(a, b) else { continue };
                if insert {
                    prop_assert_eq!(g.insert(e), m.0.insert(e));
                } else {
                    prop_assert_eq!(g.remove(e), m.0.remove(&e));
                }
            }
            g.check_invariants();
            for x in 0u64..26 {
                prop_assert_eq!(g.degree(x), m.degree(x));
                let mut got: Vec<_> = g.neighbor_slice(x).to_vec();
                got.sort_unstable();
                let want: Vec<_> = m
                    .0
                    .iter()
                    .filter(|e| e.touches(x))
                    .map(|e| e.other(x))
                    .collect();
                prop_assert_eq!(got, want);
            }
        }

        /// Insert/delete/re-insert *waves* centred on two hub vertices
        /// drive their sets across the spill threshold in both
        /// directions — backfilled slots, re-pointed index entries and
        /// fresh inserts all in play — while a weighted and an ID-free
        /// adjacency process the identical op sequence; membership,
        /// degrees, the hub–hub intersection (set *and* emission order)
        /// and the invariants must agree with the model after every
        /// wave.
        #[test]
        fn prop_threshold_waves_keep_kernels_coherent(
            waves in proptest::collection::vec(
                (2u64..70, proptest::collection::vec(0u64..70, 8..48), any::<bool>()),
                1..10,
            ),
        ) {
            let (hub_a, hub_b) = (500u64, 501u64);
            let mut g = Adjacency::new();
            let mut lean = VertexAdjacency::new();
            let mut m = Model::default();
            let apply = |g: &mut Adjacency,
                         lean: &mut VertexAdjacency,
                         m: &mut Model,
                         insert: bool,
                         e: Edge| {
                if insert {
                    let was = m.0.insert(e);
                    assert_eq!(g.insert(e), was);
                    assert_eq!(lean.insert(e), was);
                } else {
                    let was = m.0.remove(&e);
                    assert_eq!(g.remove(e), was);
                    assert_eq!(lean.remove(e), was);
                }
            };
            apply(&mut g, &mut lean, &mut m, true, Edge::new(hub_a, hub_b));
            for (salt, members, delete_phase) in waves {
                for &x in &members {
                    let v = 1000 + ((x * 31 + salt) % 90);
                    for hub in [hub_a, hub_b] {
                        apply(&mut g, &mut lean, &mut m, true, Edge::new(hub, v));
                    }
                }
                if delete_phase {
                    for &x in &members {
                        let v = 1000 + ((x * 31 + salt) % 90);
                        for hub in [hub_a, hub_b] {
                            apply(&mut g, &mut lean, &mut m, false, Edge::new(hub, v));
                        }
                    }
                }
                g.check_invariants();
                lean.check_invariants();
                prop_assert_eq!(g.degree(hub_a), m.degree(hub_a));
                prop_assert_eq!(lean.degree(hub_b), m.degree(hub_b));
                // The hub–hub intersection: same set as the model, and
                // the tracked and ID-free kernels emit the identical
                // order (the iterated side's dense slot order).
                let mut tracked = Vec::new();
                g.for_each_common_edge(hub_a, hub_b, |w, eu, ev| {
                    assert_eq!(g.edge_id(Edge::new(hub_a, w)), Some(eu));
                    assert_eq!(g.edge_id(Edge::new(hub_b, w)), Some(ev));
                    tracked.push(w);
                });
                let mut lean_hits = Vec::new();
                lean.for_each_common_neighbor(hub_a, hub_b, |w| lean_hits.push(w));
                prop_assert_eq!(&tracked, &lean_hits, "tracked vs ID-free emission order");
                let got: BTreeSet<_> = tracked.into_iter().collect();
                prop_assert_eq!(got, m.common(hub_a, hub_b));
            }
        }

        /// Edge IDs stay coherent under churn: every live edge resolves
        /// to an ID whose endpoints round-trip, IDs are dense (bounded by
        /// peak live count), and the arena partition invariant holds
        /// after every operation.
        #[test]
        fn prop_arena_ids_coherent_under_churn(
            ops in proptest::collection::vec((any::<bool>(), 0u64..10, 0u64..10), 0..400),
        ) {
            let mut g = Adjacency::new();
            let mut live = 0usize;
            let mut peak = 0usize;
            for (insert, a, b) in ops {
                let Some(e) = Edge::try_new(a, b) else { continue };
                if insert {
                    if let Some(id) = g.insert_full(e) {
                        live += 1;
                        peak = peak.max(live);
                        prop_assert_eq!(g.edge_endpoints(id), e);
                        prop_assert_eq!(g.edge_id(e), Some(id));
                    }
                } else if let Some(id) = g.remove_full(e) {
                    live -= 1;
                    prop_assert!((id as usize) < g.id_bound());
                    prop_assert_eq!(g.edge_id(e), None);
                }
            }
            g.check_invariants();
            prop_assert!(g.id_bound() <= peak, "ID space exceeded peak live edges");
            for e in g.edges().collect::<Vec<_>>() {
                let id = g.edge_id(e).expect("live edge must have an ID");
                prop_assert_eq!(g.edge_endpoints(id), e);
            }
        }

        /// Layout snapshot/restore is the identity on everything
        /// observable: slot orders, edge IDs, the free list (and so all
        /// future ID mints), and the canonical re-snapshot bytes.
        #[test]
        fn prop_layout_round_trip_under_churn(
            ops in proptest::collection::vec((any::<bool>(), 0u64..40, 0u64..40), 0..500),
            extra in proptest::collection::vec((any::<bool>(), 0u64..40, 0u64..40), 0..60),
        ) {
            let mut g = Adjacency::new();
            let mut lean = VertexAdjacency::new();
            for (insert, a, b) in ops {
                let Some(e) = Edge::try_new(a, b) else { continue };
                if insert {
                    g.insert(e);
                    lean.insert(e);
                } else {
                    g.remove(e);
                    lean.remove(e);
                }
            }
            let layout = g.layout_snapshot();
            let mut r = Adjacency::from_layout(&layout);
            r.check_invariants();
            prop_assert_eq!(r.num_edges(), g.num_edges());
            prop_assert_eq!(r.id_bound(), g.id_bound());
            // Slot orders and per-slot IDs verbatim.
            for (u, _) in &layout.vertices {
                prop_assert_eq!(r.neighbor_entries(*u), g.neighbor_entries(*u));
            }
            // Canonical snapshots agree byte-for-byte in structure.
            prop_assert_eq!(&r.layout_snapshot(), &layout);
            // Future mutations agree exactly — same mints, same slots.
            for (insert, a, b) in extra {
                let Some(e) = Edge::try_new(a, b) else { continue };
                if insert {
                    prop_assert_eq!(r.insert_full(e), g.insert_full(e));
                } else {
                    prop_assert_eq!(r.remove_full(e), g.remove_full(e));
                }
            }
            prop_assert_eq!(&r.layout_snapshot(), &g.layout_snapshot());
            r.check_invariants();
            // The ID-free variant round-trips too.
            let lean_layout = lean.layout_snapshot();
            let lr = VertexAdjacency::from_layout(&lean_layout);
            lr.check_invariants();
            prop_assert_eq!(&lr.layout_snapshot(), &lean_layout);
            prop_assert_eq!(lr.num_edges(), lean.num_edges());
        }
    }

    /// Slot-order reference model: one plain `Vec<(Vertex, EdgeId)>` per
    /// vertex driven by `push` / `swap_remove`, with a LIFO free list —
    /// the layout the adjacency must reproduce exactly, whichever
    /// storage form and acceleration tier each set is in. Untracked
    /// models mint no IDs (every slot carries 0), as the ID-free
    /// adjacency's layouts do.
    #[derive(Default)]
    struct SlotModel {
        tracked: bool,
        slots: std::collections::BTreeMap<Vertex, Vec<(Vertex, EdgeId)>>,
        free: Vec<EdgeId>,
        id_bound: u32,
    }

    impl SlotModel {
        fn insert(&mut self, e: Edge) -> Option<EdgeId> {
            let (u, v) = e.endpoints();
            if self.slots.get(&u).is_some_and(|s| s.iter().any(|&(w, _)| w == v)) {
                return None;
            }
            let id = match (self.tracked, self.free.pop()) {
                (false, _) => 0,
                (true, Some(id)) => id,
                (true, None) => {
                    self.id_bound += 1;
                    self.id_bound - 1
                }
            };
            self.slots.entry(u).or_default().push((v, id));
            self.slots.entry(v).or_default().push((u, id));
            Some(id)
        }

        fn remove(&mut self, e: Edge) -> Option<EdgeId> {
            let (u, v) = e.endpoints();
            let id = self.detach(u, v)?;
            self.detach(v, u).expect("model symmetry");
            if self.tracked {
                self.free.push(id);
            }
            Some(id)
        }

        fn detach(&mut self, x: Vertex, y: Vertex) -> Option<EdgeId> {
            let set = self.slots.get_mut(&x)?;
            let pos = set.iter().position(|&(w, _)| w == y)?;
            let (_, id) = set.swap_remove(pos);
            if set.is_empty() {
                self.slots.remove(&x);
            }
            Some(id)
        }

        fn layout(&self) -> AdjacencyLayout {
            AdjacencyLayout {
                vertices: self.slots.iter().map(|(&u, s)| (u, s.clone())).collect(),
                free: self.free.clone(),
                id_bound: self.id_bound,
            }
        }
    }

    /// A tracked and an ID-free adjacency with their slot models, driven
    /// in lockstep; every operation compares both layouts exactly.
    struct SlotTwins {
        g: Adjacency,
        lean: VertexAdjacency,
        model: SlotModel,
        lean_model: SlotModel,
    }

    impl Default for SlotTwins {
        fn default() -> Self {
            Self {
                g: Adjacency::new(),
                lean: VertexAdjacency::new(),
                model: SlotModel { tracked: true, ..SlotModel::default() },
                lean_model: SlotModel::default(),
            }
        }
    }

    impl SlotTwins {
        fn insert(&mut self, e: Edge) {
            assert_eq!(self.g.insert_full(e), self.model.insert(e), "insert of {e:?}");
            assert_eq!(self.lean.insert(e), self.lean_model.insert(e).is_some());
            self.check();
        }

        /// Removes `e` by arena ID when `by_id` and the edge is live,
        /// by edge otherwise.
        fn remove(&mut self, e: Edge, by_id: bool) {
            let want = self.model.remove(e);
            let got = match want {
                Some(id) if by_id => {
                    assert_eq!(self.g.remove_by_id(id), e);
                    Some(id)
                }
                _ => self.g.remove_full(e),
            };
            assert_eq!(got, want, "removal of {e:?}");
            assert_eq!(self.lean.remove(e), self.lean_model.remove(e).is_some());
            self.check();
        }

        fn check(&self) {
            assert_eq!(self.g.layout_snapshot(), self.model.layout());
            assert_eq!(self.lean.layout_snapshot(), self.lean_model.layout());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Slot order, per-slot IDs and the free list match the
        /// push/swap_remove model exactly after every operation, for the
        /// tracked and the ID-free adjacency. Each wave grows or shrinks
        /// one of four hubs over vertices `0..40`, so hub degrees swing
        /// across [`SPILL_THRESHOLD`] and the other vertices' degrees
        /// (up to four hubs) across [`INLINE`], in both directions;
        /// shrinking waves mix `remove_by_id` and `remove_full`, and a
        /// final drain empties the graph. The set-level proptests above
        /// compare edge sets; slot order is what keeps the goldens
        /// stable, and this pins it.
        #[test]
        fn prop_slot_order_matches_push_swap_remove_model(
            waves in proptest::collection::vec(
                (
                    any::<bool>(),
                    0u64..4,
                    proptest::collection::vec((0u64..40, any::<bool>()), 16..96),
                ),
                1..8,
            ),
        ) {
            let mut t = SlotTwins::default();
            for (grow, hub, ops) in waves {
                for (other, by_id) in ops {
                    let Some(e) = Edge::try_new(hub, other) else { continue };
                    if grow {
                        t.insert(e);
                    } else {
                        t.remove(e, by_id);
                    }
                }
            }
            t.g.check_invariants();
            t.lean.check_invariants();
            let mut live: Vec<Edge> = t.g.edges().collect();
            live.sort_unstable();
            for (i, e) in live.into_iter().enumerate() {
                t.remove(e, i % 2 == 0);
            }
            prop_assert_eq!(t.g.num_vertices(), 0);
        }
    }

    fn forge(layout: &AdjacencyLayout, edit: impl FnOnce(&mut AdjacencyLayout)) -> AdjacencyLayout {
        let mut forged = layout.clone();
        edit(&mut forged);
        forged
    }

    /// A forged layout — asymmetric, with a duplicate neighbour, with an
    /// empty or repeated vertex entry, or (tracked) with IDs that do not
    /// pair up — panics at restore in every build profile, for both
    /// payloads.
    #[test]
    fn from_layout_rejects_forged_layouts() {
        let mut g = Adjacency::new();
        let mut lean = VertexAdjacency::new();
        for (a, b) in [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (1, 6)] {
            g.insert(Edge::new(a, b));
            lean.insert(Edge::new(a, b));
        }
        g.remove(Edge::new(1, 6));
        lean.remove(Edge::new(1, 6));
        // Vertex 1's slots are [(2, 0), (3, 1)], vertex 4's [(3, 3), (5, 4)]
        // (IDs all 0 in the ID-free layout); ID 5 is free.
        let structural = |l: &AdjacencyLayout| {
            vec![
                (
                    "asymmetric",
                    forge(l, |l| {
                        l.vertices[0].1.pop();
                        l.vertices[3].1.pop();
                    }),
                ),
                (
                    "duplicate",
                    forge(l, |l| {
                        l.vertices[0].1.push((2, 0));
                        l.vertices[1].1.push((1, 0));
                    }),
                ),
                ("empty entry", forge(l, |l| l.vertices.push((9, Vec::new())))),
                ("repeated vertex", forge(l, |l| l.vertices.push(l.vertices[4].clone()))),
            ]
        };
        let layout = g.layout_snapshot();
        assert_eq!(Adjacency::from_layout(&layout).layout_snapshot(), layout);
        let mut tracked = structural(&layout);
        tracked.extend([
            ("ID naming two edges", forge(&layout, |l| l.vertices[0].1[0].1 = 1)),
            ("ID neither live nor free", forge(&layout, |l| l.free.clear())),
            ("live ID on the free list", forge(&layout, |l| l.free.push(0))),
            ("inflated id_bound", forge(&layout, |l| l.id_bound = u32::MAX)),
        ]);
        for (forgery, forged) in &tracked {
            let restored = std::panic::catch_unwind(|| Adjacency::from_layout(forged));
            assert!(restored.is_err(), "tracked {forgery} layout restored");
        }
        for (forgery, forged) in &structural(&lean.layout_snapshot()) {
            let restored = std::panic::catch_unwind(|| VertexAdjacency::from_layout(forged));
            assert!(restored.is_err(), "ID-free {forgery} layout restored");
        }
    }

    /// Restore re-attaches the hash index from the current degree, so a
    /// restored hub probes through it with the original's emission
    /// order.
    #[test]
    fn layout_restore_reattaches_acceleration_state() {
        let mut g = Adjacency::new();
        let (a, b) = (900u64, 901u64);
        g.insert(Edge::new(a, b));
        let top = (2 * SPILL_THRESHOLD) as Vertex;
        for v in 1..=top {
            g.insert(Edge::new(a, v));
            g.insert(Edge::new(b, v));
        }
        // Churn so slot order ≠ insertion order.
        for v in (1..=top).step_by(3) {
            g.remove(Edge::new(a, v));
        }
        let r = Adjacency::from_layout(&g.layout_snapshot());
        r.check_invariants();
        let mut got = Vec::new();
        r.for_each_common_edge(a, b, |w, eu, ev| {
            assert_eq!(r.edge_id(Edge::new(a, w)), Some(eu));
            assert_eq!(r.edge_id(Edge::new(b, w)), Some(ev));
            got.push(w);
        });
        let mut want = Vec::new();
        g.for_each_common_edge(a, b, |w, _, _| want.push(w));
        assert_eq!(got, want, "restored hub must emit in the original slot order");
    }
}
