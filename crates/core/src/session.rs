//! Multi-query stream sessions: **one shared sampler, N pattern
//! queries**.
//!
//! The WSD framework (and every weighted/uniform sampler it is compared
//! against) maintains a single edge sample from which *any* pattern
//! estimate can be derived — the estimator layer is a pure consumer of
//! the sample. The session API says exactly that:
//!
//! * [`EdgeSampler`] — the sampling layer: admission / eviction /
//!   waiting-room logic per algorithm, owning the reservoir and the
//!   sampled adjacency. One instance processes the stream once.
//! * [`PatternQuery`] — the query layer: per-pattern estimator state
//!   (running estimate or in-sample instance counter, enumeration
//!   scratch) fed from the shared sample on every event.
//! * [`StreamSession`] — one sampler plus any number of attached
//!   queries, with [`StreamSession::attach`]/[`StreamSession::detach`]
//!   mid-stream: a freshly attached query *warms up* by enumerating the
//!   pattern instances inside the current sample once, then tracks
//!   events incrementally like a built-in query.
//!
//! Answering the paper's standard wedge / triangle / 4-clique grid this
//! way pays the sampling machinery — the dominant per-event cost at
//! reservoir budgets — **once** instead of once per pattern:
//!
//! ```
//! use wsd_core::{Algorithm, SessionBuilder};
//! use wsd_graph::{Edge, EdgeEvent, Pattern};
//!
//! let mut session = SessionBuilder::new(Algorithm::WsdH, 100, 42)
//!     .query(Pattern::Wedge)
//!     .query(Pattern::Triangle)
//!     .query(Pattern::FourClique)
//!     .build();
//! for (a, b) in [(1, 2), (2, 3), (1, 3)] {
//!     session.process(EdgeEvent::insert(Edge::new(a, b)));
//! }
//! let report = session.report();
//! assert_eq!(report.queries.len(), 3);
//! assert_eq!(report.queries[1].estimate, 1.0); // one triangle, exact
//! ```
//!
//! # Layered planning
//!
//! The queried patterns **nest**: every 4-clique pair-probe runs over
//! the common neighbourhood the triangle kernel intersects, and the
//! wedge kernel walks the same endpoint neighbourhoods. When a session
//! holds two or more queries whose patterns all sit on that
//! wedge→triangle→4-clique ladder, it plans one [`LayeredPlan`] — the
//! deduplicated union of the queries' levels — and the sampler runs
//! **one layered enumeration pass per event**
//! ([`wsd_graph::LayeredLevels`]), feeding every query's mass update at
//! its level, instead of one per-pattern pass per query. On hub-heavy
//! streams this removes the duplicated galloping intersections that
//! dominate multi-query event cost. The layered kernel emits each
//! level in exactly the per-pattern kernel's order, so estimates are
//! **bit-identical** to the per-query passes (the layered-equivalence
//! suite pins this per event); query mixes that include patterns off
//! the ladder (generic cliques ≥ 5), single-query sessions, and
//! sessions built with [`SessionBuilder::with_layered`]`(false)` fall
//! back to the per-query passes unchanged.
//!
//! Queries attach in bulk with [`StreamSession::attach_many`], which
//! warms up all new queries from **one** replay of the current sample
//! (per-query [`StreamSession::attach`] replays the sample once per
//! call) — bit-identical to attaching them one by one.

use crate::config::Algorithm;
use crate::rank::inclusion_prob;
use crate::sampled_graph::WeightedSample;
use crate::snapshot::{QuerySnapshot, SamplerState, SessionConfig, SessionSnapshot};
use crate::state::TemporalPooling;
use crate::weight::{HeuristicWeight, LinearPolicy, UniformWeight, WeightFn, WeightSpec};
use wsd_graph::patterns::EnumScratch;
use wsd_graph::{Adjacency, Edge, EdgeEvent, LayeredLevels, Pattern};

/// Stable handle of a query attached to a [`StreamSession`].
///
/// Handles are never recycled within a session: detaching a query
/// retires its id for good, and re-attaching the same pattern yields a
/// fresh id (and a fresh warm-up). A handle also remembers which
/// session issued it — using it on a different session panics instead
/// of silently addressing whatever query sits at the same slot.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct QueryId {
    /// Issuing session's token.
    session: u64,
    /// Attachment-order index within that session.
    index: usize,
}

impl QueryId {
    /// The raw index (attachment order within the session).
    pub fn index(&self) -> usize {
        self.index
    }
}

/// Per-pattern estimator state fed from a shared [`EdgeSampler`].
///
/// A query owns everything that is *per pattern*: the running
/// accumulator (a mass estimate for the weighted samplers, ThinkD and
/// WRS; the in-sample instance counter τ for Triest). It owns nothing
/// of the sample — that lives in the sampler — and no enumeration
/// scratch: the session owns one [`EnumScratch`] shared by every
/// attached query (the scratch is pure per-event workspace, so N
/// queries never needed N copies), handed to the sampler per event via
/// [`QueryCtx`].
pub struct PatternQuery {
    pub(crate) pattern: Pattern,
    /// Running mass estimate (weighted samplers, ThinkD, WRS).
    pub(crate) estimate: f64,
    /// In-sample instance counter (Triest's τ).
    pub(crate) tau: i64,
}

impl PatternQuery {
    /// Creates a fresh (cold) query for `pattern`.
    ///
    /// # Panics
    ///
    /// Panics if the pattern is invalid.
    pub fn new(pattern: Pattern) -> Self {
        pattern.validate().expect("invalid pattern");
        Self { pattern, estimate: 0.0, tau: 0 }
    }

    /// The pattern this query counts.
    pub fn pattern(&self) -> Pattern {
        self.pattern
    }
}

/// A session's layered enumeration plan: the deduplicated union of the
/// attached queries' nesting levels, plus each query's level. Planned
/// by [`StreamSession`] whenever ≥ 2 queries are attached and every
/// query pattern sits on the wedge→triangle→4-clique ladder (and
/// layered execution wasn't disabled); the sampler then runs one
/// [`LayeredLevels`] pass per event and feeds each query at
/// `level_of[its index]` instead of running one per-pattern pass per
/// query. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct LayeredPlan {
    /// Union of the attached queries' levels.
    pub(crate) levels: LayeredLevels,
    /// `level_of[i]` = layered level of `queries[i]`.
    pub(crate) level_of: Vec<u8>,
}

impl LayeredPlan {
    /// Plans for `queries`, or `None` if the mix doesn't profit
    /// (fewer than two queries) or doesn't nest (a pattern off the
    /// ladder) — those run today's per-query passes.
    fn plan(queries: &[PatternQuery]) -> Option<Self> {
        if queries.len() < 2 {
            return None;
        }
        let mut levels = LayeredLevels::default();
        let mut level_of = Vec::with_capacity(queries.len());
        for q in queries {
            let level = LayeredLevels::level_of(q.pattern)?;
            levels.set(level);
            level_of.push(level as u8);
        }
        Some(Self { levels, level_of })
    }

    /// Union of the attached queries' levels.
    pub fn levels(&self) -> LayeredLevels {
        self.levels
    }

    /// The layered level of the query at `index` (attachment order).
    pub fn level_of(&self, index: usize) -> usize {
        self.level_of[index] as usize
    }
}

/// The per-event view a [`StreamSession`] hands its [`EdgeSampler`]:
/// the attached queries plus the session-owned shared state — the one
/// enumeration scratch every query borrows, and the layered plan when
/// one is active.
pub struct QueryCtx<'a> {
    /// Attached queries, in attachment order.
    pub(crate) queries: &'a mut [PatternQuery],
    /// Session-owned enumeration scratch, shared by every query.
    pub(crate) scratch: &'a mut EnumScratch,
    /// The session's layered plan, when one is active. `None` means
    /// per-query passes (single query, non-nesting mix, or layered
    /// execution disabled).
    pub(crate) plan: Option<&'a LayeredPlan>,
}

impl<'a> QueryCtx<'a> {
    /// A plan-less context — per-query passes (used by callers that
    /// drive an [`EdgeSampler`] directly, such as the white-box tests).
    pub fn new(queries: &'a mut [PatternQuery], scratch: &'a mut EnumScratch) -> Self {
        Self { queries, scratch, plan: None }
    }

    /// Reborrows the context for a nested call (e.g. a batch loop
    /// delegating to the per-event path).
    pub fn reborrow(&mut self) -> QueryCtx<'_> {
        QueryCtx { queries: self.queries, scratch: self.scratch, plan: self.plan }
    }
}

/// Why a weight-function hot-swap was rejected (see
/// [`StreamSession::set_weight_fn`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WeightSwapError {
    /// The sampler's algorithm has no swappable weight function (only
    /// the WSD family swaps; GPS/GPS-A pin the heuristic, the uniform
    /// baselines have no weights at all).
    Unsupported {
        /// Display name of the rejecting sampler.
        algorithm: String,
    },
    /// The new policy's dimension does not match the sampler's
    /// weight-pattern state dimension `|H| + 3`.
    DimensionMismatch {
        /// Dimension the weight pattern requires.
        expected: usize,
        /// Dimension the offered policy carries.
        got: usize,
    },
}

impl std::fmt::Display for WeightSwapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WeightSwapError::Unsupported { algorithm } => {
                write!(f, "{algorithm} has no swappable weight function")
            }
            WeightSwapError::DimensionMismatch { expected, got } => write!(
                f,
                "policy dimension {got} does not match the weight-pattern state dimension {expected}"
            ),
        }
    }
}

impl std::error::Error for WeightSwapError {}

/// The sampling layer of a [`StreamSession`]: one algorithm's
/// admission / eviction / room logic, owning the reservoir and the
/// sampled adjacency, and feeding every attached [`PatternQuery`]'s
/// estimator on each event.
///
/// Implementations must keep their sampling trajectory (RNG stream,
/// sample content, thresholds) **independent of the attached queries**
/// — that is what makes mid-stream [`StreamSession::attach`] /
/// [`StreamSession::detach`] sound. For the weighted samplers, whose
/// edge weights are computed from a pattern's completed-instance count,
/// the weight is always observed on the sampler's fixed *weight
/// pattern* (fused with the matching query's mass pass when one is
/// attached, on a sampler-owned pass otherwise).
pub trait EdgeSampler: Send {
    /// Processes one stream event, updating every query in the context
    /// (running the context's layered plan, when present, instead of
    /// per-query enumeration passes).
    fn process(&mut self, ev: EdgeEvent, ctx: QueryCtx<'_>);

    /// Processes a batch of consecutive events. Semantically identical
    /// to per-event [`EdgeSampler::process`] — same estimates, sample
    /// and RNG stream, bit for bit — but free to amortise per-event
    /// overheads (RNG pre-draws, run splitting, invariant hoisting).
    fn process_batch(&mut self, batch: &[EdgeEvent], mut ctx: QueryCtx<'_>) {
        for &ev in batch {
            self.process(ev, ctx.reborrow());
        }
    }

    /// The current estimate of `query`'s pattern count. For most
    /// samplers this is the query's running accumulator; Triest rescales
    /// its in-sample instance counter by the inclusion probability κ
    /// computed from the reservoir statistics.
    fn query_estimate(&self, query: &PatternQuery) -> f64;

    /// Warm-starts a freshly attached query by enumerating the pattern
    /// instances fully contained in the current sample once, seeding the
    /// query's accumulator with each instance's inverse inclusion
    /// probability under the algorithm's sampling model (all-edge
    /// Horvitz–Thompson product for the weighted samplers, κ⁻¹ for the
    /// uniform ones, the room/reservoir split for WRS). The warm-up is a
    /// pure function of the sampler's current state — it reads nothing
    /// else and mutates nothing of the sampler. `scratch` is the
    /// session's shared enumeration workspace.
    fn warm_start(&self, query: &mut PatternQuery, scratch: &mut EnumScratch);

    /// Warm-starts a batch of freshly attached queries — the backend of
    /// [`StreamSession::attach_many`]. Bit-identical to calling
    /// [`EdgeSampler::warm_start`] per query (the default does exactly
    /// that); samplers whose warm-up replays the sample override it to
    /// share **one** layered replay across all nested-pattern queries.
    fn warm_start_many(&self, queries: &mut [PatternQuery], scratch: &mut EnumScratch) {
        for query in queries {
            self.warm_start(query, scratch);
        }
    }

    /// Number of edges currently held in the sampling structures
    /// (including, for GPS-A, tagged-deleted ghosts).
    fn stored_edges(&self) -> usize;

    /// Algorithm display name (e.g. `WSD-H`, `Triest`).
    fn name(&self) -> &str;

    /// Asserts that the sampler's memory budget can support counting
    /// `pattern` (the unbiasedness theorems require the reservoir to
    /// hold at least `|H|` edges).
    ///
    /// # Panics
    ///
    /// Panics if the budget is too small for the pattern.
    fn assert_capacity_for(&self, pattern: Pattern);

    /// Captures the sampler's complete dynamic state — reservoir slot
    /// orders verbatim, sampled adjacency as a canonical layout, RNG
    /// words — such that a freshly built skeleton of the same
    /// configuration, after [`EdgeSampler::restore_state`], resumes the
    /// stream **bit-identically** (see [`crate::snapshot`]).
    fn snapshot_state(&self) -> SamplerState;

    /// Overwrites this sampler's dynamic state from a snapshot taken by
    /// [`EdgeSampler::snapshot_state`] on a sampler of the same
    /// algorithm and configuration.
    ///
    /// # Panics
    ///
    /// Panics if the state's algorithm variant does not match this
    /// sampler.
    fn restore_state(&mut self, state: &SamplerState);

    /// Hot-swaps the sampler's weight function mid-stream. Only the WSD
    /// family supports this; the default rejects the swap. See
    /// [`StreamSession::set_weight_fn`] for the pinned semantics.
    fn set_weight_fn(&mut self, spec: &WeightSpec) -> Result<(), WeightSwapError> {
        let _ = spec;
        Err(WeightSwapError::Unsupported { algorithm: self.name().to_string() })
    }
}

/// Enumerates every instance of `pattern` spanned by `edges` exactly
/// once, invoking `per_instance` with the payloads of all `|H|` instance
/// edges — the shared warm-up kernel.
///
/// The edges are replayed into a scratch adjacency one at a time; each
/// replayed edge completes (and thereby claims) exactly the instances
/// whose other edges were replayed before it, so no instance is seen
/// twice. Payloads are whatever the caller needs per edge (inverse
/// inclusion probabilities, room flags); the payload order within an
/// instance is unspecified beyond being deterministic for a fixed
/// `edges` slice.
pub(crate) fn for_each_sample_instance(
    pattern: Pattern,
    edges: &[(Edge, f64)],
    scratch: &mut EnumScratch,
    mut per_instance: impl FnMut(&[f64]),
) {
    if edges.len() < pattern.num_edges() {
        return;
    }
    let mut g = Adjacency::with_capacity(2 * edges.len());
    let mut payload: Vec<f64> = Vec::with_capacity(edges.len());
    let mut buf: Vec<f64> = Vec::with_capacity(pattern.num_edges());
    for &(e, p) in edges {
        pattern.for_each_completed(&g, e, scratch, |partners| {
            buf.clear();
            for &pid in partners {
                buf.push(payload[pid as usize]);
            }
            buf.push(p);
            per_instance(&buf);
        });
        let id = g.insert_full(e).expect("sample edges are distinct") as usize;
        if id >= payload.len() {
            payload.resize(id + 1, 0.0);
        }
        payload[id] = p;
    }
}

/// Layered analogue of [`for_each_sample_instance`]: one replay of
/// `edges` enumerating, per replayed edge, every active level's
/// completed instances via [`LayeredLevels::for_each_completed`] —
/// `per_instance(level, payloads)` per instance. Per level, instances
/// arrive in exactly the order the per-pattern replay produces them
/// (the layered kernel's emission contract), so per-level payload sums
/// are bit-identical to per-pattern replays.
pub(crate) fn for_each_sample_instance_layered(
    levels: LayeredLevels,
    edges: &[(Edge, f64)],
    scratch: &mut EnumScratch,
    mut per_instance: impl FnMut(usize, &[f64]),
) {
    // Wedges are the narrowest level (2 edges); below that nothing
    // completes at any level.
    if edges.len() < 2 {
        return;
    }
    let mut g = Adjacency::with_capacity(2 * edges.len());
    let mut payload: Vec<f64> = Vec::with_capacity(edges.len());
    let mut buf: Vec<f64> = Vec::with_capacity(8);
    for &(e, p) in edges {
        levels.for_each_completed(&g, e, scratch, |level, partners| {
            buf.clear();
            for &pid in partners {
                buf.push(payload[pid as usize]);
            }
            buf.push(p);
            per_instance(level, &buf);
        });
        let id = g.insert_full(e).expect("sample edges are distinct") as usize;
        if id >= payload.len() {
            payload.resize(id + 1, 0.0);
        }
        payload[id] = p;
    }
}

/// The per-edge Horvitz–Thompson payloads of a weighted sample at
/// threshold `tau`, in sample iteration order — the replay input of the
/// weighted warm-ups. Inverse probabilities are computed directly from
/// the stored weights (not through the sample's lazy cache), so the
/// sampler is untouched.
fn weighted_replay_edges(sample: &WeightedSample, tau: f64) -> Vec<(Edge, f64)> {
    sample.iter().map(|(e, meta)| (e, 1.0 / inclusion_prob(meta.weight, tau))).collect()
}

/// Seeds one query from a prepared replay-edge slice (see
/// [`warm_start_weighted`]).
fn warm_start_weighted_from(
    edges: &[(Edge, f64)],
    query: &mut PatternQuery,
    scratch: &mut EnumScratch,
) {
    query.estimate = 0.0;
    query.tau = 0;
    for_each_sample_instance(query.pattern, edges, scratch, |payloads| {
        let mut prod = 1.0;
        for &p in payloads {
            prod *= p;
        }
        query.estimate += prod;
    });
}

/// Warm-up for the weighted samplers (WSD, GPS, GPS-A): each pattern
/// instance fully inside `sample` seeds the query with the
/// Horvitz–Thompson product `Π_{e ∈ J} 1/P[r(e) > τ]` over **all** its
/// edges.
pub(crate) fn warm_start_weighted(
    sample: &WeightedSample,
    tau: f64,
    query: &mut PatternQuery,
    scratch: &mut EnumScratch,
) {
    let edges = weighted_replay_edges(sample, tau);
    warm_start_weighted_from(&edges, query, scratch);
}

/// Batched weighted warm-up: one sample snapshot, and **one** layered
/// replay feeding every nested-pattern query at its level (queries off
/// the ladder replay individually from the shared snapshot).
/// Bit-identical to per-query [`warm_start_weighted`] — the layered
/// replay emits each level in the per-pattern replay's order, and
/// per-level sums start from the same 0.0.
pub(crate) fn warm_start_weighted_many(
    sample: &WeightedSample,
    tau: f64,
    queries: &mut [PatternQuery],
    scratch: &mut EnumScratch,
) {
    let mut levels = LayeredLevels::default();
    let mut nested = 0usize;
    for q in queries.iter() {
        if let Some(level) = LayeredLevels::level_of(q.pattern) {
            levels.set(level);
            nested += 1;
        }
    }
    if nested < 2 {
        for query in queries.iter_mut() {
            warm_start_weighted(sample, tau, query, scratch);
        }
        return;
    }
    let edges = weighted_replay_edges(sample, tau);
    let mut sums = [0.0f64; LayeredLevels::COUNT];
    for_each_sample_instance_layered(levels, &edges, scratch, |level, payloads| {
        let mut prod = 1.0;
        for &p in payloads {
            prod *= p;
        }
        sums[level] += prod;
    });
    for query in queries.iter_mut() {
        match LayeredLevels::level_of(query.pattern) {
            Some(level) => {
                query.estimate = sums[level];
                query.tau = 0;
            }
            None => warm_start_weighted_from(&edges, query, scratch),
        }
    }
}

/// A per-query line of a [`SessionReport`].
#[derive(Clone, Debug)]
pub struct QueryReport {
    /// The query's handle within the session.
    pub id: QueryId,
    /// The pattern the query counts.
    pub pattern: Pattern,
    /// The query's current estimate.
    pub estimate: f64,
}

/// Combined snapshot of every query attached to a session.
#[derive(Clone, Debug)]
pub struct SessionReport {
    /// Algorithm display name.
    pub algorithm: String,
    /// Events processed so far.
    pub events: u64,
    /// Edges currently held in the sampling structures.
    pub stored_edges: usize,
    /// One line per attached query, in attachment order.
    pub queries: Vec<QueryReport>,
}

/// Point-in-time snapshot of a single query (the per-query analogue of
/// [`SessionReport`]).
#[derive(Copy, Clone, Debug)]
pub struct QueryCheckpoint {
    /// The query's handle.
    pub id: QueryId,
    /// The pattern being counted.
    pub pattern: Pattern,
    /// The current estimate.
    pub estimate: f64,
    /// Events processed by the session so far.
    pub events: u64,
    /// Edges currently held by the sampler.
    pub stored_edges: usize,
}

/// One shared sampler pass answering N pattern queries.
///
/// Built by [`SessionBuilder`]; see the [module docs](self) for the
/// overall design and an example.
pub struct StreamSession {
    sampler: Box<dyn EdgeSampler>,
    /// Active queries, in attachment order.
    queries: Vec<PatternQuery>,
    /// Handle table: `handles[id.index] = Some(index into queries)`
    /// while the query is attached, `None` after detach.
    handles: Vec<Option<usize>>,
    /// Query ids in attachment order (parallel to `queries`).
    ids: Vec<QueryId>,
    /// This session's handle token (process-unique; see [`QueryId`]).
    token: u64,
    events: u64,
    /// Enumeration workspace shared by every attached query.
    scratch: EnumScratch,
    /// Layered execution toggle (default on); see
    /// [`SessionBuilder::with_layered`].
    layered: bool,
    /// Current layered plan, recomputed on attach/detach.
    plan: Option<LayeredPlan>,
    /// The builder configuration this session was built from (`None`
    /// for [`StreamSession::from_parts`] sessions) — what
    /// [`StreamSession::snapshot`] carries so a restore can rebuild the
    /// sampler skeleton.
    config: Option<SessionBuilder>,
}

/// Mints a process-unique session token so handles from one session
/// cannot silently address another session's queries.
fn next_token() -> u64 {
    static NEXT_TOKEN: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    NEXT_TOKEN.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

impl StreamSession {
    /// Assembles a session from a sampler and initial query patterns —
    /// the backend of [`SessionBuilder::build`]. Prefer the builder
    /// (sessions assembled from raw parts carry no rebuildable
    /// configuration, so they cannot [`StreamSession::snapshot`]).
    pub fn from_parts(sampler: Box<dyn EdgeSampler>, patterns: &[Pattern]) -> Self {
        let mut session = Self {
            sampler,
            queries: Vec::new(),
            handles: Vec::new(),
            ids: Vec::new(),
            token: next_token(),
            events: 0,
            scratch: EnumScratch::default(),
            layered: true,
            plan: None,
            config: None,
        };
        session.attach_many(patterns);
        session
    }

    /// Captures the session's complete state — builder configuration,
    /// attached queries (estimates and handles), and the sampler's
    /// dynamic state — as a self-contained [`SessionSnapshot`].
    ///
    /// A session rebuilt with [`StreamSession::restore`] resumes the
    /// stream **bit-identically**: every subsequent event produces the
    /// same estimate bits, reservoir slot orders and RNG draws as the
    /// uninterrupted original (the `snapshot_equivalence` suite pins
    /// this for all six algorithms). Serialize with
    /// [`SessionSnapshot::encode`].
    ///
    /// # Panics
    ///
    /// Panics if the session was assembled with
    /// [`StreamSession::from_parts`], which carries no rebuildable
    /// configuration.
    pub fn snapshot(&self) -> SessionSnapshot {
        let builder = self
            .config
            .as_ref()
            .expect("only sessions built by SessionBuilder can snapshot (from_parts cannot)");
        SessionSnapshot {
            config: SessionConfig {
                algorithm: builder.algorithm,
                capacity: builder.capacity as u64,
                seed: builder.seed,
                pooling: builder.pooling,
                wrs_fraction: builder.wrs_fraction,
                weight_pattern: builder
                    .weight_pattern
                    .or_else(|| builder.patterns.first().copied()),
                layered: self.layered,
                policy: builder.policy.clone(),
            },
            events: self.events,
            queries: self
                .queries
                .iter()
                .map(|q| QuerySnapshot { pattern: q.pattern, estimate: q.estimate, tau: q.tau })
                .collect(),
            handles: self.handles.iter().map(|h| h.map(|i| i as u32)).collect(),
            sampler: self.sampler.snapshot_state(),
        }
    }

    /// Rebuilds a session from a [`SessionSnapshot`]: a fresh sampler
    /// skeleton is built from the carried configuration, then every
    /// piece of dynamic state is overlaid verbatim. The restored
    /// session is bit-identical to the original for all subsequent
    /// events (see [`StreamSession::snapshot`]).
    ///
    /// Query handles are **re-minted**: the restored session issues its
    /// own token, so [`QueryId`]s from the original session do not
    /// resolve here — reacquire them via [`StreamSession::queries`]
    /// (attachment order, including handle slots, is preserved).
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's sampler state does not match its
    /// declared algorithm, or the configuration itself is unbuildable
    /// (e.g. a policy dimension mismatching the weight pattern).
    pub fn restore(snapshot: &SessionSnapshot) -> Self {
        let cfg = &snapshot.config;
        let mut builder = SessionBuilder::new(cfg.algorithm, cfg.capacity as usize, cfg.seed)
            .with_pooling(cfg.pooling)
            .with_wrs_fraction(cfg.wrs_fraction)
            .with_layered(cfg.layered);
        if let Some(p) = cfg.weight_pattern {
            builder = builder.with_weight_pattern(p);
        }
        if let Some(policy) = cfg.policy.clone() {
            builder = builder.with_policy(policy);
        }
        let mut sampler = builder.build_sampler();
        sampler.restore_state(&snapshot.sampler);
        let token = next_token();
        let queries: Vec<PatternQuery> = snapshot
            .queries
            .iter()
            .map(|q| {
                let mut query = PatternQuery::new(q.pattern);
                query.estimate = q.estimate;
                query.tau = q.tau;
                query
            })
            .collect();
        // Rebuild the id table from the handle slots (ids are parallel
        // to queries; handle order is attachment order).
        let mut ids = vec![QueryId { session: token, index: 0 }; queries.len()];
        for (hi, h) in snapshot.handles.iter().enumerate() {
            if let Some(qi) = h {
                ids[*qi as usize] = QueryId { session: token, index: hi };
            }
        }
        let mut session = Self {
            sampler,
            queries,
            handles: snapshot.handles.iter().map(|h| h.map(|q| q as usize)).collect(),
            ids,
            token,
            events: snapshot.events,
            scratch: EnumScratch::default(),
            layered: cfg.layered,
            plan: None,
            config: Some(builder),
        };
        session.replan();
        session
    }

    /// Enables or disables layered (shared) enumeration. On by
    /// default; disabling forces today's per-query passes — estimates
    /// are bit-identical either way (the layered-equivalence suite pins
    /// it), so this is a measurement/debugging knob, not a semantic
    /// one. Takes effect from the next event.
    pub fn set_layered(&mut self, enabled: bool) {
        self.layered = enabled;
        self.replan();
    }

    /// Recomputes the layered plan after any change to the attached
    /// query set (or the toggle).
    fn replan(&mut self) {
        self.plan = if self.layered { LayeredPlan::plan(&self.queries) } else { None };
    }

    /// The active layered plan, if the current query mix nests (see
    /// the [module docs](self)).
    pub fn layered_plan(&self) -> Option<&LayeredPlan> {
        self.plan.as_ref()
    }

    /// Processes one stream event: the sampler updates every attached
    /// query's estimator against the shared sample, then applies its
    /// admission/eviction logic.
    pub fn process(&mut self, ev: EdgeEvent) {
        self.sampler.process(
            ev,
            QueryCtx {
                queries: &mut self.queries,
                scratch: &mut self.scratch,
                plan: self.plan.as_ref(),
            },
        );
        self.events += 1;
    }

    /// Processes a batch of consecutive events (bit-identical to
    /// per-event processing, with per-event overheads amortised).
    pub fn process_batch(&mut self, batch: &[EdgeEvent]) {
        self.sampler.process_batch(
            batch,
            QueryCtx {
                queries: &mut self.queries,
                scratch: &mut self.scratch,
                plan: self.plan.as_ref(),
            },
        );
        self.events += batch.len() as u64;
    }

    /// Processes a whole stream in engine-sized batches (delegates to
    /// the engine's one canonical chunking loop).
    pub fn process_all(&mut self, stream: &[EdgeEvent]) {
        crate::engine::BatchDriver::new().run_session(self, stream);
    }

    /// Attaches a new query mid-stream. The query warms up by
    /// enumerating the pattern instances inside the current sample once
    /// (see [`EdgeSampler::warm_start`]), then tracks every subsequent
    /// event incrementally. The sampler itself is untouched: its
    /// trajectory is identical with or without the new query.
    ///
    /// # Panics
    ///
    /// Panics if the sampler's budget cannot support the pattern.
    pub fn attach(&mut self, pattern: Pattern) -> QueryId {
        self.sampler.assert_capacity_for(pattern);
        let mut query = PatternQuery::new(pattern);
        self.sampler.warm_start(&mut query, &mut self.scratch);
        let id = QueryId { session: self.token, index: self.handles.len() };
        self.handles.push(Some(self.queries.len()));
        self.queries.push(query);
        self.ids.push(id);
        self.replan();
        id
    }

    /// Attaches several queries at once, warm-starting them all from
    /// **one** replay of the current sample (per-query
    /// [`StreamSession::attach`] replays the sample once per call).
    /// Estimates are bit-identical to attaching the patterns one by
    /// one, in order; the returned ids are in `patterns` order.
    ///
    /// # Panics
    ///
    /// Panics if the sampler's budget cannot support one of the
    /// patterns.
    pub fn attach_many(&mut self, patterns: &[Pattern]) -> Vec<QueryId> {
        for &p in patterns {
            self.sampler.assert_capacity_for(p);
        }
        let start = self.queries.len();
        let mut ids = Vec::with_capacity(patterns.len());
        for &p in patterns {
            let id = QueryId { session: self.token, index: self.handles.len() };
            self.handles.push(Some(self.queries.len()));
            self.queries.push(PatternQuery::new(p));
            self.ids.push(id);
            ids.push(id);
        }
        self.sampler.warm_start_many(&mut self.queries[start..], &mut self.scratch);
        self.replan();
        ids
    }

    /// Resolves a handle to its slot in `queries`.
    ///
    /// # Panics
    ///
    /// Panics if the handle was issued by a different session or its
    /// query was detached.
    fn resolve(&self, id: QueryId) -> usize {
        assert_eq!(id.session, self.token, "query id was issued by a different session");
        self.handles[id.index].expect("query is detached")
    }

    /// Detaches a query, returning its final estimate. The sampler keeps
    /// streaming unaffected; the handle is retired (re-attach the
    /// pattern for a fresh, warm-started query).
    ///
    /// # Panics
    ///
    /// Panics if the query was already detached or the id was issued by
    /// a different session.
    pub fn detach(&mut self, id: QueryId) -> f64 {
        assert_eq!(id.session, self.token, "query id was issued by a different session");
        let idx = self.handles[id.index].take().expect("query already detached");
        let final_estimate = self.sampler.query_estimate(&self.queries[idx]);
        self.queries.remove(idx);
        self.ids.remove(idx);
        // Later queries shift down one slot.
        for h in self.handles.iter_mut().flatten() {
            if *h > idx {
                *h -= 1;
            }
        }
        self.replan();
        final_estimate
    }

    /// The current estimate of an attached query.
    ///
    /// # Panics
    ///
    /// Panics if the query was detached or the id is foreign.
    pub fn estimate(&self, id: QueryId) -> f64 {
        self.sampler.query_estimate(&self.queries[self.resolve(id)])
    }

    /// A point-in-time snapshot of one query.
    ///
    /// # Panics
    ///
    /// Panics if the query was detached.
    pub fn checkpoint(&self, id: QueryId) -> QueryCheckpoint {
        QueryCheckpoint {
            id,
            pattern: self.pattern(id),
            estimate: self.estimate(id),
            events: self.events,
            stored_edges: self.stored_edges(),
        }
    }

    /// Combined snapshot of every attached query.
    pub fn report(&self) -> SessionReport {
        SessionReport {
            algorithm: self.sampler.name().to_string(),
            events: self.events,
            stored_edges: self.stored_edges(),
            queries: self
                .ids
                .iter()
                .zip(&self.queries)
                .map(|(&id, q)| QueryReport {
                    id,
                    pattern: q.pattern,
                    estimate: self.sampler.query_estimate(q),
                })
                .collect(),
        }
    }

    /// The pattern of an attached query.
    ///
    /// # Panics
    ///
    /// Panics if the query was detached or the id is foreign.
    pub fn pattern(&self, id: QueryId) -> Pattern {
        self.queries[self.resolve(id)].pattern
    }

    /// Iterates `(id, pattern)` of the attached queries in attachment
    /// order.
    pub fn queries(&self) -> impl Iterator<Item = (QueryId, Pattern)> + '_ {
        self.ids.iter().zip(&self.queries).map(|(&id, q)| (id, q.pattern))
    }

    /// Number of currently attached queries.
    pub fn num_queries(&self) -> usize {
        self.queries.len()
    }

    /// Hot-swaps the weighted sampler's weight function mid-stream —
    /// how a served tenant upgrades from the heuristic to a freshly
    /// trained policy (or back) without losing its session.
    ///
    /// **Pinned semantics** (the `hot_swap` suite enforces all three):
    ///
    /// * The reservoir is untouched: stored edges keep their
    ///   admission-time weights, ranks and thresholds (τp, τq), and the
    ///   sampler's RNG stream does not advance. Only *future*
    ///   observations are weighted by the new function, so estimates
    ///   stay unbiased — the inclusion identity of Lemma 1 holds per
    ///   edge at its own admission weight.
    /// * Swapping in a weight function identical to the current one is
    ///   a bit-for-bit no-op on every subsequent estimate (the
    ///   weight-mode/fusion plan is re-resolved to the exact same
    ///   state, preserving fused-query bit-identity through the
    ///   `with_weight_pattern` path).
    /// * From the swap point on, the session is bit-identical to a
    ///   session of the target weight function whose dynamic state at
    ///   the swap point is the original's (pinned against a
    ///   snapshot/restore twin).
    ///
    /// The session's rebuildable configuration is updated to the target
    /// algorithm ([`Algorithm::WsdUniform`] / [`Algorithm::WsdH`] /
    /// [`Algorithm::WsdL`]), so a [`StreamSession::snapshot`] taken
    /// after the swap restores the swapped weight function.
    ///
    /// # Errors
    ///
    /// [`WeightSwapError::Unsupported`] if the sampler is not in the
    /// WSD family; [`WeightSwapError::DimensionMismatch`] if a policy's
    /// dimension does not fit the sampler's weight pattern. On error
    /// the session is unchanged.
    pub fn set_weight_fn(&mut self, spec: WeightSpec) -> Result<(), WeightSwapError> {
        self.sampler.set_weight_fn(&spec)?;
        // Keep the snapshot configuration truthful: a post-swap
        // snapshot must rebuild the swapped weight function.
        if let Some(builder) = self.config.as_mut() {
            match spec {
                WeightSpec::Uniform => {
                    builder.algorithm = Algorithm::WsdUniform;
                    builder.policy = None;
                }
                WeightSpec::Heuristic => {
                    builder.algorithm = Algorithm::WsdH;
                    builder.policy = None;
                }
                WeightSpec::Policy(p) => {
                    builder.algorithm = Algorithm::WsdL;
                    builder.policy = Some(p);
                }
            }
        }
        Ok(())
    }

    /// Events processed so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Edges currently held in the sampling structures.
    pub fn stored_edges(&self) -> usize {
        self.sampler.stored_edges()
    }

    /// Algorithm display name.
    pub fn name(&self) -> &str {
        self.sampler.name()
    }
}

/// Builder for [`StreamSession`]s: pick the algorithm, budget and seed,
/// then attach any number of pattern queries to the one shared sampler
/// pass.
///
/// ```
/// use wsd_core::{Algorithm, SessionBuilder};
/// use wsd_graph::Pattern;
///
/// let session = SessionBuilder::new(Algorithm::Wrs, 64, 7)
///     .query(Pattern::Triangle)
///     .query(Pattern::Wedge)
///     .build();
/// assert_eq!(session.num_queries(), 2);
/// assert_eq!(session.name(), "WRS");
/// ```
#[derive(Clone, Debug)]
pub struct SessionBuilder {
    algorithm: Algorithm,
    capacity: usize,
    seed: u64,
    patterns: Vec<Pattern>,
    policy: Option<LinearPolicy>,
    pooling: TemporalPooling,
    wrs_fraction: f64,
    weight_pattern: Option<Pattern>,
    layered: bool,
}

impl SessionBuilder {
    /// Starts a builder with the paper's defaults: memory budget
    /// `capacity` edges, sampling RNG seeded with `seed`.
    pub fn new(algorithm: Algorithm, capacity: usize, seed: u64) -> Self {
        Self {
            algorithm,
            capacity,
            seed,
            patterns: Vec::new(),
            policy: None,
            pooling: TemporalPooling::Max,
            wrs_fraction: crate::algorithms::wrs::DEFAULT_WAITING_ROOM_FRACTION,
            weight_pattern: None,
            layered: true,
        }
    }

    /// Attaches a pattern query (repeatable; queries are reported in
    /// attachment order).
    pub fn query(mut self, pattern: Pattern) -> Self {
        self.patterns.push(pattern);
        self
    }

    /// Attaches several pattern queries at once.
    pub fn queries(mut self, patterns: impl IntoIterator<Item = Pattern>) -> Self {
        self.patterns.extend(patterns);
        self
    }

    /// Attaches a learned policy (consumed by WSD-L).
    pub fn with_policy(mut self, policy: LinearPolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Sets the temporal pooling variant of the WSD-L state.
    pub fn with_pooling(mut self, pooling: TemporalPooling) -> Self {
        self.pooling = pooling;
        self
    }

    /// Sets the WRS waiting-room fraction.
    pub fn with_wrs_fraction(mut self, fraction: f64) -> Self {
        self.wrs_fraction = fraction;
        self
    }

    /// Enables or disables layered (shared) enumeration for nesting
    /// query mixes (default: enabled). Estimates are bit-identical
    /// either way; see [`StreamSession::set_layered`].
    pub fn with_layered(mut self, enabled: bool) -> Self {
        self.layered = enabled;
        self
    }

    /// Pins the pattern the weighted samplers (WSD, GPS, GPS-A) observe
    /// their edge weights on. Defaults to the first attached query's
    /// pattern. The weight pattern fixes the sampler's trajectory: a
    /// query counting the same pattern shares its enumeration pass with
    /// the weight observation, other queries run their own estimator
    /// passes over the shared sample.
    pub fn with_weight_pattern(mut self, pattern: Pattern) -> Self {
        self.weight_pattern = Some(pattern);
        self
    }

    /// The weight pattern the built sampler will observe (weighted
    /// algorithms only).
    fn resolve_weight_pattern(&self) -> Pattern {
        self.weight_pattern.or_else(|| self.patterns.first().copied()).expect(
            "weighted samplers need a weight pattern: attach a query or set with_weight_pattern",
        )
    }

    /// Builds the session: one sampler for the chosen algorithm with
    /// every requested query attached (cold — the sample is empty).
    ///
    /// # Panics
    ///
    /// Panics if a weighted algorithm has neither a query nor an
    /// explicit weight pattern, if the budget cannot support one of the
    /// query patterns, or if a WSD-L policy's dimension does not match
    /// the weight pattern.
    pub fn build(self) -> StreamSession {
        let sampler = self.build_sampler();
        let mut session = StreamSession::from_parts(sampler, &self.patterns);
        if !self.layered {
            session.set_layered(false);
        }
        // Remember the configuration so the session can snapshot.
        session.config = Some(self);
        session
    }

    /// Builds just the sampler layer (the session backend; exposed for
    /// tests that drive [`EdgeSampler`] directly).
    pub fn build_sampler(&self) -> Box<dyn EdgeSampler> {
        use crate::algorithms::{
            GpsASampler, GpsSampler, ThinkDSampler, TriestSampler, WrsSampler, WsdSampler,
        };
        let heuristic: Box<dyn WeightFn> = Box::new(HeuristicWeight);
        match self.algorithm {
            Algorithm::WsdL => {
                let wp = self.resolve_weight_pattern();
                let dim = wp.num_edges() + 3;
                let policy = self.policy.clone().unwrap_or_else(|| LinearPolicy::neutral(dim));
                assert_eq!(
                    policy.dim(),
                    dim,
                    "policy dimension {} does not match weight-pattern state dimension {dim}",
                    policy.dim()
                );
                Box::new(
                    WsdSampler::new(wp, self.capacity, Box::new(policy), self.pooling, self.seed)
                        .with_name("WSD-L"),
                )
            }
            Algorithm::WsdH => Box::new(WsdSampler::new(
                self.resolve_weight_pattern(),
                self.capacity,
                heuristic,
                self.pooling,
                self.seed,
            )),
            Algorithm::WsdUniform => Box::new(
                WsdSampler::new(
                    self.resolve_weight_pattern(),
                    self.capacity,
                    Box::new(UniformWeight),
                    self.pooling,
                    self.seed,
                )
                .with_name("WSD-U"),
            ),
            Algorithm::GpsA => Box::new(GpsASampler::new(
                self.resolve_weight_pattern(),
                self.capacity,
                heuristic,
                self.seed,
            )),
            Algorithm::Gps => Box::new(GpsSampler::new(
                self.resolve_weight_pattern(),
                self.capacity,
                heuristic,
                self.seed,
            )),
            Algorithm::Triest => Box::new(TriestSampler::new(self.capacity, self.seed)),
            Algorithm::ThinkD => Box::new(ThinkDSampler::new(self.capacity, self.seed)),
            Algorithm::Wrs => {
                Box::new(WrsSampler::with_fraction(self.capacity, self.wrs_fraction, self.seed))
            }
        }
    }
}

/// Test harness: one concrete sampler plus a single plan-less query,
/// driven through [`EdgeSampler::process`] — white-box unit tests read
/// the sampler's own accessors (thresholds, room state) between events.
#[cfg(test)]
pub(crate) struct OneQuery<S> {
    pub(crate) sampler: S,
    pub(crate) query: PatternQuery,
    scratch: EnumScratch,
}

#[cfg(test)]
impl<S: EdgeSampler> OneQuery<S> {
    /// Attaches a cold `pattern` query to `sampler`.
    ///
    /// # Panics
    ///
    /// Panics if the pattern is invalid or the sampler's budget cannot
    /// support it.
    pub(crate) fn new(sampler: S, pattern: Pattern) -> Self {
        let query = PatternQuery::new(pattern);
        sampler.assert_capacity_for(pattern);
        Self { sampler, query, scratch: EnumScratch::default() }
    }

    pub(crate) fn process(&mut self, ev: EdgeEvent) {
        let ctx = QueryCtx::new(std::slice::from_mut(&mut self.query), &mut self.scratch);
        self.sampler.process(ev, ctx);
    }

    pub(crate) fn estimate(&self) -> f64 {
        self.sampler.query_estimate(&self.query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ins(a: u64, b: u64) -> EdgeEvent {
        EdgeEvent::insert(Edge::new(a, b))
    }

    fn del(a: u64, b: u64) -> EdgeEvent {
        EdgeEvent::delete(Edge::new(a, b))
    }

    #[test]
    fn multi_query_session_is_exact_when_nothing_evicts() {
        let mut s = SessionBuilder::new(Algorithm::WsdH, 128, 1)
            .query(Pattern::Wedge)
            .query(Pattern::Triangle)
            .build();
        for ev in [ins(1, 2), ins(2, 3), ins(1, 3), ins(3, 4)] {
            s.process(ev);
        }
        let r = s.report();
        assert_eq!(r.algorithm, "WSD-H");
        assert_eq!(r.events, 4);
        assert_eq!(r.stored_edges, 4);
        // Wedges: (1-2,2-3), (1-2,1-3), (2-3,1-3 via shared 3? no — pairs
        // sharing an endpoint): centred 1: {12,13}; centred 2: {12,23};
        // centred 3: {23,13},{23,34},{13,34} → 5. Triangle: one.
        assert_eq!(r.queries[0].estimate, 5.0);
        assert_eq!(r.queries[1].estimate, 1.0);
        s.process(del(1, 3));
        assert_eq!(s.estimate(r.queries[1].id), 0.0);
        assert_eq!(s.estimate(r.queries[0].id), 2.0);
    }

    #[test]
    fn attach_warms_up_from_the_current_sample() {
        // Capacity large enough that the sample holds everything: the
        // warm-started query must equal the exact in-sample count.
        let mut s = SessionBuilder::new(Algorithm::WsdH, 128, 2).query(Pattern::Triangle).build();
        for ev in [ins(1, 2), ins(2, 3), ins(1, 3), ins(3, 4), ins(2, 4)] {
            s.process(ev);
        }
        let wedges = s.attach(Pattern::Wedge);
        // τ is still 0 (never filled) → every inverse probability is 1 →
        // warm-up equals the exact wedge count of the sampled graph.
        let adj_wedges = s.estimate(wedges);
        assert_eq!(adj_wedges, 8.0);
        // Subsequent events update the warmed query incrementally.
        s.process(ins(1, 4));
        assert_eq!(s.estimate(wedges), 8.0 + 4.0);
    }

    #[test]
    fn detach_retires_the_handle_and_keeps_others_live() {
        let mut s = SessionBuilder::new(Algorithm::Triest, 64, 3)
            .query(Pattern::Triangle)
            .query(Pattern::Wedge)
            .build();
        let ids: Vec<QueryId> = s.queries().map(|(id, _)| id).collect();
        for ev in [ins(1, 2), ins(2, 3), ins(1, 3)] {
            s.process(ev);
        }
        let final_tri = s.detach(ids[0]);
        assert_eq!(final_tri, 1.0);
        assert_eq!(s.num_queries(), 1);
        assert_eq!(s.estimate(ids[1]), 3.0);
        // Re-attaching yields a fresh id, warm-started.
        let tri2 = s.attach(Pattern::Triangle);
        assert_ne!(tri2, ids[0]);
        assert_eq!(s.estimate(tri2), 1.0);
    }

    #[test]
    #[should_panic(expected = "different session")]
    fn foreign_query_id_panics() {
        let a = SessionBuilder::new(Algorithm::Triest, 64, 1).query(Pattern::Triangle).build();
        let b = SessionBuilder::new(Algorithm::Triest, 64, 1).query(Pattern::Wedge).build();
        let (id_a, _) = a.queries().next().unwrap();
        // Same slot index, different session: must panic, not alias b's
        // wedge query.
        let _ = b.estimate(id_a);
    }

    #[test]
    #[should_panic(expected = "already detached")]
    fn double_detach_panics() {
        let mut s = SessionBuilder::new(Algorithm::ThinkD, 64, 4).query(Pattern::Triangle).build();
        let (id, _) = s.queries().next().unwrap();
        s.detach(id);
        s.detach(id);
    }

    #[test]
    #[should_panic(expected = "weight pattern")]
    fn weighted_session_without_queries_needs_explicit_weight_pattern() {
        let _ = SessionBuilder::new(Algorithm::WsdH, 64, 5).build();
    }

    #[test]
    fn uniform_session_without_queries_attaches_later() {
        let mut s = SessionBuilder::new(Algorithm::Wrs, 64, 6).build();
        for ev in [ins(1, 2), ins(2, 3), ins(1, 3)] {
            s.process(ev);
        }
        let tri = s.attach(Pattern::Triangle);
        assert_eq!(s.estimate(tri), 1.0);
    }

    #[test]
    fn replay_enumerates_each_instance_once() {
        // A 4-cycle with one chord: triangles {1,2,3} and {1,3,4}.
        let edges: Vec<(Edge, f64)> = [(1, 2), (2, 3), (1, 3), (3, 4), (1, 4)]
            .into_iter()
            .map(|(a, b)| (Edge::new(a, b), 2.0))
            .collect();
        let mut scratch = EnumScratch::default();
        let mut count = 0;
        let mut mass = 0.0;
        for_each_sample_instance(Pattern::Triangle, &edges, &mut scratch, |payloads| {
            assert_eq!(payloads.len(), 3);
            count += 1;
            mass += payloads.iter().product::<f64>();
        });
        assert_eq!(count, 2);
        assert_eq!(mass, 16.0); // 2³ per triangle
    }
}
