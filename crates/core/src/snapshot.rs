//! Session snapshot/restore: serialize a [`StreamSession`]'s complete
//! sampler and query state into a self-contained byte blob, and rebuild
//! a session from one that is **bit-identical going forward** — for
//! every subsequent event the restored session produces the exact same
//! estimate bits, reservoir slot orders, and RNG draws as the
//! uninterrupted original (pinned by the `snapshot_equivalence`
//! differential suite).
//!
//! # What is (and is not) serialized
//!
//! A snapshot carries the *builder configuration* (algorithm, budget,
//! seed, pooling, WRS fraction, resolved weight pattern, optional
//! learned policy) plus the *dynamic state*:
//! the attached queries' estimators, the rank heap in **verbatim slot
//! order** (heap layout is observable — tie-breaking and sift order
//! depend on it), the sampled adjacency as a canonical
//! [`AdjacencyLayout`] (verbatim per-vertex slot order, arena free list,
//! ID bound), per-edge weight/time metadata, algorithm-specific
//! bookkeeping (GPS-A item tables, the WRS waiting room with its ghost
//! entries and spill horizon), and the sampler RNG's xoshiro256++ words.
//!
//! Pure caches are **not** serialized: the τ-epoch `1/p` cache and the
//! spill hash indices are rebuilt lazily (or re-attached from current
//! degrees) on restore — they affect probe strategy and speed, never
//! emission order, so estimates stay bit-identical.
//!
//! The encoding is a fixed little-endian byte format behind
//! [`ByteWriter`]/[`ByteReader`] (no serde in this workspace); floats
//! travel as raw IEEE-754 bits so round-trips are exact. The same module
//! holds the rest of the workspace's byte envelope: the [`fnv1a64`]
//! integrity hash that checksummed files trail their content with, and
//! [`write_file_atomic`], the one crash-safe way files are written.
//!
//! [`StreamSession`]: crate::session::StreamSession
//! [`AdjacencyLayout`]: wsd_graph::AdjacencyLayout

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::Path;

use crate::algorithms::wrs::room_split;
use crate::config::Algorithm;
use crate::state::TemporalPooling;
use crate::weight::{FeatureNorm, LinearPolicy};
use wsd_graph::{AdjacencyLayout, Edge, EdgeId, Pattern, Vertex};

/// Magic bytes opening every encoded snapshot.
const MAGIC: &[u8; 4] = b"WSDS";
/// Encoding version (bump on any layout change). Blobs of any other
/// version are rejected with [`SnapshotError::BadHeader`]; there is no
/// compatibility reader.
const VERSION: u32 = 4;

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Decoding failure for a snapshot (or any [`ByteReader`] stream).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The input ended before the value being read was complete.
    Truncated,
    /// The input does not open with the snapshot magic/version header.
    BadHeader,
    /// A tag byte holds a value outside its enum's range.
    BadTag(&'static str),
    /// Decoded values violate a structural invariant.
    Invalid(&'static str),
    /// Trailing bytes remained after the final field.
    TrailingBytes,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadHeader => write!(f, "not a snapshot (bad magic or version)"),
            SnapshotError::BadTag(what) => write!(f, "invalid tag for {what}"),
            SnapshotError::Invalid(what) => write!(f, "invariant violation: {what}"),
            SnapshotError::TrailingBytes => write!(f, "trailing bytes after snapshot"),
        }
    }
}

impl std::error::Error for SnapshotError {}

// ---------------------------------------------------------------------
// Byte codec
// ---------------------------------------------------------------------

/// Little-endian byte sink for the snapshot (and wire) encodings.
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Starts an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends raw bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte (0/1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a `u32` little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64` little-endian.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its raw IEEE-754 bits (exact round-trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a collection length as `u64`.
    pub fn put_len(&mut self, n: usize) {
        self.put_u64(n as u64);
    }
}

/// Little-endian byte source mirroring [`ByteWriter`].
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Starts reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes the next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool byte, rejecting values other than 0/1.
    pub fn get_bool(&mut self) -> Result<bool, SnapshotError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::BadTag("bool")),
        }
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, SnapshotError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads an `f64` from its raw IEEE-754 bits.
    pub fn get_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a collection length, bounded by the remaining input so a
    /// corrupt length cannot trigger a huge allocation.
    pub fn get_len(&mut self) -> Result<usize, SnapshotError> {
        let n = self.get_u64()?;
        // Every element of every encoded collection occupies ≥ 1 byte.
        if n > self.remaining() as u64 {
            return Err(SnapshotError::Truncated);
        }
        Ok(n as usize)
    }

    /// Asserts the input was consumed exactly.
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapshotError::TrailingBytes)
        }
    }
}

/// FNV-1a, 64-bit: tiny, dependency-free corruption detection — the
/// checksum trailing policy artifacts and the serve store's files. It
/// is an integrity check against torn writes and bit rot, not an
/// authentication mechanism.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Writes `bytes` to `path` atomically: the bytes go to a `<name>.tmp`
/// sibling, which is fsynced and renamed over `path`, and then the
/// directory is fsynced so the rename itself is durable. A reader sees
/// either the old complete file or the new complete file, never a torn
/// one.
pub fn write_file_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp_name = path.file_name().unwrap_or_default().to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    // Not every platform exposes a directory fsync, so a failure here
    // downgrades to best-effort.
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(Path::new("."));
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Leaf encoders
// ---------------------------------------------------------------------

/// Appends a pattern: a tag byte, plus the order byte for
/// [`Pattern::Clique`]. The one pattern encoding of snapshots, policy
/// artifacts and the serve wire protocol.
pub fn put_pattern(w: &mut ByteWriter, p: Pattern) {
    match p {
        Pattern::Wedge => w.put_u8(0),
        Pattern::Triangle => w.put_u8(1),
        Pattern::FourClique => w.put_u8(2),
        Pattern::Clique(k) => {
            w.put_u8(3);
            w.put_u8(k);
        }
    }
}

/// Reads a pattern written by [`put_pattern`], rejecting every clique
/// order [`Pattern::validate`] rejects, so no decoded pattern can panic
/// a session or query constructor later.
pub fn get_pattern(r: &mut ByteReader<'_>) -> Result<Pattern, SnapshotError> {
    let p = match r.get_u8()? {
        0 => Pattern::Wedge,
        1 => Pattern::Triangle,
        2 => Pattern::FourClique,
        3 => Pattern::Clique(r.get_u8()?),
        _ => return Err(SnapshotError::BadTag("pattern")),
    };
    p.validate().map_err(|_| SnapshotError::Invalid("clique order out of range"))?;
    Ok(p)
}

/// Appends an algorithm as one tag byte — the encoding snapshots and
/// the serve wire protocol share.
pub fn put_algorithm(w: &mut ByteWriter, a: Algorithm) {
    w.put_u8(match a {
        Algorithm::WsdL => 0,
        Algorithm::WsdH => 1,
        Algorithm::WsdUniform => 2,
        Algorithm::GpsA => 3,
        Algorithm::Gps => 4,
        Algorithm::Triest => 5,
        Algorithm::ThinkD => 6,
        Algorithm::Wrs => 7,
    });
}

/// Reads an algorithm written by [`put_algorithm`].
pub fn get_algorithm(r: &mut ByteReader<'_>) -> Result<Algorithm, SnapshotError> {
    Ok(match r.get_u8()? {
        0 => Algorithm::WsdL,
        1 => Algorithm::WsdH,
        2 => Algorithm::WsdUniform,
        3 => Algorithm::GpsA,
        4 => Algorithm::Gps,
        5 => Algorithm::Triest,
        6 => Algorithm::ThinkD,
        7 => Algorithm::Wrs,
        _ => return Err(SnapshotError::BadTag("algorithm")),
    })
}

/// Appends a learned policy's parameters as `len, w…, b, len, mean…,
/// len, std…` (floats as raw IEEE-754 bits) — the one layout session
/// snapshots, `SwapPolicy` weight specs and `.wsdp` artifacts share.
pub(crate) fn put_policy(w: &mut ByteWriter, policy: &LinearPolicy) {
    w.put_len(policy.w.len());
    for &x in &policy.w {
        w.put_f64(x);
    }
    w.put_f64(policy.b);
    for xs in [policy.norm.mean(), policy.norm.std()] {
        w.put_len(xs.len());
        for &x in xs {
            w.put_f64(x);
        }
    }
}

/// Why [`get_policy`] rejected a parameter block.
pub(crate) enum PolicyDecodeError {
    /// Malformed bytes: truncation, or normaliser blocks whose length
    /// differs from the weight vector's.
    Codec(SnapshotError),
    /// A NaN or infinite value in the named block (`weight`, `bias`,
    /// `mean` or `std`): it would poison every later admission.
    NonFinite(&'static str),
}

impl From<SnapshotError> for PolicyDecodeError {
    fn from(e: SnapshotError) -> Self {
        PolicyDecodeError::Codec(e)
    }
}

impl From<PolicyDecodeError> for SnapshotError {
    fn from(e: PolicyDecodeError) -> Self {
        match e {
            PolicyDecodeError::Codec(e) => e,
            PolicyDecodeError::NonFinite(_) => {
                SnapshotError::Invalid("non-finite policy parameter")
            }
        }
    }
}

/// Reads a policy written by [`put_policy`], rejecting non-finite
/// parameters and blocks whose lengths disagree.
pub(crate) fn get_policy(r: &mut ByteReader<'_>) -> Result<LinearPolicy, PolicyDecodeError> {
    fn finite(x: f64, block: &'static str) -> Result<f64, PolicyDecodeError> {
        if x.is_finite() {
            Ok(x)
        } else {
            Err(PolicyDecodeError::NonFinite(block))
        }
    }
    let dim = r.get_len()?;
    let mut weights = Vec::with_capacity(dim);
    for _ in 0..dim {
        weights.push(finite(r.get_f64()?, "weight")?);
    }
    let b = finite(r.get_f64()?, "bias")?;
    let mut mean_std = [Vec::new(), Vec::new()];
    for (xs, block) in mean_std.iter_mut().zip(["mean", "std"]) {
        if r.get_len()? != dim {
            return Err(SnapshotError::Invalid("policy parameter block length").into());
        }
        xs.reserve(dim);
        for _ in 0..dim {
            xs.push(finite(r.get_f64()?, block)?);
        }
    }
    let [mean, std] = mean_std;
    Ok(LinearPolicy::new(weights, b, FeatureNorm::new(mean, std)))
}

fn put_edge(w: &mut ByteWriter, e: Edge) {
    w.put_u64(e.u());
    w.put_u64(e.v());
}

fn get_edge(r: &mut ByteReader<'_>) -> Result<Edge, SnapshotError> {
    let u = r.get_u64()?;
    let v = r.get_u64()?;
    Edge::try_new(u, v).ok_or(SnapshotError::Invalid("self-loop edge"))
}

fn put_rng(w: &mut ByteWriter, s: [u64; 4]) {
    for word in s {
        w.put_u64(word);
    }
}

fn get_rng(r: &mut ByteReader<'_>) -> Result<[u64; 4], SnapshotError> {
    Ok([r.get_u64()?, r.get_u64()?, r.get_u64()?, r.get_u64()?])
}

fn put_layout(w: &mut ByteWriter, layout: &AdjacencyLayout) {
    w.put_len(layout.vertices.len());
    for (u, slots) in &layout.vertices {
        w.put_u64(*u);
        w.put_len(slots.len());
        for &(v, id) in slots {
            w.put_u64(v);
            w.put_u32(id);
        }
    }
    w.put_len(layout.free.len());
    for &id in &layout.free {
        w.put_u32(id);
    }
    w.put_u32(layout.id_bound);
}

fn get_layout(r: &mut ByteReader<'_>) -> Result<AdjacencyLayout, SnapshotError> {
    let nv = r.get_len()?;
    let mut vertices = Vec::with_capacity(nv);
    for _ in 0..nv {
        let u = r.get_u64()?;
        let ns = r.get_len()?;
        let mut slots = Vec::with_capacity(ns);
        for _ in 0..ns {
            let v = r.get_u64()?;
            let id = r.get_u32()?;
            slots.push((v, id));
        }
        vertices.push((u, slots));
    }
    let nf = r.get_len()?;
    let mut free = Vec::with_capacity(nf);
    for _ in 0..nf {
        free.push(r.get_u32()?);
    }
    let id_bound = r.get_u32()?;
    Ok(AdjacencyLayout { vertices, free, id_bound })
}

fn put_heap(w: &mut ByteWriter, slots: &[(u32, f64)]) {
    w.put_len(slots.len());
    for &(key, rank) in slots {
        w.put_u32(key);
        w.put_f64(rank);
    }
}

fn get_heap(r: &mut ByteReader<'_>) -> Result<Vec<(u32, f64)>, SnapshotError> {
    let n = r.get_len()?;
    let mut slots = Vec::with_capacity(n);
    for _ in 0..n {
        let key = r.get_u32()?;
        let rank = r.get_f64()?;
        slots.push((key, rank));
    }
    Ok(slots)
}

// ---------------------------------------------------------------------
// State structs
// ---------------------------------------------------------------------

/// The weighted sampled graph's dynamic state: canonical adjacency
/// layout plus per-arena-ID `(weight, time)` metadata, sorted by ID.
#[derive(Clone, Debug, PartialEq)]
pub struct WeightedSampleState {
    /// Canonical adjacency layout (see
    /// [`wsd_graph::AdjacencyBase::layout_snapshot`]).
    pub layout: AdjacencyLayout,
    /// `(edge id, weight, insertion time)` per live edge, sorted by ID.
    pub meta: Vec<(EdgeId, f64, u64)>,
}

impl WeightedSampleState {
    fn encode(&self, w: &mut ByteWriter) {
        put_layout(w, &self.layout);
        w.put_len(self.meta.len());
        for &(id, weight, time) in &self.meta {
            w.put_u32(id);
            w.put_f64(weight);
            w.put_u64(time);
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
        let layout = get_layout(r)?;
        let n = r.get_len()?;
        let mut meta = Vec::with_capacity(n);
        for _ in 0..n {
            let id = r.get_u32()?;
            let weight = r.get_f64()?;
            let time = r.get_u64()?;
            meta.push((id, weight, time));
        }
        Ok(Self { layout, meta })
    }
}

/// The uniform random-pairing reservoir's dynamic state: edges in
/// **verbatim slot order** (the uniform victim draw indexes slots) plus
/// the RP compensation counters and live population.
#[derive(Clone, Debug, PartialEq)]
pub struct RpState {
    /// Reservoir edges in slot order.
    pub edges: Vec<Edge>,
    /// Uncompensated deletions of sampled edges.
    pub d_in: u64,
    /// Uncompensated deletions of unsampled edges.
    pub d_out: u64,
    /// Live-edge population `|E(t)|`.
    pub population: u64,
}

impl RpState {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_len(self.edges.len());
        for &e in &self.edges {
            put_edge(w, e);
        }
        w.put_u64(self.d_in);
        w.put_u64(self.d_out);
        w.put_u64(self.population);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.get_len()?;
        let mut edges = Vec::with_capacity(n);
        for _ in 0..n {
            edges.push(get_edge(r)?);
        }
        let d_in = r.get_u64()?;
        let d_out = r.get_u64()?;
        let population = r.get_u64()?;
        Ok(Self { edges, d_in, d_out, population })
    }

    /// Checks what random pairing keeps true after `events` stream
    /// events in a reservoir of `capacity`: distinct edges, `|S| ≤
    /// population ≤ events`, `|S| + d_in ≤ capacity` (each uncompensated
    /// sampled deletion frees a slot the reservoir may refill) and
    /// `d_in + d_out ≤ events`.
    fn validate(&self, events: u64, capacity: u64) -> Result<(), SnapshotError> {
        let len = self.edges.len() as u64;
        let invalid = if !(len <= self.population && self.population <= events) {
            Some("reservoir population below its sample or past the events")
        } else if len.checked_add(self.d_in).is_none_or(|n| n > capacity) {
            Some("reservoir and its pending refills exceed the capacity")
        } else if self.d_in.checked_add(self.d_out).is_none_or(|d| d > events) {
            Some("uncompensated deletions exceed the events")
        } else {
            let mut edges = self.edges.clone();
            edges.sort_unstable();
            edges.windows(2).any(|w| w[0] == w[1]).then_some("reservoir repeats an edge")
        };
        invalid.map_or(Ok(()), |what| Err(SnapshotError::Invalid(what)))
    }
}

/// Algorithm-specific sampler state — everything a freshly built
/// sampler skeleton needs overwritten to resume the original's
/// trajectory bit-for-bit. There is one variant per sampler: GPS runs
/// on the WSD sampler ([`WsdSampler::gps`]), so a GPS session
/// snapshots as [`SamplerState::Wsd`], its threshold `z` as `τ_q`.
///
/// Heaps and reservoirs travel in **verbatim slot order** (layout is
/// observable through tie-breaking, sifting, and victim draws); the
/// GPS-A item tables and WRS room-sequence stamps travel verbatim
/// *including stale entries*, because canonical snapshot bytes of the
/// original and a restored twin must stay comparable after further
/// events.
///
/// [`WsdSampler::gps`]: crate::algorithms::WsdSampler::gps
#[derive(Clone, Debug, PartialEq)]
pub enum SamplerState {
    /// WSD (all three weight variants, and GPS): rank heap keyed by
    /// arena edge ID, weighted sample, the two thresholds, event clock,
    /// RNG.
    Wsd {
        /// Heap `(edge id, rank)` in verbatim slot order.
        heap: Vec<(u32, f64)>,
        /// The weighted sampled graph.
        sample: WeightedSampleState,
        /// Eviction threshold `τ_p`.
        tau_p: f64,
        /// Deletion-compensation threshold `τ_q`.
        tau_q: f64,
        /// Event clock.
        t: u64,
        /// xoshiro256++ state words.
        rng: [u64; 4],
    },
    /// GPS-A: rank heap keyed by recycled item ID, the item tables
    /// (verbatim, stale entries included), weighted sample of the live
    /// edges, threshold, clock, RNG.
    GpsA {
        /// Heap `(item id, rank)` in verbatim slot order.
        heap: Vec<(u32, f64)>,
        /// Edge behind each item ID (verbatim, stale slots included).
        item_edge: Vec<Edge>,
        /// Live flag per item ID (verbatim).
        item_live: Vec<bool>,
        /// Free item IDs awaiting recycling (verbatim LIFO order).
        free_items: Vec<u32>,
        /// Item behind each arena edge ID (verbatim, stale slots
        /// included).
        edge_item: Vec<u32>,
        /// The weighted sampled graph (live edges only).
        sample: WeightedSampleState,
        /// Threshold `z = r_{M+1}`.
        z: f64,
        /// Event clock.
        t: u64,
        /// xoshiro256++ state words.
        rng: [u64; 4],
    },
    /// The random-pairing sampler of Triest-FD and ThinkD: uniform RP
    /// reservoir, sampled adjacency, RNG.
    Rp {
        /// The random-pairing reservoir.
        reservoir: RpState,
        /// Sampled adjacency (ID-free layout; `id_bound == 0`).
        adj: AdjacencyLayout,
        /// xoshiro256++ state words.
        rng: [u64; 4],
    },
    /// WRS: waiting room (FIFO with ghosts + sequence stamps + spill
    /// horizon), RP reservoir part, combined sampled adjacency, RNG.
    Wrs {
        /// FIFO `(edge, admission sequence)` entries, ghosts included.
        room_fifo: Vec<(Edge, u64)>,
        /// Room-epoch stamps per arena edge ID (verbatim, stale slots
        /// included).
        room_seq: Vec<u64>,
        /// Live waiting-room occupancy.
        room_len: u64,
        /// Next admission sequence number.
        next_seq: u64,
        /// Sequence of the most recently spilled room edge.
        spill_horizon: u64,
        /// The reservoir part.
        reservoir: RpState,
        /// Adjacency over waiting room ∪ reservoir (arena-tracked).
        adj: AdjacencyLayout,
        /// xoshiro256++ state words.
        rng: [u64; 4],
    },
}

impl SamplerState {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            SamplerState::Wsd { heap, sample, tau_p, tau_q, t, rng } => {
                w.put_u8(0);
                put_heap(w, heap);
                sample.encode(w);
                w.put_f64(*tau_p);
                w.put_f64(*tau_q);
                w.put_u64(*t);
                put_rng(w, *rng);
            }
            SamplerState::GpsA {
                heap,
                item_edge,
                item_live,
                free_items,
                edge_item,
                sample,
                z,
                t,
                rng,
            } => {
                w.put_u8(1);
                put_heap(w, heap);
                w.put_len(item_edge.len());
                for &e in item_edge {
                    put_edge(w, e);
                }
                w.put_len(item_live.len());
                for &live in item_live {
                    w.put_bool(live);
                }
                w.put_len(free_items.len());
                for &i in free_items {
                    w.put_u32(i);
                }
                w.put_len(edge_item.len());
                for &i in edge_item {
                    w.put_u32(i);
                }
                sample.encode(w);
                w.put_f64(*z);
                w.put_u64(*t);
                put_rng(w, *rng);
            }
            SamplerState::Rp { reservoir, adj, rng } => {
                w.put_u8(2);
                reservoir.encode(w);
                put_layout(w, adj);
                put_rng(w, *rng);
            }
            SamplerState::Wrs {
                room_fifo,
                room_seq,
                room_len,
                next_seq,
                spill_horizon,
                reservoir,
                adj,
                rng,
            } => {
                w.put_u8(3);
                w.put_len(room_fifo.len());
                for &(e, seq) in room_fifo {
                    put_edge(w, e);
                    w.put_u64(seq);
                }
                w.put_len(room_seq.len());
                for &seq in room_seq {
                    w.put_u64(seq);
                }
                w.put_u64(*room_len);
                w.put_u64(*next_seq);
                w.put_u64(*spill_horizon);
                reservoir.encode(w);
                put_layout(w, adj);
                put_rng(w, *rng);
            }
        }
    }

    /// The first waiting-room invariant a WRS state breaks, if any
    /// (other states carry no room). `WrsSampler` keeps a live edge in
    /// the room iff its stamp `room_seq[id]` exceeds `spill_horizon`,
    /// and a room edge's FIFO entry carries its stamp, so every state it
    /// writes has:
    ///
    /// * a stamp for each arena ID below `id_bound`;
    /// * FIFO sequences that strictly increase, above `spill_horizon` and
    ///   below `next_seq`, which is at most `events + 1` (one admission
    ///   per insert);
    /// * exactly `room_len` live edges stamped into the room, at most
    ///   `room_capacity`, each with a FIFO entry carrying its stamp;
    /// * the reservoir's edges as exactly the other live edges.
    fn wrs_room_error(&self, room_capacity: usize, events: u64) -> Option<&'static str> {
        let SamplerState::Wrs {
            room_fifo,
            room_seq,
            room_len,
            next_seq,
            spill_horizon,
            reservoir,
            adj,
            ..
        } = self
        else {
            return None;
        };
        let uncovered = "room stamps do not cover the arena IDs";
        if room_seq.len() < adj.id_bound as usize {
            return Some(uncovered);
        }
        let seqs = room_fifo.iter().map(|&(_, seq)| seq);
        let bounded = std::iter::once(*spill_horizon).chain(seqs).chain([*next_seq]);
        if !bounded.is_sorted_by(|a, b| a < b) || *next_seq > events.saturating_add(1) {
            return Some("room sequences out of order or past the events");
        }
        let mut roomed = Vec::new();
        let mut reserved = Vec::new();
        for (u, slots) in &adj.vertices {
            for &(v, id) in slots.iter().filter(|&&(v, _)| *u < v) {
                let Some(&stamp) = room_seq.get(id as usize) else { return Some(uncovered) };
                if stamp > *spill_horizon {
                    roomed.push((stamp, Edge::new(*u, v)));
                } else {
                    reserved.push(Edge::new(*u, v));
                }
            }
        }
        if roomed.len() as u64 != *room_len {
            return Some("room_len is not the number of live edges stamped into the room");
        }
        if roomed.len() > room_capacity {
            return Some("waiting room over its capacity");
        }
        let queued = |&(stamp, e): &(u64, Edge)| {
            room_fifo
                .binary_search_by_key(&stamp, |&(_, seq)| seq)
                .is_ok_and(|i| room_fifo[i].0 == e)
        };
        if !roomed.iter().all(queued) {
            return Some("room edge without a FIFO entry carrying its stamp");
        }
        let mut sampled = reservoir.edges.clone();
        sampled.sort_unstable();
        reserved.sort_unstable();
        (reserved != sampled).then_some("live edges outside the room are not the reservoir's")
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
        Ok(match r.get_u8()? {
            0 => SamplerState::Wsd {
                heap: get_heap(r)?,
                sample: WeightedSampleState::decode(r)?,
                tau_p: r.get_f64()?,
                tau_q: r.get_f64()?,
                t: r.get_u64()?,
                rng: get_rng(r)?,
            },
            1 => {
                let heap = get_heap(r)?;
                let n = r.get_len()?;
                let mut item_edge = Vec::with_capacity(n);
                for _ in 0..n {
                    item_edge.push(get_edge(r)?);
                }
                let n = r.get_len()?;
                let mut item_live = Vec::with_capacity(n);
                for _ in 0..n {
                    item_live.push(r.get_bool()?);
                }
                let n = r.get_len()?;
                let mut free_items = Vec::with_capacity(n);
                for _ in 0..n {
                    free_items.push(r.get_u32()?);
                }
                let n = r.get_len()?;
                let mut edge_item = Vec::with_capacity(n);
                for _ in 0..n {
                    edge_item.push(r.get_u32()?);
                }
                SamplerState::GpsA {
                    heap,
                    item_edge,
                    item_live,
                    free_items,
                    edge_item,
                    sample: WeightedSampleState::decode(r)?,
                    z: r.get_f64()?,
                    t: r.get_u64()?,
                    rng: get_rng(r)?,
                }
            }
            2 => SamplerState::Rp {
                reservoir: RpState::decode(r)?,
                adj: get_layout(r)?,
                rng: get_rng(r)?,
            },
            3 => {
                let n = r.get_len()?;
                let mut room_fifo = Vec::with_capacity(n);
                for _ in 0..n {
                    let e = get_edge(r)?;
                    let seq = r.get_u64()?;
                    room_fifo.push((e, seq));
                }
                let n = r.get_len()?;
                let mut room_seq = Vec::with_capacity(n);
                for _ in 0..n {
                    room_seq.push(r.get_u64()?);
                }
                SamplerState::Wrs {
                    room_fifo,
                    room_seq,
                    room_len: r.get_u64()?,
                    next_seq: r.get_u64()?,
                    spill_horizon: r.get_u64()?,
                    reservoir: RpState::decode(r)?,
                    adj: get_layout(r)?,
                    rng: get_rng(r)?,
                }
            }
            _ => return Err(SnapshotError::BadTag("sampler state")),
        })
    }
}

// ---------------------------------------------------------------------
// Session-level snapshot
// ---------------------------------------------------------------------

/// The builder configuration a snapshot carries — enough to rebuild the
/// sampler skeleton (weight function, capacities) before the
/// dynamic [`SamplerState`] is overlaid.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionConfig {
    /// Sampling algorithm.
    pub algorithm: Algorithm,
    /// Memory budget `M` (edges).
    pub capacity: u64,
    /// Original RNG seed (informational once the RNG words are
    /// restored; kept so a restored session's config reads true).
    pub seed: u64,
    /// Temporal pooling of the WSD-L state.
    pub pooling: TemporalPooling,
    /// WRS waiting-room fraction.
    pub wrs_fraction: f64,
    /// The *resolved* weight pattern of the weighted samplers; `None`
    /// only for uniform algorithms built without any query.
    pub weight_pattern: Option<Pattern>,
    /// Learned policy (WSD-L), as `(w, b, mean, std)`.
    pub policy: Option<LinearPolicy>,
}

impl SessionConfig {
    fn encode(&self, w: &mut ByteWriter) {
        put_algorithm(w, self.algorithm);
        w.put_u64(self.capacity);
        w.put_u64(self.seed);
        w.put_u8(match self.pooling {
            TemporalPooling::Max => 0,
            TemporalPooling::Avg => 1,
        });
        w.put_f64(self.wrs_fraction);
        match self.weight_pattern {
            None => w.put_u8(0),
            Some(p) => {
                w.put_u8(1);
                put_pattern(w, p);
            }
        }
        match &self.policy {
            None => w.put_u8(0),
            Some(policy) => {
                w.put_u8(1);
                put_policy(w, policy);
            }
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
        let algorithm = get_algorithm(r)?;
        let capacity = r.get_u64()?;
        let seed = r.get_u64()?;
        let pooling = match r.get_u8()? {
            0 => TemporalPooling::Max,
            1 => TemporalPooling::Avg,
            _ => return Err(SnapshotError::BadTag("pooling")),
        };
        let wrs_fraction = r.get_f64()?;
        let weight_pattern = match r.get_u8()? {
            0 => None,
            1 => Some(get_pattern(r)?),
            _ => return Err(SnapshotError::BadTag("weight pattern option")),
        };
        let policy = match r.get_u8()? {
            0 => None,
            1 => Some(get_policy(r)?),
            _ => return Err(SnapshotError::BadTag("policy option")),
        };
        Ok(Self { algorithm, capacity, seed, pooling, wrs_fraction, weight_pattern, policy })
    }
}

/// One attached query's estimator state.
#[derive(Clone, Debug, PartialEq)]
pub struct QuerySnapshot {
    /// The counted pattern.
    pub pattern: Pattern,
    /// Running weighted estimate (weighted samplers, ThinkD, WRS).
    pub estimate: f64,
    /// In-sample instance counter τ (Triest).
    pub tau: i64,
}

/// A complete, self-contained session snapshot.
///
/// Produced by [`StreamSession::snapshot`]; consumed by
/// [`StreamSession::restore`]. [`SessionSnapshot::encode`] /
/// [`SessionSnapshot::decode`] round-trip it through bytes exactly
/// (floats travel as raw bits).
///
/// [`StreamSession::snapshot`]: crate::session::StreamSession::snapshot
/// [`StreamSession::restore`]: crate::session::StreamSession::restore
#[derive(Clone, Debug, PartialEq)]
pub struct SessionSnapshot {
    /// Builder configuration (rebuilds the sampler skeleton).
    pub config: SessionConfig,
    /// Events processed so far.
    pub events: u64,
    /// Attached queries in attachment order.
    pub queries: Vec<QuerySnapshot>,
    /// Handle table: `handles[i]` is the query index behind handle `i`
    /// (`None` for detached handles, which stay retired after restore).
    pub handles: Vec<Option<u32>>,
    /// Algorithm-specific sampler state.
    pub sampler: SamplerState,
}

impl SessionSnapshot {
    /// Serializes the snapshot into a self-contained byte blob.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_bytes(MAGIC);
        w.put_u32(VERSION);
        self.config.encode(&mut w);
        w.put_u64(self.events);
        w.put_len(self.queries.len());
        for q in &self.queries {
            put_pattern(&mut w, q.pattern);
            w.put_f64(q.estimate);
            w.put_i64(q.tau);
        }
        w.put_len(self.handles.len());
        for h in &self.handles {
            match h {
                None => w.put_u8(0),
                Some(q) => {
                    w.put_u8(1);
                    w.put_u32(*q);
                }
            }
        }
        self.sampler.encode(&mut w);
        w.into_bytes()
    }

    /// Deserializes a snapshot produced by [`SessionSnapshot::encode`],
    /// then [validates](SessionSnapshot::validate) it.
    pub fn decode(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = ByteReader::new(bytes);
        if r.take(4)? != MAGIC || r.get_u32()? != VERSION {
            return Err(SnapshotError::BadHeader);
        }
        let config = SessionConfig::decode(&mut r)?;
        let events = r.get_u64()?;
        let nq = r.get_len()?;
        let mut queries = Vec::with_capacity(nq);
        for _ in 0..nq {
            let pattern = get_pattern(&mut r)?;
            let estimate = r.get_f64()?;
            let tau = r.get_i64()?;
            queries.push(QuerySnapshot { pattern, estimate, tau });
        }
        let nh = r.get_len()?;
        let mut handles = Vec::with_capacity(nh);
        for _ in 0..nh {
            handles.push(match r.get_u8()? {
                0 => None,
                1 => Some(r.get_u32()?),
                _ => return Err(SnapshotError::BadTag("handle option")),
            });
        }
        let snapshot =
            Self { config, events, queries, handles, sampler: SamplerState::decode(&mut r)? };
        r.finish()?;
        snapshot.validate()?;
        Ok(snapshot)
    }

    /// Checks the invariants a restore relies on before any sampler is
    /// rebuilt, so a forged but well-tagged snapshot is rejected with a
    /// typed error instead of a panic, an aliased query handle or a
    /// runaway allocation:
    ///
    /// * every query is named by exactly one handle;
    /// * the sampler-state variant is the one the algorithm builds (a
    ///   WSD state for WSD-L/H/U and for GPS, which runs on the WSD
    ///   sampler);
    /// * a weighted algorithm carries a weight pattern with
    ///   `|H| ≤ capacity`, and a WSD-L policy has dimension `|H| + 3`;
    /// * the reservoir holds at most `capacity` edges, and every heap
    ///   key — an arena edge ID or a GPS-A item ID, both recycled so
    ///   that fewer than `capacity` are ever live — is below `capacity`;
    /// * a WSD heap is keyed by exactly the sample's live arena IDs
    ///   (`0..id_bound` minus the free list, each once), so no restored
    ///   heap entry can alias a live edge or a freed ID;
    /// * a weighted sample carries metadata for exactly those live IDs,
    ///   which the restore writes into slots sized by `id_bound`;
    /// * a weighted sampler's thresholds (WSD's `τ_p` and `τ_q`, GPS-A's
    ///   `z`) are finite and non-negative, and its heap ranks and edge
    ///   weights finite and positive — the inclusion probability
    ///   `min(1, w/τ)` divides by them, and the heap orders by rank;
    /// * the uniform reservoirs can be built: Triest and ThinkD need a
    ///   positive capacity, and a WRS budget must split into a waiting
    ///   room and a non-empty reservoir at its fraction ([`room_split`];
    ///   other algorithms carry the fraction unused);
    /// * every query fits the sampler's budget, the one
    ///   [`StreamSession::check_attach`] holds an attach to: `|H| ≤
    ///   capacity`, or for WRS `|H|` at most the reservoir part of the
    ///   split;
    /// * a random-pairing reservoir (Triest, ThinkD, WRS) holds distinct
    ///   edges and counters random pairing can reach within that budget
    ///   and the session's events, and a Triest or ThinkD adjacency
    ///   holds exactly the reservoir's edges;
    /// * a WRS adjacency holds exactly its waiting room and reservoir, as
    ///   the room's stamps, FIFO, horizon and `room_len` classify it.
    ///
    /// The sampled adjacency's own layout is checked when it is rebuilt
    /// ([`wsd_graph::AdjacencyBase::from_layout`]).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Invalid`] naming the first violated invariant.
    ///
    /// [`StreamSession::check_attach`]: crate::session::StreamSession::check_attach
    pub fn validate(&self) -> Result<(), SnapshotError> {
        use Algorithm::*;
        let mut named = vec![false; self.queries.len()];
        for &h in self.handles.iter().flatten() {
            match named.get_mut(h as usize) {
                Some(seen) if !*seen => *seen = true,
                _ => return Err(SnapshotError::Invalid("query handle out of range or repeated")),
            }
        }
        if named.contains(&false) {
            return Err(SnapshotError::Invalid("query without a handle"));
        }
        let cfg = &self.config;
        let weighted = matches!(cfg.algorithm, WsdL | WsdH | WsdUniform | GpsA | Gps);
        let policy_dim = cfg.policy.as_ref().map(LinearPolicy::dim);
        let invalid = match cfg.weight_pattern {
            None if weighted => Some("weighted algorithm without a weight pattern"),
            Some(p) if weighted && p.num_edges() as u64 > cfg.capacity => {
                Some("weight pattern exceeds the capacity")
            }
            Some(p)
                if cfg.algorithm == WsdL && policy_dim.is_some_and(|d| d != p.num_edges() + 3) =>
            {
                Some("policy dimension mismatches the weight pattern")
            }
            _ => None,
        };
        if let Some(what) = invalid {
            return Err(SnapshotError::Invalid(what));
        }
        // The budget `attach` holds a query to: the reservoir (for WRS,
        // its reservoir part, beside the room's capacity).
        let (room_capacity, budget) = match cfg.algorithm {
            Triest | ThinkD if cfg.capacity == 0 => {
                return Err(SnapshotError::Invalid("uniform reservoir of capacity 0"))
            }
            Wrs => match room_split(cfg.capacity as usize, cfg.wrs_fraction) {
                Some((room, reservoir)) => (room, reservoir as u64),
                None => {
                    return Err(SnapshotError::Invalid(
                        "WRS budget cannot hold its waiting room and a reservoir",
                    ))
                }
            },
            _ => (0, cfg.capacity),
        };
        if self.queries.iter().any(|q| q.pattern.num_edges() as u64 > budget) {
            return Err(SnapshotError::Invalid("query pattern exceeds the sampler's budget"));
        }
        let (entries, heap) = match (&self.sampler, cfg.algorithm) {
            (SamplerState::Wsd { heap, .. }, WsdL | WsdH | WsdUniform | Gps)
            | (SamplerState::GpsA { heap, .. }, GpsA) => (heap.len(), heap.as_slice()),
            (SamplerState::Rp { reservoir, .. }, Triest | ThinkD)
            | (SamplerState::Wrs { reservoir, .. }, Wrs) => (reservoir.edges.len(), &[][..]),
            _ => return Err(SnapshotError::Invalid("sampler state mismatches the algorithm")),
        };
        if entries as u64 > cfg.capacity
            || heap.iter().any(|&(key, _)| u64::from(key) >= cfg.capacity)
        {
            return Err(SnapshotError::Invalid("reservoir exceeds the capacity"));
        }
        let threshold = |tau: f64| tau.is_finite() && tau >= 0.0;
        // GPS-A keys its heap by item ID, WSD by arena edge ID.
        let (sample, keyed_by_edge, thresholds_ok) = match &self.sampler {
            SamplerState::Wsd { sample, tau_p, tau_q, .. } => {
                (sample, true, threshold(*tau_p) && threshold(*tau_q))
            }
            SamplerState::GpsA { sample, z, .. } => (sample, false, threshold(*z)),
            SamplerState::Rp { reservoir, adj, .. } => {
                reservoir.validate(self.events, budget)?;
                if !holds_exactly(adj, &reservoir.edges) {
                    return Err(SnapshotError::Invalid("adjacency is not the reservoir's edges"));
                }
                return Ok(());
            }
            SamplerState::Wrs { reservoir, .. } => {
                reservoir.validate(self.events, budget)?;
                return self
                    .sampler
                    .wrs_room_error(room_capacity, self.events)
                    .map_or(Ok(()), |what| Err(SnapshotError::Invalid(what)));
            }
        };
        if keyed_by_edge && !lists_live_ids(&sample.layout, heap.iter().map(|&(key, _)| key)) {
            return Err(SnapshotError::Invalid("heap keys are not the live edge IDs"));
        }
        if !lists_live_ids(&sample.layout, sample.meta.iter().map(|&(id, ..)| id)) {
            return Err(SnapshotError::Invalid("metadata IDs are not the live edge IDs"));
        }
        if !thresholds_ok {
            return Err(SnapshotError::Invalid("threshold negative or not finite"));
        }
        let positive = |x: f64| x.is_finite() && x > 0.0;
        if !heap.iter().all(|&(_, rank)| positive(rank)) {
            return Err(SnapshotError::Invalid("heap rank not positive and finite"));
        }
        if !sample.meta.iter().all(|&(_, weight, _)| positive(weight)) {
            return Err(SnapshotError::Invalid("edge weight not positive and finite"));
        }
        Ok(())
    }
}

/// Whether `layout` holds exactly `edges` (which are distinct), each as
/// a half-edge from both of its endpoints.
fn holds_exactly(layout: &AdjacencyLayout, edges: &[Edge]) -> bool {
    let mut halves: Vec<(Vertex, Vertex)> = layout
        .vertices
        .iter()
        .flat_map(|(u, slots)| slots.iter().map(move |&(v, _)| (*u, v)))
        .collect();
    let mut expected: Vec<(Vertex, Vertex)> =
        edges.iter().flat_map(|e| [(e.u(), e.v()), (e.v(), e.u())]).collect();
    halves.sort_unstable();
    expected.sort_unstable();
    halves == expected
}

/// Whether `ids` names each live arena ID of `layout` — `0..id_bound`
/// minus the free list — exactly once. The counts are compared before
/// anything is sized from `id_bound`, so a forged bound allocates no
/// more than the decoded lists already hold.
fn lists_live_ids(layout: &AdjacencyLayout, ids: impl ExactSizeIterator<Item = EdgeId>) -> bool {
    let bound = layout.id_bound as usize;
    if ids.len().checked_add(layout.free.len()) != Some(bound) {
        return false;
    }
    let mut seen = vec![false; bound];
    layout
        .free
        .iter()
        .copied()
        .chain(ids)
        .all(|id| seen.get_mut(id as usize).is_some_and(|s| !std::mem::replace(s, true)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_state() -> WeightedSampleState {
        WeightedSampleState {
            layout: AdjacencyLayout {
                vertices: vec![(1, vec![(2, 0), (3, 1)]), (2, vec![(1, 0)]), (3, vec![(1, 1)])],
                free: vec![2],
                id_bound: 3,
            },
            meta: vec![(0, 1.5, 7), (1, 9.0, 11)],
        }
    }

    fn empty_sample() -> WeightedSampleState {
        WeightedSampleState {
            layout: AdjacencyLayout { vertices: vec![], free: vec![], id_bound: 0 },
            meta: vec![],
        }
    }

    fn empty_rp() -> RpState {
        RpState { edges: vec![], d_in: 0, d_out: 0, population: 0 }
    }

    fn empty_wsd() -> SamplerState {
        let sample = empty_sample();
        SamplerState::Wsd { heap: vec![], sample, tau_p: 0.0, tau_q: 0.0, t: 0, rng: [1, 2, 3, 4] }
    }

    fn empty_triest() -> SamplerState {
        let adj = AdjacencyLayout { vertices: vec![], free: vec![], id_bound: 0 };
        SamplerState::Rp { reservoir: empty_rp(), adj, rng: [1, 2, 3, 4] }
    }

    /// A snapshot of `sampler` under the algorithm that builds it
    /// (WSD-H for the WSD state, Triest for the random-pairing one).
    fn snapshot_for(sampler: SamplerState) -> SessionSnapshot {
        let algorithm = match sampler {
            SamplerState::Wsd { .. } => Algorithm::WsdH,
            SamplerState::GpsA { .. } => Algorithm::GpsA,
            SamplerState::Rp { .. } => Algorithm::Triest,
            SamplerState::Wrs { .. } => Algorithm::Wrs,
        };
        snapshot_as(algorithm, sampler)
    }

    /// A snapshot of `sampler` under `algorithm` (GPS for a WSD state).
    fn snapshot_as(algorithm: Algorithm, sampler: SamplerState) -> SessionSnapshot {
        SessionSnapshot {
            config: SessionConfig {
                algorithm,
                capacity: 64,
                seed: 42,
                pooling: TemporalPooling::Max,
                wrs_fraction: 0.1,
                weight_pattern: Some(Pattern::Triangle),
                policy: None,
            },
            events: 123,
            queries: vec![
                QuerySnapshot { pattern: Pattern::Triangle, estimate: 4.25, tau: 0 },
                QuerySnapshot { pattern: Pattern::Clique(5), estimate: 0.0, tau: -3 },
            ],
            handles: vec![Some(0), None, Some(1)],
            sampler,
        }
    }

    #[test]
    fn round_trips_every_sampler_variant() {
        let rp = RpState {
            edges: vec![Edge::new(4, 5), Edge::new(1, 9)],
            d_in: 2,
            d_out: 3,
            population: 17,
        };
        let variants = vec![
            SamplerState::Wsd {
                heap: vec![(0, 2.5), (1, 3.75)],
                sample: sample_state(),
                tau_p: 1.25,
                tau_q: 0.5,
                t: 99,
                rng: [1, 2, 3, 4],
            },
            SamplerState::GpsA {
                heap: vec![(2, 1.0)],
                item_edge: vec![Edge::new(1, 2), Edge::new(3, 4), Edge::new(5, 6)],
                item_live: vec![true, false, true],
                free_items: vec![1],
                edge_item: vec![0, 2],
                sample: sample_state(),
                z: 2.0,
                t: 31,
                rng: [9, 10, 11, 12],
            },
            SamplerState::Rp {
                reservoir: rp.clone(),
                adj: AdjacencyLayout {
                    vertices: vec![
                        (1, vec![(9, 0)]),
                        (4, vec![(5, 0)]),
                        (5, vec![(4, 0)]),
                        (9, vec![(1, 0)]),
                    ],
                    free: vec![],
                    id_bound: 0,
                },
                rng: [13, 14, 15, 16],
            },
            SamplerState::Wrs {
                room_fifo: vec![(Edge::new(2, 8), 4), (Edge::new(2, 9), 5)],
                room_seq: vec![0, 4, 5, 2, 0],
                room_len: 2,
                next_seq: 6,
                spill_horizon: 3,
                reservoir: rp,
                adj: AdjacencyLayout {
                    vertices: vec![
                        (1, vec![(9, 3)]),
                        (2, vec![(8, 1), (9, 2)]),
                        (4, vec![(5, 0)]),
                        (5, vec![(4, 0)]),
                        (8, vec![(2, 1)]),
                        (9, vec![(1, 3), (2, 2)]),
                    ],
                    free: vec![4],
                    id_bound: 5,
                },
                rng: [17, 18, 19, 20],
            },
        ];
        let gps = snapshot_as(
            Algorithm::Gps,
            SamplerState::Wsd {
                heap: vec![(1, 0.25), (0, 0.5)],
                sample: sample_state(),
                tau_p: 0.25,
                tau_q: 8.0,
                t: 7,
                rng: [5, 6, 7, 8],
            },
        );
        for snap in variants.into_iter().map(snapshot_for).chain([gps]) {
            let bytes = snap.encode();
            let back = SessionSnapshot::decode(&bytes).expect("decode");
            assert_eq!(back, snap);
        }
    }

    #[test]
    fn round_trips_policy_and_special_floats() {
        let mut snap = snapshot_for(SamplerState::Wsd {
            heap: vec![],
            sample: empty_sample(),
            tau_p: f64::MIN_POSITIVE,
            tau_q: 0.0,
            t: 0,
            rng: [0, 0, 0, u64::MAX],
        });
        // The triangle weight pattern's state dimension is |H| + 3 = 6.
        snap.config.algorithm = Algorithm::WsdL;
        snap.config.policy = Some(LinearPolicy::new(
            vec![0.5, -0.25, f64::MAX, 0.75, -1.5, 2.25],
            -1.0,
            FeatureNorm::new(
                vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
                vec![1.0, 0.5, 2.0, 1.0, 1.0, 1.0],
            ),
        ));
        snap.queries[0].estimate = -0.0;
        let back = SessionSnapshot::decode(&snap.encode()).expect("decode");
        assert_eq!(back, snap);
        // -0.0 round-trips as bits, not value equality.
        assert_eq!(back.queries[0].estimate.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn rejects_corrupt_inputs() {
        let snap = snapshot_for(empty_triest());
        let bytes = snap.encode();
        assert_eq!(SessionSnapshot::decode(&bytes[..3]), Err(SnapshotError::Truncated));
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert_eq!(SessionSnapshot::decode(&bad_magic), Err(SnapshotError::BadHeader));
        let mut truncated = bytes.clone();
        truncated.truncate(bytes.len() - 5);
        assert!(SessionSnapshot::decode(&truncated).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(SessionSnapshot::decode(&trailing), Err(SnapshotError::TrailingBytes));
        let mut bad_tag = bytes;
        // The algorithm tag sits right after the 8-byte header.
        bad_tag[8] = 200;
        assert_eq!(SessionSnapshot::decode(&bad_tag), Err(SnapshotError::BadTag("algorithm")));
    }

    /// A WSD-L snapshot on a wedge weight pattern (state dimension
    /// |H| + 3 = 5) whose policy parameters are all distinct, so each
    /// value's bits occur once in the encoding.
    fn policy_snapshot() -> SessionSnapshot {
        let mut snap = snapshot_for(empty_wsd());
        snap.config.algorithm = Algorithm::WsdL;
        snap.config.weight_pattern = Some(Pattern::Wedge);
        snap.config.policy = Some(LinearPolicy::new(
            vec![0.125, -0.375, 0.625, 0.875, 1.125],
            1.625,
            FeatureNorm::new(
                vec![2.875, 3.125, 3.375, 3.625, 3.875],
                vec![4.375, 5.625, 4.625, 4.875, 5.125],
            ),
        ));
        snap
    }

    #[test]
    fn rejects_non_finite_policy_parameters() {
        let bytes = policy_snapshot().encode();
        assert!(SessionSnapshot::decode(&bytes).is_ok());
        // One value from each block: weight, bias, mean, std. Patched in
        // the bytes, because `FeatureNorm::new` would map a NaN std to 1.
        for value in [-0.375, 1.625, 2.875, 5.625] {
            let needle = f64::to_le_bytes(value);
            let at = bytes.windows(8).position(|w| w == needle).expect("value is encoded");
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut poisoned = bytes.clone();
                poisoned[at..at + 8].copy_from_slice(&bad.to_le_bytes());
                assert_eq!(
                    SessionSnapshot::decode(&poisoned),
                    Err(SnapshotError::Invalid("non-finite policy parameter")),
                    "{bad} in place of {value}"
                );
            }
        }
    }

    #[test]
    fn rejects_invalid_clique_orders() {
        for order in [0, 2, 9, u8::MAX] {
            let mut snap = policy_snapshot();
            snap.queries[1].pattern = Pattern::Clique(order);
            assert!(SessionSnapshot::decode(&snap.encode()).is_err(), "query Clique({order})");
            let mut snap = policy_snapshot();
            snap.config.weight_pattern = Some(Pattern::Clique(order));
            assert!(SessionSnapshot::decode(&snap.encode()).is_err(), "weight Clique({order})");
        }
    }

    /// A blob of another encoding version — version 1 still carried the
    /// mass-kernel byte, version 2 the layered-enumeration byte, version
    /// 3 a GPS sampler-state variant — is rejected at the header, never
    /// misparsed.
    #[test]
    fn rejects_other_encoding_versions() {
        let bytes = snapshot_for(empty_triest()).encode();
        for version in [1u32, 2, 3, VERSION + 1] {
            let mut skewed = bytes.clone();
            skewed[4..8].copy_from_slice(&version.to_le_bytes());
            assert_eq!(SessionSnapshot::decode(&skewed), Err(SnapshotError::BadHeader));
        }
    }

    /// `snap` with every query and handle dropped.
    fn without_queries(mut snap: SessionSnapshot) -> SessionSnapshot {
        snap.queries.clear();
        snap.handles.clear();
        snap
    }

    /// Encodes `snap` and expects `decode` to reject it as invalid.
    fn assert_invalid(snap: &SessionSnapshot, what: &str) {
        let got = SessionSnapshot::decode(&snap.encode());
        assert!(matches!(got, Err(SnapshotError::Invalid(_))), "{what}: decoded to {got:?}");
    }

    fn wsd_with_heap(heap: Vec<(u32, f64)>) -> SamplerState {
        let SamplerState::Wsd { sample, tau_p, tau_q, t, rng, .. } = empty_wsd() else {
            unreachable!()
        };
        SamplerState::Wsd { heap, sample, tau_p, tau_q, t, rng }
    }

    /// A heap key sizes the restored heap's position index, so one at or
    /// past the capacity is rejected before anything allocates for it.
    /// Below the capacity, the heap and the sample's metadata must name
    /// exactly the sample's live arena IDs: a heap key on a freed ID
    /// makes the next admitted insert push that ID twice, and a metadata
    /// ID at `id_bound` indexes past the restored metadata slots.
    #[test]
    fn rejects_heap_keys_at_or_past_the_capacity() {
        for key in [64, 1 << 28, u32::MAX - 1] {
            assert_invalid(&snapshot_for(wsd_with_heap(vec![(0, 1.0), (key, 2.0)])), "WSD key");
        }
        assert_invalid(&snapshot_as(Algorithm::Gps, wsd_with_heap(vec![(64, 1.0)])), "GPS key");
        let gps_a = SamplerState::GpsA {
            heap: vec![(64, 1.0)],
            item_edge: vec![],
            item_live: vec![],
            free_items: vec![],
            edge_item: vec![],
            sample: empty_sample(),
            z: 0.0,
            t: 0,
            rng: [1, 2, 3, 4],
        };
        assert_invalid(&snapshot_for(gps_a), "GPS-A key");
        // The largest key the capacity admits, over an arena that has
        // freed every lower ID.
        let top = WeightedSampleState {
            layout: AdjacencyLayout {
                vertices: vec![(1, vec![(2, 63)]), (2, vec![(1, 63)])],
                free: (0..63).collect(),
                id_bound: 64,
            },
            meta: vec![(63, 1.0, 0)],
        };
        let SamplerState::Wsd { tau_p, tau_q, t, rng, .. } = empty_wsd() else { unreachable!() };
        let wsd = SamplerState::Wsd { heap: vec![(63, 1.0)], sample: top, tau_p, tau_q, t, rng };
        assert!(SessionSnapshot::decode(&snapshot_for(wsd).encode()).is_ok());

        // A WSD-H session (M = 16) whose stream ends by deleting a
        // sampled edge: its arena holds the freed ID.
        let mut session = crate::session::SessionBuilder::new(Algorithm::WsdH, 16, 5)
            .query(Pattern::Triangle)
            .build();
        for a in 0..8 {
            for b in (a + 1)..8 {
                session.process(wsd_graph::EdgeEvent::insert(Edge::new(a, b)));
            }
        }
        let SamplerState::Wsd { sample, .. } = session.snapshot().sampler else { unreachable!() };
        let (u, slots) = &sample.layout.vertices[0];
        session.process(wsd_graph::EdgeEvent::delete(Edge::new(*u, slots[0].0)));
        let honest = session.snapshot();
        assert!(SessionSnapshot::decode(&honest.encode()).is_ok(), "the honest snapshot decodes");
        let SamplerState::Wsd { sample, .. } = &honest.sampler else { unreachable!() };
        let freed = *sample.layout.free.last().expect("the deletion freed an arena ID");
        let id_bound = sample.layout.id_bound;
        let mut forged = honest.clone();
        let SamplerState::Wsd { heap, .. } = &mut forged.sampler else { unreachable!() };
        heap[0].0 = freed;
        assert_invalid(&forged, "WSD key on the freed ID");
        let mut forged = honest.clone();
        let SamplerState::Wsd { sample, .. } = &mut forged.sampler else { unreachable!() };
        sample.meta[0].0 = id_bound;
        assert_invalid(&forged, "WSD metadata ID at id_bound");
        let gps = SamplerState::Wsd {
            heap: vec![(0, 0.25), (0, 0.5)],
            sample: sample_state(),
            tau_p: 0.0,
            tau_q: 0.0,
            t: 0,
            rng: [1, 2, 3, 4],
        };
        assert_invalid(&snapshot_as(Algorithm::Gps, gps), "GPS key repeated over two live IDs");
        let mut sample = sample_state();
        sample.meta[1].0 = 3;
        let gps_a = SamplerState::GpsA {
            heap: vec![],
            item_edge: vec![],
            item_live: vec![],
            free_items: vec![],
            edge_item: vec![],
            sample,
            z: 0.0,
            t: 0,
            rng: [1, 2, 3, 4],
        };
        assert_invalid(&snapshot_for(gps_a), "GPS-A metadata ID at id_bound");
    }

    /// A restored weighted sampler divides weights by its thresholds
    /// into inclusion probabilities `min(1, w/τ)`, and its heap orders by
    /// rank. A WSD-H session (M = 16) fed a 12-vertex clique is forged
    /// with a τ or `z` that is negative or not finite, or with a heap
    /// rank or an edge weight that is not positive and finite, and so
    /// are hand-built GPS (a WSD state, `z` as `τ_q`) and GPS-A states.
    /// Restored, each forgery would skew the estimates that follow (a
    /// zero weight makes a warm-up infinite).
    #[test]
    fn rejects_bad_thresholds_ranks_and_weights() {
        let mut session = crate::session::SessionBuilder::new(Algorithm::WsdH, 16, 5)
            .query(Pattern::Triangle)
            .build();
        for a in 0..12 {
            for b in (a + 1)..12 {
                session.process(wsd_graph::EdgeEvent::insert(Edge::new(a, b)));
            }
        }
        let honest = session.snapshot();
        assert!(SessionSnapshot::decode(&honest.encode()).is_ok(), "the honest snapshot decodes");
        // Forges one field of the honest WSD state, expecting a rejection.
        type Edit<'a> =
            &'a dyn Fn(&mut Vec<(u32, f64)>, &mut WeightedSampleState, &mut f64, &mut f64);
        let reject = |what: String, edit: Edit<'_>| {
            let mut forged = honest.clone();
            let SamplerState::Wsd { heap, sample, tau_p, tau_q, .. } = &mut forged.sampler else {
                unreachable!()
            };
            edit(heap, sample, tau_p, tau_q);
            assert_invalid(&forged, &what);
        };
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            reject(format!("τp = {bad}"), &|_, _, tau_p, _| *tau_p = bad);
            reject(format!("τq = {bad}"), &|_, _, _, tau_q| *tau_q = bad);
        }
        for bad in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
            reject(format!("heap rank {bad}"), &|heap, _, _, _| heap[0].1 = bad);
            reject(format!("edge weight {bad}"), &|_, sample, _, _| sample.meta[0].1 = bad);
        }

        let gps = |z: f64, rank: f64, weight: f64| {
            let mut sample = sample_state();
            sample.meta[0].1 = weight;
            SamplerState::Wsd {
                heap: vec![(1, 0.25), (0, rank)],
                sample,
                tau_p: 0.25,
                tau_q: z,
                t: 7,
                rng: [5, 6, 7, 8],
            }
        };
        let gps_a = |z: f64, rank: f64, weight: f64| {
            let mut sample = sample_state();
            sample.meta[0].1 = weight;
            SamplerState::GpsA {
                heap: vec![(2, rank)],
                item_edge: vec![Edge::new(1, 2), Edge::new(3, 4), Edge::new(5, 6)],
                item_live: vec![true, false, true],
                free_items: vec![1],
                edge_item: vec![0, 2],
                sample,
                z,
                t: 31,
                rng: [9, 10, 11, 12],
            }
        };
        type Variant = fn(f64, f64, f64) -> SamplerState;
        let variants: [(Variant, Algorithm); 2] = [(gps, Algorithm::Gps), (gps_a, Algorithm::GpsA)];
        for (variant, algorithm) in variants {
            let name = algorithm.name();
            let snap = |z, rank, weight| snapshot_as(algorithm, variant(z, rank, weight));
            assert!(
                SessionSnapshot::decode(&snap(8.0, 0.5, 1.5).encode()).is_ok(),
                "{name} decodes"
            );
            for bad in [f64::NAN, f64::INFINITY, -1.0] {
                assert_invalid(&snap(bad, 0.5, 1.5), &format!("{name} z = {bad}"));
            }
            for bad in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
                assert_invalid(&snap(8.0, bad, 1.5), &format!("{name} rank {bad}"));
                assert_invalid(&snap(8.0, 0.5, bad), &format!("{name} weight {bad}"));
            }
        }
    }

    fn empty_wrs() -> SamplerState {
        SamplerState::Wrs {
            room_fifo: vec![],
            room_seq: vec![],
            room_len: 0,
            next_seq: 1,
            spill_horizon: 0,
            reservoir: empty_rp(),
            adj: AdjacencyLayout { vertices: vec![], free: vec![], id_bound: 0 },
            rng: [1, 2, 3, 4],
        }
    }

    /// `WrsSampler::with_fraction` asserts a waiting-room fraction in
    /// `(0, 1)`, so a WRS snapshot outside it would panic in the
    /// restore. Other algorithms carry the field unused.
    #[test]
    fn rejects_wrs_fractions_outside_the_unit_interval() {
        let honest = snapshot_for(empty_wrs());
        assert!(SessionSnapshot::decode(&honest.encode()).is_ok(), "fraction 0.1 decodes");
        for bad in [f64::NAN, 1.5, 1.0, 0.0, -0.5, f64::INFINITY] {
            let mut forged = honest.clone();
            forged.config.wrs_fraction = bad;
            assert_invalid(&forged, &format!("WRS fraction {bad}"));
            let mut unused = snapshot_for(empty_triest());
            unused.config.wrs_fraction = bad;
            assert!(SessionSnapshot::decode(&unused.encode()).is_ok(), "Triest ignores {bad}");
        }
    }

    /// Budgets whose uniform reservoirs the restore cannot build: a WRS
    /// budget too small for its waiting room plus a non-empty reservoir
    /// ("budget M = 1 too small" at fraction 0.1), and capacity 0 for
    /// Triest, ThinkD or WRS (an empty random-pairing reservoir). Each
    /// decoded cleanly and then panicked in the restore; the smallest
    /// buildable budgets still decode. No query fits those budgets, so
    /// the snapshots carry none.
    #[test]
    fn rejects_reservoir_budgets_the_restore_cannot_build() {
        let with_capacity = |sampler: SamplerState, algorithm: Algorithm, capacity: u64| {
            let mut snap = without_queries(snapshot_as(algorithm, sampler));
            snap.config.capacity = capacity;
            snap
        };
        for (algorithm, capacity) in [
            (Algorithm::Wrs, 1),
            (Algorithm::Wrs, 0),
            (Algorithm::Triest, 0),
            (Algorithm::ThinkD, 0),
        ] {
            let sampler = if algorithm == Algorithm::Wrs { empty_wrs() } else { empty_triest() };
            let forged = with_capacity(sampler, algorithm, capacity);
            assert_invalid(&forged, &format!("{} at capacity {capacity}", algorithm.name()));
        }
        for (sampler, algorithm, capacity) in [
            (empty_wrs(), Algorithm::Wrs, 2),
            (empty_triest(), Algorithm::Triest, 1),
            (empty_triest(), Algorithm::ThinkD, 1),
        ] {
            let honest = with_capacity(sampler, algorithm, capacity);
            let decoded = SessionSnapshot::decode(&honest.encode());
            assert!(decoded.is_ok(), "{} at capacity {capacity}: {decoded:?}", algorithm.name());
            crate::session::StreamSession::restore(&honest);
        }
    }

    /// Probes the WRS room capacity `⌈M·fraction⌉` over a grid of
    /// budgets and fractions: `decode` accepts exactly the budgets
    /// `WrsSampler::with_fraction` builds without panicking, and every
    /// accepted snapshot restores. The snapshots carry no query, so no
    /// query budget decides the outcome.
    #[test]
    fn probe_wrs_room_capacity() {
        use crate::algorithms::WrsSampler;
        for fraction in [0.05, 0.1, 0.25, 0.5, 0.9, 0.99, 0.0, 1.0, f64::NAN] {
            for capacity in 0..=24u64 {
                let mut snap = without_queries(snapshot_for(empty_wrs()));
                snap.config.capacity = capacity;
                snap.config.wrs_fraction = fraction;
                let builds = std::panic::catch_unwind(|| {
                    WrsSampler::with_fraction(capacity as usize, fraction, 1)
                })
                .is_ok();
                let decoded = SessionSnapshot::decode(&snap.encode());
                assert_eq!(decoded.is_ok(), builds, "M = {capacity}, fraction {fraction}");
                if builds {
                    crate::session::StreamSession::restore(&snap);
                }
            }
        }
    }

    /// A WRS state whose waiting room, reservoir and adjacency disagree
    /// is rejected. A WRS session (M = 16, seed 7) fed a 12-vertex clique
    /// is forged four ways: a reservoir edge swapped for one the
    /// adjacency lacks, `room_len` one too high, `room_seq` cut to one
    /// stamp, and an emptied FIFO. Each used to decode, restore and
    /// ingest a triangle-closing tail without an error; the last two
    /// ended that tail at more than twice the honest twin's estimate.
    /// A fifth sets `next_seq` to `u64::MAX`, past the one admission per
    /// insert event, so the next admission overflows it.
    #[test]
    fn rejects_wrs_rooms_that_disagree_with_the_adjacency() {
        let mut session = crate::session::SessionBuilder::new(Algorithm::Wrs, 16, 7)
            .query(Pattern::Triangle)
            .build();
        for a in 0..12 {
            for b in (a + 1)..12 {
                session.process(wsd_graph::EdgeEvent::insert(Edge::new(a, b)));
            }
        }
        let honest = session.snapshot();
        assert!(SessionSnapshot::decode(&honest.encode()).is_ok(), "the honest snapshot decodes");
        for what in [
            "a reservoir edge outside the adjacency",
            "room_len one too high",
            "room_seq cut to one stamp",
            "an emptied FIFO",
            "next_seq past the events",
        ] {
            let mut forged = honest.clone();
            let SamplerState::Wrs { room_fifo, room_seq, room_len, next_seq, reservoir, .. } =
                &mut forged.sampler
            else {
                unreachable!()
            };
            match what {
                "a reservoir edge outside the adjacency" => {
                    reservoir.edges[0] = Edge::new(1000, 1001);
                }
                "room_len one too high" => *room_len += 1,
                "room_seq cut to one stamp" => room_seq.truncate(1),
                "an emptied FIFO" => room_fifo.clear(),
                _ => *next_seq = u64::MAX,
            }
            assert_invalid(&forged, what);
        }
    }

    /// A restored session may hold only the queries `attach` accepts:
    /// `|H|` at most the capacity, or for WRS at most the reservoir part
    /// of its split (at fraction 0.1, budget 11 leaves a reservoir of 9,
    /// budget 12 one of 10). The fixture's 5-clique has 10 edges. Each
    /// accepted snapshot restores to a session whose `check_attach`
    /// agrees.
    #[test]
    fn rejects_queries_over_the_budget() {
        for (sampler, algorithm, fits) in [
            (empty_wsd(), Algorithm::WsdH, 10),
            (empty_triest(), Algorithm::Triest, 10),
            (empty_triest(), Algorithm::ThinkD, 10),
            (empty_wrs(), Algorithm::Wrs, 12),
        ] {
            let mut snap = snapshot_as(algorithm, sampler);
            snap.config.capacity = fits - 1;
            assert_invalid(&snap, &format!("a 5-clique on {} at {}", algorithm.name(), fits - 1));
            snap.config.capacity = fits;
            let decoded = SessionSnapshot::decode(&snap.encode());
            assert!(decoded.is_ok(), "{} at capacity {fits}: {decoded:?}", algorithm.name());
            let restored = crate::session::StreamSession::restore(&snap);
            assert_eq!(restored.check_attach(Pattern::Clique(5)), Ok(()));
        }
    }

    /// A reservoir may not hold more edges than the capacity gate
    /// admitted.
    #[test]
    fn rejects_reservoirs_past_the_capacity() {
        let mut snap = snapshot_for(wsd_with_heap((0..16).map(|k| (k % 4, 1.0)).collect()));
        snap.config.capacity = 4;
        assert_invalid(&snap, "16 heap entries at capacity 4");
        let edges: Vec<Edge> = (0..65).map(|v| Edge::new(v, v + 100)).collect();
        let reservoir = RpState { edges, d_in: 0, d_out: 0, population: 65 };
        let adj = AdjacencyLayout { vertices: vec![], free: vec![], id_bound: 0 };
        let rp =
            SamplerState::Rp { reservoir: reservoir.clone(), adj: adj.clone(), rng: [1, 2, 3, 4] };
        assert_invalid(&snapshot_for(rp), "Triest reservoir");
        let wrs = SamplerState::Wrs {
            room_fifo: vec![],
            room_seq: vec![],
            room_len: 0,
            next_seq: 1,
            spill_horizon: 0,
            reservoir,
            adj,
            rng: [1, 2, 3, 4],
        };
        assert_invalid(&snapshot_for(wrs), "WRS reservoir");
    }

    /// An honest random-pairing snapshot: `algorithm` at M = 16, seed 7,
    /// one triangle query, fed a 12-vertex clique and then the deletions
    /// of vertex 0's edges.
    fn random_pairing_snapshot(algorithm: Algorithm) -> SessionSnapshot {
        let mut session =
            crate::session::SessionBuilder::new(algorithm, 16, 7).query(Pattern::Triangle).build();
        for a in 0..12 {
            for b in (a + 1)..12 {
                session.process(wsd_graph::EdgeEvent::insert(Edge::new(a, b)));
            }
        }
        for b in 1..12 {
            session.process(wsd_graph::EdgeEvent::delete(Edge::new(0, b)));
        }
        session.snapshot()
    }

    fn reservoir_of(state: &mut SamplerState) -> &mut RpState {
        match state {
            SamplerState::Rp { reservoir, .. } | SamplerState::Wrs { reservoir, .. } => reservoir,
            _ => unreachable!("a random-pairing state"),
        }
    }

    /// Random pairing keeps `|S| ≤ population ≤ events`, `|S| + d_in ≤`
    /// the reservoir's capacity (each uncompensated sampled deletion is
    /// a slot it refills) and `d_in + d_out ≤ events`. Past them a
    /// restored Triest, ThinkD or WRS reservoir refills far beyond its
    /// capacity (`d_in = 10^6`), divides by a population below its
    /// sample (`population = 0`), or overflows `d_in + d_out` on the
    /// next insert. The bounds themselves are reachable: a state at each
    /// restores and takes a 200-edge insert tail within its budget.
    #[test]
    fn rejects_random_pairing_counters_no_reservoir_reaches() {
        // Edits a reservoir given the session's events and its capacity.
        type Edit = fn(&mut RpState, u64, u64);
        let forgeries: [(&str, Edit); 7] = [
            ("d_in = 10^6", |r, _, _| r.d_in = 1_000_000),
            ("population = 0", |r, _, _| r.population = 0),
            ("population below the sample", |r, _, _| r.population = r.edges.len() as u64 - 1),
            ("population past the events", |r, events, _| r.population = events + 1),
            ("|S| + d_in past the capacity", |r, _, cap| r.d_in = cap + 1 - r.edges.len() as u64),
            ("d_in + d_out past the events", |r, events, _| r.d_out = events + 1 - r.d_in),
            ("d_in = 1, d_out = u64::MAX", |r, _, _| (r.d_in, r.d_out) = (1, u64::MAX)),
        ];
        let bounds: [(&str, Edit); 3] = [
            ("population = events", |r, events, _| r.population = events),
            ("|S| + d_in = capacity", |r, _, cap| r.d_in = cap - r.edges.len() as u64),
            ("d_in + d_out = events", |r, events, _| r.d_out = events - r.d_in),
        ];
        // WRS at fraction 0.1 splits M = 16 into a room of 2 and a
        // reservoir of 14.
        for (algorithm, capacity) in
            [(Algorithm::Triest, 16), (Algorithm::ThinkD, 16), (Algorithm::Wrs, 14)]
        {
            let name = algorithm.name();
            let honest = random_pairing_snapshot(algorithm);
            assert!(SessionSnapshot::decode(&honest.encode()).is_ok(), "honest {name}");
            let forge = |edit: Edit| {
                let mut forged = honest.clone();
                edit(reservoir_of(&mut forged.sampler), honest.events, capacity);
                forged
            };
            for (what, edit) in forgeries {
                assert_invalid(&forge(edit), &format!("{name} with {what}"));
            }
            for (what, edit) in bounds {
                let snap = forge(edit);
                let decoded = SessionSnapshot::decode(&snap.encode());
                assert!(decoded.is_ok(), "{name} with {what}: {decoded:?}");
                let mut restored = crate::session::StreamSession::restore(&snap);
                for v in 100..300 {
                    restored.process(wsd_graph::EdgeEvent::insert(Edge::new(v, v + 1)));
                }
                assert!(restored.stored_edges() <= 16, "{name} with {what} outgrew its budget");
            }
        }
    }

    /// A random-pairing reservoir holds distinct edges, and a Triest or
    /// ThinkD adjacency holds exactly the reservoir's edges, each from
    /// both endpoints. A repeated reservoir edge decoded and then
    /// panicked in the restore; an adjacency with an extra triangle, or
    /// an empty one, restored cleanly and then counted instances the
    /// reservoir never held, or missed the ones it did.
    #[test]
    fn rejects_random_pairing_samples_their_adjacency_disagrees_with() {
        for algorithm in [Algorithm::Triest, Algorithm::ThinkD, Algorithm::Wrs] {
            let mut forged = random_pairing_snapshot(algorithm);
            let reservoir = reservoir_of(&mut forged.sampler);
            reservoir.edges[1] = reservoir.edges[0];
            assert_eq!(
                SessionSnapshot::decode(&forged.encode()),
                Err(SnapshotError::Invalid("reservoir repeats an edge")),
                "{}",
                algorithm.name()
            );
        }
        type Edit = fn(&mut RpState, &mut AdjacencyLayout);
        let forgeries: [(&str, Edit); 4] = [
            ("an extra triangle", |_, adj| {
                adj.vertices.push((100, vec![(101, 0), (102, 0)]));
                adj.vertices.push((101, vec![(100, 0), (102, 0)]));
                adj.vertices.push((102, vec![(100, 0), (101, 0)]));
            }),
            ("an empty adjacency", |_, adj| adj.vertices.clear()),
            ("a reservoir edge the adjacency lacks", |r, _| r.edges[0] = Edge::new(100, 101)),
            ("an edge listed twice from one endpoint", |r, adj| {
                // Its lower endpoint lists it twice; the upper one not at all.
                let (a, b) = (r.edges[0].u(), r.edges[0].v());
                for (u, slots) in &mut adj.vertices {
                    if *u == a {
                        slots.push((b, 0));
                    } else if *u == b {
                        slots.retain(|&(w, _)| w != a);
                    }
                }
            }),
        ];
        for algorithm in [Algorithm::Triest, Algorithm::ThinkD] {
            let honest = random_pairing_snapshot(algorithm);
            for (what, edit) in forgeries {
                let mut forged = honest.clone();
                let SamplerState::Rp { reservoir, adj, .. } = &mut forged.sampler else {
                    unreachable!()
                };
                edit(reservoir, adj);
                assert_eq!(
                    SessionSnapshot::decode(&forged.encode()),
                    Err(SnapshotError::Invalid("adjacency is not the reservoir's edges")),
                    "{} with {what}",
                    algorithm.name()
                );
            }
        }
    }

    /// Every query is named by exactly one handle: an aliased handle
    /// would make a query unreachable.
    #[test]
    fn rejects_aliased_or_missing_query_handles() {
        for handles in [vec![Some(0), Some(0)], vec![Some(0)], vec![Some(1), None, Some(2)]] {
            let mut snap = snapshot_for(empty_wsd());
            snap.handles = handles.clone();
            assert_invalid(&snap, &format!("handles {handles:?}"));
        }
    }

    #[test]
    fn rejects_a_sampler_state_of_another_algorithm() {
        let mut snap = snapshot_for(empty_triest());
        snap.config.algorithm = Algorithm::WsdH;
        assert_invalid(&snap, "WSD-H over a random-pairing state");
        let mut snap = snapshot_for(empty_triest());
        snap.config.algorithm = Algorithm::Gps;
        assert_invalid(&snap, "GPS over a random-pairing state");
        // GPS runs on the WSD sampler, so a WSD state is its own.
        let gps = snapshot_as(Algorithm::Gps, empty_wsd());
        assert_eq!(SessionSnapshot::decode(&gps.encode()), Ok(gps));
    }

    #[test]
    fn rejects_weighted_configs_without_a_weight_pattern() {
        let mut snap = snapshot_for(empty_wsd());
        snap.config.weight_pattern = None;
        assert_invalid(&snap, "WSD-H without a weight pattern");
    }

    #[test]
    fn rejects_policy_dimension_mismatch() {
        let mut snap = policy_snapshot();
        snap.config.policy = Some(LinearPolicy::neutral(2));
        assert_invalid(&snap, "dimension-2 policy on a wedge");
    }

    /// The unbiasedness theorems need `M ≥ |H|` of the weight pattern.
    #[test]
    fn rejects_weight_patterns_over_the_capacity() {
        let mut snap = snapshot_for(empty_wsd());
        snap.config.capacity = 1;
        snap.config.weight_pattern = Some(Pattern::Wedge);
        assert_invalid(&snap, "wedge at capacity 1");
        let mut snap = snapshot_for(empty_wsd());
        snap.config.capacity = 16;
        snap.config.weight_pattern = Some(Pattern::Clique(8));
        assert_invalid(&snap, "8-clique at capacity 16");
    }
}
