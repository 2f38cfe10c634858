//! Batched stream ingestion.

use crate::session::StreamSession;
use wsd_graph::EdgeEvent;

/// Default ingestion batch size.
///
/// Large enough to amortise per-batch costs (RNG pre-draws, dispatch),
/// small enough that pre-drawn variate buffers stay cache-resident.
pub const DEFAULT_BATCH_SIZE: usize = 4096;

/// Drives a [`StreamSession`] over a stream in fixed-size batches.
///
/// Each batch goes through [`StreamSession::process_batch`], which is
/// **bit-identical** to per-event processing (the equivalence is
/// asserted by the `admission_equivalence` differential suite for every
/// algorithm) but resolves admission at run granularity: variates are
/// pre-drawn per batch, and each sampler's admission plan admits whole
/// insertion runs through a branch-free reservoir write path.
#[derive(Copy, Clone, Debug)]
pub struct BatchDriver {
    batch_size: usize,
}

impl Default for BatchDriver {
    fn default() -> Self {
        Self { batch_size: DEFAULT_BATCH_SIZE }
    }
}

impl BatchDriver {
    /// A driver with the default batch size.
    pub fn new() -> Self {
        Self::default()
    }

    /// A driver with an explicit batch size.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub fn with_batch_size(batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        Self { batch_size }
    }

    /// The configured batch size.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Feeds the whole stream to a [`StreamSession`], batch by batch —
    /// every attached query advances together on the one sampler pass.
    pub fn run_session(&self, session: &mut StreamSession, stream: &[EdgeEvent]) {
        for chunk in stream.chunks(self.batch_size) {
            session.process_batch(chunk);
        }
    }

    /// As [`BatchDriver::run_session`], invoking `checkpoint` with the
    /// number of events consumed so far after every batch — the hook
    /// the evaluation harness uses for MARE checkpoints without
    /// abandoning batched ingestion.
    pub fn run_session_with_checkpoints(
        &self,
        session: &mut StreamSession,
        stream: &[EdgeEvent],
        checkpoint: &mut dyn FnMut(usize, &StreamSession),
    ) {
        let mut consumed = 0;
        for chunk in stream.chunks(self.batch_size) {
            session.process_batch(chunk);
            consumed += chunk.len();
            checkpoint(consumed, session);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Algorithm;
    use crate::session::SessionBuilder;
    use wsd_graph::{Edge, Pattern};

    fn stream(n: u64) -> Vec<EdgeEvent> {
        (0..n).map(|i| EdgeEvent::insert(Edge::new(i, i + 1))).collect()
    }

    fn session(alg: Algorithm) -> StreamSession {
        SessionBuilder::new(alg, 32, 1).query(Pattern::Triangle).build()
    }

    #[test]
    fn drives_full_stream() {
        let events = stream(100);
        let mut a = session(Algorithm::Triest);
        let mut b = session(Algorithm::Triest);
        BatchDriver::with_batch_size(7).run_session(&mut a, &events);
        for &ev in &events {
            b.process(ev);
        }
        assert_eq!(a.report().queries[0].estimate, b.report().queries[0].estimate);
        assert_eq!(a.stored_edges(), b.stored_edges());
        assert_eq!(a.events(), 100);
    }

    #[test]
    fn checkpoints_cover_stream_once() {
        let events = stream(50);
        let mut s = session(Algorithm::ThinkD);
        let mut seen = Vec::new();
        BatchDriver::with_batch_size(16).run_session_with_checkpoints(
            &mut s,
            &events,
            &mut |consumed, session| {
                seen.push(consumed);
                assert_eq!(session.events(), consumed as u64);
            },
        );
        assert_eq!(seen, vec![16, 32, 48, 50]);
    }

    #[test]
    fn session_checkpoints_match_per_event_twin() {
        let events = stream(50);
        let mut batched = session(Algorithm::ThinkD);
        let mut twin = session(Algorithm::ThinkD);
        let (qid, _) = batched.queries().next().unwrap();
        let (twin_qid, _) = twin.queries().next().unwrap();
        let mut batched_cps = Vec::new();
        BatchDriver::with_batch_size(16).run_session_with_checkpoints(
            &mut batched,
            &events,
            &mut |consumed, s| batched_cps.push((consumed, s.estimate(qid).to_bits())),
        );
        let mut twin_cps = Vec::new();
        for (i, &ev) in events.iter().enumerate() {
            twin.process(ev);
            let consumed = i + 1;
            if consumed % 16 == 0 || consumed == events.len() {
                twin_cps.push((consumed, twin.estimate(twin_qid).to_bits()));
            }
        }
        assert_eq!(batched_cps, twin_cps);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_batch_size_panics() {
        let _ = BatchDriver::with_batch_size(0);
    }
}
