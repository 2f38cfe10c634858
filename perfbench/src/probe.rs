//! Calls every workload makes into the layers outside its ingest path:
//! the exact reference, the snapshot round trip and the wire codec.

use wsd_core::{SessionSnapshot, StreamSession};
use wsd_graph::{EdgeEvent, ExactCounter, Pattern};
use wsd_stream::{decode_events, encode_events};

use crate::trace::Tracer;
use crate::util::{median, thread_cpu, Checks};

/// One `ExactCounter` pass: the counter at end of stream and the
/// instances the stream completed or destroyed.
pub fn exact_pass(pattern: Pattern, events: &[EdgeEvent]) -> Result<(ExactCounter, u64), String> {
    let mut counter = ExactCounter::new(pattern);
    let mut touched = 0u64;
    let mut previous = 0u64;
    for &ev in events {
        let count = counter.apply(ev).map_err(|e| format!("generated stream: {e}"))?;
        touched += count.abs_diff(previous);
        previous = count;
    }
    Ok((counter, touched))
}

pub fn estimates(session: &StreamSession) -> Vec<f64> {
    session.queries().map(|(id, _)| session.estimate(id)).collect()
}

pub fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Snapshot → encode → decode → restore; the restored session must
/// reproduce every estimate bit for bit. Returns the encoded length and
/// the snapshot and restore CPU times in seconds.
pub fn snapshot_round_trip(
    session: &StreamSession,
    checks: &mut Checks,
    tracer: &mut Tracer,
) -> (usize, f64, f64) {
    let t0 = thread_cpu();
    let blob = tracer.span("core", "snapshot+encode", 0, || session.snapshot().encode());
    let t1 = thread_cpu();
    let restored = tracer.span("core", "decode+restore", 0, || {
        SessionSnapshot::decode(&blob).map(|s| StreamSession::restore(&s))
    });
    let t2 = thread_cpu();
    if let Some(restored) = checks.op("decode snapshot", restored) {
        checks.expect(
            bits(&estimates(&restored)) == bits(&estimates(session))
                && restored.stored_edges() == session.stored_edges()
                && restored.events() == session.events(),
            || "snapshot -> restore changed an estimate".to_string(),
        );
    }
    (blob.len(), t1 - t0, t2 - t1)
}

/// Median CPU ns per event of `encode_events` and `decode_events` over the
/// workload's own `frame`-event batches; decoding must give them back.
pub fn wire_codec_ns(
    events: &[EdgeEvent],
    frame: usize,
    checks: &mut Checks,
    tracer: &mut Tracer,
) -> (f64, f64) {
    let n = events.len() as f64;
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let t = thread_cpu();
        let bodies: Vec<Vec<u8>> = tracer.span("stream", "encode_events", 0, || {
            events.chunks(frame).map(encode_events).collect()
        });
        enc.push((thread_cpu() - t) * 1e9 / n);
        let t = thread_cpu();
        let decoded = tracer.span("stream", "decode_events", 0, || {
            bodies.iter().map(|b| decode_events(b)).collect::<Result<Vec<_>, _>>()
        });
        dec.push((thread_cpu() - t) * 1e9 / n);
        if let Some(decoded) = checks.op("decode_events", decoded) {
            checks.expect(decoded.concat() == events, || "wire round trip changed".to_string());
        }
    }
    (median(&enc), median(&dec))
}
