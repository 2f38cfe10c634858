//! The server's metrics surface: per-shard atomic counters, aggregated
//! on demand into the versioned [`StatsReport`] reply and a
//! human-readable one-line-per-metric text dump.
//!
//! Shard workers own their counter block exclusively for writes (plus
//! the connection reader threads, which count ring-backpressure stalls
//! against the shard they were stalled on), so every update is a plain
//! relaxed `fetch_add` — no locks on the hot path. Readers aggregate
//! across shards with relaxed loads; the dump is a statistical surface,
//! not a barrier, and individual lines may be mutually torn by a few
//! in-flight events.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::protocol::StatsReport;

/// Command kinds tracked per shard — one slot per `ShardCmd` variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum CmdKind {
    /// `Open`.
    Open,
    /// `Restore` (wire restores, not boot revivals).
    Restore,
    /// `Events` batches.
    Events,
    /// `Estimates` reads.
    Estimates,
    /// `Attach`.
    Attach,
    /// `Detach`.
    Detach,
    /// `Snapshot`.
    Snapshot,
    /// `Subscribe`.
    Subscribe,
    /// `Flush` barriers.
    Flush,
    /// `Close`.
    Close,
    /// `SwapPolicy` weight hot-swaps.
    SwapPolicy,
}

/// All command kinds, in display order.
pub(crate) const CMD_KINDS: [CmdKind; 11] = [
    CmdKind::Open,
    CmdKind::Restore,
    CmdKind::Events,
    CmdKind::Estimates,
    CmdKind::Attach,
    CmdKind::Detach,
    CmdKind::Snapshot,
    CmdKind::Subscribe,
    CmdKind::Flush,
    CmdKind::Close,
    CmdKind::SwapPolicy,
];

impl CmdKind {
    pub(crate) fn name(self) -> &'static str {
        match self {
            CmdKind::Open => "open",
            CmdKind::Restore => "restore",
            CmdKind::Events => "events",
            CmdKind::Estimates => "estimates",
            CmdKind::Attach => "attach",
            CmdKind::Detach => "detach",
            CmdKind::Snapshot => "snapshot",
            CmdKind::Subscribe => "subscribe",
            CmdKind::Flush => "flush",
            CmdKind::Close => "close",
            CmdKind::SwapPolicy => "swap_policy",
        }
    }
}

/// One shard's counter block. Every field is monotone since boot except
/// `sessions_live`, which is a gauge.
#[derive(Default)]
pub(crate) struct ShardMetrics {
    /// Sessions currently open on this shard (gauge).
    pub sessions_live: AtomicU64,
    /// Events applied since boot.
    pub events: AtomicU64,
    /// `Events` batches applied since boot.
    pub batches: AtomicU64,
    /// Commands applied, by kind.
    pub cmd_count: [AtomicU64; CMD_KINDS.len()],
    /// Total nanoseconds spent applying commands, by kind. Coarse
    /// wall-clock accounting around command application; divide by the
    /// matching `cmd_count` slot for a mean.
    pub cmd_nanos: [AtomicU64; CMD_KINDS.len()],
    /// Checkpoint push frames handed to connection writers.
    pub checkpoints_sent: AtomicU64,
    /// Checkpoint pushes dropped (subscriber queue overflow → the
    /// subscription itself is dropped).
    pub checkpoints_dropped: AtomicU64,
    /// Sessions created via `Open` or a wire `Restore`.
    pub sessions_opened: AtomicU64,
    /// Sessions removed via `Close`.
    pub sessions_closed: AtomicU64,
    /// Sessions dropped because a command on them panicked.
    pub sessions_poisoned: AtomicU64,
    /// Sessions revived from the data-dir at boot.
    pub sessions_restored: AtomicU64,
    /// Full-queue backpressure stalls suffered by connections sending
    /// to this shard (counted once per stalled command).
    pub ring_stalls: AtomicU64,
    /// Snapshot files written to the durable store.
    pub autosave_writes: AtomicU64,
    /// Store writes that failed (the session stays live in memory).
    pub autosave_failures: AtomicU64,
}

impl ShardMetrics {
    pub(crate) fn add(&self, field: impl Fn(&ShardMetrics) -> &AtomicU64, n: u64) {
        field(self).fetch_add(n, Ordering::Relaxed);
    }

    /// Counts a command before it is applied: its reply can reach the
    /// client, and a `Stats` request after it, before the worker runs
    /// its next line.
    pub(crate) fn count_cmd(&self, kind: CmdKind) {
        self.cmd_count[kind_index(kind)].fetch_add(1, Ordering::Relaxed);
    }

    /// Adds the time a command took to apply.
    pub(crate) fn time_cmd(&self, kind: CmdKind, nanos: u64) {
        self.cmd_nanos[kind_index(kind)].fetch_add(nanos, Ordering::Relaxed);
    }
}

fn kind_index(kind: CmdKind) -> usize {
    CMD_KINDS.iter().position(|&k| k == kind).expect("known kind")
}

/// Aggregates every shard's counters into one wire-ready report.
pub(crate) fn aggregate(shards: &[std::sync::Arc<ShardMetrics>]) -> StatsReport {
    let sum = |field: fn(&ShardMetrics) -> &AtomicU64| {
        shards.iter().map(|m| field(m).load(Ordering::Relaxed)).sum()
    };
    let commands =
        shards.iter().flat_map(|m| m.cmd_count.iter()).map(|c| c.load(Ordering::Relaxed)).sum();
    StatsReport {
        sessions: sum(|m| &m.sessions_live),
        events: sum(|m| &m.events),
        batches: sum(|m| &m.batches),
        commands,
        checkpoints_sent: sum(|m| &m.checkpoints_sent),
        checkpoints_dropped: sum(|m| &m.checkpoints_dropped),
        sessions_opened: sum(|m| &m.sessions_opened),
        sessions_closed: sum(|m| &m.sessions_closed),
        sessions_poisoned: sum(|m| &m.sessions_poisoned),
        sessions_restored: sum(|m| &m.sessions_restored),
        ring_stalls: sum(|m| &m.ring_stalls),
        autosave_writes: sum(|m| &m.autosave_writes),
        autosave_failures: sum(|m| &m.autosave_failures),
    }
}

/// Renders the aggregated counters as a text dump: one `name value`
/// line per metric, stable names, no trailing whitespace — trivially
/// scrapeable with `grep`/`awk` and diff-friendly in CI logs.
pub(crate) fn render_text(shards: &[std::sync::Arc<ShardMetrics>]) -> String {
    let report = aggregate(shards);
    let mut out = String::with_capacity(1024);
    let mut line = |name: &str, value: u64| {
        out.push_str(name);
        out.push(' ');
        out.push_str(&value.to_string());
        out.push('\n');
    };
    line("shards", shards.len() as u64);
    line("sessions_live", report.sessions);
    line("sessions_opened_total", report.sessions_opened);
    line("sessions_closed_total", report.sessions_closed);
    line("sessions_poisoned_total", report.sessions_poisoned);
    line("sessions_restored_total", report.sessions_restored);
    line("events_ingested_total", report.events);
    line("event_batches_total", report.batches);
    line("commands_total", report.commands);
    line("checkpoints_sent_total", report.checkpoints_sent);
    line("checkpoints_dropped_total", report.checkpoints_dropped);
    line("ring_full_stalls_total", report.ring_stalls);
    line("autosave_writes_total", report.autosave_writes);
    line("autosave_failures_total", report.autosave_failures);
    for (i, kind) in CMD_KINDS.iter().enumerate() {
        let count: u64 = shards.iter().map(|m| m.cmd_count[i].load(Ordering::Relaxed)).sum();
        let nanos: u64 = shards.iter().map(|m| m.cmd_nanos[i].load(Ordering::Relaxed)).sum();
        line(&format!("cmd_{}_total", kind.name()), count);
        let mean_micros = nanos.checked_div(count).unwrap_or(0) / 1_000;
        line(&format!("cmd_{}_mean_us", kind.name()), mean_micros);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn aggregation_sums_across_shards_and_text_lines_match() {
        let shards: Vec<Arc<ShardMetrics>> =
            (0..3).map(|_| Arc::new(ShardMetrics::default())).collect();
        for (i, m) in shards.iter().enumerate() {
            m.add(|m| &m.events, (i as u64 + 1) * 10);
            m.add(|m| &m.sessions_live, 1);
            m.count_cmd(CmdKind::Flush);
            m.time_cmd(CmdKind::Flush, 2_000_000);
        }
        let report = aggregate(&shards);
        assert_eq!(report.events, 60);
        assert_eq!(report.sessions, 3);
        assert_eq!(report.commands, 3);
        let text = render_text(&shards);
        assert!(text.lines().any(|l| l == "events_ingested_total 60"), "{text}");
        assert!(text.lines().any(|l| l == "cmd_flush_total 3"), "{text}");
        assert!(text.lines().any(|l| l == "cmd_flush_mean_us 2000"), "{text}");
        // Every line is exactly `name value`.
        for l in text.lines() {
            let mut parts = l.split(' ');
            assert!(parts.next().is_some());
            assert!(parts.next().expect("value").parse::<u64>().is_ok(), "{l}");
            assert!(parts.next().is_none(), "{l}");
        }
    }
}
