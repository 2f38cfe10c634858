//! Small helpers: seed derivation, order statistics, CPU clocks, the
//! host-speed reference, resident-set readings, the output-check ledger
//! and the metric list.

use std::collections::HashMap;
use std::fmt::Display;
use std::hint::black_box;

/// SplitMix64 finaliser: spreads one 64-bit word over all bits.
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Generator seed of every workload's edge list. The edge list is the
/// same for every workload seed, so the figures do not swing with the
/// graph's realisation (a hub core's density moves its 4-clique count
/// several-fold); the workload seed draws the deletions and seeds the
/// samplers.
pub const GRAPH_SEED: u64 = 17;

/// A seed for one input or replica, derived from the workload seed and
/// a tag so that no two uses share a random stream.
pub fn derive(seed: u64, tag: u64) -> u64 {
    splitmix(seed ^ splitmix(tag))
}

/// The value at quantile `q` of `xs` (nearest rank on the sorted copy).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// Mean of `xs` without its lowest and highest tenth: the accuracy
/// figure, robust to the heavy upper tail of 4-clique and small-budget
/// estimates.
pub fn trimmed_mean(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 10;
    mean(&v[cut..v.len() - cut])
}

#[repr(C)]
struct Timespec {
    tv_sec: std::ffi::c_long,
    tv_nsec: std::ffi::c_long,
}

extern "C" {
    fn clock_gettime(clock: std::ffi::c_int, tp: *mut Timespec) -> std::ffi::c_int;
    fn mallopt(param: std::ffi::c_int, value: std::ffi::c_int) -> std::ffi::c_int;
}

const M_TRIM_THRESHOLD: std::ffi::c_int = -1;
const M_MMAP_THRESHOLD: std::ffi::c_int = -3;

/// Keeps freed memory in the allocator's heap instead of returning it to
/// the system, so that a pass reuses the pages of the passes before it.
/// A first touch of a page costs a fault that on a virtual host swings
/// with the neighbours, and it otherwise decides a small set-up's time.
pub fn keep_freed_memory() {
    // SAFETY: plain allocator tuning calls, made before any other thread
    // starts. 32 MiB is the largest mmap threshold glibc accepts.
    unsafe {
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
    }
}

const CLOCK_PROCESS_CPUTIME_ID: std::ffi::c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: std::ffi::c_int = 3;

fn cpu_clock(clock: std::ffi::c_int) -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds the calling thread has run. The end-to-end timings read
/// CPU clocks, not the wall clock, so that neither the time the host
/// takes the vCPUs away (steal, which the kernel's paravirtual time
/// accounting keeps out) nor the time a thread waits for a CPU counts.
pub fn thread_cpu() -> f64 {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU seconds all threads of this process have run (the served
/// workload's client and server threads). Threads running on another
/// CPU are counted up to their last scheduler tick, so only spans much
/// longer than a tick (4 ms) read it exactly.
pub fn process_cpu() -> f64 {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// Hash-map operations of one reference-kernel run.
const REFERENCE_OPS: u64 = 200_000;
/// CPU seconds of one reference-kernel run on the reference host (a
/// 2-vCPU Intel Xeon VM) in its fast phases.
const REFERENCE_NOMINAL_SECS: f64 = 4.5e-3;
/// How the workloads' times grow with the kernel's when the host slows,
/// as fitted on the reference host: a whole pass, whose heaviest batches
/// suffer most, grows as the 1.25th power of the kernel time (a run at
/// 1.5× the nominal kernel time ingests about 1.66× slower), a median
/// batch and a set-up in proportion.
const RATE_ELASTICITY: f64 = 1.25;
const LATENCY_ELASTICITY: f64 = 1.0;

/// The reference kernel: a fixed mix of hash-map inserts, lookups and
/// removals over a few MiB, built from the standard library alone so
/// that no change to the measured program moves it. Run before every
/// pass, it measures how fast the host is during the run.
///
/// The CPU clocks do not keep out the neighbours that share the host's
/// cores and caches: on the reference host those slow the same code by
/// up to 1.9× for minutes at a time, so whole runs land in slow or fast
/// phases. The timing metrics are scaled by the run's slowdown.
pub struct Reference {
    map: HashMap<u64, u64>,
    secs: Vec<f64>,
}

impl Reference {
    /// A kernel whose memory is already resident: one unrecorded run
    /// touches it, so that it does not count in a pass's `rss_mb`.
    pub fn new() -> Self {
        let mut reference = Reference { map: HashMap::with_capacity(1 << 17), secs: Vec::new() };
        reference.run();
        reference.secs.clear();
        reference
    }

    /// Runs the kernel once and records its CPU time.
    pub fn run(&mut self) {
        self.map.clear();
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        let started = thread_cpu();
        for i in 0..REFERENCE_OPS {
            x = splitmix(x);
            let key = x & ((1 << 18) - 1);
            match i % 3 {
                0 => {
                    self.map.insert(key, i);
                }
                1 => {
                    black_box(self.map.get(&key));
                }
                _ => {
                    self.map.remove(&(key ^ 1));
                }
            }
        }
        black_box(&self.map);
        self.secs.push(thread_cpu() - started);
    }

    /// The host's slowdown over the run: the median kernel time over the
    /// nominal one.
    pub fn slowdown(&self) -> f64 {
        median(&self.secs) / REFERENCE_NOMINAL_SECS
    }
}

/// CPU times of one pass over a workload.
pub struct PassTiming {
    pub events_per_s: f64,
    pub batch_us: Vec<f64>,
    pub read_us: Vec<f64>,
    pub setup_secs: f64,
}

/// Puts the timing metrics: medians over every pass of the run (the
/// set-up time: lower quartile), scaled to the nominal host speed by the
/// run's `slowdown`.
pub fn put_timings(passes: &[PassTiming], slowdown: f64, m: &mut Metrics) {
    let rates: Vec<f64> = passes.iter().map(|p| p.events_per_s).collect();
    let setups: Vec<f64> = passes.iter().map(|p| p.setup_secs).collect();
    let batch: Vec<f64> = passes.iter().flat_map(|p| p.batch_us.iter().copied()).collect();
    let read: Vec<f64> = passes.iter().flat_map(|p| p.read_us.iter().copied()).collect();
    eprintln!("perfbench: timings scaled by host slowdown {slowdown:.3}");
    let latency_scale = slowdown.powf(LATENCY_ELASTICITY);
    m.put("ingest_events_per_s", median(&rates) * slowdown.powf(RATE_ELASTICITY));
    m.put("batch_p50_us", quantile(&batch, 0.5) / latency_scale);
    m.put("read_p50_us", quantile(&read, 0.5) / latency_scale);
    // Set-up times fall in two modes, with and without fresh pages from
    // the allocator, and the median of a hub-burst run wanders between
    // them; the lower quartile sits in the fast mode.
    m.put("setup_s", quantile(&setups, 0.25) / latency_scale);
}

/// Puts the 99th percentiles of the batch and read times, scaled like
/// [`put_timings`]. They spread too widely between runs for a bound, so
/// the traced run reports them as context.
pub fn put_tails(batch_us: &[f64], read_us: &[f64], slowdown: f64, m: &mut Metrics) {
    let scale = slowdown.powf(RATE_ELASTICITY);
    m.put("tail.batch_p99_us", quantile(batch_us, 0.99) / scale);
    m.put("tail.read_p99_us", quantile(read_us, 0.99) / scale);
}

/// Resident set size of this process in KiB (`VmRSS`).
pub fn rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Counts operations attempted and failed; a failed output check is a
/// failed operation.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Counts one operation that can fail.
    pub fn op<T, E: Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Counts `n` operations that cannot report failure (in-process calls).
    pub fn ops(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one output check.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failed <= 20 {
            eprintln!("perfbench: FAILED {message}");
        }
    }
}

/// Measured metrics by name; units come from the declared lists.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64) {
        self.0.push((name.to_string(), value));
    }
}
