//! The closed-loop driver shared by every workload: set-up (repeated, the
//! median reported), a measured window in which one client thread issues
//! the workload's next operation only after the previous one finished, and
//! the bookkeeping of samples, checks and failures.
//!
//! The measured window is also cut into short wall-clock windows, and the
//! median burst and operation of each is kept. The end-to-end timings are
//! those of the quietest window: on a shared host, other tenants slow
//! every memory access by up to ~2x for stretches of seconds, in a share
//! of each run that drifts from under a tenth to over four fifths within
//! minutes. A run's overall median follows that share; the quietest
//! window's median does not, as long as the run holds one quiet stretch.
//! That holds for a device that runs on the client's thread; see
//! [`Workload::ONE_THREAD`] for the others.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::host;
use crate::net::Sizes;
use crate::stats;
use crate::trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 15;

/// Length of the windows the run record summarises operations over.
const RECORD_WINDOW: Duration = Duration::from_millis(250);

/// Length of the windows the end-to-end timings take the quietest of:
/// short enough to fit in a quiet stretch of the host, long enough to hold
/// dozens of bursts on `l3-forward`. An operation longer than this is a
/// window of its own.
const QUIET_WINDOW: Duration = Duration::from_millis(20);

/// Record key of the per-window operation medians.
pub const OP_WINDOWS: &str = "window.op_us";

/// Record keys of the short-window medians of bursts and operations.
pub const QUIET_BURSTS: &str = "quiet.burst_us";
/// See [`QUIET_BURSTS`].
pub const QUIET_OPS: &str = "quiet.op_us";

/// Medians of one sample series over consecutive wall-clock windows.
struct Windows {
    key: &'static str,
    out: &'static str,
    len: Duration,
    end: Instant,
    from: usize,
}

impl Windows {
    fn new(key: &'static str, out: &'static str, len: Duration, start: Instant) -> Self {
        Windows {
            key,
            out,
            len,
            end: start + len,
            from: 0,
        }
    }

    /// Closes the current window when `now` is past its end, or when
    /// `last`: the median of the samples of `key` taken in it goes to
    /// `out` (a window without samples adds nothing).
    fn tick(&mut self, rec: &mut Rec, now: Instant, last: bool) {
        if now < self.end && !last {
            return;
        }
        let done = rec.samples(self.key);
        if done.len() > self.from {
            let m = stats::median(&done[self.from..]);
            self.from = done.len();
            rec.push(self.out, m);
        }
        self.end = now + self.len;
    }
}

/// Raw samples and running sums of one measured window.
#[derive(Debug, Default)]
pub struct Rec {
    samples: BTreeMap<&'static str, Vec<f64>>,
    sums: BTreeMap<&'static str, f64>,
}

impl Rec {
    /// Adds one sample of `key`.
    pub fn push(&mut self, key: &'static str, v: f64) {
        self.samples.entry(key).or_default().push(v);
    }

    /// Adds `v` to the running sum `key`.
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.sums.entry(key).or_default() += v;
    }

    /// Samples of `key` (empty when none were taken).
    pub fn samples(&self, key: &str) -> &[f64] {
        self.samples.get(key).map_or(&[], Vec::as_slice)
    }

    /// Running sum `key` (0 when never added to).
    pub fn sum(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    /// Sample counts per key, for the run record.
    pub fn counts(&self) -> impl Iterator<Item = (&'static str, usize)> + '_ {
        self.samples.iter().map(|(k, v)| (*k, v.len()))
    }
}

/// Operations attempted and failed, and whether every failure is a
/// known, named defect.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted: packets the reference expects forwarded,
    /// writes, scripts, rollbacks and rollouts.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Failures per known defect.
    pub known: BTreeMap<&'static str, u64>,
    /// Failures no known defect explains (first few, described).
    pub unexpected: Vec<String>,
    /// Count of unexpected failures.
    pub unexpected_n: u64,
}

impl Tally {
    /// Counts `n` attempted operations.
    pub fn ops(&mut self, n: usize) {
        self.attempted += n as u64;
    }

    /// Counts `n` failures caused by the known defect `defect`.
    pub fn known_failure(&mut self, defect: &'static str, n: usize) {
        self.failed += n as u64;
        *self.known.entry(defect).or_default() += n as u64;
    }

    /// Counts `n` failures no known defect explains.
    pub fn unexpected(&mut self, n: usize, what: String) {
        self.failed += n as u64;
        self.unexpected_n += n as u64;
        if self.unexpected.len() < 8 {
            self.unexpected.push(what);
        }
    }

    /// True when every output check passed or failed only by a known defect.
    pub fn correct(&self) -> bool {
        self.unexpected_n == 0
    }
}

/// What one operation records into.
pub struct Cx<'a> {
    /// Span recorder (disabled in untraced windows).
    pub tr: &'a mut Tracer,
    /// Samples of the current window.
    pub rec: &'a mut Rec,
    /// Checks.
    pub tally: &'a mut Tally,
}

/// One workload: a set-up and a closed-loop operation.
pub trait Workload: Sized {
    /// True when the device runs on the client's own thread: its gated
    /// timings are then the quietest window's (see [`quiet_p50`]). A
    /// device that hands every burst between threads (`ShardedSwitch`,
    /// the fleet's agents) also waits on the hypervisor to run those
    /// threads, so even its quietest windows moved with steal time, and
    /// its whole-run medians spread less; it reports those.
    const ONE_THREAD: bool;

    /// Builds and populates the devices and warms them (first compile).
    fn setup(sizes: Sizes, seed: u64) -> Result<Self, String>;

    /// Issues one closed-loop operation, waits for it, checks its output,
    /// and records its samples. `Err` is a failure the workload cannot
    /// continue after.
    fn step(&mut self, cx: &mut Cx) -> Result<(), String>;

    /// Traced runs only: extra calls that isolate one layer's cost (made
    /// outside any operation span, after the measured window).
    fn probes(&mut self, _cx: &mut Cx) -> Result<(), String> {
        Ok(())
    }

    /// Folds device-side counters of the window into `rec`.
    fn finish(&mut self, rec: &mut Rec) -> Result<(), String>;
}

/// Throw-away recording for work outside the measured window (warm-up).
pub struct Scratch {
    tr: Tracer,
    rec: Rec,
    /// Checks of the warm-up.
    pub tally: Tally,
}

impl Scratch {
    /// An empty, untraced recording.
    pub fn new() -> Self {
        Scratch {
            tr: Tracer::new(false),
            rec: Rec::default(),
            tally: Tally::default(),
        }
    }

    /// A context recording into it.
    pub fn cx(&mut self) -> Cx<'_> {
        Cx {
            tr: &mut self.tr,
            rec: &mut self.rec,
            tally: &mut self.tally,
        }
    }
}

/// The result of one run.
pub struct Outcome {
    /// [`Workload::ONE_THREAD`] of the workload run.
    pub one_thread: bool,
    /// Set-up times, seconds.
    pub setups: Vec<f64>,
    /// Samples of the untraced operations (all of them when untraced).
    pub plain: Rec,
    /// Samples of the traced operations and probes (traced runs only).
    pub traced: Option<Rec>,
    /// Operations traced.
    pub traced_ops: usize,
    /// Spans (traced runs only).
    pub tracer: Tracer,
    /// Checks over the whole run.
    pub tally: Tally,
    /// Host readings over the measured window.
    pub steal_pct: f64,
    /// CPU seconds used in the measured window.
    pub cpu_s: f64,
    /// Peak resident memory, MiB.
    pub peak_rss_mb: f64,
}

/// Runs closed-loop operations for `seconds` (at least one). With a
/// `traced` record, every second operation is traced and records there
/// instead of into `plain`: host drift then affects both alike, and the
/// difference between the two is the tracing overhead. Returns the number
/// of traced operations.
fn window<W: Workload>(
    w: &mut W,
    seconds: f64,
    tr: &mut Tracer,
    tally: &mut Tally,
    plain: &mut Rec,
    mut traced: Option<&mut Rec>,
) -> Result<usize, String> {
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let (mut ops, mut traced_ops) = (0usize, 0usize);
    let mut windows = [
        Windows::new("op_us", OP_WINDOWS, RECORD_WINDOW, start),
        Windows::new("burst_us", QUIET_BURSTS, QUIET_WINDOW, start),
        Windows::new("op_us", QUIET_OPS, QUIET_WINDOW, start),
    ];
    loop {
        let trace_this = ops % 2 == 1 && traced.is_some();
        tr.set_on(trace_this);
        let rec = match traced.as_deref_mut() {
            Some(t) if trace_this => t,
            _ => &mut *plain,
        };
        let mut cx = Cx {
            tr: &mut *tr,
            rec,
            tally: &mut *tally,
        };
        w.step(&mut cx)?;
        ops += 1;
        traced_ops += usize::from(trace_this);
        let now = Instant::now();
        for w in &mut windows {
            w.tick(plain, now, now >= end);
        }
        if now >= end {
            break;
        }
    }
    w.finish(traced.unwrap_or(plain))?;
    Ok(traced_ops)
}

/// Runs workload `W`: set-up, then `seconds` of closed-loop operations.
/// A traced run traces every second operation (see [`window`]), then runs
/// the workload's probes with tracing on.
pub fn run<W: Workload>(
    sizes: Sizes,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Outcome, String> {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut w = None;
    for _ in 0..SETUP_REPS {
        // Release the previous set-up's devices (and threads) first.
        drop(w.take());
        let t = Instant::now();
        w = Some(W::setup(sizes, seed)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut w = w.ok_or("no set-up ran")?;
    let mut tally = Tally::default();
    let mut tracer = Tracer::new(false);
    let mut plain = Rec::default();
    let mut traced = trace.then(Rec::default);
    let h0 = host::Snapshot::now();
    let traced_ops = window(
        &mut w,
        seconds,
        &mut tracer,
        &mut tally,
        &mut plain,
        traced.as_mut(),
    )?;
    let h1 = host::Snapshot::now();
    if let Some(rec) = traced.as_mut() {
        tracer.set_on(true);
        let mut cx = Cx {
            tr: &mut tracer,
            rec,
            tally: &mut tally,
        };
        w.probes(&mut cx)?;
    }
    drop(w);
    Ok(Outcome {
        one_thread: W::ONE_THREAD,
        setups,
        plain,
        traced,
        traced_ops,
        tracer,
        tally,
        steal_pct: h1.steal_pct_since(&h0),
        cpu_s: h1.cpu_s_since(&h0),
        peak_rss_mb: host::peak_rss_mb(),
    })
}

impl Outcome {
    /// Median set-up time, seconds.
    pub fn setup_s(&self) -> f64 {
        stats::median(&self.setups)
    }
}

/// The gated timing of samples `key`, whose short-window medians are in
/// `windows` ([`QUIET_BURSTS`] or [`QUIET_OPS`]): with `quietest`, the
/// lowest window median, else (or when no window closed) the median of
/// all the samples; 0 when there are none.
pub fn quiet_p50(rec: &Rec, key: &str, windows: &str, quietest: bool) -> f64 {
    let w = rec.samples(windows);
    if quietest && !w.is_empty() {
        w.iter().copied().fold(f64::INFINITY, f64::min)
    } else {
        stats::median(rec.samples(key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each closed window adds the median of the samples taken in it; an
    /// empty window adds nothing.
    #[test]
    fn window_medians() {
        let t0 = Instant::now();
        let len = Duration::from_millis(10);
        let mut w = Windows::new("op_us", QUIET_OPS, len, t0);
        let mut rec = Rec::default();
        for v in [5.0, 1.0, 9.0] {
            rec.push("op_us", v);
        }
        w.tick(&mut rec, t0, false); // window still open
        assert!(rec.samples(QUIET_OPS).is_empty());
        w.tick(&mut rec, t0 + len, false);
        assert_eq!(rec.samples(QUIET_OPS), &[5.0]);
        w.tick(&mut rec, t0 + len * 3, false); // no new samples
        assert_eq!(rec.samples(QUIET_OPS), &[5.0]);
        for v in [2.0, 3.0] {
            rec.push("op_us", v);
        }
        w.tick(&mut rec, t0 + len * 3, true); // the last window closes early
        assert_eq!(rec.samples(QUIET_OPS), &[5.0, 2.0]);
    }

    /// The quietest window's median, or the median of every sample.
    #[test]
    fn quiet_p50_takes_the_quietest_window_or_the_median() {
        let mut rec = Rec::default();
        assert_eq!(quiet_p50(&rec, "op_us", QUIET_OPS, true), 0.0);
        for v in [5.0, 1.0, 9.0] {
            rec.push("op_us", v);
        }
        assert_eq!(quiet_p50(&rec, "op_us", QUIET_OPS, true), 5.0);
        for v in [4.0, 2.5, 3.0] {
            rec.push(QUIET_OPS, v);
        }
        assert_eq!(quiet_p50(&rec, "op_us", QUIET_OPS, true), 2.5);
        assert_eq!(quiet_p50(&rec, "op_us", QUIET_OPS, false), 5.0);
    }
}
