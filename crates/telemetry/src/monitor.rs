//! Live campaign health: the process-wide [`Progress`] handle, the
//! `/status` snapshot, and the stall/anomaly watchdog.
//!
//! Campaigns tick [`progress`] through their [`Recorder`](crate::Recorder)
//! (one `campaign_started` per campaign, one `tick` per finished
//! experiment), which is all the wiring a campaign needs: the metrics
//! server's `/status`, the ETA computation and the watchdog all read the
//! same handle. The watchdog is a background thread that samples progress
//! and the process counters on an interval and flags three anomaly
//! classes — **stall** (no experiment completion within a configurable
//! deadline), **lane-occupancy collapse** (the bit-parallel engine's mean
//! occupancy dropping far below its peak while cycles still advance) and
//! **quarantine-rate** (too large a fraction of experiments set aside) —
//! as structured `anomaly` lines in the run log plus the
//! `fades_anomalies_total` counter, so a crashed or hung worker becomes
//! visible instead of silently indistinguishable from a slow one.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::counter::Counter;
use crate::json::JsonObject;

/// Anomalies flagged by the watchdog (and by external monitors such as
/// the `status --watch` journal poller) since process start. Exported as
/// `fades_anomalies_total`.
pub static ANOMALIES: Counter = Counter::new();

/// Process-wide campaign progress, ticked by every
/// [`Recorder`](crate::Recorder). All fields are relaxed atomics; one
/// handle aggregates every campaign the process runs (the `all`
/// regeneration pass is many campaigns back-to-back).
#[derive(Debug)]
pub struct Progress {
    campaigns: AtomicU64,
    total: AtomicU64,
    done: AtomicU64,
    first_activity_us: AtomicU64,
    last_done_us: AtomicU64,
}

static PROGRESS: Progress = Progress {
    campaigns: AtomicU64::new(0),
    total: AtomicU64::new(0),
    done: AtomicU64::new(0),
    first_activity_us: AtomicU64::new(u64::MAX),
    last_done_us: AtomicU64::new(0),
};

/// The process-wide progress handle.
pub fn progress() -> &'static Progress {
    &PROGRESS
}

impl Progress {
    /// Registers a campaign of `expected` experiments starting now.
    pub fn campaign_started(&self, expected: u64) {
        self.campaigns.fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(expected, Ordering::Relaxed);
        let now = crate::trace::epoch_us();
        self.first_activity_us.fetch_min(now, Ordering::Relaxed);
        // A fresh campaign re-arms the stall clock even before its first
        // completion (planning and golden capture are legitimate work).
        self.last_done_us.fetch_max(now, Ordering::Relaxed);
    }

    /// Ticks one finished experiment.
    pub fn tick(&self) {
        self.done.fetch_add(1, Ordering::Relaxed);
        self.last_done_us
            .fetch_max(crate::trace::epoch_us(), Ordering::Relaxed);
    }

    /// Experiments finished so far.
    pub fn done(&self) -> u64 {
        self.done.load(Ordering::Relaxed)
    }

    /// Experiments expected across every campaign started so far.
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Campaigns started.
    pub fn campaigns(&self) -> u64 {
        self.campaigns.load(Ordering::Relaxed)
    }

    /// Microseconds (trace-epoch clock) of the last completion or
    /// campaign start — the watchdog's stall reference.
    pub fn last_activity_us(&self) -> u64 {
        self.last_done_us.load(Ordering::Relaxed)
    }
}

/// A derived point-in-time view of campaign health — the `/status`
/// payload.
#[derive(Debug, Clone)]
pub struct StatusSnapshot {
    /// Campaigns started in this process.
    pub campaigns: u64,
    /// Experiments expected.
    pub total: u64,
    /// Experiments finished.
    pub done: u64,
    /// Mean completion rate since the first campaign started (0 until
    /// the first completion).
    pub faults_per_sec: f64,
    /// Estimated seconds to finish the remaining experiments at the mean
    /// rate (`None` before a rate exists or when already done).
    pub eta_s: Option<f64>,
    /// Mean occupied faulty lanes per batch cycle of the lane engine
    /// (0 when the engine has not run).
    pub lane_occupancy: f64,
    /// Fraction of golden-equivalent cycles the fast path skipped:
    /// `skipped / (skipped + executed)`, best-effort (executed cycles
    /// only count while hot-path telemetry is enabled).
    pub fastpath_skip_ratio: f64,
    /// Experiments the static pre-classifier settled without simulation.
    pub static_silent: u64,
    /// Structural lint diagnostics emitted by reporting lint passes.
    pub lint_diagnostics: u64,
    /// Experiments quarantined.
    pub quarantined: u64,
    /// Anomalies flagged.
    pub anomalies: u64,
    /// Seconds since the first campaign activity.
    pub uptime_s: f64,
}

/// Computes the current [`StatusSnapshot`] from [`progress`] and the
/// process counters.
pub fn status_snapshot() -> StatusSnapshot {
    let p = progress();
    let done = p.done();
    let total = p.total();
    let now = crate::trace::epoch_us();
    let first = p.first_activity_us.load(Ordering::Relaxed);
    let elapsed_s = if first == u64::MAX {
        0.0
    } else {
        now.saturating_sub(first) as f64 / 1e6
    };
    let faults_per_sec = if elapsed_s > 0.0 && done > 0 {
        done as f64 / elapsed_s
    } else {
        0.0
    };
    let remaining = total.saturating_sub(done);
    let eta_s = (faults_per_sec > 0.0 && remaining > 0).then(|| remaining as f64 / faults_per_sec);

    let batch_cycles = crate::sim::BATCH_CYCLES.get();
    let lane_occupancy = if batch_cycles > 0 {
        crate::sim::LANE_CYCLES.get() as f64 / batch_cycles as f64
    } else {
        0.0
    };
    let skipped = crate::fastpath::PREFIX_CYCLES_SKIPPED.get()
        + crate::fastpath::EARLY_STOP_CYCLES_SKIPPED.get();
    let executed = crate::sim::CYCLES.get() + batch_cycles;
    let fastpath_skip_ratio = if skipped > 0 {
        skipped as f64 / (skipped + executed) as f64
    } else {
        0.0
    };

    StatusSnapshot {
        campaigns: p.campaigns(),
        total,
        done,
        faults_per_sec,
        eta_s,
        lane_occupancy,
        fastpath_skip_ratio,
        static_silent: crate::analysis::STATIC_SILENT.get(),
        lint_diagnostics: crate::analysis::LINT_DIAGNOSTICS.get(),
        quarantined: crate::dispatch::QUARANTINES.get(),
        anomalies: ANOMALIES.get(),
        uptime_s: elapsed_s,
    }
}

impl StatusSnapshot {
    /// Serializes the snapshot as the `/status` JSON document (stable
    /// field order, no trailing newline).
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new()
            .str("type", "status")
            .u64("campaigns", self.campaigns)
            .u64("experiments_total", self.total)
            .u64("experiments_done", self.done)
            .f64("faults_per_sec", self.faults_per_sec);
        obj = match self.eta_s {
            Some(eta) => obj.f64("eta_s", eta),
            None => obj.raw("eta_s", "null"),
        };
        obj.f64("lane_occupancy", self.lane_occupancy)
            .f64("fastpath_skip_ratio", self.fastpath_skip_ratio)
            .u64("static_silent", self.static_silent)
            .u64("lint_diagnostics", self.lint_diagnostics)
            .u64("quarantined", self.quarantined)
            .u64("anomalies", self.anomalies)
            .f64("uptime_s", self.uptime_s)
            .finish()
    }
}

/// Reports one anomaly: bumps [`ANOMALIES`], prints one stderr line, and
/// appends a structured `anomaly` line to the run log when
/// `FADES_RUN_LOG` is configured (best-effort — a failing run log never
/// suppresses the in-process signal).
///
/// `kind` is a stable machine-readable tag (`"stall"`,
/// `"lane-occupancy-collapse"`, `"quarantine-rate"`, ...); `detail` is
/// the human explanation.
pub fn report_anomaly(kind: &str, detail: &str) {
    ANOMALIES.inc();
    eprintln!("[fades-monitor] anomaly {kind}: {detail}");
    if let Some(path) = crate::runlog::run_log_path() {
        let at_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64);
        let line = JsonObject::new()
            .str("type", "anomaly")
            .str("kind", kind)
            .str("detail", detail)
            .u64("done", progress().done())
            .u64("total", progress().total())
            .u64("at_ms", at_ms)
            .finish();
        let _ = crate::runlog::append_raw_line(&path, &line);
    }
}

/// Watchdog tunables.
#[derive(Debug, Clone, Copy)]
pub struct WatchdogConfig {
    /// No experiment completion for this long (while work remains) flags
    /// a `stall` anomaly.
    pub deadline: Duration,
    /// Sampling interval (defaults to `deadline / 4`, clamped to
    /// [10 ms, 1 s]).
    pub interval: Duration,
    /// Quarantined experiments above this percentage of settled
    /// experiments (and at least 3 absolute) flag a `quarantine-rate`
    /// anomaly.
    pub max_quarantine_pct: f64,
    /// Windowed lane fill (occupied lanes over lane capacity, so a change
    /// of lane-word width does not read as a change) below this fraction
    /// of its observed peak, while batch cycles still advance, flags a
    /// `lane-occupancy-collapse` anomaly.
    pub occupancy_collapse: f64,
}

impl WatchdogConfig {
    /// A config with the given stall deadline and default thresholds.
    pub fn with_deadline(deadline: Duration) -> Self {
        let interval = (deadline / 4).clamp(Duration::from_millis(10), Duration::from_secs(1));
        WatchdogConfig {
            deadline,
            interval,
            max_quarantine_pct: 10.0,
            occupancy_collapse: 0.25,
        }
    }

    /// Builds the config from the environment: `FADES_WATCHDOG_MS`
    /// (stall deadline, presence enables the watchdog),
    /// `FADES_WATCHDOG_QUAR_PCT` and `FADES_WATCHDOG_OCC` overriding the
    /// thresholds. Returns `None` when `FADES_WATCHDOG_MS` is unset,
    /// empty or unparsable.
    pub fn from_env() -> Option<Self> {
        let ms: u64 = std::env::var("FADES_WATCHDOG_MS").ok()?.parse().ok()?;
        let mut cfg = Self::with_deadline(Duration::from_millis(ms.max(1)));
        if let Some(pct) = std::env::var("FADES_WATCHDOG_QUAR_PCT")
            .ok()
            .and_then(|v| v.parse().ok())
        {
            cfg.max_quarantine_pct = pct;
        }
        if let Some(occ) = std::env::var("FADES_WATCHDOG_OCC")
            .ok()
            .and_then(|v| v.parse().ok())
        {
            cfg.occupancy_collapse = occ;
        }
        Some(cfg)
    }
}

/// A running watchdog thread. Dropping the handle stops the thread (the
/// next sample notices and exits); [`stop`](WatchdogHandle::stop) stops
/// and joins it deterministically.
#[derive(Debug)]
pub struct WatchdogHandle {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl WatchdogHandle {
    /// Signals the watchdog to exit and waits for it.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for WatchdogHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Starts the watchdog thread with `cfg`. The watchdog is best-effort
/// observability: if the OS refuses the thread, the returned handle is
/// inert rather than the campaign failing.
pub fn start_watchdog(cfg: WatchdogConfig) -> WatchdogHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let thread = std::thread::Builder::new()
        .name("fades-watchdog".into())
        .spawn(move || watchdog_loop(cfg, &stop_flag))
        .ok();
    WatchdogHandle { stop, thread }
}

/// [`start_watchdog`] from [`WatchdogConfig::from_env`]; `None` when the
/// environment does not enable it.
pub fn start_watchdog_from_env() -> Option<WatchdogHandle> {
    WatchdogConfig::from_env().map(start_watchdog)
}

fn watchdog_loop(cfg: WatchdogConfig, stop: &AtomicBool) {
    let deadline_us = cfg.deadline.as_micros() as u64;
    let mut stall_flagged = false;
    let mut quarantine_flagged = false;
    let mut occupancy = OccupancyWatch::default();
    let mut last_done = progress().done();
    let mut last_lane = crate::sim::LANE_CYCLES.get();
    let mut last_batch = crate::sim::BATCH_CYCLES.get();
    let mut last_slots = crate::sim::LANE_SLOTS.get();

    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(cfg.interval);
        if stop.load(Ordering::Relaxed) {
            return;
        }
        let p = progress();
        let done = p.done();
        let total = p.total();

        // Stall: work remains but nothing completed within the deadline.
        if done != last_done {
            last_done = done;
            stall_flagged = false;
        } else if !stall_flagged && total > done && p.last_activity_us() > 0 {
            let idle_us = crate::trace::epoch_us().saturating_sub(p.last_activity_us());
            if idle_us >= deadline_us {
                report_anomaly(
                    "stall",
                    &format!(
                        "no experiment completion for {:.1}s ({done}/{total} done)",
                        idle_us as f64 / 1e6
                    ),
                );
                stall_flagged = true;
            }
        }

        // Quarantine rate: too much of the campaign is being set aside.
        let quarantined = crate::dispatch::QUARANTINES.get();
        let settled = done + quarantined;
        if !quarantine_flagged
            && quarantined >= 3
            && settled > 0
            && quarantined as f64 * 100.0 > cfg.max_quarantine_pct * settled as f64
        {
            report_anomaly(
                "quarantine-rate",
                &format!(
                    "{quarantined} of {settled} settled experiments quarantined \
                     (> {:.1}% threshold)",
                    cfg.max_quarantine_pct
                ),
            );
            quarantine_flagged = true;
        }

        // Lane occupancy collapse: the engine still cycles but its lanes
        // have emptied out far below the peak of this run.
        let lane = crate::sim::LANE_CYCLES.get();
        let batch = crate::sim::BATCH_CYCLES.get();
        let slots = crate::sim::LANE_SLOTS.get();
        let window = (lane - last_lane, batch - last_batch, slots - last_slots);
        (last_lane, last_batch, last_slots) = (lane, batch, slots);
        if let Some(message) = occupancy.observe(window, cfg.occupancy_collapse) {
            report_anomaly("lane-occupancy-collapse", &message);
        }
    }
}

/// The lane-occupancy-collapse rule over successive sampling windows.
///
/// It judges *fill* — occupied lanes over lane capacity — not absolute
/// lanes, because the campaign layer sizes the lane word to each cohort:
/// a 255-lane cohort followed by a 63-lane shard, both full, is no
/// collapse. Windows averaging fewer than 4 occupied lanes cannot set the
/// peak, so a tiny campaign never flags.
#[derive(Debug, Default)]
struct OccupancyWatch {
    peak_fill: f64,
    flagged: bool,
}

impl OccupancyWatch {
    /// Feeds one window's `(lane cycles, batch cycles, lane slots)`
    /// deltas; returns the anomaly message when the window's fill fell
    /// below `collapse` times the peak (once per peak).
    fn observe(
        &mut self,
        (lanes, batches, slots): (u64, u64, u64),
        collapse: f64,
    ) -> Option<String> {
        if batches == 0 || slots == 0 {
            return None;
        }
        let fill = lanes as f64 / slots as f64;
        if fill > self.peak_fill {
            if lanes >= 4 * batches {
                self.peak_fill = fill;
                self.flagged = false;
            }
            return None;
        }
        if self.flagged || fill >= collapse * self.peak_fill {
            return None;
        }
        self.flagged = true;
        Some(format!(
            "mean lane fill {:.1}% ({:.1} lanes) fell below {:.0}% of peak fill {:.1}%",
            fill * 100.0,
            lanes as f64 / batches as f64,
            collapse * 100.0,
            self.peak_fill * 100.0
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Progress and the counters are process-global (other tests tick
    // them too), so every assertion here is relative.

    #[test]
    fn progress_ticks_feed_status_snapshot() {
        let before = status_snapshot();
        progress().campaign_started(10);
        for _ in 0..4 {
            progress().tick();
        }
        let after = status_snapshot();
        assert_eq!(after.total, before.total + 10);
        assert_eq!(after.done, before.done + 4);
        assert!(after.campaigns > before.campaigns);
        let v = crate::json::parse(&after.to_json()).expect("status JSON parses");
        assert_eq!(
            v.get("experiments_done")
                .and_then(super::super::json::JsonValue::as_u64),
            Some(after.done)
        );
        assert_eq!(v.get("type").and_then(|x| x.as_str()), Some("status"));
    }

    #[test]
    fn watchdog_flags_a_stall_within_the_deadline() {
        // Leave work outstanding, then give the watchdog a tiny deadline.
        progress().campaign_started(1_000_000);
        let before = ANOMALIES.get();
        let cfg = WatchdogConfig::with_deadline(Duration::from_millis(30));
        let handle = start_watchdog(cfg);
        let t0 = std::time::Instant::now();
        while ANOMALIES.get() == before && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(5));
        }
        handle.stop();
        assert!(ANOMALIES.get() > before, "stall anomaly flagged");
    }

    #[test]
    fn occupancy_watch_judges_fill_not_absolute_lanes() {
        // 1000 batch cycles per window; a full 255-lane word, then full
        // 63-lane words: absolute occupancy drops to 0.245 of the peak,
        // which the old absolute rule flagged.
        let window =
            |lanes_per_cycle: u64, capacity: u64| (lanes_per_cycle * 1000, 1000, capacity * 1000);
        let mut watch = OccupancyWatch::default();
        assert_eq!(watch.observe(window(236, 255), 0.25), None);
        assert_eq!(watch.observe(window(58, 63), 0.25), None);
        assert_eq!(watch.observe(window(60, 63), 0.25), None);
        // A real drop in fill on the same word width still flags, once.
        let message = watch.observe(window(10, 63), 0.25);
        assert!(message.is_some_and(|m| m.contains("fill")));
        assert_eq!(watch.observe(window(9, 63), 0.25), None);
        // So does a drop across a width change.
        let mut watch = OccupancyWatch::default();
        assert_eq!(watch.observe(window(250, 255), 0.25), None);
        assert!(watch.observe(window(12, 63), 0.25).is_some());
        // Windows under 4 lanes never set the peak.
        let mut watch = OccupancyWatch::default();
        assert_eq!(watch.observe(window(3, 63), 0.25), None);
        assert_eq!(watch.observe(window(0, 63), 0.25), None);
    }

    #[test]
    fn watchdog_config_from_env_requires_the_deadline() {
        // Does not touch the real environment: just the default shape.
        let cfg = WatchdogConfig::with_deadline(Duration::from_secs(2));
        assert_eq!(cfg.interval, Duration::from_millis(500));
        assert!(cfg.max_quarantine_pct > 0.0);
        assert!(cfg.occupancy_collapse > 0.0 && cfg.occupancy_collapse < 1.0);
    }
}
