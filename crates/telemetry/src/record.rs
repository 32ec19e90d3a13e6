//! Per-experiment records and their cross-thread aggregation.

use std::io::IsTerminal;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

use crate::histogram::{Histogram, HistogramSnapshot};
use crate::json::JsonObject;
use crate::runlog;

/// One fault-injection experiment, as seen by the observability layer.
///
/// Field order here is the JSONL field order (stable schema, see
/// `README.md` § Observability).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExperimentRecord {
    /// Experiment index within its campaign (deterministic plan order).
    pub index: u64,
    /// Targeted element class (e.g. `"all FFs"`).
    pub target: String,
    /// Injection strategy or phase (e.g. `"lsr-bitflip"`).
    pub strategy: String,
    /// Classified outcome: `"failure"`, `"latent"` or `"silent"`.
    pub outcome: &'static str,
    /// Modelled emulation/simulation seconds (the paper's metric).
    pub modelled_s: f64,
    /// Configuration-port operations.
    pub ops: u64,
    /// Readback operations.
    pub readback_ops: u64,
    /// Partial-reconfiguration write operations.
    pub write_ops: u64,
    /// Bulk full-download operations.
    pub bulk_ops: u64,
    /// Global-pulse operations.
    pub pulse_ops: u64,
    /// Bytes read back.
    pub readback_bytes: u64,
    /// Bytes written by partial reconfiguration.
    pub write_bytes: u64,
    /// Bytes moved by bulk downloads.
    pub bulk_bytes: u64,
    /// Golden-prefix cycles skipped by checkpoint fast-forward (0 on the
    /// full-simulation path).
    pub skipped_cycles: u64,
    /// Tail cycles skipped once the outcome was decided, by early-stop
    /// convergence detection or by fail-stop on a Failure (0 on the
    /// full-simulation path).
    pub early_stop_cycles: u64,
    /// Real wall-clock microseconds this experiment took to emulate.
    pub wall_us: u64,
    /// Execution attempts it took (1 = first try; >1 means the isolating
    /// executor retried after a contained panic or error).
    pub attempts: u64,
}

impl ExperimentRecord {
    /// Serializes the record as one JSONL line (without newline).
    pub fn to_json(&self, campaign: &str) -> String {
        JsonObject::new()
            .str("type", "experiment")
            .str("campaign", campaign)
            .u64("index", self.index)
            .str("target", &self.target)
            .str("strategy", &self.strategy)
            .str("outcome", self.outcome)
            .f64("modelled_s", self.modelled_s)
            .u64("ops", self.ops)
            .u64("readback_ops", self.readback_ops)
            .u64("write_ops", self.write_ops)
            .u64("bulk_ops", self.bulk_ops)
            .u64("pulse_ops", self.pulse_ops)
            .u64("readback_bytes", self.readback_bytes)
            .u64("write_bytes", self.write_bytes)
            .u64("bulk_bytes", self.bulk_bytes)
            .u64("skipped_cycles", self.skipped_cycles)
            .u64("early_stop_cycles", self.early_stop_cycles)
            .u64("wall_us", self.wall_us)
            .u64("attempts", self.attempts.max(1))
            .finish()
    }
}

/// Outcome counts, keyed by the record's outcome string.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    /// `"failure"` records.
    pub failures: u64,
    /// `"latent"` records.
    pub latents: u64,
    /// `"silent"` records.
    pub silents: u64,
}

impl OutcomeCounts {
    /// Records one outcome string (unknown strings count as failures so
    /// they are never silently dropped).
    pub fn record(&mut self, outcome: &str) {
        match outcome {
            "latent" => self.latents += 1,
            "silent" => self.silents += 1,
            _ => self.failures += 1,
        }
    }

    /// Total recorded.
    pub fn total(&self) -> u64 {
        self.failures + self.latents + self.silents
    }

    /// Percentage helper (0–100).
    fn pct(&self, n: u64) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            n as f64 * 100.0 / self.total() as f64
        }
    }

    /// Failure percentage.
    pub fn failure_pct(&self) -> f64 {
        self.pct(self.failures)
    }

    /// Latent percentage.
    pub fn latent_pct(&self) -> f64 {
        self.pct(self.latents)
    }

    /// Silent percentage.
    pub fn silent_pct(&self) -> f64 {
        self.pct(self.silents)
    }
}

/// Progress state shared by all worker handles of one campaign.
#[derive(Debug)]
struct ProgressTicker {
    name: String,
    total: u64,
    every: u64,
    done: AtomicU64,
    enabled: bool,
}

impl ProgressTicker {
    fn tick(&self) {
        crate::monitor::progress().tick();
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if self.enabled && self.every > 0 && done.is_multiple_of(self.every) && done < self.total {
            eprintln!("  [{}] {done}/{} experiments", self.name, self.total);
        }
    }
}

/// Whether the progress ticker should print: `FADES_PROGRESS=1` forces it
/// on, `FADES_PROGRESS=0` off; otherwise it prints only on interactive
/// stderr for campaigns big enough to feel slow.
fn progress_enabled(total: u64) -> bool {
    match std::env::var("FADES_PROGRESS") {
        Ok(v) if v == "0" => false,
        Ok(_) => true,
        Err(_) => total >= 500 && std::io::stderr().is_terminal(),
    }
}

/// Collects [`ExperimentRecord`]s from campaign worker threads and
/// aggregates them at campaign end.
///
/// Workers each get a cheap [`RecorderHandle`] (an `mpsc` sender plus the
/// shared progress ticker); [`finish`](Recorder::finish) drains the
/// channel, restores plan order, and produces the [`CampaignAggregate`] —
/// writing the JSONL run log on the way out when one is configured.
#[derive(Debug)]
pub struct Recorder {
    name: String,
    threads: u64,
    started: Instant,
    tx: mpsc::Sender<ExperimentRecord>,
    rx: mpsc::Receiver<ExperimentRecord>,
    progress: Arc<ProgressTicker>,
    run_log: Option<PathBuf>,
}

impl Recorder {
    /// Starts recording a campaign of `expected` experiments run on
    /// `threads` workers. The run-log path is taken from `FADES_RUN_LOG`
    /// (override with [`with_run_log`](Recorder::with_run_log)).
    pub fn new(name: impl Into<String>, expected: usize, threads: usize) -> Self {
        let name = name.into();
        let total = expected as u64;
        let progress = Arc::new(ProgressTicker {
            name: name.clone(),
            total,
            every: (total / 10).max(25),
            done: AtomicU64::new(0),
            enabled: progress_enabled(total),
        });
        let (tx, rx) = mpsc::channel();
        crate::monitor::progress().campaign_started(total);
        Recorder {
            name,
            threads: threads as u64,
            started: Instant::now(),
            tx,
            rx,
            progress,
            run_log: runlog::run_log_path().and_then(runlog::open_checked),
        }
    }

    /// Overrides the run-log destination (`None` disables it). Used by
    /// tests and by callers that manage the path themselves.
    pub fn with_run_log(mut self, path: Option<PathBuf>) -> Self {
        self.run_log = path;
        self
    }

    /// The campaign name records are logged under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// A handle for one worker thread. Clone-cheap; handles may outlive
    /// worker loops but must be dropped before [`finish`](Recorder::finish)
    /// returns complete data (the campaign's thread scope guarantees it).
    pub fn handle(&self) -> RecorderHandle {
        RecorderHandle {
            tx: self.tx.clone(),
            progress: Arc::clone(&self.progress),
        }
    }

    /// Ends the campaign: drains all records, aggregates, writes the run
    /// log (when configured) and registers the aggregate for the CLI's
    /// summary/bench sinks.
    pub fn finish(self) -> CampaignAggregate {
        let Recorder {
            name,
            threads,
            started,
            tx,
            rx,
            progress: _,
            run_log,
        } = self;
        drop(tx);
        let mut records: Vec<ExperimentRecord> = rx.into_iter().collect();
        records.sort_by_key(|r| r.index);

        let wall = Histogram::new();
        let mut agg = CampaignAggregate {
            name: name.clone(),
            n: records.len() as u64,
            threads,
            outcomes: OutcomeCounts::default(),
            modelled_s: 0.0,
            wall_s: 0.0,
            ops: 0,
            readback_ops: 0,
            write_ops: 0,
            bulk_ops: 0,
            pulse_ops: 0,
            readback_bytes: 0,
            write_bytes: 0,
            bulk_bytes: 0,
            skipped_cycles: 0,
            early_stop_cycles: 0,
            retried: 0,
            exp_wall: HistogramSnapshot::empty(),
        };
        for r in &records {
            agg.outcomes.record(r.outcome);
            agg.modelled_s += r.modelled_s;
            agg.ops += r.ops;
            agg.readback_ops += r.readback_ops;
            agg.write_ops += r.write_ops;
            agg.bulk_ops += r.bulk_ops;
            agg.pulse_ops += r.pulse_ops;
            agg.readback_bytes += r.readback_bytes;
            agg.write_bytes += r.write_bytes;
            agg.bulk_bytes += r.bulk_bytes;
            agg.skipped_cycles += r.skipped_cycles;
            agg.early_stop_cycles += r.early_stop_cycles;
            agg.retried += r.attempts.saturating_sub(1);
            wall.record(r.wall_us);
        }
        agg.exp_wall = wall.snapshot();
        agg.wall_s = started.elapsed().as_secs_f64();

        if let Some(path) = &run_log {
            if let Err(e) = runlog::append(path, &name, &records, &agg) {
                eprintln!("warning: could not write run log {}: {e}", path.display());
            }
        }
        crate::registry::push_aggregate(agg.clone());
        agg
    }
}

/// A worker-side handle: records experiments into the campaign's channel.
#[derive(Debug, Clone)]
pub struct RecorderHandle {
    tx: mpsc::Sender<ExperimentRecord>,
    progress: Arc<ProgressTicker>,
}

impl RecorderHandle {
    /// Records one finished experiment.
    pub fn record(&self, record: ExperimentRecord) {
        self.progress.tick();
        // The receiver lives in the owning Recorder; a send can only fail
        // after finish(), which the campaign structure rules out. Drop
        // rather than panic in that case: telemetry must never take down
        // a campaign.
        let _ = self.tx.send(record);
    }
}

/// Aggregated telemetry of one campaign.
#[derive(Debug, Clone)]
pub struct CampaignAggregate {
    /// Campaign name (figure/table label).
    pub name: String,
    /// Experiments recorded.
    pub n: u64,
    /// Worker threads actually used.
    pub threads: u64,
    /// Outcome mix.
    pub outcomes: OutcomeCounts,
    /// Total modelled seconds.
    pub modelled_s: f64,
    /// Real wall-clock seconds of the whole campaign.
    pub wall_s: f64,
    /// Total configuration-port operations.
    pub ops: u64,
    /// Readback operations.
    pub readback_ops: u64,
    /// Write operations.
    pub write_ops: u64,
    /// Bulk-download operations.
    pub bulk_ops: u64,
    /// Global-pulse operations.
    pub pulse_ops: u64,
    /// Bytes read back.
    pub readback_bytes: u64,
    /// Bytes written.
    pub write_bytes: u64,
    /// Bulk bytes moved.
    pub bulk_bytes: u64,
    /// Total golden-prefix cycles skipped by checkpoint fast-forward.
    pub skipped_cycles: u64,
    /// Total tail cycles skipped by early stop and fail-stop.
    pub early_stop_cycles: u64,
    /// Total extra attempts spent retrying experiments (0 when no
    /// experiment needed more than one try).
    pub retried: u64,
    /// Per-experiment real wall-clock distribution (µs).
    pub exp_wall: HistogramSnapshot,
}

impl CampaignAggregate {
    /// Experiments per real second.
    pub fn faults_per_sec(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.n as f64 / self.wall_s
        } else {
            0.0
        }
    }

    /// Mean real microseconds per fault.
    pub fn mean_us_per_fault(&self) -> f64 {
        self.exp_wall.mean()
    }

    /// Mean modelled seconds per fault (the paper's Fig. 10 quantity).
    pub fn mean_modelled_s_per_fault(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.modelled_s / self.n as f64
        }
    }

    /// Serializes the trailing aggregate JSONL line (without newline).
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .str("type", "aggregate")
            .str("campaign", &self.name)
            .u64("n", self.n)
            .u64("threads", self.threads)
            .u64("failures", self.outcomes.failures)
            .u64("latents", self.outcomes.latents)
            .u64("silents", self.outcomes.silents)
            .f64("modelled_s", self.modelled_s)
            .f64("wall_s", self.wall_s)
            .f64("faults_per_sec", self.faults_per_sec())
            .f64("mean_us_per_fault", self.mean_us_per_fault())
            .f64(
                "mean_modelled_s_per_fault",
                self.mean_modelled_s_per_fault(),
            )
            .u64("ops", self.ops)
            .u64("readback_ops", self.readback_ops)
            .u64("write_ops", self.write_ops)
            .u64("bulk_ops", self.bulk_ops)
            .u64("pulse_ops", self.pulse_ops)
            .u64("readback_bytes", self.readback_bytes)
            .u64("write_bytes", self.write_bytes)
            .u64("bulk_bytes", self.bulk_bytes)
            .u64("skipped_cycles", self.skipped_cycles)
            .u64("early_stop_cycles", self.early_stop_cycles)
            .u64("retried", self.retried)
            .u64("p50_us", self.exp_wall.p50())
            .u64("p90_us", self.exp_wall.p90())
            .u64("p99_us", self.exp_wall.p99())
            .u64("max_us", self.exp_wall.max())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(index: u64, outcome: &'static str, wall_us: u64) -> ExperimentRecord {
        ExperimentRecord {
            index,
            target: "all FFs".into(),
            strategy: "lsr-bitflip".into(),
            outcome,
            modelled_s: 0.25,
            ops: 2,
            readback_ops: 1,
            write_ops: 1,
            readback_bytes: 288,
            write_bytes: 288,
            wall_us,
            ..Default::default()
        }
    }

    #[test]
    fn aggregation_across_worker_threads() {
        let recorder = Recorder::new("test", 80, 4).with_run_log(None);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let h = recorder.handle();
                s.spawn(move || {
                    for i in 0..20u64 {
                        let idx = t * 20 + i;
                        let outcome = match idx % 4 {
                            0 => "failure",
                            1 => "latent",
                            _ => "silent",
                        };
                        h.record(record(idx, outcome, 100 + idx));
                    }
                });
            }
        });
        let agg = recorder.finish();
        assert_eq!(agg.n, 80);
        assert_eq!(agg.outcomes.failures, 20);
        assert_eq!(agg.outcomes.latents, 20);
        assert_eq!(agg.outcomes.silents, 40);
        assert_eq!(agg.ops, 160);
        assert_eq!(agg.readback_bytes, 80 * 288);
        assert!((agg.modelled_s - 20.0).abs() < 1e-9);
        assert_eq!(agg.exp_wall.count(), 80);
        assert!(agg.mean_us_per_fault() > 100.0);
        // Clean up the registry entry this finish() pushed.
        let _ = crate::registry::drain_aggregates();
    }

    #[test]
    fn mean_us_per_fault_times_n_equals_summed_wall() {
        // The per-experiment wall histogram carries an exact sum, so the
        // reported mean is sum/count exactly — `mean * n` must reproduce
        // the summed per-experiment `wall_us` (the invariant the
        // lane-engine wall-attribution fix is checked against).
        let recorder = Recorder::new("wall-consistency", 3, 1).with_run_log(None);
        let h = recorder.handle();
        for (index, wall_us) in [(0u64, 120u64), (1, 80), (2, 10_000)] {
            h.record(record(index, "silent", wall_us));
        }
        drop(h); // finish() drains until every sender is gone
        let agg = recorder.finish();
        assert_eq!(agg.exp_wall.sum(), 10_200);
        let reconstructed = agg.mean_us_per_fault() * agg.n as f64;
        assert!(
            (reconstructed - agg.exp_wall.sum() as f64).abs() < 1e-9,
            "mean*n = {reconstructed}, summed wall_us = {}",
            agg.exp_wall.sum()
        );
        let _ = crate::registry::drain_aggregates();
    }

    #[test]
    fn aggregate_json_is_parseable_and_ordered() {
        let recorder = Recorder::new("json-test", 1, 1).with_run_log(None);
        recorder.handle().record(record(0, "failure", 123));
        let agg = recorder.finish();
        let line = agg.to_json();
        assert!(line.starts_with("{\"type\":\"aggregate\",\"campaign\":\"json-test\""));
        let v = crate::json::parse(&line).expect("parses");
        assert_eq!(
            v.get("n").and_then(super::super::json::JsonValue::as_u64),
            Some(1)
        );
        assert_eq!(
            v.get("failures")
                .and_then(super::super::json::JsonValue::as_u64),
            Some(1)
        );
        let _ = crate::registry::drain_aggregates();
    }
}
