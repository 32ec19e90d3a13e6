//! Point-in-time capture of every registered metric, with Prometheus
//! text and JSON renderings.
//!
//! [`snapshot`] gathers the built-in counter families ([`sim`](crate::sim),
//! [`fastpath`](crate::fastpath), [`dispatch`](crate::dispatch),
//! [`analysis`](crate::analysis), the monitor's anomaly counter), the
//! progress gauges, every phase
//! histogram, and anything applications registered through
//! [`register_counter`]/[`register_gauge`] — into one stable, serializable
//! [`MetricsSnapshot`]. The capture itself is just relaxed loads: safe to
//! take while campaigns hammer the counters, cheap enough to take per
//! HTTP request.

use std::sync::Mutex;

use crate::counter::{Counter, Gauge};
use crate::histogram::HistogramSnapshot;
use crate::json::{array, JsonObject};

/// Extra metrics registered at runtime. Statics only: registration is
/// for long-lived, crate-level metrics, mirroring the built-ins.
struct Extra {
    counters: Vec<(&'static str, &'static Counter)>,
    gauges: Vec<(&'static str, &'static Gauge)>,
}

static EXTRA: Mutex<Extra> = Mutex::new(Extra {
    counters: Vec::new(),
    gauges: Vec::new(),
});

/// Registers an application counter under `name` (a full Prometheus
/// metric name, e.g. `myapp_retries_total`). Re-registering the same
/// name replaces the previous entry.
pub fn register_counter(name: &'static str, counter: &'static Counter) {
    let mut extra = EXTRA
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    extra.counters.retain(|(n, _)| *n != name);
    extra.counters.push((name, counter));
}

/// Registers an application gauge under `name`. Re-registering the same
/// name replaces the previous entry.
pub fn register_gauge(name: &'static str, gauge: &'static Gauge) {
    let mut extra = EXTRA
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    extra.gauges.retain(|(n, _)| *n != name);
    extra.gauges.push((name, gauge));
}

/// A stable capture of every registered metric. Field vectors keep
/// registration order (built-ins first), so repeated snapshots render in
/// the same order — diffs of `/metrics` stay readable.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Monotonic counters, `(prometheus_name, value)`.
    pub counters: Vec<(String, u64)>,
    /// Gauges, `(prometheus_name, value)`.
    pub gauges: Vec<(String, u64)>,
    /// Per-phase wall-clock histograms, `(phase_name, snapshot)`.
    pub phases: Vec<(String, HistogramSnapshot)>,
}

/// Captures every registered counter, gauge and phase histogram.
pub fn snapshot() -> MetricsSnapshot {
    let mut counters: Vec<(String, u64)> = vec![
        ("fades_sim_cycles_total", crate::sim::CYCLES.get()),
        ("fades_sim_cell_evals_total", crate::sim::CELL_EVALS.get()),
        ("fades_sim_lane_cycles_total", crate::sim::LANE_CYCLES.get()),
        (
            "fades_sim_batch_cycles_total",
            crate::sim::BATCH_CYCLES.get(),
        ),
        (
            "fades_sim_lane_retirements_total",
            crate::sim::LANE_RETIREMENTS.get(),
        ),
        (
            "fades_sim_warm_skipped_cycles_total",
            crate::sim::WARM_SKIPPED_CYCLES.get(),
        ),
        (
            "fades_fastpath_fast_forwarded_total",
            crate::fastpath::FAST_FORWARDED.get(),
        ),
        (
            "fades_fastpath_early_stopped_total",
            crate::fastpath::EARLY_STOPPED.get(),
        ),
        (
            "fades_fastpath_prefix_cycles_skipped_total",
            crate::fastpath::PREFIX_CYCLES_SKIPPED.get(),
        ),
        (
            "fades_fastpath_early_stop_cycles_skipped_total",
            crate::fastpath::EARLY_STOP_CYCLES_SKIPPED.get(),
        ),
        (
            "fades_dispatch_retries_total",
            crate::dispatch::RETRIES.get(),
        ),
        (
            "fades_dispatch_quarantines_total",
            crate::dispatch::QUARANTINES.get(),
        ),
        (
            "fades_dispatch_resume_skipped_total",
            crate::dispatch::RESUME_SKIPPED.get(),
        ),
        (
            "fades_analysis_static_silent_total",
            crate::analysis::STATIC_SILENT.get(),
        ),
        (
            "fades_analysis_lint_diagnostics_total",
            crate::analysis::LINT_DIAGNOSTICS.get(),
        ),
        (
            "fades_analysis_lane_fallbacks_total",
            crate::analysis::LANE_FALLBACKS.get(),
        ),
        ("fades_anomalies_total", crate::monitor::ANOMALIES.get()),
        (
            "fades_trace_events_recorded_total",
            crate::trace::events_recorded(),
        ),
    ]
    .into_iter()
    .map(|(n, v)| (n.to_string(), v))
    .collect();

    let progress = crate::monitor::progress();
    let mut gauges: Vec<(String, u64)> = vec![
        ("fades_campaigns", progress.campaigns()),
        ("fades_experiments_total", progress.total()),
        ("fades_experiments_done", progress.done()),
    ]
    .into_iter()
    .map(|(n, v)| (n.to_string(), v))
    .collect();

    {
        let extra = EXTRA
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        counters.extend(extra.counters.iter().map(|(n, c)| (n.to_string(), c.get())));
        gauges.extend(extra.gauges.iter().map(|(n, g)| (n.to_string(), g.get())));
    }

    let phases = crate::span::phase_snapshots()
        .into_iter()
        .map(|(n, s)| (n.to_string(), s))
        .collect();

    MetricsSnapshot {
        counters,
        gauges,
        phases,
    }
}

/// Keeps only `[a-zA-Z0-9_]` label-safe characters, mapping the rest to
/// `_` (phase names are free-form span literals).
fn label_safe(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

impl MetricsSnapshot {
    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4): one `# TYPE` line per family, counters and
    /// gauges as plain samples, phase histograms as summaries
    /// (`fades_phase_us{phase="...",quantile="0.5"}` plus `_sum`/`_count`).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
        }
        for (name, value) in &self.gauges {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
        }
        if !self.phases.is_empty() {
            out.push_str("# TYPE fades_phase_us summary\n");
            for (phase, snap) in &self.phases {
                let phase = label_safe(phase);
                for (q, v) in [
                    ("0.5", snap.p50()),
                    ("0.9", snap.p90()),
                    ("0.99", snap.p99()),
                ] {
                    out.push_str(&format!(
                        "fades_phase_us{{phase=\"{phase}\",quantile=\"{q}\"}} {v}\n"
                    ));
                }
                out.push_str(&format!(
                    "fades_phase_us_sum{{phase=\"{phase}\"}} {}\n",
                    snap.sum()
                ));
                out.push_str(&format!(
                    "fades_phase_us_count{{phase=\"{phase}\"}} {}\n",
                    snap.count()
                ));
            }
        }
        out
    }

    /// Renders the snapshot as one JSON object: `counters` and `gauges`
    /// maps plus a `phases` array of per-phase quantile objects.
    pub fn to_json(&self) -> String {
        let mut counters = JsonObject::new();
        for (name, value) in &self.counters {
            counters = counters.u64(name, *value);
        }
        let mut gauges = JsonObject::new();
        for (name, value) in &self.gauges {
            gauges = gauges.u64(name, *value);
        }
        let phases: Vec<String> = self
            .phases
            .iter()
            .map(|(name, s)| {
                JsonObject::new()
                    .str("phase", name)
                    .u64("count", s.count())
                    .u64("sum_us", s.sum())
                    .u64("p50_us", s.p50())
                    .u64("p90_us", s.p90())
                    .u64("p99_us", s.p99())
                    .u64("max_us", s.max())
                    .finish()
            })
            .collect();
        JsonObject::new()
            .raw("counters", &counters.finish())
            .raw("gauges", &gauges.finish())
            .raw("phases", &array(&phases))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static TEST_COUNTER: Counter = Counter::new();
    static TEST_GAUGE: Gauge = Gauge::new();

    #[test]
    fn snapshot_captures_builtins_and_registered_extras() {
        register_counter("fades_test_extra_total", &TEST_COUNTER);
        register_gauge("fades_test_extra_gauge", &TEST_GAUGE);
        TEST_COUNTER.add(7);
        TEST_GAUGE.set(3);
        let s = snapshot();
        let get =
            |v: &[(String, u64)], n: &str| v.iter().find(|(name, _)| name == n).map(|(_, v)| *v);
        assert!(get(&s.counters, "fades_anomalies_total").is_some());
        assert!(get(&s.counters, "fades_sim_cycles_total").is_some());
        assert!(get(&s.counters, "fades_test_extra_total").unwrap() >= 7);
        assert_eq!(get(&s.gauges, "fades_test_extra_gauge"), Some(3));
        assert!(get(&s.gauges, "fades_experiments_done").is_some());
    }

    #[test]
    fn prometheus_rendering_has_type_lines_and_samples() {
        crate::span::phase("snapshot-test-phase").record(100);
        let text = snapshot().to_prometheus();
        assert!(text.contains("# TYPE fades_anomalies_total counter"));
        assert!(text.contains("# TYPE fades_experiments_done gauge"));
        assert!(text.contains("# TYPE fades_phase_us summary"));
        assert!(text.contains("fades_phase_us{phase=\"snapshot_test_phase\",quantile=\"0.5\"}"));
        assert!(text.contains("fades_phase_us_count{phase=\"snapshot_test_phase\"}"));
        // Every non-comment line is "name[{labels}] value".
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            assert!(value.parse::<f64>().is_ok(), "sample value parses: {line}");
            assert!(parts.next().is_some(), "sample has a name: {line}");
        }
        crate::span::phase("snapshot-test-phase").reset();
    }

    #[test]
    fn json_rendering_parses_and_round_trips_counts() {
        let s = snapshot();
        let v = crate::json::parse(&s.to_json()).expect("snapshot JSON parses");
        let counters = v.get("counters").expect("counters object");
        assert!(counters.get("fades_anomalies_total").is_some());
        assert!(v.get("phases").is_some());
    }
}
