//! The benchmark's own spans: one around each call into a layer, kept in
//! memory while tracing is on and written out as Chrome trace JSON when
//! the run ends.
//!
//! A span's parent is the innermost open span of its thread, or one
//! passed explicitly when work moves to a thread the benchmark spawns.
//! Spans the program opens on its own threads (the service's shard
//! workers) have no parent there; [`analyze`] links each to the span of
//! the same request that contains it.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use fades_telemetry::json::{self, JsonObject};

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// Microseconds since the process's first clock read; all threads share
/// this timebase.
pub fn now_us() -> f64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64() * 1e6
}

/// Turns span recording on or off. Spans opened while off are never
/// recorded.
pub fn set_enabled(on: bool) {
    let _ = now_us();
    ON.store(on, Ordering::SeqCst);
}

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (1-based).
    pub id: u64,
    /// Enclosing span, if any.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `dispatch.run_shard`.
    pub name: &'static str,
    /// Request id: the round, shard or job the work belongs to.
    pub req: String,
    /// Recording thread.
    pub tid: u64,
    /// Start, µs since the epoch.
    pub start_us: f64,
    /// End, µs since the epoch.
    pub end_us: f64,
}

impl Span {
    /// Duration in µs.
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

struct Open {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    req: String,
    start_us: f64,
}

/// An open span; recorded when dropped.
pub struct Guard(Option<Open>);

/// Opens a span under the innermost open span of this thread.
pub fn span(name: &'static str, req: impl Into<String>) -> Guard {
    let parent = STACK.with(|s| s.borrow().last().copied());
    span_in(name, req, parent)
}

/// Opens a span under an explicit parent (a span of another thread).
pub fn span_in(name: &'static str, req: impl Into<String>, parent: Option<u64>) -> Guard {
    if !ON.load(Ordering::SeqCst) {
        return Guard(None);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| s.borrow_mut().push(id));
    Guard(Some(Open {
        id,
        parent,
        name,
        req: req.into(),
        start_us: now_us(),
    }))
}

impl Guard {
    /// The span's id, when it is being recorded.
    pub fn id(&self) -> Option<u64> {
        self.0.as_ref().map(|o| o.id)
    }

    /// Sets the request id once it is known (a job's id arrives with the
    /// reply to its submission).
    pub fn set_req(&mut self, req: &str) {
        if let Some(o) = &mut self.0 {
            o.req = req.to_string();
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(o) = self.0.take() else { return };
        let end_us = now_us();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|id| *id == o.id) {
                s.remove(pos);
            }
        });
        let span = Span {
            id: o.id,
            parent: o.parent,
            name: o.name,
            req: o.req,
            tid: TID.with(|t| *t),
            start_us: o.start_us,
            end_us,
        };
        SPANS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(span);
    }
}

/// Every span recorded so far, in completion order.
pub fn spans() -> Vec<Span> {
    SPANS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone()
}

/// Spans with their links and self times worked out.
pub struct Analysis {
    /// The spans, in completion order.
    pub spans: Vec<Span>,
    /// Span id → id of the outermost same-request span, on another
    /// thread, that contains a parentless span (program-thread work).
    pub links: HashMap<u64, u64>,
    /// Self time per span id, µs: duration minus the part of it that the
    /// span's children (by `parent`, any thread) cover.
    pub self_us: HashMap<u64, f64>,
}

/// Links orphan spans and computes self times.
pub fn analyze(spans: Vec<Span>) -> Analysis {
    let by_id: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut links = HashMap::new();
    for s in spans
        .iter()
        .filter(|s| s.parent.is_none() && !s.req.is_empty())
    {
        let container = spans
            .iter()
            .filter(|c| {
                c.id != s.id
                    && c.req == s.req
                    && c.start_us <= s.start_us
                    && s.end_us <= c.end_us
                    && c.tid != s.tid
            })
            .max_by(|a, b| a.dur_us().total_cmp(&b.dur_us()));
        if let Some(c) = container {
            links.insert(s.id, c.id);
        }
    }
    let mut children: HashMap<u64, Vec<(f64, f64)>> = HashMap::new();
    for s in &spans {
        if let Some(p) = s.parent.filter(|p| by_id.contains_key(p)) {
            children.entry(p).or_default().push((s.start_us, s.end_us));
        }
    }
    let self_us = spans
        .iter()
        .map(|s| {
            let covered = children
                .get(&s.id)
                .map_or(0.0, |c| union_len(c, s.start_us, s.end_us));
            (s.id, s.dur_us() - covered)
        })
        .collect();
    Analysis {
        spans,
        links,
        self_us,
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_len(intervals: &[(f64, f64)], lo: f64, hi: f64) -> f64 {
    let mut iv: Vec<(f64, f64)> = intervals
        .iter()
        .map(|(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

/// Slack for comparing timestamps taken by different clock reads.
const EPS_US: f64 = 1.0;

impl Analysis {
    /// Spans that stick out of their parent or linked container, and
    /// negative self times.
    pub fn nesting_errors(&self) -> Vec<String> {
        let by_id: HashMap<u64, &Span> = self.spans.iter().map(|s| (s.id, s)).collect();
        let mut errors = Vec::new();
        for s in &self.spans {
            let outer = s.parent.or_else(|| self.links.get(&s.id).copied());
            if let Some(p) = outer.and_then(|p| by_id.get(&p)) {
                if s.start_us + EPS_US < p.start_us || s.end_us > p.end_us + EPS_US {
                    errors.push(format!(
                        "{} #{} [{:.0}, {:.0}] outside {} #{} [{:.0}, {:.0}]",
                        s.name, s.id, s.start_us, s.end_us, p.name, p.id, p.start_us, p.end_us
                    ));
                }
            }
            if self.self_us[&s.id] < -EPS_US {
                errors.push(format!("{} #{} has negative self time", s.name, s.id));
            }
        }
        errors
    }

    /// Ids of `root` and every span below it by `parent` (links excluded:
    /// linked spans run on program threads beside the request, not in
    /// the benchmark's own threads).
    pub fn subtree(&self, root: u64) -> Vec<u64> {
        let mut kids: HashMap<u64, Vec<u64>> = HashMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                kids.entry(p).or_default().push(s.id);
            }
        }
        let mut out = vec![root];
        let mut i = 0;
        while i < out.len() {
            if let Some(k) = kids.get(&out[i]) {
                out.extend(k);
            }
            i += 1;
        }
        out
    }

    /// Writes the spans as a Chrome `trace_event` document, with `extra`
    /// members (already-rendered JSON) appended at the top level.
    pub fn chrome_json(&self, extra: &[(&str, String)]) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let mut args = JsonObject::new()
                    .u64("id", s.id)
                    .str("req", &s.req)
                    .f64("self_us", self.self_us[&s.id]);
                if let Some(p) = s.parent {
                    args = args.u64("parent", p);
                }
                if let Some(l) = self.links.get(&s.id) {
                    args = args.u64("link", *l);
                }
                JsonObject::new()
                    .str("name", s.name)
                    .str("cat", s.name.split('.').next().unwrap_or(s.name))
                    .str("ph", "X")
                    .f64("ts", s.start_us)
                    .f64("dur", s.dur_us())
                    .u64("pid", 1)
                    .u64("tid", s.tid)
                    .raw("args", &args.finish())
                    .finish()
            })
            .collect();
        let mut doc = JsonObject::new()
            .raw("traceEvents", &json::array(&events))
            .str("displayTimeUnit", "ms");
        for (k, v) in extra {
            doc = doc.raw(k, v);
        }
        doc.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(
            union_len(&[(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)], 0.0, 10.0),
            4.0
        );
        assert_eq!(union_len(&[(-5.0, 2.0), (8.0, 20.0)], 0.0, 10.0), 4.0);
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let mk = |id, parent, s, e| Span {
            id,
            parent,
            name: "t",
            req: String::new(),
            tid: 1,
            start_us: s,
            end_us: e,
        };
        let a = analyze(vec![
            mk(2, Some(1), 1.0, 4.0),
            mk(3, Some(1), 3.0, 6.0),
            mk(1, None, 0.0, 10.0),
        ]);
        assert_eq!(a.self_us[&1], 5.0);
        assert!(a.nesting_errors().is_empty());
        assert_eq!(a.subtree(1).len(), 3);
    }
}
