//! The scheduler and worker pool.
//!
//! One `Service` owns the in-memory view of the durable queue: a FIFO
//! of accepted jobs, a concurrency cap on how many jobs run at once,
//! and a pool of worker threads that execute individual *shards* (the
//! schedulable unit — one journal-backed `run_shard` call). Admission
//! happens inside the worker loop under the state lock: whenever a
//! worker looks for work and fewer than `max_jobs` jobs are running,
//! the oldest queued job is admitted and its shard tasks appended to
//! the task queue. Jobs are admitted strictly in sequence order;
//! shards of at most `max_jobs` jobs interleave across the pool.
//!
//! Invariants the restart-recovery story rests on:
//!
//! * a job exists on disk (spec.json) before it is ever visible to a
//!   worker — there is no in-memory-only accepted work;
//! * workers never delete journal data — every state transition adds
//!   a journal line or a marker file, atomically;
//! * graceful shutdown fires the cancel tokens of running jobs but
//!   writes **no** markers: in-flight chunks retire and journal, and
//!   the next [`Service::start`] re-queues those jobs, resuming from
//!   the journals;
//! * nothing runs without passing [`CampaignBackend::validate`]: at
//!   submit time, and again for every spec a restart would re-queue.

use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use fades_dispatch::CancelToken;
use fades_telemetry::{register_gauge, Gauge};

use crate::spec::{JobSpec, JobState};
use crate::store::{now_ms, JobStore, ScannedJob};

/// Depth of the not-yet-admitted job queue.
static QUEUE_DEPTH: Gauge = Gauge::new();
/// Jobs currently admitted to the worker pool.
static JOBS_RUNNING: Gauge = Gauge::new();
/// Jobs that reached `completed` since this process started (terminal
/// states found during the startup rescan count too).
static JOBS_COMPLETED: Gauge = Gauge::new();

/// What a backend's shard run reported back.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardRun {
    /// The run stopped early on its cancel token (journal is a valid
    /// partial journal).
    pub cancelled: bool,
}

/// Executes the shards of a job. Implemented by `fades-experiments`
/// over the real SoC campaign; tests use lightweight mocks.
///
/// Implementations must be resumable: `run_shard` against an existing
/// journal must skip journaled work (which `fades_dispatch::run_shard`
/// does natively) and must honor `cancel` promptly.
pub trait CampaignBackend: Send + Sync + 'static {
    /// Rejects specs the backend cannot execute (unknown load, zero
    /// faults, absurd geometry) *before* they are queued, and again
    /// before a restart re-queues them.
    ///
    /// # Errors
    ///
    /// A human-readable rejection reason.
    fn validate(&self, spec: &JobSpec) -> Result<(), String>;

    /// Runs (or resumes) shard `shard` of the job into `journal`.
    ///
    /// A call may also settle the job's other shards, into their
    /// service-named journals next to `journal` (see
    /// [`shard_journal_name`](crate::shard_journal_name)), and the calls
    /// for those shards may then return at once. The service queues a
    /// call for every shard of an admitted job, shard 0 included, on
    /// every admission, so a rule naming one shard's call as the one
    /// that settles the rest always finds it called. A call that
    /// settles other shards must not return before they are settled (or
    /// stopped on `cancel`), and its result then speaks for them too:
    /// the service finalizes a job only once every shard call has
    /// returned, so the journals are quiescent by then, and a
    /// `cancelled` or `Err` result is the job's.
    ///
    /// # Errors
    ///
    /// Infrastructure errors only; per-experiment faults must be
    /// quarantined inside the journal instead.
    fn run_shard(
        &self,
        spec: &JobSpec,
        shard: u32,
        journal: &Path,
        cancel: &CancelToken,
    ) -> Result<ShardRun, String>;
}

/// Service tunables.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Queue root directory (created if absent).
    pub queue_dir: PathBuf,
    /// Worker threads executing shard tasks.
    pub workers: usize,
    /// Maximum jobs admitted concurrently (FIFO admission).
    pub max_jobs: usize,
}

/// A job as reported by [`Service::list`] / [`Service::job`].
#[derive(Debug, Clone)]
pub struct JobView {
    /// The persisted spec.
    pub spec: JobSpec,
    /// Current lifecycle state.
    pub state: JobState,
    /// Failure message for `Failed` jobs.
    pub error: Option<String>,
}

struct JobEntry {
    spec: JobSpec,
    state: JobState,
    cancel: CancelToken,
    /// Shard tasks not yet finished (only meaningful while Running).
    shards_left: u32,
    /// A client requested cancellation.
    user_cancelled: bool,
    /// Some shard stopped early on its cancel token.
    interrupted: bool,
    error: Option<String>,
}

struct State {
    jobs: BTreeMap<u64, JobEntry>,
    /// Sequence numbers of accepted, not-yet-admitted jobs, FIFO.
    queue: VecDeque<u64>,
    /// Shard tasks of admitted jobs, `(seq, shard)`.
    tasks: VecDeque<(u64, u32)>,
    running_jobs: usize,
    accepting: bool,
    /// Workers exit once set (after abandoning queued tasks — those
    /// jobs resume from their journals on the next start).
    stopping: bool,
    /// A client asked the process to shut down (`POST /shutdown`).
    shutdown_requested: bool,
    completed_total: u64,
    /// The sequence number the next submit tries first.
    next_seq: u64,
}

struct Inner {
    store: JobStore,
    backend: Box<dyn CampaignBackend>,
    max_jobs: usize,
    state: Mutex<State>,
    /// Workers wait here for tasks; external waiters for job
    /// transitions and shutdown requests.
    signal: Condvar,
}

/// The running job server (scheduler + worker pool). HTTP is layered
/// on top by [`api::start_http`](crate::api::start_http).
pub struct Service {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

/// Why a submission was refused.
#[derive(Debug)]
pub enum SubmitError {
    /// The service is shutting down and admits no new work.
    NotAccepting,
    /// The backend rejected the spec.
    Invalid(String),
    /// Persisting the spec failed.
    Io(io::Error),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::NotAccepting => write!(f, "service is shutting down"),
            SubmitError::Invalid(msg) => write!(f, "invalid job: {msg}"),
            SubmitError::Io(e) => write!(f, "could not persist job: {e}"),
        }
    }
}

impl std::error::Error for SubmitError {}

impl Service {
    /// Opens the queue directory, rescans it (re-queueing every
    /// incomplete job for resume, after re-validating its spec against
    /// the backend; a spec that fails is marked `failed` with an `error`
    /// marker instead of running), registers the service gauges and
    /// starts the worker pool.
    ///
    /// # Errors
    ///
    /// Queue directory I/O failures.
    pub fn start(
        config: &ServiceConfig,
        backend: Box<dyn CampaignBackend>,
    ) -> io::Result<Arc<Service>> {
        register_gauge("fades_service_queue_depth", &QUEUE_DEPTH);
        register_gauge("fades_service_jobs_running", &JOBS_RUNNING);
        register_gauge("fades_service_jobs_completed", &JOBS_COMPLETED);

        let store = JobStore::open(&config.queue_dir)?;
        let mut state = State {
            jobs: BTreeMap::new(),
            queue: VecDeque::new(),
            tasks: VecDeque::new(),
            running_jobs: 0,
            accepting: true,
            stopping: false,
            shutdown_requested: false,
            completed_total: 0,
            next_seq: store.next_seq()?,
        };
        for ScannedJob {
            spec,
            state: mut js,
            mut error,
        } in store.scan()?
        {
            let seq = spec.seq();
            // A spec on disk was validated when it was accepted, but the
            // directory is not trusted: an older build, a hand-edited
            // file or a since-tightened bound must not run unchecked.
            // Re-validate what would run and fail the rest durably.
            if js == JobState::Queued {
                if let Err(msg) = backend.validate(&spec) {
                    if let Err(e) = store.mark_failed(&spec.id, &msg) {
                        eprintln!("warning: could not write error marker for {}: {e}", spec.id);
                    }
                    js = JobState::Failed;
                    error = Some(msg);
                }
            }
            if js == JobState::Queued {
                state.queue.push_back(seq);
            }
            if js == JobState::Completed {
                state.completed_total += 1;
            }
            state.jobs.insert(
                seq,
                JobEntry {
                    spec,
                    state: js,
                    cancel: CancelToken::new(),
                    shards_left: 0,
                    user_cancelled: false,
                    interrupted: false,
                    error,
                },
            );
        }
        update_gauges(&state);

        let inner = Arc::new(Inner {
            store,
            backend,
            max_jobs: config.max_jobs.max(1),
            state: Mutex::new(state),
            signal: Condvar::new(),
        });
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("fades-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
            })
            .collect::<io::Result<Vec<_>>>()?;

        Ok(Arc::new(Service {
            inner,
            workers: Mutex::new(workers),
        }))
    }

    /// Accepts a new job: validates it against the backend, persists
    /// `spec.json`, and enqueues it. Returns the complete spec (with
    /// the allocated id).
    ///
    /// # Errors
    ///
    /// [`SubmitError`] — shutdown in progress, backend rejection, or
    /// persistence failure. Nothing is enqueued on error.
    pub fn submit(
        &self,
        label: Option<&str>,
        load: &str,
        faults: u64,
        seed: u64,
        shards: u32,
    ) -> Result<JobSpec, SubmitError> {
        let mut st = self
            .inner
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if !st.accepting {
            return Err(SubmitError::NotAccepting);
        }
        let mut spec = JobSpec {
            id: JobStore::id_for_seq(st.next_seq),
            label: label.unwrap_or(load).to_string(),
            load: load.to_string(),
            faults,
            seed,
            shards: shards.max(1),
            submitted_at_ms: now_ms(),
        };
        self.inner
            .backend
            .validate(&spec)
            .map_err(SubmitError::Invalid)?;
        // Allocate under the lock so concurrent submits get distinct
        // seqs. `persist` claims the job directory, so a number whose
        // directory an operator dropped in by hand is skipped, never
        // reused.
        let seq = loop {
            let seq = st.next_seq;
            st.next_seq += 1;
            spec.id = JobStore::id_for_seq(seq);
            match self.inner.store.persist(&spec) {
                Ok(()) => break seq,
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {}
                Err(e) => return Err(SubmitError::Io(e)),
            }
        };
        st.jobs.insert(
            seq,
            JobEntry {
                spec: spec.clone(),
                state: JobState::Queued,
                cancel: CancelToken::new(),
                shards_left: 0,
                user_cancelled: false,
                interrupted: false,
                error: None,
            },
        );
        st.queue.push_back(seq);
        update_gauges(&st);
        self.inner.signal.notify_all();
        Ok(spec)
    }

    /// Every known job, in submission order.
    pub fn list(&self) -> Vec<JobView> {
        let st = self
            .inner
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        st.jobs.values().map(view).collect()
    }

    /// One job by id.
    pub fn job(&self, id: &str) -> Option<JobView> {
        let st = self
            .inner
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        st.jobs.values().find(|e| e.spec.id == id).map(view)
    }

    /// Cancels a job: dequeues it if still queued (marker written,
    /// terminal immediately), or fires its cancel token if running
    /// (terminal once its in-flight chunks retire).
    ///
    /// # Errors
    ///
    /// `None`-like message for unknown ids; a message for jobs already
    /// terminal.
    pub fn cancel(&self, id: &str) -> Result<JobState, String> {
        let mut st = self
            .inner
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let seq = st
            .jobs
            .iter()
            .find(|(_, e)| e.spec.id == id)
            .map(|(seq, _)| *seq)
            .ok_or_else(|| format!("no such job `{id}`"))?;
        let entry = st
            .jobs
            .get_mut(&seq)
            .unwrap_or_else(|| unreachable!("job entry exists"));
        match entry.state {
            JobState::Queued => {
                entry.state = JobState::Cancelled;
                entry.user_cancelled = true;
                self.inner
                    .store
                    .mark_cancelled(id)
                    .map_err(|e| e.to_string())?;
                st.queue.retain(|s| *s != seq);
                // Tasks of an admitted-then-re-queued job cannot exist
                // while state is Queued, but sweep defensively.
                st.tasks.retain(|(s, _)| *s != seq);
                update_gauges(&st);
                self.inner.signal.notify_all();
                Ok(JobState::Cancelled)
            }
            JobState::Running => {
                entry.user_cancelled = true;
                entry.cancel.cancel();
                // Un-run shard tasks would each still pay campaign
                // setup just to notice the token; drop them now. The
                // shards_left accounting still counts them down via
                // the drop below.
                let dropped = {
                    let before = st.tasks.len();
                    st.tasks.retain(|(s, _)| *s != seq);
                    (before - st.tasks.len()) as u32
                };
                let entry = st
                    .jobs
                    .get_mut(&seq)
                    .unwrap_or_else(|| unreachable!("job entry exists"));
                entry.shards_left -= dropped;
                entry.interrupted |= dropped > 0;
                if entry.shards_left == 0 {
                    finalize_job(&self.inner, &mut st, seq);
                }
                self.inner.signal.notify_all();
                Ok(JobState::Running)
            }
            terminal => Err(format!("job `{id}` is already {}", terminal.as_str())),
        }
    }

    /// The job's shard journals that exist on disk (for status /
    /// results endpoints).
    pub fn journals(&self, spec: &JobSpec) -> Vec<PathBuf> {
        self.inner.store.existing_journals(spec)
    }

    /// Stops admitting work (submits fail, queued jobs stay queued) and
    /// fires the cancel token of every running job *without* writing
    /// cancel markers: in-flight chunks retire and journal, and the
    /// next start resumes those jobs. Wakes [`wait_for_shutdown`].
    ///
    /// [`wait_for_shutdown`]: Service::wait_for_shutdown
    pub fn request_shutdown(&self) {
        let mut st = self
            .inner
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        st.accepting = false;
        st.stopping = true;
        st.shutdown_requested = true;
        st.tasks.clear();
        for entry in st.jobs.values_mut() {
            if entry.state == JobState::Running {
                entry.cancel.cancel();
            }
        }
        self.inner.signal.notify_all();
    }

    /// Blocks until [`request_shutdown`](Service::request_shutdown) is
    /// called (typically via `POST /shutdown`).
    pub fn wait_for_shutdown(&self) {
        let mut st = self
            .inner
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        while !st.shutdown_requested {
            st = self
                .inner
                .signal
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Stops the worker pool and joins every worker. In-flight shard
    /// chunks retire first (cooperative cancellation), so this returns
    /// only once all journals are quiescent.
    pub fn join(&self) {
        {
            let mut st = self
                .inner
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            st.accepting = false;
            st.stopping = true;
            for entry in st.jobs.values_mut() {
                if entry.state == JobState::Running {
                    entry.cancel.cancel();
                }
            }
            self.inner.signal.notify_all();
        }
        let workers = std::mem::take(
            &mut *self
                .workers
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        for w in workers {
            let _ = w.join();
        }
    }
}

fn view(entry: &JobEntry) -> JobView {
    JobView {
        spec: entry.spec.clone(),
        state: entry.state,
        error: entry.error.clone(),
    }
}

fn update_gauges(st: &State) {
    QUEUE_DEPTH.set(st.queue.len() as u64);
    JOBS_RUNNING.set(st.running_jobs as u64);
    JOBS_COMPLETED.set(st.completed_total);
}

/// Admits queued jobs FIFO while slots are free, materializing their
/// shard tasks. Caller holds the state lock.
fn admit(st: &mut State, max_jobs: usize) {
    while !st.stopping && st.running_jobs < max_jobs {
        let Some(seq) = st.queue.pop_front() else {
            break;
        };
        let entry = st
            .jobs
            .get_mut(&seq)
            .unwrap_or_else(|| unreachable!("queued job exists"));
        entry.state = JobState::Running;
        entry.shards_left = entry.spec.shards;
        entry.interrupted = false;
        st.running_jobs += 1;
        for shard in 0..entry.spec.shards {
            st.tasks.push_back((seq, shard));
        }
        update_gauges(st);
    }
}

fn worker_loop(inner: &Arc<Inner>) {
    loop {
        let (seq, shard, spec, cancel) = {
            let mut st = inner
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            loop {
                admit(&mut st, inner.max_jobs);
                if let Some((seq, shard)) = st.tasks.pop_front() {
                    let entry = &st.jobs[&seq];
                    break (seq, shard, entry.spec.clone(), entry.cancel.clone());
                }
                if st.stopping {
                    return;
                }
                st = inner
                    .signal
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };

        let journal = inner.store.journal_path(&spec.id, shard);
        let result = inner.backend.run_shard(&spec, shard, &journal, &cancel);

        let mut st = inner
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let entry = st
            .jobs
            .get_mut(&seq)
            .unwrap_or_else(|| unreachable!("running job exists"));
        entry.shards_left -= 1;
        match result {
            Ok(run) => entry.interrupted |= run.cancelled,
            Err(msg) => {
                if entry.error.is_none() {
                    entry.error = Some(msg);
                }
            }
        }
        if entry.shards_left == 0 {
            finalize_job(inner, &mut st, seq);
        }
        inner.signal.notify_all();
    }
}

/// Settles a job whose last shard task finished (or was dropped).
/// Caller holds the state lock.
fn finalize_job(inner: &Inner, st: &mut State, seq: u64) {
    let entry = st
        .jobs
        .get_mut(&seq)
        .unwrap_or_else(|| unreachable!("job exists"));
    let id = entry.spec.id.clone();
    if let Some(msg) = entry.error.clone() {
        entry.state = JobState::Failed;
        if let Err(e) = inner.store.mark_failed(&id, &msg) {
            eprintln!("warning: could not write error marker for {id}: {e}");
        }
    } else if entry.interrupted && entry.user_cancelled {
        entry.state = JobState::Cancelled;
        if let Err(e) = inner.store.mark_cancelled(&id) {
            eprintln!("warning: could not write cancel marker for {id}: {e}");
        }
    } else if entry.interrupted {
        // Shutdown interruption: no marker, back to the (in-memory)
        // queue state; the next process start re-queues it from disk.
        entry.state = JobState::Queued;
    } else {
        entry.state = JobState::Completed;
        st.completed_total += 1;
    }
    st.running_jobs -= 1;
    update_gauges(st);
}
