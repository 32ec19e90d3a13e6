//! The shard runner: executes one shard of a campaign plan against its
//! journal, resuming past already-journaled work.

use std::path::Path;
use std::sync::Mutex;

use fades_core::{Campaign, CampaignPlan, CampaignStats, ExperimentVerdict};
use fades_telemetry::Recorder;

use crate::cancel::CancelToken;
use crate::error::DispatchError;
use crate::journal::{Journal, JournalHeader, JournalRecord};

/// Tunables for [`run_shard`].
#[derive(Debug, Clone)]
pub struct ShardOptions {
    /// Fault-load descriptor recorded in the journal header (the CLI's
    /// named load, e.g. `"bitflip-ffs"`; resume validates it).
    pub load: String,
    /// Extra attempts after a panicking/erroring first attempt before an
    /// experiment is quarantined.
    pub retries: u32,
    /// Whether to feed the session [`Recorder`] (run log + aggregate)
    /// while executing.
    pub with_recorder: bool,
    /// Whether to run lane-expressible experiments on the bit-parallel
    /// lane engine (up to 511 per lane word) via
    /// [`Campaign::execute_batched_isolated`]. Outcomes, modelled
    /// seconds and journal contents are bit-identical to the scalar
    /// isolated path — this changes host wall-clock only. Defaults to
    /// [`fades_core::batch_default`] (the `FADES_NO_BATCH` escape
    /// hatch).
    pub batch: bool,
    /// Cooperative cancellation. When set, the runner executes the
    /// pending experiments in bounded chunks and checks the token
    /// between chunks: on cancellation the in-flight chunk retires (and
    /// is journaled) and the run returns early with
    /// [`ShardOutcome::cancelled`] set, leaving a valid partial journal
    /// that a later run resumes from. `None` (the default) executes the
    /// whole shard in one dispatch, exactly as before.
    pub cancel: Option<CancelToken>,
}

impl Default for ShardOptions {
    fn default() -> Self {
        ShardOptions {
            load: String::new(),
            retries: 1,
            with_recorder: false,
            batch: fades_core::batch_default(),
            cancel: None,
        }
    }
}

/// What one [`run_shard`] call did.
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// The journal's header (as written or validated).
    pub header: JournalHeader,
    /// Experiments executed by *this* call.
    pub executed: u64,
    /// Experiments skipped because the journal already settled them.
    pub skipped: u64,
    /// Total completed experiments in the journal after this call.
    pub completed: u64,
    /// Quarantined experiments, `(global index, error)`.
    pub quarantined: Vec<(u64, String)>,
    /// Outcome statistics over every completed experiment of this shard,
    /// folded in ascending global-index order.
    pub stats: CampaignStats,
    /// Whether the run stopped early because its
    /// [`CancelToken`](ShardOptions::cancel) fired. Everything journaled
    /// up to that point is durable; re-running the shard resumes the
    /// remainder.
    pub cancelled: bool,
}

/// The admission gate every shard run passes through: lints the placed
/// design and refuses to campaign against one with `Error`-severity
/// findings (the structurally-broken class — combinational cycles).
/// Warnings and inventory pass; the full diagnostic list is the
/// `fades-experiments analyze` subcommand's job.
///
/// Exposed so service backends can gate admission on the same rule set
/// without paying for a journal round-trip first.
///
/// # Errors
///
/// [`DispatchError::Lint`] carrying the error-severity diagnostics.
pub fn lint_gate(bitstream: &fades_fpga::Bitstream) -> Result<(), DispatchError> {
    gate_on(&fades_analysis::lint(bitstream))
}

/// [`lint_gate`]'s verdict over findings already computed.
fn gate_on(diagnostics: &[fades_analysis::Diagnostic]) -> Result<(), DispatchError> {
    if fades_analysis::worst(diagnostics) == Some(fades_analysis::Severity::Error) {
        return Err(DispatchError::Lint(
            diagnostics
                .iter()
                .filter(|d| d.severity == fades_analysis::Severity::Error)
                .cloned()
                .collect(),
        ));
    }
    Ok(())
}

/// Executes shard `shard` of `count` of `plan` against the journal at
/// `journal_path`.
///
/// If the journal already exists this is a **resume**: the header must
/// match the campaign (label, load, fault count, seed, shard geometry,
/// run length — anything else is a [`DispatchError::Mismatch`]), every
/// journaled experiment is skipped, and new work is appended. Each
/// finished experiment is journaled from the worker thread that ran it,
/// before that worker picks up its next experiment, so a kill at any
/// point forfeits at most the experiments currently in flight.
///
/// Panicking or erroring experiments are retried `opts.retries` times on
/// a pristine device and then quarantined — journaled and counted, never
/// fatal to the shard.
///
/// With `opts.batch` (the default), lane-expressible experiments run on
/// the bit-parallel lane engine under the same isolation contract: each
/// experiment is journaled the moment its lane retires, and a cohort
/// poisoned by one bad fault falls back to the scalar path where the
/// offender is retried and quarantined individually. Journal contents
/// and merged stats are bit-identical either way.
///
/// # Errors
///
/// A design with `Error`-severity lint diagnostics is rejected as
/// [`lint_gate`] rejects it, with [`DispatchError::Lint`], before any
/// journal is touched; the findings are [`Campaign::lint`]'s, computed
/// once per campaign. Other
/// failures: invalid shard geometry (`count == 0` or `shard >= count`,
/// surfaced as [`CoreError::ShardGeometry`](fades_core::CoreError)
/// before any journal is touched), journal I/O or header mismatches, or
/// infrastructure errors from the campaign executor (per-experiment
/// faults are quarantined instead).
pub fn run_shard(
    campaign: &Campaign,
    plan: &CampaignPlan,
    shard: u32,
    count: u32,
    journal_path: &Path,
    opts: &ShardOptions,
) -> Result<ShardOutcome, DispatchError> {
    // Pre-campaign gate: runs before any journal I/O so a rejected
    // shard leaves nothing on disk to resume from. The campaign lints
    // its design once; every later shard reads the memoised findings.
    gate_on(campaign.lint())?;

    let header = JournalHeader {
        campaign: plan.target.clone(),
        load: opts.load.clone(),
        n_total: plan.n_total as u64,
        seed: plan.seed,
        shard,
        of: count,
        run_cycles: campaign.run_cycles(),
    };

    let mut pending = plan.try_shard(shard, count)?;
    let shard_size = pending.len() as u64;
    let (journal, skipped) = if journal_path.exists() {
        let replay = Journal::load(journal_path)?;
        header.ensure_matches(&replay.header)?;
        let skipped = pending.retain_pending(&replay.settled_indices()) as u64;
        fades_telemetry::dispatch::RESUME_SKIPPED.add(skipped);
        (Journal::append_to(journal_path)?, skipped)
    } else {
        (Journal::create(journal_path, &header)?, 0)
    };

    // The observer runs on worker threads; the journal (and the first
    // append error, which execute_isolated cannot surface) live behind
    // mutexes until the single-threaded epilogue below.
    let journal = Mutex::new(journal);
    let append_error: Mutex<Option<DispatchError>> = Mutex::new(None);
    let observer = |verdict: &ExperimentVerdict| {
        let record = match verdict {
            ExperimentVerdict::Completed {
                index,
                modelled_seconds,
                attempts,
                result,
            } => JournalRecord::Completed {
                index: *index,
                outcome: result.outcome,
                modelled_seconds: *modelled_seconds,
                attempts: *attempts,
            },
            ExperimentVerdict::Quarantined {
                index,
                error,
                attempts,
            } => JournalRecord::Quarantined {
                index: *index,
                error: error.clone(),
                attempts: *attempts,
            },
        };
        let append = journal
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .append(&record);
        if let Err(e) = append {
            append_error
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .get_or_insert(e);
        }
    };

    let recorder = opts.with_recorder.then(|| {
        let threads = campaign.config().threads.max(1).min(pending.len().max(1));
        Recorder::new(
            format!("{} [shard {shard}/{count}]", plan.target),
            pending.len(),
            threads,
        )
    });
    let dispatch = |chunk: &CampaignPlan| -> Result<(), DispatchError> {
        if opts.batch {
            campaign.execute_batched_isolated(
                chunk,
                opts.retries,
                recorder.as_ref(),
                Some(&observer),
            )?;
        } else {
            campaign.execute_isolated(chunk, opts.retries, recorder.as_ref(), Some(&observer))?;
        }
        Ok(())
    };

    let mut executed = 0u64;
    let mut cancelled = false;
    match &opts.cancel {
        None => {
            dispatch(&pending)?;
            executed = pending.len() as u64;
        }
        Some(token) => {
            // Bounded chunks so cancellation latency is a few cohort
            // words per worker, not the rest of the shard. Chunk
            // boundaries do not affect results: every experiment is
            // journaled individually and merges fold in global-index
            // order regardless of execution order.
            let chunk_len = campaign.config().threads.max(1) * 126;
            let mut offset = 0;
            while offset < pending.experiments.len() {
                if token.is_cancelled() {
                    cancelled = true;
                    break;
                }
                let end = (offset + chunk_len).min(pending.experiments.len());
                let chunk = CampaignPlan {
                    target: pending.target.clone(),
                    sub_cycle: pending.sub_cycle,
                    seed: pending.seed,
                    n_total: pending.n_total,
                    experiments: pending.experiments[offset..end].to_vec(),
                };
                dispatch(&chunk)?;
                executed += (end - offset) as u64;
                offset = end;
            }
        }
    }

    if let Some(rec) = recorder {
        rec.finish();
    }
    if let Some(e) = append_error
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
    {
        return Err(e);
    }

    // Fold this shard's final state from the journal itself — the same
    // bytes a merge will read — rather than from in-memory verdicts, so
    // resume and fresh runs take one code path.
    let replay = Journal::load(journal_path)?;
    let mut stats = CampaignStats::default();
    let mut quarantined = Vec::new();
    for record in replay.completed.values() {
        if let JournalRecord::Completed {
            outcome,
            modelled_seconds,
            ..
        } = record
        {
            stats.accumulate(*outcome, *modelled_seconds);
        }
    }
    for (index, record) in &replay.quarantined {
        if let JournalRecord::Quarantined { error, .. } = record {
            quarantined.push((*index, error.clone()));
        }
    }

    let completed = replay.completed.len() as u64;
    if !replay.shard_complete && completed + quarantined.len() as u64 == shard_size {
        journal
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .append(&JournalRecord::ShardComplete {
                completed,
                quarantined: quarantined.len() as u64,
            })?;
    }

    Ok(ShardOutcome {
        header,
        executed,
        skipped,
        completed,
        quarantined,
        stats,
        cancelled,
    })
}
