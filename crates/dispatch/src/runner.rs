//! The shard runner: executes shards of a campaign plan against their
//! journals, resuming past already-journaled work.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Mutex;

use fades_core::{Campaign, CampaignPlan, CampaignStats, CoreError, ExperimentVerdict};
use fades_telemetry::Recorder;

use crate::cancel::CancelToken;
use crate::error::DispatchError;
use crate::journal::{Journal, JournalHeader, JournalRecord};

/// Tunables for [`run_shard`] and [`run_shards`].
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
    /// isolated path — this changes host wall-clock only. On by
    /// default.
    pub batch: bool,
    /// Cooperative cancellation. When set, the runner executes the
    /// pending experiments in chunks of up to
    /// [`WIDEST_WORD_COHORT`](fades_core::WIDEST_WORD_COHORT) (1022) per
    /// worker thread and checks the token between
    /// chunks: on cancellation the in-flight chunk retires (and is
    /// journaled) and the run returns early with
    /// [`ShardOutcome::cancelled`] set, leaving valid partial journals
    /// that a later run resumes from. Cancellation latency is therefore
    /// up to one such chunk. `None` (the default) executes every pending
    /// experiment in one dispatch.
    pub cancel: Option<CancelToken>,
}

impl Default for ShardOptions {
    fn default() -> Self {
        ShardOptions {
            load: String::new(),
            retries: 1,
            with_recorder: false,
            batch: true,
            cancel: None,
        }
    }
}

/// What one [`run_shard`] call did (or [`run_shards`] did for one of its
/// shards).
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// The journal's header (as written or validated).
    pub header: JournalHeader,
    /// Experiments of this shard executed by *this* call.
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
/// `journal_path`: [`run_shards`] of that one shard.
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
/// surfaced as [`CoreError::ShardGeometry`] before any journal is
/// touched), journal I/O or header mismatches, or infrastructure errors
/// from the campaign executor (per-experiment faults are quarantined
/// instead).
pub fn run_shard(
    campaign: &Campaign,
    plan: &CampaignPlan,
    shard: u32,
    count: u32,
    journal_path: &Path,
    opts: &ShardOptions,
) -> Result<ShardOutcome, DispatchError> {
    let mut outcomes = run_shards(campaign, plan, &[(shard, journal_path)], count, opts)?;
    Ok(outcomes.swap_remove(0))
}

/// Executes several shards of `count` of `plan` in one pass: every
/// `(shard, journal)` pair is run (or resumed) exactly as [`run_shard`]
/// would run it, but the pending experiments of all of them share one
/// executor dispatch per cancel chunk, so a job split into small shards
/// still fills the lane word as one campaign of their union would.
///
/// Every journal is checked before any work starts: geometry first, then
/// the header of each journal that already exists. A bad geometry or a
/// header mismatch on any shard fails the call before a journal is
/// created or a record appended. Each verdict is journaled to the journal
/// of shard `index % count` — the shard [`CampaignPlan::try_shard`]
/// assigns it to — so the journals are the ones separate [`run_shard`]
/// calls would have written, up to record order. Each shard then gets its
/// own epilogue: stats folded from its own journal, and a
/// `shard_complete` marker once it settles every experiment.
///
/// An open journal holds a file descriptor, so the shards run in groups
/// of at most [`MAX_OPEN_JOURNALS`], one pass per group, in the order
/// given; a job of thousands of shards stays clear of the process's
/// open-file limit.
///
/// Returns one [`ShardOutcome`] per pair, in the order given. A
/// cancellation stops the pass it interrupts and every later one, and
/// marks the outcomes of the shards they serve
/// [`cancelled`](ShardOutcome::cancelled); a group not yet run by then
/// gets its journals created and nothing executed.
///
/// # Errors
///
/// As [`run_shard`]; a shard listed twice is a
/// [`DispatchError::Mismatch`], raised before any journal is touched.
pub fn run_shards<P: AsRef<Path>>(
    campaign: &Campaign,
    plan: &CampaignPlan,
    shards: &[(u32, P)],
    count: u32,
    opts: &ShardOptions,
) -> Result<Vec<ShardOutcome>, DispatchError> {
    // Pre-campaign gate: runs before any journal I/O so a rejected
    // shard leaves nothing on disk to resume from. The campaign lints
    // its design once; every later shard reads the memoised findings.
    gate_on(campaign.lint())?;

    // Validate every shard before touching any journal, so one bad shard
    // cannot leave the others half-started.
    let mut seen = BTreeSet::new();
    let mut slots = Vec::with_capacity(shards.len());
    for (shard, path) in shards {
        let (shard, path) = (*shard, path.as_ref());
        if count == 0 || shard >= count {
            return Err(CoreError::ShardGeometry {
                index: shard,
                count,
            }
            .into());
        }
        if !seen.insert(shard) {
            return Err(DispatchError::Mismatch(format!(
                "shard {shard} of {count} listed twice"
            )));
        }
        let header = JournalHeader {
            campaign: plan.target.clone(),
            load: opts.load.clone(),
            n_total: plan.n_total as u64,
            seed: plan.seed,
            shard,
            of: count,
            run_cycles: campaign.run_cycles(),
        };
        let settled = if path.exists() {
            let replay = Journal::load(path)?;
            header.ensure_matches(&replay.header)?;
            Some(replay.settled_indices())
        } else {
            None
        };
        slots.push(ShardSlot {
            path,
            header,
            settled,
        });
    }

    let mut outcomes = Vec::with_capacity(slots.len());
    for group in slots.chunks(MAX_OPEN_JOURNALS) {
        outcomes.extend(run_group(campaign, plan, group, count, opts)?);
    }
    Ok(outcomes)
}

/// Journals one [`run_shards`] call holds open at once, and so the most
/// shards one of its executor passes serves: well below the common
/// open-file limit of 1024.
pub const MAX_OPEN_JOURNALS: usize = 256;

/// One validated shard of a [`run_shards`] call.
struct ShardSlot<'a> {
    path: &'a Path,
    header: JournalHeader,
    /// The indices its journal already settles, if the journal exists.
    settled: Option<BTreeSet<u64>>,
}

/// Runs one group of validated shards through one executor pass (per
/// cancel chunk), then folds each shard's epilogue from its journal.
fn run_group(
    campaign: &Campaign,
    plan: &CampaignPlan,
    group: &[ShardSlot<'_>],
    count: u32,
    opts: &ShardOptions,
) -> Result<Vec<ShardOutcome>, DispatchError> {
    let slot_of: BTreeMap<u32, usize> = group
        .iter()
        .enumerate()
        .map(|(slot, s)| (s.header.shard, slot))
        .collect();
    let shard_of = |index: u64| (index % u64::from(count)) as u32;

    // The union of the group's pending experiments, in plan order.
    let mut sizes = vec![0u64; group.len()];
    let mut skipped = vec![0u64; group.len()];
    let mut pending = plan_header(plan);
    for e in &plan.experiments {
        let Some(&slot) = slot_of.get(&shard_of(e.index)) else {
            continue;
        };
        sizes[slot] += 1;
        if group[slot]
            .settled
            .as_ref()
            .is_some_and(|done| done.contains(&e.index))
        {
            skipped[slot] += 1;
        } else {
            pending.experiments.push(e.clone());
        }
    }
    fades_telemetry::dispatch::RESUME_SKIPPED.add(skipped.iter().sum());

    let journals = group
        .iter()
        .map(|s| {
            if s.settled.is_some() {
                Journal::append_to(s.path)
            } else {
                Journal::create(s.path, &s.header)
            }
            .map(Mutex::new)
        })
        .collect::<Result<Vec<_>, _>>()?;

    // The observer runs on worker threads; the journals (and the first
    // append error, which execute_isolated cannot surface) live behind
    // mutexes until the single-threaded epilogue below.
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
        let append = journals[slot_of[&shard_of(verdict.index())]]
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
        let name = match group {
            [only] => format!("{} [shard {}/{count}]", plan.target, only.header.shard),
            _ => format!("{} [{} shards of {count}]", plan.target, group.len()),
        };
        Recorder::new(name, pending.len(), threads)
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

    // Without a cancel token the whole union is one dispatch. With one,
    // bounded chunks keep cancellation latency to a couple of the widest
    // lane words per worker, not the rest of the run. Chunk boundaries
    // do not affect results: every experiment is journaled individually
    // and merges fold in global-index order regardless of execution
    // order.
    let chunk_len = match opts.cancel {
        None => pending.len(),
        Some(_) => campaign.config().threads.max(1) * fades_core::WIDEST_WORD_COHORT,
    };
    let mut dispatched = 0;
    let mut cancelled = false;
    while dispatched < pending.len() {
        if opts.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            cancelled = true;
            break;
        }
        let end = (dispatched + chunk_len).min(pending.len());
        if dispatched == 0 && end == pending.len() {
            dispatch(&pending)?;
        } else {
            dispatch(&CampaignPlan {
                experiments: pending.experiments[dispatched..end].to_vec(),
                ..plan_header(&pending)
            })?;
        }
        dispatched = end;
    }
    let mut executed = vec![0u64; group.len()];
    for e in &pending.experiments[..dispatched] {
        executed[slot_of[&shard_of(e.index)]] += 1;
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

    let mut outcomes = Vec::with_capacity(group.len());
    for (slot, (s, journal)) in group.iter().zip(journals).enumerate() {
        // Fold this shard's final state from the journal itself — the
        // same bytes a merge will read — rather than from in-memory
        // verdicts, so resume and fresh runs take one code path.
        let replay = Journal::load(s.path)?;
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
        if !replay.shard_complete && completed + quarantined.len() as u64 == sizes[slot] {
            journal
                .into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .append(&JournalRecord::ShardComplete {
                    completed,
                    quarantined: quarantined.len() as u64,
                })?;
        }

        outcomes.push(ShardOutcome {
            header: s.header.clone(),
            executed: executed[slot],
            skipped: skipped[slot],
            completed,
            quarantined,
            stats,
            cancelled,
        });
    }
    Ok(outcomes)
}

/// Everything of `plan` but its experiments.
fn plan_header(plan: &CampaignPlan) -> CampaignPlan {
    CampaignPlan {
        target: plan.target.clone(),
        sub_cycle: plan.sub_cycle,
        seed: plan.seed,
        n_total: plan.n_total,
        experiments: Vec::new(),
    }
}
