//! Sharded, resumable, crash-tolerant campaign execution.
//!
//! The paper's value is campaign *throughput* — thousands of faults per
//! fault model, classified Failure / Latent / Silent. At that scale a
//! campaign is long-lived work that must survive its environment: a
//! single panicking experiment must not abort 2999 good ones, a killed
//! process must not forfeit hours of finished work, and a fault list
//! must be splittable across processes (or machines) without changing
//! the answer. This crate is that robustness layer, built on the
//! plan/execute split of [`fades_core::Campaign`]:
//!
//! * **Sharding** — [`CampaignPlan::shard`](fades_core::CampaignPlan::shard)
//!   partitions the deterministically-sampled fault list by global index
//!   modulo the shard count, so the union of any `N` shards is provably
//!   the monolithic fault set and every shard derives the same
//!   per-experiment seeds a single process would.
//! * **Journaling** — [`run_shard`] appends one JSONL line per finished
//!   experiment (atomic single-write appends) to a [`journal`]; after a
//!   crash or kill, re-running the same command resumes, skipping every
//!   journaled experiment. [`run_shards`] runs several shards of one
//!   plan in one executor pass, each verdict journaled to its own
//!   shard's journal.
//! * **Quarantine** — experiments run under `catch_unwind`; a panicking
//!   or erroring experiment is retried on a pristine device and, if it
//!   keeps failing, recorded as `quarantined` in the journal while the
//!   rest of the campaign completes.
//! * **Merging** — [`merge()`] folds shard journals back into one
//!   [`CampaignStats`](fades_core::CampaignStats), bit-identical
//!   (including `emulation_seconds`) to what the monolithic run would
//!   have produced, because per-experiment modelled seconds round-trip
//!   through the journal as exact f64 bit patterns and are re-summed in
//!   global plan order.
//! * **Status** — [`campaign_status`] reads any subset of a campaign's
//!   shard journals (tolerating torn tails from live or killed writers)
//!   and derives per-shard and merged progress, throughput, retries,
//!   quarantines and an ETA from the `at_ms` stamps journal lines carry.
//!
//! The experiments CLI exposes this as `fades-experiments shard I/N
//! <journal>`, `resume <journal>`, `merge <journal>...` and
//! `status <journal>... [--watch]`.

#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::missing_panics_doc)
)]

mod cancel;
mod discover;
mod error;
pub mod journal;
mod merge;
mod runner;
mod status;

pub use cancel::CancelToken;
pub use discover::{discover_journals, expand_journal_args};
pub use error::DispatchError;
pub use journal::{Journal, JournalHeader, JournalRecord, JournalReplay};
pub use merge::{merge, merge_replays, MergeReport};
pub use runner::{lint_gate, run_shard, run_shards, ShardOptions, ShardOutcome, MAX_OPEN_JOURNALS};
pub use status::{
    campaign_status, expected_for_shard, latest_activity_ms, ShardStatus, ShardStatusReport,
};
