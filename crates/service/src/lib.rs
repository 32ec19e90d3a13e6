//! A durable multi-campaign job server over sharded dispatch.
//!
//! The paper drives FADES one campaign at a time from a host PC; the
//! production-scale version of that workflow is a *service*: clients
//! submit campaigns over HTTP, a scheduler runs them with bounded
//! concurrency, and every accepted job survives process death. This
//! crate is that service, std-only like the rest of the workspace, and
//! deliberately thin over machinery that already exists:
//!
//! * **Durability** is the [`JobStore`]: one directory per job holding
//!   `spec.json` (atomic write) plus the per-shard dispatch journals.
//!   The directory *is* the database — [`JobStore::scan`] rebuilds all
//!   state from disk, so a restart re-queues every incomplete job and
//!   `fades_dispatch::run_shard` resumes it from its journals, skipping
//!   settled experiments.
//! * **Scheduling** is the [`Service`]: FIFO admission with a
//!   configurable cap on concurrently running jobs, a worker pool whose
//!   unit of work is one *shard* (so one big job fans out across
//!   workers, and several small jobs interleave), and cooperative
//!   cancellation via [`fades_dispatch::CancelToken`].
//! * **Transport** is [`api::start_http`]: the hardened mini HTTP
//!   listener from `fades-telemetry`, serving the campaign routes next
//!   to the classic `/metrics` and `/status` endpoints. Queue depth,
//!   running jobs and completed jobs are registered as gauges, so one
//!   Prometheus scrape covers the whole service.
//!
//! The execution engine itself stays behind the [`CampaignBackend`]
//! trait: `fades-experiments` implements it over the real SoC campaign
//! (keeping the netlist/PNR dependency out of this crate), and tests
//! implement lightweight mocks.
//!
//! Merged results are bit-identical to a monolithic
//! [`Campaign::run`](fades_core::Campaign::run) — including
//! `emulation_seconds` — because shard journals record exact f64 bit
//! patterns and merges fold them in global plan order. Kills, restarts,
//! cancellation and shard fan-out change *when* work happens, never the
//! answer.

#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::missing_panics_doc)
)]

pub mod api;
mod service;
mod spec;
mod store;

pub use service::{CampaignBackend, JobView, Service, ServiceConfig, ShardRun, SubmitError};
pub use spec::{JobSpec, JobState};
pub use store::{now_ms, shard_journal_name, JobStore, ScannedJob};
