//! The durable on-disk job queue.
//!
//! Layout, one directory per job under the queue root:
//!
//! ```text
//! queue/
//!   job-000001/
//!     spec.json        # the JobSpec, written atomically at submit
//!     shard-000.jsonl  # one dispatch journal per shard
//!     shard-001.jsonl
//!     cancelled        # marker: a client cancelled the job
//!     error            # marker: a shard hit an infrastructure error
//! job-000002/
//!   ...
//! ```
//!
//! Every fact the scheduler needs is derivable from this layout, so the
//! store *is* the database: a restarted service calls [`JobStore::scan`]
//! and knows exactly which jobs are done, which were cancelled, and
//! which must be re-queued and resumed from their journals. All
//! non-append writes go through `telemetry::atomic_write` (temp file +
//! rename), so a torn `spec.json` or marker can never exist.

use std::io;
use std::path::{Path, PathBuf};

use fades_dispatch::Journal;
use fades_telemetry::atomic_write;

use crate::spec::{JobSpec, JobState};

/// The file name of shard `shard`'s journal inside its job directory
/// (`shard-003.jsonl`). A backend that settles a job's sibling shards
/// finds their journals next to the one it was handed under this name.
pub fn shard_journal_name(shard: u32) -> String {
    format!("shard-{shard:03}.jsonl")
}

/// Handle on the queue root directory.
#[derive(Debug)]
pub struct JobStore {
    root: PathBuf,
}

/// One job as reconstructed from disk by [`JobStore::scan`].
#[derive(Debug)]
pub struct ScannedJob {
    /// The persisted spec.
    pub spec: JobSpec,
    /// State derived from markers and journals (`Queued` for anything
    /// incomplete — including jobs that were mid-run when the previous
    /// process died).
    pub state: JobState,
    /// The `error` marker's message, when present.
    pub error: Option<String>,
}

impl JobStore {
    /// Opens (creating if needed) the queue root.
    ///
    /// # Errors
    ///
    /// Directory creation failures.
    pub fn open(root: &Path) -> io::Result<JobStore> {
        std::fs::create_dir_all(root)?;
        Ok(JobStore {
            root: root.to_path_buf(),
        })
    }

    /// The queue root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The job id for a sequence number (`job-000007`).
    pub fn id_for_seq(seq: u64) -> String {
        format!("job-{seq:06}")
    }

    /// The job's directory.
    pub fn job_dir(&self, id: &str) -> PathBuf {
        self.root.join(id)
    }

    /// The journal path of one shard of a job.
    pub fn journal_path(&self, id: &str, shard: u32) -> PathBuf {
        self.job_dir(id).join(shard_journal_name(shard))
    }

    /// The shard journals of `spec` that exist on disk right now (in
    /// shard order). Empty before any shard has started.
    pub fn existing_journals(&self, spec: &JobSpec) -> Vec<PathBuf> {
        (0..spec.shards)
            .map(|s| self.journal_path(&spec.id, s))
            .filter(|p| p.exists())
            .collect()
    }

    /// Claims the job directory and atomically persists `spec.json`.
    ///
    /// # Errors
    ///
    /// I/O failures; [`io::ErrorKind::AlreadyExists`] when a directory
    /// of that name exists, whoever made it (ids are allocated once).
    pub fn persist(&self, spec: &JobSpec) -> io::Result<()> {
        let dir = self.job_dir(&spec.id);
        std::fs::create_dir(&dir)?;
        atomic_write(&dir.join("spec.json"), &format!("{}\n", spec.to_json()))
    }

    /// Writes the `cancelled` marker (idempotent).
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn mark_cancelled(&self, id: &str) -> io::Result<()> {
        atomic_write(&self.job_dir(id).join("cancelled"), "cancelled\n")
    }

    /// Writes the `error` marker with the failure message (first writer
    /// wins; later calls overwrite, which is fine — any one failure
    /// explains the state).
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn mark_failed(&self, id: &str, message: &str) -> io::Result<()> {
        atomic_write(&self.job_dir(id).join("error"), &format!("{message}\n"))
    }

    /// Derives one job's state from its directory contents.
    fn derive_state(&self, spec: &JobSpec) -> (JobState, Option<String>) {
        let dir = self.job_dir(&spec.id);
        if dir.join("cancelled").exists() {
            return (JobState::Cancelled, None);
        }
        if let Ok(msg) = std::fs::read_to_string(dir.join("error")) {
            return (JobState::Failed, Some(msg.trim().to_string()));
        }
        let all_complete = (0..spec.shards).all(|s| {
            let path = self.journal_path(&spec.id, s);
            path.exists() && Journal::load(&path).is_ok_and(|replay| replay.shard_complete)
        });
        if all_complete {
            (JobState::Completed, None)
        } else {
            (JobState::Queued, None)
        }
    }

    /// Rebuilds every job from disk, sorted by sequence number.
    /// Unparseable job directories are skipped with a warning on stderr
    /// rather than wedging the whole service on one corrupt entry.
    ///
    /// # Errors
    ///
    /// I/O failures reading the queue root itself.
    pub fn scan(&self) -> io::Result<Vec<ScannedJob>> {
        let mut jobs = Vec::new();
        for entry in std::fs::read_dir(&self.root)? {
            let dir = entry?.path();
            let spec_path = dir.join("spec.json");
            if !dir.is_dir() || !spec_path.exists() {
                continue;
            }
            let spec = match std::fs::read_to_string(&spec_path)
                .map_err(|e| e.to_string())
                .and_then(|text| JobSpec::from_json(&text))
            {
                Ok(spec) => spec,
                Err(e) => {
                    eprintln!("warning: skipping {}: {e}", spec_path.display());
                    continue;
                }
            };
            let (state, error) = self.derive_state(&spec);
            jobs.push(ScannedJob { spec, state, error });
        }
        jobs.sort_by_key(|j| j.spec.seq());
        Ok(jobs)
    }

    /// The next free sequence number (max on disk + 1; 1 when empty).
    /// Lists the whole queue directory: a service reads it once, at
    /// start.
    ///
    /// # Errors
    ///
    /// I/O failures reading the queue root.
    pub fn next_seq(&self) -> io::Result<u64> {
        let mut max = 0;
        for entry in std::fs::read_dir(&self.root)? {
            let name = entry?.file_name();
            if let Some(seq) = name
                .to_str()
                .and_then(|n| n.strip_prefix("job-"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                max = max.max(seq);
            }
        }
        Ok(max + 1)
    }
}

/// Current Unix time in milliseconds (0 if the clock is before epoch).
pub fn now_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fades-store-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn spec(seq: u64) -> JobSpec {
        JobSpec {
            id: JobStore::id_for_seq(seq),
            label: "t".into(),
            load: "pulse-luts".into(),
            faults: 8,
            seed: 1,
            shards: 2,
            submitted_at_ms: 0,
        }
    }

    #[test]
    fn persist_scan_round_trip_and_state_derivation() {
        let root = scratch("roundtrip");
        let store = JobStore::open(&root).unwrap();
        assert_eq!(store.next_seq().unwrap(), 1);

        store.persist(&spec(1)).unwrap();
        store.persist(&spec(2)).unwrap();
        store.persist(&spec(3)).unwrap();
        assert_eq!(store.next_seq().unwrap(), 4);
        store.mark_cancelled("job-000002").unwrap();
        store.mark_failed("job-000003", "device exploded").unwrap();

        let jobs = store.scan().unwrap();
        assert_eq!(jobs.len(), 3);
        assert_eq!(jobs[0].spec.id, "job-000001");
        assert_eq!(jobs[0].state, JobState::Queued);
        assert_eq!(jobs[1].state, JobState::Cancelled);
        assert_eq!(jobs[2].state, JobState::Failed);
        assert_eq!(jobs[2].error.as_deref(), Some("device exploded"));

        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn duplicate_persist_is_rejected() {
        let root = scratch("dup");
        let store = JobStore::open(&root).unwrap();
        store.persist(&spec(1)).unwrap();
        let err = store.persist(&spec(1)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
        let _ = std::fs::remove_dir_all(&root);
    }
}
