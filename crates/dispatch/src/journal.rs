//! The append-only shard journal.
//!
//! One JSONL file per shard run. The first line is the
//! [`JournalHeader`] — enough to re-derive the campaign (label, load
//! descriptor, fault count, seed, shard geometry, run length) so
//! `resume` is self-describing. Every finished experiment appends one
//! line:
//!
//! ```text
//! {"type":"plan","campaign":"all FFs","load":"bitflip-ffs","n_total":300,...}
//! {"type":"experiment","index":7,"outcome":"failure","modelled_s":0.25,"modelled_s_bits":"3fd0000000000000","attempts":1}
//! {"type":"quarantined","index":12,"error":"chaos: injected panic...","attempts":2}
//! {"type":"shard_complete","completed":149,"quarantined":1}
//! ```
//!
//! Each line is written with a single `write_all` on a file opened in
//! append mode, so concurrent workers never interleave partial lines and
//! a kill can at worst truncate the final line — which the
//! [loader](Journal::load) tolerates by skipping it. Modelled seconds
//! are journaled twice: human-readable (`modelled_s`) and as the exact
//! f64 bit pattern (`modelled_s_bits`, hex), so a merge reproduces the
//! monolithic `emulation_seconds` bit-for-bit.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;

use fades_core::Outcome;
use fades_telemetry::json::{self, JsonObject, JsonValue};

use crate::error::DispatchError;

/// Current wall clock as Unix epoch milliseconds (0 if the clock is
/// before the epoch, which only happens on a badly misconfigured host).
pub(crate) fn now_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64)
}

/// The self-describing first line of a shard journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalHeader {
    /// Campaign label (the targeted element class, e.g. `"all FFs"`).
    pub campaign: String,
    /// Free-form fault-load descriptor. The CLI stores its named load
    /// (e.g. `"bitflip-ffs"`) here and uses it to rebuild the campaign
    /// on `resume`.
    pub load: String,
    /// Faults in the *monolithic* plan.
    pub n_total: u64,
    /// Campaign seed the plan was sampled from.
    pub seed: u64,
    /// This journal's shard index (0-based).
    pub shard: u32,
    /// Total shard count.
    pub of: u32,
    /// Experiment run length in cycles (campaign identity check).
    pub run_cycles: u64,
}

impl JournalHeader {
    fn to_json(&self) -> String {
        JsonObject::new()
            .str("type", "plan")
            .str("campaign", &self.campaign)
            .str("load", &self.load)
            .u64("n_total", self.n_total)
            .u64("seed", self.seed)
            .u64("shard", self.shard as u64)
            .u64("of", self.of as u64)
            .u64("run_cycles", self.run_cycles)
            .finish()
    }

    fn from_json(v: &JsonValue) -> Result<Self, DispatchError> {
        let field_u64 = |k: &str| {
            v.get(k)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| DispatchError::Journal(format!("plan line missing `{k}`")))
        };
        let field_str = |k: &str| {
            v.get(k)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| DispatchError::Journal(format!("plan line missing `{k}`")))
        };
        Ok(JournalHeader {
            campaign: field_str("campaign")?,
            load: field_str("load")?,
            n_total: field_u64("n_total")?,
            seed: field_u64("seed")?,
            shard: field_u64("shard")? as u32,
            of: field_u64("of")? as u32,
            run_cycles: field_u64("run_cycles")?,
        })
    }

    /// Verifies that `other` describes the same campaign shard, naming
    /// the first disagreeing field.
    ///
    /// # Errors
    ///
    /// Returns [`DispatchError::Mismatch`] on any disagreement.
    pub fn ensure_matches(&self, other: &JournalHeader) -> Result<(), DispatchError> {
        self.first_mismatch(other, true)
    }

    /// [`ensure_matches`](JournalHeader::ensure_matches) ignoring the
    /// shard index (merge compares journals of *different* shards).
    ///
    /// # Errors
    ///
    /// Returns [`DispatchError::Mismatch`] on any disagreement.
    pub fn ensure_same_campaign(&self, other: &JournalHeader) -> Result<(), DispatchError> {
        self.first_mismatch(other, false)
    }

    /// Compares the fields in header order, the shard index only if
    /// `with_shard`, and formats the first disagreement alone.
    fn first_mismatch(&self, other: &JournalHeader, with_shard: bool) -> Result<(), DispatchError> {
        let fields: [(&str, bool, &dyn std::fmt::Display, &dyn std::fmt::Display); 7] = [
            (
                "campaign",
                self.campaign == other.campaign,
                &self.campaign,
                &other.campaign,
            ),
            ("load", self.load == other.load, &self.load, &other.load),
            (
                "n_total",
                self.n_total == other.n_total,
                &self.n_total,
                &other.n_total,
            ),
            ("seed", self.seed == other.seed, &self.seed, &other.seed),
            (
                "shard",
                !with_shard || self.shard == other.shard,
                &self.shard,
                &other.shard,
            ),
            ("of", self.of == other.of, &self.of, &other.of),
            (
                "run_cycles",
                self.run_cycles == other.run_cycles,
                &self.run_cycles,
                &other.run_cycles,
            ),
        ];
        match fields.into_iter().find(|&(_, same, _, _)| !same) {
            Some((name, _, expected, found)) => Err(DispatchError::Mismatch(format!(
                "{name}: journal has `{found}`, expected `{expected}`"
            ))),
            None => Ok(()),
        }
    }
}

/// One appendable journal line (after the header).
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// An experiment ran to classification.
    Completed {
        /// Global plan index.
        index: u64,
        /// Classified outcome.
        outcome: Outcome,
        /// Modelled emulation seconds (journaled bit-exactly).
        modelled_seconds: f64,
        /// Attempts it took (1 = first try).
        attempts: u32,
    },
    /// An experiment exhausted its attempts and was set aside.
    Quarantined {
        /// Global plan index.
        index: u64,
        /// Final attempt's panic message or error.
        error: String,
        /// Attempts made.
        attempts: u32,
    },
    /// Trailing marker: the shard runner finished its pass.
    ShardComplete {
        /// Experiments completed over the shard's lifetime.
        completed: u64,
        /// Experiments quarantined.
        quarantined: u64,
    },
}

impl JournalRecord {
    /// Serializes the record as one JSONL line (without newline).
    pub fn to_json(&self) -> String {
        match self {
            JournalRecord::Completed {
                index,
                outcome,
                modelled_seconds,
                attempts,
            } => JsonObject::new()
                .str("type", "experiment")
                .u64("index", *index)
                .str("outcome", outcome.as_str())
                .f64("modelled_s", *modelled_seconds)
                .str(
                    "modelled_s_bits",
                    &format!("{:016x}", modelled_seconds.to_bits()),
                )
                .u64("attempts", *attempts as u64)
                .finish(),
            JournalRecord::Quarantined {
                index,
                error,
                attempts,
            } => JsonObject::new()
                .str("type", "quarantined")
                .u64("index", *index)
                .str("error", error)
                .u64("attempts", *attempts as u64)
                .finish(),
            JournalRecord::ShardComplete {
                completed,
                quarantined,
            } => JsonObject::new()
                .str("type", "shard_complete")
                .u64("completed", *completed)
                .u64("quarantined", *quarantined)
                .finish(),
        }
    }

    /// [`to_json`](JournalRecord::to_json) plus a trailing `at_ms`
    /// wall-clock stamp (Unix epoch milliseconds). The stamp is
    /// write-time metadata, not record identity: the loader keeps it out
    /// of [`JournalRecord`] so replayed duplicates still compare equal,
    /// and surfaces it separately via
    /// [`JournalReplay::settled_at_ms`].
    pub fn to_json_at(&self, at_ms: u64) -> String {
        let line = self.to_json();
        // Splice into the object rather than re-deriving every field.
        debug_assert!(line.ends_with('}'));
        format!("{},\"at_ms\":{at_ms}}}", &line[..line.len() - 1])
    }

    /// Reads a record line whose `type` field (looked up by the caller)
    /// is `kind`.
    fn from_json(kind: Option<&str>, v: &JsonValue) -> Result<Self, DispatchError> {
        let field_u64 = |k: &str| {
            v.get(k)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| DispatchError::Journal(format!("record missing `{k}`")))
        };
        match kind {
            Some("experiment") => {
                let bits_hex = v
                    .get("modelled_s_bits")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| {
                        DispatchError::Journal("experiment missing `modelled_s_bits`".into())
                    })?;
                let bits = u64::from_str_radix(bits_hex, 16).map_err(|_| {
                    DispatchError::Journal(format!("bad modelled_s_bits `{bits_hex}`"))
                })?;
                let outcome_name = v
                    .get("outcome")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| DispatchError::Journal("experiment missing `outcome`".into()))?;
                let outcome = Outcome::parse(outcome_name).ok_or_else(|| {
                    DispatchError::Journal(format!("unknown outcome `{outcome_name}`"))
                })?;
                Ok(JournalRecord::Completed {
                    index: field_u64("index")?,
                    outcome,
                    modelled_seconds: f64::from_bits(bits),
                    attempts: field_u64("attempts")? as u32,
                })
            }
            Some("quarantined") => Ok(JournalRecord::Quarantined {
                index: field_u64("index")?,
                error: v
                    .get("error")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("unknown")
                    .to_string(),
                attempts: field_u64("attempts")? as u32,
            }),
            Some("shard_complete") => Ok(JournalRecord::ShardComplete {
                completed: field_u64("completed")?,
                quarantined: field_u64("quarantined")?,
            }),
            other => Err(DispatchError::Journal(format!(
                "unknown record type {other:?}"
            ))),
        }
    }
}

/// The replayed state of an existing journal.
#[derive(Debug, Clone)]
pub struct JournalReplay {
    /// The journal's header.
    pub header: JournalHeader,
    /// Completed experiments by global index (a duplicated index keeps
    /// the last record; see [`Journal::load`]).
    pub completed: BTreeMap<u64, JournalRecord>,
    /// Quarantined experiments by global index.
    pub quarantined: BTreeMap<u64, JournalRecord>,
    /// Whether a trailing `shard_complete` marker was seen.
    pub shard_complete: bool,
    /// Lines that failed to parse and were skipped (a crash can truncate
    /// the final line; anything more than 1 here deserves suspicion).
    pub malformed_lines: usize,
    /// Write-time `at_ms` stamps (Unix epoch milliseconds) by settled
    /// global index, for journals written by timestamping runners.
    /// Journals from before timestamping load with this empty — status
    /// reporting degrades to "no throughput estimate", never an error.
    pub settled_at_ms: BTreeMap<u64, u64>,
}

impl JournalReplay {
    /// Every index this journal settles (completed or quarantined) —
    /// the set `resume` must not re-run.
    pub fn settled_indices(&self) -> std::collections::BTreeSet<u64> {
        self.completed
            .keys()
            .chain(self.quarantined.keys())
            .copied()
            .collect()
    }
}

/// An open, appendable shard journal.
#[derive(Debug)]
pub struct Journal {
    file: File,
}

impl Journal {
    /// Creates (truncating) a journal at `path` and writes its header.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn create(path: &Path, header: &JournalHeader) -> Result<Journal, DispatchError> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        let mut journal = Journal { file };
        journal.append_line(&header.to_json())?;
        Ok(journal)
    }

    /// Opens an existing journal for appending (header already present).
    ///
    /// If a previous run was killed mid-write, the file may end in an
    /// unterminated partial line; appending straight after it would fuse
    /// the next record onto the garbage and lose *both*. So the tail is
    /// healed first: a missing final newline gets one, demoting the
    /// partial line to a self-contained malformed line the loader skips.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn append_to(path: &Path) -> Result<Journal, DispatchError> {
        use std::io::{Read, Seek, SeekFrom};
        let mut file = OpenOptions::new().read(true).append(true).open(path)?;
        let len = file.metadata()?.len();
        if len > 0 {
            file.seek(SeekFrom::End(-1))?;
            let mut last = [0u8; 1];
            file.read_exact(&mut last)?;
            if last != [b'\n'] {
                file.write_all(b"\n")?;
            }
        }
        Ok(Journal { file })
    }

    /// Appends one record as a single atomic line write, stamped with
    /// the current wall-clock (`at_ms`) so `status` can estimate
    /// throughput from the journal alone.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn append(&mut self, record: &JournalRecord) -> Result<(), DispatchError> {
        self.append_line(&record.to_json_at(now_ms()))
    }

    fn append_line(&mut self, line: &str) -> Result<(), DispatchError> {
        // One write_all per line: on an append-mode file the kernel
        // serialises the write at the current end, so concurrent worker
        // threads (behind the runner's mutex anyway) and a mid-write kill
        // can at worst truncate the tail, never interleave lines.
        let mut buf = String::with_capacity(line.len() + 1);
        buf.push_str(line);
        buf.push('\n');
        self.file.write_all(buf.as_bytes())?;
        Ok(())
    }

    /// Replays a journal from disk.
    ///
    /// Unparseable lines are tolerated and counted (`malformed_lines`):
    /// the legitimate source is a kill between the `write` syscall
    /// starting and finishing the final line. A duplicated experiment
    /// index keeps the *last* record, but two records for the same index
    /// that disagree on outcome or modelled time are a
    /// [`DispatchError::Mismatch`] — that journal mixes two different
    /// runs and must not be merged.
    ///
    /// # Errors
    ///
    /// I/O errors, a missing/invalid header line, or conflicting
    /// duplicate records.
    pub fn load(path: &Path) -> Result<JournalReplay, DispatchError> {
        let bytes = std::fs::read(path)?;
        if bytes.is_empty() {
            return Err(DispatchError::Journal(format!(
                "{}: empty journal",
                path.display()
            )));
        }
        // Lines split as `str::lines` splits them (a trailing `\r` is
        // dropped), but on bytes: a line that is not UTF-8 — a tail torn
        // inside a multi-byte character, or stray bytes — is one more
        // malformed line, not an unreadable journal.
        let mut lines = bytes
            .split(|&b| b == b'\n')
            .map(|l| std::str::from_utf8(l.strip_suffix(b"\r").unwrap_or(l)));
        let header_line = lines.next().and_then(Result::ok).ok_or_else(|| {
            DispatchError::Journal(format!("{}: bad header: not UTF-8", path.display()))
        })?;
        let header_value = json::parse(header_line)
            .map_err(|e| DispatchError::Journal(format!("{}: bad header: {e}", path.display())))?;
        if header_value.get("type").and_then(JsonValue::as_str) != Some("plan") {
            return Err(DispatchError::Journal(format!(
                "{}: first line is not a plan header",
                path.display()
            )));
        }
        let header = JournalHeader::from_json(&header_value)?;

        let mut replay = JournalReplay {
            header,
            completed: BTreeMap::new(),
            quarantined: BTreeMap::new(),
            shard_complete: false,
            malformed_lines: 0,
            settled_at_ms: BTreeMap::new(),
        };
        for line in lines {
            let Ok(line) = line else {
                replay.malformed_lines += 1;
                continue;
            };
            if line.trim().is_empty() {
                continue;
            }
            let Ok(v) = json::parse(line) else {
                replay.malformed_lines += 1;
                continue;
            };
            let parsed = match v.get("type").and_then(JsonValue::as_str) {
                // A resumed run re-created the file instead of appending;
                // treat an identical header as a no-op and anything else
                // as a mismatch.
                Some("plan") => JournalHeader::from_json(&v)
                    .and_then(|h| replay.header.ensure_matches(&h))
                    .map(|()| None),
                kind => JournalRecord::from_json(kind, &v).map(Some),
            };
            let record = match parsed {
                Ok(Some(record)) => record,
                Ok(None) => continue,
                Err(e @ DispatchError::Mismatch(_)) => return Err(e),
                Err(_) => {
                    replay.malformed_lines += 1;
                    continue;
                }
            };
            let settled = match record {
                JournalRecord::Completed { index, .. } => {
                    if let Some(prev) = replay.completed.get(&index) {
                        if *prev != record {
                            return Err(DispatchError::Mismatch(format!(
                                "{}: index {index} journaled twice with different results",
                                path.display()
                            )));
                        }
                    }
                    replay.completed.insert(index, record);
                    index
                }
                JournalRecord::Quarantined { index, .. } => {
                    replay.quarantined.insert(index, record);
                    index
                }
                JournalRecord::ShardComplete { .. } => {
                    replay.shard_complete = true;
                    continue;
                }
            };
            if let Some(ms) = v.get("at_ms").and_then(JsonValue::as_u64) {
                replay.settled_at_ms.insert(settled, ms);
            }
        }
        Ok(replay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> JournalHeader {
        JournalHeader {
            campaign: "all FFs".into(),
            load: "bitflip-ffs".into(),
            n_total: 30,
            seed: 7,
            shard: 1,
            of: 3,
            run_cycles: 164,
        }
    }

    #[test]
    fn journal_round_trips_records() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("fades-journal-rt-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let mut j = Journal::create(&path, &header()).unwrap();
            j.append(&JournalRecord::Completed {
                index: 4,
                outcome: Outcome::Failure,
                modelled_seconds: 0.123456789,
                attempts: 1,
            })
            .unwrap();
            j.append(&JournalRecord::Quarantined {
                index: 7,
                error: "injected".into(),
                attempts: 2,
            })
            .unwrap();
            j.append(&JournalRecord::ShardComplete {
                completed: 1,
                quarantined: 1,
            })
            .unwrap();
        }
        let replay = Journal::load(&path).unwrap();
        assert_eq!(replay.header, header());
        assert!(replay.shard_complete);
        assert_eq!(replay.malformed_lines, 0);
        match replay.completed.get(&4).unwrap() {
            JournalRecord::Completed {
                modelled_seconds, ..
            } => assert_eq!(
                modelled_seconds.to_bits(),
                0.123456789f64.to_bits(),
                "modelled seconds round-trip bit-exactly"
            ),
            other => panic!("wrong record: {other:?}"),
        }
        assert_eq!(
            replay.settled_indices().into_iter().collect::<Vec<_>>(),
            vec![4, 7]
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn loader_tolerates_truncated_tail() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("fades-journal-trunc-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let mut j = Journal::create(&path, &header()).unwrap();
            j.append(&JournalRecord::Completed {
                index: 1,
                outcome: Outcome::Silent,
                modelled_seconds: 0.5,
                attempts: 1,
            })
            .unwrap();
        }
        // Simulate a kill mid-write: half a line at the end.
        use std::io::Write as _;
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"type\":\"experi").unwrap();
        drop(f);

        let replay = Journal::load(&path).unwrap();
        assert_eq!(replay.completed.len(), 1);
        assert_eq!(replay.malformed_lines, 1);
        assert!(!replay.shard_complete);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn loader_tolerates_a_tail_torn_inside_a_utf8_character() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("fades-journal-utf8-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let mut j = Journal::create(&path, &header()).unwrap();
            j.append(&JournalRecord::Completed {
                index: 1,
                outcome: Outcome::Silent,
                modelled_seconds: 0.5,
                attempts: 1,
            })
            .unwrap();
        }
        // A kill mid-write of a quarantine message holding "µ" (0xC2
        // 0xB5): the tail ends after the character's first byte.
        use std::io::Write as _;
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"type\":\"quarantined\",\"index\":2,\"error\":\"took 3 \xC2")
            .unwrap();
        drop(f);

        let replay = Journal::load(&path).unwrap();
        assert_eq!(replay.completed.len(), 1);
        assert!(replay.quarantined.is_empty());
        assert_eq!(replay.malformed_lines, 1);
        let _ = std::fs::remove_file(&path);
    }

    proptest::proptest! {
        /// A torn or garbage tail — a cut-off record followed by any
        /// bytes at all, UTF-8 or not — never makes the journal
        /// unloadable, and every record written before it survives.
        #[test]
        fn any_appended_tail_keeps_every_earlier_record(
            cut in 0usize..80,
            garbage in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..64),
        ) {
            let dir = std::env::temp_dir();
            let path = dir.join(format!(
                "fades-journal-tail-{}-{:?}.jsonl",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_file(&path);
            {
                let mut j = Journal::create(&path, &header()).unwrap();
                j.append(&JournalRecord::Completed {
                    index: 4,
                    outcome: Outcome::Failure,
                    modelled_seconds: 0.25,
                    attempts: 1,
                })
                .unwrap();
                j.append(&JournalRecord::Quarantined {
                    index: 7,
                    error: "µ-op panicked".into(),
                    attempts: 2,
                })
                .unwrap();
            }
            let before = Journal::load(&path).unwrap();
            let record = JournalRecord::Completed {
                index: 9,
                outcome: Outcome::Silent,
                modelled_seconds: 0.5,
                attempts: 1,
            }
            .to_json();
            let mut tail = record.as_bytes()[..cut.min(record.len())].to_vec();
            tail.extend_from_slice(&garbage);
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&tail).unwrap();
            drop(f);

            let after = Journal::load(&path);
            let _ = std::fs::remove_file(&path);
            let after = after.unwrap();
            proptest::prop_assert_eq!(&after.header, &before.header);
            for (index, record) in &before.completed {
                proptest::prop_assert_eq!(after.completed.get(index), Some(record));
            }
            for (index, record) in &before.quarantined {
                proptest::prop_assert_eq!(after.quarantined.get(index), Some(record));
            }
        }
    }

    #[test]
    fn append_after_truncated_tail_heals_the_partial_line() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("fades-journal-heal-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let mut j = Journal::create(&path, &header()).unwrap();
            j.append(&JournalRecord::Completed {
                index: 1,
                outcome: Outcome::Silent,
                modelled_seconds: 0.5,
                attempts: 1,
            })
            .unwrap();
        }
        // Kill mid-write: unterminated partial line at EOF.
        use std::io::Write as _;
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"type\":\"experi").unwrap();
        drop(f);
        // A resumed run must not fuse its first record onto the garbage.
        let mut j = Journal::append_to(&path).unwrap();
        j.append(&JournalRecord::Completed {
            index: 4,
            outcome: Outcome::Failure,
            modelled_seconds: 0.25,
            attempts: 1,
        })
        .unwrap();
        drop(j);
        let replay = Journal::load(&path).unwrap();
        assert_eq!(replay.completed.len(), 2, "both real records survive");
        assert_eq!(replay.malformed_lines, 1, "only the garbage is dropped");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn append_stamps_at_ms_and_load_surfaces_it() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("fades-journal-atms-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let before = now_ms();
        {
            let mut j = Journal::create(&path, &header()).unwrap();
            j.append(&JournalRecord::Completed {
                index: 4,
                outcome: Outcome::Failure,
                modelled_seconds: 0.25,
                attempts: 1,
            })
            .unwrap();
            j.append(&JournalRecord::Quarantined {
                index: 7,
                error: "injected".into(),
                attempts: 2,
            })
            .unwrap();
        }
        let replay = Journal::load(&path).unwrap();
        assert_eq!(replay.settled_at_ms.len(), 2);
        for (&index, &ms) in &replay.settled_at_ms {
            assert!(ms >= before && ms <= now_ms(), "index {index} stamp {ms}");
        }
        // The stamp is metadata: record identity (and thus duplicate
        // detection) ignores it.
        assert!(replay.completed.contains_key(&4));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn untimestamped_journals_still_load() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("fades-journal-noats-{}.jsonl", std::process::id()));
        let mut text = header().to_json();
        text.push('\n');
        text.push_str(
            &JournalRecord::Completed {
                index: 1,
                outcome: Outcome::Silent,
                modelled_seconds: 0.5,
                attempts: 1,
            }
            .to_json(),
        );
        text.push('\n');
        std::fs::write(&path, text).unwrap();
        let replay = Journal::load(&path).unwrap();
        assert_eq!(replay.completed.len(), 1);
        assert!(replay.settled_at_ms.is_empty(), "no stamps, no estimates");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn conflicting_duplicate_is_rejected() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("fades-journal-dup-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::create(&path, &header()).unwrap();
        for modelled in [0.25, 0.75] {
            j.append(&JournalRecord::Completed {
                index: 3,
                outcome: Outcome::Silent,
                modelled_seconds: modelled,
                attempts: 1,
            })
            .unwrap();
        }
        drop(j);
        assert!(matches!(
            Journal::load(&path),
            Err(DispatchError::Mismatch(_))
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn header_mismatch_names_the_field() {
        let a = header();
        let mut b = header();
        b.seed = 8;
        let err = a.ensure_matches(&b).unwrap_err();
        assert_eq!(
            err.to_string(),
            "journal mismatch: seed: journal has `8`, expected `7`"
        );
        let mut c = header();
        c.shard = 2;
        assert!(a.ensure_matches(&c).is_err());
        assert!(a.ensure_same_campaign(&c).is_ok(), "merge ignores shard");
        // Only the first disagreement is named, in header order.
        c.load = "pulse-luts".into();
        c.run_cycles = 1;
        for err in [a.ensure_matches(&c), a.ensure_same_campaign(&c)] {
            assert_eq!(
                err.unwrap_err().to_string(),
                "journal mismatch: load: journal has `pulse-luts`, expected `bitflip-ffs`"
            );
        }
    }
}
