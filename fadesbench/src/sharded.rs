//! `sharded-resume`: two loads, each split into 8 journaled shards run
//! with `fades_dispatch::run_shard`; shard 0's journal is then torn in the
//! middle of a line halfway through its records and resumed, and `merge`
//! and `campaign_status` read all 8 journals. Journal appends and reads
//! and each shard's fixed costs show here and nowhere in `paper-lane`.

use std::path::{Path, PathBuf};
use std::time::Instant;

use fades_core::{Campaign, CampaignPlan, FaultLoad};
use fades_dispatch::{campaign_status, merge, run_shard, Journal, JournalRecord, ShardOptions};

use crate::report::Metric;
use crate::setup::{self, CoreWork, Counters, Design, Error, Verdicts};
use crate::stats;
use crate::trace;
use crate::work::{Gates, RoundCtx, RoundOut, Work};

/// Loads the workload shards.
const LOADS: [&str; 2] = ["bitflip-ffs", "pulse-luts"];
/// Shards per load.
const SHARDS: u32 = 8;

/// Per-round dispatch measurements of one load.
#[derive(Debug, Default, Clone)]
struct LoadRound {
    traced: bool,
    run_shard_ms: Vec<f64>,
    resume_ms: f64,
    merge_ms: f64,
    status_ms: f64,
    journal_bytes: u64,
    resume_skipped: u64,
    /// Traced rounds only: `lint_gate`, `Journal::load` per shard, and
    /// `execute_batched_isolated` over the same shard plans.
    lint_gate_ms: f64,
    journal_load_ms: Vec<f64>,
    isolated_ms: f64,
}

/// What a round's merge must reproduce.
struct Warm {
    plan: CampaignPlan,
    verdicts: Verdicts,
}

/// The sharded campaign workload.
pub struct ShardedWork<'a> {
    campaign: &'a Campaign<'a>,
    loads: Vec<(String, FaultLoad)>,
    n: usize,
    seed: u64,
    dir: PathBuf,
    warm: Vec<Warm>,
    /// (load, merged digest, merge complete, resume skipped as expected).
    merges: Vec<(usize, String, bool, bool)>,
    measured: Vec<(usize, LoadRound)>,
    /// The last round's plans and journals, and its measurements, until
    /// `after_round` has used them.
    last: Vec<(CampaignPlan, Vec<PathBuf>)>,
    rows: Vec<LoadRound>,
}

impl<'a> ShardedWork<'a> {
    /// Shards of `n`-fault plans of each load, journaled under `tmp`.
    ///
    /// # Errors
    ///
    /// Unknown load names.
    pub fn new(
        design: &Design,
        campaign: &'a Campaign<'a>,
        n: usize,
        seed: u64,
        tmp: &Path,
    ) -> Result<ShardedWork<'a>, Error> {
        Ok(ShardedWork {
            campaign,
            loads: LOADS
                .iter()
                .map(|l| Ok((l.to_string(), design.load(l)?)))
                .collect::<Result<_, Error>>()?,
            n,
            seed,
            dir: tmp.to_path_buf(),
            warm: Vec::new(),
            merges: Vec::new(),
            measured: Vec::new(),
            last: Vec::new(),
            rows: Vec::new(),
        })
    }
}

fn journal_path(dir: &Path, load: &str, shard: u32) -> PathBuf {
    dir.join(format!("{load}-shard-{shard}.jsonl"))
}

/// Simulates a crash mid-append: keeps the header and the first half of
/// the settled records, then half of the next line without its newline.
/// Returns the records kept.
fn tear_journal(path: &Path) -> Result<u64, Error> {
    let text = std::fs::read_to_string(path)?;
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty journal")?;
    let records: Vec<&str> = lines
        .filter(|l| !l.contains("\"shard_complete\""))
        .collect();
    let keep = records.len() / 2;
    let mut torn = format!("{header}\n");
    for line in &records[..keep] {
        torn.push_str(line);
        torn.push('\n');
    }
    if let Some(next) = records.get(keep) {
        let mut cut = next.len() / 2;
        while !next.is_char_boundary(cut) {
            cut -= 1;
        }
        torn.push_str(&next[..cut]);
    }
    std::fs::write(path, torn)?;
    Ok(keep as u64)
}

fn ms_since(t: Instant) -> f64 {
    setup::secs(t) * 1e3
}

impl Work for ShardedWork<'_> {
    fn round(&mut self, ctx: &RoundCtx) -> Result<RoundOut, Error> {
        let mut out = RoundOut {
            round: ctx.r,
            ..RoundOut::default()
        };
        let dir = self.dir.join(&ctx.req);
        std::fs::create_dir_all(&dir)?;
        let opts = |load: &str| ShardOptions {
            load: load.to_string(),
            retries: 1,
            with_recorder: false,
            batch: true,
            cancel: None,
        };
        let mut plans = Vec::new();
        let mut rows = Vec::new();
        let mut merged = Vec::new();
        let t = Instant::now();
        for (name, load) in &self.loads {
            let req = format!("{}/{name}", ctx.req);
            let _job = trace::span("bench.job", req.clone());
            let mut piece = |since: Instant| {
                let secs = setup::secs(since);
                out.pieces.push(secs);
                secs * 1e3
            };
            let ts = Instant::now();
            let plan = out.core.plan(self.campaign, load, self.n, self.seed)?;
            piece(ts);
            let mut row = LoadRound {
                traced: ctx.traced,
                ..LoadRound::default()
            };
            let paths: Vec<PathBuf> = (0..SHARDS).map(|s| journal_path(&dir, name, s)).collect();
            for (s, path) in (0..SHARDS).zip(&paths) {
                let _s = trace::span("dispatch.run_shard", format!("{req}/shard-{s}"));
                let ts = Instant::now();
                let o = run_shard(self.campaign, &plan, s, SHARDS, path, &opts(name))?;
                row.run_shard_ms.push(piece(ts));
                out.executed += o.executed as usize;
                out.failed += o.quarantined.len();
            }
            let kept = {
                let _s = trace::span("bench.tear_journal", "");
                let ts = Instant::now();
                let kept = tear_journal(&paths[0])?;
                piece(ts);
                kept
            };
            let resumed = {
                let _s = trace::span("dispatch.run_shard", format!("{req}/shard-0-resume"));
                let ts = Instant::now();
                let o = run_shard(self.campaign, &plan, 0, SHARDS, &paths[0], &opts(name))?;
                row.resume_ms = piece(ts);
                out.executed += o.executed as usize;
                out.failed += o.quarantined.len();
                row.resume_skipped = o.skipped;
                o.skipped == kept
            };
            let report = {
                let _s = trace::span("dispatch.merge", "");
                let ts = Instant::now();
                let report = merge(&paths)?;
                row.merge_ms = piece(ts);
                report
            };
            let status = {
                let _s = trace::span("dispatch.campaign_status", "");
                let ts = Instant::now();
                let status = campaign_status(&paths)?;
                row.status_ms = piece(ts);
                status
            };
            let complete =
                report.is_complete() && status.all_complete() && status.completed == self.n as u64;
            merged.push((report.stats, complete, resumed));
            plans.push((plan, paths));
            rows.push(row);
        }
        out.wall_s = setup::secs(t);
        out.faults = self.n * self.loads.len();

        for (i, ((plan, paths), (stats, complete, resumed))) in plans.iter().zip(merged).enumerate()
        {
            let digest = setup::digest_of(&stats);
            out.digest.push((self.loads[i].0.clone(), digest.clone()));
            self.merges.push((i, digest, complete, resumed));
            let row = &mut rows[i];
            for p in paths {
                row.journal_bytes += std::fs::metadata(p)?.len();
            }
            if ctx.r == 0 {
                let mut verdicts = Verdicts::new();
                for p in paths {
                    for record in Journal::load(p)?.completed.into_values() {
                        if let JournalRecord::Completed {
                            index,
                            outcome,
                            modelled_seconds,
                            ..
                        } = record
                        {
                            verdicts.insert(index, (outcome, modelled_seconds.to_bits()));
                        }
                    }
                }
                self.warm.push(Warm {
                    plan: plan.clone(),
                    verdicts,
                });
            }
        }
        self.last = plans;
        self.rows = rows;
        Ok(out)
    }

    fn after_round(&mut self, ctx: &RoundCtx) -> Result<(), Error> {
        for ((plan, paths), row) in self.last.iter().zip(&mut self.rows) {
            if !ctx.traced {
                break;
            }
            let ts = Instant::now();
            fades_dispatch::lint_gate(&self.campaign.implementation().bitstream)?;
            row.lint_gate_ms = ms_since(ts);
            for p in paths {
                let ts = Instant::now();
                Journal::load(p)?;
                row.journal_load_ms.push(ms_since(ts));
            }
            let ts = Instant::now();
            for s in 0..SHARDS {
                let shard = plan.try_shard(s, SHARDS)?;
                self.campaign
                    .execute_batched_isolated(&shard, 1, None, None)?;
            }
            row.isolated_ms = ms_since(ts);
        }
        if ctx.r > 0 {
            self.measured.extend(self.rows.drain(..).enumerate());
        }
        self.last.clear();
        std::fs::remove_dir_all(self.dir.join(&ctx.req))?;
        Ok(())
    }

    fn gates(&mut self, gates: &mut Gates, core: &mut CoreWork) -> Result<(), Error> {
        for (i, ((name, _), warm)) in self.loads.iter().zip(&self.warm).enumerate() {
            let engine = {
                let _s = trace::span("core.execute_batched", format!("monolithic/{name}"));
                self.campaign.execute_batched(&warm.plan, None)?
            };
            let mono = setup::digest_of(&setup::stats_of(&setup::verdicts_of(
                self.campaign,
                &warm.plan,
                &engine,
            )));
            let rounds: Vec<_> = self.merges.iter().filter(|m| m.0 == i).collect();
            let differ = rounds.iter().filter(|m| m.1 != mono).count();
            gates.check(
                &format!("merge of 8 shards is bit-identical to monolithic on {name}"),
                differ == 0,
                differ * self.n,
                format!("{} rounds, monolithic {mono}", rounds.len()),
            );
            let incomplete = rounds.iter().filter(|m| !m.2 || !m.3).count();
            gates.check(
                &format!("resume and merge complete on {name}"),
                incomplete == 0,
                incomplete * self.n,
                "torn shard 0 skipped its kept records; no missing or quarantined experiment",
            );
            let bad = core.oracle_mismatches(self.campaign, &warm.plan, &warm.verdicts)?;
            gates.check(
                &format!("scalar oracle agrees with the journals on {name}"),
                bad == 0,
                bad,
                "journaled outcome and modelled-seconds bits",
            );
        }
        Ok(())
    }

    fn extra(&self, _traced: &Counters) -> Vec<Metric> {
        let untraced: Vec<&LoadRound> = self
            .measured
            .iter()
            .map(|(_, r)| r)
            .filter(|r| !r.traced)
            .collect();
        let traced: Vec<&LoadRound> = self
            .measured
            .iter()
            .map(|(_, r)| r)
            .filter(|r| r.traced)
            .collect();
        let fm = |v: Vec<f64>| (stats::median(&v), v.len());
        let (run_shard, n_rs) = fm(untraced
            .iter()
            .flat_map(|r| r.run_shard_ms.clone())
            .collect());
        let (resume, n_res) = fm(untraced.iter().map(|r| r.resume_ms).collect());
        let (merge_ms, n_m) = fm(untraced.iter().map(|r| r.merge_ms).collect());
        let (status_ms, n_st) = fm(untraced.iter().map(|r| r.status_ms).collect());
        let (lint, n_l) = fm(traced.iter().map(|r| r.lint_gate_ms).collect());
        let (load_ms, n_jl) = fm(traced
            .iter()
            .flat_map(|r| r.journal_load_ms.clone())
            .collect());
        let rs_traced: f64 = traced.iter().flat_map(|r| r.run_shard_ms.iter()).sum();
        let iso: f64 = traced.iter().map(|r| r.isolated_ms).sum();
        let bytes: u64 = untraced.iter().map(|r| r.journal_bytes).sum();
        let skipped: u64 = untraced.iter().map(|r| r.resume_skipped).sum();
        let loads = untraced.len().max(1) as f64;
        let mut out = vec![
            Metric::new("dispatch.run_shard_ms", run_shard, "ms", n_rs),
            Metric::new("dispatch.resume_ms", resume, "ms", n_res),
            Metric::new("dispatch.merge_ms", merge_ms, "ms", n_m),
            Metric::new("dispatch.status_ms", status_ms, "ms", n_st),
            Metric::new(
                "dispatch.journal_bytes_per_fault",
                bytes as f64 / (loads * self.n as f64),
                "bytes",
                untraced.len(),
            ),
            Metric::new(
                "dispatch.resume_skipped",
                skipped as f64 / loads,
                "count",
                untraced.len(),
            ),
        ];
        if !traced.is_empty() {
            out.extend([
                Metric::new("dispatch.lint_gate_ms", lint, "ms", n_l),
                Metric::new("dispatch.journal_load_ms", load_ms, "ms", n_jl),
                Metric::new(
                    "dispatch.overhead_frac",
                    if rs_traced > 0.0 {
                        (rs_traced - iso) / rs_traced
                    } else {
                        0.0
                    },
                    "ratio",
                    traced.len() * SHARDS as usize,
                ),
            ]);
        }
        out
    }
}
