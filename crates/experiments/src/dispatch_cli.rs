//! The `shard` / `resume` / `merge` / `status` subcommands: sharded,
//! resumable campaign execution via `fades-dispatch`.
//!
//! ```text
//! fades-experiments shard I/N <journal.jsonl> [load] [--batch|--no-batch]
//! fades-experiments resume <journal.jsonl> [--batch|--no-batch]
//! fades-experiments merge <journal.jsonl|dir>...           # fold shards into one result
//! fades-experiments status <journal.jsonl|dir>... [--watch] # cross-shard progress/ETA
//! ```
//!
//! `merge` and `status` accept directories: a directory argument stands
//! for every `*.jsonl` journal inside it (the natural layout of both the
//! sharding workflow and the campaign service's per-job directories).
//!
//! `shard` samples the monolithic fault list (from `FADES_FAULTS` /
//! `FADES_SEED`), keeps every experiment whose global index ≡ I (mod N),
//! and journals each one as it finishes. Re-running the same `shard`
//! command — or `resume`, which reads everything it needs from the
//! journal header — skips journaled work, so a killed shard loses at
//! most the experiments that were in flight. `merge` folds any set of
//! shard journals into aggregate statistics that are bit-identical to a
//! single-process `campaign.run` when every experiment completed.
//!
//! `shard` and `resume` run lane-expressible experiments on the
//! bit-parallel lane engine by default (`--batch`); `--no-batch` forces
//! the scalar per-experiment path. Journal contents and merged stats are
//! bit-identical either way, so the flag never changes results.

use std::error::Error;
use std::path::Path;

use fades_core::{DurationRange, FaultLoad, TargetClass};
use fades_dispatch::{merge, run_shard, Journal, MergeReport, ShardOptions, ShardOutcome};

use crate::{fault_count_from_env, seed_from_env, ExperimentContext};

/// Named fault loads the dispatch subcommands accept. Names are recorded
/// in journal headers, so `resume` can rebuild the exact campaign.
pub const NAMED_LOADS: [&str; 5] = [
    "bitflip-ffs",
    "bitflip-mem",
    "pulse-luts",
    "indet-ffs",
    "delay-wires",
];

/// Resolves a named fault load against the experimental context.
pub fn named_load(ctx: &ExperimentContext, name: &str) -> Option<FaultLoad> {
    named_load_for(name, || ctx.memory_data_targets())
}

/// [`named_load`] with the memory target class supplied lazily — for
/// callers (the campaign-service backend) that hold the workload parts
/// rather than a full [`ExperimentContext`].
pub fn named_load_for(
    name: &str,
    memory_targets: impl FnOnce() -> TargetClass,
) -> Option<FaultLoad> {
    match name {
        "bitflip-ffs" => Some(FaultLoad::bit_flips(
            TargetClass::AllFfs,
            DurationRange::SubCycle,
        )),
        "bitflip-mem" => Some(FaultLoad::bit_flips(
            memory_targets(),
            DurationRange::SubCycle,
        )),
        "pulse-luts" => Some(FaultLoad::pulses(
            TargetClass::AllLuts,
            DurationRange::SubCycle,
        )),
        "indet-ffs" => Some(FaultLoad::indeterminations(
            TargetClass::AllFfs,
            DurationRange::SHORT,
            false,
        )),
        "delay-wires" => Some(FaultLoad::delays(
            TargetClass::CombinationalWires,
            DurationRange::SHORT,
        )),
        _ => None,
    }
}

/// Handles `shard` / `resume` / `merge` argv. Returns `None` when the
/// first argument is not a dispatch subcommand (the classic
/// table/figure dispatcher takes over).
pub fn try_dispatch(args: &[String]) -> Option<Result<(), Box<dyn Error>>> {
    match args.first().map(String::as_str) {
        Some("shard") => Some(cmd_shard(&args[1..])),
        Some("resume") => Some(cmd_resume(&args[1..])),
        Some("merge") => Some(cmd_merge(&args[1..])),
        Some("status") => Some(crate::status_cli::cmd_status(&args[1..])),
        _ => None,
    }
}

/// Strips `--batch` / `--no-batch` from argv; the last occurrence wins,
/// and neither means `--batch`.
fn split_batch_flag(args: &[String]) -> (Vec<String>, bool) {
    let mut batch = true;
    let mut rest = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--batch" => batch = true,
            "--no-batch" => batch = false,
            _ => rest.push(arg.clone()),
        }
    }
    (rest, batch)
}

fn cmd_shard(args: &[String]) -> Result<(), Box<dyn Error>> {
    const USAGE: &str = "usage: fades-experiments shard I/N <journal.jsonl> [load] \
                         [--batch|--no-batch]";
    let (args, batch) = split_batch_flag(args);
    let spec = args.first().ok_or(USAGE)?;
    let (shard, count) = parse_shard_spec(spec)?;
    let journal = args.get(1).ok_or(USAGE)?;
    let load_name = args.get(2).map_or("bitflip-ffs", String::as_str);
    execute_shard(
        shard,
        count,
        Path::new(journal),
        load_name,
        fault_count_from_env(),
        seed_from_env(),
        batch,
    )
}

fn cmd_resume(args: &[String]) -> Result<(), Box<dyn Error>> {
    let (args, batch) = split_batch_flag(args);
    let journal = args
        .first()
        .ok_or("usage: fades-experiments resume <journal.jsonl> [--batch|--no-batch]")?;
    let path = Path::new(journal);
    let replay = Journal::load(path)?;
    let h = replay.header;
    execute_shard(
        h.shard,
        h.of,
        path,
        &h.load,
        h.n_total as usize,
        h.seed,
        batch,
    )
}

fn execute_shard(
    shard: u32,
    count: u32,
    journal: &Path,
    load_name: &str,
    n_faults: usize,
    seed: u64,
    batch: bool,
) -> Result<(), Box<dyn Error>> {
    let ctx = ExperimentContext::new()?;
    let load = named_load(&ctx, load_name).ok_or_else(|| {
        format!(
            "unknown fault load `{load_name}` (known: {})",
            NAMED_LOADS.join(", ")
        )
    })?;
    let campaign = ctx.fades_campaign()?;
    let plan = campaign.plan(&load, n_faults, seed)?;
    println!(
        "shard {shard}/{count} of `{}` ({} of {} faults), seed {seed}, journal {}, {} engine",
        plan.target,
        plan.try_shard(shard, count)?.len(),
        plan.n_total,
        journal.display(),
        if batch { "lane" } else { "scalar" },
    );
    let opts = ShardOptions {
        load: load_name.to_string(),
        retries: 1,
        with_recorder: true,
        batch,
        cancel: None,
    };
    let outcome = run_shard(&campaign, &plan, shard, count, journal, &opts)?;
    print_shard_outcome(&outcome);
    Ok(())
}

fn cmd_merge(args: &[String]) -> Result<(), Box<dyn Error>> {
    if args.is_empty() {
        return Err("usage: fades-experiments merge <journal.jsonl|dir>...".into());
    }
    // Directory arguments expand to their `*.jsonl` shard journals —
    // `merge <campaign-dir>` instead of listing every shard by hand.
    let journals = fades_dispatch::expand_journal_args(args)?;
    let report = merge(&journals)?;
    print_merge_report(&report);
    Ok(())
}

fn parse_shard_spec(spec: &str) -> Result<(u32, u32), Box<dyn Error>> {
    let parse = || {
        let (i, n) = spec.split_once('/')?;
        let i: u32 = i.trim().parse().ok()?;
        let n: u32 = n.trim().parse().ok()?;
        (i < n).then_some((i, n))
    };
    parse().ok_or_else(|| format!("bad shard spec `{spec}` (expected I/N with I < N)").into())
}

fn print_shard_outcome(outcome: &ShardOutcome) {
    println!(
        "shard pass: {} executed, {} skipped (already journaled), {} quarantined",
        outcome.executed,
        outcome.skipped,
        outcome.quarantined.len()
    );
    for (index, error) in &outcome.quarantined {
        println!("  quarantined #{index}: {error}");
    }
    println!(
        "shard stats: {} | modelled {:.3} s total, {:.4} s/fault",
        outcome.stats.outcomes,
        outcome.stats.emulation_seconds,
        outcome.stats.mean_seconds_per_fault()
    );
}

fn print_merge_report(report: &MergeReport) {
    let h = &report.header;
    println!(
        "merged campaign `{}` (load {}, {} faults, seed {}, {} shards)",
        h.campaign, h.load, h.n_total, h.seed, h.of
    );
    for (shard, complete) in &report.shards_seen {
        println!(
            "  shard {shard}: {}",
            if *complete { "complete" } else { "partial" }
        );
    }
    println!(
        "  {} completed, {} quarantined, {} missing, {} duplicate records",
        report.completed,
        report.quarantined.len(),
        report.missing.len(),
        report.duplicates
    );
    for (index, error) in &report.quarantined {
        println!("  quarantined #{index}: {error}");
    }
    println!(
        "  outcomes: {} | modelled {:.6} s total ({:016x}), {:.4} s/fault",
        report.stats.outcomes,
        report.stats.emulation_seconds,
        report.stats.emulation_seconds.to_bits(),
        report.stats.mean_seconds_per_fault()
    );
    if report.is_complete() {
        println!("  every experiment accounted for: stats are bit-identical to a monolithic run");
    } else if !report.missing.is_empty() {
        println!(
            "  incomplete: run the remaining shards (or `resume` partial journals) and re-merge"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_flags_split_off_and_last_wins() {
        let strs = |a: &[&str]| {
            a.iter()
                .map(std::string::ToString::to_string)
                .collect::<Vec<_>>()
        };
        let (rest, batch) = split_batch_flag(&strs(&["0/2", "j.jsonl", "--no-batch"]));
        assert_eq!(rest, strs(&["0/2", "j.jsonl"]));
        assert!(!batch);
        let (rest, batch) = split_batch_flag(&strs(&["--no-batch", "j.jsonl", "--batch"]));
        assert_eq!(rest, strs(&["j.jsonl"]));
        assert!(batch);
        let (_, batch) = split_batch_flag(&strs(&["0/2", "j.jsonl"]));
        assert!(batch);
    }

    #[test]
    fn shard_spec_parses_and_rejects() {
        assert_eq!(parse_shard_spec("0/3").unwrap(), (0, 3));
        assert_eq!(parse_shard_spec("2/3").unwrap(), (2, 3));
        assert!(parse_shard_spec("3/3").is_err());
        assert!(parse_shard_spec("1").is_err());
        assert!(parse_shard_spec("a/b").is_err());
        assert!(parse_shard_spec("1/0").is_err());
    }
}
