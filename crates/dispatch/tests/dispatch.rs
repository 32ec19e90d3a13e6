//! End-to-end shard / resume / merge behaviour on a real campaign.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::missing_panics_doc)]

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

use fades_core::{Campaign, DurationRange, FaultLoad, TargetClass};
use fades_dispatch::{
    merge, run_shard, run_shards, CancelToken, DispatchError, Journal, ShardOptions,
};
use fades_fpga::ArchParams;
use fades_netlist::UnitTag;
use fades_pnr::implement;
use fades_rtl::RtlBuilder;

/// The same 8-bit LFSR fixture the core campaign tests use: every bit
/// observable, fast to simulate, rich enough to produce all three
/// outcome classes under pulse loads.
fn lfsr_campaign() -> (fades_netlist::Netlist, fades_pnr::Implementation) {
    let mut b = RtlBuilder::new("lfsr");
    b.set_unit(UnitTag::Registers);
    let r = b.reg("lfsr", 8, 1);
    let q = r.q().clone();
    b.set_unit(UnitTag::Alu);
    let t1 = b.xor_bit(q.bit(7), q.bit(5));
    let t2 = b.xor_bit(q.bit(4), q.bit(3));
    let tap = b.xor_bit(t1, t2);
    let mut bits = vec![tap];
    bits.extend((0..7).map(|i| q.bit(i)));
    b.set_unit(UnitTag::Registers);
    let next = fades_rtl::Signal::from_bits(bits);
    b.connect(r, &next);
    b.output("q", &q);
    let netlist = b.finish().unwrap();
    let imp = implement(&netlist, ArchParams::small()).unwrap();
    (netlist, imp)
}

fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fades-dispatch-{test}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn opts() -> ShardOptions {
    ShardOptions {
        load: "pulse-luts".into(),
        ..ShardOptions::default()
    }
}

fn opts_batch(batch: bool) -> ShardOptions {
    ShardOptions { batch, ..opts() }
}

#[test]
fn merged_shards_are_bit_identical_to_the_monolithic_run() {
    // Both shard engines — scalar isolated and the batched lane engine —
    // must merge to stats bit-identical to the monolithic run, for every
    // shard count.
    let (nl, imp) = lfsr_campaign();
    let campaign = Campaign::new(&nl, imp, &["q"], 150).unwrap();
    let load = FaultLoad::pulses(TargetClass::AllLuts, DurationRange::SHORT);
    let (n, seed) = (30, 42);

    let monolithic = campaign.run(&load, n, seed).unwrap();
    let plan = campaign.plan(&load, n, seed).unwrap();
    let dir = scratch_dir("bitident");

    for batch in [false, true] {
        let engine = if batch { "lane" } else { "scalar" };
        for count in [1u32, 2, 3, 5] {
            let journals: Vec<PathBuf> = (0..count)
                .map(|shard| {
                    let path = dir.join(format!("{engine}-c{count}-s{shard}.jsonl"));
                    let outcome =
                        run_shard(&campaign, &plan, shard, count, &path, &opts_batch(batch))
                            .unwrap();
                    assert_eq!(outcome.skipped, 0);
                    assert!(outcome.quarantined.is_empty());
                    path
                })
                .collect();
            let report = merge(&journals).unwrap();
            assert!(report.is_complete(), "{engine}, {count} shards: {report:?}");
            assert_eq!(report.completed, n as u64);
            assert_eq!(report.stats.n, monolithic.n);
            assert_eq!(report.stats.outcomes, monolithic.outcomes);
            assert_eq!(
                report.stats.emulation_seconds.to_bits(),
                monolithic.emulation_seconds.to_bits(),
                "{engine}, {count} shards: merged modelled time must be bit-identical \
                 ({} vs {})",
                report.stats.emulation_seconds,
                monolithic.emulation_seconds
            );
        }
    }

    // The batched shards above drove the lane engine, whose process-wide
    // counters feed the `/status` endpoint: sharded runs must show up as
    // non-zero lane occupancy there.
    let status = fades_telemetry::status_snapshot();
    assert!(
        status.lane_occupancy > 0.0,
        "batched sharded runs must feed /status lane occupancy"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn lint_gate_rejects_error_designs_and_shard_runs_pass_through_it() {
    // A LUT feeding its own input pin is a combinational cycle, the one
    // lint rule with `Error` severity. Such a bitstream cannot even
    // become a `Campaign` (device construction refuses the loop), so the
    // gate is exercised directly — it is the same call `run_shard` makes
    // before touching any journal.
    let mut broken = fades_fpga::Bitstream::new(ArchParams::small());
    let cycle_cb = fades_fpga::CbCoord::new(15, 15);
    let out = broken.place_lut(cycle_cb, 0xAAAA).unwrap();
    broken.connect_lut_pin(cycle_cb, 0, out).unwrap();
    match fades_dispatch::lint_gate(&broken) {
        Err(DispatchError::Lint(diags)) => {
            assert!(!diags.is_empty());
            assert!(
                diags
                    .iter()
                    .all(|d| d.severity == fades_analysis::Severity::Error),
                "the Lint error carries only the error-severity findings: {diags:?}"
            );
            assert!(diags.iter().any(|d| d.rule == "comb-cycle"), "{diags:?}");
        }
        other => panic!("expected a lint rejection, got {other:?}"),
    }

    // A healthy design passes the gate inside run_shard — and the lint
    // pass feeds the process-wide diagnostics counter while doing so.
    let (nl, imp) = lfsr_campaign();
    let campaign = Campaign::new(&nl, imp, &["q"], 150).unwrap();
    let load = FaultLoad::pulses(TargetClass::AllLuts, DurationRange::SHORT);
    let plan = campaign.plan(&load, 4, 7).unwrap();
    let dir = scratch_dir("lintgate");
    let before = fades_telemetry::analysis::LINT_DIAGNOSTICS.get();
    run_shard(&campaign, &plan, 0, 1, &dir.join("ok.jsonl"), &opts()).unwrap();
    assert!(
        fades_telemetry::analysis::LINT_DIAGNOSTICS.get() > before,
        "run_shard must actually lint the design on admission"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn invalid_shard_geometry_is_a_typed_error() {
    let (nl, imp) = lfsr_campaign();
    let campaign = Campaign::new(&nl, imp, &["q"], 150).unwrap();
    let load = FaultLoad::pulses(TargetClass::AllLuts, DurationRange::SubCycle);
    let plan = campaign.plan(&load, 6, 3).unwrap();
    let dir = scratch_dir("geometry");

    for (shard, count) in [(0u32, 0u32), (2, 2), (7, 3)] {
        let path = dir.join(format!("g{shard}-{count}.jsonl"));
        let err = run_shard(&campaign, &plan, shard, count, &path, &opts()).unwrap_err();
        match err {
            DispatchError::Core(fades_core::CoreError::ShardGeometry { index, count: c }) => {
                assert_eq!((index, c), (shard, count));
            }
            other => panic!("shard {shard}/{count}: expected geometry error, got {other:?}"),
        }
        assert!(
            !path.exists(),
            "an impossible geometry must not leave a journal behind"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn resume_after_kill_skips_journaled_experiments() {
    // Run the kill/resume drill on both engines. On the batched path the
    // journal is written at lane *retirement*, so a kill mid-cohort
    // leaves a prefix of retirement-ordered records — resume must pick
    // up the remainder (batched again) and still fold to stats
    // bit-identical to the uninterrupted scalar pass.
    let (nl, imp) = lfsr_campaign();
    let campaign = Campaign::new(&nl, imp, &["q"], 150).unwrap();
    let load = FaultLoad::pulses(TargetClass::AllLuts, DurationRange::SubCycle);
    let (n, seed) = (20, 9);
    let plan = campaign.plan(&load, n, seed).unwrap();
    let dir = scratch_dir("resume");

    // The scalar-isolated reference pass over shard 0 of 2.
    let full_path = dir.join("full.jsonl");
    let full = run_shard(&campaign, &plan, 0, 2, &full_path, &opts_batch(false)).unwrap();
    assert_eq!(full.executed, 10);

    for batch in [false, true] {
        let engine = if batch { "lane" } else { "scalar" };
        // A full pass on this engine, then simulate a kill: keep the
        // header + 4 journaled experiments and a torn partial line, as
        // if the process died mid-append.
        let donor_path = dir.join(format!("{engine}-donor.jsonl"));
        run_shard(&campaign, &plan, 0, 2, &donor_path, &opts_batch(batch)).unwrap();
        let text = fs::read_to_string(&donor_path).unwrap();
        let keep: Vec<&str> = text.lines().take(5).collect();
        let crashed_path = dir.join(format!("{engine}-crashed.jsonl"));
        fs::write(
            &crashed_path,
            format!("{}\n{{\"type\":\"exp", keep.join("\n")),
        )
        .unwrap();

        let resumed = run_shard(&campaign, &plan, 0, 2, &crashed_path, &opts_batch(batch)).unwrap();
        assert_eq!(
            resumed.skipped, 4,
            "{engine}: journaled experiments are not re-run"
        );
        assert_eq!(resumed.executed, 6, "{engine}");
        assert_eq!(resumed.completed, 10, "{engine}");

        // The healed journal folds to exactly the uninterrupted
        // scalar-isolated pass, to the bit.
        assert_eq!(resumed.stats.outcomes, full.stats.outcomes, "{engine}");
        assert_eq!(
            resumed.stats.emulation_seconds.to_bits(),
            full.stats.emulation_seconds.to_bits(),
            "{engine}: resumed stats must be bit-identical to the scalar reference"
        );

        // And a replayed journal has every shard-0 experiment exactly once.
        let replay = Journal::load(&crashed_path).unwrap();
        let indices: Vec<u64> = replay.settled_indices().into_iter().collect();
        assert_eq!(
            indices,
            (0..n as u64).filter(|i| i % 2 == 0).collect::<Vec<_>>(),
            "{engine}"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn cancelled_shard_leaves_a_resumable_journal() {
    let (nl, imp) = lfsr_campaign();
    let campaign = Campaign::new(&nl, imp, &["q"], 150).unwrap();
    let load = FaultLoad::pulses(TargetClass::AllLuts, DurationRange::SubCycle);
    let (n, seed) = (12, 7);
    let plan = campaign.plan(&load, n, seed).unwrap();
    let dir = scratch_dir("cancel");
    let path = dir.join("s0.jsonl");

    // A token that fired before the run starts: the runner must write a
    // valid (empty) journal and stop before executing anything.
    let token = CancelToken::new();
    token.cancel();
    let opts_cancel = ShardOptions {
        cancel: Some(token),
        ..opts()
    };
    let outcome = run_shard(&campaign, &plan, 0, 1, &path, &opts_cancel).unwrap();
    assert!(outcome.cancelled);
    assert_eq!(outcome.executed, 0);
    assert_eq!(outcome.completed, 0);
    let replay = Journal::load(&path).unwrap();
    assert!(!replay.shard_complete, "a cancelled shard is not complete");

    // Re-running with a live token resumes and completes; stats are
    // bit-identical to the monolithic run of the same plan.
    let monolithic = campaign.run(&load, n, seed).unwrap();
    let live = ShardOptions {
        cancel: Some(CancelToken::new()),
        ..opts()
    };
    let resumed = run_shard(&campaign, &plan, 0, 1, &path, &live).unwrap();
    assert!(!resumed.cancelled);
    assert_eq!(resumed.completed, n as u64);
    assert_eq!(resumed.stats.outcomes, monolithic.outcomes);
    assert_eq!(
        resumed.stats.emulation_seconds.to_bits(),
        monolithic.emulation_seconds.to_bits(),
        "cancel + resume must not perturb merged stats"
    );
    let replay = Journal::load(&path).unwrap();
    assert!(replay.shard_complete);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn resume_rejects_a_journal_from_a_different_campaign() {
    let (nl, imp) = lfsr_campaign();
    let campaign = Campaign::new(&nl, imp, &["q"], 150).unwrap();
    let load = FaultLoad::pulses(TargetClass::AllLuts, DurationRange::SubCycle);
    let dir = scratch_dir("mismatch");
    let path = dir.join("s0.jsonl");

    let plan = campaign.plan(&load, 10, 1).unwrap();
    run_shard(&campaign, &plan, 0, 2, &path, &opts()).unwrap();

    // Same journal, different seed: resume must refuse, not silently mix.
    let other = campaign.plan(&load, 10, 2).unwrap();
    let err = run_shard(&campaign, &other, 0, 2, &path, &opts()).unwrap_err();
    assert!(matches!(err, DispatchError::Mismatch(_)), "{err}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn merge_rejects_journals_of_different_campaigns() {
    let (nl, imp) = lfsr_campaign();
    let campaign = Campaign::new(&nl, imp, &["q"], 150).unwrap();
    let load = FaultLoad::pulses(TargetClass::AllLuts, DurationRange::SubCycle);
    let dir = scratch_dir("mergemismatch");

    let a = dir.join("a.jsonl");
    let b = dir.join("b.jsonl");
    let plan1 = campaign.plan(&load, 8, 1).unwrap();
    let plan2 = campaign.plan(&load, 8, 2).unwrap();
    run_shard(&campaign, &plan1, 0, 2, &a, &opts()).unwrap();
    run_shard(&campaign, &plan2, 1, 2, &b, &opts()).unwrap();
    let err = merge(&[a, b]).unwrap_err();
    assert!(matches!(err, DispatchError::Mismatch(_)), "{err}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn merge_reports_missing_experiments_of_unrun_shards() {
    let (nl, imp) = lfsr_campaign();
    let campaign = Campaign::new(&nl, imp, &["q"], 150).unwrap();
    let load = FaultLoad::pulses(TargetClass::AllLuts, DurationRange::SubCycle);
    let dir = scratch_dir("missing");
    let path = dir.join("s1.jsonl");

    let plan = campaign.plan(&load, 9, 5).unwrap();
    run_shard(&campaign, &plan, 1, 3, &path, &opts()).unwrap();
    let report = merge(&[path]).unwrap();
    assert!(!report.is_complete());
    assert_eq!(report.completed, 3);
    assert_eq!(
        report.missing,
        vec![0, 2, 3, 5, 6, 8],
        "everything outside shard 1 of 3 is missing"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A journal's `shard_complete` line without its write-time stamp, if
/// it has one.
fn shard_complete_line(path: &Path) -> Option<String> {
    let text = fs::read_to_string(path).unwrap();
    text.lines()
        .find(|l| l.contains("\"type\":\"shard_complete\""))
        .map(|l| l.split(",\"at_ms\"").next().unwrap().to_string())
}

/// The merged tallies of a journal set, `emulation_seconds` as bits.
fn merged_bits(journals: &[PathBuf]) -> (fades_core::OutcomeStats, u64, u64) {
    let report = merge(journals).unwrap();
    assert!(report.is_complete(), "{report:?}");
    (
        report.stats.outcomes,
        report.completed,
        report.stats.emulation_seconds.to_bits(),
    )
}

#[test]
fn run_shards_matches_one_run_shard_call_per_shard() {
    // k shards in one call write the records, `shard_complete` lines and
    // merge bits that k separate calls write — on both engines, and for
    // subsets given in any order.
    let (nl, imp) = lfsr_campaign();
    let campaign = Campaign::new(&nl, imp, &["q"], 150).unwrap();
    let load = FaultLoad::pulses(TargetClass::AllLuts, DurationRange::SHORT);
    let plan = campaign.plan(&load, 30, 11).unwrap();
    let count = 4u32;
    let dir = scratch_dir("runshards");

    for batch in [false, true] {
        let engine = if batch { "lane" } else { "scalar" };
        let path = |side: &str, shard: u32| dir.join(format!("{engine}-{side}-s{shard}.jsonl"));
        let separate: Vec<_> = (0..count)
            .map(|shard| {
                run_shard(
                    &campaign,
                    &plan,
                    shard,
                    count,
                    &path("separate", shard),
                    &opts_batch(batch),
                )
                .unwrap()
            })
            .collect();

        let mut together = Vec::new();
        for subset in [[3u32, 1], [0, 2]] {
            let shards: Vec<(u32, PathBuf)> =
                subset.iter().map(|&s| (s, path("together", s))).collect();
            let outcomes =
                run_shards(&campaign, &plan, &shards, count, &opts_batch(batch)).unwrap();
            assert_eq!(outcomes.len(), subset.len());
            for (outcome, &shard) in outcomes.into_iter().zip(&subset) {
                assert_eq!(
                    outcome.header.shard, shard,
                    "{engine}: outcomes follow the given order"
                );
                together.push(outcome);
            }
        }
        together.sort_by_key(|o| o.header.shard);

        for (shard, (a, b)) in separate.iter().zip(&together).enumerate() {
            let shard = shard as u32;
            assert_eq!(a.header, b.header, "{engine} shard {shard}");
            assert_eq!(
                (a.executed, a.skipped, a.completed),
                (b.executed, b.skipped, b.completed),
                "{engine} shard {shard}"
            );
            assert_eq!(a.stats.outcomes, b.stats.outcomes, "{engine} shard {shard}");
            assert_eq!(
                a.stats.emulation_seconds.to_bits(),
                b.stats.emulation_seconds.to_bits(),
                "{engine} shard {shard}"
            );
            let (ra, rb) = (
                Journal::load(&path("separate", shard)).unwrap(),
                Journal::load(&path("together", shard)).unwrap(),
            );
            assert_eq!(
                ra.completed, rb.completed,
                "{engine} shard {shard}: records"
            );
            assert_eq!(ra.quarantined, rb.quarantined, "{engine} shard {shard}");
            assert!(
                rb.completed
                    .keys()
                    .all(|i| i % u64::from(count) == u64::from(shard)),
                "{engine} shard {shard}: every record belongs to its shard"
            );
            let line = shard_complete_line(&path("together", shard));
            assert!(line.is_some(), "{engine} shard {shard} is complete");
            assert_eq!(shard_complete_line(&path("separate", shard)), line);
        }
        let paths = |side: &str| (0..count).map(|s| path(side, s)).collect::<Vec<_>>();
        assert_eq!(
            merged_bits(&paths("separate")),
            merged_bits(&paths("together")),
            "{engine}"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn run_shards_resumes_a_torn_journal_among_fresh_ones() {
    let (nl, imp) = lfsr_campaign();
    let campaign = Campaign::new(&nl, imp, &["q"], 150).unwrap();
    let load = FaultLoad::pulses(TargetClass::AllLuts, DurationRange::SubCycle);
    let (n, seed, count) = (24, 4, 3u32);
    let plan = campaign.plan(&load, n, seed).unwrap();
    let dir = scratch_dir("runshards-torn");
    let path = |shard: u32| dir.join(format!("s{shard}.jsonl"));

    // Shard 1 was killed mid-append after 3 experiments; shards 0 and 2
    // never started.
    let donor = dir.join("donor.jsonl");
    run_shard(&campaign, &plan, 1, count, &donor, &opts()).unwrap();
    let text = fs::read_to_string(&donor).unwrap();
    let keep: Vec<&str> = text.lines().take(4).collect();
    fs::write(path(1), format!("{}\n{{\"type\":\"exp", keep.join("\n"))).unwrap();

    let shards: Vec<(u32, PathBuf)> = (0..count).map(|s| (s, path(s))).collect();
    let outcomes = run_shards(&campaign, &plan, &shards, count, &opts()).unwrap();
    let skipped: Vec<u64> = outcomes.iter().map(|o| o.skipped).collect();
    let executed: Vec<u64> = outcomes.iter().map(|o| o.executed).collect();
    assert_eq!(skipped, vec![0, 3, 0]);
    assert_eq!(executed, vec![8, 5, 8]);
    for (shard, outcome) in outcomes.iter().enumerate() {
        assert_eq!(outcome.completed, 8, "shard {shard}");
        let replay = Journal::load(&path(shard as u32)).unwrap();
        assert!(replay.shard_complete, "shard {shard}");
        let indices: Vec<u64> = replay.settled_indices().into_iter().collect();
        assert_eq!(
            indices,
            (0..n as u64)
                .filter(|i| i % 3 == shard as u64)
                .collect::<Vec<_>>()
        );
    }
    let monolithic = campaign.run(&load, n, seed).unwrap();
    let (outcomes, completed, bits) =
        merged_bits(&shards.iter().map(|(_, p)| p.clone()).collect::<Vec<_>>());
    assert_eq!(outcomes, monolithic.outcomes);
    assert_eq!(completed, n as u64);
    assert_eq!(bits, monolithic.emulation_seconds.to_bits());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn run_shards_header_mismatch_fails_before_touching_any_journal() {
    let (nl, imp) = lfsr_campaign();
    let campaign = Campaign::new(&nl, imp, &["q"], 150).unwrap();
    let load = FaultLoad::pulses(TargetClass::AllLuts, DurationRange::SubCycle);
    let count = 3u32;
    let plan = campaign.plan(&load, 12, 1).unwrap();
    let dir = scratch_dir("runshards-mismatch");
    let path = |shard: u32| dir.join(format!("s{shard}.jsonl"));

    // Shard 0 is a valid partial journal (cancelled before any work),
    // shard 1 belongs to another seed, shard 2 does not exist yet.
    let fired = CancelToken::new();
    fired.cancel();
    let cancelled = ShardOptions {
        cancel: Some(fired),
        ..opts()
    };
    run_shard(&campaign, &plan, 0, count, &path(0), &cancelled).unwrap();
    let other = campaign.plan(&load, 12, 2).unwrap();
    run_shard(&campaign, &other, 1, count, &path(1), &opts()).unwrap();
    let before = fs::read(path(0)).unwrap();

    let shards: Vec<(u32, PathBuf)> = (0..count).map(|s| (s, path(s))).collect();
    let err = run_shards(&campaign, &plan, &shards, count, &opts()).unwrap_err();
    assert!(matches!(err, DispatchError::Mismatch(_)), "{err}");
    assert_eq!(
        fs::read(path(0)).unwrap(),
        before,
        "shard 0 gained no record"
    );
    assert!(!path(2).exists(), "shard 2 was not created");

    // A shard listed twice is refused the same way.
    let twice = [(0, path(0)), (0, path(2))];
    let err = run_shards(&campaign, &plan, &twice, count, &opts()).unwrap_err();
    assert!(matches!(err, DispatchError::Mismatch(_)), "{err}");
    assert!(!path(2).exists());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn run_shards_under_a_fired_token_leaves_every_journal_resumable() {
    let (nl, imp) = lfsr_campaign();
    let campaign = Campaign::new(&nl, imp, &["q"], 150).unwrap();
    let load = FaultLoad::pulses(TargetClass::AllLuts, DurationRange::SubCycle);
    let (n, seed, count) = (15, 6, 3u32);
    let plan = campaign.plan(&load, n, seed).unwrap();
    let dir = scratch_dir("runshards-cancel");
    let shards: Vec<(u32, PathBuf)> = (0..count)
        .map(|s| (s, dir.join(format!("s{s}.jsonl"))))
        .collect();

    let fired = CancelToken::new();
    fired.cancel();
    let cancelled = ShardOptions {
        cancel: Some(fired),
        ..opts()
    };
    for outcome in run_shards(&campaign, &plan, &shards, count, &cancelled).unwrap() {
        assert!(outcome.cancelled);
        assert_eq!((outcome.executed, outcome.completed), (0, 0));
    }
    for (shard, path) in &shards {
        let replay = Journal::load(path).unwrap();
        assert_eq!(replay.header.shard, *shard);
        assert!(!replay.shard_complete, "shard {shard} is not complete");
    }

    let live = ShardOptions {
        cancel: Some(CancelToken::new()),
        ..opts()
    };
    for outcome in run_shards(&campaign, &plan, &shards, count, &live).unwrap() {
        assert!(!outcome.cancelled);
        assert_eq!(outcome.completed, 5);
    }
    let monolithic = campaign.run(&load, n, seed).unwrap();
    let (outcomes, _, bits) =
        merged_bits(&shards.iter().map(|(_, p)| p.clone()).collect::<Vec<_>>());
    assert_eq!(outcomes, monolithic.outcomes);
    assert_eq!(bits, monolithic.emulation_seconds.to_bits());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn run_shards_over_more_shards_than_the_open_file_limit_keeps_few_open() {
    // One fault per shard, more shards than the common open-file limit
    // (1024): the call must settle them all while holding at most
    // MAX_OPEN_JOURNALS journals open at once.
    let (nl, imp) = lfsr_campaign();
    let campaign = Campaign::new(&nl, imp, &["q"], 150).unwrap();
    let load = FaultLoad::pulses(TargetClass::AllLuts, DurationRange::SHORT);
    let (n, seed) = (1100usize, 8);
    let count = n as u32;
    let plan = campaign.plan(&load, n, seed).unwrap();
    let dir = scratch_dir("runshards-many");
    let shards: Vec<(u32, PathBuf)> = (0..count)
        .map(|s| (s, dir.join(format!("s{s:04}.jsonl"))))
        .collect();
    let live = ShardOptions {
        cancel: Some(CancelToken::new()),
        ..opts()
    };

    // Sample this process's open descriptors while the call runs (where
    // the platform lists them).
    let fd_dir = Path::new("/proc/self/fd");
    let done = AtomicBool::new(false);
    let (outcomes, peak) = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut peak = 0;
            while !done.load(Ordering::Relaxed) {
                if let Ok(entries) = fs::read_dir(fd_dir) {
                    peak = peak.max(entries.count());
                }
                std::thread::yield_now();
            }
            peak
        });
        let outcomes = run_shards(&campaign, &plan, &shards, count, &live);
        done.store(true, Ordering::Relaxed);
        (outcomes, sampler.join().unwrap())
    });
    let outcomes = outcomes.unwrap();
    if fd_dir.exists() {
        // `MAX_OPEN_JOURNALS` (256) journals, plus headroom for the standard
        // streams, the harness and concurrent tests; a call holding every
        // journal open would pass 1100.
        assert!(peak < 512, "{peak} descriptors open at once");
    }

    assert_eq!(outcomes.len(), n);
    for (shard, outcome) in outcomes.iter().enumerate() {
        assert_eq!(outcome.header.shard, shard as u32);
        assert_eq!((outcome.executed, outcome.completed), (1, 1));
        assert!(!outcome.cancelled);
    }
    let monolithic = campaign.run(&load, n, seed).unwrap();
    let (tallies, completed, bits) =
        merged_bits(&shards.iter().map(|(_, p)| p.clone()).collect::<Vec<_>>());
    assert_eq!(tallies, monolithic.outcomes);
    assert_eq!(completed, n as u64);
    assert_eq!(bits, monolithic.emulation_seconds.to_bits());
    let _ = fs::remove_dir_all(&dir);
}
