//! Smoke tests: every regenerator produces a complete, well-formed
//! result at small fault counts.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::missing_panics_doc)]

use fades_experiments::{
    fig10, fig11, fig12, fig13, fig14, fig15, permanent, scaling, table1, table2, table3, table4,
    techniques, ExperimentContext,
};
use fades_netlist::UnitTag;

const N: usize = 6;
const SEED: u64 = 99;

fn ctx() -> ExperimentContext {
    ExperimentContext::new().expect("context builds")
}

#[test]
fn table1_lists_every_mechanism() {
    assert!(table1::table().len() >= 9);
}

#[test]
fn fig10_and_table2_cover_all_configurations() {
    let ctx = ctx();
    let f10 = fig10::run(&ctx, N, SEED).expect("fig10");
    assert_eq!(f10.rows.len(), 9);
    for row in &f10.rows {
        assert_eq!(row.stats.total(), N, "{}", row.label);
        assert!(row.stats.mean_seconds_per_fault() > 0.0);
    }
    let t2 = table2::from_fig10(&ctx, &f10);
    assert_eq!(t2.rows.len(), 9);
    for row in &t2.rows {
        assert!(row.speedup > 1.0, "{}: speed-up {}", row.label, row.speedup);
    }
    assert!(t2.combined_speedup > 5.0);
}

#[test]
fn fig11_reports_screening_and_both_campaigns() {
    let ctx = ctx();
    let r = fig11::run(&ctx, N, SEED).expect("fig11");
    assert!(r.sensitive_ffs > 0 && r.sensitive_ffs <= r.total_ffs);
    assert_eq!(r.registers.total(), N);
    assert_eq!(r.memory.total(), N);
}

#[test]
fn per_duration_figures_have_full_grids() {
    let ctx = ctx();
    let f12 = fig12::run(&ctx, N, SEED).expect("fig12");
    assert_eq!(f12.rows.len(), 6);
    assert_eq!(f12.failure_series("delay").len(), 3);
    for (runner, name) in [
        (fig13::run as fn(_, _, _) -> _, "fig13"),
        (fig14::run, "fig14"),
        (fig15::run, "fig15"),
    ] {
        let r = runner(&ctx, N, SEED).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(r.rows.len(), 9, "{name}");
        for unit in [UnitTag::Alu, UnitTag::MemCtl, UnitTag::Fsm] {
            assert_eq!(r.failure_series(unit).len(), 3, "{name}/{unit}");
        }
    }
}

#[test]
fn table3_compares_both_tools_and_skips_vfit_delays() {
    let ctx = ctx();
    let r = table3::run(&ctx, N, SEED).expect("table3");
    assert!(r.rows.len() >= 14);
    for row in &r.rows {
        if row.model == "delay" {
            assert!(row.vfit_failure_pct.is_none(), "VFIT cannot inject delays");
        }
    }
    assert!(r.rows.iter().any(|r| r.vfit_failure_pct.is_some()));
}

#[test]
fn table4_finds_multi_register_corruptions() {
    let ctx = ctx();
    let r = table4::run(&ctx, SEED).expect("table4");
    assert!(r.examples >= 1, "at least one multi-register pulse example");
    assert!(r.rows.len() >= 2);
}

#[test]
fn techniques_orders_rtr_ctr_simulation() {
    let ctx = ctx();
    let r = techniques::run(&ctx, N, SEED).expect("techniques");
    assert_eq!(r.rows.len(), 3);
    let s: Vec<f64> = r.rows.iter().map(|x| x.seconds_per_fault).collect();
    // RTR < simulation < CTR for this model size (paper §7.3).
    assert!(s[0] < s[2], "RTR beats simulation: {s:?}");
    assert!(s[2] < s[1], "simulation beats per-version CTR: {s:?}");
}

#[test]
fn permanent_models_all_produce_outcomes() {
    let ctx = ctx();
    let r = permanent::run(&ctx, N, SEED).expect("permanent");
    assert_eq!(r.rows.len(), 5);
    for row in &r.rows {
        assert_eq!(row.outcomes.total(), N);
    }
    // Stuck FFs must be worse than stuck-open (a single flipped
    // truth-table entry is the mildest permanent fault).
    let stuck_ff = r.rows.last().unwrap().outcomes.failure_pct();
    let stuck_open = r.rows[3].outcomes.failure_pct();
    assert!(stuck_ff >= stuck_open, "{stuck_ff} vs {stuck_open}");
}

#[test]
fn scaling_speedup_grows_with_workload_length() {
    let r = scaling::run(N, SEED).expect("scaling");
    assert_eq!(r.rows.len(), 4);
    assert!(
        r.speedup_grows_with_cycles(),
        "speed-up grows with cycles: {:?}",
        r.rows
    );
}

/// The merged tallies a journal set reports, with `emulation_seconds`
/// as its exact bit pattern.
fn merged(journals: &[std::path::PathBuf]) -> (fades_core::OutcomeStats, usize, u64, u64, usize) {
    let report = fades_dispatch::merge(journals).expect("merge");
    assert!(report.is_complete(), "{report:?}");
    (
        report.stats.outcomes,
        report.stats.n,
        report.stats.emulation_seconds.to_bits(),
        report.completed,
        report.quarantined.len(),
    )
}

#[test]
fn service_jobs_sharing_one_campaign_match_fresh_campaigns_bit_for_bit() {
    use fades_experiments::dispatch_cli::named_load;
    use fades_experiments::service_cli::ExperimentBackend;
    use fades_service::{CampaignBackend, JobSpec};

    let dir = std::env::temp_dir().join(format!("fades-shared-campaign-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let jobs = [("pulse-luts", 40u64, 5u64, 2u32), ("bitflip-mem", 30, 8, 3)];
    let specs: Vec<JobSpec> = jobs
        .iter()
        .enumerate()
        .map(|(i, &(load, faults, seed, shards))| JobSpec {
            id: format!("job-{:06}", i + 1),
            label: load.into(),
            load: load.into(),
            faults,
            seed,
            shards,
            submitted_at_ms: 0,
        })
        .collect();
    let journal = |side: &str, spec: &JobSpec, shard: u32| {
        dir.join(format!("{side}-{}-s{shard}.jsonl", spec.id))
    };

    // Every shard of both jobs at once, all borrowing one backend; the
    // barrier makes them start together.
    let backend = ExperimentBackend::new().expect("backend");
    let cancel = fades_dispatch::CancelToken::new();
    let start = std::sync::Barrier::new(specs.iter().map(|s| s.shards as usize).sum());
    std::thread::scope(|s| {
        for spec in &specs {
            for shard in 0..spec.shards {
                let (backend, cancel, start) = (&backend, &cancel, &start);
                let path = journal("shared", spec, shard);
                s.spawn(move || {
                    start.wait();
                    let run = backend
                        .run_shard(spec, shard, &path, cancel)
                        .expect("shard");
                    assert!(!run.cancelled);
                });
            }
        }
    });

    // The same plans, one freshly built campaign per job.
    let ctx = ctx();
    for spec in &specs {
        let campaign = ctx.fades_campaign().unwrap();
        let load = named_load(&ctx, &spec.load).unwrap();
        let plan = campaign
            .plan(&load, spec.faults as usize, spec.seed)
            .unwrap();
        let opts = fades_dispatch::ShardOptions {
            load: spec.load.clone(),
            retries: 1,
            with_recorder: true,
            batch: true,
            cancel: None,
        };
        for shard in 0..spec.shards {
            fades_dispatch::run_shard(
                &campaign,
                &plan,
                shard,
                spec.shards,
                &journal("fresh", spec, shard),
                &opts,
            )
            .unwrap();
        }
        let paths = |side: &str| -> Vec<_> {
            (0..spec.shards)
                .map(|shard| journal(side, spec, shard))
                .collect()
        };
        assert_eq!(
            merged(&paths("shared")),
            merged(&paths("fresh")),
            "{}: shared-campaign merge differs from a fresh campaign's",
            spec.load
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
