//! Substrate microbenchmarks: raw speed of the FPGA device, the netlist
//! simulator, the implementation flow and single reconfigurations.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::missing_panics_doc)]

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fades_fpga::{ArchParams, BatchDevice, Device, Mutation};
use fades_mcu8051::{build_soc, workloads};
use fades_netlist::Simulator;
use fades_pnr::implement;

fn bench_substrate(c: &mut Criterion) {
    let workload = workloads::bubblesort();
    let soc = build_soc(&workload.rom).expect("soc builds");
    let imp = implement(&soc.netlist, ArchParams::virtex1000_like()).expect("implements");

    let mut group = c.benchmark_group("substrate");
    group
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));

    group.bench_function("pnr_implement_8051", |b| {
        b.iter(|| implement(&soc.netlist, ArchParams::virtex1000_like()).expect("implements"));
    });
    group.bench_function("device_configure_8051", |b| {
        b.iter(|| Device::configure(imp.bitstream.clone()).expect("configures"));
    });
    // The per-experiment restore: one rewritten LUT table (the common
    // single-cell fault) undone, memory contents and runtime state reset.
    // Routing faults add one timing re-analysis (`timing_reanalysis`).
    group.bench_function("device_reset_8051", |b| {
        let mut dev = Device::configure(imp.bitstream.clone()).expect("configures");
        let cb = imp.bitstream.used_luts()[0];
        dev.run(64);
        b.iter(|| {
            dev.apply(&Mutation::SetLutTable { cb, table: 0xBEEF })
                .expect("applies");
            dev.reset();
        });
    });

    const CYCLES: u64 = 256;
    group.throughput(Throughput::Elements(CYCLES));
    group.bench_function("device_run_256_cycles", |b| {
        let mut dev = Device::configure(imp.bitstream.clone()).expect("configures");
        b.iter(|| {
            dev.reset();
            dev.run(CYCLES);
        });
    });
    group.bench_function("netlist_sim_256_cycles", |b| {
        let mut sim = Simulator::new(&soc.netlist).expect("simulates");
        b.iter(|| {
            sim.reset();
            sim.run(CYCLES);
        });
    });
    group.finish();

    let mut group = c.benchmark_group("reconfiguration");
    group.sample_size(10);
    let lut = imp.bitstream.used_luts()[0];
    let ff = imp.bitstream.used_ffs()[0];
    let mut dev = Device::configure(imp.bitstream.clone()).expect("configures");
    group.bench_function("set_lut_table", |b| {
        b.iter(|| {
            dev.apply(&Mutation::SetLutTable {
                cb: lut,
                table: 0xBEEF,
            })
            .expect("applies");
        });
    });
    group.bench_function("readback_ff", |b| {
        b.iter(|| dev.readback_ff(ff).expect("reads"));
    });
    group.bench_function("pulse_lsr", |b| {
        b.iter(|| dev.apply(&Mutation::PulseLsr { cb: ff }).expect("applies"));
    });
    group.bench_function("timing_reanalysis", |b| b.iter(|| dev.recompute_timing()));
    group.finish();
}

/// Interpreter cost with telemetry disabled vs enabled. The disabled
/// variant is the acceptance gate: the `sim` counters must be a single
/// relaxed load per settle, i.e. indistinguishable from the seed's
/// uninstrumented interpreter.
///
/// A mean of a few samples cannot rank the two on a shared host, so each
/// side's figure is the fastest of [`OVERHEAD_ROUNDS`] timings, taken
/// interleaved on one simulator (interference only ever adds time, and a
/// slow spell of the host lands on both sides alike).
fn bench_telemetry_overhead(_: &mut Criterion) {
    const CYCLES: u64 = 256;
    const OVERHEAD_ROUNDS: usize = 100;
    let workload = workloads::bubblesort();
    let soc = build_soc(&workload.rom).expect("soc builds");
    let mut sim = Simulator::new(&soc.netlist).expect("simulates");
    let mut fastest = [u128::MAX; 2];
    for round in 0..OVERHEAD_ROUNDS {
        // Alternate which side goes first, so neither always runs on the
        // caches the other warmed.
        for enabled in [round % 2 == 1, round % 2 == 0] {
            fades_telemetry::set_enabled(enabled);
            let t = Instant::now();
            sim.reset();
            sim.run(CYCLES);
            let ns = &mut fastest[usize::from(enabled)];
            *ns = (*ns).min(t.elapsed().as_nanos());
        }
    }
    fades_telemetry::set_enabled(false);
    fades_telemetry::sim::reset();
    for (side, ns) in ["disabled", "enabled"].iter().zip(fastest) {
        println!(
            "telemetry_overhead/sim_{CYCLES}_cycles_{side}  fastest of {OVERHEAD_ROUNDS}: {ns} ns"
        );
    }
}

/// Checkpointed fast-forward path vs the reference full-simulation path:
/// identical experiments (same seeds, same outcomes, same modelled time),
/// different host wall-clock. The gap is the tentpole's payoff and should
/// stay well above 2x on the 8051.
fn bench_fastpath(c: &mut Criterion) {
    use fades_core::{Campaign, CampaignConfig, DurationRange, FaultLoad, TargetClass};
    use fades_mcu8051::OBSERVED_PORTS;

    let workload = workloads::bubblesort();
    let soc = build_soc(&workload.rom).expect("soc builds");
    let imp = implement(&soc.netlist, ArchParams::virtex1000_like()).expect("implements");
    let load = FaultLoad::bit_flips(TargetClass::AllFfs, DurationRange::SubCycle);

    let mut group = c.benchmark_group("campaign_path");
    group
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(5));
    for (name, fastpath) in [
        ("fastpath_4_experiments", true),
        ("full_sim_4_experiments", false),
    ] {
        let campaign = Campaign::with_config(
            &soc.netlist,
            imp.clone(),
            &OBSERVED_PORTS,
            1330,
            CampaignConfig {
                threads: 1,
                margin_cycles: 64,
                fastpath,
                static_preclassify: true,
            },
        )
        .expect("campaign");
        group.bench_function(name, |b| {
            b.iter(|| {
                campaign
                    .execute(&campaign.plan(&load, 4, 7).expect("plans"), None)
                    .expect("runs")
            });
        });
    }
    group.finish();
}

/// Interpreter settle cost with no forces versus one active force. The
/// per-net force index makes the zero-force hot path a single early-out,
/// so the no-force variant must match the uninstrumented interpreter and
/// one force must not reintroduce a per-LUT linear scan.
fn bench_settle_throughput(c: &mut Criterion) {
    use fades_netlist::{Force, NetId};

    let workload = workloads::bubblesort();
    let soc = build_soc(&workload.rom).expect("soc builds");
    const CYCLES: u64 = 256;

    let mut group = c.benchmark_group("settle_throughput");
    group
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2))
        .throughput(Throughput::Elements(CYCLES));

    group.bench_function("sim_256_cycles_no_forces", |b| {
        let mut sim = Simulator::new(&soc.netlist).expect("simulates");
        b.iter(|| {
            sim.reset();
            sim.run(CYCLES);
        });
    });
    group.bench_function("sim_256_cycles_one_force", |b| {
        let mut sim = Simulator::new(&soc.netlist).expect("simulates");
        b.iter(|| {
            sim.reset();
            sim.force(Force::flip(NetId::from_index(soc.netlist.net_count() / 2)));
            sim.run(CYCLES);
        });
    });

    // The lane engine's settle sweep, clock edge and merge scan per word
    // width are timed by `fades-experiments kernels` (the fastest of many
    // interleaved timings, which ranks builds where a mean cannot).
    let imp = implement(&soc.netlist, ArchParams::virtex1000_like()).expect("implements");
    let dev = Device::configure(imp.bitstream).expect("configures");
    // Building the lane engine from the configured device: every
    // service shard and every `execute_batched` call pays it once.
    group
        .sample_size(31)
        .throughput(Throughput::Elements(BUILDS));
    batch_device_new::<1>(&mut group, &dev);
    batch_device_new::<4>(&mut group, &dev);
    batch_device_new::<8>(&mut group, &dev);
    group.finish();
}

/// Engine builds per `batch_device_new_w*` iteration (reported per build).
const BUILDS: u64 = 4;

/// Benches `BatchDevice::<W>::new` over the placed 8051 as
/// `batch_device_new_w{W}`.
fn batch_device_new<const W: usize>(group: &mut criterion::BenchmarkGroup<'_>, dev: &Device) {
    group.bench_function(&format!("batch_device_new_w{W}"), |b| {
        b.iter(|| {
            for _ in 0..BUILDS {
                criterion::black_box(BatchDevice::<W>::new(dev).expect("lane-encodable"));
            }
        });
    });
}

/// Bit-parallel lane engine vs the scalar per-experiment path: the same
/// 64-fault single-thread FF bit-flip campaign (identical plan, identical
/// outcomes and modelled time), emulated 63 machines at a time (64 faults
/// select the 64-lane word) instead of one. The ratio is the tentpole's payoff and should stay above 4x.
fn bench_batch(c: &mut Criterion) {
    use fades_core::{Campaign, CampaignConfig, DurationRange, FaultLoad, TargetClass};
    use fades_mcu8051::OBSERVED_PORTS;

    let workload = workloads::bubblesort();
    let soc = build_soc(&workload.rom).expect("soc builds");
    let imp = implement(&soc.netlist, ArchParams::virtex1000_like()).expect("implements");
    let load = FaultLoad::bit_flips(TargetClass::AllFfs, DurationRange::SubCycle);
    const N_FAULTS: usize = 64;

    let campaign = Campaign::with_config(
        &soc.netlist,
        imp,
        &OBSERVED_PORTS,
        1330,
        CampaignConfig {
            threads: 1,
            margin_cycles: 64,
            fastpath: true,
            static_preclassify: true,
        },
    )
    .expect("campaign");

    let mut group = c.benchmark_group("batch_throughput");
    group
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(10))
        .throughput(Throughput::Elements(N_FAULTS as u64));
    group.bench_function("scalar_64_ff_flips", |b| {
        b.iter(|| {
            campaign
                .execute(&campaign.plan(&load, N_FAULTS, 7).expect("plans"), None)
                .expect("runs")
        });
    });
    group.bench_function("batched_64_ff_flips", |b| {
        b.iter(|| {
            let plan = campaign.plan(&load, N_FAULTS, 7).expect("plans");
            campaign.execute_batched(&plan, None).expect("runs")
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_substrate,
    bench_telemetry_overhead,
    bench_fastpath,
    bench_settle_throughput,
    bench_batch
);
criterion_main!(benches);
