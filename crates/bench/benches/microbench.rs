//! Substrate microbenchmarks: raw speed of the FPGA device, the netlist
//! simulator, the implementation flow and single reconfigurations.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::missing_panics_doc)]

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fades_fpga::{ArchParams, Device, Mutation};
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
fn bench_telemetry_overhead(c: &mut Criterion) {
    let workload = workloads::bubblesort();
    let soc = build_soc(&workload.rom).expect("soc builds");
    const CYCLES: u64 = 256;

    let mut group = c.benchmark_group("telemetry_overhead");
    group
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2))
        .throughput(Throughput::Elements(CYCLES));

    fades_telemetry::set_enabled(false);
    group.bench_function("sim_256_cycles_disabled", |b| {
        let mut sim = Simulator::new(&soc.netlist).expect("simulates");
        b.iter(|| {
            sim.reset();
            sim.run(CYCLES);
        });
    });
    fades_telemetry::set_enabled(true);
    group.bench_function("sim_256_cycles_enabled", |b| {
        let mut sim = Simulator::new(&soc.netlist).expect("simulates");
        b.iter(|| {
            sim.reset();
            sim.run(CYCLES);
        });
    });
    fades_telemetry::set_enabled(false);
    fades_telemetry::sim::reset();
    group.finish();
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
                batch: true,
                static_preclassify: true,
            },
        )
        .expect("campaign");
        group.bench_function(name, |b| {
            b.iter(|| campaign.run_detailed(&load, 4, 7).expect("runs"));
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
    group.finish();
}

/// Bit-parallel lane engine vs the scalar per-experiment path: the same
/// 64-fault single-thread FF bit-flip campaign (identical plan, identical
/// outcomes and modelled time), emulated 63 machines at a time instead of
/// one. The ratio is the tentpole's payoff and should stay above 4x.
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
            batch: true,
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
        b.iter(|| campaign.run_detailed(&load, N_FAULTS, 7).expect("runs"));
    });
    group.bench_function("batched_64_ff_flips", |b| {
        b.iter(|| {
            campaign
                .run_batched_detailed(&load, N_FAULTS, 7)
                .expect("runs")
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
