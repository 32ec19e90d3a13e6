//! The interface between the run loop and the four workloads.

use std::path::Path;

use fades_core::Campaign;

use crate::report::Metric;
use crate::run::Sizes;
use crate::setup::{CoreWork, Counters, Design, Error};

/// Where a round runs.
pub struct RoundCtx {
    /// Round number (0 = warm-up).
    pub r: usize,
    /// Whether the round belongs to the traced phase.
    pub traced: bool,
    /// Request id of the round, `round-<r>`.
    pub req: String,
    /// The round's span, for work moved to other threads.
    pub span: Option<u64>,
}

/// What one round did.
#[derive(Debug, Default)]
pub struct RoundOut {
    /// Round number.
    pub round: usize,
    /// Host seconds the round's work took.
    pub wall_s: f64,
    /// Faults classified for the user (throughput numerator).
    pub faults: usize,
    /// Experiments the engines executed (resumed work included).
    pub executed: usize,
    /// Host seconds of each timed piece of the round, in the order the
    /// round ran them: every round runs the same pieces in the same
    /// order. Together the pieces cover the round's work; `faults_per_s`
    /// sums the fastest repeat of each. Empty when the rounds' work does
    /// not repeat identically; `faults_per_s` is then the faults of all
    /// rounds over their summed `wall_s`.
    pub pieces: Vec<f64>,
    /// Experiments lost to quarantine, failed jobs or wrong results.
    pub failed: usize,
    /// Modelled results by load or job spec (see `setup::digest_of`).
    pub digest: Vec<(String, String)>,
    /// Planning and scalar-engine work the round did.
    pub core: CoreWork,
}

/// Correctness gates and their verdicts.
#[derive(Debug)]
pub struct Gates {
    /// One line per check.
    pub lines: Vec<String>,
    /// Whether every check passed.
    pub ok: bool,
    /// Experiments a failed check covers.
    pub failed: usize,
}

impl Default for Gates {
    fn default() -> Self {
        Gates {
            lines: Vec::new(),
            ok: true,
            failed: 0,
        }
    }
}

impl Gates {
    /// Records one check; `failed` counts the experiments it found wrong.
    pub fn check(&mut self, name: &str, ok: bool, failed: usize, detail: impl std::fmt::Display) {
        self.ok &= ok;
        self.failed += failed;
        let verdict = if ok { "ok" } else { "FAILED" };
        self.lines.push(format!("{name}: {verdict} ({detail})"));
    }
}

/// One workload.
pub trait Work {
    /// Runs round `ctx.r`.
    ///
    /// # Errors
    ///
    /// Infrastructure failures.
    fn round(&mut self, ctx: &RoundCtx) -> Result<RoundOut, Error>;

    /// Work that belongs to round `ctx.r` but not to its time: traced
    /// side measurements and cleanup. Runs outside the round's span.
    ///
    /// # Errors
    ///
    /// Infrastructure failures.
    fn after_round(&mut self, _ctx: &RoundCtx) -> Result<(), Error> {
        Ok(())
    }

    /// The workload's own correctness gates, after the timed phase.
    /// Planning and scalar-oracle work is accounted to `core`.
    ///
    /// # Errors
    ///
    /// Infrastructure failures.
    fn gates(&mut self, gates: &mut Gates, core: &mut CoreWork) -> Result<(), Error>;

    /// Layer metrics only this workload has (outside the catalogue).
    /// `traced` is the counter movement over the traced rounds.
    fn extra(&self, traced: &Counters) -> Vec<Metric>;

    /// Benchmark threads issuing requests at once.
    fn concurrency(&self) -> usize {
        1
    }
}

/// Builds the named workload over a prepared campaign.
///
/// # Errors
///
/// Unknown workload names, or the service failing to start.
pub fn build<'a>(
    name: &str,
    design: &'a Design,
    campaign: &'a Campaign<'a>,
    seed: u64,
    sizes: Sizes,
    tmp: &Path,
) -> Result<Box<dyn Work + 'a>, Error> {
    Ok(match name {
        "paper-lane" => Box::new(crate::campaigns::CampaignWork::new(
            design,
            campaign,
            &["bitflip-ffs", "bitflip-mem", "pulse-luts", "indet-ffs"],
            sizes.faults,
            seed,
            false,
        )?),
        "delay-scalar" => Box::new(crate::campaigns::CampaignWork::new(
            design,
            campaign,
            &["delay-wires"],
            sizes.delay_faults,
            seed,
            true,
        )?),
        "sharded-resume" => Box::new(crate::sharded::ShardedWork::new(
            design,
            campaign,
            sizes.faults,
            seed,
            tmp,
        )?),
        "service-jobs" => Box::new(crate::service::ServiceWork::start(
            design, campaign, sizes, seed, tmp,
        )?),
        other => return Err(format!("unknown workload `{other}`").into()),
    })
}
