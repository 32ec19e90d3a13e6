//! `paper-lane` and `delay-scalar`: monolithic campaigns, planned and
//! executed in-process once per load per round.
//!
//! `paper-lane` is the paper's campaign (four fault loads, 3000 faults
//! each) through `Campaign::execute_batched`, where nearly all the time
//! goes to the lane engine. `delay-scalar` runs routing delays, which the
//! lane engine cannot express, through the scalar `Campaign::execute`:
//! a change to the lane engine must read as no change there.

use std::time::Instant;

use fades_core::{Campaign, CampaignPlan, FaultLoad};

use crate::report::Metric;
use crate::setup::{self, CoreWork, Counters, Design, Error, Verdicts};
use crate::stats;
use crate::trace;
use crate::work::{Gates, RoundCtx, RoundOut, Work};

/// One load's campaign, as the warm-up round ran it.
struct Warm {
    load: usize,
    plan: CampaignPlan,
    verdicts: Verdicts,
}

/// Monolithic campaigns over a fixed set of loads.
pub struct CampaignWork<'a> {
    campaign: &'a Campaign<'a>,
    loads: Vec<(String, FaultLoad)>,
    n: usize,
    seed: u64,
    scalar: bool,
    warm: Vec<Warm>,
    /// Engine seconds per load per timed round: (load, traced, seconds).
    exec: Vec<(usize, bool, f64)>,
}

impl<'a> CampaignWork<'a> {
    /// Campaigns of `n` faults for each of `loads`, on the scalar engine
    /// when `scalar`, else through `execute_batched`.
    ///
    /// # Errors
    ///
    /// Unknown load names.
    pub fn new(
        design: &Design,
        campaign: &'a Campaign<'a>,
        loads: &[&str],
        n: usize,
        seed: u64,
        scalar: bool,
    ) -> Result<CampaignWork<'a>, Error> {
        Ok(CampaignWork {
            campaign,
            loads: loads
                .iter()
                .map(|l| Ok((l.to_string(), design.load(l)?)))
                .collect::<Result<_, Error>>()?,
            n,
            seed,
            scalar,
            warm: Vec::new(),
            exec: Vec::new(),
        })
    }
}

impl Work for CampaignWork<'_> {
    fn round(&mut self, ctx: &RoundCtx) -> Result<RoundOut, Error> {
        let mut out = RoundOut {
            round: ctx.r,
            ..RoundOut::default()
        };
        let mut results = Vec::with_capacity(self.loads.len());
        let t = Instant::now();
        for (i, (name, load)) in self.loads.iter().enumerate() {
            let _job = trace::span("bench.job", format!("{}/{name}", ctx.req));
            let tj = Instant::now();
            let plan = out.core.plan(self.campaign, load, self.n, self.seed)?;
            let te = Instant::now();
            let engine = if self.scalar {
                out.core.execute(self.campaign, &plan)?
            } else {
                let _s = trace::span("core.execute_batched", "");
                self.campaign.execute_batched(&plan, None)?
            };
            let secs = setup::secs(tj);
            if ctx.r > 0 {
                self.exec.push((i, ctx.traced, setup::secs(te)));
            }
            // Every experiment is a piece: its `wall_us` is its own time on
            // the scalar engine and its share of its lane word's time on the
            // lane engine. The rest of the call, planning included, is one
            // more piece.
            let mut in_experiments = 0.0;
            for r in &engine {
                let s = r.wall_us as f64 / 1e6;
                in_experiments += s;
                out.pieces.push(s);
            }
            out.pieces.push(secs - in_experiments);
            results.push((plan, engine));
        }
        out.wall_s = setup::secs(t);
        out.faults = self.n * self.loads.len();
        out.executed = out.faults;
        for (load, ((name, _), (plan, engine))) in self.loads.iter().zip(results).enumerate() {
            let verdicts = setup::verdicts_of(self.campaign, &plan, &engine);
            out.digest
                .push((name.clone(), setup::digest_of(&setup::stats_of(&verdicts))));
            if ctx.r == 0 {
                self.warm.push(Warm {
                    load,
                    plan,
                    verdicts,
                });
            }
        }
        Ok(out)
    }

    fn gates(&mut self, gates: &mut Gates, core: &mut CoreWork) -> Result<(), Error> {
        for warm in &self.warm {
            let name = &self.loads[warm.load].0;
            let bad = core.oracle_mismatches(self.campaign, &warm.plan, &warm.verdicts)?;
            gates.check(
                &format!("scalar oracle agrees on {name}, seed {}", warm.plan.seed),
                bad == 0,
                bad,
                format!(
                    "first {} experiments, outcome and modelled-seconds bits",
                    setup::ORACLE_EXPERIMENTS.min(warm.plan.len())
                ),
            );
        }
        Ok(())
    }

    fn extra(&self, traced: &Counters) -> Vec<Metric> {
        let engine = if self.scalar {
            "core.scalar"
        } else {
            "core.lane"
        };
        let mut out: Vec<Metric> = self
            .loads
            .iter()
            .enumerate()
            .map(|(i, (name, _))| {
                let secs: Vec<f64> = self
                    .exec
                    .iter()
                    .filter(|(l, t, _)| *l == i && !*t)
                    .map(|e| e.2)
                    .collect();
                Metric::new(
                    format!("{engine}.us_per_fault.{name}"),
                    stats::fastest(&secs) * 1e6 / self.n as f64,
                    "us",
                    secs.len(),
                )
            })
            .collect();
        if !self.scalar && traced.batch_cycles > 0 {
            let traced_secs: f64 = self.exec.iter().filter(|e| e.1).map(|e| e.2).sum();
            out.push(Metric::new(
                "core.lane.ns_per_batch_cycle",
                traced_secs * 1e9 / traced.batch_cycles as f64,
                "ns",
                traced.batch_cycles as usize,
            ));
        }
        out
    }
}
