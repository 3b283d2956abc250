//! The three workloads. Each runs closed-loop on one process through the
//! public `Deal` and `Sweep` APIs, in passes: one pass performs every
//! operation of the workload's input set once, so counts taken over whole
//! passes repeat exactly.
//!
//! Every workload offers the same pass twice: [`Workload::pass`] makes the
//! library call a user makes, timed from entry to return (on the sweep, each
//! cell's engine call); and [`Workload::traced_pass`] makes the calls that
//! call decomposes into (`Deal::plan`, `setup::world_for_plan`,
//! `DealEngine::execute`), or keeps the spans of the sweep's engine calls,
//! recording a span around each. Both check every outcome outside the timed
//! call.

use std::sync::Arc;
use std::time::Instant;

use xchain_deals::builders::ring_spec;
use xchain_deals::engine::{DealEngine, EngineRun, Protocol};
use xchain_deals::error::DealError;
use xchain_deals::outcome::{DealOutcome, ProtocolKind};
use xchain_deals::party::{fresh_configs, PartyConfig};
use xchain_deals::phases::Phase;
use xchain_deals::plan::DealPlan;
use xchain_deals::properties::{check_conservation, check_safety, check_weak_liveness};
use xchain_deals::spec::DealSpec;
use xchain_deals::{setup, Deal};
use xchain_harness::adversary::strategy_scenarios;
use xchain_harness::experiments::two_party_deal;
use xchain_harness::sweep::{engine_factory, standard_engines, EngineFactory, Sweep};
use xchain_harness::workload::{broker_spec, random_well_formed_deal, RandomDealParams};
use xchain_sim::crypto::{splitmix64, FnvHasher};
use xchain_sim::ids::DealId;
use xchain_sim::network::NetworkModel;
use xchain_sim::world::World;

use crate::alloc_count::{self, Counts};
use crate::digest::fold_outcome;
use crate::trace::{SpanId, SpanSink, Tracer};

/// The phases whose gas the benchmark reports, with their metric names.
pub const GAS_PHASES: [(Phase, &str); 3] = [
    (Phase::Escrow, "escrow"),
    (Phase::Transfer, "transfer"),
    (Phase::Commit, "commit"),
];

/// The gas counters the benchmark reports per phase.
pub const GAS_COUNTERS: [&str; 4] = [
    "calls",
    "sig_verifications",
    "log_entries",
    "storage_writes",
];

/// What passes record.
#[derive(Default)]
pub struct Recorder {
    /// Operations attempted: deals, or sweep cells.
    pub ops: u64,
    /// Operations that returned `Err` or failed a check.
    pub failed: u64,
    /// Per-operation latency of the library call, in µs. On a sweep the
    /// call is the engine's `execute` for one cell, timed on its worker.
    pub latencies_us: Vec<f64>,
    /// Heap traffic inside the library calls.
    pub heap: Counts,
    /// Present on exact passes: the outcome digest so far.
    pub digest: Option<FnvHasher>,
    /// Gas counters summed over operations, `[phase][counter]` in the order
    /// of [`GAS_PHASES`] and [`GAS_COUNTERS`] (exact passes only).
    pub gas: [[u64; 4]; 3],
    /// Sweep cells skipped because an engine cannot express a spec.
    pub skipped: u64,
    /// Live heap bytes each exact pass's `Sweep::run` left behind in its
    /// outcome, summed.
    pub retained_bytes: i64,
    /// Sweep cells outside their protocol's timing model (see
    /// [`AdversarialSweep`]) where a compliant party lost assets.
    pub unsafe_outside_model: u64,
}

impl Recorder {
    /// A recorder for an exact pass: it also folds every outcome into the
    /// digest and sums the gas counters.
    pub fn exact() -> Self {
        Recorder {
            digest: Some(FnvHasher::new()),
            ..Recorder::default()
        }
    }

    /// Records one operation's checked outcome.
    fn outcome(&mut self, outcome: &DealOutcome, ok: bool) {
        self.failed += u64::from(!ok);
        if let Some(h) = &mut self.digest {
            fold_outcome(h, outcome);
            for (row, (phase, _)) in self.gas.iter_mut().zip(GAS_PHASES) {
                let g = outcome.metrics.gas(phase);
                let counts = [
                    g.calls,
                    g.sig_verifications,
                    g.log_entries,
                    g.storage_writes,
                ];
                for (sum, c) in row.iter_mut().zip(counts) {
                    *sum += c;
                }
            }
        }
    }

    /// The digest of the outcomes recorded so far (exact passes only).
    pub fn digest_value(&self) -> Option<u64> {
        self.digest.as_ref().map(|h| h.finish().0)
    }
}

/// A workload: an input set fixed by the seed, run pass by pass.
pub trait Workload {
    /// Runs every operation once through the public API. Exact passes
    /// (`rec.digest` set) run on a fixed schedule so their counts repeat.
    fn pass(&self, rec: &mut Recorder);

    /// Runs every operation once through traced, decomposed calls.
    fn traced_pass(&self, tracer: &mut Tracer, rec: &mut Recorder);
}

/// The paper's checks on one deal outcome: Property 1 (safety), asset
/// conservation, Property 2 (weak liveness), and — on workloads where every
/// party is compliant — that every chain committed.
fn checks_hold(
    spec: &DealSpec,
    configs: &[PartyConfig],
    outcome: &DealOutcome,
    all_compliant: bool,
) -> bool {
    check_safety(spec, configs, outcome).holds()
        && liveness_holds(spec, configs, outcome, all_compliant)
}

/// The checks of [`checks_hold`] other than safety.
fn liveness_holds(
    spec: &DealSpec,
    configs: &[PartyConfig],
    outcome: &DealOutcome,
    all_compliant: bool,
) -> bool {
    check_conservation(spec, outcome)
        && check_weak_liveness(spec, configs, outcome)
        && (!all_compliant || outcome.committed_everywhere())
}

/// The span name of an engine's `execute` call.
fn execute_span(kind: ProtocolKind) -> &'static str {
    match kind {
        ProtocolKind::Timelock => "execute.timelock",
        ProtocolKind::Cbc => "execute.cbc",
        ProtocolKind::Swap => "execute.swap",
    }
}

/// The network every single-deal workload runs on: synchronous, ∆ = 100.
fn network() -> NetworkModel {
    NetworkModel::synchronous(100)
}

/// Times one library call that yields a deal, recording its latency and the
/// heap traffic inside it.
fn timed_call<T>(rec: &mut Recorder, call: impl FnOnce() -> T) -> T {
    let heap = alloc_count::thread_counts();
    let start = Instant::now();
    let out = call();
    let elapsed = start.elapsed();
    let after = alloc_count::thread_counts();
    rec.latencies_us.push(elapsed.as_secs_f64() * 1e6);
    rec.heap += heap.delta_to(&after);
    out
}

/// One deal of a single-deal workload.
struct DealInput {
    spec: DealSpec,
    engine: Protocol,
    seed: u64,
}

/// A single-deal workload: a fixed list of deals, all compliant, on a
/// synchronous network. With `shared_plan` the plan is resolved once in
/// set-up and every deal runs through `Deal::run_planned`; without it every
/// deal is a new session that resolves its own plan (`Deal::run`).
pub struct Deals {
    inputs: Vec<DealInput>,
    shared_plan: Option<Arc<DealPlan>>,
}

/// The sweep's label for its synchronous network.
const SYNCHRONOUS: &str = "synchronous";

/// Distinct random deals in `market_mix`'s input set.
const MARKET_DEALS: u64 = 2048;
/// Deal seeds in `ring9_timelock`'s input set.
const RING_SEEDS: u64 = 256;

impl Deals {
    /// `market_mix`: distinct random well-formed deals with 2–5 parties and
    /// 0–2 extra hops, alternating between timelock and CBC. Each engine
    /// cycles through the twelve (parties, hops) shapes in equal shares, so
    /// the mix of deal sizes is the same for every seed; the seed picks the
    /// hops' endpoints and amounts and the world seeds.
    pub fn market_mix(seed: u64) -> Self {
        let inputs = (0..MARKET_DEALS)
            .map(|i| {
                let r = splitmix64(seed ^ splitmix64(i));
                let shape = (i / 2) % 12;
                let params = RandomDealParams {
                    parties: 2 + (shape % 4) as u32,
                    extra_transfers: (shape / 4) as u32,
                    amount: 100,
                };
                DealInput {
                    spec: random_well_formed_deal(DealId(i), &params, splitmix64(r)),
                    engine: if i % 2 == 0 {
                        Protocol::timelock()
                    } else {
                        Protocol::cbc()
                    },
                    seed: splitmix64(r ^ 1),
                }
            })
            .collect();
        Deals {
            inputs,
            shared_plan: None,
        }
    }

    /// `ring9_timelock`: the nine-party ring under the timelock protocol,
    /// one shared plan, a new world seed per deal.
    pub fn ring9_timelock(seed: u64) -> Result<Self, DealError> {
        let spec = ring_spec(DealId(9), 9);
        let plan = Deal::new(spec.clone()).plan()?;
        let inputs = (0..RING_SEEDS)
            .map(|i| DealInput {
                spec: spec.clone(),
                engine: Protocol::timelock(),
                seed: splitmix64(seed ^ splitmix64(i)),
            })
            .collect();
        Ok(Deals {
            inputs,
            shared_plan: Some(plan),
        })
    }

    /// The decomposed deal: what `Deal::run` / `Deal::run_planned` do, one
    /// traced call per layer, inside a `deal` span that also covers the
    /// checks. The session is built outside the span, as the untraced pass
    /// builds it outside the timed call. Returns the run's parts, so the
    /// caller can drop them in a span of their own, and whether the checks
    /// held.
    fn traced_deal(
        &self,
        tr: &mut Tracer,
        input: &DealInput,
    ) -> Result<(World, EngineRun, bool), DealError> {
        let session = Deal::new(input.spec.clone())
            .network(network())
            .seed(input.seed);
        tr.span("deal", None, |tr, deal: SpanId| {
            let plan = match &self.shared_plan {
                Some(plan) => plan.clone(),
                None => tr.span("plan", Some(deal), |_, _| session.plan())?,
            };
            let mut world = tr.span("setup", Some(deal), |_, _| {
                setup::world_for_plan(&plan, network(), input.seed)
            })?;
            let configs = fresh_configs(session.configs());
            let run = tr.span(execute_span(input.engine.kind()), Some(deal), |_, _| {
                input.engine.execute(&mut world, &plan, &configs)
            })?;
            let ok = tr.span("properties", Some(deal), |_, _| {
                checks_hold(&input.spec, &configs, &run.outcome, true)
            });
            Ok((world, run, ok))
        })
    }
}

impl Workload for Deals {
    fn pass(&self, rec: &mut Recorder) {
        for input in &self.inputs {
            rec.ops += 1;
            let session = Deal::new(input.spec.clone())
                .network(network())
                .seed(input.seed);
            let result = timed_call(rec, || match &self.shared_plan {
                Some(plan) => session.run_planned(plan, &input.engine),
                None => session.run(&input.engine),
            });
            match result {
                Ok(run) => {
                    let ok = checks_hold(&input.spec, &[], &run.outcome, true);
                    rec.outcome(&run.outcome, ok);
                }
                Err(_) => rec.failed += 1,
            }
        }
    }

    fn traced_pass(&self, tracer: &mut Tracer, rec: &mut Recorder) {
        for input in &self.inputs {
            rec.ops += 1;
            match self.traced_deal(tracer, input) {
                Ok((world, run, ok)) => {
                    rec.outcome(&run.outcome, ok);
                    tracer.span("drop", None, |_, _| drop((world, run)));
                }
                Err(_) => rec.failed += 1,
            }
        }
    }
}

/// An engine that records a span around every `execute` call on whichever
/// sweep worker runs it.
#[derive(Clone)]
struct TimedEngine {
    inner: Arc<dyn DealEngine + Send + Sync>,
    sink: SpanSink,
}

impl DealEngine for TimedEngine {
    fn kind(&self) -> ProtocolKind {
        self.inner.kind()
    }

    fn label(&self) -> String {
        self.inner.label()
    }

    fn supports(&self, spec: &DealSpec) -> bool {
        self.inner.supports(spec)
    }

    fn execute(
        &self,
        world: &mut World,
        plan: &DealPlan,
        configs: &[PartyConfig],
    ) -> Result<EngineRun, DealError> {
        self.sink.record(execute_span(self.inner.kind()), || {
            self.inner.execute(world, plan, configs)
        })
    }
}

/// `adversarial_sweep`: every standard engine against every strategy
/// scenario on three specs and two networks, as one `Sweep` per operation
/// set. One operation is one sweep cell. The timed sweep runs its engines
/// through [`TimedEngine`], so each cell's `execute` call is timed on the
/// worker that runs it: untraced passes keep those times as latency samples,
/// traced passes also keep the spans.
///
/// Every cell must conserve assets and leave no compliant party's escrow
/// unresolved, and every cell inside its protocol's timing model must be
/// safe. The HTLC swap assumes a synchronous network (Herlihy, *Atomic
/// Cross-Chain Swaps*): before GST a compliant party's claim can arrive after
/// its hashlock expired, and on some cell seeds it does. Those cells are
/// counted in [`Recorder::unsafe_outside_model`] and reported, not failed.
pub struct AdversarialSweep {
    /// The sweep the measured loop runs, with [`TimedEngine`]s, on the given
    /// number of workers.
    timed: Sweep,
    /// The same sweep with the plain engines on one worker. Exact passes use
    /// it: the split of cells between workers changes the executor's own
    /// allocations, and the timing wrapper would add its own.
    serial: Sweep,
    sink: SpanSink,
}

impl AdversarialSweep {
    /// Builds the two sweeps for `seed`, the timed one on `threads` workers.
    pub fn new(seed: u64, threads: usize) -> Self {
        let sink = SpanSink::default();
        let timed_engines = standard_engines(100)
            .into_iter()
            .map(|(label, make)| {
                let timed = TimedEngine {
                    inner: Arc::from(make()),
                    sink: sink.clone(),
                };
                (label, engine_factory(timed))
            })
            .collect();
        AdversarialSweep {
            timed: Self::sweep(seed, timed_engines).threads(threads),
            serial: Self::sweep(seed, standard_engines(100)).threads(1),
            sink,
        }
    }

    fn sweep(seed: u64, engines: Vec<(String, EngineFactory)>) -> Sweep {
        Sweep::new()
            .spec("broker", broker_spec())
            .spec("ring n=4", ring_spec(DealId(4), 4))
            .spec("two-party swap", two_party_deal())
            .over_protocols(engines)
            .over_networks(vec![
                (SYNCHRONOUS.into(), NetworkModel::synchronous(100)),
                (
                    "eventually synchronous".into(),
                    NetworkModel::eventually_synchronous(500, 100, 1_000),
                ),
            ])
            .over_adversaries(|spec| strategy_scenarios(spec, 100))
            .seed(seed)
    }

    /// Checks every cell of a sweep outcome.
    fn check(outcome: &xchain_harness::SweepOutcome, rec: &mut Recorder) {
        for p in &outcome.points {
            let in_model = p.run.outcome.protocol != ProtocolKind::Swap || p.network == SYNCHRONOUS;
            let safe = check_safety(&p.deal, &p.configs, &p.run.outcome).holds();
            rec.unsafe_outside_model += u64::from(!in_model && !safe);
            let ok =
                (safe || !in_model) && liveness_holds(&p.deal, &p.configs, &p.run.outcome, false);
            rec.outcome(&p.run.outcome, ok);
        }
    }

    /// Counts the cells of a finished `Sweep::run` call, or its failure.
    fn count(rec: &mut Recorder, result: &Result<xchain_harness::SweepOutcome, DealError>) {
        match result {
            Ok(outcome) => {
                rec.ops += outcome.points.len() as u64;
                rec.skipped += outcome.skipped as u64;
            }
            Err(_) => {
                rec.ops += 1;
                rec.failed += 1;
            }
        }
    }
}

impl Workload for AdversarialSweep {
    fn pass(&self, rec: &mut Recorder) {
        let result = if rec.digest.is_some() {
            let heap = alloc_count::totals();
            let result = self.serial.run();
            let d = heap.delta_to(&alloc_count::totals());
            rec.heap += d;
            rec.retained_bytes += d.live();
            result
        } else {
            let result = self.timed.run();
            let cells = self.sink.drain();
            rec.latencies_us
                .extend(cells.iter().map(|s| s.len() as f64 / 1e3));
            result
        };
        Self::count(rec, &result);
        if let Ok(outcome) = &result {
            Self::check(outcome, rec);
        }
    }

    fn traced_pass(&self, tracer: &mut Tracer, rec: &mut Recorder) {
        let result = tracer.span("sweep.run", None, |tr, run| {
            let result = self.timed.run();
            tr.adopt(run, self.sink.drain());
            result
        });
        Self::count(rec, &result);
        if let Ok(outcome) = result {
            tracer.span("properties", None, |_, _| Self::check(&outcome, rec));
            tracer.span("drop", None, |_, _| drop(outcome));
        }
    }
}
