//! The open adversary API: party behaviour as a [`Strategy`] trait instead of
//! a closed enum.
//!
//! The paper deliberately makes no assumption about *how* parties deviate —
//! they are "compliant or deviating, whether rationally or not" (Section 3).
//! Early versions of this crate encoded deviation as a closed
//! [`crate::party::Deviation`] enum whose variants the protocol engines
//! pattern-matched on, so every new attack required editing the core crates.
//! This module turns behaviour into user code: a [`Strategy`] answers one
//! question per protocol decision point (escrow? transfer? accept
//! validation? vote? forward? claim?), and every answer is computed from an
//! [`ObservationCtx`] — the party's own view of the deal so far — so
//! strategies can be *adaptive and stateful*, not just static flags.
//!
//! Observation is first-class: each party owns a [`DealObserver`] holding one
//! [`LogCursor`] per chain, refreshed via [`Blockchain::log_from`] so
//! monitoring costs O(new entries) per decision, never a re-scan of the whole
//! log. What the observer distills (escrow lock-ins, tentative transfers,
//! commit votes, escrow resolutions) is exposed as a [`DealView`].
//!
//! Every legacy `Deviation` variant is available as a built-in strategy (see
//! [`strategies`]) with *bit-identical* deal outcomes, and three adversaries
//! that the old enum could not express at all ride along:
//!
//! * [`strategies::sore_loser`] — escrows, then abandons the deal exactly
//!   when it observes every counterparty's escrow lock in (the sore-loser
//!   attack family of Xue & Herlihy 2021);
//! * [`strategies::coalition`] — several parties sharing one strategy value
//!   (and its interior state): members pool what they observe and vote as a
//!   bloc, aborting everywhere if any single member is dissatisfied;
//! * [`strategies::rational_defector`] — commits iff the value it has
//!   observed locked in for it exceeds the value it gives up.
//!
//! [`Blockchain::log_from`]: xchain_sim::ledger::Blockchain::log_from
//! [`LogCursor`]: xchain_sim::ledger::LogCursor

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use xchain_sim::asset::Asset;
use xchain_sim::ids::{ChainId, Owner, PartyId};
use xchain_sim::ledger::{EventTag, LogCursor, LogEntry, LogFilter};
use xchain_sim::time::Time;
use xchain_sim::world::World;

use crate::phases::Phase;
use crate::plan::DealPlan;
use crate::spec::DealSpec;

/// A party's answer at a commit decision point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vote {
    /// Vote to commit the deal.
    Commit,
    /// Vote to abort the deal (meaningful on the CBC; under the timelock
    /// protocol there is no abort vote, so this behaves like withholding).
    Abort,
    /// Send no vote at all (walk away / free-ride on timeouts).
    Withhold,
}

/// What one party has observed of a deal so far, distilled from the chain
/// logs its [`DealObserver`] monitors. All collections are in observation
/// order and deduplicated.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DealView {
    /// Escrow lock-ins observed: `(chain, escrowing party)`. Includes HTLC
    /// fundings, which play the same role in the swap protocol.
    pub escrows: Vec<(ChainId, PartyId)>,
    /// Tentative transfers observed: `(chain, sending party)`.
    pub transfers: Vec<(ChainId, PartyId)>,
    /// Parties whose commit votes (or HTLC claims) have been observed on some
    /// chain. CBC votes live on the certified log, not on asset chains, so
    /// they do not appear here.
    pub commit_votes: Vec<PartyId>,
    /// Escrow resolutions observed: `(chain, committed)` — `true` for a
    /// commit/claim, `false` for an abort/refund.
    pub resolutions: Vec<(ChainId, bool)>,
}

impl DealView {
    /// True if `party`'s escrow on `chain` has been observed locking in.
    pub fn escrowed(&self, chain: ChainId, party: PartyId) -> bool {
        self.escrows.contains(&(chain, party))
    }

    /// True if a commit vote (or claim) by `party` has been observed.
    pub fn has_voted(&self, party: PartyId) -> bool {
        self.commit_votes.contains(&party)
    }

    /// True if every escrow obligation of every party *other than* `me` has
    /// been observed locking in — the trigger condition of the sore-loser
    /// attack ("everyone else is now exposed").
    pub fn counterparty_escrows_locked(&self, spec: &DealSpec, me: PartyId) -> bool {
        let mut any = false;
        for e in spec.escrows.iter().filter(|e| e.owner != me) {
            any = true;
            if !self.escrowed(e.chain, e.owner) {
                return false;
            }
        }
        any
    }
}

/// One party's monitoring state: a [`LogCursor`] per deal chain plus the
/// accumulated [`DealView`]. Refreshing reads only the log entries appended
/// since the last refresh (`Blockchain::log_from`), so the cost of a decision
/// is proportional to what actually happened since the previous one.
#[derive(Debug, Clone)]
pub struct DealObserver {
    chains: Vec<ChainId>,
    cursors: BTreeMap<ChainId, LogCursor>,
    view: DealView,
}

impl DealObserver {
    /// An observer for the chains of `spec`, positioned at the start of every
    /// log.
    pub fn new(spec: &DealSpec) -> Self {
        DealObserver {
            chains: spec.chains(),
            cursors: BTreeMap::new(),
            view: DealView::default(),
        }
    }

    /// Reads every monitored chain's new log entries and folds them into the
    /// view. O(new entries).
    pub fn observe(&mut self, world: &World) {
        for &chain in &self.chains {
            let Ok(c) = world.chain(chain) else { continue };
            let cursor = self.cursors.entry(chain).or_default();
            for entry in c.log_from(cursor) {
                ingest(&mut self.view, chain, entry);
            }
        }
    }

    /// The accumulated view.
    pub fn view(&self) -> &DealView {
        &self.view
    }

    /// The cursor position (entries seen so far) on one chain.
    pub fn cursor_position(&self, chain: ChainId) -> usize {
        self.cursors.get(&chain).map_or(0, |c| c.position())
    }

    /// Refreshes the view from the world and assembles the observation
    /// context a strategy hook receives. `validated` carries the party's
    /// mechanical validation verdict once the validation phase has run.
    pub fn ctx<'a>(
        &'a mut self,
        world: &World,
        spec: &'a DealSpec,
        party: PartyId,
        phase: Phase,
        validated: Option<bool>,
    ) -> ObservationCtx<'a> {
        self.observe(world);
        ObservationCtx {
            party,
            phase,
            now: world.now(),
            spec,
            view: &self.view,
            validated,
        }
    }
}

/// Folds one chain-log entry into a view. Label vocabulary is the one the
/// escrow/timelock/HTLC contracts emit.
fn ingest(view: &mut DealView, chain: ChainId, entry: &LogEntry) {
    let caller = match entry.caller {
        Owner::Party(p) => Some(p),
        _ => None,
    };
    match entry.label {
        "escrow" | "htlc-funded" => {
            if let Some(p) = caller {
                if !view.escrows.contains(&(chain, p)) {
                    view.escrows.push((chain, p));
                }
            }
        }
        "tentative-transfer" => {
            if let Some(p) = caller {
                if !view.transfers.contains(&(chain, p)) {
                    view.transfers.push((chain, p));
                }
            }
        }
        "commit-vote" => {
            // data = [deal, voter, path length]
            if let Some(&voter) = entry.data.get(1) {
                let voter = PartyId(voter as u32);
                if !view.commit_votes.contains(&voter) {
                    view.commit_votes.push(voter);
                }
            }
        }
        "htlc-claimed" => {
            if let Some(p) = caller {
                if !view.commit_votes.contains(&p) {
                    view.commit_votes.push(p);
                }
            }
        }
        "escrow-committed" => view.resolutions.push((chain, true)),
        "escrow-aborted" | "htlc-refunded" => view.resolutions.push((chain, false)),
        _ => {}
    }
}

/// A deal-relevant event distilled from one log entry. The hub parses each
/// entry **once** (on the shared ingest pass) into this `Copy` form; the
/// per-party folds then work on parsed events instead of re-matching label
/// strings per party.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObservedEvent {
    /// An escrow (or HTLC funding) by the party locked in.
    Escrowed(PartyId),
    /// A tentative transfer performed by the party.
    Transferred(PartyId),
    /// A commit vote by (or HTLC claim from) the party became visible.
    Voted(PartyId),
    /// The chain's escrow resolved: `true` for commit/claim, `false` for
    /// abort/refund.
    Resolved(bool),
}

impl ObservedEvent {
    /// Parses one log entry into the event it contributes to a [`DealView`],
    /// if any. Mirrors [`ingest`]'s label vocabulary, driven by the entry's
    /// pre-parsed [`EventTag`] instead of the label string.
    pub fn parse(entry: &LogEntry) -> Option<ObservedEvent> {
        let caller = match entry.caller {
            Owner::Party(p) => Some(p),
            _ => None,
        };
        match entry.tag {
            EventTag::Escrow | EventTag::HtlcFunded => caller.map(ObservedEvent::Escrowed),
            EventTag::TentativeTransfer => caller.map(ObservedEvent::Transferred),
            // data = [deal, voter, path length]
            EventTag::CommitVote => entry
                .data
                .get(1)
                .map(|&voter| ObservedEvent::Voted(PartyId(voter as u32))),
            EventTag::HtlcClaimed => caller.map(ObservedEvent::Voted),
            EventTag::EscrowCommitted => Some(ObservedEvent::Resolved(true)),
            EventTag::EscrowAborted | EventTag::HtlcRefunded => {
                Some(ObservedEvent::Resolved(false))
            }
            EventTag::Other => None,
        }
    }

    /// Folds the event into a view, deduplicating exactly like [`ingest`].
    /// A collection's first push reserves its `caps` bound at once.
    fn fold_into(self, view: &mut DealView, chain: ChainId, caps: &ViewCaps) {
        match self {
            ObservedEvent::Escrowed(p) => push_new(&mut view.escrows, (chain, p), caps.escrows),
            ObservedEvent::Transferred(p) => {
                push_new(&mut view.transfers, (chain, p), caps.transfers)
            }
            ObservedEvent::Voted(p) => push_new(&mut view.commit_votes, p, caps.votes),
            ObservedEvent::Resolved(committed) => {
                reserve_first(&mut view.resolutions, caps.resolutions);
                view.resolutions.push((chain, committed));
            }
        }
    }
}

/// Upper bounds, from the plan, on how many entries each [`DealView`]
/// collection can reach. A bound is only applied when it is above the four
/// entries a `Vec`'s first push allocates anyway, and only at that first
/// push: a collection that stays empty (an aborted deal's votes) still
/// allocates nothing, and one that fills grows once instead of doubling.
#[derive(Debug, Clone, Copy, Default)]
struct ViewCaps {
    escrows: usize,
    transfers: usize,
    votes: usize,
    resolutions: usize,
}

fn reserve_first<T>(v: &mut Vec<T>, cap: usize) {
    if v.capacity() == 0 && cap > 4 {
        v.reserve_exact(cap);
    }
}

fn push_new<T: PartialEq>(v: &mut Vec<T>, item: T, cap: usize) {
    if !v.contains(&item) {
        reserve_first(v, cap);
        v.push(item);
    }
}

/// Shared, label-filtered deal monitoring: **one** log ingest pass per chain,
/// fanned out to every subscribed party's [`DealView`].
///
/// [`DealObserver`] gives each party its own cursors, so a deal with *n*
/// parties reads — and string-matches — every log entry *n* times. The hub
/// is the second half of batched log monitoring (ROADMAP): the engines keep
/// one hub per deal, each chain has a single shared [`LogCursor`], and a
/// refresh reads each new entry exactly once, through a [`LogFilter`]
/// subscription covering only the deal vocabulary (entries the views would
/// never ingest — token mints, CBC bookkeeping, foreign contracts — are
/// skipped without being parsed). Parsed [`ObservedEvent`]s are buffered per
/// chain; each party's view folds them in lazily at its next decision.
///
/// **Parity:** a party's [`DealView`] is *identical* to what its own
/// [`DealObserver`] would have accumulated — per-party folds happen at
/// decision time, walking the chains in the same order and the buffered
/// events in log order, so batching changes the cost, never the view (proven
/// by the hub/observer parity tests against adversarial traces).
///
/// The subscription (chains + parties) is derived from the [`DealPlan`], so
/// the hub is built once per deal execution alongside the plan.
#[derive(Debug, Clone)]
pub struct ObservationHub {
    filter: LogFilter,
    /// One feed per subscribed chain, in subscription order.
    feeds: Vec<ChainFeed>,
    parties: Arc<[PartyId]>,
    views: Vec<DealView>,
    /// `positions[party * feeds.len() + chain]`: how many of the chain's
    /// events the party's view has folded in.
    positions: Vec<usize>,
    caps: ViewCaps,
}

/// One subscribed chain: its shared cursor and its parsed events, in log
/// order.
#[derive(Debug, Clone)]
struct ChainFeed {
    chain: ChainId,
    cursor: LogCursor,
    events: Vec<ObservedEvent>,
    /// How many events the deal can log on this chain, from the plan: the
    /// buffer's one allocation, made when its first entries arrive.
    room: usize,
}

/// The deal vocabulary: every tag the views ingest (everything but
/// [`EventTag::Other`]).
fn deal_filter() -> LogFilter {
    LogFilter::of([
        EventTag::Escrow,
        EventTag::TentativeTransfer,
        EventTag::CommitVote,
        EventTag::EscrowCommitted,
        EventTag::EscrowAborted,
        EventTag::HtlcFunded,
        EventTag::HtlcClaimed,
        EventTag::HtlcRefunded,
    ])
}

impl ObservationHub {
    /// A hub subscribed to the plan's chains on behalf of the plan's parties,
    /// filtering to the deal vocabulary. The plan also bounds how large each
    /// party's view can grow, so views grow at most once, and how many
    /// events each chain logs: its escrows, its tentative transfers and one
    /// resolution (plus the votes [`ObservationHub::expect_votes_per_chain`]
    /// announces), so each chain's event buffer is allocated once.
    pub fn new(plan: &DealPlan) -> Self {
        let mut hub = Self::subscribe(plan.chains(), plan.plist().clone());
        let chains = plan.escrows().iter().map(|e| e.chain);
        for chain in chains.chain(plan.transfers().iter().map(|t| t.chain)) {
            if let Some(ix) = plan.chain_index(chain) {
                hub.feeds[ix].room += 1;
            }
        }
        hub.caps = ViewCaps {
            escrows: plan.escrows().len(),
            transfers: plan.transfers().len(),
            votes: plan.parties().len(),
            resolutions: plan.chains().len(),
        };
        hub
    }

    /// Sizes each chain's event buffer for `votes` more events: the commit
    /// votes a protocol logs on every asset chain (one per party under the
    /// timelock protocol, none under CBC).
    pub fn expect_votes_per_chain(mut self, votes: usize) -> Self {
        for feed in &mut self.feeds {
            feed.room += votes;
        }
        self
    }

    /// A hub for an explicit chain and party set (tests, custom monitors).
    pub fn for_parties(chains: Vec<ChainId>, parties: Vec<PartyId>) -> Self {
        Self::subscribe(&chains, parties.into())
    }

    fn subscribe(chains: &[ChainId], parties: Arc<[PartyId]>) -> Self {
        ObservationHub {
            filter: deal_filter(),
            feeds: chains
                .iter()
                .map(|&chain| ChainFeed {
                    chain,
                    cursor: LogCursor::new(),
                    events: Vec::new(),
                    room: 1,
                })
                .collect(),
            views: vec![DealView::default(); parties.len()],
            positions: vec![0; parties.len() * chains.len()],
            parties,
            caps: ViewCaps::default(),
        }
    }

    /// The label-filter subscription in force.
    pub fn filter(&self) -> LogFilter {
        self.filter
    }

    /// Ingests one chain's new log entries into its event buffer — the single
    /// place the shared cursors advance and entries are parsed. A chain whose
    /// log has not grown since the last ingest costs one length check.
    fn ingest_chain(feed: &mut ChainFeed, filter: LogFilter, world: &World) {
        let Ok(c) = world.chain(feed.chain) else {
            return;
        };
        if c.log().len() == feed.cursor.position() {
            return;
        }
        if feed.events.capacity() == 0 {
            feed.events.reserve_exact(feed.room);
        }
        feed.events.extend(
            c.log_from_filtered(&mut feed.cursor, filter)
                .filter_map(ObservedEvent::parse),
        );
    }

    /// Folds one chain's buffered events from `pos` onward into a view — the
    /// single place views advance, in log order per chain.
    fn fold_chain(view: &mut DealView, feed: &ChainFeed, pos: &mut usize, caps: &ViewCaps) {
        for ev in &feed.events[*pos..] {
            ev.fold_into(view, feed.chain, caps);
        }
        *pos = feed.events.len();
    }

    fn party_index(&self, party: PartyId) -> usize {
        self.parties
            .iter()
            .position(|&p| p == party)
            .expect("party subscribed to the hub")
    }

    /// Reads every subscribed chain's new log entries **once**, parses them,
    /// and buffers the resulting events. O(new entries), shared by all
    /// parties.
    pub fn refresh(&mut self, world: &World) {
        for feed in &mut self.feeds {
            Self::ingest_chain(feed, self.filter, world);
        }
    }

    /// Folds everything `party`'s view has not seen yet (chains in
    /// subscription order, events in log order — the [`DealObserver`]
    /// semantics) and returns the view. Assumes [`ObservationHub::refresh`]
    /// has run for the current world state.
    fn catch_up(&mut self, party: PartyId) -> &DealView {
        let pix = self.party_index(party);
        let n_chains = self.feeds.len();
        let view = &mut self.views[pix];
        let positions = &mut self.positions[pix * n_chains..(pix + 1) * n_chains];
        for (feed, pos) in self.feeds.iter().zip(positions) {
            Self::fold_chain(view, feed, pos, &self.caps);
        }
        &self.views[pix]
    }

    /// The party's current view without refreshing (tests, post-mortems).
    pub fn view_of(&mut self, party: PartyId) -> &DealView {
        self.catch_up(party)
    }

    /// Refreshes from the world and assembles the observation context for one
    /// party's decision — the hub counterpart of [`DealObserver::ctx`].
    /// Ingest and fold run in one fused pass over the subscribed chains
    /// (through the same [`ObservationHub::ingest_chain`] /
    /// [`ObservationHub::fold_chain`] steps `refresh` and `view_of` use), so
    /// a decision with nothing new costs one cursor check per chain.
    pub fn ctx<'a>(
        &'a mut self,
        world: &World,
        spec: &'a DealSpec,
        party: PartyId,
        phase: Phase,
        validated: Option<bool>,
    ) -> ObservationCtx<'a> {
        let pix = self.party_index(party);
        let n_chains = self.feeds.len();
        let view = &mut self.views[pix];
        let positions = &mut self.positions[pix * n_chains..(pix + 1) * n_chains];
        for (feed, pos) in self.feeds.iter_mut().zip(positions) {
            Self::ingest_chain(feed, self.filter, world);
            Self::fold_chain(view, feed, pos, &self.caps);
        }
        ObservationCtx {
            party,
            phase,
            now: world.now(),
            spec,
            view: &self.views[pix],
            validated,
        }
    }
}

/// Everything a strategy hook gets to see when making a decision: who it is,
/// where the protocol stands, what time it is, the deal being executed, and
/// the party's accumulated [`DealView`].
#[derive(Debug)]
pub struct ObservationCtx<'a> {
    /// The deciding party.
    pub party: PartyId,
    /// The protocol phase the decision belongs to.
    pub phase: Phase,
    /// The world clock at decision time.
    pub now: Time,
    /// The deal specification under execution.
    pub spec: &'a DealSpec,
    /// What this party has observed so far (cursor-fed, O(new entries)).
    pub view: &'a DealView,
    /// The party's own mechanical validation verdict, once validation has
    /// run (`None` in earlier phases and in protocols without a validation
    /// phase, like the HTLC swap).
    pub validated: Option<bool>,
}

/// A party behaviour: one decision hook per protocol decision point, each fed
/// the party's [`ObservationCtx`]. Implementations must be `Send + Sync`
/// (sweeps execute deals on worker threads) and are shared via
/// `Arc<dyn Strategy>`; stateful strategies keep interior state behind a lock
/// and override [`Strategy::fresh`] so every deal execution starts clean.
///
/// The defaults implement the compliant party, so a custom adversary only
/// overrides the hooks where it deviates.
pub trait Strategy: Send + Sync {
    /// A short, stable, human-readable name. Sweep adversary axes and the
    /// experiment tables are labelled with it.
    fn name(&self) -> String;

    /// True if this strategy follows the protocol exactly. The paper's
    /// safety/liveness properties protect *compliant* parties only, so a
    /// deviating strategy must return `false` (the default) or the property
    /// checks would hold it to guarantees it forfeited.
    fn is_compliant(&self) -> bool {
        false
    }

    /// True if the party is reachable and acting at `t`. Offline parties
    /// skip whatever actions fall inside their outage.
    fn is_online(&self, _t: Time) -> bool {
        true
    }

    /// The `[from, until)` outage to register with the world's offline
    /// schedule, if this strategy models one (denial of service, crash).
    fn offline_window(&self) -> Option<(Time, Time)> {
        None
    }

    /// Escrow phase: escrow the party's outgoing assets?
    fn on_escrow(&self, _ctx: &ObservationCtx<'_>) -> bool {
        true
    }

    /// Transfer phase: perform the party's tentative transfers?
    fn on_transfer(&self, _ctx: &ObservationCtx<'_>) -> bool {
        true
    }

    /// Validation phase: accept the incoming assets? `ctx.validated` carries
    /// the mechanical verdict (escrows present, deal info consistent); the
    /// default adopts it. Returning `false` declares dissatisfaction;
    /// returning `true` despite a failed mechanical check over-accepts.
    fn on_validate(&self, ctx: &ObservationCtx<'_>) -> bool {
        ctx.validated.unwrap_or(true)
    }

    /// Commit phase: how to vote. The default commits exactly when the
    /// party's validation succeeded (or when the protocol has no validation
    /// phase).
    fn on_vote(&self, ctx: &ObservationCtx<'_>) -> Vote {
        if ctx.validated.unwrap_or(true) {
            Vote::Commit
        } else {
            Vote::Withhold
        }
    }

    /// Timelock commit phase: forward other parties' votes observed on
    /// outgoing-asset chains? The default forwards whenever the party itself
    /// votes commit.
    fn on_forward(&self, ctx: &ObservationCtx<'_>) -> bool {
        self.on_vote(ctx) == Vote::Commit
    }

    /// HTLC swap: claim the counterparty's escrow (revealing or using the
    /// secret)? The default claims whenever the party would vote commit.
    fn on_claim(&self, ctx: &ObservationCtx<'_>) -> bool {
        self.on_vote(ctx) == Vote::Commit
    }

    /// A fresh instance for a new deal execution. Stateless strategies (the
    /// default, `None`) are shared as-is; stateful ones return a clean copy
    /// so that repeated or concurrent runs never see another run's state.
    /// [`crate::party::fresh_configs`] preserves sharing: configs that held
    /// the *same* `Arc` (a coalition) receive the same fresh instance.
    fn fresh(&self) -> Option<Arc<dyn Strategy>> {
        None
    }
}

impl fmt::Debug for dyn Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Strategy({})", self.name())
    }
}

/// The built-in strategy catalog: every legacy [`Deviation`] as a strategy
/// (identical deal outcomes, see the parity tests), plus the adversaries only
/// expressible under the trait.
///
/// [`Deviation`]: crate::party::Deviation
pub mod strategies {
    use std::collections::BTreeSet;
    use std::sync::{Mutex, OnceLock};

    use super::*;
    use crate::party::Deviation;

    /// The compliant strategy: every hook at its default. It is stateless,
    /// so every caller shares one instance and the call allocates nothing.
    pub fn compliant() -> Arc<dyn Strategy> {
        static COMPLIANT: OnceLock<Arc<dyn Strategy>> = OnceLock::new();
        COMPLIANT
            .get_or_init(|| from_deviation(Deviation::None))
            .clone()
    }

    /// Stops participating after completing `phase` (crash / walk-away),
    /// like [`Deviation::CrashAfter`].
    pub fn crash_after(phase: Phase) -> Arc<dyn Strategy> {
        from_deviation(Deviation::CrashAfter(phase))
    }

    /// Never escrows its outgoing assets, like [`Deviation::RefuseEscrow`].
    pub fn refuse_escrow() -> Arc<dyn Strategy> {
        from_deviation(Deviation::RefuseEscrow)
    }

    /// Escrows but never performs its tentative transfers, like
    /// [`Deviation::SkipTransfers`].
    pub fn skip_transfers() -> Arc<dyn Strategy> {
        from_deviation(Deviation::SkipTransfers)
    }

    /// Performs every phase but never sends a commit vote, like
    /// [`Deviation::WithholdVote`].
    pub fn withhold_vote() -> Arc<dyn Strategy> {
        from_deviation(Deviation::WithholdVote)
    }

    /// Votes but never forwards other parties' votes, like
    /// [`Deviation::NeverForward`].
    pub fn never_forward() -> Arc<dyn Strategy> {
        from_deviation(Deviation::NeverForward)
    }

    /// Votes abort during the commit phase, like [`Deviation::VoteAbort`].
    pub fn vote_abort() -> Arc<dyn Strategy> {
        from_deviation(Deviation::VoteAbort)
    }

    /// Declares its incoming assets unsatisfactory at validation, like
    /// [`Deviation::RejectValidation`].
    pub fn reject_validation() -> Arc<dyn Strategy> {
        from_deviation(Deviation::RejectValidation)
    }

    /// Offline (crashed or under denial of service) during `[from, until)`,
    /// like [`Deviation::OfflineDuring`].
    pub fn offline_during(from: Time, until: Time) -> Arc<dyn Strategy> {
        from_deviation(Deviation::OfflineDuring { from, until })
    }

    /// The built-in strategy reproducing a legacy [`Deviation`] exactly:
    /// same decisions at every hook, hence bit-identical runs.
    pub fn from_deviation(deviation: Deviation) -> Arc<dyn Strategy> {
        Arc::new(DeviationStrategy(deviation))
    }

    /// The legacy enum behaviours, expressed through the hook table that the
    /// old `PartyConfig::will_*` predicates implemented.
    #[derive(Debug, Clone, Copy)]
    struct DeviationStrategy(Deviation);

    impl DeviationStrategy {
        fn participates_in(&self, phase: Phase) -> bool {
            match self.0 {
                Deviation::CrashAfter(last) => phase <= last,
                _ => true,
            }
        }

        fn will_vote_commit(&self, ctx: &ObservationCtx<'_>) -> bool {
            !matches!(
                self.0,
                Deviation::RefuseEscrow
                    | Deviation::SkipTransfers
                    | Deviation::WithholdVote
                    | Deviation::VoteAbort
                    | Deviation::RejectValidation
            ) && self.participates_in(Phase::Commit)
                && ctx.validated.unwrap_or(true)
        }
    }

    impl Strategy for DeviationStrategy {
        fn name(&self) -> String {
            match self.0 {
                Deviation::None => "compliant".into(),
                Deviation::CrashAfter(phase) => format!("crash-after-{phase}"),
                Deviation::RefuseEscrow => "refuse-escrow".into(),
                Deviation::SkipTransfers => "skip-transfers".into(),
                Deviation::WithholdVote => "withhold-vote".into(),
                Deviation::NeverForward => "never-forward".into(),
                Deviation::VoteAbort => "vote-abort".into(),
                Deviation::RejectValidation => "reject-validation".into(),
                Deviation::OfflineDuring { from, until } => {
                    format!("offline-{}..{}", from.0, until.0)
                }
            }
        }

        fn is_compliant(&self) -> bool {
            matches!(self.0, Deviation::None)
        }

        fn is_online(&self, t: Time) -> bool {
            match self.0 {
                Deviation::OfflineDuring { from, until } => !(from <= t && t < until),
                _ => true,
            }
        }

        fn offline_window(&self) -> Option<(Time, Time)> {
            match self.0 {
                Deviation::OfflineDuring { from, until } => Some((from, until)),
                _ => None,
            }
        }

        fn on_escrow(&self, _ctx: &ObservationCtx<'_>) -> bool {
            !matches!(self.0, Deviation::RefuseEscrow) && self.participates_in(Phase::Escrow)
        }

        fn on_transfer(&self, _ctx: &ObservationCtx<'_>) -> bool {
            !matches!(self.0, Deviation::RefuseEscrow | Deviation::SkipTransfers)
                && self.participates_in(Phase::Transfer)
        }

        fn on_validate(&self, ctx: &ObservationCtx<'_>) -> bool {
            ctx.validated.unwrap_or(true) && !matches!(self.0, Deviation::RejectValidation)
        }

        fn on_vote(&self, ctx: &ObservationCtx<'_>) -> Vote {
            if self.will_vote_commit(ctx) {
                Vote::Commit
            } else if matches!(self.0, Deviation::VoteAbort | Deviation::RejectValidation)
                && self.participates_in(Phase::Commit)
            {
                Vote::Abort
            } else {
                Vote::Withhold
            }
        }

        fn on_forward(&self, ctx: &ObservationCtx<'_>) -> bool {
            self.will_vote_commit(ctx) && !matches!(self.0, Deviation::NeverForward)
        }
    }

    // ------------------------------------------------------------------
    // The adversaries the closed enum could not express.
    // ------------------------------------------------------------------

    /// The sore-loser attacker: escrows its own assets like a compliant
    /// party, then abandons the deal (no transfers, no votes, no claims, no
    /// forwarding) *exactly when it observes every counterparty's escrow lock
    /// in* — maximizing how long everyone else's assets stay locked while
    /// risking only the timeout on its own. Until that trigger it behaves
    /// compliantly, so the attack is invisible in the early phases.
    pub fn sore_loser() -> Arc<dyn Strategy> {
        Arc::new(SoreLoser)
    }

    #[derive(Debug, Clone, Copy)]
    struct SoreLoser;

    impl SoreLoser {
        fn triggered(ctx: &ObservationCtx<'_>) -> bool {
            ctx.view.counterparty_escrows_locked(ctx.spec, ctx.party)
        }
    }

    impl Strategy for SoreLoser {
        fn name(&self) -> String {
            "sore-loser".into()
        }

        fn on_transfer(&self, ctx: &ObservationCtx<'_>) -> bool {
            !Self::triggered(ctx)
        }

        fn on_vote(&self, ctx: &ObservationCtx<'_>) -> Vote {
            if Self::triggered(ctx) {
                Vote::Withhold
            } else if ctx.validated.unwrap_or(true) {
                Vote::Commit
            } else {
                Vote::Withhold
            }
        }

        fn on_claim(&self, ctx: &ObservationCtx<'_>) -> bool {
            !Self::triggered(ctx)
        }
    }

    /// A colluding coalition: every member's [`crate::party::PartyConfig`]
    /// holds the *same* strategy value, so the members share one interior
    /// state. Each member reports its validation verdict into that state and
    /// the group votes as a bloc: commit only if **every** member (present in
    /// the deal) validated successfully, abort everywhere otherwise — one
    /// dissatisfied member griefs the whole deal on behalf of the group.
    ///
    /// Clone the returned `Arc` into each member's config; per-run state
    /// isolation is handled by [`Strategy::fresh`] +
    /// [`crate::party::fresh_configs`] (sharing within one run is preserved).
    pub fn coalition(members: impl IntoIterator<Item = PartyId>) -> Arc<dyn Strategy> {
        Arc::new(Coalition {
            members: members.into_iter().collect(),
            state: Mutex::new(CoalitionState::default()),
        })
    }

    #[derive(Debug)]
    struct Coalition {
        members: BTreeSet<PartyId>,
        state: Mutex<CoalitionState>,
    }

    #[derive(Debug, Default)]
    struct CoalitionState {
        /// Validation verdicts reported by members, in engine order.
        verdicts: BTreeMap<PartyId, bool>,
    }

    impl Strategy for Coalition {
        fn name(&self) -> String {
            let members: Vec<String> = self.members.iter().map(|p| format!("{p}")).collect();
            format!("coalition({})", members.join("+"))
        }

        fn on_validate(&self, ctx: &ObservationCtx<'_>) -> bool {
            let verdict = ctx.validated.unwrap_or(false);
            self.state
                .lock()
                .expect("coalition state")
                .verdicts
                .insert(ctx.party, verdict);
            verdict
        }

        fn on_vote(&self, ctx: &ObservationCtx<'_>) -> Vote {
            // A member with no recorded verdict counts as dissatisfied when a
            // validation phase ran (its report is simply missing) but as
            // satisfied when the protocol has none (the HTLC swap never calls
            // `on_validate`, signalled by `ctx.validated == None`), matching
            // the `unwrap_or(true)` convention of the other strategies.
            let missing_means = ctx.validated.is_none();
            let state = self.state.lock().expect("coalition state");
            let bloc_satisfied = self
                .members
                .iter()
                .filter(|m| ctx.spec.parties.contains(m))
                .all(|m| state.verdicts.get(m).copied().unwrap_or(missing_means));
            if bloc_satisfied && ctx.validated.unwrap_or(true) {
                Vote::Commit
            } else {
                Vote::Abort
            }
        }

        fn fresh(&self) -> Option<Arc<dyn Strategy>> {
            Some(Arc::new(Coalition {
                members: self.members.clone(),
                state: Mutex::new(CoalitionState::default()),
            }))
        }
    }

    /// The rational defector: cooperates mechanically (escrow, transfers,
    /// honest validation) but commits only when the deal is worth it —
    /// i.e. when the value of the incoming assets it has *observed locked in*
    /// strictly exceeds the value it relinquishes. Fungible assets are valued
    /// at their amount; each non-fungible token at `token_value`. Below the
    /// threshold (or when validation failed) it votes abort to recover its
    /// escrow as fast as the protocol allows.
    pub fn rational_defector(token_value: u64) -> Arc<dyn Strategy> {
        Arc::new(RationalDefector { token_value })
    }

    #[derive(Debug, Clone, Copy)]
    struct RationalDefector {
        token_value: u64,
    }

    impl RationalDefector {
        fn value(&self, asset: &Asset) -> u64 {
            match asset {
                Asset::Fungible { amount, .. } => *amount,
                Asset::NonFungible { tokens, .. } => tokens.len() as u64 * self.token_value,
            }
        }

        /// True if every escrow obligation the deal declares on `chain` has
        /// been observed locking in from its declared owner. A chain with no
        /// declared escrows backs nothing (no transfer there can execute),
        /// and a bystander's — or the defector's own — escrow on the chain
        /// does not stand in for a missing one.
        fn chain_backed(ctx: &ObservationCtx<'_>, chain: ChainId) -> bool {
            let mut any = false;
            for e in ctx.spec.escrows.iter().filter(|e| e.chain == chain) {
                any = true;
                if !ctx.view.escrowed(e.chain, e.owner) {
                    return false;
                }
            }
            any
        }

        /// Value of the party's incoming transfers whose chain is fully
        /// escrow-backed (unbacked promises count for nothing).
        fn observed_incoming(&self, ctx: &ObservationCtx<'_>) -> u64 {
            ctx.spec
                .transfers
                .iter()
                .filter(|t| t.to == ctx.party)
                .filter(|t| Self::chain_backed(ctx, t.chain))
                .map(|t| self.value(&t.asset))
                .sum()
        }

        fn promised_outgoing(&self, ctx: &ObservationCtx<'_>) -> u64 {
            ctx.spec
                .transfers
                .iter()
                .filter(|t| t.from == ctx.party)
                .map(|t| self.value(&t.asset))
                .sum()
        }

        fn worth_it(&self, ctx: &ObservationCtx<'_>) -> bool {
            self.observed_incoming(ctx) > self.promised_outgoing(ctx)
        }
    }

    impl Strategy for RationalDefector {
        fn name(&self) -> String {
            format!("rational-defector(token={})", self.token_value)
        }

        fn on_vote(&self, ctx: &ObservationCtx<'_>) -> Vote {
            if ctx.validated.unwrap_or(true) && self.worth_it(ctx) {
                Vote::Commit
            } else {
                Vote::Abort
            }
        }

        fn on_claim(&self, ctx: &ObservationCtx<'_>) -> bool {
            self.worth_it(ctx)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::strategies::*;
    use super::*;
    use crate::builders::broker_spec;

    /// A context over a canned view, for exercising hooks without a world.
    fn ctx<'a>(
        spec: &'a DealSpec,
        view: &'a DealView,
        party: PartyId,
        validated: Option<bool>,
    ) -> ObservationCtx<'a> {
        ObservationCtx {
            party,
            phase: Phase::Commit,
            now: Time(0),
            spec,
            view,
            validated,
        }
    }

    #[test]
    fn compliant_defaults_do_everything() {
        let spec = broker_spec();
        let view = DealView::default();
        let s = compliant();
        let c = ctx(&spec, &view, PartyId(0), Some(true));
        assert!(s.is_compliant());
        assert!(s.on_escrow(&c));
        assert!(s.on_transfer(&c));
        assert!(s.on_validate(&c));
        assert_eq!(s.on_vote(&c), Vote::Commit);
        assert!(s.on_forward(&c));
        assert!(s.on_claim(&c));
        // A failed validation turns the compliant vote into a withhold.
        let c = ctx(&spec, &view, PartyId(0), Some(false));
        assert_eq!(s.on_vote(&c), Vote::Withhold);
        assert!(!s.on_forward(&c));
    }

    #[test]
    fn builtin_strategies_reproduce_the_deviation_table() {
        let spec = broker_spec();
        let view = DealView::default();
        let validated = Some(true);
        let c = ctx(&spec, &view, PartyId(0), validated);

        assert!(!refuse_escrow().on_escrow(&c));
        assert!(!refuse_escrow().on_transfer(&c));
        assert_eq!(refuse_escrow().on_vote(&c), Vote::Withhold);

        assert!(skip_transfers().on_escrow(&c));
        assert!(!skip_transfers().on_transfer(&c));

        assert_eq!(withhold_vote().on_vote(&c), Vote::Withhold);

        assert_eq!(never_forward().on_vote(&c), Vote::Commit);
        assert!(!never_forward().on_forward(&c));

        assert_eq!(vote_abort().on_vote(&c), Vote::Abort);
        assert!(!reject_validation().on_validate(&c));
        assert_eq!(reject_validation().on_vote(&c), Vote::Abort);

        let crash = crash_after(Phase::Escrow);
        assert!(crash.on_escrow(&c));
        assert!(!crash.on_transfer(&c));
        assert_eq!(crash.on_vote(&c), Vote::Withhold);
        assert_eq!(crash.name(), "crash-after-escrow");

        let off = offline_during(Time(5), Time(10));
        assert!(off.is_online(Time(4)));
        assert!(!off.is_online(Time(5)));
        assert!(!off.is_online(Time(9)));
        assert!(off.is_online(Time(10)));
        assert_eq!(off.offline_window(), Some((Time(5), Time(10))));
        // Offline at the wrong moment is a deviation (paper, Section 3).
        assert!(!off.is_compliant());
    }

    #[test]
    fn sore_loser_abandons_once_counterparties_are_locked_in() {
        let spec = broker_spec();
        let s = sore_loser();
        let me = PartyId(0);
        // Nothing observed yet: behaves compliantly.
        let view = DealView::default();
        let c = ctx(&spec, &view, me, Some(true));
        assert!(s.on_escrow(&c));
        assert!(s.on_transfer(&c));
        assert_eq!(s.on_vote(&c), Vote::Commit);
        // Every counterparty escrow observed: abandon.
        let mut view = DealView::default();
        for e in spec.escrows.iter().filter(|e| e.owner != me) {
            view.escrows.push((e.chain, e.owner));
        }
        let c = ctx(&spec, &view, me, Some(true));
        assert!(s.on_escrow(&c)); // it still escrows — the bait
        assert!(!s.on_transfer(&c));
        assert_eq!(s.on_vote(&c), Vote::Withhold);
        assert!(!s.on_claim(&c));
    }

    #[test]
    fn coalition_votes_as_a_bloc_and_resets_with_fresh() {
        let spec = broker_spec();
        let members = [PartyId(0), PartyId(1)];
        let s = coalition(members);
        let view = DealView::default();
        // Member 0 validates successfully, member 1 does not.
        assert!(s.on_validate(&ctx(&spec, &view, PartyId(0), Some(true))));
        assert!(!s.on_validate(&ctx(&spec, &view, PartyId(1), Some(false))));
        // Both members now vote abort: the bloc is dissatisfied.
        assert_eq!(
            s.on_vote(&ctx(&spec, &view, PartyId(0), Some(true))),
            Vote::Abort
        );
        assert_eq!(
            s.on_vote(&ctx(&spec, &view, PartyId(1), Some(false))),
            Vote::Abort
        );
        // A fresh instance has clean state: with both verdicts good it commits.
        let f = s.fresh().expect("coalition is stateful");
        assert!(f.on_validate(&ctx(&spec, &view, PartyId(0), Some(true))));
        assert!(f.on_validate(&ctx(&spec, &view, PartyId(1), Some(true))));
        assert_eq!(
            f.on_vote(&ctx(&spec, &view, PartyId(0), Some(true))),
            Vote::Commit
        );
        // The old instance still remembers the bad verdict.
        assert_eq!(
            s.on_vote(&ctx(&spec, &view, PartyId(0), Some(true))),
            Vote::Abort
        );
    }

    #[test]
    fn coalition_claims_in_protocols_without_a_validation_phase() {
        // The HTLC swap never calls on_validate (ctx.validated is None), so
        // the members' missing verdicts must not read as dissatisfaction.
        let spec = broker_spec();
        let view = DealView::default();
        let s = coalition([PartyId(0), PartyId(1)]);
        let c = ctx(&spec, &view, PartyId(0), None);
        assert_eq!(s.on_vote(&c), Vote::Commit);
        assert!(s.on_claim(&c));
    }

    #[test]
    fn rational_defector_ignores_bystander_escrows() {
        // Only the *declared* escrow owners back a chain: the defector's own
        // escrow (or a third party's) on the incoming chain must not stand in
        // for the counterparty's missing one.
        let spec = broker_spec();
        let carol = PartyId(2);
        let generous = rational_defector(1_000);
        // Carol observes her own chain-1 escrow and a stray chain-0 escrow by
        // herself — but Bob (the declared ticket escrower) never escrowed.
        let mut view = DealView::default();
        for e in spec.escrows.iter().filter(|e| e.owner == carol) {
            view.escrows.push((e.chain, e.owner));
        }
        view.escrows.push((spec.escrows[0].chain, carol));
        assert_eq!(
            generous.on_vote(&ctx(&spec, &view, carol, Some(true))),
            Vote::Abort
        );
    }

    #[test]
    fn rational_defector_commits_only_above_its_threshold() {
        let spec = broker_spec();
        // Carol (party 2) pays 101 coins for 2 tickets.
        let carol = PartyId(2);
        let mut view = DealView::default();
        for e in &spec.escrows {
            view.escrows.push((e.chain, e.owner));
        }
        // Tickets valued at 100 each: 200 incoming > 101 outgoing → commit.
        let generous = rational_defector(100);
        assert_eq!(
            generous.on_vote(&ctx(&spec, &view, carol, Some(true))),
            Vote::Commit
        );
        // Tickets valued at 10 each: 20 < 101 → defect.
        let stingy = rational_defector(10);
        assert_eq!(
            stingy.on_vote(&ctx(&spec, &view, carol, Some(true))),
            Vote::Abort
        );
        // With no escrow observed backing the incoming chain, even generous
        // valuations defect: unbacked promises count for nothing.
        let empty = DealView::default();
        assert_eq!(
            generous.on_vote(&ctx(&spec, &empty, carol, Some(true))),
            Vote::Abort
        );
    }

    #[test]
    fn view_helpers_answer_lockin_questions() {
        let spec = broker_spec();
        let mut view = DealView::default();
        assert!(!view.counterparty_escrows_locked(&spec, PartyId(0)));
        for e in &spec.escrows {
            view.escrows.push((e.chain, e.owner));
        }
        assert!(view.counterparty_escrows_locked(&spec, PartyId(0)));
        assert!(view.escrowed(spec.escrows[0].chain, spec.escrows[0].owner));
        assert!(!view.has_voted(PartyId(1)));
        view.commit_votes.push(PartyId(1));
        assert!(view.has_voted(PartyId(1)));
    }
}
