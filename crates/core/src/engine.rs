//! The unified engine plane: one trait every density-query method
//! implements, so ingest and serving are written once.
//!
//! The paper evaluates four parallel stacks — exact FR (Section 5),
//! approximate PA (Section 6), the brute-force oracle, and the
//! prior-work baselines — and before this module every consumer
//! (`pdrcli`, the benches, the experiment binaries) hand-wired each of
//! them separately. [`DensityEngine`] collapses that into a single
//! contract:
//!
//! * **ingest is exclusive** — [`apply_batch`](DensityEngine::apply_batch)
//!   and [`advance_to`](DensityEngine::advance_to) take `&mut self`, so
//!   the type system guarantees no query observes a half-applied batch;
//! * **queries are shared** — [`query`](DensityEngine::query) takes
//!   `&self`, and every implementation is `Sync`, so any number of
//!   threads may query one engine concurrently between batches. The FR
//!   engine keeps its per-timestamp classification cache behind a
//!   `RwLock` keyed by the histogram epoch, so concurrent readers still
//!   compute each `(timestamp, ρ, l)` classification at most once;
//! * **cost is uniform** — every answer is an [`EngineAnswer`] carrying
//!   the region plus CPU time and buffer-pool I/O, convertible to the
//!   paper's total-cost metric via [`EngineAnswer::total_ms`];
//! * **health is uniform** — [`stats`](DensityEngine::stats) exposes
//!   update counts, anomaly counts (missed deletes) and resident
//!   memory for any engine behind the trait.
//!
//! [`EngineSpec`] is the declarative constructor: a serve driver or CLI
//! names the engines it wants and gets `Box<dyn DensityEngine>`s back,
//! never touching concrete types.

use crate::obs::ObsReport;
use crate::sub::{
    check_horizon, AnswerDelta, GroupKey, QtPolicy, SubError, SubId, SubscriptionTable,
};
use crate::wal::{open_checkpoint, seal_checkpoint, RecoverError};
use crate::{
    baselines, classify_cells, dh_optimistic, dh_pessimistic, filter::check_filter_edge,
    ExactOracle, FrConfig, FrEngine, PaConfig, PaEngine, PdrQuery, RangeIndex,
};
use pdr_geometry::{GridSpec, Rect, RegionSet};
use pdr_histogram::DensityHistogram;
use pdr_mobject::{
    screen_batch, MotionState, ObjectId, ObjectTable, TimeHorizon, Timestamp, Update,
};
use pdr_storage::{CostModel, FaultPlan, FaultStats, IoStats, StorageError};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// How many snapshots the default interval query folds into its running
/// union between canonicalizations: large enough to amortize the sweep,
/// small enough that the union never holds more than a handful of
/// snapshots' rectangles.
const DEFAULT_INTERVAL_COALESCE_EVERY: u32 = 4;

/// One engine's answer to a PDR query, in units every method shares.
#[derive(Clone, Debug)]
pub struct EngineAnswer {
    /// The reported dense region.
    pub regions: RegionSet,
    /// Wall-clock CPU time of the query.
    pub cpu: Duration,
    /// Buffer-pool I/O incurred (zero for memory-resident methods).
    pub io: IoStats,
    /// `true` when the method is exact (FR, oracle); `false` for
    /// approximate or lossy methods (PA, DH, the baselines).
    pub exact: bool,
}

impl EngineAnswer {
    /// Total query cost in milliseconds under `model`:
    /// `CPU + random-I/O charge` (the paper's Figure 10 metric).
    pub fn total_ms(&self, model: &CostModel) -> f64 {
        self.cpu.as_secs_f64() * 1e3 + model.io_ms(&self.io)
    }
}

/// Uniform health/accounting snapshot of an engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Protocol updates applied over the engine's lifetime.
    pub updates_applied: u64,
    /// Deletions that did not match any indexed object — each one is a
    /// tolerated but logged anomaly (client retraction of a report the
    /// server never saw, or a bug upstream).
    pub missed_deletes: u64,
    /// Reports rejected by input screening (non-finite motions,
    /// duplicate insertions in one batch, timestamps outside the
    /// horizon) — counted and skipped, never applied.
    pub rejected_updates: u64,
    /// Resident bytes of the engine's summary structures.
    pub memory_bytes: usize,
    /// Live objects the engine currently accounts for.
    pub objects: usize,
    /// Snapshot queries answered over the engine's lifetime. Engines
    /// without per-query accounting (oracle, baselines, DH) report 0.
    pub queries_served: u64,
}

/// A density-query engine: ingest protocol updates exclusively, answer
/// PDR queries shared.
///
/// # Contract
///
/// * [`query`](Self::query) and [`interval_query`](Self::interval_query)
///   take `&self` and must be safe to call from many threads at once
///   (`Sync` is a supertrait); repeated identical queries between two
///   batches return identical answers.
/// * [`apply_batch`](Self::apply_batch) applies updates in order;
///   [`advance_to`](Self::advance_to) moves the engine's time horizon
///   forward and must be called before applying a batch stamped with
///   the new timestamp.
/// * Methods with a fixed neighborhood edge (PA) answer for their
///   configured `l` and ignore the query's; exact methods honor the
///   query's `l` exactly. [`EngineAnswer::exact`] tells consumers
///   which case they got.
pub trait DensityEngine: Send + Sync {
    /// Short stable name for tables and logs (`"fr"`, `"pa"`, …).
    fn name(&self) -> &'static str;

    /// Loads an initial population into an empty engine. The default
    /// turns the population into insertion updates; engines with packed
    /// loaders override it.
    fn bulk_load(&mut self, objects: &[(ObjectId, MotionState)], t_now: Timestamp) {
        let updates: Vec<Update> = objects
            .iter()
            .map(|(id, m)| Update::insert(*id, t_now, *m))
            .collect();
        self.apply_batch(&updates);
    }

    /// Applies one tick's protocol updates, in order.
    fn apply_batch(&mut self, updates: &[Update]);

    /// Advances the engine's time horizon to `t_now`.
    fn advance_to(&mut self, t_now: Timestamp);

    /// Answers a snapshot PDR query.
    fn query(&self, q: &PdrQuery) -> EngineAnswer;

    /// Fallible [`query`](Self::query): surfaces storage faults as a
    /// typed [`StorageError`] instead of panicking. The default wraps
    /// the infallible path, correct for memory-resident engines whose
    /// queries cannot fail.
    fn try_query(&self, q: &PdrQuery) -> Result<EngineAnswer, StorageError> {
        Ok(self.query(q))
    }

    /// Best-effort answer that avoids the failing storage plane — for
    /// FR, the optimistic filter-only answer (a superset of the exact
    /// one). `None` when the engine has no degraded mode; serving then
    /// fails the query instead of degrading it. Degraded answers are
    /// never flagged `exact`.
    fn degraded_query(&self, _q: &PdrQuery) -> Option<EngineAnswer> {
        None
    }

    /// Sealed, checksummed snapshot of the engine's durable state, or
    /// `None` for engines without checkpoint support. Feeding the bytes
    /// to [`restore_from`](Self::restore_from) on a same-configured
    /// engine reproduces bit-identical answers.
    fn checkpoint(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restores the engine in place from [`checkpoint`](Self::checkpoint)
    /// bytes. The default — for engines without checkpoint support —
    /// reports [`RecoverError::Unsupported`].
    fn restore_from(&mut self, _bytes: &[u8]) -> Result<(), RecoverError> {
        Err(RecoverError::Unsupported)
    }

    /// Installs a fault-injection plan beneath the engine's storage
    /// plane. A no-op (the default) for memory-resident engines.
    fn set_fault_plan(&self, _plan: FaultPlan) {}

    /// Counters of injected faults and detected checksum failures on
    /// the engine's storage plane. All zeros for memory-resident
    /// engines.
    fn fault_stats(&self) -> FaultStats {
        FaultStats::default()
    }

    /// The union of snapshot answers over `from..=to` (Definition 5).
    /// The default evaluates each timestamp through
    /// [`query`](Self::query); engines with incremental interval plans
    /// override it.
    fn interval_query(&self, rho: f64, l: f64, from: Timestamp, to: Timestamp) -> RegionSet {
        let mut acc = RegionSet::new();
        let mut since_canonical = 0u32;
        for t in from..=to {
            let ans = self.query(&PdrQuery::new(rho, l, t));
            for r in ans.regions.rects() {
                acc.push(*r);
            }
            since_canonical += 1;
            if since_canonical >= DEFAULT_INTERVAL_COALESCE_EVERY {
                acc.canonicalize();
                since_canonical = 0;
            }
        }
        acc.canonicalize();
        acc
    }

    /// Uniform health/accounting snapshot.
    fn stats(&self) -> EngineStats;

    /// Instrumentation snapshot: internal counters plus per-stage
    /// latency histograms (see [`crate::obs`]). The default — for
    /// engines without instrumentation — is the empty report.
    fn obs(&self) -> ObsReport {
        ObsReport::default()
    }

    /// Enables or disables instrumentation recording (engines that have
    /// it start enabled). Purely observational either way: answers are
    /// bit-identical with recording on or off. The default is a no-op.
    fn set_obs_enabled(&mut self, _on: bool) {}

    /// Per-shard metrics as a JSON array, or `None` for unsharded
    /// engines. A sharded plane reports one block per shard (tile,
    /// degraded flag, WAL segment size, object count, obs counters);
    /// the serve report surfaces it under a `"shards"` key.
    fn shard_metrics_json(&self) -> Option<String> {
        None
    }

    /// The sharded plane behind this engine, when there is one — the
    /// log-shipping primary surface
    /// ([`wal_since`](crate::shard::ShardedEngine::wal_since) and
    /// friends). `None` (the default) for unsharded engines.
    fn as_sharded(&self) -> Option<&crate::shard::ShardedEngine> {
        None
    }

    /// Mutable counterpart of [`as_sharded`](Self::as_sharded).
    fn as_sharded_mut(&mut self) -> Option<&mut crate::shard::ShardedEngine> {
        None
    }

    /// The log-shipping replica behind this engine, when it is one.
    /// `None` (the default) for every primary engine.
    fn as_replica(&self) -> Option<&crate::replica::Replica> {
        None
    }

    /// Mutable counterpart of [`as_replica`](Self::as_replica).
    fn as_replica_mut(&mut self) -> Option<&mut crate::replica::Replica> {
        None
    }

    /// The engine's standing-subscription registry, or `None` for
    /// engines without subscription support. Every in-tree engine
    /// carries one; only exotic test stubs return `None`.
    fn subscriptions(&self) -> Option<&SubscriptionTable> {
        None
    }

    /// Mutable access to the subscription registry (see
    /// [`subscriptions`](Self::subscriptions)).
    fn subscriptions_mut(&mut self) -> Option<&mut SubscriptionTable> {
        None
    }

    /// Refuses query parameters this engine cannot evaluate, before a
    /// subscription registers or the wire admits a query: a
    /// neighborhood edge `l` below its filter's minimum or beyond a
    /// sharded plane's halo, and a resolved query timestamp `q_t`
    /// outside the horizon window its summaries cover (`None` when the
    /// caller has no resolved timestamp yet). The default accepts
    /// everything.
    fn check_query_edge(&self, _l: f64, _q_t: Option<Timestamp>) -> Result<(), SubError> {
        Ok(())
    }

    /// Registers a standing PDR query. The first maintenance pass after
    /// registration emits the full current answer as `added`. Edges
    /// [`check_query_edge`](Self::check_query_edge) refuses are not
    /// registered.
    fn register_subscription(
        &mut self,
        rho: f64,
        l: f64,
        region: Rect,
        policy: QtPolicy,
    ) -> Result<SubId, SubError> {
        self.check_query_edge(l, None)?;
        match self.subscriptions_mut() {
            Some(t) => t.register(rho, l, region, policy),
            None => Err(SubError::Unsupported),
        }
    }

    /// Removes a standing subscription; `false` when the id is unknown.
    fn unregister_subscription(&mut self, id: SubId) -> bool {
        self.subscriptions_mut().is_some_and(|t| t.unregister(id))
    }

    /// Brings every standing subscription's answer up to date with the
    /// engine state at clock `now` and returns the patches, in
    /// subscription-id order. The default runs the shared
    /// [`SubscriptionTable::maintain`] loop with each group recomputed
    /// through [`try_query`](Self::try_query); FR and DH hand the same
    /// loop their cached incremental evaluators. Every path commits the
    /// same canonical answers, so the emitted deltas are bit-identical.
    fn maintain_subscriptions(&mut self, now: Timestamp) -> Vec<AnswerDelta> {
        let Some(table) = self.subscriptions_mut() else {
            return Vec::new();
        };
        // The table leaves the engine for the pass so the evaluator can
        // borrow the engine.
        let mut table = std::mem::take(table);
        let (deltas, _) = table.maintain(now, |q| self.try_query(q).map(|a| a.regions));
        *self
            .subscriptions_mut()
            .expect("subscription table vanished mid-maintenance") = table;
        deltas
    }

    /// Applies one tick's updates and maintains every standing
    /// subscription in the same exclusive write, returning the patches.
    /// `now` is the clock tick the batch belongs to (the timestamp
    /// passed to the preceding [`advance_to`](Self::advance_to)).
    fn apply_batch_with_deltas(&mut self, updates: &[Update], now: Timestamp) -> Vec<AnswerDelta> {
        self.apply_batch(updates);
        self.maintain_subscriptions(now)
    }
}

/// Applies a batch with input screening: reports rejected by
/// [`screen_batch`] are skipped, accepted ones applied in order.
/// Returns the number of rejects (`screen_batch` yields indices in
/// ascending order, so one forward cursor suffices).
fn apply_screened(
    updates: &[Update],
    window: Option<(Timestamp, TimeHorizon)>,
    mut apply: impl FnMut(&Update),
) -> u64 {
    let rejected = screen_batch(updates, window);
    let mut next = 0usize;
    for (i, u) in updates.iter().enumerate() {
        if next < rejected.len() && rejected[next].0 == i {
            next += 1;
            continue;
        }
        apply(u);
    }
    rejected.len() as u64
}

impl<I: RangeIndex> DensityEngine for FrEngine<I> {
    fn name(&self) -> &'static str {
        "fr"
    }

    fn bulk_load(&mut self, objects: &[(ObjectId, MotionState)], t_now: Timestamp) {
        FrEngine::bulk_load(self, objects, t_now);
    }

    fn apply_batch(&mut self, updates: &[Update]) {
        let window = Some((self.histogram().t_base(), self.config().horizon));
        let rejects = apply_screened(updates, window, |u| self.apply(u));
        self.note_rejected(rejects);
    }

    fn advance_to(&mut self, t_now: Timestamp) {
        FrEngine::advance_to(self, t_now);
    }

    fn query(&self, q: &PdrQuery) -> EngineAnswer {
        let a = FrEngine::query(self, q);
        EngineAnswer {
            regions: a.regions,
            cpu: a.cpu,
            io: a.io,
            exact: true,
        }
    }

    fn try_query(&self, q: &PdrQuery) -> Result<EngineAnswer, StorageError> {
        let a = FrEngine::try_query(self, q)?;
        Ok(EngineAnswer {
            regions: a.regions,
            cpu: a.cpu,
            io: a.io,
            exact: true,
        })
    }

    fn degraded_query(&self, q: &PdrQuery) -> Option<EngineAnswer> {
        let a = FrEngine::degraded_query(self, q);
        Some(EngineAnswer {
            regions: a.regions,
            cpu: a.cpu,
            io: a.io,
            exact: false,
        })
    }

    fn checkpoint(&self) -> Option<Vec<u8>> {
        Some(self.checkpoint_bytes())
    }

    fn restore_from(&mut self, bytes: &[u8]) -> Result<(), RecoverError> {
        self.restore_from_bytes(bytes)
    }

    fn check_query_edge(&self, l: f64, q_t: Option<Timestamp>) -> Result<(), SubError> {
        let h = self.histogram();
        check_filter_edge(h.grid(), l)?;
        check_horizon(h.horizon(), h.t_base(), q_t)
    }

    fn set_fault_plan(&self, plan: FaultPlan) {
        FrEngine::set_fault_plan(self, plan);
    }

    fn fault_stats(&self) -> FaultStats {
        FrEngine::fault_stats(self)
    }

    fn stats(&self) -> EngineStats {
        EngineStats {
            updates_applied: self.updates_applied(),
            missed_deletes: self.missed_deletes(),
            rejected_updates: self.rejected_updates(),
            memory_bytes: self.histogram().memory_bytes(),
            objects: self.len(),
            queries_served: self.queries_served(),
        }
    }

    fn obs(&self) -> ObsReport {
        self.obs_report()
    }

    fn set_obs_enabled(&mut self, on: bool) {
        FrEngine::set_obs_enabled(self, on);
    }

    fn subscriptions(&self) -> Option<&SubscriptionTable> {
        Some(self.subs())
    }

    fn subscriptions_mut(&mut self) -> Option<&mut SubscriptionTable> {
        Some(self.subs_mut())
    }

    fn maintain_subscriptions(&mut self, now: Timestamp) -> Vec<AnswerDelta> {
        self.maintain_cached(now)
    }
}

impl DensityEngine for PaEngine {
    fn name(&self) -> &'static str {
        "pa"
    }

    fn apply_batch(&mut self, updates: &[Update]) {
        let window = Some((self.t_base(), self.config().horizon));
        let rejects = apply_screened(updates, window, |u| self.apply(u));
        self.note_rejected(rejects);
    }

    fn advance_to(&mut self, t_now: Timestamp) {
        PaEngine::advance_to(self, t_now);
    }

    /// Answers for the engine's *configured* `l` (the PA surface is
    /// maintained for one neighborhood edge); the query's `l` is
    /// ignored, and `exact` is `false` accordingly.
    fn query(&self, q: &PdrQuery) -> EngineAnswer {
        let a = PaEngine::query(self, q.rho, q.q_t);
        EngineAnswer {
            regions: a.regions,
            cpu: a.cpu,
            io: IoStats::default(),
            exact: false,
        }
    }

    fn interval_query(&self, rho: f64, _l: f64, from: Timestamp, to: Timestamp) -> RegionSet {
        PaEngine::interval_query(self, rho, from, to)
    }

    /// PA answers for its configured `l`, so only `q_t` can be refused.
    fn check_query_edge(&self, _l: f64, q_t: Option<Timestamp>) -> Result<(), SubError> {
        check_horizon(self.config().horizon, self.t_base(), q_t)
    }

    fn checkpoint(&self) -> Option<Vec<u8>> {
        Some(seal_checkpoint(&self.serialize()))
    }

    fn restore_from(&mut self, bytes: &[u8]) -> Result<(), RecoverError> {
        let payload = open_checkpoint(bytes)?;
        let mut restored = PaEngine::deserialize(payload)?;
        if restored.config() != self.config() {
            return Err(RecoverError::Mismatch(
                "PA config disagrees with checkpoint",
            ));
        }
        // Subscriptions are engine-plane state, not checkpoint payload:
        // the live table (and its committed answers) survives the
        // restore so the next maintenance emits exact catch-up deltas.
        restored.subs = std::mem::take(&mut self.subs);
        *self = restored;
        Ok(())
    }

    fn stats(&self) -> EngineStats {
        EngineStats {
            updates_applied: self.updates_applied(),
            missed_deletes: 0,
            rejected_updates: self.rejected_updates(),
            memory_bytes: self.memory_bytes(),
            objects: self.live_objects().max(0) as usize,
            queries_served: self.queries_served(),
        }
    }

    fn obs(&self) -> ObsReport {
        self.obs_report()
    }

    fn set_obs_enabled(&mut self, on: bool) {
        PaEngine::set_obs_enabled(self, on);
    }

    fn subscriptions(&self) -> Option<&SubscriptionTable> {
        Some(&self.subs)
    }

    fn subscriptions_mut(&mut self) -> Option<&mut SubscriptionTable> {
        Some(&mut self.subs)
    }
}

impl DensityEngine for ExactOracle {
    fn name(&self) -> &'static str {
        "oracle"
    }

    fn apply_batch(&mut self, updates: &[Update]) {
        for u in updates {
            self.apply(u);
        }
    }

    fn advance_to(&mut self, _t_now: Timestamp) {
        // Brute force extrapolates on demand; no horizon to advance.
    }

    fn query(&self, q: &PdrQuery) -> EngineAnswer {
        let start = Instant::now();
        let regions = self.dense_regions_at(q);
        EngineAnswer {
            regions,
            cpu: start.elapsed(),
            io: IoStats::default(),
            exact: true,
        }
    }

    fn stats(&self) -> EngineStats {
        EngineStats {
            updates_applied: self.updates_applied(),
            missed_deletes: self.missed_deletes(),
            rejected_updates: 0,
            memory_bytes: (self.positions().len() + self.live_objects())
                * std::mem::size_of::<pdr_geometry::Point>(),
            objects: self.positions().len() + self.live_objects(),
            queries_served: 0,
        }
    }

    fn subscriptions(&self) -> Option<&SubscriptionTable> {
        Some(&self.subs)
    }

    fn subscriptions_mut(&mut self) -> Option<&mut SubscriptionTable> {
        Some(&mut self.subs)
    }
}

/// Shared scaffolding of the table-backed wrapper engines (baselines
/// and oracle-style methods that recompute from live positions).
struct LiveTable {
    table: ObjectTable,
    updates_applied: u64,
    missed_deletes: u64,
    rejected_updates: u64,
}

impl LiveTable {
    fn new() -> Self {
        LiveTable {
            table: ObjectTable::new(),
            updates_applied: 0,
            missed_deletes: 0,
            rejected_updates: 0,
        }
    }

    fn apply_batch(&mut self, updates: &[Update]) {
        // No horizon to screen against (the table extrapolates on
        // demand) — only the structural checks apply.
        let table = &mut self.table;
        let mut applied = 0u64;
        let mut missed = 0u64;
        self.rejected_updates += apply_screened(updates, None, |u| {
            applied += 1;
            if !table.apply(u) {
                missed += 1;
            }
        });
        self.updates_applied += applied;
        self.missed_deletes += missed;
    }

    fn stats(&self) -> EngineStats {
        EngineStats {
            updates_applied: self.updates_applied,
            missed_deletes: self.missed_deletes,
            rejected_updates: self.rejected_updates,
            memory_bytes: self.table.len() * std::mem::size_of::<(ObjectId, MotionState)>(),
            objects: self.table.len(),
            queries_served: 0,
        }
    }
}

/// The dense-cell baseline (Hadjieleftheriou et al.) as an engine:
/// maintains live motions in an [`ObjectTable`] and reports grid cells
/// whose own density clears the threshold. Exists so the paper's
/// answer-loss comparison runs through the same serve plane as FR/PA.
pub struct DenseCellEngine {
    grid: GridSpec,
    live: LiveTable,
    subs: SubscriptionTable,
}

impl DenseCellEngine {
    /// Creates the baseline over a fixed reporting grid.
    pub fn new(grid: GridSpec) -> Self {
        DenseCellEngine {
            grid,
            live: LiveTable::new(),
            subs: SubscriptionTable::new(),
        }
    }
}

impl DensityEngine for DenseCellEngine {
    fn name(&self) -> &'static str {
        "dense-cell"
    }

    fn apply_batch(&mut self, updates: &[Update]) {
        self.live.apply_batch(updates);
    }

    fn advance_to(&mut self, _t_now: Timestamp) {}

    fn query(&self, q: &PdrQuery) -> EngineAnswer {
        let start = Instant::now();
        let positions = self.live.table.positions_at(q.q_t);
        let regions = baselines::dense_cell_query(&positions, self.grid, q.rho);
        EngineAnswer {
            regions,
            cpu: start.elapsed(),
            io: IoStats::default(),
            exact: false,
        }
    }

    fn stats(&self) -> EngineStats {
        self.live.stats()
    }

    fn subscriptions(&self) -> Option<&SubscriptionTable> {
        Some(&self.subs)
    }

    fn subscriptions_mut(&mut self) -> Option<&mut SubscriptionTable> {
        Some(&mut self.subs)
    }
}

/// The effective-density-query baseline (Jensen et al.) as an engine:
/// greedy disjoint `l × l` squares over live positions, reported as the
/// union region.
pub struct EdqEngine {
    bounds: Rect,
    live: LiveTable,
    subs: SubscriptionTable,
}

impl EdqEngine {
    /// Creates the baseline over the monitored region.
    pub fn new(bounds: Rect) -> Self {
        EdqEngine {
            bounds,
            live: LiveTable::new(),
            subs: SubscriptionTable::new(),
        }
    }
}

impl DensityEngine for EdqEngine {
    fn name(&self) -> &'static str {
        "edq"
    }

    fn apply_batch(&mut self, updates: &[Update]) {
        self.live.apply_batch(updates);
    }

    fn advance_to(&mut self, _t_now: Timestamp) {}

    fn query(&self, q: &PdrQuery) -> EngineAnswer {
        let start = Instant::now();
        let positions = self.live.table.positions_at(q.q_t);
        let squares = baselines::effective_density_query(&positions, &self.bounds, q);
        EngineAnswer {
            regions: baselines::edq_region(&squares, q.l),
            cpu: start.elapsed(),
            io: IoStats::default(),
            exact: false,
        }
    }

    fn stats(&self) -> EngineStats {
        self.live.stats()
    }

    fn subscriptions(&self) -> Option<&SubscriptionTable> {
        Some(&self.subs)
    }

    fn subscriptions_mut(&mut self) -> Option<&mut SubscriptionTable> {
        Some(&mut self.subs)
    }
}

/// Forcing strategy of a stand-alone density-histogram engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DhMode {
    /// Candidates count as dense: no false negatives (Section 7.2).
    Optimistic,
    /// Candidates are dropped: no false positives.
    Pessimistic,
}

/// The filter step used *as the whole method* (the "DH" rows of
/// Figure 8), behind the engine plane so the accuracy sweeps compare it
/// through the same driver as PA.
pub struct DhEngine {
    histogram: DensityHistogram,
    mode: DhMode,
    updates_applied: u64,
    rejected_updates: u64,
    live: i64,
    subs: SubscriptionTable,
    /// Incremental-maintenance cache: one classified answer per
    /// distinct `(ρ, l, q_t)` group of standing queries, tagged with the
    /// histogram epoch it was computed at. An unchanged epoch means no
    /// update touched the histogram, so the cached answer is reused
    /// without reclassifying.
    sub_cache: HashMap<GroupKey, (u64, RegionSet)>,
}

impl DhEngine {
    /// Creates a stand-alone DH engine. Reuses [`FrConfig`] for the
    /// grid/horizon shape; the index-related fields are ignored.
    pub fn new(cfg: FrConfig, mode: DhMode, t_start: Timestamp) -> Self {
        DhEngine {
            histogram: DensityHistogram::new(cfg.extent, cfg.m, cfg.horizon, t_start),
            mode,
            updates_applied: 0,
            rejected_updates: 0,
            live: 0,
            subs: SubscriptionTable::new(),
            sub_cache: HashMap::new(),
        }
    }

    /// The underlying histogram (for memory sweeps).
    pub fn histogram(&self) -> &DensityHistogram {
        &self.histogram
    }
}

impl DensityEngine for DhEngine {
    fn name(&self) -> &'static str {
        match self.mode {
            DhMode::Optimistic => "dh-opt",
            DhMode::Pessimistic => "dh-pess",
        }
    }

    fn check_query_edge(&self, l: f64, q_t: Option<Timestamp>) -> Result<(), SubError> {
        check_filter_edge(self.histogram.grid(), l)?;
        check_horizon(self.histogram.horizon(), self.histogram.t_base(), q_t)
    }

    fn apply_batch(&mut self, updates: &[Update]) {
        let window = Some((self.histogram.t_base(), self.histogram.horizon()));
        let histogram = &mut self.histogram;
        let mut applied = 0u64;
        let mut live = 0i64;
        self.rejected_updates += apply_screened(updates, window, |u| {
            applied += 1;
            live += u.sign();
            histogram.apply(u);
        });
        self.updates_applied += applied;
        self.live += live;
    }

    fn advance_to(&mut self, t_now: Timestamp) {
        self.histogram.advance_to(t_now);
    }

    fn query(&self, q: &PdrQuery) -> EngineAnswer {
        let start = Instant::now();
        EngineAnswer {
            regions: dh_answer(&self.histogram, self.mode, q),
            cpu: start.elapsed(),
            io: IoStats::default(),
            exact: false,
        }
    }

    fn stats(&self) -> EngineStats {
        EngineStats {
            updates_applied: self.updates_applied,
            missed_deletes: 0,
            rejected_updates: self.rejected_updates,
            memory_bytes: self.histogram.memory_bytes(),
            objects: self.live.max(0) as usize,
            queries_served: 0,
        }
    }

    fn subscriptions(&self) -> Option<&SubscriptionTable> {
        Some(&self.subs)
    }

    fn subscriptions_mut(&mut self) -> Option<&mut SubscriptionTable> {
        Some(&mut self.subs)
    }

    fn maintain_subscriptions(&mut self, now: Timestamp) -> Vec<AnswerDelta> {
        let (histogram, mode, cache) = (&self.histogram, self.mode, &mut self.sub_cache);
        let epoch = histogram.epoch();
        let (deltas, live) = self.subs.maintain(now, |q| {
            let key = (q.rho.to_bits(), q.l.to_bits(), q.q_t);
            match cache.get(&key) {
                Some((e, cached)) if *e == epoch => Ok(cached.clone()),
                _ => {
                    let regions = dh_answer(histogram, mode, q);
                    cache.insert(key, (epoch, regions.clone()));
                    Ok(regions)
                }
            }
        });
        self.sub_cache.retain(|k, _| live.binary_search(k).is_ok());
        deltas
    }
}

/// The DH answer to `q`: Algorithm 1's classification at `q_t`, with
/// candidate cells forced dense or sparse by `mode`.
fn dh_answer(histogram: &DensityHistogram, mode: DhMode, q: &PdrQuery) -> RegionSet {
    let sums = histogram.prefix_sums_at(q.q_t);
    let cls = classify_cells(histogram.grid(), &sums, q);
    match mode {
        DhMode::Optimistic => dh_optimistic(&cls),
        DhMode::Pessimistic => dh_pessimistic(&cls),
    }
}

/// Declarative engine construction: consumers (CLI, benches, serve
/// drivers) name what they want and receive trait objects, never
/// touching concrete engine types.
#[derive(Clone, Debug)]
pub enum EngineSpec {
    /// Exact FR over the TPR-tree (the paper's default).
    Fr(FrConfig),
    /// Exact FR over the velocity-bounded grid index ablation.
    FrGrid {
        /// FR configuration (histogram, horizon, buffer pool).
        fr: FrConfig,
        /// Grid-index buckets per side.
        buckets_per_side: u32,
    },
    /// Approximate PA (Chebyshev surface).
    Pa(PaConfig),
    /// Brute-force oracle over live updates.
    Oracle {
        /// Monitored region.
        bounds: Rect,
    },
    /// Dense-cell prior-work baseline.
    DenseCell {
        /// Reporting grid.
        grid: GridSpec,
    },
    /// Effective-density-query prior-work baseline.
    Edq {
        /// Monitored region.
        bounds: Rect,
    },
    /// Stand-alone density histogram, forced optimistic or pessimistic.
    Dh(FrConfig, DhMode),
    /// Shared-nothing sharded plane over an inner engine: `sx × sy`
    /// spatial shards, each a full-domain inner engine fed the routed
    /// subset of traffic within its halo, merged with the canonical
    /// clipped union (see [`crate::ShardedEngine`]).
    ///
    /// `l_max` is the largest neighborhood edge queries will use; the
    /// halo is sized `l_max/2 + 2·pitch` (pitch = the inner structure's
    /// cell edge), which is exactly what boundary exactness needs.
    /// Queries with `l > l_max` may lose density at cut lines. The EDQ
    /// baseline is *not* decomposable (its greedy packing is global);
    /// sharding it yields a different — still approximate — packing.
    Sharded {
        /// The engine each shard runs (nesting `Sharded` is rejected).
        inner: Box<EngineSpec>,
        /// Shards along X.
        sx: u32,
        /// Shards along Y.
        sy: u32,
        /// Largest query neighborhood edge the halo must cover.
        l_max: f64,
        /// Hotspot-adaptive topology policy. `None` keeps the fixed
        /// `sx`×`sy` grid forever; `Some` lets the plane split hot
        /// leaves and merge cold sibling groups on its own (see
        /// [`SplitPolicy`](crate::SplitPolicy)).
        adaptive: Option<crate::SplitPolicy>,
    },
}

/// Why an [`EngineSpec`] cannot be built or cannot serve a query.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EngineSpecError {
    /// `Sharded` nested inside `Sharded`.
    NestedSharding,
    /// The sharded plane's `l_max` is non-finite or non-positive.
    InvalidLMax(f64),
    /// A log-shipping replica was requested for a spec that is not
    /// `Sharded` — only a sharded plane has the per-shard WAL segments
    /// replication consumes.
    ReplicaNeedsSharding,
}

impl std::fmt::Display for EngineSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineSpecError::NestedSharding => write!(f, "nested sharding is not supported"),
            EngineSpecError::InvalidLMax(l_max) => {
                write!(
                    f,
                    "l_max must be a positive finite edge length, got {l_max}"
                )
            }
            EngineSpecError::ReplicaNeedsSharding => write!(
                f,
                "a log-shipping replica needs a sharded spec (the per-shard \
                 WAL segments are what replication consumes)"
            ),
        }
    }
}

impl std::error::Error for EngineSpecError {}

impl EngineSpec {
    /// The name the built engine will report.
    pub fn name(&self) -> &'static str {
        match self {
            EngineSpec::Fr(_) => "fr",
            EngineSpec::FrGrid { .. } => "fr",
            EngineSpec::Pa(_) => "pa",
            EngineSpec::Oracle { .. } => "oracle",
            EngineSpec::DenseCell { .. } => "dense-cell",
            EngineSpec::Edq { .. } => "edq",
            EngineSpec::Dh(_, DhMode::Optimistic) => "dh-opt",
            EngineSpec::Dh(_, DhMode::Pessimistic) => "dh-pess",
            EngineSpec::Sharded { inner, .. } => match inner.name() {
                "fr" => "sharded-fr",
                "pa" => "sharded-pa",
                "oracle" => "sharded-oracle",
                "dense-cell" => "sharded-dense-cell",
                "edq" => "sharded-edq",
                "dh-opt" => "sharded-dh-opt",
                "dh-pess" => "sharded-dh-pess",
                _ => "sharded",
            },
        }
    }

    /// The finite domain the engine monitors (the sharded plane cuts
    /// this into tiles).
    fn domain_bounds(&self) -> Rect {
        match self {
            EngineSpec::Fr(cfg) | EngineSpec::FrGrid { fr: cfg, .. } | EngineSpec::Dh(cfg, _) => {
                Rect::new(0.0, 0.0, cfg.extent, cfg.extent)
            }
            EngineSpec::Pa(cfg) => Rect::new(0.0, 0.0, cfg.extent, cfg.extent),
            EngineSpec::Oracle { bounds } | EngineSpec::Edq { bounds } => *bounds,
            EngineSpec::DenseCell { grid } => grid.bounds(),
            EngineSpec::Sharded { inner, .. } => inner.domain_bounds(),
        }
    }

    /// The edge length of the engine's summary-structure cell — the
    /// classification/deposit reach a shard halo must add on top of
    /// `l_max/2` (zero for structure-free engines).
    fn structure_pitch(&self) -> f64 {
        match self {
            EngineSpec::Fr(cfg) | EngineSpec::FrGrid { fr: cfg, .. } | EngineSpec::Dh(cfg, _) => {
                cfg.extent / cfg.m as f64
            }
            EngineSpec::Pa(cfg) => cfg.extent / cfg.g as f64,
            EngineSpec::Oracle { .. } | EngineSpec::Edq { .. } => 0.0,
            EngineSpec::DenseCell { grid } => grid.cell_edge(),
            EngineSpec::Sharded { inner, .. } => inner.structure_pitch(),
        }
    }

    /// The time horizon updates are screened against (engines without
    /// one route by the paper default, a superset — harmless).
    fn routing_horizon(&self) -> pdr_mobject::TimeHorizon {
        match self {
            EngineSpec::Fr(cfg) | EngineSpec::FrGrid { fr: cfg, .. } | EngineSpec::Dh(cfg, _) => {
                cfg.horizon
            }
            EngineSpec::Pa(cfg) => cfg.horizon,
            EngineSpec::Sharded { inner, .. } => inner.routing_horizon(),
            _ => pdr_mobject::TimeHorizon::PAPER_DEFAULT,
        }
    }

    /// The inner spec one shard of an `shards`-way plane runs: the
    /// global buffer pool is divided across shards (shared-nothing).
    /// Refinement parallelism is kept as configured — the shard fan-out
    /// and the inner refinement scopes nest on the same shared
    /// [`Executor`](crate::exec::Executor), so there is no
    /// oversubscription to work around (inner threads used to be pinned
    /// to 1 here when every scope spawned its own threads).
    fn per_shard_spec(&self, shards: usize) -> EngineSpec {
        let mut spec = self.clone();
        match &mut spec {
            EngineSpec::Fr(cfg) | EngineSpec::FrGrid { fr: cfg, .. } | EngineSpec::Dh(cfg, _) => {
                cfg.buffer_pages = (cfg.buffer_pages / shards).max(8);
            }
            _ => {}
        }
        spec
    }

    /// Builds the engine, empty, with its horizon starting at `t_start`.
    /// Panics on an invalid spec; [`try_build`](Self::try_build) is the
    /// fallible form.
    pub fn build(&self, t_start: Timestamp) -> Box<dyn DensityEngine> {
        self.try_build(t_start).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds the engine, surfacing invalid specs (nested sharding, bad
    /// `l_max`) as a typed [`EngineSpecError`] instead of panicking.
    pub fn try_build(&self, t_start: Timestamp) -> Result<Box<dyn DensityEngine>, EngineSpecError> {
        Ok(match self {
            EngineSpec::Fr(cfg) => Box::new(FrEngine::new(*cfg, t_start)),
            EngineSpec::FrGrid {
                fr,
                buckets_per_side,
            } => {
                let grid = pdr_gridindex::GridIndex::new(
                    pdr_gridindex::GridIndexConfig {
                        extent: fr.extent,
                        buckets_per_side: *buckets_per_side,
                        buffer_pages: fr.buffer_pages,
                    },
                    t_start,
                );
                Box::new(FrEngine::with_index(*fr, grid, t_start))
            }
            EngineSpec::Pa(cfg) => Box::new(PaEngine::new(*cfg, t_start)),
            EngineSpec::Oracle { bounds } => Box::new(ExactOracle::new(*bounds, Vec::new())),
            EngineSpec::DenseCell { grid } => Box::new(DenseCellEngine::new(*grid)),
            EngineSpec::Edq { bounds } => Box::new(EdqEngine::new(*bounds)),
            EngineSpec::Dh(cfg, mode) => Box::new(DhEngine::new(*cfg, *mode, t_start)),
            EngineSpec::Sharded { .. } => Box::new(self.build_plane(t_start)?),
        })
    }

    /// Builds the concrete sharded plane a `Sharded` spec describes.
    /// Errors on any other variant — callers that need the log-shipping
    /// primary surface ([`ShardedEngine`](crate::ShardedEngine)) or a
    /// replica around it come through here.
    fn build_plane(&self, t_start: Timestamp) -> Result<crate::ShardedEngine, EngineSpecError> {
        let EngineSpec::Sharded {
            inner,
            sx,
            sy,
            l_max,
            adaptive,
        } = self
        else {
            return Err(EngineSpecError::ReplicaNeedsSharding);
        };
        if matches!(**inner, EngineSpec::Sharded { .. }) {
            return Err(EngineSpecError::NestedSharding);
        }
        if !(l_max.is_finite() && *l_max > 0.0) {
            return Err(EngineSpecError::InvalidLMax(*l_max));
        }
        let shards = (*sx as usize) * (*sy as usize);
        let halo = l_max / 2.0 + 2.0 * inner.structure_pitch();
        let map = crate::ShardMap::new(inner.domain_bounds(), *sx, *sy, halo);
        let per_shard = inner.per_shard_spec(shards);
        let threads = match **inner {
            EngineSpec::Fr(cfg) | EngineSpec::FrGrid { fr: cfg, .. } | EngineSpec::Dh(cfg, _) => {
                cfg.threads
            }
            _ => 0,
        };
        let mut plane = crate::ShardedEngine::new(
            self.name(),
            map,
            inner.routing_horizon(),
            t_start,
            threads,
            *l_max,
            move |_| per_shard.build(t_start),
        );
        plane.set_policy(*adaptive);
        Ok(plane)
    }

    /// Builds a read-only log-shipping [`Replica`](crate::Replica)
    /// around the sharded plane this spec describes. The spec (and
    /// therefore the grid, halo and inner engine configuration) must
    /// match the primary's for shipped answers to be bit-identical.
    pub fn try_build_replica(
        &self,
        t_start: Timestamp,
    ) -> Result<Box<dyn DensityEngine>, EngineSpecError> {
        Ok(Box::new(crate::Replica::new(self.build_plane(t_start)?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdr_geometry::Point;
    use pdr_mobject::TimeHorizon;

    fn small_fr_cfg() -> FrConfig {
        FrConfig {
            extent: 100.0,
            // Cell edge 100/20 = 5 ≤ l/2 for the l = 10..12 queries below.
            m: 20,
            horizon: TimeHorizon::new(4, 4),
            buffer_pages: 32,
            threads: 1,
        }
    }

    fn population(n: usize) -> Vec<(ObjectId, MotionState)> {
        let mut seed = 42u64;
        let mut rng = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as f64 / (1u64 << 31) as f64
        };
        (0..n)
            .map(|i| {
                (
                    ObjectId(i as u64),
                    MotionState::new(
                        Point::new(rng() * 100.0, rng() * 100.0),
                        Point::new(rng() * 2.0 - 1.0, rng() * 2.0 - 1.0),
                        0,
                    ),
                )
            })
            .collect()
    }

    #[test]
    fn every_spec_builds_and_serves_the_same_script() {
        let bounds = Rect::new(0.0, 0.0, 100.0, 100.0);
        let specs = [
            EngineSpec::Fr(small_fr_cfg()),
            EngineSpec::FrGrid {
                fr: small_fr_cfg(),
                buckets_per_side: 8,
            },
            EngineSpec::Pa(PaConfig {
                extent: 100.0,
                g: 5,
                degree: 4,
                l: 10.0,
                horizon: TimeHorizon::new(4, 4),
                m_d: 100,
            }),
            EngineSpec::Oracle { bounds },
            EngineSpec::DenseCell {
                grid: GridSpec::unit_origin(100.0, 10),
            },
            EngineSpec::Edq { bounds },
            EngineSpec::Dh(small_fr_cfg(), DhMode::Optimistic),
            EngineSpec::Dh(small_fr_cfg(), DhMode::Pessimistic),
        ];
        let pop = population(120);
        let q = PdrQuery::new(4.0 / 100.0, 10.0, 2);
        for spec in &specs {
            let mut eng = spec.build(0);
            assert_eq!(eng.name(), spec.name());
            eng.bulk_load(&pop, 0);
            let stats = eng.stats();
            assert_eq!(stats.updates_applied, 120, "{}", eng.name());
            assert_eq!(stats.missed_deletes, 0, "{}", eng.name());
            let a1 = eng.query(&q);
            let a2 = eng.query(&q);
            assert_eq!(
                a1.regions.rects(),
                a2.regions.rects(),
                "{}: repeated query must be deterministic",
                eng.name()
            );
            // Ingest continues to work after queries.
            eng.advance_to(1);
            eng.apply_batch(&[Update::insert(
                ObjectId(10_000),
                1,
                MotionState::stationary(Point::new(50.0, 50.0), 1),
            )]);
            assert_eq!(eng.stats().updates_applied, 121, "{}", eng.name());
        }
    }

    #[test]
    fn exact_engines_agree_and_flag_exactness() {
        let bounds = Rect::new(0.0, 0.0, 100.0, 100.0);
        let pop = population(200);
        let mut fr = EngineSpec::Fr(small_fr_cfg()).build(0);
        let mut oracle = EngineSpec::Oracle { bounds }.build(0);
        fr.bulk_load(&pop, 0);
        oracle.bulk_load(&pop, 0);
        for q_t in 0..3u64 {
            let q = PdrQuery::new(5.0 / 100.0, 12.0, q_t);
            let a = fr.query(&q);
            let b = oracle.query(&q);
            assert!(a.exact && b.exact);
            assert!(
                a.regions.symmetric_difference_area(&b.regions) < 1e-9,
                "FR and oracle disagree at t={q_t}"
            );
        }
    }

    #[test]
    fn missed_deletes_are_counted_not_fatal() {
        let mut eng = EngineSpec::Fr(small_fr_cfg()).build(0);
        let phantom = Update::delete(
            ObjectId(777),
            0,
            MotionState::stationary(Point::new(5.0, 5.0), 0),
        );
        eng.apply_batch(&[phantom]);
        let stats = eng.stats();
        assert_eq!(stats.updates_applied, 1);
        assert_eq!(stats.missed_deletes, 1);
    }

    #[test]
    fn default_interval_query_unions_snapshots() {
        let bounds = Rect::new(0.0, 0.0, 100.0, 100.0);
        let mut oracle = EngineSpec::Oracle { bounds }.build(0);
        // One stationary cluster: dense at every timestamp.
        let pop: Vec<(ObjectId, MotionState)> = (0..6)
            .map(|i| {
                (
                    ObjectId(i),
                    MotionState::stationary(Point::new(40.0, 40.0), 0),
                )
            })
            .collect();
        oracle.bulk_load(&pop, 0);
        let region = oracle.interval_query(5.0 / 100.0, 10.0, 0, 5);
        assert!(region.contains(Point::new(40.0, 40.0)));
        let snap = oracle.query(&PdrQuery::new(5.0 / 100.0, 10.0, 3));
        // The interval union covers any single snapshot.
        assert!(region.area() >= snap.regions.area() - 1e-9);
    }

    #[test]
    fn spec_errors_are_typed_and_query_edges_validated() {
        let sharded = EngineSpec::Sharded {
            adaptive: None,
            inner: Box::new(EngineSpec::Fr(small_fr_cfg())),
            sx: 2,
            sy: 2,
            l_max: 10.0,
        };
        let nested = EngineSpec::Sharded {
            adaptive: None,
            inner: Box::new(sharded.clone()),
            sx: 2,
            sy: 1,
            l_max: 10.0,
        };
        assert_eq!(
            nested.try_build(0).err(),
            Some(EngineSpecError::NestedSharding)
        );
        for bad_l_max in [f64::NAN, f64::INFINITY, 0.0, -3.0] {
            let bad = EngineSpec::Sharded {
                adaptive: None,
                inner: Box::new(EngineSpec::Fr(small_fr_cfg())),
                sx: 2,
                sy: 2,
                l_max: bad_l_max,
            };
            assert!(
                matches!(
                    bad.try_build(0).err(),
                    Some(EngineSpecError::InvalidLMax(_))
                ),
                "l_max = {bad_l_max} must be refused"
            );
        }
    }

    #[test]
    fn sharded_plane_refuses_subscriptions_wider_than_its_halo() {
        use crate::sub::{QtPolicy, SubError};
        let spec = EngineSpec::Sharded {
            adaptive: None,
            inner: Box::new(EngineSpec::Fr(small_fr_cfg())),
            sx: 2,
            sy: 2,
            l_max: 10.0,
        };
        let mut eng = spec.try_build(0).expect("valid spec builds");
        let region = Rect::new(0.0, 0.0, 100.0, 100.0);
        match eng.register_subscription(0.05, 12.0, region, QtPolicy::NowPlus(2)) {
            Err(SubError::EdgeExceedsHalo { l, l_max }) => {
                assert_eq!(l, 12.0);
                assert_eq!(l_max, 10.0);
            }
            other => panic!("expected EdgeExceedsHalo, got {other:?}"),
        }
        let id = eng
            .register_subscription(0.05, 10.0, region, QtPolicy::NowPlus(2))
            .expect("l = l_max registers");
        assert!(eng.subscriptions().expect("sharded table").contains(id));
        // Per-shard metrics expose the routed registration.
        let json = eng.shard_metrics_json().expect("sharded metrics");
        assert!(json.contains("\"subs\":1"), "{json}");
        assert!(eng.unregister_subscription(id));
        assert!(!eng.unregister_subscription(id));
        // One fixed leaf has no cut line for a halo to cover: it takes
        // every edge the bare engine takes, until a policy may cut it.
        let one_leaf = |adaptive| EngineSpec::Sharded {
            adaptive,
            inner: Box::new(EngineSpec::Fr(small_fr_cfg())),
            sx: 1,
            sy: 1,
            l_max: 10.0,
        };
        let mut eng = one_leaf(None).try_build(0).expect("valid spec builds");
        eng.register_subscription(0.05, 12.0, region, QtPolicy::NowPlus(2))
            .expect("a lone fixed leaf registers l > l_max");
        // ...and a manual split, which would cut under that query, is refused.
        let plane = eng.as_sharded_mut().expect("sharded plane");
        assert_eq!(plane.rebalance_split(), Err(crate::TopologyError::Limits));
        let adaptive = one_leaf(Some(crate::SplitPolicy::default()));
        let mut eng = adaptive.try_build(0).expect("valid spec builds");
        assert!(matches!(
            eng.register_subscription(0.05, 12.0, region, QtPolicy::NowPlus(2)),
            Err(SubError::EdgeExceedsHalo { .. })
        ));
    }

    #[test]
    fn filter_engines_refuse_edges_below_twice_the_cell_edge() {
        use crate::sub::{QtPolicy, SubError};
        let region = Rect::new(0.0, 0.0, 100.0, 100.0);
        for spec in [
            EngineSpec::Fr(small_fr_cfg()),
            EngineSpec::Dh(small_fr_cfg(), DhMode::Optimistic),
            EngineSpec::Sharded {
                adaptive: None,
                inner: Box::new(EngineSpec::Fr(small_fr_cfg())),
                sx: 2,
                sy: 2,
                l_max: 10.0,
            },
        ] {
            let mut eng = spec.build(0);
            // Cell edge 5: l = 9.5 cannot be classified, l = 10 can.
            assert_eq!(
                eng.register_subscription(0.05, 9.5, region, QtPolicy::NowPlus(0)),
                Err(SubError::EdgeBelowFilterCell {
                    l: 9.5,
                    l_min: 10.0
                }),
                "{}",
                eng.name()
            );
            assert!(eng.subscriptions().is_some_and(|t| t.is_empty()));
            assert_eq!(eng.check_query_edge(10.0, None), Ok(()), "{}", eng.name());
            eng.register_subscription(0.05, 10.0, region, QtPolicy::NowPlus(0))
                .expect("l = 2 l_c registers");
        }
    }

    /// Engines with a horizon refuse a resolved `q_t` outside
    /// `[t_base, t_base + H]` with a typed error (their queries would
    /// panic there); engines without one accept any timestamp.
    #[test]
    fn engines_refuse_q_t_outside_their_horizon() {
        use crate::sub::SubError;
        let pa = PaConfig {
            extent: 100.0,
            g: 4,
            degree: 3,
            l: 10.0,
            horizon: TimeHorizon::new(4, 4),
            m_d: 64,
        };
        for spec in [
            EngineSpec::Fr(small_fr_cfg()),
            EngineSpec::Dh(small_fr_cfg(), DhMode::Pessimistic),
            EngineSpec::Pa(pa),
            EngineSpec::Sharded {
                adaptive: None,
                inner: Box::new(EngineSpec::Pa(pa)),
                sx: 2,
                sy: 2,
                l_max: 10.0,
            },
        ] {
            let mut eng = spec.build(0);
            eng.advance_to(3);
            for q_t in [3, 11] {
                assert_eq!(
                    eng.check_query_edge(10.0, Some(q_t)),
                    Ok(()),
                    "{}",
                    eng.name()
                );
            }
            for q_t in [2, 12] {
                assert_eq!(
                    eng.check_query_edge(10.0, Some(q_t)),
                    Err(SubError::QtOutsideHorizon {
                        q_t,
                        from: 3,
                        to: 11
                    }),
                    "{}",
                    eng.name()
                );
            }
        }
        let oracle = EngineSpec::Oracle {
            bounds: Rect::new(0.0, 0.0, 100.0, 100.0),
        }
        .build(0);
        assert_eq!(oracle.check_query_edge(10.0, Some(1_000)), Ok(()));
    }

    /// Every engine — whatever its maintenance path (default recompute,
    /// FR/DH incremental, sharded fan-out) — must keep each standing
    /// subscription's answer bit-identical to a from-scratch `query`
    /// clipped to the region, and its deltas must replay to the same
    /// rect list.
    #[test]
    fn subscription_deltas_replay_to_from_scratch_answers_for_every_spec() {
        use crate::sub::QtPolicy;
        let bounds = Rect::new(0.0, 0.0, 100.0, 100.0);
        let specs = [
            EngineSpec::Fr(small_fr_cfg()),
            EngineSpec::Pa(PaConfig {
                extent: 100.0,
                g: 5,
                degree: 4,
                l: 10.0,
                horizon: TimeHorizon::new(4, 4),
                m_d: 100,
            }),
            EngineSpec::Oracle { bounds },
            EngineSpec::DenseCell {
                grid: GridSpec::unit_origin(100.0, 10),
            },
            EngineSpec::Edq { bounds },
            EngineSpec::Dh(small_fr_cfg(), DhMode::Optimistic),
            EngineSpec::Dh(small_fr_cfg(), DhMode::Pessimistic),
            EngineSpec::Sharded {
                adaptive: None,
                inner: Box::new(EngineSpec::Fr(small_fr_cfg())),
                sx: 2,
                sy: 2,
                l_max: 10.0,
            },
        ];
        let pop = population(150);
        for spec in &specs {
            let mut eng = spec.build(0);
            eng.bulk_load(&pop, 0);
            let subs = [
                (
                    0.04,
                    10.0,
                    Rect::new(0.0, 0.0, 100.0, 100.0),
                    QtPolicy::NowPlus(2),
                ),
                (
                    0.05,
                    10.0,
                    Rect::new(10.0, 15.0, 70.0, 90.0),
                    QtPolicy::Fixed(3),
                ),
            ];
            let ids: Vec<_> = subs
                .iter()
                .map(|&(rho, l, region, policy)| {
                    eng.register_subscription(rho, l, region, policy)
                        .expect("registration")
                })
                .collect();
            let mut mirrors: Vec<Vec<Rect>> = vec![Vec::new(); ids.len()];
            let mut seed = 7u64;
            let mut rng = move || {
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (seed >> 33) as f64 / (1u64 << 31) as f64
            };
            for now in 0..4u64 {
                if now > 0 {
                    eng.advance_to(now);
                }
                let batch: Vec<Update> = (0..20)
                    .map(|j| {
                        // Fresh ids each tick: the TPR-tree requires moves
                        // to arrive as delete + insert, and inserts alone
                        // are enough to flip classifications.
                        let id = ObjectId(10_000 + now * 100 + j);
                        Update::insert(
                            id,
                            now,
                            MotionState::new(
                                Point::new(rng() * 100.0, rng() * 100.0),
                                Point::new(rng() * 2.0 - 1.0, rng() * 2.0 - 1.0),
                                now,
                            ),
                        )
                    })
                    .collect();
                let deltas = eng.apply_batch_with_deltas(&batch, now);
                for d in &deltas {
                    let k = ids.iter().position(|&i| i == d.id).expect("known sub");
                    assert!(!d.degraded, "{}: no faults were armed", eng.name());
                    d.apply_to(&mut mirrors[k]);
                }
                for (k, &(rho, l, region, policy)) in subs.iter().enumerate() {
                    let q_t = policy.resolve(now);
                    let reference = crate::sub::SubscriptionTable::clip(
                        &eng.query(&PdrQuery::new(rho, l, q_t)).regions,
                        region,
                    );
                    let table = eng.subscriptions().expect("every engine has a table");
                    assert_eq!(
                        table.answer(ids[k]).expect("registered"),
                        reference.rects(),
                        "{}: committed answer diverged at t={now}",
                        eng.name()
                    );
                    assert_eq!(
                        mirrors[k].as_slice(),
                        reference.rects(),
                        "{}: replayed deltas diverged at t={now}",
                        eng.name()
                    );
                }
            }
        }
    }
}
