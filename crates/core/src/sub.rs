//! Standing PDR subscriptions with incremental delta answers.
//!
//! A [`Subscription`] is a PDR query that stays registered: instead of
//! recomputing `query(ρ, l, q_t)` from scratch every tick, the engine
//! maintains the subscription's canonical answer across
//! `apply_batch`/`advance_to` and emits an [`AnswerDelta`] — the exact
//! rectangle-level patch between the previous canonical answer and the
//! new one. Because every engine answer is canonicalized (the maximal
//! slab decomposition is a pure function of the dense point set, see
//! [`RegionSet::canonicalize`]), the patched answer is **bit-identical**
//! to a from-scratch `query` at every tick; the incremental path only
//! changes *how much work* producing it costs, never the bytes.
//!
//! The [`SubscriptionTable`] is the per-engine registry: it owns the
//! subscriptions, their last committed answers, and the diff logic.
//! Engines expose it through
//! [`DensityEngine::subscriptions`](crate::DensityEngine::subscriptions).
//!
//! Every unsharded engine maintains its subscriptions through one loop,
//! [`SubscriptionTable::maintain`]: subscriptions sharing `(ρ, l,
//! resolved q_t)` form a group, each group's full-domain answer is
//! evaluated once, and each subscription commits its clipped answer.
//! Engines differ only in the evaluator they hand it: the default
//! recomputes the query, FR reuses refined cells the histogram's
//! dirty-cell marks leave untouched (see
//! `pdr_histogram::DensityHistogram::dirty_cells_since`), and DH reuses
//! a group's answer while the histogram epoch is unchanged.

use crate::PdrQuery;
use pdr_geometry::{Rect, RegionSet};
use pdr_mobject::{TimeHorizon, Timestamp};
use pdr_storage::StorageError;
use std::collections::BTreeMap;

/// Identifier of a standing subscription, unique within one engine
/// plane (a sharded plane registers the same id on every owning shard).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubId(pub u64);

/// How a standing query's evaluation timestamp tracks the clock.
///
/// Both policies resolve to a timestamp `≥ now`: incremental
/// maintenance relies on every update dirtying the cells it can affect
/// at *current-or-future* timestamps, so standing queries about the
/// past are clamped to the present (the engines' horizon ring buffer
/// recycles past slots anyway).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QtPolicy {
    /// Evaluate at a fixed timestamp, clamped up to `now` once the
    /// clock passes it.
    Fixed(Timestamp),
    /// Evaluate `offset` timestamps into the prediction window, sliding
    /// with the clock (`q_t = now + offset`).
    NowPlus(u64),
}

impl QtPolicy {
    /// The evaluation timestamp at clock `now` (always `≥ now`).
    pub fn resolve(&self, now: Timestamp) -> Timestamp {
        match self {
            QtPolicy::Fixed(t) => (*t).max(now),
            QtPolicy::NowPlus(offset) => now + offset,
        }
    }
}

/// A standing PDR query: `(ρ, l, q_t policy)` restricted to a region of
/// interest.
#[derive(Clone, Copy, Debug)]
pub struct Subscription {
    /// Table-assigned identifier.
    pub id: SubId,
    /// Density threshold ρ (objects per unit²).
    pub rho: f64,
    /// Neighborhood edge length `l`.
    pub l: f64,
    /// Region of interest: the maintained answer is the engine's dense
    /// region clipped to this rectangle (then canonicalized).
    pub region: Rect,
    /// How `q_t` tracks the clock.
    pub policy: QtPolicy,
}

/// The incremental patch between two consecutive canonical answers of
/// one subscription.
///
/// Applying the patch to the previous canonical rectangle list — remove
/// every rect of `removed` (exact bit match), append `added`, re-sort —
/// reproduces the new canonical answer rect-for-rect
/// ([`apply_to`](AnswerDelta::apply_to)).
#[derive(Clone, Debug)]
pub struct AnswerDelta {
    /// The subscription this patch belongs to.
    pub id: SubId,
    /// The clock tick the patch was produced at.
    pub now: Timestamp,
    /// The resolved evaluation timestamp.
    pub q_t: Timestamp,
    /// Rectangles present in the new answer but not the old.
    pub added: Vec<Rect>,
    /// Rectangles present in the old answer but not the new.
    pub removed: Vec<Rect>,
    /// `true` while the engine cannot maintain this subscription
    /// exactly (e.g. its owning shard is fault-degraded). A degraded
    /// patch carries no rects — the previous answer stays authoritative
    /// but stale; the first non-degraded patch afterwards catches up.
    pub degraded: bool,
    /// `true` on the first patch emitted after the subscription was
    /// re-routed to a new owner set (a shard split, merge, or plane
    /// restore). The patch itself is still an exact diff — consumers
    /// replay it like any other — the marker only tells them the
    /// serving topology changed underneath the subscription.
    pub resync: bool,
}

/// Canonical rectangle order: the total order
/// [`RegionSet::canonicalize`] sorts by, extended over all four
/// coordinates so it is total on arbitrary rect lists.
pub fn rect_cmp(a: &Rect, b: &Rect) -> std::cmp::Ordering {
    a.x_lo
        .total_cmp(&b.x_lo)
        .then(a.y_lo.total_cmp(&b.y_lo))
        .then(a.x_hi.total_cmp(&b.x_hi))
        .then(a.y_hi.total_cmp(&b.y_hi))
}

/// Exact diff of two canonical (sorted, disjoint) rectangle lists:
/// returns `(added, removed)` such that removing `removed` from `old`
/// and appending `added` (re-sorted) reproduces `new` bit-for-bit.
/// Linear merge walk — no geometry, pure bit comparison.
pub fn diff_canonical(old: &[Rect], new: &[Rect]) -> (Vec<Rect>, Vec<Rect>) {
    let mut added = Vec::new();
    let mut removed = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < old.len() && j < new.len() {
        match rect_cmp(&old[i], &new[j]) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                removed.push(old[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                added.push(new[j]);
                j += 1;
            }
        }
    }
    removed.extend_from_slice(&old[i..]);
    added.extend_from_slice(&new[j..]);
    (added, removed)
}

impl AnswerDelta {
    /// `true` when the patch changes nothing (and carries no
    /// degradation transition worth reporting).
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Applies the patch to a canonical rectangle list in place,
    /// reproducing the next canonical answer bit-for-bit. Degraded
    /// patches carry no rects, so applying them is a no-op.
    pub fn apply_to(&self, rects: &mut Vec<Rect>) {
        if !self.removed.is_empty() {
            // Both lists are sorted in canonical order: subtract with
            // one merge walk.
            let mut k = 0usize;
            rects.retain(|r| {
                while k < self.removed.len()
                    && rect_cmp(&self.removed[k], r) == std::cmp::Ordering::Less
                {
                    k += 1;
                }
                !(k < self.removed.len()
                    && rect_cmp(&self.removed[k], r) == std::cmp::Ordering::Equal)
            });
        }
        // Replayed answers are held for the subscription's lifetime:
        // grow to the exact size instead of doubling.
        rects.reserve_exact(self.added.len());
        rects.extend_from_slice(&self.added);
        // `rect_cmp` ties only bit-identical rects, so the unstable sort
        // gives the same list without a merge buffer.
        rects.sort_unstable_by(rect_cmp);
    }

    /// Appends the patch's wire-protocol JSON to `out`, with no
    /// intermediate strings. Coordinates use shortest-roundtrip
    /// formatting (not the metrics plane's rounded
    /// [`json_f64`](crate::obs::json_f64)): a patch's `removed` rects
    /// must match the consumer's replayed answer bit-for-bit, so the
    /// wire must preserve every coordinate exactly.
    pub fn write_json(&self, out: &mut String) {
        use std::fmt::Write;
        fn rects(out: &mut String, rects: &[Rect]) {
            out.push('[');
            for (i, r) in rects.iter().enumerate() {
                out.push_str(if i == 0 { "[" } else { ",[" });
                for (k, x) in [r.x_lo, r.y_lo, r.x_hi, r.y_hi].into_iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    if x.is_finite() {
                        let _ = write!(out, "{x}");
                    } else {
                        out.push_str("null");
                    }
                }
                out.push(']');
            }
            out.push(']');
        }
        let _ = write!(
            out,
            "{{\"sub\":{},\"t\":{},\"q_t\":{},\"degraded\":{},\"resync\":{},\"added\":",
            self.id.0, self.now, self.q_t, self.degraded, self.resync
        );
        rects(out, &self.added);
        out.push_str(",\"removed\":");
        rects(out, &self.removed);
        out.push('}');
    }
}

/// Why a subscription could not be registered.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SubError {
    /// The engine has no subscription support.
    Unsupported,
    /// The requested neighborhood edge exceeds what the engine's shard
    /// halos cover: maintaining it would silently lose density at cut
    /// lines, so registration is refused instead.
    EdgeExceedsHalo {
        /// The requested edge length.
        l: f64,
        /// The largest edge the plane was built for.
        l_max: f64,
    },
    /// A query parameter is non-finite or non-positive.
    InvalidQuery,
    /// The requested edge is below twice the filter's histogram cell
    /// edge, the smallest the filter step of Algorithm 1 can classify.
    EdgeBelowFilterCell {
        /// The requested edge length.
        l: f64,
        /// The smallest edge the engine serves (`2 · l_c`).
        l_min: f64,
    },
    /// The resolved query timestamp lies outside the engine's horizon
    /// window `[from, to]`, the only timestamps its summaries cover.
    QtOutsideHorizon {
        /// The resolved query timestamp.
        q_t: Timestamp,
        /// The window's first timestamp (the engine's current time).
        from: Timestamp,
        /// The window's last timestamp (`from + H`).
        to: Timestamp,
    },
}

/// Refuses a resolved `q_t` outside the horizon window
/// `[t_base, t_base + H]` an engine's summaries cover. `None` (a
/// standing query whose timestamp is not resolved yet) is accepted.
pub(crate) fn check_horizon(
    horizon: TimeHorizon,
    t_base: Timestamp,
    q_t: Option<Timestamp>,
) -> Result<(), SubError> {
    match q_t {
        Some(q_t) if !horizon.covers(t_base, q_t) => Err(SubError::QtOutsideHorizon {
            q_t,
            from: t_base,
            to: t_base.saturating_add(horizon.h()),
        }),
        _ => Ok(()),
    }
}

impl std::fmt::Display for SubError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubError::Unsupported => write!(f, "engine has no subscription support"),
            SubError::EdgeExceedsHalo { l, l_max } => write!(
                f,
                "query edge l = {l} exceeds the sharded plane's l_max = {l_max}: \
                 the halo cannot cover it and density would be lost at cut lines"
            ),
            SubError::InvalidQuery => {
                write!(f, "subscription parameters must be finite and positive")
            }
            SubError::EdgeBelowFilterCell { l, l_min } => write!(
                f,
                "query edge l = {l} is below the filter's minimum 2 · l_c = {l_min}"
            ),
            SubError::QtOutsideHorizon { q_t, from, to } => write!(
                f,
                "query timestamp q_t = {q_t} is outside the engine's horizon [{from}, {to}]"
            ),
        }
    }
}

impl std::error::Error for SubError {}

/// A standing-query group: `(ρ bits, l bits, resolved q_t)`. Bit
/// patterns, so `0.05` and `0.05000…1` are distinct groups.
pub type GroupKey = (u64, u64, Timestamp);

/// One subscription's mutable state inside the table.
#[derive(Clone, Debug)]
struct SubState {
    sub: Subscription,
    /// Last committed canonical answer (clipped to the region).
    answer: Vec<Rect>,
    degraded: bool,
    /// Set when the owner set serving this subscription changed (shard
    /// split/merge/restore); the next emitted patch carries the
    /// `resync` marker and clears the flag.
    resync: bool,
}

/// Per-engine registry of standing subscriptions: owns the
/// subscriptions, their last committed canonical answers, and the diff
/// logic. Deterministic iteration order (by id).
#[derive(Clone, Debug, Default)]
pub struct SubscriptionTable {
    subs: BTreeMap<u64, SubState>,
    next_id: u64,
}

impl SubscriptionTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        SubscriptionTable::default()
    }

    /// Number of registered subscriptions.
    pub fn len(&self) -> usize {
        self.subs.len()
    }

    /// `true` when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.subs.is_empty()
    }

    /// Registers a standing query and returns its fresh id. The initial
    /// committed answer is empty: the first maintenance pass emits the
    /// full current answer as `added`.
    pub fn register(
        &mut self,
        rho: f64,
        l: f64,
        region: Rect,
        policy: QtPolicy,
    ) -> Result<SubId, SubError> {
        if !(rho.is_finite() && rho > 0.0 && l.is_finite() && l > 0.0) {
            return Err(SubError::InvalidQuery);
        }
        let id = SubId(self.next_id);
        self.next_id += 1;
        self.register_with_id(Subscription {
            id,
            rho,
            l,
            region,
            policy,
        });
        Ok(id)
    }

    /// Registers (or replaces) a subscription under a caller-chosen id —
    /// the sharded plane uses this to give every owning shard the same
    /// id. Keeps `next_id` ahead of the inserted id.
    pub fn register_with_id(&mut self, sub: Subscription) {
        self.next_id = self.next_id.max(sub.id.0 + 1);
        self.subs.insert(
            sub.id.0,
            SubState {
                sub,
                answer: Vec::new(),
                degraded: false,
                resync: false,
            },
        );
    }

    /// Flags `id` for a topology resync: the next patch (even an
    /// otherwise-silent one) is emitted with `resync: true`. The sharded
    /// plane calls this after re-routing a subscription to a new owner
    /// set, so consumers learn the serving topology changed.
    pub fn mark_resync(&mut self, id: SubId) {
        if let Some(state) = self.subs.get_mut(&id.0) {
            state.resync = true;
        }
    }

    /// Removes a subscription; `false` when the id is unknown.
    pub fn unregister(&mut self, id: SubId) -> bool {
        self.subs.remove(&id.0).is_some()
    }

    /// `true` when `id` is registered.
    pub fn contains(&self, id: SubId) -> bool {
        self.subs.contains_key(&id.0)
    }

    /// The registered subscriptions, in id order.
    pub fn subs(&self) -> impl Iterator<Item = &Subscription> + '_ {
        self.subs.values().map(|s| &s.sub)
    }

    /// One subscription's spec.
    pub fn get(&self, id: SubId) -> Option<&Subscription> {
        self.subs.get(&id.0).map(|s| &s.sub)
    }

    /// The last committed canonical answer of `id` (empty before the
    /// first maintenance pass).
    pub fn answer(&self, id: SubId) -> Option<&[Rect]> {
        self.subs.get(&id.0).map(|s| s.answer.as_slice())
    }

    /// Whether `id` is currently marked degraded.
    pub fn is_degraded(&self, id: SubId) -> Option<bool> {
        self.subs.get(&id.0).map(|s| s.degraded)
    }

    /// Clips an engine answer to a subscription region and
    /// re-canonicalizes — the invariant every committed answer obeys:
    /// `answer = canonicalize(clip(query(q).regions, region))`.
    pub fn clip(full: &RegionSet, region: Rect) -> RegionSet {
        RegionSet::union_disjoint_clipped([(full, region)])
    }

    /// Commits a freshly computed canonical answer for `id`, clearing
    /// any degradation, and returns the patch against the previous
    /// committed answer. `None` when nothing changed (no rect moved, no
    /// degradation to clear) or the id is unknown.
    pub fn commit(
        &mut self,
        id: SubId,
        answer: RegionSet,
        now: Timestamp,
        q_t: Timestamp,
    ) -> Option<AnswerDelta> {
        let state = self.subs.get_mut(&id.0)?;
        let new: Vec<Rect> = answer.rects().to_vec();
        let (added, removed) = diff_canonical(&state.answer, &new);
        let was_degraded = state.degraded;
        let resync = state.resync;
        state.answer = new;
        state.degraded = false;
        state.resync = false;
        if added.is_empty() && removed.is_empty() && !was_degraded && !resync {
            return None;
        }
        Some(AnswerDelta {
            id,
            now,
            q_t,
            added,
            removed,
            degraded: false,
            resync,
        })
    }

    /// One maintenance pass at clock `now`. Subscriptions are grouped by
    /// `(ρ, l, resolved q_t)` and `eval` computes each group's
    /// full-domain answer once, in ascending [`GroupKey`] order. Each
    /// subscription then commits that answer clipped to its region; when
    /// `eval` fails, the group's subscriptions are marked degraded
    /// instead (their committed answers stay authoritative but stale).
    ///
    /// Returns the patches in subscription-id order, and the live group
    /// keys in ascending order so callers can drop cache entries of
    /// groups no subscription targets anymore.
    pub fn maintain(
        &mut self,
        now: Timestamp,
        mut eval: impl FnMut(&PdrQuery) -> Result<RegionSet, StorageError>,
    ) -> (Vec<AnswerDelta>, Vec<GroupKey>) {
        let mut groups: BTreeMap<GroupKey, Vec<SubId>> = BTreeMap::new();
        for s in self.subs() {
            let key = (s.rho.to_bits(), s.l.to_bits(), s.policy.resolve(now));
            groups.entry(key).or_default().push(s.id);
        }
        let mut deltas = Vec::new();
        for (&(rho, l, q_t), ids) in &groups {
            let q = PdrQuery::new(f64::from_bits(rho), f64::from_bits(l), q_t);
            let full = eval(&q);
            for &id in ids {
                let d = match &full {
                    Ok(full) => {
                        let region = self.subs[&id.0].sub.region;
                        self.commit(id, Self::clip(full, region), now, q_t)
                    }
                    Err(_) => self.mark_degraded(id, now, q_t),
                };
                deltas.extend(d);
            }
        }
        deltas.sort_unstable_by_key(|d| d.id);
        (deltas, groups.into_keys().collect())
    }

    /// Marks `id` degraded: the stored answer is left untouched (stale
    /// but correct as of its commit) and a rect-free degraded patch is
    /// returned on the transition into degradation. Repeated marks stay
    /// silent.
    pub fn mark_degraded(
        &mut self,
        id: SubId,
        now: Timestamp,
        q_t: Timestamp,
    ) -> Option<AnswerDelta> {
        let state = self.subs.get_mut(&id.0)?;
        if state.degraded {
            return None;
        }
        state.degraded = true;
        let resync = state.resync;
        state.resync = false;
        Some(AnswerDelta {
            id,
            now,
            q_t,
            added: Vec::new(),
            removed: Vec::new(),
            degraded: true,
            resync,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(x_lo: f64, y_lo: f64, x_hi: f64, y_hi: f64) -> Rect {
        Rect::new(x_lo, y_lo, x_hi, y_hi)
    }

    /// The wire encoding as it was built from per-coordinate strings,
    /// kept as the byte-identity reference for `write_json`.
    fn reference_to_json(d: &AnswerDelta) -> String {
        fn coord(x: f64) -> String {
            if x.is_finite() {
                format!("{x}")
            } else {
                "null".to_string()
            }
        }
        fn rects_json(rects: &[Rect]) -> String {
            let items: Vec<String> = rects
                .iter()
                .map(|r| {
                    format!(
                        "[{},{},{},{}]",
                        coord(r.x_lo),
                        coord(r.y_lo),
                        coord(r.x_hi),
                        coord(r.y_hi)
                    )
                })
                .collect();
            format!("[{}]", items.join(","))
        }
        format!(
            "{{\"sub\":{},\"t\":{},\"q_t\":{},\"degraded\":{},\"resync\":{},\"added\":{},\"removed\":{}}}",
            d.id.0,
            d.now,
            d.q_t,
            d.degraded,
            d.resync,
            rects_json(&d.added),
            rects_json(&d.removed)
        )
    }

    #[test]
    fn write_json_matches_reference_encoder_byte_for_byte() {
        let odd = [
            -0.0,
            0.1 + 0.2,
            1e-300,
            123456.789,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            -7.5e21,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let mut seed = 0x0DE1_7A5Eu64;
        let mut pick = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            odd[(seed >> 33) as usize % odd.len()]
        };
        let mut out = String::from("prefix:");
        for n in 0..12 {
            let mut rects = |k: usize| -> Vec<Rect> {
                (0..k)
                    .map(|_| Rect {
                        x_lo: pick(),
                        y_lo: pick(),
                        x_hi: pick(),
                        y_hi: pick(),
                    })
                    .collect()
            };
            let d = AnswerDelta {
                id: SubId(n as u64 * 977),
                now: n as u64,
                q_t: u64::MAX - n as u64,
                added: rects(n),
                removed: rects(n % 3),
                degraded: n % 2 == 1,
                resync: n % 4 == 2,
            };
            let want = reference_to_json(&d);
            let mut got = String::new();
            d.write_json(&mut got);
            assert_eq!(got, want);
            // Appends without disturbing what the buffer already holds.
            let before = out.len();
            d.write_json(&mut out);
            assert_eq!(&out[before..], want);
        }
        assert!(out.starts_with("prefix:{"));
    }

    #[test]
    fn diff_and_apply_round_trip() {
        let old = vec![r(0.0, 0.0, 1.0, 1.0), r(2.0, 0.0, 3.0, 1.0)];
        let new = vec![
            r(0.0, 0.0, 1.0, 1.0),
            r(2.0, 0.0, 3.0, 2.0),
            r(5.0, 5.0, 6.0, 6.0),
        ];
        let (added, removed) = diff_canonical(&old, &new);
        assert_eq!(removed, vec![r(2.0, 0.0, 3.0, 1.0)]);
        assert_eq!(added, vec![r(2.0, 0.0, 3.0, 2.0), r(5.0, 5.0, 6.0, 6.0)]);
        let delta = AnswerDelta {
            id: SubId(0),
            now: 1,
            q_t: 1,
            added,
            removed,
            degraded: false,
            resync: false,
        };
        let mut replay = old.clone();
        delta.apply_to(&mut replay);
        assert_eq!(replay, new, "patched answer must equal the new answer");
    }

    #[test]
    fn commit_emits_patches_and_degradation_transitions() {
        let mut t = SubscriptionTable::new();
        let id = t
            .register(0.1, 10.0, r(0.0, 0.0, 100.0, 100.0), QtPolicy::NowPlus(2))
            .unwrap();
        assert_eq!(t.answer(id), Some(&[][..]));
        // First commit: the whole answer arrives as `added`.
        let ans = RegionSet::from_rects([r(1.0, 1.0, 2.0, 2.0)]);
        let d = t.commit(id, ans.clone(), 0, 2).expect("first commit emits");
        assert_eq!(d.added.len(), 1);
        assert!(d.removed.is_empty());
        // Identical commit: silent.
        assert!(t.commit(id, ans.clone(), 1, 3).is_none());
        // Degradation: one transition patch, then silence.
        let d = t.mark_degraded(id, 2, 4).expect("transition emits");
        assert!(d.degraded && d.is_empty());
        assert!(t.mark_degraded(id, 3, 5).is_none());
        assert_eq!(t.is_degraded(id), Some(true));
        // Recovery with an unchanged answer still emits (clears the flag).
        let d = t.commit(id, ans, 4, 6).expect("recovery emits");
        assert!(!d.degraded && d.is_empty());
        assert_eq!(t.is_degraded(id), Some(false));
        assert!(t.unregister(id));
        assert!(!t.unregister(id));
    }

    #[test]
    fn resync_marker_rides_the_next_patch_once() {
        let mut t = SubscriptionTable::new();
        let id = t
            .register(0.1, 10.0, r(0.0, 0.0, 100.0, 100.0), QtPolicy::NowPlus(1))
            .unwrap();
        let ans = RegionSet::from_rects([r(1.0, 1.0, 2.0, 2.0)]);
        let d = t.commit(id, ans.clone(), 0, 1).expect("first commit emits");
        assert!(!d.resync);
        // An unchanged commit is silent — until a resync is pending, in
        // which case the marker forces an (otherwise empty) patch out.
        assert!(t.commit(id, ans.clone(), 1, 2).is_none());
        t.mark_resync(id);
        let d = t
            .commit(id, ans.clone(), 2, 3)
            .expect("resync forces a patch");
        assert!(d.resync && d.is_empty() && !d.degraded);
        // The flag is one-shot.
        assert!(t.commit(id, ans, 3, 4).is_none());
    }

    #[test]
    fn register_rejects_garbage_and_policies_resolve_forward() {
        let mut t = SubscriptionTable::new();
        let region = r(0.0, 0.0, 10.0, 10.0);
        assert_eq!(
            t.register(f64::NAN, 10.0, region, QtPolicy::NowPlus(0)),
            Err(SubError::InvalidQuery)
        );
        assert_eq!(
            t.register(0.1, -1.0, region, QtPolicy::NowPlus(0)),
            Err(SubError::InvalidQuery)
        );
        assert_eq!(QtPolicy::Fixed(5).resolve(3), 5);
        assert_eq!(QtPolicy::Fixed(5).resolve(9), 9, "past q_t clamps to now");
        assert_eq!(QtPolicy::NowPlus(2).resolve(7), 9);
    }
}
