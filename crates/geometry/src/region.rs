//! Measurable unions of rectangles.
//!
//! PDR query answers are unions of axis-aligned rectangles, and the
//! paper's accuracy metrics are ratios of areas of such unions and their
//! set differences:
//!
//! ```text
//! r_fp = area(D' \ D) / area(D)      (may exceed 1)
//! r_fn = area(D \ D') / area(D)      (never exceeds 1)
//! ```
//!
//! where `D` is the true dense region and `D'` the region a method
//! reports. One exact vertical slab sweep serves both these measures and
//! the canonical compaction of answers: the distinct X coordinates of the
//! operands cut the plane into slabs inside which membership along Y is
//! constant, so each slab reduces to one sorted list of maximal Y-runs.

use crate::{Point, Rect};
use std::fmt;

/// A union of axis-aligned rectangles, treated as a point set with
/// half-open `[lo, hi)` semantics (so abutting rectangles do not overlap).
///
/// The representation is a plain list of rectangles — possibly
/// overlapping, possibly abutting. All measure operations are computed on
/// the *union*, so duplicates and overlaps are harmless for correctness;
/// [`canonicalize`](RegionSet::canonicalize) merges pieces (per-cell
/// refinements, per-shard answers) into one canonical list.
#[derive(Clone, Default, PartialEq)]
pub struct RegionSet {
    rects: Vec<Rect>,
}

impl RegionSet {
    /// The empty region.
    pub fn new() -> Self {
        RegionSet { rects: Vec::new() }
    }

    /// Builds a region from rectangles, dropping degenerate ones.
    pub fn from_rects<I: IntoIterator<Item = Rect>>(iter: I) -> Self {
        RegionSet {
            rects: iter.into_iter().filter(|r| !r.is_degenerate()).collect(),
        }
    }

    /// Adds one rectangle (ignored when degenerate).
    pub fn push(&mut self, r: Rect) {
        if !r.is_degenerate() {
            self.rects.push(r);
        }
    }

    /// Appends all rectangles of `other`.
    pub fn extend_from(&mut self, other: &RegionSet) {
        self.rects.extend_from_slice(&other.rects);
    }

    /// The underlying rectangles (overlaps permitted).
    pub fn rects(&self) -> &[Rect] {
        &self.rects
    }

    /// Number of stored rectangles (not a measure of the union).
    pub fn len(&self) -> usize {
        self.rects.len()
    }

    /// `true` when no rectangles are stored.
    pub fn is_empty(&self) -> bool {
        self.rects.is_empty()
    }

    /// Membership test (half-open `[lo, hi)` on each rectangle).
    pub fn contains(&self, p: Point) -> bool {
        self.rects.iter().any(|r| r.contains_half_open(p))
    }

    /// Bounding rectangle of the whole region, or `None` when empty.
    pub fn bounding_rect(&self) -> Option<Rect> {
        let mut it = self.rects.iter();
        let first = *it.next()?;
        Some(it.fold(first, |acc, r| acc.union(r)))
    }

    /// Area of the union of all stored rectangles.
    pub fn area(&self) -> f64 {
        slab_integral(&self.rects, &[], |a, _| measure(a))
    }

    /// Area of `self ∩ other` (as point sets).
    pub fn intersection_area(&self, other: &RegionSet) -> f64 {
        slab_integral(&self.rects, &other.rects, overlap)
    }

    /// Area of `self \ other` (as point sets).
    pub fn difference_area(&self, other: &RegionSet) -> f64 {
        slab_integral(&self.rects, &other.rects, |a, b| {
            (measure(a) - overlap(a, b)).max(0.0)
        })
    }

    /// Area of `self ∪ other`.
    pub fn union_area(&self, other: &RegionSet) -> f64 {
        self.area() + other.difference_area(self)
    }

    /// Symmetric-difference area, a convenient scalar distance between two
    /// reported answer regions.
    pub fn symmetric_difference_area(&self, other: &RegionSet) -> f64 {
        self.difference_area(other) + other.difference_area(self)
    }

    /// Rewrites the set into its *canonical maximal-slab decomposition*:
    /// disjoint rectangles, each spanning a maximal X-run over which the
    /// union's Y-cross-section is one fixed maximal interval, sorted by
    /// `(x_lo, y_lo)`.
    ///
    /// The result depends only on the union **as a point set** — not on
    /// how it was cut into rectangles — so two canonicalized sets
    /// covering the same points are bit-identical rectangle lists. The
    /// sharded engine plane relies on this to reproduce the unsharded
    /// answer from per-shard pieces. All comparisons are exact, no
    /// epsilon: shards hand back coordinates copied from the same
    /// arithmetic the unsharded engine performs.
    ///
    /// One slab sweep (`for_each_slab`) feeding a [`CanonicalBuilder`].
    pub fn canonicalize(&mut self) {
        self.rects.retain(|r| !r.is_degenerate());
        let mut canon = CanonicalBuilder::default();
        for_each_slab(
            std::mem::take(&mut self.rects),
            Vec::new(),
            |x0, x1, runs, _| canon.slab(x0, x1, runs),
        );
        self.rects = canon.finish();
    }

    /// Boundary-aware merge of per-shard answers: clips each partial
    /// answer to the rectangle its shard *owns* (shards also see halo
    /// objects, so their raw answers overhang their cut lines), unions
    /// the disjoint clipped pieces, and canonicalizes.
    ///
    /// Because [`canonicalize`](RegionSet::canonicalize) depends only on
    /// the point set, the merged answer is a bit-identical rectangle list
    /// to `canonicalize(unsharded answer)` whenever every shard computed
    /// the exact dense region over its owned sub-rectangle — at *any*
    /// shard count, including 1.
    pub fn union_disjoint_clipped<'a, I>(parts: I) -> RegionSet
    where
        I: IntoIterator<Item = (&'a RegionSet, Rect)>,
    {
        let mut merged = RegionSet::new();
        for (set, owned) in parts {
            for r in &set.rects {
                if let Some(clipped) = r.intersection(&owned) {
                    merged.push(clipped); // push drops degenerate slivers
                }
            }
        }
        merged.canonicalize();
        merged
    }
}

/// Assembles the canonical rectangle list of
/// [`RegionSet::canonicalize`] from a union's maximal Y-runs, fed slab
/// by slab from left to right. A run identical to one of the previous
/// slab extends that rectangle (keeping the Y bits of the slab that
/// opened it), every other run opens a new one; both run lists are
/// sorted, so matching is a merge-walk. The plane sweep feeds it
/// directly, so its output is canonical without a second pass.
#[derive(Default)]
pub struct CanonicalBuilder {
    out: Vec<Rect>,
    /// Rectangles still extendable rightward (their Y-run persisted
    /// through the previous slab), sorted by Y.
    open: Vec<Rect>,
    next_open: Vec<Rect>,
}

impl CanonicalBuilder {
    /// Feeds the slab `[x0, x1)`, which starts where the previous slab
    /// ended, with its union's maximal Y-runs: sorted, disjoint and not
    /// abutting. Empty `runs` close every open rectangle.
    pub fn slab(&mut self, x0: f64, x1: f64, runs: &[(f64, f64)]) {
        let open = &self.open;
        let mut j = 0;
        for &(lo, hi) in runs {
            while j < open.len() && open[j].y_lo < lo {
                self.out.push(open[j]);
                j += 1;
            }
            match open.get(j) {
                Some(r) if r.y_lo == lo && r.y_hi == hi => {
                    self.next_open.push(Rect { x_hi: x1, ..*r });
                    j += 1;
                }
                _ => self.next_open.push(Rect::new(x0, lo, x1, hi)),
            }
        }
        self.out.extend_from_slice(&open[j..]);
        self.open.clear();
        std::mem::swap(&mut self.open, &mut self.next_open);
    }

    /// The canonical rectangles, sorted by `(x_lo, y_lo)`.
    pub fn finish(mut self) -> Vec<Rect> {
        self.out.append(&mut self.open);
        self.out
            .sort_unstable_by(|a, b| a.x_lo.total_cmp(&b.x_lo).then(a.y_lo.total_cmp(&b.y_lo)));
        self.out
    }
}

impl fmt::Debug for RegionSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.rects.iter()).finish()
    }
}

impl FromIterator<Rect> for RegionSet {
    fn from_iter<T: IntoIterator<Item = Rect>>(iter: T) -> Self {
        RegionSet::from_rects(iter)
    }
}

/// Calls `f(x0, x1, runs of a, runs of b)` for every slab between
/// consecutive distinct X coordinates of both operands, left to right.
/// Distinct means `total_cmp`-distinct, so `-0.0` and `+0.0` are two
/// edges and the zero-width slab between them is skipped. Within a slab
/// each operand's Y footprint is fixed: its maximal Y-runs.
fn for_each_slab<F>(a: Vec<Rect>, b: Vec<Rect>, mut f: F)
where
    F: FnMut(f64, f64, &[(f64, f64)], &[(f64, f64)]),
{
    let (mut sa, mut sb) = (Sweep::new(a), Sweep::new(b));
    let first = |s: &Sweep| s.by_x_lo.first().map(|r| r.x_lo);
    let mut edge = min_edge(first(&sa), first(&sb));
    while let Some(x0) = edge {
        edge = min_edge(sa.advance(x0), sb.advance(x0));
        match edge {
            Some(x1) if x0 < x1 => f(x0, x1, &sa.runs, &sb.runs),
            _ => {}
        }
    }
}

/// The smaller of two optional edges in `total_cmp` order.
fn min_edge(a: Option<f64>, b: Option<f64>) -> Option<f64> {
    a.into_iter().chain(b).min_by(f64::total_cmp)
}

/// A rectangle's Y-extent while it crosses the sweep line:
/// `(y_lo, y_hi, x_hi)`.
type Span = (f64, f64, f64);

fn by_y(a: &Span, b: &Span) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1))
}

/// Exact vertical sweep over one rectangle list. Moved left to right
/// through slab edges, it keeps the *active* rectangles — those with
/// `x_lo <= x0 < x_hi` at the slab's left edge `x0` — sorted by
/// `(y_lo, y_hi)`, so each slab's maximal disjoint Y-runs of the union
/// come from one linear pass. Rectangles enter from a list sorted by
/// `x_lo` and leave once `x_hi <= x0`; the edges themselves come from
/// the same two lists, so no separate coordinate array is built.
struct Sweep {
    by_x_lo: Vec<Rect>,
    entered: usize,
    active: Vec<Span>,
    entering: Vec<Span>,
    runs: Vec<(f64, f64)>,
}

impl Sweep {
    fn new(mut rects: Vec<Rect>) -> Self {
        rects.sort_unstable_by(|a, b| a.x_lo.total_cmp(&b.x_lo));
        Sweep {
            by_x_lo: rects,
            entered: 0,
            active: Vec::new(),
            entering: Vec::new(),
            runs: Vec::new(),
        }
    }

    /// Moves the sweep line to `x0` (increasing across calls), leaves
    /// the union's maximal Y-runs there in `runs` (sorted, disjoint;
    /// overlapping *or* abutting spans merge under half-open
    /// semantics), and returns this operand's next edge after `x0`.
    fn advance(&mut self, x0: f64) -> Option<f64> {
        let start = self.entered;
        while self.entered < self.by_x_lo.len() && self.by_x_lo[self.entered].x_lo <= x0 {
            self.entered += 1;
        }
        // Edges beyond `x0` in total order: the first pending `x_lo`,
        // an `x_lo` IEEE-equal to `x0` but above it (`+0.0` entering at
        // `-0.0`), and the `x_hi` of every rectangle active at `x0`.
        let scan = (self.entered + 1).min(self.by_x_lo.len());
        let mut next = self.by_x_lo[start..scan]
            .iter()
            .map(|r| r.x_lo)
            .find(|x| x.total_cmp(&x0).is_gt());
        self.entering.clear();
        self.entering.extend(
            self.by_x_lo[start..self.entered]
                .iter()
                .map(|r| (r.y_lo, r.y_hi, r.x_hi)),
        );
        self.entering.sort_unstable_by(by_y);
        merge_sorted(&mut self.active, &self.entering);
        self.active.retain(|s| {
            if s.2.total_cmp(&x0).is_gt() {
                next = min_edge(next, Some(s.2));
            }
            x0 < s.2
        });

        self.runs.clear();
        for &(lo, hi, _) in &self.active {
            match self.runs.last_mut() {
                Some(last) if lo <= last.1 => last.1 = last.1.max(hi),
                _ => self.runs.push((lo, hi)),
            }
        }
        next
    }
}

/// Merges the sorted `extra` into the sorted `into`, in place from the
/// back.
fn merge_sorted(into: &mut Vec<Span>, extra: &[Span]) {
    let (mut i, mut j) = (into.len(), extra.len());
    into.resize(i + j, (0.0, 0.0, 0.0));
    while j > 0 {
        let w = i + j - 1;
        if i > 0 && by_y(&into[i - 1], &extra[j - 1]).is_gt() {
            i -= 1;
            into[w] = into[i];
        } else {
            j -= 1;
            into[w] = extra[j];
        }
    }
}

/// Total length of sorted disjoint runs.
fn measure(runs: &[(f64, f64)]) -> f64 {
    runs.iter().map(|&(lo, hi)| hi - lo).sum()
}

/// Length of the overlap of two sorted disjoint run lists.
fn overlap(a: &[(f64, f64)], b: &[(f64, f64)]) -> f64 {
    let (mut i, mut j, mut total) = (0, 0, 0.0);
    while i < a.len() && j < b.len() {
        let (lo, hi) = (a[i].0.max(b[j].0), a[i].1.min(b[j].1));
        if lo < hi {
            total += hi - lo;
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}

/// `Σ slab width × f(runs of a, runs of b)` over the slabs cut by the X
/// coordinates of both operands. Within a slab each operand's Y
/// footprint is fixed, so the integrand is exact.
fn slab_integral(a: &[Rect], b: &[Rect], f: impl Fn(&[(f64, f64)], &[(f64, f64)]) -> f64) -> f64 {
    let mut total = 0.0;
    for_each_slab(a.to_vec(), b.to_vec(), |x0, x1, ra, rb| {
        total += (x1 - x0) * f(ra, rb)
    });
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rs(rects: &[(f64, f64, f64, f64)]) -> RegionSet {
        RegionSet::from_rects(rects.iter().map(|&(a, b, c, d)| Rect::new(a, b, c, d)))
    }

    #[test]
    fn union_area_deduplicates_overlap() {
        // Two unit squares overlapping in a 0.5 x 1 strip.
        let s = rs(&[(0.0, 0.0, 1.0, 1.0), (0.5, 0.0, 1.5, 1.0)]);
        assert!((s.area() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn union_area_of_disjoint_adds() {
        let s = rs(&[(0.0, 0.0, 1.0, 1.0), (5.0, 5.0, 7.0, 6.0)]);
        assert!((s.area() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn duplicates_do_not_double_count() {
        let s = rs(&[(0.0, 0.0, 2.0, 2.0), (0.0, 0.0, 2.0, 2.0)]);
        assert!((s.area() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn intersection_and_difference_areas() {
        let a = rs(&[(0.0, 0.0, 2.0, 2.0)]);
        let b = rs(&[(1.0, 1.0, 3.0, 3.0)]);
        assert!((a.intersection_area(&b) - 1.0).abs() < 1e-12);
        assert!((a.difference_area(&b) - 3.0).abs() < 1e-12);
        assert!((b.difference_area(&a) - 3.0).abs() < 1e-12);
        assert!((a.union_area(&b) - 7.0).abs() < 1e-12);
        assert!((a.symmetric_difference_area(&b) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn difference_with_superset_is_zero() {
        let a = rs(&[(0.5, 0.5, 1.0, 1.0)]);
        let b = rs(&[(0.0, 0.0, 2.0, 2.0)]);
        assert_eq!(a.difference_area(&b), 0.0);
    }

    #[test]
    fn l_shaped_region() {
        // An L made of two rectangles sharing an edge.
        let l = rs(&[(0.0, 0.0, 3.0, 1.0), (0.0, 1.0, 1.0, 3.0)]);
        assert!((l.area() - 5.0).abs() < 1e-12);
        assert!(l.contains(Point::new(0.5, 2.5)));
        assert!(!l.contains(Point::new(2.0, 2.0)));
    }

    #[test]
    fn empty_regions() {
        let e = RegionSet::new();
        assert_eq!(e.area(), 0.0);
        let a = rs(&[(0.0, 0.0, 1.0, 1.0)]);
        assert_eq!(e.intersection_area(&a), 0.0);
        assert_eq!(e.difference_area(&a), 0.0);
        assert!((a.difference_area(&e) - 1.0).abs() < 1e-12);
        assert!(e.bounding_rect().is_none());
    }

    #[test]
    fn degenerate_rects_are_dropped() {
        let s = rs(&[(0.0, 0.0, 0.0, 5.0), (1.0, 1.0, 1.0, 1.0)]);
        assert!(s.is_empty());
    }

    #[test]
    fn canonicalize_merges_cell_block() {
        // A 3x3 block of unit cells, stored cell by cell.
        let mut cells = RegionSet::new();
        for i in 0..3 {
            for j in 0..3 {
                cells.push(Rect::new(
                    i as f64,
                    j as f64,
                    i as f64 + 1.0,
                    j as f64 + 1.0,
                ));
            }
        }
        let before_area = cells.area();
        let block = rs(&[(0.0, 0.0, 3.0, 3.0)]);
        cells.canonicalize();
        assert_eq!(cells.rects(), block.rects(), "the block becomes one rect");
        assert!((cells.area() - before_area).abs() < 1e-12);
        assert!(cells.symmetric_difference_area(&block) < 1e-9);
    }

    #[test]
    fn canonicalize_is_cut_invariant() {
        // An L of three unit cells A=[0,1]², B=[1,2]×[0,1], C=[1,2]².
        // Merging abutting pairs depends on the cut: unsharded, B+C join
        // vertically; a shard cut at y = 1 keeps C alone and joins A+B
        // horizontally instead. Same point set, different lists.
        let global = rs(&[(0.0, 0.0, 1.0, 1.0), (1.0, 0.0, 2.0, 2.0)]);
        let recombined = rs(&[(0.0, 0.0, 2.0, 1.0), (1.0, 1.0, 2.0, 2.0)]);
        assert_ne!(global.rects(), recombined.rects(), "premise of the test");

        let mut g = global.clone();
        g.canonicalize();
        let mut r = recombined.clone();
        r.canonicalize();
        assert_eq!(g.rects(), r.rects());
        assert!((g.area() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn canonicalize_preserves_point_set_and_sorts() {
        let mut s = rs(&[
            (0.0, 0.0, 2.0, 2.0),
            (1.0, 1.0, 3.0, 3.0), // overlaps the first
            (2.0, 0.0, 3.0, 1.0),
            (5.0, 5.0, 6.0, 6.0),
        ]);
        let before = s.clone();
        s.canonicalize();
        assert!(s.symmetric_difference_area(&before) < 1e-12);
        // Disjoint output, sorted by (x_lo, y_lo).
        for (i, a) in s.rects().iter().enumerate() {
            for b in &s.rects()[i + 1..] {
                assert!(!a.overlaps_interior(b), "{a:?} overlaps {b:?}");
            }
        }
        let mut sorted = s.rects().to_vec();
        sorted.sort_by(|a, b| a.x_lo.total_cmp(&b.x_lo).then(a.y_lo.total_cmp(&b.y_lo)));
        assert_eq!(s.rects(), sorted.as_slice());
        // Idempotent.
        let mut again = s.clone();
        again.canonicalize();
        assert_eq!(again.rects(), s.rects());
    }

    #[test]
    fn canonicalize_rejoins_spurious_cuts() {
        // One 3x1 bar chopped into three pieces at arbitrary places,
        // plus a decoy above that introduces extra x-events.
        let mut s = rs(&[
            (0.0, 0.0, 1.25, 1.0),
            (1.25, 0.0, 2.5, 1.0),
            (2.5, 0.0, 3.0, 1.0),
            (0.5, 4.0, 2.75, 5.0),
        ]);
        s.canonicalize();
        assert_eq!(
            s.rects(),
            &[
                Rect::new(0.0, 0.0, 3.0, 1.0),
                Rect::new(0.5, 4.0, 2.75, 5.0)
            ]
        );
    }

    #[test]
    fn union_disjoint_clipped_matches_canonical_whole() {
        // A blobby answer; shard it with a 2x2 cut at (1.1, 0.7) where
        // each "shard answer" is the whole thing (halo overhang) clipped
        // coarsely, and check the merge equals the canonical whole.
        let whole = rs(&[
            (0.0, 0.0, 2.0, 1.0),
            (0.5, 1.0, 1.5, 2.0),
            (1.4, 0.2, 2.4, 1.4),
        ]);
        let cuts = [
            Rect::new(f64::NEG_INFINITY, f64::NEG_INFINITY, 1.1, 0.7),
            Rect::new(1.1, f64::NEG_INFINITY, f64::INFINITY, 0.7),
            Rect::new(f64::NEG_INFINITY, 0.7, 1.1, f64::INFINITY),
            Rect::new(1.1, 0.7, f64::INFINITY, f64::INFINITY),
        ];
        let merged = RegionSet::union_disjoint_clipped(cuts.iter().map(|&owned| (&whole, owned)));
        let mut canonical = whole.clone();
        canonical.canonicalize();
        assert_eq!(merged.rects(), canonical.rects());
    }

    #[test]
    fn bounding_rect_covers_all() {
        let s = rs(&[(0.0, 0.0, 1.0, 1.0), (4.0, -2.0, 5.0, 0.0)]);
        assert_eq!(s.bounding_rect().unwrap(), Rect::new(0.0, -2.0, 5.0, 1.0));
    }
}
