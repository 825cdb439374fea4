//! Differential check of `RegionSet::canonicalize` against a reference
//! copy of its original quadratic body, which rescans every rectangle
//! at every distinct x coordinate.
//!
//! The two must agree **bit for bit** (coordinates compared by
//! `to_bits`, so `-0.0` and `+0.0` differ): the shard plane,
//! subscriptions and replicas all compare canonical rectangle lists.
//! Inputs are seeded rectangle soups built to hit the sweep's corner
//! cases (duplicates, overlaps, abutting and shared coordinates,
//! one-ulp slivers, `±0.0` edges, answers clipped to `±inf` shard
//! tiles) and the raw FR refinement output at n = 2000, assembled per
//! candidate cell the way the FR engine assembles it. That raw output
//! comes from a reference copy of the sliver-per-segment plane sweep the
//! engine used before its sweep emitted canonical runs; per cell, the
//! engine's sweep must equal the canonicalized slivers bit for bit.
//!
//! Independently of both sweeps, the canonical list must cover exactly
//! the raw point set: half-open membership is compared at every input
//! corner ±1 ulp and at random points through a plain bucket grid.

use pdr_core::{
    classify_cells, refine_region, CellClass, DenseThreshold, FrConfig, FrEngine, PdrQuery,
};
use pdr_geometry::{Point, Rect, RegionSet};
use pdr_mobject::{MotionState, ObjectId, TimeHorizon};
use pdr_storage::IoStats;

/// The original `RegionSet::canonicalize` body, kept verbatim as the
/// test reference: for every slab between consecutive distinct x
/// coordinates it filters all rectangles, merges their y-spans into
/// maximal runs, and extends an identical run of the previous slab.
fn reference_canonicalize(input: &[Rect]) -> Vec<Rect> {
    let mut rects: Vec<Rect> = input
        .iter()
        .copied()
        .filter(|r| !r.is_degenerate())
        .collect();
    if rects.len() < 2 {
        rects.sort_by(|a, b| a.x_lo.total_cmp(&b.x_lo).then(a.y_lo.total_cmp(&b.y_lo)));
        return rects;
    }
    let mut xs: Vec<f64> = Vec::with_capacity(2 * rects.len());
    for r in &rects {
        xs.push(r.x_lo);
        xs.push(r.x_hi);
    }
    xs.sort_by(f64::total_cmp);
    xs.dedup_by(|a, b| a.total_cmp(b).is_eq());

    let mut out: Vec<Rect> = Vec::new();
    let mut open: Vec<Rect> = Vec::new();
    let mut spans: Vec<(f64, f64)> = Vec::new();
    for w in xs.windows(2) {
        let (x0, x1) = (w[0], w[1]);
        if x0 >= x1 {
            continue;
        }
        spans.clear();
        spans.extend(
            rects
                .iter()
                .filter(|r| r.x_lo <= x0 && x0 < r.x_hi)
                .map(|r| (r.y_lo, r.y_hi)),
        );
        spans.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        let mut runs: Vec<(f64, f64)> = Vec::with_capacity(spans.len());
        for &(lo, hi) in &spans {
            match runs.last_mut() {
                Some(last) if lo <= last.1 => last.1 = last.1.max(hi),
                _ => runs.push((lo, hi)),
            }
        }
        let mut next_open: Vec<Rect> = Vec::with_capacity(runs.len());
        for &(lo, hi) in &runs {
            let carried = open
                .iter()
                .position(|r| r.x_hi == x0 && r.y_lo == lo && r.y_hi == hi);
            match carried {
                Some(i) => {
                    let mut r = open.swap_remove(i);
                    r.x_hi = x1;
                    next_open.push(r);
                }
                None => next_open.push(Rect::new(x0, lo, x1, hi)),
            }
        }
        out.append(&mut open);
        open = next_open;
    }
    out.append(&mut open);
    out.sort_by(|a, b| a.x_lo.total_cmp(&b.x_lo).then(a.y_lo.total_cmp(&b.y_lo)));
    out
}

/// The plane sweep as it was before it emitted canonical runs, kept
/// verbatim as a test reference and stress input: one sliver rectangle
/// per (x-strip, dense y-segment), with the band and both axes'
/// stopping events re-sorted per strip.
fn reference_sliver_sweep(
    target: &Rect,
    objects: &mut [Point],
    threshold: DenseThreshold,
    l: f64,
) -> Vec<Rect> {
    let mut out = Vec::new();
    if target.is_degenerate() || !threshold.met_by(objects.len()) {
        return out;
    }
    let half = l / 2.0;
    let by_x = objects;
    by_x.sort_by(|a, b| a.x.total_cmp(&b.x));
    let mut xs: Vec<f64> = Vec::with_capacity(2 * by_x.len() + 2);
    xs.push(target.x_lo);
    xs.push(target.x_hi);
    for p in by_x.iter() {
        for e in [p.x - half, p.x + half] {
            if e > target.x_lo && e < target.x_hi {
                xs.push(e);
            }
        }
    }
    xs.sort_by(f64::total_cmp);
    xs.dedup();
    let mut lo = 0;
    let mut hi = 0;
    let mut band: Vec<f64> = Vec::new();
    for w in xs.windows(2) {
        let (x0, x1) = (w[0], w[1]);
        if x1 <= x0 {
            continue;
        }
        let mid = 0.5 * (x0 + x1);
        while lo < by_x.len() && by_x[lo].x <= mid - half {
            lo += 1;
        }
        if hi < lo {
            hi = lo;
        }
        while hi < by_x.len() && by_x[hi].x <= mid + half {
            hi += 1;
        }
        let members = &by_x[lo..hi];
        if !threshold.met_by(members.len()) {
            continue;
        }
        band.clear();
        band.extend(members.iter().map(|p| p.y));
        band.sort_by(f64::total_cmp);
        reference_sweep_y(target, &band, threshold, half, x0, x1, &mut out);
    }
    out
}

/// The inner y-sweep of [`reference_sliver_sweep`].
fn reference_sweep_y(
    target: &Rect,
    ys: &[f64],
    threshold: DenseThreshold,
    half: f64,
    x0: f64,
    x1: f64,
    out: &mut Vec<Rect>,
) {
    let mut events: Vec<f64> = Vec::with_capacity(2 * ys.len() + 2);
    events.push(target.y_lo);
    events.push(target.y_hi);
    for &y in ys {
        for e in [y - half, y + half] {
            if e > target.y_lo && e < target.y_hi {
                events.push(e);
            }
        }
    }
    events.sort_by(f64::total_cmp);
    events.dedup();
    let mut lo = 0;
    let mut hi = 0;
    for w in events.windows(2) {
        let (y0, y1) = (w[0], w[1]);
        if y1 <= y0 {
            continue;
        }
        let mid = 0.5 * (y0 + y1);
        while lo < ys.len() && ys[lo] <= mid - half {
            lo += 1;
        }
        if hi < lo {
            hi = lo;
        }
        while hi < ys.len() && ys[hi] <= mid + half {
            hi += 1;
        }
        if threshold.met_by(hi - lo) {
            out.push(Rect::new(x0, y0, x1, y1));
        }
    }
}

struct Lcg(u64);

impl Lcg {
    fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn unit(&mut self) -> f64 {
        self.next_u64() as f64 / (1u64 << 31) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The next representable value above `v` (identity on NaN and `+inf`).
fn next_up(v: f64) -> f64 {
    if v.is_nan() || v == f64::INFINITY {
        v
    } else if v == 0.0 {
        f64::from_bits(1)
    } else if v > 0.0 {
        f64::from_bits(v.to_bits() + 1)
    } else {
        f64::from_bits(v.to_bits() - 1)
    }
}

fn next_down(v: f64) -> f64 {
    -next_up(-v)
}

fn bits(rects: &[Rect]) -> Vec<[u64; 4]> {
    rects
        .iter()
        .map(|r| {
            [
                r.x_lo.to_bits(),
                r.y_lo.to_bits(),
                r.x_hi.to_bits(),
                r.y_hi.to_bits(),
            ]
        })
        .collect()
}

/// Half-open membership in a union of rectangles through a uniform
/// bucket grid over the finite part of their extent. Shares no code
/// with either sweep: every rectangle is filed under each bucket its
/// closed extent touches, and a point scans its own bucket.
struct Membership<'a> {
    rects: &'a [Rect],
    lo: Point,
    step: Point,
    n: usize,
    buckets: Vec<Vec<u32>>,
}

impl<'a> Membership<'a> {
    fn new(rects: &'a [Rect], n: usize) -> Self {
        let finite: Vec<f64> = rects
            .iter()
            .flat_map(|r| [r.x_lo, r.x_hi, r.y_lo, r.y_hi])
            .filter(|v| v.is_finite())
            .collect();
        let lo = finite.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let (lo, hi) = if lo < hi { (lo, hi) } else { (0.0, 1.0) };
        let step = (hi - lo) / n as f64;
        let mut m = Membership {
            rects,
            lo: Point::new(lo, lo),
            step: Point::new(step, step),
            n,
            buckets: vec![Vec::new(); n * n],
        };
        for (i, r) in rects.iter().enumerate() {
            let (c0, c1) = (m.col(r.x_lo), m.col(r.x_hi));
            let (r0, r1) = (m.row(r.y_lo), m.row(r.y_hi));
            for row in r0..=r1 {
                for col in c0..=c1 {
                    m.buckets[row * n + col].push(i as u32);
                }
            }
        }
        m
    }

    /// Monotone bucket coordinate, clamped (`as` saturates ±inf).
    fn col(&self, x: f64) -> usize {
        (((x - self.lo.x) / self.step.x).floor() as usize).min(self.n - 1)
    }

    fn row(&self, y: f64) -> usize {
        (((y - self.lo.y) / self.step.y).floor() as usize).min(self.n - 1)
    }

    fn contains(&self, p: Point) -> bool {
        self.buckets[self.row(p.y) * self.n + self.col(p.x)]
            .iter()
            .any(|&i| self.rects[i as usize].contains_half_open(p))
    }
}

/// Asserts `canonical` covers exactly the points `raw` covers, at every
/// raw corner ±1 ulp on each axis and at `random` uniform points over
/// the finite extent.
fn assert_same_points(raw: &[Rect], canonical: &[Rect], random: usize, rng: &mut Lcg, what: &str) {
    let n = ((raw.len() as f64).sqrt() as usize).clamp(1, 512);
    let (want, got) = (Membership::new(raw, n), Membership::new(canonical, n));
    let mut corners: Vec<(u64, u64)> = raw
        .iter()
        .flat_map(|r| {
            [
                (r.x_lo, r.y_lo),
                (r.x_lo, r.y_hi),
                (r.x_hi, r.y_lo),
                (r.x_hi, r.y_hi),
            ]
        })
        .map(|(x, y)| (x.to_bits(), y.to_bits()))
        .collect();
    corners.sort_unstable();
    corners.dedup();
    let mut probes: Vec<Point> = Vec::with_capacity(9 * corners.len());
    for (x, y) in corners
        .into_iter()
        .map(|(x, y)| (f64::from_bits(x), f64::from_bits(y)))
    {
        for px in [next_down(x), x, next_up(x)] {
            for py in [next_down(y), y, next_up(y)] {
                probes.push(Point::new(px, py));
            }
        }
    }
    let span = want.step.x * n as f64;
    for _ in 0..random {
        probes.push(Point::new(
            want.lo.x + rng.unit() * span,
            want.lo.y + rng.unit() * span,
        ));
    }
    for p in probes {
        assert_eq!(
            want.contains(p),
            got.contains(p),
            "{what}: membership differs at ({:e}, {:e})",
            p.x,
            p.y
        );
    }
}

/// Canonicalizes `raw` through `RegionSet` and through the reference,
/// and asserts bit-identical lists covering the raw point set.
fn check(raw: &[Rect], rng: &mut Lcg, what: &str) -> Vec<Rect> {
    let want = reference_canonicalize(raw);
    let mut set = RegionSet::from_rects(raw.iter().copied());
    set.canonicalize();
    assert_eq!(bits(set.rects()), bits(&want), "{what}: not bit-identical");
    assert_same_points(raw, set.rects(), 256, rng, what);
    want
}

/// Coordinates the soups draw from: shared grid values (so rectangles
/// abut and share edges), both zeros, one-ulp neighbors of shared
/// values (slivers), and a few uniform draws.
fn coordinate_pool(rng: &mut Lcg) -> Vec<f64> {
    let mut pool = vec![-0.0, 0.0, 1.0, 2.0, 2.5, 3.0, 4.0, -1.0, 0.1 + 0.2, 0.3];
    pool.push(next_up(2.0));
    pool.push(next_down(3.0));
    pool.push(next_up(0.0));
    pool.push(next_down(-0.0));
    for _ in 0..4 {
        pool.push(-1.0 + 6.0 * rng.unit());
    }
    pool
}

/// One seeded soup: rectangles over `pool` coordinates, with a share
/// of exact duplicates.
fn soup(rng: &mut Lcg, pool: &[f64], count: usize) -> Vec<Rect> {
    let mut out = Vec::with_capacity(2 * count);
    let pick = |rng: &mut Lcg| {
        let (a, b) = (pool[rng.below(pool.len())], pool[rng.below(pool.len())]);
        if a.total_cmp(&b).is_le() {
            (a, b)
        } else {
            (b, a)
        }
    };
    for _ in 0..count {
        let (x_lo, x_hi) = pick(rng);
        let (y_lo, y_hi) = pick(rng);
        let r = Rect::new(x_lo, y_lo, x_hi, y_hi);
        out.push(r);
        if rng.below(5) == 0 {
            out.push(r);
        }
    }
    out
}

#[test]
fn seeded_soups_match_reference() {
    let mut rng = Lcg(0xC0FF_EE00);
    for case in 0..400 {
        let pool = coordinate_pool(&mut rng);
        let count = 1 + rng.below(40);
        let raw = soup(&mut rng, &pool, count);
        check(&raw, &mut rng, &format!("soup {case}"));
    }
}

#[test]
fn dense_overlapping_soups_match_reference() {
    // Few coordinates, many rectangles: heavy overlap and long carries.
    let mut rng = Lcg(0xABCD_0123);
    let pool = [-0.0, 0.0, 0.5, 1.0, next_up(1.0), 1.5, 2.0];
    for case in 0..50 {
        let raw = soup(&mut rng, &pool, 200);
        check(&raw, &mut rng, &format!("dense soup {case}"));
    }
}

#[test]
fn soups_clipped_to_infinite_shard_tiles_match_reference() {
    // Shard tiles extend to ±inf at the plane's edges; answers clipped
    // to them (and rectangles reaching infinity outright) must still
    // canonicalize identically.
    let mut rng = Lcg(0x5A4D_7111);
    let (ninf, inf) = (f64::NEG_INFINITY, f64::INFINITY);
    for case in 0..150 {
        let pool = coordinate_pool(&mut rng);
        let count = 1 + rng.below(30);
        let mut raw = soup(&mut rng, &pool, count);
        let (cx, cy) = (pool[rng.below(pool.len())], pool[rng.below(pool.len())]);
        let tiles = [
            Rect::new(ninf, ninf, cx, cy),
            Rect::new(cx, ninf, inf, cy),
            Rect::new(ninf, cy, cx, inf),
            Rect::new(cx, cy, inf, inf),
        ];
        let mut clipped: Vec<Rect> = raw
            .iter()
            .flat_map(|r| tiles.iter().filter_map(|t| r.intersection(t)))
            .collect();
        check(&clipped, &mut rng, &format!("clipped soup {case}"));
        // Reference and union_disjoint_clipped agree on the same parts.
        let whole = RegionSet::from_rects(raw.iter().copied());
        let merged = RegionSet::union_disjoint_clipped(tiles.iter().map(|&t| (&whole, t)));
        let want = reference_canonicalize(&clipped);
        assert_eq!(bits(merged.rects()), bits(&want), "clipped merge {case}");

        raw.push(Rect::new(ninf, cy, cx, next_up(cy)));
        raw.push(Rect::new(cx, ninf, inf, inf));
        clipped.extend_from_slice(&tiles[..rng.below(4)]);
        check(&raw, &mut rng, &format!("infinite soup {case}"));
        check(&clipped, &mut rng, &format!("infinite tiles {case}"));
    }
}

/// 2000 objects in eight LCG clusters over a 1000² plane, at rest.
fn clustered_population() -> Vec<(ObjectId, MotionState)> {
    let mut rng = Lcg(0x2000_0501);
    let centers: Vec<Point> = (0..8)
        .map(|_| Point::new(100.0 + 800.0 * rng.unit(), 100.0 + 800.0 * rng.unit()))
        .collect();
    (0..2000u64)
        .map(|i| {
            let c = centers[i as usize % centers.len()];
            let spread = 20.0 + 40.0 * (i % 3) as f64;
            let p = Point::new(
                (c.x + spread * (rng.unit() - 0.5)).clamp(0.0, 999.0),
                (c.y + spread * (rng.unit() - 0.5)).clamp(0.0, 999.0),
            );
            (ObjectId(i), MotionState::new(p, Point::new(0.0, 0.0), 0))
        })
        .collect()
}

#[test]
fn fr_sweep_output_at_2000_objects_matches_reference() {
    let cfg = FrConfig {
        extent: 1000.0,
        m: 67, // cell edge 1000/67 ≤ l/2
        horizon: TimeHorizon::new(10, 10),
        buffer_pages: 512,
        threads: 1,
    };
    let mut fr = FrEngine::new(cfg, 0);
    fr.bulk_load(&clustered_population(), 0);
    let q = PdrQuery::new(10.0 / (30.0 * 30.0), 30.0, 0);
    let grid = fr.histogram().grid();
    let cls = classify_cells(grid, &fr.histogram().prefix_sums_at(q.q_t), &q);
    let threshold = DenseThreshold::of(&q);

    // Accepted cells, then each candidate cell's raw sweep strips over
    // the objects an `l/2`-inflated range query returns, from the
    // reference sliver sweep.
    let mut raw: Vec<Rect> = cls
        .cells_of(CellClass::Accept)
        .map(|c| grid.cell_rect(c))
        .collect();
    let candidates: Vec<_> = cls.cells_of(CellClass::Candidate).collect();
    let tree = fr.tree();
    let (mut io, mut hits, mut positions) = (IoStats::default(), Vec::new(), Vec::new());
    for cell in candidates {
        let target = grid.cell_rect(cell);
        tree.try_range_at_into(&target.inflate(q.l / 2.0), q.q_t, &mut io, &mut hits)
            .expect("in-memory pool has no faults");
        positions.clear();
        positions.extend(hits.iter().map(|&(_, p)| p));
        let slivers = reference_sliver_sweep(&target, &mut positions, threshold, q.l);
        // The sweep emits each cell's slivers already canonical.
        assert_eq!(
            bits(&refine_region(&target, &mut positions, threshold, q.l)),
            bits(&reference_canonicalize(&slivers)),
            "cell {cell:?}"
        );
        raw.extend(slivers);
    }
    assert!(
        raw.len() > 10_000,
        "too small a sweep output: {}",
        raw.len()
    );

    let canonical = check(&raw, &mut Lcg(7), "FR n=2000");
    assert!(
        canonical.len() < raw.len() / 10,
        "{} of {}",
        canonical.len(),
        raw.len()
    );
    // The engine's own answer is the same canonical list.
    assert_eq!(bits(fr.query(&q).regions.rects()), bits(&canonical));
}
