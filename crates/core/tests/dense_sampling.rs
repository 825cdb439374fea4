//! Sweep-independent sampling check of the exact dense region.
//!
//! The oracle engine runs the same plane sweep FR refines with, so an
//! oracle comparison cannot catch a sweep bug. This test never calls
//! the sweep: at each probe point `p` it counts the objects inside the
//! half-open `l`-square `S_p` of Definition 1 through a plain bucket
//! grid and asserts `answer.contains(p) == threshold.met_by(count)`.
//!
//! Probes are uniform random points, every answer-rectangle corner ±1
//! ulp on both axes, and every object's dense-square corner
//! `(x ± l/2, y ± l/2)` ±1 ulp on both axes. Object coordinates lie on
//! a dyadic lattice (multiples of 2⁻²⁰ below 1024) and `l = 32`, so
//! every stopping event `o ± l/2` and every segment midpoint is exact
//! in `f64`: the true region's boundary sits exactly on representable
//! coordinates, and a boundary one ulp off is caught at the probes
//! beside it.
//!
//! Covered: the FR engine at n = 2000 and an adaptive sharded FR plane
//! split three levels deep around a cluster, whose answers are
//! clipped and merged at every cut line.

use pdr_core::{DenseThreshold, EngineSpec, FrConfig, PdrQuery, TopologyError};
use pdr_geometry::{Point, Rect, RegionSet};
use pdr_mobject::{MotionState, ObjectId, TimeHorizon};

const EXTENT: f64 = 1000.0;
const L: f64 = 32.0;

struct Lcg(u64);

impl Lcg {
    fn unit(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) as f64 / (1u64 << 31) as f64
    }
}

/// The next representable value above `v` (finite `v` only).
fn next_up(v: f64) -> f64 {
    if v == 0.0 {
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

/// Rounds onto the 2⁻²⁰ lattice.
fn dyadic(v: f64) -> f64 {
    (v * (1u64 << 20) as f64).round() / (1u64 << 20) as f64
}

/// `n` objects at rest in eight clusters of mixed spread, plus a
/// uniform background, all on the dyadic lattice inside the plane.
fn population(n: u64, seed: u64) -> Vec<(ObjectId, MotionState)> {
    let mut rng = Lcg(seed);
    let centers: Vec<Point> = (0..8)
        .map(|_| Point::new(100.0 + 800.0 * rng.unit(), 100.0 + 800.0 * rng.unit()))
        .collect();
    (0..n)
        .map(|i| {
            let p = if i % 5 == 4 {
                Point::new(EXTENT * rng.unit(), EXTENT * rng.unit())
            } else {
                let c = centers[i as usize % centers.len()];
                let spread = 20.0 + 40.0 * (i % 3) as f64;
                Point::new(
                    c.x + spread * (rng.unit() - 0.5),
                    c.y + spread * (rng.unit() - 0.5),
                )
            };
            let p = Point::new(
                dyadic(p.x.clamp(0.0, EXTENT - 1.0)),
                dyadic(p.y.clamp(0.0, EXTENT - 1.0)),
            );
            (ObjectId(i), MotionState::stationary(p, 0))
        })
        .collect()
}

/// A uniform bucket grid over `[0, EXTENT)²` with pitch `pitch`;
/// coordinates outside clamp to the border buckets.
struct Buckets<T> {
    pitch: f64,
    n: usize,
    cells: Vec<Vec<T>>,
}

impl<T> Buckets<T> {
    fn new(pitch: f64) -> Self {
        let n = (EXTENT / pitch).ceil() as usize;
        Buckets {
            pitch,
            n,
            cells: (0..n * n).map(|_| Vec::new()).collect(),
        }
    }

    /// Monotone bucket coordinate, clamped (`as` saturates).
    fn index(&self, v: f64) -> usize {
        ((v / self.pitch).floor().max(0.0) as usize).min(self.n - 1)
    }

    /// Files `item` under every bucket the closed box touches.
    fn insert(&mut self, x_lo: f64, y_lo: f64, x_hi: f64, y_hi: f64, item: T)
    where
        T: Clone,
    {
        for row in self.index(y_lo)..=self.index(y_hi) {
            for col in self.index(x_lo)..=self.index(x_hi) {
                self.cells[row * self.n + col].push(item.clone());
            }
        }
    }

    /// Every item filed under a bucket the closed box touches.
    fn around(&self, x_lo: f64, y_lo: f64, x_hi: f64, y_hi: f64) -> impl Iterator<Item = &T> {
        let (c0, c1) = (self.index(x_lo), self.index(x_hi));
        (self.index(y_lo)..=self.index(y_hi))
            .flat_map(move |row| (c0..=c1).flat_map(move |col| &self.cells[row * self.n + col]))
    }
}

/// Asserts the answer is exactly the set of points whose half-open
/// `l`-square holds enough objects, at every probe inside the plane.
fn assert_pointwise_exact(objects: &[Point], answer: &RegionSet, q: &PdrQuery, what: &str) {
    assert!(
        !answer.is_empty(),
        "{what}: the scene must have dense points"
    );
    let half = q.l / 2.0;
    let threshold = DenseThreshold::of(q);
    let mut by_pos: Buckets<Point> = Buckets::new(q.l);
    for &o in objects {
        by_pos.insert(o.x, o.y, o.x, o.y, o);
    }
    let mut by_rect: Buckets<Rect> = Buckets::new(q.l);
    for &r in answer.rects() {
        by_rect.insert(r.x_lo, r.y_lo, r.x_hi, r.y_hi, r);
    }
    // Definition 1 read from the object's side: `o` is in `S_p` iff
    // `p ∈ [o.x − l/2, o.x + l/2) × [o.y − l/2, o.y + l/2)`. Those
    // bounds are exact on the lattice, so the comparison is exact even
    // at probes one ulp off the lattice, where `p ± l/2` would round.
    let count = |p: Point| {
        by_pos
            .around(p.x - q.l, p.y - q.l, p.x + q.l, p.y + q.l)
            .filter(|&&o| {
                Rect::new(o.x - half, o.y - half, o.x + half, o.y + half).contains_half_open(p)
            })
            .count()
    };
    let contains = |p: Point| {
        by_rect
            .around(p.x, p.y, p.x, p.y)
            .any(|r| r.contains_half_open(p))
    };

    let mut corners: Vec<(f64, f64)> = answer
        .rects()
        .iter()
        .flat_map(|r| {
            [
                (r.x_lo, r.y_lo),
                (r.x_lo, r.y_hi),
                (r.x_hi, r.y_lo),
                (r.x_hi, r.y_hi),
            ]
        })
        .collect();
    for o in objects {
        for dx in [-half, half] {
            for dy in [-half, half] {
                corners.push((o.x + dx, o.y + dy));
            }
        }
    }
    let mut probes: Vec<Point> = Vec::with_capacity(9 * corners.len());
    for (x, y) in corners {
        for px in [next_down(x), x, next_up(x)] {
            for py in [next_down(y), y, next_up(y)] {
                probes.push(Point::new(px, py));
            }
        }
    }
    let mut rng = Lcg(0x5A3B_1E00);
    probes.extend((0..20_000).map(|_| Point::new(EXTENT * rng.unit(), EXTENT * rng.unit())));

    let mut dense_probes = 0usize;
    let domain = Rect::new(0.0, 0.0, EXTENT, EXTENT);
    for p in probes.into_iter().filter(|&p| domain.contains_half_open(p)) {
        let n = count(p);
        let dense = threshold.met_by(n);
        dense_probes += usize::from(dense);
        assert_eq!(
            contains(p),
            dense,
            "{what}: ({:e}, {:e}) holds {n} objects, threshold {}",
            p.x,
            p.y,
            threshold.value()
        );
    }
    assert!(
        dense_probes > 1000,
        "{what}: only {dense_probes} dense probes"
    );
}

fn fr_cfg() -> FrConfig {
    FrConfig {
        extent: EXTENT,
        m: 64, // cell edge 15.625 ≤ l/2
        horizon: TimeHorizon::new(4, 4),
        buffer_pages: 256,
        threads: 1,
    }
}

fn query() -> PdrQuery {
    PdrQuery::new(10.0 / (L * L), L, 0)
}

fn positions(objects: &[(ObjectId, MotionState)]) -> Vec<Point> {
    objects.iter().map(|(_, m)| m.position_at(0)).collect()
}

#[test]
fn fr_answer_is_pointwise_exact_at_2000_objects() {
    let objects = population(2000, 0x0D15_EA5E);
    let mut fr = EngineSpec::Fr(fr_cfg()).build(0);
    fr.bulk_load(&objects, 0);
    let answer = fr.query(&query()).regions;
    assert_pointwise_exact(&positions(&objects), &answer, &query(), "FR n=2000");
}

#[test]
fn adaptive_sharded_answer_is_pointwise_exact() {
    let objects = population(1200, 0x5EED_0002);
    let mut plane = EngineSpec::Sharded {
        adaptive: None,
        inner: Box::new(EngineSpec::Fr(fr_cfg())),
        sx: 1,
        sy: 1,
        l_max: L,
    }
    .build(0);
    plane.bulk_load(&objects, 0);
    // Split the leaf owning a cluster member three times, so cut lines
    // run through dense regions at three depths.
    let hot = positions(&objects)[0];
    let eng = plane.as_sharded_mut().expect("sharded plane");
    for _ in 0..3 {
        let part = eng.map();
        let leaf = (0..part.shards())
            .find(|&i| part.owned(i).contains_half_open(hot))
            .expect("owned rects tile the plane");
        match eng.split_shard(leaf) {
            Ok(rep) => assert_eq!(rep.created.len(), 4),
            Err(TopologyError::Limits) => break,
            Err(e) => panic!("split failed: {e:?}"),
        }
    }
    assert!(eng.map().shards() >= 7, "the plane must have split");
    let answer = plane.query(&query()).regions;
    assert_pointwise_exact(&positions(&objects), &answer, &query(), "adaptive plane");
}
