//! The filter step (Section 5.2, Algorithm 1).
//!
//! Using one timestamp's density-histogram plane, every grid cell is
//! classified by two neighborhood counts:
//!
//! * **conservative neighborhood** `C_{i,j}` (Definition 6) — the cells
//!   strictly within `η_l = ⌊l / 2l_c⌋` of `(i, j)`. Every point of the
//!   cell has its whole `l`-square *containing* `C_{i,j}`, so
//!   `|C| ≥ ρl²` proves the cell dense (**accept**).
//! * **expansive neighborhood** `E_{i,j}` (Definition 7) — the cells
//!   within `η_h = ⌈l / 2l_c⌉` of `(i, j)`. Every point's `l`-square is
//!   *contained in* `E_{i,j}`, so `|E| < ρl²` proves the cell nowhere
//!   dense (**reject**).
//!
//! Everything in between is a **candidate** for the refinement sweep.

use crate::{DenseThreshold, PdrQuery, SubError};
use pdr_geometry::{CellId, GridSpec};
use pdr_histogram::PrefixSum2d;

/// Per-cell verdict of the filter step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellClass {
    /// Provably dense in full: `|C_{i,j}| ≥ ρl²`.
    Accept,
    /// Provably nowhere dense: `|E_{i,j}| < ρl²`.
    Reject,
    /// Needs refinement.
    Candidate,
}

/// Result of classifying all `m²` cells for one query.
#[derive(Clone, Debug)]
pub struct Classification {
    grid: GridSpec,
    classes: Vec<CellClass>,
    accepts: usize,
    rejects: usize,
    candidates: usize,
}

impl Classification {
    /// The grid the classification refers to.
    pub fn grid(&self) -> GridSpec {
        self.grid
    }

    /// Verdict for one cell.
    pub fn class_of(&self, cell: CellId) -> CellClass {
        self.classes[self.grid.linear_index(cell)]
    }

    /// Number of accepted cells.
    pub fn accept_count(&self) -> usize {
        self.accepts
    }

    /// Number of rejected cells.
    pub fn reject_count(&self) -> usize {
        self.rejects
    }

    /// Number of candidate cells (each costs a range query + sweep).
    pub fn candidate_count(&self) -> usize {
        self.candidates
    }

    /// Iterates cells of a given class, row-major.
    pub fn cells_of(&self, class: CellClass) -> impl Iterator<Item = CellId> + '_ {
        self.grid
            .all_cells()
            .filter(move |&c| self.classes[self.grid.linear_index(c)] == class)
    }
}

/// Refuses a neighborhood edge `l` that [`classify_cells`] cannot take
/// on `grid` (Algorithm 1 requires `l_c ≤ l/2`), so engines answer it
/// with a typed error before it reaches the filter. A NaN `l` is left
/// to the callers' parameter checks.
pub(crate) fn check_filter_edge(grid: GridSpec, l: f64) -> Result<(), SubError> {
    if grid.cell_edge() > l / 2.0 + 1e-12 {
        Err(SubError::EdgeBelowFilterCell {
            l,
            l_min: 2.0 * grid.cell_edge(),
        })
    } else {
        Ok(())
    }
}

/// Runs the filter step of Algorithm 1 on one histogram plane.
///
/// # Panics
///
/// Panics unless `l_c ≤ l/2` (the algorithm's stated requirement: with
/// coarser cells the conservative neighborhood is empty and the filter
/// can never accept, defeating its purpose).
pub fn classify_cells(grid: GridSpec, sums: &PrefixSum2d, query: &PdrQuery) -> Classification {
    let l_c = grid.cell_edge();
    assert!(
        check_filter_edge(grid, query.l).is_ok(),
        "filter requires cell edge l_c ({l_c}) <= l/2 ({})",
        query.l / 2.0
    );
    assert_eq!(
        sums.m(),
        grid.cells_per_side() as usize,
        "grid/sums mismatch"
    );
    let beta = query.l / (2.0 * l_c);
    let eta_l = beta.floor() as i64;
    let eta_h = beta.ceil() as i64;
    let threshold = DenseThreshold::of(query);

    let mut classes = Vec::with_capacity(grid.cell_count());
    let (mut accepts, mut rejects, mut candidates) = (0, 0, 0);
    for cell in grid.all_cells() {
        let conservative = if eta_l >= 1 {
            sums.square_sum(cell, eta_l - 1)
        } else {
            0
        };
        let class = if threshold.met_by(conservative.max(0) as usize) {
            accepts += 1;
            CellClass::Accept
        } else {
            let expansive = sums.square_sum(cell, eta_h);
            if !threshold.met_by(expansive.max(0) as usize) {
                rejects += 1;
                CellClass::Reject
            } else {
                candidates += 1;
                CellClass::Candidate
            }
        };
        classes.push(class);
    }
    Classification {
        grid,
        classes,
        accepts,
        rejects,
        candidates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdr_geometry::Point;
    use pdr_histogram::DensityHistogram;
    use pdr_mobject::{MotionState, ObjectId, TimeHorizon, Update};

    /// 10x10 grid over [0, 100]; l = 20 so eta_l = 1, eta_h = 1.
    fn setup(objects: &[(f64, f64)]) -> (GridSpec, PrefixSum2d) {
        let mut h = DensityHistogram::new(100.0, 10, TimeHorizon::new(1, 1), 0);
        for (i, &(x, y)) in objects.iter().enumerate() {
            h.apply(&Update::insert(
                ObjectId(i as u64),
                0,
                MotionState::stationary(Point::new(x, y), 0),
            ));
        }
        (h.grid(), h.prefix_sums_at(0))
    }

    #[test]
    fn accept_reject_candidate() {
        // Pile 50 objects into cell (5,5): with l = 20, rho such that
        // threshold = 40, the cell itself is accepted (its conservative
        // neighborhood is just itself at eta_l = 1).
        let objects: Vec<(f64, f64)> = (0..50).map(|_| (55.0, 55.0)).collect();
        let (grid, sums) = setup(&objects);
        let q = PdrQuery::new(0.1, 20.0, 0); // threshold = 40
        let cls = classify_cells(grid, &sums, &q);
        assert_eq!(cls.class_of(CellId::new(5, 5)), CellClass::Accept);
        // Direct neighbors see the mass in their expansive neighborhood
        // but not conservatively: candidates.
        assert_eq!(cls.class_of(CellId::new(6, 5)), CellClass::Candidate);
        // Far cells are rejected.
        assert_eq!(cls.class_of(CellId::new(0, 0)), CellClass::Reject);
        assert_eq!(
            cls.accept_count() + cls.reject_count() + cls.candidate_count(),
            100
        );
    }

    #[test]
    fn filter_never_lies() {
        // Soundness of the filter vs the exact answer: accepted cells
        // must be fully dense; rejected cells must contain no dense
        // point. Verified against the brute-force oracle.
        use crate::{ExactOracle, PdrQuery};
        let mut pts = Vec::new();
        let mut seed = 31u64;
        let mut rng = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as f64 / (1u64 << 31) as f64
        };
        for _ in 0..120 {
            if pts.len() % 3 == 0 {
                pts.push((40.0 + rng() * 20.0, 40.0 + rng() * 20.0));
            } else {
                pts.push((rng() * 100.0, rng() * 100.0));
            }
        }
        let (grid, sums) = setup(&pts);
        let q = PdrQuery::new(0.03, 20.0, 0); // threshold = 12 objects
        let cls = classify_cells(grid, &sums, &q);
        let oracle = ExactOracle::new(
            grid.bounds(),
            pts.iter().map(|&(x, y)| Point::new(x, y)).collect(),
        );
        for cell in grid.all_cells() {
            let r = grid.cell_rect(cell);
            match cls.class_of(cell) {
                CellClass::Accept => {
                    // Sample points: all must be dense.
                    for (fx, fy) in [(0.1, 0.1), (0.5, 0.5), (0.9, 0.9)] {
                        let p = Point::new(r.x_lo + fx * r.width(), r.y_lo + fy * r.height());
                        assert!(
                            oracle.is_dense(p, &q),
                            "accepted cell has sparse point {p:?}"
                        );
                    }
                }
                CellClass::Reject => {
                    for (fx, fy) in [(0.1, 0.1), (0.5, 0.5), (0.9, 0.9)] {
                        let p = Point::new(r.x_lo + fx * r.width(), r.y_lo + fy * r.height());
                        assert!(
                            !oracle.is_dense(p, &q),
                            "rejected cell has dense point {p:?}"
                        );
                    }
                }
                CellClass::Candidate => {}
            }
        }
    }

    #[test]
    fn eta_values_match_definitions() {
        // l = 30, l_c = 10 => beta = 1.5 => eta_l = 1, eta_h = 2: the
        // conservative neighborhood is the cell itself (radius 0), the
        // expansive one has radius 2. We verify observable behavior:
        // a cell whose own count clears the threshold is accepted.
        let objects: Vec<(f64, f64)> = (0..20).map(|_| (5.0, 5.0)).collect();
        let mut h = DensityHistogram::new(100.0, 10, TimeHorizon::new(1, 1), 0);
        for (i, &(x, y)) in objects.iter().enumerate() {
            h.apply(&Update::insert(
                ObjectId(i as u64),
                0,
                MotionState::stationary(Point::new(x, y), 0),
            ));
        }
        let q = PdrQuery::new(20.0 / 900.0, 30.0, 0); // threshold = 20
        let cls = classify_cells(h.grid(), &h.prefix_sums_at(0), &q);
        assert_eq!(cls.class_of(CellId::new(0, 0)), CellClass::Accept);
        // A cell 3 away can still be influenced? eta_h = 2, so cell
        // (3, 0) has the mass outside its expansive neighborhood:
        assert_eq!(cls.class_of(CellId::new(3, 0)), CellClass::Reject);
        // Cell (2, 0) sees it expansively: candidate.
        assert_eq!(cls.class_of(CellId::new(2, 0)), CellClass::Candidate);
    }

    #[test]
    #[should_panic(expected = "filter requires cell edge")]
    fn rejects_coarse_grid() {
        let (grid, sums) = setup(&[]);
        // l = 10 < 2 * l_c = 20.
        let _ = classify_cells(grid, &sums, &PdrQuery::new(1.0, 10.0, 0));
    }
}
