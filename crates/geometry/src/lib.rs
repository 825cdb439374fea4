//! Planar geometry kernel for pointwise-dense region (PDR) queries.
//!
//! This crate provides the geometric vocabulary shared by every other crate
//! in the workspace:
//!
//! * [`Point`] — a location in the XY-plane (miles in the paper's setup).
//! * [`Rect`] — an axis-aligned rectangle. Query answers are unions of
//!   rectangles with *half-open* `[lo, hi)` semantics so that abutting
//!   answer rectangles tile the plane without double counting.
//! * [`LSquare`] — the paper's `l`-square neighborhood of a point: the
//!   square of edge length `l` centered at the point that **includes its
//!   right and top edges but excludes its left and bottom edges**
//!   (Definition 1 of the paper).
//! * [`IntervalSet`] — measurable unions of 1-D intervals, the workhorse
//!   behind 2-D region measure.
//! * [`RegionSet`] — a measurable union of rectangles supporting the area
//!   of unions, intersections and differences via a slab sweep. The
//!   accuracy metrics of the paper (`r_fp`, `r_fn`) are ratios of such
//!   areas.
//! * [`GridSpec`] — addressing for the uniform `m × m` grids used by the
//!   density histogram, the filter step, and the dense-cell baseline.
//!
//! All coordinates are `f64`. The kernel is deliberately free of any
//! indexing or motion concerns; those live in `pdr-mobject`,
//! `pdr-histogram` and `pdr-tprtree`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod grid;
mod interval;
mod lsquare;
mod point;
mod rect;
mod region;

pub use grid::{CellId, GridSpec};
pub use interval::{Interval, IntervalSet};
pub use lsquare::LSquare;
pub use point::Point;
pub use rect::Rect;
pub use region::{CanonicalBuilder, RegionSet};

/// Comparison tolerance used when deduplicating sweep-event coordinates.
///
/// Coordinates in the paper's setup are miles within a 1000-mile plane, so
/// 1e-9 is far below any physically meaningful distance while staying well
/// above `f64` rounding noise for the arithmetic we perform.
pub const EPS: f64 = 1e-9;

/// Returns `true` when two coordinates are equal within [`EPS`].
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= EPS
}
