//! A same-seed shadow of the served stack, fed identical inputs
//! in-process. It reaches the layers the wire cannot: engine ingest,
//! the journal, checkpoints, subscription maintenance, the shard plane
//! and the FR filter/refine/merge pieces.
//!
//! Layers reachable only inside another layer's call (the density
//! histogram and the TPR-tree inside FR ingest, the shard WAL segment
//! inside a plane's ingest) run as standalone shadows fed the same
//! updates, and their outputs are checked against the engine's.

use crate::trace::Tracer;
use crate::workload::{horizon, Key, Kind, SubSpec, Workload, L};
use pdr_core::{
    classify_cells, refine_region, CellClass, DenseThreshold, DensityEngine, EngineSpec, FrEngine,
    PdrQuery, QtPolicy, RangeIndex, SegmentHeader, Wal, WalCodec,
};
use pdr_geometry::{Point, Rect, RegionSet};
use pdr_histogram::DensityHistogram;
use pdr_mobject::{screen_batch, ObjectId, Update, UpdateKind};
use pdr_storage::IoStats;
use pdr_tprtree::{TprConfig, TprTree};
use pdr_workload::net::Json;
use pdr_workload::TrafficSimulator;
use std::time::{Duration, Instant};

/// One served engine's shadow.
struct Engine {
    label: &'static str,
    engine: Box<dyn DensityEngine>,
    /// Standalone WAL segment of a fixed 1-leaf plane (the segment the
    /// plane appends to inside its own ingest).
    segment: Option<Wal>,
}

/// The standalone pieces of the traced run.
struct Parts {
    /// Concrete FR over the same config: the engine the FR replay runs on.
    fr: FrEngine,
    hist: DensityHistogram,
    tree: TprTree,
}

/// Per-tick shadow measurements.
#[derive(Default, Debug)]
pub struct TickOut {
    pub updates: usize,
    pub delta_rects: u64,
    pub dirty_cells: u64,
    pub checkpoint_bytes: Vec<usize>,
    /// Summed shadow children of the served tick, for attribution.
    pub children: Duration,
}

/// One FR query replayed through the engine's public pieces.
pub struct Replay {
    pub regions: RegionSet,
    pub area: f64,
    pub classify: Duration,
    pub range: Duration,
    pub sweep: Duration,
    pub canonicalize: Duration,
    pub area_time: Duration,
    pub candidates: u64,
    pub objects: u64,
    pub rects_emitted: u64,
    pub canonicalize_in: u64,
    pub io: IoStats,
}

impl Replay {
    pub fn total(&self) -> Duration {
        self.classify + self.range + self.sweep + self.canonicalize + self.area_time
    }
}

/// A shard-plane query with its per-shard stage times.
pub struct PlaneQuery {
    pub regions: RegionSet,
    pub elapsed: Duration,
    /// Per-shard `query` stage time spent on this query, in µs.
    pub shard_us: Vec<f64>,
}

pub struct Shadow {
    w: Workload,
    sim: TrafficSimulator,
    engines: Vec<Engine>,
    journal: Option<(Wal, u64, u64)>,
    parts: Option<Parts>,
    /// `(sub id, spec, answer rebuilt from deltas)`.
    pub mirrors: Vec<(u64, SubSpec, Vec<Rect>)>,
}

fn span_name(label: &str, what: &str) -> &'static str {
    match (label, what) {
        ("fr", "advance") => "fr.advance",
        ("fr", "apply") => "fr.apply",
        ("pa", "advance") => "pa.advance",
        ("pa", "apply") => "pa.apply",
        ("pa", "query") => "pa.query",
        (_, "query") => "shard.query",
        _ => "engine.other",
    }
}

impl Shadow {
    /// Builds and bootstraps the shadow. `full` adds the standalone
    /// pieces the traced run needs.
    pub fn new(w: &Workload, full: bool) -> Result<Shadow, String> {
        let sim = w.simulator();
        let mut engines = Vec::new();
        for (label, spec) in w.specs() {
            let fixed_plane = matches!(spec, EngineSpec::Sharded { adaptive: None, .. });
            engines.push(Engine {
                label,
                engine: spec
                    .try_build(0)
                    .map_err(|e| format!("shadow {label}: {e}"))?,
                segment: (full && fixed_plane).then(|| {
                    Wal::new_segment_with(
                        SegmentHeader {
                            shard: 0,
                            shards: 1,
                        },
                        WalCodec::V2,
                    )
                }),
            });
        }
        let parts = full.then(|| {
            let cfg = w.fr_config();
            Parts {
                fr: FrEngine::new(cfg, 0),
                hist: DensityHistogram::new(cfg.extent, cfg.m, cfg.horizon, 0),
                tree: TprTree::new(
                    TprConfig {
                        buffer_pages: cfg.buffer_pages,
                        min_fill_ratio: 0.4,
                        horizon: cfg.horizon.h() as f64,
                        integral_metrics: true,
                    },
                    0,
                ),
            }
        });
        let mut shadow = Shadow {
            w: *w,
            sim,
            engines,
            journal: None,
            parts,
            mirrors: Vec::new(),
        };
        shadow.bootstrap();
        if let Some(every) = w.journal_every() {
            shadow.journal = Some((Wal::with_codec(WalCodec::V2), every, 0));
        }
        Ok(shadow)
    }

    fn bootstrap(&mut self) {
        let pop = self.sim.population();
        let t = self.sim.t_now();
        for e in &mut self.engines {
            e.engine.bulk_load(&pop, t);
        }
        if let Some(p) = &mut self.parts {
            p.fr.bulk_load(&pop, t);
            for (id, m) in &pop {
                p.hist.apply(&Update::insert(*id, t, *m));
            }
            p.tree.load(&pop, t);
        }
    }

    fn engine_mut(&mut self, label: &str) -> Option<&mut Engine> {
        self.engines.iter_mut().find(|e| e.label == label)
    }

    pub fn engine(&self, label: &str) -> Option<&dyn DensityEngine> {
        self.engines
            .iter()
            .find(|e| e.label == label)
            .map(|e| e.engine.as_ref())
    }

    /// Registers the workload's subscriptions on the FR engine, in the
    /// served order, and replays their initial deltas.
    pub fn subscribe(&mut self, specs: &[SubSpec]) -> Result<(), String> {
        let now = self.sim.t_now();
        for spec in specs {
            let e = self.engine_mut("fr").ok_or("no fr engine")?;
            let id = e
                .engine
                .register_subscription(
                    spec.rho(),
                    L,
                    spec.region_or_domain(),
                    QtPolicy::NowPlus(spec.q_t),
                )
                .map_err(|err| format!("shadow subscribe: {err}"))?;
            let deltas = e.engine.maintain_subscriptions(now);
            self.mirrors.push((id.0, *spec, Vec::new()));
            for d in deltas {
                if let Some((_, _, m)) = self.mirrors.iter_mut().find(|(i, _, _)| *i == d.id.0) {
                    d.apply_to(m);
                }
            }
        }
        Ok(())
    }

    pub fn t_now(&self) -> u64 {
        self.sim.t_now()
    }

    /// One tick, in the order `ServeDriver::tick` runs it: journal the
    /// advance, advance every engine, step the simulator, journal the
    /// batch, apply it (maintaining subscriptions), checkpoint on
    /// cadence.
    pub fn tick(&mut self, tr: &mut Tracer) -> TickOut {
        let mut out = TickOut::default();
        let t_next = self.sim.t_now() + 1;
        let started = tr.spans.len();
        if let Some((j, _, _)) = &mut self.journal {
            tr.time("wal.append", || j.append_advance(t_next));
        }
        for e in &mut self.engines {
            let splits_before = e.engine.as_sharded().map_or(0, |p| p.splits());
            let name = span_name(e.label, "advance");
            let engine = &mut e.engine;
            let id = tr.begin(name);
            engine.advance_to(t_next);
            let took = tr.end(id);
            if e.engine.as_sharded().map_or(0, |p| p.splits()) > splits_before {
                tr.record("shard.migration", tr.spans[id].start, took);
            }
            if let Some(seg) = &mut e.segment {
                tr.time("wal.append", || seg.append_advance(t_next));
            }
        }
        let updates = tr.time("simulator.tick", || self.sim.tick());
        out.updates = updates.len();
        if let Some((j, _, _)) = &mut self.journal {
            tr.time("wal.append", || j.append_batch(&updates));
        }
        let accepted: Vec<Update> = {
            let rejected = screen_batch(&updates, Some((t_next, horizon())));
            let mut next = 0;
            updates
                .iter()
                .enumerate()
                .filter(|(i, _)| {
                    let skip = next < rejected.len() && rejected[next].0 == *i;
                    next += usize::from(skip);
                    !skip
                })
                .map(|(_, u)| *u)
                .collect()
        };
        for e in &mut self.engines {
            let dirty_before = dirty_cells(e.engine.as_ref());
            let engine = &mut e.engine;
            tr.time(span_name(e.label, "apply"), || engine.apply_batch(&updates));
            if let Some(seg) = &mut e.segment {
                tr.time("wal.append", || seg.append_batch(&accepted));
            }
            if engine.subscriptions().is_some_and(|t| !t.is_empty()) {
                let deltas = tr.time("sub.maintain", || engine.maintain_subscriptions(t_next));
                out.dirty_cells += dirty_cells(engine.as_ref()) - dirty_before;
                for d in deltas {
                    out.delta_rects += (d.added.len() + d.removed.len()) as u64;
                    if let Some((_, _, m)) = self.mirrors.iter_mut().find(|(i, _, _)| *i == d.id.0)
                    {
                        d.apply_to(m);
                    }
                }
            }
        }
        if let Some((_, every, since)) = &mut self.journal {
            *since += 1;
            if *since >= *every {
                *since = 0;
                for e in &self.engines {
                    let bytes = tr.time("engine.checkpoint", || e.engine.checkpoint());
                    out.checkpoint_bytes.push(bytes.map_or(0, |b| b.len()));
                }
            }
        }
        // Every span above is a root; the migration span repeats the
        // advance that split.
        out.children = tr.spans[started..]
            .iter()
            .filter(|s| s.name != "shard.migration")
            .map(|s| s.dur())
            .sum();
        // Standalone pieces: not children of the served tick (they
        // shadow work inside fr.apply), so they run after the sum.
        if let Some(p) = &mut self.parts {
            tr.time("replay.ingest", || {
                p.fr.advance_to(t_next);
                DensityEngine::apply_batch(&mut p.fr, &updates);
            });
            tr.time("histogram.advance", || p.hist.advance_to(t_next));
            tr.time("histogram.apply", || {
                for u in &accepted {
                    p.hist.apply(u);
                }
            });
            let tree = &mut p.tree;
            tr.time("tprtree.update", || {
                for u in &accepted {
                    match u.kind {
                        UpdateKind::Insert { motion } => tree.insert(u.id, &motion, u.t_now),
                        UpdateKind::Delete { .. } => {
                            tree.remove(u.id);
                        }
                    }
                }
            });
        }
        out
    }

    /// Checks the standalone pieces against the engines they shadow.
    pub fn check_parts(&self) -> Result<(), String> {
        let t = self.sim.t_now();
        if let Some(p) = &self.parts {
            if p.hist.plane_at(t) != p.fr.histogram().plane_at(t) {
                return Err(format!("standalone histogram diverged from FR's at t={t}"));
            }
            if p.tree.len() != p.fr.len() {
                return Err(format!(
                    "standalone TPR-tree holds {} objects, FR's {}",
                    p.tree.len(),
                    p.fr.len()
                ));
            }
        }
        for e in &self.engines {
            if let (Some(seg), Some(plane)) = (&e.segment, e.engine.as_sharded()) {
                let served = plane.wal_offsets();
                if served.first() != Some(&seg.offset()) {
                    return Err(format!(
                        "{} segment shadow at {} bytes, plane segment at {served:?}",
                        e.label,
                        seg.offset()
                    ));
                }
            }
        }
        Ok(())
    }

    /// WAL bytes written so far: `ServeDriver` journal plus plane segments.
    pub fn wal_bytes(&self) -> usize {
        let journal = self.journal.as_ref().map_or(0, |(j, _, _)| j.offset());
        let segments: usize = self
            .engines
            .iter()
            .filter_map(|e| e.engine.as_sharded())
            .map(|p| p.wal_offsets().iter().sum::<usize>())
            .sum();
        journal + segments
    }

    /// The FR plane's splits and ghost/owned ratio.
    pub fn shard_shape(&self) -> (u64, f64) {
        let Some(plane) = self.engine("fr").and_then(|e| e.as_sharded()) else {
            return (0, 0.0);
        };
        let (mut owned, mut ghost) = (0.0, 0.0);
        let part = Json::parse(&plane.partition_json()).unwrap_or(Json::Null);
        if let Some(Json::Arr(leaves)) = part.get("tree") {
            for leaf in leaves {
                owned += leaf
                    .get("owned_objects")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0);
                ghost += leaf
                    .get("ghost_objects")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0);
            }
        }
        (
            plane.splits(),
            if owned > 0.0 { ghost / owned } else { 0.0 },
        )
    }

    fn query_of(&self, key: Key) -> PdrQuery {
        PdrQuery::new(key.rho(), L, self.sim.t_now() + key.q_t)
    }

    /// Answers `key` on the shadow engine labelled `key.engine`.
    pub fn query(&self, key: Key, tr: &mut Tracer) -> Result<PlaneQuery, String> {
        let q = self.query_of(key);
        let e = self.engine(key.engine).ok_or("no such shadow engine")?;
        let before = shard_query_us(e);
        let id = tr.begin(span_name(key.engine, "query"));
        let answer = e
            .try_query(&q)
            .map_err(|err| format!("shadow query: {err:?}"))?;
        let elapsed = tr.end(id);
        let after = shard_query_us(e);
        Ok(PlaneQuery {
            regions: answer.regions,
            elapsed,
            shard_us: after
                .iter()
                .zip(before.iter().chain(std::iter::repeat(&0.0)))
                .map(|(a, b)| a - b)
                .collect(),
        })
    }

    /// The concrete FR engine's own `try_query` answer.
    pub fn fr_try_query(&self, key: Key) -> Result<RegionSet, String> {
        let p = self.parts.as_ref().ok_or("no FR shadow")?;
        p.fr.try_query(&self.query_of(key))
            .map(|a| a.regions)
            .map_err(|e| format!("FR try_query: {e:?}"))
    }

    /// Replays FR for `key` on the concrete engine's own histogram and
    /// index: classify, range + sweep per candidate cell, canonicalize.
    pub fn replay_fr(&mut self, key: Key, tr: &mut Tracer) -> Result<Replay, String> {
        let q = self.query_of(key);
        let p = self.parts.as_mut().ok_or("no FR shadow")?;
        let root = tr.begin("fr.query");
        let grid = p.fr.histogram().grid();
        let (cls, classify) = {
            let id = tr.begin("fr.classify");
            let sums = p.fr.histogram().prefix_sums_at(q.q_t);
            let cls = classify_cells(grid, &sums, &q);
            (cls, tr.end(id))
        };
        let threshold = DenseThreshold::of(&q);
        let mut regions = RegionSet::new();
        for cell in cls.cells_of(CellClass::Accept) {
            regions.push(grid.cell_rect(cell));
        }
        let accepted = regions.len() as u64;
        let candidates: Vec<_> = cls.cells_of(CellClass::Candidate).collect();
        let tree: &TprTree = p.fr.tree();
        let mut io = IoStats::default();
        let mut hits: Vec<(ObjectId, Point)> = Vec::new();
        let mut positions: Vec<Point> = Vec::new();
        let mut rects = Vec::new();
        let (mut range, mut sweep) = (Duration::ZERO, Duration::ZERO);
        let (mut objects, refine_start) = (0u64, Instant::now());
        for &cell in &candidates {
            let target = grid.cell_rect(cell);
            let s = target.inflate(q.l / 2.0);
            let t0 = Instant::now();
            tree.try_range_at_into(&s, q.q_t, &mut io, &mut hits)
                .map_err(|e| format!("replay range: {e:?}"))?;
            let t1 = Instant::now();
            objects += hits.len() as u64;
            positions.clear();
            positions.extend(hits.iter().map(|&(_, pt)| pt));
            rects.extend(refine_region(&target, &mut positions, threshold, q.l));
            range += t1 - t0;
            sweep += t1.elapsed();
        }
        // Per-cell calls are summed into one span per stage.
        tr.record("index.range", refine_start, range);
        tr.record("sweep.refine", refine_start + range, sweep);
        let rects_emitted = rects.len() as u64;
        let canonicalize = {
            let id = tr.begin("region.canonicalize");
            for r in rects {
                regions.push(r);
            }
            regions.canonicalize();
            tr.end(id)
        };
        let (area, area_time) = {
            let id = tr.begin("region.area");
            let area = regions.area();
            (area, tr.end(id))
        };
        tr.end(root);
        Ok(Replay {
            regions,
            area,
            classify,
            range,
            sweep,
            canonicalize,
            area_time,
            candidates: candidates.len() as u64,
            objects,
            rects_emitted,
            canonicalize_in: accepted + rects_emitted,
            io,
        })
    }

    /// PA branch-and-bound counters summed over the PA engine.
    pub fn pa_counters(&self) -> (u64, u64) {
        self.engine("pa").map_or((0, 0), |e| {
            let obs = e.obs();
            (
                obs.counter("bnb_expanded").unwrap_or(0),
                obs.counter("bnb_pruned").unwrap_or(0),
            )
        })
    }

    /// I/O of the standalone TPR-tree since the last reset.
    pub fn take_tree_io(&self) -> IoStats {
        self.parts.as_ref().map_or_else(IoStats::default, |p| {
            let io = p.tree.io_stats();
            p.tree.reset_io_stats();
            io
        })
    }

    pub fn kind(&self) -> Kind {
        self.w.kind
    }
}

/// Dirty-cell counter of an engine (summed over a plane's shards).
fn dirty_cells(e: &dyn DensityEngine) -> u64 {
    e.obs().counter("dirty_cells").unwrap_or(0)
}

/// Per-shard cumulative `query` stage time, in µs, from the plane's
/// per-shard obs (count × mean: the quantile fields are log2 bucket
/// labels and are not used).
fn shard_query_us(e: &dyn DensityEngine) -> Vec<f64> {
    let Some(json) = e.shard_metrics_json() else {
        return Vec::new();
    };
    let Ok(Json::Arr(shards)) = Json::parse(&json) else {
        return Vec::new();
    };
    shards
        .iter()
        .map(|s| {
            let stage = s
                .get("obs")
                .and_then(|o| o.get("stages"))
                .and_then(|st| st.get("query"));
            let count = stage
                .and_then(|q| q.get("count"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            let mean = stage
                .and_then(|q| q.get("mean_us"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            count * mean
        })
        .collect()
}
