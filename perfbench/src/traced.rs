//! The traced run: the same op plan against a fresh stack, with a
//! same-seed shadow replaying every layer between rounds (while no op
//! is in flight), spans around each call, and the attribution ledger.

use crate::load::{Conn, Hooks, Mirror, Op, OpKind, Repeat};
use crate::shadow::{Replay, Shadow, TickOut};
use crate::stats::{mean, median, num, Metrics};
use crate::trace::Tracer;
use crate::workload::{Key, Kind, Plan, Workload};
use pdr_storage::IoStats;
use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

/// Names of the spans that shadow work inside another layer's call;
/// they are reported but never added to the tick's children.
const STANDALONE: [&str; 4] = [
    "replay.ingest",
    "histogram.advance",
    "histogram.apply",
    "tprtree.update",
];

/// Per-layer metrics the traced run reports, with units. Every name is
/// printed on every workload (0 where the workload never reaches the
/// layer).
pub const PER_LAYER: [(&str, &str); 49] = [
    ("net.query_overhead_ms", "ms"),
    ("net.rtt_ms", "ms"),
    ("net.poll_bytes", "B"),
    ("net.response_bytes", "B"),
    ("serve.tick_ms", "ms"),
    ("serve.tick_self_ms", "ms"),
    ("simulator.tick_ms", "ms"),
    ("fr.advance_ms", "ms"),
    ("fr.apply_ms", "ms"),
    ("pa.advance_ms", "ms"),
    ("pa.apply_ms", "ms"),
    ("histogram.apply_ms", "ms"),
    ("tprtree.update_ms", "ms"),
    ("storage.physical_ios", "count"),
    ("storage.hit_ratio", "ratio"),
    ("wal.append_ms", "ms"),
    ("wal.bytes_per_update", "B"),
    ("engine.checkpoint_ms", "ms"),
    ("engine.checkpoint_bytes", "B"),
    ("fr.classify_ms", "ms"),
    ("index.range_ms", "ms"),
    ("sweep.refine_ms", "ms"),
    ("region.canonicalize_ms", "ms"),
    ("region.area_ms", "ms"),
    ("fr.candidate_cells", "count"),
    ("fr.objects_retrieved", "count"),
    ("sweep.rects_emitted", "count"),
    ("region.canonicalize_in", "count"),
    ("region.canonicalize_out", "count"),
    ("pa.query_ms", "ms"),
    ("pa.bnb_expanded", "count"),
    ("pa.bnb_pruned", "count"),
    ("shard.fanout_overhead_ms", "ms"),
    ("shard.straggler_ratio", "ratio"),
    ("shard.migration_ms", "ms"),
    ("shard.splits", "count"),
    ("shard.ghost_ratio", "ratio"),
    ("sub.maintain_ms", "ms"),
    ("sub.dirty_cells", "count"),
    ("sub.delta_rects", "count"),
    ("exec.tasks", "count"),
    ("exec.steals", "count"),
    ("exec.parked_ms", "ms"),
    ("exact.check_extra_ms", "ms"),
    ("attr.op_ms", "ms"),
    ("attr.attributed_share", "ratio"),
    ("attr.unattributed_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
];

/// The shadow's account of one tick: the round trip a small response
/// pays on an idle connection, and the tick's measured children.
struct TickRecord {
    rtt_ms: f64,
    layers: Vec<(&'static str, f64)>,
    children_ms: f64,
    out: TickOut,
}

/// The shadow's account of one query key in one round.
struct KeyRecord {
    layers: Vec<(&'static str, f64)>,
    engine_ms: f64,
}

/// The traced run's hooks and accumulators.
pub struct Traced {
    pub shadow: Shadow,
    pub tr: Tracer,
    plan: Plan,
    idle: Conn,
    ticks: Vec<TickRecord>,
    keys: HashMap<(usize, Key), KeyRecord>,
    replays: Vec<Replay>,
    canonicalize_out: Vec<f64>,
    fanout_overhead_ms: Vec<f64>,
    straggler: Vec<f64>,
    bnb: Vec<(u64, u64)>,
    io: IoStats,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn layer_of(span: &str) -> &'static str {
    match span.split('.').next().unwrap_or("") {
        "wal" => "wal",
        "fr" => "fr",
        "pa" => "pa",
        "simulator" => "simulator",
        "sub" => "sub",
        "engine" => "engine",
        "shard" => "shard",
        "index" => "index",
        "sweep" => "sweep",
        "region" => "region",
        _ => "other",
    }
}

impl Traced {
    pub fn new(w: &Workload, plan: &Plan, addr: &str) -> Result<Traced, String> {
        let mut shadow = Shadow::new(w, true)?;
        shadow.subscribe(&w.subscriptions())?;
        let idle = Conn::connect(usize::MAX, addr);
        if !idle.alive() {
            return Err("idle probe connection refused".into());
        }
        Ok(Traced {
            shadow,
            tr: Tracer::new(),
            plan: plan.clone(),
            idle,
            ticks: Vec::new(),
            keys: HashMap::new(),
            replays: Vec::new(),
            canonicalize_out: Vec::new(),
            fanout_overhead_ms: Vec::new(),
            straggler: Vec::new(),
            bnb: Vec::new(),
            io: IoStats::default(),
        })
    }

    /// Engine time and answer of `key` on the shadow, split into layers.
    fn key_record(
        &mut self,
        key: Key,
        last: bool,
        errors: &mut Vec<String>,
    ) -> Result<(KeyRecord, (u64, f64)), String> {
        if key.engine == "pa" {
            let before = self.shadow.pa_counters();
            let pa = self.shadow.query(key, &mut self.tr)?;
            let after = self.shadow.pa_counters();
            self.bnb.push((after.0 - before.0, after.1 - before.1));
            let t = ms(pa.elapsed);
            let record = KeyRecord {
                layers: vec![("pa", t)],
                engine_ms: t,
            };
            return Ok((record, (pa.regions.len() as u64, pa.regions.area())));
        }
        let sharded = self.shadow.kind() == Kind::AdaptiveSubs;
        // The unsharded replay runs every round where its stages are the
        // ledger, and on the last round of the sharded workload as the
        // exactness check.
        let replay = if !sharded || last {
            Some(self.shadow.replay_fr(key, &mut self.tr)?)
        } else {
            None
        };
        if let (true, Some(r)) = (last, &replay) {
            if self.shadow.fr_try_query(key)?.rects() != r.regions.rects() {
                errors.push(format!("FR replay of {key:?} differs from try_query"));
            }
        }
        let (record, answer) = if sharded {
            let plane = self.shadow.query(key, &mut self.tr)?;
            if replay
                .as_ref()
                .is_some_and(|r| r.regions.rects() != plane.regions.rects())
            {
                errors.push(format!(
                    "sharded answer for {key:?} differs from the FR replay"
                ));
            }
            let slowest = plane.shard_us.iter().copied().fold(0.0, f64::max) / 1e3;
            let busy: Vec<f64> = plane
                .shard_us
                .iter()
                .copied()
                .filter(|&u| u > 0.0)
                .collect();
            let overhead = ms(plane.elapsed) - slowest;
            self.fanout_overhead_ms.push(overhead);
            self.straggler.push(if busy.is_empty() {
                0.0
            } else {
                slowest * 1e3 / mean(&busy)
            });
            let record = KeyRecord {
                layers: vec![("shard", overhead), ("fr", slowest)],
                engine_ms: ms(plane.elapsed),
            };
            (record, (plane.regions.len() as u64, plane.regions.area()))
        } else {
            let r = replay.as_ref().expect("replayed every round");
            let record = KeyRecord {
                layers: vec![
                    ("fr", ms(r.classify)),
                    ("index", ms(r.range)),
                    ("sweep", ms(r.sweep)),
                    ("region", ms(r.canonicalize + r.area_time)),
                ],
                engine_ms: ms(r.total()),
            };
            (record, (r.regions.len() as u64, r.area))
        };
        if let Some(r) = replay {
            self.io += r.io;
            self.canonicalize_out.push(r.regions.len() as f64);
            self.replays.push(r);
        }
        Ok((record, answer))
    }
}

impl Hooks for Traced {
    fn after_tick(&mut self, round: usize, tick: &Op, mirrors: &[Mirror]) -> Result<(), String> {
        self.tr.op = round as u64 + 1;
        self.tr.record("op.tick", tick.start, tick.latency);
        let started = self.tr.spans.len();
        let out = self.shadow.tick(&mut self.tr);
        let layers: Vec<(&'static str, f64)> = self.tr.spans[started..]
            .iter()
            .filter(|s| !STANDALONE.contains(&s.name) && s.name != "shard.migration")
            .map(|s| (layer_of(s.name), ms(s.dur())))
            .collect();
        self.io += self.shadow.take_tree_io();
        // An empty poll on a connection with no subscriptions: the wire
        // round trip a small response pays.
        let mut none: [Mirror; 0] = [];
        let rtt = self.idle.poll(round, &mut none)?;
        let mismatch = if out.updates as u64 != tick.updates {
            Some(format!(
                "shadow tick applied {} updates, server {}",
                out.updates, tick.updates
            ))
        } else if self.shadow.t_now() != tick.regions {
            Some(format!(
                "shadow clock {} vs server {}",
                self.shadow.t_now(),
                tick.regions
            ))
        } else {
            None
        };
        self.ticks.push(TickRecord {
            rtt_ms: ms(rtt.latency),
            layers,
            children_ms: ms(out.children),
            out,
        });
        if let Some(m) = mismatch {
            return Err(m);
        }
        self.shadow.check_parts()?;
        for m in mirrors {
            let shadow = self.shadow.mirrors.iter().find(|(id, _, _)| *id == m.id);
            if shadow.map(|(_, _, r)| r.as_slice()) != Some(m.rects.as_slice()) {
                return Err(format!(
                    "subscription {} mirror differs from the shadow's",
                    m.id
                ));
            }
        }
        Ok(())
    }

    fn after_round(&mut self, round: usize, queries: &[Op]) -> Result<(), String> {
        let mut keys: Vec<Key> = queries.iter().filter_map(|o| o.key).collect();
        keys.sort();
        keys.dedup();
        let last = round + 1 == self.plan.rounds.len();
        let mut errors = Vec::new();
        for (k, key) in keys.into_iter().enumerate() {
            self.tr.op = 1000 * (round as u64 + 1) + k as u64;
            let served: Vec<&Op> = queries.iter().filter(|o| o.key == Some(key)).collect();
            for op in &served {
                self.tr.record("op.query", op.start, op.latency);
            }
            let (record, (regions, area)) = self.key_record(key, last, &mut errors)?;
            for op in &served {
                if op.regions != regions || op.area.to_bits() != area.to_bits() {
                    errors.push(format!(
                        "served {key:?} answer ({} regions, area {}) differs from the shadow's ({regions}, {area})",
                        op.regions, op.area
                    ));
                }
            }
            self.keys.insert((round, key), record);
        }
        match errors.into_iter().next() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// Client-observed op time of a repeat: its `query`, `tick` and
/// `poll_deltas` ops, in ms.
pub fn op_ms(rep: &Repeat) -> f64 {
    rep.ops
        .iter()
        .filter(|o| matches!(o.kind, OpKind::Query | OpKind::Tick | OpKind::Poll))
        .map(|o| ms(o.latency))
        .sum()
}

/// Charges every op of the untraced repeat to layers, with the shadow's
/// per-round measurements: `(ms per layer, unattributed ms)`.
pub fn ledger(t: &Traced, rep: &Repeat) -> (BTreeMap<&'static str, f64>, f64) {
    let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut unattributed = 0.0;
    let mut charge = |layer: &'static str, v: f64| *layers.entry(layer).or_default() += v;
    for op in &rep.ops {
        let latency = ms(op.latency);
        match op.kind {
            OpKind::Query => match op.key.and_then(|k| t.keys.get(&(op.round, k))) {
                Some(r) => {
                    let server = op.server_us.unwrap_or(0.0) / 1e3;
                    charge("net", latency - server);
                    for &(layer, v) in &r.layers {
                        charge(layer, v);
                    }
                    unattributed += server - r.engine_ms;
                }
                None => unattributed += latency,
            },
            OpKind::Tick => match t.ticks.get(op.round) {
                Some(k) => {
                    charge("net", k.rtt_ms);
                    for &(layer, v) in &k.layers {
                        charge(layer, v);
                    }
                    charge("serve", latency - k.rtt_ms - k.children_ms);
                }
                None => unattributed += latency,
            },
            OpKind::Poll => charge("net", latency),
            OpKind::Check | OpKind::Subscribe => {}
        }
    }
    (layers, unattributed)
}

/// Inputs of the per-layer report that the hooks do not see.
pub struct Extra<'a> {
    pub untraced: &'a Repeat,
    pub traced: &'a Repeat,
    pub exec: [f64; 3],
    pub check_extra_ms: Vec<f64>,
}

/// Computes every [`PER_LAYER`] metric.
pub fn per_layer(t: &Traced, x: &Extra) -> Metrics {
    let rep = x.untraced;
    let tr = &t.tr;
    let queries: Vec<&Op> = rep.of(OpKind::Query).collect();
    let polls: Vec<&Op> = rep.of(OpKind::Poll).collect();
    let overhead: Vec<f64> = queries
        .iter()
        .map(|o| ms(o.latency) - o.server_us.unwrap_or(0.0) / 1e3)
        .collect();
    let rtts: Vec<f64> = t.ticks.iter().map(|k| k.rtt_ms).collect();
    let (mut serve_tick, mut serve_self) = (Vec::new(), Vec::new());
    for op in rep.of(OpKind::Tick) {
        if let Some(k) = t.ticks.get(op.round) {
            serve_tick.push(ms(op.latency) - k.rtt_ms);
            serve_self.push(ms(op.latency) - k.rtt_ms - k.children_ms);
        }
    }
    let updates: f64 = t.ticks.iter().map(|k| k.out.updates as f64).sum();
    let ckpt_bytes: Vec<f64> = t
        .ticks
        .iter()
        .flat_map(|k| k.out.checkpoint_bytes.iter().map(|&b| b as f64))
        .collect();
    let r = &t.replays;
    let rm = |f: fn(&Replay) -> Duration| median(&r.iter().map(|x| ms(f(x))).collect::<Vec<_>>());
    let rc = |f: fn(&Replay) -> u64| mean(&r.iter().map(|x| f(x) as f64).collect::<Vec<_>>());
    let (splits, ghost) = t.shadow.shard_shape();
    let migration = tr.total("shard.migration");
    let total_ms = op_ms(rep);
    let traced_ms = op_ms(x.traced);
    let (_, unattributed) = ledger(t, rep);
    let lookup = |name: &str| median(&tr.durations_ms(name));

    let mut m = Metrics::default();
    let mut put = |name: &'static str, v: f64| {
        let unit = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .expect("per-layer metric listed in PER_LAYER");
        m.put(name, v, unit);
    };
    put("net.query_overhead_ms", median(&overhead));
    put("net.rtt_ms", median(&rtts));
    put(
        "net.poll_bytes",
        mean(&polls.iter().map(|o| o.bytes as f64).collect::<Vec<_>>()),
    );
    put(
        "net.response_bytes",
        mean(&queries.iter().map(|o| o.bytes as f64).collect::<Vec<_>>()),
    );
    put("serve.tick_ms", median(&serve_tick));
    put("serve.tick_self_ms", median(&serve_self));
    put("simulator.tick_ms", lookup("simulator.tick"));
    put("fr.advance_ms", lookup("fr.advance"));
    put("fr.apply_ms", lookup("fr.apply"));
    put("pa.advance_ms", lookup("pa.advance"));
    put("pa.apply_ms", lookup("pa.apply"));
    put("histogram.apply_ms", lookup("histogram.apply"));
    put("tprtree.update_ms", lookup("tprtree.update"));
    put(
        "storage.physical_ios",
        (t.io.misses + t.io.writebacks) as f64,
    );
    put("storage.hit_ratio", t.io.hit_ratio());
    put("wal.append_ms", median(&tr.per_op_ms("wal.append")));
    put(
        "wal.bytes_per_update",
        if updates > 0.0 {
            t.shadow.wal_bytes() as f64 / updates
        } else {
            0.0
        },
    );
    put("engine.checkpoint_ms", lookup("engine.checkpoint"));
    put("engine.checkpoint_bytes", mean(&ckpt_bytes));
    put("fr.classify_ms", rm(|x| x.classify));
    put("index.range_ms", rm(|x| x.range));
    put("sweep.refine_ms", rm(|x| x.sweep));
    put("region.canonicalize_ms", rm(|x| x.canonicalize));
    put("region.area_ms", rm(|x| x.area_time));
    put("fr.candidate_cells", rc(|x| x.candidates));
    put("fr.objects_retrieved", rc(|x| x.objects));
    put("sweep.rects_emitted", rc(|x| x.rects_emitted));
    put("region.canonicalize_in", rc(|x| x.canonicalize_in));
    put("region.canonicalize_out", mean(&t.canonicalize_out));
    put("pa.query_ms", lookup("pa.query"));
    put(
        "pa.bnb_expanded",
        mean(&t.bnb.iter().map(|b| b.0 as f64).collect::<Vec<_>>()),
    );
    put(
        "pa.bnb_pruned",
        mean(&t.bnb.iter().map(|b| b.1 as f64).collect::<Vec<_>>()),
    );
    put("shard.fanout_overhead_ms", median(&t.fanout_overhead_ms));
    put("shard.straggler_ratio", median(&t.straggler));
    put(
        "shard.migration_ms",
        if splits > 0 {
            ms(migration) / splits as f64
        } else {
            0.0
        },
    );
    put("shard.splits", splits as f64);
    put("shard.ghost_ratio", ghost);
    put("sub.maintain_ms", lookup("sub.maintain"));
    put(
        "sub.dirty_cells",
        mean(
            &t.ticks
                .iter()
                .map(|k| k.out.dirty_cells as f64)
                .collect::<Vec<_>>(),
        ),
    );
    put(
        "sub.delta_rects",
        mean(
            &t.ticks
                .iter()
                .map(|k| k.out.delta_rects as f64)
                .collect::<Vec<_>>(),
        ),
    );
    put("exec.tasks", x.exec[0]);
    put("exec.steals", x.exec[1]);
    put("exec.parked_ms", x.exec[2]);
    put("exact.check_extra_ms", median(&x.check_extra_ms));
    put("attr.op_ms", total_ms);
    put(
        "attr.attributed_share",
        if total_ms > 0.0 {
            (total_ms - unattributed) / total_ms
        } else {
            0.0
        },
    );
    put("attr.unattributed_ms", unattributed);
    put(
        "trace.overhead_ratio",
        if total_ms > 0.0 {
            traced_ms / total_ms - 1.0
        } else {
            0.0
        },
    );
    put("trace.spans", tr.spans.len() as f64);
    assert_eq!(
        m.0.len(),
        PER_LAYER.len(),
        "every per-layer metric reported once"
    );
    m
}

/// The ledger as JSON: per-layer ms and shares of the untraced op time.
pub fn ledger_json(t: &Traced, rep: &Repeat) -> String {
    let total = op_ms(rep);
    let (layers, unattributed) = ledger(t, rep);
    let item = |name: &str, v: f64| {
        format!(
            "\"{name}\":{{\"ms\":{},\"share\":{}}}",
            num(v),
            num(v / total)
        )
    };
    let mut items: Vec<String> = layers.iter().map(|(layer, v)| item(layer, *v)).collect();
    items.push(item("unattributed", unattributed));
    format!("{{{}}}", items.join(","))
}
