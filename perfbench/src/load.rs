//! Closed-loop load generator speaking the wire protocol through
//! `NetClient`: one repeat of a workload's op plan, with failure
//! accounting and an answer digest in op order.

use crate::workload::{Key, Plan, SubSpec, Workload};
use pdr_core::{AnswerDelta, SubId, SubscriptionTable};
use pdr_geometry::{Rect, RegionSet};
use pdr_workload::net::Json;
use pdr_workload::NetClient;
use std::time::{Duration, Instant};

/// What an op was.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    Query,
    Tick,
    Poll,
    Check,
    Subscribe,
}

/// One answered op, as the client saw it.
#[derive(Clone, Debug)]
pub struct Op {
    pub kind: OpKind,
    pub round: usize,
    pub key: Option<Key>,
    pub start: Instant,
    pub latency: Duration,
    /// Response frame size in bytes.
    pub bytes: usize,
    /// Server-side `micros` of a query or check.
    pub server_us: Option<f64>,
    /// Regions of a query answer; deltas of a poll.
    pub regions: u64,
    /// Answer area of a query; rects carried by a poll.
    pub area: f64,
    /// Protocol updates a tick reported.
    pub updates: u64,
    pub deadline_miss: bool,
}

/// A subscription's answer, rebuilt only from the deltas it received.
#[derive(Clone, Debug)]
pub struct Mirror {
    pub spec: SubSpec,
    pub id: u64,
    pub rects: Vec<Rect>,
}

/// Everything one repeat produced.
#[derive(Debug, Default)]
pub struct Repeat {
    pub ops: Vec<Op>,
    /// Tick sent → `poll_deltas` answered and replayed.
    pub refresh: Vec<Duration>,
    /// Wall time of the rounds (ticks, refreshes and queries), without
    /// the traced run's shadow work between rounds.
    pub window: Duration,
    pub digest: u64,
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: Vec<String>,
    pub mirrors: Vec<Mirror>,
}

impl Repeat {
    pub fn of(&self, kind: OpKind) -> impl Iterator<Item = &Op> + '_ {
        self.ops.iter().filter(move |o| o.kind == kind)
    }
}

/// Work the traced run does between rounds, while no op is in flight.
pub trait Hooks {
    /// After tick `round` and its refresh; `mirrors` is the client state.
    fn after_tick(&mut self, _round: usize, _tick: &Op, _mirrors: &[Mirror]) -> Result<(), String> {
        Ok(())
    }
    /// After the queries of `round`.
    fn after_round(&mut self, _round: usize, _queries: &[Op]) -> Result<(), String> {
        Ok(())
    }
}

/// The untraced run.
pub struct NoHooks;
impl Hooks for NoHooks {}

/// FNV-1a over the answer digest stream.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }

    /// Folds one op: kind, key, region count and area bits.
    fn op(&mut self, op: &Op) {
        self.add(op.kind as u64);
        if let Some(k) = op.key {
            self.add(u64::from(k.count) << 32 | k.q_t);
        }
        self.add(op.regions);
        self.add(op.area.to_bits());
        self.add(op.updates);
    }
}

/// A client connection that stays dead once it failed: its remaining
/// planned ops are counted as failed, never retried.
pub struct Conn {
    id: usize,
    client: Option<NetClient>,
}

impl Conn {
    pub fn connect(id: usize, addr: &str) -> Conn {
        Conn {
            id,
            client: NetClient::connect(addr).ok(),
        }
    }

    pub fn alive(&self) -> bool {
        self.client.is_some()
    }

    /// Sends one request and reads its response: `(json, bytes, start,
    /// latency)`. A transport error kills the connection.
    pub fn call(&mut self, body: &str) -> Result<(Json, usize, Instant, Duration), String> {
        let client = self.client.as_mut().ok_or("connection lost earlier")?;
        let start = Instant::now();
        let raw = match client.request_raw(body) {
            Ok(raw) => raw,
            Err(e) => {
                self.client = None;
                return Err(format!("connection {} lost: {e}", self.id));
            }
        };
        let latency = start.elapsed();
        let json = Json::parse(&raw).map_err(|e| format!("bad response frame: {e}"))?;
        if json.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("request failed: {raw:.200}"));
        }
        Ok((json, raw.len(), start, latency))
    }

    /// A `query`/`check` op for `key`.
    pub fn query(
        &mut self,
        kind: OpKind,
        round: usize,
        key: Key,
        rects: bool,
    ) -> Result<(Op, Json), String> {
        let op_name = if kind == OpKind::Check {
            "check"
        } else {
            "query"
        };
        let (json, bytes, start, latency) = self.call(&key.request(op_name, rects))?;
        let num = |k: &str| json.get(k).and_then(Json::as_f64);
        let op = Op {
            kind,
            round,
            key: Some(key),
            start,
            latency,
            bytes,
            server_us: num("micros"),
            regions: num("regions").ok_or("answer without regions")? as u64,
            area: num("area").ok_or("answer without area")?,
            updates: 0,
            deadline_miss: json.get("deadline_miss").and_then(Json::as_bool) == Some(true),
        };
        Ok((op, json))
    }

    fn tick(&mut self, round: usize) -> Result<Op, String> {
        let (json, bytes, start, latency) = self.call("{\"op\":\"tick\"}")?;
        Ok(Op {
            kind: OpKind::Tick,
            round,
            key: None,
            start,
            latency,
            bytes,
            server_us: None,
            regions: json
                .get("t_now")
                .and_then(Json::as_u64)
                .ok_or("tick without t_now")?,
            area: 0.0,
            updates: json
                .get("updates")
                .and_then(Json::as_u64)
                .ok_or("tick without updates")?,
            deadline_miss: false,
        })
    }

    /// A `poll_deltas` op whose deltas are replayed into `mirrors`.
    pub fn poll(&mut self, round: usize, mirrors: &mut [Mirror]) -> Result<Op, String> {
        let (json, bytes, start, latency) = self.call("{\"op\":\"poll_deltas\"}")?;
        if json.get("lost").and_then(Json::as_bool) == Some(true) {
            return Err("delta buffer overflowed (lost:true)".into());
        }
        let Some(Json::Arr(entries)) = json.get("deltas") else {
            return Err("poll_deltas without a deltas array".into());
        };
        let mut rects = 0u64;
        for entry in entries {
            let d = entry.get("delta").ok_or("delta entry without body")?;
            if d.get("degraded").and_then(Json::as_bool) == Some(true) {
                return Err("subscription degraded mid-stream".into());
            }
            let id = d
                .get("sub")
                .and_then(Json::as_u64)
                .ok_or("delta without sub")?;
            let patch = AnswerDelta {
                id: SubId(id),
                now: 0,
                q_t: 0,
                added: parse_rects(d.get("added").ok_or("delta without added")?)?,
                removed: parse_rects(d.get("removed").ok_or("delta without removed")?)?,
                degraded: false,
                resync: d.get("resync").is_some(),
            };
            rects += (patch.added.len() + patch.removed.len()) as u64;
            let mirror = mirrors
                .iter_mut()
                .find(|m| m.id == id)
                .ok_or_else(|| format!("delta for unknown subscription {id}"))?;
            patch.apply_to(&mut mirror.rects);
        }
        Ok(Op {
            kind: OpKind::Poll,
            round,
            key: None,
            start,
            latency,
            bytes,
            server_us: None,
            regions: entries.len() as u64,
            area: rects as f64,
            updates: 0,
            deadline_miss: false,
        })
    }

    fn subscribe(&mut self, spec: &SubSpec) -> Result<(Op, u64), String> {
        let region = match spec.region {
            Some(r) => format!("[{},{},{},{}]", r.x_lo, r.y_lo, r.x_hi, r.y_hi),
            None => "null".into(),
        };
        let body = format!(
            "{{\"op\":\"subscribe\",\"engine\":\"fr\",\"rho\":{},\"l\":{},\"q_t\":{},\"region\":{region}}}",
            spec.rho(),
            crate::workload::L,
            spec.q_t
        );
        let (json, bytes, start, latency) = self.call(&body)?;
        let id = json
            .get("sub")
            .and_then(Json::as_u64)
            .ok_or("subscribe without sub id")?;
        let op = Op {
            kind: OpKind::Subscribe,
            round: 0,
            key: None,
            start,
            latency,
            bytes,
            server_us: None,
            regions: id,
            area: 0.0,
            updates: 0,
            deadline_miss: false,
        };
        Ok((op, id))
    }
}

/// Parses a `[[x_lo,y_lo,x_hi,y_hi],…]` rect list.
pub fn parse_rects(v: &Json) -> Result<Vec<Rect>, String> {
    let Json::Arr(items) = v else {
        return Err("expected a rect array".into());
    };
    items
        .iter()
        .map(|r| {
            let Json::Arr(c) = r else {
                return Err("expected a rect".to_string());
            };
            let c: Vec<f64> = c.iter().filter_map(Json::as_f64).collect();
            if c.len() != 4 {
                return Err("rect needs four coordinates".into());
            }
            Ok(Rect::new(c[0], c[1], c[2], c[3]))
        })
        .collect()
}

/// Per-connection outcome of one round's queries.
struct ConnRound {
    ops: Vec<Op>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    finished: Instant,
}

fn run_queries(conn: &mut Conn, round: usize, keys: &[Key]) -> ConnRound {
    let mut out = ConnRound {
        ops: Vec::with_capacity(keys.len()),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        finished: Instant::now(),
    };
    for &key in keys {
        out.attempted += 1;
        if !conn.alive() {
            out.failed += 1;
            continue;
        }
        match conn.query(OpKind::Query, round, key, false) {
            Ok((op, _)) => out.ops.push(op),
            Err(e) => {
                out.failed += 1;
                out.errors.push(e);
            }
        }
    }
    out.finished = Instant::now();
    out
}

/// Runs one repeat of `plan` against the server at `addr`.
///
/// Each round is a tick and its refresh, then every connection's queries
/// in parallel. The connection that finished the previous round last
/// sends the tick, so the tick always follows a just-answered request on
/// its connection (an idle gap would change the wire's acknowledgement
/// timing from tick to tick).
pub fn run_repeat(
    w: &Workload,
    plan: &Plan,
    addr: &str,
    hooks: &mut dyn Hooks,
) -> (Repeat, Vec<Conn>) {
    let mut rep = Repeat::default();
    let mut conns: Vec<Conn> = (0..w.conns).map(|c| Conn::connect(c, addr)).collect();
    // Queries fold into their connection's digest; ticks, refreshes and
    // subscriptions into the control digest.
    let mut digests = vec![Digest::default(); w.conns];
    let mut control = Digest::default();
    let mut errors: Vec<String> = Vec::new();

    // Standing subscriptions, before the first tick. Their initial
    // answers arrive as the first deltas.
    for spec in w.subscriptions() {
        rep.attempted += 1;
        match conns[0].subscribe(&spec) {
            Ok((op, id)) => {
                control.op(&op);
                rep.ops.push(op);
                rep.mirrors.push(Mirror {
                    spec,
                    id,
                    rects: Vec::new(),
                });
            }
            Err(e) => {
                rep.failed += 1;
                errors.push(e);
            }
        }
    }
    if !rep.mirrors.is_empty() {
        rep.attempted += 1;
        match conns[0].poll(0, &mut rep.mirrors) {
            Ok(op) => control.op(&op),
            Err(e) => {
                rep.failed += 1;
                errors.push(e);
            }
        }
    }

    let mut ticker = 0;
    for (round, per_conn) in plan.rounds.iter().enumerate() {
        // Tick, then refresh the subscriptions (an empty poll when the
        // workload has none). Subscriptions live on connection 0, the
        // only connection of the workload that has them.
        let started = Instant::now();
        rep.attempted += 2;
        match conns[ticker].tick(round) {
            Ok(tick) => {
                control.op(&tick);
                match conns[ticker].poll(round, &mut rep.mirrors) {
                    Ok(poll) => {
                        rep.refresh.push(started.elapsed());
                        control.op(&poll);
                        rep.ops.push(poll);
                    }
                    Err(e) => {
                        rep.failed += 1;
                        errors.push(e);
                    }
                }
                rep.window += started.elapsed();
                if let Err(e) = hooks.after_tick(round, &tick, &rep.mirrors) {
                    rep.mismatches.push(format!("round {round} tick: {e}"));
                }
                rep.ops.push(tick);
            }
            Err(e) => {
                rep.failed += 2;
                errors.push(e);
                rep.window += started.elapsed();
            }
        }

        // The round's queries: one closed loop per connection.
        let started = Instant::now();
        let results: Vec<ConnRound> = if conns.len() == 1 {
            vec![run_queries(&mut conns[0], round, &per_conn[0])]
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = conns
                    .iter_mut()
                    .zip(per_conn)
                    .map(|(conn, keys)| s.spawn(move || run_queries(conn, round, keys)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("query thread panicked"))
                    .collect()
            })
        };
        rep.window += started.elapsed();
        ticker = (0..results.len())
            .filter(|&c| conns[c].alive())
            .max_by_key(|&c| results[c].finished)
            .unwrap_or(0);
        let first = rep.ops.len();
        for (c, r) in results.into_iter().enumerate() {
            absorb(&mut rep, &mut digests[c], &mut errors, r);
        }
        if let Err(e) = hooks.after_round(round, &rep.ops[first..]) {
            rep.mismatches.push(format!("round {round} queries: {e}"));
        }
    }

    for d in digests {
        control.add(d.value());
    }
    rep.digest = control.value();
    rep.mismatches.extend(
        errors
            .into_iter()
            .take(8)
            .map(|e| format!("failed op: {e}")),
    );
    (rep, conns)
}

fn absorb(rep: &mut Repeat, digest: &mut Digest, errors: &mut Vec<String>, r: ConnRound) {
    rep.attempted += r.attempted;
    rep.failed += r.failed;
    errors.extend(r.errors);
    for op in r.ops {
        digest.op(&op);
        rep.ops.push(op);
    }
}

/// What the correctness pass found.
pub struct Verification {
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: Vec<String>,
    pub check_extra_ms: Vec<f64>,
    /// Served rect lists of the last round's PA keys.
    pub pa_answers: Vec<(Key, Vec<Rect>)>,
}

/// The correctness pass outside the timed window, on the state the
/// last tick left: every distinct FR key of the last round must check
/// `exact:true`, and every subscription mirror must equal a clipped
/// `query` with `"rects":true`. PA answers are collected for the
/// reference comparison. `paired` also times a plain query on the first
/// checked key (for `exact.check_extra_ms`).
pub fn verify(plan: &Plan, conn: &mut Conn, mirrors: &[Mirror], paired: bool) -> Verification {
    let mut v = Verification {
        attempted: 0,
        failed: 0,
        mismatches: Vec::new(),
        check_extra_ms: Vec::new(),
        pa_answers: Vec::new(),
    };
    let round = plan.rounds.len();
    for key in plan.last_round_keys() {
        v.attempted += 1;
        if key.engine == "pa" {
            // PA is approximate by design: its answers are checked
            // against the in-process reference instead of the oracle.
            match conn
                .query(OpKind::Query, round, key, true)
                .and_then(|(_, json)| parse_rects(json.get("rects").ok_or("no rects")?))
            {
                Ok(rects) => v.pa_answers.push((key, rects)),
                Err(e) => {
                    v.failed += 1;
                    v.mismatches.push(format!("PA answer for {key:?}: {e}"));
                }
            }
            continue;
        }
        let check = match conn.query(OpKind::Check, round, key, false) {
            Ok((op, json)) => {
                if json.get("exact").and_then(Json::as_bool) != Some(true) {
                    v.failed += 1;
                    v.mismatches.push(format!(
                        "check {key:?} not exact: sym_diff {:?}",
                        json.get("sym_diff")
                    ));
                }
                op
            }
            Err(e) => {
                v.failed += 1;
                v.mismatches.push(format!("check {key:?}: {e}"));
                continue;
            }
        };
        if paired && v.check_extra_ms.is_empty() {
            v.attempted += 1;
            match conn.query(OpKind::Query, round, key, false) {
                Ok((q, _)) => v
                    .check_extra_ms
                    .push((check.latency.as_secs_f64() - q.latency.as_secs_f64()) * 1e3),
                Err(e) => {
                    v.failed += 1;
                    v.mismatches.push(format!("paired query {key:?}: {e}"));
                }
            }
        }
    }
    for m in mirrors {
        v.attempted += 1;
        let key = Key {
            engine: "fr",
            count: m.spec.count,
            q_t: m.spec.q_t,
        };
        let reference = conn
            .query(OpKind::Query, round, key, true)
            .and_then(|(_, json)| parse_rects(json.get("rects").ok_or("no rects")?));
        match reference {
            Ok(rects) => {
                let clipped = SubscriptionTable::clip(
                    &RegionSet::from_rects(rects),
                    m.spec.region_or_domain(),
                );
                if clipped.rects() != m.rects.as_slice() {
                    v.failed += 1;
                    v.mismatches.push(format!(
                        "subscription {} mirror ({} rects) differs from its clipped query ({} rects)",
                        m.id,
                        m.rects.len(),
                        clipped.len()
                    ));
                }
            }
            Err(e) => {
                v.failed += 1;
                v.mismatches.push(format!("mirror reference query: {e}"));
            }
        }
    }
    v
}
