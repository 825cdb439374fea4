//! The three workloads: engine specs, populations and seeded op plans.
//!
//! Every workload runs on the metro road network (extent 1000, hotspot
//! skewed) with neighborhood edge `l = 30` and maximum update time
//! `U = 10`. The map and the traffic on it (vehicle placement, routes,
//! speeds) are one fixed seeded realization per workload, as the paper's
//! datasets are fixed; `--seed` drives the op stream: the order in which
//! each connection asks its keys and which keys share a tick.

use pdr_core::{EngineSpec, FrConfig, PaConfig, SplitPolicy};
use pdr_geometry::Rect;
use pdr_mobject::TimeHorizon;
use pdr_workload::{NetworkConfig, RoadNetwork, TrafficSimulator};
use std::time::Duration;

/// Side of the monitored square.
pub const EXTENT: f64 = 1000.0;
/// Neighborhood edge of every query and subscription.
pub const L: f64 = 30.0;
/// Maximum update time: every object re-reports at least this often.
pub const U: u64 = 10;
/// Ticks per repeat. One whole multiple of `U`, counted from bootstrap,
/// so every repeat carries the bootstrap re-report wave at `t = U`
/// exactly once.
pub const TICKS: usize = U as usize;
/// Prediction offsets a query may ask for.
pub const OFFSETS: [u64; 3] = [0, 5, 10];
/// Density thresholds, as objects per `l × l` square.
pub const COUNTS: [u32; 2] = [10, 15];
/// Refinement workers per FR query (pinned: the default is one per core).
pub const FR_THREADS: usize = 2;
/// Executor pool size (pinned through `PDR_POOL_WORKERS`).
pub const POOL_WORKERS: usize = 1;
/// Per-query deadline of the server's fault policy (pinned: the default
/// scales with the core count).
pub const DEADLINE: Duration = Duration::from_secs(5);
/// Checkpoint cadence of the `ServeDriver` journal (the `--journal 5` default).
const JOURNAL_EVERY: u64 = 5;
/// Seed of the road network, which every workload shares.
const NETWORK_SEED: u64 = 0x6d65_7472_6f31;
/// Seed of the traffic simulator, which every workload shares.
const TRAFFIC_SEED: u64 = 0x7472_6166_6963;

/// Which workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// FR+PA unsharded, two connections asking FR queries.
    ReadFr,
    /// FR+PA in 1-leaf shard planes, journal on, PA queries.
    IngestDurable,
    /// Adaptive FR plane with wire subscriptions.
    AdaptiveSubs,
}

/// One workload's fixed shape.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    /// Moving objects.
    pub n: usize,
    /// FR buffer pool, in pages.
    pub buffer_pages: usize,
    /// Client connections running the plan.
    pub conns: usize,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const ALL: [Workload; 3] = [
    Workload {
        kind: Kind::ReadFr,
        name: "read-fr",
        n: 2000,
        buffer_pages: 512,
        conns: 2,
    },
    Workload {
        kind: Kind::IngestDurable,
        name: "ingest-durable",
        n: 10_000,
        buffer_pages: 64,
        conns: 1,
    },
    Workload {
        kind: Kind::AdaptiveSubs,
        name: "adaptive-subs",
        n: 3000,
        buffer_pages: 512,
        conns: 1,
    },
];

/// A query key: engine label, threshold and prediction offset.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Key {
    pub engine: &'static str,
    /// Threshold as objects per `l × l` square.
    pub count: u32,
    pub q_t: u64,
}

impl Key {
    /// Threshold as a density.
    pub fn rho(&self) -> f64 {
        f64::from(self.count) / (L * L)
    }

    /// A `query` or `check` request for this key.
    pub fn request(&self, op: &str, rects: bool) -> String {
        format!(
            "{{\"op\":\"{op}\",\"engine\":\"{}\",\"rho\":{},\"l\":{L},\"q_t\":{}{}}}",
            self.engine,
            self.rho(),
            self.q_t,
            if rects { ",\"rects\":true" } else { "" }
        )
    }
}

/// A standing wire subscription.
#[derive(Clone, Copy, Debug)]
pub struct SubSpec {
    pub count: u32,
    /// Sliding offset: the subscription tracks `now + q_t`.
    pub q_t: u64,
    /// Region of interest; `None` is the whole domain.
    pub region: Option<Rect>,
}

impl SubSpec {
    pub fn rho(&self) -> f64 {
        f64::from(self.count) / (L * L)
    }

    pub fn region_or_domain(&self) -> Rect {
        self.region.unwrap_or(Rect::new(0.0, 0.0, EXTENT, EXTENT))
    }
}

/// The seeded op plan of one repeat: `rounds[r][c]` are the queries
/// connection `c` asks after tick `r + 1`.
#[derive(Clone, Debug)]
pub struct Plan {
    pub rounds: Vec<Vec<Vec<Key>>>,
}

impl Plan {
    /// Distinct keys of the last round, in key order.
    pub fn last_round_keys(&self) -> Vec<Key> {
        let mut keys: Vec<Key> = self
            .rounds
            .last()
            .map(|r| r.iter().flatten().copied().collect())
            .unwrap_or_default();
        keys.sort();
        keys.dedup();
        keys
    }
}

/// splitmix64: the benchmark's own deterministic generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The serving horizon: `U = 10`, prediction window 10.
pub fn horizon() -> TimeHorizon {
    TimeHorizon::new(U, 10)
}

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        ALL.iter().copied().find(|w| w.name == name)
    }

    /// FR configured as `pdrcli serve` configures it.
    pub fn fr_config(&self) -> FrConfig {
        FrConfig {
            extent: EXTENT,
            m: ((2.0 * EXTENT / L).ceil() as u32).clamp(10, 400),
            horizon: horizon(),
            buffer_pages: self.buffer_pages,
            threads: FR_THREADS,
        }
    }

    /// PA configured as `pdrcli serve` configures it.
    pub fn pa_config(&self) -> PaConfig {
        PaConfig {
            extent: EXTENT,
            g: 20,
            degree: 5,
            l: L,
            horizon: horizon(),
            m_d: 512,
        }
    }

    /// The served engines, by label.
    pub fn specs(&self) -> Vec<(&'static str, EngineSpec)> {
        let plane = |inner: EngineSpec, adaptive: Option<SplitPolicy>| EngineSpec::Sharded {
            inner: Box::new(inner),
            sx: 1,
            sy: 1,
            l_max: L,
            adaptive,
        };
        let fr = EngineSpec::Fr(self.fr_config());
        let pa = EngineSpec::Pa(self.pa_config());
        match self.kind {
            Kind::ReadFr => vec![("fr", fr), ("pa", pa)],
            Kind::IngestDurable => vec![("fr", plane(fr, None)), ("pa", plane(pa, None))],
            Kind::AdaptiveSubs => vec![("fr", plane(fr, Some(SplitPolicy::default())))],
        }
    }

    /// `ServeDriver` journal checkpoint cadence, when the journal is on.
    pub fn journal_every(&self) -> Option<u64> {
        (self.kind == Kind::IngestDurable).then_some(JOURNAL_EVERY)
    }

    /// The traffic simulator, at `t = 0`.
    pub fn simulator(&self) -> TrafficSimulator {
        let network = RoadNetwork::generate(&NetworkConfig::metro(EXTENT), NETWORK_SEED);
        TrafficSimulator::new(
            network,
            self.n,
            TRAFFIC_SEED,
            horizon().max_update_time(),
            0,
        )
    }

    /// Standing wire subscriptions, registered before the first tick.
    pub fn subscriptions(&self) -> Vec<SubSpec> {
        if self.kind != Kind::AdaptiveSubs {
            return Vec::new();
        }
        let interior = Some(Rect::new(250.0, 250.0, 750.0, 750.0));
        [(0, None), (5, None), (10, interior), (0, interior)]
            .into_iter()
            .map(|(q_t, region)| SubSpec {
                count: COUNTS[0],
                q_t,
                region,
            })
            .collect()
    }

    /// The op plan for `seed`.
    pub fn plan(&self, seed: u64) -> Plan {
        let mut rng = Rng::new(seed ^ 0x706c_616e);
        let fr_keys: Vec<Key> = COUNTS
            .iter()
            .flat_map(|&count| {
                OFFSETS.iter().map(move |&q_t| Key {
                    engine: "fr",
                    count,
                    q_t,
                })
            })
            .collect();
        // Where the keys cycle: the seed picks the phase and each
        // connection's order within a tick.
        let phase = rng.below(3);
        let rounds = (0..TICKS)
            .map(|r| match self.kind {
                // Each connection asks every key once per tick, so half
                // the queries repeat a key. The seed orders the keys;
                // connection `c` runs the order shifted by `3c` keys, so
                // its query always meets the other threshold at the same
                // offset on the other connection (a seeded pairing would
                // change which queries share the two cores, and with it
                // latency and peak memory, from seed to seed).
                Kind::ReadFr => {
                    let mut order: Vec<usize> = (0..fr_keys.len()).collect();
                    rng.shuffle(&mut order);
                    (0..self.conns)
                        .map(|c| order.iter().map(|&k| fr_keys[(k + 3 * c) % 6]).collect())
                        .collect()
                }
                // Three PA queries at distinct offsets, thresholds
                // alternating by tick.
                Kind::IngestDurable => {
                    let mut keys: Vec<Key> = OFFSETS
                        .iter()
                        .enumerate()
                        .map(|(i, &q_t)| Key {
                            engine: "pa",
                            count: COUNTS[(r + i + phase) % COUNTS.len()],
                            q_t,
                        })
                        .collect();
                    rng.shuffle(&mut keys);
                    vec![keys]
                }
                // Two FR queries whose keys differ within the tick,
                // cycling through every key.
                Kind::AdaptiveSubs => {
                    let k = 2 * (r + phase);
                    let mut keys = vec![fr_keys[k % 6], fr_keys[(k + 1) % 6]];
                    rng.shuffle(&mut keys);
                    vec![keys]
                }
            })
            .collect();
        Plan { rounds }
    }
}
