//! The three workloads: their seeded inputs and their cleaning pipelines.
//!
//! Why each exists and what it bypasses is written down in the
//! benchmark's README.

use std::sync::Arc;
use std::time::Duration;

use esp_core::{
    ArbitrateStage, DeclarativeStage, MergeStage, Pipeline, SmoothStage, StageCtx, TemporalGranule,
    TieBreak,
};
use esp_gateway::GatewayGroup;
use esp_query::Engine;
use esp_receptors::channel::{BernoulliChannel, Channel, Delivery};
use esp_receptors::office::OfficeScenario;
use esp_receptors::redwood::{RedwoodConfig, RedwoodScenario};
use esp_receptors::rfid::{ShelfConfig, ShelfScenario};
use esp_receptors::wire::{self, Reading};
use esp_stream::Source;
use esp_types::{Batch, ReceptorId, ReceptorType, SpatialGranule, TimeDelta, Ts, Value};

/// Connections (and so gateway reader threads) the load generator opens.
/// One sender thread drives all of them; with the observer thread that
/// makes two load-side threads, the core count of the reference machine.
pub const CONNECTIONS: usize = 2;

/// Shelves and tags of the scaled shelf deployment (the paper has 2×10).
pub const SHELVES: usize = 8;
/// Static tags per shelf.
pub const TAGS_PER_SHELF: usize = 40;
/// Epochs the shelf sender keeps in flight: enough that the gateway
/// always has the next epochs queued, so the loop still saturates it.
pub const SHELF_IN_FLIGHT: u64 = 12;
/// Motes of the redwood fleet, in 2-mote proximity groups.
pub const MOTES: usize = 400;

/// One frame on the wire, as the generator will send it.
#[derive(Debug, Clone)]
pub struct Frame {
    /// The encoded frame, corrupted in flight when `reading` is `None`.
    pub bytes: Vec<u8>,
    /// The reading the frame carries, `None` for a corrupted frame.
    pub reading: Option<Reading>,
    /// Timestamp of the reading (also for corrupted frames).
    pub ts: Ts,
    /// When the frame is due, as an offset from the start of sending.
    /// Zero for a saturating workload: everything is due at once.
    pub due: Duration,
}

/// A gateway workload's inputs: deployment, pipeline shape, and the
/// frames each connection sends, in send order.
pub struct GatewayInput {
    /// Proximity groups, the gateway's routing table.
    pub groups: Vec<GatewayGroup>,
    /// Receptor type of every receptor (for the single-process replay).
    pub receptor_type: ReceptorType,
    /// Shards of the gateway.
    pub n_shards: usize,
    /// Epoch period.
    pub period: TimeDelta,
    /// Frames per connection, in send order.
    pub conns: Vec<Vec<Frame>>,
    /// Readings the receptors produced before the channel.
    pub produced: u64,
    /// Readings the channel lost before they reached a socket.
    pub channel_lost: u64,
    /// Whether the run paces frames by their due time.
    pub paced: bool,
    /// For a closed loop: epochs the sender may have written beyond the
    /// last one the gateway emitted. It waits for emission before writing
    /// further, so latency is measured on a bounded backlog instead of on
    /// the kernel's socket buffers.
    pub in_flight: Option<u64>,
    /// Whether the gateway runs with a WAL and checkpoints.
    pub durable: bool,
}

impl GatewayInput {
    /// Every frame, connection by connection.
    pub fn frames(&self) -> impl Iterator<Item = &Frame> {
        self.conns.iter().flatten()
    }

    /// Frames that arrive intact.
    pub fn intact(&self) -> u64 {
        self.frames().filter(|f| f.reading.is_some()).count() as u64
    }

    /// Frames corrupted in flight.
    pub fn corrupted(&self) -> u64 {
        self.frames().filter(|f| f.reading.is_none()).count() as u64
    }

    /// The largest reading timestamp.
    pub fn max_ts(&self) -> Ts {
        self.frames().map(|f| f.ts).max().unwrap_or(Ts::ZERO)
    }

    /// Epochs the gateway flushes: from zero through the first boundary
    /// at or after the largest timestamp.
    pub fn n_epochs(&self) -> u64 {
        self.max_ts().as_millis().div_ceil(self.period.as_millis()) + 1
    }

    /// The epoch a timestamp belongs to (the first boundary at or after it).
    pub fn epoch_of(&self, ts: Ts) -> u64 {
        ts.as_millis().div_ceil(self.period.as_millis())
    }
}

fn groups_of(specs: Vec<esp_receptors::GroupSpec>, rtype: ReceptorType) -> Vec<GatewayGroup> {
    specs
        .into_iter()
        .map(|g| GatewayGroup {
            receptor_type: rtype,
            granule: g.granule,
            members: g.members,
        })
        .collect()
}

/// Poll every source through `n_epochs` epochs and hand each produced
/// tuple to `emit` in (epoch, source) order.
fn poll_all(
    sources: &mut [(ReceptorId, Box<dyn Source>)],
    period: TimeDelta,
    n_epochs: u64,
    mut emit: impl FnMut(u64, usize, &esp_types::Tuple),
) {
    for e in 0..n_epochs {
        let epoch = Ts::from_millis(e * period.as_millis());
        for (i, (_, src)) in sources.iter_mut().enumerate() {
            let batch: Batch = src.poll(epoch).expect("scenario sources do not fail");
            for t in &batch {
                emit(e, i, t);
            }
        }
    }
}

/// The scaled shelf deployment: `SHELVES` readers, one per shelf, each
/// with `TAGS_PER_SHELF` static tags; reader 0 keeps the paper's stronger
/// antenna. Frames are all due at once: the sender saturates, bounded
/// only by [`SHELF_IN_FLIGHT`] epochs awaiting emission.
pub fn shelf_input(seed: u64, n_epochs: u64) -> GatewayInput {
    let config = ShelfConfig {
        n_shelves: SHELVES,
        static_tags_per_shelf: TAGS_PER_SHELF,
        overhear_static: (0..SHELVES)
            .map(|r| if r == 0 { 0.025 } else { 0.002 })
            .collect(),
        overhear_mobile: (0..SHELVES)
            .map(|r| if r == 0 { 0.02 } else { 0.004 })
            .collect(),
        ..ShelfConfig::default()
    };
    let period = config.sample_period;
    let scenario = ShelfScenario::new(config, seed);
    let mut sources = scenario.sources();
    let mut conns: Vec<Vec<Frame>> = vec![Vec::new(); CONNECTIONS];
    let mut produced = 0u64;
    poll_all(&mut sources, period, n_epochs, |_, i, t| {
        let reading = Reading::Tag {
            receptor: ReceptorId(i as u32),
            ts: t.ts(),
            tag_id: t
                .get("tag_id")
                .and_then(Value::as_str)
                .expect("rfid sightings carry a tag id")
                .to_string(),
        };
        produced += 1;
        conns[i % CONNECTIONS].push(Frame {
            bytes: wire::encode(&reading).to_vec(),
            ts: reading.ts(),
            reading: Some(reading),
            due: Duration::ZERO,
        });
    });
    GatewayInput {
        groups: groups_of(scenario.groups(), ReceptorType::Rfid),
        receptor_type: ReceptorType::Rfid,
        n_shards: 1,
        period,
        conns,
        produced,
        channel_lost: 0,
        paced: false,
        in_flight: Some(SHELF_IN_FLIGHT),
        durable: false,
    }
}

/// The paper's shelf pipeline: Smooth as the compiled CQL Query 2, then
/// the built-in Arbitrate (global, so the gateway runs one shard).
pub fn shelf_pipeline() -> Pipeline {
    let engine = Engine::new();
    let priority: Vec<Arc<str>> = (0..SHELVES)
        .rev()
        .map(|s| Arc::from(ShelfScenario::granule_name(s)))
        .collect();
    Pipeline::builder()
        .per_receptor("smooth", move |_ctx| {
            let q = engine.compile(
                "SELECT spatial_granule, tag_id, count(*) \
                 FROM smooth_input [Range By '5 sec'] \
                 GROUP BY spatial_granule, tag_id",
            )?;
            Ok(Box::new(DeclarativeStage::new("smooth(Q2)", q)?))
        })
        .global("arbitrate", move |_ctx| {
            Ok(Box::new(ArbitrateStage::new(
                "arbitrate",
                TieBreak::Priority(priority.clone()),
            )))
        })
        .build()
}

/// The redwood epoch (the paper's 5-minute sample period).
pub fn redwood_period() -> TimeDelta {
    TimeDelta::from_mins(5)
}

/// The redwood fleet: `MOTES` motes in 2-mote groups, each reading
/// carrying the scenario's Gilbert–Elliott loss, and 1% of the surviving
/// frames bit-flipped in flight. Event time runs at a fixed multiple of
/// wall time: epoch `e` is sent during wall interval
/// `[e·epoch_wall, (e+1)·epoch_wall)`, its frames spread evenly over it.
pub fn redwood_input(seed: u64, n_epochs: u64, epoch_wall: Duration) -> GatewayInput {
    let config = RedwoodConfig {
        n_motes: MOTES,
        ..RedwoodConfig::default()
    };
    let period = redwood_period();
    let scenario = RedwoodScenario::new(config, seed);
    let mut sources = scenario.sources();
    let mut bits = BernoulliChannel::new(seed ^ 0xB17F_11B5, 0.0, 0.01);
    let mut conns: Vec<Vec<Frame>> = vec![Vec::new(); CONNECTIONS];
    let mut delivered = 0u64;
    poll_all(&mut sources, period, n_epochs, |e, i, t| {
        let reading = Reading::Scalar {
            receptor: ReceptorId(i as u32),
            ts: t.ts(),
            value: t
                .get("temp")
                .and_then(Value::as_f64)
                .expect("redwood motes report a temperature"),
        };
        delivered += 1;
        let due = epoch_wall.mul_f64(e as f64 + i as f64 / MOTES as f64);
        let mut bytes = wire::encode(&reading).to_vec();
        let reading = match bits.transmit() {
            Delivery::Corrupted => {
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0xff;
                None
            }
            _ => Some(reading),
        };
        conns[i % CONNECTIONS].push(Frame {
            bytes,
            reading,
            ts: t.ts(),
            due,
        });
    });
    // Every mote samples once per epoch; the scenario's uplink loses the
    // rest before they are framed.
    let produced = MOTES as u64 * n_epochs;
    GatewayInput {
        groups: groups_of(scenario.groups(), ReceptorType::Mote),
        receptor_type: ReceptorType::Mote,
        n_shards: 2,
        period,
        conns,
        produced,
        channel_lost: produced - delivered,
        paced: true,
        in_flight: None,
        durable: true,
    }
}

/// The redwood cascade of `esp-bench`'s §5.2 runs: Smooth
/// (`windowed_mean` over a 30-minute window) then Merge
/// (`outlier_filtered_mean` per granule).
pub fn redwood_pipeline() -> Pipeline {
    let period = redwood_period();
    let granule =
        TemporalGranule::with_window(period, TimeDelta::from_mins(30)).expect("window >= granule");
    Pipeline::builder()
        .per_receptor("smooth", move |_ctx| {
            Ok(Box::new(SmoothStage::windowed_mean(
                "smooth",
                granule,
                ["spatial_granule", "receptor_id"],
                "temp",
            )))
        })
        .per_group("merge", move |ctx: &StageCtx| {
            let g = ctx
                .granule
                .clone()
                .unwrap_or_else(|| SpatialGranule::new("?"));
            Ok(Box::new(MergeStage::outlier_filtered_mean(
                "merge",
                g,
                TemporalGranule::new(period),
                "temp",
                1.0,
            )))
        })
        .build()
}

/// The home epoch (1 s, as the paper's person detector).
pub fn home_period() -> TimeDelta {
    TimeDelta::from_secs(1)
}

/// One receptor's pre-polled readings: a batch per epoch that had any.
pub type Script = Vec<(Ts, Batch)>;

/// The office scenario's readings, pre-polled: per receptor, one batch per
/// epoch that produced anything.
pub struct HomeInput {
    /// Groups of the office.
    pub groups: Vec<esp_receptors::GroupSpec>,
    /// (receptor, type, script) per receptor.
    pub scripts: Vec<(ReceptorId, ReceptorType, Script)>,
    /// Epochs covered.
    pub n_epochs: u64,
    /// Readings across all scripts.
    pub readings: u64,
}

/// Poll the office scenario for `n_epochs` one-second epochs.
pub fn home_input(seed: u64, n_epochs: u64) -> HomeInput {
    let scenario = OfficeScenario::paper(seed);
    let period = home_period();
    let mut scripts = Vec::new();
    let mut readings = 0u64;
    for (id, rtype, mut src) in scenario.sources() {
        let mut script = Vec::new();
        for e in 0..n_epochs {
            let epoch = Ts::from_millis(e * period.as_millis());
            let batch = src.poll(epoch).expect("scenario sources do not fail");
            if !batch.is_empty() {
                readings += batch.len() as u64;
                script.push((epoch, batch));
            }
        }
        scripts.push((id, rtype, script));
    }
    HomeInput {
        groups: scenario.groups(),
        scripts,
        n_epochs,
        readings,
    }
}
