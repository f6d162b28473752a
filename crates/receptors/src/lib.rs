//! # esp-receptors
//!
//! Receptor and world simulators for the ESP reproduction. The paper
//! validated ESP on three physical deployments we cannot re-run: a retail
//! RFID shelf (Alien ALR-9780 readers + I2 tags), wireless sensor networks
//! (Intel Research Berkeley lab + Sonoma redwood), and a digital-home
//! office (RFID + sound motes + X10 motion detectors). This crate replaces
//! each with a calibrated synthetic equivalent that exercises the same
//! cleaning code paths and reproduces the same *statistical* dirt:
//!
//! * [`rfid`] — the §4 shelf scenario: distance-dependent tag detection,
//!   inter-antenna discrepancy (the shelf-0 overcount Arbitrate corrects),
//!   and periodically relocated items.
//! * [`mote`] — wireless sensor motes with additive noise, *fail-dirty*
//!   drift (§5.1: a failed mote reporting temperatures rising past 100 °C),
//!   and a lossy multi-hop uplink.
//! * [`redwood`] — the §5.2 redwood micro-climate field: 33 motes on a
//!   trunk, bursty loss tuned to the paper's 40% raw epoch yield.
//! * [`lab`] — the §5.1 Intel-lab room: three motes, one failing dirty
//!   (Figure 7).
//! * [`x10`] — X10 motion detectors with missed and spurious reports (§6).
//! * [`office`] — the §6 digital-home office combining all three receptor
//!   types over a square-wave occupancy ground truth (Figure 9).
//! * [`wire`] / [`channel`] — the simulated transport: readings are framed
//!   to bytes with a checksum and pushed through loss/corruption channels
//!   (Gilbert–Elliott bursts), so "dropped message" and "failed checksum"
//!   are real code paths, not flags.
//! * [`framing`] — length-delimited frame streaming over any
//!   `Read`/`Write` pair, the transport layer used by the `esp-gateway`
//!   TCP ingestion server and its clients.
//!
//! Every simulator is seeded ([`rand::rngs::StdRng`]) and therefore fully
//! deterministic; experiments and tests can assert on exact outcomes.
//! Ground truth is exposed alongside each dirty stream so experiments can
//! score cleaning quality.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod channel;
pub mod framing;
pub mod lab;
pub mod mote;
pub mod office;
pub mod redwood;
pub mod rfid;
pub mod wire;
pub mod x10;

use esp_types::ReceptorId;

/// A proximity-group specification emitted by scenario builders.
///
/// `esp-receptors` sits below `esp-core` in the crate DAG, so scenarios
/// describe their grouping as data; callers register it with
/// [`ProximityGroups`](https://docs.rs/esp-core).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupSpec {
    /// The spatial granule name ("shelf0", "room", "height-3", …).
    pub granule: String,
    /// The member devices.
    pub members: Vec<ReceptorId>,
}
