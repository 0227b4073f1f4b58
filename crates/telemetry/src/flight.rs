//! Flight recorder: a compact binary capture of everything a run did.
//!
//! The live observability plane (metrics, `/events`, dashboards) shows a
//! run *while* it happens; nothing so far retains a complete, cheap,
//! replayable record of what the run actually did. This module is that
//! record: a `.gfr` ("gossip flight record") artifact — a schema-versioned
//! binary header (run fingerprint: graph/schedule/fault digests, origins,
//! engine label) followed by varint-encoded records for every
//! transmission, suppressed delivery, round boundary, and repair epoch.
//!
//! Three pieces:
//!
//! - [`FlightRecorder`] implements [`Recorder`] and encodes as events
//!   arrive. It opts into transmission capture via
//!   [`Recorder::wants_transmissions`], so executors that normally skip
//!   per-delivery detail emit it only when a flight recorder is listening,
//!   and it encodes a whole round of multicasts per
//!   [`Recorder::transmissions`] call. Its arena is laid out as the file
//!   from [`FlightRecorder::new`] on — the header first, then the records
//!   — so [`FlightRecorder::finish`] appends `End` and hands the arena
//!   over instead of copying it. It keeps every record; the trailing
//!   `End` record's eviction count (from the format's retired ring-buffer
//!   writer) is always 0 in its captures.
//! - [`FlightLog`] decodes a `.gfr` byte stream losslessly — re-encoding a
//!   decoded log reproduces the input byte for byte (golden-tested), which
//!   is what makes the format safe to archive.
//! - [`Tee`] fans one event stream out to two recorders, so a flight
//!   recorder can ride along with a metrics registry or live registry
//!   without touching any executor signature.
//!
//! Record encoding is LEB128 varints behind one tag byte per record;
//! transmissions and losses carry their round explicitly, so decoding does
//! not depend on emission order (the threaded online executor interleaves
//! sends from many threads). Post-mortem analysis — time-travel hold-set
//! reconstruction, cross-run diffing, anomaly flagging — lives in
//! `gossip-obsd`, on top of [`FlightLog`].

use crate::{Recorder, TxBatch, Value};
use std::sync::Mutex;

/// Leading magic of every `.gfr` artifact.
pub const FLIGHT_MAGIC: [u8; 4] = *b"GFR1";

/// Version of the `.gfr` record layout (independent of the JSON
/// [`crate::SCHEMA_VERSION`]; bumped when the binary format changes).
pub const FLIGHT_SCHEMA_VERSION: u64 = 1;

const TAG_TX: u8 = 1;
const TAG_LOSS: u8 = 2;
const TAG_ROUND_END: u8 = 3;
const TAG_EPOCH_START: u8 = 4;
const TAG_EPOCH_END: u8 = 5;
const TAG_END: u8 = 6;
const TAG_CHURN: u8 = 7;
const TAG_ALERT: u8 = 8;

/// Loss-cause codes stored in [`FlightRecord::Loss`]; stable across
/// builds because they are part of the on-disk format (append-only).
pub const CAUSE_LABELS: [&str; 6] = [
    "sampled",
    "link_down",
    "sender_crashed",
    "receiver_crashed",
    "not_held",
    "churn_invalidated",
];

/// The code for a loss-cause label (255 for labels this build does not
/// know, so future causes degrade to "unknown" instead of erroring).
pub fn cause_code(label: &str) -> u8 {
    CAUSE_LABELS
        .iter()
        .position(|&l| l == label)
        .map(|i| i as u8)
        .unwrap_or(255)
}

/// The label for a loss-cause code (the inverse of [`cause_code`]).
pub fn cause_label(code: u8) -> &'static str {
    CAUSE_LABELS
        .get(code as usize)
        .copied()
        .unwrap_or("unknown")
}

/// Topology-change op codes stored in [`FlightRecord::Churn`]; stable
/// across builds because they are part of the on-disk format
/// (append-only). Mirrors `gossip_model::ChurnOp::label` without a
/// dependency on the model crate.
pub const CHURN_OP_LABELS: [&str; 5] = [
    "edge_add",
    "edge_remove",
    "node_leave",
    "node_join",
    "link_flap",
];

/// The code for a churn-op label (255 for labels this build does not
/// know, so future ops degrade to "unknown" instead of erroring).
pub fn churn_op_code(label: &str) -> u8 {
    CHURN_OP_LABELS
        .iter()
        .position(|&l| l == label)
        .map(|i| i as u8)
        .unwrap_or(255)
}

/// The label for a churn-op code (the inverse of [`churn_op_code`]).
pub fn churn_op_label(code: u8) -> &'static str {
    CHURN_OP_LABELS
        .get(code as usize)
        .copied()
        .unwrap_or("unknown")
}

/// Watchdog rule codes stored in [`FlightRecord::Alert`]; stable across
/// builds because they are part of the on-disk format (append-only).
/// Mirrors `gossip_telemetry::watch`'s rule names without coupling the
/// binary format to the rule structs.
pub const ALERT_RULE_LABELS: [&str; 6] = [
    "stall",
    "flatline",
    "bound",
    "loss_spike",
    "epoch_budget",
    "churn_storm",
];

/// The code for an alert-rule label (255 for labels this build does not
/// know, so future rules degrade to "unknown" instead of erroring).
pub fn alert_rule_code(label: &str) -> u8 {
    ALERT_RULE_LABELS
        .iter()
        .position(|&l| l == label)
        .map(|i| i as u8)
        .unwrap_or(255)
}

/// The label for an alert-rule code (the inverse of [`alert_rule_code`]).
pub fn alert_rule_label(code: u8) -> &'static str {
    ALERT_RULE_LABELS
        .get(code as usize)
        .copied()
        .unwrap_or("unknown")
}

/// Alert severity codes stored in [`FlightRecord::Alert`]; stable across
/// builds because they are part of the on-disk format (append-only).
pub const ALERT_SEVERITY_LABELS: [&str; 3] = ["info", "warn", "critical"];

/// The code for a severity label (255 for labels this build does not
/// know).
pub fn alert_severity_code(label: &str) -> u8 {
    ALERT_SEVERITY_LABELS
        .iter()
        .position(|&l| l == label)
        .map(|i| i as u8)
        .unwrap_or(255)
}

/// The label for a severity code (the inverse of [`alert_severity_code`]).
pub fn alert_severity_label(code: u8) -> &'static str {
    ALERT_SEVERITY_LABELS
        .get(code as usize)
        .copied()
        .unwrap_or("unknown")
}

fn push_varint(out: &mut Vec<u8>, mut x: u64) {
    loop {
        let byte = (x & 0x7f) as u8;
        x >>= 7;
        if x == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Bytes of `x` as a LEB128 varint.
#[inline]
fn varint_len(x: u64) -> usize {
    (64 - (x | 1).leading_zeros() as usize).div_ceil(7)
}

/// Bytes of `x` as a LEB128 varint, by four compares instead of a bit
/// scan, so sums of it vectorize.
#[inline]
fn varint_len32(x: u32) -> u32 {
    1 + u32::from(x > 0x7f)
        + u32::from(x > 0x3fff)
        + u32::from(x > 0x1f_ffff)
        + u32::from(x > 0xfff_ffff)
}

/// Total varint bytes of `xs`, summed in `u32` (the narrow lanes
/// vectorize best) over chunks too short for a sum to overflow.
fn varint_bytes(xs: &[u32]) -> usize {
    xs.chunks(1 << 20)
        .map(|c| c.iter().map(|&x| varint_len32(x)).sum::<u32>() as usize)
        .sum()
}

/// Writes `x` as a LEB128 varint at `out[pos..]` and returns the end.
/// Indexing a slice with a local cursor keeps the cursor in a register,
/// where `Vec::push` of bytes must reload the vector's length after every
/// store.
#[inline]
fn put_varint(out: &mut [u8], mut pos: usize, mut x: u64) -> usize {
    while x >= 0x80 {
        out[pos] = x as u8 | 0x80;
        x >>= 7;
        pos += 1;
    }
    out[pos] = x as u8;
    pos + 1
}

/// Encoded bytes of the `TX` records of `batch` at `round`.
fn batch_len(round: u64, batch: &TxBatch<'_>) -> usize {
    batch.len() * (1 + varint_len(round))
        + varint_bytes(batch.msgs())
        + varint_bytes(batch.senders())
        + batch
            .fanouts()
            .map(|f| varint_len32(f) as usize)
            .sum::<usize>()
        + varint_bytes(batch.dests())
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn varint(&mut self) -> Result<u64, String> {
        let mut x = 0u64;
        let mut shift = 0u32;
        loop {
            let &byte = self
                .bytes
                .get(self.pos)
                .ok_or_else(|| format!("truncated varint at byte {}", self.pos))?;
            self.pos += 1;
            if shift >= 64 {
                return Err(format!("varint overflow at byte {}", self.pos));
            }
            x |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(x);
            }
            shift += 7;
        }
    }

    fn u32_varint(&mut self, what: &str) -> Result<u32, String> {
        let x = self.varint()?;
        u32::try_from(x).map_err(|_| format!("{what} {x} exceeds u32"))
    }

    /// The next `len` bytes. Lengths come from untrusted input, so the end
    /// offset is computed with checked arithmetic: a huge length is a
    /// truncation error, never an overflow.
    fn take(&mut self, len: u64, what: &str) -> Result<&'a [u8], String> {
        let bytes = self.bytes;
        let slice = usize::try_from(len)
            .ok()
            .and_then(|len| self.pos.checked_add(len))
            .and_then(|end| bytes.get(self.pos..end))
            .ok_or_else(|| format!("truncated {what} at byte {}", self.pos))?;
        self.pos += slice.len();
        Ok(slice)
    }

    fn u64_le(&mut self) -> Result<u64, String> {
        let slice = self.take(8, "u64")?;
        Ok(u64::from_le_bytes(slice.try_into().expect("8 bytes")))
    }

    fn byte(&mut self) -> Option<u8> {
        let b = self.bytes.get(self.pos).copied();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }
}

/// A streaming FNV-1a 64 hasher for run fingerprints: graph, schedule, and
/// fault-plan digests stamped into the flight header so `gossip diff` can
/// tell whether two captures even describe the same run inputs.
/// Deterministic, dependency-free, and stable across builds (the digests
/// are part of the on-disk format).
#[derive(Debug, Clone)]
pub struct Digest(u64);

const FNV_PRIME: u64 = 0x100_0000_01b3;

/// `FNV_PRIME^k` for `k` in `0..=8`. Absorbing a zero byte is a bare
/// multiply by the prime (xor with 0 is the identity), so a byte followed
/// by `k` zero bytes is one xor and one multiply by `FNV_PRIME_POW[k + 1]`.
const FNV_PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < pow.len() {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

impl Default for Digest {
    fn default() -> Self {
        Digest::new()
    }
}

impl Digest {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Absorbs raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs one `u64` (little-endian byte order). The word's high zero
    /// bytes fold into the multiply of its last significant byte, so the
    /// value equals byte-at-a-time FNV-1a over `x.to_le_bytes()` at a
    /// fraction of the cost for the small ids and offsets that make up
    /// schedules.
    pub fn write_u64(&mut self, x: u64) {
        // Significant bytes, counting a zero word as one zero byte.
        let len = (8 - x.leading_zeros() as usize / 8).max(1);
        let bytes = x.to_le_bytes();
        let mut h = self.0;
        for &b in &bytes[..len - 1] {
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        self.0 = (h ^ u64::from(bytes[len - 1])).wrapping_mul(FNV_PRIME_POW[9 - len]);
    }

    /// The digest of everything absorbed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The run fingerprint written at the front of every `.gfr` artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightHeader {
    /// Processor count.
    pub n: u32,
    /// Message count (usually `n`).
    pub n_msgs: u32,
    /// Graph radius `r`, so post-mortem analysis can check the paper's
    /// `n + r` bound without the graph at hand.
    pub radius: u32,
    /// Which engine produced the capture (`oracle`, `kernel`, `lossy`,
    /// `resilient`, `online`, ...). Free-form; informational only.
    pub engine: String,
    /// Digest of the network the run executed on.
    pub graph_digest: u64,
    /// Digest of the schedule the run replayed.
    pub schedule_digest: u64,
    /// Digest of the fault plan, or 0 for a clean run.
    pub fault_digest: u64,
    /// `origins[m]` is the processor where message `m` originated — the
    /// initial hold sets, from which replay reconstructs every later one.
    pub origins: Vec<u32>,
}

impl FlightHeader {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&FLIGHT_MAGIC);
        push_varint(out, FLIGHT_SCHEMA_VERSION);
        push_varint(out, u64::from(self.n));
        push_varint(out, u64::from(self.n_msgs));
        push_varint(out, u64::from(self.radius));
        push_varint(out, self.engine.len() as u64);
        out.extend_from_slice(self.engine.as_bytes());
        out.extend_from_slice(&self.graph_digest.to_le_bytes());
        out.extend_from_slice(&self.schedule_digest.to_le_bytes());
        out.extend_from_slice(&self.fault_digest.to_le_bytes());
        push_varint(out, self.origins.len() as u64);
        for &o in &self.origins {
            push_varint(out, u64::from(o));
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<FlightHeader, String> {
        let magic = r
            .bytes
            .get(..4)
            .ok_or_else(|| "not a flight record: shorter than the magic".to_string())?;
        if magic != FLIGHT_MAGIC {
            return Err("not a flight record: bad magic (expected GFR1)".to_string());
        }
        r.pos = 4;
        let schema = r.varint()?;
        if schema != FLIGHT_SCHEMA_VERSION {
            return Err(format!(
                "unsupported flight schema {schema}: this build reads version \
                 {FLIGHT_SCHEMA_VERSION}; regenerate the capture with this build"
            ));
        }
        let n = r.u32_varint("n")?;
        let n_msgs = r.u32_varint("n_msgs")?;
        let radius = r.u32_varint("radius")?;
        let engine_len = r.varint()?;
        let engine_bytes = r.take(engine_len, "engine label")?;
        let engine = std::str::from_utf8(engine_bytes)
            .map_err(|_| "engine label is not UTF-8".to_string())?
            .to_string();
        let graph_digest = r.u64_le()?;
        let schedule_digest = r.u64_le()?;
        let fault_digest = r.u64_le()?;
        let n_origins = r.varint()? as usize;
        let mut origins = Vec::with_capacity(n_origins.min(1 << 20));
        for _ in 0..n_origins {
            origins.push(r.u32_varint("origin")?);
        }
        Ok(FlightHeader {
            n,
            n_msgs,
            radius,
            engine,
            graph_digest,
            schedule_digest,
            fault_digest,
            origins,
        })
    }
}

/// One decoded flight record, in capture order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlightRecord {
    /// One attempted multicast: message `msg` from `from` to `dests` at
    /// `round`. Under faults the attempt is recorded even when every
    /// delivery was suppressed (the matching [`FlightRecord::Loss`]
    /// records say which ones), so a lossy capture still shows what the
    /// schedule *tried*.
    Tx {
        /// Absolute round of the attempt.
        round: u32,
        /// Message id.
        msg: u32,
        /// Sending processor.
        from: u32,
        /// Destination processors.
        dests: Vec<u32>,
    },
    /// One suppressed delivery and its cause code (see [`cause_label`]).
    Loss {
        /// Absolute round of the suppression.
        round: u32,
        /// Message id.
        msg: u32,
        /// Sending processor.
        from: u32,
        /// The destination that did not receive.
        to: u32,
        /// Cause code (see [`cause_code`] / [`cause_label`]).
        cause: u8,
    },
    /// A completed round and the known-pair count after it — the
    /// knowledge curve, and an integrity check for replay.
    RoundEnd {
        /// Absolute round that completed.
        round: u32,
        /// (processor, message) pairs known after the round.
        known_pairs: u64,
    },
    /// A repair epoch began (`ResilientExecutor` only).
    EpochStart {
        /// Epoch index (0 = the base schedule).
        epoch: u32,
        /// Absolute round the epoch starts at.
        start_round: u32,
    },
    /// A repair epoch finished.
    EpochEnd {
        /// Epoch index.
        epoch: u32,
    },
    /// One applied topology change (`ChurnExecutor` only).
    Churn {
        /// Absolute round the change fired at.
        round: u32,
        /// Op code (see [`churn_op_code`] / [`churn_op_label`]).
        op: u8,
        /// First endpoint (the departing/joining node for node events).
        u: u32,
        /// Second endpoint (equal to `u` for node events).
        v: u32,
    },
    /// A watchdog rule fired (`gossip_telemetry::watch::AlertEngine`):
    /// the alert timeline against the round axis. The observed value and
    /// threshold are stored as `f64` bit patterns so re-encoding is exact.
    Alert {
        /// The last completed round when the rule fired.
        round: u32,
        /// Rule code (see [`alert_rule_code`] / [`alert_rule_label`]).
        rule: u8,
        /// Severity code (see [`alert_severity_code`]).
        severity: u8,
        /// `f64::to_bits` of the observed value.
        value_bits: u64,
        /// `f64::to_bits` of the configured threshold.
        threshold_bits: u64,
    },
}

fn encode_record(out: &mut Vec<u8>, rec: &FlightRecord) {
    match rec {
        FlightRecord::Tx {
            round,
            msg,
            from,
            dests,
        } => {
            out.push(TAG_TX);
            push_varint(out, u64::from(*round));
            push_varint(out, u64::from(*msg));
            push_varint(out, u64::from(*from));
            push_varint(out, dests.len() as u64);
            for &d in dests {
                push_varint(out, u64::from(d));
            }
        }
        FlightRecord::Loss {
            round,
            msg,
            from,
            to,
            cause,
        } => {
            out.push(TAG_LOSS);
            push_varint(out, u64::from(*round));
            push_varint(out, u64::from(*msg));
            push_varint(out, u64::from(*from));
            push_varint(out, u64::from(*to));
            push_varint(out, u64::from(*cause));
        }
        FlightRecord::RoundEnd { round, known_pairs } => {
            out.push(TAG_ROUND_END);
            push_varint(out, u64::from(*round));
            push_varint(out, *known_pairs);
        }
        FlightRecord::EpochStart { epoch, start_round } => {
            out.push(TAG_EPOCH_START);
            push_varint(out, u64::from(*epoch));
            push_varint(out, u64::from(*start_round));
        }
        FlightRecord::EpochEnd { epoch } => {
            out.push(TAG_EPOCH_END);
            push_varint(out, u64::from(*epoch));
        }
        FlightRecord::Churn { round, op, u, v } => {
            out.push(TAG_CHURN);
            push_varint(out, u64::from(*round));
            push_varint(out, u64::from(*op));
            push_varint(out, u64::from(*u));
            push_varint(out, u64::from(*v));
        }
        FlightRecord::Alert {
            round,
            rule,
            severity,
            value_bits,
            threshold_bits,
        } => {
            out.push(TAG_ALERT);
            push_varint(out, u64::from(*round));
            push_varint(out, u64::from(*rule));
            push_varint(out, u64::from(*severity));
            // Fixed-width: arbitrary f64 bit patterns varint badly.
            out.extend_from_slice(&value_bits.to_le_bytes());
            out.extend_from_slice(&threshold_bits.to_le_bytes());
        }
    }
}

/// A borrowed view of one transmission record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightTx<'a> {
    /// Absolute round.
    pub round: u32,
    /// Message id.
    pub msg: u32,
    /// Sender.
    pub from: u32,
    /// Destinations.
    pub dests: &'a [u32],
}

/// One applied topology change, as a plain value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightChurn {
    /// Absolute round.
    pub round: u32,
    /// Op code (see [`churn_op_label`]).
    pub op: u8,
    /// First endpoint.
    pub u: u32,
    /// Second endpoint (equal to `u` for node events).
    pub v: u32,
}

/// One fired watchdog alert, as a plain value (bit patterns decoded back
/// to `f64`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlightAlert {
    /// The last completed round when the rule fired.
    pub round: u32,
    /// Rule code (see [`alert_rule_label`]).
    pub rule: u8,
    /// Severity code (see [`alert_severity_label`]).
    pub severity: u8,
    /// The observed value that tripped the rule.
    pub value: f64,
    /// The configured threshold it tripped against.
    pub threshold: f64,
}

/// One suppressed delivery, as a plain value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightLoss {
    /// Absolute round.
    pub round: u32,
    /// Message id.
    pub msg: u32,
    /// Sender.
    pub from: u32,
    /// The destination that did not receive.
    pub to: u32,
    /// Cause code (see [`cause_label`]).
    pub cause: u8,
}

/// A fully decoded `.gfr` capture. Records keep their capture order, so
/// [`FlightLog::encode`] reproduces the original bytes exactly; accessors
/// normalize ordering where analysis needs it (the threaded online
/// executor emits transmissions in scheduling-race order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightLog {
    /// The run fingerprint.
    pub header: FlightHeader,
    /// Every record, in capture order.
    pub records: Vec<FlightRecord>,
    /// Records the writer evicted before the capture ended, as the `End`
    /// record counts them (0 = the capture is complete; a
    /// [`FlightRecorder`] always writes 0).
    pub dropped: u64,
}

impl FlightLog {
    /// Whether `bytes` look like a `.gfr` artifact (magic check only).
    pub fn sniff(bytes: &[u8]) -> bool {
        bytes.get(..4) == Some(&FLIGHT_MAGIC)
    }

    /// Decodes a capture, validating the magic, schema version, and every
    /// record tag. Lossless: `decode(bytes).encode() == bytes`.
    pub fn decode(bytes: &[u8]) -> Result<FlightLog, String> {
        let mut r = Reader { bytes, pos: 0 };
        let header = FlightHeader::decode(&mut r)?;
        let mut records = Vec::new();
        let mut dropped = None;
        while let Some(tag) = r.byte() {
            match tag {
                TAG_TX => {
                    let round = r.u32_varint("round")?;
                    let msg = r.u32_varint("msg")?;
                    let from = r.u32_varint("from")?;
                    let ndests = r.varint()? as usize;
                    let mut dests = Vec::with_capacity(ndests.min(1 << 20));
                    for _ in 0..ndests {
                        dests.push(r.u32_varint("dest")?);
                    }
                    records.push(FlightRecord::Tx {
                        round,
                        msg,
                        from,
                        dests,
                    });
                }
                TAG_LOSS => records.push(FlightRecord::Loss {
                    round: r.u32_varint("round")?,
                    msg: r.u32_varint("msg")?,
                    from: r.u32_varint("from")?,
                    to: r.u32_varint("to")?,
                    cause: r.varint()?.min(255) as u8,
                }),
                TAG_ROUND_END => records.push(FlightRecord::RoundEnd {
                    round: r.u32_varint("round")?,
                    known_pairs: r.varint()?,
                }),
                TAG_EPOCH_START => records.push(FlightRecord::EpochStart {
                    epoch: r.u32_varint("epoch")?,
                    start_round: r.u32_varint("start_round")?,
                }),
                TAG_EPOCH_END => records.push(FlightRecord::EpochEnd {
                    epoch: r.u32_varint("epoch")?,
                }),
                TAG_CHURN => records.push(FlightRecord::Churn {
                    round: r.u32_varint("round")?,
                    op: r.varint()?.min(255) as u8,
                    u: r.u32_varint("u")?,
                    v: r.u32_varint("v")?,
                }),
                TAG_ALERT => records.push(FlightRecord::Alert {
                    round: r.u32_varint("round")?,
                    rule: r.varint()?.min(255) as u8,
                    severity: r.varint()?.min(255) as u8,
                    value_bits: r.u64_le()?,
                    threshold_bits: r.u64_le()?,
                }),
                TAG_END => {
                    dropped = Some(r.varint()?);
                    break;
                }
                other => return Err(format!("unknown record tag {other} at byte {}", r.pos - 1)),
            }
        }
        let dropped = dropped.ok_or_else(|| "truncated capture: missing End record".to_string())?;
        if r.pos != bytes.len() {
            return Err(format!(
                "{} trailing byte(s) after the End record",
                bytes.len() - r.pos
            ));
        }
        Ok(FlightLog {
            header,
            records,
            dropped,
        })
    }

    /// Re-encodes the capture; byte-identical to what the recorder wrote.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.header.encode_into(&mut out);
        for rec in &self.records {
            encode_record(&mut out, rec);
        }
        out.push(TAG_END);
        push_varint(&mut out, self.dropped);
        out
    }

    /// Rounds covered by the capture (max record round + 1).
    pub fn rounds(&self) -> usize {
        self.records
            .iter()
            .map(|rec| match rec {
                FlightRecord::Tx { round, .. }
                | FlightRecord::Loss { round, .. }
                | FlightRecord::RoundEnd { round, .. } => *round as usize + 1,
                FlightRecord::EpochStart { start_round, .. } => *start_round as usize,
                FlightRecord::Churn { round, .. } | FlightRecord::Alert { round, .. } => {
                    *round as usize
                }
                FlightRecord::EpochEnd { .. } => 0,
            })
            .max()
            .unwrap_or(0)
    }

    /// Every transmission, normalized to `(round, from, msg)` order so
    /// captures of the same run from different engines (or the threaded
    /// online executor) compare equal.
    pub fn txs(&self) -> Vec<FlightTx<'_>> {
        let mut out: Vec<FlightTx<'_>> = self
            .records
            .iter()
            .filter_map(|rec| match rec {
                FlightRecord::Tx {
                    round,
                    msg,
                    from,
                    dests,
                } => Some(FlightTx {
                    round: *round,
                    msg: *msg,
                    from: *from,
                    dests,
                }),
                _ => None,
            })
            .collect();
        out.sort_by_key(|t| (t.round, t.from, t.msg));
        out
    }

    /// Every suppressed delivery, normalized to `(round, from, to)` order.
    pub fn losses(&self) -> Vec<FlightLoss> {
        let mut out: Vec<FlightLoss> = self
            .records
            .iter()
            .filter_map(|rec| match rec {
                FlightRecord::Loss {
                    round,
                    msg,
                    from,
                    to,
                    cause,
                } => Some(FlightLoss {
                    round: *round,
                    msg: *msg,
                    from: *from,
                    to: *to,
                    cause: *cause,
                }),
                _ => None,
            })
            .collect();
        out.sort_by_key(|l| (l.round, l.from, l.to));
        out
    }

    /// The `(round, known_pairs)` knowledge curve, in capture order.
    pub fn known_pairs_curve(&self) -> Vec<(u32, u64)> {
        self.records
            .iter()
            .filter_map(|rec| match rec {
                FlightRecord::RoundEnd { round, known_pairs } => Some((*round, *known_pairs)),
                _ => None,
            })
            .collect()
    }

    /// `(epoch, start_round)` of every recorded repair epoch.
    pub fn epochs(&self) -> Vec<(u32, u32)> {
        self.records
            .iter()
            .filter_map(|rec| match rec {
                FlightRecord::EpochStart { epoch, start_round } => Some((*epoch, *start_round)),
                _ => None,
            })
            .collect()
    }

    /// Every fired watchdog alert, in capture (= firing) order.
    pub fn alerts(&self) -> Vec<FlightAlert> {
        self.records
            .iter()
            .filter_map(|rec| match rec {
                FlightRecord::Alert {
                    round,
                    rule,
                    severity,
                    value_bits,
                    threshold_bits,
                } => Some(FlightAlert {
                    round: *round,
                    rule: *rule,
                    severity: *severity,
                    value: f64::from_bits(*value_bits),
                    threshold: f64::from_bits(*threshold_bits),
                }),
                _ => None,
            })
            .collect()
    }

    /// Every applied topology change, normalized to `(round, u, v)` order.
    pub fn churn_events(&self) -> Vec<FlightChurn> {
        let mut out: Vec<FlightChurn> = self
            .records
            .iter()
            .filter_map(|rec| match rec {
                FlightRecord::Churn { round, op, u, v } => Some(FlightChurn {
                    round: *round,
                    op: *op,
                    u: *u,
                    v: *v,
                }),
                _ => None,
            })
            .collect();
        out.sort_by_key(|c| (c.round, c.u, c.v));
        out
    }
}

/// The capture laid out as the file: the encoded header, then the
/// encoded records, oldest first, in one arena — recording is on the
/// executor's hot path, so a capture must not allocate per record, and
/// [`FlightRecorder::finish`] only has to append `End`.
struct FlightBuf {
    data: Vec<u8>,
    /// Record count.
    count: usize,
}

impl FlightBuf {
    fn push(&mut self, rec: &FlightRecord) {
        encode_record(&mut self.data, rec);
        self.count += 1;
    }

    /// Appends one `TX` record per multicast of `batch`, encoded straight
    /// into `bytes` (the batch's exact encoded length) of new arena space.
    fn push_batch(&mut self, round: u64, batch: &TxBatch<'_>, bytes: usize) {
        let start = self.data.len();
        self.data.resize(start + bytes, 0);
        let out = &mut self.data[start..];
        let mut pos = 0;
        let mut rest = batch.dests();
        let txs = batch
            .msgs()
            .iter()
            .zip(batch.senders())
            .zip(batch.fanouts());
        for ((&msg, &from), fanout) in txs {
            out[pos] = TAG_TX;
            pos = put_varint(out, pos + 1, round);
            pos = put_varint(out, pos, u64::from(msg));
            pos = put_varint(out, pos, u64::from(from));
            pos = put_varint(out, pos, u64::from(fanout));
            let (dests, tail) = rest.split_at(fanout as usize);
            rest = tail;
            for &d in dests {
                pos = put_varint(out, pos, u64::from(d));
            }
        }
        debug_assert_eq!(pos, bytes, "batch_len disagrees with the encoder");
        self.count += batch.len();
    }
}

/// A [`Recorder`] that encodes the run into a `.gfr` capture as events
/// arrive. Metrics calls (counters, gauges, histograms, spans) are
/// dropped — the flight record is the event/transmission stream only; tee
/// it with a metrics recorder (see [`Tee`]) when both are wanted.
pub struct FlightRecorder {
    header: FlightHeader,
    buf: Mutex<FlightBuf>,
}

impl FlightRecorder {
    /// A recorder that keeps every record; its arena starts with the
    /// encoded header.
    pub fn new(header: FlightHeader) -> FlightRecorder {
        let mut data = Vec::new();
        header.encode_into(&mut data);
        FlightRecorder {
            header,
            buf: Mutex::new(FlightBuf { data, count: 0 }),
        }
    }

    fn buf(&self) -> std::sync::MutexGuard<'_, FlightBuf> {
        self.buf.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Records captured so far, across every [`FlightRecorder::finish`].
    pub fn len(&self) -> usize {
        self.buf().count
    }

    /// Whether nothing has been captured yet.
    pub fn is_empty(&self) -> bool {
        self.buf().count == 0
    }

    /// Ends the capture and returns it as a complete `.gfr` byte stream
    /// (header, records, `End`): the arena is already laid out as the
    /// file, so it is handed over with `End` appended, not copied. The
    /// recorder starts a new capture under the same header, so records
    /// that arrive later come out of the next `finish`, which also
    /// decodes; [`FlightRecorder::len`] keeps counting them all.
    pub fn finish(&self) -> Vec<u8> {
        let mut next = Vec::new();
        self.header.encode_into(&mut next);
        let mut out = std::mem::replace(&mut self.buf().data, next);
        out.push(TAG_END);
        push_varint(&mut out, 0); // no record was evicted
        out
    }
}

fn field_u64(fields: &[(&str, Value)], name: &str) -> Option<u64> {
    fields.iter().find(|(k, _)| *k == name).and_then(|(_, v)| {
        v.as_u64()
            .or_else(|| v.as_f64().map(|x| x.round().max(0.0) as u64))
    })
}

impl Recorder for FlightRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn counter(&self, _name: &str, _delta: u64) {}
    fn gauge(&self, _name: &str, _value: f64) {}
    fn observe(&self, _name: &str, _value: f64) {}
    fn span_observe(&self, _path: &str, _nanos: u64) {}

    fn event(&self, name: &str, fields: &[(&str, Value)]) {
        let rec = match name {
            // A completed round carries the knowledge-curve point.
            "round_end" => {
                let Some(round) = field_u64(fields, "round") else {
                    return;
                };
                FlightRecord::RoundEnd {
                    round: round as u32,
                    known_pairs: field_u64(fields, "known_pairs").unwrap_or(0),
                }
            }
            "loss" => {
                let (Some(round), Some(msg), Some(from), Some(to)) = (
                    field_u64(fields, "round"),
                    field_u64(fields, "msg"),
                    field_u64(fields, "from"),
                    field_u64(fields, "to"),
                ) else {
                    return;
                };
                let cause = fields
                    .iter()
                    .find(|(k, _)| *k == "cause")
                    .and_then(|(_, v)| v.as_str())
                    .map(cause_code)
                    .unwrap_or(255);
                FlightRecord::Loss {
                    round: round as u32,
                    msg: msg as u32,
                    from: from as u32,
                    to: to as u32,
                    cause,
                }
            }
            "epoch_start" => {
                let (Some(epoch), Some(start)) =
                    (field_u64(fields, "epoch"), field_u64(fields, "start_round"))
                else {
                    return;
                };
                FlightRecord::EpochStart {
                    epoch: epoch as u32,
                    start_round: start as u32,
                }
            }
            "epoch_end" => {
                let Some(epoch) = field_u64(fields, "epoch") else {
                    return;
                };
                FlightRecord::EpochEnd {
                    epoch: epoch as u32,
                }
            }
            "churn" => {
                let (Some(round), Some(u), Some(v)) = (
                    field_u64(fields, "round"),
                    field_u64(fields, "u"),
                    field_u64(fields, "v"),
                ) else {
                    return;
                };
                let op = fields
                    .iter()
                    .find(|(k, _)| *k == "op")
                    .and_then(|(_, val)| val.as_str())
                    .map(churn_op_code)
                    .unwrap_or(255);
                FlightRecord::Churn {
                    round: round as u32,
                    op,
                    u: u as u32,
                    v: v as u32,
                }
            }
            "alert" => {
                let Some(round) = field_u64(fields, "round") else {
                    return;
                };
                let label = |key: &str| {
                    fields
                        .iter()
                        .find(|(k, _)| *k == key)
                        .and_then(|(_, v)| v.as_str())
                };
                // Bit patterns, not field_u64: the observed value and
                // threshold are true f64s and must round-trip exactly.
                let bits = |key: &str| {
                    fields
                        .iter()
                        .find(|(k, _)| *k == key)
                        .and_then(|(_, v)| v.as_f64())
                        .map(f64::to_bits)
                        .unwrap_or(0f64.to_bits())
                };
                FlightRecord::Alert {
                    round: round as u32,
                    rule: label("rule").map(alert_rule_code).unwrap_or(255),
                    severity: label("severity").map(alert_severity_code).unwrap_or(255),
                    value_bits: bits("value"),
                    threshold_bits: bits("threshold"),
                }
            }
            _ => return,
        };
        self.buf().push(&rec);
    }

    fn wants_transmissions(&self) -> bool {
        true
    }

    fn transmissions(&self, round: usize, batch: TxBatch<'_>) {
        // The hottest capture path — one record per attempted multicast —
        // encodes a whole round under one lock, straight from the
        // caller's CSR arrays into space sized before the lock is taken.
        if batch.is_empty() {
            return;
        }
        let round = round as u64;
        let bytes = batch_len(round, &batch);
        self.buf().push_batch(round, &batch, bytes);
    }
}

/// Fans every recorder call out to two recorders, so a [`FlightRecorder`]
/// can capture a run alongside the metrics registry (or live registry)
/// already attached to it. Enabled (and transmission-hungry) when either
/// side is.
pub struct Tee<'a> {
    a: &'a dyn Recorder,
    b: &'a dyn Recorder,
}

impl<'a> Tee<'a> {
    /// Combines two recorders.
    pub fn new(a: &'a dyn Recorder, b: &'a dyn Recorder) -> Tee<'a> {
        Tee { a, b }
    }
}

impl Recorder for Tee<'_> {
    fn enabled(&self) -> bool {
        self.a.enabled() || self.b.enabled()
    }

    fn counter(&self, name: &str, delta: u64) {
        self.a.counter(name, delta);
        self.b.counter(name, delta);
    }

    fn gauge(&self, name: &str, value: f64) {
        self.a.gauge(name, value);
        self.b.gauge(name, value);
    }

    fn observe(&self, name: &str, value: f64) {
        self.a.observe(name, value);
        self.b.observe(name, value);
    }

    fn event(&self, name: &str, fields: &[(&str, Value)]) {
        self.a.event(name, fields);
        self.b.event(name, fields);
    }

    fn span_observe(&self, path: &str, nanos: u64) {
        self.a.span_observe(path, nanos);
        self.b.span_observe(path, nanos);
    }

    fn wants_transmissions(&self) -> bool {
        self.a.wants_transmissions() || self.b.wants_transmissions()
    }

    fn transmissions(&self, round: usize, batch: TxBatch<'_>) {
        self.a.transmissions(round, batch);
        self.b.transmissions(round, batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RecorderExt;

    fn header() -> FlightHeader {
        FlightHeader {
            n: 4,
            n_msgs: 4,
            radius: 2,
            engine: "oracle".to_string(),
            graph_digest: 0x1111,
            schedule_digest: 0x2222,
            fault_digest: 0,
            origins: vec![0, 1, 2, 3],
        }
    }

    #[test]
    fn varint_roundtrip_boundaries() {
        for x in [
            0u64,
            1,
            127,
            128,
            300,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            push_varint(&mut buf, x);
            let mut r = Reader {
                bytes: &buf,
                pos: 0,
            };
            assert_eq!(r.varint(), Ok(x), "{x}");
            assert_eq!(r.pos, buf.len());
        }
    }

    #[test]
    fn capture_decodes_losslessly() {
        let rec = FlightRecorder::new(header());
        rec.transmission(0, 0, 0, &[1, 2]);
        rec.event(
            "loss",
            &[
                ("round", Value::from_u64(0)),
                ("msg", Value::from_u64(0)),
                ("from", Value::from_u64(0)),
                ("to", Value::from_u64(2)),
                ("cause", Value::String("sampled".to_string())),
            ],
        );
        rec.event(
            "round_end",
            &[
                ("round", Value::from_u64(0)),
                ("known_pairs", Value::from_u64(5)),
            ],
        );
        rec.event(
            "epoch_start",
            &[
                ("epoch", Value::from_u64(1)),
                ("start_round", Value::from_u64(1)),
            ],
        );
        rec.event("epoch_end", &[("epoch", Value::from_u64(1))]);
        // Metrics calls and unrelated events leave no records.
        rec.counter("x", 1);
        rec.gauge("y", 2.0);
        rec.event("span", &[]);

        let bytes = rec.finish();
        let log = FlightLog::decode(&bytes).expect("decodes");
        assert_eq!(log.header, header());
        assert_eq!(log.records.len(), 5);
        assert_eq!(log.dropped, 0);
        assert_eq!(log.encode(), bytes, "re-encode is byte-identical");
        assert_eq!(log.rounds(), 1);
        assert_eq!(log.txs().len(), 1);
        assert_eq!(log.txs()[0].dests, &[1, 2]);
        assert_eq!(log.losses().len(), 1);
        assert_eq!(cause_label(log.losses()[0].cause), "sampled");
        assert_eq!(log.known_pairs_curve(), vec![(0, 5)]);
        assert_eq!(log.epochs(), vec![(1, 1)]);
    }

    #[test]
    fn decode_rejects_garbage_and_truncation() {
        assert!(FlightLog::decode(b"").is_err());
        assert!(FlightLog::decode(b"JSON{}").is_err());
        let good = FlightRecorder::new(header()).finish();
        assert!(FlightLog::decode(&good[..good.len() - 1]).is_err());
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(FlightLog::decode(&trailing).is_err());
        let mut wrong_schema = good;
        wrong_schema[4] = 9; // schema varint right after the magic
        let err = FlightLog::decode(&wrong_schema).unwrap_err();
        assert!(err.contains("schema"), "{err}");
        assert!(!FlightLog::sniff(b"JSON"));
        assert!(FlightLog::sniff(&FlightRecorder::new(header()).finish()));
    }

    #[test]
    fn finish_ends_the_capture_and_later_records_start_the_next() {
        let rec = FlightRecorder::new(header());
        rec.transmission(0, 0, 0, &[1, 2]);
        round_end(&rec, 0);
        let first = rec.finish();
        let log = FlightLog::decode(&first).expect("first capture decodes");
        assert_eq!(log.header, header());
        assert_eq!(log.records.len(), 2);
        assert_eq!(log.encode(), first);
        // A second finish right away: a complete, empty capture.
        let empty = FlightLog::decode(&rec.finish()).expect("empty capture decodes");
        assert_eq!((empty.header, empty.records.len()), (header(), 0));
        // Records after a finish land in the next capture; `len` counts
        // every record since the recorder was made.
        rec.transmission(1, 3, 1, &[0]);
        round_end(&rec, 1);
        let later = FlightLog::decode(&rec.finish()).expect("later capture decodes");
        assert_eq!(later.header, header());
        assert_eq!(later.known_pairs_curve(), vec![(1, 3)]);
        assert_eq!(later.txs().len(), 1);
        assert_eq!(rec.len(), 4);
    }

    #[test]
    fn tee_forwards_to_both_sides() {
        let m = crate::MetricsRecorder::new();
        let f = FlightRecorder::new(header());
        let tee = Tee::new(&m, &f);
        assert!(tee.enabled());
        assert!(tee.wants_transmissions());
        tee.counter("c", 2);
        tee.transmission(0, 1, 0, &[1]);
        tee.event(
            "round_end",
            &[
                ("round", Value::from_u64(0)),
                ("known_pairs", Value::from_u64(1)),
            ],
        );
        assert_eq!(m.counter_value("c"), 2);
        assert_eq!(m.events_emitted(), 1);
        let log = FlightLog::decode(&f.finish()).unwrap();
        assert_eq!(log.txs().len(), 1);
        assert_eq!(log.known_pairs_curve(), vec![(0, 1)]);
        // A tee of two noops stays disabled and transmission-free.
        let n1 = crate::NoopRecorder;
        let n2 = crate::NoopRecorder;
        let quiet = Tee::new(&n1, &n2);
        assert!(!quiet.enabled());
        assert!(!quiet.wants_transmissions());
    }

    /// splitmix64, so a proptest case is fully described by its seed.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, k: u64) -> u64 {
            self.next() % k
        }

        /// A `u32` from a random varint length class (1 to 5 bytes).
        fn id(&mut self) -> u32 {
            let bits = [7u32, 14, 21, 28, 32][self.below(5) as usize];
            (self.next() as u32) >> (32 - bits)
        }
    }

    /// One round of random multicasts in CSR form, possibly empty.
    struct Round {
        round: usize,
        msgs: Vec<u32>,
        senders: Vec<u32>,
        dest_offsets: Vec<u32>,
        dests: Vec<u32>,
    }

    impl Round {
        fn random(rng: &mut Rng, round: usize) -> Round {
            let len = [0, 1, 2, 5, 17][rng.below(5) as usize];
            // Offsets start anywhere, like a round cut out of a flat
            // schedule's arrays.
            let base = rng.below(1000) as u32;
            let mut r = Round {
                round,
                msgs: Vec::new(),
                senders: Vec::new(),
                dest_offsets: vec![base],
                dests: Vec::new(),
            };
            for _ in 0..len {
                r.msgs.push(rng.id());
                r.senders.push(rng.id());
                for _ in 0..rng.below(6) {
                    r.dests.push(rng.id());
                }
                r.dest_offsets.push(base + r.dests.len() as u32);
            }
            r
        }

        fn batch(&self) -> TxBatch<'_> {
            TxBatch::new(&self.msgs, &self.senders, &self.dest_offsets, &self.dests)
        }

        fn records(&self) -> impl Iterator<Item = FlightRecord> + '_ {
            let batch = self.batch();
            (0..batch.len()).map(move |i| FlightRecord::Tx {
                round: self.round as u32,
                msg: batch.msgs()[i],
                from: batch.senders()[i],
                dests: batch.dests_of(i).to_vec(),
            })
        }
    }

    fn round_end(rec: &dyn Recorder, round: usize) {
        rec.event(
            "round_end",
            &[
                ("round", Value::from_u64(round as u64)),
                ("known_pairs", Value::from_u64(round as u64 * 3)),
            ],
        );
    }

    /// The per-record encoding of `records`.
    fn expected(records: &[FlightRecord]) -> Vec<u8> {
        FlightLog {
            header: header(),
            records: records.to_vec(),
            dropped: 0,
        }
        .encode()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Whole-round batches encode exactly as the same records one at
        /// a time: directly, through a `Tee` of two flight recorders, and
        /// as one-entry batches.
        #[test]
        fn batches_encode_like_single_records(seed in 0u64..u64::MAX) {
            let mut rng = Rng(seed);
            let first = [0usize, 100, 20_000, 3_000_000][rng.below(4) as usize];
            let rounds: Vec<Round> = (0..1 + rng.below(6) as usize)
                .map(|k| Round::random(&mut rng, first + k))
                .collect();

            let batched = FlightRecorder::new(header());
            let single = FlightRecorder::new(header());
            let (tee_a, tee_b) = (FlightRecorder::new(header()), FlightRecorder::new(header()));
            let tee = Tee::new(&tee_a, &tee_b);
            let mut records = Vec::new();
            for r in &rounds {
                for rec in [&batched as &dyn Recorder, &tee] {
                    rec.transmissions(r.round, r.batch());
                    round_end(rec, r.round);
                }
                let batch = r.batch();
                for i in 0..batch.len() {
                    single.transmission(r.round, batch.msgs()[i], batch.senders()[i], batch.dests_of(i));
                }
                round_end(&single, r.round);
                records.extend(r.records());
                records.push(FlightRecord::RoundEnd {
                    round: r.round as u32,
                    known_pairs: r.round as u64 * 3,
                });
            }
            let unbounded = expected(&records);
            proptest::prop_assert_eq!(batched.finish(), unbounded.clone());
            proptest::prop_assert_eq!(single.finish(), unbounded.clone());
            proptest::prop_assert_eq!(tee_a.finish(), unbounded.clone());
            proptest::prop_assert_eq!(tee_b.finish(), unbounded);
            proptest::prop_assert_eq!(batched.len(), records.len());
        }
    }

    #[test]
    fn digest_is_stable_and_input_sensitive() {
        let mut a = Digest::new();
        a.write_u64(42);
        a.write_bytes(b"edges");
        let mut b = Digest::new();
        b.write_u64(42);
        b.write_bytes(b"edges");
        assert_eq!(a.finish(), b.finish());
        let mut c = Digest::new();
        c.write_u64(43);
        c.write_bytes(b"edges");
        assert_ne!(a.finish(), c.finish());
        // Pin the FNV-1a basis so digests stay stable across builds (they
        // are part of the on-disk format).
        assert_eq!(Digest::new().finish(), 0xcbf2_9ce4_8422_2325);
    }

    /// Textbook FNV-1a 64, one byte at a time: the reference the folded
    /// `write_u64` must reproduce.
    fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(state, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
    }

    fn assert_write_u64_is_bytewise(prefix: u64, x: u64) {
        let mut d = Digest::new();
        d.write_u64(prefix);
        d.write_u64(x);
        let basis = Digest::new().finish();
        let want = fnv1a(fnv1a(basis, &prefix.to_le_bytes()), &x.to_le_bytes());
        assert_eq!(d.finish(), want, "prefix {prefix:#x}, x {x:#x}");
    }

    #[test]
    fn write_u64_matches_bytewise_fnv1a_at_byte_boundaries() {
        for x in [
            0u64,
            0xff,
            0x100,
            0xffff,
            u64::from(u32::MAX),
            1 << 56,
            u64::MAX,
        ] {
            assert_write_u64_is_bytewise(0, x);
            assert_write_u64_is_bytewise(x, x);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// Random words of every significant-byte length (`bits` picks the
        /// length, `raw` the bits), absorbed after a random prefix word.
        #[test]
        fn write_u64_matches_bytewise_fnv1a(
            (bits, raw, prefix) in (0u32..=64, 0u64..u64::MAX, 0u64..u64::MAX)
        ) {
            let x = if bits == 0 { 0 } else { raw >> (64 - bits) };
            assert_write_u64_is_bytewise(prefix, x);
        }
    }

    #[test]
    fn huge_engine_label_length_is_a_typed_error() {
        // Magic, schema 1, n = n_msgs = radius = 0, then an engine-label
        // length varint near 2^64 and two stray bytes: 20 bytes on which
        // `pos + len` used to overflow.
        for len in [u64::MAX, u64::MAX - 17, 1 << 63] {
            let mut bytes = b"GFR1".to_vec();
            bytes.extend_from_slice(&[1, 0, 0, 0]);
            push_varint(&mut bytes, len);
            bytes.resize(20, 0);
            let err = FlightLog::decode(&bytes).unwrap_err();
            assert!(err.contains("engine label"), "{err}");
        }
    }

    #[test]
    fn truncated_and_corrupted_captures_never_panic() {
        let rec = FlightRecorder::new(header());
        rec.transmission(0, 0, 0, &[1, 2]);
        rec.event(
            "round_end",
            &[
                ("round", Value::from_u64(0)),
                ("known_pairs", Value::from_u64(6)),
            ],
        );
        let good = rec.finish();
        for cut in 0..good.len() {
            assert!(FlightLog::decode(&good[..cut]).is_err(), "cut at {cut}");
        }
        for i in 0..good.len() {
            for byte in [0x00, 0x7f, 0x80, 0xff] {
                let mut bad = good.clone();
                bad[i] = byte;
                // Ok or Err are both fine; a panic fails the test.
                let _ = FlightLog::decode(&bad);
            }
        }
    }

    #[test]
    fn cause_codes_roundtrip() {
        for (i, label) in CAUSE_LABELS.iter().enumerate() {
            assert_eq!(cause_code(label), i as u8);
            assert_eq!(cause_label(i as u8), *label);
        }
        assert_eq!(cause_code("mystery"), 255);
        assert_eq!(cause_label(255), "unknown");
        for (i, label) in CHURN_OP_LABELS.iter().enumerate() {
            assert_eq!(churn_op_code(label), i as u8);
            assert_eq!(churn_op_label(i as u8), *label);
        }
        assert_eq!(churn_op_code("teleport"), 255);
        assert_eq!(churn_op_label(255), "unknown");
    }

    #[test]
    fn alert_records_roundtrip() {
        let rec = FlightRecorder::new(header());
        rec.event(
            "round_end",
            &[
                ("round", Value::from_u64(2)),
                ("known_pairs", Value::from_u64(9)),
            ],
        );
        rec.event(
            "alert",
            &[
                ("rule", Value::String("bound".to_string())),
                ("round", Value::from_u64(2)),
                ("severity", Value::String("critical".to_string())),
                ("message", Value::String("projected breach".to_string())),
                ("value", Value::from_f64(17.25)),
                ("threshold", Value::from_f64(6.5)),
            ],
        );
        let bytes = rec.finish();
        let log = FlightLog::decode(&bytes).expect("decodes");
        assert_eq!(log.encode(), bytes, "re-encode is byte-identical");
        let alerts = log.alerts();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].round, 2);
        assert_eq!(alert_rule_label(alerts[0].rule), "bound");
        assert_eq!(alert_severity_label(alerts[0].severity), "critical");
        assert_eq!(alerts[0].value, 17.25);
        assert_eq!(alerts[0].threshold, 6.5);
        // An alert record alone does not extend the executed-round count.
        assert_eq!(log.rounds(), 3);
        for (i, label) in ALERT_RULE_LABELS.iter().enumerate() {
            assert_eq!(alert_rule_code(label), i as u8);
            assert_eq!(alert_rule_label(i as u8), *label);
        }
        for (i, label) in ALERT_SEVERITY_LABELS.iter().enumerate() {
            assert_eq!(alert_severity_code(label), i as u8);
            assert_eq!(alert_severity_label(i as u8), *label);
        }
        assert_eq!(alert_rule_code("mystery"), 255);
        assert_eq!(alert_severity_label(255), "unknown");
    }

    #[test]
    fn churn_records_roundtrip() {
        let rec = FlightRecorder::new(header());
        rec.event(
            "churn",
            &[
                ("round", Value::from_u64(3)),
                ("op", Value::String("edge_remove".to_string())),
                ("u", Value::from_u64(1)),
                ("v", Value::from_u64(2)),
            ],
        );
        rec.event(
            "loss",
            &[
                ("round", Value::from_u64(4)),
                ("msg", Value::from_u64(0)),
                ("from", Value::from_u64(1)),
                ("to", Value::from_u64(2)),
                ("cause", Value::String("churn_invalidated".to_string())),
            ],
        );
        let bytes = rec.finish();
        let log = FlightLog::decode(&bytes).expect("decodes");
        assert_eq!(log.encode(), bytes, "re-encode is byte-identical");
        let churn = log.churn_events();
        assert_eq!(churn.len(), 1);
        assert_eq!(churn[0].round, 3);
        assert_eq!(churn_op_label(churn[0].op), "edge_remove");
        assert_eq!((churn[0].u, churn[0].v), (1, 2));
        assert_eq!(cause_label(log.losses()[0].cause), "churn_invalidated");
        // A churn record alone does not extend the executed-round count.
        assert_eq!(log.rounds(), 5);
    }
}
