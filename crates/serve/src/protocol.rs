//! The query service's wire protocol: framing, requests, responses, and
//! typed errors.
//!
//! # Frame format (versions 1 and 2)
//!
//! Every message — request or response — travels in one frame built on the
//! consensus-style primitives of [`fistful_chain::encode`] (little-endian
//! fixed-width integers, canonical `CompactSize` counts, length-prefixed
//! UTF-8 strings):
//!
//! | field    | bytes | contents                                          |
//! |----------|-------|---------------------------------------------------|
//! | magic    | 4     | `"FSRV"` ([`PROTOCOL_MAGIC`])                     |
//! | version  | 1     | `1` or `2` ([`PROTOCOL_VERSION`] is `2`)          |
//! | length   | 4     | payload byte length, u32 little-endian            |
//! | epoch    | 8     | **v2 only**: artifact epoch, u64 little-endian    |
//! | payload  | *n*   | the message body, exactly `length` bytes          |
//!
//! Version 2 (the live hot-swap protocol) inserts an 8-byte artifact
//! epoch between the fixed header and the payload; `length` counts the
//! payload only, so a v1 parser that knows both versions skips exactly
//! [`FRAME_EPOCH_LEN`] extra bytes. On responses the epoch names the
//! published artifact generation that answered; on requests it is
//! reserved (clients send `0`, servers ignore it). Both sides still speak
//! version 1 — a server answers each connection in the version its
//! request arrived with, and v1 frames carry no epoch — so old clients
//! keep decoding across the bump.
//!
//! The first payload byte is the message type. Request payloads are capped
//! at [`MAX_REQUEST_PAYLOAD`] and response payloads at
//! [`MAX_RESPONSE_PAYLOAD`]; both sides check the declared length against
//! their cap *before* allocating anything, so an adversarial length field
//! cannot cause an allocation blowup. A frame whose magic, version, or
//! length is unacceptable is answered with a [`Response::Error`] frame and
//! the connection is closed.
//!
//! # Request payloads
//!
//! | type | request                          | body after the type byte     |
//! |------|----------------------------------|------------------------------|
//! | 0    | [`Request::Ping`]                | (empty)                      |
//! | 1    | [`Request::Stats`]               | (empty)                      |
//! | 2    | [`Request::AddressInfo`]         | address (u32)                |
//! | 3    | [`Request::ClusterSummary`]      | cluster (u32)                |
//! | 4    | [`Request::TaintTrace`]          | `CompactSize` loot count, then (tx u32, vout u32) per outpoint; max_txs (u32) |
//! | 5    | [`Request::BalancePoint`]        | height (u64)                 |
//! | 6    | [`Request::MetricsDump`]         | (empty)                      |
//!
//! # Response payloads
//!
//! Responses reuse the request's type byte (`0`–`6`); `0xEE` is
//! [`Response::Error`]. Optional bodies (an address the snapshot does not
//! cover, a height before the first sample) are a `0`/`1` presence byte
//! followed, when present, by the record. Amounts are u64 satoshis.
//! Cluster records are the [`ClusterInfo`] encoding already specified in
//! [`fistful_core::snapshot`].
//!
//! Decoding is total: arbitrary bytes produce a typed [`ServeError`],
//! never a panic (the wire proptests in the root `tests/properties.rs`
//! fuzz both directions).

use crate::metrics::{HistogramDump, MetricsDump};
use fistful_chain::amount::Amount;
use fistful_chain::encode::{Decodable, DecodeError, Encodable, Reader, Writer};
use fistful_core::snapshot::ClusterInfo;
use fistful_flow::movement::{MovementKind, TaintedTx};
use fistful_flow::theft::TheftTrace;
use fistful_flow::BalancePoint;

/// The four magic bytes opening every frame.
pub const PROTOCOL_MAGIC: [u8; 4] = *b"FSRV";

/// The current protocol version: epoch-stamped frames.
pub const PROTOCOL_VERSION: u8 = 2;

/// The legacy protocol version: identical frames without the epoch field.
/// Servers still answer it so pre-hot-swap clients keep working.
pub const PROTOCOL_VERSION_V1: u8 = 1;

/// Byte length of the fixed frame header (magic + version + payload
/// length) — common to both versions; v2 frames follow it with
/// [`FRAME_EPOCH_LEN`] epoch bytes.
pub const FRAME_HEADER_LEN: usize = 4 + 1 + 4;

/// Byte length of the v2 epoch field that sits between the fixed header
/// and the payload.
pub const FRAME_EPOCH_LEN: usize = 8;

/// Largest request payload a server accepts (a taint request with a few
/// thousand loot outpoints fits comfortably).
pub const MAX_REQUEST_PAYLOAD: u32 = 1 << 16;

/// Largest response payload a client accepts (a deep taint trace with all
/// its movement records fits comfortably).
pub const MAX_RESPONSE_PAYLOAD: u32 = 1 << 22;

/// Everything that can go wrong speaking the protocol, on either side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// An underlying socket operation failed (message of the `io::Error`).
    Io(String),
    /// The first four bytes of a frame were not [`PROTOCOL_MAGIC`].
    BadMagic([u8; 4]),
    /// The version byte named a protocol this build does not speak.
    UnsupportedVersion(u8),
    /// The declared payload length exceeded the receiver's cap.
    FrameTooLarge {
        /// Declared payload length.
        len: u32,
        /// The receiver's cap ([`MAX_REQUEST_PAYLOAD`] or
        /// [`MAX_RESPONSE_PAYLOAD`]).
        limit: u32,
    },
    /// The peer closed the connection mid-frame.
    Truncated,
    /// The peer closed the connection at a frame boundary when a message
    /// was still expected.
    Closed,
    /// The payload failed structural decoding.
    Decode(DecodeError),
    /// The payload's type byte named no known message.
    UnknownMessage(u8),
    /// A structurally valid request violated a semantic invariant (e.g. a
    /// loot outpoint beyond the graph).
    InvalidRequest(String),
    /// The server shed load: the connection cap or a per-connection
    /// pipelining budget was exceeded (the message says which).
    Busy(String),
    /// The server answered with an error frame.
    Remote(WireError),
    /// The server answered with a well-formed response of the wrong type.
    UnexpectedResponse,
    /// The artifacts handed to the server do not describe the same chain.
    MismatchedArtifacts(&'static str),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(msg) => write!(f, "i/o error: {msg}"),
            ServeError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            ServeError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (supported: \
                     {PROTOCOL_VERSION_V1}-{PROTOCOL_VERSION})"
                )
            }
            ServeError::FrameTooLarge { len, limit } => {
                write!(f, "frame payload of {len} bytes exceeds the {limit}-byte limit")
            }
            ServeError::Truncated => write!(f, "connection closed mid-frame"),
            ServeError::Closed => write!(f, "connection closed"),
            ServeError::Decode(e) => write!(f, "payload decode: {e}"),
            ServeError::UnknownMessage(t) => write!(f, "unknown message type {t:#x}"),
            ServeError::InvalidRequest(msg) => write!(f, "invalid request: {msg}"),
            ServeError::Busy(msg) => write!(f, "server busy: {msg}"),
            ServeError::Remote(e) => write!(f, "server error: {e}"),
            ServeError::UnexpectedResponse => write!(f, "response type does not match request"),
            ServeError::MismatchedArtifacts(what) => {
                write!(f, "mismatched serving artifacts: {what}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DecodeError> for ServeError {
    fn from(e: DecodeError) -> ServeError {
        ServeError::Decode(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> ServeError {
        ServeError::Io(e.to_string())
    }
}

/// The error codes a server can put on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The request frame's magic was wrong.
    BadMagic = 1,
    /// The request frame's version byte was wrong.
    UnsupportedVersion = 2,
    /// The request frame declared an oversized payload.
    FrameTooLarge = 3,
    /// The request payload failed structural decoding.
    Malformed = 4,
    /// The request payload's type byte named no known request.
    UnknownRequest = 5,
    /// A structurally valid request violated a semantic invariant.
    InvalidRequest = 6,
    /// The server shed load (connection cap or pipelining budget); retry
    /// later or on a fresh connection.
    Busy = 7,
}

impl ErrorCode {
    fn from_byte(b: u8) -> Result<ErrorCode, DecodeError> {
        Ok(match b {
            1 => ErrorCode::BadMagic,
            2 => ErrorCode::UnsupportedVersion,
            3 => ErrorCode::FrameTooLarge,
            4 => ErrorCode::Malformed,
            5 => ErrorCode::UnknownRequest,
            6 => ErrorCode::InvalidRequest,
            7 => ErrorCode::Busy,
            other => return Err(DecodeError::InvalidValue(other)),
        })
    }
}

/// An error as carried by a [`Response::Error`] frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// What class of failure the server saw.
    pub code: ErrorCode,
    /// A human-readable description.
    pub message: String,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}: {}", self.code, self.message)
    }
}

impl WireError {
    /// Maps a server-side [`ServeError`] onto its wire representation —
    /// what the peer is told before the connection closes.
    pub fn from_serve_error(e: &ServeError) -> WireError {
        let (code, message) = match e {
            ServeError::BadMagic(_) => (ErrorCode::BadMagic, e.to_string()),
            ServeError::UnsupportedVersion(_) => (ErrorCode::UnsupportedVersion, e.to_string()),
            ServeError::FrameTooLarge { .. } => (ErrorCode::FrameTooLarge, e.to_string()),
            ServeError::UnknownMessage(_) => (ErrorCode::UnknownRequest, e.to_string()),
            ServeError::InvalidRequest(_) => (ErrorCode::InvalidRequest, e.to_string()),
            ServeError::Busy(_) => (ErrorCode::Busy, e.to_string()),
            other => (ErrorCode::Malformed, other.to_string()),
        };
        WireError { code, message }
    }
}

// ----- framing -----

/// Wraps a payload in a complete current-version frame stamped with epoch
/// `0` — what clients send (the request epoch is reserved) and what a
/// frozen-artifact server answers with.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    frame_at(payload, 0)
}

/// Wraps a payload in a complete v2 frame (magic, version, length, epoch,
/// payload) stamped with the given artifact epoch.
pub fn frame_at(payload: &[u8], epoch: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + FRAME_EPOCH_LEN + payload.len());
    out.extend_from_slice(&PROTOCOL_MAGIC);
    out.push(PROTOCOL_VERSION);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Wraps a payload in a complete legacy v1 frame (no epoch field) — what
/// the server answers v1 connections with.
pub fn frame_v1(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&PROTOCOL_MAGIC);
    out.push(PROTOCOL_VERSION_V1);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// A validated frame header: which protocol version the frame speaks and
/// how many payload bytes follow. For a v2 frame, [`FRAME_EPOCH_LEN`]
/// epoch bytes sit between the fixed header and the payload
/// ([`FrameHeader::epoch_bytes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// The frame's protocol version ([`PROTOCOL_VERSION_V1`] or
    /// [`PROTOCOL_VERSION`]).
    pub version: u8,
    /// Declared payload byte length (excluding the epoch field).
    pub payload_len: u32,
}

impl FrameHeader {
    /// How many epoch bytes follow the fixed header before the payload:
    /// [`FRAME_EPOCH_LEN`] for v2, zero for v1.
    pub fn epoch_bytes(&self) -> usize {
        if self.version >= PROTOCOL_VERSION {
            FRAME_EPOCH_LEN
        } else {
            0
        }
    }
}

/// Validates a frame header, accepting both protocol versions, and
/// returns the declared version and payload length.
///
/// `limit` is the receiver's payload cap; the check happens here, before
/// any allocation, so a lying length field cannot balloon memory.
pub fn parse_frame_header(
    header: &[u8; FRAME_HEADER_LEN],
    limit: u32,
) -> Result<FrameHeader, ServeError> {
    let magic: [u8; 4] = header[..4].try_into().expect("4 bytes");
    if magic != PROTOCOL_MAGIC {
        return Err(ServeError::BadMagic(magic));
    }
    let version = header[4];
    if version != PROTOCOL_VERSION && version != PROTOCOL_VERSION_V1 {
        return Err(ServeError::UnsupportedVersion(version));
    }
    let payload_len = u32::from_le_bytes(header[5..].try_into().expect("4 bytes"));
    if payload_len > limit {
        return Err(ServeError::FrameTooLarge { len: payload_len, limit });
    }
    Ok(FrameHeader { version, payload_len })
}

/// What scanning a byte buffer's prefix for one frame concluded
/// ([`parse_frame_prefix`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FramePrefix {
    /// The buffer does not yet hold a complete frame; at least `needed`
    /// more bytes must arrive (a lower bound — the header may reveal a
    /// larger payload once complete).
    Incomplete {
        /// Minimum additional bytes before the scan can conclude.
        needed: usize,
    },
    /// One complete frame sits at the front of the buffer.
    Complete {
        /// The frame's protocol version.
        version: u8,
        /// The payload bytes (epoch field, if any, already skipped).
        payload: Vec<u8>,
        /// Total frame length: drain this many bytes before rescanning.
        consumed: usize,
    },
}

/// Scans the front of an accumulation buffer for one complete frame —
/// the event loop's incremental decoder, fed by whatever byte slices the
/// socket happened to deliver.
///
/// Header validation (magic, version, length-vs-`limit`) happens as soon
/// as [`FRAME_HEADER_LEN`] bytes are present, so a garbage or oversized
/// frame is rejected without waiting for (or buffering) its body — the
/// same early-check order as the blocking reader. The returned payload
/// excludes the v2 epoch field, which on requests is reserved anyway.
pub fn parse_frame_prefix(buf: &[u8], limit: u32) -> Result<FramePrefix, ServeError> {
    if buf.len() < FRAME_HEADER_LEN {
        return Ok(FramePrefix::Incomplete { needed: FRAME_HEADER_LEN - buf.len() });
    }
    let header: [u8; FRAME_HEADER_LEN] = buf[..FRAME_HEADER_LEN].try_into().expect("9 bytes");
    let parsed = parse_frame_header(&header, limit)?;
    let body_start = FRAME_HEADER_LEN + parsed.epoch_bytes();
    let total = body_start + parsed.payload_len as usize;
    if buf.len() < total {
        return Ok(FramePrefix::Incomplete { needed: total - buf.len() });
    }
    Ok(FramePrefix::Complete {
        version: parsed.version,
        payload: buf[body_start..total].to_vec(),
        consumed: total,
    })
}

// ----- requests -----

/// Request type byte values.
const T_PING: u8 = 0;
const T_STATS: u8 = 1;
const T_ADDRESS_INFO: u8 = 2;
const T_CLUSTER_SUMMARY: u8 = 3;
const T_TAINT_TRACE: u8 = 4;
const T_BALANCE_POINT: u8 = 5;
const T_METRICS_DUMP: u8 = 6;
/// Response-only error type byte.
const T_ERROR: u8 = 0xEE;

/// Every question the query service answers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// Server counters and artifact dimensions.
    Stats,
    /// Which cluster owns this address, and that cluster's aggregates.
    AddressInfo {
        /// The dense address id to look up.
        address: u32,
    },
    /// Aggregates of one cluster by id.
    ClusterSummary {
        /// The canonical cluster id.
        cluster: u32,
    },
    /// A bounded taint walk from the given loot outpoints
    /// (`track_theft_indexed` over the server's graph).
    TaintTrace {
        /// Loot outpoints as `(tx, vout)` pairs.
        loot: Vec<(u32, u32)>,
        /// Caller-supplied walk bound: maximum transactions the taint walk
        /// may visit. The server additionally clamps this to its own
        /// configured ceiling.
        max_txs: u32,
    },
    /// The balance-series sample at or before the given height.
    BalancePoint {
        /// Block height to sample at.
        height: u64,
    },
    /// A snapshot of the server's full metric registry — the binary
    /// scrape path, so `benchmark/`'s serve workloads and the typed client
    /// read the same counters the HTTP `/metrics` exporter renders, without
    /// HTTP.
    MetricsDump,
}

impl Request {
    /// Decodes a request payload; total on arbitrary bytes.
    pub fn decode_payload(payload: &[u8]) -> Result<Request, ServeError> {
        let mut r = Reader::new(payload);
        let req = match r.u8()? {
            T_PING => Request::Ping,
            T_STATS => Request::Stats,
            T_ADDRESS_INFO => Request::AddressInfo { address: r.u32()? },
            T_CLUSTER_SUMMARY => Request::ClusterSummary { cluster: r.u32()? },
            T_TAINT_TRACE => {
                // Each outpoint is exactly 8 bytes; bound the count by what
                // the remaining input could possibly hold.
                let k = r.compact_size()?;
                if k > r.remaining() as u64 / 8 {
                    return Err(DecodeError::OversizedCount(k).into());
                }
                let mut loot = Vec::with_capacity(k as usize);
                for _ in 0..k {
                    loot.push((r.u32()?, r.u32()?));
                }
                Request::TaintTrace { loot, max_txs: r.u32()? }
            }
            T_BALANCE_POINT => Request::BalancePoint { height: r.u64()? },
            T_METRICS_DUMP => Request::MetricsDump,
            other => return Err(ServeError::UnknownMessage(other)),
        };
        r.finish()?;
        Ok(req)
    }

    /// The complete frame for this request.
    pub fn to_frame(&self) -> Vec<u8> {
        frame(&self.encode_to_vec())
    }

    /// True for requests whose answer is a pure function of the frozen
    /// artifacts — the ones the response cache may serve.
    pub fn type_byte_is_cacheable(type_byte: u8) -> bool {
        matches!(
            type_byte,
            T_ADDRESS_INFO | T_CLUSTER_SUMMARY | T_TAINT_TRACE | T_BALANCE_POINT
        )
    }
}

impl Encodable for Request {
    fn encode(&self, w: &mut Writer) {
        match self {
            Request::Ping => w.u8(T_PING),
            Request::Stats => w.u8(T_STATS),
            Request::AddressInfo { address } => {
                w.u8(T_ADDRESS_INFO);
                w.u32(*address);
            }
            Request::ClusterSummary { cluster } => {
                w.u8(T_CLUSTER_SUMMARY);
                w.u32(*cluster);
            }
            Request::TaintTrace { loot, max_txs } => {
                w.u8(T_TAINT_TRACE);
                w.compact_size(loot.len() as u64);
                for &(tx, vout) in loot {
                    w.u32(tx);
                    w.u32(vout);
                }
                w.u32(*max_txs);
            }
            Request::BalancePoint { height } => {
                w.u8(T_BALANCE_POINT);
                w.u64(*height);
            }
            Request::MetricsDump => w.u8(T_METRICS_DUMP),
        }
    }
}

// ----- response records -----

/// Server counters and artifact dimensions ([`Response::Stats`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Request frames handled since the server started.
    pub requests: u64,
    /// Response-cache hits.
    pub cache_hits: u64,
    /// Response-cache misses. With the cache disabled no lookups happen,
    /// so both counters stay zero.
    pub cache_misses: u64,
    /// Worker threads serving requests.
    pub workers: u32,
    /// Addresses covered by the snapshot.
    pub address_count: u64,
    /// Transactions in the graph index.
    pub tx_count: u64,
    /// Clusters in the snapshot.
    pub cluster_count: u64,
    /// Height of the last block the clustering saw.
    pub tip_height: u64,
    /// The currently published artifact epoch (`0` on a frozen-artifact
    /// server that never swaps).
    pub epoch: u64,
    /// How many artifact publishes this server has performed since start.
    pub swaps: u64,
    /// Whole seconds since the server core was created, from the
    /// server's monotonic clock (`0` when decoded from a v1 body).
    pub uptime_seconds: u64,
    /// Request frames handled since start, read from the metrics
    /// registry's per-type counters (`0` when decoded from a v1 body).
    pub requests_total: u64,
}

impl Encodable for ServerStats {
    /// The full v2 body — twelve fields. v1 connections get the legacy
    /// 8-field body via [`ServerStats::encode_v1`] instead; keeping the
    /// `Encodable` impl single-layout preserves the canonical-decode
    /// property (decode ok ⟹ re-encode byte-identical) the wire
    /// proptests assert.
    fn encode(&self, w: &mut Writer) {
        w.u64(self.requests);
        w.u64(self.cache_hits);
        w.u64(self.cache_misses);
        w.u32(self.workers);
        w.u64(self.address_count);
        w.u64(self.tx_count);
        w.u64(self.cluster_count);
        w.u64(self.tip_height);
        w.u64(self.epoch);
        w.u64(self.swaps);
        w.u64(self.uptime_seconds);
        w.u64(self.requests_total);
    }
}

impl ServerStats {
    /// Writes the legacy v1 8-field body (everything up to `tip_height`)
    /// — what pre-hot-swap clients decode.
    pub fn encode_v1(&self, w: &mut Writer) {
        w.u64(self.requests);
        w.u64(self.cache_hits);
        w.u64(self.cache_misses);
        w.u32(self.workers);
        w.u64(self.address_count);
        w.u64(self.tx_count);
        w.u64(self.cluster_count);
        w.u64(self.tip_height);
    }

    /// Reads the legacy v1 8-field body; `epoch`, `swaps`,
    /// `uptime_seconds`, and `requests_total` come back zero (v1
    /// predates the live pipeline and the metrics layer).
    pub fn decode_v1(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(ServerStats {
            requests: r.u64()?,
            cache_hits: r.u64()?,
            cache_misses: r.u64()?,
            workers: r.u32()?,
            address_count: r.u64()?,
            tx_count: r.u64()?,
            cluster_count: r.u64()?,
            tip_height: r.u64()?,
            epoch: 0,
            swaps: 0,
            uptime_seconds: 0,
            requests_total: 0,
        })
    }
}

impl Decodable for ServerStats {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let mut stats = ServerStats::decode_v1(r)?;
        stats.epoch = r.u64()?;
        stats.swaps = r.u64()?;
        stats.uptime_seconds = r.u64()?;
        stats.requests_total = r.u64()?;
        Ok(stats)
    }
}

impl Encodable for HistogramDump {
    fn encode(&self, w: &mut Writer) {
        w.string(&self.name);
        w.compact_size(self.buckets.len() as u64);
        for &b in &self.buckets {
            w.u64(b);
        }
        w.u64(self.sum_micros);
        w.u64(self.count);
    }
}

impl Decodable for HistogramDump {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let name = r.string()?;
        // Each bucket is exactly 8 bytes.
        let k = r.compact_size()?;
        if k > r.remaining() as u64 / 8 {
            return Err(DecodeError::OversizedCount(k));
        }
        let mut buckets = Vec::with_capacity(k as usize);
        for _ in 0..k {
            buckets.push(r.u64()?);
        }
        Ok(HistogramDump { name, buckets, sum_micros: r.u64()?, count: r.u64()? })
    }
}

/// Reads a `(name, value)` series list, bounding the declared count by
/// what the remaining input could possibly hold (each entry is at least
/// 9 bytes: an empty-string length plus a u64).
fn decode_series(r: &mut Reader<'_>) -> Result<Vec<(String, u64)>, DecodeError> {
    let k = r.compact_size()?;
    if k > r.remaining() as u64 / 9 {
        return Err(DecodeError::OversizedCount(k));
    }
    let mut series = Vec::with_capacity(k as usize);
    for _ in 0..k {
        series.push((r.string()?, r.u64()?));
    }
    Ok(series)
}

impl Encodable for MetricsDump {
    fn encode(&self, w: &mut Writer) {
        w.compact_size(self.counters.len() as u64);
        for (name, value) in &self.counters {
            w.string(name);
            w.u64(*value);
        }
        w.compact_size(self.gauges.len() as u64);
        for (name, value) in &self.gauges {
            w.string(name);
            w.u64(*value);
        }
        fistful_chain::encode::encode_vec(w, &self.histograms);
    }
}

impl Decodable for MetricsDump {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let counters = decode_series(r)?;
        let gauges = decode_series(r)?;
        // A HistogramDump is at least 18 bytes (name + count + sum + count).
        let k = r.compact_size()?;
        if k > r.remaining() as u64 / 18 {
            return Err(DecodeError::OversizedCount(k));
        }
        let mut histograms = Vec::with_capacity(k as usize);
        for _ in 0..k {
            histograms.push(HistogramDump::decode(r)?);
        }
        Ok(MetricsDump { counters, gauges, histograms })
    }
}

/// An address lookup's answer ([`Response::AddressInfo`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddressReport {
    /// The address asked about.
    pub address: u32,
    /// The cluster owning it.
    pub cluster: u32,
    /// The owning cluster's aggregates.
    pub info: ClusterInfo,
}

impl Encodable for AddressReport {
    fn encode(&self, w: &mut Writer) {
        w.u32(self.address);
        w.u32(self.cluster);
        self.info.encode(w);
    }
}

impl Decodable for AddressReport {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(AddressReport {
            address: r.u32()?,
            cluster: r.u32()?,
            info: ClusterInfo::decode(r)?,
        })
    }
}

/// A cluster lookup's answer ([`Response::ClusterSummary`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterReport {
    /// The cluster asked about.
    pub cluster: u32,
    /// Its aggregates.
    pub info: ClusterInfo,
}

impl Encodable for ClusterReport {
    fn encode(&self, w: &mut Writer) {
        w.u32(self.cluster);
        self.info.encode(w);
    }
}

impl Decodable for ClusterReport {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(ClusterReport { cluster: r.u32()?, info: ClusterInfo::decode(r)? })
    }
}

/// One classified movement of a taint walk, as carried on the wire — the
/// [`TaintedTx`] record with amounts flattened to satoshis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireMovement {
    /// The transaction visited.
    pub tx: u32,
    /// Its A/P/S/F/T classification.
    pub kind: MovementKind,
    /// How many of its inputs were tainted.
    pub tainted_inputs: u32,
    /// Its total input count.
    pub total_inputs: u32,
    /// Value that left the thief's control here, as `(address, value)`.
    pub departures: Vec<(u32, Amount)>,
}

impl From<&TaintedTx> for WireMovement {
    fn from(m: &TaintedTx) -> WireMovement {
        WireMovement {
            tx: m.tx,
            kind: m.kind,
            tainted_inputs: m.tainted_inputs as u32,
            total_inputs: m.total_inputs as u32,
            departures: m.departures.clone(),
        }
    }
}

fn kind_byte(kind: MovementKind) -> u8 {
    match kind {
        MovementKind::Aggregation => 0,
        MovementKind::Peel => 1,
        MovementKind::Split => 2,
        MovementKind::Fold => 3,
        MovementKind::Transfer => 4,
    }
}

fn kind_from_byte(b: u8) -> Result<MovementKind, DecodeError> {
    Ok(match b {
        0 => MovementKind::Aggregation,
        1 => MovementKind::Peel,
        2 => MovementKind::Split,
        3 => MovementKind::Fold,
        4 => MovementKind::Transfer,
        other => return Err(DecodeError::InvalidValue(other)),
    })
}

impl Encodable for WireMovement {
    fn encode(&self, w: &mut Writer) {
        w.u32(self.tx);
        w.u8(kind_byte(self.kind));
        w.u32(self.tainted_inputs);
        w.u32(self.total_inputs);
        w.compact_size(self.departures.len() as u64);
        for &(addr, value) in &self.departures {
            w.u32(addr);
            w.u64(value.to_sat());
        }
    }
}

impl Decodable for WireMovement {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let tx = r.u32()?;
        let kind = kind_from_byte(r.u8()?)?;
        let tainted_inputs = r.u32()?;
        let total_inputs = r.u32()?;
        // Each departure is exactly 12 bytes.
        let k = r.compact_size()?;
        if k > r.remaining() as u64 / 12 {
            return Err(DecodeError::OversizedCount(k));
        }
        let mut departures = Vec::with_capacity(k as usize);
        for _ in 0..k {
            departures.push((r.u32()?, Amount::from_sat(r.u64()?)));
        }
        Ok(WireMovement { tx, kind, tainted_inputs, total_inputs, departures })
    }
}

/// A taint walk's answer ([`Response::TaintTrace`]) — the full
/// [`TheftTrace`] as the server derived it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaintReport {
    /// Every transaction the walk visited, classified, in visit order.
    pub movements: Vec<WireMovement>,
    /// The paper-style pattern string, e.g. `"A/P/S"`.
    pub pattern: String,
    /// Total value that departed to exchange-category addresses.
    pub to_exchanges: Amount,
    /// Number of distinct exchange services reached.
    pub exchanges_reached: u32,
    /// Loot value that never moved.
    pub dormant: Amount,
}

impl TaintReport {
    /// The wire form of a locally computed [`TheftTrace`] — what the
    /// socket path must answer byte-for-byte (the equivalence the
    /// integration suite checks).
    pub fn from_trace(trace: &TheftTrace) -> TaintReport {
        TaintReport {
            movements: trace.movements.iter().map(WireMovement::from).collect(),
            pattern: trace.pattern.clone(),
            to_exchanges: trace.to_exchanges,
            exchanges_reached: trace.exchanges_reached as u32,
            dormant: trace.dormant,
        }
    }

    /// Whether any loot reached an exchange.
    pub fn reached_exchange(&self) -> bool {
        self.exchanges_reached > 0
    }
}

impl Encodable for TaintReport {
    fn encode(&self, w: &mut Writer) {
        fistful_chain::encode::encode_vec(w, &self.movements);
        w.string(&self.pattern);
        w.u64(self.to_exchanges.to_sat());
        w.u32(self.exchanges_reached);
        w.u64(self.dormant.to_sat());
    }
}

impl Decodable for TaintReport {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        // A WireMovement is at least 14 bytes (u32 + u8 + 2×u32 + count).
        let k = r.compact_size()?;
        if k > r.remaining() as u64 / 14 {
            return Err(DecodeError::OversizedCount(k));
        }
        let mut movements = Vec::with_capacity(k as usize);
        for _ in 0..k {
            movements.push(WireMovement::decode(r)?);
        }
        Ok(TaintReport {
            movements,
            pattern: r.string()?,
            to_exchanges: Amount::from_sat(r.u64()?),
            exchanges_reached: r.u32()?,
            dormant: Amount::from_sat(r.u64()?),
        })
    }
}

/// A balance-series sample ([`Response::BalancePoint`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BalanceReport {
    /// Block height of the sample.
    pub height: u64,
    /// Unix time of the sample.
    pub time: u64,
    /// Total supply at the sample.
    pub supply: Amount,
    /// Supply held by sink addresses at the sample.
    pub sink_held: Amount,
    /// Balance per category, sorted by category name.
    pub balances: Vec<(String, Amount)>,
}

impl BalanceReport {
    /// Active supply: total minus sink-held.
    pub fn active(&self) -> Amount {
        self.supply.saturating_sub(self.sink_held)
    }
}

impl From<&BalancePoint> for BalanceReport {
    fn from(p: &BalancePoint) -> BalanceReport {
        BalanceReport {
            height: p.height,
            time: p.time,
            supply: p.supply,
            sink_held: p.sink_held,
            // BTreeMap iteration is already name-sorted, so the wire bytes
            // are deterministic.
            balances: p.balances.iter().map(|(k, &v)| (k.clone(), v)).collect(),
        }
    }
}

impl Encodable for BalanceReport {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.height);
        w.u64(self.time);
        w.u64(self.supply.to_sat());
        w.u64(self.sink_held.to_sat());
        w.compact_size(self.balances.len() as u64);
        for (category, value) in &self.balances {
            w.string(category);
            w.u64(value.to_sat());
        }
    }
}

impl Decodable for BalanceReport {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let height = r.u64()?;
        let time = r.u64()?;
        let supply = Amount::from_sat(r.u64()?);
        let sink_held = Amount::from_sat(r.u64()?);
        // Each entry is at least 9 bytes (empty-string length + u64).
        let k = r.compact_size()?;
        if k > r.remaining() as u64 / 9 {
            return Err(DecodeError::OversizedCount(k));
        }
        let mut balances = Vec::with_capacity(k as usize);
        for _ in 0..k {
            balances.push((r.string()?, Amount::from_sat(r.u64()?)));
        }
        Ok(BalanceReport { height, time, supply, sink_held, balances })
    }
}

// ----- responses -----

/// Every answer the query service gives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Stats`].
    Stats(ServerStats),
    /// Answer to [`Request::AddressInfo`]; `None` when the snapshot does
    /// not cover the address.
    AddressInfo(Option<AddressReport>),
    /// Answer to [`Request::ClusterSummary`]; `None` for an unknown id.
    ClusterSummary(Option<ClusterReport>),
    /// Answer to [`Request::TaintTrace`].
    TaintTrace(TaintReport),
    /// Answer to [`Request::BalancePoint`]; `None` when the height
    /// precedes the first sample.
    BalancePoint(Option<BalanceReport>),
    /// Answer to [`Request::MetricsDump`]: the full metric snapshot.
    MetricsDump(MetricsDump),
    /// The request could not be served; the connection closes after this.
    Error(WireError),
}

fn encode_opt<T: Encodable>(w: &mut Writer, v: &Option<T>) {
    match v {
        None => w.u8(0),
        Some(v) => {
            w.u8(1);
            v.encode(w);
        }
    }
}

fn decode_opt<T: Decodable>(r: &mut Reader<'_>) -> Result<Option<T>, DecodeError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(T::decode(r)?)),
        other => Err(DecodeError::InvalidValue(other)),
    }
}

impl Response {
    /// Decodes a response payload; total on arbitrary bytes.
    pub fn decode_payload(payload: &[u8]) -> Result<Response, ServeError> {
        let mut r = Reader::new(payload);
        let resp = match r.u8()? {
            T_PING => Response::Pong,
            T_STATS => Response::Stats(ServerStats::decode(&mut r)?),
            T_ADDRESS_INFO => Response::AddressInfo(decode_opt(&mut r)?),
            T_CLUSTER_SUMMARY => Response::ClusterSummary(decode_opt(&mut r)?),
            T_TAINT_TRACE => Response::TaintTrace(TaintReport::decode(&mut r)?),
            T_BALANCE_POINT => Response::BalancePoint(decode_opt(&mut r)?),
            T_METRICS_DUMP => Response::MetricsDump(MetricsDump::decode(&mut r)?),
            T_ERROR => {
                let code = ErrorCode::from_byte(r.u8()?)?;
                Response::Error(WireError { code, message: r.string()? })
            }
            other => return Err(ServeError::UnknownMessage(other)),
        };
        r.finish()?;
        Ok(resp)
    }

    /// Decodes a *v1* response payload: identical to
    /// [`Response::decode_payload`] except that `Stats` carries the
    /// legacy 8-field body — what a pre-hot-swap client would parse.
    pub fn decode_payload_v1(payload: &[u8]) -> Result<Response, ServeError> {
        if payload.first() == Some(&T_STATS) {
            let mut r = Reader::new(payload);
            r.u8()?;
            let stats = ServerStats::decode_v1(&mut r)?;
            r.finish()?;
            return Ok(Response::Stats(stats));
        }
        Response::decode_payload(payload)
    }

    /// The complete frame for this response, stamped with epoch `0` —
    /// the frozen-artifact framing.
    pub fn to_frame(&self) -> Vec<u8> {
        self.to_frame_at(0)
    }

    /// The complete v2 frame for this response, stamped with the
    /// publishing artifact's epoch.
    pub fn to_frame_at(&self, epoch: u64) -> Vec<u8> {
        frame_at(&self.encode_to_vec(), epoch)
    }

    /// The complete legacy v1 frame for this response: no epoch field,
    /// and `Stats` in its 8-field v1 body — what the server answers v1
    /// connections with.
    pub fn to_frame_v1(&self) -> Vec<u8> {
        match self {
            Response::Stats(s) => {
                let mut w = Writer::new();
                w.u8(T_STATS);
                s.encode_v1(&mut w);
                frame_v1(&w.into_bytes())
            }
            _ => frame_v1(&self.encode_to_vec()),
        }
    }
}

impl Encodable for Response {
    fn encode(&self, w: &mut Writer) {
        match self {
            Response::Pong => w.u8(T_PING),
            Response::Stats(s) => {
                w.u8(T_STATS);
                s.encode(w);
            }
            Response::AddressInfo(v) => {
                w.u8(T_ADDRESS_INFO);
                encode_opt(w, v);
            }
            Response::ClusterSummary(v) => {
                w.u8(T_CLUSTER_SUMMARY);
                encode_opt(w, v);
            }
            Response::TaintTrace(t) => {
                w.u8(T_TAINT_TRACE);
                t.encode(w);
            }
            Response::BalancePoint(v) => {
                w.u8(T_BALANCE_POINT);
                encode_opt(w, v);
            }
            Response::MetricsDump(d) => {
                w.u8(T_METRICS_DUMP);
                d.encode(w);
            }
            Response::Error(e) => {
                w.u8(T_ERROR);
                w.u8(e.code as u8);
                w.string(&e.message);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Ping,
            Request::Stats,
            Request::AddressInfo { address: 42 },
            Request::ClusterSummary { cluster: 7 },
            Request::TaintTrace { loot: vec![(3, 0), (9, 2)], max_txs: 500 },
            Request::BalancePoint { height: 1234 },
            Request::MetricsDump,
        ]
    }

    fn sample_responses() -> Vec<Response> {
        let info = ClusterInfo {
            size: 3,
            received: Amount::from_sat(130),
            spent: Amount::from_sat(100),
            name: Some("Mt. Gox".into()),
            category: Some("exchange".into()),
        };
        vec![
            Response::Pong,
            Response::Stats(ServerStats {
                requests: 10,
                cache_hits: 4,
                cache_misses: 6,
                workers: 2,
                address_count: 100,
                tx_count: 50,
                cluster_count: 20,
                tip_height: 49,
                epoch: 3,
                swaps: 2,
                uptime_seconds: 86_400,
                requests_total: 10,
            }),
            Response::AddressInfo(None),
            Response::AddressInfo(Some(AddressReport { address: 1, cluster: 0, info: info.clone() })),
            Response::ClusterSummary(Some(ClusterReport { cluster: 0, info })),
            Response::TaintTrace(TaintReport {
                movements: vec![WireMovement {
                    tx: 5,
                    kind: MovementKind::Peel,
                    tainted_inputs: 1,
                    total_inputs: 1,
                    departures: vec![(8, Amount::from_sat(30))],
                }],
                pattern: "P".into(),
                to_exchanges: Amount::from_sat(30),
                exchanges_reached: 1,
                dormant: Amount::ZERO,
            }),
            Response::BalancePoint(Some(BalanceReport {
                height: 10,
                time: 6000,
                supply: Amount::from_sat(100),
                sink_held: Amount::from_sat(25),
                balances: vec![("exchange".into(), Amount::from_sat(40))],
            })),
            Response::BalancePoint(None),
            Response::MetricsDump(MetricsDump {
                counters: vec![
                    ("fistful_requests_total{type=\"ping\"}".into(), 9),
                    ("fistful_busy_sheds_total".into(), 0),
                ],
                gauges: vec![("fistful_connections".into(), 3)],
                histograms: vec![HistogramDump {
                    name: "fistful_request_latency_seconds{type=\"ping\"}".into(),
                    buckets: vec![4, 3, 2, 0],
                    sum_micros: 77,
                    count: 9,
                }],
            }),
            Response::Error(WireError { code: ErrorCode::Malformed, message: "nope".into() }),
            Response::Error(WireError { code: ErrorCode::Busy, message: "shed".into() }),
        ]
    }

    #[test]
    fn every_request_round_trips() {
        for req in sample_requests() {
            let payload = req.encode_to_vec();
            assert_eq!(Request::decode_payload(&payload).unwrap(), req);
            // And the v2 frame wraps the same payload after a zero epoch.
            let f = req.to_frame();
            let header = parse_frame_header(
                &f[..FRAME_HEADER_LEN].try_into().unwrap(),
                MAX_REQUEST_PAYLOAD,
            )
            .unwrap();
            assert_eq!(header.version, PROTOCOL_VERSION);
            assert_eq!(header.payload_len as usize, payload.len());
            assert_eq!(header.epoch_bytes(), FRAME_EPOCH_LEN);
            assert_eq!(
                &f[FRAME_HEADER_LEN..FRAME_HEADER_LEN + FRAME_EPOCH_LEN],
                &[0u8; FRAME_EPOCH_LEN]
            );
            assert_eq!(&f[FRAME_HEADER_LEN + FRAME_EPOCH_LEN..], &payload[..]);
        }
    }

    #[test]
    fn v2_frames_carry_the_epoch_and_v1_frames_do_not() {
        let payload = Request::Ping.encode_to_vec();
        let f2 = frame_at(&payload, 0xDEAD_BEEF_0123_4567);
        let header = parse_frame_header(
            &f2[..FRAME_HEADER_LEN].try_into().unwrap(),
            MAX_REQUEST_PAYLOAD,
        )
        .unwrap();
        assert_eq!(header, FrameHeader { version: PROTOCOL_VERSION, payload_len: 1 });
        let epoch_bytes: [u8; FRAME_EPOCH_LEN] =
            f2[FRAME_HEADER_LEN..FRAME_HEADER_LEN + FRAME_EPOCH_LEN].try_into().unwrap();
        assert_eq!(u64::from_le_bytes(epoch_bytes), 0xDEAD_BEEF_0123_4567);
        assert_eq!(&f2[FRAME_HEADER_LEN + FRAME_EPOCH_LEN..], &payload[..]);

        let f1 = frame_v1(&payload);
        let header = parse_frame_header(
            &f1[..FRAME_HEADER_LEN].try_into().unwrap(),
            MAX_REQUEST_PAYLOAD,
        )
        .unwrap();
        assert_eq!(header, FrameHeader { version: PROTOCOL_VERSION_V1, payload_len: 1 });
        assert_eq!(header.epoch_bytes(), 0);
        assert_eq!(&f1[FRAME_HEADER_LEN..], &payload[..]);
        // Same payload, different framing: v2 is exactly the epoch wider.
        assert_eq!(f2.len(), f1.len() + FRAME_EPOCH_LEN);
    }

    #[test]
    fn v1_stats_body_is_the_legacy_prefix() {
        let Response::Stats(stats) = sample_responses().remove(1) else {
            panic!("sample 1 is Stats")
        };
        let resp = Response::Stats(stats.clone());
        let v2 = resp.encode_to_vec();
        let f1 = resp.to_frame_v1();
        let v1_payload = &f1[FRAME_HEADER_LEN..];
        // The v1 body is the v2 body minus the trailing epoch + swaps +
        // uptime + requests_total.
        assert_eq!(v1_payload, &v2[..v2.len() - 32]);
        // A v1 decode recovers everything except the live fields.
        let decoded = Response::decode_payload_v1(v1_payload).unwrap();
        let expect = ServerStats { epoch: 0, swaps: 0, uptime_seconds: 0, requests_total: 0, ..stats };
        assert_eq!(decoded, Response::Stats(expect));
        // Non-stats payloads decode identically through the v1 path.
        for resp in sample_responses() {
            if matches!(resp, Response::Stats(_)) {
                continue;
            }
            let payload = resp.encode_to_vec();
            assert_eq!(Response::decode_payload_v1(&payload).unwrap(), resp);
        }
    }

    #[test]
    fn every_response_round_trips() {
        for resp in sample_responses() {
            let payload = resp.encode_to_vec();
            assert_eq!(Response::decode_payload(&payload).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn request_decoder_rejects_trailing_and_unknown() {
        let mut payload = Request::Ping.encode_to_vec();
        payload.push(0);
        assert_eq!(
            Request::decode_payload(&payload),
            Err(ServeError::Decode(DecodeError::TrailingBytes))
        );
        assert_eq!(Request::decode_payload(&[0x77]), Err(ServeError::UnknownMessage(0x77)));
        assert_eq!(
            Request::decode_payload(&[]),
            Err(ServeError::Decode(DecodeError::UnexpectedEnd))
        );
    }

    #[test]
    fn taint_loot_count_is_bounded_by_input() {
        // Declares 2^40 outpoints in a 20-byte payload.
        let mut w = Writer::new();
        w.u8(super::T_TAINT_TRACE);
        w.compact_size(1 << 40);
        let payload = w.into_bytes();
        assert!(matches!(
            Request::decode_payload(&payload),
            Err(ServeError::Decode(DecodeError::OversizedCount(_)))
        ));
    }

    #[test]
    fn frame_header_checks_in_order() {
        let bad_magic = *b"XSRV\x01\x00\x00\x00\x00";
        assert!(matches!(
            parse_frame_header(&bad_magic, MAX_REQUEST_PAYLOAD),
            Err(ServeError::BadMagic(_))
        ));
        let bad_version = *b"FSRV\x09\x00\x00\x00\x00";
        assert_eq!(
            parse_frame_header(&bad_version, MAX_REQUEST_PAYLOAD),
            Err(ServeError::UnsupportedVersion(9))
        );
        // Version 0 and the version after the current one are both out.
        for v in [0u8, PROTOCOL_VERSION + 1] {
            let mut h = *b"FSRV\x00\x00\x00\x00\x00";
            h[4] = v;
            assert_eq!(
                parse_frame_header(&h, MAX_REQUEST_PAYLOAD),
                Err(ServeError::UnsupportedVersion(v))
            );
        }
        let mut oversized = *b"FSRV\x02\x00\x00\x00\x00";
        oversized[5..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            parse_frame_header(&oversized, MAX_REQUEST_PAYLOAD),
            Err(ServeError::FrameTooLarge { len: u32::MAX, limit: MAX_REQUEST_PAYLOAD })
        );
        // Both live versions parse.
        let good_v2 = *b"FSRV\x02\x05\x00\x00\x00";
        assert_eq!(
            parse_frame_header(&good_v2, MAX_REQUEST_PAYLOAD),
            Ok(FrameHeader { version: 2, payload_len: 5 })
        );
        let good_v1 = *b"FSRV\x01\x05\x00\x00\x00";
        assert_eq!(
            parse_frame_header(&good_v1, MAX_REQUEST_PAYLOAD),
            Ok(FrameHeader { version: 1, payload_len: 5 })
        );
    }

    #[test]
    fn frame_prefix_scans_at_every_split_point() {
        // A v2 and a v1 frame back to back; the scanner must report the
        // exact shortfall at every possible prefix length, then yield the
        // first frame without touching the second.
        let req = Request::TaintTrace { loot: vec![(3, 0), (9, 2)], max_txs: 500 };
        let payload = req.encode_to_vec();
        let f2 = frame_at(&payload, 7);
        let f1 = frame_v1(&payload);
        let mut blob = f2.clone();
        blob.extend_from_slice(&f1);
        for cut in 0..f2.len() {
            let got = parse_frame_prefix(&blob[..cut], MAX_REQUEST_PAYLOAD).unwrap();
            let expect_needed = if cut < FRAME_HEADER_LEN {
                FRAME_HEADER_LEN - cut
            } else {
                f2.len() - cut
            };
            assert_eq!(got, FramePrefix::Incomplete { needed: expect_needed }, "cut {cut}");
        }
        // Any prefix holding the whole first frame yields it, whatever
        // fraction of the second frame rode along.
        for cut in f2.len()..=blob.len() {
            let got = parse_frame_prefix(&blob[..cut], MAX_REQUEST_PAYLOAD).unwrap();
            assert_eq!(
                got,
                FramePrefix::Complete {
                    version: PROTOCOL_VERSION,
                    payload: payload.clone(),
                    consumed: f2.len(),
                },
                "cut {cut}"
            );
        }
        // After draining the first frame, the v1 frame parses too (and its
        // total length differs by exactly the epoch field).
        let got = parse_frame_prefix(&blob[f2.len()..], MAX_REQUEST_PAYLOAD).unwrap();
        assert_eq!(
            got,
            FramePrefix::Complete {
                version: PROTOCOL_VERSION_V1,
                payload,
                consumed: f1.len(),
            }
        );
        assert_eq!(f2.len(), f1.len() + FRAME_EPOCH_LEN);
    }

    #[test]
    fn frame_prefix_rejects_bad_headers_without_the_body() {
        // Garbage magic fails as soon as the 9 header bytes are in, even
        // though the declared body never arrives.
        let bad_magic = b"XSRV\x02\x10\x00\x00\x00";
        assert!(matches!(
            parse_frame_prefix(&bad_magic[..], MAX_REQUEST_PAYLOAD),
            Err(ServeError::BadMagic(_))
        ));
        let bad_version = b"FSRV\x09\x00\x00\x00\x00";
        assert_eq!(
            parse_frame_prefix(&bad_version[..], MAX_REQUEST_PAYLOAD),
            Err(ServeError::UnsupportedVersion(9))
        );
        let mut oversized = *b"FSRV\x02\x00\x00\x00\x00";
        oversized[5..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            parse_frame_prefix(&oversized[..], MAX_REQUEST_PAYLOAD),
            Err(ServeError::FrameTooLarge { len: u32::MAX, limit: MAX_REQUEST_PAYLOAD })
        );
        // ...but an 8-byte prefix of the same garbage is still just
        // incomplete: rejection never happens before the header is whole.
        assert_eq!(
            parse_frame_prefix(&oversized[..8], MAX_REQUEST_PAYLOAD).unwrap(),
            FramePrefix::Incomplete { needed: 1 }
        );
        assert_eq!(
            parse_frame_prefix(&[], MAX_REQUEST_PAYLOAD).unwrap(),
            FramePrefix::Incomplete { needed: FRAME_HEADER_LEN }
        );
    }

    #[test]
    fn cacheability_is_by_type_byte() {
        for req in sample_requests() {
            let payload = req.encode_to_vec();
            let cacheable = Request::type_byte_is_cacheable(payload[0]);
            match req {
                // Ping and Stats are trivial; MetricsDump must always be
                // computed fresh (a cached scrape would freeze every
                // counter at its insert-time value).
                Request::Ping | Request::Stats | Request::MetricsDump => assert!(!cacheable),
                _ => assert!(cacheable, "{req:?}"),
            }
        }
    }

    #[test]
    fn wire_error_mapping_covers_framing_errors() {
        let cases = [
            (ServeError::BadMagic(*b"XXXX"), ErrorCode::BadMagic),
            (ServeError::UnsupportedVersion(9), ErrorCode::UnsupportedVersion),
            (ServeError::FrameTooLarge { len: 1, limit: 0 }, ErrorCode::FrameTooLarge),
            (ServeError::UnknownMessage(0x77), ErrorCode::UnknownRequest),
            (ServeError::InvalidRequest("x".into()), ErrorCode::InvalidRequest),
            (ServeError::Busy("cap".into()), ErrorCode::Busy),
            (ServeError::Decode(DecodeError::UnexpectedEnd), ErrorCode::Malformed),
        ];
        for (err, code) in cases {
            assert_eq!(WireError::from_serve_error(&err).code, code, "{err:?}");
        }
    }

    #[test]
    fn display_messages_are_distinct() {
        let errors = [
            ServeError::Io("broken pipe".into()),
            ServeError::BadMagic(*b"XXXX"),
            ServeError::UnsupportedVersion(9),
            ServeError::FrameTooLarge { len: 1, limit: 0 },
            ServeError::Truncated,
            ServeError::Closed,
            ServeError::Decode(DecodeError::UnexpectedEnd),
            ServeError::UnknownMessage(0x77),
            ServeError::InvalidRequest("x".into()),
            ServeError::Busy("x".into()),
            ServeError::Remote(WireError { code: ErrorCode::Malformed, message: "x".into() }),
            ServeError::UnexpectedResponse,
            ServeError::MismatchedArtifacts("x"),
        ];
        let mut seen = std::collections::HashSet::new();
        for e in errors {
            assert!(seen.insert(e.to_string()), "duplicate message for {e:?}");
        }
    }
}
