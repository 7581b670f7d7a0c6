//! A blocking client for the query service — one connection, many
//! requests, typed answers.

use crate::metrics::MetricsDump;
use crate::protocol::{
    frame, parse_frame_header, AddressReport, BalanceReport, ClusterReport, Request, Response,
    ServeError, ServerStats, TaintReport, FRAME_EPOCH_LEN, FRAME_HEADER_LEN, MAX_RESPONSE_PAYLOAD,
};
use fistful_chain::encode::Encodable;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// A connected query-service client.
///
/// Wraps one [`TcpStream`]; every call writes a request frame
/// and blocks for the matching response frame (the protocol is strictly
/// request/response, so no pipelining bookkeeping is needed). Response
/// frames carry the server's artifact epoch, kept available through
/// [`Client::last_epoch`] — under live ingest it is the generation the
/// answer was computed from. Typed helpers ([`Client::address_info`],
/// [`Client::taint_trace`], ...) unwrap the response variant and surface
/// [`Response::Error`] frames as [`ServeError::Remote`].
pub struct Client {
    stream: TcpStream,
    /// Epoch field of the most recent response frame (`0` before any
    /// response).
    last_epoch: u64,
}

impl Client {
    /// Connects to a server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client, ServeError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream, last_epoch: 0 })
    }

    /// The artifact epoch stamped on the most recent response frame
    /// (zero before the first response). A live server's epochs are
    /// nondecreasing over a connection's lifetime.
    pub fn last_epoch(&self) -> u64 {
        self.last_epoch
    }

    /// Sends a pre-encoded request payload and returns the raw response
    /// payload — the allocation-light path the load generator uses so
    /// that measurements cover the socket round trip, not client-side
    /// encoding.
    pub fn call_raw(&mut self, request_payload: &[u8]) -> Result<Vec<u8>, ServeError> {
        self.stream.write_all(&frame(request_payload))?;
        self.read_response_payload()
    }

    /// Reads exactly one response frame off the stream, updating
    /// [`Client::last_epoch`].
    fn read_response_payload(&mut self) -> Result<Vec<u8>, ServeError> {
        let mut header = [0u8; FRAME_HEADER_LEN];
        let mut filled = 0usize;
        while filled < FRAME_HEADER_LEN {
            match self.stream.read(&mut header[filled..])? {
                0 if filled == 0 => return Err(ServeError::Closed),
                0 => return Err(ServeError::Truncated),
                n => filled += n,
            }
        }
        let parsed = parse_frame_header(&header, MAX_RESPONSE_PAYLOAD)?;
        let mut epoch = [0u8; FRAME_EPOCH_LEN];
        let mut filled = 0usize;
        while filled < FRAME_EPOCH_LEN {
            match self.stream.read(&mut epoch[filled..])? {
                0 => return Err(ServeError::Truncated),
                n => filled += n,
            }
        }
        self.last_epoch = u64::from_le_bytes(epoch);
        let len = parsed.payload_len as usize;
        let mut payload = vec![0u8; len];
        let mut filled = 0usize;
        while filled < len {
            match self.stream.read(&mut payload[filled..])? {
                0 => return Err(ServeError::Truncated),
                n => filled += n,
            }
        }
        Ok(payload)
    }

    /// Sends a request and decodes the response.
    pub fn call(&mut self, request: &Request) -> Result<Response, ServeError> {
        Response::decode_payload(&self.call_raw(&request.encode_to_vec())?)
    }

    /// Sends every request as one coalesced write and reads the responses
    /// back in order — the pipelined path the event-driven serve loop is
    /// built for. [`Client::last_epoch`] ends at the final frame's epoch. Works against the threaded server too (it answers the
    /// buffered frames one at a time), which is exactly what the
    /// differential tests exploit.
    pub fn pipeline(&mut self, requests: &[Request]) -> Result<Vec<Response>, ServeError> {
        let mut blob = Vec::new();
        for request in requests {
            blob.extend_from_slice(&frame(&request.encode_to_vec()));
        }
        self.stream.write_all(&blob)?;
        let mut responses = Vec::with_capacity(requests.len());
        for _ in requests {
            responses.push(Response::decode_payload(&self.read_response_payload()?)?);
        }
        Ok(responses)
    }

    fn expect<T>(
        &mut self,
        request: &Request,
        pick: impl FnOnce(Response) -> Option<T>,
    ) -> Result<T, ServeError> {
        match self.call(request)? {
            Response::Error(e) => Err(ServeError::Remote(e)),
            other => pick(other).ok_or(ServeError::UnexpectedResponse),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ServeError> {
        self.expect(&Request::Ping, |r| matches!(r, Response::Pong).then_some(()))
    }

    /// Server counters and artifact dimensions.
    pub fn stats(&mut self) -> Result<ServerStats, ServeError> {
        self.expect(&Request::Stats, |r| match r {
            Response::Stats(s) => Some(s),
            _ => None,
        })
    }

    /// Cluster membership and aggregates for one address; `None` when the
    /// snapshot does not cover it.
    pub fn address_info(&mut self, address: u32) -> Result<Option<AddressReport>, ServeError> {
        self.expect(&Request::AddressInfo { address }, |r| match r {
            Response::AddressInfo(v) => Some(v),
            _ => None,
        })
    }

    /// Aggregates of one cluster; `None` for an unknown id.
    pub fn cluster_summary(&mut self, cluster: u32) -> Result<Option<ClusterReport>, ServeError> {
        self.expect(&Request::ClusterSummary { cluster }, |r| match r {
            Response::ClusterSummary(v) => Some(v),
            _ => None,
        })
    }

    /// A bounded taint walk from the given loot outpoints.
    pub fn taint_trace(
        &mut self,
        loot: &[(u32, u32)],
        max_txs: u32,
    ) -> Result<TaintReport, ServeError> {
        let request = Request::TaintTrace { loot: loot.to_vec(), max_txs };
        self.expect(&request, |r| match r {
            Response::TaintTrace(t) => Some(t),
            _ => None,
        })
    }

    /// A full snapshot of the server's metrics registry over the binary
    /// protocol — the same counters, gauges, and histograms the HTTP
    /// `/metrics` endpoint renders, without needing a second port.
    pub fn metrics_dump(&mut self) -> Result<MetricsDump, ServeError> {
        self.expect(&Request::MetricsDump, |r| match r {
            Response::MetricsDump(d) => Some(d),
            _ => None,
        })
    }

    /// The balance-series sample at or before `height`; `None` when the
    /// height precedes the first sample.
    pub fn balance_point(&mut self, height: u64) -> Result<Option<BalanceReport>, ServeError> {
        self.expect(&Request::BalancePoint { height }, |r| match r {
            Response::BalancePoint(v) => Some(v),
            _ => None,
        })
    }
}
