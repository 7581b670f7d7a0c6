//! The event-driven serve loop: one readiness thread multiplexing every
//! connection, the same worker pool answering requests.
//!
//! # Why a second loop
//!
//! The threaded server ([`crate::server`]) pins one connection to one
//! worker until it closes, so `workers` idle keep-alive clients starve
//! everyone queued behind them. An explorer-style workload is the
//! opposite shape: thousands of mostly-idle connections with occasional
//! bursts of pipelined requests. This module serves that shape with a
//! fixed thread count: a single loop thread owns **all** connection I/O
//! through the crate's thin `poll(2)` shim, and decoded requests are
//! handed to the worker pool over a bounded queue.
//!
//! ```text
//!            ┌────────────────────── loop thread ──────────────────────┐
//!            │ poll([listener, waker, conn…]) ── readiness             │
//!  accept ──▶│  listener readable → accept (cap-shed with Busy frame)  │
//!   bytes ──▶│  conn readable     → read_buf → parse_frame_prefix ──┐  │
//!            │  conn writable     → flush write_buf                 │  │
//!            │  tick (25 ms)      → timer wheel → Deadline verdicts │  │
//!            └──────────────▲───────────────────────────────────────┼──┘
//!                           │ completions (seq-ordered)             │ jobs
//!                           │   + waker byte                 bounded queue
//!                         ┌─┴─────────── worker pool ──────────────▼──┐
//!                         │ process_request(core, payload)            │
//!                         └───────────────────────────────────────────┘
//! ```
//!
//! # Pipelining and ordering
//!
//! A connection may have up to `max_pipelined` requests in flight;
//! workers answer them in any order, but responses are written back in
//! request order — each parsed frame gets a sequence number, completed
//! frames wait in a per-connection reorder map, and only the next
//! expected sequence is appended to the write buffer. The response byte
//! stream is therefore exactly what the threaded server would have
//! produced serving the same frames one at a time: both loops answer
//! through the shared [`crate::server`] request core.
//!
//! # Budgets and backpressure
//!
//! | pressure point            | budget                      | reaction                            |
//! |---------------------------|-----------------------------|-------------------------------------|
//! | open connections          | `max_connections`           | accept, answer typed `Busy`, close  |
//! | pipelined requests / conn | `max_pipelined`             | typed `Busy` at the offender, close |
//! | buffered bytes / conn     | `max_buffered`              | stop polling that socket readable   |
//! | dispatch queue            | `queue_depth`               | stop polling *all* sockets readable |
//! | idle connection           | keep-alive ticks (~60 s)    | close silently                      |
//! | stalled partial frame     | mid-frame ticks (~30 s)     | typed error frame, close            |
//!
//! Backpressure is admission control, not buffering: when the dispatch
//! queue is full the loop simply stops asking `poll` about readable data,
//! which leaves bytes in kernel socket buffers and ultimately closes the
//! TCP window — bounded memory no matter how many peers push.
//!
//! Deadlines ride the shared [`Deadline`] bookkeeping on a timer wheel
//! (25 ms slots): instead of one blocking read-with-timeout per thread,
//! each connection schedules its next check `remaining_ticks` ahead and
//! is re-examined only then — idle connections cost one wheel visit per
//! deadline period, not a thread.
//!
//! Everything else — epoch-pinned artifact generations per request, the
//! epoch-stamped response cache, hot-swap publishes via [`Publisher`],
//! draining shutdown — is inherited from the shared
//! core, so a [`LivePipeline`](crate::live::LivePipeline) drives this
//! server exactly as it drives the threaded one.

use crate::conn::{Deadline, DeadlineVerdict, KEEP_ALIVE_TICKS, STALLED_READ_TICKS, TICK};
use crate::protocol::{
    parse_frame_prefix, FramePrefix, ServeError, ServerStats, MAX_REQUEST_PAYLOAD,
};
use crate::server::{
    framing_error_frame, process_request, stalled_read_error, Core, MetricsHandle, Published,
    Publisher, ServeArtifacts, ServeConfig,
};
use crate::sys::{self, PollFd, POLLIN, POLLOUT};
use fistful_flow::graph::TaintScratch;
use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// How many ticks a closing connection's FIN-drain may run before the
/// socket is dropped — the event-loop twin of the threaded server's
/// 8-round graceful close.
const DRAIN_TICKS: u64 = 8;

/// Timer-wheel size in slots (of [`TICK`] each). Deadlines longer than
/// the wheel simply re-arm when their slot fires early.
const WHEEL_SLOTS: usize = 256;

/// Event-server configuration: the request-serving knobs of
/// [`ServeConfig`] plus the per-connection budgets the readiness loop
/// enforces.
#[derive(Debug, Clone)]
pub struct EventServeConfig {
    /// Address to bind, e.g. `"127.0.0.1:0"` for an ephemeral port.
    pub addr: String,
    /// Worker threads answering requests. `0` means one per core.
    pub workers: usize,
    /// Total response-cache entries across all shards; `0` disables the
    /// cache.
    pub cache_entries: usize,
    /// Server-side ceiling on a taint request's `max_txs` walk bound.
    pub max_taint_txs: usize,
    /// Open-connection cap: accepts beyond it are answered with a typed
    /// `Busy` error frame and closed.
    pub max_connections: usize,
    /// Most requests one connection may have in flight; the request that
    /// exceeds it is answered with a typed `Busy` error and the
    /// connection closes (after every in-budget response is delivered).
    pub max_pipelined: usize,
    /// Most bytes one connection may hold buffered (unparsed input plus
    /// unflushed output) before the loop stops polling it readable.
    pub max_buffered: usize,
    /// Dispatch-queue capacity. A full queue stops *all* readable
    /// polling — admission control instead of unbounded buffering.
    pub queue_depth: usize,
    /// Mid-frame stall deadline in ticks (default
    /// [`STALLED_READ_TICKS`]); tests shrink it to observe expiry fast.
    pub stalled_ticks: u32,
    /// Idle keep-alive deadline in ticks (default [`KEEP_ALIVE_TICKS`]).
    pub keep_alive_ticks: u32,
}

impl Default for EventServeConfig {
    fn default() -> EventServeConfig {
        EventServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            cache_entries: 4096,
            max_taint_txs: 5_000,
            max_connections: 4096,
            max_pipelined: 64,
            max_buffered: 1 << 20,
            queue_depth: 1024,
            stalled_ticks: STALLED_READ_TICKS,
            keep_alive_ticks: KEEP_ALIVE_TICKS,
        }
    }
}

impl From<ServeConfig> for EventServeConfig {
    /// The event-loop counterpart of a threaded-server configuration:
    /// same address, workers, cache, and taint ceiling; default budgets.
    fn from(c: ServeConfig) -> EventServeConfig {
        EventServeConfig {
            addr: c.addr,
            workers: c.workers,
            cache_entries: c.cache_entries,
            max_taint_txs: c.max_taint_txs,
            ..EventServeConfig::default()
        }
    }
}

/// One decoded request on its way to the worker pool.
struct Job {
    conn: usize,
    gen: u64,
    seq: u64,
    payload: Vec<u8>,
    /// The artifact generation pinned when the frame was parsed. The loop
    /// thread pins in request order, so however the workers race, one
    /// connection's pipelined responses never step back an epoch.
    published: Arc<Published>,
    /// When the frame finished parsing — dispatch-queue wait time is
    /// measured from here to the worker's pop.
    queued: Instant,
}

/// One answered request on its way back to the loop thread.
struct Completion {
    conn: usize,
    gen: u64,
    seq: u64,
    framed: Vec<u8>,
    close_after: bool,
}

/// The bounded queue between the loop thread and the worker pool, plus
/// the completion mailbox travelling the other way.
struct Dispatch {
    jobs: Mutex<VecDeque<Job>>,
    available: Condvar,
    /// Set by the loop thread on exit; workers drain the queue, then stop.
    finished: AtomicBool,
    done: Mutex<Vec<Completion>>,
}

impl Dispatch {
    fn new() -> Dispatch {
        Dispatch {
            jobs: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            finished: AtomicBool::new(false),
            done: Mutex::new(Vec::new()),
        }
    }
}

/// One worker: pop decoded requests, answer through the shared core,
/// post the framed response back, poke the waker.
fn event_worker_loop(core: &Core, dispatch: &Dispatch, waker: &TcpStream) {
    let mut scratch = TaintScratch::for_graph(&core.current().artifacts.graph);
    loop {
        let job = {
            let mut jobs = dispatch.jobs.lock().expect("jobs poisoned");
            loop {
                if let Some(job) = jobs.pop_front() {
                    break Some(job);
                }
                if dispatch.finished.load(Ordering::SeqCst) {
                    break None;
                }
                jobs = dispatch.available.wait_timeout(jobs, TICK).expect("jobs poisoned").0;
            }
        };
        let Some(job) = job else { return };
        core.metrics.dispatch_wait.observe(job.queued.elapsed());
        let (framed, close_after) =
            process_request(core, &job.published, job.payload, &mut scratch);
        dispatch.done.lock().expect("done poisoned").push(Completion {
            conn: job.conn,
            gen: job.gen,
            seq: job.seq,
            framed,
            close_after,
        });
        // Wake the loop thread out of poll(). A full pipe already wakes
        // it, so a failed nonblocking write is not a lost wakeup.
        let _ = (&mut { waker }).write(&[1u8]);
    }
}

/// Per-connection state owned by the loop thread.
struct Conn {
    stream: TcpStream,
    /// Generation stamp: jobs and completions carry it so answers for a
    /// closed connection can never reach a successor reusing its slot.
    gen: u64,
    /// Unparsed request bytes; `read_pos` marks how much the frame
    /// scanner has consumed (compacted after each parse pass).
    read_buf: Vec<u8>,
    read_pos: usize,
    /// Unflushed response bytes; `write_pos` marks how much the socket
    /// has taken.
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Next sequence number to assign to a parsed request.
    next_seq: u64,
    /// The sequence whose response is next in line for the write buffer.
    next_write: u64,
    /// Parsed requests not yet promoted into the write buffer.
    outstanding: usize,
    /// Parsed but undispatched jobs, waiting for dispatch-queue space.
    held: VecDeque<Job>,
    /// Completed responses that arrived ahead of their turn.
    ready: BTreeMap<u64, (Vec<u8>, bool)>,
    deadline: Deadline,
    /// Loop tick of the last byte of socket progress (either direction).
    last_activity: u64,
    /// No more requests will be parsed (EOF, error queued, or shutdown).
    read_closed: bool,
    /// The peer half-closed (FIN seen); owed responses still go out.
    peer_eof: bool,
    /// Close once every owed response is flushed.
    close_when_flushed: bool,
    /// A close-after response was promoted: later pipelined requests are
    /// abandoned, exactly like the threaded loop closing mid-pipeline.
    closing: bool,
    /// FIN sent; discarding peer bytes until clean close or budget.
    draining: bool,
    drain_started: u64,
    drained: usize,
    /// The tick of this connection's *live* wheel entry: entries that
    /// fire at any other tick are superseded leftovers and are skipped
    /// without re-arming (the wheel cannot cancel, so re-arming earlier
    /// just strands the old entry).
    next_fire: u64,
}

impl Conn {
    fn new(stream: TcpStream, gen: u64, now: u64, cfg: &EventServeConfig) -> Conn {
        Conn {
            stream,
            gen,
            read_buf: Vec::new(),
            read_pos: 0,
            write_buf: Vec::new(),
            write_pos: 0,
            next_seq: 0,
            next_write: 0,
            outstanding: 0,
            held: VecDeque::new(),
            ready: BTreeMap::new(),
            deadline: Deadline::with_limits(
                cfg.stalled_ticks.max(1),
                cfg.keep_alive_ticks.max(1),
            ),
            last_activity: now,
            read_closed: false,
            peer_eof: false,
            close_when_flushed: false,
            closing: false,
            draining: false,
            drain_started: 0,
            drained: 0,
            next_fire: 0,
        }
    }

    fn write_pending(&self) -> bool {
        self.write_pos < self.write_buf.len()
    }

    fn buffered(&self) -> usize {
        (self.read_buf.len() - self.read_pos) + (self.write_buf.len() - self.write_pos)
    }

    /// Fully settled: nothing owed in either direction.
    fn settled(&self) -> bool {
        !self.write_pending()
            && self.outstanding == 0
            && self.held.is_empty()
            && self.ready.is_empty()
    }
}

/// The hashed-by-time expiry structure: each slot holds the connections
/// whose next deadline check lands on that tick. Entries are lazy — a
/// fired entry re-arms from the connection's *current* deadline state, so
/// progress never has to unschedule anything.
struct Wheel {
    slots: Vec<Vec<(usize, u64)>>,
    cursor: usize,
}

impl Wheel {
    fn new() -> Wheel {
        Wheel { slots: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(), cursor: 0 }
    }

    fn schedule(&mut self, ticks_ahead: u32, conn: usize, gen: u64) {
        let ahead = (ticks_ahead.max(1) as usize).min(WHEEL_SLOTS - 1);
        let slot = (self.cursor + ahead) % WHEEL_SLOTS;
        self.slots[slot].push((conn, gen));
    }

    fn advance(&mut self) -> Vec<(usize, u64)> {
        self.cursor = (self.cursor + 1) % WHEEL_SLOTS;
        std::mem::take(&mut self.slots[self.cursor])
    }
}

/// Which poll-set entry a readiness bit belongs to.
enum Token {
    Waker,
    Listener,
    Conn(usize),
}

struct EventLoop {
    core: Arc<Core>,
    dispatch: Arc<Dispatch>,
    cfg: EventServeConfig,
    listener: Option<TcpListener>,
    waker_rx: TcpStream,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    active: usize,
    next_gen: u64,
    wheel: Wheel,
    tick: u64,
    shutting_down: bool,
    scratch: Vec<u8>,
}

impl EventLoop {
    fn run(mut self) {
        let started = Instant::now();
        let mut fds: Vec<PollFd> = Vec::new();
        let mut tokens: Vec<Token> = Vec::new();
        loop {
            if self.core.shutdown_requested() && !self.shutting_down {
                self.begin_shutdown();
            }
            if self.shutting_down && self.active == 0 {
                break;
            }

            fds.clear();
            tokens.clear();
            fds.push(PollFd::new(self.waker_rx.as_raw_fd(), POLLIN));
            tokens.push(Token::Waker);
            if let Some(listener) = &self.listener {
                fds.push(PollFd::new(listener.as_raw_fd(), POLLIN));
                tokens.push(Token::Listener);
            }
            let depth = self.dispatch.jobs.lock().expect("jobs poisoned").len();
            self.core.metrics.queue_depth.set(depth as u64);
            let backpressure = depth >= self.cfg.queue_depth;
            if backpressure {
                self.core.metrics.backpressure_stalls.inc();
            }
            for (idx, slot) in self.conns.iter().enumerate() {
                let Some(conn) = slot else { continue };
                let mut events = 0;
                // Draining connections always read (discarding toward
                // FIN); live ones read only while under every budget.
                let wants_read = conn.draining
                    || (!conn.read_closed
                        && !backpressure
                        && conn.held.is_empty()
                        && conn.outstanding < self.cfg.max_pipelined
                        && conn.buffered() < self.cfg.max_buffered);
                if wants_read {
                    events |= POLLIN;
                }
                if conn.write_pending() {
                    events |= POLLOUT;
                }
                if events != 0 {
                    fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
                    tokens.push(Token::Conn(idx));
                }
            }

            // Sleep at most to the next tick boundary so the timer wheel
            // keeps 25 ms granularity whatever the socket activity.
            let elapsed_ms = started.elapsed().as_millis() as u64;
            let tick_ms = TICK.as_millis() as u64;
            let next_tick_ms = (self.tick + 1) * tick_ms;
            let timeout_ms = next_tick_ms.saturating_sub(elapsed_ms).min(tick_ms) as i32;
            if sys::poll_fds(&mut fds, timeout_ms).is_err() {
                // A failing poll (it should never) must not spin the CPU.
                std::thread::sleep(TICK);
            }

            let now_ticks = started.elapsed().as_millis() as u64 / tick_ms;
            while self.tick < now_ticks {
                self.tick += 1;
                for (idx, gen) in self.wheel.advance() {
                    self.check_deadline(idx, gen);
                }
            }

            for (i, token) in tokens.iter().enumerate() {
                match token {
                    Token::Waker => {
                        if fds[i].readable() {
                            // Coalesce however many wake bytes piled up.
                            let mut sink = [0u8; 64];
                            while matches!(self.waker_rx.read(&mut sink), Ok(n) if n > 0) {}
                        }
                    }
                    Token::Listener => {
                        if fds[i].readable() {
                            self.accept_ready();
                        }
                    }
                    Token::Conn(idx) => {
                        let idx = *idx;
                        if fds[i].readable() {
                            self.conn_readable(idx);
                        }
                        if fds[i].writable() {
                            self.pump_write(idx);
                        }
                    }
                }
            }

            self.apply_completions();
            self.dispatch_held();
        }
        // Loop is done: let workers drain the remaining queue and stop.
        self.dispatch.finished.store(true, Ordering::SeqCst);
        self.dispatch.available.notify_all();
    }

    /// Installs an accepted socket into the slab and arms its keep-alive.
    fn install(&mut self, stream: TcpStream) -> usize {
        let gen = self.next_gen;
        self.next_gen += 1;
        let conn = Conn::new(stream, gen, self.tick, &self.cfg);
        let remaining = conn.deadline.remaining_ticks(false);
        let idx = match self.free.pop() {
            Some(idx) => {
                self.conns[idx] = Some(conn);
                idx
            }
            None => {
                self.conns.push(Some(conn));
                self.conns.len() - 1
            }
        };
        self.active += 1;
        self.core.metrics.connections.inc();
        self.arm(idx, remaining);
        idx
    }

    /// Schedules the connection's next deadline check `ticks_ahead` out
    /// and records it as the live entry (see [`Conn::next_fire`]). The
    /// wheel clamps long horizons to its span; a clamped check simply
    /// observes nothing due and re-arms.
    fn arm(&mut self, idx: usize, ticks_ahead: u32) {
        let ahead = (ticks_ahead.max(1) as usize).min(WHEEL_SLOTS - 1);
        let Some(conn) = self.conns[idx].as_mut() else { return };
        conn.next_fire = self.tick + ahead as u64;
        let gen = conn.gen;
        self.wheel.schedule(ahead as u32, idx, gen);
    }

    fn drop_conn(&mut self, idx: usize) {
        if self.conns[idx].take().is_some() {
            self.free.push(idx);
            self.active -= 1;
            self.core.metrics.connections.dec();
        }
    }

    /// Accepts until the backlog is empty. Beyond the connection cap the
    /// socket is still accepted — leaving it in the backlog would just
    /// hide the pressure — but is answered with a typed `Busy` frame and
    /// closed instead of being served.
    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else { return };
            match listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nonblocking(true);
                    let _ = stream.set_nodelay(true);
                    let shed = self.active >= self.cfg.max_connections;
                    let idx = self.install(stream);
                    if shed {
                        self.core.metrics.busy_sheds.inc();
                        let e = ServeError::Busy(format!(
                            "connection limit of {} reached; retry later",
                            self.cfg.max_connections
                        ));
                        self.queue_error(idx, e);
                        self.pump_write(idx);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    /// Queues a typed error frame at the tail of the response order and
    /// stops parsing; the connection closes once it is delivered.
    fn queue_error(&mut self, idx: usize, e: ServeError) {
        let framed = framing_error_frame(&self.core, &e);
        let Some(conn) = self.conns[idx].as_mut() else { return };
        let seq = conn.next_seq;
        conn.next_seq += 1;
        conn.outstanding += 1;
        conn.ready.insert(seq, (framed, true));
        conn.read_closed = true;
    }

    /// Handles a readable connection: one bounded read, then the frame
    /// scanner, then dispatch.
    fn conn_readable(&mut self, idx: usize) {
        {
            let Some(conn) = self.conns[idx].as_mut() else { return };
            if conn.draining {
                // FIN already sent: discard whatever the peer still had in
                // flight, bounded in bytes here and in ticks by the wheel.
                loop {
                    match conn.stream.read(&mut self.scratch) {
                        Ok(0) => {
                            self.drop_conn(idx);
                            return;
                        }
                        Ok(n) => {
                            conn.drained += n;
                            if conn.drained > MAX_REQUEST_PAYLOAD as usize {
                                self.drop_conn(idx);
                                return;
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(_) => {
                            self.drop_conn(idx);
                            return;
                        }
                    }
                }
            }
            if conn.read_closed {
                return;
            }
            match conn.stream.read(&mut self.scratch) {
                Ok(0) => conn.peer_eof = true,
                Ok(n) => {
                    conn.read_buf.extend_from_slice(&self.scratch[..n]);
                    conn.last_activity = self.tick;
                    conn.deadline.progress();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => return,
                Err(_) => {
                    self.drop_conn(idx);
                    return;
                }
            }
        }
        self.parse_frames(idx);
    }

    /// Runs the frame scanner over the unparsed bytes, enforcing the
    /// pipelining budget, and queues the resulting jobs.
    fn parse_frames(&mut self, idx: usize) {
        let max_pipelined = self.cfg.max_pipelined;
        let mut jobs: Vec<Job> = Vec::new();
        let mut error: Option<ServeError> = None;
        let mut pinned: Option<Arc<Published>> = None;
        {
            let Some(conn) = self.conns[idx].as_mut() else { return };
            loop {
                if conn.read_closed || conn.closing {
                    break;
                }
                match parse_frame_prefix(&conn.read_buf[conn.read_pos..], MAX_REQUEST_PAYLOAD) {
                    Ok(FramePrefix::Incomplete { .. }) => break,
                    Ok(FramePrefix::Complete { payload, consumed }) => {
                        if conn.outstanding + jobs.len() >= max_pipelined {
                            // The offending request is rejected with a
                            // typed error *after* every in-budget response.
                            self.core.metrics.busy_sheds.inc();
                            error = Some(ServeError::Busy(format!(
                                "pipelined request limit of {max_pipelined} exceeded"
                            )));
                            break;
                        }
                        conn.read_pos += consumed;
                        let seq = conn.next_seq;
                        conn.next_seq += 1;
                        let published = pinned.get_or_insert_with(|| self.core.current());
                        jobs.push(Job {
                            conn: idx,
                            gen: conn.gen,
                            seq,
                            payload,
                            published: Arc::clone(published),
                            queued: Instant::now(),
                        });
                    }
                    Err(e) => {
                        error = Some(e);
                        break;
                    }
                }
            }
            conn.outstanding += jobs.len();
            if conn.read_pos > 0 {
                conn.read_buf.drain(..conn.read_pos);
                conn.read_pos = 0;
            }
            if error.is_some() {
                // The stream cannot be resynced after a framing error (or
                // budget rejection); whatever else was buffered is dead.
                conn.read_buf.clear();
            } else if conn.peer_eof && !conn.read_closed {
                if conn.read_buf.is_empty() {
                    // Clean half-close: the peer FIN'd at a frame
                    // boundary; deliver every owed response, then close.
                    conn.read_closed = true;
                    conn.close_when_flushed = true;
                } else {
                    // FIN mid-frame: the partial frame can never
                    // complete.
                    error = Some(ServeError::Truncated);
                    conn.read_buf.clear();
                }
            }
        }
        self.enqueue_jobs(idx, jobs);
        if let Some(e) = error {
            self.queue_error(idx, e);
        }
        self.pump_write(idx);
        // A partial frame is now on the clock: the live wheel entry may
        // be armed for the (much longer) keep-alive horizon, so bring the
        // next check forward to the mid-frame deadline.
        let mid_frame_check = self.conns[idx].as_ref().and_then(|c| {
            (!c.draining && !c.read_closed && !c.read_buf.is_empty())
                .then(|| c.deadline.remaining_ticks(true))
        });
        if let Some(ticks) = mid_frame_check {
            self.arm(idx, ticks);
        }
    }

    /// Pushes jobs into the dispatch queue up to its depth; the rest wait
    /// on the connection (which then stops being polled readable).
    fn enqueue_jobs(&mut self, idx: usize, jobs: Vec<Job>) {
        if jobs.is_empty() {
            return;
        }
        let mut overflow: VecDeque<Job> = VecDeque::new();
        {
            let held_already = self.conns[idx].as_ref().is_some_and(|c| !c.held.is_empty());
            let mut queue = self.dispatch.jobs.lock().expect("jobs poisoned");
            for job in jobs {
                // Jobs behind an already-held one must stay behind it
                // (order!), and a full queue holds too — unless shutdown
                // is force-draining everything.
                let hold = held_already
                    || (!self.shutting_down && queue.len() >= self.cfg.queue_depth);
                if hold {
                    overflow.push_back(job);
                } else {
                    queue.push_back(job);
                    self.dispatch.available.notify_one();
                }
            }
        }
        if !overflow.is_empty() {
            if let Some(conn) = self.conns[idx].as_mut() {
                conn.held.append(&mut overflow);
            }
        }
    }

    /// Moves held jobs into the dispatch queue as space frees up.
    fn dispatch_held(&mut self) {
        let depth = self.cfg.queue_depth;
        let mut queue = self.dispatch.jobs.lock().expect("jobs poisoned");
        for slot in self.conns.iter_mut() {
            if queue.len() >= depth {
                return;
            }
            let Some(conn) = slot else { continue };
            while !conn.held.is_empty() && queue.len() < depth {
                queue.push_back(conn.held.pop_front().expect("nonempty"));
                self.dispatch.available.notify_one();
            }
        }
    }

    /// Collects worker completions into each connection's reorder map and
    /// flushes whatever became promotable.
    fn apply_completions(&mut self) {
        let done = std::mem::take(&mut *self.dispatch.done.lock().expect("done poisoned"));
        for c in done {
            let landed = match self.conns.get_mut(c.conn).and_then(Option::as_mut) {
                Some(conn) if conn.gen == c.gen && !conn.closing && !conn.draining => {
                    conn.ready.insert(c.seq, (c.framed, c.close_after));
                    true
                }
                _ => false,
            };
            if landed {
                self.pump_write(c.conn);
            }
        }
    }

    /// Promotes in-order completions into the write buffer and writes as
    /// much as the socket takes; closes when a finished connection is
    /// fully flushed.
    fn pump_write(&mut self, idx: usize) {
        let mut dead = false;
        let mut close_now = false;
        {
            let Some(conn) = self.conns[idx].as_mut() else { return };
            if conn.draining {
                return;
            }
            while !conn.closing {
                let Some((framed, close_after)) = conn.ready.remove(&conn.next_write) else {
                    break;
                };
                conn.write_buf.extend_from_slice(&framed);
                conn.next_write += 1;
                conn.outstanding = conn.outstanding.saturating_sub(1);
                if close_after {
                    // Anything pipelined behind this response is
                    // abandoned — the threaded loop closes at exactly the
                    // same point.
                    conn.closing = true;
                    conn.read_closed = true;
                    conn.close_when_flushed = true;
                    conn.held.clear();
                    conn.ready.clear();
                    conn.outstanding = 0;
                    conn.read_buf.clear();
                    conn.read_pos = 0;
                }
            }
            while conn.write_pending() {
                let span = &conn.write_buf[conn.write_pos..];
                match conn.stream.write(span) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(n) => {
                        conn.write_pos += n;
                        conn.last_activity = self.tick;
                        conn.deadline.progress();
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            if !dead && !conn.write_pending() {
                conn.write_buf.clear();
                conn.write_pos = 0;
                if conn.close_when_flushed && conn.settled() {
                    close_now = true;
                }
            }
        }
        if dead {
            self.drop_conn(idx);
        } else if close_now {
            self.begin_close(idx);
        }
    }

    /// Ends a connection whose last owed byte has been flushed: if the
    /// peer already FIN'd there is nothing left to say; otherwise
    /// half-close and drain briefly so the final frame is not torn off by
    /// an RST — the event-loop twin of the threaded graceful close.
    fn begin_close(&mut self, idx: usize) {
        let start_drain = {
            let Some(conn) = self.conns[idx].as_mut() else { return };
            if conn.peer_eof {
                false
            } else {
                let _ = conn.stream.shutdown(std::net::Shutdown::Write);
                conn.draining = true;
                conn.drain_started = self.tick;
                conn.drained = 0;
                true
            }
        };
        if start_drain {
            self.arm(idx, 1);
        } else {
            self.drop_conn(idx);
        }
    }

    /// A timer-wheel slot fired for this connection: re-derive the
    /// deadline verdict from its current state and either act or re-arm.
    fn check_deadline(&mut self, idx: usize, gen: u64) {
        enum Action {
            Drop,
            Rearm(u32),
            Stalled,
        }
        let action = {
            let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else { return };
            if conn.gen != gen || self.tick < conn.next_fire {
                // A different connection reused the slot, or a newer arm
                // superseded this entry — its successor will do the check.
                return;
            }
            if conn.draining {
                let since = self.tick.saturating_sub(conn.drain_started);
                if since >= DRAIN_TICKS {
                    Action::Drop
                } else {
                    Action::Rearm((DRAIN_TICKS - since) as u32)
                }
            } else {
                let idle =
                    u32::try_from(self.tick.saturating_sub(conn.last_activity)).unwrap_or(u32::MAX);
                if conn.write_pending() {
                    // Writes owed and the socket is not taking them: the
                    // stall limit bounds how long we hold the buffers.
                    if idle >= self.cfg.stalled_ticks.max(1) {
                        self.core.metrics.stall_expirations.inc();
                        Action::Drop
                    } else {
                        Action::Rearm(self.cfg.stalled_ticks.max(1) - idle)
                    }
                } else if conn.outstanding > 0 || !conn.held.is_empty() {
                    // Requests are in flight at the workers (or awaiting
                    // dispatch); the peer owes us nothing, so the clocks
                    // do not run against it.
                    conn.last_activity = self.tick;
                    conn.deadline.progress();
                    Action::Rearm(conn.deadline.remaining_ticks(false))
                } else {
                    let mid_frame = !conn.read_buf.is_empty();
                    match conn.deadline.advance_to(idle, mid_frame) {
                        DeadlineVerdict::Wait => {
                            Action::Rearm(conn.deadline.remaining_ticks(mid_frame))
                        }
                        DeadlineVerdict::KeepAliveExpired => {
                            self.core.metrics.idle_expirations.inc();
                            Action::Drop
                        }
                        DeadlineVerdict::MidFrameStalled => {
                            self.core.metrics.stall_expirations.inc();
                            conn.read_buf.clear();
                            conn.read_pos = 0;
                            Action::Stalled
                        }
                    }
                }
            }
        };
        match action {
            Action::Drop => self.drop_conn(idx),
            Action::Rearm(ticks) => self.arm(idx, ticks),
            Action::Stalled => {
                self.queue_error(idx, stalled_read_error());
                self.pump_write(idx);
                // Keep watching: the error frame's own delivery is now
                // bounded by the write-stall branch above.
                self.arm(idx, self.cfg.stalled_ticks.max(1));
            }
        }
    }

    /// Begins the draining shutdown: stop accepting, stop reading, answer
    /// everything already parsed, flush, close. Idle connections drop
    /// immediately; the loop exits when the last connection is gone.
    fn begin_shutdown(&mut self) {
        self.shutting_down = true;
        self.listener = None;
        let mut idle = Vec::new();
        for (idx, slot) in self.conns.iter_mut().enumerate() {
            let Some(conn) = slot else { continue };
            if conn.draining {
                continue;
            }
            conn.read_closed = true;
            // Unparsed bytes are requests the server never read; the
            // threaded loop drops those at shutdown too.
            conn.read_buf.clear();
            conn.read_pos = 0;
            if conn.settled() {
                idle.push(idx);
            } else {
                conn.close_when_flushed = true;
            }
        }
        for idx in idle {
            self.drop_conn(idx);
        }
        // Already-parsed requests are in-flight work and must drain:
        // force-dispatch them past the depth limit.
        let mut queue = self.dispatch.jobs.lock().expect("jobs poisoned");
        for slot in self.conns.iter_mut() {
            let Some(conn) = slot else { continue };
            while let Some(job) = conn.held.pop_front() {
                queue.push_back(job);
                self.dispatch.available.notify_one();
            }
        }
        drop(queue);
        self.dispatch.available.notify_all();
    }
}

/// Builds the self-wake channel: a loopback TCP pair whose read side sits
/// in the poll set and whose write side is cloned into every worker.
fn waker_pair() -> std::io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let tx = TcpStream::connect(listener.local_addr()?)?;
    let (rx, _) = listener.accept()?;
    tx.set_nonblocking(true)?;
    tx.set_nodelay(true)?;
    rx.set_nonblocking(true)?;
    Ok((tx, rx))
}

/// A running event-driven query server. Protocol-compatible with
/// [`crate::server::Server`] — same artifacts, same cache, same epochs,
/// same bytes — but multiplexing every connection on one readiness loop.
/// Dropping the handle shuts the server down; call
/// [`EventServer::shutdown`] to do it explicitly and observe completion.
pub struct EventServer {
    core: Arc<Core>,
    local_addr: SocketAddr,
    waker: TcpStream,
    loop_handle: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl EventServer {
    /// Binds the listener and spawns the loop thread and worker pool.
    pub fn start(
        config: EventServeConfig,
        artifacts: Arc<ServeArtifacts>,
    ) -> Result<EventServer, ServeError> {
        let listener = TcpListener::bind(&config.addr)?;
        EventServer::start_with_listener(listener, config, artifacts)
    }

    /// Like [`EventServer::start`], but serves on an already-bound
    /// listener (`config.addr` is ignored) — the bind-early path shared
    /// with the threaded server.
    pub fn start_with_listener(
        listener: TcpListener,
        config: EventServeConfig,
        artifacts: Arc<ServeArtifacts>,
    ) -> Result<EventServer, ServeError> {
        if !sys::supported() {
            return Err(ServeError::Io(
                "the event-driven serve loop needs poll(2); use the threaded server".into(),
            ));
        }
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let workers = if config.workers == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            config.workers
        };
        let core = Arc::new(Core::new(
            workers as u32,
            config.cache_entries,
            config.max_taint_txs,
            artifacts,
        ));
        let dispatch = Arc::new(Dispatch::new());
        let (waker_tx, waker_rx) = waker_pair()?;

        let worker_handles = (0..workers)
            .map(|_| {
                let core = Arc::clone(&core);
                let dispatch = Arc::clone(&dispatch);
                let waker = waker_tx.try_clone()?;
                Ok(std::thread::spawn(move || event_worker_loop(&core, &dispatch, &waker)))
            })
            .collect::<Result<Vec<_>, std::io::Error>>()?;

        let event_loop = EventLoop {
            core: Arc::clone(&core),
            dispatch,
            cfg: EventServeConfig {
                max_connections: config.max_connections.max(1),
                max_pipelined: config.max_pipelined.max(1),
                max_buffered: config.max_buffered.max(MAX_REQUEST_PAYLOAD as usize),
                queue_depth: config.queue_depth.max(1),
                ..config
            },
            listener: Some(listener),
            waker_rx,
            conns: Vec::new(),
            free: Vec::new(),
            active: 0,
            next_gen: 0,
            wheel: Wheel::new(),
            tick: 0,
            shutting_down: false,
            scratch: vec![0u8; 1 << 16],
        };
        let loop_handle = std::thread::spawn(move || event_loop.run());

        Ok(EventServer {
            core,
            local_addr,
            waker: waker_tx,
            loop_handle: Some(loop_handle),
            workers: worker_handles,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Current counters and artifact dimensions, without a socket round
    /// trip.
    pub fn stats(&self) -> ServerStats {
        self.core.stats()
    }

    /// A handle for hot-swapping the served artifacts (see
    /// [`Publisher::publish`]) — interchangeable with the threaded
    /// server's, so the live pipeline drives either loop.
    pub fn publisher(&self) -> Publisher {
        Publisher { core: Arc::clone(&self.core) }
    }

    /// A handle over the metrics registry, for scraping this server's
    /// counters without a socket round trip — interchangeable with the
    /// threaded server's, so one exporter serves either engine.
    pub fn metrics_handle(&self) -> MetricsHandle {
        MetricsHandle { core: Arc::clone(&self.core) }
    }

    /// Signals shutdown, drains in-flight requests (parsed requests are
    /// answered and flushed; unparsed bytes are dropped), and joins the
    /// loop and every worker. Idempotent through [`Drop`].
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.core.shutdown.store(true, Ordering::SeqCst);
        let _ = (&mut { &self.waker }).write(&[1u8]);
        if let Some(handle) = self.loop_handle.take() {
            let _ = handle.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for EventServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}
