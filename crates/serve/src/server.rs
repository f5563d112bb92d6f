//! The nonblocking epoll query server.
//!
//! Thread model (fixed, no async runtime):
//!
//! * one **event-loop** thread runs an edge-triggered
//!   [`crate::evio::Poller`]. It owns the listener and accepts until
//!   `WouldBlock`; every connection is a [`Conn`] state machine — an
//!   incremental [`wire::FrameAssembler`] parsing `O4ARPC01` frames
//!   zero-copy out of a pooled read buffer, an ordered response-slot
//!   window, and a write queue with `EPOLLOUT` backpressure;
//! * `HEALTH`/`STATS`/`METRICS`/`TRACE` are answered inline on the loop;
//!   `QUERY`/`BATCH` pass a **bounded admission gate** (beyond
//!   [`ServeConfig::queue_cap`] outstanding jobs the request is shed
//!   immediately with `BUSY`) and go straight onto the executor queue as
//!   one job;
//! * a fixed pool of **executor** threads pops one job at a time,
//!   answers it with a single [`QueryBackend::query_many_timed`] call (a
//!   `BATCH`'s masks all go in that call, so a large batch still fans out
//!   across the compute pool), encodes the response frame, and hands it
//!   back to the loop through a completion mailbox + `eventfd` wake.
//!
//! Responses are paired with requests by order, so each connection keeps
//! a seq-indexed slot window: inline answers fill their slot at parse
//! time, query answers at completion time, and only the filled prefix is
//! flushed. Two executors may finish one connection's jobs out of order;
//! pipelined clients still read responses in request order.
//!
//! The server is generic over the query engine: a single-model
//! `RegionServer`, the ensemble server and the sharded
//! [`crate::router::ShardRouter`] all serve behind the [`QueryBackend`]
//! trait, so `serve` takes an `Arc<dyn QueryBackend>`.
//!
//! Shutdown is cooperative: a flag plus eventfd/condvar wakeups; every
//! thread is joined before [`ServerHandle::shutdown`] returns. The loop
//! closes every connection on its way out; executors still run the jobs
//! left in the queue, and their answers are dropped.
//!
//! When request tracing is sampling (`O4A_TRACE=n` or `--trace-every`),
//! `QUERY`/`BATCH` requests mint a trace id at parse and every stage —
//! assemble, queue wait, executor job, the backend's decompose/index
//! split (derived from the same `QueryTiming` nanoseconds STATS
//! accumulates, so a trace's stage sums reconcile bit-exactly with
//! STATS), per-shard scatter, gather, write flush — lands in the
//! `o4a_obs::trace` flight recorder, drained by the `TRACE` verb.

use crate::evio::{Interest, Poller, PooledBuf, WakeFd};
use crate::wire::{self, HealthInfo, Request, Response, StatsSnapshot, TimingNs};
use o4a_core::server::QueryBackend;
use o4a_grid::mask::Mask;
use o4a_obs::trace::{self, SpanEvent, SpanKind};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Tuning knobs for [`serve`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Executor threads popping the admission queue.
    pub workers: usize,
    /// Admission cap on outstanding (admitted, not yet executing) jobs;
    /// beyond it requests get `BUSY` (`0` sheds every request — a drain
    /// mode).
    pub queue_cap: usize,
    /// Cap on a request frame's payload bytes.
    pub max_payload: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_cap: 1024,
            max_payload: wire::DEFAULT_MAX_PAYLOAD,
        }
    }
}

/// Lock-free serving counters (see [`StatsSnapshot`] for field meaning):
/// the only store of these counts, read by both `STATS` and `METRICS`.
#[derive(Debug, Default)]
pub struct ServerStats {
    connections: AtomicU64,
    requests: AtomicU64,
    masks_served: AtomicU64,
    exec_batches: AtomicU64,
    busy_rejections: AtomicU64,
    protocol_errors: AtomicU64,
    decompose_ns: AtomicU64,
    index_ns: AtomicU64,
}

impl ServerStats {
    /// A consistent-enough copy of all counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            connections: self.connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            masks_served: self.masks_served.load(Ordering::Relaxed),
            exec_batches: self.exec_batches.load(Ordering::Relaxed),
            busy_rejections: self.busy_rejections.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            decompose_ns: self.decompose_ns.load(Ordering::Relaxed),
            index_ns: self.index_ns.load(Ordering::Relaxed),
            // the caches, plan revision and shard loads live in the query
            // backend; `Shared::stats_snapshot` fills them in
            ..StatsSnapshot::default()
        }
    }
}

/// One admitted `QUERY`/`BATCH` request waiting for an executor.
struct ExecJob {
    /// Connection token on the event loop.
    token: u64,
    /// Response-slot sequence number on that connection.
    seq: u64,
    masks: Vec<Mask>,
    /// Whether to answer with `Prediction` (single) or `BatchResult`.
    single: bool,
    /// Parse time, for the `serve_request` latency histogram.
    t_start: Instant,
    /// Sampled trace id, or `0` (untraced — the common case).
    trace_id: u64,
    /// Parse time on the trace clock; `0` when untraced.
    t_parse_ns: u64,
}

/// An encoded response an executor hands back to the loop:
/// `(token, seq, frame, trace_id)` — the trace id (or `0`) rides along so
/// the loop can emit the write-flush span.
type Completion = (u64, u64, Vec<u8>, u64);

/// MPMC job queue feeding the executor pool.
#[derive(Default)]
struct ExecQueue {
    state: Mutex<(VecDeque<ExecJob>, bool)>,
    cv: Condvar,
}

impl ExecQueue {
    fn push(&self, job: ExecJob) {
        self.state
            .lock()
            .expect("exec queue poisoned")
            .0
            .push_back(job);
        self.cv.notify_one();
    }

    /// Blocks for the next job; `None` on shutdown with an empty queue.
    fn pop(&self) -> Option<ExecJob> {
        let mut st = self.state.lock().expect("exec queue poisoned");
        loop {
            if let Some(job) = st.0.pop_front() {
                return Some(job);
            }
            if st.1 {
                return None;
            }
            st = self.cv.wait(st).expect("exec queue poisoned");
        }
    }

    fn shutdown(&self) {
        self.state.lock().expect("exec queue poisoned").1 = true;
        self.cv.notify_all();
    }
}

struct Shared {
    region: Arc<dyn QueryBackend>,
    stats: ServerStats,
    shutdown: AtomicBool,
    cfg: ServeConfig,
    exec_queue: ExecQueue,
    /// Jobs admitted but not yet popped by an executor (the bounded
    /// admission gate: at `queue_cap` further queries shed with `BUSY`).
    admitted: AtomicU64,
    /// The event loop's mailbox: executors push completed jobs here and
    /// kick `wake`.
    completions: Mutex<Vec<Completion>>,
    wake: WakeFd,
    /// Monotonic start instant (uptime reported by `HEALTH`).
    started: Instant,
    /// Start time in seconds since the Unix epoch (reported by `HEALTH`).
    started_unix: u64,
    /// Next request id; ids are unique per server and tag the per-request
    /// debug logs so one request's records can be correlated.
    next_request_id: AtomicU64,
}

impl Shared {
    /// Serving counters merged with the backend's: its decomposition memo
    /// (a shard router's; zero unsharded), active plan revision (`0` for
    /// a single-model backend), per-shard loads (empty unsharded) and
    /// compiled-plan cache. `STATS` sends this snapshot and `METRICS`
    /// renders it.
    fn stats_snapshot(&self) -> StatsSnapshot {
        let mut s = self.stats.snapshot();
        let (hits, misses) = self.region.decomp_cache_stats();
        s.decomp_cache_hits = hits;
        s.decomp_cache_misses = misses;
        s.decomp_cache_entries = self.region.decomp_cache_entries();
        s.plan_revision = self.region.plan_revision();
        s.shard_loads = self.region.shard_loads();
        let (ph, pm, pe) = self.region.plan_cache_stats();
        s.plan_cache_hits = ph;
        s.plan_cache_misses = pm;
        s.plan_cache_evictions = pe;
        s.plan_cache_entries = self.region.plan_cache_entries();
        s.compiled_terms = self.region.compiled_terms();
        s
    }
}

/// A running server; dropping it without [`ServerHandle::shutdown`]
/// leaves the threads serving until process exit.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    event_loop: JoinHandle<()>,
    executors: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The actually bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current serving counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats_snapshot()
    }

    /// Stops accepting, closes every connection and joins all threads.
    pub fn shutdown(self) {
        o4a_obs::info!("serve", "shutting down"; addr = self.addr);
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.exec_queue.shutdown();
        self.shared.wake.wake();
        let _ = self.event_loop.join();
        for h in self.executors {
            let _ = h.join();
        }
    }
}

/// Starts serving a query backend over TCP and returns the handle
/// (`Arc<RegionServer>`, `Arc<EnsembleServer>` and `Arc<ShardRouter>`
/// all coerce).
pub fn serve(region: Arc<dyn QueryBackend>, cfg: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener =
        TcpListener::bind(cfg.addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "bad bind addr")
        })?)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let workers = cfg.workers.max(1);
    let shared = Arc::new(Shared {
        region,
        stats: ServerStats::default(),
        shutdown: AtomicBool::new(false),
        cfg,
        exec_queue: ExecQueue::default(),
        admitted: AtomicU64::new(0),
        completions: Mutex::new(Vec::new()),
        wake: WakeFd::new()?,
        started: Instant::now(),
        started_unix: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        next_request_id: AtomicU64::new(1),
    });
    let poller = Poller::new()?;
    poller.add(shared.wake.raw_fd(), TOK_WAKE, Interest::READ)?;
    poller.add(listener.as_raw_fd(), TOK_LISTENER, Interest::READ)?;
    // Pre-register the registry metrics so a scrape of an idle server
    // already exposes them at zero (the call sites below would otherwise
    // register them lazily on first use).
    let _ = request_ns_histogram();
    let _ = queue_depth_gauge();
    let _ = backpressure_counter();
    o4a_obs::info!("serve", "listening"; addr = addr, workers = workers);

    let executors: Vec<JoinHandle<()>> = (0..workers)
        .map(|i| {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name(format!("o4a-exec-{i}"))
                .spawn(move || executor_loop(&shared))
                .expect("spawn executor")
        })
        .collect();

    let event_loop = {
        let shared = shared.clone();
        std::thread::Builder::new()
            .name("o4a-loop".into())
            .spawn(move || EventLoop::run(&shared, poller, listener))
            .expect("spawn event loop")
    };

    Ok(ServerHandle {
        addr,
        shared,
        event_loop,
        executors,
    })
}

/// Parse-to-response latency, the same histogram `span!("serve_request")`
/// recorded on the thread-per-connection server (kept name-compatible for
/// dashboards; recorded manually because a request's life now spans the
/// loop and executor threads).
fn request_ns_histogram() -> &'static o4a_obs::Histogram {
    o4a_obs::histogram!(
        "o4a_serve_request_ns",
        "latency of the `serve_request` span in nanoseconds"
    )
}

/// Jobs admitted but not yet popped by an executor — the live depth of
/// the admission gate, sampled at every admit/pop.
fn queue_depth_gauge() -> &'static o4a_obs::Gauge {
    o4a_obs::gauge!(
        "o4a_exec_queue_depth",
        "queries admitted but not yet picked up by an executor"
    )
}

/// Times the write queue outgrew the socket and `EPOLLOUT` was armed.
fn backpressure_counter() -> &'static o4a_obs::Counter {
    o4a_obs::counter!(
        "o4a_serve_backpressure_total",
        "connections that transitioned into EPOLLOUT write backpressure"
    )
}

/// Emits one trace span on lane 0: the server has one event loop, and
/// its executors' spans share its lane.
fn span(trace_id: u64, kind: SpanKind, parent: u16, t_start_ns: u64, t_end_ns: u64, bytes: u64) {
    trace::emit(&SpanEvent {
        trace_id,
        span: kind as u16,
        parent,
        lane: 0,
        t_start_ns,
        t_end_ns,
        bytes,
    });
}

fn executor_loop(shared: &Shared) {
    while let Some(job) = shared.exec_queue.pop() {
        let prev = shared.admitted.fetch_sub(1, Ordering::Relaxed);
        queue_depth_gauge().set(prev.saturating_sub(1) as f64);
        let (token, seq, trace_id) = (job.token, job.seq, job.trace_id);
        let frame = if shared.region.is_ready() {
            run_job(shared, job)
        } else {
            wire::encode_response(&Response::Error("no prediction snapshot published".into()))
        };
        let mut mailbox = shared.completions.lock().expect("completions poisoned");
        // a non-empty mailbox already has a wake pending: the loop takes
        // the whole mailbox under this lock after draining the eventfd
        let was_empty = mailbox.is_empty();
        mailbox.push((token, seq, frame, trace_id));
        drop(mailbox);
        if was_empty {
            shared.wake.wake();
        }
    }
}

/// Answers one job with a single backend call and encodes its response
/// frame.
fn run_job(shared: &Shared, job: ExecJob) -> Vec<u8> {
    let tid = job.trace_id;
    let n = job.masks.len() as u64;
    let t_exec = Instant::now();
    // an untraced job — the common case — skips every trace clock read
    let t_exec_ns = if tid != 0 { trace::now_ns() } else { 0 };
    if tid != 0 {
        span(
            tid,
            SpanKind::QueueWait,
            SpanKind::Request as u16,
            job.t_parse_ns,
            t_exec_ns,
            n,
        );
        // backends key their per-stage spans (shard scatter/gather,
        // lookup/aggregate) off the calling thread's current trace id
        trace::set_current(tid);
    }
    let (values, timing) = shared.region.query_many_timed(&job.masks);
    let timing = TimingNs {
        decompose_ns: timing.decompose.as_nanos() as u64,
        index_ns: timing.index.as_nanos() as u64,
    };
    if tid != 0 {
        trace::set_current(0);
        let exec = SpanKind::ExecBatch as u16;
        span(
            tid,
            SpanKind::ExecBatch,
            SpanKind::Request as u16,
            t_exec_ns,
            trace::now_ns(),
            n,
        );
        // Derived stage events: their durations are the *same* u64
        // nanosecond values added to the STATS counters below, so a
        // drained trace's decompose/index sums reconcile bit-exactly
        // with STATS (the measured span above is wall-clock and
        // includes fan-out overhead the backend doesn't attribute).
        let t_index_ns = t_exec_ns + timing.decompose_ns;
        span(tid, SpanKind::Decompose, exec, t_exec_ns, t_index_ns, n);
        span(
            tid,
            SpanKind::Index,
            exec,
            t_index_ns,
            t_index_ns + timing.index_ns,
            n,
        );
    }
    let stats = &shared.stats;
    stats.exec_batches.fetch_add(1, Ordering::Relaxed);
    stats.masks_served.fetch_add(n, Ordering::Relaxed);
    stats
        .decompose_ns
        .fetch_add(timing.decompose_ns, Ordering::Relaxed);
    stats.index_ns.fetch_add(timing.index_ns, Ordering::Relaxed);
    let resp = if job.single {
        Response::Prediction {
            value: values[0],
            timing,
        }
    } else {
        Response::BatchResult { values, timing }
    };
    let total_ns = job.t_start.elapsed().as_nanos() as u64;
    if tid != 0 {
        // root span: parse to response-encode, matching the
        // `o4a_serve_request_ns` histogram's interval
        span(
            tid,
            SpanKind::Request,
            0,
            job.t_parse_ns,
            trace::now_ns(),
            n,
        );
    }
    let slow_ns = trace::slow_threshold_ns();
    if slow_ns != 0 && total_ns >= slow_ns {
        o4a_obs::warn_limited!("serve", "slow request";
            total_us = total_ns / 1_000,
            queue_us = t_exec.saturating_duration_since(job.t_start).as_micros() as u64,
            decompose_us = timing.decompose_ns / 1_000,
            index_us = timing.index_ns / 1_000,
            masks = n,
            trace_id = tid,
        );
    }
    request_ns_histogram().record(total_ns);
    wire::encode_response(&resp)
}

/// Per-connection state machine on the event loop.
struct Conn {
    stream: TcpStream,
    assembler: wire::FrameAssembler,
    /// Encoded frames ready to write, oldest first; `wq_head` is the
    /// write offset into the front frame.
    wq: VecDeque<Vec<u8>>,
    wq_head: usize,
    /// Whether the poller registration currently includes `EPOLLOUT`.
    want_write: bool,
    /// Seq-indexed response slots: `slots[i]` answers request
    /// `base_seq + i`. Only the filled prefix may be flushed, so
    /// pipelined responses always leave in request order.
    slots: VecDeque<Option<Vec<u8>>>,
    base_seq: u64,
    next_seq: u64,
    /// Close once every slot and queued write has drained (set on
    /// protocol error; further input is ignored).
    closing: bool,
}

impl Conn {
    fn new(stream: TcpStream, max_payload: usize) -> Conn {
        Conn {
            stream,
            assembler: wire::FrameAssembler::new(max_payload),
            wq: VecDeque::new(),
            wq_head: 0,
            want_write: false,
            slots: VecDeque::new(),
            base_seq: 0,
            next_seq: 0,
            closing: false,
        }
    }

    /// Reserves the next response slot, returning its seq.
    fn alloc_slot(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.slots.push_back(None);
        seq
    }

    /// Fills a response slot and moves the completed prefix to the write
    /// queue.
    fn fill(&mut self, seq: u64, frame: Vec<u8>) {
        let idx = (seq - self.base_seq) as usize;
        if let Some(slot) = self.slots.get_mut(idx) {
            *slot = Some(frame);
        }
        while matches!(self.slots.front(), Some(Some(_))) {
            let frame = self.slots.pop_front().flatten().expect("checked Some");
            self.base_seq += 1;
            self.wq.push_back(frame);
        }
    }

    /// Whether the connection has fully drained and was marked closing.
    fn drained_for_close(&self) -> bool {
        self.closing && self.slots.is_empty() && self.wq.is_empty()
    }
}

/// Listener token.
const TOK_LISTENER: u64 = 0;
/// Wake-eventfd token.
const TOK_WAKE: u64 = 1;
/// First connection token.
const TOK_CONN0: u64 = 2;

/// Socket read scratch: one pooled buffer recycled across every read on
/// the loop thread.
const READ_BUF_BYTES: usize = 16 * 1024;

struct EventLoop<'a> {
    shared: &'a Shared,
    poller: Poller,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    hier: o4a_grid::hierarchy::Hierarchy,
}

impl EventLoop<'_> {
    /// Runs the loop on a poller with the wake eventfd and `listener`
    /// already registered.
    fn run(shared: &Shared, poller: Poller, listener: TcpListener) {
        let mut el = EventLoop {
            shared,
            poller,
            conns: HashMap::new(),
            next_token: TOK_CONN0,
            hier: shared.region.hierarchy().clone(),
        };
        // Event-loop internals as first-class metrics: how long each
        // epoll_wait blocked and how many readiness events each wake
        // delivered.
        let epoll_wait_hist = o4a_obs::histogram!(
            "o4a_loop0_epoll_wait_ns",
            "time blocked in epoll_wait per wake on the event loop"
        );
        let ready_events_hist = o4a_obs::histogram!(
            "o4a_loop0_ready_events",
            "readiness events delivered per epoll wake on the event loop"
        );
        let mut rbuf = PooledBuf::with_capacity(READ_BUF_BYTES);
        let mut events = Vec::new();
        loop {
            let t_wait = Instant::now();
            let n_ready = match el.poller.wait(&mut events, None) {
                Ok(n) => n,
                Err(_) => break,
            };
            epoll_wait_hist.record(t_wait.elapsed().as_nanos() as u64);
            ready_events_hist.record(n_ready as u64);
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            for ev in &events {
                match ev.token {
                    TOK_LISTENER => el.accept_ready(&listener),
                    TOK_WAKE => shared.wake.drain(),
                    token => el.conn_ready(token, ev.readable, ev.writable, &mut rbuf),
                }
            }
            el.drain_completions();
        }
        // Cooperative close: dropping the map closes every socket, and
        // dropping the listener makes further connects refuse.
        el.conns.clear();
    }

    /// Accepts until the listener reports `WouldBlock` (edge-triggered).
    fn accept_ready(&mut self, listener: &TcpListener) {
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if self.shared.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .add(stream.as_raw_fd(), token, Interest::READ)
                        .is_err()
                    {
                        continue;
                    }
                    self.shared
                        .stats
                        .connections
                        .fetch_add(1, Ordering::Relaxed);
                    self.conns
                        .insert(token, Conn::new(stream, self.shared.cfg.max_payload));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Handles readiness on a connection token.
    fn conn_ready(&mut self, token: u64, readable: bool, writable: bool, rbuf: &mut PooledBuf) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        let mut alive = true;
        if readable {
            alive = self.read_ready(token, &mut conn, rbuf);
        }
        // flush after reads too: inline responses queued during the read
        // would otherwise wait for an EPOLLOUT edge that never comes
        // (the socket was writable all along)
        if alive && (writable || !conn.wq.is_empty()) {
            alive = self.flush_writes(token, &mut conn);
        }
        if alive && !conn.drained_for_close() {
            self.conns.insert(token, conn);
        } else {
            self.teardown(conn);
        }
    }

    fn teardown(&mut self, conn: Conn) {
        let _ = self.poller.delete(conn.stream.as_raw_fd());
        // dropping `conn` closes the socket
    }

    /// Drains the socket until `WouldBlock`/EOF, feeding every chunk to
    /// the frame assembler. Returns `false` when the connection died.
    fn read_ready(&mut self, token: u64, conn: &mut Conn, rbuf: &mut PooledBuf) -> bool {
        loop {
            if conn.closing {
                // a protocol error desynchronized the stream: ignore
                // further input and let the queued error frame drain
                return true;
            }
            let buf = rbuf.as_mut_bytes();
            match (&conn.stream).read(buf) {
                Ok(0) => return false,
                Ok(n) => {
                    let chunk = &buf[..n];
                    self.process_bytes(token, conn, chunk);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }

    /// Feeds one received chunk through the frame assembler and handles
    /// every completed request in arrival order.
    fn process_bytes(&mut self, token: u64, conn: &mut Conn, chunk: &[u8]) {
        // chunk receipt time on the trace clock: the assemble span runs
        // from here to parse completion (one clock read per chunk, and
        // only while sampling)
        let t_rx_ns = if trace::sampling_on() {
            trace::now_ns()
        } else {
            0
        };
        let mut parsed: Vec<Result<Request, wire::WireError>> = Vec::new();
        let fed = conn.assembler.feed(chunk, |verb, payload| {
            parsed.push(wire::decode_request(verb, payload));
        });
        for req in parsed {
            if conn.closing {
                break;
            }
            match req {
                Ok(r) => self.handle_request(token, conn, r, t_rx_ns),
                Err(e) => self.protocol_error(conn, &e),
            }
        }
        if let Err(e) = fed {
            if !conn.closing {
                self.protocol_error(conn, &e);
            }
        }
    }

    /// Reports a malformed frame/payload: error response, then close once
    /// everything queued before it has drained.
    fn protocol_error(&mut self, conn: &mut Conn, e: &wire::WireError) {
        self.shared
            .stats
            .protocol_errors
            .fetch_add(1, Ordering::Relaxed);
        // rate-limited: a garbage-spewing peer must not flood the log
        o4a_obs::warn_limited!("serve", "closing connection on malformed input: {}", e);
        let seq = conn.alloc_slot();
        conn.fill(
            seq,
            wire::encode_response(&Response::Error(format!("protocol error: {e}"))),
        );
        conn.closing = true;
    }

    fn handle_request(&mut self, token: u64, conn: &mut Conn, req: Request, t_rx_ns: u64) {
        let t_start = Instant::now();
        let seq = conn.alloc_slot();
        self.shared.stats.requests.fetch_add(1, Ordering::Relaxed);
        let req_id = self.shared.next_request_id.fetch_add(1, Ordering::Relaxed);
        let verb = match &req {
            Request::Health => "Health",
            Request::Stats => "Stats",
            Request::Metrics => "Metrics",
            Request::Trace => "Trace",
            Request::Query(_) => "Query",
            Request::Batch(_) => "Batch",
        };
        o4a_obs::debug!("serve", "request {}", verb; req = req_id);
        match req {
            Request::Health => {
                let info = HealthInfo {
                    ready: self.shared.region.is_ready(),
                    h: self.hier.h() as u32,
                    w: self.hier.w() as u32,
                    layers: self.hier.num_layers() as u8,
                    uptime_secs: self.shared.started.elapsed().as_secs(),
                    started_unix: self.shared.started_unix,
                };
                conn.fill(seq, wire::encode_response(&Response::Health(info)));
                request_ns_histogram().record(t_start.elapsed().as_nanos() as u64);
            }
            Request::Stats => {
                let snap = self.shared.stats_snapshot();
                conn.fill(seq, wire::encode_response(&Response::Stats(snap)));
                request_ns_histogram().record(t_start.elapsed().as_nanos() as u64);
            }
            Request::Metrics => {
                // the registry's histograms and gauges, then this
                // server's counters from the snapshot STATS would send
                let mut text = o4a_obs::render_prometheus();
                self.shared.stats_snapshot().render_prometheus(&mut text);
                conn.fill(seq, wire::encode_response(&Response::Metrics(text)));
                request_ns_histogram().record(t_start.elapsed().as_nanos() as u64);
            }
            Request::Trace => {
                // drain the flight recorder across every thread's ring
                // and render it viewer-ready; answered inline like
                // METRICS (the payload is bounded by ring capacity)
                let (events, dropped) = trace::drain();
                let json = trace::render_chrome_json(&events, dropped);
                conn.fill(seq, wire::encode_response(&Response::Trace(json)));
                request_ns_histogram().record(t_start.elapsed().as_nanos() as u64);
            }
            Request::Query(mask) => {
                self.enqueue_query(token, conn, seq, vec![mask], true, t_start, t_rx_ns)
            }
            Request::Batch(masks) => {
                self.enqueue_query(token, conn, seq, masks, false, t_start, t_rx_ns)
            }
        }
    }

    /// Admits a query onto the executor queue, or answers `Error`/`BUSY`
    /// inline (wrong raster / admission gate full).
    #[allow(clippy::too_many_arguments)]
    fn enqueue_query(
        &mut self,
        token: u64,
        conn: &mut Conn,
        seq: u64,
        masks: Vec<Mask>,
        single: bool,
        t_start: Instant,
        t_rx_ns: u64,
    ) {
        for mask in &masks {
            if mask.h() != self.hier.h() || mask.w() != self.hier.w() {
                // well-formed but wrong raster: answer and keep the
                // connection usable
                conn.fill(
                    seq,
                    wire::encode_response(&Response::Error(format!(
                        "mask is {}x{}, server raster is {}x{}",
                        mask.h(),
                        mask.w(),
                        self.hier.h(),
                        self.hier.w()
                    ))),
                );
                request_ns_histogram().record(t_start.elapsed().as_nanos() as u64);
                return;
            }
        }
        let cap = self.shared.cfg.queue_cap as u64;
        if self.shared.admitted.load(Ordering::Relaxed) >= cap {
            self.shared
                .stats
                .busy_rejections
                .fetch_add(1, Ordering::Relaxed);
            // rate-limited: an overload sheds thousands of these a second
            o4a_obs::warn_limited!("serve", "admission queue full, shedding with BUSY";
                queue_cap = cap);
            conn.fill(seq, wire::encode_response(&Response::Busy));
            request_ns_histogram().record(t_start.elapsed().as_nanos() as u64);
            return;
        }
        let prev = self.shared.admitted.fetch_add(1, Ordering::Relaxed);
        queue_depth_gauge().set((prev + 1) as f64);
        // mint here, not at parse: only admitted queries become traces
        let trace_id = trace::mint();
        let t_parse_ns = if trace_id != 0 {
            let now = trace::now_ns();
            span(
                trace_id,
                SpanKind::Assemble,
                SpanKind::Request as u16,
                // 0 means sampling flipped on mid-chunk; degrade to an
                // empty span instead of one starting at the epoch
                if t_rx_ns != 0 { t_rx_ns } else { now },
                now,
                masks.len() as u64,
            );
            now
        } else {
            0
        };
        self.shared.exec_queue.push(ExecJob {
            token,
            seq,
            masks,
            single,
            t_start,
            trace_id,
            t_parse_ns,
        });
    }

    /// Routes completed jobs back to their connections.
    fn drain_completions(&mut self) {
        let done = std::mem::take(
            &mut *self
                .shared
                .completions
                .lock()
                .expect("completions poisoned"),
        );
        for (token, seq, frame, trace_id) in done {
            // the connection may have died while its query ran
            let Some(mut conn) = self.conns.remove(&token) else {
                continue;
            };
            let t_fill_ns = if trace_id != 0 { trace::now_ns() } else { 0 };
            let frame_len = frame.len() as u64;
            conn.fill(seq, frame);
            let ok = self.flush_writes(token, &mut conn);
            if trace_id != 0 {
                span(
                    trace_id,
                    SpanKind::WriteFlush,
                    SpanKind::Request as u16,
                    t_fill_ns,
                    trace::now_ns(),
                    frame_len,
                );
            }
            if ok && !conn.drained_for_close() {
                self.conns.insert(token, conn);
            } else {
                self.teardown(conn);
            }
        }
    }

    /// Writes as much of the queue as the socket accepts; arms/disarms
    /// `EPOLLOUT` to match. Returns `false` when the connection died.
    fn flush_writes(&mut self, token: u64, conn: &mut Conn) -> bool {
        while let Some(front) = conn.wq.front() {
            match (&conn.stream).write(&front[conn.wq_head..]) {
                Ok(0) => return false,
                Ok(n) => {
                    conn.wq_head += n;
                    if conn.wq_head == front.len() {
                        conn.wq.pop_front();
                        conn.wq_head = 0;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        let need = !conn.wq.is_empty();
        if need != conn.want_write {
            if need {
                // the socket stopped accepting with frames still queued:
                // count the backpressure transition (rate-limited log —
                // one slow reader can flap this every flush)
                backpressure_counter().inc();
                o4a_obs::warn_limited!("serve", "write queue backed up, arming EPOLLOUT";
                    queued_frames = conn.wq.len());
            }
            let interest = if need {
                Interest::READ_WRITE
            } else {
                Interest::READ
            };
            if self
                .poller
                .modify(conn.stream.as_raw_fd(), token, interest)
                .is_err()
            {
                return false;
            }
            conn.want_write = need;
        }
        true
    }
}
