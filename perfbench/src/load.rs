//! The open-loop client: one connection, a sender thread that writes
//! each frame when it is due (sending at once when behind schedule), and
//! a receiver that pairs in-order responses with requests.
//!
//! Latency runs from when a request was *due*, not from when it was
//! written, so a stall also charges the requests queued behind it; the
//! sender's own lateness (written − due) is reported next to it. Arrivals
//! are evenly spaced at the offered rate.

use crate::gen::Req;
use crate::stats::Sorted;
use o4a_serve::wire::{self, Response};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long a read or write may make no progress before the rest of
/// the phase counts as timed out.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Share of a phase's schedule by which its last answer may be late
/// before the phase counts as a growing backlog.
const BACKLOG_SLACK: f64 = 0.05;

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Ok,
    Busy,
    Error,
    Timeout,
    Wrong,
}

/// Every request of one phase, in send order.
pub struct Phase {
    pub rate: f64,
    /// The instant the due times count from.
    pub start: Instant,
    /// Nanoseconds from phase start: when each request was due, written
    /// and answered (`done` is 0 for a request never answered).
    pub due: Vec<u64>,
    pub sent: Vec<u64>,
    pub done: Vec<u64>,
    pub status: Vec<Status>,
}

/// Per-outcome counts of a phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub sent: u64,
    pub ok: u64,
    pub busy: u64,
    pub error: u64,
    pub timeout: u64,
    pub wrong: u64,
}

impl Counts {
    pub fn failed(&self) -> u64 {
        self.busy + self.error + self.timeout + self.wrong
    }

    pub fn add(&mut self, o: &Counts) {
        self.sent += o.sent;
        self.ok += o.ok;
        self.busy += o.busy;
        self.error += o.error;
        self.timeout += o.timeout;
        self.wrong += o.wrong;
    }
}

impl Phase {
    pub fn counts(&self) -> Counts {
        let mut c = Counts {
            sent: self.status.len() as u64,
            ..Counts::default()
        };
        for s in &self.status {
            match s {
                Status::Ok => c.ok += 1,
                Status::Busy => c.busy += 1,
                Status::Error => c.error += 1,
                Status::Timeout => c.timeout += 1,
                Status::Wrong => c.wrong += 1,
            }
        }
        c
    }

    /// Latency from due time to answer, over the answered-ok requests.
    pub fn latency(&self) -> Sorted {
        Sorted::new(self.latencies(0..self.status.len()))
    }

    fn latencies(&self, range: std::ops::Range<usize>) -> Vec<u64> {
        range
            .filter(|&i| self.status[i] == Status::Ok)
            .map(|i| self.done[i] - self.due[i])
            .collect()
    }

    /// How late the sender wrote each request.
    pub fn lateness(&self) -> Sorted {
        Sorted::new(self.lateness_raw())
    }

    pub fn lateness_raw(&self) -> Vec<u64> {
        self.sent
            .iter()
            .zip(&self.due)
            .map(|(&s, &d)| s.saturating_sub(d))
            .collect()
    }

    /// The exact `q`-quantile of each consecutive window of at least
    /// `min` requests (one window when the phase is shorter).
    pub fn per_window(&self, q: f64, min: usize) -> Vec<f64> {
        let n = self.status.len();
        let windows = (n / min).max(1);
        (0..windows)
            .map(|k| {
                let range = k * n / windows..(k + 1) * n / windows;
                Sorted::new(self.latencies(range)).pct(q) as f64
            })
            .collect()
    }

    /// Correct answers per second, from the first due time to the last
    /// answer. Below capacity this is the offered rate; an overloaded
    /// phase drains its backlog at the server's own pace, so its goodput
    /// is what the server completes per second.
    pub fn goodput(&self) -> f64 {
        let last = self.done.iter().copied().max().unwrap_or(0);
        self.counts().ok as f64 / (last.max(1) as f64 / 1e9)
    }

    /// Whether the server kept up with the offered rate: no failed
    /// request, median latency within `limit_ns`, and the last answer in
    /// before the schedule's length, stretched by [`BACKLOG_SLACK`], has
    /// passed. A backlog that grows pushes the median and the last answer
    /// out; a short stall of the host that the server catches up on moves
    /// neither.
    pub fn sustained(&self, limit_ns: u64) -> bool {
        let n = self.due.len();
        let schedule = self.due[n - 1] as f64 + 1e9 / self.rate;
        let last = self.done.iter().copied().max().unwrap_or(0);
        self.counts().failed() == 0
            && self.latency().pct(0.5) <= limit_ns
            && last as f64 <= schedule * (1.0 + BACKLOG_SLACK)
    }
}

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// Linux `SCHED_IDLE`: the sender runs only when a CPU has nothing else
/// to do, and any server thread that wakes preempts it at once.
const SCHED_IDLE: i32 = 5;

/// Moves the calling thread to `SCHED_IDLE`, where it runs only when a
/// CPU has nothing else to do and any server thread that wakes preempts
/// it at once; false where that is refused.
fn sched_idle() -> bool {
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: changes only the calling thread's policy; `param` lives
    // across the call.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

/// Offers `reqs` at `rate` requests per second on a fresh connection and
/// checks every answer against its oracle bits.
pub fn run(addr: SocketAddr, reqs: &[Req], rate: f64) -> Phase {
    let n = reqs.len();
    let stream = TcpStream::connect(addr).expect("connect to the server");
    stream.set_nodelay(true).expect("TCP_NODELAY");
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .expect("read timeout");
    stream
        .set_write_timeout(Some(IO_TIMEOUT))
        .expect("write timeout");
    let mut writer = stream.try_clone().expect("clone the stream");
    let mut reader = BufReader::with_capacity(1 << 16, stream);
    let interval = 1e9 / rate;
    // a short lead so the first due time is not already past
    let start = Instant::now() + Duration::from_millis(2);
    let due: Vec<u64> = (0..n).map(|i| (i as f64 * interval) as u64).collect();

    let mut done = vec![0u64; n];
    let mut status = vec![Status::Timeout; n];
    let mut sent = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let idle = sched_idle();
            let mut sent = Vec::with_capacity(n);
            for (req, &d) in reqs.iter().zip(&due) {
                let at = start + Duration::from_nanos(d);
                if idle {
                    while Instant::now() < at {
                        std::hint::spin_loop();
                    }
                } else if let Some(wait) = at.checked_duration_since(Instant::now()) {
                    // where SCHED_IDLE is refused, spinning would take
                    // CPU from the server: sleep instead
                    std::thread::sleep(wait);
                }
                sent.push(start.elapsed().as_nanos() as u64);
                if writer.write_all(&req.frame).is_err() {
                    break;
                }
            }
            sent
        });
        for (i, req) in reqs.iter().enumerate() {
            let frame = match wire::read_frame(&mut reader, wire::DEFAULT_MAX_PAYLOAD) {
                Ok(f) => f,
                Err(wire::TransportError::Io(e))
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    break;
                }
                Err(_) => {
                    status[i..].fill(Status::Error);
                    break;
                }
            };
            done[i] = start.elapsed().as_nanos() as u64;
            status[i] = match wire::decode_response(frame.0, &frame.1) {
                Ok(Response::Prediction { value, .. }) => check(&[value], &req.expect),
                Ok(Response::BatchResult { values, .. }) => check(&values, &req.expect),
                Ok(Response::Busy) => Status::Busy,
                _ => Status::Error,
            };
        }
        // unblock a sender stuck on a full socket after a failure
        let _ = reader.get_ref().shutdown(std::net::Shutdown::Both);
        sender.join().expect("sender thread")
    });
    sent.resize(n, *sent.last().unwrap_or(&0));
    Phase {
        rate,
        start,
        due,
        sent,
        done,
        status,
    }
}

fn check(got: &[f32], want: &[u32]) -> Status {
    let same = got.len() == want.len() && got.iter().zip(want).all(|(g, &w)| g.to_bits() == w);
    if same {
        Status::Ok
    } else {
        Status::Wrong
    }
}
