//! Closed-loop load over loopback: each connection keeps a fixed number
//! of requests in flight and sends the next only when one completes.

use crate::daemon::{host_steal_ms, Daemon};
use crate::oracle::Failures;
use crate::stats::Completion;
use crate::wire::Conn;
use crate::workload::http_post;
use std::collections::{HashSet, VecDeque};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Length of one measurement window; the timed phase is split into whole
/// windows and the rate, latency and CPU figures are medians over its
/// quiet ones (see [`Phase::quiet_windows`]).
pub const WINDOW: Duration = Duration::from_secs(1);

/// A window in which the hypervisor stole at most this much CPU from the
/// guest is quiet (`/proc/stat` counts steal in 10 ms ticks).
pub const QUIET_STEAL_MS: f64 = 20.0;

/// What the client does with an answer as it arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Matches its verified reference.
    Correct,
    /// Differs from its verified reference.
    Mismatch,
    /// Kept for verification after the timed phase.
    Deferred,
}

/// The requests one connection sends and how their answers are judged.
pub trait Source {
    /// The route every request goes to.
    fn path(&self) -> &'static str;
    /// The next request's key (an index into the workload's inputs).
    fn next_key(&mut self) -> usize;
    /// The pre-encoded request for `key`.
    fn encoded(&self, key: usize) -> &[u8];
    /// The JSON body for `key` (the traced phase re-encodes it with a
    /// request id).
    fn body(&self, key: usize) -> &str;
    /// Judge a `2xx` answer to `key`.
    fn judge(&mut self, key: usize, body: &[u8]) -> Verdict;
}

/// One answered request.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    /// The input it asked about.
    pub key: usize,
    /// The request id sent in the traced phase (else a per-loop count).
    pub id: u64,
    /// Send time, ns after the phase started.
    pub start_ns: u64,
    /// Last response byte, ns after the phase started.
    pub end_ns: u64,
    /// Judged (or deferred) as correct so far.
    pub ok: bool,
}

/// Everything one connection's loop saw.
#[derive(Debug, Default)]
pub struct LoopOut {
    /// Requests written.
    pub attempted: u64,
    /// Failures by kind.
    pub failures: Failures,
    /// One record per 2xx answer, in completion order.
    pub records: Vec<Record>,
}

/// Drive one connection until `deadline`, keeping `depth` requests in
/// flight, then drain what is still in flight. With `trace_ids` each
/// request carries `X-Request-Id: sb-<id>` with ids `first_id, first_id
/// + 1, …`.
pub fn run_loop<S: Source>(
    addr: SocketAddr,
    src: &mut S,
    depth: usize,
    t0: Instant,
    deadline: Instant,
    trace_ids: Option<u64>,
) -> LoopOut {
    let mut out = LoopOut::default();
    let Ok(mut conn) = Conn::connect(addr) else {
        out.attempted = 1;
        out.failures.io = 1;
        return out;
    };
    let mut inflight: VecDeque<(usize, u64, Instant)> = VecDeque::with_capacity(depth);
    let mut batch: Vec<u8> = Vec::new();
    let mut next_id = trace_ids.unwrap_or(0);
    loop {
        // Refill every free slot with one write.
        let mut keys = Vec::new();
        while inflight.len() + keys.len() < depth && Instant::now() < deadline {
            let key = src.next_key();
            match trace_ids {
                None => batch.extend_from_slice(src.encoded(key)),
                Some(_) => batch.extend(http_post(src.path(), src.body(key), Some(next_id))),
            }
            keys.push((key, next_id));
            next_id += 1;
        }
        if !keys.is_empty() {
            out.attempted += keys.len() as u64;
            let sent = Instant::now();
            if conn.send(&batch).is_ok() {
                inflight.extend(keys.into_iter().map(|(key, id)| (key, id, sent)));
            } else {
                out.failures.io += keys.len() as u64;
            }
            batch.clear();
        }
        if inflight.is_empty() {
            break;
        }
        // Block for one answer, then take every answer already read.
        let mut answer = conn.recv().map(Some);
        loop {
            match answer {
                Ok(Some((status, body))) => {
                    let end = Instant::now();
                    let (key, id, sent) =
                        inflight.pop_front().expect("an answer implies a request");
                    if !(200..300).contains(&status) {
                        out.failures.count_status(status);
                    } else {
                        let ok = match src.judge(key, body) {
                            Verdict::Mismatch => {
                                out.failures.mismatch += 1;
                                false
                            }
                            Verdict::Correct | Verdict::Deferred => true,
                        };
                        out.records.push(Record {
                            key,
                            id,
                            start_ns: (sent - t0).as_nanos() as u64,
                            end_ns: (end - t0).as_nanos() as u64,
                            ok,
                        });
                    }
                    if inflight.is_empty() {
                        break;
                    }
                    answer = conn.recv_buffered();
                }
                Ok(None) => break,
                Err(_) => {
                    // The connection is gone: everything in flight failed.
                    out.failures.io += inflight.len() as u64;
                    inflight.clear();
                    match Conn::connect(addr) {
                        Ok(c) => conn = c,
                        Err(_) => return out,
                    }
                    break;
                }
            }
        }
    }
    out
}

/// What a timed phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Requests written, over all connections.
    pub attempted: u64,
    /// Failures by kind, over all connections.
    pub failures: Failures,
    /// Every 2xx answer.
    pub records: Vec<Record>,
    /// Daemon CPU (ms) at each window boundary: `windows + 1` marks.
    pub cpu_marks: Vec<f64>,
    /// Whole windows in the phase.
    pub windows: usize,
    /// Host steal (ms) at each window boundary: `windows + 1` marks.
    pub steal_marks: Vec<f64>,
    /// Daemon context switches over the phase (live threads).
    pub ctx_switches: f64,
    /// Daemon threads at the end of the phase.
    pub threads: f64,
}

impl Phase {
    /// Host steal over the phase, ms.
    pub fn steal_ms(&self) -> f64 {
        self.steal_marks.last().unwrap_or(&0.0) - self.steal_marks.first().unwrap_or(&0.0)
    }

    /// Host steal in each window, ms.
    pub fn window_steal_ms(&self) -> Vec<f64> {
        self.steal_marks.windows(2).map(|m| m[1] - m[0]).collect()
    }

    /// The windows the end-to-end medians are taken over: every window
    /// with at most [`QUIET_STEAL_MS`] of host steal, or, when fewer than
    /// half are that quiet, the half with the least steal. Steal is time
    /// the host took from the whole guest, so leaving those windows out
    /// removes host noise without hiding anything the daemon did.
    pub fn quiet_windows(&self) -> Vec<usize> {
        let steal = self.window_steal_ms();
        let quiet: Vec<usize> = (0..steal.len()).filter(|&i| steal[i] <= QUIET_STEAL_MS).collect();
        if quiet.len() * 2 >= steal.len() {
            return quiet;
        }
        let mut calmest: Vec<usize> = (0..steal.len()).collect();
        calmest.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
        calmest.truncate(steal.len().div_ceil(2));
        calmest.sort_unstable();
        calmest
    }

    /// Correct completions, for the windowed statistics.
    pub fn completions(&self) -> Vec<Completion> {
        self.records
            .iter()
            .filter(|r| r.ok)
            .map(|r| Completion { end_ns: r.end_ns, latency_ns: r.end_ns - r.start_ns })
            .collect()
    }

    /// Mark every record whose key failed verification after the phase.
    pub fn reject_keys(&mut self, bad: &HashSet<usize>) {
        for r in &mut self.records {
            if r.ok && bad.contains(&r.key) {
                r.ok = false;
                self.failures.mismatch += 1;
            }
        }
    }
}

/// Run a timed phase of `windows` whole windows: one loop per source,
/// each on its own thread and connection, while the calling thread
/// samples the daemon's CPU and the host's steal at every window
/// boundary.
pub fn timed_phase<S: Source + Send>(
    daemon: &Daemon,
    sources: &mut [S],
    depth: usize,
    windows: usize,
    trace_ids: bool,
) -> Phase {
    let addr = daemon.addr;
    let ctx0 = daemon.ctx_switches();
    let t0 = Instant::now();
    let deadline = t0 + WINDOW * windows as u32;
    let mut cpu_marks = vec![daemon.cpu_ms()];
    let mut steal_marks = vec![host_steal_ms()];
    let outs: Vec<LoopOut> = std::thread::scope(|s| {
        let handles: Vec<_> = sources
            .iter_mut()
            .enumerate()
            .map(|(c, src)| {
                let ids = trace_ids.then_some(c as u64 * 1_000_000_000);
                s.spawn(move || run_loop(addr, src, depth, t0, deadline, ids))
            })
            .collect();
        for w in 1..=windows {
            let mark = t0 + WINDOW * w as u32;
            std::thread::sleep(mark.saturating_duration_since(Instant::now()));
            cpu_marks.push(daemon.cpu_ms());
            steal_marks.push(host_steal_ms());
        }
        handles.into_iter().map(|h| h.join().expect("load loop panicked")).collect()
    });
    let mut phase = Phase {
        cpu_marks,
        steal_marks,
        windows,
        ctx_switches: daemon.ctx_switches() - ctx0,
        threads: daemon.threads(),
        ..Phase::default()
    };
    for out in outs {
        phase.attempted += out.attempted;
        phase.failures.add(out.failures);
        phase.records.extend(out.records);
    }
    phase
}

/// A shared cursor handing out keys `0, 1, 2, …` modulo `n` to several
/// connections.
#[derive(Debug, Clone)]
pub struct SharedCycle {
    next: Arc<AtomicUsize>,
    n: usize,
}

impl SharedCycle {
    /// A cursor over `0..n` starting at `start`.
    pub fn new(start: usize, n: usize) -> SharedCycle {
        SharedCycle { next: Arc::new(AtomicUsize::new(start)), n }
    }

    /// The next key.
    pub fn next(&self) -> usize {
        self.next.fetch_add(1, Ordering::Relaxed) % self.n
    }
}
