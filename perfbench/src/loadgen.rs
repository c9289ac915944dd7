//! Open-loop load generator.
//!
//! One process, two threads (a sender and a receiver), at most two
//! connections. Requests go out on a seeded schedule regardless of how fast responses
//! come back; each is timed from the moment it was *due*, so a stall
//! charges every request queued behind it (no coordinated omission). The
//! generator reports how late it sent (lateness) and how many requests
//! were still unanswered at the phase's half and end (backlog).
//!
//! A phase passes the workload's latency limit when its p99 — counting
//! every refused, failed or timed-out request as missing the limit — is
//! within the limit and the end-of-phase backlog is no more than the
//! phase could hold if every request took the limit (Little's law).

use crate::stats::{self, Timing};
use serve::poll::{poll, PollFd, POLLIN};
use serve::protocol::FrameBuffer;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Most connections the generator drives.
pub const MAX_CONNS: usize = 2;

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
pub struct Slot {
    /// Due time, nanoseconds after the phase start.
    pub due_ns: u64,
    /// Connection index (sessions stay on one connection).
    pub conn: usize,
    /// Index into the request table.
    pub req: usize,
}

/// Evenly spaced due times for `rate` requests/s over `seconds`, shifted
/// by a seeded phase offset within the first gap.
pub fn due_times(rate: f64, seconds: f64, offset_frac: f64) -> Vec<u64> {
    assert!(
        rate > 0.0 && seconds > 0.0,
        "rate and duration must be positive"
    );
    let gap = 1e9 / rate;
    let count = (rate * seconds).round().max(1.0) as usize;
    (0..count)
        .map(|i| ((i as f64 + offset_frac.clamp(0.0, 1.0)) * gap) as u64)
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Ok,
    Busy,
    Error,
    Timeout,
    Closed,
}

/// `Outcome::sent_ns` of a request that never went out.
pub const UNSENT: u64 = u64::MAX;

/// What happened to one slot. Times are nanoseconds after phase start.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    pub sent_ns: u64,
    pub done_ns: u64,
    pub status: Status,
    /// FNV-1a of the response payload (0 when none arrived).
    pub hash: u64,
    pub len: usize,
}

struct Conn {
    stream: TcpStream,
    frames: FrameBuffer,
}

/// Persistent connections to one daemon.
pub struct LoadGen {
    conns: Vec<Conn>,
}

impl LoadGen {
    pub fn connect(addr: SocketAddr, conns: usize) -> Result<LoadGen, String> {
        assert!(
            (1..=MAX_CONNS).contains(&conns),
            "1..={MAX_CONNS} connections"
        );
        let conns = (0..conns)
            .map(|_| {
                let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
                stream.set_nodelay(true).map_err(|e| e.to_string())?;
                stream
                    .set_write_timeout(Some(Duration::from_secs(10)))
                    .map_err(|e| e.to_string())?;
                Ok(Conn {
                    stream,
                    frames: FrameBuffer::default(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(LoadGen { conns })
    }

    pub fn conns(&self) -> usize {
        self.conns.len()
    }

    /// Run one phase: send every slot's request frame when due and wait up
    /// to `drain` past the last due time for the responses. Returns one
    /// outcome per slot, in slot order. Two threads: a sender that sleeps
    /// until each due time and writes, and this thread, which polls every
    /// connection and matches responses to requests in send order.
    pub fn run(&mut self, slots: &[Slot], frames: &[Vec<u8>], drain: Duration) -> Vec<Outcome> {
        let last_due = slots.iter().map(|s| s.due_ns).max().unwrap_or(0);
        let deadline_ns = last_due + drain.as_nanos() as u64;
        // A short lead lets the sender start before the first due time.
        let t0 = Instant::now() + Duration::from_millis(5);
        let now_ns = || Instant::now().saturating_duration_since(t0).as_nanos() as u64;
        let pending: Vec<Mutex<VecDeque<(usize, u64)>>> = self
            .conns
            .iter()
            .map(|_| Mutex::new(VecDeque::new()))
            .collect();
        let unsent = AtomicUsize::new(0);
        let mut outcomes: Vec<Option<Outcome>> = vec![None; slots.len()];
        let (mut readers, writers): (Vec<&mut FrameBuffer>, Vec<&TcpStream>) = self
            .conns
            .iter_mut()
            .map(|c| (&mut c.frames, &c.stream))
            .unzip();
        std::thread::scope(|scope| {
            let sender = scope.spawn(|| {
                let mut order: Vec<usize> = (0..slots.len()).collect();
                order.sort_by_key(|&i| slots[i].due_ns);
                let mut dead = vec![false; writers.len()];
                for i in order {
                    let slot = slots[i];
                    let now = now_ns();
                    if slot.due_ns > now {
                        std::thread::sleep(Duration::from_nanos(slot.due_ns - now));
                    }
                    if dead[slot.conn] {
                        unsent.fetch_add(1, Ordering::SeqCst);
                        continue;
                    }
                    pending[slot.conn]
                        .lock()
                        .expect("pending queue lock")
                        .push_back((i, now_ns()));
                    let mut stream = writers[slot.conn];
                    if stream.write_all(&frames[slot.req]).is_err() {
                        dead[slot.conn] = true;
                    }
                }
            });
            receive(
                &mut readers,
                &writers,
                &pending,
                &unsent,
                &mut outcomes,
                deadline_ns,
                &now_ns,
            );
            sender.join().expect("load generator sender panicked");
        });
        let now = now_ns();
        for queue in &pending {
            for &(i, sent_ns) in queue.lock().expect("pending queue lock").iter() {
                outcomes[i] = Some(failed(sent_ns, now, Status::Timeout));
            }
        }
        outcomes
            .into_iter()
            .map(|o| o.unwrap_or_else(|| failed(UNSENT, now, Status::Closed)))
            .collect()
    }
}

fn classify(payload: &[u8]) -> Status {
    if !payload.starts_with(b"{\"error\"") {
        Status::Ok
    } else if payload.windows(13).any(|w| w == b"\"type\":\"busy\"") {
        Status::Busy
    } else {
        Status::Error
    }
}

/// The receiving half: poll every connection, decode whole frames, and
/// pair each with the oldest unanswered request on its connection. Ends
/// when every slot is answered or unsent, or at the deadline.
fn receive(
    readers: &mut [&mut FrameBuffer],
    streams: &[&TcpStream],
    pending: &[Mutex<VecDeque<(usize, u64)>>],
    unsent: &AtomicUsize,
    outcomes: &mut [Option<Outcome>],
    deadline_ns: u64,
    now_ns: &dyn Fn() -> u64,
) {
    let total = outcomes.len();
    let mut answered = 0;
    let mut fds: Vec<PollFd> = streams
        .iter()
        .map(|s| PollFd::new(s.as_raw_fd(), POLLIN))
        .collect();
    while answered + unsent.load(Ordering::SeqCst) < total {
        let now = now_ns();
        if now >= deadline_ns || fds.iter().all(|f| f.fd < 0) {
            return;
        }
        // Wake at least every 20 ms to notice unsent slots and the deadline.
        let timeout_ms = ((deadline_ns - now) / 1_000_000).clamp(1, 20) as i32;
        for fd in fds.iter_mut() {
            fd.revents = 0;
        }
        if poll(&mut fds, timeout_ms).is_err() {
            return;
        }
        for c in 0..fds.len() {
            if fds[c].fd < 0 || fds[c].revents == 0 {
                continue;
            }
            let frames = &mut *readers[c];
            let mut stream = streams[c];
            let n = match stream.read(frames.space()) {
                Ok(0) => 0,
                Ok(n) => n,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                    continue
                }
                Err(_) => 0,
            };
            if n == 0 {
                // Closed or broken: whatever is pending there times out.
                fds[c].fd = -1;
                continue;
            }
            frames.advance(n);
            let done_ns = now_ns();
            while let Ok(Some(range)) = frames.next_frame() {
                let end = range.end;
                let payload = frames.payload(range);
                let front = pending[c].lock().expect("pending queue lock").pop_front();
                if let Some((i, sent_ns)) = front {
                    outcomes[i] = Some(Outcome {
                        sent_ns,
                        done_ns,
                        status: classify(payload),
                        hash: pipeline::fnv::hash_bytes(payload),
                        len: payload.len(),
                    });
                    answered += 1;
                }
                frames.consume(end);
            }
            frames.compact();
        }
    }
}

fn failed(sent_ns: u64, done_ns: u64, status: Status) -> Outcome {
    Outcome {
        sent_ns,
        done_ns,
        status,
        hash: 0,
        len: 0,
    }
}

/// One phase's client-side view.
#[derive(Debug, Clone)]
pub struct PhaseStats {
    pub rate: f64,
    pub seconds: f64,
    pub sent: usize,
    pub ok: usize,
    pub failed: usize,
    /// Latency from due time (ms) of successful requests.
    pub latency: Option<Timing>,
    /// p99 latency (ms) with every failed request counted as infinite.
    pub p99_all_ms: f64,
    /// Send lateness (ms): sent minus due.
    pub lateness: Option<Timing>,
    /// Requests due but unanswered at the phase's midpoint and end.
    pub backlog_mid: usize,
    pub backlog_end: usize,
    /// Per-window p50 and p99 (ms, failures infinite) over consecutive
    /// [`WINDOW_S`] windows of due time: their medians are the phase's
    /// typical latency, which a stall confined to one window cannot move.
    pub window_p50: Vec<f64>,
    pub window_p99: Vec<f64>,
}

/// Length of the windows a phase's latency is summarized over.
pub const WINDOW_S: f64 = 2.0;

impl PhaseStats {
    /// Summarize a phase whose first `warmup_s` seconds let the system
    /// settle at the new rate: warm-up requests count as sent, ok or
    /// failed, but latency, windows and backlog cover only the `seconds`
    /// measured after it.
    pub fn of(
        rate: f64,
        warmup_s: f64,
        seconds: f64,
        slots: &[Slot],
        outcomes: &[Outcome],
    ) -> PhaseStats {
        let from_ns = (warmup_s * 1e9) as u64;
        let latency_ms = |s: &Slot, o: &Outcome| match o.status {
            Status::Ok => o.done_ns.saturating_sub(s.due_ns) as f64 / 1e6,
            _ => f64::INFINITY,
        };
        let measured: Vec<(&Slot, &Outcome)> = slots
            .iter()
            .zip(outcomes)
            .filter(|(s, _)| s.due_ns >= from_ns)
            .collect();
        let ok_ms: Vec<f64> = measured
            .iter()
            .filter(|(_, o)| o.status == Status::Ok)
            .map(|(s, o)| latency_ms(s, o))
            .collect();
        let mut all: Vec<f64> = measured.iter().map(|(s, o)| latency_ms(s, o)).collect();
        all.sort_by(f64::total_cmp);
        let lateness: Vec<f64> = slots
            .iter()
            .zip(outcomes)
            .filter(|(_, o)| o.sent_ns != UNSENT)
            .map(|(s, o)| o.sent_ns.saturating_sub(s.due_ns) as f64 / 1e6)
            .collect();
        let n_windows = (seconds / WINDOW_S).round().max(1.0) as usize;
        let mut windows: Vec<Vec<f64>> = vec![Vec::new(); n_windows];
        for (s, o) in &measured {
            let at = (s.due_ns - from_ns) as f64 / 1e9;
            windows[((at / WINDOW_S) as usize).min(n_windows - 1)].push(latency_ms(s, o));
        }
        for w in windows.iter_mut() {
            w.sort_by(f64::total_cmp);
        }
        let windows: Vec<Vec<f64>> = windows.into_iter().filter(|w| !w.is_empty()).collect();
        let ok = outcomes.iter().filter(|o| o.status == Status::Ok).count();
        let end_ns = from_ns + (seconds * 1e9) as u64;
        PhaseStats {
            rate,
            seconds,
            sent: slots.len(),
            ok,
            failed: slots.len() - ok,
            latency: Timing::of(&ok_ms),
            p99_all_ms: if all.is_empty() {
                0.0
            } else {
                stats::percentile(&all, 99.0)
            },
            lateness: Timing::of(&lateness),
            backlog_mid: backlog_at(slots, outcomes, (from_ns + end_ns) / 2),
            backlog_end: backlog_at(slots, outcomes, end_ns),
            window_p50: windows.iter().map(|w| stats::percentile(w, 50.0)).collect(),
            window_p99: windows.iter().map(|w| stats::percentile(w, 99.0)).collect(),
        }
    }

    /// Median over windows of the per-window p50 (ms).
    pub fn typical_p50(&self) -> f64 {
        median_or_zero(&self.window_p50)
    }

    /// Median over windows of the per-window p99 (ms).
    pub fn typical_p99(&self) -> f64 {
        median_or_zero(&self.window_p99)
    }

    /// Little's-law ceiling: requests in flight if each took the limit.
    pub fn backlog_allowance(&self, limit_ms: f64) -> f64 {
        (self.rate * limit_ms / 1e3).max(1.0)
    }

    /// The phase meets the p99 limit with no growing backlog.
    pub fn passes(&self, limit_ms: f64) -> bool {
        self.p99_all_ms <= limit_ms && (self.backlog_end as f64) <= self.backlog_allowance(limit_ms)
    }
}

fn median_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        stats::median(v)
    }
}

/// Requests due by `at_ns` and not yet answered at `at_ns`.
pub fn backlog_at(slots: &[Slot], outcomes: &[Outcome], at_ns: u64) -> usize {
    slots
        .iter()
        .zip(outcomes)
        .filter(|(s, o)| s.due_ns <= at_ns && o.done_ns > at_ns)
        .count()
}

/// A capacity estimate from phases run at increasing offered rates.
#[derive(Debug, Clone, Copy)]
pub struct Capacity {
    pub rps: f64,
    /// Highest met and next failing rates that bracket `rps`.
    pub passed: Option<f64>,
    pub failed: Option<f64>,
}

/// The highest offered rate that meets `limit_ms` with no growing backlog.
/// `steps` are in increasing rate order. A rate is met when its step and
/// the one below it both pass (the first step needs only itself), so one
/// lucky step after misses cannot set the estimate, while a stall that
/// costs one step does not end it. The estimate is the highest met rate,
/// interpolated toward the step after it in log-p99. With no met rate
/// the first rate is scaled by limit/p99; when the last step is met it
/// is a lower bound.
pub fn capacity(steps: &[PhaseStats], limit_ms: f64) -> Capacity {
    let met = |k: usize| steps[k].passes(limit_ms) && (k == 0 || steps[k - 1].passes(limit_ms));
    let Some(k) = (0..steps.len()).rev().find(|&k| met(k)) else {
        let s = steps.first().expect("at least one step");
        let scale = if s.p99_all_ms.is_finite() && s.p99_all_ms > 0.0 {
            (limit_ms / s.p99_all_ms).min(1.0)
        } else {
            0.5
        };
        return Capacity {
            rps: s.rate * scale,
            passed: None,
            failed: Some(s.rate),
        };
    };
    let a = &steps[k];
    let Some(b) = steps.get(k + 1) else {
        return Capacity {
            rps: a.rate,
            passed: Some(a.rate),
            failed: None,
        };
    };
    // A miss without a finite p99 past the limit (requests failed, or
    // only the backlog grew) counts as four times the limit.
    let lb = if b.p99_all_ms.is_finite() && b.p99_all_ms > limit_ms {
        b.p99_all_ms
    } else {
        4.0 * limit_ms
    };
    let la = a.p99_all_ms.max(f64::MIN_POSITIVE);
    let frac = ((limit_ms.ln() - la.ln()) / (lb.ln() - la.ln())).clamp(0.0, 1.0);
    Capacity {
        rps: a.rate + frac * (b.rate - a.rate),
        passed: Some(a.rate),
        failed: Some(b.rate),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(due_ns: u64, sent_late_ns: u64, latency_ns: u64) -> (Slot, Outcome) {
        (
            Slot {
                due_ns,
                conn: 0,
                req: 0,
            },
            Outcome {
                sent_ns: due_ns + sent_late_ns,
                done_ns: due_ns + latency_ns,
                status: Status::Ok,
                hash: 0,
                len: 0,
            },
        )
    }

    #[test]
    fn schedule_is_evenly_spaced_with_a_seeded_offset() {
        let due = due_times(100.0, 2.0, 0.5);
        assert_eq!(due.len(), 200);
        assert_eq!(due[0], 5_000_000);
        assert_eq!(due[1] - due[0], 10_000_000);
        assert!(*due.last().unwrap() < 2_000_000_000);
    }

    #[test]
    fn latency_counts_from_due_time_and_lateness_is_reported() {
        // The generator sent 3 ms late; the server took 1 ms after that.
        // The request is charged 4 ms, and the lateness shows as 3 ms.
        let (slots, outcomes): (Vec<Slot>, Vec<Outcome>) = (0..40)
            .map(|i| ok(i * 10_000_000, 3_000_000, 4_000_000))
            .unzip();
        let phase = PhaseStats::of(100.0, 0.0, 0.4, &slots, &outcomes);
        assert_eq!(phase.ok, 40);
        assert_eq!(phase.latency.unwrap().p50, 4.0);
        assert_eq!(phase.lateness.unwrap().p50, 3.0);
        assert_eq!(phase.window_p50, vec![4.0]);
        assert_eq!(phase.backlog_end, 0);
        assert!(phase.passes(5.0));
        assert!(!phase.passes(3.9));
    }

    #[test]
    fn failures_miss_the_limit_and_backlog_is_counted() {
        let (slots, mut outcomes): (Vec<Slot>, Vec<Outcome>) =
            (0..100).map(|i| ok(i * 1_000_000, 0, 500_000)).unzip();
        // Two refusals: p99 over 100 attempts now lands on a failure.
        outcomes[10].status = Status::Busy;
        outcomes[20].status = Status::Timeout;
        let phase = PhaseStats::of(1000.0, 0.0, 0.1, &slots, &outcomes);
        assert_eq!(phase.failed, 2);
        assert!(phase.p99_all_ms.is_infinite());
        assert!(!phase.passes(1e9));

        // Responses that finish after the phase end are backlog.
        outcomes[10].status = Status::Ok;
        outcomes[20].status = Status::Ok;
        for o in outcomes.iter_mut().skip(60) {
            o.done_ns = 200_000_000;
        }
        assert_eq!(backlog_at(&slots, &outcomes, 100_000_000), 40);
        let phase = PhaseStats::of(1000.0, 0.0, 0.1, &slots, &outcomes);
        assert_eq!(phase.backlog_end, 40);
        // 1000 rps × 10 ms limit allows 10 in flight: 40 is growth.
        assert_eq!(phase.backlog_allowance(10.0), 10.0);
        assert!(!phase.passes(10.0));
    }

    #[test]
    fn a_stall_in_one_window_does_not_move_the_typical_tail() {
        // Five windows at 200 rps, 2 ms each; the middle one stalls at 80 ms.
        let w = (WINDOW_S * 1e9) as u64;
        let (slots, outcomes): (Vec<Slot>, Vec<Outcome>) = (0..(1000.0 * WINDOW_S) as u64)
            .map(|i| {
                let due = i * 5_000_000;
                let stalled = (2 * w..3 * w).contains(&due);
                ok(due, 0, if stalled { 80_000_000 } else { 2_000_000 })
            })
            .unzip();
        let phase = PhaseStats::of(200.0, 0.0, 5.0 * WINDOW_S, &slots, &outcomes);
        assert_eq!(phase.window_p99.len(), 5);
        assert_eq!(phase.window_p99[2], 80.0);
        assert_eq!(phase.typical_p99(), 2.0);
        assert_eq!(phase.typical_p50(), 2.0);
        // The whole-phase p99 sees the stall.
        assert_eq!(phase.p99_all_ms, 80.0);
    }

    #[test]
    fn warm_up_requests_count_but_are_not_timed() {
        // 1 s of warm-up at 100 rps (slow), then 1 s measured (fast).
        let (slots, mut outcomes): (Vec<Slot>, Vec<Outcome>) = (0..200u64)
            .map(|i| {
                ok(
                    i * 10_000_000,
                    0,
                    if i < 100 { 30_000_000 } else { 1_000_000 },
                )
            })
            .unzip();
        outcomes[5].status = Status::Error;
        let phase = PhaseStats::of(100.0, 1.0, 1.0, &slots, &outcomes);
        assert_eq!((phase.sent, phase.ok, phase.failed), (200, 199, 1));
        assert_eq!(phase.latency.unwrap().n, 100);
        assert_eq!(phase.p99_all_ms, 1.0);
        assert_eq!(phase.typical_p50(), 1.0);
    }

    /// A synthetic M/M/1-like curve: p99 = base / (1 - rate / true_cap).
    fn synthetic(rate: f64, true_cap: f64, base_ms: f64) -> PhaseStats {
        let p99 = if rate < true_cap {
            base_ms / (1.0 - rate / true_cap)
        } else {
            f64::INFINITY
        };
        PhaseStats {
            rate,
            seconds: 1.0,
            sent: 1000,
            ok: 1000,
            failed: 0,
            latency: None,
            p99_all_ms: p99,
            lateness: None,
            backlog_mid: 0,
            backlog_end: if rate < true_cap { 0 } else { 10_000 },
            window_p50: Vec::new(),
            window_p99: Vec::new(),
        }
    }

    #[test]
    fn capacity_rule_on_a_synthetic_latency_curve() {
        let (cap, base, limit) = (1000.0, 2.0, 20.0);
        // The limit is crossed where 2 / (1 - r/1000) = 20, i.e. r = 900.
        let rates = [300.0, 700.0, 850.0, 1000.0, 1150.0];
        let steps: Vec<PhaseStats> = rates.iter().map(|&r| synthetic(r, cap, base)).collect();
        let c = capacity(&steps, limit);
        assert_eq!(c.passed, Some(850.0));
        assert_eq!(c.failed, Some(1000.0));
        // Overload has no finite p99: it counts as four times the limit.
        let (la, lb) = ((2.0f64 / 0.15).ln(), 80f64.ln());
        assert!((c.rps - (850.0 + 150.0 * (20f64.ln() - la) / (lb - la))).abs() < 1e-9);

        // With a finite failing p99 the estimate interpolates in log space.
        let mut finite = steps.clone();
        finite[3].p99_all_ms = 40.0;
        finite[3].backlog_end = 0;
        let c = capacity(&finite, limit);
        let expected = 850.0
            + 150.0 * ((20f64.ln() - (2.0f64 / 0.15).ln()) / (40f64.ln() - (2.0f64 / 0.15).ln()));
        assert!((c.rps - expected).abs() < 1e-9);
        assert!(c.rps > 850.0 && c.rps < 1000.0);

        // A growing backlog fails a step even when p99 looks fine.
        let mut backlogged = steps[..3].to_vec();
        backlogged[2].backlog_end = 1000;
        assert_eq!(capacity(&backlogged, limit).failed, Some(850.0));

        // A lone pass after a miss does not count ...
        let mut stalled = steps[..3].to_vec();
        stalled[1].p99_all_ms = 500.0;
        let c = capacity(&stalled, limit);
        assert_eq!((c.passed, c.failed), (Some(300.0), Some(700.0)));
        // ... two passes in a row after it do.
        let mut recovered: Vec<PhaseStats> = [300.0, 700.0, 800.0, 850.0, 1000.0]
            .iter()
            .map(|&r| synthetic(r, cap, base))
            .collect();
        recovered[1].p99_all_ms = 500.0;
        let c = capacity(&recovered, limit);
        assert_eq!((c.passed, c.failed), (Some(850.0), Some(1000.0)));

        // Everything passes: the last rate is reported as a lower bound.
        let c = capacity(&steps[..3], limit);
        assert_eq!((c.rps, c.failed), (850.0, None));

        // Nothing passes: scale the first rate by limit / p99.
        let mut slow = steps[..2].to_vec();
        slow[0].p99_all_ms = 40.0;
        slow[1].p99_all_ms = 80.0;
        let c = capacity(&slow, limit);
        assert_eq!(c.rps, 150.0);
        assert_eq!(c.passed, None);
    }
}
