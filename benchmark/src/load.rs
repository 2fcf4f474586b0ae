//! The two load generators. Both submit through `ServeHandle::submit` and
//! resolve through `Ticket::wait`, check every answer, and count a shed,
//! failed, expired or mismatched request as failed.

use crate::span;
use crate::stats::median;
use crate::system::{tenant, Checker, Inputs, INPUT_PERIOD, MODEL_KEY};
use mvtee_serve::{InferResponse, RequestOutcome, ServeHandle, Ticket};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Request counts of one phase (a window, or a whole run when summed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub succeeded: u64,
    pub failed: u64,
    pub mismatched: u64,
    pub shed: u64,
}

impl Tally {
    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.succeeded += other.succeeded;
        self.failed += other.failed;
        self.mismatched += other.mismatched;
        self.shed += other.shed;
    }

    /// Requests that did not come back correct, whatever the reason.
    pub fn not_ok(&self) -> u64 {
        self.attempted - self.succeeded
    }

    pub fn record(
        &mut self,
        checker: &Checker,
        input_index: usize,
        resp: &Result<InferResponse, String>,
    ) {
        match resp {
            Ok(InferResponse {
                outcome: RequestOutcome::Ok(t),
                ..
            }) => {
                if checker.matches(input_index, t) {
                    self.succeeded += 1;
                } else {
                    self.mismatched += 1;
                }
            }
            _ => self.failed += 1,
        }
    }
}

/// What one measurement window observed.
#[derive(Debug, Clone, Default)]
pub struct Window {
    pub tally: Tally,
    /// Time the rate is taken over, seconds: closed loop from the window's
    /// start to its last completion before the deadline (so a batch cut off
    /// by the deadline does not quantise the rate), open loop the schedule.
    pub seconds: f64,
    /// Completions inside the window (closed loop: before its deadline).
    pub completed_in_window: u64,
    /// Per-request latency in ms: closed loop from admission, open loop
    /// from the request's due time.
    pub latencies_ms: Vec<f64>,
    /// Open loop only: how late each submission ran behind its due time, ms.
    pub lateness_ms: Vec<f64>,
}

impl Window {
    pub fn throughput_rps(&self) -> f64 {
        self.completed_in_window as f64 / self.seconds
    }

    /// The window's latencies cut into `blocks` consecutive runs of requests
    /// (they are kept in submission order) and the median of each.
    pub fn latency_block_medians(&self, blocks: usize) -> Vec<f64> {
        let n = self.latencies_ms.len();
        (0..blocks)
            .map(|b| &self.latencies_ms[b * n / blocks..(b + 1) * n / blocks])
            .filter(|block| !block.is_empty())
            .map(median)
            .collect()
    }
}

fn response_latency_ms(resp: &Result<InferResponse, String>) -> Option<f64> {
    match resp {
        Ok(r) if r.outcome.is_ok() => Some(r.latency.as_secs_f64() * 1e3),
        _ => None,
    }
}

fn submit(
    handle: &ServeHandle,
    inputs: &Inputs,
    index: usize,
    request: usize,
) -> Result<Ticket, ()> {
    let _span = span::span("serve.submit");
    let ticket = handle
        .submit(tenant(request), MODEL_KEY, inputs.inputs[index].clone())
        .map_err(|_shed| ())?;
    // The span is tagged when it closes, by which time the id is known.
    span::set_request(ticket.id);
    Ok(ticket)
}

/// Closed loop: this one thread keeps `outstanding` tickets in flight for
/// `duration`, so micro-batches fill and flush on size. The rate counts
/// completions before the deadline over the time to the last of them; tickets
/// still in flight at the deadline are drained and checked but not counted.
pub fn closed_window(
    handle: &ServeHandle,
    inputs: &Inputs,
    checker: &Checker,
    outstanding: usize,
    duration: Duration,
    rng_seed: u64,
) -> Window {
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let mut window = Window {
        seconds: duration.as_secs_f64(),
        ..Window::default()
    };
    let mut inflight: VecDeque<(Ticket, usize)> = VecDeque::with_capacity(outstanding);
    let start = Instant::now();
    let deadline = start + duration;
    let mut request = 0usize;
    loop {
        while inflight.len() < outstanding && Instant::now() < deadline {
            let index = rng.gen_range(0..INPUT_PERIOD);
            window.tally.attempted += 1;
            match submit(handle, inputs, index, request) {
                Ok(ticket) => inflight.push_back((ticket, index)),
                Err(()) => window.tally.shed += 1,
            }
            request += 1;
        }
        let Some((ticket, index)) = inflight.pop_front() else {
            break;
        };
        span::set_request(ticket.id);
        let resp = span::within("serve.wait", || ticket.wait());
        let now = Instant::now();
        if now < deadline {
            window.completed_in_window += 1;
            window.seconds = (now - start).as_secs_f64();
        }
        window.tally.record(checker, index, &resp);
        window.latencies_ms.extend(response_latency_ms(&resp));
    }
    window
}

/// When request `i` of an open-loop window is due, as an offset from the
/// window start.
pub fn due_offset(i: u64, rate_rps: f64) -> Duration {
    Duration::from_secs_f64(i as f64 / rate_rps)
}

/// Requests an open-loop window of `duration` at `rate_rps` submits.
pub fn open_request_count(duration: Duration, rate_rps: f64) -> u64 {
    (duration.as_secs_f64() * rate_rps).floor().max(1.0) as u64
}

/// Latency of an open-loop request timed from its due time: how late the
/// generator submitted it plus how long the server took from admission.
pub fn latency_from_due_ms(lateness: Duration, server_latency: Duration) -> f64 {
    (lateness + server_latency).as_secs_f64() * 1e3
}

/// Open loop: this thread submits on a fixed schedule at `rate_rps`
/// regardless of completions, so micro-batches flush on age; a second thread
/// only waits on the tickets. Each request is timed from its *due* time.
pub fn open_window(
    handle: &ServeHandle,
    inputs: &Inputs,
    checker: &Checker,
    rate_rps: f64,
    duration: Duration,
    rng_seed: u64,
) -> Window {
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let count = open_request_count(duration, rate_rps);
    let (tx, rx) = mpsc::channel::<(Ticket, usize, Duration)>();
    let mut window = Window {
        seconds: duration.as_secs_f64(),
        ..Window::default()
    };
    std::thread::scope(|scope| {
        let reaper = scope.spawn(move || {
            let mut tally = Tally::default();
            let mut latencies_ms = Vec::new();
            for (ticket, index, lateness) in rx {
                let resp = ticket.wait();
                tally.record(checker, index, &resp);
                if let Ok(r) = &resp {
                    if r.outcome.is_ok() {
                        latencies_ms.push(latency_from_due_ms(lateness, r.latency));
                    }
                }
            }
            (tally, latencies_ms)
        });
        let start = Instant::now();
        for i in 0..count {
            let due = start + due_offset(i, rate_rps);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let index = rng.gen_range(0..INPUT_PERIOD);
            let lateness = Instant::now().saturating_duration_since(due);
            window.lateness_ms.push(lateness.as_secs_f64() * 1e3);
            window.tally.attempted += 1;
            match submit(handle, inputs, index, i as usize) {
                Ok(ticket) => {
                    let _ = tx.send((ticket, index, lateness));
                }
                Err(()) => window.tally.shed += 1,
            }
        }
        drop(tx);
        let (tally, latencies_ms) = reaper.join().expect("reaper thread panicked");
        window.tally.add(&tally);
        window.latencies_ms = latencies_ms;
    });
    window.completed_in_window = window.tally.succeeded;
    window
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_follow_the_fixed_schedule() {
        assert_eq!(due_offset(0, 110.0), Duration::ZERO);
        assert_eq!(due_offset(110, 110.0), Duration::from_secs(1));
        assert_eq!(due_offset(3, 4.0), Duration::from_millis(750));
        assert_eq!(open_request_count(Duration::from_secs(3), 110.0), 330);
        assert_eq!(open_request_count(Duration::from_millis(2500), 4.0), 10);
        // A window too short for one period still offers one request.
        assert_eq!(open_request_count(Duration::from_millis(100), 4.0), 1);
    }

    #[test]
    fn latency_is_timed_from_the_due_time() {
        // Submitted 0.4 ms late and served in 5.6 ms: the user waited 6 ms.
        let ms = latency_from_due_ms(Duration::from_micros(400), Duration::from_micros(5600));
        assert!((ms - 6.0).abs() < 1e-9);
        // Lateness never goes negative: an early wake-up counts as on time.
        let start = Instant::now();
        assert_eq!(
            start.saturating_duration_since(start + Duration::from_secs(1)),
            Duration::ZERO
        );
    }

    #[test]
    fn latencies_are_cut_into_blocks_in_submission_order() {
        let window = Window {
            latencies_ms: vec![5.0, 6.0, 7.0, 20.0, 21.0, 22.0, 9.0, 9.0],
            ..Window::default()
        };
        assert_eq!(window.latency_block_medians(4), [5.5, 13.5, 21.5, 9.0]);
        assert_eq!(window.latency_block_medians(1), [9.0]);
        // Fewer requests than blocks: the empty blocks are dropped.
        let sparse = Window {
            latencies_ms: vec![3.0, 4.0],
            ..Window::default()
        };
        assert_eq!(sparse.latency_block_medians(4), [3.0, 4.0]);
        assert!(Window::default().latency_block_medians(4).is_empty());
    }

    #[test]
    fn tallies_add_up() {
        let mut total = Tally::default();
        total.add(&Tally {
            attempted: 10,
            succeeded: 8,
            failed: 1,
            mismatched: 0,
            shed: 1,
        });
        total.add(&Tally {
            attempted: 5,
            succeeded: 5,
            ..Tally::default()
        });
        assert_eq!(total.attempted, 15);
        assert_eq!(total.not_ok(), 2);
    }
}
