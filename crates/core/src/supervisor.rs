//! Worker heartbeat supervision: turning a *silent* stall into a
//! diagnosable, recoverable fault.
//!
//! Out-of-process workers keepalive-ping their heartbeat lane
//! ([`mvtee_crypto::mux::LANE_HEARTBEAT`]). The monitor watches each
//! lane with a receive deadline: a healthy worker resets the miss
//! counter every ping; a wedged or partitioned one accumulates
//! [`HeartbeatMissed`] events until the policy's miss budget is
//! exhausted, at which point the supervisor records [`WorkerStalled`]
//! and **closes the worker's connection**. That escalation is the whole
//! trick — the connection's mux pump exits and drops the variant's
//! response port, so the variant's stage receives `Closed` exactly as
//! for a crash, quarantines the variant and files its recovery: stalls
//! heal through the same audited path as deaths instead of hanging the
//! panel forever.
//!
//! [`HeartbeatMissed`]: crate::events::MonitorEvent::HeartbeatMissed
//! [`WorkerStalled`]: crate::events::MonitorEvent::WorkerStalled

use crate::config::SupervisionPolicy;
use crate::events::{EventLog, MonitorEvent};
use mvtee_crypto::channel::FrameTransport;
use mvtee_crypto::mux::MuxLane;
use mvtee_crypto::CryptoError;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

struct Inner {
    stop: AtomicBool,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

/// Owns one watcher thread per supervised worker connection.
///
/// Cloneable (`Arc`-shared) so launch and recovery alike
/// register watchers on the same monitor: respawned and reconnected
/// workers get supervised exactly like first-launch ones.
#[derive(Clone)]
pub struct HeartbeatMonitor {
    inner: Arc<Inner>,
}

impl Default for HeartbeatMonitor {
    fn default() -> Self {
        Self::new()
    }
}

impl HeartbeatMonitor {
    /// Creates a monitor with no watchers.
    pub fn new() -> Self {
        HeartbeatMonitor {
            inner: Arc::new(Inner {
                stop: AtomicBool::new(false),
                threads: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Spawns a watcher over one worker's heartbeat lane.
    ///
    /// The watcher exits on its own when the connection dies (the data
    /// plane owns connection-loss handling), when it escalates a stall,
    /// or when [`HeartbeatMonitor::shutdown`] is called.
    pub fn watch(
        &self,
        partition: usize,
        variant: usize,
        lane: MuxLane,
        policy: &SupervisionPolicy,
        events: EventLog,
    ) {
        let interval = policy.heartbeat_interval();
        let miss_budget = policy.miss_budget.max(1);
        let inner = Arc::clone(&self.inner);
        let thread = std::thread::Builder::new()
            .name(format!("hb-watch-p{partition}v{variant}"))
            .spawn(move || {
                let mut missed = 0u32;
                loop {
                    if inner.stop.load(Ordering::Acquire) {
                        break;
                    }
                    match lane.recv_frame_deadline(interval) {
                        Ok(_) => missed = 0,
                        Err(CryptoError::RecvTimeout) => {
                            missed += 1;
                            events.record(MonitorEvent::HeartbeatMissed {
                                partition,
                                variant,
                                missed,
                            });
                            if missed >= miss_budget {
                                events.record(MonitorEvent::WorkerStalled {
                                    partition,
                                    variant,
                                    missed,
                                });
                                // Escalate: closing the shared mux
                                // transport ends its pump, which drops
                                // the response port; the stage sees it
                                // close, quarantines the variant and
                                // requests recovery — the stall heals
                                // like a crash.
                                lane.close();
                                break;
                            }
                        }
                        // Connection closed or violated: the data plane
                        // already observes and handles that.
                        Err(_) => break,
                    }
                }
            })
            .expect("thread spawn cannot fail");
        self.inner.threads.lock().expect("heartbeat monitor poisoned").push(thread);
    }

    /// Watchers ever started and not yet joined by a shutdown.
    #[cfg(test)]
    pub(crate) fn watchers(&self) -> usize {
        self.inner.threads.lock().expect("heartbeat monitor poisoned").len()
    }

    /// Stops every watcher and joins its thread. Each watcher notices
    /// within one heartbeat interval (its receive deadline).
    pub fn shutdown(&self) {
        self.inner.stop.store(true, Ordering::Release);
        let threads: Vec<_> =
            self.inner.threads.lock().expect("heartbeat monitor poisoned").drain(..).collect();
        for t in threads {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvtee_crypto::channel::memory_pair;
    use mvtee_crypto::mux::{self, LANE_HEARTBEAT};
    use mvtee_crypto::tcp::{bind_loopback, TcpTransport};
    use std::time::Duration;

    fn policy(interval_ms: u64, budget: u32) -> SupervisionPolicy {
        SupervisionPolicy {
            heartbeat_interval_ms: interval_ms,
            miss_budget: budget,
            ..SupervisionPolicy::enabled()
        }
    }

    #[test]
    fn silent_peer_escalates_to_stall_and_closes_the_connection() {
        let (listener, port) = bind_loopback().unwrap();
        let dial = std::thread::spawn(move || {
            TcpTransport::connect(&format!("127.0.0.1:{port}")).unwrap()
        });
        let (stream, _) = listener.accept().unwrap();
        let monitor_side = TcpTransport::new(stream).unwrap();
        let worker_side = dial.join().unwrap();

        let mut lanes = mux::split(monitor_side, &[LANE_HEARTBEAT]);
        let hb = lanes.pop().unwrap();
        let events = EventLog::new();
        let monitor = HeartbeatMonitor::new();
        monitor.watch(0, 1, hb, &policy(10, 3), events.clone());
        // The worker never pings: three missed windows escalate.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while events.stalls().is_empty() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(events.stalls(), vec![(0, 1)]);
        // Escalation closed the connection: the worker side observes it.
        assert!(worker_side.recv_frame().is_err());
        monitor.shutdown();
    }

    #[test]
    fn pinging_peer_never_trips_the_budget() {
        let (monitor_side, worker_side) = memory_pair();
        let mut lanes = mux::split(monitor_side, &[LANE_HEARTBEAT]);
        let hb = lanes.pop().unwrap();
        let worker_lanes = mux::split(worker_side, &[LANE_HEARTBEAT]);
        let keepalive = mux::spawn_keepalive(
            worker_lanes.into_iter().next().unwrap(),
            Duration::from_millis(5),
        );
        let events = EventLog::new();
        let monitor = HeartbeatMonitor::new();
        monitor.watch(2, 0, hb, &policy(50, 2), events.clone());
        std::thread::sleep(Duration::from_millis(200));
        assert!(events.stalls().is_empty(), "live worker must not be escalated");
        keepalive.stop();
        monitor.shutdown();
    }
}
