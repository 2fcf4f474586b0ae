//! A split connection leaves no demultiplexer behind: once every lane of
//! both ends is dropped, both `mux-pump` threads exit, over an in-memory
//! pair as over loopback TCP.
//!
//! One test in its own binary, so the `/proc/self/task` census sees no
//! other test's pumps.

use mvtee_crypto::channel::{memory_pair, FrameTransport};
use mvtee_crypto::mux::{split, LANE_REQUEST, LANE_RESPONSE};
use mvtee_crypto::tcp::loopback_pair;
use std::time::{Duration, Instant};

/// Live threads of this process named `mux-pump`.
fn pumps() -> usize {
    let tasks = std::fs::read_dir("/proc/self/task").expect("procfs");
    tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.trim_end() == "mux-pump")
        .count()
}

/// Polls until the census reads `want` (a thread names itself only after
/// it starts, and leaves the census only once it has exited) or `within`
/// runs out; returns the last reading.
fn settle(want: usize, within: Duration) -> usize {
    let deadline = Instant::now() + within;
    loop {
        let now = pumps();
        if now == want || Instant::now() >= deadline {
            return now;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn split_both_then_drop<T: FrameTransport + Sync + 'static>(what: &str, (a, b): (T, T)) {
    let before = pumps();
    let lanes = (
        split(a, &[LANE_REQUEST, LANE_RESPONSE]),
        split(b, &[LANE_REQUEST]),
    );
    assert_eq!(
        settle(before + 2, Duration::from_secs(5)),
        before + 2,
        "{what}: pumps started"
    );
    drop(lanes);
    let left = settle(before, Duration::from_secs(1)) - before;
    assert_eq!(
        left, 0,
        "{what}: {left} mux-pump thread(s) outlived every lane by 1 s"
    );
}

#[test]
fn dropping_every_lane_of_both_ends_stops_both_pumps() {
    split_both_then_drop("memory pair", memory_pair());
    split_both_then_drop("loopback pair", loopback_pair().expect("loopback"));
}
