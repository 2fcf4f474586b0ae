//! Liveness faults: stalls and lossy channels.
//!
//! The bit-flip/FrameFlip/CVE families corrupt *values*; this family
//! attacks *progress*. A variant that hangs, lags, or whose response
//! channel silently drops frames never produces a wrong answer — it
//! produces no answer, which a checkpoint that waits forever cannot
//! distinguish from a slow one. These descriptors drive the straggler
//! watchdog (checkpoint deadlines escalating timeout → late-dissent →
//! quarantine) and recovery the same way the value faults
//! drive voting.
//!
//! All faults are deterministic in the batch counter so campaign
//! scenarios replay exactly.

/// How a stalled variant misbehaves once the stall begins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallMode {
    /// Responds, but only after sleeping this many milliseconds per batch.
    Delay {
        /// Added latency per batch, in milliseconds.
        delay_ms: u64,
    },
    /// Never responds again: keeps consuming requests (the enclave is
    /// alive, its channel open) but produces nothing — the
    /// indistinguishable-from-slow worst case.
    Hang,
}

/// A deterministic per-variant scheduling stall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallFault {
    /// First batch (inclusive) the stall affects.
    pub from_batch: u64,
    /// Delay or full hang.
    pub mode: StallMode,
}

/// How a lossy channel corrupts one response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelFaultMode {
    /// The response frame for the target batch is silently dropped.
    Drop,
    /// The response frame is truncated mid-frame; the monitor-side decode
    /// fails and the channel is torn down.
    Truncate,
}

/// A deterministic one-shot response-channel fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelFault {
    /// The batch whose response frame is affected.
    pub on_batch: u64,
    /// Drop or truncate.
    pub mode: ChannelFaultMode,
}

/// A liveness fault injected into one variant host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LivenessFault {
    /// Scheduling stall (delay or hang).
    Stall(StallFault),
    /// Lossy response channel.
    Channel(ChannelFault),
}

impl LivenessFault {
    /// Milliseconds to sleep before answering `batch` (0 when unaffected).
    pub fn delay_for(&self, batch: u64) -> u64 {
        match self {
            LivenessFault::Stall(StallFault {
                from_batch,
                mode: StallMode::Delay { delay_ms },
            }) if batch >= *from_batch => *delay_ms,
            _ => 0,
        }
    }

    /// Whether the variant hangs (consumes without responding) on `batch`.
    pub fn hangs_on(&self, batch: u64) -> bool {
        matches!(
            self,
            LivenessFault::Stall(StallFault { from_batch, mode: StallMode::Hang })
                if batch >= *from_batch
        )
    }

    /// Whether the response frame for `batch` is silently dropped.
    pub fn drops_on(&self, batch: u64) -> bool {
        matches!(
            self,
            LivenessFault::Channel(ChannelFault { on_batch, mode: ChannelFaultMode::Drop })
                if batch == *on_batch
        )
    }

    /// Whether the response frame for `batch` is truncated mid-frame.
    pub fn truncates_on(&self, batch: u64) -> bool {
        matches!(
            self,
            LivenessFault::Channel(ChannelFault { on_batch, mode: ChannelFaultMode::Truncate })
                if batch == *on_batch
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_faults_are_batch_deterministic() {
        let hang = LivenessFault::Stall(StallFault { from_batch: 3, mode: StallMode::Hang });
        assert!(!hang.hangs_on(2));
        assert!(hang.hangs_on(3));
        assert!(hang.hangs_on(100));
        assert_eq!(hang.delay_for(3), 0);

        let delay = LivenessFault::Stall(StallFault {
            from_batch: 1,
            mode: StallMode::Delay { delay_ms: 40 },
        });
        assert_eq!(delay.delay_for(0), 0);
        assert_eq!(delay.delay_for(1), 40);
        assert!(!delay.hangs_on(9));
    }

    #[test]
    fn channel_faults_hit_exactly_one_batch() {
        let drop =
            LivenessFault::Channel(ChannelFault { on_batch: 2, mode: ChannelFaultMode::Drop });
        assert!(!drop.drops_on(1));
        assert!(drop.drops_on(2));
        assert!(!drop.drops_on(3));
        assert!(!drop.truncates_on(2));

        let trunc = LivenessFault::Channel(ChannelFault {
            on_batch: 4,
            mode: ChannelFaultMode::Truncate,
        });
        assert!(trunc.truncates_on(4));
        assert!(!trunc.truncates_on(5));
        assert!(!trunc.drops_on(4));
    }
}
