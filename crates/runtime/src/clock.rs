//! Mapping wall-clock time onto [`SimTime`].

use simba_sim::SimTime;
use tokio::time::Instant;

/// A monotonically increasing clock anchored when it starts.
///
/// Under `tokio::time::pause()` the clock follows tokio's virtual time,
/// which makes live-runtime tests as deterministic as the simulation.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeClock {
    epoch: Instant,
}

impl RuntimeClock {
    /// Anchors the clock at the current instant.
    pub fn start() -> Self {
        RuntimeClock {
            epoch: Instant::now(),
        }
    }

    /// Milliseconds elapsed since the anchor, as a [`SimTime`].
    pub fn now(&self) -> SimTime {
        SimTime::from_millis(self.epoch.elapsed().as_millis() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[tokio::test(start_paused = true)]
    async fn clock_follows_tokio_time() {
        let clock = RuntimeClock::start();
        assert_eq!(clock.now(), SimTime::ZERO);
        tokio::time::advance(Duration::from_millis(1_500)).await;
        assert_eq!(clock.now(), SimTime::from_millis(1_500));
        tokio::time::advance(Duration::from_secs(60)).await;
        assert_eq!(clock.now(), SimTime::from_millis(61_500));
    }
}
