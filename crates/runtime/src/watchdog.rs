//! A live watchdog task: the MDC role over a running [`ShardedHost`].
//!
//! Periodically probes every shard worker with AreYouWorking() through a
//! [`HostProbe`]; counts misses. Buddy-level restarts (crash, rejuvenation)
//! happen inside the shard workers; the live watchdog reports on the
//! workers themselves — restarting a task graph is the supervisor's
//! choice, so the function returns when the host stops responding.
//!
//! [`ShardedHost`]: crate::ShardedHost

use crate::shard::HostProbe;
use simba_core::Telemetry;
use simba_telemetry::Event;
use std::time::Duration;
use tokio::time::timeout;

/// What the watchdog observed over its run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WatchdogReport {
    /// Probes answered in time.
    pub healthy_probes: u64,
    /// Probes that timed out or failed before the host went down.
    pub missed_probes: u64,
}

/// Probes `probe` every `interval` with the given `reply_timeout`.
/// Returns once `max_consecutive_misses` probes in a row fail (a shard
/// worker hung or gone).
pub async fn run_watchdog(
    probe: HostProbe,
    interval: Duration,
    reply_timeout: Duration,
    max_consecutive_misses: u32,
) -> WatchdogReport {
    run_watchdog_observed(
        probe,
        interval,
        reply_timeout,
        max_consecutive_misses,
        Telemetry::disabled(),
    )
    .await
}

/// Like [`run_watchdog`], but recording every probe through `telemetry`:
/// a `watchdog.probe` event per probe, probe round-trip latency into the
/// `watchdog.probe_latency_ms` histogram, and a `watchdog.service_down`
/// event when the miss limit is reached.
pub async fn run_watchdog_observed(
    probe: HostProbe,
    interval: Duration,
    reply_timeout: Duration,
    max_consecutive_misses: u32,
    telemetry: Telemetry,
) -> WatchdogReport {
    let mut report = WatchdogReport::default();
    let mut consecutive = 0u32;
    let epoch = tokio::time::Instant::now();
    let mut ticker = tokio::time::interval(interval);
    ticker.set_missed_tick_behavior(tokio::time::MissedTickBehavior::Delay);
    // The first tick fires immediately; skip it so probes start after one
    // interval, like the simulated MDC.
    ticker.tick().await;
    loop {
        ticker.tick().await;
        let asked_at = tokio::time::Instant::now();
        let alive = matches!(
            timeout(reply_timeout, probe.are_you_working()).await,
            Ok(true)
        );
        if telemetry.enabled() {
            let now = tokio::time::Instant::now();
            let latency_ms = now.duration_since(asked_at).as_millis() as u64;
            telemetry.metrics().counter("watchdog.probes").incr();
            if !alive {
                telemetry.metrics().counter("watchdog.missed_probes").incr();
            }
            telemetry
                .metrics()
                .histogram("watchdog.probe_latency_ms")
                .observe_ms(latency_ms);
            telemetry.emit(
                Event::new("watchdog.probe", now.duration_since(epoch).as_millis() as u64)
                    .with("alive", alive)
                    .with("latency_ms", latency_ms),
            );
        }
        if alive {
            report.healthy_probes += 1;
            consecutive = 0;
        } else {
            report.missed_probes += 1;
            consecutive += 1;
            if consecutive >= max_consecutive_misses {
                if telemetry.enabled() {
                    telemetry.emit(
                        Event::new(
                            "watchdog.service_down",
                            tokio::time::Instant::now().duration_since(epoch).as_millis() as u64,
                        )
                        .with("missed", report.missed_probes),
                    );
                }
                return report;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channels::{LoopbackChannels, SharedChannels};
    use crate::shard::{ConfigFactory, ShardedHost, ShardedHostConfig};
    use simba_core::MabConfig;
    use simba_sim::SimDuration;
    use std::sync::Arc;

    fn one_shard_host() -> ShardedHost {
        let config =
            ShardedHostConfig { shards: 1, hibernate_after: SimDuration::ZERO, ..Default::default() };
        let factory: ConfigFactory = Arc::new(|_| MabConfig::default());
        let (host, _notices) =
            ShardedHost::new(
            SharedChannels::new(LoopbackChannels::accept_all()),
            config,
            factory,
            Telemetry::disabled(),
        )
        .expect("in-memory shard logs");
        host
    }

    #[tokio::test(start_paused = true)]
    async fn watchdog_sees_healthy_host_then_detects_shutdown() {
        let host = one_shard_host();
        let watchdog = tokio::spawn(run_watchdog(
            host.probe(),
            Duration::from_secs(180),
            Duration::from_secs(30),
            2,
        ));

        // Let a few healthy probes happen, then stop the host.
        tokio::time::sleep(Duration::from_secs(700)).await;
        host.shutdown().await;

        let report = watchdog.await.unwrap();
        assert!(report.healthy_probes >= 3, "healthy {report:?}");
        assert_eq!(report.missed_probes, 2);
    }

    #[tokio::test(start_paused = true)]
    async fn observed_watchdog_records_probe_latency_and_shutdown() {
        use simba_telemetry::{RingBufferSink, Telemetry};

        let host = one_shard_host();
        let sink = Arc::new(RingBufferSink::new(64));
        let telemetry = Telemetry::with_sink(sink.clone());
        let watchdog = tokio::spawn(run_watchdog_observed(
            host.probe(),
            Duration::from_secs(180),
            Duration::from_secs(30),
            2,
            telemetry.clone(),
        ));

        tokio::time::sleep(Duration::from_secs(700)).await;
        host.shutdown().await;
        let report = watchdog.await.unwrap();

        let snap = telemetry.metrics().snapshot();
        assert_eq!(snap.counter("watchdog.probes"), report.healthy_probes + report.missed_probes);
        assert_eq!(snap.counter("watchdog.missed_probes"), report.missed_probes);
        assert_eq!(
            snap.histogram("watchdog.probe_latency_ms").unwrap().count,
            report.healthy_probes + report.missed_probes
        );
        let events = sink.events();
        assert!(events.iter().any(|e| e.name == "watchdog.probe"));
        assert_eq!(events.last().unwrap().name, "watchdog.service_down");
    }

    #[tokio::test(start_paused = true)]
    async fn probe_answers_while_up_and_fails_after_shutdown() {
        let host = one_shard_host();
        let probe = host.probe();
        assert!(probe.are_you_working().await);
        host.shutdown().await;
        assert!(!probe.are_you_working().await);
    }
}
