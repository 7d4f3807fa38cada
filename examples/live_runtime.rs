//! The tokio live runtime: the same MyAlertBuddy state machine running
//! against wall-clock time on a one-shard host, with loopback channels
//! standing in for the IM/email services.
//!
//! ```text
//! cargo run --example live_runtime
//! ```

use simba::core::alert::IncomingAlert;
use simba::core::subscription::UserId;
use simba::core::Telemetry;
use simba::runtime::{
    LoopbackChannels, RuntimeNotice, ShardedHost, ShardedHostConfig, SharedChannels,
};
use simba::sim::{SimDuration, SimTime};
use simba_bench::harness::standard_config;
use std::sync::Arc;
use std::time::Duration;

#[tokio::main(flavor = "current_thread")]
async fn main() {
    // IM sends are acknowledged by the "user" 400 ms after delivery.
    let channels = SharedChannels::new(LoopbackChannels::always_ack(Duration::from_millis(400)));
    // One shard, hibernation off: alice's buddy stays resident.
    let config = ShardedHostConfig {
        shards: 1,
        hibernate_after: SimDuration::ZERO,
        ..Default::default()
    };
    let (host, mut notices) = ShardedHost::new(
        channels,
        config,
        Arc::new(|_: &UserId| standard_config()),
        Telemetry::disabled(),
    )
    .expect("in-memory shard log");
    let alice = UserId::new("alice");
    host.register(alice.clone()).await;

    // A watchdog probes the host's shard worker while we use it.
    let watchdog = tokio::spawn(simba::runtime::run_watchdog(
        host.probe(),
        Duration::from_millis(500),
        Duration::from_millis(200),
        3,
    ));

    println!("submitting a critical alert over IM…");
    let started = std::time::Instant::now();
    host.submit_im(
        &alice,
        IncomingAlert::from_im("aladdin-gw", "Basement Water Sensor ON", SimTime::ZERO),
    )
    .await;

    // Watch the pipeline unfold in real time.
    while let Some(notice) = notices.recv().await {
        let at = started.elapsed();
        match notice.notice {
            RuntimeNotice::AckSent { source } => {
                println!("[{at:>8.1?}] buddy acked the alert back to {source}");
            }
            RuntimeNotice::DeliveryFinished { delivery, status } => {
                println!("[{at:>8.1?}] delivery {delivery:?} finished: {status:?}");
                break;
            }
            RuntimeNotice::Rejuvenating(trigger) => {
                println!("[{at:>8.1?}] rejuvenating ({trigger})");
                break;
            }
        }
    }

    // Let the watchdog observe the healthy host for a moment, then shut
    // it down; the watchdog notices within a few probes.
    tokio::time::sleep(Duration::from_millis(1_200)).await;
    host.shutdown().await;
    let report = watchdog.await.expect("watchdog task");
    println!(
        "watchdog report: {} healthy probes, {} missed",
        report.healthy_probes, report.missed_probes
    );
}
