//! Integration: the tokio live runtime drives the same core as the
//! simulation — an alert flows source → host → buddy → channel adapters
//! → ack, under paused (deterministic) tokio time, on the one-shard host.

use simba::core::alert::IncomingAlert;
use simba::core::delivery::{DeliveryStatus, SendFailure};
use simba::core::subscription::UserId;
use simba::core::Telemetry;
use simba::runtime::{
    HostNotice, LoopbackChannels, RuntimeNotice, SendOutcome, SharedChannels, ShardedHost,
    ShardedHostConfig,
};
use simba::sim::{SimDuration, SimTime};
use simba_bench::harness::standard_config;
use std::sync::Arc;
use std::time::Duration;

/// A one-shard host (every buddy resident, hibernation off) serving the
/// harness's standard user, alice.
async fn alice_host(
    loopback: LoopbackChannels,
    log_dir: Option<std::path::PathBuf>,
) -> (ShardedHost, tokio::sync::mpsc::Receiver<HostNotice>) {
    let config = ShardedHostConfig {
        shards: 1,
        hibernate_after: SimDuration::ZERO,
        log_dir,
        ..ShardedHostConfig::default()
    };
    let (host, notices) = ShardedHost::new(
        SharedChannels::new(loopback),
        config,
        Arc::new(|_: &UserId| standard_config()),
        Telemetry::disabled(),
    )
    .expect("shard log opens");
    host.register(alice()).await;
    (host, notices)
}

fn alice() -> UserId {
    UserId::new("alice")
}

async fn wait_finished(notices: &mut tokio::sync::mpsc::Receiver<HostNotice>) -> DeliveryStatus {
    loop {
        let HostNotice { notice, .. } = notices.recv().await.expect("host alive");
        if let RuntimeNotice::DeliveryFinished { status, .. } = notice {
            return status;
        }
    }
}

#[tokio::test(start_paused = true)]
async fn live_alert_is_acked_in_under_a_second() {
    let (host, mut notices) =
        alice_host(LoopbackChannels::always_ack(Duration::from_millis(350)), None).await;

    host.submit_im(&alice(), IncomingAlert::from_im("aladdin-gw", "Sensor live ON", SimTime::ZERO))
        .await;
    let t0 = tokio::time::Instant::now();
    let status = wait_finished(&mut notices).await;
    assert!(matches!(status, DeliveryStatus::Acked { block: 0, .. }));
    assert!(t0.elapsed() < Duration::from_secs(1));
    host.shutdown().await;
}

#[tokio::test(start_paused = true)]
async fn live_fallback_cascade_im_to_sms_to_email() {
    // The "Critical" mode escalates IM (60 s) → SMS (120 s) → email.
    let mut loopback = LoopbackChannels::accept_all();
    loopback.script(
        simba_bench::harness::USER_IM,
        SendOutcome::Failed(SendFailure::RecipientUnreachable),
    );
    let (host, mut notices) = alice_host(loopback, None).await;

    let t0 = tokio::time::Instant::now();
    host.submit_im(
        &alice(),
        IncomingAlert::from_im("aladdin-gw", "Sensor cascade ON", SimTime::ZERO),
    )
    .await;
    let status = wait_finished(&mut notices).await;
    // IM fails synchronously → SMS accepted but unacknowledgeable → its
    // 120 s window expires → email (fire-and-forget) completes block 2.
    assert!(matches!(status, DeliveryStatus::Unconfirmed { block: 2, .. }), "status {status:?}");
    assert!(t0.elapsed() >= Duration::from_secs(120), "elapsed {:?}", t0.elapsed());
    host.shutdown().await;
}

#[tokio::test(start_paused = true)]
async fn durable_service_replays_unprocessed_alerts_across_restart() {
    use simba::core::shardlog::{ShardLog, ShardLogConfig};

    let dir = std::env::temp_dir().join(format!("simba-live-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let shard_dir = dir.join("shard-000");

    // Incarnation 1 dies after logging an alert but before routing it —
    // simulated by writing the committed record directly, as a crashed
    // host would have left it.
    {
        let mut log = ShardLog::open(ShardLogConfig::on_disk(&shard_dir)).expect("fresh log");
        log.append(
            &alice(),
            &IncomingAlert::from_im("aladdin-gw", "Sensor durable ON", SimTime::from_secs(1)),
            SimTime::from_secs(1),
        )
        .expect("append");
        log.commit().expect("commit");
        // No mark_processed: the crash hit before routing completed.
    }

    // Incarnation 2 starts over the same log and must replay it.
    let log = ShardLog::open(ShardLogConfig::on_disk(&shard_dir)).expect("reopen");
    assert_eq!(log.unprocessed_len(), 1);
    drop(log);
    let (host, mut notices) =
        alice_host(LoopbackChannels::always_ack(Duration::from_millis(250)), Some(dir.clone()))
            .await;

    // The replayed alert is routed and acked with no new submissions.
    let status = wait_finished(&mut notices).await;
    assert!(matches!(status, DeliveryStatus::Acked { .. }), "status {status:?}");
    host.shutdown().await;
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[tokio::test(start_paused = true)]
async fn live_email_alert_routes_without_ack() {
    let (host, mut notices) =
        alice_host(LoopbackChannels::always_ack(Duration::from_millis(300)), None).await;

    host.submit_email(
        &alice(),
        IncomingAlert::from_email(
            "assistant@desktop",
            "SIMBA Desktop Assistant",
            "Email: server down!",
            "forwarded by the assistant",
            SimTime::ZERO,
        ),
    )
    .await;
    // "Email:" in the subject maps to Work → Critical mode (IM first) → acked.
    let status = wait_finished(&mut notices).await;
    assert!(matches!(status, DeliveryStatus::Acked { .. }));
    // Email arrivals produce no AckSent notices (acks are an IM concept)
    // — already consumed by wait_finished if any existed; verify health
    // through a watchdog probe instead: the host is up.
    assert!(host.probe().are_you_working().await);
    host.shutdown().await;
}
