//! Integration tests for the host: the per-user buddy lifecycle (acks,
//! fallbacks, retirement, replay, rejuvenation, notices, telemetry) on
//! the one-shard shape, routing across shards, hibernation and its races,
//! corrupt-snapshot fallback, crash-replay over on-disk shard logs, and
//! the one-buddy-crashes-alone group-commit contract.

use simba_core::address::{Address, AddressBook, CommType};
use simba_core::classify::{Classifier, KeywordField};
use simba_core::delivery::{AttemptId, SendFailure};
use simba_core::mab::DeliveryId;
use simba_core::mode::DeliveryMode;
use simba_core::rejuvenate::{RejuvenationPolicy, RejuvenationTrigger};
use simba_core::shardlog::{ShardLog, ShardLogConfig};
use simba_core::subscription::{SubscriptionRegistry, UserId};
use simba_core::{DeliveryStatus, IncomingAlert, MabConfig, Telemetry};
use simba_runtime::{
    ConfigFactory, HostNotice, LoopbackChannels, RuntimeNotice, SendOutcome, SharedChannels,
    ShardedHost, ShardedHostConfig,
};
use simba_sim::{SimDuration, SimTime};
use simba_telemetry::RingBufferSink;
use std::sync::Arc;
use std::time::Duration;
use tokio::sync::mpsc;

fn user_config(name: &str) -> MabConfig {
    let mut classifier = Classifier::new();
    classifier.accept_source("aladdin-gw", KeywordField::Body, "cfg");
    classifier.map_keyword("Sensor", "Home");
    let mut registry = SubscriptionRegistry::new();
    let user = UserId::new(name);
    let profile = registry.register_user(user.clone());
    let mut book = AddressBook::new();
    book.add(Address::new("IM", CommType::Im, format!("im:{name}"))).unwrap();
    book.add(Address::new("EM", CommType::Email, format!("{name}@mail"))).unwrap();
    profile.address_book = book;
    profile.define_mode(DeliveryMode::im_then_email(
        "Urgent",
        "IM",
        "EM",
        SimDuration::from_secs(60),
    ));
    registry.subscribe("Home", user, "Urgent").unwrap();
    MabConfig { classifier, registry, rejuvenation: RejuvenationPolicy::default() }
}

fn factory() -> ConfigFactory {
    Arc::new(|user: &UserId| user_config(&user.0))
}

fn sensor_alert(text: &str) -> IncomingAlert {
    IncomingAlert::from_im("aladdin-gw", text, SimTime::ZERO)
}

/// A config with auto-hibernation off; tests drive it explicitly.
fn test_config(shards: usize) -> ShardedHostConfig {
    ShardedHostConfig {
        shards,
        hibernate_after: SimDuration::ZERO,
        ..ShardedHostConfig::default()
    }
}

async fn next_finished(notices: &mut mpsc::Receiver<HostNotice>) -> (UserId, DeliveryStatus) {
    loop {
        let HostNotice { user, notice } = notices.recv().await.expect("host alive");
        if let RuntimeNotice::DeliveryFinished { status, .. } = notice {
            return (user, status);
        }
    }
}

#[tokio::test(start_paused = true)]
async fn routes_and_delivers_across_shards() {
    let shared = SharedChannels::new(LoopbackChannels::always_ack(Duration::from_millis(100)));
    let (host, mut notices) = ShardedHost::new(
        shared.clone(),
        test_config(4),
        factory(),
        Telemetry::disabled(),
    )
    .unwrap();
    let users: Vec<UserId> = (0..8).map(|i| UserId::new(format!("user{i}"))).collect();
    host.register_many(users.clone()).await;
    for user in &users {
        assert!(host.submit_im(user, sensor_alert("Sensor ON")).await);
    }
    for _ in 0..8 {
        let (_, status) = next_finished(&mut notices).await;
        assert!(matches!(status, DeliveryStatus::Acked { .. }));
    }
    let snap = host.snapshot().await;
    assert_eq!(snap.users, 8);
    assert_eq!(snap.stats.deliveries_started, 8);
    assert_eq!(snap.acked, 8);
    assert_eq!(snap.in_flight, 0);
    assert_eq!(snap.tracked, 0);
    assert_eq!(snap.unrouted, 0);
    // Only the owning user's IM address saw each alert.
    shared.with(|c| assert_eq!(c.sent().len(), 8));
    let final_snap = host.shutdown().await;
    assert_eq!(final_snap.stats.deliveries_started, 8);
    assert_eq!(final_snap.log.appends, 8);
    assert_eq!(final_snap.log.marks, 8);
    // Group commit: every append+mark was covered by some commit.
    assert!(final_snap.log.group_commits >= 1);
}

#[tokio::test(start_paused = true)]
async fn unregistered_user_is_counted_not_routed() {
    let shared = SharedChannels::new(LoopbackChannels::accept_all());
    let (host, _notices) =
        ShardedHost::new(shared, test_config(2), factory(), Telemetry::disabled()).unwrap();
    host.register(UserId::new("alice")).await;
    // Registering twice is idempotent: still one roster entry.
    host.register(UserId::new("alice")).await;
    host.submit_im(&UserId::new("mallory"), sensor_alert("Sensor ON")).await;
    // Allow the worker to drain.
    tokio::time::sleep(Duration::from_millis(10)).await;
    let snap = host.snapshot().await;
    assert_eq!(snap.users, 1);
    assert_eq!(snap.unrouted, 1);
    assert_eq!(snap.stats.received_im, 0);
}

#[tokio::test(start_paused = true)]
async fn hibernate_and_rehydrate_preserves_totals_exactly_once() {
    let sink = Arc::new(RingBufferSink::new(64));
    let telemetry = Telemetry::with_sink(sink);
    let shared = SharedChannels::new(LoopbackChannels::always_ack(Duration::from_millis(100)));
    let (host, mut notices) =
        ShardedHost::new(shared.clone(), test_config(1), factory(), telemetry.clone()).unwrap();
    let alice = UserId::new("alice");
    host.register(alice.clone()).await;

    host.submit_im(&alice, sensor_alert("Sensor 1 ON")).await;
    let (_, status) = next_finished(&mut notices).await;
    assert!(matches!(status, DeliveryStatus::Acked { .. }));

    assert!(host.force_hibernate(&alice).await, "idle buddy must hibernate");
    let parked = host.snapshot().await;
    assert_eq!(parked.active, 0);
    assert_eq!(parked.hibernated, 1);
    assert_eq!(parked.hibernations, 1);
    // Folded totals keep the fleet accounting intact while parked.
    assert_eq!(parked.stats.received_im, 1);
    assert_eq!(parked.stats.deliveries_started, 1);

    // The next routed alert rehydrates and delivers exactly once.
    host.submit_im(&alice, sensor_alert("Sensor 2 ON")).await;
    let (_, status) = next_finished(&mut notices).await;
    assert!(matches!(status, DeliveryStatus::Acked { .. }));
    let resumed = host.snapshot().await;
    assert_eq!(resumed.active, 1);
    assert_eq!(resumed.hibernated, 0);
    assert_eq!(resumed.rehydrations, 1);
    // No double counting: totals resumed, not re-added.
    assert_eq!(resumed.stats.received_im, 2);
    assert_eq!(resumed.stats.deliveries_started, 2);
    // Exactly one IM send per alert — nothing lost, nothing duplicated.
    shared.with(|c| assert_eq!(c.sent().len(), 2));
    let metrics = telemetry.metrics().snapshot();
    assert_eq!(metrics.counter("host.hibernated"), 1);
    assert_eq!(metrics.counter("host.rehydrated"), 1);
    host.shutdown().await;
}

#[tokio::test(start_paused = true)]
async fn hibernation_refused_while_delivery_in_flight() {
    // The race: an alert is mid-delivery when the hibernation sweep picks
    // the buddy. Hibernation must refuse (not idle), and the later routed
    // alert must still deliver exactly once.
    let shared = SharedChannels::new(LoopbackChannels::accept_all());
    let (host, mut notices) =
        ShardedHost::new(shared.clone(), test_config(1), factory(), Telemetry::disabled()).unwrap();
    let alice = UserId::new("alice");
    host.register(alice.clone()).await;
    host.submit_im(&alice, sensor_alert("Sensor ON")).await;
    tokio::time::sleep(Duration::from_millis(10)).await;

    // In flight (accept_all: no ack yet, 60 s block window pending).
    assert!(!host.force_hibernate(&alice).await, "in-flight buddy must not hibernate");

    // The user acks; the delivery retires; now hibernation succeeds.
    host.ack(&alice, DeliveryId(0), AttemptId(0)).await;
    let (_, status) = next_finished(&mut notices).await;
    assert!(matches!(status, DeliveryStatus::Acked { .. }));
    assert!(host.force_hibernate(&alice).await);

    // Rehydrate on the next alert; the stale 60 s block timer from the
    // pre-hibernation incarnation must not produce a duplicate send.
    host.submit_im(&alice, sensor_alert("Sensor 2 ON")).await;
    host.ack(&alice, DeliveryId(1), AttemptId(0)).await;
    let (_, status) = next_finished(&mut notices).await;
    assert!(matches!(status, DeliveryStatus::Acked { .. }));
    tokio::time::sleep(Duration::from_secs(120)).await;
    shared.with(|c| assert_eq!(c.sent().len(), 2, "one send per alert, no stale-timer dupes"));
    let snap = host.shutdown().await;
    assert_eq!(snap.stats.deliveries_started, 2);
    assert_eq!(snap.acked, 2);
}

#[tokio::test(start_paused = true)]
async fn corrupt_snapshot_falls_back_to_fresh_buddy_and_replay() {
    let sink = Arc::new(RingBufferSink::new(64));
    let telemetry = Telemetry::with_sink(sink);
    let shared = SharedChannels::new(LoopbackChannels::always_ack(Duration::from_millis(100)));
    let (host, mut notices) =
        ShardedHost::new(shared.clone(), test_config(1), factory(), telemetry.clone()).unwrap();
    let alice = UserId::new("alice");
    host.register(alice.clone()).await;
    host.submit_im(&alice, sensor_alert("Sensor 1 ON")).await;
    next_finished(&mut notices).await;
    assert!(host.force_hibernate(&alice).await);
    assert!(host.corrupt_snapshot(&alice).await, "a parked snapshot must exist");

    // The damaged snapshot is rejected (CRC); a fresh buddy takes over and
    // the alert still delivers — the shard log, not the snapshot, is the
    // source of truth.
    host.submit_im(&alice, sensor_alert("Sensor 2 ON")).await;
    let (_, status) = next_finished(&mut notices).await;
    assert!(matches!(status, DeliveryStatus::Acked { .. }));
    let snap = host.snapshot().await;
    assert_eq!(snap.corrupt_snapshots, 1);
    assert_eq!(snap.rehydrations, 0);
    // The parked totals stay folded, so nothing is lost fleet-wide.
    assert_eq!(snap.stats.received_im, 2);
    assert_eq!(snap.stats.deliveries_started, 2);
    assert_eq!(telemetry.metrics().snapshot().counter("host.snapshot_corrupt"), 1);
    shared.with(|c| assert_eq!(c.sent().len(), 2));
    host.shutdown().await;
}

#[tokio::test(start_paused = true)]
async fn restart_replays_committed_unmarked_records_only() {
    let dir = std::env::temp_dir().join(format!("simba-shardhost-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let carol = UserId::new("carol");
    let on_disk = |shards: usize| ShardedHostConfig {
        log_dir: Some(dir.clone()),
        ..test_config(shards)
    };

    // Session 1: a delivered (marked) alert.
    {
        let shared = SharedChannels::new(LoopbackChannels::always_ack(Duration::from_millis(50)));
        let (host, mut notices) =
            ShardedHost::new(shared, on_disk(1), factory(), Telemetry::disabled()).unwrap();
        host.register(carol.clone()).await;
        host.submit_im(&carol, sensor_alert("Sensor A ON")).await;
        next_finished(&mut notices).await;
        host.shutdown().await;
    }

    // Between sessions, simulate the two crash windows directly against
    // the shard log. One record is appended AND committed but never
    // marked (the buddy died after the ack, before routing completed);
    // a second is appended but the process dies before the group commit
    // fsyncs — that one was never acked, so losing it is correct.
    {
        let mut log =
            ShardLog::open(ShardLogConfig::on_disk(dir.join("shard-000"))).unwrap();
        assert_eq!(log.unprocessed_len(), 0, "session 1 marked its record");
        log.append(&carol, &sensor_alert("Sensor B ON"), SimTime::from_secs(1)).unwrap();
        log.commit().unwrap();
        log.append(&carol, &sensor_alert("Sensor C lost ON"), SimTime::from_secs(2)).unwrap();
        // No commit: dropped with the "process".
    }

    // Session 2: startup replay must deliver exactly the committed,
    // unmarked record — not the marked one, not the torn tail.
    let shared = SharedChannels::new(LoopbackChannels::always_ack(Duration::from_millis(50)));
    let (host, mut notices) =
        ShardedHost::new(shared.clone(), on_disk(1), factory(), Telemetry::disabled()).unwrap();
    let (user, status) = next_finished(&mut notices).await;
    assert_eq!(user, carol);
    assert!(matches!(status, DeliveryStatus::Acked { .. }));
    let snap = host.snapshot().await;
    assert_eq!(snap.stats.replayed, 1);
    assert_eq!(snap.stats.deliveries_started, 1);
    shared.with(|c| {
        assert_eq!(c.sent().len(), 1);
        assert!(c.sent()[0].2.contains("Sensor B"), "only the committed record replays");
    });
    host.shutdown().await;

    // After the replay marked it, a third session finds a clean log.
    let log = ShardLog::open(ShardLogConfig::on_disk(dir.join("shard-000"))).unwrap();
    assert_eq!(log.unprocessed_len(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[tokio::test(start_paused = true)]
async fn mark_failure_crashes_one_buddy_not_the_shard() {
    // PR 2's contract under group commit: a failed processed-mark crashes
    // the affected buddy only. Its shard-mates keep delivering, and a
    // fresh incarnation of the crashed buddy replays its records.
    let sink = Arc::new(RingBufferSink::new(128));
    let telemetry = Telemetry::with_sink(sink);
    let shared = SharedChannels::new(LoopbackChannels::always_ack(Duration::from_millis(50)));
    let (host, mut notices) =
        ShardedHost::new(shared.clone(), test_config(1), factory(), telemetry.clone()).unwrap();
    let alice = UserId::new("alice");
    let bob = UserId::new("bob");
    host.register_many(vec![alice.clone(), bob.clone()]).await;

    host.inject_mark_failure(&alice).await;
    host.submit_im(&alice, sensor_alert("Sensor A ON")).await;
    host.submit_im(&bob, sensor_alert("Sensor B ON")).await;

    // Both users' deliveries finish: bob's untouched, alice's via the
    // restarted incarnation's replay.
    let mut finished = std::collections::BTreeSet::new();
    while finished.len() < 2 {
        let (user, status) = next_finished(&mut notices).await;
        assert!(matches!(status, DeliveryStatus::Acked { .. }), "{user}: {status:?}");
        finished.insert(user);
    }
    assert!(finished.contains(&alice) && finished.contains(&bob));

    let snap = host.snapshot().await;
    assert_eq!(snap.crashes, 1, "exactly one buddy crashed");
    assert_eq!(snap.stats.replayed, 1, "the crashed buddy's record replayed");
    assert_eq!(snap.stats.received_im, 2);
    assert_eq!(telemetry.metrics().snapshot().counter("host.buddy_crashed"), 1);

    // The shard worker survived: both buddies keep delivering.
    host.submit_im(&alice, sensor_alert("Sensor A2 ON")).await;
    host.submit_im(&bob, sensor_alert("Sensor B2 ON")).await;
    for _ in 0..2 {
        let (_, status) = next_finished(&mut notices).await;
        assert!(matches!(status, DeliveryStatus::Acked { .. }));
    }
    let final_snap = host.shutdown().await;
    assert_eq!(final_snap.crashes, 1);
    assert_eq!(final_snap.stats.received_im, 4);
    // Replay may duplicate the crashed buddy's send (§4.2.1: the user-side
    // dedup absorbs it); bob's two sends stay exactly two.
    shared.with(|c| {
        let to_bob = c.sent().iter().filter(|(_, addr, _)| addr == "im:bob").count();
        assert_eq!(to_bob, 2);
    });
}

#[tokio::test(start_paused = true)]
async fn idle_sweep_hibernates_automatically() {
    let config = ShardedHostConfig {
        shards: 1,
        hibernate_after: SimDuration::from_millis(200),
        ..ShardedHostConfig::default()
    };
    let shared = SharedChannels::new(LoopbackChannels::always_ack(Duration::from_millis(50)));
    let (host, mut notices) =
        ShardedHost::new(shared, config, factory(), Telemetry::disabled()).unwrap();
    let users: Vec<UserId> = (0..3).map(|i| UserId::new(format!("user{i}"))).collect();
    host.register_many(users.clone()).await;
    for user in &users {
        host.submit_im(user, sensor_alert("Sensor ON")).await;
    }
    for _ in 0..3 {
        next_finished(&mut notices).await;
    }
    // Past the idle threshold, the sweep parks all three.
    tokio::time::sleep(Duration::from_secs(2)).await;
    let snap = host.snapshot().await;
    assert_eq!(snap.active, 0, "idle buddies must hibernate: {snap:?}");
    assert_eq!(snap.hibernated, 3);
    assert_eq!(snap.hibernations, 3);
    assert_eq!(snap.stats.deliveries_started, 3);

    // Traffic brings one back.
    host.submit_im(&users[0], sensor_alert("Sensor again ON")).await;
    next_finished(&mut notices).await;
    let snap = host.snapshot().await;
    assert_eq!(snap.active, 1);
    assert_eq!(snap.hibernated, 2);
    assert_eq!(snap.rehydrations, 1);
    host.shutdown().await;
}

#[tokio::test(start_paused = true)]
async fn im_failure_falls_back_to_email_under_sharding() {
    let shared = SharedChannels::new(LoopbackChannels::always_ack(Duration::from_millis(50)));
    let (host, mut notices) =
        ShardedHost::new(shared.clone(), test_config(1), factory(), Telemetry::disabled()).unwrap();
    let alice = UserId::new("alice");
    host.register(alice.clone()).await;
    shared.with(|c| c.script("im:alice", SendOutcome::Failed(SendFailure::RecipientUnreachable)));
    host.submit_im(&alice, sensor_alert("Sensor ON")).await;
    let (_, status) = next_finished(&mut notices).await;
    assert!(matches!(status, DeliveryStatus::Unconfirmed { block: 1, .. }));
    let snap = host.shutdown().await;
    assert_eq!(snap.unconfirmed, 1);
}

#[tokio::test(start_paused = true)]
async fn rules_digest_storm_collapses_inside_the_shard_worker() {
    use simba_rules::{DigestConfig, RuleEngine, RuleSpec, RulesConfig, SharedRuleEngine};

    let engine: SharedRuleEngine =
        Arc::new(RuleEngine::open(RulesConfig::in_memory()).unwrap());
    engine
        .upsert(
            "alice",
            None,
            RuleSpec::digest(
                "storm",
                "source == \"aladdin-gw\"",
                DigestConfig { window_ms: 5_000, max_count: 0, max_exemplars: 3, key: None },
            ),
        )
        .unwrap();
    let config = ShardedHostConfig { rules: Some(engine.clone()), ..test_config(2) };
    let shared = SharedChannels::new(LoopbackChannels::always_ack(Duration::from_millis(50)));
    let (host, mut notices) =
        ShardedHost::new(shared, config, factory(), Telemetry::disabled()).unwrap();
    host.register_many(vec![UserId::new("alice"), UserId::new("bob")]).await;

    // A 50-alert flap for alice plus one ordinary alert for bob.
    for round in 0..50 {
        assert!(host.submit_im(&UserId::new("alice"), sensor_alert(&format!("Sensor {round} ON"))).await);
    }
    assert!(host.submit_im(&UserId::new("bob"), sensor_alert("Sensor ON")).await);

    // Bob's delivery finishes while alice's storm stays absorbed.
    let (user, status) = next_finished(&mut notices).await;
    assert_eq!(user, UserId::new("bob"));
    assert!(matches!(status, DeliveryStatus::Acked { .. }));
    assert_eq!(engine.pending_digests(), 1);
    assert_eq!(host.pump_digests().await, 0, "window not due yet");
    let before = host.snapshot().await;
    assert_eq!(before.stats.deliveries_started, 1, "alice's storm must be absorbed");

    // Past the window, the pump dispatches exactly one digest.
    tokio::time::sleep(Duration::from_secs(6)).await;
    assert_eq!(host.pump_digests().await, 1);
    assert_eq!(engine.pending_digests(), 0);
    let (user, status) = next_finished(&mut notices).await;
    assert_eq!(user, UserId::new("alice"));
    assert!(matches!(status, DeliveryStatus::Acked { .. }));

    let snap = host.shutdown().await;
    // Two user deliveries plus one digest — never fifty-one.
    assert_eq!(snap.stats.deliveries_started, 2);
    assert_eq!(snap.unrouted, 0);
}

#[tokio::test(start_paused = true)]
async fn rules_never_absorb_unregistered_users() {
    use simba_rules::{RuleEngine, RuleSpec, RulesConfig, SharedRuleEngine};

    let engine: SharedRuleEngine =
        Arc::new(RuleEngine::open(RulesConfig::in_memory()).unwrap());
    engine
        .upsert("mallory", None, RuleSpec::suppress("mute", "source == \"aladdin-gw\""))
        .unwrap();
    let config = ShardedHostConfig { rules: Some(engine.clone()), ..test_config(2) };
    let shared = SharedChannels::new(LoopbackChannels::accept_all());
    let (host, _notices) =
        ShardedHost::new(shared, config, factory(), Telemetry::disabled()).unwrap();
    host.register(UserId::new("alice")).await;
    // Mallory has a suppress rule but no registration: still unrouted.
    host.submit_im(&UserId::new("mallory"), sensor_alert("Sensor ON")).await;
    tokio::time::sleep(Duration::from_millis(10)).await;
    let snap = host.snapshot().await;
    assert_eq!(snap.unrouted, 1);
    assert_eq!(snap.stats.received_im, 0);
    host.shutdown().await;
}

// The one-shard shape (`shards: 1`, hibernation off): every buddy stays
// resident on one event loop, the small-deployment configuration.

fn alice() -> UserId {
    UserId::new("alice")
}

/// A one-shard host running alice only.
fn one_shard_alice(
    channels: SharedChannels<LoopbackChannels>,
    config: ShardedHostConfig,
    telemetry: Telemetry,
) -> (ShardedHost, mpsc::Receiver<HostNotice>) {
    ShardedHost::new(channels, config, factory(), telemetry).unwrap()
}

#[tokio::test(start_paused = true)]
async fn alert_acked_end_to_end() {
    let shared = SharedChannels::new(LoopbackChannels::always_ack(Duration::from_millis(400)));
    let (host, mut notices) = one_shard_alice(shared, test_config(1), Telemetry::disabled());
    host.register(alice()).await;
    host.submit_im(&alice(), sensor_alert("Basement Water Sensor ON")).await;

    // First notice: the MAB ack back to the source.
    assert_eq!(
        notices.recv().await.unwrap(),
        HostNotice { user: alice(), notice: RuntimeNotice::AckSent { source: "aladdin-gw".into() } }
    );
    // Then the user's IM ack lands (≈400 ms of paused time auto-advances).
    let (_, status) = next_finished(&mut notices).await;
    assert!(matches!(status, DeliveryStatus::Acked { block: 0, .. }));
    host.shutdown().await;
}

#[tokio::test(start_paused = true)]
async fn missing_ack_times_out_into_email_fallback() {
    // IM accepted but the user never acks: the 60 s delivery-mode timer
    // (on the worker's timer wheel, auto-advanced) must trigger the email.
    let shared = SharedChannels::new(LoopbackChannels::accept_all());
    let (host, mut notices) = one_shard_alice(shared, test_config(1), Telemetry::disabled());
    host.register(alice()).await;
    let t0 = tokio::time::Instant::now();
    host.submit_im(&alice(), sensor_alert("Sensor ON")).await;
    let (_, status) = next_finished(&mut notices).await;
    assert!(matches!(status, DeliveryStatus::Unconfirmed { block: 1, .. }));
    assert!(t0.elapsed() >= Duration::from_secs(60));
    host.shutdown().await;
}

#[tokio::test(start_paused = true)]
async fn all_disabled_delivery_emits_exhausted_finished_notice() {
    // Regression: a delivery that is terminal at start — every block's
    // addresses disabled, so zero Send commands — must still produce its
    // finished notice, or observers waiting on the stream hang forever.
    let disabled: ConfigFactory = Arc::new(|user: &UserId| {
        let mut config = user_config(&user.0);
        let profile = config.registry.user_mut(user).unwrap();
        profile.address_book.set_enabled("IM", false);
        profile.address_book.set_enabled("EM", false);
        config
    });
    let shared = SharedChannels::new(LoopbackChannels::accept_all());
    let (host, mut notices) =
        ShardedHost::new(shared, test_config(1), disabled, Telemetry::disabled()).unwrap();
    host.register(alice()).await;
    host.submit_im(&alice(), sensor_alert("Sensor ON")).await;

    assert_eq!(
        notices.recv().await.unwrap().notice,
        RuntimeNotice::AckSent { source: "aladdin-gw".into() }
    );
    let (_, status) = next_finished(&mut notices).await;
    assert!(matches!(status, DeliveryStatus::Exhausted { .. }));
    host.shutdown().await;
}

#[tokio::test(start_paused = true)]
async fn retirement_frees_state_and_stale_timers_drain() {
    // The delivery acks at ~400 ms; its 60 s block window is still on the
    // timer wheel. Retirement must clear the buddy's tables at once; the
    // lapsed window drains when it comes due and sends nothing.
    let shared = SharedChannels::new(LoopbackChannels::always_ack(Duration::from_millis(400)));
    let config = ShardedHostConfig { completed_ring: 4, ..test_config(1) };
    let (host, mut notices) = one_shard_alice(shared.clone(), config, Telemetry::disabled());
    host.register(alice()).await;
    let t0 = tokio::time::Instant::now();
    host.submit_im(&alice(), sensor_alert("Sensor ON")).await;
    let (_, status) = next_finished(&mut notices).await;
    assert!(matches!(status, DeliveryStatus::Acked { .. }));

    let snap = host.snapshot().await;
    assert_eq!(snap.in_flight, 0);
    assert_eq!(snap.tracked, 0);
    assert_eq!(snap.retired, 1);
    assert_eq!(snap.stats.retired, 1);
    assert_eq!(snap.timers, 1, "only the lapsed block window is parked");
    // The snapshot resolved without the paused clock having to advance
    // through the 60 s ack window.
    assert!(t0.elapsed() < Duration::from_secs(60));

    tokio::time::sleep(Duration::from_secs(61)).await;
    let drained = host.snapshot().await;
    assert_eq!(drained.timers, 0, "the stale window fired into nothing");
    assert_eq!(drained.stats, snap.stats);
    shared.with(|c| assert_eq!(c.sent().len(), 1, "the stale window sent nothing"));
    host.shutdown().await;
}

#[tokio::test(start_paused = true)]
async fn external_ack_after_retirement_is_dropped() {
    let telemetry = Telemetry::with_sink(Arc::new(RingBufferSink::new(256)));
    let shared = SharedChannels::new(LoopbackChannels::always_ack(Duration::from_millis(400)));
    let (host, mut notices) = one_shard_alice(shared, test_config(1), telemetry.clone());
    host.register(alice()).await;
    host.submit_im(&alice(), sensor_alert("Sensor ON")).await;
    let (_, status) = next_finished(&mut notices).await;
    assert!(matches!(status, DeliveryStatus::Acked { .. }));

    // Retired already; replay the user's ack for its first attempt.
    let snap = host.snapshot().await;
    assert_eq!(snap.tracked, 0);
    host.ack(&alice(), DeliveryId(0), AttemptId(0)).await;
    let after = host.snapshot().await;
    assert_eq!(after.stats, snap.stats);
    assert_eq!(telemetry.metrics().snapshot().counter("runtime.stale_dropped"), 1);
    host.shutdown().await;
}

#[tokio::test(start_paused = true)]
async fn external_ack_reaches_the_owning_buddy() {
    let shared = SharedChannels::new(LoopbackChannels::accept_all());
    let (host, mut notices) = one_shard_alice(shared, test_config(1), Telemetry::disabled());
    host.register(alice()).await;
    host.submit_im(&alice(), sensor_alert("Sensor ON")).await;
    // accept_all: no automatic ack; report one through the front door.
    tokio::time::sleep(Duration::from_millis(10)).await;
    host.ack(&alice(), DeliveryId(0), AttemptId(0)).await;
    let (user, status) = next_finished(&mut notices).await;
    assert_eq!(user, alice());
    assert!(matches!(status, DeliveryStatus::Acked { .. }));
    host.shutdown().await;
}

#[tokio::test(start_paused = true)]
async fn log_replay_routes_before_new_alerts() {
    // Two unprocessed records sit in the shard log when the host boots;
    // a third alert is submitted live. Replayed deliveries must claim the
    // first delivery ids and finish alongside the new one.
    let dir = std::env::temp_dir().join(format!("simba-shardhost-boot-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut log = ShardLog::open(ShardLogConfig::on_disk(dir.join("shard-000"))).unwrap();
        log.append(&alice(), &sensor_alert("Sensor replay A"), SimTime::ZERO).unwrap();
        log.append(&alice(), &sensor_alert("Sensor replay B"), SimTime::ZERO).unwrap();
        log.commit().unwrap();
    }
    let shared = SharedChannels::new(LoopbackChannels::always_ack(Duration::from_millis(100)));
    let config = ShardedHostConfig { log_dir: Some(dir.clone()), ..test_config(1) };
    let (host, mut notices) = one_shard_alice(shared, config, Telemetry::disabled());
    host.register(alice()).await;
    host.submit_im(&alice(), sensor_alert("Sensor live ON")).await;

    let mut finished = Vec::new();
    while finished.len() < 3 {
        if let HostNotice { notice: RuntimeNotice::DeliveryFinished { delivery, status }, .. } =
            notices.recv().await.unwrap()
        {
            finished.push((delivery, status));
        }
    }
    let mut ids: Vec<u64> = finished.iter().map(|(d, _)| d.0).collect();
    ids.sort_unstable();
    // Replays took ids 0 and 1 (§4.2.1: replay precedes new alerts); the
    // live alert got id 2.
    assert_eq!(ids, vec![0, 1, 2]);
    assert!(finished.iter().all(|(_, s)| matches!(s, DeliveryStatus::Acked { .. })));
    let snap = host.snapshot().await;
    assert_eq!(snap.stats.replayed, 2);
    assert_eq!(snap.stats.deliveries_started, 3);
    assert_eq!(snap.tracked, 0);
    host.shutdown().await;
    let _ = std::fs::remove_dir_all(&dir);
}

#[tokio::test(start_paused = true)]
async fn shutdown_drains_and_stops_the_probe() {
    let shared = SharedChannels::new(LoopbackChannels::always_ack(Duration::from_millis(100)));
    let (host, mut notices) = one_shard_alice(shared, test_config(1), Telemetry::disabled());
    let probe = host.probe();
    host.register(alice()).await;
    host.submit_im(&alice(), sensor_alert("Sensor ON")).await;
    next_finished(&mut notices).await;
    let snap = host.shutdown().await;
    assert_eq!(snap.stats.deliveries_started, 1);
    // The worker exited: the probe now fails.
    assert!(!probe.are_you_working().await);
}

#[tokio::test(start_paused = true)]
async fn remote_rejuvenation_restarts_the_buddy_not_the_shard() {
    let shared = SharedChannels::new(LoopbackChannels::accept_all());
    let (host, mut notices) = one_shard_alice(shared, test_config(1), Telemetry::disabled());
    let probe = host.probe();
    host.register(alice()).await;
    host.submit_im(
        &alice(),
        IncomingAlert::from_im("aladdin-gw", "SIMBA-REJUVENATE", SimTime::ZERO),
    )
    .await;
    loop {
        let HostNotice { user, notice } = notices.recv().await.unwrap();
        if notice == RuntimeNotice::Rejuvenating(RejuvenationTrigger::RemoteCommand) {
            assert_eq!(user, alice());
            break;
        }
    }
    // The worker plays the MDC: the buddy restarted, the shard kept
    // answering.
    assert!(probe.are_you_working().await);
    let snap = host.shutdown().await;
    assert_eq!(snap.stats.remote_commands, 1);
}

#[tokio::test(start_paused = true)]
async fn telemetry_spans_runtime_and_core_layers() {
    let sink = Arc::new(RingBufferSink::new(256));
    let telemetry = Telemetry::with_sink(sink.clone());
    let shared = SharedChannels::new(LoopbackChannels::always_ack(Duration::from_millis(400)));
    let (host, mut notices) = one_shard_alice(shared, test_config(1), telemetry.clone());
    host.register(alice()).await;
    host.submit_im(&alice(), sensor_alert("Sensor ON")).await;
    let (_, status) = next_finished(&mut notices).await;
    assert!(matches!(status, DeliveryStatus::Acked { .. }));

    // One event stream spans the core pipeline (mab.*, wal.*,
    // delivery.*); the host adds its runtime.*/host.* counters.
    let names: Vec<String> = sink.events().into_iter().map(|e| e.name).collect();
    for expected in ["mab.received", "wal.append", "delivery.acked"] {
        assert!(names.iter().any(|n| n == expected), "missing {expected} in {names:?}");
    }
    let snap = telemetry.metrics().snapshot();
    assert_eq!(snap.counter("runtime.sends"), 1);
    assert_eq!(snap.counter("runtime.acks_sent"), 1);
    assert_eq!(snap.counter("host.routed"), 1);
    assert_eq!(snap.counter("mab.received"), 1);
    assert_eq!(snap.histogram("delivery.ack_latency_ms").unwrap().count, 1);
    host.shutdown().await;
}

#[tokio::test(start_paused = true)]
async fn routes_alerts_to_the_owning_user_only() {
    let shared = SharedChannels::new(LoopbackChannels::always_ack(Duration::from_millis(200)));
    let (host, mut notices) =
        ShardedHost::new(shared.clone(), test_config(1), factory(), Telemetry::disabled()).unwrap();
    host.register_many(vec![alice(), UserId::new("bob")]).await;
    assert!(host.submit_im(&alice(), sensor_alert("Sensor A ON")).await);
    let (user, _) = next_finished(&mut notices).await;
    assert_eq!(user, alice());
    // Only alice's IM address ever saw traffic; bob's buddy started nothing.
    shared.with(|c| assert!(c.sent().iter().all(|(_, addr, _)| addr == "im:alice")));
    let snap = host.snapshot().await;
    assert_eq!(snap.users, 2);
    assert_eq!(snap.stats.deliveries_started, 1);
    host.shutdown().await;
}

#[tokio::test(start_paused = true)]
async fn shutdown_collects_fleet_stats_and_ends_the_notice_stream() {
    let shared = SharedChannels::new(LoopbackChannels::always_ack(Duration::from_millis(100)));
    let config = ShardedHostConfig { completed_ring: 4, ..test_config(1) };
    let (host, mut notices) =
        ShardedHost::new(shared, config, factory(), Telemetry::disabled()).unwrap();
    host.register_many(vec![alice(), UserId::new("bob")]).await;
    host.submit_im(&alice(), sensor_alert("Sensor 1 ON")).await;
    host.submit_im(&UserId::new("bob"), sensor_alert("Sensor 2 ON")).await;
    let mut finished = std::collections::BTreeSet::new();
    while finished.len() < 2 {
        finished.insert(next_finished(&mut notices).await.0);
    }
    let snap = host.shutdown().await;
    assert_eq!(snap.users, 2);
    assert_eq!(snap.stats.deliveries_started, 2);
    assert_eq!(snap.stats.retired, 2);
    // The merged stream ends once the workers are gone.
    assert!(notices.recv().await.is_none());
}

#[tokio::test(start_paused = true)]
async fn shard_log_on_disk_survives_the_pipeline() {
    let dir = std::env::temp_dir().join(format!("simba-shardhost-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let shared = SharedChannels::new(LoopbackChannels::always_ack(Duration::from_millis(100)));
    let config = ShardedHostConfig { log_dir: Some(dir.clone()), ..test_config(1) };
    let (host, mut notices) =
        ShardedHost::new(shared, config, factory(), Telemetry::disabled()).unwrap();
    host.register_many(vec![alice(), UserId::new("bob")]).await;
    host.submit_im(&alice(), sensor_alert("Sensor 1 ON")).await;
    let (user, _) = next_finished(&mut notices).await;
    assert_eq!(user, alice());
    host.shutdown().await;

    // Alice's record is on disk and marked; bob never logged anything.
    let shard_dir = dir.join("shard-000");
    let log = ShardLog::open(ShardLogConfig::on_disk(&shard_dir)).unwrap();
    assert!(!log.has_unprocessed_for(&alice()));
    assert!(!log.has_unprocessed_for(&UserId::new("bob")));
    let mut content = String::new();
    for entry in std::fs::read_dir(&shard_dir).unwrap() {
        content.push_str(&std::fs::read_to_string(entry.unwrap().path()).unwrap());
    }
    assert_eq!(content.matches("Sensor 1 ON").count(), 1, "{content}");
    assert!(!content.contains("bob"), "{content}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[tokio::test(start_paused = true)]
async fn fleet_state_returns_to_the_floor_after_load() {
    let shared = SharedChannels::new(LoopbackChannels::always_ack(Duration::from_millis(50)));
    let config = ShardedHostConfig { completed_ring: 4, ..test_config(1) };
    let (host, mut notices) =
        ShardedHost::new(shared.clone(), config, factory(), Telemetry::disabled()).unwrap();
    let users: Vec<UserId> = (0..3).map(|i| UserId::new(format!("user{i}"))).collect();
    host.register_many(users.clone()).await;
    // One failing user exercises the fallback path under the host.
    shared.with(|c| c.script("im:user2", SendOutcome::Failed(SendFailure::RecipientUnreachable)));

    for round in 0..5 {
        for user in &users {
            host.submit_im(user, sensor_alert(&format!("Sensor {round} ON"))).await;
        }
    }
    let mut statuses = Vec::new();
    while statuses.len() < 15 {
        statuses.push(next_finished(&mut notices).await.1);
    }
    // Past the 60 s windows every lapsed timer has drained.
    tokio::time::sleep(Duration::from_secs(61)).await;
    let snap = host.snapshot().await;
    assert_eq!(snap.users, 3);
    assert_eq!(snap.stats.deliveries_started, 15);
    assert_eq!(snap.stats.retired, 15);
    // Every table returned to its floor; the rings stay bounded.
    assert_eq!(snap.in_flight, 0);
    assert_eq!(snap.tracked, 0);
    assert_eq!(snap.timers, 0);
    assert!(snap.retired <= 3 * 4);
    // user2's deliveries fell back to unconfirmed email.
    assert_eq!(
        statuses.iter().filter(|s| matches!(s, DeliveryStatus::Unconfirmed { .. })).count(),
        5
    );
    assert_eq!(statuses.iter().filter(|s| matches!(s, DeliveryStatus::Acked { .. })).count(), 10);
    host.shutdown().await;
}

#[tokio::test(start_paused = true)]
async fn lagging_notice_consumer_drops_instead_of_buffering() {
    let telemetry = Telemetry::with_sink(Arc::new(RingBufferSink::new(256)));
    let shared = SharedChannels::new(LoopbackChannels::always_ack(Duration::from_millis(50)));
    let config = ShardedHostConfig { notice_capacity: 2, ..test_config(1) };
    let (host, mut notices) = one_shard_alice(shared, config, telemetry.clone());
    host.register(alice()).await;

    // Ten deliveries finish while nobody reads the merged stream: each
    // produces several notices, but the stream holds only two.
    for round in 0..10 {
        host.submit_im(&alice(), sensor_alert(&format!("Sensor {round} ON"))).await;
    }
    tokio::time::sleep(Duration::from_secs(5)).await;
    let dropped = telemetry.metrics().snapshot().counter("host.notice_dropped");
    assert!(dropped > 0, "expected overflow notices to be counted, got {dropped}");

    let snap = host.shutdown().await;
    assert_eq!(snap.stats.deliveries_started, 10);
    // Exactly the buffered capacity survives for a late reader.
    let mut buffered = 0;
    while notices.recv().await.is_some() {
        buffered += 1;
    }
    assert_eq!(buffered, 2);
}

#[tokio::test(start_paused = true)]
async fn rules_suppress_and_override_before_routing() {
    use simba_rules::{RuleEngine, RuleSpec, RulesConfig, SharedRuleEngine};

    let engine: SharedRuleEngine = Arc::new(RuleEngine::open(RulesConfig::in_memory()).unwrap());
    engine.upsert("alice", None, RuleSpec::suppress("mute-off", "body contains \"OFF\"")).unwrap();
    let shared = SharedChannels::new(LoopbackChannels::always_ack(Duration::from_millis(50)));
    let config = ShardedHostConfig { rules: Some(engine.clone()), ..test_config(1) };
    let (host, mut notices) = one_shard_alice(shared, config, Telemetry::disabled());
    host.register(alice()).await;

    // Suppressed: accepted by the front door, consumed by the rule.
    assert!(host.submit_im(&alice(), sensor_alert("Sensor OFF")).await);
    // Unknown users stay unrouted — rules never absorb their alerts.
    assert!(host.submit_im(&UserId::new("mallory"), sensor_alert("Sensor OFF")).await);
    // Unmatched traffic still flows.
    assert!(host.submit_im(&alice(), sensor_alert("Sensor ON")).await);
    next_finished(&mut notices).await;
    let snap = host.snapshot().await;
    assert_eq!(snap.stats.deliveries_started, 1, "suppressed alert must not route");
    assert_eq!(snap.unrouted, 1, "mallory is counted, not absorbed");
    host.shutdown().await;
}
