//! `simba-runtime` — a tokio-based live runtime for SIMBA.
//!
//! The deterministic simulation in `simba-sim` drives the evaluation; this
//! crate drives the *same* core state machines ([`simba_core::MyAlertBuddy`],
//! [`simba_core::DeliveryProcess`]) against real time: the [`ShardedHost`]
//! running every user's buddy, channel adapters, a timer wheel for
//! delivery ack windows, and a watchdog task playing the MDC role.
//!
//! Nothing in `simba-core` knows about tokio — the host simply maps
//! wall-clock instants onto [`simba_sim::SimTime`] through
//! [`RuntimeClock`] and feeds events in. That is the architectural payoff
//! of keeping the core event-driven: one implementation, two drivers.
//!
//! [`ShardedHost`] multiplexes buddies over a fixed pool of shard
//! workers with group-committed shard logs, retiring terminal deliveries
//! so state stays bounded and hibernating idle buddies to compact
//! snapshots so memory tracks *active* users rather than registered
//! ones. A small deployment is the same host with one shard and
//! hibernation off.
//!
//! ```no_run
//! use simba_runtime::{
//!     ConfigFactory, LoopbackChannels, RuntimeNotice, SharedChannels, ShardedHost,
//!     ShardedHostConfig,
//! };
//! use simba_core::{IncomingAlert, MabConfig, Telemetry, UserId};
//! use simba_sim::{SimDuration, SimTime};
//! use std::sync::Arc;
//!
//! # async fn demo(config: MabConfig) {
//! let channels =
//!     SharedChannels::new(LoopbackChannels::always_ack(std::time::Duration::from_millis(400)));
//! let factory: ConfigFactory = Arc::new(move |_: &UserId| config.clone());
//! let shape =
//!     ShardedHostConfig { shards: 1, hibernate_after: SimDuration::ZERO, ..Default::default() };
//! let (host, mut notices) =
//!     ShardedHost::new(channels, shape, factory, Telemetry::disabled()).expect("in-memory logs");
//! let alice = UserId::new("alice");
//! host.register(alice.clone()).await;
//! host.submit_im(&alice, IncomingAlert::from_im("aladdin-gw", "Basement Water Sensor ON", SimTime::ZERO))
//!     .await;
//! while let Some(notice) = notices.recv().await {
//!     if let RuntimeNotice::DeliveryFinished { status, .. } = notice.notice {
//!         println!("delivered: {status:?}");
//!         break;
//!     }
//! }
//! host.shutdown().await;
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod channels;
mod clock;
mod ledger_bridge;
mod presence;
mod shard;
mod watchdog;

pub use channels::{Channels, LoopbackChannels, SendOutcome, SharedChannels};
pub use clock::RuntimeClock;
pub use ledger_bridge::{
    shared_filter, LedgerChannelBridge, SharedFilter, DEFAULT_DEDUPE_CAPACITY,
};
pub use shard::{
    ConfigFactory, HostNotice, HostProbe, RuntimeNotice, ShardedHost, ShardedHostConfig,
    ShardedSnapshot, DEFAULT_NOTICE_CAPACITY,
};
pub use presence::{chanhealth_key, spawn_sweeper, StoreModeSelector, HEALTHY_VALUE};
pub use watchdog::{run_watchdog, run_watchdog_observed, WatchdogReport};
