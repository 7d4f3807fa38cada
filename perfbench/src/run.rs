//! One pass of a workload: build the service, drive its schedule, drain,
//! tear down, and check.
//!
//! The service is assembled from public APIs only — rules engine,
//! delivery ledger and its worker pool, `ShardedHost`, gateway plus
//! `pump_into_sharded_host` — as a deployment wires them. The rules log
//! lives in the pass's own directory; the shard logs and the ledger
//! journal use their in-memory backends (`README.md` gives the reason).

use crate::check::{check, quantile, Verdict};
use crate::cpu::{self, CpuWindow, Group, PUMP_THREAD};
use crate::sched::{self, im_class, user_name, Expect, ImClass, Item, Rng};
use crate::sink::{now_ns, BenchChannels, Recorder, Script};
use simba_core::{
    Address, AddressBook, Block, Classifier, CommType, DeliveryMode, IncomingAlert, KeywordField,
    MabConfig, RejuvenationPolicy, SubscriptionRegistry, Telemetry, Urgency, UserId,
};
use simba_gateway::{
    intake, pump_into_sharded_host, ClientConfig, GatewayClient, GatewayConfig, GatewayServer,
    PumpReport, SubmitResult, WireChannel, WireRule,
};
use simba_ledger::{
    DeliveryLedger, LedgerClock, LedgerConfig, LedgerStats, LedgerWorkerPool, PoolStats,
    SharedLedger, WorkerPoolConfig,
};
use simba_rules::{
    DigestConfig, RuleEngine, RuleSpec, RulesConfig, RulesLog, RulesLogConfig, SharedRuleEngine,
};
use simba_runtime::{
    ConfigFactory, LedgerChannelBridge, ShardedHost, ShardedHostConfig, ShardedSnapshot,
};
use simba_sim::{SimDuration, SimTime};
use simba_telemetry::RingBufferSink;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Ack timeout of the IM block in the IM-then-email delivery mode.
pub const ACK_TIMEOUT_MS: u64 = 40;
/// Digest window of the flapping-source rule.
pub const DIGEST_WINDOW_MS: u64 = 2_000;
/// Lead-in before the timed window; its alerts are checked but not timed.
/// It lets buddies activate and the hibernate/rehydrate cycle settle.
pub const WARMUP_S: f64 = 2.0;
/// Shard workers (one per core of the reference machine).
const SHARDS: usize = 2;
/// Most set-ups timed in one pass.
const MAX_SETUPS: usize = 25;
/// Set-ups continue (up to [`MAX_SETUPS`]) until they have taken this
/// long, so quick set-ups are timed often enough to give a steady median.
const SETUP_BUDGET_S: f64 = 1.0;
/// Length of one slice of the timed window.
pub const SLICE_NS: u64 = 1_000_000_000;
/// Gateway intake queue length, and each connection's in-flight cap.
const INTAKE_CAPACITY: usize = 8_192;
/// Longest wait for in-flight work after the schedule ends.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(20);

/// Every alert source the schedules use.
const SOURCES: [&str; 5] = [
    "ingest-src",
    "fallback-src",
    "svc-api",
    "flap-src",
    "agent-hb",
];

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// TCP clients through the gateway, rules, shards, and ledger.
    IngestTcp,
    /// In-process submissions exercising IM → email fallback and
    /// hibernation over a million registered users.
    FallbackChurn,
    /// Rule evaluation and digests beside online rule writes.
    RulesChurn,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "ingest-tcp" => Some(Workload::IngestTcp),
            "fallback-churn" => Some(Workload::FallbackChurn),
            "rules-churn" => Some(Workload::RulesChurn),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestTcp => "ingest-tcp",
            Workload::FallbackChurn => "fallback-churn",
            Workload::RulesChurn => "rules-churn",
        }
    }
}

/// Which delivery mode every user subscribes with.
#[derive(Debug, Clone, Copy)]
enum Mode {
    /// One fire-and-forget IM block (the ledger owns the send).
    ImOnly,
    /// IM with an ack timeout, then email.
    ImThenEmail,
}

/// Which rules are written before set-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RuleSet {
    None,
    /// One rule per active user that matches no alert.
    QuietSuppress,
    /// Suppress heartbeats, digest the flapping source, deliver the
    /// service source with a severity override.
    Churn,
}

/// A workload's fixed shape.
#[derive(Debug, Clone)]
pub struct Shape {
    workload: Workload,
    seed: u64,
    /// Users registered with the host.
    pub registered: u32,
    /// Users that receive alerts (and own rules).
    pub active: Vec<u32>,
    /// Alerts per second, across all generators.
    pub rate: f64,
    /// Generator threads (TCP connections when `tcp`).
    pub generators: usize,
    /// Alerts go through the gateway over TCP.
    pub tcp: bool,
    ledger: bool,
    rules: RuleSet,
    script: Script,
    mode: Mode,
    hibernate_after: SimDuration,
    /// Rule writes per second over one gateway connection.
    pub rule_writes_per_s: f64,
}

impl Shape {
    /// The shape of `workload` under `seed`.
    pub fn of(workload: Workload, seed: u64) -> Shape {
        let mut rng = Rng::new(seed, 1);
        match workload {
            Workload::IngestTcp => Shape {
                workload,
                seed,
                registered: 20_000,
                active: sched::sample_users(&mut rng, 20_000, 2_000),
                rate: 2_000.0,
                generators: 2,
                tcp: true,
                ledger: true,
                rules: RuleSet::QuietSuppress,
                script: Script::AcceptOnly,
                mode: Mode::ImOnly,
                hibernate_after: SimDuration::from_mins(5),
                rule_writes_per_s: 0.0,
            },
            Workload::FallbackChurn => Shape {
                workload,
                seed,
                registered: 1_000_000,
                active: sched::sample_users(&mut rng, 1_000_000, 20_000),
                rate: 5_000.0,
                generators: 1,
                tcp: false,
                ledger: false,
                rules: RuleSet::None,
                script: Script::PerUser(seed),
                mode: Mode::ImThenEmail,
                hibernate_after: SimDuration::from_millis(1_000),
                rule_writes_per_s: 0.0,
            },
            Workload::RulesChurn => Shape {
                workload,
                seed,
                registered: 2_000,
                active: (0..2_000).collect(),
                rate: 3_000.0,
                generators: 1,
                tcp: false,
                ledger: false,
                rules: RuleSet::Churn,
                script: Script::AllAck,
                mode: Mode::ImThenEmail,
                hibernate_after: SimDuration::from_mins(5),
                rule_writes_per_s: 10.0,
            },
        }
    }

    /// Whether a rules engine is attached.
    pub fn has_rules(&self) -> bool {
        self.rules != RuleSet::None
    }

    /// The alert schedule for `secs` seconds (warm-up included).
    pub fn schedule(&self, secs: f64) -> Vec<Item> {
        let mut rng = Rng::new(self.seed, 2);
        let active = &self.active;
        let seed = self.seed;
        match self.workload {
            Workload::IngestTcp => sched::uniform(self.rate, secs, || {
                let user = active[rng.below(active.len() as u64) as usize];
                (user, "ingest-src", false, "cpu load high", Expect::Im)
            }),
            Workload::FallbackChurn => sched::uniform(self.rate, secs, || {
                let user = active[rng.below(active.len() as u64) as usize];
                let expect = match im_class(seed, user) {
                    ImClass::Acks => Expect::Im,
                    ImClass::Down => Expect::ImDownThenEmail,
                    ImClass::NoAck => Expect::ImUnackedThenEmail,
                };
                (user, "fallback-src", false, "water sensor on", expect)
            }),
            Workload::RulesChurn => sched::uniform(self.rate, secs, || {
                let user = active[rng.below(active.len() as u64) as usize];
                match rng.below(100) {
                    0..=68 => (user, "svc-api", false, "disk usage high", Expect::Im),
                    69..=88 => (user, "flap-src", false, "link flapping", Expect::Absorbed),
                    89..=98 => (
                        user,
                        "agent-hb",
                        false,
                        "heartbeat tick",
                        Expect::Suppressed,
                    ),
                    _ => (user, "flap-src", true, "link down hard", Expect::Im),
                }
            }),
        }
    }

    /// The rule-write schedule: `(due_ns, owner)`; even entries upsert a
    /// rule for the owner, odd ones delete the rule the previous entry
    /// created.
    fn rule_writes(&self, secs: f64) -> Vec<(u64, u32)> {
        if self.rule_writes_per_s <= 0.0 {
            return Vec::new();
        }
        let mut rng = Rng::new(self.seed, 3);
        let count = (self.rule_writes_per_s * secs) as u64;
        let mut owner = 0;
        (0..count)
            .map(|k| {
                if k % 2 == 0 {
                    owner = self.active[rng.below(self.active.len() as u64) as usize];
                }
                ((k as f64 * 1e9 / self.rule_writes_per_s) as u64, owner)
            })
            .collect()
    }

    /// The rules each owner holds before set-up.
    fn owner_rules(&self) -> Vec<RuleSpec> {
        match self.rules {
            RuleSet::None => Vec::new(),
            RuleSet::QuietSuppress => {
                vec![RuleSpec::suppress(
                    "maintenance",
                    r#"body contains "maintenance window""#,
                )]
            }
            RuleSet::Churn => vec![
                RuleSpec::suppress("heartbeats", r#"body contains "heartbeat""#),
                RuleSpec::digest(
                    "flapping",
                    r#"source == "flap-src""#,
                    DigestConfig {
                        window_ms: DIGEST_WINDOW_MS,
                        max_count: 0,
                        max_exemplars: 3,
                        key: None,
                    },
                ),
                RuleSpec {
                    severity: Some(Urgency::Low),
                    ..RuleSpec::deliver("service", r#"source == "svc-api""#)
                },
            ],
        }
    }
}

/// How one pass runs.
#[derive(Debug, Clone, Copy)]
pub struct PassOptions {
    /// Telemetry on (ring-buffer sink) or `Telemetry::disabled()`.
    pub telemetry: bool,
    /// Per-call timers and queue-depth sampling.
    pub traced: bool,
    /// Fewest set-ups to time; the last one is driven.
    pub setups: usize,
}

/// Everything one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Seconds per set-up.
    pub setup_s: Vec<f64>,
    /// The checker's verdict.
    pub verdict: Verdict,
    /// `(due, due → front-door acceptance)` of timed-window items, ns.
    pub ack: Vec<(u64, u64)>,
    /// Duration of each front-door call, timed-window items, ns.
    pub call_ns: Vec<u64>,
    /// How late each alert left the generator, ns.
    pub late_ns: Vec<u64>,
    /// Front-door refusals (nacks, dead shards).
    pub refused: u64,
    /// Due → reply of each rule write, ns.
    pub write_ns: Vec<u64>,
    /// Rule writes attempted / failed.
    pub writes: u64,
    /// See [`Pass::writes`].
    pub write_failures: u64,
    /// Alerts due inside the timed window.
    pub window_alerts: u64,
    /// CPU over the timed window.
    pub cpu: CpuWindow,
    /// The timed window, ns after schedule start.
    pub window: (u64, u64),
    /// Service CPU per alert of each 1 s slice of the window, µs.
    pub slice_cpu_us: Vec<f64>,
    /// The host's final totals.
    pub snap: ShardedSnapshot,
    /// The pump's final report.
    pub pump: Option<PumpReport>,
    /// Largest sampled gateway intake depth (traced passes).
    pub gateway_depth_max: u64,
    /// Depth samples larger than the queue's capacity (traced passes).
    pub gateway_depth_invalid: u64,
    /// Largest sampled shard queue depth (traced passes).
    pub host_depth_max: u64,
    /// Ledger totals at shutdown.
    pub ledger: Option<LedgerStats>,
    /// Ledger worker totals.
    pub pool: Option<PoolStats>,
    /// Ledger clock reads.
    pub clock_polls: u64,
    /// `ConfigFactory` calls during the drive.
    pub activations: u64,
    /// Telemetry counter increments during the drive.
    pub increments: u64,
}

impl Pass {
    /// Service CPU per alert of the timed window, µs.
    pub fn cpu_us_per_alert(&self) -> f64 {
        per(self.cpu.service_ns() as f64 / 1e3, self.window_alerts)
    }

    /// Median over the window's slices of service CPU per alert, µs.
    pub fn slice_cpu_us_per_alert(&self) -> f64 {
        median(&self.slice_cpu_us)
    }

    /// CPU of one thread group per alert of the timed window, µs.
    pub fn group_us_per_alert(&self, group: Group) -> f64 {
        per(self.cpu.ns(group) as f64 / 1e3, self.window_alerts)
    }

    /// True when every check held.
    pub fn correct(&self) -> bool {
        self.verdict.violation_count == 0
            && self.write_failures == 0
            && self.snap.crashes == 0
            && self.snap.unrouted == 0
            && self.pump.is_none_or(|p| p.unrouted == 0)
    }
}

/// `value / count`, 0 when `count` is 0.
pub fn per(value: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        value / count as f64
    }
}

/// The running service.
struct Rig {
    host: Arc<ShardedHost>,
    telemetry: Telemetry,
    recorder: Arc<Recorder>,
    rules: Option<SharedRuleEngine>,
    gateway: Option<GatewayServer>,
    pump: Option<JoinHandle<PumpReport>>,
    ledger: Option<SharedLedger>,
    pool: Option<LedgerWorkerPool>,
    notices: JoinHandle<()>,
    activations: Arc<AtomicU64>,
    clock_polls: Arc<AtomicU64>,
}

/// Turns an error into a message naming the step that failed.
fn fail<E: std::fmt::Debug>(what: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{what}: {e:?}")
}

/// Builds a user's configuration on every activation, counting calls.
fn factory(mode: Mode, activations: Arc<AtomicU64>) -> ConfigFactory {
    Arc::new(move |user: &UserId| {
        activations.fetch_add(1, Ordering::Relaxed);
        let mut classifier = Classifier::new();
        for source in SOURCES {
            classifier.accept_source(source, KeywordField::Body, "unsubscribe");
        }
        classifier.set_default_category("Ops");
        let mut registry = SubscriptionRegistry::new();
        let profile = registry.register_user(user.clone());
        let mut book = AddressBook::new();
        book.add(Address::new("IM", CommType::Im, format!("im:{}", user.0)))
            .expect("fresh address book");
        book.add(Address::new(
            "EM",
            CommType::Email,
            format!("{}@mail", user.0),
        ))
        .expect("fresh address book");
        profile.address_book = book;
        profile.define_mode(match mode {
            Mode::ImOnly => {
                DeliveryMode::new("Ops", vec![Block::fire_and_forget(vec!["IM".into()])])
                    .expect("one block")
            }
            Mode::ImThenEmail => DeliveryMode::im_then_email(
                "Ops",
                "IM",
                "EM",
                SimDuration::from_millis(ACK_TIMEOUT_MS),
            ),
        });
        registry
            .subscribe("Ops", user.clone(), "Ops")
            .expect("fresh subscription");
        MabConfig {
            classifier,
            registry,
            rejuvenation: RejuvenationPolicy::default(),
        }
    })
}

/// Writes every owner's rules through the rules log, committed once.
fn preload_rules(shape: &Shape, dir: &Path) -> Result<(), String> {
    let specs = shape.owner_rules();
    if specs.is_empty() {
        return Ok(());
    }
    let mut log = RulesLog::open(RulesLogConfig::on_disk(dir)).map_err(fail("rules log"))?;
    for owner in &shape.active {
        let name = user_name(*owner);
        for spec in &specs {
            log.upsert(&name, None, spec.clone())
                .map_err(fail("preload rule"))?;
        }
    }
    log.commit().map_err(fail("rules commit"))
}

/// Copies the files of `src` (a flat directory) into `dst`.
pub fn copy_dir(src: &Path, dst: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dst).map_err(fail("mkdir"))?;
    for entry in std::fs::read_dir(src).map_err(fail("read dir"))? {
        let entry = entry.map_err(fail("dir entry"))?;
        std::fs::copy(entry.path(), dst.join(entry.file_name())).map_err(fail("copy"))?;
    }
    Ok(())
}

/// Builds the service in `dir`: open/replay logs, register, bind.
fn setup(shape: &Shape, dir: &Path, telemetry_on: bool) -> Result<Rig, String> {
    let telemetry = if telemetry_on {
        Telemetry::with_sink(Arc::new(RingBufferSink::new(4_096)))
    } else {
        Telemetry::disabled()
    };
    let rules: Option<SharedRuleEngine> = if shape.has_rules() {
        let engine = RuleEngine::open_with_telemetry(
            RulesConfig::on_disk(dir.join("rules")),
            telemetry.clone(),
        )
        .map_err(fail("rules engine"))?;
        Some(Arc::new(engine))
    } else {
        None
    };
    let ledger: Option<SharedLedger> = if shape.ledger {
        let ledger = DeliveryLedger::open(LedgerConfig::in_memory())
            .map_err(fail("ledger"))?
            .with_telemetry(telemetry.clone());
        Some(Arc::new(Mutex::new(ledger)))
    } else {
        None
    };
    let recorder = Arc::new(Recorder::default());
    let channels = BenchChannels::new(Arc::clone(&recorder), shape.script);
    let activations = Arc::new(AtomicU64::new(0));
    // The ledger clock starts before the shard clocks, so a record is
    // never stamped later than the ledger's own now.
    let anchor = Instant::now();
    let config = ShardedHostConfig {
        shards: SHARDS,
        // In-memory shard logs: see `README.md` on why the logs are in
        // memory.
        log_dir: None,
        hibernate_after: shape.hibernate_after,
        threads: true,
        ledger: ledger.clone(),
        rules: rules.clone(),
        ..ShardedHostConfig::default()
    };
    let (host, mut notices) = ShardedHost::new(
        channels.clone(),
        config,
        factory(shape.mode, Arc::clone(&activations)),
        telemetry.clone(),
    )
    .map_err(fail("host"))?;
    let host = Arc::new(host);
    let users: Vec<UserId> = (0..shape.registered)
        .map(|u| UserId::new(user_name(u)))
        .collect();
    {
        let host = Arc::clone(&host);
        // The snapshot round trip returns once every shard has applied
        // its registration batch.
        tokio::runtime::block_on(async move {
            host.register_many(users).await;
            host.snapshot().await
        });
    }
    // Notices are drained by polling, so the benchmark's reader does not
    // add a cross-thread wake-up to every notice the shards send.
    let notices = std::thread::Builder::new()
        .name("bench-notices".into())
        .spawn(move || loop {
            match notices.try_recv() {
                Ok(_) => {}
                Err(tokio::sync::mpsc::error::TryRecvError::Empty) => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(tokio::sync::mpsc::error::TryRecvError::Disconnected) => return,
            }
        })
        .map_err(fail("spawn"))?;

    let clock_polls = Arc::new(AtomicU64::new(0));
    let pool = match &ledger {
        Some(ledger) => {
            let polls = Arc::clone(&clock_polls);
            let clock: LedgerClock = Arc::new(move || {
                polls.fetch_add(1, Ordering::Relaxed);
                SimTime::from_millis(anchor.elapsed().as_millis() as u64)
            });
            let adapter = LedgerChannelBridge::new(channels.clone());
            let pool = LedgerWorkerPool::spawn(
                Arc::clone(ledger),
                vec![Box::new(adapter)],
                clock,
                WorkerPoolConfig {
                    workers: 1,
                    threads: true,
                    ..WorkerPoolConfig::default()
                },
            )
            .map_err(fail("ledger pool"))?;
            Some(pool)
        }
        None => None,
    };

    let (gateway, pump) = if shape.tcp || shape.rule_writes_per_s > 0.0 {
        let (tx, rx) = intake(INTAKE_CAPACITY);
        let known_users = shape.tcp.then(|| {
            (0..shape.registered)
                .map(user_name)
                .collect::<std::collections::BTreeSet<_>>()
        });
        // Admission sized to the intake queue: the workloads measure the
        // alert path, not shedding, so a stall of the pump must queue
        // rather than nack (a nack fails the run).
        let config = GatewayConfig {
            workers: shape.generators.max(1),
            per_conn_inflight: INTAKE_CAPACITY,
            known_users,
            idle_timeout: Duration::from_secs(60),
            ..GatewayConfig::default()
        };
        let gateway =
            GatewayServer::bind_with_rules(config, tx, telemetry.clone(), None, rules.clone())
                .map_err(fail("gateway bind"))?;
        let pump_host = Arc::clone(&host);
        let pump_telemetry = telemetry.clone();
        let pump = std::thread::Builder::new()
            .name(PUMP_THREAD.into())
            .spawn(move || {
                tokio::runtime::block_on(async move {
                    pump_into_sharded_host(&pump_host, rx, &pump_telemetry).await
                })
            })
            .map_err(fail("spawn"))?;
        (Some(gateway), Some(pump))
    } else {
        (None, None)
    };

    Ok(Rig {
        host,
        telemetry,
        recorder,
        rules,
        gateway,
        pump,
        ledger,
        pool,
        notices,
        activations,
        clock_polls,
    })
}

/// Copies the pre-loaded rules into `dir` (untimed), then times
/// [`setup`] there.
fn timed_setup(
    shape: &Shape,
    dir: &Path,
    telemetry_on: bool,
    pristine: &Path,
) -> Result<(Rig, f64), String> {
    if shape.has_rules() {
        copy_dir(pristine, &dir.join("rules"))?;
    }
    let began = Instant::now();
    let rig = setup(shape, dir, telemetry_on)?;
    Ok((rig, began.elapsed().as_secs_f64()))
}

/// Host totals and layer reports collected at shutdown.
#[derive(Default)]
struct Finals {
    snap: ShardedSnapshot,
    pump: Option<PumpReport>,
    ledger: Option<LedgerStats>,
    pool: Option<PoolStats>,
}

/// Stops the service in dependency order: gateway (which lets the pump
/// drain and exit), ledger workers, then the host.
fn teardown(rig: Rig) -> Finals {
    let mut finals = Finals::default();
    if let Some(gateway) = rig.gateway {
        gateway.shutdown();
    }
    if let Some(pump) = rig.pump {
        finals.pump = pump.join().ok();
    }
    if let Some(pool) = rig.pool {
        finals.pool = Some(tokio::runtime::block_on(pool.drain()));
    }
    if let Some(ledger) = &rig.ledger {
        finals.ledger = Some(ledger.lock().expect("ledger lock").stats());
    }
    drop(rig.rules);
    match Arc::try_unwrap(rig.host) {
        Ok(host) => finals.snap = tokio::runtime::block_on(async move { host.shutdown().await }),
        Err(_) => panic!("a host handle outlived its threads"),
    }
    let _ = rig.notices.join();
    finals
}

fn sleep_until(t_ns: u64) {
    let now = now_ns();
    if t_ns > now {
        std::thread::sleep(Duration::from_nanos(t_ns - now));
    }
}

/// One generator's per-item record: (seq, accepted, late, ack, call).
type Sent = Vec<(u64, bool, u64, u64, u64)>;

/// Drives in-process submissions of `items` from a named thread.
fn spawn_local_gen(
    index: usize,
    host: Arc<ShardedHost>,
    items: Vec<(u64, u64, UserId, IncomingAlert)>,
    start_ns: u64,
    stay_until: u64,
) -> JoinHandle<Sent> {
    std::thread::Builder::new()
        .name(format!("bench-gen-{index}"))
        .spawn(move || {
            tokio::runtime::block_on(async move {
                let mut sent = Vec::with_capacity(items.len());
                for (seq, due_ns, user, alert) in items {
                    let due = start_ns + due_ns;
                    sleep_until(due);
                    let begin = now_ns();
                    let ok = host.submit_im(&user, alert).await;
                    let end = now_ns();
                    sent.push((
                        seq,
                        ok,
                        begin.saturating_sub(due),
                        end - due.min(end),
                        end - begin,
                    ));
                }
                // Outlive the timed window, so this thread's CPU is still
                // there to be charged to the benchmark when it is read.
                sleep_until(stay_until);
                sent
            })
        })
        .expect("spawn generator")
}

/// Drives TCP submissions of `items` over its own gateway connection.
fn spawn_tcp_gen(
    index: usize,
    addr: String,
    items: Vec<(u64, u64, String, &'static str, String)>,
    start_ns: u64,
    stay_until: u64,
) -> JoinHandle<Sent> {
    std::thread::Builder::new()
        .name(format!("bench-gen-{index}"))
        .spawn(move || {
            let mut sent = Vec::with_capacity(items.len());
            let mut client = match GatewayClient::connect(addr, ClientConfig::default()) {
                Ok(client) => client,
                Err(_) => {
                    return items
                        .iter()
                        .map(|(seq, ..)| (*seq, false, 0, 0, 0))
                        .collect()
                }
            };
            for (seq, due_ns, user, source, body) in items {
                let due = start_ns + due_ns;
                sleep_until(due);
                let begin = now_ns();
                let ok = matches!(
                    client.submit(WireChannel::Im, &user, source, &body),
                    Ok(SubmitResult::Accepted)
                );
                let end = now_ns();
                sent.push((
                    seq,
                    ok,
                    begin.saturating_sub(due),
                    end - due.min(end),
                    end - begin,
                ));
            }
            sleep_until(stay_until);
            sent
        })
        .expect("spawn generator")
}

/// Alternates rule upserts and deletes over one gateway connection.
/// Returns (due → reply ns per write, failures).
fn spawn_rule_writer(
    addr: String,
    writes: Vec<(u64, u32)>,
    start_ns: u64,
    stay_until: u64,
) -> JoinHandle<(Vec<u64>, u64)> {
    std::thread::Builder::new()
        .name("bench-rules".into())
        .spawn(move || {
            let mut client = match GatewayClient::connect(addr, ClientConfig::default()) {
                Ok(client) => client,
                Err(_) => return (Vec::new(), writes.len() as u64),
            };
            let mut times = Vec::with_capacity(writes.len());
            let mut failures = 0u64;
            let mut created: Option<u64> = None;
            for (k, (due_ns, owner)) in writes.into_iter().enumerate() {
                let due = start_ns + due_ns;
                sleep_until(due);
                let user = user_name(owner);
                let ok = if k % 2 == 0 {
                    let rule = WireRule {
                        id: 0,
                        name: format!("probe-{k}"),
                        enabled: true,
                        severity: 0,
                        dedupe: None,
                        predicate: format!(r#"source == "never-{k}""#),
                        action: 1,
                        window_ms: 0,
                        max_count: 0,
                        max_exemplars: 0,
                        key: None,
                    };
                    match client.rule_upsert(&user, &rule) {
                        Ok(stored) => {
                            created = Some(stored.id);
                            true
                        }
                        Err(_) => false,
                    }
                } else {
                    match created.take() {
                        Some(id) => client.rule_delete(&user, id).is_ok(),
                        None => false,
                    }
                };
                times.push(now_ns().saturating_sub(due));
                if !ok {
                    failures += 1;
                }
            }
            sleep_until(stay_until);
            (times, failures)
        })
        .expect("spawn rule writer")
}

/// Runs one pass of `shape` for `seconds` timed seconds in `dir`.
pub fn run_pass(
    shape: &Shape,
    seconds: u64,
    opts: PassOptions,
    dir: &Path,
) -> Result<Pass, String> {
    let total_s = WARMUP_S + seconds as f64;
    let items = shape.schedule(total_s);
    let writes = shape.rule_writes(total_s);
    let pristine = dir.join("rules-pristine");
    preload_rules(shape, &pristine)?;

    // The driven host must be the first one this process builds: shard
    // workers anchor their clocks on the runtime's process-wide fallback
    // epoch, so a host built later starts with its clocks frozen for as
    // long as the process has run (see `README.md`). Further set-ups are
    // therefore timed after the drive.
    let mut pass = Pass::default();
    let (rig, took) = timed_setup(shape, &dir.join("rep0"), opts.telemetry, &pristine)?;
    pass.setup_s.push(took);
    let counters_before: u64 = rig.telemetry.metrics().snapshot().counters.values().sum();
    let activations_before = rig.activations.load(Ordering::Relaxed);

    // Hand each generator its share of the schedule, fully built.
    let start_ns = now_ns() + 100_000_000;
    let total_ns = (total_s * 1e9) as u64;
    let stay_until = start_ns + total_ns + 200_000_000;
    let gens = shape.generators.max(1);
    let mut handles = Vec::new();
    if shape.tcp {
        let addr = rig
            .gateway
            .as_ref()
            .expect("tcp workloads bind a gateway")
            .local_addr()
            .to_string();
        for g in 0..gens {
            let mine = items
                .iter()
                .filter(|i| i.seq as usize % gens == g)
                .map(|i| (i.seq, i.due_ns, user_name(i.user), i.source, i.body.clone()))
                .collect();
            handles.push(spawn_tcp_gen(g, addr.clone(), mine, start_ns, stay_until));
        }
    } else {
        for g in 0..gens {
            let mine = items
                .iter()
                .filter(|i| i.seq as usize % gens == g)
                .map(|i| {
                    let origin = SimTime::from_millis(i.due_ns / 1_000_000);
                    let urgency = if i.critical {
                        Urgency::Critical
                    } else {
                        Urgency::Normal
                    };
                    let alert = IncomingAlert::from_im(i.source, i.body.clone(), origin)
                        .with_urgency(urgency);
                    (i.seq, i.due_ns, UserId::new(user_name(i.user)), alert)
                })
                .collect();
            handles.push(spawn_local_gen(
                g,
                Arc::clone(&rig.host),
                mine,
                start_ns,
                stay_until,
            ));
        }
    }
    let writer = (!writes.is_empty()).then(|| {
        let addr = rig
            .gateway
            .as_ref()
            .expect("rule writes go through the gateway")
            .local_addr()
            .to_string();
        spawn_rule_writer(addr, writes, start_ns, stay_until)
    });

    // The timed window, warm-up end to schedule end, read in 1 s slices:
    // the gated figures are medians over slices, so one stall (a steal
    // burst, a slow fsync) moves one slice rather than the result.
    let window = ((WARMUP_S * 1e9) as u64, total_ns);
    let mut samples = Vec::with_capacity(seconds as usize + 1);
    for k in 0..=seconds {
        let at = start_ns + window.0 + k * SLICE_NS;
        if opts.traced {
            while now_ns() < at {
                if let Some(gateway) = &rig.gateway {
                    let stats = gateway.stats();
                    // The intake counts an enqueue after the pump may
                    // already have counted its dequeue, so the depth can
                    // read as a wrapped-around huge value for an instant.
                    if stats.queue_depth > stats.queue_capacity {
                        pass.gateway_depth_invalid += 1;
                    } else {
                        let depth = u64::from(stats.queue_depth);
                        pass.gateway_depth_max = pass.gateway_depth_max.max(depth);
                    }
                }
                pass.host_depth_max = pass.host_depth_max.max(rig.host.queue_depth() as u64);
                std::thread::sleep(Duration::from_millis(1));
            }
        } else {
            sleep_until(at);
        }
        samples.push(cpu::sample());
    }
    pass.cpu = CpuWindow::between(&samples[0], &samples[samples.len() - 1]);
    pass.window_alerts = items
        .iter()
        .filter(|i| i.due_ns >= window.0 && i.due_ns < window.1)
        .count() as u64;
    for (k, pair) in samples.windows(2).enumerate() {
        let lo = window.0 + k as u64 * SLICE_NS;
        let alerts = items
            .iter()
            .filter(|i| i.due_ns >= lo && i.due_ns < lo + SLICE_NS)
            .count() as u64;
        let slice = CpuWindow::between(&pair[0], &pair[1]);
        pass.slice_cpu_us
            .push(per(slice.service_ns() as f64 / 1e3, alerts));
    }
    pass.window = window;

    let mut accepted = vec![false; items.len()];
    for handle in handles {
        for (seq, ok, late, ack, call) in handle.join().expect("generator thread") {
            let i = seq as usize;
            accepted[i] = ok;
            pass.late_ns.push(late);
            if !ok {
                pass.refused += 1;
            } else if items[i].due_ns >= window.0 && items[i].due_ns < window.1 {
                pass.ack.push((items[i].due_ns, ack));
                pass.call_ns.push(call);
            }
        }
    }
    if let Some(writer) = writer {
        let (times, failures) = writer.join().expect("rule writer thread");
        pass.writes = times.len() as u64;
        pass.write_failures = failures;
        pass.write_ns = times;
    }

    // Drain: every expected send, every absorbed alert digested.
    let want_direct: u64 = items
        .iter()
        .zip(&accepted)
        .filter(|(_, ok)| **ok)
        .map(|(i, _)| i.expect.direct_sends())
        .sum();
    let want_digested = items
        .iter()
        .zip(&accepted)
        .filter(|(i, ok)| **ok && i.expect == Expect::Absorbed)
        .count() as u64;
    let deadline = Instant::now() + DRAIN_TIMEOUT;
    while Instant::now() < deadline
        && (rig.recorder.direct() < want_direct || rig.recorder.digested() < want_digested)
    {
        std::thread::sleep(Duration::from_millis(5));
    }
    // Late duplicates would land now.
    std::thread::sleep(Duration::from_millis(100));
    let counters_after: u64 = rig.telemetry.metrics().snapshot().counters.values().sum();
    pass.increments = counters_after.saturating_sub(counters_before);
    pass.activations = rig.activations.load(Ordering::Relaxed) - activations_before;
    pass.clock_polls = rig.clock_polls.load(Ordering::Relaxed);
    let recorder = Arc::clone(&rig.recorder);

    let finals = teardown(rig);
    pass.snap = finals.snap;
    pass.pump = finals.pump;
    pass.ledger = finals.ledger;
    pass.pool = finals.pool;
    pass.verdict = check(
        &items,
        &accepted,
        recorder.take(),
        window,
        start_ns,
        ACK_TIMEOUT_MS * 1_000_000,
    );

    // More set-ups, torn down at once: at least `opts.setups` in all, and
    // more (up to `MAX_SETUPS`) while they are quick.
    let mut spent: f64 = pass.setup_s.iter().sum();
    while pass.setup_s.len() < opts.setups
        || (pass.setup_s.len() < MAX_SETUPS && spent < SETUP_BUDGET_S && opts.setups > 1)
    {
        let rep_dir = dir.join(format!("rep{}", pass.setup_s.len()));
        let (built, took) = timed_setup(shape, &rep_dir, opts.telemetry, &pristine)?;
        pass.setup_s.push(took);
        spent += took;
        teardown(built);
        let _ = std::fs::remove_dir_all(&rep_dir);
    }
    Ok(pass)
}

/// Times `RuleEngine::evaluate` alone over the workload's alert stream,
/// on a fresh copy of its pre-loaded rules log. Returns ns per call.
pub fn evaluate_replay(shape: &Shape, seconds: u64, dir: &Path) -> Result<Vec<u64>, String> {
    if !shape.has_rules() {
        return Ok(Vec::new());
    }
    let pristine = dir.join("replay-pristine");
    preload_rules(shape, &pristine)?;
    let copy: PathBuf = dir.join("replay-rules");
    copy_dir(&pristine, &copy)?;
    let telemetry = Telemetry::with_sink(Arc::new(RingBufferSink::new(4_096)));
    let engine = RuleEngine::open_with_telemetry(RulesConfig::on_disk(&copy), telemetry)
        .map_err(fail("rules engine"))?;
    let items = shape.schedule(WARMUP_S + seconds as f64);
    let alerts: Vec<(String, IncomingAlert, u64)> = items
        .iter()
        .map(|i| {
            let now_ms = i.due_ns / 1_000_000;
            let urgency = if i.critical {
                Urgency::Critical
            } else {
                Urgency::Normal
            };
            let alert =
                IncomingAlert::from_im(i.source, i.body.clone(), SimTime::from_millis(now_ms))
                    .with_urgency(urgency);
            (user_name(i.user), alert, now_ms)
        })
        .collect();
    let mut ns = Vec::with_capacity(alerts.len());
    let mut flushed_at = 0;
    for (user, alert, now_ms) in &alerts {
        if *now_ms != flushed_at {
            // Close due digest windows between calls, as the pump does.
            flushed_at = *now_ms;
            std::hint::black_box(engine.flush_due(*now_ms));
        }
        let began = Instant::now();
        std::hint::black_box(engine.evaluate(user, alert, *now_ms));
        ns.push(began.elapsed().as_nanos() as u64);
    }
    Ok(ns)
}

/// Median of a list (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// `quantile` over a copy, scaled by `scale`.
pub fn q(values: &[u64], p: f64, scale: f64) -> f64 {
    let mut v = values.to_vec();
    quantile(&mut v, p) / scale
}

/// The values of `(due, value)` pairs, whole window.
pub fn values(pairs: &[(u64, u64)]) -> Vec<u64> {
    pairs.iter().map(|(_, v)| *v).collect()
}

/// The median over the window's 1 s slices of the share of each slice's
/// values at or below `limit`; slices without samples are skipped.
pub fn slice_within(pairs: &[(u64, u64)], window: (u64, u64), limit: u64) -> f64 {
    let slices = ((window.1 - window.0) / SLICE_NS).max(1) as usize;
    let mut counts = vec![(0u64, 0u64); slices];
    for (due, value) in pairs {
        let k = (due.saturating_sub(window.0) / SLICE_NS) as usize;
        if let Some((within, all)) = counts.get_mut(k) {
            *all += 1;
            *within += u64::from(*value <= limit);
        }
    }
    let shares: Vec<f64> = counts
        .iter()
        .filter(|(_, all)| *all > 0)
        .map(|(w, all)| *w as f64 / *all as f64)
        .collect();
    median(&shares)
}

/// The median over the window's 1 s slices of each slice's
/// `p`-quantile, scaled by `scale`; slices without samples are skipped.
pub fn slice_q(pairs: &[(u64, u64)], window: (u64, u64), p: f64, scale: f64) -> f64 {
    let slices = ((window.1 - window.0) / SLICE_NS).max(1) as usize;
    let mut per_slice: Vec<Vec<u64>> = vec![Vec::new(); slices];
    for (due, value) in pairs {
        let k = (due.saturating_sub(window.0) / SLICE_NS) as usize;
        if let Some(slice) = per_slice.get_mut(k) {
            slice.push(*value);
        }
    }
    let qs: Vec<f64> = per_slice
        .iter_mut()
        .filter(|s| !s.is_empty())
        .map(|s| quantile(s, p) / scale)
        .collect();
    median(&qs)
}
