//! The benchmark's channels: where the alert path reaches the user.
//!
//! [`BenchChannels`] implements the runtime's `Channels` (shard workers
//! send through it directly) and, behind the runtime's
//! `LedgerChannelBridge`, the ledger workers' `LedgerChannels`. Every
//! send is timestamped and recorded with the sequence number parsed from
//! its text — or, for a flushed digest, the count it carries — so the
//! checker can match each send to its schedule entry.

use crate::sched::{im_class, parse_seq, ImClass};
use simba_core::address::CommType;
use simba_core::delivery::SendFailure;
use simba_runtime::{Channels, SendOutcome};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// The benchmark's time origin; every timestamp is ns since it.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One send as the channel saw it.
#[derive(Debug, Clone, Copy)]
pub struct Reach {
    /// The alert's sequence number (`None` for a digest).
    pub seq: Option<u64>,
    /// Alerts a digest carries (0 for an ordinary alert).
    pub digest_count: u64,
    /// Recipient user index.
    pub user: u32,
    /// Email (`true`) or IM (`false`).
    pub email: bool,
    /// Whether the channel accepted the send.
    pub ok: bool,
    /// When the send happened (ns, [`now_ns`]).
    pub at_ns: u64,
}

/// How IM sends behave.
#[derive(Debug, Clone, Copy)]
pub enum Script {
    /// Accept without an acknowledgement (the ledger path, whose blocks
    /// do not wait for one).
    AcceptOnly,
    /// Accept and acknowledge after 1 ms.
    AllAck,
    /// Per-user behaviour from [`im_class`] under this seed.
    PerUser(u64),
}

/// Every send, in arrival order, plus running totals the drain waits on.
#[derive(Debug, Default)]
pub struct Recorder {
    reaches: Mutex<Vec<Reach>>,
    direct: AtomicU64,
    digested: AtomicU64,
}

impl Recorder {
    /// Sends of ordinary (non-digest) alerts so far.
    pub fn direct(&self) -> u64 {
        self.direct.load(Ordering::Acquire)
    }

    /// Alerts accounted for by digests delivered so far.
    pub fn digested(&self) -> u64 {
        self.digested.load(Ordering::Acquire)
    }

    /// Takes every recorded send.
    pub fn take(&self) -> Vec<Reach> {
        std::mem::take(&mut *self.reaches.lock().expect("recorder lock"))
    }
}

/// The scripted channel set.
#[derive(Debug, Clone)]
pub struct BenchChannels {
    recorder: Arc<Recorder>,
    script: Script,
}

impl BenchChannels {
    /// Channels recording into `recorder`, behaving per `script`.
    pub fn new(recorder: Arc<Recorder>, script: Script) -> Self {
        BenchChannels { recorder, script }
    }
}

/// Parses the user index out of `im:u0000123` or `u0000123@mail`.
fn user_of(address: &str) -> u32 {
    let name = address.strip_prefix("im:").unwrap_or(address);
    let name = name.split('@').next().unwrap_or(name);
    name.strip_prefix('u')
        .and_then(|d| d.parse().ok())
        .unwrap_or(u32::MAX)
}

/// The count a digest text carries (`digest: 37x …`).
fn digest_count(text: &str) -> Option<u64> {
    let rest = text.strip_prefix("digest: ")?;
    rest[..rest.find('x')?].parse().ok()
}

impl Channels for BenchChannels {
    fn send(&mut self, comm_type: CommType, address: &str, text: &str) -> SendOutcome {
        let at_ns = now_ns();
        let user = user_of(address);
        let email = comm_type != CommType::Im;
        let outcome = if email {
            SendOutcome::Accepted
        } else {
            let class = match self.script {
                Script::AcceptOnly => ImClass::NoAck,
                Script::AllAck => ImClass::Acks,
                Script::PerUser(seed) => im_class(seed, user),
            };
            match class {
                ImClass::Acks => SendOutcome::AcceptedWithAck(Duration::from_millis(1)),
                ImClass::NoAck => SendOutcome::Accepted,
                ImClass::Down => SendOutcome::Failed(SendFailure::ChannelDown),
            }
        };
        let ok = !matches!(outcome, SendOutcome::Failed(_));
        let (seq, count) = match digest_count(text) {
            Some(count) => (None, count),
            None => (parse_seq(text), 0),
        };
        let reach = Reach {
            seq,
            digest_count: count,
            user,
            email,
            ok,
            at_ns,
        };
        self.recorder
            .reaches
            .lock()
            .expect("recorder lock")
            .push(reach);
        if seq.is_some() {
            self.recorder.direct.fetch_add(1, Ordering::AcqRel);
        } else if ok {
            self.recorder.digested.fetch_add(count, Ordering::AcqRel);
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addresses_and_digests_parse() {
        assert_eq!(user_of("im:u0000123"), 123);
        assert_eq!(user_of("u0004567@mail"), 4567);
        assert_eq!(
            digest_count("digest: 37x : 37 alerts from a/ between"),
            Some(37)
        );
        assert_eq!(digest_count("#12 due=5us x"), None);
    }

    #[test]
    fn sends_are_recorded_with_seq_and_outcome() {
        let recorder = Arc::new(Recorder::default());
        let mut ch = BenchChannels::new(Arc::clone(&recorder), Script::AllAck);
        let out = ch.send(CommType::Im, "im:u0000001", "#5 due=1us hello");
        assert_eq!(out, SendOutcome::AcceptedWithAck(Duration::from_millis(1)));
        ch.send(CommType::Im, "im:u0000001", "digest: 4x : 4 alerts");
        assert_eq!(recorder.direct(), 1);
        assert_eq!(recorder.digested(), 4);
        let reaches = recorder.take();
        assert_eq!(reaches[0].seq, Some(5));
        assert_eq!(reaches[1].digest_count, 4);
    }
}
