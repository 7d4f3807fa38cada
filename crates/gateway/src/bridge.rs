//! The thread → runtime bridge: a bounded intake queue plus the pump
//! task that drains it into a [`ShardedHost`].
//!
//! The vendored tokio shim has no `net` module, so sockets are served by
//! std threads (see `DESIGN.md` §10). Those threads still have to hand
//! alerts to the host front door, which runs on the shim's executor. The
//! bridge is the seam: worker threads call [`IntakeSender::try_submit`]
//! (synchronous, lock-based, thread-safe — the shim's channel internals
//! are `Arc<Mutex<..>>`), and the async [`pump_into_sharded_host`] task
//! drains the queue from inside the runtime.
//!
//! The pump wraps every `recv` in a short [`tokio::time::timeout`]: the
//! shim executor treats "no runnable task and no timer" as a deadlock,
//! and a cross-thread send only becomes visible at the next executor
//! wake-up, so the tick doubles as the runtime's heartbeat. An admitted
//! submission is therefore durable-in-process: once `try_submit`
//! succeeds (and the worker acks the client), only process death can
//! lose it — the pump drains the queue to `None` before the host shuts
//! down, even if the submitting connection is long gone.

use crate::proto::WireChannel;
use simba_core::alert::IncomingAlert;
use simba_core::subscription::UserId;
use simba_core::Telemetry;
use simba_runtime::{RuntimeClock, ShardedHost};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tokio::sync::mpsc;

/// How often the pump wakes when the queue is idle. Also bounds the
/// latency between a worker-thread enqueue and the runtime noticing it.
pub const PUMP_TICK: Duration = Duration::from_millis(1);

/// Under sustained load the pump never sees an idle tick, so it also
/// drives the host's digest flush every this many submissions — bounding
/// how stale a due digest window can get while traffic keeps flowing.
const DIGEST_PUMP_EVERY: u64 = 256;

/// One admitted alert submission on its way to the host.
#[derive(Debug)]
pub struct Submission {
    /// Client-assigned sequence number (for diagnostics).
    pub seq: u64,
    /// Which host front door to use.
    pub channel: WireChannel,
    /// The target user.
    pub user: UserId,
    /// The alerting source.
    pub source: String,
    /// The alert body.
    pub body: String,
    /// The submitting connection's in-flight slot; the pump releases it
    /// after routing. Outlives the connection (an `Arc`), so a dropped
    /// client never strands the accounting.
    pub slot: Arc<AtomicUsize>,
}

/// Builds the bounded intake queue: worker threads hold the sender, the
/// runtime pump owns the receiver.
pub fn intake(capacity: usize) -> (IntakeSender, IntakeReceiver) {
    let capacity = capacity.max(1);
    let (tx, rx) = mpsc::channel(capacity);
    let depth = Arc::new(AtomicUsize::new(0));
    (
        IntakeSender { tx, depth: Arc::clone(&depth), capacity },
        IntakeReceiver { rx, depth },
    )
}

/// Thread-safe sending half of the intake queue.
#[derive(Debug, Clone)]
pub struct IntakeSender {
    tx: mpsc::Sender<Submission>,
    /// Reserved-or-queued slots: claimed *before* the send and released
    /// by the pump *after* its receive, so it never drops below the
    /// queue's length and never wraps.
    depth: Arc<AtomicUsize>,
    capacity: usize,
}

impl IntakeSender {
    /// Enqueues without blocking; hands the submission back when the
    /// queue is full (the caller sheds) or the pump is gone.
    pub fn try_submit(&self, submission: Submission) -> Result<(), Submission> {
        let reserved = self.depth.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |depth| {
            (depth < self.capacity).then_some(depth + 1)
        });
        if reserved.is_err() {
            return Err(submission);
        }
        self.tx.try_send(submission).map_err(|tokio::sync::mpsc::error::SendError(submission)| {
            self.depth.fetch_sub(1, Ordering::Relaxed);
            submission
        })
    }

    /// Current queue depth, at most [`IntakeSender::capacity`] (a slot
    /// mid-submission counts as queued).
    pub fn depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// The queue's fixed capacity — reported in probe replies so clients
    /// can judge fullness and back off before they are nacked.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// Receiving half of the intake queue; owned by [`pump_into_sharded_host`].
#[derive(Debug)]
pub struct IntakeReceiver {
    rx: mpsc::Receiver<Submission>,
    depth: Arc<AtomicUsize>,
}

impl IntakeReceiver {
    /// Releases the slot of a submission just received; returns the
    /// depth left behind.
    fn release(&self) -> usize {
        self.depth.fetch_sub(1, Ordering::Relaxed) - 1
    }
}

/// What the pump handed over by the time the intake queue closed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PumpReport {
    /// Submissions accepted onto the owning shard's queue. Whether the
    /// user is registered is decided inside the shard worker, which
    /// counts strangers in [`simba_runtime::ShardedSnapshot::unrouted`]
    /// (and the `host.unrouted` point).
    pub routed: u64,
    /// Submissions the host refused because its shard worker was gone.
    pub unrouted: u64,
}

/// Drains the intake queue into `host` until every [`IntakeSender`] is
/// gone and the queue is empty. Run this inside the shim runtime,
/// concurrently with the gateway's worker threads; shut the
/// [`crate::GatewayServer`] down first so the senders drop.
pub async fn pump_into_sharded_host(
    host: &ShardedHost,
    mut intake: IntakeReceiver,
    telemetry: &Telemetry,
) -> PumpReport {
    let clock = RuntimeClock::start();
    let depth_gauge = telemetry.metrics().gauge("gateway.queue_depth");
    let mut report = PumpReport::default();
    let mut since_digest_pump = 0u64;
    loop {
        let submission = match tokio::time::timeout(PUMP_TICK, intake.rx.recv()).await {
            Err(_elapsed) => {
                // Idle tick: keeps the shim executor alive and drains any
                // digest windows whose deadline passed.
                host.pump_digests().await;
                since_digest_pump = 0;
                continue;
            }
            Ok(None) => break, // every sender dropped and the queue drained
            Ok(Some(submission)) => submission,
        };
        depth_gauge.set(intake.release() as u64);
        let now = clock.now();
        let accepted = match submission.channel {
            WireChannel::Im => {
                let alert = IncomingAlert::from_im(submission.source, submission.body, now);
                host.submit_im(&submission.user, alert).await
            }
            WireChannel::Email => {
                let alert = IncomingAlert::from_email(
                    submission.source,
                    "gateway",
                    "alert",
                    submission.body,
                    now,
                );
                host.submit_email(&submission.user, alert).await
            }
        };
        submission.slot.fetch_sub(1, Ordering::Relaxed);
        if accepted {
            report.routed += 1;
        } else {
            report.unrouted += 1;
        }
        since_digest_pump += 1;
        if since_digest_pump >= DIGEST_PUMP_EVERY {
            host.pump_digests().await;
            since_digest_pump = 0;
        }
    }
    host.pump_digests().await;
    depth_gauge.set(0);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn submission(seq: u64) -> Submission {
        Submission {
            seq,
            channel: WireChannel::Im,
            user: UserId::new("alice"),
            source: "src".to_string(),
            body: "body".to_string(),
            slot: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// A submitter thread and a pump-side drainer race on a small queue;
    /// every depth either side reads must be a real queue depth — never
    /// above capacity, never a wrapped-around huge value.
    #[test]
    fn depth_never_exceeds_capacity_under_a_racing_pump() {
        const CAPACITY: usize = 4;
        const SUBMISSIONS: u64 = 200_000;
        let (tx, mut rx) = intake(CAPACITY);
        let observer = tx.clone();
        let submitter = std::thread::spawn(move || {
            let mut bad = 0u64;
            let mut seq = 0u64;
            while seq < SUBMISSIONS {
                if tx.try_submit(submission(seq)).is_ok() {
                    seq += 1;
                }
                if tx.depth() > CAPACITY {
                    bad += 1;
                }
            }
            bad
        });
        let mut bad = 0u64;
        let mut drained = 0u64;
        while drained < SUBMISSIONS {
            if rx.rx.try_recv().is_ok() {
                drained += 1;
                if rx.release() > CAPACITY {
                    bad += 1;
                }
            }
            if observer.depth() > CAPACITY {
                bad += 1;
            }
        }
        bad += submitter.join().expect("submitter thread");
        assert_eq!(bad, 0, "{bad} reads saw a depth above capacity {CAPACITY}");
        assert_eq!(observer.depth(), 0, "every slot released");
    }
}
