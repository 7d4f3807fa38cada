//! The exactly-once outcome checker.
//!
//! Every scheduled alert must produce exactly its scripted outcome at
//! the channel: one IM; a failed IM then one email; an unacknowledged IM
//! then, after the ack timeout, one email; nothing at all when
//! suppressed; nothing directly when absorbed, with the user's digests
//! counting every absorbed alert exactly once. Nacks, losses, duplicates
//! and strays are failures against the number attempted.

use crate::sched::{Expect, Item};
use crate::sink::Reach;
use std::collections::BTreeMap;

/// What the checker found.
#[derive(Debug, Clone, Default)]
pub struct Verdict {
    /// Alerts offered.
    pub offered: u64,
    /// Alerts whose outcome matched exactly.
    pub matched: u64,
    /// Human-readable descriptions of the first few violations.
    pub violations: Vec<String>,
    /// Total violations (alerts failed plus stray sends).
    pub violation_count: u64,
    /// `(due, latency)` of matched deliveries due inside the timed
    /// window, ns; latency runs from the due time to the final send.
    pub deliver: Vec<(u64, u64)>,
    /// Digests delivered.
    pub digests: u64,
    /// Alerts expected absorbed / suppressed.
    pub absorbed: u64,
    /// See [`Verdict::absorbed`].
    pub suppressed: u64,
    /// Every channel send, digests included.
    pub sends: u64,
    /// Deliveries that fell back from IM to email.
    pub fallbacks: u64,
    /// Unacknowledged-IM fallbacks whose email left sooner than the ack
    /// timeout after the IM did.
    pub early_fallbacks: u64,
}

impl Verdict {
    fn violate(&mut self, what: String) {
        self.violation_count += 1;
        if self.violations.len() < 8 {
            self.violations.push(what);
        }
    }
}

/// Checks `reaches` against the schedule. `accepted[i]` says whether the
/// front door accepted item `i` (a nack fails the item outright).
/// Latencies are kept for items due in `window` (ns since schedule
/// start, half-open); `ack_timeout_ns` is the IM block's timeout, used to
/// count fallbacks that came early.
pub fn check(
    items: &[Item],
    accepted: &[bool],
    mut reaches: Vec<Reach>,
    window: (u64, u64),
    start_ns: u64,
    ack_timeout_ns: u64,
) -> Verdict {
    let mut v = Verdict {
        offered: items.len() as u64,
        ..Verdict::default()
    };
    v.sends = reaches.len() as u64;
    reaches.sort_by_key(|r| (r.seq, r.at_ns));
    let mut digests_per_user: BTreeMap<u32, u64> = BTreeMap::new();
    let mut by_seq: Vec<Vec<Reach>> = vec![Vec::new(); items.len()];
    for r in reaches {
        match r.seq {
            None if r.ok && !r.email => {
                v.digests += 1;
                *digests_per_user.entry(r.user).or_default() += r.digest_count;
            }
            None => v.violate(format!(
                "digest for user {} not delivered by IM: {r:?}",
                r.user
            )),
            Some(seq) if (seq as usize) < items.len() => by_seq[seq as usize].push(r),
            Some(seq) => v.violate(format!("send for unscheduled seq {seq}")),
        }
    }

    let mut absorbed_per_user: BTreeMap<u32, u64> = BTreeMap::new();
    let mut failed_absorbed: Vec<usize> = Vec::new();
    for (i, item) in items.iter().enumerate() {
        let rs = &by_seq[i];
        if !accepted.get(i).copied().unwrap_or(false) {
            v.violate(format!("seq {} refused at the front door", item.seq));
            continue;
        }
        let last = rs.last().copied();
        let ok = match item.expect {
            Expect::Im => rs.len() == 1 && !rs[0].email && rs[0].ok,
            Expect::ImDownThenEmail => {
                rs.len() == 2 && !rs[0].email && !rs[0].ok && rs[1].email && rs[1].ok
            }
            Expect::ImUnackedThenEmail => {
                rs.len() == 2 && !rs[0].email && rs[0].ok && rs[1].email && rs[1].ok
            }
            Expect::Suppressed => rs.is_empty(),
            Expect::Absorbed => rs.is_empty(),
        };
        match item.expect {
            Expect::Suppressed => v.suppressed += 1,
            Expect::Absorbed => {
                v.absorbed += 1;
                *absorbed_per_user.entry(item.user).or_default() += 1;
            }
            _ => {}
        }
        if !ok {
            v.violate(format!(
                "seq {} expected {:?}, saw {rs:?}",
                item.seq, item.expect
            ));
            continue;
        }
        if item.expect == Expect::Absorbed {
            failed_absorbed.push(i); // settled below, per user
            continue;
        }
        if rs.len() == 2 {
            v.fallbacks += 1;
            // The host's ms clock allows 1 ms of slack.
            if rs[0].ok && rs[1].at_ns - rs[0].at_ns + 1_000_000 < ack_timeout_ns {
                v.early_fallbacks += 1;
            }
        }
        v.matched += 1;
        if let Some(last) = last {
            if item.due_ns >= window.0 && item.due_ns < window.1 {
                v.deliver.push((
                    item.due_ns,
                    last.at_ns.saturating_sub(start_ns + item.due_ns),
                ));
            }
        }
    }

    // Absorbed alerts count as matched only when the user's digests sum
    // to exactly the alerts absorbed for that user.
    for i in failed_absorbed {
        let user = items[i].user;
        let want = absorbed_per_user.get(&user).copied().unwrap_or(0);
        let got = digests_per_user.get(&user).copied().unwrap_or(0);
        if want == got {
            v.matched += 1;
        } else {
            v.violate(format!("user {user}: digests count {got}, absorbed {want}"));
        }
    }
    for (user, got) in &digests_per_user {
        if !absorbed_per_user.contains_key(user) {
            v.violate(format!(
                "user {user}: digest of {got} with nothing absorbed"
            ));
        }
    }
    v
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation; 0 for
/// an empty slice.
pub fn quantile(values: &mut [u64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable();
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    values[lo] as f64 * (1.0 - frac) + values[hi] as f64 * frac
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::body;

    fn item(seq: u64, user: u32, expect: Expect) -> Item {
        Item {
            seq,
            due_ns: seq * 1_000,
            user,
            source: "s",
            critical: false,
            body: body(seq, seq * 1_000, "p"),
            expect,
        }
    }

    fn reach(seq: Option<u64>, user: u32, email: bool, ok: bool, at_ns: u64) -> Reach {
        Reach {
            seq,
            digest_count: 0,
            user,
            email,
            ok,
            at_ns,
        }
    }

    #[test]
    fn every_scripted_outcome_is_recognised() {
        let items = vec![
            item(0, 1, Expect::Im),
            item(1, 2, Expect::ImDownThenEmail),
            item(2, 3, Expect::ImUnackedThenEmail),
            item(3, 4, Expect::Suppressed),
            item(4, 5, Expect::Absorbed),
            item(5, 5, Expect::Absorbed),
        ];
        let mut digest = reach(None, 5, false, true, 90_000_000);
        digest.digest_count = 2;
        let reaches = vec![
            reach(Some(0), 1, false, true, 10),
            reach(Some(1), 2, false, false, 1_000),
            reach(Some(1), 2, true, true, 1_100),
            reach(Some(2), 3, false, true, 2_000),
            reach(Some(2), 3, true, true, 40_002_000),
            digest,
        ];
        let v = check(&items, &[true; 6], reaches, (0, u64::MAX), 0, 40_000_000);
        assert_eq!(v.violations, Vec::<String>::new());
        assert_eq!(v.matched, 6);
        assert_eq!(v.deliver.len(), 3);
        assert_eq!(v.early_fallbacks, 0);
        assert_eq!(v.fallbacks, 2);
        assert_eq!(v.digests, 1);
    }

    #[test]
    fn duplicates_losses_and_nacks_fail() {
        let items = vec![
            item(0, 1, Expect::Im),
            item(1, 1, Expect::Im),
            item(2, 1, Expect::Im),
            item(3, 3, Expect::ImDownThenEmail),
            item(4, 4, Expect::Absorbed),
        ];
        let mut digest = reach(None, 4, false, true, 5);
        digest.digest_count = 2; // counts one alert twice
        let reaches = vec![
            reach(Some(0), 1, false, true, 10),
            reach(Some(0), 1, false, true, 11), // duplicate
            // seq 1 lost
            reach(Some(2), 1, false, true, 12), // but refused below
            reach(Some(3), 3, true, true, 0),   // email only, no IM attempt
            digest,
        ];
        let v = check(
            &items,
            &[true, true, false, true, true],
            reaches,
            (0, u64::MAX),
            0,
            40_000_000,
        );
        assert_eq!(v.matched, 0);
        assert_eq!(v.violation_count, 5);
    }

    #[test]
    fn an_unacked_fallback_inside_the_ack_window_is_counted_early() {
        let items = vec![item(0, 1, Expect::ImUnackedThenEmail)];
        let reaches = vec![
            reach(Some(0), 1, false, true, 0),
            reach(Some(0), 1, true, true, 25_000_000),
        ];
        let v = check(&items, &[true], reaches, (0, u64::MAX), 0, 40_000_000);
        assert_eq!((v.matched, v.fallbacks, v.early_fallbacks), (1, 1, 1));
    }

    #[test]
    fn quantiles_interpolate() {
        let mut xs = vec![4, 1, 3, 2];
        assert_eq!(quantile(&mut xs, 0.5), 2.5);
        assert_eq!(quantile(&mut xs, 1.0), 4.0);
        assert_eq!(quantile(&mut [], 0.9), 0.0);
    }
}
