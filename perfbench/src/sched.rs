//! Seeded open-loop schedules.
//!
//! A schedule is computed in full before the system under test starts:
//! every alert's due time, target user, source, body, and the outcome
//! the delivery path must produce for it. The body carries the alert's
//! sequence number and due time, so the channel at the far end can tie
//! each send back to its schedule entry. The same seed gives the same
//! schedule.

/// SplitMix64: small, seedable, and good enough to pick users and mixes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and `stream` (independent sequences per
    /// purpose from one seed).
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F)))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The SplitMix64 finalizer.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What the delivery path must do with one alert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// One IM reaches the user and nothing else is sent.
    Im,
    /// The IM send fails, then exactly one email goes out.
    ImDownThenEmail,
    /// The IM is accepted but never acknowledged; the block's ack timeout
    /// fires and exactly one email goes out.
    ImUnackedThenEmail,
    /// A suppress rule drops it: nothing is ever sent.
    Suppressed,
    /// A digest rule absorbs it: nothing is sent for it directly, and the
    /// user's digests count it exactly once.
    Absorbed,
}

impl Expect {
    /// Direct channel sends this outcome produces.
    pub fn direct_sends(self) -> u64 {
        match self {
            Expect::Im => 1,
            Expect::ImDownThenEmail | Expect::ImUnackedThenEmail => 2,
            Expect::Suppressed | Expect::Absorbed => 0,
        }
    }
}

/// How a user's IM channel behaves in the fallback workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImClass {
    /// IM accepted and acknowledged after 1 ms.
    Acks,
    /// IM down: the send fails at once.
    Down,
    /// IM accepted but never acknowledged.
    NoAck,
}

/// The seeded IM behaviour of `user`: down for 1 in 16 users, never
/// acknowledged for 1 in 32, acknowledged for the rest.
pub fn im_class(seed: u64, user: u32) -> ImClass {
    match mix(seed ^ 0x1F00_D5EE_D000_0000 ^ u64::from(user)) % 32 {
        0 | 1 => ImClass::Down,
        2 => ImClass::NoAck,
        _ => ImClass::Acks,
    }
}

/// The user name for index `user` (fixed width, so the channel can parse
/// it back out of an address).
pub fn user_name(user: u32) -> String {
    format!("u{user:07}")
}

/// One scheduled alert.
#[derive(Debug, Clone)]
pub struct Item {
    /// Sequence number; equal to the item's index in the schedule.
    pub seq: u64,
    /// When it is due, ns after the schedule start.
    pub due_ns: u64,
    /// Target user index.
    pub user: u32,
    /// Alert source.
    pub source: &'static str,
    /// Sent with critical urgency (in-process submissions only).
    pub critical: bool,
    /// Alert body, starting `#<seq> `.
    pub body: String,
    /// The outcome the checker demands.
    pub expect: Expect,
}

/// Builds the body for `seq`: the sequence number first (the channel
/// parses it), then the due time, then the payload the rules look at.
pub fn body(seq: u64, due_ns: u64, payload: &str) -> String {
    format!("#{seq} due={}us {payload}", due_ns / 1_000)
}

/// Parses the sequence number back out of a delivered text.
pub fn parse_seq(text: &str) -> Option<u64> {
    let rest = text.strip_prefix('#')?;
    let end = rest.find(' ').unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Uniformly spaced due times at `rate` per second for `secs` seconds;
/// `pick` chooses each item's user, source, payload, and expectation.
pub fn uniform(
    rate: f64,
    secs: f64,
    mut pick: impl FnMut() -> (u32, &'static str, bool, &'static str, Expect),
) -> Vec<Item> {
    let count = (rate * secs).round() as u64;
    (0..count)
        .map(|seq| {
            let due_ns = (seq as f64 * 1e9 / rate) as u64;
            let (user, source, critical, payload, expect) = pick();
            Item {
                seq,
                due_ns,
                user,
                source,
                critical,
                body: body(seq, due_ns, payload),
                expect,
            }
        })
        .collect()
}

/// `n` distinct user indices drawn from `0..population`.
pub fn sample_users(rng: &mut Rng, population: u32, n: usize) -> Vec<u32> {
    let mut picked = std::collections::BTreeSet::new();
    while picked.len() < n.min(population as usize) {
        picked.insert(rng.below(u64::from(population)) as u32);
    }
    let mut users: Vec<u32> = picked.into_iter().collect();
    // Shuffle so position carries no order information.
    for i in (1..users.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        users.swap(i, j);
    }
    users
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let build = |seed| {
            let mut rng = Rng::new(seed, 1);
            uniform(100.0, 2.0, || {
                (rng.below(50) as u32, "s", false, "p", Expect::Im)
            })
            .into_iter()
            .map(|i| (i.due_ns, i.user, i.body))
            .collect::<Vec<_>>()
        };
        assert_eq!(build(7), build(7));
        assert_ne!(build(7), build(8));
    }

    #[test]
    fn seq_round_trips_through_the_body() {
        let b = body(12345, 2_000_000, "disk full");
        assert!(b.starts_with("#12345 "));
        assert_eq!(parse_seq(&b), Some(12345));
        assert_eq!(parse_seq("digest: 3x"), None);
    }

    #[test]
    fn im_classes_have_the_scripted_shares() {
        let n = 64_000u32;
        let down = (0..n).filter(|u| im_class(3, *u) == ImClass::Down).count() as f64;
        let noack = (0..n).filter(|u| im_class(3, *u) == ImClass::NoAck).count() as f64;
        assert!((down / f64::from(n) - 1.0 / 16.0).abs() < 0.005);
        assert!((noack / f64::from(n) - 1.0 / 32.0).abs() < 0.005);
    }

    #[test]
    fn sampled_users_are_distinct() {
        let mut rng = Rng::new(1, 2);
        let users = sample_users(&mut rng, 1_000, 200);
        let set: std::collections::BTreeSet<_> = users.iter().collect();
        assert_eq!(set.len(), 200);
    }
}
