//! Deterministic, seed-driven fault schedules for the SPMD runtime.
//!
//! `pfam-mpi` defines *how* faults manifest ([`FaultInjector`]); this
//! module decides *which* faults occur. A [`FaultSchedule`] is a finite,
//! explicit list of [`FaultEvent`]s — kill rank `r` at its `k`-th
//! communicator operation, drop or delay the `s`-th message on a directed
//! edge, slow a rank down — that implements [`FaultInjector`] so it can be
//! handed straight to `pfam_mpi::run_spmd_faulty`.
//!
//! Schedules are either built explicitly (the builder API) or generated
//! from a seed ([`FaultSchedule::seeded`]), which is what the
//! fault-tolerance property tests sweep. Seeded schedules maintain the
//! recovery invariants the fault-tolerant engines are entitled to assume
//! (DESIGN.md §robustness):
//!
//! * **rank 0 (the master) is never killed** — master failure is handled
//!   by checkpoint/restart, not in-job recovery;
//! * **at least one worker survives** — kills are capped at
//!   `n_ranks − 2`;
//! * the schedule is **finite**, so any retry loop eventually gets a
//!   message through (drops name specific edge sequence numbers, they are
//!   not loss rates).
//!
//! Because both the kill clock (per-rank operation count) and the
//! drop/delay coordinates (per-edge message sequence numbers) are
//! deterministic counters maintained by the communicator, a schedule
//! reproduces exactly across runs regardless of thread interleaving.

use std::time::Duration;

use pfam_mpi::{FaultInjector, MessageFate};

/// One injected fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultEvent {
    /// Kill `rank` at (or after) its `event`-th communicator operation:
    /// the first operation with index ≥ `event` fails with
    /// `CommError::RankKilled` and the rank is marked dead on the
    /// liveness board.
    KillRank {
        /// Rank to kill (never 0 in seeded schedules).
        rank: usize,
        /// Operation index at which the kill takes effect.
        event: u64,
    },
    /// Silently lose the `seq`-th message sent on the directed edge
    /// `from → to` (the sender still observes success).
    DropMessage {
        /// Sending rank.
        from: usize,
        /// Receiving rank.
        to: usize,
        /// Per-edge message sequence number (from 0).
        seq: u64,
    },
    /// Hold the `seq`-th message on `from → to` back until `hold` later
    /// messages to the same destination have been delivered (reordering).
    DelayMessage {
        /// Sending rank.
        from: usize,
        /// Receiving rank.
        to: usize,
        /// Per-edge message sequence number (from 0).
        seq: u64,
        /// Number of later messages that overtake this one.
        hold: u32,
    },
    /// A straggler window: `rank` sleeps `per_op` before each
    /// communicator operation in `from_event .. to_event`, then recovers
    /// — a node that is slow for a while (page cache storm, co-tenant).
    SlowRange {
        /// Rank to slow down.
        rank: usize,
        /// First slowed operation index.
        from_event: u64,
        /// First operation index back at full speed.
        to_event: u64,
        /// Latency added per slowed operation.
        per_op: Duration,
    },
}

/// A finite, deterministic set of injected faults. Implements
/// [`FaultInjector`], so it plugs directly into
/// `pfam_mpi::run_spmd_faulty(p, Arc::new(schedule), f)`.
#[derive(Debug, Clone, Default)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// The empty schedule (equivalent to `pfam_mpi::NoFaults`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder: add one event.
    #[must_use]
    pub fn with(mut self, event: FaultEvent) -> Self {
        self.events.push(event);
        self
    }

    /// Add one event in place.
    pub fn push(&mut self, event: FaultEvent) {
        self.events.push(event);
    }

    /// The scheduled events.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Ranks this schedule kills (deduplicated, sorted).
    pub fn killed_ranks(&self) -> Vec<usize> {
        let mut ranks: Vec<usize> = self
            .events
            .iter()
            .filter_map(|e| match e {
                FaultEvent::KillRank { rank, .. } => Some(*rank),
                _ => None,
            })
            .collect();
        ranks.sort_unstable();
        ranks.dedup();
        ranks
    }

    /// Generate a random schedule for a world of `p` ranks from `seed`.
    ///
    /// The schedule kills up to `max_kills` **worker** ranks (never rank
    /// 0, and never so many that no worker survives), drops a few
    /// master↔worker messages, and delays a few more. Identical
    /// `(seed, p, max_kills)` always produce the identical schedule.
    pub fn seeded(seed: u64, p: usize, max_kills: usize) -> Self {
        assert!(p >= 2, "need a master and at least one worker");
        let mut state = seed ^ 0xD1F4_77AB_C0FF_EE00 ^ (p as u64) << 32;
        let mut next = move || splitmix64(&mut state);
        let mut schedule = FaultSchedule::new();

        // Kills: distinct worker ranks, at least one worker left alive.
        let n_workers = p - 1;
        let kill_budget = max_kills.min(n_workers - 1);
        let n_kills = if kill_budget == 0 { 0 } else { (next() as usize) % (kill_budget + 1) };
        let mut victims: Vec<usize> = (1..p).collect();
        for _ in 0..n_kills {
            let i = (next() as usize) % victims.len();
            let rank = victims.swap_remove(i);
            // Let the rank do a little work first, so kills land mid-protocol
            // rather than only at startup.
            let event = 3 + next() % 120;
            schedule.push(FaultEvent::KillRank { rank, event });
        }

        // Drops: a few early messages on master↔worker edges.
        let n_drops = (next() as usize) % 4;
        for _ in 0..n_drops {
            let worker = 1 + (next() as usize) % n_workers;
            let (from, to) = if next() % 2 == 0 { (0, worker) } else { (worker, 0) };
            let seq = next() % 40;
            schedule.push(FaultEvent::DropMessage { from, to, seq });
        }

        // Delays: reorder a couple of messages behind 1–3 later ones.
        let n_delays = (next() as usize) % 3;
        for _ in 0..n_delays {
            let worker = 1 + (next() as usize) % n_workers;
            let (from, to) = if next() % 2 == 0 { (0, worker) } else { (worker, 0) };
            let seq = next() % 40;
            let hold = 1 + (next() % 3) as u32;
            schedule.push(FaultEvent::DelayMessage { from, to, seq, hold });
        }

        schedule
    }
}

impl FaultInjector for FaultSchedule {
    fn kill_now(&self, rank: usize, event: u64) -> bool {
        self.events.iter().any(|e| {
            matches!(e, FaultEvent::KillRank { rank: r, event: at }
                if *r == rank && event >= *at)
        })
    }

    fn slowdown(&self, rank: usize, event: u64) -> Option<Duration> {
        self.events.iter().find_map(|e| match e {
            FaultEvent::SlowRange { rank: r, from_event, to_event, per_op }
                if *r == rank && event >= *from_event && event < *to_event =>
            {
                Some(*per_op)
            }
            _ => None,
        })
    }

    fn message_fate(&self, from: usize, to: usize, _tag: u32, seq: u64) -> MessageFate {
        for e in &self.events {
            match *e {
                FaultEvent::DropMessage { from: f, to: t, seq: s }
                    if f == from && t == to && s == seq =>
                {
                    return MessageFate::Drop;
                }
                FaultEvent::DelayMessage { from: f, to: t, seq: s, hold }
                    if f == from && t == to && s == seq =>
                {
                    return MessageFate::Delay { hold };
                }
                _ => {}
            }
        }
        MessageFate::Deliver
    }
}

/// SplitMix64: tiny, high-quality, dependency-free PRNG step.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn seeded_schedules_are_deterministic() {
        for seed in 0..50u64 {
            let a = FaultSchedule::seeded(seed, 6, 3);
            let b = FaultSchedule::seeded(seed, 6, 3);
            assert_eq!(a.events(), b.events(), "seed {seed}");
        }
    }

    #[test]
    fn seeded_schedules_respect_recovery_invariants() {
        for seed in 0..200u64 {
            for p in 2..8usize {
                let s = FaultSchedule::seeded(seed, p, p); // over-ask kills
                let killed = s.killed_ranks();
                assert!(!killed.contains(&0), "seed {seed}: master killed");
                assert!(
                    killed.len() < p - 1,
                    "seed {seed}, p {p}: no surviving worker ({killed:?})"
                );
                assert!(killed.iter().all(|&r| r < p));
            }
        }
    }

    #[test]
    fn kill_takes_effect_at_and_after_the_event() {
        let s = FaultSchedule::new().with(FaultEvent::KillRank { rank: 2, event: 7 });
        assert!(!s.kill_now(2, 6));
        assert!(s.kill_now(2, 7));
        assert!(s.kill_now(2, 99));
        assert!(!s.kill_now(1, 99));
    }

    #[test]
    fn slow_range_applies_only_inside_the_window() {
        let s = FaultSchedule::new().with(FaultEvent::SlowRange {
            rank: 2,
            from_event: 10,
            to_event: 20,
            per_op: Duration::from_millis(1),
        });
        assert_eq!(s.slowdown(2, 9), None);
        assert_eq!(s.slowdown(2, 10), Some(Duration::from_millis(1)));
        assert_eq!(s.slowdown(2, 19), Some(Duration::from_millis(1)));
        assert_eq!(s.slowdown(2, 20), None, "straggler recovered");
        assert_eq!(s.slowdown(1, 15), None);
    }

    #[test]
    fn message_fates_match_edge_and_sequence() {
        let s = FaultSchedule::new()
            .with(FaultEvent::DropMessage { from: 1, to: 0, seq: 3 })
            .with(FaultEvent::DelayMessage { from: 0, to: 2, seq: 0, hold: 2 });
        assert_eq!(s.message_fate(1, 0, 9, 3), MessageFate::Drop);
        assert_eq!(s.message_fate(1, 0, 9, 4), MessageFate::Deliver);
        assert_eq!(s.message_fate(0, 2, 1, 0), MessageFate::Delay { hold: 2 });
        assert_eq!(s.message_fate(2, 0, 1, 0), MessageFate::Deliver);
    }

    #[test]
    fn schedule_drives_the_runtime() {
        // A schedule that kills rank 1 immediately: the other ranks keep
        // exchanging point-to-point messages and finish.
        let schedule =
            Arc::new(FaultSchedule::new().with(FaultEvent::KillRank { rank: 1, event: 0 }));
        let outcomes = pfam_mpi::run_spmd_faulty(3, schedule, |comm| {
            if comm.rank() == 1 {
                // First operation fails with RankKilled.
                return comm.send(0, 1, 0u8).is_err();
            }
            // Ranks 0 and 2 talk to each other and observe 1's death. What
            // is asserted is that both happen, not how soon: rank 1 dies at
            // its first operation, whenever a loaded host schedules it, so
            // the deadline only bounds a hang.
            let deadline = std::time::Instant::now() + Duration::from_secs(60);
            let peer = 2 - comm.rank();
            comm.send(peer, 7, 1u8).ok();
            let mut got = false;
            while !got && std::time::Instant::now() < deadline {
                got = matches!(comm.try_recv::<u8>(peer, 7), Ok(Some(_)));
                std::thread::yield_now();
            }
            while comm.peer_alive(1) && std::time::Instant::now() < deadline {
                std::thread::yield_now();
            }
            got && !comm.peer_alive(1)
        });
        for (rank, outcome) in outcomes.iter().enumerate() {
            match outcome {
                Ok(v) => assert!(v, "rank {rank}"),
                Err(f) => panic!("rank {rank} failed: {f:?}"),
            }
        }
    }
}
