//! Randomized stress tests for the SPMD runtime: many ranks, many
//! messages, mixed tags, repeated collectives.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use std::any::Any;

use pfam_mpi::{run_spmd, CommError, Communicator, ANY_SOURCE};

fn must<T>(r: Result<T, CommError>) -> T {
    match r {
        Ok(v) => v,
        Err(e) => panic!("unexpected comm error: {e}"),
    }
}

/// A blocking receive the way the master–worker loops get one: poll
/// `try_recv` until a matching message is there.
fn poll<T: Any + Send>(
    comm: &mut Communicator,
    from: usize,
    tag: u32,
) -> Result<(usize, T), CommError> {
    loop {
        if let Some(got) = comm.try_recv(from, tag)? {
            return Ok(got);
        }
        std::thread::yield_now();
    }
}

/// Sum `value` over the world by hand: every rank sends its value to
/// rank 0, which sends the total back out on the same tag.
fn sum_through_rank_0(comm: &mut Communicator, value: u64, tag: u32) -> u64 {
    if comm.rank() != 0 {
        must(comm.send(0, tag, value));
        return must(poll::<u64>(comm, 0, tag)).1;
    }
    let total =
        value + (1..comm.size()).map(|_| must(poll::<u64>(comm, ANY_SOURCE, tag)).1).sum::<u64>();
    for r in 1..comm.size() {
        must(comm.send(r, tag, total));
    }
    total
}

#[test]
fn random_point_to_point_traffic_is_lossless() {
    // Every rank sends a random number of tagged messages to every other
    // rank; receivers drain by (source, tag) and check sums.
    let p = 6usize;
    let plan: Vec<Vec<usize>> = {
        let mut rng = StdRng::seed_from_u64(71);
        (0..p).map(|_| (0..p).map(|_| rng.gen_range(0..20)).collect()).collect()
    };
    let plan_ref = &plan;
    let results = run_spmd(p, move |comm| {
        let me = comm.rank();
        // Send phase.
        for (to, &count) in plan_ref[me].iter().enumerate() {
            if to == me {
                continue;
            }
            for i in 0..count {
                must(comm.send(to, 5, (me as u64) * 1000 + i as u64));
            }
        }
        // Receive phase: expected count is known from the shared plan.
        let expected: usize = (0..comm.size()).filter(|&f| f != me).map(|f| plan_ref[f][me]).sum();
        let mut sum = 0u64;
        for _ in 0..expected {
            let (_, v) = must(poll::<u64>(comm, ANY_SOURCE, 5));
            sum += v;
        }
        sum
    });
    // Check each rank received exactly the planned payload sum.
    for me in 0..p {
        let expect: u64 = (0..p)
            .filter(|&f| f != me)
            .flat_map(|f| (0..plan[f][me]).map(move |i| (f as u64) * 1000 + i as u64))
            .sum();
        assert_eq!(results[me], expect, "rank {me}");
    }
}

#[test]
fn repeated_collectives_stay_in_step() {
    let results = run_spmd(5, |comm| {
        let mut checks = Vec::new();
        for round in 0..25u64 {
            let total = sum_through_rank_0(comm, round + comm.rank() as u64, 6);
            checks.push(total);
            must(comm.barrier());
        }
        checks
    });
    for ranks in &results {
        for (round, &total) in ranks.iter().enumerate() {
            let expect = (0..5).map(|r| round as u64 + r).sum::<u64>();
            assert_eq!(total, expect, "round {round}");
        }
    }
}

#[test]
fn wildcard_and_specific_receives_mix() {
    let results = run_spmd(3, |comm| {
        match comm.rank() {
            0 => {
                // Specific receive from 2 first, then wildcard: the rank-1
                // message must wait in the pending buffer.
                let (_, two) = must(poll::<u8>(comm, 2, 1));
                let (from, one) = must(poll::<u8>(comm, ANY_SOURCE, 1));
                (two, one, from)
            }
            r => {
                must(comm.send(0, 1, r as u8));
                (0, 0, 0)
            }
        }
    });
    assert_eq!(results[0], (2, 1, 1));
}

#[test]
fn large_world() {
    let p = 32;
    let results = run_spmd(p, |comm| {
        let total = sum_through_rank_0(comm, 1, 6);
        must(comm.barrier());
        total
    });
    assert!(results.iter().all(|&v| v == p as u64));
}
