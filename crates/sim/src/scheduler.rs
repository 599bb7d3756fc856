//! Greedy list scheduling: the dynamic work distribution the PaCE master
//! performs, reproduced as earliest-available-worker assignment.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Makespan of scheduling `tasks` (costs) in order onto `workers`
/// identical machines, each task to the earliest-available worker —
/// Graham's list scheduling, which is what a dynamic master-worker queue
/// realises.
///
/// Only `min(workers, tasks.len())` workers are modelled: with at least as
/// many workers as tasks every task starts at 0, so the idle rest cannot
/// change the makespan — and a worker count of any size costs no memory.
pub fn list_schedule_makespan(tasks: &[f64], workers: usize) -> f64 {
    assert!(workers >= 1, "need at least one worker");
    if tasks.is_empty() {
        return 0.0;
    }
    // Min-heap over (finish_time, worker) with f64 ordered via bits (all
    // values are non-negative finite).
    let key = |t: f64| Reverse(t.to_bits());
    let mut heap: BinaryHeap<Reverse<u64>> =
        (0..workers.min(tasks.len())).map(|_| key(0.0)).collect();
    let mut makespan = 0.0f64;
    for &t in tasks {
        debug_assert!(t >= 0.0 && t.is_finite());
        let Reverse(bits) = heap.pop().expect("workers >= 1");
        let free_at = f64::from_bits(bits);
        let finish = free_at + t;
        makespan = makespan.max(finish);
        heap.push(key(finish));
    }
    makespan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_worker_is_sum() {
        let tasks = [3.0, 1.0, 4.0, 1.0, 5.0];
        assert_eq!(list_schedule_makespan(&tasks, 1), 14.0);
    }

    #[test]
    fn enough_workers_is_max() {
        let tasks = [3.0, 1.0, 4.0];
        assert_eq!(list_schedule_makespan(&tasks, 3), 4.0);
        assert_eq!(list_schedule_makespan(&tasks, 10), 4.0);
    }

    #[test]
    fn two_workers_balanced() {
        // In-order greedy: w1=[3], w2=[1,4] -> 5; w1 then takes 2 -> 5.
        let tasks = [3.0, 1.0, 4.0, 2.0];
        assert_eq!(list_schedule_makespan(&tasks, 2), 5.0);
    }

    #[test]
    fn makespan_bounds() {
        // Graham bound: OPT <= makespan <= (2 - 1/m)·OPT; check the weaker
        // sandwich max(total/m, max_task) <= makespan <= total.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..50 {
            let n = rng.gen_range(1..40);
            let m = rng.gen_range(1..8);
            let tasks: Vec<f64> = (0..n).map(|_| rng.gen_range(0.1..10.0)).collect();
            let ms = list_schedule_makespan(&tasks, m);
            let total: f64 = tasks.iter().sum();
            let max_task = tasks.iter().cloned().fold(0.0, f64::max);
            assert!(ms <= total + 1e-9);
            assert!(ms + 1e-9 >= total / m as f64);
            assert!(ms + 1e-9 >= max_task);
        }
    }

    #[test]
    fn a_worker_count_past_memory_is_the_longest_task() {
        // One heap entry per worker would be a capacity overflow here.
        assert_eq!(list_schedule_makespan(&[3.0, 1.0, 4.0], usize::MAX), 4.0);
    }

    #[test]
    fn empty_tasks() {
        assert_eq!(list_schedule_makespan(&[], 4), 0.0);
    }

    #[test]
    fn more_workers_never_slower() {
        let tasks: Vec<f64> = (1..30).map(|i| (i % 7 + 1) as f64).collect();
        let mut prev = f64::INFINITY;
        for m in 1..10 {
            let ms = list_schedule_makespan(&tasks, m);
            assert!(ms <= prev + 1e-9, "m={m}: {ms} > {prev}");
            prev = ms;
        }
    }
}
