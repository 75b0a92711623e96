//! A minimal pull-based worker pool for embarrassingly parallel,
//! deterministic job lists.
//!
//! The engine under the `harness` experiment matrices: a central
//! [`TaskQueue`] owns the pending jobs and each worker thread
//! *requests* its next job when it becomes free, so a straggler — say a
//! saturated operating point simulating far more events than a light one
//! — never idles the rest of the pool.
//!
//! Results are keyed by job index and merged back into submission order,
//! so as long as each job's result is a pure function of the job itself
//! (all simulation RNG streams derive from per-job seeds), the output is
//! bit-identical for every thread count and scheduling interleaving.

use std::collections::VecDeque;
use std::sync::{mpsc, Mutex};

/// A shared queue of indexed jobs that workers pull from.
pub struct TaskQueue<T> {
    pending: Mutex<VecDeque<(usize, T)>>,
}

impl<T> TaskQueue<T> {
    /// Creates a queue holding `items` in submission order.
    pub fn new(items: Vec<T>) -> Self {
        TaskQueue {
            pending: Mutex::new(items.into_iter().enumerate().collect()),
        }
    }

    /// A worker's task request: the next pending `(index, job)`, or
    /// `None` when the queue is drained.
    pub fn request(&self) -> Option<(usize, T)> {
        self.pending
            .lock()
            .expect("task queue lock poisoned")
            .pop_front()
    }

    /// Jobs not yet handed to a worker.
    pub fn pending(&self) -> usize {
        self.pending.lock().expect("task queue lock poisoned").len()
    }
}

/// Default worker count: the machine's available parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The worker count [`run_indexed`] will actually use for a job count:
/// `threads` clamped to `[1, jobs]`.
pub fn effective_threads(threads: usize, jobs: usize) -> usize {
    threads.max(1).min(jobs.max(1))
}

/// Runs `run(index, item)` for every item on up to `threads` worker
/// threads, returning results in submission order.
///
/// `threads` is clamped to `[1, items.len()]`; `threads <= 1` runs
/// inline on the calling thread with no pool at all, which is the
/// reference behaviour parallel runs must reproduce bit for bit.
pub fn run_indexed<T, R, F>(items: Vec<T>, threads: usize, run: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let threads = effective_threads(threads, n);
    if threads <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| run(i, item))
            .collect();
    }

    let queue = TaskQueue::new(items);
    let (results_tx, results_rx) = mpsc::channel::<(usize, R)>();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            let queue = &queue;
            let run = &run;
            let results_tx = results_tx.clone();
            scope.spawn(move || {
                // Pull, run, report, repeat until drained.
                while let Some((index, item)) = queue.request() {
                    let result = run(index, item);
                    if results_tx.send((index, result)).is_err() {
                        // Collector hung up (a sibling panicked); stop.
                        break;
                    }
                }
            });
        }
        drop(results_tx);

        // Collect in completion order, then restore submission order.
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for (index, result) in results_rx {
            debug_assert!(slots[index].is_none(), "job {index} completed twice");
            slots[index] = Some(result);
        }
        slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                // A missing slot means a worker died mid-job; its own
                // panic message has already been printed by the panic
                // hook, so point at it rather than masking it.
                slot.unwrap_or_else(|| {
                    panic!("job {i} never reported a result (a worker thread panicked running it)")
                })
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_hands_out_in_order_once() {
        let q = TaskQueue::new(vec!["a", "b", "c"]);
        assert_eq!(q.pending(), 3);
        assert_eq!(q.request(), Some((0, "a")));
        assert_eq!(q.request(), Some((1, "b")));
        assert_eq!(q.request(), Some((2, "c")));
        assert_eq!(q.request(), None);
        assert_eq!(q.pending(), 0);
    }

    #[test]
    fn parallel_matches_inline_order() {
        let items: Vec<u64> = (0..100).collect();
        let inline = run_indexed(items.clone(), 1, |i, v| (i as u64) * 1_000 + v * v);
        let parallel = run_indexed(items, 8, |i, v| (i as u64) * 1_000 + v * v);
        assert_eq!(inline, parallel);
        assert_eq!(inline[7], 7_049);
    }

    #[test]
    fn thread_count_is_clamped() {
        assert_eq!(run_indexed(vec![5u32], 64, |_, v| v + 1), vec![6]);
        assert_eq!(run_indexed(Vec::<u32>::new(), 0, |_, v| v), Vec::<u32>::new());
    }

    #[test]
    fn worker_panic_is_attributed() {
        let result = std::panic::catch_unwind(|| {
            run_indexed(vec![0u32, 1, 2, 3], 2, |_, v| {
                assert!(v != 2, "job payload 2 exploded");
                v
            })
        });
        assert!(result.is_err());
    }
}
