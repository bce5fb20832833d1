//! The suite's one work-queue: every parallel loop — Monte-Carlo samples,
//! RR-sketch build and refresh tasks — runs on [`run_queue`], with
//! its worker count resolved by [`effective_threads`].
//!
//! Results never depend on the worker count or on which worker claimed
//! which task: a task owns whatever mutable state it carries, and callers
//! give every task its own deterministic RNG stream, so any schedule
//! produces the output of the inline loop.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolves a requested worker-thread count against the machine and the
/// amount of work.
///
/// This is the **one** place a `threads` knob is interpreted:
///
/// * `0` means *auto* — use every core `available_parallelism` reports,
/// * explicit requests are capped at `available_parallelism` — spawning
///   more CPU-bound workers than cores only adds scheduling overhead —
///   and at `work_items`, since a worker without work is pure spawn cost,
/// * the result is never below 1.
///
/// Determinism never depends on the resolved value (see the module docs).
pub fn effective_threads(requested: usize, work_items: usize) -> usize {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let requested = if requested == 0 { cores } else { requested };
    requested.min(cores).clamp(1, work_items.max(1))
}

/// Runs every task through `job` on a dynamic work-queue of up to `workers`
/// scoped threads, returning the results **in task order**.  `workers` must
/// already be resolved (usually by [`effective_threads`]; tests force more
/// workers than cores); `workers <= 1` runs inline.
///
/// Workers claim tasks with an atomic ticket counter, so load balances
/// dynamically no matter how skewed individual tasks are.  Each task runs
/// exactly once (tickets are unique), and because a task owns whatever
/// mutable state it carries, workers share nothing and the result is
/// identical to the inline loop by construction.
///
/// # Panics
/// A panicking task re-raises its payload in the caller once every worker
/// has stopped.
pub fn run_queue<S: Send, T: Send>(
    tasks: Vec<S>,
    workers: usize,
    job: impl Fn(usize, S) -> T + Sync,
) -> Vec<T> {
    if workers <= 1 || tasks.len() <= 1 {
        return tasks
            .into_iter()
            .enumerate()
            .map(|(i, task)| job(i, task))
            .collect();
    }
    let slots: Vec<Mutex<Option<S>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<T>> = (0..slots.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.min(slots.len()))
            .map(|_| {
                let slots = &slots;
                let next = &next;
                let job = &job;
                scope.spawn(move || {
                    let mut local: Vec<(usize, T)> = Vec::new();
                    loop {
                        // lint: allow(atomic-ordering) — work-stealing
                        // ticket counter: the RMW alone guarantees each task
                        // index is claimed once; task state is handed over
                        // through the slot mutex, so no further ordering is
                        // required.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= slots.len() {
                            break;
                        }
                        let task = slots[i].lock().unwrap_or_else(|e| e.into_inner()).take();
                        if let Some(task) = task {
                            local.push((i, job(i, task)));
                        }
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            let local = match handle.join() {
                Ok(local) => local,
                Err(panic) => std::panic::resume_unwind(panic),
            };
            for (i, result) in local {
                results[i] = Some(result);
            }
        }
    });
    results
        .into_iter()
        .map(|slot| match slot {
            Some(result) => result,
            None => unreachable!("every ticket is claimed exactly once"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forced_workers_run_each_task_once_in_task_order() {
        // Forced worker counts exercise the scoped-spawn path even on
        // single-core machines (`effective_threads` caps at the core count).
        for tasks in [0usize, 1, 2, 3, 7, 64] {
            for workers in [1usize, 2, 3, 8] {
                let runs: Vec<AtomicUsize> = (0..tasks).map(|_| AtomicUsize::new(0)).collect();
                let results = run_queue((0..tasks).collect(), workers, |i, task: usize| {
                    assert_eq!(i, task);
                    // lint: allow(atomic-ordering) — test tally, read after
                    // the queue's scope has joined every worker.
                    runs[task].fetch_add(1, Ordering::Relaxed);
                    task * 10
                });
                assert_eq!(results, (0..tasks).map(|t| t * 10).collect::<Vec<_>>());
                for (task, count) in runs.into_iter().enumerate() {
                    assert_eq!(
                        count.into_inner(),
                        1,
                        "{tasks} tasks x {workers} workers: task {task}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_panicking_task_re_raises_its_payload_in_the_caller() {
        /// A payload only the failing task can produce.
        #[derive(Debug, PartialEq)]
        struct Boom(usize);
        for workers in [1usize, 2, 3, 8] {
            let caught = std::panic::catch_unwind(|| {
                run_queue((0..16usize).collect(), workers, |_, task| {
                    if task == 5 {
                        std::panic::panic_any(Boom(task));
                    }
                    task
                })
            });
            let payload = match caught {
                Ok(results) => unreachable!("task 5 panicked, got {results:?}"),
                Err(payload) => payload,
            };
            assert_eq!(
                payload.downcast_ref::<Boom>(),
                Some(&Boom(5)),
                "{workers} workers"
            );
        }
    }

    #[test]
    fn effective_threads_resolves_auto_and_caps() {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        // 0 = auto: every available core (still capped by the work size).
        assert_eq!(effective_threads(0, usize::MAX), cores);
        assert_eq!(effective_threads(0, 1), 1);
        // Explicit requests cap at the core count...
        assert_eq!(effective_threads(cores + 7, usize::MAX), cores);
        // ...and at the number of work items, and never fall below 1.
        assert_eq!(effective_threads(8, 3), 3.min(cores));
        assert_eq!(effective_threads(1, 0), 1);
        assert_eq!(effective_threads(0, 0), 1);
    }

    #[test]
    fn effective_threads_floors_at_one_with_no_work() {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        // A request exceeding both the core count and the (empty) work
        // list still floors at 1 — never 0 workers, never a spawn storm.
        assert_eq!(effective_threads(cores + 5, 0), 1);
        assert_eq!(effective_threads(usize::MAX, 0), 1);
        // One work item pins the answer at 1 regardless of the request.
        assert_eq!(effective_threads(usize::MAX, 1), 1);
        assert_eq!(effective_threads(cores, 1), 1);
    }
}
