//! Parallel execution of independent seeded trials.
//!
//! The worker pool is lock-free: threads claim trial indices from a shared
//! atomic counter and accumulate `(index, result)` pairs in thread-local
//! vectors, which the caller scatters into the final ordered vector after
//! all workers join.  No mutex is held anywhere on the trial path, so a
//! slow trial never blocks another thread's bookkeeping.
//!
//! Trial closures are isolated with `catch_unwind`: one panicking trial
//! cannot take down the other slots' results.  [`run_trials_caught`]
//! exposes the per-slot `Result`s; the plain [`run_trials`] family keeps
//! its infallible signature and reports the first failure *after* every
//! other trial has finished.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::SeedSequence;

/// A trial closure panicked; carries enough context to re-run the slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialPanic {
    /// The trial index that panicked.
    pub trial: usize,
    /// The per-trial seed it was running with.
    pub seed: u64,
    /// The panic payload, stringified (`"<non-string panic payload>"` when
    /// the payload was not a string).
    pub message: String,
}

impl std::fmt::Display for TrialPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trial {} (seed {:#x}) panicked: {}",
            self.trial, self.seed, self.message
        )
    }
}

/// The marker recorded when a panic payload is neither `&str` nor
/// `String` (e.g. `panic_any(42)`); typed so callers can distinguish "the
/// message was lost" from a genuine message with this text shape.
pub const NON_STRING_PANIC: &str = "<non-string panic payload>";

/// Stringifies a `catch_unwind` payload (panics carry `&str` or `String`
/// in practice; anything else becomes [`NON_STRING_PANIC`]).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        NON_STRING_PANIC.to_string()
    }
}

/// Runs `trials` independent trials of `f` in parallel and returns the
/// results **in trial order**.
///
/// Trial `i` receives `(i, seed_i)` where `seed_i` is drawn from
/// [`SeedSequence`] for `master_seed` — the results are identical
/// regardless of thread count or scheduling.  The thread count defaults to
/// the available parallelism.
///
/// # Panics
///
/// Panics if any trial closure panicked — but only after every other
/// trial has run to completion, and with the failing trial's index and
/// seed in the message.  Use [`run_trials_caught`] to receive per-trial
/// failures as values instead.
///
/// # Examples
///
/// ```
/// let squares = div_sim::run_trials(5, 0, |i, _seed| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16]);
/// ```
pub fn run_trials<T, F>(trials: usize, master_seed: u64, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, u64) -> T + Sync,
{
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    run_trials_with_threads(trials, master_seed, threads, f)
}

/// [`run_trials`] with an explicit thread count (`threads == 1` runs
/// inline with no thread machinery — useful under a profiler).
///
/// # Panics
///
/// Panics if `threads == 0`, or — after all slots have finished — if any
/// trial closure panicked (reporting the first failing slot).
pub fn run_trials_with_threads<T, F>(
    trials: usize,
    master_seed: u64,
    threads: usize,
    f: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(usize, u64) -> T + Sync,
{
    let mut out = Vec::with_capacity(trials);
    let mut first_failure: Option<TrialPanic> = None;
    for slot in run_trials_caught(trials, master_seed, threads, f) {
        match slot {
            Ok(t) => out.push(t),
            Err(p) => first_failure = first_failure.or(Some(p)),
        }
    }
    if let Some(p) = first_failure {
        panic!("{p}");
    }
    out
}

/// Like [`run_trials_with_threads`], but panics inside trial closures are
/// isolated per slot: the result vector carries `Err(`[`TrialPanic`]`)`
/// for panicked slots and every other slot's result survives.
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn run_trials_caught<T, F>(
    trials: usize,
    master_seed: u64,
    threads: usize,
    f: F,
) -> Vec<Result<T, TrialPanic>>
where
    T: Send,
    F: Fn(usize, u64) -> T + Sync,
{
    assert!(threads > 0, "need at least one thread");
    if trials == 0 {
        return Vec::new();
    }
    let run_one = |i: usize| -> Result<T, TrialPanic> {
        let seed = SeedSequence::seed_for(master_seed, i as u64);
        catch_unwind(AssertUnwindSafe(|| f(i, seed))).map_err(|payload| TrialPanic {
            trial: i,
            seed,
            message: panic_message(payload.as_ref()),
        })
    };
    if threads == 1 || trials == 1 {
        return (0..trials).map(run_one).collect();
    }

    let next = AtomicUsize::new(0);
    let workers = threads.min(trials);
    let mut batches: Vec<Vec<(usize, Result<T, TrialPanic>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local: Vec<(usize, Result<T, TrialPanic>)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= trials {
                            break;
                        }
                        local.push((i, run_one(i)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            // Trial panics are caught inside the worker; a join failure
            // here means the pool machinery itself is broken.
            .map(|h| h.join().expect("worker thread panicked outside a trial"))
            .collect()
    });

    // Scatter each worker's batch into its ordered slot.  Every index in
    // 0..trials was claimed by exactly one worker, so after the scatter the
    // slot vector is dense.
    let mut slots: Vec<Option<Result<T, TrialPanic>>> = (0..trials).map(|_| None).collect();
    for batch in batches.iter_mut() {
        for (i, out) in batch.drain(..) {
            debug_assert!(slots[i].is_none(), "trial index claimed twice");
            slots[i] = Some(out);
        }
    }
    slots
        .into_iter()
        .map(|r| r.expect("every trial index was claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_trial_order() {
        let out = run_trials(100, 7, |i, _| i);
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn seeds_are_deterministic_across_thread_counts() {
        let one = run_trials_with_threads(64, 3, 1, |_, seed| seed);
        let many = run_trials_with_threads(64, 3, 8, |_, seed| seed);
        assert_eq!(one, many);
        let expected: Vec<u64> = crate::SeedSequence::new(3).take(64).collect();
        assert_eq!(one, expected);
    }

    #[test]
    fn zero_trials_is_empty() {
        let out: Vec<u64> = run_trials(0, 0, |_, s| s);
        assert!(out.is_empty());
    }

    #[test]
    fn heavy_uneven_work_balances() {
        // Uneven per-trial cost should not lose or reorder results.
        let out = run_trials_with_threads(40, 5, 4, |i, _| {
            let mut acc = 0u64;
            for j in 0..(i * 1000) {
                acc = acc.wrapping_add(j as u64);
            }
            (i, acc)
        });
        for (i, &(idx, _)) in out.iter().enumerate() {
            assert_eq!(i, idx);
        }
    }

    #[test]
    fn more_threads_than_trials() {
        let out = run_trials_with_threads(3, 11, 16, |i, _| i * 2);
        assert_eq!(out, vec![0, 2, 4]);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let _ = run_trials_with_threads(1, 0, 0, |_, s| s);
    }

    #[test]
    fn caught_isolates_a_panicking_slot() {
        for threads in [1, 4] {
            let out = run_trials_caught(10, 9, threads, |i, _seed| {
                assert!(i != 4, "slot four exploded");
                i * 10
            });
            assert_eq!(out.len(), 10);
            for (i, slot) in out.iter().enumerate() {
                if i == 4 {
                    let p = slot.as_ref().unwrap_err();
                    assert_eq!(p.trial, 4);
                    assert_eq!(p.seed, SeedSequence::seed_for(9, 4));
                    assert!(p.message.contains("slot four exploded"), "{}", p.message);
                } else {
                    assert_eq!(*slot.as_ref().unwrap(), i * 10);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "trial 3 (seed")]
    fn uncaught_api_reports_failing_slot_after_finishing() {
        let done = AtomicUsize::new(0);
        let _ = run_trials_with_threads(8, 2, 4, |i, _| {
            done.fetch_add(1, Ordering::Relaxed);
            assert!(i != 3, "boom");
        });
    }

    #[test]
    fn all_other_slots_complete_despite_a_panic() {
        let done = AtomicUsize::new(0);
        let out = run_trials_caught(16, 13, 4, |i, _| {
            done.fetch_add(1, Ordering::Relaxed);
            assert!(i % 7 != 5, "boom at {i}");
            i
        });
        assert_eq!(done.load(Ordering::Relaxed), 16);
        assert_eq!(out.iter().filter(|r| r.is_err()).count(), 2);
        assert_eq!(out.iter().filter(|r| r.is_ok()).count(), 14);
    }

    #[test]
    fn panic_payload_stringification() {
        let out = run_trials_caught(1, 0, 1, |_, _| -> () {
            std::panic::panic_any(String::from("owned message"))
        });
        assert_eq!(out[0].as_ref().unwrap_err().message, "owned message");
        let out = run_trials_caught(1, 0, 1, |_, _| -> () { std::panic::panic_any(42i32) });
        assert_eq!(out[0].as_ref().unwrap_err().message, NON_STRING_PANIC);
    }
}
