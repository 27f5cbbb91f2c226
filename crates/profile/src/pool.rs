//! The bounded worker pool the profiler and the snapshot decoder share.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Runs `count` independent jobs through a bounded worker pool capped at
/// `available_parallelism()` and returns the results in job order.
///
/// Workers claim job indices from a shared counter, so a long job never
/// holds up the short ones behind it; the caller sees results by index,
/// never by completion order.  A slot is `None` only if the worker that
/// claimed it died without storing a result (job bodies that can panic
/// should wrap themselves in `catch_unwind` and return the error as a value
/// instead).  With one core — or one job — the jobs run inline on the
/// caller's thread, no spawn at all.
///
/// ```
/// let squares = lfi_profile::run_pooled(4, |index| index * index);
/// assert_eq!(squares, vec![Some(0), Some(1), Some(4), Some(9)]);
/// ```
pub fn run_pooled<T, F>(count: usize, run: F) -> Vec<Option<T>>
where
    T: Send + Sync,
    F: Fn(usize) -> T + Sync,
{
    let slots: Vec<OnceLock<T>> = (0..count).map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    let drain = || loop {
        let index = next.fetch_add(1, Ordering::Relaxed);
        if index >= count {
            break;
        }
        let _ = slots[index].set(run(index));
    };
    let workers = std::thread::available_parallelism().map_or(1, usize::from).min(count);
    if workers <= 1 {
        drain();
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(drain)).collect();
            // An escaped panic kills one worker; the others keep draining and
            // the dead worker's claimed slot surfaces as `None`.
            for handle in handles {
                let _ = handle.join();
            }
        });
    }
    slots.into_iter().map(OnceLock::into_inner).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_job_order() {
        let results = run_pooled(64, |index| index * 3);
        assert_eq!(results, (0..64).map(|index| Some(index * 3)).collect::<Vec<_>>());
        assert!(run_pooled(0, |index| index).is_empty());
    }

    #[test]
    fn an_escaped_panic_costs_only_the_job_it_escaped_from() {
        // With one core the jobs run inline and the panic unwinds to the caller.
        if std::thread::available_parallelism().map_or(1, usize::from) == 1 {
            return;
        }
        let results = run_pooled(16, |index| {
            assert_ne!(index, 3, "job 3 fails");
            index
        });
        let expected: Vec<_> = (0..16).map(|index| (index != 3).then_some(index)).collect();
        assert_eq!(results, expected);
    }
}
