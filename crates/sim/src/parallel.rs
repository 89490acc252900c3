//! Ordered parallel sweeps over experiment grids.
//!
//! Experiment grids (benchmark × situation × strategy × run) are
//! embarrassingly parallel: every cell builds its own VM, heap and
//! machine. [`sweep_ordered`] runs the cells on crossbeam scoped
//! threads and drains each result in input order as soon as it and
//! every earlier one are done; [`sweep`] collects them. Figure rows,
//! traces and checkpoints therefore stay deterministic regardless of
//! scheduling.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Map `f` over `items` in parallel, preserving order.
///
/// `f` must be `Sync` (it is shared across workers); items are taken
/// by reference. Uses up to `threads` workers (clamped to the number
/// of items; 0 means "number of CPUs").
pub fn sweep<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let mut out = Vec::with_capacity(items.len());
    sweep_ordered(items, threads, &mut out, |item, _| f(item), Vec::push);
    out
}

/// Run `f` over `items` on up to `threads` workers (as in [`sweep`])
/// and hand each result to `drain`, with `state`, in input order: a
/// result drains as soon as it and every earlier one are done.
///
/// `f` gets the state when every earlier item has drained as it
/// starts. No drain can happen until that item is done, so `f` has
/// the state to itself for its whole run; every other item runs
/// without it. On one worker every item gets the state.
pub fn sweep_ordered<T, R, S, F, D>(items: &[T], threads: usize, state: &mut S, f: F, drain: D)
where
    T: Sync,
    R: Send,
    S: Send,
    F: Fn(&T, Option<&mut S>) -> R + Sync,
    D: Fn(&mut S, R) + Sync,
{
    let threads = effective_threads(threads, items.len());
    if threads <= 1 {
        for item in items {
            let r = f(item, Some(&mut *state));
            drain(state, r);
        }
        return;
    }

    let next = AtomicUsize::new(0);
    let state = Mutex::new(state);
    // How many results have drained, and the done ones waiting behind
    // an unfinished earlier item.
    let done: Mutex<(usize, Vec<Option<R>>)> =
        Mutex::new((0, (0..items.len()).map(|_| None).collect()));

    crossbeam::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|_| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let head = done.lock().expect("drain lock").0 == i;
                let r = if head {
                    f(&items[i], Some(&mut **state.lock().expect("state lock")))
                } else {
                    f(&items[i], None)
                };
                let mut done = done.lock().expect("drain lock");
                done.1[i] = Some(r);
                loop {
                    let cursor = done.0;
                    let Some(r) = done.1.get_mut(cursor).and_then(Option::take) else {
                        break;
                    };
                    drain(&mut state.lock().expect("state lock"), r);
                    done.0 += 1;
                }
            });
        }
    })
    .expect("worker panicked");
}

fn effective_threads(requested: usize, items: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let t = if requested == 0 { hw } else { requested };
    t.min(items).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = sweep(&items, 8, |&x| x * x);
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn single_thread_fallback() {
        let items = vec![1, 2, 3];
        let out = sweep(&items, 1, |&x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_input() {
        let items: Vec<u8> = vec![];
        let out: Vec<u8> = sweep(&items, 4, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn zero_threads_means_auto() {
        let items: Vec<u32> = (0..32).collect();
        let out = sweep(&items, 0, |&x| x.wrapping_mul(3));
        assert_eq!(out.len(), 32);
        assert_eq!(out[5], 15);
    }

    #[test]
    fn heavy_closure_runs_concurrently_and_correctly() {
        // Not a timing test — just exercises contention on the index.
        let items: Vec<u64> = (0..200).collect();
        let out = sweep(&items, 16, |&x| {
            let mut acc = 0u64;
            for i in 0..1000 {
                acc = acc.wrapping_add(x * i);
            }
            acc
        });
        for (i, &x) in items.iter().enumerate() {
            let mut acc = 0u64;
            for k in 0..1000 {
                acc = acc.wrapping_add(x * k);
            }
            assert_eq!(out[i], acc);
        }
    }

    #[test]
    fn the_head_has_the_state_and_drains_stay_in_order() {
        // A head appends its own index into the state, every other item
        // is appended by its drain: either way the state ends up in
        // input order, and a head finds every earlier item there. Items
        // 0 and 1 meet at a barrier on several workers, so item 1 starts
        // before item 0 drains and must run without the state.
        let items: Vec<usize> = (0..64).collect();
        for threads in [1, 2, 3] {
            let met = Barrier::new(2);
            let mut log = Vec::new();
            sweep_ordered(
                &items,
                threads,
                &mut log,
                |&i, head| {
                    if threads > 1 && i < 2 {
                        met.wait();
                        assert_eq!(head.is_some(), i == 0);
                    }
                    head.map(|log: &mut Vec<usize>| {
                        assert_eq!(log.len(), i, "a head starts after every earlier drain");
                        log.push(i);
                    })
                },
                |log, streamed| {
                    if streamed.is_none() {
                        log.push(log.len());
                    }
                },
            );
            assert_eq!(log, items, "{threads} workers");
        }
    }
}
