//! # gmf-par
//!
//! A minimal, deterministic fork-join parallel map for the workspace's
//! coarse independent work units: the admission controller's shard
//! preload and sweep points.
//!
//! The build environment has no registry access, so rayon (with its global
//! thread pool, work stealing and nondeterministic reduction order) is not
//! available.  This crate provides the one primitive those callers need:
//! apply a function to every element of a slice, possibly on several OS
//! threads, and return the results **in input order** — bit-for-bit
//! identical to the sequential loop at any thread count.
//!
//! Design constraints:
//!
//! * **Determinism.** Each item's result is dealt back to its own input
//!   position, so the output order never depends on scheduling.  The
//!   function is applied exactly once per item with no shared mutable
//!   state.
//! * **No persistent pool.** [`std::thread::scope`] forks and joins within
//!   the call, at a few tens of microseconds per fork.  That only pays for
//!   units that each take far longer — a whole shard or sweep point,
//!   never one round of one analysis — and no state leaks between calls.
//! * **Strided dealing.** Items are ranked (input order for
//!   [`par_map_interleaved`], heaviest first for [`par_map_weighted`]) and
//!   worker `w` of `T` takes ranks `w, w+T, w+2T, …`.  Expensive items
//!   spread `1/T` apiece within one item's cost, and the assignment is a
//!   pure function of the inputs, so per-thread behaviour is reproducible
//!   under profiling.
//!
//! Panics in the mapped function propagate: if any worker panics, the join
//! re-raises the panic on the caller's thread.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

use std::num::NonZeroUsize;

/// Number of worker threads to use for a parallel map.
///
/// `Threads(1)` (the default) means "run inline on the caller's thread" —
/// no threads are spawned at all, so single-threaded callers pay nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Threads(pub NonZeroUsize);

impl Threads {
    /// Exactly one thread: the sequential path.
    pub const ONE: Threads = Threads(NonZeroUsize::MIN);

    /// Build from a plain count, treating `0` as 1.
    pub fn new(n: usize) -> Threads {
        // tidy-allow: unwrap invariant: max(1) is non-zero
        Threads(NonZeroUsize::new(n.max(1)).expect("max(1) is non-zero"))
    }

    /// The worker count as a plain `usize` (always ≥ 1).
    pub fn get(self) -> usize {
        self.0.get()
    }
}

impl Default for Threads {
    fn default() -> Self {
        Threads::ONE
    }
}

/// Derive a well-spread 64-bit stream seed from a master `seed` and a
/// stream `index` (splitmix64 of their combination).
///
/// Deterministic parallel sweeps give every work item its own RNG stream so
/// the result depends only on `(seed, index)` and never on the thread
/// count or evaluation order.  Nearby indices (0, 1, 2, …) and nearby
/// master seeds produce statistically unrelated outputs, so the streams
/// can be fed straight into a cheap seedable generator.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Apply `f` to every element of `items`, using up to `threads` worker
/// threads, and return the results in input order.
///
/// The output is identical to
/// `items.iter().enumerate().map(|(i, x)| f(i, x)).collect()` at any thread
/// count; `f` receives the item's index so callers can key per-item state
/// (e.g. a point's RNG stream) off it.  Worker `w` of `T` takes items
/// `w, w+T, w+2T, …`, so costs that trend along the input order still
/// spread evenly.
///
/// With `threads == 1`, or when `items` has at most one element, everything
/// runs inline on the caller's thread.
pub fn par_map_interleaved<T, R, F>(threads: Threads, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = threads.get().min(items.len());
    fork_join(workers, items, |rank| rank, f)
}

/// [`par_map_interleaved`] with a *weighted* longest-processing-time work
/// assignment: items are ranked in descending `weight` order (ties broken
/// by input index) and each lands on the stride of its rank — the classic
/// LPT round-robin that keeps a few heavy items from serialising a batch.
///
/// The output is still exactly
/// `items.iter().enumerate().map(|(i, x)| f(i, x)).collect()` at any thread
/// count: the assignment depends only on the weights and indices, never on
/// scheduling, and each result is dealt back to its item's input position.
/// Prefer this variant when per-item costs are *known in advance and
/// heavy-tailed* — the admission controller's shard preload, whose
/// per-shard verification costs scale with shard flow counts spanning
/// orders of magnitude, is the motivating case.
pub fn par_map_weighted<T, R, F, W>(threads: Threads, items: &[T], weight: W, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
    W: Fn(&T) -> u64,
{
    let workers = threads.get().min(items.len());
    let mut order: Vec<usize> = Vec::new();
    if workers > 1 {
        order.extend(0..items.len());
        order.sort_by_key(|&i| (std::cmp::Reverse(weight(&items[i])), i));
    }
    fork_join(workers, items, |rank| order[rank], f)
}

/// The one fork-join body: rank `r` is the item at input index
/// `position(r)`, worker `w` of `workers` takes ranks `w, w+workers, …`,
/// and each result is dealt back to its item's input position.
///
/// With at most one worker `position` is never called and the items run
/// inline in input order.  Otherwise the caller's thread takes the last
/// stride instead of idling in join, so `workers` threads means
/// `workers - 1` spawns.
fn fork_join<T, R, F, P>(workers: usize, items: &[T], position: P, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
    P: Fn(usize) -> usize + Sync,
{
    let n = items.len();
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }

    let stride = |w: usize| -> Vec<R> {
        (w..n)
            .step_by(workers)
            .map(|rank| {
                let index = position(rank);
                f(index, &items[index])
            })
            .collect()
    };
    let mut strides: Vec<Vec<R>> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let stride = &stride;
        let handles: Vec<_> = (0..workers - 1)
            .map(|w| scope.spawn(move || stride(w)))
            .collect();
        let last = stride(workers - 1);
        // Propagate the first worker panic, if any, on the caller's thread.
        for handle in handles {
            match handle.join() {
                Ok(results) => strides.push(results),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        strides.push(last);
    });

    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    for (w, results) in strides.into_iter().enumerate() {
        for (k, result) in results.into_iter().enumerate() {
            slots[position(w + k * workers)] = Some(result);
        }
    }
    slots
        .into_iter()
        // tidy-allow: unwrap invariant: every slot is filled by exactly one stride
        .map(|slot| slot.expect("every slot is filled by exactly one stride"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_constructors() {
        assert_eq!(Threads::default(), Threads::ONE);
        assert_eq!(Threads::new(0).get(), 1);
        assert_eq!(Threads::new(4).get(), 4);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<i32> = Vec::new();
        let out = par_map_interleaved(Threads::new(8), &empty, |_, x: &i32| *x * 2);
        assert!(out.is_empty());
        let out = par_map_interleaved(Threads::new(8), &[21], |_, x| *x * 2);
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn results_are_in_input_order_at_any_thread_count() {
        let items: Vec<usize> = (0..103).collect();
        let expected: Vec<usize> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 4, 8, 16, 200] {
            let out = par_map_interleaved(Threads::new(threads), &items, |_, x| x * x);
            assert_eq!(out, expected, "threads = {threads}");
        }
    }

    #[test]
    fn index_argument_matches_position() {
        let items = vec!["a", "b", "c", "d", "e"];
        let out = par_map_interleaved(Threads::new(3), &items, |i, s| format!("{i}:{s}"));
        assert_eq!(out, vec!["0:a", "1:b", "2:c", "3:d", "4:e"]);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let items = vec![1, 2, 3];
        let out = par_map_interleaved(Threads::new(64), &items, |_, x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn interleaved_map_matches_sequential_at_any_thread_count() {
        let items: Vec<usize> = (0..103).collect();
        let expected: Vec<String> = items.iter().map(|x| format!("{x}:{}", x * x)).collect();
        for threads in [1, 2, 3, 4, 8, 16, 200] {
            let out = par_map_interleaved(Threads::new(threads), &items, |i, x| {
                format!("{i}:{}", x * x)
            });
            assert_eq!(out, expected, "threads = {threads}");
        }
        let empty: Vec<i32> = Vec::new();
        assert!(par_map_interleaved(Threads::new(8), &empty, |_, x: &i32| *x).is_empty());
        assert_eq!(
            par_map_interleaved(Threads::new(8), &[21], |_, x| *x * 2),
            vec![42]
        );
    }

    #[test]
    fn weighted_map_matches_sequential_at_any_thread_count() {
        // Heavy-tailed weights: item i costs i², so the tail dominates.
        let items: Vec<u64> = (0..103).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [1, 2, 3, 4, 8, 16, 200] {
            let out = par_map_weighted(Threads::new(threads), &items, |x| x * x, |_, x| x * x + 1);
            assert_eq!(out, expected, "threads = {threads}");
        }
        // Constant weights degrade to a plain strided map; empty and
        // singleton inputs run inline.
        let out = par_map_weighted(Threads::new(4), &items, |_| 1, |i, _| i);
        assert_eq!(out, (0..103).collect::<Vec<usize>>());
        let empty: Vec<i32> = Vec::new();
        assert!(par_map_weighted(Threads::new(8), &empty, |_| 0, |_, x: &i32| *x).is_empty());
        assert_eq!(
            par_map_weighted(Threads::new(8), &[21], |_| 0, |_, x| *x * 2),
            vec![42]
        );
    }

    #[test]
    fn weighted_map_panic_propagates() {
        let items: Vec<i32> = (0..8).collect();
        let result = std::panic::catch_unwind(|| {
            par_map_weighted(
                Threads::new(4),
                &items,
                |&x| x as u64, // tidy-allow: cast test weight, not a bound
                |_, &x| {
                    if x == 5 {
                        panic!("boom");
                    }
                    x
                },
            )
        });
        assert!(result.is_err());
    }

    #[test]
    fn fallible_results_keep_order() {
        let items: Vec<i32> = (0..20).collect();
        let out: Vec<Result<i32, String>> =
            par_map_interleaved(Threads::new(4), &items, |_, &x| {
                if x % 7 == 3 {
                    Err(format!("bad {x}"))
                } else {
                    Ok(x)
                }
            });
        assert_eq!(out.len(), 20);
        assert_eq!(out[3], Err("bad 3".to_string()));
        assert_eq!(out[10], Err("bad 10".to_string()));
        assert_eq!(out[4], Ok(4));
    }

    #[test]
    fn derive_seed_is_deterministic_and_spread() {
        // Same inputs, same output.
        assert_eq!(derive_seed(42, 0), derive_seed(42, 0));
        // Distinct indices and distinct master seeds give distinct streams;
        // check a block exhaustively.
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..8u64 {
            for index in 0..64u64 {
                seen.insert(derive_seed(seed, index));
            }
        }
        assert_eq!(seen.len(), 8 * 64, "no collisions in a small block");
        // Consecutive indices differ in many bits (avalanche), not just one.
        let a = derive_seed(7, 0);
        let b = derive_seed(7, 1);
        assert!((a ^ b).count_ones() > 10, "{a:#x} vs {b:#x}");
    }

    #[test]
    fn derive_seed_matches_the_splitmix64_reference() {
        // Reference value computed with the canonical splitmix64 sequence:
        // state = seed + (index+1)·golden-gamma, then one finalizer pass.
        // Pinning it here keeps historic sweep outputs reproducible.
        let mut z = 3u64.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(5));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        assert_eq!(derive_seed(3, 4), z);
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<i32> = (0..8).collect();
        let result = std::panic::catch_unwind(|| {
            par_map_interleaved(Threads::new(4), &items, |_, &x| {
                if x == 5 {
                    panic!("boom");
                }
                x
            })
        });
        assert!(result.is_err());
    }
}
