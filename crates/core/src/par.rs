//! Deterministic data-parallel helpers over scoped OS threads.
//!
//! The vendored dependency set has no `rayon`, so candidate evaluation
//! parallelizes with `std::thread::scope`: the input is split into one
//! contiguous chunk per worker, each worker maps its chunk in order, and
//! the per-chunk outputs are concatenated back in input order. Because
//! every output lands at the position of its input — regardless of thread
//! scheduling — callers observe exactly the serial result, which is what
//! lets `select_best` keep its winner byte-for-byte identical to the
//! serial path.

/// `NLRM_THREADS` when set and parseable (≥ 1).
fn thread_override() -> Option<usize> {
    let v = std::env::var("NLRM_THREADS").ok()?;
    v.trim().parse::<usize>().ok().map(|n| n.max(1))
}

/// Number of worker threads to use: `NLRM_THREADS` when set (≥ 1),
/// otherwise the machine's available parallelism. The variable is read on
/// every call; the machine's count once per process, since asking for it
/// reads cgroup files on Linux.
pub fn worker_threads() -> usize {
    static MACHINE: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    thread_override().unwrap_or_else(|| {
        *MACHINE.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// Default minimum items per worker before parallelism pays for thread
/// spawn.
pub const MIN_CHUNK: usize = 256;

/// Map `f` over `0..len` deterministically, possibly in parallel, with at
/// least `min_chunk` items per worker (callers whose items are coarse —
/// a whole switch of starts — pass less than [`MIN_CHUNK`]).
///
/// `f(i)` must be pure with respect to ordering: the output vector holds
/// `f(0), f(1), …, f(len-1)` exactly as the serial loop would produce.
///
/// An explicit `NLRM_THREADS` bypasses the minimum-chunk heuristic, so
/// small inputs can still exercise (and tests can pin) the threaded path.
pub fn par_map_indexed<R, F>(len: usize, min_chunk: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    par_map_with(len, min_chunk, || (), |_, i| f(i))
}

/// [`par_map_indexed`] with per-worker state: each worker makes one `S`
/// with `init` and lends it to `f` for every item of its chunk, so
/// scratch buffers are reused across items instead of reallocated.
pub fn par_map_with<S, R, I, F>(len: usize, min_chunk: usize, init: I, f: F) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    let workers = match thread_override() {
        Some(n) => n.min(len),
        None => worker_threads().min(len.div_ceil(min_chunk.max(1))),
    }
    .max(1);
    if workers <= 1 {
        let mut state = init();
        return (0..len).map(|i| f(&mut state, i)).collect();
    }
    let chunk = len.div_ceil(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (f, init) = (&f, &init);
                let range = w * chunk..((w + 1) * chunk).min(len);
                scope.spawn(move || {
                    let mut state = init();
                    range.map(|i| f(&mut state, i)).collect::<Vec<R>>()
                })
            })
            .collect();
        // joined in spawn order, so outputs keep input order
        (handles.into_iter())
            .flat_map(|h| h.join().expect("worker panicked"))
            .collect()
    })
}

/// Map `f` over a slice deterministically, possibly in parallel.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indexed(items.len(), MIN_CHUNK, |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_order_matches_serial() {
        let items: Vec<u64> = (0..10_000).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * x).collect();
        let parallel = par_map(&items, |&x| x * x);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_small_inputs() {
        assert!(par_map_indexed(0, MIN_CHUNK, |i| i).is_empty());
        assert_eq!(par_map_indexed(3, 1, |i| i * 2), vec![0, 2, 4]);
    }

    #[test]
    fn thread_env_override_respected() {
        // worker_threads is a positive number regardless of env
        assert!(worker_threads() >= 1);
    }

    #[test]
    fn thread_env_change_after_first_call_takes_effect() {
        // the machine's count is cached; the variable must not be
        let before = std::env::var("NLRM_THREADS").ok();
        std::env::remove_var("NLRM_THREADS");
        let machine = worker_threads();
        std::env::set_var("NLRM_THREADS", "3");
        assert_eq!(worker_threads(), 3);
        std::env::set_var("NLRM_THREADS", "5");
        assert_eq!(worker_threads(), 5);
        std::env::remove_var("NLRM_THREADS");
        assert_eq!(worker_threads(), machine);
        if let Some(v) = before {
            std::env::set_var("NLRM_THREADS", v);
        }
    }

    #[test]
    fn per_worker_state_is_reused_within_a_chunk() {
        // each worker counts the items it has seen; the output keeps order
        let out = par_map_with(
            10,
            1,
            || 0usize,
            |seen, i| {
                *seen += 1;
                (i, *seen)
            },
        );
        assert_eq!(
            out.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
            (0..10).collect::<Vec<_>>()
        );
        assert!(out.iter().any(|&(_, seen)| seen > 1));
    }
}
