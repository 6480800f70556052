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
/// otherwise the machine's available parallelism.
pub fn worker_threads() -> usize {
    thread_override().unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
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
    let workers = match thread_override() {
        Some(n) => n.min(len),
        None => worker_threads().min(len.div_ceil(min_chunk.max(1))),
    }
    .max(1);
    if workers <= 1 {
        return (0..len).map(f).collect();
    }
    let chunk = len.div_ceil(workers);
    let mut chunks: Vec<Vec<R>> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let f = &f;
                let lo = w * chunk;
                let hi = ((w + 1) * chunk).min(len);
                scope.spawn(move || (lo..hi).map(f).collect::<Vec<R>>())
            })
            .collect();
        for h in handles {
            chunks.push(h.join().expect("worker panicked"));
        }
    });
    let mut out = Vec::with_capacity(len);
    for c in chunks {
        out.extend(c);
    }
    out
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
}
