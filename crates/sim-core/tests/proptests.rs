//! Property-based tests for the simulation core.

use nlrm_sim_core::event::EventQueue;
use nlrm_sim_core::process::{BoundedWalk, OrnsteinUhlenbeck, PoissonSpikes, Process};
use nlrm_sim_core::rng::RngFactory;
use nlrm_sim_core::stats::{median, percentile, OnlineStats, Summary};
use nlrm_sim_core::time::{Duration, SimTime};
use nlrm_sim_core::window::WindowRing;
use oracle::WindowedMean;
use proptest::prelude::*;

mod oracle;

/// Push `samples` (time in µs, non-decreasing) into a ring of `W` windows
/// over two attributes and into one oracle per window and attribute, and
/// check after every push that the ring's means equal the oracles' bit
/// for bit, and that it holds exactly the longest window's samples.
fn check_against_oracle<const W: usize>(
    spans: [Duration; W],
    samples: impl IntoIterator<Item = (u64, [f64; 2])>,
) -> Result<(), String> {
    let mut ring = WindowRing::<2, W>::new(spans);
    let mut oracle: Vec<[WindowedMean; 2]> = spans
        .iter()
        .map(|&span| [WindowedMean::new(span), WindowedMean::new(span)])
        .collect();
    for (t, x) in samples {
        let t = SimTime::from_micros(t);
        let pushed = ring.push(t, x);
        prop_assert_eq!(Some(pushed), ring.means());
        for (w, attrs) in oracle.iter_mut().enumerate() {
            for (a, o) in attrs.iter_mut().enumerate() {
                o.push(t, x[a]);
                let want = o.mean().expect("just pushed");
                prop_assert_eq!(
                    pushed[a][w].to_bits(),
                    want.to_bits(),
                    "window {} attribute {} at {:?}",
                    w,
                    a,
                    t
                );
            }
        }
        let longest = oracle.iter().map(|attrs| attrs[0].len()).max();
        prop_assert_eq!(Some(ring.len()), longest);
    }
    Ok(())
}

/// A window that retains ≥1024 samples (1 s cadence, 30-minute window)
/// re-accumulates its sum whenever it holds a power of two ≥1024 of them;
/// the ring must do that on the same pushes as the oracle. A 1,000 s gap
/// in the cadence makes the window pass 1024 held samples again only after
/// it has subtracted evicted ones, where the re-accumulated sum differs
/// from the running one in its last bits.
#[test]
fn ring_reaccumulates_like_the_oracle_past_1024_samples() {
    let spans = [Duration::from_mins(1), Duration::from_mins(30)];
    let secs = (0..1_500u64).chain(2_500..5_000);
    let samples = secs.map(|s| {
        let v = (s as f64 * 0.37).sin() * 1e3 + 0.1;
        (s * 1_000_000, [v, 1.0 / (s as f64 + 3.0)])
    });
    check_against_oracle(spans, samples).unwrap();
}

/// Step `fast` and `slow` through `dts`, each on its own copy of one
/// seeded RNG stream, and check after every step that their values agree
/// bit for bit.
fn check_trajectory(
    seed: u64,
    dts: &[f64],
    mut fast: impl FnMut(f64, &mut dyn rand::RngCore) -> f64,
    mut slow: impl FnMut(f64, &mut dyn rand::RngCore) -> f64,
) -> Result<(), String> {
    let mut fast_rng = RngFactory::new(seed).named("process-oracle");
    let mut slow_rng = RngFactory::new(seed).named("process-oracle");
    for (i, &dt) in dts.iter().enumerate() {
        let (got, want) = (fast(dt, &mut fast_rng), slow(dt, &mut slow_rng));
        prop_assert_eq!(got.to_bits(), want.to_bits(), "step {} (dt {})", i, dt);
    }
    Ok(())
}

proptest! {
    /// The memoized process steps follow the unmemoized oracle's
    /// trajectories bit for bit. The `dt`s are drawn from a small pool, so
    /// they repeat (memo hits) and change (memo misses, `0` included); the
    /// spike trains' arrivals leave odd remainders inside a step, and a
    /// zero arrival rate takes the pure-decay path (its decay from a
    /// nonzero value is checked in the `process` unit tests, as only they
    /// can set a train's value).
    #[test]
    fn memoized_processes_match_the_unmemoized_oracle(
        seed in any::<u64>(),
        pool in proptest::collection::vec(
            prop_oneof![Just(5.0f64), Just(0.0f64), 1e-3f64..60.0],
            1..4,
        ),
        picks in proptest::collection::vec(0usize..4, 1..150),
        ou in (-5.0f64..5.0, 1e-3f64..1.0, 0.0f64..2.0, prop_oneof![Just(0.0f64), Just(f64::NEG_INFINITY)]),
        spikes in (prop_oneof![Just(0.0f64), 1e-3f64..2.0], 0.0f64..3.0, 1e-3f64..1.0),
        walk in (0.0f64..0.5, 0.5f64..1.0, 0.0f64..0.3, 0.0f64..1.0),
    ) {
        let dts: Vec<f64> = picks.iter().map(|&k| pool[k % pool.len()]).collect();

        let (mean, rate, sigma, floor) = ou;
        let mut fast = OrnsteinUhlenbeck::new(mean, rate, sigma, floor);
        let mut slow = oracle::process::Ou::new(mean, rate, sigma, floor);
        check_trajectory(seed, &dts, |dt, r| fast.step(dt, r), |dt, r| slow.step(dt, r))?;

        let (arrival, amp, decay) = spikes;
        let mut fast = PoissonSpikes::new(arrival, amp, decay);
        let mut slow = oracle::process::Spikes::new(arrival, amp, decay);
        check_trajectory(seed, &dts, |dt, r| fast.step(dt, r), |dt, r| slow.step(dt, r))?;

        let (lo, hi, sigma, start) = walk;
        let mut fast = BoundedWalk::new(lo, hi, sigma, start);
        let mut slow = oracle::process::Walk::new(lo, hi, sigma, start);
        check_trajectory(seed, &dts, |dt, r| fast.step(dt, r), |dt, r| slow.step(dt, r))?;
    }

    /// The event queue is a stable priority queue: output sorted by time,
    /// FIFO within equal timestamps.
    #[test]
    fn event_queue_is_stable_sorted(times in proptest::collection::vec(0u64..100, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_secs(t), i);
        }
        let mut expected: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        expected.sort(); // sorts by time then insertion index
        let popped: Vec<(u64, usize)> = std::iter::from_fn(|| q.pop())
            .map(|(t, i)| (t.as_micros() / 1_000_000, i))
            .collect();
        prop_assert_eq!(popped, expected);
    }

    /// The ring's means equal the per-window `VecDeque` oracle's, bit for
    /// bit, over irregular non-decreasing times (repeats included).
    #[test]
    fn window_ring_matches_oracle_bit_for_bit(
        steps in proptest::collection::vec(
            (0u64..30_000_000, -100.0f64..100.0, -1e6f64..1e6),
            1..300,
        ),
        spans in (1u64..600, 1u64..600, 1u64..600),
    ) {
        let mut t = 0u64;
        let samples = steps.iter().map(|&(gap, a, b)| {
            // a third of the gaps are zero, so equal times arrive together,
            // and half are whole seconds, so samples land exactly on a
            // (whole-second) window boundary
            t += match gap % 6 {
                0 | 3 => 0,
                1 | 4 => gap / 1_000_000 * 1_000_000,
                _ => gap,
            };
            (t, [a, b])
        });
        let spans = [spans.0, spans.1, spans.2].map(Duration::from_secs);
        check_against_oracle(spans, samples)?;
    }

    /// Summary invariants: min ≤ median ≤ max, min ≤ mean ≤ max, std ≥ 0.
    #[test]
    fn summary_invariants(data in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let s = Summary::of(&data).unwrap();
        prop_assert!(s.min <= s.median + 1e-9);
        prop_assert!(s.median <= s.max + 1e-9);
        prop_assert!(s.min <= s.mean + 1e-9 && s.mean <= s.max + 1e-9);
        prop_assert!(s.std_dev >= 0.0);
        prop_assert_eq!(s.n, data.len());
    }

    /// OnlineStats agrees with Summary.
    #[test]
    fn online_matches_batch(data in proptest::collection::vec(-1e3f64..1e3, 1..100)) {
        let mut o = OnlineStats::new();
        for &x in &data {
            o.push(x);
        }
        let s = Summary::of(&data).unwrap();
        prop_assert!((o.mean() - s.mean).abs() < 1e-9);
        prop_assert!((o.std_dev() - s.std_dev).abs() < 1e-6);
        prop_assert_eq!(o.min(), s.min);
        prop_assert_eq!(o.max(), s.max);
    }

    /// Percentiles are monotone in p and bracket the data.
    #[test]
    fn percentiles_monotone(
        data in proptest::collection::vec(-1e3f64..1e3, 1..100),
        p1 in 0.0f64..=100.0,
        p2 in 0.0f64..=100.0,
    ) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let a = percentile(&data, lo);
        let b = percentile(&data, hi);
        prop_assert!(a <= b + 1e-9);
        // p50 equals the median up to floating-point association order
        prop_assert!((percentile(&data, 50.0) - median(&data)).abs() < 1e-9);
    }

    /// Time arithmetic: (t + d) − t == d and ordering is consistent.
    #[test]
    fn time_arithmetic(t in 0u64..u32::MAX as u64, d in 0u64..u32::MAX as u64) {
        let t0 = SimTime::from_micros(t);
        let dd = Duration::from_micros(d);
        prop_assert_eq!((t0 + dd) - t0, dd);
        prop_assert!(t0 + dd >= t0);
    }
}
