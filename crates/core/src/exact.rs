//! An exact, order-free sum of doubles, rounded once.
//!
//! Every finite double is an integer multiple of 2⁻¹⁰⁷⁴, and so is any
//! sum of them. [`sum`] keeps that integer in 32-bit limbs held in
//! `i128`s, a small superaccumulator (Neal, arXiv:1505.05571): a term
//! spreads its bits over three limbs, whose spare bits absorb 2⁹⁵ terms
//! before a carry. Positive terms within 12 binades of the first skip the
//! limbs: shifted into 64 bits and times their count, they add to two
//! `u128`s, low and high halves, that stay in registers. The integer is
//! rounded once, so the result is the correctly rounded sum in any order.

/// Two zero guards, then bit 32·(i − 2) of the integer at limb `i`, up to
/// the window's high half (bit 2034 + 128 + 63) and its carries.
const LIMBS: usize = 72;

/// Binades of the window: a mantissa shifted 11 places still fits 64 bits.
const WINDOW: u32 = 12;

/// The window's base before the first term: no exponent is within
/// `WINDOW` above it, however the subtraction wraps.
const NO_BASE: u32 = 1 << 31;

/// The correctly rounded sum of `count` copies of each `v`, ties to even;
/// an exact zero is +0. Non-finite inputs give their plain float sum, and
/// a finite sum past the largest double rounds to ±∞.
pub(crate) fn sum(terms: impl IntoIterator<Item = (f64, usize)>) -> f64 {
    let mut far = Far {
        limbs: [0; LIMBS],
        special: 0.0,
    };
    // the window: Σ mant · count · 2^(exp − base) in low and high halves,
    // which absorb 2⁶⁴ terms; base ≥ 1 keeps zeros and subnormals out,
    // and a sign bit puts a negative term 2¹¹ above
    let window = (0u128, 0u128, NO_BASE);
    let (low, high, base) = terms
        .into_iter()
        .fold(window, |(low, high, base), (v, count)| {
            let bits = v.to_bits();
            let shift = ((bits >> 52) as u32).wrapping_sub(base);
            if shift >= WINDOW {
                return (low, high, far.add(v, count, base));
            }
            let term = u128::from((bits & ((1 << 52) - 1) | 1 << 52) << shift) * count as u128;
            (low + u128::from(term as u64), high + (term >> 64), base)
        });
    if !far.special.is_finite() {
        return far.special;
    }
    if base != NO_BASE {
        // a window term's unit is the mantissa's last bit at `base`
        for (half, at) in [(low, base - 1), (high, base + 63)] {
            far.deposit(half as u64, at, 1);
            far.deposit((half >> 64) as u64, at + 64, 1);
        }
    }
    far.round()
}

/// The terms outside the window.
struct Far {
    limbs: [i128; LIMBS],
    /// Plain sum of the non-finite inputs (0 while there are none).
    special: f64,
}

impl Far {
    /// Add `count` copies of `v`, outside the window at `base`; returns
    /// the base, placed around the first nonzero finite term short of the
    /// non-finite exponent.
    #[cold]
    #[inline(never)]
    fn add(&mut self, v: f64, count: usize, base: u32) -> u32 {
        if !v.is_finite() {
            self.special += if count > 0 { v } else { 0.0 };
            return base;
        }
        let bits = v.to_bits();
        let exp = (bits >> 52) as u32 & 0x7ff;
        // |v| = mant · 2^(at − 1074)
        let (mant, at) = (
            bits & ((1 << 52) - 1) | u64::from(exp > 0) << 52,
            exp.max(1) - 1,
        );
        let product = u128::from(mant) * count as u128;
        let sign = if bits >> 63 == 1 { -1 } else { 1 };
        self.deposit(product as u64, at, sign);
        self.deposit((product >> 64) as u64, at + 64, sign);
        match base {
            NO_BASE if product > 0 => exp.saturating_sub(WINDOW / 2).clamp(1, 0x7ff - WINDOW),
            _ => base,
        }
    }

    /// Add `sign · x · 2^at` in units of 2⁻¹⁰⁷⁴.
    fn deposit(&mut self, x: u64, at: u32, sign: i128) {
        let y = u128::from(x) << (at % 32);
        let limbs = &mut self.limbs[at as usize / 32 + 2..][..3];
        for (l, piece) in limbs
            .iter_mut()
            .zip([y as u32, (y >> 32) as u32, (y >> 64) as u32])
        {
            *l += sign * i128::from(piece);
        }
    }

    /// Propagate carries: every limb but the top into `[0, 2³²)`.
    fn carry(&mut self) {
        for i in 0..LIMBS - 1 {
            let c = self.limbs[i] >> 32;
            self.limbs[i] -= c << 32;
            self.limbs[i + 1] += c;
        }
    }

    /// The limbs' integer rounded to the nearest double, ties to even.
    fn round(mut self) -> f64 {
        self.carry();
        let sign = if self.limbs[LIMBS - 1] < 0 { -1 } else { 1 };
        self.limbs.iter_mut().for_each(|l| *l *= sign);
        self.carry();
        // the top three limbs, any bit below them jammed into the last:
        // with bits below, they hold 64 or more, so `as f64` rounds once
        // at the right place; the scaling by 2^(32h − 1202) is exact, as a
        // result below 2⁻¹⁰²¹ is a whole number of 2⁻¹⁰⁷⁴ (the guards
        // make h ≥ 2)
        let h = self.limbs.iter().rposition(|&l| l != 0).unwrap_or(2);
        let sticky = self.limbs[..h - 2].iter().any(|&l| l != 0);
        let l = |i: usize| self.limbs[i] as u128;
        let top = l(h) << 64 | l(h - 1) << 32 | l(h - 2) | u128::from(sticky);
        let pow2 = |e: i32| f64::from_bits(((e + 1023) as u64) << 52);
        let scale = 32 * h as i32 - 1202;
        let magnitude = top as f64 * pow2(scale / 2) * pow2(scale - scale / 2);
        magnitude.copysign(sign as f64)
    }
}

#[cfg(test)]
#[path = "../tests/oracle/fsum.rs"]
mod fsum;

#[cfg(test)]
mod tests {
    use super::fsum::{exact_product, fsum};
    use super::sum;
    use proptest::prelude::*;

    fn exact(terms: &[(f64, usize)]) -> f64 {
        sum(terms.iter().copied())
    }

    /// The correctly rounded Σ v·count, from the test oracle.
    fn oracle(terms: &[(f64, usize)]) -> f64 {
        fsum(
            terms
                .iter()
                .flat_map(|&(v, count)| exact_product(v, count as f64)),
        )
    }

    fn ulp(x: f64) -> f64 {
        f64::from_bits(x.to_bits() + 1) - x
    }

    #[test]
    fn rounds_ties_to_even_and_honours_the_sticky_bit() {
        let u = 2f64.powi(-52);
        // 1 + half an ulp ties down to the even 1, 1 + u + half an ulp up
        assert_eq!(exact(&[(1.0, 1), (u / 2.0, 1)]), 1.0);
        assert_eq!(exact(&[(1.0 + u, 1), (u / 2.0, 1)]), 1.0 + 2.0 * u);
        // anything below the halfway bit breaks the tie upward
        assert_eq!(exact(&[(1.0, 1), (u / 2.0, 1), (1e-300, 1)]), 1.0 + u);
        // ... and downward when negative
        assert_eq!(exact(&[(1.0, 1), (u / 2.0, 1), (-1e-300, 1)]), 1.0);
        // a plain left-to-right loop loses the small terms here
        assert_eq!(exact(&[(1.0, 1), (u / 4.0, 3)]), 1.0 + u);
        assert_eq!(exact(&[(1e300, 1), (1.0, 1), (-1e300, 1)]), 1.0);
        assert_eq!(exact(&[(-0.1, 10)]), -1.0);
    }

    #[test]
    fn zero_subnormal_and_overflow_edges() {
        assert_eq!(sum([]).to_bits(), 0.0f64.to_bits());
        assert_eq!(exact(&[(-0.0, 3), (0.0, 1)]).to_bits(), 0.0f64.to_bits());
        assert_eq!(exact(&[(2.5, 4), (-10.0, 1)]).to_bits(), 0.0f64.to_bits());
        let tiny = f64::from_bits(1);
        assert_eq!(exact(&[(tiny, 3)]), f64::from_bits(3));
        // subnormals summing into the normal range
        assert_eq!(
            exact(&[(f64::from_bits((1 << 52) - 1), 1), (tiny, 1)]),
            f64::MIN_POSITIVE
        );
        assert_eq!(exact(&[(f64::MAX, 1), (-f64::MAX, 1)]), 0.0);
        assert_eq!(exact(&[(f64::MAX, 2), (-f64::MAX, 1)]), f64::MAX);
        assert_eq!(exact(&[(f64::MAX, 2)]), f64::INFINITY);
        // f64::MAX has an odd mantissa and an ulp of 2⁹⁷¹: half an ulp
        // more ties to the even 2¹⁰²⁴, which is out of range
        let half = 2f64.powi(970);
        assert_eq!(exact(&[(-f64::MAX, 1), (-half, 1)]), f64::NEG_INFINITY);
        assert_eq!(exact(&[(f64::MAX, 1), (half / 2.0, 1)]), f64::MAX);
    }

    #[test]
    fn non_finite_inputs_sum_like_floats() {
        let inf = f64::INFINITY;
        assert_eq!(exact(&[(1.0, 1), (inf, 3), (-1e300, 1)]), inf);
        assert_eq!(exact(&[(-inf, 1), (1.0, 7)]), -inf);
        assert!(exact(&[(inf, 1), (-inf, 1)]).is_nan());
        assert!(exact(&[(f64::NAN, 1), (2.0, 1)]).is_nan());
        // after a term near the top of the range, whose window reaches
        // up to the largest binade
        assert_eq!(exact(&[(f64::MAX, 1), (inf, 1)]), inf);
        assert!(exact(&[(-f64::MAX, 1), (f64::NAN, 2)]).is_nan());
        // a term repeated zero times is not added at all
        assert_eq!(exact(&[(f64::NAN, 0), (2.0, 1)]), 2.0);
    }

    /// A finite double drawn from one of the shapes that break naive sums.
    fn value() -> impl Strategy<Value = f64> {
        let sign = || prop_oneof![Just(1.0f64), Just(-1.0f64)];
        prop_oneof![
            // subnormal
            (1u64..1 << 52, sign()).prop_map(|(b, s)| s * f64::from_bits(b)),
            // a few ulps below the top of a binade
            (1u64..1900, 0u64..16, sign())
                .prop_map(|(e, k, s)| s * f64::from_bits(e << 52 | ((1 << 52) - 1 - k))),
            // any scale and mantissa
            (1u64..1900, 0u64..1 << 52, sign())
                .prop_map(|(e, m, s)| s * f64::from_bits(e << 52 | m)),
            // moderate magnitudes of mixed sign
            (-1.0f64..1.0, -60i32..60).prop_map(|(x, e)| x * 2f64.powi(e)),
            Just(0.0f64),
            Just(-0.0f64),
        ]
    }

    /// Terms whose sum lands exactly halfway between two doubles: `a`,
    /// an odd multiple of half its ulp, and sometimes a far smaller term
    /// that breaks the tie.
    fn tie() -> impl Strategy<Value = Vec<(f64, usize)>> {
        (1u64..1800, 0u64..1 << 52, 0usize..6, 0usize..3).prop_map(|(e, m, k, nudge)| {
            let a = f64::from_bits(e << 52 | m);
            let half = ulp(a) / 2.0;
            let mut terms = vec![(a, 1), (half * (2 * k + 1) as f64, 1)];
            match nudge {
                0 => terms.push((half * 2f64.powi(-60), 1)),
                1 => terms.push((-half * 2f64.powi(-60), 1)),
                _ => {}
            }
            terms
        })
    }

    fn count() -> impl Strategy<Value = usize> {
        prop_oneof![Just(1usize), 0usize..100, 1usize..1 << 20, 1usize..=1 << 40]
    }

    fn terms() -> impl Strategy<Value = Vec<(f64, usize)>> {
        proptest::collection::vec(
            prop_oneof![(value(), count()).prop_map(|t| vec![t]), tie(),],
            0..24,
        )
        .prop_map(|chunks| chunks.concat())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        #[test]
        fn matches_the_correctly_rounded_oracle(terms in terms(), seed in any::<u64>()) {
            let want = oracle(&terms);
            let got = exact(&terms);
            prop_assert_eq!(got.to_bits(), want.to_bits(), "{:e} vs {:e}", got, want);
            // any order of the same terms, and repeated terms split into
            // single adds, give the same bits
            let mut shuffled = terms.clone();
            let mut state = seed;
            for i in (1..shuffled.len()).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                shuffled.swap(i, (state >> 33) as usize % (i + 1));
            }
            prop_assert_eq!(exact(&shuffled).to_bits(), want.to_bits());
            let split = shuffled.iter().flat_map(|&(v, count)| match count {
                0..=8 => vec![(v, 1); count],
                _ => vec![(v, count - 8), (v, 8)],
            });
            prop_assert_eq!(sum(split).to_bits(), want.to_bits());
        }
    }
}
