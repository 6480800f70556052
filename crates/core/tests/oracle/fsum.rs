//! Reference correctly rounded sum the exact accumulator must match bit
//! for bit: Shewchuk's non-overlapping partials with the final
//! half-even correction, as Python's `math.fsum` computes it. Finite
//! inputs only, whose partial sums stay finite. An exact zero sum is +0.

/// `v · c` as two doubles whose sum is exact (`mul_add` keeps the
/// product's rounding error), for a `c` that is an integer below 2⁵³.
pub fn exact_product(v: f64, c: f64) -> [f64; 2] {
    let p = v * c;
    [p, v.mul_add(c, -p)]
}

/// The correctly rounded sum of `values`, ties to even.
pub fn fsum(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut partials: Vec<f64> = Vec::new();
    for mut x in values {
        let mut kept = 0;
        for i in 0..partials.len() {
            let mut y = partials[i];
            if x.abs() < y.abs() {
                std::mem::swap(&mut x, &mut y);
            }
            let hi = x + y;
            let lo = y - (hi - x);
            if lo != 0.0 {
                partials[kept] = lo;
                kept += 1;
            }
            x = hi;
        }
        partials.truncate(kept);
        partials.push(x);
    }
    let Some(mut hi) = partials.pop() else {
        return 0.0;
    };
    let mut lo = 0.0;
    while let Some(y) = partials.pop() {
        let x = hi;
        hi = x + y;
        lo = y - (hi - x);
        if lo != 0.0 {
            break;
        }
    }
    // the rounding of hi + lo was a tie that the next partial breaks
    if let Some(&next) = partials.last() {
        if (lo < 0.0 && next < 0.0) || (lo > 0.0 && next > 0.0) {
            let y = lo * 2.0;
            let x = hi + y;
            if y == x - hi {
                hi = x;
            }
        }
    }
    if hi == 0.0 {
        0.0
    } else {
        hi
    }
}
