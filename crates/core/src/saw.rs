//! Simple Additive Weighting (SAW) machinery (§3.2.1).
//!
//! The paper's recipe: "the attribute values of each node are normalized by
//! dividing the value by the sum of attribute values of all nodes. Then, we
//! convert all the attributes in unidirectional units … by complementing
//! (with respect to the maximum value) for attributes having maximization
//! criterion."

/// Whether an attribute should be as large or as small as possible
/// (column 2 of the paper's Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Criterion {
    /// Larger values are better (complemented after normalization).
    Maximize,
    /// Smaller values are better.
    Minimize,
}

/// Sum-normalize a column: each value divided by the column sum.
///
/// A zero (or non-finite) sum yields all zeros — every node is identical on
/// that attribute, so it contributes nothing to the ranking.
pub fn normalize_sum(values: &[f64]) -> Vec<f64> {
    let sum: f64 = values.iter().sum();
    if sum <= 0.0 || !sum.is_finite() {
        return vec![0.0; values.len()];
    }
    values.iter().map(|v| v / sum).collect()
}

/// Make a normalized column unidirectional ("lower is better"): maximization
/// columns are complemented against their maximum.
pub fn unidirectional(normalized: &[f64], criterion: Criterion) -> Vec<f64> {
    match criterion {
        Criterion::Minimize => normalized.to_vec(),
        Criterion::Maximize => {
            let max = normalized.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            if !max.is_finite() {
                return vec![0.0; normalized.len()];
            }
            normalized.iter().map(|v| max - v).collect()
        }
    }
}

/// One SAW column: raw values plus their optimization criterion.
#[derive(Debug, Clone)]
pub struct Column {
    /// Raw attribute values, one per node.
    pub values: Vec<f64>,
    /// Optimization direction.
    pub criterion: Criterion,
    /// Relative weight.
    pub weight: f64,
}

/// Full SAW score: `score_i = Σ_columns w_c · val'_{ic}` with each column
/// sum-normalized and made unidirectional. Lower is better.
pub fn saw_scores(columns: &[Column]) -> Vec<f64> {
    assert!(!columns.is_empty(), "SAW needs at least one column");
    let n = columns[0].values.len();
    let mut scores = vec![0.0; n];
    for col in columns {
        assert_eq!(col.values.len(), n, "ragged SAW columns");
        let prepared = unidirectional(&normalize_sum(&col.values), col.criterion);
        for (s, v) in scores.iter_mut().zip(prepared) {
            *s += col.weight * v;
        }
    }
    scores
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_sums_to_one() {
        let n = normalize_sum(&[1.0, 2.0, 3.0, 4.0]);
        assert!((n.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((n[3] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn zero_column_normalizes_to_zeros() {
        assert_eq!(normalize_sum(&[0.0, 0.0]), vec![0.0, 0.0]);
    }

    #[test]
    fn minimize_passes_through() {
        let col = normalize_sum(&[2.0, 8.0]);
        assert_eq!(unidirectional(&col, Criterion::Minimize), col);
    }

    #[test]
    fn maximize_flips_order() {
        let col = normalize_sum(&[2.0, 8.0]);
        let out = unidirectional(&col, Criterion::Maximize);
        // node with larger raw value now has *smaller* (better) score
        assert!(out[1] < out[0]);
        assert_eq!(out[1], 0.0);
    }

    #[test]
    fn saw_prefers_obviously_better_node() {
        // node 0: low load, high freq. node 1: high load, low freq.
        let scores = saw_scores(&[
            Column {
                values: vec![0.1, 5.0],
                criterion: Criterion::Minimize,
                weight: 0.6,
            },
            Column {
                values: vec![4.6, 2.8],
                criterion: Criterion::Maximize,
                weight: 0.4,
            },
        ]);
        assert!(scores[0] < scores[1], "{scores:?}");
    }

    #[test]
    fn weights_scale_contribution() {
        let mk = |w1: f64, w2: f64| {
            saw_scores(&[
                Column {
                    values: vec![1.0, 3.0],
                    criterion: Criterion::Minimize,
                    weight: w1,
                },
                Column {
                    values: vec![3.0, 1.0],
                    criterion: Criterion::Minimize,
                    weight: w2,
                },
            ])
        };
        // equal weights: symmetric scores
        let eq = mk(0.5, 0.5);
        assert!((eq[0] - eq[1]).abs() < 1e-12);
        // weight on first column: node 0 wins
        let first = mk(0.9, 0.1);
        assert!(first[0] < first[1]);
    }

    #[test]
    fn identical_nodes_get_identical_scores() {
        let scores = saw_scores(&[Column {
            values: vec![2.0, 2.0, 2.0],
            criterion: Criterion::Minimize,
            weight: 1.0,
        }]);
        assert!(scores.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-12));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_columns_panic() {
        saw_scores(&[
            Column {
                values: vec![1.0],
                criterion: Criterion::Minimize,
                weight: 1.0,
            },
            Column {
                values: vec![1.0, 2.0],
                criterion: Criterion::Minimize,
                weight: 1.0,
            },
        ]);
    }
}
