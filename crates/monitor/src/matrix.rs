//! Symmetric pairwise matrices (latency, bandwidth) indexed by node.

use nlrm_topology::NodeId;

/// Index of the unordered pair `{a, b}` (`a ≠ b`, both below `n`) in the
/// row-major strict upper triangle of an `n × n` matrix: row `i` holds
/// its pairs `(i, j > i)` contiguously, after the `i·(2n−i−1)/2` pairs of
/// the rows above it.
pub fn pair_index(n: usize, a: usize, b: usize) -> usize {
    let (i, j) = (a.min(b), a.max(b));
    i * (2 * n - i - 1) / 2 + j - i - 1
}

/// A symmetric `n × n` matrix with a default diagonal, stored densely.
///
/// Writing `(u, v)` also writes `(v, u)`: P2P latency and bandwidth are
/// treated as symmetric, as in the paper's measurement scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct SymMatrix<T> {
    n: usize,
    data: Vec<T>,
}

impl<T: Copy> SymMatrix<T> {
    /// An `n × n` matrix filled with `fill`.
    pub fn new(n: usize, fill: T) -> Self {
        SymMatrix {
            n,
            data: vec![fill; n * n],
        }
    }

    /// Matrix dimension.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for a 0×0 matrix.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Value at `(u, v)`.
    pub fn get(&self, u: NodeId, v: NodeId) -> T {
        self.data[u.index() * self.n + v.index()]
    }

    /// Set `(u, v)` and `(v, u)`.
    pub fn set(&mut self, u: NodeId, v: NodeId, value: T) {
        self.data[u.index() * self.n + v.index()] = value;
        self.data[v.index() * self.n + u.index()] = value;
    }

    /// Iterate over the strict upper triangle `(u < v)`.
    pub fn pairs(&self) -> impl Iterator<Item = (NodeId, NodeId, T)> + '_ {
        (0..self.n).flat_map(move |u| {
            ((u + 1)..self.n).map(move |v| {
                (
                    NodeId(u as u32),
                    NodeId(v as u32),
                    self.data[u * self.n + v],
                )
            })
        })
    }

    /// Row `u` as a slice (length `n`).
    pub fn row(&self, u: NodeId) -> &[T] {
        &self.data[u.index() * self.n..(u.index() + 1) * self.n]
    }

    /// Overwrite row `u` *and* the mirrored column.
    pub fn set_row(&mut self, u: NodeId, row: &[T]) {
        assert_eq!(row.len(), self.n);
        for (v, &val) in row.iter().enumerate() {
            self.data[u.index() * self.n + v] = val;
            self.data[v * self.n + u.index()] = val;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_is_symmetric() {
        let mut m = SymMatrix::new(4, 0.0);
        m.set(NodeId(1), NodeId(3), 7.5);
        assert_eq!(m.get(NodeId(3), NodeId(1)), 7.5);
        assert_eq!(m.get(NodeId(1), NodeId(3)), 7.5);
    }

    #[test]
    fn pairs_covers_upper_triangle() {
        let m = SymMatrix::new(4, 1.0);
        assert_eq!(m.pairs().count(), 6); // C(4,2)
    }

    #[test]
    fn set_row_mirrors() {
        let mut m = SymMatrix::new(3, 0.0);
        m.set_row(NodeId(1), &[4.0, 0.0, 6.0]);
        assert_eq!(m.get(NodeId(0), NodeId(1)), 4.0);
        assert_eq!(m.get(NodeId(2), NodeId(1)), 6.0);
    }
}
