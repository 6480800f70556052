//! 3D process grids (the `MPI_Dims_create` idiom both mini-apps use).

/// A 3D process grid of `px × py × pz` ranks with periodic neighbours.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grid3d {
    /// Ranks along x.
    pub px: usize,
    /// Ranks along y.
    pub py: usize,
    /// Ranks along z.
    pub pz: usize,
}

/// Factor `p` into the most cubic `(px, py, pz)` with `px ≥ py ≥ pz`
/// (what `MPI_Dims_create(p, 3, …)` produces).
pub fn dims_create(p: usize) -> (usize, usize, usize) {
    assert!(p > 0);
    let mut best = (p, 1, 1);
    let mut best_spread = p - 1;
    let mut a = 1;
    while a * a * a <= p {
        if p.is_multiple_of(a) {
            let rem = p / a;
            let mut b = a;
            while b * b <= rem {
                if rem.is_multiple_of(b) {
                    let c = rem / b;
                    // spread = max − min; smaller is more cubic
                    let spread = c.max(b).max(a) - c.min(b).min(a);
                    if spread < best_spread {
                        best_spread = spread;
                        best = (c, b, a);
                    }
                }
                b += 1;
            }
        }
        a += 1;
    }
    best
}

impl Grid3d {
    /// The most cubic grid for `p` ranks.
    pub fn for_ranks(p: usize) -> Self {
        let (px, py, pz) = dims_create(p);
        Grid3d { px, py, pz }
    }

    /// Total ranks.
    pub fn size(&self) -> usize {
        self.px * self.py * self.pz
    }

    /// Grid coordinates of a rank (x fastest).
    pub fn coords(&self, rank: usize) -> (usize, usize, usize) {
        assert!(rank < self.size());
        let x = rank % self.px;
        let y = (rank / self.px) % self.py;
        let z = rank / (self.px * self.py);
        (x, y, z)
    }

    /// Rank at the given coordinates.
    pub fn rank_of(&self, x: usize, y: usize, z: usize) -> usize {
        debug_assert!(x < self.px && y < self.py && z < self.pz);
        x + y * self.px + z * self.px * self.py
    }

    /// The six periodic face neighbours (−x, +x, −y, +y, −z, +z). With a
    /// dimension of extent 1 the neighbour is the rank itself (no exchange).
    pub fn neighbors(&self, rank: usize) -> [usize; 6] {
        let (x, y, z) = self.coords(rank);
        let xm = self.rank_of((x + self.px - 1) % self.px, y, z);
        let xp = self.rank_of((x + 1) % self.px, y, z);
        let ym = self.rank_of(x, (y + self.py - 1) % self.py, z);
        let yp = self.rank_of(x, (y + 1) % self.py, z);
        let zm = self.rank_of(x, y, (z + self.pz - 1) % self.pz);
        let zp = self.rank_of(x, y, (z + 1) % self.pz);
        [xm, xp, ym, yp, zm, zp]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_are_factorizations() {
        for p in 1..=128 {
            let (a, b, c) = dims_create(p);
            assert_eq!(a * b * c, p, "p={p}");
            assert!(a >= b && b >= c, "p={p}: ({a},{b},{c}) not sorted");
        }
    }

    #[test]
    fn cubes_factor_perfectly() {
        assert_eq!(dims_create(8), (2, 2, 2));
        assert_eq!(dims_create(27), (3, 3, 3));
        assert_eq!(dims_create(64), (4, 4, 4));
    }

    #[test]
    fn paper_process_counts() {
        // the paper's 8/16/32/48/64-process runs
        assert_eq!(dims_create(8), (2, 2, 2));
        assert_eq!(dims_create(16), (4, 2, 2));
        assert_eq!(dims_create(32), (4, 4, 2));
        assert_eq!(dims_create(48), (4, 4, 3));
        assert_eq!(dims_create(64), (4, 4, 4));
    }

    #[test]
    fn coords_roundtrip() {
        let g = Grid3d::for_ranks(24);
        for r in 0..24 {
            let (x, y, z) = g.coords(r);
            assert_eq!(g.rank_of(x, y, z), r);
        }
    }

    #[test]
    fn neighbors_are_mutual() {
        let g = Grid3d::for_ranks(32);
        for r in 0..32 {
            let nb = g.neighbors(r);
            // −x of my +x neighbour is me (periodic)
            assert_eq!(g.neighbors(nb[1])[0], r);
            assert_eq!(g.neighbors(nb[3])[2], r);
            assert_eq!(g.neighbors(nb[5])[4], r);
        }
    }

    #[test]
    fn unit_dimension_neighbors_self() {
        let g = Grid3d {
            px: 4,
            py: 1,
            pz: 1,
        };
        let nb = g.neighbors(2);
        assert_eq!(nb[2], 2); // −y wraps to self
        assert_eq!(nb[4], 2); // −z wraps to self
        assert_eq!(nb[0], 1);
        assert_eq!(nb[1], 3);
    }
}
