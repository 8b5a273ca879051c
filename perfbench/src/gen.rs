//! Seeded input generators and the planted reference solutions.
//!
//! Everything here is the benchmark's own: the program under test only
//! ever receives the generated points.  Every generator is a pure
//! function of its seed, so the same `--seed` replays the same inputs.

/// A point in the plane (all workloads cluster under `L2`).
pub type Pt = [f64; 2];

/// SplitMix64: small, fast, and seed-stable across platforms.
pub struct Rng(u64);

impl Rng {
    /// A stream derived from the run seed and a per-use salt, so that
    /// independent streams (inputs, queries, write sizes) never alias.
    pub fn new(seed: u64, salt: u64) -> Self {
        let mut r = Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Standard normal (Box–Muller).
    pub fn gauss(&mut self) -> f64 {
        let u1 = self.unit().max(f64::MIN_POSITIVE);
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

/// Sites on a `cols × rows` lattice, tiled into `tiles_x × tiles_y`
/// blocks of equal size that sit `gap` apart (on top of the lattice
/// spacing); arrivals pick a site and jitter around it.
///
/// The planted reference puts one center at the middle of each block:
/// `k = tiles_x · tiles_y` centers whose radius is the block half-diagonal
/// plus jitter.  For a uniform lattice (`gap = 0`) that is within a few
/// percent of the optimal `k`-center radius (equal-area blocks are the
/// best one can do); with a wide gap it is the optimum up to the jitter.
/// As a feasible solution it bounds `opt` from above either way.
pub struct Lattice {
    pub cols: usize,
    pub rows: usize,
    pub tiles_x: usize,
    pub tiles_y: usize,
    pub spacing: f64,
    pub gap: f64,
    pub jitter: f64,
    pub origin: Pt,
}

impl Lattice {
    pub fn sites(&self) -> usize {
        self.cols * self.rows
    }

    pub fn site(&self, i: usize) -> Pt {
        let (col, row) = (i % self.cols, i / self.cols);
        let (bw, bh) = (self.cols / self.tiles_x, self.rows / self.tiles_y);
        [
            self.origin[0] + col as f64 * self.spacing + (col / bw) as f64 * self.gap,
            self.origin[1] + row as f64 * self.spacing + (row / bh) as f64 * self.gap,
        ]
    }

    /// One arrival at site `i`, jittered uniformly within `±jitter`.
    pub fn around(&self, i: usize, rng: &mut Rng) -> Pt {
        let s = self.site(i);
        [
            s[0] + rng.range(-self.jitter, self.jitter),
            s[1] + rng.range(-self.jitter, self.jitter),
        ]
    }

    /// One arrival at a uniformly chosen site.
    pub fn sample(&self, rng: &mut Rng) -> Pt {
        self.around(rng.below(self.sites()), rng)
    }

    /// The planted centers: the middle of every block (the midpoint of
    /// its first and last site).
    pub fn planted_centers(&self) -> Vec<Pt> {
        let (bw, bh) = (self.cols / self.tiles_x, self.rows / self.tiles_y);
        let mut out = Vec::with_capacity(self.tiles_x * self.tiles_y);
        for ty in 0..self.tiles_y {
            for tx in 0..self.tiles_x {
                let first = self.site(ty * bh * self.cols + tx * bw);
                let last = self.site((ty * bh + bh - 1) * self.cols + tx * bw + bw - 1);
                out.push([(first[0] + last[0]) / 2.0, (first[1] + last[1]) / 2.0]);
            }
        }
        out
    }

    /// A far outlier: beyond the lattice by at least 100 lattice widths.
    pub fn outlier(&self, rng: &mut Rng) -> Pt {
        let w = self.cols as f64 * self.spacing + self.tiles_x as f64 * self.gap;
        [
            self.origin[0] + rng.range(100.0 * w, 200.0 * w),
            self.origin[1] + rng.range(-100.0 * w, 100.0 * w),
        ]
    }
}

/// Zipf(`s`) sampler over ranks `0..n` by inverse CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += (r as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// `k` Gaussian clusters whose centers drift along a fixed direction,
/// with a far outlier at every `outlier_every`-th arrival.
///
/// Arrival `t` (1-based) of cluster `c` is drawn around
/// `center(c, t) = base[c] + t · drift · (1, 0.3)`; the planted reference
/// for any arrival span uses the centers at the span's middle stamp.
pub struct Drift {
    pub base: Vec<Pt>,
    pub sigma: f64,
    pub drift: f64,
    pub outlier_every: u64,
}

impl Drift {
    pub fn new(k: usize, sigma: f64, drift: f64, outlier_every: u64, rng: &mut Rng) -> Self {
        let base = (0..k)
            .map(|c| {
                [
                    c as f64 * 60.0 * sigma + rng.range(0.0, sigma),
                    rng.range(0.0, sigma),
                ]
            })
            .collect();
        Drift {
            base,
            sigma,
            drift,
            outlier_every,
        }
    }

    pub fn center(&self, c: usize, t: f64) -> Pt {
        [
            self.base[c][0] + t * self.drift,
            self.base[c][1] + t * self.drift * 0.3,
        ]
    }

    /// Arrival with stamp `t` (1-based).
    pub fn arrival(&self, t: u64, rng: &mut Rng) -> Pt {
        if t.is_multiple_of(self.outlier_every) {
            let here = self.center(0, t as f64);
            return [
                here[0] + rng.range(-1e4, 1e4) * self.sigma,
                here[1] + 1e4 * self.sigma,
            ];
        }
        let c = self.center((t % self.base.len() as u64) as usize, t as f64);
        [
            c[0] + self.sigma * rng.gauss(),
            c[1] + self.sigma * rng.gauss(),
        ]
    }

    /// Planted centers for the arrivals stamped `lo..=hi`.
    pub fn planted_centers(&self, lo: u64, hi: u64) -> Vec<Pt> {
        let mid = (lo + hi) as f64 / 2.0;
        (0..self.base.len()).map(|c| self.center(c, mid)).collect()
    }
}

/// One MPC job input: `k` Gaussian clusters plus `outliers` far points,
/// returned with the planted cluster centers.
pub fn mpc_instance(k: usize, n: usize, outliers: usize, rng: &mut Rng) -> (Vec<Pt>, Vec<Pt>) {
    let centers: Vec<Pt> = (0..k)
        .map(|c| {
            [
                (c % 4) as f64 * 200.0 + rng.range(0.0, 20.0),
                (c / 4) as f64 * 200.0 + rng.range(0.0, 20.0),
            ]
        })
        .collect();
    let mut pts = Vec::with_capacity(n);
    for i in 0..n - outliers {
        let c = centers[i % k];
        pts.push([c[0] + 4.0 * rng.gauss(), c[1] + 4.0 * rng.gauss()]);
    }
    for _ in 0..outliers {
        pts.push([rng.range(1e5, 2e5), rng.range(-1e5, 1e5)]);
    }
    // Fisher–Yates, so outliers land on arbitrary machines.
    for i in (1..pts.len()).rev() {
        pts.swap(i, rng.below(i + 1));
    }
    (pts, centers)
}
