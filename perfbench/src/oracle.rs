//! Brute-force reference computations, written apart from the program.
//!
//! Distances accumulate in the same order as the program's `L2` metric
//! (`dx² + dy²`, then `sqrt`), and nearest-center ties go to the smallest
//! index on squared distance — the documented contract of the served
//! kernels — so served answers must match these bit for bit.

use crate::gen::Pt;

fn sq(a: &Pt, b: &Pt) -> f64 {
    let mut s = 0.0;
    let d0 = a[0] - b[0];
    s += d0 * d0;
    let d1 = a[1] - b[1];
    s += d1 * d1;
    s
}

/// Nearest center and its distance; `None` without centers.
pub fn nearest(centers: &[Pt], p: &Pt) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (i, c) in centers.iter().enumerate() {
        let d = sq(c, p);
        if best.is_none_or(|(_, b)| d < b) {
            best = Some((i, d));
        }
    }
    best.map(|(i, d)| (i, d.sqrt()))
}

/// Radius of `centers` on unit-weight `pts` with `z` outliers: the
/// `(z+1)`-th largest nearest-center distance (0 when `z` covers all).
pub fn radius_with_outliers(centers: &[Pt], pts: &[Pt], z: u64) -> f64 {
    let z = z as usize;
    if pts.len() <= z {
        return 0.0;
    }
    if centers.is_empty() {
        return f64::INFINITY;
    }
    let mut d: Vec<f64> = pts
        .iter()
        .map(|p| {
            centers
                .iter()
                .map(|c| sq(c, p))
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let at = d.len() - 1 - z;
    let (_, kth, _) = d.select_nth_unstable_by(at, |a, b| a.total_cmp(b));
    kth.sqrt()
}
