//! The neighbor-gather stage kernel: pluggable top-K selection backends.
//!
//! Every gather method that ranks candidates by distance funnels through
//! one primitive — *select the K nearest of a scored candidate list, in
//! ascending `(distance, index)` order* — applied by brute-force KNN over
//! the whole cloud and by VEG over the final shell. This module owns that
//! primitive behind a [`GatherKernel`], mirroring the
//! `hgpcn_pcn::kernel::LinearKernel` seam:
//!
//! > Every backend returns **bit-identical** results to
//! > [`GatherKernel::Scalar`]: the same neighbor indices in the same
//! > order, for any input including duplicate points and NaN
//! > coordinates (ranked last via `total_cmp`, exactly as the anchor
//! > sorts them). Only the selection *schedule* differs. Modeled
//! > operation counts are charged by the cost formulas of the calling
//! > gatherer and never depend on the backend.
//!
//! The selection is a constant: [`GatherKernel::default`] is the
//! partition-then-sort backend (portable, so always available). Tests
//! and yardsticks pin the anchor programmatically through the `*_with`
//! entry points or a `StageBackends` selection (see `ARCHITECTURE.md`).

/// A top-K candidate-selection backend. All variants are bit-identical
/// in results; they differ only in speed. See the [module docs](self).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum GatherKernel {
    /// The anchor: sort the full candidate list with the canonical
    /// `(total_cmp(distance), index)` comparator, then truncate — the
    /// original hardware-bitonic-priced selection loop, kept
    /// byte-for-byte.
    Scalar,
    /// Partition-then-sort: an unstable quickselect moves the K nearest
    /// candidates to the front (O(n) instead of O(n log n) comparisons
    /// on the host), then only those K are sorted. The `(distance,
    /// index)` key is a *total order with no duplicate keys* (indices
    /// are unique), so the K-smallest set — and after the final sort,
    /// the order — is identical to the anchor's.
    #[default]
    Blocked,
}

impl GatherKernel {
    /// Stable lower-case name, as reported in `RuntimeReport`.
    pub fn name(&self) -> &'static str {
        match self {
            GatherKernel::Scalar => "scalar",
            GatherKernel::Blocked => "blocked",
        }
    }

    /// Every backend compiled into this build, fastest-last.
    pub fn all() -> &'static [GatherKernel] {
        &[GatherKernel::Scalar, GatherKernel::Blocked]
    }

    /// Selects the `k` smallest-keyed candidates of `scored` in place:
    /// after the call, `scored` holds exactly `min(k, len)` entries in
    /// ascending `(total_cmp(distance), index)` order — the canonical
    /// neighbor order every gatherer in this crate reports.
    ///
    /// NaN distances rank after every finite distance (that is what
    /// `total_cmp` does), so NaN-polluted clouds select the same finite
    /// neighbors on every backend.
    ///
    /// ```
    /// use hgpcn_gather::stage::GatherKernel;
    ///
    /// let candidates = vec![(4.0, 7), (1.0, 3), (f32::NAN, 1), (1.0, 0), (0.25, 9)];
    /// let mut a = candidates.clone();
    /// let mut b = candidates.clone();
    /// GatherKernel::Scalar.top_k(&mut a, 3);
    /// GatherKernel::Blocked.top_k(&mut b, 3);
    /// assert_eq!(a, vec![(0.25, 9), (1.0, 0), (1.0, 3)]);
    /// assert_eq!(a, b); // bit-identical selection on every backend
    /// ```
    pub fn top_k(&self, scored: &mut Vec<(f32, usize)>, k: usize) {
        let cmp = |a: &(f32, usize), b: &(f32, usize)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
        match self {
            GatherKernel::Scalar => {
                scored.sort_by(cmp);
                scored.truncate(k);
            }
            GatherKernel::Blocked => {
                if k == 0 {
                    scored.clear();
                    return;
                }
                if k < scored.len() {
                    scored.select_nth_unstable_by(k - 1, cmp);
                    scored.truncate(k);
                }
                scored.sort_by(cmp);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scored(n: usize) -> Vec<(f32, usize)> {
        (0..n)
            .map(|i| (((i * 37) % 101) as f32 * 0.125, i))
            .collect()
    }

    #[test]
    fn backends_agree_on_every_k() {
        let base = scored(64);
        for k in [0usize, 1, 3, 31, 63, 64, 200] {
            let mut a = base.clone();
            let mut b = base.clone();
            GatherKernel::Scalar.top_k(&mut a, k);
            GatherKernel::Blocked.top_k(&mut b, k);
            assert_eq!(a, b, "k={k}");
            assert_eq!(a.len(), k.min(64));
        }
    }

    #[test]
    fn duplicate_distances_break_ties_by_index() {
        let mut v = vec![(1.0, 5), (1.0, 2), (0.5, 9), (1.0, 0)];
        GatherKernel::Blocked.top_k(&mut v, 3);
        assert_eq!(v, vec![(0.5, 9), (1.0, 0), (1.0, 2)]);
    }

    #[test]
    fn nan_ranks_last_on_both_backends() {
        let base = vec![(f32::NAN, 0), (2.0, 1), (f32::NAN, 2), (1.0, 3)];
        for k in [2usize, 4] {
            let mut a = base.clone();
            let mut b = base.clone();
            GatherKernel::Scalar.top_k(&mut a, k);
            GatherKernel::Blocked.top_k(&mut b, k);
            assert_eq!(a.iter().map(|x| x.1).collect::<Vec<_>>(), {
                let ib: Vec<usize> = b.iter().map(|x| x.1).collect();
                ib
            });
            assert_eq!(a[0], (1.0, 3));
        }
    }
}
