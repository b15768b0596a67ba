//! Multi-objective Pareto fronts.
//!
//! Two consumers share this module.  The network-wide Bit-Flip optimisation
//! (Fig. 6e–h) reports the compression-ratio/accuracy Pareto front via the
//! original two-metric [`ParetoPoint`].  The dataflow design-space explorer
//! (`bitwave-dse`) prunes candidate mappings on **N objectives** — cycles,
//! energy, EDP, utilisation — via the generalised [`ParetoPointN`] /
//! [`pareto_front_n`] / [`pareto_front_indices`] API, with a per-axis
//! [`Direction`] stating whether larger or smaller values win.
//!
//! [`ParetoPoint`] is kept as a thin wrapper over `ParetoPointN<2>` with
//! both axes maximised, so its observable behaviour (filtering, ordering,
//! deduplication) is unchanged.

use serde::{Deserialize, Serialize};

/// Whether larger or smaller values of one objective are better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Larger values dominate (compression ratio, accuracy, utilisation).
    Maximize,
    /// Smaller values dominate (cycles, energy, EDP).
    Minimize,
}

impl Direction {
    /// True when `a` is at least as good as `b` on this axis.
    fn at_least(self, a: f64, b: f64) -> bool {
        match self {
            Direction::Maximize => a >= b,
            Direction::Minimize => a <= b,
        }
    }

    /// True when `a` is strictly better than `b` on this axis.
    fn better(self, a: f64, b: f64) -> bool {
        match self {
            Direction::Maximize => a > b,
            Direction::Minimize => a < b,
        }
    }
}

/// One candidate operating point with `N` objective values.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoPointN<const N: usize> {
    /// The objective values, one per axis (interpreted via a `[Direction; N]`
    /// at dominance-checking time).
    pub metrics: [f64; N],
    /// Free-form label describing the configuration.
    pub label: String,
}

impl<const N: usize> ParetoPointN<N> {
    /// Creates a point.
    pub fn new(metrics: [f64; N], label: impl Into<String>) -> Self {
        Self {
            metrics,
            label: label.into(),
        }
    }

    /// True when `self` dominates `other` under `directions`: at least as
    /// good on every axis and strictly better on at least one.
    pub fn dominates(&self, other: &Self, directions: &[Direction; N]) -> bool {
        dominates(&self.metrics, &other.metrics, directions)
    }
}

/// Raw dominance check over two metric vectors: at least as good on every
/// axis and strictly better on at least one.  Any NaN fails both
/// comparisons, so a NaN row neither dominates nor is dominated.
fn dominates<const N: usize>(a: &[f64; N], b: &[f64; N], directions: &[Direction; N]) -> bool {
    let mut strictly = false;
    for (d, (x, y)) in directions.iter().zip(a.iter().zip(b)) {
        if !d.at_least(*x, *y) {
            return false;
        }
        strictly |= d.better(*x, *y);
    }
    strictly
}

/// Indices (ascending) of the metric vectors not dominated by any other
/// vector.  Exact duplicates all survive — callers that need deduplication
/// do it on the materialised points, where the policy is visible.
///
/// One pass of [`FrontAccumulator`]: each row is checked against the
/// current front only, so the cost is O(rows × front) rather than
/// all-pairs.
pub fn pareto_front_indices<const N: usize>(
    metrics: &[[f64; N]],
    directions: &[Direction; N],
) -> Vec<usize> {
    let mut acc = FrontAccumulator::new(*directions);
    for (i, row) in metrics.iter().enumerate() {
        acc.insert(*row, i);
    }
    acc.indices()
}

/// Extracts the Pareto-optimal subset of `points` under `directions`, sorted
/// by ascending first metric (stable, so equal first metrics keep input
/// order) with consecutive exact-duplicate metric vectors deduplicated.
pub fn pareto_front_n<const N: usize>(
    points: &[ParetoPointN<N>],
    directions: &[Direction; N],
) -> Vec<ParetoPointN<N>> {
    let metrics: Vec<[f64; N]> = points.iter().map(|p| p.metrics).collect();
    let mut front: Vec<ParetoPointN<N>> = pareto_front_indices(&metrics, directions)
        .into_iter()
        .map(|i| points[i].clone())
        .collect();
    front.sort_by(|a, b| {
        a.metrics[0]
            .partial_cmp(&b.metrics[0])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    front.dedup_by(|a, b| a.metrics == b.metrics);
    front
}

/// An incrementally maintained non-dominated set over `N` objectives.
///
/// The crate's one dominance filter: [`pareto_front_indices`] is a single
/// pass over it, and the sharded hardware sweep feeds it worker results as
/// they land to stream partial fronts.  The accumulator keeps only the
/// currently non-dominated points: an [`insert`](Self::insert) either
/// rejects a dominated newcomer or admits it and evicts everything it
/// dominates.
///
/// Dominance is a strict partial order, so after inserting every point of a
/// set (in **any** order, each tagged with its identifying index) the
/// surviving index set is exactly the points no other point dominates —
/// exact metric duplicates all survive.
#[derive(Debug, Clone)]
pub struct FrontAccumulator<const N: usize> {
    directions: [Direction; N],
    entries: Vec<([f64; N], usize)>,
}

impl<const N: usize> FrontAccumulator<N> {
    /// Creates an empty accumulator with one [`Direction`] per axis.
    pub fn new(directions: [Direction; N]) -> Self {
        Self {
            directions,
            entries: Vec::new(),
        }
    }

    /// Offers a point (its metrics plus a caller-meaningful index).  Returns
    /// `true` when the point joins the front, `false` when an existing
    /// member dominates it.  Admission may evict existing members.
    pub fn insert(&mut self, metrics: [f64; N], index: usize) -> bool {
        if self
            .entries
            .iter()
            .any(|(m, _)| dominates(m, &metrics, &self.directions))
        {
            return false;
        }
        self.entries
            .retain(|(m, _)| !dominates(&metrics, m, &self.directions));
        self.entries.push((metrics, index));
        true
    }

    /// The surviving indices, ascending — a canonical order independent of
    /// insertion history.
    pub fn indices(&self) -> Vec<usize> {
        let mut out: Vec<usize> = self.entries.iter().map(|&(_, i)| i).collect();
        out.sort_unstable();
        out
    }

    /// The surviving `(metrics, index)` pairs, ascending by index.
    pub fn entries(&self) -> Vec<([f64; N], usize)> {
        let mut out = self.entries.clone();
        out.sort_unstable_by_key(|&(_, i)| i);
        out
    }

    /// Number of points currently on the front.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been admitted yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// One candidate operating point of the Bit-Flip trade-off (both axes
/// maximised) — the original two-metric API, now a thin wrapper over
/// [`ParetoPointN<2>`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParetoPoint {
    /// Weight compression ratio (higher is better).
    pub compression_ratio: f64,
    /// Model quality: accuracy, F1 or PESQ, depending on the network
    /// (higher is better).
    pub accuracy: f64,
    /// Free-form label describing the configuration (e.g. "SM+BF z=5 G=16").
    pub label: String,
}

/// Both of the classic axes are maximised.
const CLASSIC_DIRECTIONS: [Direction; 2] = [Direction::Maximize, Direction::Maximize];

impl ParetoPoint {
    /// Creates a point.
    pub fn new(compression_ratio: f64, accuracy: f64, label: impl Into<String>) -> Self {
        Self {
            compression_ratio,
            accuracy,
            label: label.into(),
        }
    }

    /// The generalised view of this point: `[compression_ratio, accuracy]`.
    pub fn as_n(&self) -> ParetoPointN<2> {
        ParetoPointN::new([self.compression_ratio, self.accuracy], self.label.clone())
    }

    fn from_n(point: ParetoPointN<2>) -> Self {
        Self {
            compression_ratio: point.metrics[0],
            accuracy: point.metrics[1],
            label: point.label,
        }
    }

    /// True when `self` dominates `other` (at least as good on both axes and
    /// strictly better on at least one).
    pub fn dominates(&self, other: &ParetoPoint) -> bool {
        self.as_n().dominates(&other.as_n(), &CLASSIC_DIRECTIONS)
    }
}

/// Extracts the Pareto-optimal subset of `points`, sorted by ascending
/// compression ratio.
pub fn pareto_front(points: &[ParetoPoint]) -> Vec<ParetoPoint> {
    let generalized: Vec<ParetoPointN<2>> = points.iter().map(ParetoPoint::as_n).collect();
    pareto_front_n(&generalized, &CLASSIC_DIRECTIONS)
        .into_iter()
        .map(ParetoPoint::from_n)
        .collect()
}

/// Picks, from a set of points, the one with the highest compression ratio
/// whose accuracy is at least `min_accuracy` (the operating point the paper
/// quotes, e.g. "2.04× CR with < 0.5 % accuracy drop").
pub fn best_under_accuracy_floor(points: &[ParetoPoint], min_accuracy: f64) -> Option<ParetoPoint> {
    points
        .iter()
        .filter(|p| p.accuracy >= min_accuracy)
        .max_by(|a, b| {
            a.compression_ratio
                .partial_cmp(&b.compression_ratio)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .cloned()
}

#[cfg(test)]
#[path = "../tests/oracle/pareto.rs"]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn points() -> Vec<ParetoPoint> {
        vec![
            ParetoPoint::new(1.0, 70.0, "baseline"),
            ParetoPoint::new(1.5, 69.8, "a"),
            ParetoPoint::new(1.5, 69.0, "dominated by a"),
            ParetoPoint::new(2.0, 69.5, "b"),
            ParetoPoint::new(2.5, 68.0, "c"),
            ParetoPoint::new(2.4, 67.0, "dominated by c"),
        ]
    }

    #[test]
    fn dominance_relation() {
        let a = ParetoPoint::new(2.0, 70.0, "a");
        let b = ParetoPoint::new(1.5, 69.0, "b");
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        assert!(!a.dominates(&a), "a point does not dominate itself");
    }

    #[test]
    fn front_excludes_dominated_points() {
        let front = pareto_front(&points());
        let labels: Vec<&str> = front.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels, vec!["baseline", "a", "b", "c"]);
        // Sorted by compression ratio.
        assert!(front
            .windows(2)
            .all(|w| w[0].compression_ratio <= w[1].compression_ratio));
    }

    #[test]
    fn best_under_floor_matches_paper_style_query() {
        let best = best_under_accuracy_floor(&points(), 69.4).unwrap();
        assert_eq!(best.label, "b");
        assert!(best_under_accuracy_floor(&points(), 99.0).is_none());
    }

    #[test]
    fn empty_input_gives_empty_front() {
        assert!(pareto_front(&[]).is_empty());
        assert!(best_under_accuracy_floor(&[], 0.0).is_none());
        assert!(pareto_front_indices::<3>(&[], &[Direction::Minimize; 3]).is_empty());
    }

    #[test]
    fn equal_points_are_deduplicated() {
        let pts = vec![
            ParetoPoint::new(1.0, 50.0, "x"),
            ParetoPoint::new(1.0, 50.0, "y"),
        ];
        assert_eq!(pareto_front(&pts).len(), 1);
    }

    #[test]
    fn mixed_direction_dominance() {
        // [cycles (min), energy (min), utilisation (max)].
        let dirs = [
            Direction::Minimize,
            Direction::Minimize,
            Direction::Maximize,
        ];
        let fast = ParetoPointN::new([100.0, 5.0, 0.9], "fast");
        let slow = ParetoPointN::new([200.0, 5.0, 0.9], "slow");
        let frugal = ParetoPointN::new([200.0, 1.0, 0.2], "frugal");
        assert!(fast.dominates(&slow, &dirs));
        assert!(!slow.dominates(&fast, &dirs));
        assert!(!fast.dominates(&frugal, &dirs), "frugal wins on energy");
        assert!(!frugal.dominates(&fast, &dirs));
        let front = pareto_front_n(&[fast.clone(), slow, frugal.clone()], &dirs);
        let labels: Vec<&str> = front.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels, vec!["fast", "frugal"]);
    }

    #[test]
    fn indices_preserve_input_order_and_keep_duplicates() {
        let dirs = [Direction::Minimize, Direction::Minimize];
        let metrics = [[2.0, 2.0], [1.0, 3.0], [1.0, 3.0], [3.0, 3.0]];
        assert_eq!(pareto_front_indices(&metrics, &dirs), vec![0, 1, 2]);
    }

    #[test]
    fn accumulator_admits_evicts_and_rejects() {
        let mut acc = FrontAccumulator::new([Direction::Minimize, Direction::Minimize]);
        assert!(acc.is_empty());
        assert!(acc.insert([2.0, 2.0], 0));
        assert!(acc.insert([1.0, 3.0], 1), "trade-off joins the front");
        assert!(!acc.insert([3.0, 3.0], 2), "dominated newcomer is rejected");
        assert!(acc.insert([1.0, 1.0], 3), "dominator evicts both members");
        assert_eq!(acc.indices(), vec![3]);
        assert!(acc.insert([1.0, 1.0], 4), "exact duplicates all survive");
        assert_eq!(acc.indices(), vec![3, 4]);
        assert_eq!(acc.len(), 2);
    }

    /// Random-point strategies for the property tests: small integer-derived
    /// metrics maximise the chance of ties and duplicates.
    fn metric(raw: u8) -> f64 {
        f64::from(raw % 8)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The generalised front is mutually non-dominating.
        #[test]
        fn front_is_mutually_non_dominating(
            raw in proptest::collection::vec(proptest::strategy::any::<u8>(), 0..40),
            dir_bits in proptest::strategy::any::<u8>(),
        ) {
            let dirs = [
                if dir_bits & 1 == 0 { Direction::Minimize } else { Direction::Maximize },
                if dir_bits & 2 == 0 { Direction::Minimize } else { Direction::Maximize },
                if dir_bits & 4 == 0 { Direction::Minimize } else { Direction::Maximize },
            ];
            let points: Vec<ParetoPointN<3>> = raw
                .chunks_exact(3)
                .enumerate()
                .map(|(i, c)| {
                    ParetoPointN::new([metric(c[0]), metric(c[1]), metric(c[2])], format!("p{i}"))
                })
                .collect();
            let front = pareto_front_n(&points, &dirs);
            for a in &front {
                for b in &front {
                    prop_assert!(!a.dominates(b, &dirs), "{} dominates {}", a.label, b.label);
                }
            }
            // Every input point is dominated by or metric-equal to a front member.
            for p in &points {
                prop_assert!(front.iter().any(|f| f.metrics == p.metrics
                    || f.dominates(p, &dirs)));
            }
        }

        /// The front's metric set is invariant under input permutation.
        #[test]
        fn front_is_invariant_under_input_order(
            raw in proptest::collection::vec(proptest::strategy::any::<u8>(), 0..40),
            rot in proptest::strategy::any::<usize>(),
        ) {
            let dirs = [Direction::Minimize, Direction::Maximize];
            let points: Vec<ParetoPointN<2>> = raw
                .chunks_exact(2)
                .enumerate()
                .map(|(i, c)| ParetoPointN::new([metric(c[0]), metric(c[1])], format!("p{i}")))
                .collect();
            let mut rotated = points.clone();
            if !rotated.is_empty() {
                let mid = rot % rotated.len();
                rotated.rotate_left(mid);
            }
            let front = |pts: &[ParetoPointN<2>]| -> Vec<[f64; 2]> {
                pareto_front_n(pts, &dirs).iter().map(|p| p.metrics).collect()
            };
            prop_assert_eq!(front(&points), front(&rotated));
        }

        /// The accumulator reproduces the naive all-pairs front regardless
        /// of the order points arrive in — the invariant the sharded
        /// sweep's streamed partial fronts rely on.
        #[test]
        fn accumulator_matches_batch_front_under_any_arrival_order(
            raw in proptest::collection::vec(proptest::strategy::any::<u8>(), 0..60),
            rot in proptest::strategy::any::<usize>(),
        ) {
            let dirs = [Direction::Minimize, Direction::Minimize, Direction::Maximize];
            let metrics: Vec<[f64; 3]> = raw
                .chunks_exact(3)
                .map(|c| [metric(c[0]), metric(c[1]), metric(c[2])])
                .collect();
            let mut order: Vec<usize> = (0..metrics.len()).collect();
            if !order.is_empty() {
                let mid = rot % order.len();
                order.rotate_left(mid);
            }
            let mut acc = FrontAccumulator::new(dirs);
            for &i in &order {
                acc.insert(metrics[i], i);
            }
            prop_assert_eq!(
                acc.indices(),
                oracle::front_indices(&metrics, &dirs.map(|d| d == Direction::Maximize))
            );
        }

        /// The classic two-metric wrapper agrees with the generalised front.
        #[test]
        fn classic_wrapper_matches_generalised_front(
            raw in proptest::collection::vec(proptest::strategy::any::<u8>(), 0..40),
        ) {
            let points: Vec<ParetoPoint> = raw
                .chunks_exact(2)
                .enumerate()
                .map(|(i, c)| ParetoPoint::new(metric(c[0]), metric(c[1]), format!("p{i}")))
                .collect();
            let classic = pareto_front(&points);
            let generalised = pareto_front_n(
                &points.iter().map(ParetoPoint::as_n).collect::<Vec<_>>(),
                &[Direction::Maximize, Direction::Maximize],
            );
            prop_assert_eq!(classic.len(), generalised.len());
            for (c, g) in classic.iter().zip(&generalised) {
                prop_assert_eq!([c.compression_ratio, c.accuracy], g.metrics);
                prop_assert_eq!(&c.label, &g.label);
            }
        }
    }
}
