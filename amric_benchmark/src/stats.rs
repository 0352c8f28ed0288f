//! Estimators. A timing metric is sampled in rounds of whole cycles over
//! its distinct operations.
//!
//! An end-to-end metric's value is its **floor**: the best time of each
//! distinct operation over the whole run, averaged over the operations
//! ([`Series::floor`]). The host only ever slows an operation down — its
//! memory system is shared with other tenants and spends seconds to
//! minutes at a time 1.2–1.5x slower, with no steal time reported — so
//! the fastest repetition is the one that measured the code, and it is
//! the statistic that repeats from run to run (README, "Estimator and
//! noise", has the measurements). The median of the per-round medians is
//! reported next to it, and is the value of the layer metrics
//! ([`Series::summary`]).

use crate::metrics::Better;

/// Median of a sample (mean of the two middle values for even counts).
/// Returns NaN for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile `p` (0–100) of an ascending sample.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile of the ladder that still has at least ten
/// samples beyond it in a sample of `n` (`None` when even p75 has not).
pub fn tail_percentile(n: usize) -> Option<f64> {
    // Per mille, so that "ten samples beyond p90 of 100" is exact.
    [999usize, 990, 950, 900, 750]
        .into_iter()
        .find(|pm| n * (1000 - pm) >= 10_000)
        .map(|pm| pm as f64 / 10.0)
}

/// One metric's samples, grouped by measurement round.
#[derive(Clone, Debug, Default)]
pub struct Series {
    rounds: Vec<Vec<f64>>,
    /// Distinct operations per cycle: sample `i` of a round is operation
    /// `i % cycle`. 0 (the default) where samples are not told apart.
    cycle: usize,
}

/// What a [`Series`] reduces to in a result file.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// The reported value: a floor or a median of per-round medians.
    pub value: f64,
    /// Median of the per-round medians.
    pub median: f64,
    /// Low end of the spread: the lowest per-round median, or the lowest
    /// of the floor and the floors of the even and odd rounds alone.
    pub lo: f64,
    /// High end of the spread.
    pub hi: f64,
    /// Total sample count over all rounds.
    pub n: usize,
    /// `(p, value)` of the highest percentile with ten samples beyond it.
    pub tail: Option<(f64, f64)>,
    /// The per-round readings themselves, in round order.
    pub rounds: Vec<f64>,
}

/// Mean over the `cycle` distinct operations of each one's best sample,
/// where sample `i` of every slice in `rounds` is operation `i % cycle`.
fn floor_of<'a>(
    rounds: impl Iterator<Item = &'a Vec<f64>> + Clone,
    cycle: usize,
    better: Better,
) -> f64 {
    let (worst, pick): (f64, fn(f64, f64) -> f64) = match better {
        Better::Lower => (f64::INFINITY, f64::min),
        Better::Higher => (f64::NEG_INFINITY, f64::max),
    };
    let best = |op: usize| {
        rounds
            .clone()
            .flat_map(|r| r.iter().skip(op).step_by(cycle))
            .fold(worst, |a, &b| pick(a, b))
    };
    (0..cycle).map(best).sum::<f64>() / cycle as f64
}

impl Series {
    /// A series that is sampled in whole cycles over `cycle` distinct
    /// operations, always in the same order.
    pub fn cyclic(cycle: usize) -> Series {
        Series {
            rounds: Vec::new(),
            cycle,
        }
    }

    /// Open a new round; later [`Series::push`] calls land in it.
    pub fn begin_round(&mut self) {
        self.rounds.push(Vec::new());
    }

    /// Add one sample to the current round (opening one if none is).
    pub fn push(&mut self, v: f64) {
        if self.rounds.is_empty() {
            self.rounds.push(Vec::new());
        }
        self.rounds.last_mut().expect("a round is open").push(v);
    }

    /// Per-round medians of the rounds that hold samples.
    pub fn round_medians(&self) -> Vec<f64> {
        self.rounds
            .iter()
            .filter(|r| !r.is_empty())
            .map(|r| median(r))
            .collect()
    }

    /// Every sample of every round, ascending.
    pub fn pooled_sorted(&self) -> Vec<f64> {
        let mut all: Vec<f64> = self.rounds.iter().flatten().copied().collect();
        all.sort_by(f64::total_cmp);
        all
    }

    /// Reduce to the floor — the mean over the distinct operations of
    /// each one's best sample. NaN where an operation has no sample. The
    /// spread runs from the floor to the floors of the even and of the
    /// odd rounds alone: how far a floor found in half the run is from
    /// the one found in all of it. (The per-round floors, kept in
    /// `rounds`, span the host's movement instead.)
    pub fn floor(&self, better: Better) -> Summary {
        let cycle = self.cycle.max(1);
        let sampled = || self.rounds.iter().filter(|r| !r.is_empty());
        let value = floor_of(sampled(), cycle, better);
        let halves =
            [0, 1].map(|parity| floor_of(sampled().skip(parity).step_by(2), cycle, better));
        let finite = || {
            halves
                .iter()
                .copied()
                .chain([value])
                .filter(|v| v.is_finite())
        };
        Summary {
            value: if value.is_finite() { value } else { f64::NAN },
            lo: finite().fold(f64::INFINITY, f64::min),
            hi: finite().fold(f64::NEG_INFINITY, f64::max),
            rounds: sampled()
                .map(|r| floor_of(std::iter::once(r), cycle, better))
                .collect(),
            ..self.summary()
        }
    }

    /// Reduce to the median of the per-round medians, with spread, count
    /// and tail percentile.
    pub fn summary(&self) -> Summary {
        let meds = self.round_medians();
        let all = self.pooled_sorted();
        Summary {
            value: median(&meds),
            median: median(&meds),
            lo: meds.iter().copied().fold(f64::INFINITY, f64::min),
            hi: meds.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: all.len(),
            tail: tail_percentile(all.len()).map(|p| (p, percentile_sorted(&all, p))),
            rounds: meds,
        }
    }
}

impl Summary {
    /// A value that is not sampled in rounds (a count, a ratio of two
    /// summaries): spread collapses onto the value.
    pub fn exact(value: f64) -> Summary {
        Summary {
            value,
            median: value,
            lo: value,
            hi: value,
            n: 1,
            tail: None,
            rounds: Vec::new(),
        }
    }

    /// The same reading in another unit or at another clock: everything
    /// but the sample count times `k`.
    pub fn scaled(mut self, k: f64) -> Summary {
        for v in [
            &mut self.value,
            &mut self.median,
            &mut self.lo,
            &mut self.hi,
        ] {
            *v *= k;
        }
        if let Some((_, tail)) = &mut self.tail {
            *tail *= k;
        }
        self.rounds.iter_mut().for_each(|r| *r *= k);
        self
    }

    /// Spread as a share of the value: `(hi − lo) ÷ value`.
    pub fn rel_spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.hi - self.lo) / self.value.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn median_of_round_medians_ignores_a_disturbed_round() {
        let mut s = Series::default();
        for round in [[10.0, 11.0, 12.0], [10.5, 11.5, 12.5], [50.0, 60.0, 70.0]] {
            s.begin_round();
            for v in round {
                s.push(v);
            }
        }
        let sum = s.summary();
        assert_eq!(s.round_medians(), vec![11.0, 11.5, 60.0]);
        assert_eq!(sum.value, 11.5);
        assert_eq!((sum.lo, sum.hi, sum.n), (11.0, 60.0, 9));
        // The pooled mean would have read 27.5.
        assert!(sum.tail.is_none());
    }

    #[test]
    fn floor_is_the_mean_of_each_operations_best_sample() {
        // Two distinct operations (costs 10 and 20), sampled in whole
        // cycles; the second round ran entirely on a disturbed host.
        let mut s = Series::cyclic(2);
        for round in [
            [10.0, 20.0, 10.5, 22.0],
            [15.0, 30.0, 16.0, 29.0],
            [11.0, 20.5, 10.25, 21.0],
        ] {
            s.begin_round();
            for v in round {
                s.push(v);
            }
        }
        let f = s.floor(Better::Lower);
        assert_eq!(f.value, 15.0); // (10 + 20) / 2
        assert_eq!(f.rounds, vec![15.0, 22.0, 15.375]);
        // Rounds 1 and 3 alone reach the floor; round 2 alone does not.
        assert_eq!((f.lo, f.hi, f.n), (15.0, 22.0, 12));
        assert_eq!(f.median, s.summary().value);
        // Rates: the best sample is the highest.
        assert_eq!(s.floor(Better::Higher).value, (16.0 + 30.0) / 2.0);
        // An operation never sampled leaves no value.
        let mut short = Series::cyclic(3);
        short.push(1.0);
        short.push(2.0);
        assert!(short.floor(Better::Lower).value.is_nan());
    }

    #[test]
    fn empty_rounds_do_not_count() {
        let mut s = Series::default();
        s.begin_round();
        s.begin_round();
        s.push(2.0);
        assert_eq!(s.round_medians(), vec![2.0]);
        assert_eq!(s.summary().value, 2.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 90.0), 90.0);
        assert_eq!(percentile_sorted(&v, 99.9), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
    }

    #[test]
    fn scaling_keeps_the_count_and_moves_everything_else() {
        let mut s = Series::default();
        for v in [1.0, 2.0, 4.0] {
            s.begin_round();
            s.push(v);
        }
        let (a, b) = (s.summary(), s.summary().scaled(0.5));
        assert_eq!(
            (b.value, b.median, b.lo, b.hi, b.n),
            (1.0, 1.0, 0.5, 2.0, a.n)
        );
        assert_eq!(b.rounds, vec![0.5, 1.0, 2.0]);
        assert_eq!(b.rel_spread(), a.rel_spread());
    }

    #[test]
    fn rel_spread_is_the_round_range_over_the_value() {
        let mut s = Series::default();
        for v in [1.0, 2.0, 4.0] {
            s.begin_round();
            s.push(v);
        }
        assert_eq!(s.summary().rel_spread(), 1.5);
        assert_eq!(s.summary().rounds, vec![1.0, 2.0, 4.0]);
        assert_eq!(Summary::exact(3.0).rel_spread(), 0.0);
    }
}
