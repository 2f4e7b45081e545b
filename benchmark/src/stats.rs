//! Sample statistics and the regression-bound logic of `--compare`.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so a spread computed here is the number
//! an outside reviewer gets from the same values.

/// Median of `values` (mean of the two middle values on an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// The `p`-quantile of `values`, linearly interpolated between order
/// statistics (`p` = 0 the minimum, 1 the maximum).
pub fn quantile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
}

/// The 10th percentile: what a run reports for a time.
///
/// On a shared host interference only ever adds time, in bursts that last
/// seconds, so the slow side of a run's samples says how busy the
/// neighbours were and the fast side says what the program costs. Over ten
/// runs of one commit the median of the samples moved by 10–20 %, their
/// fast decile by 1–5 %; the minimum is worse again, being one sample's
/// calibration error.
pub fn fast_decile(values: &[f64]) -> f64 {
    quantile(values, 0.10)
}

/// First and third quartile; a single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld == 1 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median — the spread every bound
/// is judged against.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// How far a metric may worsen before `--compare` calls it a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    /// Share of the first median.
    pub rel: f64,
    /// A difference (or a spread) below this many units never counts;
    /// only `setup_s` has one, because its small absolute values make a
    /// relative bound alone meaningless.
    pub abs_floor: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Better,
    /// The run-to-run spread of either side is wider than the bound, so
    /// the comparison cannot tell `same` from `worse`.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: the median over its runs and their spread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub median: f64,
    pub spread: f64,
}

/// Signed relative change from `a` to `b`, positive when `b` is worse.
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    let rel = if a == 0.0 { 0.0 } else { (b - a) / a.abs() };
    match better {
        Better::Lower => rel,
        Better::Higher => -rel,
    }
}

/// Judges `b` against `a` under `bound`.
pub fn verdict(a: Side, b: Side, better: Better, bound: Bound) -> Verdict {
    let noisy = |s: Side| s.spread > bound.rel && s.spread * s.median.abs() > bound.abs_floor;
    if noisy(a) || noisy(b) {
        return Verdict::Unresolved;
    }
    let worse_by = worsening(a.median, b.median, better);
    if (b.median - a.median).abs() <= bound.abs_floor {
        return Verdict::Same;
    }
    if worse_by > bound.rel {
        Verdict::Worse
    } else if worse_by < -bound.rel {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// `error_frac` has no tolerance: any increase is a regression.
pub fn error_verdict(a: f64, b: f64) -> Verdict {
    if b > a {
        Verdict::Worse
    } else if b < a {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_constant_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0; 6]), 7.0);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert!((fast_decile(&v) - 1.4).abs() < 1e-12);
        assert_eq!(fast_decile(&[7.0]), 7.0);
        // Eleven samples: the decile is the second fastest exactly.
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        assert_eq!(fast_decile(&eleven), 1.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
    }

    #[test]
    fn spread_is_zero_on_constant_samples() {
        assert_eq!(spread(&[2.0; 9]), 0.0);
        assert_eq!(spread(&[2.0]), 0.0);
        assert!((spread(&[1.0, 2.0, 3.0, 4.0, 5.0]) - 1.0).abs() < 1e-12);
    }

    const TEN: Bound = Bound {
        rel: 0.10,
        abs_floor: 0.0,
    };
    const SETUP: Bound = Bound {
        rel: 0.25,
        abs_floor: 0.25,
    };

    fn side(median: f64, spread: f64) -> Side {
        Side { median, spread }
    }

    #[test]
    fn bound_separates_same_worse_and_better_in_both_directions() {
        let v = |a, b, better| verdict(side(a, 0.01), side(b, 0.01), better, TEN);
        assert_eq!(v(1.0, 1.09, Better::Lower), Verdict::Same);
        assert_eq!(v(1.0, 1.11, Better::Lower), Verdict::Worse);
        assert_eq!(v(1.0, 0.85, Better::Lower), Verdict::Better);
        assert_eq!(v(100.0, 89.0, Better::Higher), Verdict::Worse);
        assert_eq!(v(100.0, 120.0, Better::Higher), Verdict::Better);
        assert_eq!(v(100.0, 95.0, Better::Higher), Verdict::Same);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_not_a_pass() {
        assert_eq!(
            verdict(side(1.0, 0.12), side(1.0, 0.01), Better::Lower, TEN),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(side(1.0, 0.01), side(1.5, 0.2), Better::Lower, TEN),
            Verdict::Unresolved
        );
    }

    #[test]
    fn setup_needs_both_the_relative_and_the_absolute_excess() {
        // +100 % but only 0.1 s: under the floor.
        assert_eq!(
            verdict(side(0.1, 0.0), side(0.2, 0.0), Better::Lower, SETUP),
            Verdict::Same
        );
        // +0.3 s but only +15 %.
        assert_eq!(
            verdict(side(2.0, 0.0), side(2.3, 0.0), Better::Lower, SETUP),
            Verdict::Same
        );
        // Both.
        assert_eq!(
            verdict(side(1.0, 0.0), side(1.4, 0.0), Better::Lower, SETUP),
            Verdict::Worse
        );
        // A 40 % spread on a 50 ms set-up is 20 ms of noise: still resolved.
        assert_eq!(
            verdict(side(0.05, 0.4), side(0.05, 0.4), Better::Lower, SETUP),
            Verdict::Same
        );
        // The same spread on a 2 s set-up is not.
        assert_eq!(
            verdict(side(2.0, 0.4), side(2.0, 0.1), Better::Lower, SETUP),
            Verdict::Unresolved
        );
    }

    #[test]
    fn any_increase_of_the_error_fraction_is_worse() {
        assert_eq!(error_verdict(0.0, 0.0), Verdict::Same);
        assert_eq!(error_verdict(0.0, 1e-6), Verdict::Worse);
        assert_eq!(error_verdict(0.5, 0.0), Verdict::Better);
    }
}
