//! Latency summaries and operation tallies.

/// The median of `v` (mean of the middle pair for even lengths); 0 when
/// empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// How many samples must lie strictly beyond the tail value.
pub const TAIL_BEYOND: usize = 10;

/// A tail latency: the highest percentile that still has
/// [`TAIL_BEYOND`] samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// The percentile `value` sits at: `100 · (n − 10) / n`.
    pub percentile: f64,
    /// Samples the tail was taken over.
    pub samples: usize,
}

/// The tail of `v`: its 11th-largest sample, which has exactly ten
/// samples beyond it. `None` with fewer than eleven samples — no
/// percentile then has ten samples beyond it.
pub fn tail(v: &[f64]) -> Option<Tail> {
    let n = v.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    Some(Tail {
        value: s[n - 1 - TAIL_BEYOND],
        percentile: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        samples: n,
    })
}

/// How one attempted operation ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ending {
    /// A result came back.
    Done,
    /// The program answered with an `error` event (or a job error).
    Error,
    /// The daemon shed the job at admission (`overloaded`).
    Shed,
    /// No answer within the client's read timeout.
    TimedOut,
}

/// Attempted operations by how they ended.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub done: u64,
    pub errors: u64,
    pub shed: u64,
    pub timed_out: u64,
}

impl Tally {
    pub fn record(&mut self, ending: Ending) {
        match ending {
            Ending::Done => self.done += 1,
            Ending::Error => self.errors += 1,
            Ending::Shed => self.shed += 1,
            Ending::TimedOut => self.timed_out += 1,
        }
    }

    pub fn merge(&mut self, other: &Tally) {
        self.done += other.done;
        self.errors += other.errors;
        self.shed += other.shed;
        self.timed_out += other.timed_out;
    }

    pub fn attempted(&self) -> u64 {
        self.done + self.failed()
    }

    /// Operations that ended in an error, were shed, or timed out.
    pub fn failed(&self) -> u64 {
        self.errors + self.shed + self.timed_out
    }

    pub fn failed_share(&self) -> f64 {
        match self.attempted() {
            0 => 0.0,
            n => self.failed() as f64 / n as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1..=100: the 11th largest is 90, with 91..=100 beyond it.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 100);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
        // 40 samples: p75, still ten beyond.
        let v: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.value, t.percentile, t.samples), (30.0, 75.0, 40));
    }

    #[test]
    fn tail_needs_eleven_samples() {
        assert_eq!(tail(&[1.0; 10]), None);
        let t = tail(&[5.0; 11]).unwrap();
        assert_eq!((t.value, t.samples), (5.0, 11));
    }

    #[test]
    fn failures_and_sheds_count_against_attempts() {
        let mut t = Tally::default();
        for e in [
            Ending::Done,
            Ending::Done,
            Ending::Error,
            Ending::Shed,
            Ending::Shed,
            Ending::TimedOut,
            Ending::Done,
            Ending::Done,
        ] {
            t.record(e);
        }
        assert_eq!(t.attempted(), 8);
        assert_eq!(t.failed(), 4);
        assert_eq!(t.failed_share(), 0.5);
        let mut sum = Tally::default();
        sum.merge(&t);
        sum.merge(&t);
        assert_eq!((sum.attempted(), sum.failed(), sum.shed), (16, 8, 4));
        assert_eq!(Tally::default().failed_share(), 0.0);
    }
}
