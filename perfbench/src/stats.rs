//! Order statistics over latency samples.

/// The value at percentile `pct` (0–100) by the nearest-rank rule: the
/// smallest sample with at least `pct` % of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median by the nearest-rank rule.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The median over consecutive runs of `chunk` samples (the last run may
/// be shorter) of each run's mean.
///
/// For set-up times: one set-up is short next to the seconds-long spells
/// in which a shared host runs fast or slow, so single set-ups fall into
/// two modes and their median jumps between the modes with a run's share
/// of fast time. A run's mean moves smoothly with that share, and the
/// median over runs stays robust to a lone preempted set-up.
///
/// # Panics
///
/// Panics on an empty slice or a zero `chunk`.
pub fn median_of_means(samples: &[f64], chunk: usize) -> f64 {
    let means: Vec<f64> = samples
        .chunks(chunk)
        .map(|run| run.iter().sum::<f64>() / run.len() as f64)
        .collect();
    median(&means)
}

/// How many samples lie strictly above the nearest-rank `pct` position.
pub fn samples_beyond(n: usize, pct: f64) -> usize {
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    n - rank.clamp(1, n)
}

/// Latency samples (µs) in a buffer allocated and written up front, so
/// the benchmark's own memory does not grow with the program's throughput
/// and show in `peak_rss_mb`.
pub struct Samples {
    buf: Vec<f32>,
    len: usize,
}

impl Samples {
    pub fn with_capacity(capacity: usize) -> Self {
        let mut buf = Vec::with_capacity(capacity);
        buf.resize(capacity, 0.0);
        Samples { buf, len: 0 }
    }

    /// Records one sample; false once the buffer is full.
    pub fn push(&mut self, us: f64) -> bool {
        match self.buf.get_mut(self.len) {
            Some(slot) => {
                *slot = us as f32;
                self.len += 1;
                true
            }
            None => false,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    /// The nearest-rank percentile, sorting the samples in place.
    ///
    /// # Panics
    ///
    /// Panics when no sample was recorded.
    pub fn percentile(&mut self, pct: f64) -> f64 {
        assert!(self.len > 0, "percentile of no samples");
        let samples = &mut self.buf[..self.len];
        samples.sort_unstable_by(f32::total_cmp);
        let rank = ((pct / 100.0) * self.len as f64).ceil() as usize;
        f64::from(samples[rank.clamp(1, self.len) - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        let mut samples = Samples::with_capacity(100);
        for x in xs.iter().rev() {
            assert!(samples.push(*x));
        }
        assert!(!samples.push(1.0));
        assert_eq!(samples.percentile(90.0), 90.0);
    }

    #[test]
    fn median_of_chunk_means() {
        // Means 2, 5, 8 and, for the short last chunk, 10.
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(median_of_means(&xs, 3), 5.0);
        assert_eq!(median_of_means(&xs, 1), median(&xs));
        assert_eq!(median_of_means(&xs, 100), 5.5);
        // One preempted set-up moves its chunk's mean, not the median.
        let mut ys = [1.0; 12];
        ys[4] = 1000.0;
        assert_eq!(median_of_means(&ys, 4), 1.0);
    }
}
