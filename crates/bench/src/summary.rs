//! Shared report-aggregation helpers: every figure runner, grid builder and
//! binary summarizes round reports through this one module.
//!
//! Three layers of aggregation recur across the experiments:
//!
//! * [`summarize`] — collapse a whole run into a [`ProtocolSummary`]
//!   (mean reliability / radio-on / `N_TX`),
//! * [`summary_metrics`] — convert a summary into the harness's
//!   [`TrialMetrics`] (adding the derived per-packet latency),
//! * [`bucketize`] — fold a run into fixed-size buckets of consecutive
//!   rounds (the per-minute timelines `exp` prints for `fig4c`/`fig6`).

use crate::harness::TrialMetrics;
use dimmer_core::DimmerRoundReport;

/// Aggregate statistics of a sequence of per-round reports.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolSummary {
    /// Mean per-round reliability.
    pub reliability: f64,
    /// Mean per-slot radio-on time, in milliseconds.
    pub radio_on_ms: f64,
    /// Mean `N_TX` over the run.
    pub mean_ntx: f64,
    /// Mean number of alive nodes over the run (equals the network size in
    /// a static world).
    pub mean_alive: f64,
    /// Number of rounds aggregated.
    pub rounds: usize,
}

/// Summarizes a run.
pub fn summarize(reports: &[DimmerRoundReport]) -> ProtocolSummary {
    if reports.is_empty() {
        return ProtocolSummary {
            reliability: 1.0,
            radio_on_ms: 0.0,
            mean_ntx: 0.0,
            mean_alive: 0.0,
            rounds: 0,
        };
    }
    let n = reports.len() as f64;
    ProtocolSummary {
        reliability: reports.iter().map(|r| r.reliability).sum::<f64>() / n,
        radio_on_ms: reports
            .iter()
            .map(|r| r.mean_radio_on.as_millis_f64())
            .sum::<f64>()
            / n,
        mean_ntx: reports.iter().map(|r| r.ntx as f64).sum::<f64>() / n,
        mean_alive: reports.iter().map(|r| r.alive_nodes as f64).sum::<f64>() / n,
        rounds: reports.len(),
    }
}

/// Folds a run into the labelled phases of a dynamic scenario: phase `i`
/// covers rounds `bounds[i].1 .. bounds[i + 1].1` (the last phase runs to
/// the end). Returns one `(label, summary)` pair per phase, skipping
/// phases that start beyond the run.
///
/// # Panics
///
/// Panics if `bounds` is empty or not ascending by start round.
pub fn phase_summaries(
    reports: &[DimmerRoundReport],
    bounds: &[(&str, usize)],
) -> Vec<(String, ProtocolSummary)> {
    assert!(!bounds.is_empty(), "need at least one phase");
    assert!(
        bounds.windows(2).all(|w| w[0].1 < w[1].1),
        "phase bounds must ascend"
    );
    let mut out = Vec::with_capacity(bounds.len());
    for (i, &(label, start)) in bounds.iter().enumerate() {
        if start >= reports.len() {
            break;
        }
        let end = bounds
            .get(i + 1)
            .map(|&(_, s)| s.min(reports.len()))
            .unwrap_or(reports.len());
        out.push((label.to_string(), summarize(&reports[start..end])));
    }
    out
}

/// Converts a [`ProtocolSummary`] into harness metrics.
///
/// `latency_ms` is a derived expected per-packet delivery latency under
/// round-level retransmission: with per-round delivery probability `r`, a
/// packet needs `1/r` rounds in expectation, i.e. `round_period / r`
/// (reliability is clamped to `1e-3` to keep the metric finite).
pub fn summary_metrics(s: &ProtocolSummary, round_period_ms: f64) -> TrialMetrics {
    TrialMetrics::new()
        .with("reliability", s.reliability)
        .with("radio_on_ms", s.radio_on_ms)
        .with("latency_ms", round_period_ms / s.reliability.max(1e-3))
        .with("mean_ntx", s.mean_ntx)
}

/// Mean metrics of one bucket of consecutive rounds (a row of the timeline
/// tables `exp` prints for `fig4c` and `fig6`).
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineBucket {
    /// Index of the bucket's first round.
    pub start_round: usize,
    /// Number of rounds folded into the bucket.
    pub rounds: usize,
    /// Mean reliability over the bucket.
    pub reliability: f64,
    /// Mean per-slot radio-on time, in milliseconds.
    pub radio_on_ms: f64,
    /// Mean `N_TX` over the bucket.
    pub mean_ntx: f64,
    /// Mean number of active forwarders over the bucket.
    pub mean_forwarders: f64,
}

/// Folds `reports` into buckets of `bucket` consecutive rounds (the last
/// bucket may be shorter).
///
/// # Panics
///
/// Panics if `bucket` is zero.
pub fn bucketize(reports: &[DimmerRoundReport], bucket: usize) -> Vec<TimelineBucket> {
    assert!(bucket > 0, "bucket size must be positive");
    reports
        .chunks(bucket)
        .enumerate()
        .map(|(i, chunk)| {
            let n = chunk.len() as f64;
            TimelineBucket {
                start_round: i * bucket,
                rounds: chunk.len(),
                reliability: chunk.iter().map(|r| r.reliability).sum::<f64>() / n,
                radio_on_ms: chunk
                    .iter()
                    .map(|r| r.mean_radio_on.as_millis_f64())
                    .sum::<f64>()
                    / n,
                mean_ntx: chunk.iter().map(|r| r.ntx as f64).sum::<f64>() / n,
                mean_forwarders: chunk
                    .iter()
                    .map(|r| r.active_forwarders as f64)
                    .sum::<f64>()
                    / n,
            }
        })
        .collect()
}

/// Mean number of active forwarders over a run (Fig. 6's headline metric).
pub fn mean_forwarders(reports: &[DimmerRoundReport]) -> f64 {
    if reports.is_empty() {
        return 0.0;
    }
    reports
        .iter()
        .map(|r| r.active_forwarders as f64)
        .sum::<f64>()
        / reports.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dimmer_core::RoundMode;
    use dimmer_sim::{SimDuration, SimTime};

    fn make(rel: f64, ntx: u8, forwarders: usize) -> DimmerRoundReport {
        DimmerRoundReport {
            round_index: 0,
            time: SimTime::ZERO,
            mode: RoundMode::Adaptivity,
            ntx,
            reliability: rel,
            mean_radio_on: SimDuration::from_millis(10),
            losses: 0,
            reward: 1.0,
            active_forwarders: forwarders,
            energy_joules: 1.0,
            packets_generated: 18,
            packets_delivered: 18,
            alive_nodes: 18,
        }
    }

    #[test]
    fn phase_summaries_split_on_the_boundaries() {
        let reports = vec![
            make(1.0, 2, 18),
            make(1.0, 2, 18),
            make(0.5, 6, 18),
            make(0.5, 6, 18),
            make(0.9, 3, 18),
        ];
        let phases = phase_summaries(&reports, &[("calm", 0), ("storm", 2), ("recovered", 4)]);
        assert_eq!(phases.len(), 3);
        assert_eq!(phases[0].0, "calm");
        assert_eq!(phases[0].1.rounds, 2);
        assert!((phases[0].1.reliability - 1.0).abs() < 1e-12);
        assert!((phases[1].1.reliability - 0.5).abs() < 1e-12);
        assert_eq!(phases[2].1.rounds, 1);
        assert!((phases[2].1.mean_alive - 18.0).abs() < 1e-12);
        // Phases beyond the run are skipped; the last kept phase absorbs
        // the tail.
        let short = phase_summaries(&reports[..3], &[("calm", 0), ("late", 10)]);
        assert_eq!(short.len(), 1);
        assert_eq!(short[0].1.rounds, 3);
    }

    #[test]
    #[should_panic(expected = "ascend")]
    fn phase_summaries_reject_unsorted_bounds() {
        phase_summaries(&[], &[("a", 3), ("b", 1)]);
    }

    #[test]
    fn summarize_averages_reports() {
        let s = summarize(&[make(1.0, 3, 18), make(0.5, 5, 18)]);
        assert!((s.reliability - 0.75).abs() < 1e-9);
        assert!((s.mean_ntx - 4.0).abs() < 1e-9);
        assert_eq!(s.rounds, 2);
        assert!((s.radio_on_ms - 10.0).abs() < 1e-9);
        assert_eq!(summarize(&[]).rounds, 0);
    }

    #[test]
    fn summary_metrics_derives_latency() {
        let s = summarize(&[make(0.5, 3, 18)]);
        let m = summary_metrics(&s, 4000.0);
        let get = |name: &str| {
            m.entries()
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert!((get("latency_ms") - 8000.0).abs() < 1e-9);
        assert!((get("reliability") - 0.5).abs() < 1e-9);
        assert!((get("mean_ntx") - 3.0).abs() < 1e-9);
    }

    #[test]
    fn bucketize_folds_consecutive_rounds() {
        let reports = vec![
            make(1.0, 2, 18),
            make(0.5, 4, 18),
            make(0.0, 6, 14),
            make(1.0, 8, 10),
            make(0.8, 1, 12),
        ];
        let buckets = bucketize(&reports, 2);
        assert_eq!(buckets.len(), 3);
        assert_eq!(buckets[0].start_round, 0);
        assert_eq!(buckets[0].rounds, 2);
        assert!((buckets[0].reliability - 0.75).abs() < 1e-9);
        assert!((buckets[1].mean_ntx - 7.0).abs() < 1e-9);
        assert!((buckets[1].mean_forwarders - 12.0).abs() < 1e-9);
        assert_eq!(buckets[2].rounds, 1);
        assert_eq!(buckets[2].start_round, 4);
    }

    #[test]
    #[should_panic(expected = "bucket size")]
    fn zero_bucket_is_rejected() {
        bucketize(&[], 0);
    }

    #[test]
    fn mean_forwarders_handles_empty_runs() {
        assert_eq!(mean_forwarders(&[]), 0.0);
        assert!((mean_forwarders(&[make(1.0, 3, 18), make(1.0, 3, 10)]) - 14.0).abs() < 1e-9);
    }
}
