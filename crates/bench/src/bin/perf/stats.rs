//! Percentiles, means and the `/metrics` text the per-layer numbers
//! are read from.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it. 0 for an
/// empty slice, so a workload that never issues an operation reports 0
/// for it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

pub fn median(values: Vec<f64>) -> f64 {
    percentile(&sorted(values), 50.0)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Every sample of metric `name` in a Prometheus text exposition, one
/// per label set (a router's `/metrics` carries one per worker).
/// Exemplar comments after the value are ignored.
pub fn metric_values(text: &str, name: &str) -> Vec<f64> {
    text.lines()
        .filter_map(|line| {
            let rest = line.strip_prefix(name)?;
            let rest = match rest.strip_prefix('{') {
                Some(labelled) => labelled.split_once('}')?.1,
                None => rest,
            };
            rest.strip_prefix(' ')?.split(' ').next()?.parse().ok()
        })
        .collect()
}

/// `name` summed over its label sets; 0 when absent.
pub fn metric_sum(text: &str, name: &str) -> f64 {
    metric_values(text, name).iter().sum()
}

/// Mean of histogram `name` (Prometheus spelling, without `_sum`)
/// over the interval between two scrapes, from its exact `_sum` and
/// `_count` series. 0 when nothing was recorded in between.
pub fn histogram_mean_between(before: &str, after: &str, name: &str) -> f64 {
    let delta = |suffix: &str| {
        let series = format!("{name}{suffix}");
        metric_sum(after, &series) - metric_sum(before, &series)
    };
    let count = delta("_count");
    if count <= 0.0 {
        return 0.0;
    }
    delta("_sum") / count
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picks_nearest_rank() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 95.0), 10.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&twenty, 95.0), 19.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
    }

    const SINGLE: &str = "# TYPE orex_server_query_us histogram\n\
orex_server_query_us_bucket{le=\"65536\"} 1 # {trace_id=\"15\"} 49009.472\n\
orex_server_query_us_sum 49009.5\n\
orex_server_query_us_count 1\n\
orex_server_sessions_live 7\n";
    const FLEET: &str = "orex_router_requests 32\n\
orex_server_query_us_sum{worker=\"0\"} 100 # {trace_id=\"1\"} 3\n\
orex_server_query_us_count{worker=\"0\"} 2\n\
orex_server_query_us_sum{worker=\"1\"} 50.5\n\
orex_server_query_us_count{worker=\"1\"} 1\n\
orex_server_sessions_live{worker=\"0\"} 6\n\
orex_server_sessions_live{worker=\"1\"} 9\n";

    #[test]
    fn reads_plain_and_labelled_series() {
        assert_eq!(metric_values(SINGLE, "orex_server_sessions_live"), [7.0]);
        assert_eq!(
            metric_values(FLEET, "orex_server_sessions_live"),
            [6.0, 9.0]
        );
        assert_eq!(metric_sum(FLEET, "orex_server_query_us_sum"), 150.5);
        // A name that is a prefix of another series must not match it.
        assert_eq!(metric_sum(SINGLE, "orex_server_query_us"), 0.0);
        assert_eq!(metric_sum(SINGLE, "orex_absent"), 0.0);
    }

    #[test]
    fn histogram_mean_uses_the_interval_only() {
        let after = "orex_server_query_us_sum 50009.5\norex_server_query_us_count 3\n";
        assert_eq!(
            histogram_mean_between(SINGLE, after, "orex_server_query_us"),
            500.0
        );
        assert_eq!(
            histogram_mean_between(SINGLE, SINGLE, "orex_server_query_us"),
            0.0
        );
    }
}
