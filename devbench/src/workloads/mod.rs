//! The four workloads and the name each is run by.

mod churn;
mod fleet;
mod l3;
mod trial;

use crate::net::Sizes;
use crate::run::{self, Outcome};

/// Workload names, as `--workload` takes them.
pub const NAMES: &[&str] = &[
    "l3-forward",
    "sharded-churn",
    "insitu-trial",
    "fleet-rollout",
];

/// Runs workload `name`.
pub fn run(
    name: &str,
    sizes: Sizes,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Outcome, String> {
    match name {
        "l3-forward" => run::run::<l3::L3Forward>(sizes, seed, seconds, trace),
        "sharded-churn" => run::run::<churn::ShardedChurn>(sizes, seed, seconds, trace),
        "insitu-trial" => run::run::<trial::InsituTrial>(sizes, seed, seconds, trace),
        "fleet-rollout" => run::run::<fleet::FleetRollout>(sizes, seed, seconds, trace),
        _ => Err(format!(
            "unknown workload `{name}` (one of {})",
            NAMES.join(", ")
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::TINY;
    use crate::report::{Report, END_TO_END, PER_LAYER};

    /// A tiny-size run of `name`, untraced then traced: every output check
    /// passes (known defects aside), every end-to-end metric is positive,
    /// and the traced run records spans and every per-layer metric.
    fn tiny(name: &str) {
        let o = run(name, TINY, 7, 0.05, false).expect("untraced tiny run");
        assert!(o.tally.correct(), "{name}: {:?}", o.tally.unexpected);
        assert!(o.tally.attempted > 0);
        let rep = Report::new(name, 7, false, &o);
        let line = rep.result_json();
        for (metric, _) in END_TO_END {
            assert!(
                line.contains(&format!("\"{metric}\":")),
                "{name}: {metric} missing"
            );
        }
        assert!(
            !line.contains("\"value\":0,"),
            "{name}: an end-to-end metric is 0: {line}"
        );

        let o = run(name, TINY, 7, 0.1, true).expect("traced tiny run");
        assert!(o.tally.correct(), "{name}: {:?}", o.tally.unexpected);
        assert!(!o.tracer.spans().is_empty(), "{name}: no spans");
        let line = Report::new(name, 7, true, &o).result_json();
        for (metric, _) in PER_LAYER {
            assert!(
                line.contains(&format!("\"{metric}\":")),
                "{name}: {metric} missing"
            );
        }
    }

    #[test]
    fn l3_forward_tiny() {
        tiny("l3-forward");
    }

    #[test]
    fn sharded_churn_tiny() {
        tiny("sharded-churn");
    }

    #[test]
    fn insitu_trial_tiny() {
        tiny("insitu-trial");
    }

    #[test]
    fn fleet_rollout_tiny() {
        tiny("fleet-rollout");
    }

    #[test]
    fn unknown_workload_is_refused() {
        assert!(run("nope", TINY, 1, 0.01, false).is_err());
    }
}
