//! Output checks, computed here from the program's raw outputs and the
//! generated inputs rather than taken from the program's own summaries.
//!
//! Each check is a pure function, so the self-tests
//! ([`self_test_train`], [`self_test_fleet`]) can feed it a
//! known-wrong input and confirm that it fails.

use pitot_serve::{AdmissionDecision, ShedReason, TraceEvent, TraceOutcome};
use std::collections::HashMap;

/// A check outcome: `Err` carries what was wrong.
pub type Check = Result<(), String>;

/// Mean absolute percentage error of predicted against measured runtimes.
pub fn mape(pred_s: &[f32], actual_s: &[f32]) -> f64 {
    assert_eq!(pred_s.len(), actual_s.len());
    let sum: f64 = pred_s
        .iter()
        .zip(actual_s)
        .map(|(&p, &a)| ((f64::from(p) - f64::from(a)) / f64::from(a)).abs())
        .sum();
    sum / pred_s.len() as f64
}

/// Fraction of targets at or below their bound (log space).
pub fn coverage(bounds_log: &[f32], targets_log: &[f32]) -> f64 {
    assert_eq!(bounds_log.len(), targets_log.len());
    let covered = bounds_log
        .iter()
        .zip(targets_log)
        .filter(|(b, t)| t <= b)
        .count();
    covered as f64 / bounds_log.len() as f64
}

/// Overprovisioning margin, paper Eq 11: `E[max(C̃ − C*, 0) / C*]`.
pub fn margin(bounds_log: &[f32], targets_log: &[f32]) -> f64 {
    assert_eq!(bounds_log.len(), targets_log.len());
    let sum: f64 = bounds_log
        .iter()
        .zip(targets_log)
        .map(|(&b, &t)| (f64::from(b - t).exp() - 1.0).max(0.0))
        .sum();
    sum / bounds_log.len() as f64
}

/// Overprovisioning in log space, `E[max(log C̃ − log C*, 0)]`: paper
/// Eq 11's excess measured as a log ratio, so that a few very loose bounds
/// do not dominate the mean.
pub fn log_margin(bounds_log: &[f32], targets_log: &[f32]) -> f64 {
    assert_eq!(bounds_log.len(), targets_log.len());
    let sum: f64 = bounds_log
        .iter()
        .zip(targets_log)
        .map(|(&b, &t)| f64::from(b - t).max(0.0))
        .sum();
    sum / bounds_log.len() as f64
}

/// The model must predict better than the scaling baseline alone.
pub fn mape_beats_baseline(model: f64, baseline: f64) -> Check {
    if model.is_finite() && model < baseline {
        Ok(())
    } else {
        Err(format!(
            "model MAPE {model:.4} does not beat baseline {baseline:.4}"
        ))
    }
}

/// Coverage must reach `1 − ε` minus binomial slack: three standard errors
/// of the test-set and calibration-set proportions, plus the `1/(n+1)`
/// finite-sample term of split conformal.
pub fn coverage_holds(cov: f64, eps: f64, n_test: usize, n_cal: usize) -> Check {
    let var = eps * (1.0 - eps) * (1.0 / n_test as f64 + 1.0 / n_cal as f64);
    let floor = 1.0 - eps - 3.0 * var.sqrt() - 1.0 / (n_cal as f64 + 1.0);
    if cov >= floor {
        Ok(())
    } else {
        Err(format!(
            "coverage {cov:.4} at eps {eps} is below {floor:.4}"
        ))
    }
}

/// Margins, listed by decreasing ε, must grow strictly.
pub fn margins_grow(margins: &[(f32, f64)]) -> Check {
    for w in margins.windows(2) {
        if !(w[0].0 > w[1].0 && w[1].1 > w[0].1) {
            return Err(format!(
                "margin {:.4} at eps {} does not exceed {:.4} at eps {}",
                w[1].1, w[1].0, w[0].1, w[0].0
            ));
        }
    }
    Ok(())
}

/// Every checkpoint's validation loss must be finite.
pub fn losses_finite(losses: &[f32]) -> Check {
    match losses.iter().position(|l| !l.is_finite()) {
        None if !losses.is_empty() => Ok(()),
        None => Err("no checkpoint was evaluated".into()),
        Some(i) => Err(format!("checkpoint {i} has loss {}", losses[i])),
    }
}

/// Two computations of one quantity must agree to `tol`.
pub fn agree(ours: f64, theirs: f64, tol: f64) -> Check {
    if (ours - theirs).abs() <= tol {
        Ok(())
    } else {
        Err(format!("recomputed {ours} against the program's {theirs}"))
    }
}

/// Running totals over a fleet's observation feedback.
#[derive(Debug, Clone, Copy, Default)]
pub struct FeedbackTally {
    /// Observations judged.
    pub judged: u64,
    /// Of those, covered by their bound (recomputed here).
    pub covered: u64,
    /// Sum of log-space overprovisioning terms (see [`log_margin`]).
    pub log_margin_sum: f64,
    /// Observations whose feedback was missing or wrong (not judged).
    pub failed: u64,
}

impl FeedbackTally {
    /// Recomputed coverage.
    pub fn coverage(&self) -> f64 {
        self.covered as f64 / self.judged as f64
    }

    /// Recomputed log-space overprovisioning margin.
    pub fn log_margin(&self) -> f64 {
        self.log_margin_sum / self.judged as f64
    }

    /// Adds another tally.
    pub fn add(&mut self, other: &Self) {
        self.judged += other.judged;
        self.covered += other.covered;
        self.log_margin_sum += other.log_margin_sum;
        self.failed += other.failed;
    }
}

/// Every observation must get feedback whose target is the observation's
/// own log runtime and whose `covered` flag agrees with its bound. Coverage
/// and log margin are tallied from `bound_log` against `target_log`; an
/// observation whose feedback is missing or wrong counts as failed, and
/// the check reports the first.
pub fn feedback(
    events: &[TraceEvent],
    outcomes: &[TraceOutcome],
    tally: &mut FeedbackTally,
) -> Check {
    if events.len() != outcomes.len() {
        return Err(format!(
            "{} events but {} outcomes",
            events.len(),
            outcomes.len()
        ));
    }
    let mut first = None;
    for (i, (ev, out)) in events.iter().zip(outcomes).enumerate() {
        let TraceEvent::Observe(obs) = ev else {
            continue;
        };
        let target = obs.runtime_s.ln();
        let judged = match out {
            TraceOutcome::Observed {
                feedback: Some(fb), ..
            } if fb.target_log.to_bits() == target.to_bits()
                && fb.covered == (target <= fb.bound_log)
                && fb.bound_log.is_finite() =>
            {
                Ok(fb.bound_log)
            }
            _ => Err(format!(
                "event {i}: observation of runtime {} answered with {out:?}",
                obs.runtime_s
            )),
        };
        match judged {
            Ok(bound) => {
                tally.judged += 1;
                tally.covered += u64::from(target <= bound);
                tally.log_margin_sum += f64::from(bound - target).max(0.0);
            }
            Err(e) => {
                tally.failed += 1;
                first.get_or_insert(e);
            }
        }
    }
    first.map_or(Ok(()), Err)
}

/// An independent model of admission control: admit iff the backlog has
/// room and `bound + slack ≤ deadline` (the queue-wait term is off).
#[derive(Debug, Clone)]
pub struct AdmissionModel {
    slack_s: f64,
    max_backlog: usize,
    backlog: usize,
    decided: HashMap<u64, bool>,
    /// Queries decided otherwise than the model decides, or shed because
    /// the backlog was full.
    pub failed_queries: u64,
    /// Resolves that found no pending decision, or answered otherwise
    /// than the model.
    pub failed_resolves: u64,
}

impl AdmissionModel {
    /// A model of an empty queue.
    pub fn new(slack_s: f64, max_backlog: usize) -> Self {
        Self {
            slack_s,
            max_backlog,
            backlog: 0,
            decided: HashMap::new(),
            failed_queries: 0,
            failed_resolves: 0,
        }
    }

    /// Recomputes every decision and resolve of one batch. The model
    /// follows its own decisions; each disagreement counts as a failed
    /// query or resolve, and the check reports the first.
    pub fn replay(&mut self, events: &[TraceEvent], outcomes: &[TraceOutcome]) -> Check {
        let mut first = None;
        for (i, (ev, out)) in events.iter().zip(outcomes).enumerate() {
            match (ev, out) {
                (TraceEvent::Deadline(q), TraceOutcome::Decided(d)) => {
                    let bound = f64::from(d.prediction.bound_s);
                    let expected = if self.backlog >= self.max_backlog {
                        AdmissionDecision::Shed(ShedReason::QueueFull)
                    } else if bound + self.slack_s > q.deadline_s {
                        AdmissionDecision::Shed(ShedReason::DeadlineInfeasible)
                    } else {
                        AdmissionDecision::Admit
                    };
                    if d.id != q.id || d.decision != expected {
                        first.get_or_insert(format!(
                            "event {i}: query {} decided {:?}, expected {expected:?} (bound {bound}, deadline {})",
                            q.id, d.decision, q.deadline_s
                        ));
                        self.failed_queries += 1;
                    } else if expected == AdmissionDecision::Shed(ShedReason::QueueFull) {
                        self.failed_queries += 1;
                    }
                    let admitted = expected.admitted();
                    self.backlog += usize::from(admitted);
                    self.decided.insert(q.id, admitted);
                }
                (TraceEvent::Resolve { id, .. }, TraceOutcome::Resolved(r)) => {
                    let expected = self.decided.remove(id);
                    if *r != expected {
                        first.get_or_insert(format!(
                            "event {i}: resolve {id} gave {r:?}, expected {expected:?}"
                        ));
                        self.failed_resolves += 1;
                    } else if expected.is_none() {
                        self.failed_resolves += 1;
                    }
                    if expected == Some(true) {
                        self.backlog -= 1;
                    }
                }
                (TraceEvent::Observe(_), TraceOutcome::Observed { .. }) => {}
                _ => {
                    first.get_or_insert(format!(
                        "event {i}: outcome {out:?} does not match its event"
                    ));
                    match ev {
                        TraceEvent::Deadline(_) => self.failed_queries += 1,
                        TraceEvent::Resolve { .. } => self.failed_resolves += 1,
                        TraceEvent::Observe(_) => {}
                    }
                }
            }
        }
        first.map_or(Ok(()), Err)
    }
}

/// A fleet merges once at seeding and once per `merge_every` observations,
/// and installs every merge.
pub fn merges(merges: usize, skipped: usize, observations: u64, merge_every: usize) -> Check {
    let expected = observations as usize / merge_every + 1;
    if merges == expected && skipped == 0 {
        Ok(())
    } else {
        Err(format!(
            "{merges} merges and {skipped} skipped installs after {observations} observations, expected {expected} and 0"
        ))
    }
}

/// The concurrent runtime and its simulated twin must agree outcome for
/// outcome.
pub fn twin_equal(concurrent: &[TraceOutcome], simulated: &[TraceOutcome]) -> Check {
    if concurrent.len() != simulated.len() {
        return Err(format!(
            "{} outcomes against {}",
            concurrent.len(),
            simulated.len()
        ));
    }
    match concurrent.iter().zip(simulated).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(i) => Err(format!(
            "event {i}: {:?} against twin {:?}",
            concurrent[i], simulated[i]
        )),
    }
}

/// Fails unless `result` is a failure: a check that accepts a known-wrong
/// input checks nothing.
pub fn must_fail(what: &str, result: Check) -> Check {
    match result {
        Err(_) => Ok(()),
        Ok(()) => Err(format!("the check accepted a known-wrong input: {what}")),
    }
}

/// Self-test of the fleet checks on one real batch: a bound shifted down,
/// a decision flipped, a lost feedback, a miscounted merge and a perturbed
/// twin outcome must each be caught, and the lost feedback and the flipped
/// decision must each count as one failed operation.
pub fn self_test_fleet(
    events: &[TraceEvent],
    outcomes: &[TraceOutcome],
    admission: &AdmissionModel,
    eps: f64,
    n_cal: usize,
    merge_state: (usize, u64, usize),
) -> Check {
    // Bounds shifted down by a factor e²: coverage collapses.
    let mut shifted = outcomes.to_vec();
    for o in &mut shifted {
        if let TraceOutcome::Observed {
            feedback: Some(fb), ..
        } = o
        {
            fb.bound_log -= 2.0;
            fb.covered = fb.target_log <= fb.bound_log;
        }
    }
    let mut tally = FeedbackTally::default();
    feedback(events, &shifted, &mut tally)?;
    must_fail(
        "bounds shifted down",
        coverage_holds(tally.coverage(), eps, tally.judged as usize, n_cal),
    )?;

    // A covered flag that disagrees with its bound, and a lost feedback.
    let first_obs = outcomes
        .iter()
        .position(|o| {
            matches!(
                o,
                TraceOutcome::Observed {
                    feedback: Some(_),
                    ..
                }
            )
        })
        .ok_or("batch holds no observation")?;
    let mut flipped = outcomes.to_vec();
    if let TraceOutcome::Observed {
        feedback: Some(fb), ..
    } = &mut flipped[first_obs]
    {
        fb.covered = !fb.covered;
    }
    must_fail(
        "covered flag flipped",
        feedback(events, &flipped, &mut FeedbackTally::default()),
    )?;
    let mut lost = outcomes.to_vec();
    if let TraceOutcome::Observed { feedback, .. } = &mut lost[first_obs] {
        *feedback = None;
    }
    let mut tally = FeedbackTally::default();
    must_fail("feedback lost", feedback(events, &lost, &mut tally))?;
    if tally.failed != 1 {
        return Err(format!(
            "one lost feedback counted as {} failed observations",
            tally.failed
        ));
    }
    must_fail("twin outcome perturbed", twin_equal(outcomes, &flipped))?;

    // An admission decision flipped (only batches with queries have one).
    if let Some(q) = outcomes
        .iter()
        .position(|o| matches!(o, TraceOutcome::Decided(_)))
    {
        let mut flipped = outcomes.to_vec();
        if let TraceOutcome::Decided(d) = &mut flipped[q] {
            d.decision = if d.decision.admitted() {
                AdmissionDecision::Shed(ShedReason::DeadlineInfeasible)
            } else {
                AdmissionDecision::Admit
            };
        }
        let mut model = admission.clone();
        must_fail("admission decision flipped", model.replay(events, &flipped))?;
        let counted = model.failed_queries - admission.failed_queries;
        if counted != 1 {
            return Err(format!(
                "one flipped decision counted as {counted} failed queries"
            ));
        }
    }

    let (merges_seen, observations, merge_every) = merge_state;
    must_fail(
        "one merge too many",
        merges(merges_seen + 1, 0, observations, merge_every),
    )?;
    must_fail(
        "a skipped install",
        merges(merges_seen, 1, observations, merge_every),
    )
}

/// Self-test of the training checks on real outputs: the baseline's MAPE
/// passed off as the model's, bounds shifted down, margins reversed and a
/// diverged checkpoint must each be caught.
pub fn self_test_train(
    baseline_mape: f64,
    bounds_log: &[f32],
    targets_log: &[f32],
    eps: f64,
    n_cal: usize,
    margins: &[(f32, f64)],
    losses: &[f32],
) -> Check {
    must_fail(
        "baseline MAPE as the model's",
        mape_beats_baseline(baseline_mape, baseline_mape),
    )?;
    let shifted: Vec<f32> = bounds_log.iter().map(|b| b - 2.0).collect();
    must_fail(
        "bounds shifted down",
        coverage_holds(
            coverage(&shifted, targets_log),
            eps,
            targets_log.len(),
            n_cal,
        ),
    )?;
    let reversed: Vec<(f32, f64)> = margins
        .iter()
        .zip(margins.iter().rev())
        .map(|(&(e, _), &(_, m))| (e, m))
        .collect();
    must_fail("margins reversed", margins_grow(&reversed))?;
    let mut diverged = losses.to_vec();
    diverged.push(f32::NAN);
    must_fail("a NaN checkpoint loss", losses_finite(&diverged))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_and_margin_match_hand_computation() {
        let b = [0.0f32, 1.0, 2.0f32.ln()];
        let t = [0.0f32, 2.0, 0.0];
        assert!((coverage(&b, &t) - 2.0 / 3.0).abs() < 1e-12);
        assert!((margin(&b, &t) - 1.0 / 3.0).abs() < 1e-6);
        assert!((log_margin(&b, &t) - 2.0f64.ln() / 3.0).abs() < 1e-6);
        assert!((mape(&[1.5, 1.0], &[1.0, 2.0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn training_checks_reject_known_wrong_inputs() {
        assert!(mape_beats_baseline(0.2, 0.43).is_ok());
        assert!(mape_beats_baseline(0.43, 0.43).is_err());
        assert!(coverage_holds(0.90, 0.1, 20_000, 5_000).is_ok());
        assert!(coverage_holds(0.85, 0.1, 20_000, 5_000).is_err());
        assert!(margins_grow(&[(0.1, 0.1), (0.05, 0.2)]).is_ok());
        assert!(margins_grow(&[(0.1, 0.2), (0.05, 0.1)]).is_err());
        assert!(losses_finite(&[1.0, f32::INFINITY]).is_err());
        assert!(must_fail("x", Ok(())).is_err());
    }

    #[test]
    fn merge_count_follows_the_cadence() {
        assert!(merges(33, 0, 1024, 32).is_ok());
        assert!(merges(33, 0, 1055, 32).is_ok());
        assert!(merges(34, 0, 1024, 32).is_err());
        assert!(merges(33, 1, 1024, 32).is_err());
    }
}
