//! `train-paper`: paper-scale training and the post-training half of one
//! experiment replicate.
//!
//! Set-up generates `TestbedConfig::paper()` (about 429k observations),
//! splits it 50% stratified and builds a `TrainContext` for
//! `PitotConfig::paper()` with the paper's quantile objective. After one
//! warm-up checkpoint interval, a fixed budget of 50-step rounds runs
//! through `TrainContext::resume`, each ending on a checkpoint. Then
//! post-training replicates (calibration, an ε sweep with
//! `TightestOnValidation`, coverage and margin on a fixed test slice)
//! repeat until the run's time is up.

use crate::checks;
use crate::probes::{self, RefClock, Rounds};
use crate::stats::{median, peak_rss_mb};
use crate::{trace, Args, OpCount, Report};
use pitot::{Objective, PitotConfig, RuntimeBounds, ScalingBaseline, TrainContext, TrainedPitot};
use pitot_conformal::HeadSelection;
use pitot_testbed::{split::Split, Dataset, Testbed, TestbedConfig, MAX_INTERFERERS};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Untimed warm-up steps: one checkpoint interval.
const WARMUP: usize = 200;
/// Steps per timed training round. Each `resume` ends on a checkpoint, so
/// rounds shorter than the paper's 200-step interval add checkpoints (one
/// per round); they are kept short so that the host reading around each
/// round tracks the host through it.
const ROUND: usize = 50;
/// Timed rounds: the fixed step budget is `ROUNDS × ROUND`.
const ROUNDS: usize = 16;
/// Post-training replicates at least run, whatever `--seconds` says.
const MIN_REPLICATES: usize = 8;
/// Single-step probes in the traced run.
const STEP_PROBES: usize = 5;
/// Observations in the fixed test slice bounds are evaluated on.
pub const SLICE: usize = 20_000;
/// The ε sweep of one replicate, loosest first.
pub const EPSILONS: [f32; 5] = [0.10, 0.08, 0.06, 0.04, 0.02];

/// What a set-up builds.
pub struct Setup {
    /// The generated dataset.
    pub dataset: Dataset,
    /// Its 50% stratified split.
    pub split: Split,
    /// A fresh training context.
    pub ctx: TrainContext,
}

/// The paper's model: 2×128 towers, r = 32, 512 per mode, AdaMax,
/// checkpoint every 200 steps, eight quantile heads.
pub fn paper_model(seed: u64) -> PitotConfig {
    PitotConfig {
        objective: Objective::paper_quantiles(),
        ..PitotConfig::paper()
    }
    .with_seed(seed)
}

/// Generates the testbed, collects and splits its dataset, and builds the
/// training context.
pub fn setup(testbed: &TestbedConfig, seed: u64, model: &PitotConfig) -> Setup {
    let tb = trace::span("testbed.generate", || Testbed::generate(testbed));
    let dataset = trace::span("testbed.collect", || tb.collect_dataset());
    drop(tb);
    let split = Split::stratified(&dataset, 0.5, seed);
    let ctx = trace::span("core.context_new", || {
        TrainContext::new(&dataset, &split, model)
    });
    Setup {
        dataset,
        split,
        ctx,
    }
}

/// Every `len / n`-th test observation, so the slice spans every
/// interference mode.
pub fn test_slice(test: &[usize], n: usize) -> Vec<usize> {
    let stride = (test.len() / n).max(1);
    test.iter().copied().step_by(stride).take(n).collect()
}

/// Calibration observations in the smallest pool: half the validation
/// split of the rarest interference mode.
pub fn min_calibration_pool(dataset: &Dataset, split: &Split) -> usize {
    let mut per_mode = [0usize; MAX_INTERFERERS + 1];
    for &i in &split.val {
        per_mode[dataset.observations[i].interferers.len()] += 1;
    }
    per_mode
        .iter()
        .filter(|&&n| n > 0)
        .min()
        .map_or(1, |n| (n / 2).max(1))
}

/// One post-training replicate's outputs.
pub struct Replicate {
    /// `(ε, bounds, program coverage, program margin)` per sweep point.
    pub fits: Vec<(f32, RuntimeBounds, f64, f64)>,
}

/// The post-training half of an experiment replicate, each call timed on
/// `clock`.
pub fn replicate(
    trained: &TrainedPitot,
    dataset: &Dataset,
    slice: &[usize],
    clock: &mut RefClock,
) -> Replicate {
    let cal = clock.time(|| trace::span("core.calibration", || trained.calibration(dataset)));
    let fits = EPSILONS
        .iter()
        .map(|&eps| {
            let bounds = clock.time(|| {
                trace::span("conformal.sweep_fit", || {
                    cal.fit(eps, HeadSelection::TightestOnValidation)
                })
            });
            let cov = clock.time(|| {
                trace::span("core.bounds_eval", || {
                    bounds.coverage(trained, dataset, slice)
                })
            });
            let margin = clock.time(|| {
                trace::span("core.bounds_eval", || {
                    bounds.margin(trained, dataset, slice)
                })
            });
            (eps, bounds, f64::from(cov), f64::from(margin))
        })
        .collect();
    Replicate { fits }
}

/// Checks one replicate against coverage and margin recomputed here from
/// its bounds and the measured runtimes; returns the recomputed log-space
/// margin at the loosest ε (paper Eq 11 at ε = 0.1, see
/// [`checks::log_margin`]).
pub fn check_replicate(
    report: &mut Report,
    trained: &TrainedPitot,
    dataset: &Dataset,
    split: &Split,
    slice: &[usize],
    rep: &Replicate,
) -> f64 {
    let targets: Vec<f32> = slice
        .iter()
        .map(|&i| dataset.observations[i].runtime_s.ln())
        .collect();
    let n_cal = min_calibration_pool(dataset, split);
    let mut margins = Vec::new();
    let mut loosest_bounds: Vec<f32> = Vec::new();
    for (eps, bounds, cov_api, margin_api) in &rep.fits {
        let b = bounds.bounds_log(trained, dataset, slice);
        let cov = checks::coverage(&b, &targets);
        let margin = checks::margin(&b, &targets);
        report.check(
            "coverage",
            checks::coverage_holds(cov, f64::from(*eps), slice.len(), n_cal),
        );
        report.check("coverage agrees", checks::agree(cov, *cov_api, 1e-4));
        report.check(
            "margin agrees",
            checks::agree(margin, *margin_api, 1e-4 * margin.max(1.0)),
        );
        margins.push((*eps, margin));
        if loosest_bounds.is_empty() {
            loosest_bounds = b;
        }
    }
    report.check(
        "margin grows as eps shrinks",
        checks::margins_grow(&margins),
    );
    let losses: Vec<f32> = trained.history.iter().map(|p| p.val_loss).collect();
    report.check("checkpoint losses", checks::losses_finite(&losses));
    let baseline = baseline_mape(&trained.scaling, dataset, slice);
    report.check(
        "self-test",
        checks::self_test_train(
            baseline,
            &loosest_bounds,
            &targets,
            f64::from(EPSILONS[0]),
            n_cal,
            &margins,
            &losses,
        ),
    );
    checks::log_margin(&loosest_bounds, &targets)
}

/// Steps that led to a checkpoint with a non-finite validation loss.
fn failed_steps(trained: &TrainedPitot) -> u64 {
    let mut prev = 0;
    let mut failed = 0;
    for p in &trained.history {
        if !p.val_loss.is_finite() {
            failed += p.step.saturating_sub(prev) as u64;
        }
        prev = p.step;
    }
    failed
}

/// A replicate succeeded if the program gave a coverage in [0, 1] and a
/// finite margin at every ε.
fn replicate_ok(rep: &Replicate) -> bool {
    rep.fits
        .iter()
        .all(|(_, _, cov, margin)| (0.0..=1.0).contains(cov) && margin.is_finite())
}

/// MAPE of the scaling baseline alone on `idx`.
pub fn baseline_mape(scaling: &ScalingBaseline, dataset: &Dataset, idx: &[usize]) -> f64 {
    let (pred, actual): (Vec<f32>, Vec<f32>) = idx
        .iter()
        .map(|&i| {
            let o = &dataset.observations[i];
            (
                scaling
                    .log_baseline(o.workload as usize, o.platform as usize)
                    .exp(),
                o.runtime_s,
            )
        })
        .unzip();
    checks::mape(&pred, &actual)
}

/// Predicts `idx`, recomputes the MAPE here and checks it against the
/// program's formula and the scaling baseline.
pub fn model_mape(
    report: &mut Report,
    trained: &TrainedPitot,
    dataset: &Dataset,
    idx: &[usize],
) -> f64 {
    let pred = trace::span("core.predict", || trained.predict_runtime(dataset, idx));
    let actual: Vec<f32> = idx
        .iter()
        .map(|&i| dataset.observations[i].runtime_s)
        .collect();
    let ours = checks::mape(&pred, &actual);
    report.check(
        "mape agrees",
        checks::agree(ours, f64::from(pitot::mape(&pred, &actual)), 1e-4),
    );
    let baseline = baseline_mape(&trained.scaling, dataset, idx);
    report.check(
        "mape beats baseline",
        checks::mape_beats_baseline(ours, baseline),
    );
    ours
}

/// Runs the workload.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let model = paper_model(args.seed);
    let testbed = TestbedConfig::paper().with_seed(args.seed);
    let (setup_s, mut s) = probes::timed_setups(SETUPS, || setup(&testbed, args.seed, &model));
    if args.trace {
        for _ in 0..SETUPS {
            trace::span("core.scaling_fit", || {
                ScalingBaseline::fit(&s.dataset, &s.split.train)
            });
        }
    }
    trace::set_on(false);
    s.ctx.resume(&s.dataset, WARMUP);

    // The fixed step budget (odd rounds traced in the traced run).
    let start = Instant::now();
    let mut train_rounds = Rounds::default();
    for c in 0..ROUNDS {
        train_rounds.run(args.trace && c % 2 == 1, || {
            trace::span("core.train_round", || s.ctx.resume(&s.dataset, ROUND))
        });
    }
    let trained = s.ctx.finish();

    // Post-training replicates fill the rest of the run.
    let slice = test_slice(&s.split.test, SLICE);
    let mut post = Rounds::default();
    let mut first = None;
    let mut n = 0;
    let mut failed_replicates = 0;
    while n < MIN_REPLICATES || start.elapsed() < Duration::from_secs_f64(args.seconds) {
        let traced = args.trace && n % 2 == 1;
        let mut clock = RefClock::default();
        trace::set_on(traced);
        let from = trace::now_ns();
        let rep = replicate(&trained, &s.dataset, &slice, &mut clock);
        let to = trace::now_ns();
        trace::set_on(false);
        post.push(traced, clock.secs, clock.units, from, to);
        failed_replicates += u64::from(!replicate_ok(&rep));
        first.get_or_insert(rep);
        n += 1;
    }
    trace::set_on(args.trace);
    eprintln!("{}", train_rounds.describe("training rounds"));
    eprintln!("{}", post.describe("post-training replicates"));
    eprintln!(
        "as measured: {:.3} steps/s, {:.4} s per post-training replicate",
        ROUND as f64 / train_rounds.seconds(),
        post.seconds()
    );

    let mape = model_mape(&mut report, &trained, &s.dataset, &slice);
    let rep = first.expect("at least one replicate");
    let margin = check_replicate(&mut report, &trained, &s.dataset, &s.split, &slice, &rep);
    let steps = (WARMUP + ROUNDS * ROUND + usize::from(args.trace) * STEP_PROBES) as u64;
    report.ops.push(OpCount {
        kind: "steps",
        attempted: steps,
        failed: failed_steps(&trained),
    });
    report.ops.push(OpCount {
        kind: "replicates",
        attempted: n as u64,
        failed: failed_replicates,
    });

    if args.trace {
        let spans = trace::spans();
        let unattributed = probes::unattributed_frac(&[&train_rounds, &post], &spans);
        probes::step_eval(&mut s.ctx, &s.dataset, STEP_PROBES);
        probes::tower_pass(&trained, &s.dataset, 5);
        probes::core_layers(&mut report, slice.len(), ROUND);
        probes::linalg(&mut report, trained.model.param_count());
        crate::fleet::companion(&mut report, &trained, &s.dataset, &s.split, args.seed);
        report.metric("trace.unattributed_frac", unattributed, "frac");
        report.metric("trace.overhead_frac", post.overhead_frac(), "frac");
    } else {
        report.metric("setup_s", median(&setup_s), "s");
        report.metric("peak_rss_mb", peak_rss_mb(), "MB");
        report.metric(
            "ops_per_ref",
            ROUND as f64 / train_rounds.ref_units(),
            "1/ref",
        );
        report.metric("posttrain_ref", post.ref_units(), "ref");
        report.metric("mape", mape, "frac");
        report.metric("overprovision_margin", margin, "log");
    }
    report
}
