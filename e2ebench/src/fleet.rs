//! `fleet-ingest` and `fleet-query`: a 4-replica `ConcurrentFleet`, run
//! inline on one thread, serving a briefly trained paper-architecture
//! quantile model on `TestbedConfig::medium()`.
//!
//! The model is trained once, untimed (600 steps, three checkpoint
//! intervals). Each timed set-up generates the testbed, builds the training
//! context, builds the fleet (`ServeConfig::at(0.1)`, window 256,
//! `NaiveXi`, default admission) and seeds it from the validation split.
//! The trace cycles the seed-shuffled test split and is generated batch by
//! batch, fed through `run_trace` in fixed-size batches. A round is 1024 observations; rounds repeat until
//! the run's time is up.
//!
//! - `fleet-ingest` sends observations only and merges every 32.
//! - `fleet-query` repeats three deadline queries (deadline = realized
//!   runtime × U(0.75, 3.0)), one observation and the three resolves, and
//!   merges every 1024 observations.
//!
//! In the traced run, merge stages are timed on a `FleetServer` twin fed
//! the same trace (the concurrent fleet exposes no replica windows); the
//! twin property makes its windows bitwise-equal.

use crate::checks::{self, AdmissionModel, FeedbackTally};
use crate::probes::{self, RefClock, Rounds};
use crate::stats::{median, peak_rss_mb, sample_threads};
use crate::train_paper::{self, model_mape, paper_model, test_slice, SLICE};
use crate::{trace, Args, OpCount, Report};
use pitot::{ScalingBaseline, TrainContext, TrainedPitot};
use pitot_conformal::{HeadSelection, MergeableWindow, PooledConformal, PredictionSet};
use pitot_serve::{
    run_trace_simulated, AdmissionConfig, ConcurrentConfig, ConcurrentFleet, DeadlineQuery,
    FleetConfig, FleetServer, PitotServer, TraceEvent, TraceOutcome,
};
use pitot_testbed::{split::Split, Dataset, TestbedConfig};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::{Duration, Instant};

/// Which trace the fleet serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Observations only.
    Ingest,
    /// Deadline queries, an observation, resolves.
    Query,
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Calibrations of a spare fleet from the validation split;
/// `posttrain_ref` is their median cost in reference units.
const RESEEDS: usize = 100;
/// Steps per training round of the served model: the paper's checkpoint
/// interval.
const CHUNK: usize = 200;
/// Training rounds of the served model: shorter training leaves its
/// accuracy and margin too dependent on the seed.
const TRAIN_CHUNKS: usize = 3;
/// Replicas in the fleet.
const REPLICAS: usize = 4;
/// Miscoverage the fleet serves at.
const EPSILON: f32 = 0.1;
/// Observations per round.
const ROUND_OBS: usize = 1024;
/// Observations per `run_trace` batch on the ingest trace.
const INGEST_BATCH: usize = 64;
/// Query patterns (seven events, one observation each) per batch on the
/// query trace.
const QUERY_BATCH: usize = 16;
/// Queries per pattern.
const QUERIES: usize = 3;
/// Rounds at least run, whatever `--seconds` says; the coverage and
/// margin metrics cover exactly these rounds, so they depend on the seed
/// alone.
const MIN_ROUNDS: usize = 16;
/// Leading rounds replayed on the simulated twin, untraced and traced.
const TWIN_ROUNDS: [usize; 2] = [1, 8];

fn fleet_config(kind: Kind) -> FleetConfig {
    let mut cfg = FleetConfig::at(EPSILON, REPLICAS);
    cfg.merge_every = match kind {
        Kind::Ingest => 32,
        Kind::Query => 1024,
    };
    cfg
}

/// Everything a fleet set-up leaves behind.
struct Deployed {
    dataset: Dataset,
    split: Split,
    ctx: TrainContext,
    fleet: ConcurrentFleet,
}

/// Builds the fleet (inline when `workers` is 1) and seeds it from the
/// validation split.
fn deploy(
    trained: &TrainedPitot,
    dataset: &Dataset,
    split: &Split,
    kind: Kind,
    workers: usize,
) -> ConcurrentFleet {
    let cfg = ConcurrentConfig {
        fleet: fleet_config(kind),
        workers: Some(workers),
    };
    let mut fleet = trace::span("serve.fleet_new", || {
        ConcurrentFleet::new(trained.clone(), dataset, cfg)
    });
    trace::span("serve.seed_calibration", || {
        fleet.seed_calibration(&split.val)
    });
    fleet
}

/// A fleet built with one worker must run inline, on the caller's thread.
fn inline(fleet: &ConcurrentFleet) -> checks::Check {
    match fleet.workers() {
        1 => Ok(()),
        n => Err(format!("{n} lane workers")),
    }
}

/// The simulated twin of [`deploy`].
fn twin(trained: &TrainedPitot, dataset: &Dataset, split: &Split, kind: Kind) -> FleetServer {
    let mut sim = FleetServer::new(trained.clone(), dataset, fleet_config(kind));
    sim.seed_calibration(&split.val);
    sim
}

/// Generates a trace batch by batch from the seed-shuffled test split.
struct TraceGen {
    order: Vec<usize>,
    pos: usize,
    next_id: u64,
    rng: ChaCha8Rng,
    kind: Kind,
}

impl TraceGen {
    fn new(test: &[usize], seed: u64, kind: Kind) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x7EACE);
        let mut order = test.to_vec();
        order.shuffle(&mut rng);
        Self {
            order,
            pos: 0,
            next_id: 0,
            rng,
            kind,
        }
    }

    fn next_obs<'a>(&mut self, dataset: &'a Dataset) -> &'a pitot_testbed::Observation {
        let i = self.order[self.pos];
        self.pos = (self.pos + 1) % self.order.len();
        &dataset.observations[i]
    }

    /// Batches per round.
    fn batches_per_round(&self) -> usize {
        match self.kind {
            Kind::Ingest => ROUND_OBS / INGEST_BATCH,
            Kind::Query => ROUND_OBS / QUERY_BATCH,
        }
    }

    /// Replaces `out` with the next batch.
    fn batch(&mut self, dataset: &Dataset, out: &mut Vec<TraceEvent>) {
        out.clear();
        match self.kind {
            Kind::Ingest => {
                for _ in 0..INGEST_BATCH {
                    out.push(TraceEvent::Observe(self.next_obs(dataset).clone()));
                }
            }
            Kind::Query => {
                for _ in 0..QUERY_BATCH {
                    let mut resolves = Vec::with_capacity(QUERIES);
                    for _ in 0..QUERIES {
                        let o = self.next_obs(dataset);
                        let realized_s = f64::from(o.runtime_s);
                        let deadline_s = realized_s * self.rng.gen_range(0.75..3.0);
                        self.next_id += 1;
                        out.push(TraceEvent::Deadline(DeadlineQuery {
                            id: self.next_id,
                            workload: o.workload,
                            platform: o.platform,
                            interferers: o.interferers.clone(),
                            deadline_s,
                        }));
                        resolves.push(TraceEvent::Resolve {
                            id: self.next_id,
                            realized_s,
                        });
                    }
                    out.push(TraceEvent::Observe(self.next_obs(dataset).clone()));
                    out.append(&mut resolves);
                }
            }
        }
    }
}

/// Replays batches on the twin. With `stages`, every event is its own
/// span and each merge round is redone from outside, stage by stage, on
/// the twin's replica windows.
struct Twin {
    sim: FleetServer,
    events: u64,
    observations: usize,
    merge_every: usize,
    stages: Option<Stages>,
}

/// Outside replication of a coordinator merge round.
struct Stages {
    merged: MergeableWindow,
    server: PitotServer,
    xis: Vec<f32>,
}

impl Twin {
    fn replay(&mut self, events: &[TraceEvent], report: &mut Report) -> Vec<TraceOutcome> {
        let start = self.events as f64;
        self.events += events.len() as u64;
        if self.stages.is_none() {
            return run_trace_simulated(&mut self.sim, start, events);
        }
        let was_on = trace::is_on();
        trace::set_on(true);
        let mut out = Vec::with_capacity(events.len());
        for (i, ev) in events.iter().enumerate() {
            let name = if let TraceEvent::Observe(_) = ev {
                self.observations += 1;
                if self.observations.is_multiple_of(self.merge_every) {
                    "serve.twin_merge_obs"
                } else {
                    "serve.twin_obs"
                }
            } else {
                "serve.twin_query"
            };
            let sim = &mut self.sim;
            out.extend(trace::span(name, || {
                run_trace_simulated(sim, start + i as f64, std::slice::from_ref(ev))
            }));
            if name == "serve.twin_merge_obs" {
                self.merge_stages(report);
            }
        }
        trace::set_on(was_on);
        out
    }

    fn merge_stages(&mut self, report: &mut Report) {
        let st = self.stages.as_mut().expect("stages are on");
        for r in 0..self.sim.n_replicas() {
            let replica = self.sim.replica(r);
            let summary = trace::span("conformal.snapshot", || replica.window_summary(r as u64));
            let verified = trace::span("conformal.verify", || summary.verify());
            report.check("summary verifies", verified.map_err(|e| format!("{e:?}")));
            trace::span("conformal.absorb", || st.merged.absorb(&summary));
        }
        let scored = trace::span("conformal.to_scored", || st.merged.to_scored());
        let empty: Vec<Vec<f32>> = vec![Vec::new(); st.merged.n_heads()];
        let conformal = trace::span("conformal.fit_scored", || {
            PooledConformal::fit_scored(
                &scored,
                &PredictionSet {
                    predictions: &empty,
                    targets_log: &[],
                    pools: &[],
                },
                &st.xis,
                HeadSelection::NaiveXi,
                EPSILON,
            )
        });
        for _ in 0..self.sim.n_replicas() {
            let c = conformal.clone();
            trace::span("serve.install", || st.server.install_calibration(c));
        }
    }
}

/// Counts and tallies over everything a fleet served.
#[derive(Debug, Default)]
struct Served {
    observations: u64,
    queries: u64,
    resolves: u64,
    failed_queries: u64,
    failed_resolves: u64,
    all: FeedbackTally,
    leading: FeedbackTally,
}

/// How long [`drive`] runs and what it keeps.
struct Plan {
    /// Stop once this many seconds have passed...
    seconds: f64,
    /// ...but run at least this many rounds...
    min_rounds: usize,
    /// ...and at most this many.
    max_rounds: usize,
    /// Alternate untraced and traced rounds.
    traced: bool,
    /// Leading rounds whose events and outcomes are kept for the twin.
    keep_rounds: usize,
}

/// A batch's events and the fleet's outcomes, kept for the twin.
type Kept = Vec<(Vec<TraceEvent>, Vec<TraceOutcome>)>;

/// Feeds rounds to the fleet as `plan` says, checking every batch.
fn drive(
    report: &mut Report,
    fleet: &mut ConcurrentFleet,
    gen: &mut TraceGen,
    dataset: &Dataset,
    merge_every: usize,
    plan: &Plan,
) -> (Served, Rounds, Kept) {
    let mut served = Served::default();
    let mut rounds = Rounds::default();
    let mut kept = Vec::new();
    let mut admission = AdmissionModel::new(
        AdmissionConfig::default().slack_s,
        AdmissionConfig::default().max_backlog,
    );
    let mut events = Vec::new();
    let mut before = None;
    let start = Instant::now();
    let mut r = 0;
    while r < plan.max_rounds
        && (r < plan.min_rounds || start.elapsed() < Duration::from_secs_f64(plan.seconds))
    {
        let on = plan.traced && r % 2 == 1;
        let from = trace::now_ns();
        let mut secs = 0.0;
        for b in 0..gen.batches_per_round() {
            gen.batch(dataset, &mut events);
            trace::set_on(on);
            let t = Instant::now();
            let outcomes = trace::span("serve.run_trace", || fleet.run_trace(&events));
            secs += t.elapsed().as_secs_f64();
            trace::set_on(false);

            let before = (r == 0 && b == 0).then(|| admission.clone());
            let mut tally = FeedbackTally::default();
            report.check("feedback", checks::feedback(&events, &outcomes, &mut tally));
            report.check("admission", admission.replay(&events, &outcomes));
            for ev in &events {
                match ev {
                    TraceEvent::Observe(_) => served.observations += 1,
                    TraceEvent::Deadline(_) => served.queries += 1,
                    TraceEvent::Resolve { .. } => served.resolves += 1,
                }
            }
            served.all.add(&tally);
            if r < plan.min_rounds {
                served.leading.add(&tally);
            }
            if let Some(before) = before {
                let stats = fleet.stats();
                report.check(
                    "self-test",
                    checks::self_test_fleet(
                        &events,
                        &outcomes,
                        &before,
                        f64::from(EPSILON),
                        calibration_pool(),
                        (stats.merges, served.observations, merge_every),
                    ),
                );
            }
            if r < plan.keep_rounds {
                kept.push((events.clone(), outcomes));
            }
        }
        let to = trace::now_ns();
        // The host is read after each round; the reading before a round is
        // the previous round's.
        let after = probes::host_ref(secs);
        let host = 0.5 * (before.unwrap_or(after) + after);
        before = Some(after);
        rounds.push(on, secs, secs / host, from, to);
        r += 1;
    }
    served.failed_queries = admission.failed_queries;
    served.failed_resolves = admission.failed_resolves;
    let stats = fleet.stats();
    report.check(
        "merges",
        checks::merges(
            stats.merges,
            stats.skipped_installs,
            served.observations,
            merge_every,
        ),
    );
    report.check(
        "fleet coverage",
        checks::coverage_holds(
            served.all.coverage(),
            f64::from(EPSILON),
            served.all.judged as usize,
            calibration_pool(),
        ),
    );
    (served, rounds, kept)
}

/// Replays the kept batches on the twin; its outcomes must equal the
/// concurrent fleet's.
fn check_twin(report: &mut Report, twin: &mut Twin, kept: &Kept) {
    for (events, outcomes) in kept {
        let sim = twin.replay(events, report);
        report.check("twin", checks::twin_equal(outcomes, &sim));
    }
}

/// Calibration scores per pool in the merged fleet window (four
/// interference pools share the replicas' windows).
fn calibration_pool() -> usize {
    REPLICAS * fleet_config(Kind::Ingest).serve.window / 4
}

fn ops(report: &mut Report, served: &Served) {
    report.ops.push(OpCount {
        kind: "observations",
        attempted: served.observations,
        failed: served.all.failed,
    });
    report.ops.push(OpCount {
        kind: "queries",
        attempted: served.queries,
        failed: served.failed_queries,
    });
    report.ops.push(OpCount {
        kind: "resolves",
        attempted: served.resolves,
        failed: served.failed_resolves,
    });
}

fn new_twin(
    trained: &TrainedPitot,
    dataset: &Dataset,
    split: &Split,
    kind: Kind,
    stages: bool,
) -> Twin {
    Twin {
        sim: twin(trained, dataset, split, kind),
        events: 0,
        observations: 0,
        merge_every: fleet_config(kind).merge_every,
        stages: stages.then(|| Stages {
            merged: MergeableWindow::empty(trained.model.n_heads()),
            server: PitotServer::new(trained.clone(), dataset.clone(), fleet_config(kind).serve),
            xis: trained.model.config().objective.xis(),
        }),
    }
}

/// `serve.*` and merge-stage `conformal.*` metrics from the twin's spans
/// and counters, plus the read-path probes on the fleet's calibration.
#[allow(clippy::too_many_arguments)]
fn serve_layers(
    report: &mut Report,
    twin: &Twin,
    fleet: &ConcurrentFleet,
    trained: &TrainedPitot,
    dataset: &Dataset,
    idx: &[usize],
    coverage: f64,
    seed: u64,
) {
    let m = |name: &str| median(&trace::durations(name)) * 1e6;
    let stages = [
        ("conformal.snapshot", "conformal.snapshot_us", REPLICAS),
        ("conformal.verify", "conformal.verify_us", REPLICAS),
        ("conformal.absorb", "conformal.absorb_us", REPLICAS),
        ("conformal.to_scored", "conformal.to_scored_us", 1),
        ("conformal.fit_scored", "conformal.fit_scored_us", 1),
        ("serve.install", "serve.install_us", REPLICAS),
    ];
    let round = m("serve.twin_merge_obs") - m("serve.twin_obs");
    let mut staged = 0.0;
    for (span, metric, per_round) in stages {
        report.metric(metric, m(span), "us");
        staged += m(span) * per_round as f64;
    }
    report.metric("serve.merge_round_us", round, "us");
    report.metric("serve.merge_unattributed_us", round - staged, "us");
    let s = twin.sim.stats();
    report.metric("serve.merges", s.merges as f64, "count");
    report.metric("serve.skipped_installs", s.skipped_installs as f64, "count");
    report.metric("serve.observations", s.observations as f64, "count");
    report.metric("serve.queries", s.admission.decisions() as f64, "count");
    report.metric("serve.admitted", s.admission.admitted as f64, "count");
    report.metric("serve.shed", s.admission.shed() as f64, "count");
    report.metric("conformal.coverage", coverage, "frac");
    probes::batch_percentiles(report);
    let conformal = fleet.fleet_conformal().expect("the fleet was seeded");
    probes::serve_reads(
        report,
        trained,
        dataset,
        idx,
        &conformal,
        fleet_config(Kind::Ingest).serve.window,
        seed,
    );
}

/// The serving half of a traced `train-paper` run: the trained paper
/// model is deployed in the ingest fleet for a few traced rounds, so the
/// serving layers report on the same model.
pub fn companion(
    report: &mut Report,
    trained: &TrainedPitot,
    dataset: &Dataset,
    split: &Split,
    seed: u64,
) {
    let kind = Kind::Ingest;
    let rounds = TWIN_ROUNDS[1];
    let mut fleet = deploy(trained, dataset, split, kind, 1);
    report.check("inline fleet", inline(&fleet));
    let mut gen = TraceGen::new(&split.test, seed, kind);
    let plan = Plan {
        seconds: 0.0,
        min_rounds: rounds,
        max_rounds: rounds,
        traced: false,
        keep_rounds: rounds,
    };
    let merge_every = fleet_config(kind).merge_every;
    let (served, _, kept) = drive(report, &mut fleet, &mut gen, dataset, merge_every, &plan);
    let mut twin = new_twin(trained, dataset, split, kind, true);
    check_twin(report, &mut twin, &kept);
    // The batches are timed again, all traced, for the percentiles.
    trace::set_on(true);
    for (events, _) in &kept {
        trace::span("serve.run_trace", || fleet.run_trace(events));
    }
    ops(report, &served);
    let slice = test_slice(&split.test, SLICE);
    serve_layers(
        report,
        &twin,
        &fleet,
        trained,
        dataset,
        &slice,
        served.leading.coverage(),
        seed,
    );
}

/// Runs a fleet workload.
pub fn run(args: &Args, kind: Kind) -> Report {
    let mut report = Report::default();
    let mut model = paper_model(args.seed);
    model.steps = TRAIN_CHUNKS * CHUNK;
    let testbed = TestbedConfig::medium().with_seed(args.seed);
    // The served model is trained once, before the timed set-ups and
    // outside them: training is train-paper's to time, in reference units,
    // and 600 steps in raw seconds would make `setup_s` a reading of the
    // host. Every set-up makes the same dataset and split from the seed.
    let trained = {
        let mut s = train_paper::setup(&testbed, args.seed, &model);
        for _ in 0..TRAIN_CHUNKS {
            trace::span("core.train_round", || s.ctx.resume(&s.dataset, CHUNK));
        }
        s.ctx.finish()
    };
    sample_threads();
    let (setup_s, mut d) = probes::timed_setups(SETUPS, || {
        let s = train_paper::setup(&testbed, args.seed, &model);
        let fleet = deploy(&trained, &s.dataset, &s.split, kind, args.threads);
        Deployed {
            dataset: s.dataset,
            split: s.split,
            ctx: s.ctx,
            fleet,
        }
    });
    if args.threads == 1 {
        report.check("inline fleet", inline(&d.fleet));
    }
    trace::set_on(false);

    let slice = test_slice(&d.split.test, SLICE);
    let mut gen = TraceGen::new(&d.split.test, args.seed, kind);
    let plan = Plan {
        seconds: args.seconds,
        min_rounds: MIN_ROUNDS,
        max_rounds: usize::MAX,
        traced: args.trace,
        keep_rounds: TWIN_ROUNDS[usize::from(args.trace)],
    };
    let merge_every = fleet_config(kind).merge_every;
    let (served, rounds, kept) = drive(
        &mut report,
        &mut d.fleet,
        &mut gen,
        &d.dataset,
        merge_every,
        &plan,
    );
    // Read before the twin and the extra deployments below add fleets of
    // their own.
    let peak_rss = peak_rss_mb();
    let mut twin = new_twin(&trained, &d.dataset, &d.split, kind, args.trace);
    check_twin(&mut report, &mut twin, &kept);
    drop(kept);
    eprintln!("set-up seconds {setup_s:?}");
    eprintln!("{}", rounds.describe("fleet rounds"));
    trace::set_on(args.trace);
    let mape = model_mape(&mut report, &trained, &d.dataset, &slice);
    ops(&mut report, &served);
    if args.trace {
        let spans = trace::spans();
        let unattributed = probes::unattributed_frac(&[&rounds], &spans);
        for _ in 0..SETUPS {
            trace::span("core.scaling_fit", || {
                ScalingBaseline::fit(&d.dataset, &d.split.train)
            });
        }
        probes::step_eval(&mut d.ctx, &d.dataset, 5);
        probes::tower_pass(&trained, &d.dataset, 5);
        for _ in 0..3 {
            train_paper::replicate(&trained, &d.dataset, &slice, &mut RefClock::default());
        }
        probes::core_layers(&mut report, slice.len(), CHUNK);
        probes::linalg(&mut report, trained.model.param_count());
        serve_layers(
            &mut report,
            &twin,
            &d.fleet,
            &trained,
            &d.dataset,
            &slice,
            served.leading.coverage(),
            args.seed,
        );
        report.metric("trace.unattributed_frac", unattributed, "frac");
        report.metric("trace.overhead_frac", rounds.overhead_frac(), "frac");
    } else {
        // Post-training: calibrating a fleet of the trained model from the
        // validation split, repeated on one extra fleet. Building the fleet
        // (copies of the dataset, page faults) is left to `setup_s`: its
        // time follows the host's memory more than the program.
        let mut spare = deploy(&trained, &d.dataset, &d.split, kind, args.threads);
        if args.threads == 1 {
            report.check("inline fleet", inline(&spare));
        }
        let mut calibrations = Rounds::default();
        for _ in 0..RESEEDS {
            calibrations.run(false, || spare.seed_calibration(&d.split.val));
        }
        drop(spare);
        eprintln!("{}", calibrations.describe("calibrations"));
        let events_per_round = gen.batches_per_round() * events_len(kind);
        report.metric("setup_s", median(&setup_s), "s");
        report.metric("peak_rss_mb", peak_rss, "MB");
        eprintln!(
            "as measured: {:.1} events/s, {:.4} s per calibration",
            events_per_round as f64 / rounds.seconds(),
            calibrations.seconds()
        );
        report.metric(
            "ops_per_ref",
            events_per_round as f64 / rounds.ref_units(),
            "1/ref",
        );
        report.metric("posttrain_ref", calibrations.ref_units(), "ref");
        report.metric("mape", mape, "frac");
        report.metric("overprovision_margin", served.leading.log_margin(), "log");
    }
    report
}

/// Events per batch.
fn events_len(kind: Kind) -> usize {
    match kind {
        Kind::Ingest => INGEST_BATCH,
        Kind::Query => QUERY_BATCH * (2 * QUERIES + 1),
    }
}
