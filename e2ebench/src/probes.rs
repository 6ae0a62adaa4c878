//! Timing: workload rounds stated in reference units of host speed, timed
//! calls into single layers, and the per-layer metrics read back from the
//! recorded spans. Every probe calls a public function from outside the
//! program; none changes a workload's outputs.

use crate::stats::{median, quantile, sample_threads};
use crate::{trace, Report};
use pitot::{TrainContext, TrainedPitot};
use pitot_conformal::{PooledConformal, WindowedScores};
use pitot_linalg::par::EventQueue;
use pitot_linalg::{adamax_update, fill_randn, kernels::matmul_into, Matrix};
use pitot_serve::{AdmissionConfig, AdmissionQueue, SnapshotCell};
use pitot_testbed::{Dataset, Observation, MAX_INTERFERERS};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cell::RefCell;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Runs `setup` `n` times and returns each run's seconds and the last
/// result; earlier results are dropped before the next set-up starts. The
/// thread count is read after each set-up.
pub fn timed_setups<T>(n: usize, mut setup: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut secs = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        secs.push(t.elapsed().as_secs_f64());
        sample_threads();
    }
    (secs, last.expect("at least one set-up"))
}

/// Median seconds per call of `f`, timed as `reps` loops of `inner` calls;
/// each loop is one span named `name`.
pub fn per_call(name: &'static str, reps: usize, inner: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut per = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        trace::span(name, || (0..inner).for_each(&mut f));
        per.push(t.elapsed().as_secs_f64() / inner as f64);
    }
    median(&per)
}

/// Timings of a workload's repeated rounds, in seconds and in reference
/// units: a round's seconds over the seconds of one reference unit read
/// around it ([`host_ref`]).
#[derive(Debug, Default)]
pub struct Rounds {
    /// `(seconds, reference units, traced)` per round.
    rounds: Vec<(f64, f64, bool)>,
    windows: Vec<(u64, u64)>,
}

impl Rounds {
    /// Runs one round with recording switched to `traced`, reading the
    /// host before and after it, and returns its result. Recording is
    /// switched off afterwards.
    pub fn run<T>(&mut self, traced: bool, f: impl FnOnce() -> T) -> T {
        let before = host_ref(0.0);
        trace::set_on(traced);
        let from = trace::now_ns();
        let t = Instant::now();
        let out = f();
        let secs = t.elapsed().as_secs_f64();
        let to = trace::now_ns();
        trace::set_on(false);
        let host = 0.5 * (before + host_ref(secs));
        self.push(traced, secs, secs / host, from, to);
        out
    }

    /// Records a round measured by the caller, whose traced spans fall in
    /// `[from, to)`, and reads the thread count.
    pub fn push(&mut self, traced: bool, secs: f64, units: f64, from: u64, to: u64) {
        sample_threads();
        self.rounds.push((secs, units, traced));
        if traced {
            self.windows.push((from, to));
        }
    }

    fn units(&self, traced: Option<bool>) -> Vec<f64> {
        self.rounds
            .iter()
            .filter(|r| traced.is_none_or(|t| r.2 == t))
            .map(|r| r.1)
            .collect()
    }

    /// Median cost of a round in reference units.
    pub fn ref_units(&self) -> f64 {
        median(&self.units(None))
    }

    /// Median seconds of a round, as measured.
    pub fn seconds(&self) -> f64 {
        median(&self.rounds.iter().map(|r| r.0).collect::<Vec<_>>())
    }

    /// One line for standard error: the rounds' seconds and reference
    /// units.
    pub fn describe(&self, what: &str) -> String {
        let secs: Vec<f64> = self.rounds.iter().map(|r| r.0).collect();
        let units = self.units(None);
        format!(
            "{what}: {} rounds; seconds q1 {:.6} median {:.6} q3 {:.6}; reference units q1 {:.3} median {:.3} q3 {:.3}",
            secs.len(),
            quantile(&secs, 0.25),
            median(&secs),
            quantile(&secs, 0.75),
            quantile(&units, 0.25),
            median(&units),
            quantile(&units, 0.75),
        )
    }

    /// `trace.overhead_frac`: traced rounds' median cost over untraced
    /// rounds', minus one (both in reference units).
    pub fn overhead_frac(&self) -> f64 {
        median(&self.units(Some(true))) / median(&self.units(Some(false))) - 1.0
    }
}

/// Accumulates the cost of a sequence of calls in reference units, each
/// call over a host reading taken right after it — for rounds made of
/// several calls, where one reading would not track the host through the
/// whole round.
#[derive(Debug, Default)]
pub struct RefClock {
    /// Seconds so far.
    pub secs: f64,
    /// Reference units so far.
    pub units: f64,
}

impl RefClock {
    /// Times one call.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        let secs = t.elapsed().as_secs_f64();
        self.secs += secs;
        self.units += secs / host_ref(secs);
        out
    }
}

thread_local! {
    static REF_KEYS: RefCell<Vec<u64>> = RefCell::new(vec![0; 8192]);
}

/// The reference unit: fixed, benchmark-owned work that no change to the
/// program can speed up — sorting 8192 pseudo-random integers in a reused
/// buffer, then a floating-point pass over them. Its time tracks how fast
/// the host runs this process right now.
fn reference_unit() -> f64 {
    REF_KEYS.with(|keys| {
        let mut v = keys.borrow_mut();
        let t = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for e in v.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *e = x;
        }
        v.sort_unstable();
        let acc: f64 = v
            .iter()
            .enumerate()
            .map(|(i, &e)| ((e >> 11) as f64 * 1e-16).sqrt() * i as f64)
            .sum();
        black_box(acc);
        t.elapsed().as_secs_f64()
    })
}

/// Seconds of one reference unit now: the median of 5 units, and of up
/// to 51 around long rounds (about 1% of the round).
pub fn host_ref(round_secs: f64) -> f64 {
    let n = (5.0 + round_secs * 25.0).min(51.0) as usize | 1;
    trace::span("bench.reference", || {
        median(&(0..n).map(|_| reference_unit()).collect::<Vec<_>>())
    })
}

/// `trace.unattributed_frac`: the share of the traced rounds' wall time
/// that no top-level span covers.
pub fn unattributed_frac(rounds: &[&Rounds], spans: &[trace::Span]) -> f64 {
    let windows = rounds.iter().flat_map(|r| &r.windows);
    let wall: u64 = windows.clone().map(|(a, b)| b - a).sum();
    let covered: f64 = windows
        .map(|&(a, b)| trace::top_level_secs(spans, a, b))
        .sum();
    1.0 - covered / (wall as f64 * 1e-9)
}

/// `linalg.*`: kernels at the paper model's shapes.
pub fn linalg(report: &mut Report, n_params: usize) {
    let mut rng = ChaCha8Rng::seed_from_u64(0x11A1);
    // Tower layers: a 256-row entity block through 128-wide hidden layers
    // into the 8-head × 32 output.
    let shapes = [(256, 128, 128), (256, 128, 256)];
    let mut flops = 0.0;
    let mut secs = 0.0;
    for (m, k, n) in shapes {
        let mut a = Matrix::zeros(m, k);
        let mut b = Matrix::zeros(k, n);
        fill_randn(a.as_mut_slice(), &mut rng);
        fill_randn(b.as_mut_slice(), &mut rng);
        let mut out = Matrix::zeros(m, n);
        let s = per_call("linalg.matmul", 15, 20, |_| {
            matmul_into(&a, &b, &mut out);
            black_box(&out);
        });
        flops += 2.0 * (m * k * n) as f64;
        secs += s;
    }
    report.metric("linalg.matmul_gflops", flops / secs * 1e-9, "GFLOP/s");

    let mut p = vec![0.0f32; n_params];
    let mut g = vec![0.0f32; n_params];
    fill_randn(&mut p, &mut rng);
    fill_randn(&mut g, &mut rng);
    let (mut m, mut u) = (vec![0.0f32; n_params], vec![0.0f32; n_params]);
    let s = per_call("linalg.adamax", 15, 10, |_| {
        adamax_update(&mut p, &g, &mut m, &mut u, 1e-3, 0.9, 0.999, 1e-8);
    });
    black_box(&p);
    report.metric(
        "linalg.adamax_ns_per_param",
        s / n_params as f64 * 1e9,
        "ns",
    );

    let queue: EventQueue<u64> = EventQueue::new();
    let mut drained = Vec::with_capacity(256);
    let s = per_call("linalg.queue", 15, 200, |i| {
        for j in 0..256u64 {
            queue.push(i as u64 ^ j);
        }
        queue.try_drain_into(&mut drained);
        black_box(&drained);
    });
    report.metric("linalg.queue_event_ns", s / 256.0 * 1e9, "ns");
    report.metric(
        "linalg.pool_threads",
        pitot_linalg::par::threads() as f64,
        "count",
    );
}

/// Training-step probes on a context whose outputs are already taken:
/// single-step resumes, each ending on a checkpoint, so that with the
/// training-round spans the step and checkpoint costs separate.
pub fn step_eval(ctx: &mut TrainContext, dataset: &Dataset, reps: usize) {
    for _ in 0..reps {
        trace::span("core.step_eval", || ctx.resume(dataset, 1));
    }
}

/// `core.tower_pass`: the inference tower pass over every entity.
pub fn tower_pass(trained: &TrainedPitot, dataset: &Dataset, reps: usize) {
    for _ in 0..reps {
        black_box(trace::span("core.tower_pass", || {
            trained.model.infer_towers(dataset)
        }));
    }
}

/// Read-path and window probes on a served model and calibration:
/// `core.predict_cached_us`, `conformal.bound_log_ns`,
/// `conformal.window_push_us`, `serve.admission_ns`,
/// `serve.snapshot_load_ns`.
pub fn serve_reads(
    report: &mut Report,
    trained: &TrainedPitot,
    dataset: &Dataset,
    idx: &[usize],
    conformal: &PooledConformal,
    window: usize,
    seed: u64,
) {
    let cache = trained.tower_cache(dataset);
    let obs: Vec<&Observation> = idx
        .iter()
        .take(1024)
        .map(|&i| &dataset.observations[i])
        .collect();
    let n = obs.len();
    let s = per_call("core.predict_cached", 15, 128, |i| {
        black_box(trained.predict_log_runtime_cached(&cache, &[obs[i % n]]));
    });
    report.metric("core.predict_cached_us", s * 1e6, "us");

    let preds = trained.predict_log_runtime_cached(&cache, &obs);
    let heads: Vec<Vec<f32>> = (0..n)
        .map(|j| preds.iter().map(|h| h[j]).collect())
        .collect();
    let pools: Vec<usize> = obs
        .iter()
        .map(|o| o.interferers.len().min(MAX_INTERFERERS))
        .collect();
    let s = per_call("conformal.bound_log", 15, 1024, |i| {
        black_box(conformal.bound_log(&heads[i % n], pools[i % n]));
    });
    report.metric("conformal.bound_log_ns", s * 1e9, "ns");

    let mut win = WindowedScores::new(window, trained.model.n_heads());
    let s = per_call("conformal.window_push", 15, 256, |i| {
        let j = i % n;
        black_box(win.push(&heads[j], obs[j].log_runtime(), pools[j]));
    });
    report.metric("conformal.window_push_us", s * 1e6, "us");

    // Admission: decide, then resolve, each query — the fleet-query
    // pattern without the predictions.
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xAD);
    let bounds: Vec<f64> = heads
        .iter()
        .zip(&pools)
        .map(|(h, &p)| f64::from(conformal.bound_log(h, p).exp()))
        .collect();
    let deadlines: Vec<f64> = obs
        .iter()
        .map(|o| f64::from(o.runtime_s) * rng.gen_range(0.75..3.0))
        .collect();
    let mut queue = AdmissionQueue::new(AdmissionConfig::default());
    let mut id = 0u64;
    let s = per_call("serve.admission", 15, 1024, |i| {
        let j = i % n;
        id += 1;
        black_box(queue.decide(id, bounds[j], deadlines[j]));
        black_box(queue.resolve(id, f64::from(obs[j].runtime_s)));
    });
    report.metric("serve.admission_ns", s * 1e9, "ns");

    let cell = SnapshotCell::new();
    cell.store(Arc::new(conformal.clone()));
    let s = per_call("serve.snapshot_load", 15, 4096, |_| {
        black_box(cell.load());
    });
    report.metric("serve.snapshot_load_ns", s * 1e9, "ns");
}

fn median_span(name: &str) -> f64 {
    median(&trace::durations(name))
}

/// `testbed.*` and `core.*` metrics from the recorded spans. `slice_len`
/// is the number of observations each `core.predict` span predicted;
/// `round_steps` the steps of each `core.train_round` span.
pub fn core_layers(report: &mut Report, slice_len: usize, round_steps: usize) {
    report.metric("testbed.generate_s", median_span("testbed.generate"), "s");
    report.metric("testbed.collect_s", median_span("testbed.collect"), "s");
    report.metric(
        "core.scaling_fit_ms",
        median_span("core.scaling_fit") * 1e3,
        "ms",
    );
    report.metric(
        "core.context_new_ms",
        median_span("core.context_new") * 1e3,
        "ms",
    );
    // A round is `round_steps` steps and one checkpoint; a single resume
    // is one step and one checkpoint.
    let round = median_span("core.train_round");
    let single = median_span("core.step_eval");
    let step = (round - single) / (round_steps - 1) as f64;
    report.metric("core.step_ms", step * 1e3, "ms");
    report.metric("core.checkpoint_eval_ms", (single - step) * 1e3, "ms");
    report.metric(
        "core.tower_pass_ms",
        median_span("core.tower_pass") * 1e3,
        "ms",
    );
    report.metric(
        "core.predict_per_s",
        slice_len as f64 / median_span("core.predict"),
        "1/s",
    );
    report.metric(
        "core.calibration_ms",
        median_span("core.calibration") * 1e3,
        "ms",
    );
    report.metric(
        "conformal.sweep_fit_us",
        median_span("conformal.sweep_fit") * 1e6,
        "us",
    );
    report.metric(
        "core.bounds_eval_ms",
        median_span("core.bounds_eval") * 1e3,
        "ms",
    );
    let replicates = trace::durations("core.calibration").len().max(1);
    report.metric(
        "core.bounds_eval_calls",
        trace::durations("core.bounds_eval").len() as f64 / replicates as f64,
        "count",
    );
}

/// `serve.batch_p50_us` and `serve.batch_p99_us` over the recorded
/// `run_trace` batches.
pub fn batch_percentiles(report: &mut Report) {
    let batches = trace::durations("serve.run_trace");
    report.metric("serve.batch_p50_us", quantile(&batches, 0.5) * 1e6, "us");
    report.metric("serve.batch_p99_us", quantile(&batches, 0.99) * 1e6, "us");
}
