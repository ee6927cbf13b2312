//! `solve_offline`: single-threaded, in-process cold solves over a pool of
//! three instance kinds.
//!
//! * dense short-horizon planted instances (p4, T48, n 96–152); every
//!   fourth is solved as prize-collecting over weighted jobs, exercising the
//!   weighted matching oracle;
//! * sparse long-horizon planted instances (p2–4, T128–256, n16–32) under
//!   candidate policy `all`, where enumeration and the reduction build are a
//!   large share of a solve;
//! * DVFS instances (p4, T32, n64, the generator's default 3-rung ladder)
//!   through `solve_dvfs`.
//!
//! The solver layers do all the work here and the wire does none.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sched_core::{
    enumerate_candidates, prize_collecting_with, schedule_all_with, solve_dvfs,
    validate_dvfs_schedule, CandidatePolicy, DvfsInstance, DvfsSchedule, EnergyCost, Instance,
    Schedule, ScheduleReduction, SolveOptions,
};
use workloads::planted::PlantedCostModel;
use workloads::{dvfs_instance, planted_instance, DvfsConfig, PlantedConfig};

use crate::spans::{self, Recorder};
use crate::speed::Speed;
use crate::{stats, Args, Metric, Outcome};

/// p99 latency limit of one solve for `slo_rps`.
const LATENCY_LIMIT_S: f64 = 0.5;
/// Offered solve rates for `slo_rps`: 20/s × 1.02^k.
const SLO_LADDER: (f64, f64, usize) = (20.0, 1.02, 240);

enum Goal {
    All,
    Prize { target: f64, epsilon: f64 },
}

enum Case {
    Classic {
        inst: Instance,
        cost: Box<dyn EnergyCost + Send>,
        goal: Goal,
    },
    Dvfs(DvfsInstance),
}

enum Solved {
    Classic(Schedule),
    Dvfs(DvfsSchedule),
}

impl Solved {
    fn total_cost(&self) -> f64 {
        match self {
            Solved::Classic(s) => s.total_cost,
            Solved::Dvfs(s) => s.total_cost,
        }
    }

    /// Bit-for-bit identity of two results of the same case.
    fn same(&self, other: &Solved) -> bool {
        match (self, other) {
            (Solved::Classic(a), Solved::Classic(b)) => {
                a.total_cost.to_bits() == b.total_cost.to_bits()
                    && a.awake == b.awake
                    && a.assignments == b.assignments
            }
            (Solved::Dvfs(a), Solved::Dvfs(b)) => {
                a.total_cost.to_bits() == b.total_cost.to_bits()
                    && a.awake == b.awake
                    && a.assignments == b.assignments
            }
            _ => false,
        }
    }
}

/// Per-solve work sizes the traced run reports.
#[derive(Default)]
struct Work {
    candidates: u64,
    dvfs_candidates: u64,
}

/// The generated pool plus its validated reference results.
struct Pool {
    cases: Vec<Case>,
    reference: Vec<Solved>,
    generate_s: f64,
}

/// Case kinds in pool order: interleaved so every stretch of the pool mixes
/// them.
const PATTERN: &[&str] = &["dense", "sparse", "dvfs", "dense", "dense", "dvfs"];
const POOL_SIZE: usize = 144;
/// Sparse shapes `(processors, horizon, jobs)`, cycled.
const SPARSE: &[(u32, u32, usize)] = &[
    (2, 128, 16),
    (3, 192, 24),
    (4, 256, 32),
    (2, 256, 24),
    (4, 128, 32),
    (3, 256, 16),
];

fn generate(seed: u64) -> Vec<Case> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut dense, mut sparse) = (0usize, 0usize);
    (0..POOL_SIZE)
        .map(|i| match PATTERN[i % PATTERN.len()] {
            "dense" => {
                let prize = dense % 4 == 3;
                let planted = planted_instance(
                    &PlantedConfig {
                        num_processors: 4,
                        horizon: 48,
                        target_jobs: 96 + (dense * 8) % 64,
                        decoy_prob: 0.3,
                        max_value: if prize { 4 } else { 1 },
                        cost_model: PlantedCostModel::Affine { restart: 3.0 },
                        policy: CandidatePolicy::All,
                    },
                    &mut rng,
                );
                dense += 1;
                let goal = if prize {
                    Goal::Prize {
                        target: 0.75 * planted.instance.total_value(),
                        epsilon: 0.1,
                    }
                } else {
                    Goal::All
                };
                Case::Classic {
                    inst: planted.instance,
                    cost: planted.cost,
                    goal,
                }
            }
            "sparse" => {
                let (p, t, n) = SPARSE[sparse % SPARSE.len()];
                sparse += 1;
                let planted = planted_instance(
                    &PlantedConfig {
                        num_processors: p,
                        horizon: t,
                        target_jobs: n,
                        decoy_prob: 0.3,
                        max_value: 1,
                        cost_model: PlantedCostModel::Affine { restart: 3.0 },
                        policy: CandidatePolicy::All,
                    },
                    &mut rng,
                );
                Case::Classic {
                    inst: planted.instance,
                    cost: planted.cost,
                    goal: Goal::All,
                }
            }
            _ => Case::Dvfs(dvfs_instance(
                &DvfsConfig {
                    num_processors: 4,
                    horizon: 32,
                    target_jobs: 64,
                    ..DvfsConfig::default()
                },
                &mut rng,
            )),
        })
        .collect()
}

/// One cold solve. With a recorder, every layer call runs inside a span
/// and DVFS solves are split into compile → reduction → greedy → decompile
/// (the steps `solve_dvfs` takes); without one the calls run bare.
fn solve(
    case: &Case,
    mut rec: Option<&mut Recorder>,
    op: u64,
    work: &mut Work,
) -> Result<Solved, String> {
    let root = rec.as_mut().map(|r| (r.reserve(), Instant::now()));
    let parent = root.map_or(0, |(id, _)| id);
    let opts = SolveOptions::default();
    let solved = match case {
        Case::Classic { inst, cost, goal } => {
            let cands = spans::maybe(&mut rec, parent, op, "candidates.enumerate", || {
                enumerate_candidates(inst, cost.as_ref(), CandidatePolicy::All)
            });
            work.candidates += cands.len() as u64;
            let red = spans::maybe(&mut rec, parent, op, "objective.reduction_build", || {
                ScheduleReduction::build(inst, &cands)
            });
            let s = spans::maybe(&mut rec, parent, op, "greedy.solve", || match *goal {
                Goal::All => schedule_all_with(inst, &red, &cands, &opts),
                Goal::Prize { target, epsilon } => {
                    prize_collecting_with(inst, &red, &cands, target, epsilon, &opts)
                }
            })
            .map_err(|e| format!("solve failed: {e}"))?;
            Solved::Classic(s)
        }
        Case::Dvfs(dvfs) => match rec.as_deref_mut() {
            None => Solved::Dvfs(solve_dvfs(dvfs).map_err(|e| format!("solve_dvfs: {e}"))?),
            Some(r) => {
                let compiled = r
                    .span(parent, op, "dvfs.compile", || dvfs.compile())
                    .map_err(|e| format!("dvfs compile: {e}"))?;
                work.dvfs_candidates += compiled.candidates.len() as u64;
                let red = r.span(parent, op, "objective.reduction_build", || {
                    ScheduleReduction::build(&compiled.instance, &compiled.candidates)
                });
                let s = r
                    .span(parent, op, "greedy.solve", || {
                        schedule_all_with(&compiled.instance, &red, &compiled.candidates, &opts)
                    })
                    .map_err(|e| format!("dvfs solve: {e}"))?;
                Solved::Dvfs(r.span(parent, op, "dvfs.decompile", || compiled.decompile(&s)))
            }
        },
    };
    if let (Some(r), Some((id, t0))) = (rec, root) {
        r.record(id, 0, op, "solve", t0, Instant::now());
    }
    Ok(solved)
}

/// Full validation of one result against its case.
fn validate(case: &Case, solved: &Solved) -> Result<(), String> {
    match (case, solved) {
        (Case::Classic { inst, goal, .. }, Solved::Classic(s)) => {
            let violations = sched_core::model::validate_schedule(inst, s);
            if !violations.is_empty() {
                return Err(format!("invalid schedule: {violations:?}"));
            }
            match *goal {
                Goal::All if s.scheduled_count != inst.num_jobs() => Err(format!(
                    "schedule_all left jobs out: {} of {}",
                    s.scheduled_count,
                    inst.num_jobs()
                )),
                Goal::Prize { target, epsilon }
                    if s.scheduled_value < (1.0 - epsilon) * target - 1e-9 =>
                {
                    Err(format!(
                        "prize-collecting value {} below (1-{epsilon})·{target}",
                        s.scheduled_value
                    ))
                }
                _ => Ok(()),
            }
        }
        (Case::Dvfs(dvfs), Solved::Dvfs(s)) => {
            let violations = validate_dvfs_schedule(dvfs, s);
            if !violations.is_empty() {
                return Err(format!("invalid DVFS schedule: {violations:?}"));
            }
            let done = s.completed(dvfs).len();
            if done != dvfs.jobs.len() {
                return Err(format!("DVFS completed {done} of {} jobs", dvfs.jobs.len()));
            }
            Ok(())
        }
        _ => Err("result kind does not match its case".into()),
    }
}

/// Set-up: generate the pool and solve every case once (warming the
/// allocator and caches), validating each result in full. Returns the pool
/// and its energy.
fn setup(seed: u64) -> Result<(Pool, f64), String> {
    let t0 = Instant::now();
    let cases = generate(seed);
    let generate_s = t0.elapsed().as_secs_f64();
    let mut reference = Vec::with_capacity(cases.len());
    for (i, case) in cases.iter().enumerate() {
        let solved = solve(case, None, i as u64, &mut Work::default())?;
        validate(case, &solved).map_err(|e| format!("case {i}: {e}"))?;
        reference.push(solved);
    }
    let energy = reference.iter().map(Solved::total_cost).sum();
    Ok((
        Pool {
            cases,
            reference,
            generate_s,
        },
        energy,
    ))
}

/// Closed-loop passes over the pool until `seconds` have elapsed (whole
/// passes only, so every case weighs the same), with host-speed slices
/// between the solves. Returns every case's solve latencies in seconds, one
/// per pass, scaled to the reference speed, and the host speed measured.
fn measure(
    pool: &Pool,
    seconds: f64,
    mut rec: Option<&mut Recorder>,
    work: &mut Work,
    out: &mut Outcome,
) -> (Vec<Vec<f64>>, Speed) {
    let mut raw = vec![Vec::new(); pool.cases.len()];
    let t0 = Instant::now();
    let mut speed = Speed::new(t0);
    let mut op = 0u64;
    while t0.elapsed().as_secs_f64() < seconds {
        for (i, (case, reference)) in pool.cases.iter().zip(&pool.reference).enumerate() {
            speed.tick();
            let start = Instant::now();
            let solved = solve(case, rec.as_deref_mut(), op, work);
            let end = Instant::now();
            raw[i].push((start, end));
            op += 1;
            match solved {
                Ok(s) if s.same(reference) => {}
                Ok(_) => out.error(format!(
                    "solve {op} differs from the validated first solve of its case"
                )),
                Err(e) => {
                    out.failed += 1;
                    out.error(e);
                }
            }
        }
    }
    let scaled = raw
        .iter()
        .map(|l| {
            l.iter()
                .map(|&(start, end)| (end - start).as_secs_f64() * speed.scale(start, end))
                .collect()
        })
        .collect();
    (scaled, speed)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut generate = Vec::new();
    let (pool, setup_s, energies) = crate::repeated_setup(
        || {
            let (pool, energy) = setup(args.seed)?;
            generate.push(pool.generate_s);
            Ok((pool, energy))
        },
        drop,
    )?;
    crate::check_setup_energies(&mut out, &energies);
    out.energy = energies[0];

    let (latencies, speed) = measure(&pool, args.seconds, None, &mut Work::default(), &mut out);
    crate::speed::report(&speed);
    let n = latencies.iter().map(|l| l.len() as u64).sum::<u64>();
    out.attempted = n;
    // Every case's median solve time: the percentiles, throughput and rate
    // search below are over these.
    let typical = stats::per_op_medians(&latencies);
    let ops_per_s = stats::typical_rate(&typical);

    if !args.trace {
        let sorted = stats::sorted(typical.iter().map(|s| s * 1e3).collect());
        let (base, step, rungs) = SLO_LADDER;
        let slo =
            stats::fifo_slo_rate(&typical, &stats::ladder(base, step, rungs), LATENCY_LIMIT_S);
        out.metrics = vec![
            Metric::new("setup_s", setup_s, "s", crate::SETUP_REPS as u64),
            Metric::new("ops_per_s", ops_per_s, "1/s", n),
            Metric::new("latency_p50_ms", stats::percentile(&sorted, 0.5), "ms", n),
            Metric::new("latency_p99_ms", stats::percentile(&sorted, 0.99), "ms", n),
            Metric::new("ok_frac", (n - out.failed) as f64 / n as f64, "frac", n),
            Metric::new("energy", out.energy, "energy", pool.cases.len() as u64),
            Metric::new("slo_rps", slo, "1/s", n),
        ];
        return Ok(out);
    }

    // Traced replay of the same passes, with the program's own counters
    // collected through a thread-local registry.
    let registry = Arc::new(sched_obs::Registry::new());
    sched_obs::set_thread(Some(Arc::clone(&registry)));
    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch, 0);
    let mut work = Work::default();
    let mut traced_out = Outcome::default();
    let (traced, _) = measure(
        &pool,
        args.seconds / 2.0,
        Some(&mut rec),
        &mut work,
        &mut traced_out,
    );
    sched_obs::set_thread(None);
    out.errors.extend(traced_out.errors);
    spans::write_jsonl(
        &crate::out_dir().join(format!("spans-solve_offline-{}.jsonl", args.seed)),
        rec.spans(),
    )
    .map_err(|e| format!("write spans: {e}"))?;

    let layers = spans::layer_times(rec.spans());
    let solves = traced.iter().map(|l| l.len() as u64).sum::<u64>();
    let per = |name: &str| {
        layers
            .get(name)
            .map_or(0.0, |l| l.self_ns as f64 / 1e6 / l.count.max(1) as f64)
    };
    let count = |name: &str| layers.get(name).map_or(0, |l| l.count);
    let counter = |name: &str| registry.counter(name).get() as f64;
    let (hits, misses) = (
        counter("core.gain_memo.hits"),
        counter("core.gain_memo.misses"),
    );
    let classic = count("candidates.enumerate");
    let dvfs = count("dvfs.compile");
    let traced_ops_per_s = stats::typical_rate(&stats::per_op_medians(&traced));
    out.metrics = vec![
        Metric::new(
            "workloads.generate_s",
            stats::median(&generate),
            "s",
            generate.len() as u64,
        ),
        Metric::new(
            "candidates.enumerate_ms",
            per("candidates.enumerate"),
            "ms",
            classic,
        ),
        Metric::new(
            "candidates.count",
            work.candidates as f64 / classic.max(1) as f64,
            "count",
            classic,
        ),
        Metric::new(
            "objective.reduction_build_ms",
            per("objective.reduction_build"),
            "ms",
            count("objective.reduction_build"),
        ),
        Metric::new(
            "greedy.solve_ms",
            per("greedy.solve"),
            "ms",
            count("greedy.solve"),
        ),
        Metric::new(
            "greedy.evaluations",
            counter("submodular.greedy.evaluations") / solves as f64,
            "count",
            solves,
        ),
        Metric::new(
            "greedy.memo_hit_frac",
            hits / (hits + misses).max(1.0),
            "frac",
            (hits + misses) as u64,
        ),
        Metric::new(
            "matching.augments",
            counter("matching.oracle.augments") / solves as f64,
            "count",
            solves,
        ),
        Metric::new("dvfs.compile_ms", per("dvfs.compile"), "ms", dvfs),
        Metric::new("dvfs.decompile_ms", per("dvfs.decompile"), "ms", dvfs),
        Metric::new(
            "dvfs.candidates",
            work.dvfs_candidates as f64 / dvfs.max(1) as f64,
            "count",
            dvfs,
        ),
        Metric::new(
            "tracing.overhead_frac",
            ops_per_s / traced_ops_per_s - 1.0,
            "frac",
            solves,
        ),
    ];
    Ok(out)
}
