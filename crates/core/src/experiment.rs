//! The sweep machinery every experiment runs on.
//!
//! Every sweep in the workspace runs on **one** worker pool, [`run_rows`]:
//! rows are *produced* lazily on the calling thread, *worked* on a pool
//! thread (one single-threaded world each) with panics caught per row, and
//! *reported* through a callback back on the calling thread the moment
//! they finish; the full outcome set still comes back in input order.
//! [`try_run_configs_streamed`] (configurations), [`run_suffixes_streamed`]
//! (forks of a parent world) and `scenario::run_grid_streamed` (defense
//! grids) are three short calls into it; a no-op callback is the batch
//! form, so streamed and batch rows are the same bytes by construction.
//!
//! An experiment is one **arm list** — `(key, SimulationConfig)` pairs —
//! plus a metric, and has two runners: [`run_arms`] (arms × replicates,
//! grouped by arm) and [`crn_arms`], the common-random-numbers comparison
//! of the first arm against the rest under a shared [`RngPlan::pinned`]
//! noise plan per replicate ([`crn_compare`]). The paper's arm lists, their
//! paper-scale sizes and their claims are the `ddosim-bench` experiment
//! table (`exp` prints it).

use crate::config::{RngPlan, SimulationConfig};
use crate::instance::Ddosim;
use crate::result::RunResult;
use crate::suffix::SuffixSpec;
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex, Once, PoisonError};

/// Renders a panic payload (the `Box<dyn Any>` from [`catch_unwind`]) as
/// the message string it almost always carries. Public so every per-row
/// isolation site (sweeps, scenario grids, serve-mode jobs) reports
/// panics the same way.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

thread_local! {
    static LAST_PANIC_LOCATION: RefCell<Option<String>> = const { RefCell::new(None) };
}

static INSTALL_LOCATION_HOOK: Once = Once::new();

/// Installs (once, process-wide) a panic hook that remembers the last
/// panic's `file:line` for the panicking thread, chaining to the previous
/// hook. [`catch_unwind`] only yields the payload; the location lives in
/// the hook's `PanicHookInfo`, so without this a worker panic reports
/// *what* fired but not *where*.
pub fn install_location_hook() {
    INSTALL_LOCATION_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let loc = info
                .location()
                .map(|l| format!("{}:{}", l.file(), l.line()));
            LAST_PANIC_LOCATION.with(|c| *c.borrow_mut() = loc);
            prev(info);
        }));
    });
}

/// Takes (and clears) the location of the current thread's last panic,
/// rendered as ` at file:line` (empty when no location was captured).
pub fn take_panic_location() -> String {
    LAST_PANIC_LOCATION
        .with(|c| c.borrow_mut().take())
        .map(|l| format!(" at {l}"))
        .unwrap_or_default()
}

/// The sweep worker pool: runs `n` rows and returns their outcomes in
/// input order.
///
/// * `produce(i)` builds row `i`'s job **on the calling thread**, lazily:
///   jobs pass through a hand-off bounded by the thread count, so at most
///   `2 × threads + 2` jobs are alive at once however many rows there are
///   (one in the producer's hand, `threads` queued, `threads` running).
///   That is the shape forked worlds need — their `!Sync` parent can only
///   be cloned by the caller, and each clone is a whole world. An `Err` is
///   that row's outcome; no worker sees it.
/// * `work(i, job)` runs on a pool thread inside `catch_unwind`: a panic
///   becomes the row's `Err` — `"{label(i)} panicked at file:line: …"` —
///   and costs only that row.
/// * `on_row(i, outcome)` fires back on the calling thread as rows finish
///   (completion order, not input order).
///
/// Public only because `scenario` is a separate crate; not part of the
/// documented API.
#[doc(hidden)]
pub fn run_rows<J: Send, T: Send>(
    n: usize,
    label: impl Fn(usize) -> String + Sync,
    mut produce: impl FnMut(usize) -> Result<J, String>,
    work: impl Fn(usize, J) -> Result<T, String> + Sync,
    mut on_row: impl FnMut(usize, &Result<T, String>),
) -> Vec<Result<T, String>> {
    install_location_hook();
    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
        .min(n.max(1));
    let mut results: Vec<Option<Result<T, String>>> = (0..n).map(|_| None).collect();
    // Jobs produced and not yet consumed by `work`.
    let live = AtomicUsize::new(0);
    let (work_tx, work_rx) = mpsc::sync_channel::<(usize, J)>(threads);
    let work_rx = Mutex::new(work_rx);
    let (done_tx, done_rx) = mpsc::channel::<(usize, Result<T, String>)>();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let done_tx = done_tx.clone();
            let (work_rx, work, label, live) = (&work_rx, &work, &label, &live);
            scope.spawn(move || loop {
                // Holding the lock across recv() is fine: exactly one
                // worker waits on the channel, the rest queue on the lock.
                let msg = work_rx
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .recv();
                let Ok((i, job)) = msg else { break };
                let outcome = catch_unwind(AssertUnwindSafe(|| work(i, job))).unwrap_or_else(
                    |payload| {
                        Err(format!(
                            "{} panicked{}: {}",
                            label(i),
                            take_panic_location(),
                            panic_message(&*payload)
                        ))
                    },
                );
                // The job is gone (consumed by `work`, or dropped during
                // the unwind) either way.
                live.fetch_sub(1, Ordering::Relaxed);
                if done_tx.send((i, outcome)).is_err() {
                    // Receiver gone (the callback panicked): stop working.
                    break;
                }
            });
        }
        // Workers hold the remaining result senders; dropping ours makes a
        // dead pool an error on recv() instead of a hang.
        drop(done_tx);
        let mut report = |i: usize, outcome: Result<T, String>| {
            on_row(i, &outcome);
            results[i] = Some(outcome);
        };
        let mut in_flight = 0usize;
        for i in 0..n {
            let job = match produce(i) {
                Ok(job) => job,
                Err(msg) => {
                    report(i, Err(msg));
                    continue;
                }
            };
            let now_live = live.fetch_add(1, Ordering::Relaxed) + 1;
            assert!(
                now_live <= 2 * threads + 2,
                "{now_live} live sweep jobs exceed the bound for {threads} threads"
            );
            // Drain finished rows before (possibly) blocking on the
            // hand-off, so callbacks fire as rows complete rather than
            // only after the last job is produced.
            while let Ok((j, outcome)) = done_rx.try_recv() {
                report(j, outcome);
                in_flight -= 1;
            }
            work_tx.send((i, job)).expect("a worker is receiving");
            in_flight += 1;
        }
        drop(work_tx);
        for _ in 0..in_flight {
            let (j, outcome) = done_rx.recv().expect("workers produce every row");
            report(j, outcome);
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every index was produced"))
        .collect()
}

/// Runs each configuration (in parallel across available threads) and
/// returns per-run outcomes in input order: `Ok(result)` for runs that
/// completed, `Err(message)` for configurations that were invalid or
/// panicked mid-run. One bad point in a sweep costs that row, not the
/// hours of completed rows around it.
///
/// `on_row(i, outcome)` fires on the calling thread the moment row `i`
/// finishes (completion order, not input order); pass `|_, _| {}` for a
/// plain batch — the rows are the same either way.
pub fn try_run_configs_streamed(
    configs: Vec<SimulationConfig>,
    on_row: impl FnMut(usize, &Result<RunResult, String>),
) -> Vec<Result<RunResult, String>> {
    let n = configs.len();
    let mut configs = configs.into_iter();
    run_rows(
        n,
        |i| format!("run {i}"),
        |_| Ok(configs.next().expect("one configuration per row")),
        |i, config| {
            Ddosim::new(config)
                .map(Ddosim::run_to_completion)
                .map_err(|msg| format!("configuration {i} invalid: {msg}"))
        },
        on_row,
    )
}

/// A forked [`Ddosim`] crossing a thread boundary — the only place in the
/// workspace a world changes threads.
struct SendWorld(Ddosim);

// SAFETY: `Ddosim::fork` deep-clones the whole world — every `Rc` in the
// fork's object graph (containers, TCP state, telemetry collectors) is
// freshly allocated and reachable only through this fork, so moving the
// world to another thread moves *all* owners of each `Rc` together.
// `Arc`-shared content (firmware images, served files, propagation
// target lists) is plain immutable data. `run_suffixes_streamed` wraps a
// fork the moment it is made and unwraps it on the one worker that runs it.
unsafe impl Send for SendWorld {}

/// One completed scenario-tree branch: the run's result plus — when the
/// world records or captures — the fork's full flight-recorder trace and
/// packet capture. Both include the shared prefix (a fork inherits the
/// parent's collectors and the recorder's sequence counter), so diffing
/// them against a straight-through run's documents proves fork
/// equivalence byte for byte, and the capture shows where a reseeded
/// branch's packets part from it.
#[derive(Debug)]
pub struct SuffixOutcome {
    /// The branch's run result.
    pub result: RunResult,
    /// The branch's flight-recorder document, if recording was enabled.
    pub trace: Option<djson::Json>,
    /// The branch's packet-capture document, if capturing was enabled.
    pub capture: Option<djson::Json>,
}

/// Fans a scenario tree's suffixes out across the worker pool: forks
/// `parent` once per suffix (decorrelated by each suffix's fork seed),
/// applies the suffix's divergence, and runs every fork to completion.
/// Outcomes come back in input order, one per suffix — `Err` rows carry
/// the fork/apply/run failure without costing the rows around them — and
/// `on_row(i, outcome)` fires on the calling thread as each branch
/// finishes (completion order).
///
/// The parent must already stand at the fork point (run it there with
/// [`Ddosim::run_prefix`]); it is only read, never advanced, so the
/// caller can fork it again for another round. Forking is lazy (see
/// [`run_rows`]): peak memory is O(threads × world size), not
/// O(suffixes × world size).
pub fn run_suffixes_streamed(
    parent: &Ddosim,
    suffixes: &[SuffixSpec],
    on_row: impl FnMut(usize, &Result<SuffixOutcome, String>),
) -> Vec<Result<SuffixOutcome, String>> {
    run_rows(
        suffixes.len(),
        |i| format!("suffix {i}"),
        |i| {
            parent
                .fork_with_seed(suffixes[i].fork_seed)
                .and_then(|mut world| {
                    world.apply_suffix(&suffixes[i])?;
                    Ok(SendWorld(world))
                })
                .map_err(|msg| format!("suffix {i} invalid: {msg}"))
        },
        |i, SendWorld(world)| {
            // The handle shares the fork's collectors, so it stays
            // readable after the run consumes the world.
            let tele = world.telemetry().clone();
            let (result, _) = world
                .try_run_to_completion()
                .map_err(|msg| format!("suffix {i} failed: {msg}"))?;
            Ok(SuffixOutcome {
                result,
                trace: tele.recorder_json(),
                capture: tele.capture_json(),
            })
        },
        on_row,
    )
}

/// Runs each configuration (in parallel across available threads) and
/// returns results in input order.
///
/// # Panics
///
/// Panics if any configuration is invalid or any run panicked — sweep code
/// constructs its own configurations, so this indicates a programming
/// error. Unlike a raw worker panic, the message aggregates *all* failed
/// rows after every other row has finished. Use
/// [`try_run_configs_streamed`] to keep partial results instead.
pub fn run_configs(configs: Vec<SimulationConfig>) -> Vec<RunResult> {
    let outcomes = try_run_configs_streamed(configs, |_, _| {});
    let runs = outcomes.len();
    let mut failures = Vec::new();
    let results = outcomes
        .into_iter()
        .filter_map(|outcome| outcome.map_err(|msg| failures.push(msg)).ok())
        .collect();
    assert!(
        failures.is_empty(),
        "sweep failed on {} of {runs} runs: {}",
        failures.len(),
        failures.join("; ")
    );
    results
}

/// One arm of an experiment: the key its row is reported under, and the
/// world it runs. Seed and RNG plan are stamped per replicate by whoever
/// runs the arm ([`run_arms`] or [`crn_compare`]).
pub type Arm<K> = (K, SimulationConfig);

/// The default (paper) world at `devs` devices with one arm's `edit`.
pub fn world(devs: usize, edit: impl FnOnce(&mut SimulationConfig)) -> SimulationConfig {
    let mut config = SimulationConfig {
        devs,
        ..SimulationConfig::default()
    };
    edit(&mut config);
    config
}

/// Runs every arm `replicates` times — replicate `r` under seed
/// `base_seed + r` — as one pool batch, and returns each arm's key with
/// its runs in replicate order. Panics as [`run_configs`].
pub fn run_arms<K>(arms: Vec<Arm<K>>, replicates: u64, base_seed: u64) -> Vec<(K, Vec<RunResult>)> {
    let configs = arms
        .iter()
        .flat_map(|(_, config)| {
            (0..replicates).map(move |rep| SimulationConfig {
                seed: base_seed + rep,
                ..config.clone()
            })
        })
        .collect();
    let mut results = run_configs(configs).into_iter();
    arms.into_iter()
        .map(|(key, _)| (key, results.by_ref().take(replicates as usize).collect()))
        .collect()
}

/// [`crn_compare`] over an arm list: the first arm is the baseline, every
/// other arm a treatment labelled by `label`. Panics on an empty arm list,
/// and as [`crn_compare`].
pub fn crn_arms<K>(
    arms: Vec<Arm<K>>,
    label: impl Fn(&K) -> String,
    replicates: u64,
    base_seed: u64,
    metric: impl Fn(&RunResult) -> f64,
) -> Vec<CrnComparison> {
    let mut arms = arms.into_iter();
    let (_, baseline) = arms.next().expect("an arm list starts with its baseline");
    let treatments: Vec<(String, SimulationConfig)> =
        arms.map(|(key, config)| (label(&key), config)).collect();
    crn_compare(&baseline, &treatments, replicates, base_seed, metric)
}

/// Arithmetic mean; 0 for no values.
pub fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// Unbiased sample variance (n − 1 denominator); 0 for fewer than two
/// samples.
fn sample_variance(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values.iter().copied());
    values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (values.len() - 1) as f64
}

/// One treatment of a common-random-numbers comparison: the paired
/// (shared-noise) A−B statistics next to the same comparison run with
/// independent seeds, so the variance reduction CRN buys is measured, not
/// assumed.
#[derive(Debug, Clone)]
pub struct CrnComparison {
    /// Human-readable treatment label.
    pub label: String,
    /// Mean metric of the baseline arm (paired replicates).
    pub baseline_mean: f64,
    /// Mean metric of the treatment arm (paired replicates).
    pub treatment_mean: f64,
    /// Mean paired difference (treatment − baseline).
    pub diff_mean: f64,
    /// Sample variance of the per-replicate difference under shared noise.
    pub paired_diff_var: f64,
    /// Sample variance of the per-replicate difference under independent
    /// seeds.
    pub independent_diff_var: f64,
    /// `independent_diff_var / paired_diff_var` — how many times fewer
    /// replicates the paired design needs for the same standard error
    /// (`f64::INFINITY` when pairing removes the noise entirely).
    pub variance_ratio: f64,
    /// Replicates per arm.
    pub replicates: u64,
}

/// Runs a paired common-random-numbers comparison of `baseline` against
/// each labelled treatment, next to the identical comparison with
/// independent seeds.
///
/// Per replicate `r`, the paired arms both carry
/// [`RngPlan::pinned`]`(base_seed + r)` — identical world, event, and
/// fault streams, so the treatment is the *only* thing that differs — and
/// the independent arms draw disjoint seeds with the default plan. All
/// runs go through one [`run_configs`] pool batch.
///
/// # Panics
///
/// Panics if `replicates < 2` (a variance needs two samples) or if any
/// constructed configuration fails to run (as [`run_configs`]).
pub fn crn_compare(
    baseline: &SimulationConfig,
    treatments: &[(String, SimulationConfig)],
    replicates: u64,
    base_seed: u64,
    metric: impl Fn(&RunResult) -> f64,
) -> Vec<CrnComparison> {
    assert!(replicates >= 2, "CRN comparison needs at least two replicates");
    // Disjoint seed blocks keep the independent arms genuinely
    // independent — of the paired arms and of each other.
    const INDEP_BASELINE_BLOCK: u64 = 10_000;
    const INDEP_TREATMENT_BLOCK: u64 = 20_000;
    // Two blocks of `replicates` rows per arm, baseline first: the arm
    // under shared noise, then under its own disjoint seeds.
    let arms = std::iter::once(baseline).chain(treatments.iter().map(|(_, config)| config));
    let configs = arms
        .enumerate()
        .flat_map(|(k, arm)| {
            let block = match k {
                0 => INDEP_BASELINE_BLOCK,
                _ => INDEP_TREATMENT_BLOCK + (k as u64 - 1) * replicates,
            };
            let paired = (0..replicates).map(move |rep| SimulationConfig {
                seed: base_seed + rep,
                rng: RngPlan::pinned(base_seed + rep),
                ..arm.clone()
            });
            let independent = (0..replicates).map(move |rep| SimulationConfig {
                seed: base_seed + block + rep,
                rng: RngPlan::default(),
                ..arm.clone()
            });
            paired.chain(independent)
        })
        .collect();
    let reps = replicates as usize;
    let results = run_configs(configs);
    let vals = |block: usize| -> Vec<f64> {
        results[block * reps..(block + 1) * reps]
            .iter()
            .map(&metric)
            .collect()
    };
    let paired_base = vals(0);
    let indep_base = vals(1);
    treatments
        .iter()
        .enumerate()
        .map(|(k, (label, _))| {
            let paired_treat = vals(2 + 2 * k);
            let indep_treat = vals(3 + 2 * k);
            let diffs = |treat: &[f64], base: &[f64]| -> Vec<f64> {
                treat.iter().zip(base).map(|(t, b)| t - b).collect()
            };
            let paired_diffs = diffs(&paired_treat, &paired_base);
            let indep_diffs = diffs(&indep_treat, &indep_base);
            let paired_diff_var = sample_variance(&paired_diffs);
            let independent_diff_var = sample_variance(&indep_diffs);
            let variance_ratio = if paired_diff_var > 0.0 {
                independent_diff_var / paired_diff_var
            } else if independent_diff_var > 0.0 {
                f64::INFINITY
            } else {
                1.0
            };
            CrnComparison {
                label: label.clone(),
                baseline_mean: mean(paired_base.iter().copied()),
                treatment_mean: mean(paired_treat.iter().copied()),
                diff_mean: mean(paired_diffs.iter().copied()),
                paired_diff_var,
                independent_diff_var,
                variance_ratio,
                replicates,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn small(devs: usize, seed: u64) -> SimulationConfig {
        SimulationConfig {
            devs,
            attack: crate::AttackSpec::udp_plain(Duration::from_secs(15)),
            attack_at: Duration::from_secs(25),
            sim_time: Duration::from_secs(45),
            attack_ramp: Duration::from_secs(2),
            seed,
            ..SimulationConfig::default()
        }
    }

    fn pool_threads() -> usize {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(4)
    }

    /// The pool itself, driven with plain-data rows (no simulator).
    mod runner {
        use super::*;
        use std::sync::atomic::Ordering::SeqCst;
        use std::sync::Arc;

        fn label(i: usize) -> String {
            format!("row {i}")
        }

        #[test]
        fn results_in_input_order_callbacks_in_completion_order_on_the_caller() {
            let caller = std::thread::current().id();
            // With two or more workers, row 0 is held until row 1 has been
            // *reported*, which forces completion order ≠ input order.
            let hold_row_0 = pool_threads() >= 2;
            let (release_tx, release_rx) = mpsc::channel::<()>();
            let release_rx = Mutex::new(release_rx);
            let mut reported = Vec::new();
            let rows = run_rows(
                4,
                label,
                |i| {
                    assert_eq!(std::thread::current().id(), caller, "produce runs on the caller");
                    Ok(i * 10)
                },
                |i, job| {
                    assert_ne!(std::thread::current().id(), caller, "work runs on the pool");
                    if i == 0 && hold_row_0 {
                        release_rx.lock().unwrap().recv().expect("row 1 is reported first");
                    }
                    Ok(job + 1)
                },
                |i, outcome| {
                    assert_eq!(std::thread::current().id(), caller, "on_row runs on the caller");
                    reported.push((i, outcome.clone()));
                    if i == 1 {
                        let _ = release_tx.send(());
                    }
                },
            );
            assert_eq!(rows, [Ok(1), Ok(11), Ok(21), Ok(31)], "results come back in input order");
            let order: Vec<usize> = reported.iter().map(|(i, _)| *i).collect();
            let (pos_0, pos_1) = (
                order.iter().position(|&i| i == 0).expect("row 0 reported"),
                order.iter().position(|&i| i == 1).expect("row 1 reported"),
            );
            if hold_row_0 {
                assert!(pos_1 < pos_0, "callbacks follow completion order, got {order:?}");
            }
            reported.sort();
            let rows_by_index: Vec<_> = rows.iter().cloned().enumerate().collect();
            assert_eq!(reported, rows_by_index, "every row is reported exactly once, as returned");
        }

        #[test]
        fn a_panicking_row_reports_its_location_and_costs_only_its_row() {
            let rows = run_rows(
                3,
                label,
                Ok,
                |i, job| {
                    assert!(i != 1, "boom");
                    Ok(job)
                },
                |_, _| {},
            );
            assert_eq!((&rows[0], &rows[2]), (&Ok(0), &Ok(2)));
            let err = rows[1].as_ref().expect_err("row 1 panicked");
            assert!(err.starts_with("row 1 panicked at "), "got: {err}");
            assert!(err.contains("experiment.rs:"), "panic location missing from: {err}");
            assert!(err.ends_with(": boom"), "got: {err}");
        }

        #[test]
        fn a_failing_producer_row_costs_only_its_row_and_reaches_no_worker() {
            let worked = AtomicUsize::new(0);
            let mut reported = 0;
            let rows = run_rows(
                3,
                label,
                |i| if i == 1 { Err("row 1 could not be produced".to_owned()) } else { Ok(i) },
                |_, job| {
                    worked.fetch_add(1, SeqCst);
                    Ok(job)
                },
                |_, _| reported += 1,
            );
            assert_eq!(rows, [Ok(0), Err("row 1 could not be produced".to_owned()), Ok(2)]);
            assert_eq!(worked.load(SeqCst), 2);
            assert_eq!(reported, 3, "the failed row is reported like any other");
        }

        #[test]
        fn zero_rows_return_empty_without_callbacks() {
            let rows = run_rows(
                0,
                label,
                |_| -> Result<(), String> { unreachable!("nothing to produce") },
                |_, ()| Ok(()),
                |_, _| unreachable!("nothing to report"),
            );
            assert!(rows.is_empty());
        }

        /// A job that counts itself alive from construction to drop.
        struct Tracked {
            row: usize,
            live: Arc<(AtomicUsize, AtomicUsize)>,
        }

        impl Tracked {
            fn new(row: usize, live: &Arc<(AtomicUsize, AtomicUsize)>) -> Self {
                let now = live.0.fetch_add(1, SeqCst) + 1;
                live.1.fetch_max(now, SeqCst);
                Tracked { row, live: Arc::clone(live) }
            }
        }

        impl Drop for Tracked {
            fn drop(&mut self) {
                self.live.0.fetch_sub(1, SeqCst);
            }
        }

        #[test]
        fn many_more_rows_than_threads_keep_live_jobs_within_the_bound() {
            let threads = pool_threads();
            let n = threads * 8 + 3;
            let live = Arc::new((AtomicUsize::new(0), AtomicUsize::new(0)));
            let produced = AtomicUsize::new(0);
            let rows = run_rows(
                n,
                label,
                |i| {
                    let job = Tracked::new(i, &live);
                    produced.fetch_add(1, SeqCst);
                    Ok(job)
                },
                |i, job| {
                    // Hold every row until the producer has run as far
                    // ahead of it as the hand-off allows (a full queue:
                    // `threads` more jobs), so the bound is approached,
                    // not merely never threatened. Always satisfiable: the
                    // producer needs no row to finish to get that far.
                    while produced.load(SeqCst) < n.min(i + threads + 1) {
                        std::thread::yield_now();
                    }
                    Ok(job.row)
                },
                |_, _| {},
            );
            assert_eq!(rows, (0..n).map(Ok).collect::<Vec<_>>());
            let (now, peak) = (live.0.load(SeqCst), live.1.load(SeqCst));
            assert_eq!(now, 0, "every job was consumed");
            assert!(peak > threads, "the producer must run ahead of the pool, peak {peak}");
            assert!(
                peak <= 2 * threads + 2,
                "peak of {peak} live jobs exceeds the bound for {threads} threads \
                 ({n} rows would all be live under eager production)"
            );
        }
    }

    #[test]
    fn run_configs_preserves_order_and_parallelizes() {
        let configs = vec![small(2, 1), small(4, 2), small(6, 3)];
        let results = run_configs(configs);
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].devs, 2);
        assert_eq!(results[1].devs, 4);
        assert_eq!(results[2].devs, 6);
    }

    #[test]
    fn identical_configs_give_identical_results() {
        let results = run_configs(vec![small(3, 9), small(3, 9)]);
        assert_eq!(
            results[0].avg_received_data_rate_kbps,
            results[1].avg_received_data_rate_kbps
        );
        assert_eq!(results[0].packets_sent, results[1].packets_sent);
    }

    #[test]
    fn one_failing_config_does_not_poison_the_sweep() {
        // devs = 0 fails validation inside the worker thread: it must cost
        // only its own row.
        let invalid = SimulationConfig { devs: 0, ..small(2, 1) };
        let outcomes =
            try_run_configs_streamed(vec![small(2, 1), invalid, small(3, 2)], |_, _| {});
        assert_eq!(outcomes.len(), 3);
        assert_eq!(outcomes[0].as_ref().map(|r| r.devs), Ok(2));
        assert_eq!(outcomes[2].as_ref().map(|r| r.devs), Ok(3));
        let err = outcomes[1].as_ref().expect_err("devs = 0 must fail");
        assert!(err.contains("configuration 1 invalid"), "got: {err}");
    }

    #[test]
    fn run_configs_panics_with_aggregate_message_on_failure() {
        let invalid = SimulationConfig { devs: 0, ..small(2, 1) };
        let panic = catch_unwind(AssertUnwindSafe(|| run_configs(vec![small(2, 1), invalid])))
            .expect_err("run_configs must propagate the failure");
        let msg = panic_message(&*panic);
        assert!(msg.contains("1 of 2 runs"), "got: {msg}");
    }

    #[test]
    fn empty_sweep_returns_empty() {
        assert!(try_run_configs_streamed(Vec::new(), |_, _| {}).is_empty());
        assert!(run_configs(Vec::new()).is_empty());
    }

    #[test]
    fn single_config_sweep_matches_direct_run() {
        let direct = Ddosim::new(small(3, 5)).expect("valid").run_to_completion();
        let swept = try_run_configs_streamed(vec![small(3, 5)], |_, _| {});
        assert_eq!(swept.len(), 1);
        let r = swept[0].as_ref().expect("run completes");
        assert_eq!(r.packets_sent, direct.packets_sent);
        assert_eq!(
            r.avg_received_data_rate_kbps,
            direct.avg_received_data_rate_kbps
        );
    }

    #[test]
    fn many_more_configs_than_threads_all_complete_in_order() {
        // Wide enough to fill the hand-off: the pool's own live-job
        // assertion holds for this caller too.
        let n = pool_threads() * 3 + 1;
        let configs: Vec<SimulationConfig> = (0..n).map(|i| small(2, i as u64)).collect();
        let outcomes = try_run_configs_streamed(configs, |_, _| {});
        assert_eq!(outcomes.len(), n);
        for (i, outcome) in outcomes.iter().enumerate() {
            let r = outcome.as_ref().unwrap_or_else(|e| panic!("row {i}: {e}"));
            assert_eq!(r.seed, i as u64, "row {i} out of input order");
        }
    }

    #[test]
    fn poisoned_row_panic_reports_location_and_other_rows_complete() {
        // tserver_link_bps = 0 passes validation but panics mid-run (the
        // zero-rate tx_delay) once attack traffic reaches the TServer
        // link — a worker *panic*, not an Err. It must cost only its own
        // row, rows on both sides still complete in input order, and the
        // failure string must carry the panic's file:line.
        let poisoned = SimulationConfig {
            tserver_link_bps: 0,
            ..small(2, 1)
        };
        let outcomes =
            try_run_configs_streamed(vec![small(2, 1), poisoned, small(3, 2)], |_, _| {});
        assert_eq!(outcomes.len(), 3);
        assert_eq!(outcomes[0].as_ref().map(|r| r.devs), Ok(2));
        assert_eq!(outcomes[2].as_ref().map(|r| r.devs), Ok(3));
        let err = outcomes[1].as_ref().expect_err("zero-rate link must panic");
        assert!(err.contains("run 1 panicked"), "got: {err}");
        assert!(err.contains(".rs:"), "panic location missing from: {err}");
    }

    #[test]
    fn panic_location_slot_is_consumed_per_thread() {
        install_location_hook();
        let outcome = catch_unwind(AssertUnwindSafe(|| -> u32 { panic!("boom") }));
        assert!(outcome.is_err());
        let loc = take_panic_location();
        assert!(
            loc.contains("experiment.rs"),
            "location hook must capture this file, got: '{loc}'"
        );
        assert_eq!(take_panic_location(), "", "slot must clear after take");
    }

    /// Canonical byte representation of a row for identity comparisons:
    /// the deterministic result JSON for successes, the error string for
    /// failures.
    fn row_repr(outcome: &Result<RunResult, String>) -> String {
        match outcome {
            Ok(r) => r.to_deterministic_json().to_string_compact(),
            Err(e) => e.clone(),
        }
    }

    /// Runs `configs` twice — once collecting callback rows, once as a
    /// plain batch — and checks callback rows, returned rows and the
    /// second run's rows are all the same bytes.
    fn assert_streamed_equals_batch(configs: Vec<SimulationConfig>) -> Result<(), String> {
        let mut seen: Vec<Option<String>> = vec![None; configs.len()];
        let mut twice = None;
        let streamed = try_run_configs_streamed(configs.clone(), |i, outcome| {
            if seen[i].replace(row_repr(outcome)).is_some() {
                twice = Some(i);
            }
        });
        if let Some(i) = twice {
            return Err(format!("row {i} delivered twice"));
        }
        let batch = try_run_configs_streamed(configs, |_, _| {});
        for (i, (b, s)) in batch.iter().zip(&streamed).enumerate() {
            if row_repr(b) != row_repr(s) {
                return Err(format!("row {i} differs between runs"));
            }
            if seen[i].as_deref() != Some(row_repr(s).as_str()) {
                return Err(format!("callback row {i} differs from the returned row"));
            }
        }
        Ok(())
    }

    #[test]
    fn streamed_rows_match_batch_including_failures() {
        let invalid = SimulationConfig { devs: 0, ..small(2, 1) };
        let poisoned = SimulationConfig {
            tserver_link_bps: 0,
            ..small(2, 1)
        };
        assert_eq!(
            assert_streamed_equals_batch(vec![small(2, 1), invalid, small(3, 2), poisoned]),
            Ok(())
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4))]
        #[test]
        fn streamed_rows_are_byte_identical_to_batch(
            seeds in proptest::collection::vec(proptest::any::<u64>(), 1..5)
        ) {
            // Derive a mixed bag from each seed: valid rows of varying
            // size, invalid rows (devs = 0 fails validation), and poisoned
            // rows (a zero-rate TServer link panics mid-run) — the error
            // strings must be byte-identical too.
            let configs: Vec<SimulationConfig> = seeds
                .iter()
                .map(|&s| {
                    let mut c = small(2 + (s % 2) as usize, s % 16);
                    match s % 5 {
                        0 => c.devs = 0,
                        1 => c.tserver_link_bps = 0,
                        _ => {}
                    }
                    c
                })
                .collect();
            proptest::prop_assert_eq!(assert_streamed_equals_batch(configs), Ok(()));
        }
    }

    #[test]
    fn crn_pairing_reduces_difference_variance() {
        // Treatment: a longer attack duration. Both arms' received rate
        // scales with the same world draws (the bots' access-link rates),
        // so under a shared noise plan the A−B difference cancels that
        // noise, while independent seeds redraw it in both arms. (A
        // treatment whose arm stops responding to the shared noise — e.g.
        // capping the flood below the access range — would defeat the
        // pairing; CRN pays off when both arms co-vary with the noise.)
        let base = small(2, 0);
        let mut longer = base.clone();
        longer.attack.duration = Duration::from_secs(18);
        let rows = crn_compare(
            &base,
            &[("18s attack vs 15s".to_owned(), longer)],
            20,
            1000,
            |r| r.avg_received_data_rate_kbps,
        );
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.replicates, 20);
        assert!(
            row.independent_diff_var > 0.0,
            "independent seeds must produce varying differences"
        );
        assert!(
            row.paired_diff_var < row.independent_diff_var,
            "paired variance {} must be strictly below independent variance {}",
            row.paired_diff_var,
            row.independent_diff_var
        );
        assert!(row.variance_ratio > 1.0, "ratio: {}", row.variance_ratio);
    }

    #[test]
    fn crn_pinned_arms_share_noise_streams() {
        // Two paired configs that do not differ at all must produce the
        // same deterministic result even though their run seeds differ:
        // every noise stream is pinned.
        let mut a = small(3, 1);
        let mut b = small(3, 2);
        a.rng = RngPlan::pinned(55);
        b.rng = RngPlan::pinned(55);
        let results = run_configs(vec![a, b]);
        assert_eq!(results[0].packets_sent, results[1].packets_sent);
        assert_eq!(
            results[0].avg_received_data_rate_kbps,
            results[1].avg_received_data_rate_kbps
        );
        assert_eq!(results[0].infected, results[1].infected);
    }

    #[test]
    fn pinned_plan_reproduces_the_plain_run_of_its_noise_seed() {
        // pinned(s) on any run seed is the same world as a plain run with
        // seed = s — the pinning is an override, not a new derivation.
        let plain = Ddosim::new(small(3, 7)).expect("valid").run_to_completion();
        let mut pinned = small(3, 1234);
        pinned.rng = RngPlan::pinned(7);
        let r = Ddosim::new(pinned).expect("valid").run_to_completion();
        assert_eq!(r.packets_sent, plain.packets_sent);
        assert_eq!(
            r.avg_received_data_rate_kbps,
            plain.avg_received_data_rate_kbps
        );
    }

    fn parent_at_fork_point(devs: usize) -> Ddosim {
        let mut parent = Ddosim::new(small(devs, 11)).expect("valid");
        parent.run_prefix(Duration::from_secs(20)).expect("prefix runs");
        parent
    }

    #[test]
    fn run_suffixes_empty_and_identity() {
        let parent = parent_at_fork_point(3);
        assert!(run_suffixes_streamed(&parent, &[], |_, _| {}).is_empty());
        let straight = Ddosim::new(small(3, 11)).expect("valid").run_to_completion();
        let rows = run_suffixes_streamed(
            &parent,
            &[SuffixSpec::identity("a"), SuffixSpec::identity("b")],
            |_, _| {},
        );
        assert_eq!(rows.len(), 2);
        for row in &rows {
            let r = &row.as_ref().expect("identity suffix completes").result;
            assert_eq!(r.packets_sent, straight.packets_sent);
            assert_eq!(r.flood_packets_received, straight.flood_packets_received);
        }
    }

    /// Peak resident set (VmHWM) of this process, in kB.
    fn peak_rss_kb() -> u64 {
        std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|s| {
                s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                    l.split_whitespace().nth(1).and_then(|v| v.parse().ok())
                })
            })
            .unwrap_or(0)
    }

    #[test]
    fn wide_suffix_sweep_forks_lazily() {
        let parent = parent_at_fork_point(4);
        let n = pool_threads() * 4 + 2;
        let suffixes: Vec<SuffixSpec> = (0..n)
            .map(|i| SuffixSpec::identity(format!("s{i}")))
            .collect();
        let rss_before = peak_rss_kb();
        let mut delivered = 0usize;
        // The precise invariant — live forks never exceed the pool
        // (running) + the hand-off queue (threads) + the one in the
        // producer's hand — is asserted inside the pool on every run
        // (and measured from outside in `runner`); eager forking would
        // hold all n alive at once and trip it here.
        let rows = run_suffixes_streamed(&parent, &suffixes, |_, outcome| {
            assert!(outcome.is_ok());
            delivered += 1;
        });
        assert_eq!(rows.len(), n);
        assert_eq!(delivered, n);
        assert!(rows.iter().all(Result::is_ok));
        // Coarse end-to-end check on the same property: a wide sweep of
        // small worlds must not balloon the process high-water mark the
        // way n simultaneous deep clones would.
        let rss_grown_kb = peak_rss_kb().saturating_sub(rss_before);
        assert!(
            rss_grown_kb < 512 * 1024,
            "wide suffix sweep grew peak RSS by {rss_grown_kb} kB"
        );
    }

    #[test]
    fn streamed_suffix_callbacks_match_returned_rows_and_a_bad_horizon_costs_its_row() {
        let parent = parent_at_fork_point(3);
        let bad = SuffixSpec {
            horizon: Some(Duration::from_secs(1)),
            ..SuffixSpec::identity("bad")
        };
        let suffixes = vec![SuffixSpec::identity("a"), bad, SuffixSpec::identity("b")];
        let repr = |o: &Result<SuffixOutcome, String>| match o {
            Ok(s) => s.result.to_deterministic_json().to_string_compact(),
            Err(e) => e.clone(),
        };
        let mut seen: Vec<Option<String>> = vec![None; suffixes.len()];
        let rows = run_suffixes_streamed(&parent, &suffixes, |i, outcome| {
            assert!(seen[i].is_none(), "row {i} delivered twice");
            seen[i] = Some(repr(outcome));
        });
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(seen[i].as_deref(), Some(repr(row).as_str()), "callback row {i}");
        }
        // The producer-side failure (the fork cannot take the horizon)
        // is that row's outcome and nothing else's.
        assert!(rows[0].is_ok() && rows[2].is_ok());
        assert_eq!(repr(&rows[0]), repr(&rows[2]), "identity branches agree");
        let err = rows[1].as_ref().expect_err("horizon before attack end");
        assert!(err.contains("suffix 1 invalid"), "got: {err}");
        assert!(err.contains("horizon"), "got: {err}");
    }
}
