//! Grid sweeps over a scenario plan's defense parameters under common
//! random numbers.
//!
//! ROADMAP item 3 meets item 1 here: a base plan is expanded into a grid
//! of cells that differ only in one defense's parameters (rate-limit
//! budget × deploy time, patch waves × interval, takedown time × backup
//! count), and every cell of a replicate runs under the same pinned
//! [`RngPlan`] — identical world, event, and fault streams — so
//! cell-to-cell differences are the defense's effect, not reseeded noise.
//! Rows run on the workspace's one sweep pool
//! ([`ddosim_core::experiment::run_rows`]) and stream back as workers
//! finish, like [`ddosim_core::try_run_configs_streamed`].

use crate::plan::{DefenseSpec, ScenarioPlan};
use ddosim_core::{experiment::run_rows, Ddosim, RngPlan, RunResult};
use djson::Json;
use faults::{Fields, PlanError, Read, Val};
use std::time::Duration;

/// One cell of a defense-parameter grid: a label naming the parameters
/// and the plan variant carrying them.
#[derive(Debug, Clone)]
pub struct GridCell {
    /// Human-readable cell label (row label in frontier tables).
    pub label: String,
    /// The plan variant this cell runs.
    pub plan: ScenarioPlan,
}

/// Replaces the single `rate_limit` defense across a (rate × deploy-time)
/// grid.
///
/// # Errors
///
/// Returns a message if the base plan has no `rate_limit` defense or has
/// more than one.
fn rate_limit_grid(
    base: &ScenarioPlan,
    rates_bps: &[u64],
    deploy_at_secs: &[u64],
) -> Result<Vec<GridCell>, String> {
    expand(base, "rate_limit", rates_bps, deploy_at_secs, |d, &rate, &at| {
        let DefenseSpec::RateLimit { burst_bytes, .. } = *d else {
            unreachable!("expand matched the kind");
        };
        (
            format!("rate_limit {rate} bps at {at}s"),
            DefenseSpec::RateLimit {
                at: Duration::from_secs(at),
                rate_bps: rate,
                burst_bytes,
            },
        )
    })
}

/// Replaces the single `patch_rollout` defense across a (wave count ×
/// wave interval) grid.
///
/// # Errors
///
/// Returns a message if the base plan has no `patch_rollout` defense or
/// has more than one.
fn patch_rollout_grid(
    base: &ScenarioPlan,
    waves: &[u32],
    wave_interval_secs: &[u64],
) -> Result<Vec<GridCell>, String> {
    expand(base, "patch_rollout", waves, wave_interval_secs, |d, &w, &secs| {
        let DefenseSpec::PatchRollout { start, ref remove, .. } = *d else {
            unreachable!("expand matched the kind");
        };
        (
            format!("patch_rollout {w} waves every {secs}s"),
            DefenseSpec::PatchRollout {
                start,
                wave_interval: Duration::from_secs(secs),
                waves: w,
                remove: remove.clone(),
            },
        )
    })
}

/// Replaces the single `cnc_takedown` defense across a (takedown time ×
/// backup count) grid. The backup count is build-time world shape, so the
/// cell's configuration is re-synced with the defense.
///
/// # Errors
///
/// Returns a message if the base plan has no `cnc_takedown` defense or
/// has more than one.
fn takedown_grid(
    base: &ScenarioPlan,
    at_secs: &[u64],
    backups: &[u16],
) -> Result<Vec<GridCell>, String> {
    let mut cells = expand(base, "cnc_takedown", at_secs, backups, |_, &at, &n| {
        (
            format!("cnc_takedown at {at}s, {n} backups"),
            DefenseSpec::CncTakedown {
                at: Duration::from_secs(at),
                backups: n,
            },
        )
    })?;
    for cell in &mut cells {
        let backups = cell
            .plan
            .defenses
            .iter()
            .find_map(|d| match *d {
                DefenseSpec::CncTakedown { backups, .. } => Some(backups),
                _ => None,
            })
            .expect("expand produced a takedown cell");
        cell.plan.config_mut().backup_cncs = backups;
    }
    Ok(cells)
}

/// Shared grid expansion: clones the base plan per (a × b) point and
/// swaps the single defense of `kind` for the variant `make` builds.
fn expand<A, B>(
    base: &ScenarioPlan,
    kind: &str,
    axis_a: &[A],
    axis_b: &[B],
    make: impl Fn(&DefenseSpec, &A, &B) -> (String, DefenseSpec),
) -> Result<Vec<GridCell>, String> {
    let positions: Vec<usize> = base
        .defenses
        .iter()
        .enumerate()
        .filter(|(_, d)| d.kind() == kind)
        .map(|(i, _)| i)
        .collect();
    let [pos] = positions[..] else {
        return Err(format!(
            "grid sweep needs exactly one '{kind}' defense in plan '{}', found {}",
            base.name,
            positions.len()
        ));
    };
    let mut cells = Vec::with_capacity(axis_a.len() * axis_b.len());
    for a in axis_a {
        for b in axis_b {
            let mut plan = base.clone();
            let (label, defense) = make(&base.defenses[pos], a, b);
            plan.defenses[pos] = defense;
            cells.push(GridCell { label, plan });
        }
    }
    Ok(cells)
}

/// One grid cell's swept outcomes: per-replicate rows plus the headline
/// means a frontier table wants.
#[derive(Debug)]
pub struct CellOutcome {
    /// The cell's label.
    pub label: String,
    /// Per-replicate outcomes, in replicate order.
    pub rows: Vec<Result<RunResult, String>>,
    /// Mean received data rate (kbps) over completed replicates.
    pub mean_kbps: f64,
    /// Mean bots at the attack command over completed replicates.
    pub mean_bots_at_command: f64,
    /// Mean flood packets received over completed replicates.
    pub mean_flood_packets: f64,
}

/// Runs every grid cell `replicates` times under shared noise and streams
/// rows as they land.
///
/// Replicate `r` of *every* cell carries run seed `base_seed + r` and
/// [`RngPlan::pinned`]`(base_seed + r)`: within a replicate the cells are
/// a CRN-paired family (identical worlds, identical event and fault
/// streams — and an identical scenario stream, which derives from the
/// shared run seed), so the defense parameters are the only thing that
/// varies. `on_row(cell, replicate, outcome)` fires on the calling thread
/// the moment a worker finishes that cell-replicate; the full outcome set
/// still comes back in grid order. Cells run in parallel across available
/// threads, one single-threaded world each.
pub fn run_grid_streamed(
    cells: &[GridCell],
    replicates: u64,
    base_seed: u64,
    mut on_row: impl FnMut(usize, u64, &Result<RunResult, String>),
) -> Vec<CellOutcome> {
    let reps = replicates.max(1) as usize;
    // Row j is replicate `j % reps` of cell `j / reps`.
    let name = |j: usize| format!("cell {} replicate {}", j / reps, j % reps);
    let mut rows = run_rows(
        cells.len() * reps,
        name,
        |j| {
            let noise = base_seed + (j % reps) as u64;
            let mut plan = cells[j / reps].plan.clone();
            plan.pin_noise(noise, RngPlan::pinned(noise));
            Ok(plan)
        },
        |j, plan| {
            plan.build()
                .map(Ddosim::run_to_completion)
                .map_err(|msg| format!("{} invalid: {msg}", name(j)))
        },
        |j, outcome| on_row(j / reps, (j % reps) as u64, outcome),
    )
    .into_iter();
    cells
        .iter()
        .map(|cell| {
            let cell_rows: Vec<Result<RunResult, String>> = rows.by_ref().take(reps).collect();
            let mean = |f: fn(&RunResult) -> f64| {
                let ok: Vec<f64> = cell_rows.iter().flatten().map(f).collect();
                if ok.is_empty() {
                    0.0
                } else {
                    ok.iter().sum::<f64>() / ok.len() as f64
                }
            };
            let mean_kbps = mean(|r| r.avg_received_data_rate_kbps);
            let mean_bots_at_command = mean(|r| r.bots_at_command as f64);
            let mean_flood_packets = mean(|r| r.flood_packets_received as f64);
            CellOutcome {
                label: cell.label.clone(),
                rows: cell_rows,
                mean_kbps,
                mean_bots_at_command,
                mean_flood_packets,
            }
        })
        .collect()
}

/// Schema tag for checked-in grid-sweep plans (`plans/*.sweep.json`).
pub const SWEEPGRID_SCHEMA: &str = "ddosim.sweepgrid/1";

/// A parsed, validated grid-sweep plan: a base `ddosim.scenario/1` plan
/// expanded along one defense's two parameter axes, plus the replicate
/// count and base seed the CRN pairing runs under.
#[derive(Debug)]
pub struct SweepGridPlan {
    /// Human-readable sweep name (table caption).
    pub name: String,
    /// The base plan every cell derives from.
    pub base: ScenarioPlan,
    /// The expanded grid cells, in axis-major order.
    pub cells: Vec<GridCell>,
    /// CRN replicates per cell.
    pub replicates: u64,
    /// Replicate `r` runs every cell under seed `base_seed + r`.
    pub base_seed: u64,
}

impl SweepGridPlan {
    /// Parses and strictly validates a `ddosim.sweepgrid/1` document:
    /// schema pinned, unknown top-level fields rejected (the other axes'
    /// members included), the embedded base plan read by
    /// [`ScenarioPlan::from_json`], and the grid expanded eagerly so axis
    /// errors surface at parse time.
    ///
    /// # Errors
    ///
    /// A typed [`PlanError`] naming the offending field.
    pub fn parse(text: &str) -> Result<Self, PlanError> {
        const DOC: &str = "sweep grid plan";
        /// One axis: a non-empty array of integers that fit the parameter.
        fn axis<T: Read>(f: &mut Fields<'_>, key: &str) -> Result<Vec<T>, PlanError> {
            let values = f.req_with(key, |v| v.items(key, T::read))?;
            if values.is_empty() {
                return Err(f.invalid(key, "must not be empty"));
            }
            Ok(values)
        }
        let doc = Json::parse(text).map_err(|e| PlanError::syntax(DOC, e))?;
        Val::root(DOC, &doc).fields(|f| {
            f.schema(SWEEPGRID_SCHEMA)?;
            let name = f.req("name")?;
            let base = f.req_with("base", |v| v.embedded(ScenarioPlan::from_json))?;
            let cells = match f.str("axis")? {
                "rate_limit" => {
                    rate_limit_grid(&base, &axis(f, "rates_bps")?, &axis(f, "deploy_at_secs")?)
                }
                "patch_rollout" => {
                    patch_rollout_grid(&base, &axis(f, "waves")?, &axis(f, "wave_interval_secs")?)
                }
                "cnc_takedown" => takedown_grid(&base, &axis(f, "at_secs")?, &axis(f, "backups")?),
                other => {
                    return Err(f.invalid(
                        "axis",
                        format_args!(
                            "is an unknown axis '{other}' \
                             (rate_limit | patch_rollout | cnc_takedown)"
                        ),
                    ))
                }
            }
            .map_err(|m| PlanError::invalid(DOC, m))?;
            Ok(SweepGridPlan {
                name,
                base,
                cells,
                replicates: f.opt("replicates")?.unwrap_or(1).max(1),
                base_seed: f.opt("base_seed")?.unwrap_or(42),
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_plan(defense: &str) -> ScenarioPlan {
        ScenarioPlan::parse(&format!(
            r#"{{
  "schema": "ddosim.scenario/1",
  "name": "sweep-test",
  "world": {{ "devs": 3, "sim_time_secs": 45, "attack_at_secs": 25 }},
  "attack": {{ "vector": "udpplain", "duration_secs": 15 }},
  "defenses": [{defense}]
}}"#
        ))
        .expect("test plan parses")
    }

    fn rate_limit_plan() -> ScenarioPlan {
        small_plan(
            r#"{ "kind": "rate_limit", "at_secs": 26, "rate_bps": 64000, "burst_bytes": 16000 }"#,
        )
    }

    #[test]
    fn rate_limit_grid_expands_both_axes() {
        let cells = rate_limit_grid(&rate_limit_plan(), &[1000, 2000], &[26, 30, 34])
            .expect("grid expands");
        assert_eq!(cells.len(), 6);
        assert_eq!(cells[0].label, "rate_limit 1000 bps at 26s");
        let DefenseSpec::RateLimit { at, rate_bps, burst_bytes } = cells[5].plan.defenses[0]
        else {
            panic!("cell keeps its rate_limit defense");
        };
        assert_eq!(at, Duration::from_secs(34));
        assert_eq!(rate_bps, 2000);
        assert_eq!(burst_bytes, 16000, "untouched fields survive the swap");
    }

    #[test]
    fn grid_requires_exactly_one_matching_defense() {
        let none = small_plan(
            r#"{ "kind": "egress_filter", "at_secs": 26 }"#,
        );
        let err = rate_limit_grid(&none, &[1000], &[26]).expect_err("no rate_limit");
        assert!(err.contains("found 0"), "got: {err}");
        let err = patch_rollout_grid(&none, &[2], &[5]).expect_err("no patch_rollout");
        assert!(err.contains("patch_rollout"), "got: {err}");
    }

    #[test]
    fn takedown_grid_resyncs_world_shape() {
        let base = small_plan(r#"{ "kind": "cnc_takedown", "at_secs": 30, "backups": 0 }"#);
        let cells = takedown_grid(&base, &[28, 32], &[0, 2]).expect("grid expands");
        assert_eq!(cells.len(), 4);
        for cell in &cells {
            let DefenseSpec::CncTakedown { backups, .. } = cell.plan.defenses[0] else {
                panic!("takedown cell");
            };
            assert_eq!(
                cell.plan.config().backup_cncs,
                backups,
                "config must track the swept backup count"
            );
        }
    }

    fn grid_doc(extra: &str) -> String {
        format!(
            r#"{{
  "schema": "ddosim.sweepgrid/1",
  "name": "test grid",
  "axis": "rate_limit",
  "rates_bps": [16000, 64000],
  "deploy_at_secs": [26, 30],
  "replicates": 2,
  "base_seed": 7{extra},
  "base": {{
    "schema": "ddosim.scenario/1",
    "name": "sweep-test",
    "world": {{ "devs": 3, "sim_time_secs": 45, "attack_at_secs": 25 }},
    "attack": {{ "vector": "udpplain", "duration_secs": 15 }},
    "defenses": [{{ "kind": "rate_limit", "at_secs": 26, "rate_bps": 64000, "burst_bytes": 16000 }}]
  }}
}}"#
        )
    }

    #[test]
    fn sweepgrid_plan_parses_and_expands() {
        let plan = SweepGridPlan::parse(&grid_doc("")).expect("valid grid plan");
        assert_eq!(plan.name, "test grid");
        assert_eq!(plan.cells.len(), 4);
        assert_eq!(plan.replicates, 2);
        assert_eq!(plan.base_seed, 7);
        assert_eq!(plan.cells[0].label, "rate_limit 16000 bps at 26s");
        assert_eq!(plan.base.name, "sweep-test");
    }

    #[test]
    fn sweepgrid_plan_rejects_bad_documents() {
        for (doc, fragment) in [
            ("{}".to_owned(), "schema"),
            (grid_doc("").replace("ddosim.sweepgrid/1", "ddosim.sweepgrid/2"), "schema"),
            (grid_doc(",\n  \"surprise\": 1"), "unknown field 'surprise'"),
            (grid_doc("").replace("\"axis\": \"rate_limit\"", "\"axis\": \"firewall\""), "unknown axis"),
            (grid_doc("").replace("[16000, 64000]", "[]"), "must not be empty"),
            (grid_doc("").replace("[16000, 64000]", "[\"fast\"]"), "unsigned"),
            (grid_doc("").replace("ddosim.scenario/1", "nope/1"), "base"),
        ] {
            let err = SweepGridPlan::parse(&doc).expect_err("must reject").to_string();
            assert!(err.contains(fragment), "error {err:?} does not mention {fragment:?}");
        }
    }

    /// A mistyped optional member is an error, never its default, and an
    /// axis value must fit the parameter it sweeps (before the one reader:
    /// `"replicates":"5"` ran 1 replicate, `-1.5` seeded 42, and waves /
    /// backups were cut to 32 / 16 bits).
    #[test]
    fn sweepgrid_input_hole_table() {
        // The rate-limit grid re-pointed at another axis and its defense.
        let on_axis = |axis: &str, a: &str, b: &str| {
            let defense = r#"{ "kind": "rate_limit", "at_secs": 26, "rate_bps": 64000, "burst_bytes": 16000 }"#;
            let doc = grid_doc("");
            assert!(doc.contains(defense));
            doc.replace(r#""axis": "rate_limit""#, &format!(r#""axis": "{axis}""#))
                .replace(r#""rates_bps": [16000, 64000]"#, a)
                .replace(r#""deploy_at_secs": [26, 30]"#, b)
                .replace(defense, &format!(r#"{{ "kind": "{axis}" }}"#))
        };
        let takedown = on_axis("cnc_takedown", r#""at_secs": [30]"#, r#""backups": [65536]"#);
        let rollout =
            on_axis("patch_rollout", r#""waves": [2, 4294967296]"#, r#""wave_interval_secs": [5]"#);
        for (doc, fragment) in [
            (
                grid_doc("").replace("\"replicates\": 2", "\"replicates\": \"5\""),
                "sweep grid plan.replicates must be an unsigned integer",
            ),
            (
                grid_doc("").replace("\"base_seed\": 7", "\"base_seed\": -1.5"),
                "sweep grid plan.base_seed must be an unsigned integer",
            ),
            (grid_doc(",\n  \"name\": \"twice\""), "sweep grid plan.name appears twice"),
            (grid_doc(",\n  \"waves\": [2]"), "unknown field 'waves'"),
            (takedown.clone(), "backups #0 65536 exceeds 65535"),
            (rollout.clone(), "waves #1 4294967296 exceeds 4294967295"),
            (
                grid_doc("").replace("\"devs\": 3", "\"devs\": 3, \"devs\": 4"),
                "sweep grid plan.base: scenario: scenario.world.devs appears twice",
            ),
        ] {
            let err = SweepGridPlan::parse(&doc).expect_err("must reject").to_string();
            assert!(err.contains(fragment), "error {err:?} does not mention {fragment:?}");
        }
        for ok in [takedown.replace("65536", "65535"), rollout.replace("4294967296", "4294967295")] {
            SweepGridPlan::parse(&ok).expect("the boundary value is in range");
        }
    }

    fn repr(row: &Result<RunResult, String>) -> String {
        match row {
            Ok(res) => res.to_deterministic_json().to_string_compact(),
            Err(e) => e.clone(),
        }
    }

    #[test]
    fn defenseless_grid_cell_equals_the_config_sweep_row() {
        // The grid path (plan → build → run) and the configuration path
        // (config → Ddosim::new → run) share the pool; with no defenses to
        // install they must also share every result byte.
        let plan = small_plan("");
        let cells = [GridCell { label: "plain".to_owned(), plan: plan.clone() }];
        let grid = run_grid_streamed(&cells, 2, 7, |_, _, _| {});
        let configs = (7..9)
            .map(|noise| ddosim_core::SimulationConfig {
                seed: noise,
                rng: RngPlan::pinned(noise),
                ..plan.config()
            })
            .collect();
        let rows = ddosim_core::try_run_configs_streamed(configs, |_, _| {});
        assert_eq!(grid[0].rows.len(), rows.len());
        for (r, (cell_row, config_row)) in grid[0].rows.iter().zip(&rows).enumerate() {
            assert!(cell_row.is_ok(), "replicate {r}: {}", repr(cell_row));
            assert_eq!(repr(cell_row), repr(config_row), "replicate {r}");
        }
    }

    #[test]
    fn wide_grid_reports_every_row_within_the_pool_bound() {
        // Many more rows than threads: the pool's live-job assertion
        // (2 × threads + 2) holds for this caller too.
        let threads = std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get);
        let reps = (threads * 4 + 2) as u64;
        let cells = [GridCell { label: "plain".to_owned(), plan: small_plan("") }];
        let mut reported = vec![false; reps as usize];
        let outcomes = run_grid_streamed(&cells, reps, 7, |c, r, outcome| {
            assert_eq!(c, 0);
            assert!(outcome.is_ok(), "replicate {r}: {}", repr(outcome));
            assert!(!std::mem::replace(&mut reported[r as usize], true), "replicate {r} twice");
        });
        assert_eq!(outcomes[0].rows.len(), reps as usize);
        assert!(reported.iter().all(|&seen| seen));
    }

    #[test]
    fn grid_runs_are_deterministic_and_paired() {
        // Two cells with identical defense parameters must produce
        // identical rows under the pinned noise plan — the CRN guarantee
        // a frontier table rests on — and a second sweep must reproduce
        // the first byte for byte.
        let cells = rate_limit_grid(&rate_limit_plan(), &[64000, 64000], &[26])
            .expect("grid expands");
        let mut streamed: Vec<Option<String>> = vec![None; 4];
        let a = run_grid_streamed(&cells, 2, 7, |c, r, outcome| {
            let slot = &mut streamed[c * 2 + r as usize];
            assert!(slot.is_none(), "cell {c} rep {r} delivered twice");
            *slot = Some(repr(outcome));
        });
        let b = run_grid_streamed(&cells, 2, 7, |_, _, _| {});
        assert_eq!(a.len(), 2);
        for (cell_a, cell_b) in a.iter().zip(&b) {
            for (ra, rb) in cell_a.rows.iter().zip(&cell_b.rows) {
                assert_eq!(repr(ra), repr(rb), "re-run must reproduce the sweep");
            }
        }
        // Identical parameters + pinned noise ⇒ identical outcomes.
        for (ra, rb) in a[0].rows.iter().zip(&a[1].rows) {
            assert_eq!(repr(ra), repr(rb), "paired cells share their noise");
        }
        // Streamed rows are the returned rows.
        for (c, cell) in a.iter().enumerate() {
            for (r, row) in cell.rows.iter().enumerate() {
                assert_eq!(
                    streamed[c * 2 + r].as_deref(),
                    Some(repr(row).as_str()),
                    "cell {c} rep {r}"
                );
            }
        }
    }
}
