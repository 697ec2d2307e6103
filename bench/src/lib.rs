//! The repo benchmark: six seeded workloads driven through the product's
//! plan-text entry points, measured end to end (`--trace 0`) and layer by
//! layer from outside (`--trace 1`). See `bench/README.md`.

#![warn(missing_docs)]

pub mod compare;
pub mod drive;
pub mod layers;
pub mod metrics;
pub mod servejobs;
pub mod sweep;
pub mod trace;
pub mod workloads;
pub mod world;

use metrics::Outcome;
use workloads::Sizes;

/// Generates workload `name`'s inputs from `seed` and runs it for
/// `seconds`: the end-to-end pass with `trace` off, the per-layer pass
/// with it on.
///
/// # Errors
///
/// Returns a message for a workload name `BENCHMARK.json` does not list.
pub fn run_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    z: &Sizes,
) -> Result<Outcome, String> {
    use ddosim::TelemetryConfig;
    let single = |plan_text: String, telemetry: TelemetryConfig, full_recruitment: bool| {
        let spec = world::WorldSpec {
            plan_text,
            telemetry,
            full_recruitment,
        };
        world::run(name, &spec, seconds, trace)
    };
    let quiet = TelemetryConfig::default();
    Ok(match name {
        "flood_star" => single(workloads::flood_star(seed, z), quiet, true),
        "recruit_churn" => single(workloads::recruit_churn(seed, z), quiet, false),
        "scale_tiered" => single(workloads::scale_tiered(seed, z), quiet, false),
        "http_recorded" => single(
            workloads::http_recorded(seed, z),
            TelemetryConfig {
                record: true,
                metrics_interval: Some(std::time::Duration::from_secs(1)),
                ..quiet
            },
            false,
        ),
        "sweep_fork" => sweep::run(&sweep::SweepSpec::generate(seed, z), seconds, trace),
        "serve_jobs" => servejobs::run(&servejobs::ServeSpec::generate(seed, z), seconds, trace),
        other => {
            return Err(format!(
                "unknown workload '{other}' (expected one of {:?})",
                workloads::NAMES
            ))
        }
    })
}
