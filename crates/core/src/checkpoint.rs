//! Checkpoint/restore: the `ddosim.checkpoint/2` snapshot format.
//!
//! A DDoSim world is not serialized directly — applications are trait
//! objects, handles are `Rc`-shared, and packets carry opaque payloads.
//! Instead a checkpoint is a *recipe plus an attestation*: the full
//! resolved configuration (seed included) and the checkpoint time `T`
//! say how to get the world back; per-layer state digests and the
//! flight-recorder event count, taken of the world as
//! [`Ddosim::run_prefix`](crate::Ddosim::run_prefix)`(T)` leaves it, say
//! what it must look like when it gets there.
//!
//! Resume ([`Ddosim::resume_from`](crate::Ddosim::resume_from)) is a
//! verified re-run: build from the embedded configuration with telemetry
//! live, `run_prefix(T)`, compare the digests and the recorder count (a
//! mismatch names the diverging layer), and hand back a live world at
//! `T`. Because the simulator is deterministic, everything the resumed
//! run writes — trace, capture, metrics — is byte-identical to the
//! uninterrupted run's whole documents. The telemetry configuration is
//! pinned from the checkpoint so the re-run cannot diverge from the
//! original.

use crate::config::SimulationConfig;
use crate::world::{self, arch_word};
use djson::{Json, PlanError, Val};
use firmware::{ContainerRuntime, FileKind};
use netsim::StateHasher;
use std::time::Duration;

/// Schema tag written into every serialized checkpoint.
pub const CHECKPOINT_SCHEMA: &str = "ddosim.checkpoint/2";

/// A point-in-time snapshot of a run: everything needed to resume it and
/// to verify the resumed world matches the original.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Simulated time the snapshot was taken at.
    pub at: Duration,
    /// The full resolved configuration of the checkpointed run.
    pub config: SimulationConfig,
    /// Per-layer state digests of the world at [`Checkpoint::at`], in a
    /// fixed layer order (`netsim.queue`, `netsim.nodes`, …, `firmware`).
    pub digests: Vec<(String, u64)>,
    /// Flight-recorder events recorded up to [`Checkpoint::at`]; a
    /// resumed run must have recorded exactly as many when it gets there.
    pub events_recorded: u64,
}

impl Checkpoint {
    /// Serializes the checkpoint.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::Str(CHECKPOINT_SCHEMA.into())),
            ("at_nanos", Json::U64(self.at.as_nanos() as u64)),
            ("events_recorded", Json::U64(self.events_recorded)),
            (
                "digests",
                Json::Arr(
                    self.digests
                        .iter()
                        .map(|(layer, digest)| {
                            Json::obj([
                                ("layer", Json::Str(layer.clone())),
                                ("digest", Json::U64(*digest)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("config", world::to_json(&self.config)),
        ])
    }

    /// Parses a serialized checkpoint.
    ///
    /// # Errors
    ///
    /// The typed [`PlanError`] shared by every schema-tagged plan document
    /// in the workspace, describing exactly what is wrong: invalid JSON
    /// (with the byte offset), a missing or mistyped field, an unknown
    /// schema tag, an unknown top-level field, or an unrepresentable
    /// configuration. Never panics on corrupted or truncated input.
    pub fn parse(text: &str) -> Result<Checkpoint, PlanError> {
        const DOC: &str = "checkpoint";
        let json = Json::parse(text)
            .map_err(|e| PlanError::syntax(DOC, format!("is not valid JSON ({e})")))?;
        Val::root(DOC, &json).fields(|f| {
            f.schema(CHECKPOINT_SCHEMA)?;
            let digest = |v: Val<'_>| v.fields(|f| Ok((f.req("layer")?, f.req("digest")?)));
            Ok(Checkpoint {
                at: f.req("at_nanos")?,
                events_recorded: f.req("events_recorded")?,
                digests: f.req_with("digests", |v| v.items("digest", digest))?,
                config: f.req_with("config", |v| v.embedded(world::from_json))?,
            })
        })
    }

    /// The serialized text form (pretty, byte-stable for equal content).
    pub fn to_string_pretty(&self) -> String {
        self.to_json().to_string_pretty()
    }
}

/// Folds the firmware layer — every container's filesystem, process
/// table, infection bookkeeping, and audit-log shape — into one digest.
pub(crate) fn firmware_digest(runtime: &ContainerRuntime) -> u64 {
    let mut h = StateHasher::new();
    h.write_usize(runtime.len());
    for container in runtime.containers() {
        let s = container.state();
        h.write_str(&s.name);
        h.write_str(arch_word(s.arch));
        h.write_usize(s.node.index());
        h.write_usize(s.fs.file_count());
        for (path, entry) in s.fs.files() {
            h.write_str(path);
            match &entry.kind {
                FileKind::Data => h.write_u32(0),
                FileKind::Script(_) => h.write_u32(1),
                FileKind::Executable { arch, .. } => {
                    h.write_u32(2);
                    h.write_str(arch_word(*arch));
                }
            }
            h.write_u64(entry.size_bytes);
            h.write_bool(entry.executable);
        }
        h.write_usize(s.procs.len());
        for p in s.procs.iter() {
            h.write_u32(p.pid.0);
            h.write_str(&p.name);
            match p.app {
                None => h.write_bool(false),
                Some(app) => {
                    h.write_bool(true);
                    h.write_usize(app.node().index());
                    h.write_usize(app.slot());
                }
            }
            h.write_usize(p.ports.len());
            for port in &p.ports {
                h.write_u32(u32::from(*port));
            }
        }
        for cmd in s.commands.iter() {
            h.write_str(cmd);
        }
        h.write_u64(s.image_bytes);
        match s.infected_at {
            None => h.write_bool(false),
            Some(t) => {
                h.write_bool(true);
                h.write_u64(t.as_nanos());
            }
        }
        h.write_bool(s.bot_alive);
        h.write_u32(s.infection_count);
        h.write_u32(s.reboot_count);
        h.write_usize(s.events.len());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BinaryMix, ExploitStrategy, Recruitment, TopologyKind};
    use churn::ChurnMode;
    use firmware::CommandSet;
    use telemetry::CaptureFilter;
    use tinyvm::{Arch, ProtectionMix, Protections};

    fn roundtrip(config: SimulationConfig) -> SimulationConfig {
        let cp = Checkpoint {
            at: Duration::from_secs(30),
            config,
            digests: vec![("netsim.queue".into(), 7), ("firmware".into(), 9)],
            events_recorded: 123,
        };
        let text = cp.to_string_pretty();
        let back = Checkpoint::parse(&text).expect("parses");
        assert_eq!(back.at, cp.at);
        assert_eq!(back.events_recorded, cp.events_recorded);
        assert_eq!(back.digests, cp.digests);
        // Byte stability: reserializing the parsed checkpoint is identical.
        assert_eq!(back.to_string_pretty(), text);
        back.config
    }

    #[test]
    fn default_config_round_trips() {
        roundtrip(SimulationConfig::default());
    }

    #[test]
    fn rng_plans_round_trip() {
        let partial = crate::RngPlan { world: Some(5), event: None, fault: None };
        for rng in [crate::RngPlan::pinned(777), partial] {
            let back = roundtrip(SimulationConfig { rng, ..SimulationConfig::default() });
            assert_eq!(back.rng, rng);
        }
    }

    #[test]
    fn exotic_config_round_trips() {
        let mut c = SimulationConfig {
            devs: 37,
            binary_mix: BinaryMix::Mixed {
                connman_fraction: 0.25,
            },
            protections: ProtectionMix::Uniform(Protections {
                wx: true,
                aslr: false,
                canary: true,
            }),
            arch: Arch::Arm7,
            churn: ChurnMode::Dynamic,
            strategy: ExploitStrategy::StaticChain,
            commands: CommandSet::without(&["curl"]),
            recruitment: Recruitment::SelfPropagating {
                default_credential_fraction: 0.4,
                seeds: 3,
            },
            attack_over_ipv6: true,
            reboot_rate_per_min: 0.5,
            topology: TopologyKind::Tiered {
                regions: 4,
                region_uplink_bps: 10_000_000,
            },
            admin_script: vec![(Duration::from_secs(80), "stop".to_owned())],
            telemetry: netsim::TelemetryConfig {
                record: true,
                capture: true,
                capture_filter: CaptureFilter::parse("udp port 80").unwrap(),
                metrics_interval: Some(Duration::from_secs(1)),
                ..netsim::TelemetryConfig::default()
            },
            seed: 99,
            ..SimulationConfig::default()
        };
        c.attack.payload_bytes = Some(256);
        roundtrip(c);
    }

    #[test]
    fn wifi_topology_round_trips() {
        roundtrip(SimulationConfig {
            topology: TopologyKind::Wifi,
            ..SimulationConfig::default()
        });
    }

    #[test]
    fn corrupted_input_gives_clear_errors() {
        // Truncated JSON.
        let parse_err = |text: &str| Checkpoint::parse(text).unwrap_err().to_string();
        let err = parse_err("{\"schema\": \"ddosim.ch");
        assert!(err.contains("not valid JSON"), "{err}");
        // Wrong schema.
        let err = parse_err("{\"schema\": \"something/9\"}");
        assert!(err.contains("schema"), "{err}");
        // Missing field.
        let err = parse_err(&format!("{{\"schema\": \"{CHECKPOINT_SCHEMA}\"}}"));
        assert!(err.contains("is missing 'at_nanos'"), "{err}");
        // Not JSON at all.
        let err = parse_err("not json");
        assert!(err.contains("not valid JSON"), "{err}");
    }
}
