//! Seed → plan text. The seed is the only argument: the world seed, the
//! scenario-stream seed, the fault-plan seed and the serve job mix all
//! derive from it, and the product receives nothing but the text
//! generated here (`ddosim.scenario/1`, `ddosim.suffix/1`,
//! `ddosim.serve/1` request lines).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The six workloads, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 6] = [
    "flood_star",
    "recruit_churn",
    "scale_tiered",
    "http_recorded",
    "sweep_fork",
    "serve_jobs",
];

/// Workload sizes. They are constants, not flags: the benchmark always
/// runs [`FULL`]; [`SMOKE`] exists so the tests can drive every workload
/// through the same code in a debug build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// `flood_star`: Devs on the star.
    pub flood_devs: u32,
    /// `flood_star`: UDP-PLAIN flood length, simulated seconds. Longer
    /// than the bots' 30 s start-up ramp: a shorter flood is the work of
    /// whichever bots drew an early start, and moves twice as much with
    /// the seed.
    pub flood_attack_secs: u32,
    /// `recruit_churn`: Devs under dynamic churn and reboots.
    pub churn_devs: u32,
    /// `recruit_churn` and `scale_tiered`: flood length, simulated
    /// seconds — short, so that recruitment owns the wall. A handful of
    /// Devs needs longer than the bots' start-up ramp to land a packet.
    pub brief_attack_secs: u32,
    /// `scale_tiered`: Devs behind the routed fabric.
    pub tiered_devs: u32,
    /// `scale_tiered`: regions of the fabric.
    pub tiered_regions: u32,
    /// `http_recorded`: Devs opening tcp-lite floods.
    pub http_devs: u32,
    /// `http_recorded`: HTTP flood length, simulated seconds.
    pub http_attack_secs: u32,
    /// `sweep_fork`: Devs in the forked parent world.
    pub fork_devs: u32,
    /// `sweep_fork`: Devs in each row of the seed sweep.
    pub sweep_devs: u32,
    /// `sweep_fork`: rows of the seed sweep.
    pub sweep_seeds: u32,
    /// `sweep_fork`: flood length in the parent and in every row,
    /// simulated seconds — short, so that build, `fork()` and hand-off
    /// own the wall and not the flood, whose size the seed moves most.
    pub sweep_attack_secs: u32,
    /// `serve_jobs`: Devs in the small defended plans.
    pub serve_small_devs: u32,
    /// `serve_jobs`: Devs in the stream-heavy recorded plan.
    pub serve_stream_devs: u32,
}

/// The sizes every reported number is measured at.
pub const FULL: Sizes = Sizes {
    flood_devs: 500,
    flood_attack_secs: 40,
    churn_devs: 1500,
    brief_attack_secs: 3,
    tiered_devs: 2000,
    tiered_regions: 12,
    http_devs: 64,
    http_attack_secs: 3,
    fork_devs: 150,
    sweep_devs: 48,
    sweep_seeds: 24,
    sweep_attack_secs: 6,
    serve_small_devs: 10,
    serve_stream_devs: 32,
};

/// Tens of Devs: what `tests/smoke.rs` runs.
pub const SMOKE: Sizes = Sizes {
    flood_devs: 12,
    flood_attack_secs: 10,
    churn_devs: 16,
    brief_attack_secs: 10,
    tiered_devs: 24,
    tiered_regions: 3,
    http_devs: 3,
    http_attack_secs: 5,
    fork_devs: 8,
    sweep_devs: 5,
    sweep_seeds: 3,
    sweep_attack_secs: 10,
    serve_small_devs: 4,
    serve_stream_devs: 3,
};

/// Branches of the `sweep_fork` scenario tree.
pub const FORK_BRANCHES: usize = 8;
/// Simulated second at which the `sweep_fork` parent is forked.
pub const FORK_AT_SECS: u32 = 30;
/// Simulated second at which the `sweep_fork` parent's flood is commanded.
/// The `cnc_outage` branches take the C&C down just after it, so their
/// bots are already flooding and every branch still delivers flood packets.
const FORK_ATTACK_AT_SECS: u32 = 40;
/// Jobs in one round of the `serve_jobs` mix: seven small, one stream-heavy.
pub const JOBS_PER_ROUND: usize = 8;

/// The seeds one benchmark seed fans out into. 32-bit so they read the
/// same in every JSON number representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    /// `world.seed` of the plan.
    pub world: u32,
    /// Scenario-stream seed (`seed` at the top of the plan).
    pub plan: u32,
    /// Seed of the embedded `ddosim.faults.plan/1`.
    pub faults: u32,
    /// Orders the serve job mix and reseeds the fork branches.
    pub mix: u32,
}

impl Seeds {
    /// Derives every seed a workload needs from the benchmark seed.
    pub fn derive(seed: u64) -> Seeds {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xBE7C_4A11);
        Seeds {
            world: rng.gen(),
            plan: rng.gen(),
            faults: rng.gen(),
            mix: rng.gen(),
        }
    }
}

fn scenario(name: &str, s: Seeds, world: &str, attack: &str, rest: &str) -> String {
    format!(
        "{{\"schema\":\"ddosim.scenario/1\",\"name\":\"{name}\",\"seed\":{},\
         \"world\":{{\"seed\":{},{world}}},\"attack\":{{{attack}}}{rest}}}",
        s.plan, s.world
    )
}

/// `flood_star`: the paper's Table I / Fig. 3 shape at large N. Every Dev
/// is recruited, then a UDP-PLAIN flood saturates the TServer link, so
/// the event queue, the link and the UDP demux do nearly all the work
/// and application callbacks almost none.
pub fn flood_star(seed: u64, z: &Sizes) -> String {
    let attack_at = 60;
    scenario(
        "flood_star",
        Seeds::derive(seed),
        &format!(
            "\"devs\":{},\"sim_time_secs\":{},\"attack_at_secs\":{attack_at},\
             \"recruitment\":\"memory-error\",\"churn\":\"none\",\"topology\":\"star\"",
            z.flood_devs,
            attack_at + z.flood_attack_secs + 40
        ),
        &format!(
            "\"vector\":\"udpplain\",\"duration_secs\":{}",
            z.flood_attack_secs
        ),
        "",
    )
}

/// `recruit_churn`: the flood is a few seconds; wall goes to the infection
/// chain (exploit → tinyvm ROP → firmware shell `curl | sh` → tcp-lite
/// download → bot registration), re-run on every rejoin and reboot.
pub fn recruit_churn(seed: u64, z: &Sizes) -> String {
    scenario(
        "recruit_churn",
        Seeds::derive(seed),
        &format!(
            "\"devs\":{},\"sim_time_secs\":240,\"attack_at_secs\":60,\"churn\":\"dynamic\",\
             \"topology\":\"star\",\"reboot_rate_per_min\":0.5",
            z.churn_devs
        ),
        &format!(
            "\"vector\":\"udpplain\",\"duration_secs\":{}",
            z.brief_attack_secs
        ),
        "",
    )
}

/// `scale_tiered`: a multi-hop routed fabric, where forwarding (route
/// cache in front of the LPM table), the node arena and world build
/// show; edge hosts of `flood_star` never reach that code. Recruitment
/// runs until most Devs are taken: cut off half-way, how far it got
/// moves with the seed.
pub fn scale_tiered(seed: u64, z: &Sizes) -> String {
    scenario(
        "scale_tiered",
        Seeds::derive(seed),
        &format!(
            "\"devs\":{},\"sim_time_secs\":170,\"attack_at_secs\":160,\"churn\":\"none\",\
             \"topology\":\"tiered:{}:100000000\"",
            z.tiered_devs, z.tiered_regions
        ),
        &format!(
            "\"vector\":\"udpplain\",\"duration_secs\":{}",
            z.brief_attack_secs
        ),
        "",
    )
}

/// `http_recorded`: the link path of `flood_star` driven by tcp-lite
/// under heavy loss and observed by the flight recorder on every drop
/// and retransmit. The runner turns the recorder and 1 s metrics on.
pub fn http_recorded(seed: u64, z: &Sizes) -> String {
    let attack_at = 30;
    scenario(
        "http_recorded",
        Seeds::derive(seed),
        &format!(
            "\"devs\":{},\"sim_time_secs\":{},\"attack_at_secs\":{attack_at}",
            z.http_devs,
            attack_at + z.http_attack_secs + 20
        ),
        &format!(
            "\"vector\":\"http\",\"duration_secs\":{},\"port\":80",
            z.http_attack_secs
        ),
        "",
    )
}

/// `sweep_fork`, part one: the dynamic-churn parent world that runs to
/// [`FORK_AT_SECS`] and is forked.
pub fn fork_parent(seed: u64, z: &Sizes) -> String {
    scenario(
        "sweep_fork_parent",
        Seeds::derive(seed),
        &format!(
            "\"devs\":{},\"sim_time_secs\":70,\"attack_at_secs\":{FORK_ATTACK_AT_SECS},\
             \"churn\":\"dynamic\"",
            z.fork_devs
        ),
        &format!(
            "\"vector\":\"udpplain\",\"duration_secs\":{}",
            z.sweep_attack_secs
        ),
        "",
    )
}

/// `sweep_fork`, part two: the `ddosim.suffix/1` tree over the parent —
/// the identity branch, three reseeded siblings, two `link_down` and two
/// `cnc_outage` branches.
pub fn fork_suffixes(seed: u64) -> String {
    let s = Seeds::derive(seed);
    let faults = |events: &str| {
        format!(
            "{{\"schema\":\"ddosim.faults.plan/1\",\"seed\":{},\"faults\":[{events}]}}",
            s.faults
        )
    };
    let at = FORK_AT_SECS;
    let mut branches = vec![("identity".to_owned(), 0u64, faults(""))];
    for i in 1..=3u64 {
        branches.push((format!("reseed_{i}"), u64::from(s.mix) + i, faults("")));
    }
    for (i, dev) in ["dev-0", "dev-1"].iter().enumerate() {
        branches.push((
            format!("link_down_{i}"),
            0,
            faults(&format!(
                "{{\"at_secs\":{},\"kind\":\"link_down\",\"node\":\"{dev}\"}}",
                at + 2
            )),
        ));
    }
    for (i, duration) in [5, 15].iter().enumerate() {
        branches.push((
            format!("cnc_outage_{i}"),
            0,
            faults(&format!(
                "{{\"at_secs\":{},\"kind\":\"cnc_outage\",\"duration_secs\":{duration}}}",
                FORK_ATTACK_AT_SECS + 2
            )),
        ));
    }
    assert_eq!(branches.len(), FORK_BRANCHES);
    let suffixes: Vec<String> = branches
        .iter()
        .map(|(name, fork_seed, faults)| {
            format!(
                "{{\"name\":\"{name}\",\"fork_seed\":{fork_seed},\"faults\":{faults},\
                 \"admin_lines\":[],\"horizon_nanos\":null}}"
            )
        })
        .collect();
    format!(
        "{{\"schema\":\"ddosim.suffix/1\",\"fork_at_nanos\":{},\"suffixes\":[{}],\"config\":null}}",
        u64::from(at) * 1_000_000_000,
        suffixes.join(",")
    )
}

/// `sweep_fork`, part three: the small world the seed sweep runs
/// `sweep_seeds` times (row `i` uses `world.seed + i`).
pub fn sweep_base(seed: u64, z: &Sizes) -> String {
    scenario(
        "sweep_fork_row",
        Seeds::derive(seed),
        &format!(
            "\"devs\":{},\"sim_time_secs\":60,\"attack_at_secs\":40",
            z.sweep_devs
        ),
        &format!(
            "\"vector\":\"udpplain\",\"duration_secs\":{}",
            z.sweep_attack_secs
        ),
        "",
    )
}

/// Which of the two `serve_jobs` plan classes a job belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobClass {
    /// A small defended plan with embedded faults and 2 s metrics.
    Small,
    /// A `rate_limit`-shaped plan with `record: true`: megabytes of
    /// event frames.
    Stream,
}

/// The small defended plan: patch rollout, rate limit, egress filter and
/// an embedded fault plan in one document, so every parser level runs.
pub fn serve_small_plan(seed: u64, z: &Sizes) -> String {
    let s = Seeds::derive(seed);
    scenario(
        "serve_small",
        s,
        &format!(
            "\"devs\":{},\"sim_time_secs\":60,\"attack_at_secs\":30",
            z.serve_small_devs
        ),
        "\"vector\":\"udpplain\",\"duration_secs\":10",
        &format!(
            ",\"faults\":{{\"schema\":\"ddosim.faults.plan/1\",\"seed\":{},\"faults\":[\
             {{\"at_secs\":15,\"kind\":\"link_down\",\"node\":\"dev-0\"}},\
             {{\"at_secs\":22,\"kind\":\"link_up\",\"node\":\"dev-0\"}}]}},\
             \"defenses\":[\
             {{\"kind\":\"patch_rollout\",\"start_secs\":12,\"wave_interval_secs\":5,\"waves\":2,\
             \"remove\":[\"curl\"]}},\
             {{\"kind\":\"rate_limit\",\"at_secs\":33}},\
             {{\"kind\":\"egress_filter\",\"at_secs\":37}}]",
            s.faults
        ),
    )
}

/// The stream-heavy plan (submitted with `record: true`).
pub fn serve_stream_plan(seed: u64, z: &Sizes) -> String {
    scenario(
        "serve_stream",
        Seeds::derive(seed),
        &format!(
            "\"devs\":{},\"sim_time_secs\":60,\"attack_at_secs\":30",
            z.serve_stream_devs
        ),
        "\"vector\":\"udpplain\",\"duration_secs\":1",
        ",\"defenses\":[{\"kind\":\"rate_limit\",\"at_secs\":32,\"rate_bps\":64000,\
         \"burst_bytes\":16384}]",
    )
}

/// The job classes of one round of [`JOBS_PER_ROUND`] jobs: seven small
/// and one stream-heavy, the heavy one at a seeded position.
pub fn serve_round(seed: u64) -> [JobClass; JOBS_PER_ROUND] {
    let mut round = [JobClass::Small; JOBS_PER_ROUND];
    round[Seeds::derive(seed).mix as usize % JOBS_PER_ROUND] = JobClass::Stream;
    round
}

/// One `ddosim.serve/1` submit request line (no trailing newline) for a
/// plan of `class`, under a client-chosen job id.
pub fn serve_request(class: JobClass, plan_text: &str, id: &str) -> String {
    let knobs = match class {
        JobClass::Small => "\"metrics_interval_secs\":2",
        JobClass::Stream => "\"record\":true",
    };
    format!(
        "{{\"schema\":\"ddosim.serve/1\",\"action\":\"submit\",\"id\":\"{id}\",\
         \"scenario\":{plan_text},{knobs}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddosim::scenario::ScenarioPlan;
    use ddosim::serve::protocol::{parse_request, Action, JobSpec};
    use ddosim::SuffixPlan;

    fn scenario_texts(seed: u64, z: &Sizes) -> Vec<String> {
        vec![
            flood_star(seed, z),
            recruit_churn(seed, z),
            scale_tiered(seed, z),
            http_recorded(seed, z),
            fork_parent(seed, z),
            sweep_base(seed, z),
            serve_small_plan(seed, z),
            serve_stream_plan(seed, z),
        ]
    }

    #[test]
    fn same_seed_gives_byte_identical_text_and_another_seed_differs() {
        for z in [&FULL, &SMOKE] {
            assert_eq!(scenario_texts(7, z), scenario_texts(7, z));
            for (a, b) in scenario_texts(7, z).iter().zip(&scenario_texts(8, z)) {
                assert_ne!(a, b);
            }
        }
        assert_eq!(fork_suffixes(7), fork_suffixes(7));
        assert_ne!(fork_suffixes(7), fork_suffixes(8));
        assert_eq!(serve_round(7), serve_round(7));
    }

    #[test]
    fn every_generated_document_round_trips_through_the_product_parsers() {
        for seed in [1, 2, u64::MAX] {
            let s = Seeds::derive(seed);
            for z in [&FULL, &SMOKE] {
                for text in scenario_texts(seed, z) {
                    let plan = ScenarioPlan::parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
                    assert_eq!(plan.seed, u64::from(s.plan));
                    assert_eq!(plan.config().seed, u64::from(s.world));
                }
                let small = serve_small_plan(seed, z);
                assert_eq!(
                    ScenarioPlan::parse(&small)
                        .expect("parsed above")
                        .config()
                        .faults
                        .seed,
                    u64::from(s.faults)
                );
                for (class, text) in [
                    (JobClass::Small, small),
                    (JobClass::Stream, serve_stream_plan(seed, z)),
                ] {
                    let line = serve_request(class, &text, "c0-j0");
                    assert!(!line.contains('\n'));
                    let Action::Submit(req) = parse_request(&line).expect("request parses") else {
                        panic!("not a submit: {line}");
                    };
                    assert_eq!(req.id.as_deref(), Some("c0-j0"));
                    assert_eq!(req.record, class == JobClass::Stream);
                    assert_eq!(req.metrics_interval.is_some(), class == JobClass::Small);
                    assert!(matches!(req.spec, JobSpec::Scenario(_)));
                }
            }
            let tree = SuffixPlan::parse(&fork_suffixes(seed)).expect("suffix plan parses");
            assert_eq!(tree.suffixes.len(), FORK_BRANCHES);
            assert_eq!(tree.fork_at.as_secs(), u64::from(FORK_AT_SECS));
            assert!(tree.config.is_none());
            assert_eq!(tree.suffixes[0].fork_seed, 0, "identity branch first");
            assert!(tree.suffixes[1..4].iter().all(|b| b.fork_seed != 0));
            assert_eq!(
                tree.suffixes
                    .iter()
                    .filter(|b| !b.faults.faults.is_empty())
                    .count(),
                4
            );
            assert_eq!(
                serve_round(seed)
                    .iter()
                    .filter(|c| **c == JobClass::Stream)
                    .count(),
                1
            );
        }
    }
}
