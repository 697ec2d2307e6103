//! Results of a DDoSim run.

use churn::ChurnMode;
use djson::{FromJson, Json, JsonError, ToJson};

/// Churn telemetry of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnSummary {
    /// Devices that left the network.
    pub departures: u64,
    /// Devices that rejoined.
    pub rejoins: u64,
    /// Devices down at the end of the run.
    pub down_at_end: usize,
}

impl ToJson for ChurnSummary {
    fn to_json(&self) -> Json {
        Json::obj([
            ("departures", self.departures.to_json()),
            ("rejoins", self.rejoins.to_json()),
            ("down_at_end", self.down_at_end.to_json()),
        ])
    }
}

impl FromJson for ChurnSummary {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(ChurnSummary {
            departures: field(value, "departures")?,
            rejoins: field(value, "rejoins")?,
            down_at_end: field(value, "down_at_end")?,
        })
    }
}

fn field<T: FromJson>(value: &Json, name: &str) -> Result<T, JsonError> {
    let v = value
        .get(name)
        .ok_or_else(|| JsonError::conversion(format!("missing field {name}")))?;
    T::from_json(v).map_err(|e| JsonError::conversion(format!("field {name}: {}", e.message)))
}

/// Everything one DDoSim run produces — the paper's measurements plus
/// internal telemetry.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Number of Devs configured.
    pub devs: usize,
    /// Churn variant.
    pub churn: ChurnMode,
    /// Commanded attack duration (seconds).
    pub attack_duration_secs: u64,
    /// When the attack command was issued (seconds).
    pub attack_at_secs: u64,
    /// RNG seed.
    pub seed: u64,
    /// Eq. 2: the average received data rate at TServer over the attack
    /// window, in kbps.
    pub avg_received_data_rate_kbps: f64,
    /// Per-second received data rate series at TServer (kbits/s).
    pub per_second_kbits: Vec<f64>,
    /// Devs recruited (C&C-registered at least once).
    pub infected: usize,
    /// Devs recruited before the attack command.
    pub infected_before_attack: usize,
    /// Bots connected at the moment the attack command was issued.
    pub bots_at_command: usize,
    /// Infection rate (R2: the paper reports 100%).
    pub infection_rate: f64,
    /// First-infection times per Dev, in seconds (botnet growth curve).
    pub infection_times_secs: Vec<f64>,
    /// Peak simultaneous bots at the C&C.
    pub peak_bots: usize,
    /// Total C&C registrations (re-registrations after churn included).
    pub total_registrations: u64,
    /// Flood packets received by the TServer sink (by marker).
    pub flood_packets_received: u64,
    /// Flood wire bytes received by the TServer sink.
    pub flood_bytes_received: u64,
    /// Table I: pre-attack host memory (GB).
    pub pre_attack_mem_gb: f64,
    /// Table I: attack-phase host memory (GB).
    pub attack_mem_gb: f64,
    /// Table I: wall-clock seconds spent simulating the attack window.
    pub attack_wall_clock_secs: f64,
    /// Total packets handed to the network.
    pub packets_sent: u64,
    /// Total packets delivered.
    pub packets_delivered: u64,
    /// Total packets dropped (all causes).
    pub packets_dropped: u64,
    /// Churn telemetry, when churn was enabled.
    pub churn_summary: Option<ChurnSummary>,
    /// Credential-scanner baseline: devices compromised.
    pub scanner_successes: Option<usize>,
    /// Credential-scanner baseline: credential attempts.
    pub scanner_attempts: Option<u64>,
}

impl RunResult {
    /// Formats the attack wall-clock as the paper's `m:ss`.
    pub fn attack_time_m_ss(&self) -> String {
        let total = self.attack_wall_clock_secs.round() as u64;
        format!("{}:{:02}", total / 60, total % 60)
    }

    /// Peak per-second received data rate (kbits/s) over the whole run.
    pub fn peak_received_kbits(&self) -> f64 {
        self.per_second_kbits.iter().copied().fold(0.0, f64::max)
    }

    /// The simulation-derived portion of the result as JSON — everything
    /// except the host-measured fields (`pre_attack_mem_gb`,
    /// `attack_mem_gb`, `attack_wall_clock_secs`), which depend on the
    /// machine and scheduler rather than the seed. Two runs with the same
    /// configuration and seed must produce byte-identical output here; the
    /// cross-run determinism regression test asserts exactly that.
    pub fn to_deterministic_json(&self) -> Json {
        Json::obj([
            ("devs", self.devs.to_json()),
            ("churn", Json::Str(self.churn.as_str().to_string())),
            ("attack_duration_secs", self.attack_duration_secs.to_json()),
            ("attack_at_secs", self.attack_at_secs.to_json()),
            ("seed", self.seed.to_json()),
            (
                "avg_received_data_rate_kbps",
                self.avg_received_data_rate_kbps.to_json(),
            ),
            ("per_second_kbits", self.per_second_kbits.to_json()),
            ("infected", self.infected.to_json()),
            ("infected_before_attack", self.infected_before_attack.to_json()),
            ("bots_at_command", self.bots_at_command.to_json()),
            ("infection_rate", self.infection_rate.to_json()),
            ("infection_times_secs", self.infection_times_secs.to_json()),
            ("peak_bots", self.peak_bots.to_json()),
            ("total_registrations", self.total_registrations.to_json()),
            ("flood_packets_received", self.flood_packets_received.to_json()),
            ("flood_bytes_received", self.flood_bytes_received.to_json()),
            ("packets_sent", self.packets_sent.to_json()),
            ("packets_delivered", self.packets_delivered.to_json()),
            ("packets_dropped", self.packets_dropped.to_json()),
            ("churn_summary", self.churn_summary.to_json()),
            ("scanner_successes", self.scanner_successes.to_json()),
            ("scanner_attempts", self.scanner_attempts.to_json()),
        ])
    }
}

impl ToJson for RunResult {
    fn to_json(&self) -> Json {
        let Json::Obj(mut members) = self.to_deterministic_json() else {
            unreachable!("to_deterministic_json always returns an object")
        };
        // Host-measured telemetry rides along in the full serialization but
        // is deliberately absent from the deterministic form above.
        members.push(("pre_attack_mem_gb".into(), self.pre_attack_mem_gb.to_json()));
        members.push(("attack_mem_gb".into(), self.attack_mem_gb.to_json()));
        members.push((
            "attack_wall_clock_secs".into(),
            self.attack_wall_clock_secs.to_json(),
        ));
        Json::Obj(members)
    }
}

impl FromJson for RunResult {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let churn_tag: String = field(value, "churn")?;
        Ok(RunResult {
            devs: field(value, "devs")?,
            churn: ChurnMode::parse(&churn_tag)
                .ok_or_else(|| JsonError::conversion(format!("unknown churn mode {churn_tag}")))?,
            attack_duration_secs: field(value, "attack_duration_secs")?,
            attack_at_secs: field(value, "attack_at_secs")?,
            seed: field(value, "seed")?,
            avg_received_data_rate_kbps: field(value, "avg_received_data_rate_kbps")?,
            per_second_kbits: field(value, "per_second_kbits")?,
            infected: field(value, "infected")?,
            infected_before_attack: field(value, "infected_before_attack")?,
            bots_at_command: field(value, "bots_at_command")?,
            infection_rate: field(value, "infection_rate")?,
            infection_times_secs: field(value, "infection_times_secs")?,
            peak_bots: field(value, "peak_bots")?,
            total_registrations: field(value, "total_registrations")?,
            flood_packets_received: field(value, "flood_packets_received")?,
            flood_bytes_received: field(value, "flood_bytes_received")?,
            pre_attack_mem_gb: field(value, "pre_attack_mem_gb")?,
            attack_mem_gb: field(value, "attack_mem_gb")?,
            attack_wall_clock_secs: field(value, "attack_wall_clock_secs")?,
            packets_sent: field(value, "packets_sent")?,
            packets_delivered: field(value, "packets_delivered")?,
            packets_dropped: field(value, "packets_dropped")?,
            churn_summary: field(value, "churn_summary")?,
            scanner_successes: field(value, "scanner_successes")?,
            scanner_attempts: field(value, "scanner_attempts")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> RunResult {
        RunResult {
            devs: 10,
            churn: ChurnMode::Dynamic,
            attack_duration_secs: 100,
            attack_at_secs: 60,
            seed: 1,
            avg_received_data_rate_kbps: 2500.0,
            per_second_kbits: vec![0.0, 100.0],
            infected: 10,
            infected_before_attack: 10,
            bots_at_command: 10,
            infection_rate: 1.0,
            infection_times_secs: vec![4.5],
            peak_bots: 10,
            total_registrations: 10,
            flood_packets_received: 1000,
            flood_bytes_received: 540_000,
            pre_attack_mem_gb: 0.38,
            attack_mem_gb: 0.39,
            attack_wall_clock_secs: 123.4,
            packets_sent: 1,
            packets_delivered: 1,
            packets_dropped: 0,
            churn_summary: Some(ChurnSummary {
                departures: 2,
                rejoins: 1,
                down_at_end: 1,
            }),
            scanner_successes: None,
            scanner_attempts: None,
        }
    }

    #[test]
    fn attack_time_formats_like_the_paper() {
        assert_eq!(result().attack_time_m_ss(), "2:03");
    }

    #[test]
    fn peak_rate() {
        assert_eq!(result().peak_received_kbits(), 100.0);
    }

    #[test]
    fn json_roundtrip() {
        let r = result();
        let json = r.to_json().to_string_pretty();
        let back = RunResult::from_json(&Json::parse(&json).expect("parses"))
            .expect("deserializes");
        assert_eq!(back.devs, r.devs);
        assert_eq!(back.churn, ChurnMode::Dynamic);
        assert_eq!(back.churn_summary, r.churn_summary);
        assert_eq!(back.avg_received_data_rate_kbps, r.avg_received_data_rate_kbps);
        assert_eq!(back.scanner_successes, None);
    }

    #[test]
    fn deterministic_json_excludes_host_measured_fields() {
        let j = result().to_deterministic_json();
        assert!(j.get("pre_attack_mem_gb").is_none());
        assert!(j.get("attack_mem_gb").is_none());
        assert!(j.get("attack_wall_clock_secs").is_none());
        assert!(j.get("seed").is_some());
        // Same value → same bytes, the property the cross-run test relies on.
        assert_eq!(
            result().to_deterministic_json().to_string_compact(),
            j.to_string_compact()
        );
    }
}
