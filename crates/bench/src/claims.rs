//! The checks behind the table's claims.
//!
//! A check reads an artefact's *text* — the bytes `exp` just produced or
//! the committed file under `results/`, the same function either way — and
//! returns `Ok(what it observed)` or `Err(the violation, naming the row)`.
//! What each use claims is the sentence next to it in [`crate::TABLE`].
//! Tolerances are floors under what the code produces today, not fits to
//! the paper's absolute numbers: they exist so that a change which bends a
//! figure fails loudly.

/// The verdict of one check.
pub(crate) type Verdict = Result<String, String>;

/// One `label → value` point of a series, the label kept for messages.
type Point = (String, f64);

/// A table read back from an artefact.
struct Sheet {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

/// One line of `report::Table::to_csv`'s dialect.
fn split_csv(line: &str) -> Vec<String> {
    let mut cells = vec![String::new()];
    let mut quoted = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        let cell = cells.last_mut().expect("never empty");
        match c {
            '"' if quoted && chars.peek() == Some(&'"') => cell.extend(chars.next()),
            '"' => quoted = !quoted,
            ',' if !quoted => cells.push(String::new()),
            c => cell.push(c),
        }
    }
    cells
}

impl Sheet {
    /// Reads an artefact in any of the three shapes `results/` holds: a
    /// markdown pipe table (amid prose), `key=value` tokens (one row, the
    /// keys as headers), or CSV with a header row.
    fn parse(text: &str) -> Result<Sheet, String> {
        let piped = |l: &&str| l.starts_with('|') && !l.starts_with("|---");
        let cells = |l: &str| l.trim_matches('|').split('|').map(|c| c.trim().to_owned()).collect();
        let mut lines: Vec<Vec<String>> = text.lines().filter(piped).map(cells).collect();
        if lines.is_empty() && !text.contains(',') {
            let pairs = text.split_whitespace().filter_map(|token| token.split_once('='));
            let (keys, values) = pairs.map(|(k, v)| (k.to_owned(), v.to_owned())).unzip();
            lines = vec![keys, values];
        } else if lines.is_empty() {
            lines = text.lines().map(split_csv).collect();
        }
        let mut lines = lines.into_iter();
        let headers = lines.next().filter(|h| !h.is_empty()).ok_or("no header row")?;
        let rows: Vec<Vec<String>> = lines.collect();
        match rows.iter().find(|r| r.len() != headers.len()) {
            Some(row) => Err(format!("row {row:?} does not have the header's {} cells", headers.len())),
            None => Ok(Sheet { headers, rows }),
        }
    }

    fn col(&self, name: &str) -> Result<usize, String> {
        let found = self.headers.iter().position(|h| h == name);
        found.ok_or_else(|| format!("no column '{name}' among {:?}", self.headers))
    }

    /// `(label, value)` of every row that passes `keep`; a trailing `%` on
    /// the value is dropped.
    fn points(
        &self,
        label: &str,
        value: &str,
        keep: impl Fn(&[String]) -> bool,
    ) -> Result<Vec<Point>, String> {
        let (l, v) = (self.col(label)?, self.col(value)?);
        let rows = self.rows.iter().filter(|row| keep(row));
        rows.map(|row| match row[v].trim_end_matches('%').parse() {
            Ok(number) => Ok((row[l].clone(), number)),
            Err(_) => Err(format!("'{}' in column '{value}' is not a number", row[v])),
        })
        .collect()
    }
}

/// Whether a row mentions every one of `having` in some cell.
fn mentions<'a>(having: &'a [&str]) -> impl Fn(&[String]) -> bool + 'a {
    move |row| having.iter().all(|text| row.iter().any(|cell| cell.contains(text)))
}

/// At least two points, every value strictly above the one before it.
fn rising(points: &[Point], what: &str) -> Result<(), String> {
    match points.windows(2).find(|w| w[1].1 <= w[0].1) {
        Some(w) => Err(format!("{what}: {} at {} is not above {} at {}", w[1].1, w[1].0, w[0].1, w[0].0)),
        None if points.len() < 2 => Err(format!("{what}: a trend needs two rows, found {}", points.len())),
        None => Ok(()),
    }
}

/// Down the rows that mention all of `having`, `value` strictly rises
/// (`label` names a row in the message).
pub(crate) fn rises(text: &str, having: &[&str], label: &str, value: &str) -> Verdict {
    let points = Sheet::parse(text)?.points(label, value, mentions(having))?;
    rising(&points, &format!("{value} {having:?}"))?;
    Ok(format!("{:?}", points.iter().map(|p| p.1).collect::<Vec<_>>()))
}

/// [`rises`] within every set of rows sharing a `group` cell; rows without
/// one (`—`) belong to no set.
pub(crate) fn rises_within(text: &str, group: &str, label: &str, value: &str) -> Verdict {
    let sheet = Sheet::parse(text)?;
    let g = sheet.col(group)?;
    let mut groups: Vec<&str> = Vec::new();
    for row in sheet.rows.iter().filter(|row| row[g] != "—") {
        if !groups.contains(&row[g].as_str()) {
            groups.push(&row[g]);
        }
    }
    for set in &groups {
        let points = sheet.points(label, value, |row| row[g] == *set)?;
        rising(&points, &format!("{value} at {group} = {set}"))?;
    }
    Ok(format!("in each of {} sets by {group}", groups.len()))
}

/// Exactly `rows` rows mention all of `having`, and on each of them
/// `value` `holds` (`want` says what that is).
pub(crate) fn each(
    text: &str,
    having: &[&str],
    rows: usize,
    value: &str,
    holds: fn(f64) -> bool,
    want: &str,
) -> Verdict {
    let points = Sheet::parse(text)?.points(value, value, mentions(having))?;
    if points.len() != rows {
        return Err(format!("{} rows mention {having:?}, not {rows}", points.len()));
    }
    match points.iter().find(|p| !holds(p.1)) {
        Some(p) => Err(format!("{value} {having:?} is {}, not {want}", p.1)),
        None => Ok(format!("{value} {having:?} {want} on {rows} rows")),
    }
}

/// On every row, column `a` is at least column `b`.
pub(crate) fn no_less(text: &str, label: &str, a: &str, b: &str) -> Verdict {
    let sheet = Sheet::parse(text)?;
    let (a_points, b_points) = (sheet.points(label, a, |_| true)?, sheet.points(label, b, |_| true)?);
    match a_points.iter().zip(&b_points).find(|(a, b)| a.1 < b.1) {
        Some((low, b_point)) => Err(format!("at {} {a} {} is below {b} {}", low.0, low.1, b_point.1)),
        None => Ok(format!("{a} ≥ {b} on {} rows", a_points.len())),
    }
}

/// The mean of `value` over all rows is at most `bound`.
pub(crate) fn mean_at_most(text: &str, value: &str, bound: f64) -> Verdict {
    let points = Sheet::parse(text)?.points(value, value, |_| true)?;
    let mean = ddosim_core::experiment::mean(points.iter().map(|p| p.1));
    if points.is_empty() || mean > bound {
        return Err(format!("mean {value} is {mean:.1}, above {bound}"));
    }
    Ok(format!("mean {value} {mean:.1}"))
}

const CHURN_LEVELS: [&str; 3] = ["no churn", "static churn", "dynamic churn"];

/// Fig. 2's three `devs → avg kbps` series, over the same Dev counts.
fn fig2_series(text: &str) -> Result<[Vec<Point>; 3], String> {
    let sheet = Sheet::parse(text)?;
    let churn = sheet.col("churn")?;
    let level = |level: &str| sheet.points("devs", "avg kbps", |row| row[churn] == level);
    let series = [level(CHURN_LEVELS[0])?, level(CHURN_LEVELS[1])?, level(CHURN_LEVELS[2])?];
    let counts = |s: &Vec<Point>| s.iter().map(|p| p.0.clone()).collect::<Vec<_>>();
    if series[0].is_empty() || series.iter().any(|s| counts(s) != counts(&series[0])) {
        return Err("the three churn levels do not cover the same Dev counts".to_owned());
    }
    Ok(series)
}

/// Fig. 2 flattens: at every churn level the last segment's slope is below
/// the first's — per Dev, so unequal spacing of the counts does not skew
/// the ratio.
pub(crate) fn fig2_flattens(text: &str) -> Verdict {
    let mut ratios = Vec::new();
    for (level, points) in CHURN_LEVELS.iter().zip(&fig2_series(text)?) {
        if points.len() < 3 {
            return Err(format!("{level}: concavity needs three Dev counts"));
        }
        let devs: Vec<f64> = points.iter().map(|p| p.0.parse().unwrap_or(f64::NAN)).collect();
        let slope = |i: usize| (points[i + 1].1 - points[i].1) / (devs[i + 1] - devs[i]);
        let ratio = slope(points.len() - 2) / slope(0);
        // A NaN (non-numeric Dev count) must fail too.
        if ratio.is_nan() || ratio >= 1.0 {
            return Err(format!("{level}: last/first per-Dev slope is {ratio:.2}, not below 1"));
        }
        ratios.push(format!("{ratio:.2}"));
    }
    Ok(format!("last/first per-Dev slope {}", ratios.join(" / ")))
}

/// How far static churn may leave the [dynamic, none] band at one count.
/// Three replicates do not resolve the strict per-count ordering: when
/// this was written static sat 8.7 % under dynamic at 10 Devs and 0.3 %
/// over none at 150 Devs (bottleneck saturated).
const STATIC_BAND_TOLERANCE: f64 = 0.10;

/// Fig. 2's churn ordering: none ≥ dynamic at every count; none ≥ static ≥
/// dynamic on the sums; static within the tolerance of the band per count
/// (the observation names the counts at which it leaves the band).
pub(crate) fn fig2_churn_ordering(text: &str) -> Verdict {
    let [none, fixed, dynamic] = fig2_series(text)?;
    if let Some((n, d)) = none.iter().zip(&dynamic).find(|(n, d)| d.1 > n.1) {
        return Err(format!("at {} Devs dynamic churn ({}) exceeds no churn ({})", n.0, d.1, n.1));
    }
    let sum = |s: &[Point]| s.iter().map(|p| p.1).sum::<f64>();
    let (n, s, d) = (sum(&none), sum(&fixed), sum(&dynamic));
    if !(n >= s && s >= d) {
        return Err(format!("summed over Dev counts: none {n:.1}, static {s:.1}, dynamic {d:.1}"));
    }
    let mut outside = Vec::new();
    for ((n, s), d) in none.iter().zip(&fixed).zip(&dynamic) {
        let excess = ((d.1 - s.1) / d.1).max((s.1 - n.1) / n.1);
        if excess > STATIC_BAND_TOLERANCE {
            let band = format!("[dynamic {}, none {}]", d.1, n.1);
            return Err(format!(
                "at {} Devs static churn ({}) is {:.1}% outside {band}",
                n.0,
                s.1,
                excess * 100.0
            ));
        }
        if excess > 0.0 {
            outside.push(format!("{} Devs by {:.1}%", n.0, excess * 100.0));
        }
    }
    Ok(match outside.as_slice() {
        [] => "strictly ordered at every Dev count".to_owned(),
        _ => format!("static leaves the band at {}", outside.join(", ")),
    })
}

/// How far the implied steady rates of one Dev count may spread across
/// attack durations, as a share of the smallest: set before it was first
/// measured (0.07 % at 50 Devs, 0.05 % at 100 when this was written).
const RAMP_LAW_TOLERANCE: f64 = 0.005;

/// Fig. 3's ramp law. Each bot starts flooding after a uniform delay of up
/// to the attack ramp, so an `n`-second attack that does not fill the
/// bottleneck averages `steady × (1 − ramp / 2n)`. On every Dev count
/// whose mean offered rate (Devs × the access-rate draw's mean) is below
/// the TServer link, `avg / (1 − ramp / 2n)` — the steady rate — is the
/// same at every duration within [`RAMP_LAW_TOLERANCE`]. The ramp, the
/// access rates and the link are `SimulationConfig::default()`'s, the
/// world every Fig. 3 arm starts from.
pub(crate) fn fig3_ramp_law(text: &str) -> Verdict {
    let world = ddosim_core::SimulationConfig::default();
    let rates = &world.access_rate_kbps;
    let mean_bps = (*rates.start() as f64 + *rates.end() as f64) / 2.0 * 1000.0;
    let ramp = world.attack_ramp.as_secs_f64();
    let sheet = Sheet::parse(text)?;
    let devs = sheet.col("devs")?;
    let mut counts: Vec<&str> = Vec::new();
    for row in &sheet.rows {
        let offered = row[devs].parse::<f64>().unwrap_or(f64::NAN) * mean_bps;
        // A NaN (non-numeric Dev count) is no unsaturated row.
        if offered < world.tserver_link_bps as f64 && !counts.contains(&row[devs].as_str()) {
            counts.push(&row[devs]);
        }
    }
    let mut spreads = Vec::new();
    for count in &counts {
        let points = sheet.points("duration (s)", "avg kbps", |row| row[devs] == *count)?;
        let steady = |(secs, avg): &Point| match secs.parse::<f64>() {
            Ok(n) if n > ramp / 2.0 => Ok((secs.clone(), avg / (1.0 - ramp / (2.0 * n)))),
            _ => Err(format!("at {count} Devs '{secs}' is no duration longer than half the ramp")),
        };
        let steady = points.iter().map(steady).collect::<Result<Vec<_>, _>>()?;
        let low = steady.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
        let high = steady.iter().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max);
        let spread = (high - low) / low;
        if steady.len() < 2 || spread.is_nan() || spread > RAMP_LAW_TOLERANCE {
            let rates: Vec<String> = steady.iter().map(|(n, r)| format!("{r:.1} at {n} s")).collect();
            return Err(format!(
                "at {count} Devs the implied steady rate spreads {:.2}% across durations ({}), \
                 not within {}%",
                spread * 100.0,
                rates.join(", "),
                RAMP_LAW_TOLERANCE * 100.0
            ));
        }
        spreads.push(format!("{count} Devs {:.2}%", spread * 100.0));
    }
    if spreads.is_empty() {
        return Err("no Dev count offers less than the bottleneck: the ramp law checks nothing".into());
    }
    Ok(format!("steady-rate spread {}", spreads.join(", ")))
}

/// The exported series: silence for the first `quiet` seconds (until the
/// attack command), then the peak second within the next `window`.
pub(crate) fn quiet_then_peak(text: &str, quiet: usize, window: usize) -> Verdict {
    let series = Sheet::parse(text)?.points("t (s)", "kbits/s", |_| true)?;
    if let Some(early) = series.iter().take(quiet).find(|p| p.1 > 0.0) {
        return Err(format!("{} kbit/s at t={}, before the attack command", early.1, early.0));
    }
    let peak = series.iter().fold(("-", 0.0), |best, p| if p.1 > best.1 { (&p.0, p.1) } else { best });
    if !series.iter().skip(quiet).take(window).any(|p| p.0 == peak.0) {
        return Err(format!("peak {} kbit/s at t={}, outside the attack window", peak.1, peak.0));
    }
    Ok(format!("peak {} kbit/s at t={}", peak.1, peak.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TABLE;

    /// Runs the named row's claims over `text` (standing in for every
    /// artefact) and returns the first violation.
    fn violation(row: &str, text: &str) -> String {
        let row = TABLE.iter().find(|r| r.name == row).expect("row exists");
        let verdicts = row.verdicts(|_| Ok(text.to_owned()));
        verdicts.into_iter().find_map(Result::err).unwrap_or_else(|| panic!("{} holds", row.name))
    }

    fn fig2(rows: &[(u32, f64, f64, f64)]) -> String {
        let mut csv = "devs,churn,avg kbps,mean infected\n".to_owned();
        for (devs, none, fixed, dynamic) in rows {
            for (level, kbps) in CHURN_LEVELS.iter().zip([none, fixed, dynamic]) {
                csv.push_str(&format!("{devs},{level},{kbps:.1},{devs}.0\n"));
            }
        }
        csv
    }

    const GOOD_FIG2: [(u32, f64, f64, f64); 3] =
        [(10, 2500.0, 2400.0, 2300.0), (50, 12000.0, 11000.0, 10000.0), (100, 20000.0, 19000.0, 18000.0)];

    #[test]
    fn a_sheet_reads_all_three_artefact_shapes() {
        let mut table = ddosim_core::report::Table::new("t", &["label", "rate"]);
        table.push_row(vec!["baseline (curl present, 100-500 kbps)".into(), "100%".into()]);
        table.push_row(vec!["say \"hi\"".into(), "7.5".into()]);
        let sheet = Sheet::parse(&table.to_csv()).expect("parses");
        assert_eq!(sheet.rows[0][0], "baseline (curl present, 100-500 kbps)");
        assert_eq!(sheet.rows[1][0], "say \"hi\"");
        let points = sheet.points("label", "rate", |_| true).expect("numeric");
        assert_eq!(points[0].1, 100.0, "a trailing % is dropped");
        assert!(Sheet::parse("a,b\n1\n").err().expect("ragged").contains("the header's 2 cells"));
        assert!(sheet.points("label", "nope", |_| true).unwrap_err().contains("no column 'nope'"));

        let kv = Sheet::parse("flows=10 attack=5\naccuracy=0.99\n").expect("key=value");
        assert_eq!(kv.headers, ["flows", "attack", "accuracy"]);
        assert_eq!(kv.rows, [["10", "5", "0.99"]]);
        let md = Sheet::parse("# Title, with a comma\n\n| a | b |\n|---|---|\n| 1 | — |\n").expect("pipes");
        assert_eq!((md.headers, md.rows), (vec!["a".to_owned(), "b".to_owned()], vec![vec!["1".to_owned(), "—".to_owned()]]));
        assert!(Sheet::parse("").is_err());
    }

    #[test]
    fn a_well_shaped_fig2_passes_every_claim() {
        let row = TABLE.iter().find(|r| r.name == "fig2").expect("row exists");
        for verdict in row.verdicts(|_| Ok(fig2(&GOOD_FIG2))) {
            verdict.expect("holds");
        }
    }

    #[test]
    fn fig2_with_dynamic_above_none_fails_naming_the_dev_count() {
        // A churn model that *adds* traffic: dynamic over none at 50 Devs.
        let mut rows = GOOD_FIG2;
        rows[1].3 = 12500.0;
        let err = violation("fig2", &fig2(&rows));
        assert!(err.contains("at 50 Devs dynamic churn (12500) exceeds no churn (12000)"), "got: {err}");
    }

    #[test]
    fn fig2_shape_violations_fail() {
        let mut flat = GOOD_FIG2;
        flat[2] = (100, 11000.0, 10500.0, 9900.0);
        assert!(violation("fig2", &fig2(&flat)).contains("11000 at 100 is not above 12000 at 50"));
        // Convex growth: the last segment is steeper per Dev than the first.
        let convex = [(10, 100.0, 90.0, 80.0), (50, 500.0, 450.0, 400.0), (100, 5000.0, 4500.0, 4000.0)];
        assert!(violation("fig2", &fig2(&convex)).contains("not below 1"));
        // Static far under dynamic at one count, beyond the tolerance.
        let mut low = GOOD_FIG2;
        low[0].2 = 1500.0;
        assert!(violation("fig2", &fig2(&low)).contains("at 10 Devs static churn (1500) is 34.8% outside"));
        // Within the tolerance the count is named in the observation instead.
        let mut near = GOOD_FIG2;
        near[0].2 = 2250.0;
        assert!(fig2_churn_ordering(&fig2(&near)).expect("tolerated").contains("10 Devs by 2.2%"));
        // A level missing from the file is a violation, not a vacuous pass.
        let one_level = "devs,churn,avg kbps\n10,no churn,1.0\n25,no churn,2.0\n";
        assert!(violation("fig2", one_level).contains("same Dev counts"));
    }

    #[test]
    fn fig3_fig4_table1_violations_fail() {
        let fig3 = "devs,duration (s),avg kbps\n50,150,13000.0\n50,200,12900.0\n150,150,1.0\n150,200,2.0\n";
        assert!(violation("fig3", fig3).contains("devs = 50: 12900 at 200 is not above 13000 at 150"));
        // Rising, but faster than the ramp explains: 14444.4 vs 15135.1.
        let fig3 = "devs,duration (s),avg kbps\n50,150,13000.0\n50,200,14000.0\n150,150,1.0\n150,200,2.0\n";
        assert!(
            violation("fig3", fig3)
                .contains("at 50 Devs the implied steady rate spreads 4.78% across durations"),
            "{}",
            violation("fig3", fig3)
        );
        // Only saturated counts: the law has nothing to check, which fails.
        let saturated = "devs,duration (s),avg kbps\n150,150,1.0\n150,200,2.0\n";
        assert!(violation("fig3", saturated).contains("checks nothing"));
        let committed = include_str!("../../../results/fig3.csv");
        let held = fig3_ramp_law(committed).expect("the committed Fig. 3 holds the law");
        assert_eq!(held, "steady-rate spread 50 Devs 0.07%, 100 Devs 0.05%");
        let fig4 = |errors: [f64; 10]| {
            let rows = errors.iter().enumerate().map(|(i, e)| format!("{},1.0,1.0,{e:.1}%\n", 2 * i + 1));
            format!("devs,ddosim,hardware-ref,relative error\n{}", rows.collect::<String>())
        };
        let mut one_bad = [1.0; 10];
        one_bad[0] = 33.3;
        assert!(violation("fig4", &fig4(one_bad)).contains("relative error [] is 33.3, not ≤ 20%"));
        assert!(violation("fig4", &fig4([15.0; 10])).contains("mean relative error is 15.0, above 10"));
        let head = "devs,pre-attack mem (GB),paper,attack mem (GB),paper\n";
        let shrinking = format!("{head}20,0.45,0.38,0.69,0.39\n40,0.40,0.52,1.10,1.15\n");
        assert!(violation("table1", &shrinking).contains("pre-attack mem (GB)"));
        let inverted = format!("{head}20,0.45,0.38,0.40,0.39\n40,0.62,0.52,1.10,1.15\n");
        assert!(violation("table1", &inverted).contains("at 20 attack mem (GB) 0.4 is below"));
    }

    #[test]
    fn recruitment_violations_fail() {
        let cell = |p: &str, s: &str, rate: &str| format!("{p},{s},{rate},5.0\n");
        let matrix = |aslr_static: &str, full_leak: &str| {
            let mut csv = "protections,strategy,infection rate,mean time-to-infect (s)\n".to_owned();
            for p in ["none", "w^x", "aslr", "w^x+aslr"] {
                csv += &cell(p, "leak+rebase", if p == "w^x+aslr" { full_leak } else { "100%" });
                let chain = match p {
                    "aslr" => aslr_static,
                    "w^x+aslr" => "0%",
                    _ => "100%",
                };
                csv += &cell(p, "static-chain", chain);
                csv += &cell(p, "code-injection", if p.contains("w^x") { "0%" } else { "100%" });
            }
            csv
        };
        let row = TABLE.iter().find(|r| r.name == "infection").expect("row exists");
        row.verdicts(|_| Ok(matrix("0%", "100%")))[0].as_ref().expect("the paper's matrix holds");
        assert!(violation("infection", &matrix("0%", "95%")).contains("[\"leak+rebase\"] is 95, not 100%"));
        assert!(violation("infection", &matrix("40%", "100%")).contains("[\"static-chain\", \"aslr\"] is 40"));

        let ablations = |curl: &str, capped: &str| {
            format!(
                "ablation,infection rate,avg received data rate (kbps)\n\
                 \"baseline (curl present, 100-500 kbps)\",100%,13000.0\n\
                 vendor removes curl,{curl}\n\
                 vendor removes wget (stage-2 blocked),0%,0.0\n\
                 device data rate capped at 100-150 kbps,100%,{capped}\n\
                 device data rate 400-500 kbps,100%,19000.0\n\
                 firmware rebuilt with stack canaries,0%,0.0\n"
            )
        };
        assert!(violation("ablations", &ablations("10%,900.0", "5000.0")).contains("[\"removes curl\"] is 10"));
        assert!(violation("ablations", &ablations("0%,0.0", "20000.0")).contains("19000 at device data rate 400"));

        let scanner = "mechanism,infection rate,kbps\n\
                       memory-error exploitation (paper),100%,1.0\n\
                       \"credential scanner, 20% default creds\",50%,1.0\n\
                       \"credential scanner, 50% default creds\",40%,1.0\n";
        assert!(violation("recruitment", scanner).contains("40 at credential scanner, 50%"));
    }

    #[test]
    fn use_case_violations_fail() {
        let crn = "experiment,treatment,var ratio\n\
                   fig2 churn,static churn,12.9\nfig2 churn,dynamic churn,2.2\n\
                   fig3 duration,120s attack vs 60s,0.9\nfig3 duration,180s attack vs 60s,3.0\n";
        assert!(violation("crn", crn).contains("[\"fig3 duration\"] is 0.9"));
        let weak = "flows=10 attack=5 benign=5\naccuracy=0.9000 precision=1.0 recall=0.8 f1=0.8889\n";
        assert!(violation("defense", weak).contains("accuracy [] is 0.9"));
        assert!(violation("defense", "accuracy=0.99\n").contains("no column 'f1'"));
        let mitigation = "defense,attack avg (kbps),mitigation,benign pkts delivered,benign collateral\n\
                          no defense,9000.0,0%,2783,0%\n\
                          token-bucket rate limiter,6000.0,33%,2783,0%\n\
                          ML filter,200.0,98%,794,71%\n";
        assert!(violation("mitigation", mitigation).contains("mitigation [\"token-bucket\"] is 33"));
        assert!(violation("epidemic", "beta=0.7\nrmse=9.5\nn=80\n").contains("rmse [] is 9.5"));
        let series = |hot: usize| -> String {
            let rows = (0..200).map(|t| format!("{t},{}\n", if t == hot { "5.0" } else { "0.0" }));
            format!("t (s),kbits/s\n{}", rows.collect::<String>())
        };
        quiet_then_peak(&series(94), 60, 100).expect("a peak inside the window holds");
        assert!(violation("timeseries", &series(30)).contains("at t=30, before"));
        assert!(violation("timeseries", &series(170)).contains("outside the attack"));
        let frontier = "| cell | rate budget (bps) | deploy at (s) | mean flood pkts | collateral % |\n\
                        |---|---|---|---|---|\n\
                        | no defense | — | — | 15000.0 | 0.0 |\n\
                        | a | 16000 | 65 | 7000.0 | 0.0 |\n\
                        | b | 16000 | 85 | 6000.0 | 0.0 |\n\
                        | c | 64000 | 65 | 8000.0 | 0.0 |\n\
                        | d | 64000 | 85 | 9000.0 | 0.0 |\n";
        assert!(violation("frontier", frontier).contains("rate budget (bps) = 16000: 6000 at 85"));
    }
}
