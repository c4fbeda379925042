//! The paper's published numbers, from one campaign.
//!
//! `mcd-cli report paper` runs the configuration of record ([`RECORD`]) as
//! one campaign, adds the few runs no campaign cell covers ([`collect`]),
//! and renders every table, figure and shape claim of `EXPERIMENTS.md` as
//! marker-delimited blocks ([`render`]). Every dynamic-θ number, Figures 8
//! and 9 included, is the closed-loop schedule a [`BenchmarkSession`]
//! refines — the one the campaign's dynamic cells run. Running is separate
//! from rendering, so tests render small configurations and synthetic
//! results through the same code.

use std::fmt;

use crate::core::{
    average, finite, format_percent_table, BenchmarkResults as Results, BenchmarkSession,
    ExperimentConfig, Metrics, NonFinitePercent, PercentRow, ScenarioSpec,
};
use crate::harness::{CampaignReport, CampaignSpec, CellOutcome};
use crate::offline::AnalysisOutput;
use crate::pipeline::{simulate, DomainId, MachineConfig, PipelineConfig};
use crate::time::{DvfsModel, JitterModel, SyncParams};
use crate::workload::{suites, BenchmarkProfile};

/// A paper campaign: benchmarks × seeds × both DVFS models at
/// θ ∈ {1 %, 5 %}, with every registry policy as a governed row.
#[derive(Debug, Clone, Copy)]
pub struct PaperConfig {
    /// Benchmarks in figure order; empty means all sixteen.
    pub benchmarks: &'static [&'static str],
    /// Seeds, ascending. Claims are checked at each; tables render the
    /// last.
    pub seeds: &'static [u64],
    /// Committed instructions per campaign run. Table 2, A1 and A2.1 run
    /// the simulator directly at a quarter of this window.
    pub instructions: u64,
}

/// The configuration of record.
pub const RECORD: PaperConfig = PaperConfig {
    benchmarks: &[],
    seeds: &[1, 2, 3, 4, 5],
    instructions: 240_000,
};

const MODELS: [DvfsModel; 2] = [DvfsModel::XScale, DvfsModel::Transmeta];
const POLICIES: [&str; 2] = ["attack-decay", "queue-pi"];

impl PaperConfig {
    /// The campaign this configuration runs.
    pub fn spec(&self) -> CampaignSpec {
        CampaignSpec {
            benchmarks: self.benchmarks.iter().map(|b| b.to_string()).collect(),
            seeds: self.seeds.to_vec(),
            instructions: self.instructions,
            models: MODELS.to_vec(),
            thetas: [0.01, 0.05],
            policies: POLICIES.map(String::from).to_vec(),
        }
    }
}

/// Everything the report renders; percentages are in percent.
#[derive(Debug, Clone)]
pub struct PaperData {
    /// Committed instructions per campaign run.
    pub instructions: u64,
    /// The seed tables render.
    pub seed: u64,
    /// Campaign results per (model, seed), benchmarks in figure order.
    pub runs: Vec<(DvfsModel, u64, Vec<Results>)>,
    /// Figure 8: art's dynamic-1 % analysis and that cell's metrics, per
    /// model, from one session at the table seed.
    pub fig8: Vec<(DvfsModel, AnalysisOutput, Metrics)>,
    /// Table 2: baseline IPC, L1D miss rate and misprediction rate per
    /// benchmark, at a quarter window.
    pub table2: Vec<PercentRow>,
    /// gcc's baseline L1D miss rate per seed, at a quarter and the full
    /// window.
    pub gcc_l1d: Vec<(u64, [f64; 2])>,
    /// A1 and A2.1: baseline-MCD cost per sync window (T_s = 0, 15, 30,
    /// 50 %), then with jitter off at the paper's T_s.
    pub sync: Vec<PercentRow>,
    /// A2.2/3: gcc dynamic-5 % degradation, energy savings and
    /// energy-delay improvement per off-line tool variant.
    pub variants: Vec<PercentRow>,
}

/// Why no report could be produced.
#[derive(Debug, Clone, PartialEq)]
pub enum PaperError {
    /// A campaign cell did not finish: its label, and what happened.
    Cell(String, String),
    /// A NaN or infinite percentage reached the report.
    NonFinite(NonFinitePercent),
}

impl fmt::Display for PaperError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PaperError::Cell(cell, outcome) => write!(f, "campaign cell {cell} {outcome}"),
            PaperError::NonFinite(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for PaperError {}

impl From<NonFinitePercent> for PaperError {
    fn from(e: NonFinitePercent) -> Self {
        PaperError::NonFinite(e)
    }
}

fn profile(name: &str) -> BenchmarkProfile {
    suites::by_name(name).expect("known benchmark")
}

/// Gathers the finished campaign `report` of `config.spec()` and runs what
/// no cell covers: Figure 8's session, Table 2 and the ablations.
///
/// # Errors
///
/// [`PaperError::Cell`] names the first cell that failed, stalled or was
/// skipped.
pub fn collect(config: &PaperConfig, report: &CampaignReport) -> Result<PaperData, PaperError> {
    let mut runs: Vec<(DvfsModel, u64, Vec<Results>)> = Vec::new();
    for c in &report.cells {
        let Some(result) = c.outcome.result().cloned() else {
            let outcome = match &c.outcome {
                CellOutcome::Failed(failure) => failure.to_string(),
                CellOutcome::Stalled { .. } => "stalled".into(),
                _ => "was skipped".into(),
            };
            return Err(PaperError::Cell(c.cell.label(), outcome));
        };
        let key = (c.cell.model, c.cell.seed);
        match runs.last_mut() {
            Some((m, s, rs)) if (*m, *s) == key => rs.push(result),
            _ => runs.push((key.0, key.1, vec![result])),
        }
    }
    let (n, seed) = (config.instructions, *config.seeds.last().expect("a seed"));
    let quarter = n / 4;
    let base = |s, p: &BenchmarkProfile, window| simulate(&MachineConfig::baseline(s), p, window);
    let mcd_cost = |name: &str, tweak: &dyn Fn(&mut MachineConfig)| {
        let p = profile(name);
        let mut machine = MachineConfig::baseline_mcd(seed);
        tweak(&mut machine);
        let run = simulate(&machine, &p, quarter);
        100.0 * (run.slowdown_vs(&base(seed, &p, quarter)) - 1.0)
    };
    let fig8 = MODELS.map(|model| {
        let (art, cfg) = (profile("art"), ExperimentConfig::paper(seed, n, model));
        let mut session = BenchmarkSession::new(&art, &cfg);
        let metrics = session.cell(&ScenarioSpec::dynamic(0.01)).metrics;
        (model, session.analysis(0.01).clone(), metrics)
    });
    let mut variants = Vec::new();
    for (label, front_end, coupled) in [
        ("paper configuration", false, true),
        ("+ front-end scaling", true, true),
        ("- LS->Int coupling", false, false),
    ] {
        let mut cfg = ExperimentConfig::paper(seed, n, DvfsModel::XScale);
        cfg.offline.couple_ls_into_int = coupled;
        if front_end {
            // The analytic dilation model is least reliable for the front
            // end (its speed gates every later event), hence the strong
            // de-rating of its budget.
            cfg.offline.scale_front_end = true;
            cfg.offline.budget_safety[0] = 0.05;
        }
        let gcc = profile("gcc");
        let mut session = BenchmarkSession::new(&gcc, &cfg);
        let b = session.cell(&ScenarioSpec::baseline()).metrics;
        let m = session.cell(&ScenarioSpec::dynamic(0.05)).metrics;
        variants.push(PercentRow::new(label, versus(&m, &b)));
    }
    let mut table2 = Vec::new();
    for p in suites::all() {
        let run = base(seed, &p, quarter);
        let rates = [run.l1d.miss_rate(), run.mispredict_rate()].map(|r| 100.0 * r);
        let values = vec![run.ipc(), rates[0], rates[1]];
        table2.push(PercentRow::new(&p.name, values));
    }
    let gcc_l1d = config.seeds.iter().map(|&s| {
        let miss = |w| 100.0 * base(s, &profile("gcc"), w).l1d.miss_rate();
        (s, [miss(quarter), miss(n)])
    });
    let sync = ["adpcm", "g721", "gcc", "art"].map(|name| {
        let cost = |t| mcd_cost(name, &|m: &mut MachineConfig| m.sync = SyncParams::new(t));
        let mut values = [0.0, 0.15, 0.30, 0.50].map(cost).to_vec();
        values.push(mcd_cost(name, &|m| m.jitter = JitterModel::disabled()));
        PercentRow::new(name, values)
    });
    Ok(PaperData {
        instructions: n,
        seed,
        runs,
        fig8: fig8.to_vec(),
        table2,
        gcc_l1d: gcc_l1d.collect(),
        sync: sync.to_vec(),
        variants,
    })
}

/// The rendered report.
#[derive(Debug, Clone, PartialEq)]
pub struct PaperReport {
    /// Every generated block of `EXPERIMENTS.md`, marker-delimited, in
    /// document order.
    pub text: String,
    /// One line per failed check, naming the claim, model and seed.
    pub failures: Vec<String>,
}

impl PaperData {
    fn results(&self, model: DvfsModel, seed: u64) -> &[Results] {
        let run = self.runs.iter().find(|(m, s, _)| (*m, *s) == (model, seed));
        run.map_or(&[], |(_, _, rs)| rs)
    }
}

/// Renders every block and checks every claim.
///
/// # Errors
///
/// [`PaperError::NonFinite`] names the first NaN/inf percentage.
pub fn render(data: &PaperData) -> Result<PaperReport, PaperError> {
    let mut failures = Vec::new();
    let mut text = String::new();
    let mut block = |id: &str, body: String| {
        text += &format!("<!-- paper:{id} -->\n```text\n{body}```\n<!-- /paper:{id} -->\n");
    };
    block("table1", table1(&mut failures));
    block("table2", table2(data)?);
    for (id, body) in figures(data)? {
        block(id, body);
    }
    block("f8", fig8(data));
    block("f9", fig9(data));
    block("claims", claims(data, &mut failures)?);
    let (seed, n) = (data.seed, data.instructions);
    let direct = format!("seed {seed}, {} instructions", n / 4);
    let title = format!("A1, A2.1: baseline-MCD cost vs T_s; jitter off at T_s=30% ({direct})");
    let columns = cols("benchmark|Ts=0%|Ts=15%|Ts=30%|Ts=50%|jitter off");
    block("a1", format_percent_table(&title, &columns, &data.sync)?);
    let title = format!("A2.2/3: off-line tool variants, gcc dynamic-5% vs baseline (XScale, seed {seed}, {n} instructions)");
    let columns = cols("variant|perf deg|energy savings|ED improvement");
    let a2 = format_percent_table(&title, &columns, &data.variants)?;
    block("a2", a2);
    block("x1", x1(data)?);
    Ok(PaperReport { text, failures })
}

fn table1(failures: &mut Vec<String>) -> String {
    let c = PipelineConfig::alpha21264();
    let (b, f) = (&c.bpred, &c.fus);
    let u = |v: u64| v as usize;
    let rows: [(&str, usize, usize); 29] = [
        ("Branch mispredict penalty", u(c.mispredict_penalty), 7),
        ("Decode width", c.decode_width, 4),
        ("Issue width", c.issue_width_int + c.issue_width_fp, 6),
        ("Retire width", c.retire_width, 11),
        ("L1 data cache (KB)", u(c.l1d.size_bytes >> 10), 64),
        ("L1 data cache ways", u(c.l1d.ways.into()), 2),
        ("L1 instruction cache (KB)", u(c.l1i.size_bytes >> 10), 64),
        ("L1 instruction cache ways", u(c.l1i.ways.into()), 2),
        ("L2 unified cache (MB)", u(c.l2.size_bytes >> 20), 1),
        ("L2 ways (direct mapped)", u(c.l2.ways.into()), 1),
        ("L1 cache latency (cycles)", u(c.l1_latency), 2),
        ("L2 cache latency (cycles)", u(c.l2_latency), 12),
        ("Integer ALUs", f.int_alu, 4),
        ("Integer mult/div units", f.int_muldiv, 1),
        ("FP ALUs", f.fp_alu, 2),
        ("FP mult/div/sqrt units", f.fp_muldiv, 1),
        ("Integer issue queue size", c.iq_int, 20),
        ("FP issue queue size", c.iq_fp, 15),
        ("Load/store queue size", c.lsq_size, 64),
        ("Physical registers (int)", c.phys_int.into(), 72),
        ("Physical registers (fp)", c.phys_fp.into(), 72),
        ("Reorder buffer size", c.rob_size, 80),
        ("Bimodal predictor size", b.bimodal_entries, 1024),
        ("PAg level-1 entries", b.l1_entries, 1024),
        ("PAg history bits", u(b.history_bits.into()), 10),
        ("PAg level-2 entries", b.l2_entries, 1024),
        ("Combining predictor size", b.chooser_entries, 4096),
        ("BTB sets", b.btb_sets, 4096),
        ("BTB ways", b.btb_ways, 2),
    ];
    let mut out = String::from("Table 1: architectural parameters\n");
    out += "parameter                      this repo   paper\n";
    for (name, ours, paper) in rows {
        out += &format!("{name:<30} {ours:>9} {paper:>7}\n");
        if ours != paper {
            failures.push(format!("Table 1: {name} is {ours}, the paper's is {paper}"));
        }
    }
    out
}

fn table2(data: &PaperData) -> Result<String, NonFinitePercent> {
    let (seed, quarter) = (data.seed, data.instructions / 4);
    let mut out = format!("Table 2: benchmarks, baseline machine, seed {seed}, {quarter} instructions\nname      suite          paper window                    IPC  L1D miss  bp miss  FP frac\n");
    for r in &data.table2 {
        let (name, p) = (&r.label, profile(&r.label));
        let (suite, window) = (p.suite.label(), &p.paper_window);
        let (ipc, fp) = (r.values[0], 100.0 * p.avg_fp_fraction());
        let l1d = finite("Table 2", name, "L1D miss", r.values[1])?;
        let bp = finite("Table 2", name, "bp miss", r.values[2])?;
        out += &format!("{name:<9} {suite:<14} {window:<28} {ipc:>6.2}");
        out += &format!(" {l1d:>8.1}% {bp:>7.1}% {fp:>7.1}%\n");
    }
    Ok(out)
}

/// Figures 5–7 (with the counts their prose quotes) and the headline
/// block, from the XScale cells at the table seed.
fn figures(data: &PaperData) -> Result<Vec<(&str, String)>, NonFinitePercent> {
    let (seed, n) = (data.seed, data.instructions);
    let x = data.results(DvfsModel::XScale, seed);
    let at = format!("XScale, seed {seed}, {n} instructions");
    let columns = cols("benchmark|baseline MCD|dynamic-1%|dynamic-5%|global voltage scaling");
    let figures: [(&str, &str, Figure); 3] = [
        ("f5", "Figure 5: performance degradation", PERF),
        ("f6", "Figure 6: energy savings", ENERGY),
        ("f7", "Figure 7: energy-delay improvement", ED),
    ];
    let (mut blocks, mut avgs) = (Vec::new(), Vec::new());
    for (id, title, f) in figures {
        let mut rows = percents(x, f);
        rows.push(average(&rows));
        let mut body = format_percent_table(&format!("{title} ({at})"), &columns, &rows)?;
        avgs.push(rows.pop().expect("the average row").values);
        if id == "f5" {
            let (worst, least) = (extreme(&rows, 0, 1.0), extreme(&rows, 2, -1.0));
            body += &format!("largest baseline-MCD cost: {worst}\n");
            body += &format!("least dynamic-5% degradation: {least}\n");
        } else if id == "f7" {
            let losses = rows.iter().filter(|r| r.values[2] <= r.values[3]);
            let losses: Vec<&str> = losses.map(|r| r.label.as_str()).collect();
            let (wins, of, losses) = (rows.len() - losses.len(), rows.len(), losses.join(", "));
            body += &format!("dynamic-5% beats global on {wins} of {of}; exceptions: {losses}\n");
        }
        blocks.push((id, body));
    }
    let (perf, energy, ed, k) = (&avgs[0], &avgs[1], &avgs[2], x.len());
    let mut headline = format!("Headline comparison (averages over {k} benchmarks, {at})\n");
    headline += "claim                               this repo      paper\n";
    for (claim, ours, paper) in [
        ("baseline MCD perf cost", perf[0], "< 4%"),
        ("baseline MCD energy cost", -energy[0], "~1.5%"),
        ("baseline MCD ED cost", -ed[0], "~5%"),
        ("dynamic-5% perf degradation", perf[2], "~10%"),
        ("dynamic-5% energy savings", energy[2], "~27%"),
        ("dynamic-5% ED improvement", ed[2], "~20%"),
        ("dynamic-1% ED improvement", ed[1], "~13%"),
        ("global energy savings", energy[3], "< 12%"),
        ("global ED improvement", ed[3], "~3%"),
    ] {
        headline += &format!("{claim:<34} {ours:>9.1}% {paper:>10}\n");
    }
    blocks.push(("headline", headline));
    Ok(blocks)
}

fn fig8(data: &PaperData) -> String {
    let (mut out, seed) = (String::new(), data.seed);
    for (model, analysis, _) in &data.fig8 {
        let fp = &analysis.stats[DomainId::FloatingPoint.index()];
        let (lo, hi) = (fp.min_frequency.as_mhz_f64(), fp.max_frequency.as_mhz_f64());
        let changes = analysis.schedule.len();
        out += &format!("Figure 8: art, dynamic-1% ({model:?}, seed {seed}): {changes} frequency changes, FP {lo:.0}-{hi:.0} MHz\n");
        for e in analysis.schedule.entries() {
            let (t, f) = (e.at.as_millis_f64(), e.frequency.as_mhz_f64());
            let d = e.domain.label();
            out += &format!("  {t:>9.4} ms  {d:<14} -> {f:>4.0} MHz\n");
        }
    }
    out
}

fn fig9(data: &PaperData) -> String {
    use DomainId::{FloatingPoint, Integer, LoadStore};
    let (mut out, seed) = (String::new(), data.seed);
    let domains = [Integer, LoadStore, FloatingPoint];
    let per_mi = |r: &Results| r.reconfigurations5 as f64 * 1e6 / data.instructions as f64;
    for model in MODELS {
        let rs = data.results(model, seed);
        let k = rs.len().max(1) as f64;
        out += &format!("Figure 9 ({model:?}, dynamic-5%, seed {seed}): reconfigurations per 1M instructions; mean, min-max MHz\nbench     reconf/1M    Int             LS             FP\n");
        let (mut means, mut floor) = ([0.0; 3], 0);
        for r in rs {
            let (name, reconf) = (&r.name, per_mi(r));
            out += &format!("{name:<9} {reconf:>9.1}");
            for (mean, d) in means.iter_mut().zip(domains) {
                let s = r.domain_summary5[d.index()];
                let lo = s.min_frequency_hz / 1_000_000;
                let hi = s.max_frequency_hz / 1_000_000;
                let (mhz, range) = (s.mean_frequency_hz / 1e6, format!("{lo}-{hi}"));
                out += &format!(" {mhz:>6.0} {range:>9}");
                *mean += mhz / k;
            }
            out += "\n";
            let fp = r.domain_summary5[FloatingPoint.index()];
            floor += usize::from(fp.min_frequency_hz == 250_000_000);
        }
        let reconf = rs.iter().map(per_mi).sum::<f64>() / k;
        let ([int, ls, fp], k, pad) = (means, rs.len(), "");
        out +=
            &format!("average   {reconf:>9.1} {int:>6.0} {pad:>9} {ls:>6.0} {pad:>9} {fp:>6.0}\n");
        out += &format!("FP plan reaches the 250 MHz floor in {floor} of {k}\n");
    }
    out
}

/// X1: the off-line oracle and every registry policy against baseline
/// MCD, per model, averaged over the campaign's benchmarks.
fn x1(data: &PaperData) -> Result<String, NonFinitePercent> {
    let (mut out, seed, n) = (String::new(), data.seed, data.instructions);
    for model in MODELS {
        let rs = data.results(model, seed);
        let mut rows = Vec::new();
        for policy in [None, Some(POLICIES[0]), Some(POLICIES[1])] {
            let mut per = Vec::new();
            for r in rs {
                let online = |p| r.online.iter().find(|o| o.policy == p).map(|o| o.metrics);
                let m = policy.map_or(Some(r.dynamic5), online);
                // A missing governed row surfaces as a non-finite cell.
                let v = m.map_or(vec![f64::NAN; 3], |m| versus(&m, &r.baseline_mcd));
                per.push(PercentRow::new(&r.name, v));
            }
            let label = policy.unwrap_or("off-line oracle (dynamic-5%)");
            rows.push(PercentRow::new(label, average(&per).values));
        }
        let k = rs.len();
        let title = format!("X1 ({model:?}, seed {seed}, {n} instructions): vs baseline MCD, mean of {k} benchmarks");
        let columns = cols("policy|perf deg|energy savings|ED improvement");
        out += &format_percent_table(&title, &columns, &rows)?;
    }
    Ok(out)
}

type Figure = fn(&Results) -> [f64; 4];
const PERF: Figure = |r| r.perf_degradation();
const ENERGY: Figure = |r| r.energy_savings();
const ED: Figure = |r| r.energy_delay_improvement();

/// Degradation, energy savings and energy-delay improvement of `m`
/// versus `base`, in percent.
fn versus(m: &Metrics, base: &Metrics) -> Vec<f64> {
    let ed = m.energy_delay_improvement_vs(base);
    let v = [m.perf_degradation_vs(base), m.energy_savings_vs(base), ed];
    v.map(|v| 100.0 * v).to_vec()
}

/// Table column headers from one `|`-separated string.
fn cols(header: &str) -> Vec<&str> {
    header.split('|').collect()
}

/// One row per benchmark of a Figure 5/6/7 quantity, in percent.
fn percents(rs: &[Results], f: Figure) -> Vec<PercentRow> {
    let row = |r: &Results| PercentRow::new(&r.name, f(r).map(|v| 100.0 * v).to_vec());
    rs.iter().map(row).collect()
}

/// The label of the row with the largest `sign × values[col]`.
fn extreme(rows: &[PercentRow], col: usize, sign: f64) -> &str {
    let key = |r: &&PercentRow| sign * r.values[col];
    let best = rows.iter().max_by(|a, b| key(a).total_cmp(&key(b)));
    best.map_or("-", |r| &r.label)
}

/// The shape claims: id (4 columns), the model each is about (10
/// columns), and the statement, with the measured quantities in brackets
/// where they are not obvious. `check_seed` evaluates them in this order.
const CLAIMS: &str = "\
1   XScale    baseline-MCD performance cost in (0, 4 %)
2   XScale    baseline-MCD energy cost in (0, 5 %)
3   XScale    baseline-MCD energy-delay change is a cost (< 0)
4   XScale    dynamic-5 % degradation in (5 %, 16 %)
5   XScale    dynamic-5 % degrades more than dynamic-1 % [d5 / d1]
6   XScale    dynamic-5 % energy savings above 10 %
7   XScale    dynamic-5 % saves more energy than global [d5 / global]
8   XScale    d5 saves more energy than d1 on every benchmark [count]
9   XScale    ED: d5 > d1 > 0 and d5 > global [d5 / d1 / global]
10  XScale    global matches d5's degradation within 4 pp [gap]
11  Transmeta fewer reconfigurations per 1M instr than XScale [T / X]
12a XScale    g721 baseline IPC above 2
12b XScale    mcf, em3d, health baseline IPC below 1 [highest]
12c XScale    gcc L1D miss within 2.5 pp of 12.5 % [quarter / full]
12d XScale    adpcm has the largest baseline-MCD cost";

/// Every claim's measured values and verdict at one seed.
fn check_seed(data: &PaperData, seed: u64) -> Vec<(Vec<f64>, bool)> {
    let x = data.results(DvfsModel::XScale, seed);
    let t = data.results(DvfsModel::Transmeta, seed);
    let mean = |f: Figure| -> [f64; 4] {
        let v = average(&percents(x, f)).values;
        std::array::from_fn(|i| v.get(i).copied().unwrap_or(f64::NAN))
    };
    let (perf, energy, ed) = (mean(PERF), mean(ENERGY), mean(ED));
    let ipc = |name: &str| x.iter().find(|r| r.name == name).map(|r| r.baseline_ipc);
    let reconf = |rs: &[Results]| rs.iter().map(|r| r.reconfigurations5 as f64).sum::<f64>();
    let per_mi = |rs: &[Results]| reconf(rs) * 1e6 / (data.instructions * rs.len() as u64) as f64;
    let (tm, xs) = (per_mi(t), per_mi(x));
    let more = x.iter().filter(|r| ENERGY(r)[2] > ENERGY(r)[1]).count();
    let costs = percents(x, PERF);
    let adpcm = costs.iter().find(|r| r.label == "adpcm");
    let adpcm: Vec<f64> = adpcm.map(|r| r.values[0]).into_iter().collect();
    let worst = extreme(&costs, 0, 1.0) == "adpcm";
    let g721 = ipc("g721");
    let memory_bound: Option<Vec<f64>> = ["mcf", "em3d", "health"].map(ipc).into_iter().collect();
    let highest = memory_bound.map(|v| v.into_iter().fold(0.0, f64::max));
    let memory_bound_low = highest.is_some_and(|v| v < 1.0);
    let l1d = data.gcc_l1d.iter().find(|(s, _)| *s == seed);
    let l1d = l1d.map_or(vec![], |(_, v)| v.to_vec());
    let gap = (perf[3] - perf[2]).abs();
    let ed_order = ed[2] > ed[1] && ed[1] > 0.0 && ed[2] > ed[3];
    let calibrated = !l1d.is_empty() && l1d.iter().all(|v| (v - 12.5).abs() <= 2.5);
    vec![
        (vec![perf[0]], perf[0] > 0.0 && perf[0] < 4.0),
        (vec![-energy[0]], -energy[0] > 0.0 && -energy[0] < 5.0),
        (vec![ed[0]], ed[0] < 0.0),
        (vec![perf[2]], perf[2] > 5.0 && perf[2] < 16.0),
        (vec![perf[2], perf[1]], perf[2] > perf[1]),
        (vec![energy[2]], energy[2] > 10.0),
        (vec![energy[2], energy[3]], energy[2] > energy[3]),
        (vec![more as f64], more == x.len() && more > 0),
        (vec![ed[2], ed[1], ed[3]], ed_order),
        (vec![gap], gap < 4.0),
        (vec![tm, xs], tm < xs),
        (g721.into_iter().collect(), g721.is_some_and(|v| v > 2.0)),
        (highest.into_iter().collect(), memory_bound_low),
        (l1d, calibrated),
        (adpcm, worst),
    ]
}

fn claims(data: &PaperData, failures: &mut Vec<String>) -> Result<String, NonFinitePercent> {
    let xscale = data.runs.iter().filter(|r| r.0 == DvfsModel::XScale);
    let seeds: Vec<u64> = xscale.map(|r| r.1).collect();
    let checks: Vec<_> = seeds.iter().map(|&s| check_seed(data, s)).collect();
    let mut out = format!("Shape claims, min..max over seeds {seeds:?}\nid  model     claim                                                      measured                             verdict\n");
    let num = |v: f64| format!("{v:.2}").trim_end_matches(".00").to_string();
    for (i, line) in CLAIMS.lines().enumerate() {
        let (id, model, claim) = (line[..4].trim(), line[4..14].trim(), &line[14..]);
        let mut ranges = Vec::new();
        for k in 0..checks.first().map_or(0, |c| c[i].0.len()) {
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for c in &checks {
                let v = c[i].0.get(k).copied().unwrap_or(f64::NAN);
                let v = finite("Shape claims", id, claim, v)?;
                (lo, hi) = (lo.min(v), hi.max(v));
            }
            let (lo, hi) = (num(lo), num(hi));
            ranges.push(if lo == hi { lo } else { format!("{lo}..{hi}") });
        }
        let failed = seeds.iter().zip(&checks).filter(|(_, c)| !c[i].1);
        let failed: Vec<u64> = failed.map(|(s, _)| *s).collect();
        let why = format!("claim {id} ({claim}) fails under {model}");
        failures.extend(failed.iter().map(|seed| format!("{why} at seed {seed}")));
        let verdict = match failed.is_empty() {
            true => "holds".into(),
            false => format!("FAILS at seeds {failed:?}"),
        };
        let measured = ranges.join(" / ");
        out += &format!("{line:<72} {measured:<36} {verdict}\n");
    }
    Ok(out)
}
