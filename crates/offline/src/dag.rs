//! Dependence-DAG construction from a full-speed event trace.
//!
//! §3.2: the trace is cut into 50 K-cycle intervals; for each interval a DAG
//! is built whose nodes are primitive events (fetch, dispatch, address
//! calculation, memory access, execute, commit) and whose edges are data
//! dependences, intra-instruction pipeline order, and functional dependences
//! that capture the limited size of the fetch queue, ROB, issue queues and
//! load/store queue ("in the fetch queue, event *i* depends on event
//! *i − k*, where *k* is the size of the queue").
//!
//! Edge slack is measured from the recorded event times; edges whose
//! measured slack would be negative (an artifact of approximating a
//! queue-departure constraint with the corresponding event's *end* time) are
//! dropped — this only makes the subsequent shaker more conservative.
//!
//! The DAG is stored analysis-friendly rather than builder-friendly:
//! adjacency is a flat CSR arena (one offset array + one edge array per
//! direction, built in two passes over the edge list) and the fields the
//! shaker mutates on every visit (`start`/`end`/`scale`/`power`) live in
//! parallel arrays so the passes stream through contiguous memory instead
//! of chasing one heap allocation per node.

use mcd_pipeline::{DomainId, EventKind, InstrTrace, PipelineConfig};
use mcd_time::Femtos;
use mcd_workload::OpClass;

/// One primitive event, as fed to [`IntervalDag::from_events`] (and as
/// returned by [`IntervalDag::node`] for inspection).
#[derive(Debug, Clone)]
pub struct Node {
    /// Instruction sequence number this event belongs to.
    pub instr: u64,
    /// Which primitive event this is.
    pub kind: EventKind,
    /// The clock domain that executes the event.
    pub domain: DomainId,
    /// Original (measured) start time.
    pub orig_start: Femtos,
    /// Original (measured) end time.
    pub orig_end: Femtos,
    /// Current start (mutated by the shaker).
    pub start: Femtos,
    /// Current end (mutated by the shaker).
    pub end: Femtos,
    /// Stretch factor (1.0 = full speed, up to the ¼-frequency cap).
    pub scale: f64,
    /// Relative power factor (initialized from the domain's share, divided
    /// by `scale²` as the event is stretched).
    pub power: f64,
    /// Whether the shaker may stretch this event (front-end events and
    /// commits are not scaled, matching the paper).
    pub scalable: bool,
    /// Clock cycles of the owning domain actually consumed by the event.
    /// Usually `duration × f_base`, but a memory access that misses to main
    /// memory only occupies the load/store clock for the L1 + L2 pipeline
    /// portion — the DRAM part is frequency-invariant and must not force
    /// the domain to stay fast.
    pub domain_cycles: f64,
}

impl Node {
    /// Current (possibly stretched) duration.
    pub fn duration(&self) -> Femtos {
        self.end - self.start
    }
}

/// Static per-node attributes the shaker only reads.
#[derive(Debug, Clone)]
pub(crate) struct NodeMeta {
    pub instr: u64,
    pub kind: EventKind,
    pub domain: DomainId,
    pub orig_start: Femtos,
    pub orig_end: Femtos,
    pub scalable: bool,
    pub domain_cycles: f64,
}

/// A dependence DAG covering one analysis interval.
///
/// Node attributes are split struct-of-arrays: the immutable metadata in
/// `meta` and the four shaker-mutated fields in `starts`/`ends`/`scales`/
/// `powers`. Adjacency is CSR: `succs(i)` / `preds(i)` are slices of a
/// single flat edge array.
#[derive(Debug, Clone)]
pub struct IntervalDag {
    /// Interval bounds in absolute trace time.
    pub start: Femtos,
    /// End of the interval.
    pub end: Femtos,
    /// Instructions contributing events to this interval.
    pub instructions: u64,
    pub(crate) meta: Vec<NodeMeta>,
    pub(crate) starts: Vec<Femtos>,
    pub(crate) ends: Vec<Femtos>,
    pub(crate) scales: Vec<f64>,
    pub(crate) powers: Vec<f64>,
    succ_off: Vec<u32>,
    succ_adj: Vec<u32>,
    pred_off: Vec<u32>,
    pred_adj: Vec<u32>,
}

impl IntervalDag {
    /// Builds a DAG from event records plus a raw edge list.
    ///
    /// Edges whose measured slack would be negative
    /// (`nodes[a].end > nodes[b].start`) are dropped, mirroring the
    /// builder's conservatism. Adjacency is materialized as CSR in two
    /// passes (degree count, then placement), preserving the edge-list
    /// order within each node's successor/predecessor slice.
    pub fn from_events(
        start: Femtos,
        end: Femtos,
        instructions: u64,
        nodes: Vec<Node>,
        edges: &[(u32, u32)],
    ) -> Self {
        let n = nodes.len();
        let mut dag = IntervalDag {
            start,
            end,
            instructions,
            meta: Vec::with_capacity(n),
            starts: Vec::with_capacity(n),
            ends: Vec::with_capacity(n),
            scales: Vec::with_capacity(n),
            powers: Vec::with_capacity(n),
            succ_off: Vec::new(),
            succ_adj: Vec::new(),
            pred_off: Vec::new(),
            pred_adj: Vec::new(),
        };
        for node in nodes {
            dag.meta.push(NodeMeta {
                instr: node.instr,
                kind: node.kind,
                domain: node.domain,
                orig_start: node.orig_start,
                orig_end: node.orig_end,
                scalable: node.scalable,
                domain_cycles: node.domain_cycles,
            });
            dag.starts.push(node.start);
            dag.ends.push(node.end);
            dag.scales.push(node.scale);
            dag.powers.push(node.power);
        }

        // Pass 1: out/in degree per node (negative-slack edges excluded).
        let keep = |a: u32, b: u32| dag.ends[a as usize] <= dag.starts[b as usize];
        let mut succ_off = vec![0u32; n + 1];
        let mut pred_off = vec![0u32; n + 1];
        for &(a, b) in edges {
            if keep(a, b) {
                succ_off[a as usize + 1] += 1;
                pred_off[b as usize + 1] += 1;
            }
        }
        for i in 0..n {
            succ_off[i + 1] += succ_off[i];
            pred_off[i + 1] += pred_off[i];
        }
        // Pass 2: place edges at the running cursor per node.
        let mut succ_adj = vec![0u32; succ_off[n] as usize];
        let mut pred_adj = vec![0u32; pred_off[n] as usize];
        let mut succ_cur = succ_off.clone();
        let mut pred_cur = pred_off.clone();
        for &(a, b) in edges {
            if keep(a, b) {
                succ_adj[succ_cur[a as usize] as usize] = b;
                succ_cur[a as usize] += 1;
                pred_adj[pred_cur[b as usize] as usize] = a;
                pred_cur[b as usize] += 1;
            }
        }
        dag.succ_off = succ_off;
        dag.succ_adj = succ_adj;
        dag.pred_off = pred_off;
        dag.pred_adj = pred_adj;
        dag
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// Whether the DAG has no nodes.
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    /// Successor indices of node `i`.
    #[inline]
    pub fn succs(&self, i: usize) -> &[u32] {
        &self.succ_adj[self.succ_off[i] as usize..self.succ_off[i + 1] as usize]
    }

    /// Predecessor indices of node `i`.
    #[inline]
    pub fn preds(&self, i: usize) -> &[u32] {
        &self.pred_adj[self.pred_off[i] as usize..self.pred_off[i + 1] as usize]
    }

    /// Reassembles the full event record for node `i`.
    pub fn node(&self, i: usize) -> Node {
        let m = &self.meta[i];
        Node {
            instr: m.instr,
            kind: m.kind,
            domain: m.domain,
            orig_start: m.orig_start,
            orig_end: m.orig_end,
            start: self.starts[i],
            end: self.ends[i],
            scale: self.scales[i],
            power: self.powers[i],
            scalable: m.scalable,
            domain_cycles: m.domain_cycles,
        }
    }

    /// Iterates over reassembled event records.
    pub fn nodes(&self) -> impl Iterator<Item = Node> + '_ {
        (0..self.len()).map(|i| self.node(i))
    }

    /// Current start of node `i`.
    #[inline]
    pub fn start_of(&self, i: usize) -> Femtos {
        self.starts[i]
    }

    /// Current end of node `i`.
    #[inline]
    pub fn end_of(&self, i: usize) -> Femtos {
        self.ends[i]
    }

    /// Current stretch factor of node `i`.
    #[inline]
    pub fn scale_of(&self, i: usize) -> f64 {
        self.scales[i]
    }

    /// Minimum successor start (or the interval end for sinks): the latest
    /// time this node may currently end without delaying anything.
    #[inline]
    pub fn out_limit(&self, i: usize) -> Femtos {
        self.succs(i)
            .iter()
            .map(|&s| self.starts[s as usize])
            .fold(self.end, Femtos::min)
    }

    /// Maximum predecessor end (or the interval start for sources): the
    /// earliest time this node may currently start.
    #[inline]
    pub fn in_limit(&self, i: usize) -> Femtos {
        self.preds(i)
            .iter()
            .map(|&p| self.ends[p as usize])
            .fold(self.start, Femtos::max)
    }

    /// Total slack currently present on outgoing edges of all nodes.
    pub fn total_slack(&self) -> Femtos {
        (0..self.len())
            .map(|i| self.out_limit(i).saturating_sub(self.ends[i]))
            .sum()
    }
}

/// Relative per-domain power factors used to initialize node power.
#[derive(Debug, Clone, Copy)]
pub struct PowerFactors {
    /// Factor per domain, indexed by [`DomainId::index`].
    pub by_domain: [f64; DomainId::COUNT],
}

impl Default for PowerFactors {
    fn default() -> Self {
        // Relative per-event power, loosely following the calibrated power
        // model (integer events are the most expensive to keep fast).
        PowerFactors {
            by_domain: [0.8, 1.0, 0.9, 0.95],
        }
    }
}

/// Builder state for per-queue functional dependences.
struct QueueDeps {
    fetch_nodes: Vec<u32>,
    dispatch_nodes: Vec<u32>,
    commit_nodes: Vec<u32>,
    int_iq: Vec<(u32, u32)>, // (dispatch node, leave node)
    fp_iq: Vec<(u32, u32)>,
    lsq: Vec<(u32, u32)>, // (dispatch node, commit node)
    // Ordered execute/memory nodes per domain, for same-unit dependences.
    int_exec: Vec<u32>,
    fp_exec: Vec<u32>,
    mem_access: Vec<u32>,
}

/// Per-interval accumulation before CSR materialization.
struct DagBuilder {
    start: Femtos,
    end: Femtos,
    instructions: u64,
    nodes: Vec<Node>,
}

/// Cuts `trace` into `interval_len`-long DAGs.
///
/// Instructions are assigned to intervals by fetch start time. `scale_fe`
/// marks front-end events scalable (an ablation; the paper keeps the front
/// end at full speed).
pub fn build_interval_dags(
    trace: &[InstrTrace],
    pcfg: &PipelineConfig,
    interval_len: Femtos,
    power: PowerFactors,
    scale_fe: bool,
) -> Vec<IntervalDag> {
    // Interval length is `interval_cycles` base periods, so the base period
    // is recoverable without threading the frequency through.
    let base_period_fs: f64 = 1_000_000.0; // 1 GHz trace runs (asserted below)
    assert!(
        interval_len > Femtos::ZERO,
        "interval length must be positive"
    );
    if trace.is_empty() {
        return Vec::new();
    }
    let total_end = trace
        .iter()
        .map(|t| t.commit)
        .fold(Femtos::ZERO, Femtos::max);
    let n_intervals = (total_end.as_femtos() / interval_len.as_femtos() + 1) as usize;
    let mut builders: Vec<DagBuilder> = (0..n_intervals)
        .map(|k| DagBuilder {
            start: Femtos::from_femtos(k as u64 * interval_len.as_femtos()),
            end: Femtos::from_femtos((k as u64 + 1) * interval_len.as_femtos()),
            instructions: 0,
            nodes: Vec::new(),
        })
        .collect();

    // Per-interval builder state.
    let mut qdeps: Vec<QueueDeps> = (0..n_intervals)
        .map(|_| QueueDeps {
            fetch_nodes: Vec::new(),
            dispatch_nodes: Vec::new(),
            commit_nodes: Vec::new(),
            int_iq: Vec::new(),
            fp_iq: Vec::new(),
            lsq: Vec::new(),
            int_exec: Vec::new(),
            fp_exec: Vec::new(),
            mem_access: Vec::new(),
        })
        .collect();
    // seq → (interval, completion node) for data edges. Sequence numbers in
    // a trace are dense, so a flat table beats a hash map; producers outside
    // the recorded range simply miss.
    let seq_base = trace.iter().map(|t| t.seq).min().unwrap_or(0);
    let seq_max = trace.iter().map(|t| t.seq).max().unwrap_or(0);
    const NO_NODE: (u32, u32) = (u32::MAX, u32::MAX);
    let mut completion: Vec<(u32, u32)> = vec![NO_NODE; (seq_max - seq_base + 1) as usize];
    let mut edges: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n_intervals];

    for t in trace {
        let k = (t.fetch.start.as_femtos() / interval_len.as_femtos()) as usize;
        let k = k.min(n_intervals - 1);
        let dag = &mut builders[k];
        dag.instructions += 1;
        let base = dag.nodes.len() as u32;
        // Frequency-sensitive cycle count for a memory access: a DRAM miss
        // occupies the load/store clock only for the cache-pipeline part.
        let mem_domain_cycles = if t.l2_miss {
            (pcfg.l1_latency + pcfg.l2_latency) as f64
        } else {
            f64::NAN // use measured duration
        };
        let push = |dag: &mut DagBuilder, kind, domain: DomainId, s: Femtos, e: Femtos| {
            let scalable = match domain {
                DomainId::FrontEnd => scale_fe && kind != EventKind::Commit,
                _ => kind != EventKind::Commit,
            } && e > s;
            let mut domain_cycles = (e - s).as_femtos() as f64 / base_period_fs;
            if kind == EventKind::MemAccess && mem_domain_cycles.is_finite() {
                domain_cycles = domain_cycles.min(mem_domain_cycles);
            }
            dag.nodes.push(Node {
                instr: t.seq,
                kind,
                domain,
                orig_start: s,
                orig_end: e,
                start: s,
                end: e,
                scale: 1.0,
                power: power.by_domain[domain.index()],
                scalable,
                domain_cycles,
            });
            (dag.nodes.len() - 1) as u32
        };

        let f = push(
            dag,
            EventKind::Fetch,
            DomainId::FrontEnd,
            t.fetch.start,
            t.fetch.end,
        );
        let d = push(
            dag,
            EventKind::Dispatch,
            DomainId::FrontEnd,
            t.dispatch.start,
            t.dispatch.end,
        );
        edges[k].push((f, d));
        let mut compute_entry = d; // node that register sources feed
        let mut last = d;
        let q_units = &mut qdeps[k];
        if let Some(a) = t.addr_calc {
            let an = push(dag, EventKind::AddrCalc, DomainId::Integer, a.start, a.end);
            edges[k].push((last, an));
            // Same-unit dependence: the integer units execute a bounded
            // number of events at once (paper: "functional dependences link
            // each event to previous and subsequent events that use the
            // same hardware units").
            if q_units.int_exec.len() >= pcfg.fus.int_alu {
                let prev = q_units.int_exec[q_units.int_exec.len() - pcfg.fus.int_alu];
                edges[k].push((prev, an));
            }
            q_units.int_exec.push(an);
            compute_entry = an;
            last = an;
        }
        if let Some(m) = t.mem_access {
            let mn = push(
                dag,
                EventKind::MemAccess,
                DomainId::LoadStore,
                m.start,
                m.end,
            );
            edges[k].push((last, mn));
            if q_units.mem_access.len() >= pcfg.issue_width_mem {
                let prev = q_units.mem_access[q_units.mem_access.len() - pcfg.issue_width_mem];
                edges[k].push((prev, mn));
            }
            q_units.mem_access.push(mn);
            last = mn;
        }
        if let Some(x) = t.execute {
            let xn = push(dag, EventKind::Execute, t.exec_domain, x.start, x.end);
            edges[k].push((last, xn));
            match t.exec_domain {
                DomainId::FloatingPoint => {
                    if q_units.fp_exec.len() >= pcfg.fus.fp_alu {
                        let prev = q_units.fp_exec[q_units.fp_exec.len() - pcfg.fus.fp_alu];
                        edges[k].push((prev, xn));
                    }
                    q_units.fp_exec.push(xn);
                }
                _ => {
                    if q_units.int_exec.len() >= pcfg.fus.int_alu {
                        let prev = q_units.int_exec[q_units.int_exec.len() - pcfg.fus.int_alu];
                        edges[k].push((prev, xn));
                    }
                    q_units.int_exec.push(xn);
                }
            }
            compute_entry = xn;
            last = xn;
        }
        let c = push(
            dag,
            EventKind::Commit,
            DomainId::FrontEnd,
            t.commit,
            t.commit,
        );
        edges[k].push((last, c));

        // Data dependences (only within the interval).
        for producer in t.src_producers.iter().flatten() {
            if let Some(slot) = producer
                .checked_sub(seq_base)
                .and_then(|i| completion.get(i as usize))
            {
                let (pk, pnode) = *slot;
                if pk as usize == k && *slot != NO_NODE {
                    edges[k].push((pnode, compute_entry));
                }
            }
        }
        if let Some(slot) = t
            .seq
            .checked_sub(seq_base)
            .and_then(|i| completion.get_mut(i as usize))
        {
            *slot = (k as u32, last);
        }

        // Functional (capacity) dependences.
        let q = &mut qdeps[k];
        if let Some(&prev_f) = q.fetch_nodes.last() {
            edges[k].push((prev_f, f));
        }
        if q.fetch_nodes.len() >= pcfg.fetch_queue {
            let blocker = q.dispatch_nodes[q.fetch_nodes.len() - pcfg.fetch_queue];
            edges[k].push((blocker, f));
        }
        if q.commit_nodes.len() >= pcfg.rob_size {
            let blocker = q.commit_nodes[q.commit_nodes.len() - pcfg.rob_size];
            edges[k].push((blocker, d));
        }
        if let Some(&prev_c) = q.commit_nodes.last() {
            edges[k].push((prev_c, c));
        }
        q.fetch_nodes.push(f);
        q.dispatch_nodes.push(d);
        q.commit_nodes.push(c);

        // Issue-queue and LSQ capacity: dispatch of the m-th same-queue
        // instruction waits for the departure of the (m − cap)-th.
        let is_mem = t.op.is_mem();
        if is_mem {
            if q.int_iq.len() >= pcfg.iq_int {
                let (_, leave) = q.int_iq[q.int_iq.len() - pcfg.iq_int];
                edges[k].push((leave, d));
            }
            q.int_iq.push((d, compute_entry));
            if q.lsq.len() >= pcfg.lsq_size {
                let (_, leave) = q.lsq[q.lsq.len() - pcfg.lsq_size];
                edges[k].push((leave, d));
            }
            q.lsq.push((d, c));
        } else if t.op != OpClass::Branch && t.exec_domain == DomainId::FloatingPoint {
            if q.fp_iq.len() >= pcfg.iq_fp {
                let (_, leave) = q.fp_iq[q.fp_iq.len() - pcfg.iq_fp];
                edges[k].push((leave, d));
            }
            q.fp_iq.push((d, base + 2)); // execute node follows dispatch
        } else {
            if q.int_iq.len() >= pcfg.iq_int {
                let (_, leave) = q.int_iq[q.int_iq.len() - pcfg.iq_int];
                edges[k].push((leave, d));
            }
            q.int_iq.push((d, compute_entry));
        }
    }

    // Materialize CSR adjacency, dropping negative-slack edges.
    builders
        .into_iter()
        .zip(edges)
        .filter(|(b, _)| !b.nodes.is_empty())
        .map(|(b, e)| IntervalDag::from_events(b.start, b.end, b.instructions, b.nodes, &e))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcd_pipeline::{simulate, MachineConfig};
    use mcd_workload::suites;

    fn traced_run(name: &str, n: u64) -> (Vec<InstrTrace>, PipelineConfig) {
        let mut m = MachineConfig::baseline_mcd(3);
        m.collect_trace = true;
        let profile = suites::by_name(name).expect("known benchmark");
        let r = simulate(&m, &profile, n);
        (r.trace.expect("trace requested"), m.pipeline)
    }

    #[test]
    fn dags_cover_all_instructions() {
        let (trace, pcfg) = traced_run("adpcm", 5_000);
        let dags = build_interval_dags(
            &trace,
            &pcfg,
            Femtos::from_micros(1),
            PowerFactors::default(),
            false,
        );
        assert!(!dags.is_empty());
        let total: u64 = dags.iter().map(|d| d.instructions).sum();
        assert_eq!(total, 5_000);
    }

    #[test]
    fn all_edges_have_non_negative_slack() {
        let (trace, pcfg) = traced_run("gcc", 5_000);
        let dags = build_interval_dags(
            &trace,
            &pcfg,
            Femtos::from_micros(1),
            PowerFactors::default(),
            false,
        );
        for dag in &dags {
            for i in 0..dag.len() {
                for &s in dag.succs(i) {
                    assert!(dag.end_of(i) <= dag.start_of(s as usize));
                }
            }
        }
    }

    #[test]
    fn csr_adjacency_is_symmetric() {
        // Every successor edge must appear as the matching predecessor edge
        // and vice versa (CSR is built in two independent passes).
        let (trace, pcfg) = traced_run("gcc", 5_000);
        let dags = build_interval_dags(
            &trace,
            &pcfg,
            Femtos::from_micros(1),
            PowerFactors::default(),
            false,
        );
        for dag in &dags {
            let mut out_edges = 0usize;
            for i in 0..dag.len() {
                for &s in dag.succs(i) {
                    assert!(
                        dag.preds(s as usize).contains(&(i as u32)),
                        "succ edge {i}->{s} missing from preds"
                    );
                }
                out_edges += dag.succs(i).len();
            }
            let in_edges: usize = (0..dag.len()).map(|i| dag.preds(i).len()).sum();
            assert_eq!(out_edges, in_edges);
            assert!(out_edges > 0, "interval DAG should have edges");
        }
    }

    #[test]
    fn front_end_nodes_are_not_scalable_by_default() {
        let (trace, pcfg) = traced_run("adpcm", 2_000);
        let dags = build_interval_dags(
            &trace,
            &pcfg,
            Femtos::from_micros(1),
            PowerFactors::default(),
            false,
        );
        for dag in &dags {
            for node in dag.nodes() {
                if node.domain == DomainId::FrontEnd {
                    assert!(!node.scalable);
                }
            }
        }
    }

    #[test]
    fn backend_events_are_scalable() {
        let (trace, pcfg) = traced_run("swim", 3_000);
        let dags = build_interval_dags(
            &trace,
            &pcfg,
            Femtos::from_micros(1),
            PowerFactors::default(),
            false,
        );
        let scalable = dags
            .iter()
            .flat_map(|d| d.nodes().collect::<Vec<_>>())
            .filter(|n| n.scalable)
            .count();
        assert!(scalable > 1_000, "only {scalable} scalable nodes");
    }

    #[test]
    fn interval_dag_has_slack() {
        // A real run always leaves slack off the critical path.
        let (trace, pcfg) = traced_run("art", 5_000);
        let dags = build_interval_dags(
            &trace,
            &pcfg,
            Femtos::from_micros(1),
            PowerFactors::default(),
            false,
        );
        let slack: Femtos = dags.iter().map(|d| d.total_slack()).sum();
        assert!(slack > Femtos::ZERO);
    }
}
