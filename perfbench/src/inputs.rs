//! Input generation (from the seed, with `sge-datasets`) and the on-disk
//! manifest the measuring process reads back.
//!
//! Generation runs in its own process before any timing: it writes the
//! target graphs as `.gfd` files plus `manifest.txt`, which lists every
//! instance with its pattern (inline wire encoding) and the reference
//! results the correctness gate compares against.  References come from a
//! sequential count at generation time; instances small enough are also
//! counted by the independent VF2 matcher.
//!
//! Seeds change every graph and pattern.  To keep the amount of work per
//! run comparable across seeds, instances are *selected* by their
//! reference work (search states, plus rows for streams) into fixed
//! budgets, never by measured time.

use crate::engine_calls::{prepare, Prepared};
use sge_datasets::{
    extract_pattern, generate_target, graemlin32_like, pdbsv1_like, ppis32_like, Collection,
    LabelDistribution, TargetSpec,
};
use sge_engine::{RunConfig, Scheduler};
use sge_graph::{AdjacencyBitmaps, BitmapConfig, Graph, GraphStats};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PpiCount,
    ServeMix,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "ppi_count" => Some(Workload::PpiCount),
            "serve_mix" => Some(Workload::ServeMix),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PpiCount => "ppi_count",
            Workload::ServeMix => "serve_mix",
        }
    }
}

/// `full` is the measured size; `tiny` only exercises every code path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// What an instance is for.  Library workloads use `Main` (the measured
/// passes) and `Side` (the other emission mode); `serve_mix` uses the four
/// traffic classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kind {
    Main,
    Side,
    Hot,
    Cold,
    Stream,
    Heavy,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Main => "main",
            Kind::Side => "side",
            Kind::Hot => "hot",
            Kind::Cold => "cold",
            Kind::Stream => "stream",
            Kind::Heavy => "heavy",
        }
    }

    fn parse(name: &str) -> Option<Kind> {
        [
            Kind::Main,
            Kind::Side,
            Kind::Hot,
            Kind::Cold,
            Kind::Stream,
            Kind::Heavy,
        ]
        .into_iter()
        .find(|k| k.name() == name)
    }
}

/// One generated instance and its reference results.
#[derive(Clone, Debug)]
pub struct InstanceRef {
    pub kind: Kind,
    pub target: usize,
    pub matches: u64,
    pub states: u64,
    /// Order-independent fingerprint of the full match set, when computed.
    pub fingerprint: Option<u64>,
    /// The VF2 match count, for instances small enough to check.
    pub vf2: Option<u64>,
    /// Pattern in the single-token wire encoding (`;` lines, `,` spaces).
    pub pattern_inline: String,
}

/// The manifest: target files plus instances.
#[derive(Clone, Debug, Default)]
pub struct Manifest {
    /// `(name, file name inside the input directory)`.
    pub targets: Vec<(String, String)>,
    pub instances: Vec<InstanceRef>,
}

impl Manifest {
    pub fn write(&self, dir: &Path) -> std::io::Result<()> {
        let mut out = String::from("# sge-perfbench manifest v1\n");
        for (name, file) in &self.targets {
            let _ = writeln!(out, "target {name} {file}");
        }
        for i in &self.instances {
            let opt = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                "instance {} {} {} {} {} {} {}",
                i.kind.name(),
                i.target,
                i.matches,
                i.states,
                opt(i.fingerprint),
                opt(i.vf2),
                i.pattern_inline
            );
        }
        std::fs::write(dir.join("manifest.txt"), out)
    }

    pub fn read(dir: &Path) -> Result<Manifest, String> {
        let path = dir.join("manifest.txt");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let mut manifest = Manifest::default();
        for (no, line) in text.lines().enumerate() {
            let bad = || format!("manifest line {}: malformed", no + 1);
            let fields: Vec<&str> = line.split_whitespace().collect();
            if fields.is_empty() || line.starts_with('#') {
                continue;
            }
            match fields.first() {
                Some(&"target") if fields.len() == 3 => manifest
                    .targets
                    .push((fields[1].to_string(), fields[2].to_string())),
                Some(&"instance") if fields.len() == 8 => {
                    let num = |s: &str| s.parse::<u64>().map_err(|_| bad());
                    let opt = |s: &str| if s == "-" { Ok(None) } else { num(s).map(Some) };
                    manifest.instances.push(InstanceRef {
                        kind: Kind::parse(fields[1]).ok_or_else(bad)?,
                        target: fields[2].parse().map_err(|_| bad())?,
                        matches: num(fields[3])?,
                        states: num(fields[4])?,
                        fingerprint: opt(fields[5])?,
                        vf2: opt(fields[6])?,
                        pattern_inline: fields[7].to_string(),
                    });
                }
                _ => return Err(bad()),
            }
        }
        if manifest
            .instances
            .iter()
            .any(|i| i.target >= manifest.targets.len())
        {
            return Err("manifest instance names an unknown target".to_string());
        }
        Ok(manifest)
    }
}

/// Instances whose reference states and pattern size stay within these are
/// also counted by VF2, whose cost grows much faster than RI's.
const VF2_MAX_STATES: u64 = 1_000;
const VF2_MAX_PATTERN_NODES: usize = 10;

/// Order-independent fingerprint of one mapping (summed over a match set).
pub fn mapping_hash(mapping: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &v in mapping {
        h = (h ^ u64::from(v)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    // Final avalanche so that sums of hashes do not cancel structurally.
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^ (h >> 33)
}

/// A generated target with its registry-style shared stats and sidecar.
struct GenTarget {
    graph: Arc<Graph>,
    stats: GraphStats,
    bitmaps: Arc<AdjacencyBitmaps>,
}

impl GenTarget {
    fn new(graph: Graph) -> GenTarget {
        let stats = GraphStats::of(&graph);
        let bitmaps = Arc::new(AdjacencyBitmaps::build(&graph, &BitmapConfig::default()));
        GenTarget {
            graph: Arc::new(graph),
            stats,
            bitmaps,
        }
    }

    fn prepare(&self, pattern: &Graph) -> Prepared {
        prepare(
            Arc::new(pattern.clone()),
            &self.graph,
            &self.stats,
            &self.bitmaps,
            None,
        )
    }
}

/// A measured candidate instance.
struct Candidate {
    target: usize,
    pattern: Graph,
    matches: u64,
    states: u64,
    /// Bitmap-kernel calls of the sequential reference run.
    bitmap_calls: u64,
    /// List-kernel (gallop and merge) calls of the sequential reference run.
    list_calls: u64,
}

/// No candidate with more reference states than this is ever selected.
/// That is far above every budget and takes well under a tenth of a second
/// to count, so the wall-clock guard below can only drop candidates this
/// bound rejects anyway: the selection is a function of the seed, however
/// busy the host is.  (The engine has no cap on states, hence the guard,
/// which stops runaway candidates.)
const SELECTABLE_MAX_STATES: u64 = 200_000;
const REFERENCE_TIME_LIMIT: Duration = Duration::from_millis(1500);

/// Counts `pattern` in target `t` sequentially with a match cap; `None`
/// when the instance is too big for any budget: over the match cap, over
/// `SELECTABLE_MAX_STATES`, or stopped by the time guard.
fn reference(targets: &[GenTarget], t: usize, pattern: Graph, cap: u64) -> Option<Candidate> {
    let prepared = targets[t].prepare(&pattern);
    let outcome = prepared.engine.run(
        &RunConfig::new(Scheduler::Sequential)
            .with_max_matches(cap)
            .with_time_limit(REFERENCE_TIME_LIMIT),
    );
    let fits = !outcome.limit_hit && !outcome.timed_out && outcome.states <= SELECTABLE_MAX_STATES;
    fits.then_some(Candidate {
        target: t,
        pattern,
        matches: outcome.matches,
        states: outcome.states,
        bitmap_calls: outcome.kernels.bitmap,
        list_calls: outcome.kernels.gallop + outcome.kernels.merge,
    })
}

/// Full reference record for a chosen candidate: fingerprint when asked,
/// VF2 when small enough.  The fingerprint comes from a work-stealing run,
/// so a sequential run that matches it shows the match sets are identical
/// across schedulers.
fn finish(target: &GenTarget, c: &Candidate, kind: Kind, fingerprint: bool) -> InstanceRef {
    let fingerprint = fingerprint.then(|| {
        let prepared = target.prepare(&c.pattern);
        let ws = Scheduler::work_stealing(crate::report::nproc().max(2));
        let visitor = crate::engine_calls::FingerprintVisitor::new(ws.workers());
        prepared.engine.run_with(&RunConfig::new(ws), &visitor);
        visitor.value()
    });
    let vf2 = (c.states <= VF2_MAX_STATES && c.pattern.num_nodes() <= VF2_MAX_PATTERN_NODES)
        .then(|| sge_vf2::count_matches(&c.pattern, &target.graph));
    InstanceRef {
        kind,
        target: c.target,
        matches: c.matches,
        states: c.states,
        fingerprint,
        vf2,
        pattern_inline: sge_wire::protocol::encode_inline_pattern(
            &sge_graph::io::write_graph_body(&c.pattern),
        ),
    }
}

/// A cost of a candidate, computed from its reference counts.
type Cost = fn(&Candidate) -> u64;

/// The `count` candidates of `pool` whose costs lie closest to their goals:
/// ranked by the largest |log(cost / goal)| over `goals`, ties in
/// generation order.  Deterministic.
fn closest(
    candidates: &[Candidate],
    pool: impl Iterator<Item = usize>,
    goals: &[(Cost, f64)],
    count: usize,
) -> Vec<usize> {
    let off = |cost: u64, goal: f64| (cost.max(1) as f64 / goal).ln().abs();
    let mut ranked: Vec<(f64, usize)> = pool
        .map(|i| {
            let worst = goals
                .iter()
                .map(|&(cost, goal)| off(cost(&candidates[i]), goal))
                .fold(0.0, f64::max);
            (worst, i)
        })
        .collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    ranked.into_iter().take(count).map(|(_, i)| i).collect()
}

/// Sizing of the library workload's instance list.
struct ListPlan {
    /// Long instances, and the cost each should carry under work stealing
    /// ([`ppi_ws_cost`]).  Those runs make the top of the latency
    /// distribution, so `count_p99_ms` reads about the same for any seed.
    long: usize,
    long_ws_goal: f64,
    /// Extra patterns per target and long-pattern size, extracted only to
    /// widen the choice of long instances.
    long_extra: usize,
    /// Short instances (reference states below `short_max`).
    short: usize,
    short_max: u64,
    /// Match cap of the selection count (deterministic "too big" test).
    cap: u64,
}

/// What a PPIS32-like instance costs under work stealing, in
/// non-matching-state equivalents: without the sequential last-depth
/// counting shortcut, every match and every list-kernel call costs more.
/// (Fit over 188 instances of at least 20k states from three seeds, in
/// process on a 2-core host: 0.036 ms per 1000 non-matching states plus
/// 0.075 per 1000 matches plus 0.207 per 1000 list-kernel calls, ±9% per
/// instance; the states alone leave ±17%.)
fn ppi_ws_cost(c: &Candidate) -> u64 {
    c.states.saturating_sub(c.matches) + (207 * c.matches + 574 * c.list_calls) / 100
}

fn write_targets(
    dir: &Path,
    prefix: &str,
    targets: &[GenTarget],
) -> std::io::Result<Vec<(String, String)>> {
    let mut out = Vec::new();
    for (i, t) in targets.iter().enumerate() {
        let name = format!("{prefix}{i}");
        let file = format!("{name}.gfd");
        sge_graph::io::write_graph_file(&t.graph, dir.join(&file))?;
        out.push((name, file));
    }
    Ok(out)
}

/// `ppi_count`: PPIS32-like collection, count-only.  A few long instances
/// (selected by reference states) dominate each pass; the short ones give
/// the per-query latency distribution.  Instances with few matches are
/// also streamed to a visitor in a side pass.
fn gen_ppi(seed: u64, size: Size, dir: &Path) -> std::io::Result<Manifest> {
    let (scale, per_size, plan, side, side_max) = match size {
        Size::Full => (
            6.0,
            40,
            ListPlan {
                long: 32,
                long_ws_goal: 256_000.0,
                long_extra: 40,
                short: 700,
                short_max: 30_000,
                cap: 1_500_000,
            },
            400,
            5_000,
        ),
        Size::Tiny => (
            1.0,
            1,
            ListPlan {
                long: 2,
                long_ws_goal: 100.0,
                long_extra: 2,
                short: 6,
                short_max: 2_000,
                cap: 100_000,
            },
            2,
            2_000,
        ),
    };
    let mut spec = ppis32_like(scale, seed);
    spec.patterns_per_size = per_size;
    let collection = Collection::generate(&spec);
    let targets: Vec<GenTarget> = collection.targets.into_iter().map(GenTarget::new).collect();
    let patterns: Vec<(usize, Graph)> = collection
        .instances
        .into_iter()
        .map(|i| (i.target_index, i.pattern))
        .collect();
    // More patterns of the sizes long instances come from, so that every
    // seed finds long instances close to both cost goals.
    let mut seen: HashSet<(usize, String)> = patterns
        .iter()
        .map(|(t, p)| (*t, sge_graph::io::write_graph_body(p)))
        .collect();
    let mut extra = Vec::new();
    for (t, target) in targets.iter().enumerate() {
        for edges in [16usize, 32, 64] {
            for k in 0..plan.long_extra as u64 {
                let pseed = (seed ^ 0x1095_e7a5)
                    .wrapping_mul(31)
                    .wrapping_add(t as u64 * 100_000 + edges as u64 * 1000 + k);
                let Some(pattern) = extract_pattern(&target.graph, edges, pseed) else {
                    continue;
                };
                if seen.insert((t, sge_graph::io::write_graph_body(&pattern))) {
                    extra.push((t, pattern));
                }
            }
        }
    }
    // The collection's own candidates come first; only they supply the
    // short instances and the side pass, as generated.
    let mut candidates = counted(&targets, patterns, plan.cap);
    let own = candidates.len();
    candidates.extend(counted(&targets, extra, plan.cap));
    let long = closest(
        &candidates,
        0..candidates.len(),
        &[(ppi_ws_cost, plan.long_ws_goal)],
        plan.long,
    );
    let short: Vec<usize> = (0..own)
        .filter(|i| !long.contains(i) && (1..=plan.short_max).contains(&candidates[*i].states))
        .collect();
    let mut chosen = long;
    chosen.extend(spaced(&short, plan.short));
    chosen.sort_unstable();
    let mut instances: Vec<InstanceRef> = chosen
        .iter()
        .map(|&i| {
            finish(
                &targets[candidates[i].target],
                &candidates[i],
                Kind::Main,
                false,
            )
        })
        .collect();
    // The side pass streams instances with few matches, evenly spaced over
    // generation order (which runs target by target, size by size), so
    // every seed streams the same mix of target and pattern sizes.
    let streamable: Vec<usize> = (0..own)
        .filter(|&i| (1..=side_max).contains(&candidates[i].matches))
        .collect();
    for i in spaced(&streamable, side) {
        instances.push(finish(
            &targets[candidates[i].target],
            &candidates[i],
            Kind::Side,
            true,
        ));
    }
    Ok(Manifest {
        targets: write_targets(dir, "ppi", &targets)?,
        instances,
    })
}

/// Stream-query candidates collected per profile slot.
const STREAM_POOL: usize = 3;

/// `n` values spaced evenly in log scale from `lo` to `hi`.
fn log_profile(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| lo * (hi / lo).powf(i as f64 / (n.max(2) - 1) as f64))
        .collect()
}

/// For each profile value in turn, the unused candidate whose `key` is
/// closest to it in log ratio.  Deterministic; ties keep generation order.
fn pick_profile(
    candidates: &[Candidate],
    key: impl Fn(&Candidate) -> u64,
    profile: &[f64],
) -> Vec<usize> {
    let mut used = vec![false; candidates.len()];
    let mut out = Vec::with_capacity(profile.len());
    for &want in profile {
        let best = (0..candidates.len())
            .filter(|&i| !used[i] && key(&candidates[i]) > 0)
            .min_by(|&a, &b| {
                let d = |i: usize| (key(&candidates[i]) as f64 / want).ln().abs();
                d(a).total_cmp(&d(b)).then(a.cmp(&b))
            });
        if let Some(i) = best {
            used[i] = true;
            out.push(i);
        }
    }
    out
}

/// `count` evenly spaced items of `items` (all of them when fewer), so a
/// sample drawn from a list ordered by target and pattern size covers every
/// target and size alike.
fn spaced<T: Copy>(items: &[T], count: usize) -> Vec<T> {
    if items.len() <= count {
        return items.to_vec();
    }
    (0..count).map(|j| items[j * items.len() / count]).collect()
}

/// A dense low-label target: 2 labels, edge density ~0.31 (out-degree 40
/// at 128 nodes), so short patterns have very many matches.
fn dense_target(seed: u64, nodes: usize) -> Graph {
    let spec = TargetSpec {
        nodes,
        avg_out_degree: nodes as f64 * 40.0 / 128.0,
        weight_sigma: 0.1,
        labels: 2,
        label_distribution: LabelDistribution::Uniform,
        edge_labels: 1,
    };
    generate_target(&spec, seed ^ 0xde45e, "dense")
}

/// Extracts 6–7-node patterns from the dense target with their reference
/// counts (count-only), in generation order.
fn dense_candidates(target: &GenTarget, seed: u64, tries: usize, cap: u64) -> Vec<Candidate> {
    let mut seen = HashSet::new();
    let mut patterns = Vec::new();
    for k in 0..tries as u64 {
        let edges = [18usize, 20, 22][(k % 3) as usize];
        let Some(pattern) =
            extract_pattern(&target.graph, edges, seed.wrapping_mul(131).wrapping_add(k))
        else {
            continue;
        };
        if (6..=7).contains(&pattern.num_nodes())
            && seen.insert(sge_graph::io::write_graph_body(&pattern))
        {
            patterns.push((0, pattern));
        }
    }
    counted(std::slice::from_ref(target), patterns, cap)
}

/// Reference-counts `(target index, pattern)` pairs on all cores, keeping
/// the pairs' order and dropping those over the cap.
fn counted(targets: &[GenTarget], patterns: Vec<(usize, Graph)>, cap: u64) -> Vec<Candidate> {
    let threads = crate::report::nproc().max(1);
    let chunk = patterns.len().div_ceil(threads).max(1);
    let mut slots: Vec<Option<(usize, Graph)>> = patterns.into_iter().map(Some).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = slots
            .chunks_mut(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter_mut()
                        .filter_map(|slot| {
                            let (t, pattern) = slot.take().expect("each slot is counted once");
                            reference(targets, t, pattern, cap)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference count thread panicked"))
            .collect()
    })
}

/// Sizing of the `serve_mix` query pools.
struct MixPlan {
    scale: f64,
    dense_nodes: usize,
    hot: usize,
    cold: usize,
    stream: usize,
    heavy: usize,
    /// Reference states of one count (hot/cold) query at most.
    light_max_states: u64,
    /// Reference matches of one stream query, as a range.
    stream_matches: (u64, u64),
    /// Extraction attempts for the heavy pool.
    heavy_tries: usize,
    /// Reference states of one heavy query at least: enough that, once the
    /// cost model has learned the dense target, it routes to work stealing.
    heavy_min_states: u64,
    /// Cost of one heavy query under work stealing ([`dense_ws_cost`]) and
    /// sequentially ([`dense_seq_cost`]), as goals.
    heavy_ws_goal: f64,
    heavy_seq_goal: f64,
}

/// What a dense query costs sequentially and under work stealing, in
/// bitmap-kernel calls of its sequential run.  Sequentially the
/// bitmap-kernel calls alone predict the time.  Work stealing lacks the
/// last-depth counting shortcut, so it also pays for every last-depth
/// state.  (Fit over 600 dense
/// queries of at least 55k states from two seeds, in process on a 2-core
/// host: sequential 0.074 ms per 1000 bitmap calls, ±11% per query; work
/// stealing 0.059 ms per 1000 bitmap calls plus 0.023 per 1000
/// non-matching states plus 0.055 per 1000 matches, ±9%.  The states alone
/// leave ±26% and ±16%.)
fn dense_seq_cost(c: &Candidate) -> u64 {
    c.bitmap_calls
}

fn dense_ws_cost(c: &Candidate) -> u64 {
    c.bitmap_calls + (39 * (c.states - c.matches) + 93 * c.matches) / 100
}

/// `serve_mix`: GRAEMLIN32-like and PDBSv1-like targets plus the dense
/// target, served by `sge-serve`.  Pools: hot count queries (fit the
/// prepared cache), cold count queries (never repeat), streamed queries
/// and a few heavy ones, including one dense query.
fn gen_serve(seed: u64, size: Size, dir: &Path) -> std::io::Result<Manifest> {
    let plan = match size {
        Size::Full => MixPlan {
            scale: 2.0,
            dense_nodes: 64,
            hot: 24,
            cold: 3000,
            stream: 256,
            heavy: 32,
            heavy_tries: 4000,
            light_max_states: 20_000,
            stream_matches: (32, 800),
            heavy_min_states: 55_000,
            heavy_ws_goal: 140_000.0,
            heavy_seq_goal: 84_000.0,
        },
        Size::Tiny => MixPlan {
            scale: 0.2,
            dense_nodes: 32,
            hot: 4,
            cold: 20,
            stream: 3,
            heavy: 1,
            heavy_tries: 40,
            light_max_states: 5_000,
            stream_matches: (2, 2_000),
            heavy_min_states: 0,
            heavy_ws_goal: 1_000.0,
            heavy_seq_goal: 500.0,
        },
    };
    let graemlin = Collection::generate(&graemlin32_like(plan.scale, seed));
    let pdbs = Collection::generate(&pdbsv1_like(plan.scale, seed ^ 0x9db5));
    let mut graphs: Vec<Graph> = Vec::new();
    graphs.extend(graemlin.targets.iter().take(2).cloned());
    graphs.extend(pdbs.targets.iter().rev().take(2).cloned());
    graphs.push(dense_target(seed, plan.dense_nodes));
    let targets: Vec<GenTarget> = graphs.into_iter().map(GenTarget::new).collect();
    let dense = targets.len() - 1;

    // Light patterns: extracted round-robin from the four collection
    // targets at small sizes, de-duplicated by canonical text.
    let mut seen = HashSet::new();
    let mut light: Vec<Candidate> = Vec::new();
    let mut streamable: Vec<Candidate> = Vec::new();
    let want_light = plan.hot + plan.cold;
    let mut k: u64 = 0;
    while (light.len() < want_light || streamable.len() < STREAM_POOL * plan.stream)
        && k < 40 * want_light as u64
    {
        let t = (k % 4) as usize;
        let edges = [4usize, 6, 8, 12, 16][((k / 4) % 5) as usize];
        let pseed = seed.wrapping_mul(0x2545_f491).wrapping_add(k);
        k += 1;
        let Some(pattern) = extract_pattern(&targets[t].graph, edges, pseed) else {
            continue;
        };
        if !seen.insert((t, sge_graph::io::write_graph_body(&pattern))) {
            continue;
        }
        let Some(c) = reference(&targets, t, pattern, 100_000) else {
            continue;
        };
        if streamable.len() < STREAM_POOL * plan.stream
            && (plan.stream_matches.0..=plan.stream_matches.1).contains(&c.matches)
        {
            streamable.push(c);
        } else if light.len() < want_light && c.states <= plan.light_max_states {
            light.push(c);
        }
    }
    // Stream queries follow a fixed log-spaced profile of work (states
    // visited plus rows sent), so every seed streams the same spread.
    let profile = log_profile(
        plan.stream_matches.0 as f64,
        plan.stream_matches.1 as f64,
        plan.stream,
    );
    let streamed = pick_profile(&streamable, |c| c.matches + c.states, &profile);
    // Heavy: the dense 6-7-node queries whose costs under both schedulers
    // are closest to the goals (the larger of the two log ratios ranks).
    // Each repeats, so routing sees it more than once.
    let mut dense_pool = dense_candidates(
        &targets[dense],
        seed ^ 0x4ea5,
        plan.heavy_tries,
        SELECTABLE_MAX_STATES,
    );
    for c in &mut dense_pool {
        c.target = dense;
    }
    let heavy: Vec<&Candidate> = closest(
        &dense_pool,
        (0..dense_pool.len()).filter(|&i| dense_pool[i].states >= plan.heavy_min_states),
        &[
            (dense_ws_cost, plan.heavy_ws_goal),
            (dense_seq_cost, plan.heavy_seq_goal),
        ],
        plan.heavy,
    )
    .into_iter()
    .map(|i| &dense_pool[i])
    .collect();

    let mut instances = Vec::new();
    for (i, c) in light.iter().enumerate() {
        let kind = if i < plan.hot { Kind::Hot } else { Kind::Cold };
        instances.push(finish(&targets[c.target], c, kind, false));
    }
    for i in streamed {
        let c = &streamable[i];
        instances.push(finish(&targets[c.target], c, Kind::Stream, false));
    }
    for c in heavy {
        instances.push(finish(&targets[c.target], c, Kind::Heavy, false));
    }
    Ok(Manifest {
        targets: write_targets(dir, "serve", &targets)?,
        instances,
    })
}

/// Generates the inputs of `workload` from `seed` into `dir`.
pub fn generate(
    workload: Workload,
    seed: u64,
    size: Size,
    dir: &Path,
) -> std::io::Result<Manifest> {
    std::fs::create_dir_all(dir)?;
    let manifest = match workload {
        Workload::PpiCount => gen_ppi(seed, size, dir)?,
        Workload::ServeMix => gen_serve(seed, size, dir)?,
    };
    manifest.write(dir)?;
    Ok(manifest)
}
