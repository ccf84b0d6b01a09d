//! The paper's figures, tables and worked examples, one subcommand each:
//! every reproducer prints a text table next to the shape the paper claims.
//!
//! Run with: `cargo run --release -p bqs-bench --bin paper -- <name> [args]`
//! (`paper` alone lists the names). Every argument is optional and
//! positional; one that does not parse, a surplus one or an unknown name
//! prints the usage and exits 2.

use bqs_analysis::ablation::{mpath_discovery_ablation, transversal_ablation};
use bqs_analysis::availability_analysis::{
    fp_vs_n, fp_vs_p, rt_fixed_point_sweep, AvailabilityPoint,
};
use bqs_analysis::comparison::{build_table2, render_table2, REFERENCE_CRASH_P};
use bqs_analysis::load_analysis::{load_vs_n, lower_bound_envelope, lp_vs_fair_load};
use bqs_analysis::percolation_threshold::{
    crossing_curve, estimate_critical_probability, exact_crossing_curve, EXACT_CURVE_MAX_SIDE,
};
use bqs_analysis::report::{format_optional_probability, format_probability};
use bqs_analysis::scenario::{build_scenario, render_scenario, SCENARIO_P};
use bqs_analysis::TextTable;
use bqs_bench::{usage_exit, Args};
use bqs_constructions::mpath::EXACT_DP_MAX_SIDE;
use bqs_constructions::prelude::*;
use bqs_core::bounds::load_lower_bound_universal;
use bqs_core::eval::Evaluator;
use bqs_core::quorum::QuorumSystem;
use bqs_graph::grid::Axis;
use bqs_graph::percolation::PercolationEstimator;
use bqs_service::prelude::{run_service, LoopbackService, ServiceConfig};
use bqs_sim::prelude::{ByzantineStrategy, FaultPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A subcommand: its name, its positional arguments, its body.
type Command = (&'static str, &'static str, fn(Args));

const COMMANDS: [Command; 14] = [
    ("ablations", "[trials]", ablations),
    ("boostfpp_availability", "[trials]", boostfpp_availability),
    ("fig_fp_vs_n", "[p] [trials]", fig_fp_vs_n),
    ("fig_fp_vs_p", "[side] [b] [trials]", fig_fp_vs_p),
    ("fig_load_vs_n", "[b]", fig_load_vs_n),
    ("figure1_mgrid", "[side] [b]", figure1_mgrid),
    ("figure2_rt", "[k] [l] [depth]", figure2_rt),
    ("figure3_mpath", "[side] [b]", figure3_mpath),
    ("load_lower_bound", "[n] [b]", load_lower_bound),
    ("mpath_availability", "[side] [trials]", mpath_availability),
    ("protocol_validation", "[operations]", protocol_validation),
    ("rt_availability", "[k] [l] [depth]", rt_availability),
    ("section8_scenario", "[trials]", section8_scenario),
    ("table2", "[side] [b]", table2),
];

fn main() {
    let mut argv = std::env::args().skip(1);
    let asked = argv.next().unwrap_or_default();
    let Some((name, params, run)) = COMMANDS.iter().find(|(name, ..)| *name == asked) else {
        let names: Vec<&str> = COMMANDS.iter().map(|(name, ..)| *name).collect();
        usage_exit(
            &format!(
                "paper <name> [args], <name> one of:\n  {}",
                names.join("\n  ")
            ),
            &format!("unknown reproducer `{asked}`"),
        );
    };
    run(Args::new(format!("paper {name} {params}"), argv));
}

/// The construction, or exit status 1 when it rejects its parameters.
fn valid<S, E: std::fmt::Display>(system: Result<S, E>) -> S {
    system.unwrap_or_else(|e| {
        eprintln!("invalid parameters: {e}");
        std::process::exit(1);
    })
}

/// The `# .` picture of a quorum on a `side × side` grid.
fn print_grid_quorum(side: usize, quorum: &bqs_core::ServerSet) {
    for r in 0..side {
        let mut line = String::new();
        for c in 0..side {
            line.push(if quorum.contains(r * side + c) {
                '#'
            } else {
                '.'
            });
            line.push(' ');
        }
        println!("{line}");
    }
    println!();
}

/// The `F_p` sweep table shared by `fig_fp_vs_p` and `fig_fp_vs_n`, keyed by
/// `p` or by `n`.
fn print_fp_points(
    key: &str,
    key_of: impl Fn(&AvailabilityPoint) -> String,
    points: &[AvailabilityPoint],
) {
    let mut table = TextTable::new([
        "system",
        key,
        "Fp (engine)",
        "95% CI",
        "upper bound",
        "lower bound",
    ]);
    for pt in points {
        table.push_row([
            pt.system.clone(),
            key_of(pt),
            format!("{:.4}", pt.fp.value),
            if pt.fp.is_exact() {
                format!("exact ({})", pt.fp.method.label())
            } else {
                let (lower, upper) = pt.fp.ci95_bounds();
                format!("[{lower:.4}, {upper:.4}]")
            },
            format_optional_probability(pt.fp_upper_bound),
            format_optional_probability(pt.fp_lower_bound),
        ]);
    }
    println!("{}", table.render());
    println!();
}

/// The algorithmic ablations called out in DESIGN.md §4: greedy versus exact
/// transversal search, and straight-line versus max-flow M-Path quorum
/// discovery. (The LP-vs-closed-form load and exact-vs-Monte-Carlo
/// availability ablations are part of `load_lower_bound` and `fig_fp_vs_p`
/// respectively.)
fn ablations(args: Args) {
    let [trials] = args.take([("trials", 200)]);

    println!("== ablation: greedy transversal vs exact branch-and-bound MT(Q) ==\n");
    let mut t1 = TextTable::new(["system", "greedy |T|", "exact MT", "tight?"]);
    for r in transversal_ablation() {
        t1.push_row([
            r.system.clone(),
            r.greedy.to_string(),
            r.exact.to_string(),
            (r.greedy == r.exact).to_string(),
        ]);
    }
    println!("{}\n", t1.render());

    println!("== ablation: straight-line vs max-flow M-Path quorum discovery ==");
    println!("(M-Path on a 12x12 grid, b = 4, {trials} trials per p)\n");
    let ps = [0.0, 0.02, 0.05, 0.1, 0.15, 0.2, 0.3];
    let rows = mpath_discovery_ablation(12, 4, &ps, trials, 0xAB1);
    let mut t2 = TextTable::new(["p", "straight-line success", "max-flow success"]);
    for r in &rows {
        t2.push_row([
            format!("{:.2}", r.p),
            format!("{:.3}", r.straight_success_rate),
            format!("{:.3}", r.maxflow_success_rate),
        ]);
    }
    println!("{}", t2.render());
    println!();
    println!("interpretation: the straight-line strategy of Proposition 7.2 is enough for the");
    println!("failure-free load argument, but as crashes accumulate only the max-flow (Menger)");
    println!("discovery keeps finding quorums — this is why M-Path availability analysis needs");
    println!("percolation rather than counting fully-alive lines.");
}

/// The boostFPP analysis of Section 6: load optimality across the two
/// scaling policies (fix q / grow b, fix b / grow q) and the
/// crash-probability behaviour of Proposition 6.3, including the p < 1/4
/// requirement.
fn boostfpp_availability(args: Args) {
    let [trials] = args.take([("trials", 1000)]);
    let evaluator = Evaluator::new().with_trials(trials).with_seed(0xB005);

    println!("== scaling policy 1: fix q = 3, grow b (resilience grows, load stays ~3/(4q)) ==\n");
    let mut t1 = TextTable::new(["b", "n", "f", "load", "load / lower bound"]);
    for b in [1usize, 2, 5, 10, 20, 50] {
        let sys = BoostFppSystem::new(3, b).expect("valid");
        t1.push_row([
            b.to_string(),
            sys.universe_size().to_string(),
            sys.resilience().to_string(),
            format!("{:.4}", sys.analytic_load()),
            format!(
                "{:.2}",
                sys.analytic_load() / load_lower_bound_universal(sys.universe_size(), b)
            ),
        ]);
    }
    println!("{}\n", t1.render());

    println!("== scaling policy 2: fix b = 3, grow q (load falls like 3/(4q)) ==\n");
    let mut t2 = TextTable::new(["q", "n", "f", "load", "3/(4q)"]);
    for q in [2u64, 3, 4, 5, 7, 8, 9, 11] {
        let sys = BoostFppSystem::new(q, 3).expect("valid");
        t2.push_row([
            q.to_string(),
            sys.universe_size().to_string(),
            sys.resilience().to_string(),
            format!("{:.4}", sys.analytic_load()),
            format!("{:.4}", 3.0 / (4.0 * q as f64)),
        ]);
    }
    println!("{}\n", t2.render());

    println!("== Proposition 6.3: crash probability, and why p < 1/4 is essential ==\n");
    let sys = BoostFppSystem::new(3, 10).expect("valid");
    println!(
        "system: {} (n = {}, f = {}), exact survivor-profile closed form vs {trials} Monte-Carlo trials per p\n",
        sys.name(),
        sys.universe_size(),
        sys.resilience()
    );
    let mut t3 = TextTable::new([
        "p",
        "Chernoff bound (Prop 6.3)",
        "numeric bound",
        "Fp exact (closed form)",
        "Fp (Monte-Carlo)",
    ]);
    let sweep_ps = [0.05, 0.1, 0.15, 0.2, 0.24, 0.3, 0.35];
    // Exact values for the whole grid in one batched sweep (microseconds per
    // point after the one-time plane profile).
    let exact = evaluator.sweep(&sys, &sweep_ps);
    for (i, &p) in sweep_ps.iter().enumerate() {
        let mc = evaluator.monte_carlo(&sys, p);
        t3.push_row([
            format!("{p:.2}"),
            sys.crash_probability_prop_6_3_bound(p)
                .map(format_probability)
                .unwrap_or_else(|| "- (p >= 1/4)".to_string()),
            format_probability(sys.crash_probability_numeric_bound(p)),
            format!(
                "{} ({})",
                format_probability(exact[i].value),
                exact[i].method.label()
            ),
            format!(
                "{} ± {}",
                format_probability(mc.value),
                format_probability(mc.ci95_half_width())
            ),
        ]);
    }
    println!("{}", t3.render());
    println!();
    println!("shape to check against the paper: the exact values decay like the bounds'");
    println!("exp(-b(1-4p)^2/2) for p < 1/4 (and expose how loose the union-bound estimates");
    println!("are in the deep tail, where Monte-Carlo reports bare zeros); past p = 1/4 the");
    println!("inner threshold fails more often than not and the crash probability climbs");
    println!("towards 1 (the Fp(FPP) -> 1 behaviour the paper inherits from [RST92, Woo96]).");
}

/// The Condorcet comparison: crash probability versus universe size at a
/// fixed per-server crash probability. Reproduces the claims that
/// Fp(M-Grid) -> 1 (as for the Grid of \[MR98a\]) while Fp(RT) -> 0 below its
/// critical probability and Fp(M-Path) -> 0 for every p < 1/2 (Propositions
/// 5.6 and 7.3).
fn fig_fp_vs_n(mut args: Args) {
    let p: f64 = args.next_or("p", 0.125);
    let [trials] = args.take([("trials", 1000)]);
    let sides = [8usize, 16, 24, 32];

    println!("crash probability vs universe size at p = {p} ({trials} Monte-Carlo trials)\n");
    let points = fp_vs_n(&sides, 3, p, trials, 0xF1);
    print_fp_points("n", |pt| pt.n.to_string(), &points);
    println!("shape to check against the paper: the M-Grid column rises towards 1 as n grows");
    println!("(its Fp lower bound (1-(1-p)^sqrt(n))^sqrt(n) -> 1), while RT(4,3) and M-Path");
    println!("fall towards 0 — the Condorcet behaviour that makes them preferable whenever");
    println!("availability matters.");
}

/// The crash-probability-versus-p comparison across all constructions at a
/// fixed universe size: where each construction's availability collapses
/// (M-Grid immediately, boostFPP at p = 1/4, RT at its critical probability
/// ~0.23, M-Path only near 1/2), with the analytic bounds printed alongside
/// the engine's values.
fn fig_fp_vs_p(args: Args) {
    let [side, b, trials] = args.take([("side", 16), ("b", 3), ("trials", 600)]);

    println!(
        "crash probability vs p over an (approximately) {0}x{0} universe, b = {1}, {2} trials\n",
        side, b, trials
    );
    let ps = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4];
    let points = fp_vs_p(side, b, &ps, trials, 0xFEED);
    print_fp_points("p", |pt| format!("{:.2}", pt.p), &points);
    println!("shape to check against the paper: reading each system's column top to bottom,");
    println!("the M-Grid fails first, then boostFPP (p >= 1/4), then RT (p >= p_c = 0.2324);");
    println!("the Threshold and M-Path remain available the longest, M-Path up to p -> 1/2.");
}

/// The load-versus-n comparison behind Propositions 5.2, 5.5, 6.2 and 7.2:
/// how the load of each construction scales as the universe grows, against
/// the universal lower bound sqrt((2b+1)/n) of Corollary 4.2.
fn fig_load_vs_n(args: Args) {
    let [b] = args.take([("b", 5)]);
    let sides = [8usize, 12, 16, 24, 32, 48, 64];

    println!("load vs universe size at masking level b = {b} (clamped per construction)\n");
    let points = load_vs_n(&sides, b);
    let mut table = TextTable::new(["system", "n", "b", "load", "lower bound", "ratio"]);
    for p in &points {
        table.push_row([
            p.system.clone(),
            p.n.to_string(),
            p.b.to_string(),
            format!("{:.4}", p.load),
            format!("{:.4}", p.lower_bound),
            format!("{:.2}", p.load / p.lower_bound),
        ]);
    }
    println!("{}", table.render());
    println!();
    println!("shape to check against the paper: the ratio column stays bounded (near 1-2) for");
    println!("M-Grid, boostFPP and M-Path (the 'optimal load' constructions), grows like");
    println!("n^0.04.. for RT(4,3) (suboptimal, Proposition 5.5 remark), and grows like");
    println!("sqrt(n) for the Threshold construction (whose load never drops below 1/2).");
}

/// Figure 1 of the paper: the multi-grid (M-Grid) construction on a 7 x 7
/// universe with b = 3, with one quorum shaded.
fn figure1_mgrid(args: Args) {
    let [side, b] = args.take([("side", 7), ("b", 3)]);

    let sys = valid(MGridSystem::new(side, b));
    let mut rng = StdRng::seed_from_u64(1);
    let quorum = sys.sample_quorum(&mut rng);

    println!(
        "Figure 1: M-Grid construction, n = {}x{}, b = {}, with one quorum shaded (#)",
        side, side, b
    );
    println!(
        "a quorum is the union of {0} rows and {0} columns (sqrt(b+1) of each)\n",
        sys.lines().0
    );
    print_grid_quorum(side, &quorum);
    println!("quorum size      : {}", quorum.len());
    println!(
        "system load      : {:.4}  (Proposition 5.2: ~ 2 sqrt((b+1)/n))",
        sys.analytic_load()
    );
    println!("masks            : b = {}", sys.masking_b());
    println!("resilience       : f = {}", sys.resilience());
    println!(
        "any two quorums intersect in >= 2b+1 = {} servers (Proposition 5.1)",
        2 * b + 1
    );
}

/// Figure 2 of the paper: an RT(4, 3) recursive threshold system of depth 2,
/// with one quorum shaded.
fn figure2_rt(args: Args) {
    let [k, l, depth] = args.take([("k", 4), ("l", 3), ("depth", 2)]);
    let depth = u32::try_from(depth).unwrap_or(u32::MAX);

    let sys = valid(RtSystem::new(k, l, depth));
    let mut rng = StdRng::seed_from_u64(2);
    let quorum = sys.sample_quorum(&mut rng);
    let n = sys.universe_size();

    println!(
        "Figure 2: an RT({k}, {l}) system of depth h = {depth} ({l}-of-{k} at every internal node),"
    );
    println!("with one quorum shaded (leaves marked #)\n");

    // Render the tree level by level: each internal node shows "l of k".
    for level in 0..depth {
        let nodes = k.pow(level);
        let span = n / nodes;
        let mut line = String::new();
        for _node in 0..nodes {
            let label = format!("[{l} of {k}]");
            let width = span * 2;
            let pad = width.saturating_sub(label.len());
            line.push_str(&" ".repeat(pad / 2));
            line.push_str(&label);
            line.push_str(&" ".repeat(pad - pad / 2));
        }
        println!("{line}");
    }
    let mut leaves = String::new();
    for i in 0..n {
        leaves.push(if quorum.contains(i) { '#' } else { '.' });
        leaves.push(' ');
    }
    println!("{leaves}\n");

    println!("universe size    : {n}");
    println!("quorum size      : c = l^h = {}", sys.min_quorum_size());
    println!(
        "intersections    : IS = (2l-k)^h = {}",
        sys.min_intersection()
    );
    println!(
        "transversals     : MT = (k-l+1)^h = {}",
        sys.min_transversal()
    );
    println!("masks            : b = {}", sys.masking_b());
    println!("resilience       : f = {}", sys.resilience());
    println!(
        "load             : {:.4} = n^-(1-log_k l) (Proposition 5.5)",
        sys.analytic_load()
    );
    println!(
        "critical crash probability p_c = {:.4} (Proposition 5.6; 0.2324 for RT(4,3))",
        sys.critical_probability()
    );
}

/// Figure 3 of the paper: the multi-path (M-Path) construction on a 9 x 9
/// triangulated grid with b = 4, with one quorum shaded.
fn figure3_mpath(args: Args) {
    let [side, b] = args.take([("side", 9), ("b", 4)]);

    let sys = valid(MPathSystem::new(side, b));
    let mut rng = StdRng::seed_from_u64(3);
    let quorum = sys.sample_quorum(&mut rng);

    println!("Figure 3: a multi-path construction on a {side}x{side} triangulated grid, b = {b},");
    println!(
        "with one quorum shaded: {0} disjoint left-right paths and {0} top-bottom paths\n",
        sys.paths_per_direction()
    );
    println!("(vertices are servers; each interior vertex also has anti-diagonal neighbours)\n");
    print_grid_quorum(side, &quorum);
    println!("quorum size      : {}", quorum.len());
    println!("masks            : b = {}", sys.masking_b());
    println!("resilience       : f = {}", sys.resilience());
    println!(
        "load             : {:.4} <= 2 sqrt((2b+1)/n) = {:.4} (Proposition 7.2, optimal)",
        sys.analytic_load(),
        2.0 * ((2 * b + 1) as f64 / (side * side) as f64).sqrt()
    );
    println!("verification of a candidate quorum uses vertex-disjoint max-flow (Menger);");
    println!("the shaded quorum was produced by the straight-line optimal-load strategy.");
}

/// The Theorem 4.1 / Corollary 4.2 load lower-bound analysis: the bound as a
/// function of quorum size (showing the sqrt((2b+1)n) sweet spot) and the
/// loads every construction achieves against the universal bound.
fn load_lower_bound(args: Args) {
    let [n, b] = args.take([("n", 1024), ("b", 7)]);

    println!("Theorem 4.1: L(Q) >= max{{(2b+1)/c, c/n}} for any b-masking system");
    println!("n = {n}, b = {b}; the minimum over c is the Corollary 4.2 bound sqrt((2b+1)/n)\n");

    let env = lower_bound_envelope(n, b);
    let universal = ((2 * b + 1) as f64 / n as f64).sqrt();
    let mut table = TextTable::new(["quorum size c", "lower bound on L", "vs universal"]);
    // Print a logarithmic selection of quorum sizes around the optimum.
    let c_star = ((2 * b + 1) as f64 * n as f64).sqrt() as usize;
    let picks: Vec<usize> = vec![
        1,
        c_star / 8,
        c_star / 4,
        c_star / 2,
        (c_star as f64 / 1.4) as usize,
        c_star,
        (c_star as f64 * 1.4) as usize,
        c_star * 2,
        c_star * 4,
        n / 2,
        n,
    ];
    for c in picks.into_iter().filter(|&c| c >= 1 && c <= n) {
        let bound = env[c - 1].bound;
        table.push_row([
            c.to_string(),
            format!("{bound:.4}"),
            format!("{:.2}x", bound / universal),
        ]);
    }
    println!("{}", table.render());
    println!(
        "\noptimal quorum size c* = sqrt((2b+1) n) = {c_star}; universal bound = {universal:.4}\n"
    );

    println!("ablation: exact LP load vs the closed-form fair load (Proposition 3.9) on");
    println!("small explicit instances of each construction:\n");
    let mut ab = TextTable::new(["system", "LP load", "analytic load", "difference"]);
    for row in lp_vs_fair_load() {
        ab.push_row([
            row.system.clone(),
            format!("{:.5}", row.lp_load),
            format!("{:.5}", row.analytic_load),
            format!("{:.1e}", (row.lp_load - row.analytic_load).abs()),
        ]);
    }
    println!("{}", ab.render());
}

/// The M-Path availability analysis of Section 7 / Appendix B: the
/// percolation crossing curve of the triangulated grid (critical probability
/// 1/2), the probability of k disjoint open crossings (Theorem B.3), and the
/// M-Path crash probability for p up to (and beyond) 1/2 — the paper's
/// headline availability result, Proposition 7.3.
fn mpath_availability(args: Args) {
    let [side, trials] = args.take([("side", 16), ("trials", 500)]);

    println!("== site percolation on the {side}x{side} triangulated grid ==\n");
    let ps: Vec<f64> = (1..=9).map(|i| i as f64 * 0.1).collect();
    let exact_curve = exact_crossing_curve(side, &ps);
    let curve = crossing_curve(side, &ps, trials, 0xA11);
    let mut t1 = TextTable::new([
        "p (closed prob.)",
        "P[open LR crossing]",
        "95% CI",
        "exact (DP)",
    ]);
    for (i, pt) in curve.iter().enumerate() {
        t1.push_row([
            format!("{:.1}", pt.p),
            format!("{:.4}", pt.crossing_probability),
            format!("±{:.4}", pt.ci95),
            exact_curve
                .as_ref()
                .map(|c| format!("{:.6}", c[i].crossing_probability))
                .unwrap_or_else(|| format!("- (side > {EXACT_CURVE_MAX_SIDE})")),
        ]);
    }
    println!("{}\n", t1.render());
    let pc = estimate_critical_probability(side, trials, 0xA12);
    println!("estimated critical probability: {pc:.3} (theory: 1/2 for the triangular lattice [Kes80])\n");

    println!("== disjoint crossings and the M-Path crash probability ==\n");
    let b = MPathSystem::max_b(side).min(7);
    let sys = MPathSystem::new(side, b).expect("valid");
    let k = sys.paths_per_direction();
    println!(
        "system: {} needs {k} disjoint LR and {k} disjoint TB open crossings per quorum\n",
        sys.name()
    );
    let est = PercolationEstimator::new(side);
    let mut rng = StdRng::seed_from_u64(0xA13);
    let mut t2 = TextTable::new([
        "p",
        "P[>= k disjoint LR crossings]",
        "Fp(M-Path) Monte-Carlo",
        "Fp exact (DP)",
        "counting bound (Sec. 8 style)",
    ]);
    let flow_trials = trials.min(300);
    let sampler = Evaluator::new().with_trials(flow_trials).with_seed(0xA14);
    let sweep_ps = [0.05, 0.125, 0.2, 0.3, 0.4, 0.45, 0.55];
    // The exact column runs the transfer-matrix sweep through the batched
    // engine (one persistent pool for all seven points).
    let exact_fps = if side <= EXACT_DP_MAX_SIDE {
        Some(Evaluator::new().sweep(&sys, &sweep_ps))
    } else {
        None
    };
    for (i, &p) in sweep_ps.iter().enumerate() {
        let disjoint = est.estimate_disjoint_crossings_probability(
            p,
            Axis::LeftRight,
            k,
            flow_trials,
            &mut rng,
        );
        let fp = sampler.monte_carlo(&sys, p);
        t2.push_row([
            format!("{p:.3}"),
            format!("{:.4}", disjoint.mean),
            format!("{:.4} ± {:.4}", fp.value, fp.ci95_half_width()),
            exact_fps
                .as_ref()
                .map(|f| format!("{:.3e} ({})", f[i].value, f[i].method.label()))
                .unwrap_or_else(|| format!("- (side > {EXACT_DP_MAX_SIDE})")),
            sys.crash_probability_counting_bound(p)
                .map(format_probability)
                .unwrap_or_else(|| "- (needs p < 1/3)".to_string()),
        ]);
    }
    println!("{}", t2.render());
    println!();
    println!("shape to check against the paper (Proposition 7.3): Fp(M-Path) stays near 0 for");
    println!("every p < 1/2 and collapses only past the percolation threshold — the only");
    println!("construction in the paper with this property. The elementary counting bound is");
    println!("meaningful for p < 1/3; the Monte-Carlo column shows the true behaviour");
    println!("continues to p -> 1/2, exactly as the Menshikov-based proof asserts.");
}

/// One `protocol_validation` row: the register over `sys` with its full
/// Byzantine budget plus `crashes` crashes, then failure-free.
fn validate<S: AnalyzedConstruction>(
    table: &mut TextTable,
    ops: usize,
    sys: S,
    crashes: usize,
    seed: u64,
) {
    let (n, b) = (sys.universe_size(), sys.masking_b());
    let plan = FaultPlan::random(
        n,
        b,
        crashes,
        ByzantineStrategy::FabricateHighTimestamp {
            value: u64::MAX / 3,
        },
        &mut StdRng::seed_from_u64(seed),
    );
    // One sequential client, so every read is checked against the last
    // completed write and the run is a function of `seed`.
    let config = ServiceConfig {
        clients: 1,
        ops_per_client: ops,
        write_fraction: 0.3,
        seed,
    };
    let run =
        |plan: &FaultPlan| run_service(&LoopbackService::spawn(plan, 1, seed), &sys, b, &config);
    // Run 1 (attacked): checks safety and availability under b Byzantine + crashes.
    let report = run(&plan);
    // Run 2 (failure-free): measures the empirical load of the access strategy,
    // which is only meaningful when the sampled fast path is always taken
    // (the load of Definition 3.8 is a failure-free, best-strategy measure).
    let clean = run(&FaultPlan::none(n));
    table.push_row([
        sys.name(),
        n.to_string(),
        b.to_string(),
        crashes.to_string(),
        report.reads_completed.to_string(),
        report.safety_violations.to_string(),
        report.unavailable_operations.to_string(),
        format!("{:.4}", clean.max_empirical_load()),
        format!("{:.4}", sys.analytic_load()),
    ]);
}

/// Protocol-level validation: runs the \[MR98a\] replicated register over
/// every construction with its full Byzantine budget plus crashes,
/// confirming zero safety violations and comparing the empirical per-server
/// load with the analytic L(Q) — the operational counterpart of the paper's
/// load definition.
fn protocol_validation(args: Args) {
    let [ops] = args.take([("operations", 3000)]);

    let mut table = TextTable::new([
        "system",
        "n",
        "b (byz injected)",
        "crashes",
        "reads",
        "violations",
        "unavailable",
        "empirical load (no failures)",
        "analytic load",
    ]);

    validate(
        &mut table,
        ops,
        ThresholdSystem::minimal_masking(3).unwrap(),
        1,
        1,
    );
    validate(&mut table, ops, GridSystem::new(10, 3).unwrap(), 3, 2);
    validate(&mut table, ops, MGridSystem::new(10, 4).unwrap(), 4, 3);
    validate(&mut table, ops, RtSystem::new(4, 3, 3).unwrap(), 4, 4);
    validate(&mut table, ops, BoostFppSystem::new(3, 4).unwrap(), 8, 5);
    validate(&mut table, ops, MPathSystem::new(10, 4).unwrap(), 4, 6);

    println!("replicated register, {ops} operations per system, b fabricating Byzantine");
    println!("servers plus random crashes injected into every run:\n");
    println!("{}", table.render());
    println!();
    println!("expected outcome (and what the paper's consistency requirement guarantees):");
    println!("zero violations everywhere, and an empirical load close to the analytic L(Q)");
    println!("whenever failures are rare enough that the sampled-strategy fast path is used.");
}

/// The RT(k, ℓ) availability analysis of Propositions 5.6 and 5.7: the
/// failure polynomial g(p), the critical probability p_c, the sharp
/// threshold of the crash probability around it, and the exponential bound
/// (C(k,ℓ-1) p)^((k-ℓ+1)^h).
fn rt_availability(args: Args) {
    let [k, l, depth] = args.take([("k", 4), ("l", 3), ("depth", 5)]);
    let depth = u32::try_from(depth).unwrap_or(u32::MAX);

    let rt = RtSystem::new(k, l, depth).expect("valid RT parameters");
    println!(
        "RT({k},{l}) of depth {depth}: n = {}, b = {}, f = {}",
        rt.universe_size(),
        rt.masking_b(),
        AnalyzedConstruction::resilience(&rt),
    );
    println!(
        "critical probability p_c = {:.4} (paper: 0.2324 for RT(4,3))\n",
        rt.critical_probability()
    );

    let ps: Vec<f64> = (1..=19).map(|i| i as f64 * 0.025).collect();
    let sweep = rt_fixed_point_sweep(k, l, depth, &ps);
    let mut table = TextTable::new(["p", "Fp (recurrence)", "Prop 5.7 bound", "below p_c"]);
    for pt in &sweep {
        let rt_bound = rt.crash_probability_prop_5_7_bound(pt.p);
        table.push_row([
            format!("{:.3}", pt.p),
            format_probability(pt.fp),
            rt_bound
                .map(format_probability)
                .unwrap_or_else(|| "-".to_string()),
            pt.below_critical.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!();
    println!("shape to check against the paper: Fp is negligible below p_c and jumps to ~1");
    println!(
        "above it (Proposition 5.6); for p < 1/C(k,l-1) = {:.4} the Prop 5.7 bound",
        1.0 / bqs_combinatorics::binomial::binomial_f64(k as u64, (l - 1) as u64)
    );
    println!("(6p)^sqrt(n) dominates the recurrence value, confirming the analysis is tight.");
}

/// The Section 8 worked example: n = 1024 servers, target load ~ 1/4,
/// per-server crash probability p = 1/8, comparing M-Grid, boostFPP, M-Path
/// and RT(4,3) — including the engine's value of the true crash probability
/// that the paper could only bound analytically.
fn section8_scenario(args: Args) {
    let [trials] = args.take([("trials", 2000)]);
    println!("Section 8 scenario: n = 1024, target load ~ 1/4, p = {SCENARIO_P}");
    println!("Monte-Carlo column uses {trials} trials per system\n");
    let rows = build_scenario(trials);
    println!("{}", render_scenario(&rows));
    println!();
    println!("paper's conclusion, reproduced: the M-Grid is effectively unavailable in this");
    println!("regime (Fp >= 0.638), boostFPP is better, and RT(4,3) / M-Path are excellent;");
    println!("RT wins at this size while M-Path has the asymptotically superior behaviour");
    println!("(it stays available for every p < 1/2).");
}

/// Table 2 of the paper: the construction-by-construction comparison of
/// masking level, resilience, load and crash probability, with the paper's
/// asymptotic claims printed alongside the measured values.
fn table2(args: Args) {
    let [side, b] = args.take([("side", 32), ("b", 7)]);

    println!(
        "Table 2 reproduction: constructions over an (approximately) {0}x{0} universe",
        side
    );
    println!("numeric Fp columns evaluated at p = {REFERENCE_CRASH_P}\n");
    let rows = build_table2(side, b);
    println!("{}", render_table2(&rows));
    println!();
    println!("notes:");
    println!(" * 'L / lower-bound' is the ratio of the achieved load to sqrt((2b+1)/n)");
    println!("   (Corollary 4.2); values near 1 are optimal, as the paper claims for");
    println!("   M-Grid, boostFPP and M-Path ('+' rows of Table 2).");
    println!(" * '-> 1' rows (Grid, M-Grid) have no useful Fp upper bound: their crash");
    println!("   probability tends to 1 as n grows, which is why only a lower bound is shown.");
    println!(" * '*' rows are Fp-optimal for their resilience (Proposition 4.3).");
}
