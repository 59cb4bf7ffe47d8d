//! Fig. 17: impact of the read-ahead parameter δ on the quality of gPTAc
//! and gPTAε (error ratio to the exact DP result, averaged over bounds).
//!
//! Expected shape (the paper's key observation): δ = 0 is visibly worse;
//! δ ≥ 1 is practically indistinguishable from δ = ∞ — "reading ahead by
//! just one tuple is sufficient".

use pta_bench::{
    delta_name, fmt, linspace_usize, mean_stderr, print_table, row, HarnessArgs, Scale,
};
use pta_core::{error_threshold, max_error, optimal_error_curve, Delta, GPtaC, GPtaE, Weights};
use pta_datasets::{prepare, QueryId};

fn main() {
    let args = HarnessArgs::parse();
    println!("Fig. 17 — impact of delta on gPTAc / gPTAe ({:?} scale)", args.scale);
    let deltas = [Delta::Finite(0), Delta::Finite(1), Delta::Finite(2), Delta::Unbounded];
    let queries = [
        QueryId::E1,
        QueryId::E2,
        QueryId::E3,
        QueryId::I1,
        QueryId::I2,
        QueryId::I3,
        QueryId::T1,
        QueryId::T2,
        QueryId::T3,
    ];
    let samples = match args.scale {
        Scale::Small => 8,
        _ => 12,
    };

    let mut rows_c = Vec::new();
    let mut rows_e = Vec::new();
    // Accumulated over queries for the shape check: mean ratio per delta.
    let mut overall: [Vec<f64>; 4] = Default::default();
    for id in queries {
        let q = prepare(id, args.scale);
        let rel = &q.relation;
        let n = rel.len();
        let cmin = rel.cmin();
        let w = Weights::uniform(rel.dims());
        let optimal = optimal_error_curve(rel, &w, n).expect("dims match");
        let emax = max_error(rel, &w).expect("dims match");
        let cs = linspace_usize(cmin.max(2), n - 1, samples);
        // ε values spanning the interesting range of the optimal curve.
        let epsilons: Vec<f64> = (1..=samples).map(|i| i as f64 / (samples + 1) as f64).collect();

        for (di, &delta) in deltas.iter().enumerate() {
            // gPTAc: ratio to the optimal error at the same c.
            let mut ratios = Vec::new();
            for &c in &cs {
                let base = optimal[c - 1];
                let usable = base > 0.0;
                if !usable {
                    continue;
                }
                let g = GPtaC::run(rel, &w, c, delta).expect("c >= cmin");
                ratios.push(g.stats.total_error / base);
            }
            let (mean_c, se_c) = mean_stderr(&ratios);
            rows_c.push(row([
                id.name().to_string(),
                delta_name(delta).to_string(),
                fmt(mean_c),
                fmt(se_c),
            ]));
            overall[di].extend_from_slice(&ratios);

            // gPTAε: ratio to PTAε's error at the same ε — derived from
            // the optimal curve: the smallest k with E[k] within the
            // threshold.
            let mut ratios_e = Vec::new();
            for &eps in &epsilons {
                let budget = error_threshold(eps, emax);
                let opt_err = optimal.iter().find(|e| **e <= budget).copied().unwrap_or(0.0);
                let usable = opt_err > 0.0;
                if !usable {
                    continue;
                }
                let g = GPtaE::run(rel, &w, eps, delta, None).expect("valid epsilon");
                ratios_e.push(g.stats.total_error / opt_err);
            }
            let (mean_e, se_e) = mean_stderr(&ratios_e);
            rows_e.push(row([
                id.name().to_string(),
                delta_name(delta).to_string(),
                fmt(mean_e),
                fmt(se_e),
            ]));
        }
        println!("{:>3}: done", id.name());
    }
    print_table(
        "Fig. 17(a): gPTAc error ratio by delta",
        &["query", "delta", "mean", "stderr"],
        &rows_c,
    );
    print_table(
        "Fig. 17(b): gPTAe error ratio by delta",
        &["query", "delta", "mean", "stderr"],
        &rows_e,
    );
    args.write_csv("fig17a.csv", &["query", "delta", "mean_ratio", "stderr"], &rows_c);
    args.write_csv("fig17b.csv", &["query", "delta", "mean_ratio", "stderr"], &rows_e);

    // Shape checks: δ ≥ 1 ≈ δ = ∞; δ = 0 is the worst configuration.
    let means: Vec<f64> = overall.iter().map(|r| mean_stderr(r).0).collect();
    assert!(
        means[0] >= means[3] - 1e-9,
        "delta=0 ({}) should not beat delta=inf ({})",
        means[0],
        means[3]
    );
    assert!(
        (means[1] - means[3]).abs() <= 0.02 * means[3].max(1.0),
        "delta=1 ({}) should be practically identical to delta=inf ({})",
        means[1],
        means[3]
    );
    println!(
        "\nshape check: delta means (0,1,2,inf) = {}, {}, {}, {} — delta>=1 matches inf — OK",
        fmt(means[0]),
        fmt(means[1]),
        fmt(means[2]),
        fmt(means[3])
    );
}
