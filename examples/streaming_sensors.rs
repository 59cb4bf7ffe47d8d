//! Streaming compression of a sensor feed with gPTAc.
//!
//! Simulates a fleet of temperature sensors whose readings arrive as ITA
//! tuples, and compresses them *online*: gPTAc merges while tuples stream
//! in, holding only `c + β` segments in memory (§6.2). The example reports
//! the live heap size along the way and compares the final error against
//! the offline optimum.
//!
//! ```text
//! cargo run --release --example streaming_sensors
//! ```

use pta::{Delta, GroupKey, TimeInterval, Value, Weights};
use pta_core::{pta_size_bounded, GPtaC, GapPolicy};
use pta_temporal::{SequentialBuilder, SequentialRelation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A day of per-minute readings for several sensors: slow daily drift plus
/// occasional regime jumps — plateau-rich data PTA compresses well.
fn sensor_feed(sensors: usize, minutes: i64, seed: u64) -> SequentialRelation {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = SequentialBuilder::new(1);
    for s in 0..sensors {
        let key = GroupKey::new(vec![Value::str(format!("sensor-{s:02}"))]);
        let mut level = rng.random_range(18.0..24.0);
        let mut t = 0i64;
        while t < minutes {
            // A regime holds for a while, with small quantised jitter.
            let hold = rng.random_range(5i64..40).min(minutes - t);
            for dt in 0..hold {
                let reading = level + (rng.random_range(-2i32..=2) as f64) * 0.05;
                b.push(key.clone(), TimeInterval::instant(t + dt).unwrap(), &[reading])
                    .expect("in order");
            }
            t += hold;
            if rng.random_bool(0.3) {
                level += rng.random_range(-1.5..1.5);
            }
        }
    }
    b.build()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let feed = sensor_feed(8, 1_440, 99);
    let n = feed.len();
    let c = n / 50; // 2% of the readings
    let w = Weights::uniform(1);
    println!("sensor feed: {n} readings from 8 sensors; compressing to c = {c}");

    let mut alg = GPtaC::with_policy(w.clone(), c, Delta::Finite(1), GapPolicy::Strict);
    let mut peak = 0usize;
    for i in 0..n {
        let key = feed.group_key(feed.group(i))?.clone();
        alg.push(&key, feed.interval(i), feed.values(i))?;
        peak = peak.max(alg.live());
        if i % (n / 8).max(1) == 0 {
            println!("  after {i:>6} tuples: live segments = {}", alg.live());
        }
    }
    let out = alg.finish()?;
    println!(
        "stream done: {} segments out, max heap {} (= c + beta, beta = {})",
        out.reduction.len(),
        out.stats.max_heap_size,
        out.stats.max_heap_size.saturating_sub(c)
    );

    // Offline optimum for comparison (needs the whole feed in memory).
    let opt = pta_size_bounded(&feed, &w, c)?;
    println!(
        "greedy SSE {:.1} vs optimal SSE {:.1} — ratio {:.3} (Thm. 1 bounds it by O(log n))",
        out.stats.total_error,
        opt.reduction.sse(),
        out.stats.total_error / opt.reduction.sse().max(1e-12)
    );
    println!(
        "compression: {:.1}x fewer tuples, {:.2}% of the maximal error",
        n as f64 / out.reduction.len() as f64,
        100.0 * out.stats.total_error / pta_core::max_error(&feed, &w)?
    );
    Ok(())
}
