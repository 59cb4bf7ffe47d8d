//! Seeded inputs owned by the benchmark: its own PRNG, the Incumbents-
//! and ETDS-shaped CSV documents, and the `pta-serve` request script.
//!
//! Nothing here calls into the program, so no program change can alter
//! a workload: the same seed always yields byte-identical CSV text and
//! request lines.

use std::fmt::Write as _;

/// SplitMix64: small, fast, and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), by multiply-high.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// FNV-1a 64-bit digest of a byte stream, printed with every input.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// A generated CSV document and what the generator knows about it.
pub struct Csv {
    pub text: String,
    pub rows: usize,
    /// Maximal adjacent runs the ITA result must have (its `cmin`): one
    /// per group activity period, since every period is covered without
    /// holes.
    pub runs: usize,
    /// Wire names of the groups (`Dept|Proj`), in generation order.
    pub groups: Vec<String>,
    /// Indices of the groups with two activity periods, the largest.
    pub large: Vec<usize>,
}

/// Shape of an Incumbents-like salary history: `(Dept, Proj)` groups,
/// each active over one or two gap-separated periods, staffed by
/// employees whose salaries change step-wise.
pub struct IncumbentsShape {
    pub groups: usize,
    /// Employees per activity period.
    pub staff: usize,
    pub months: i64,
}

pub const INCUMBENTS_SCHEMA: &str = "Dept:str,Proj:str,Salary:int";

/// Generates `Dept,Proj,Salary,t_start,t_end` rows.
///
/// A group's structure follows from its index alone: whether it has a
/// second period (three groups in ten), the periods' lengths (spread over
/// `[months/6, months/4]`), the gap between them, and its staff's start
/// months and contract lengths. The seed draws the salaries. So every
/// seed yields the same time layout, the same ITA tuple count in every
/// group, and the same DP work; seeds differ in the values. A base
/// employee spans each period end to end, so periods have no holes and
/// the number of maximal adjacent runs is known here without running ITA.
pub fn incumbents(seed: u64, shape: &IncumbentsShape) -> Csv {
    let mut rng = Rng::new(seed);
    let mut text = String::from("Dept,Proj,Salary,t_start,t_end\n");
    let (mut rows, mut runs) = (0, 0);
    let mut groups = Vec::with_capacity(shape.groups);
    let mut large = Vec::new();
    let m = shape.months;
    let (short, spread) = (m / 6, m / 4 - m / 6);
    for g in 0..shape.groups {
        let (dept, proj) = (format!("D{:02}", g % 17), format!("P{g:04}"));
        groups.push(format!("{dept}|{proj}"));
        let k = g as i64;
        let periods = if (g * 7) % 10 < 3 { 2 } else { 1 };
        if periods == 2 {
            large.push(g);
        }
        let mut layout = Rng::new(0x6c61_796f_7574 ^ g as u64);
        let mut start = (k * 13) % (m / 12);
        for p in 0..periods {
            let end = start + short + (k * 37 + p * 17) % spread;
            runs += 1;
            for e in 0..shape.staff {
                let mut month =
                    if e == 0 { start } else { start + layout.range(0, (end - start) / 3) };
                let mut salary = rng.range(2_000, 9_000);
                while month <= end {
                    let dur = layout.range(3, 24).min(end - month + 1);
                    let _ = writeln!(text, "{dept},{proj},{salary},{month},{}", month + dur - 1);
                    rows += 1;
                    month += dur;
                    salary += rng.range(-300, 600);
                }
            }
            // The gap before a second period keeps the two runs apart.
            start = end + 1 + m / 12 + (k * 29) % (m / 12);
        }
    }
    Csv { text, rows, runs, groups, large }
}

/// Shape of an ETDS-like employee relation: careers as chains of
/// contract records, grouped later by `(EmpNo, Dept)` — the paper's E4,
/// whose ITA result is about as large as its input.
pub struct EtdsShape {
    pub employees: usize,
    pub contracts: i64,
    pub months: i64,
}

pub const ETDS_SCHEMA: &str = "EmpNo:int,Sex:str,Dept:str,Title:str,Salary:int";

const DEPARTMENTS: [&str; 9] =
    ["d001", "d002", "d003", "d004", "d005", "d006", "d007", "d008", "d009"];
const TITLES: [&str; 7] = [
    "Engineer",
    "Senior Engineer",
    "Staff",
    "Senior Staff",
    "Assistant Engineer",
    "Technique Leader",
    "Manager",
];

/// Generates `EmpNo,Sex,Dept,Title,Salary,t_start,t_end` rows.
pub fn etds(seed: u64, shape: &EtdsShape) -> Csv {
    let mut rng = Rng::new(seed);
    let mut text = String::from("EmpNo,Sex,Dept,Title,Salary,t_start,t_end\n");
    let mut rows = 0;
    let m = shape.months;
    for emp in 0..shape.employees {
        let sex = if rng.chance(0.5) { "M" } else { "F" };
        let mut dept = DEPARTMENTS[rng.below(DEPARTMENTS.len() as u64) as usize];
        let mut title = rng.below(3) as usize;
        let mut month = rng.range(0, m * 4 / 5);
        let mut salary = rng.range(38_000, 60_000);
        for _ in 0..rng.range(1, shape.contracts) {
            if month >= m {
                break;
            }
            let end = month + rng.range(6, 48).min(m - month) - 1;
            let _ = writeln!(text, "{emp},{sex},{dept},{},{salary},{month},{end}", TITLES[title]);
            rows += 1;
            month = end + 1;
            if rng.chance(0.15) {
                month += rng.range(1, 17);
            }
            if rng.chance(0.12) {
                dept = DEPARTMENTS[rng.below(DEPARTMENTS.len() as u64) as usize];
            }
            if rng.chance(0.25) && title + 1 < TITLES.len() {
                title += 1;
            }
            salary += rng.range(0, 5_999);
        }
    }
    Csv { text, rows, runs: 0, groups: Vec::new(), large: Vec::new() }
}

/// How the request script mixes its bounds.
pub struct ScriptShape {
    pub requests: usize,
    /// Zipf exponent of the group popularity.
    pub zipf_s: f64,
    /// Requests in a hundred that ask `c=` past the server's curve depth,
    /// on a two-period group (larger than the depth, so the server runs
    /// the DP directly).
    pub past_depth: usize,
    pub curve_depth: usize,
}

/// Splits `total` requests over `n` ranks in proportion to the Zipf
/// weights `1 / rank^s`, by largest remainder: every rank gets its exact
/// share, rounded, and the shares add up to `total`. Returns the rank of
/// each request, in rank order.
fn zipf_quota(n: usize, s: f64, total: usize) -> Vec<usize> {
    let weights: Vec<f64> = (1..=n).map(|rank| 1.0 / (rank as f64).powf(s)).collect();
    let sum: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / sum * total as f64).collect();
    let mut quota: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let short = total - quota.iter().sum::<usize>();
    for &rank in order.iter().take(short) {
        quota[rank] += 1;
    }
    quota.iter().enumerate().flat_map(|(rank, &q)| std::iter::repeat_n(rank, q)).collect()
}

fn shuffle<T>(v: &mut [T], rng: &mut Rng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// Builds the request script. Each hundred requests holds a fixed mix,
/// in seeded order: `past_depth` past-depth `c=`, then of the rest about
/// 56% `c=` within the curve depth, 20% `eps=` and 20% `ratio=`. Group
/// popularity is Zipf-skewed, and group `i` has popularity rank `i`.
///
/// The script's costly requests are the same under every seed, so that
/// seeds differ in the order of the work and not in its amount: each
/// group receives its exact Zipf share of the requests (past-depth
/// requests over the two-period groups, the others over all groups), and
/// the past-depth sizes run through `depth + 1 ..= depth + 16` in turn.
/// The seed shuffles these requests and draws the bounds within the
/// depth, which a cached curve answers. Every bound is feasible: sizes
/// start at 2, and every group has at most two maximal runs.
pub fn script(seed: u64, csv: &Csv, shape: &ScriptShape) -> Vec<String> {
    let mut rng = Rng::new(seed ^ 0x7265_7175_6573_7473);
    let depth = shape.curve_depth as u64;
    let rest = 100 - shape.past_depth;
    let mut hundred: Vec<u8> = Vec::with_capacity(100);
    hundred.extend(std::iter::repeat_n(0, shape.past_depth));
    hundred.extend(std::iter::repeat_n(1, rest - 2 * (rest / 5)));
    hundred.extend(std::iter::repeat_n(2, rest / 5));
    hundred.extend(std::iter::repeat_n(3, rest / 5));
    let mut kinds = Vec::with_capacity(shape.requests);
    while kinds.len() < shape.requests {
        shuffle(&mut hundred, &mut rng);
        kinds.extend(hundred.iter().take(shape.requests - kinds.len()));
    }
    let past = kinds.iter().filter(|&&k| k == 0).count();
    let mut heavy: Vec<(usize, u64)> = zipf_quota(csv.large.len(), shape.zipf_s, past)
        .into_iter()
        .enumerate()
        .map(|(i, rank)| (csv.large[rank], depth + 1 + i as u64 % 16))
        .collect();
    let mut light = zipf_quota(csv.groups.len(), shape.zipf_s, kinds.len() - past);
    shuffle(&mut heavy, &mut rng);
    shuffle(&mut light, &mut rng);
    let (mut heavy, mut light) = (heavy.into_iter(), light.into_iter());
    let mut out = Vec::with_capacity(shape.requests);
    for kind in kinds {
        let (group, bound) = if kind == 0 {
            let Some((group, c)) = heavy.next() else { break };
            (group, format!("c={c}"))
        } else {
            let Some(group) = light.next() else { break };
            const EPS: [&str; 5] = ["0.5", "0.2", "0.1", "0.05", "0.02"];
            const RATIO: [&str; 5] = ["0.05", "0.1", "0.2", "0.3", "0.4"];
            let bound = match kind {
                1 => format!("c={}", 2 + rng.below(depth - 1)),
                2 => format!("eps={}", EPS[rng.below(5) as usize]),
                _ => format!("ratio={}", RATIO[rng.below(5) as usize]),
            };
            (group, bound)
        };
        out.push(format!("reduce {} {bound}", csv.groups[group]));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes() {
        let shape = IncumbentsShape { groups: 5, staff: 3, months: 300 };
        let a = incumbents(7, &shape);
        let b = incumbents(7, &shape);
        assert_eq!(digest(a.text.as_bytes()), digest(b.text.as_bytes()));
        assert_ne!(digest(a.text.as_bytes()), digest(incumbents(8, &shape).text.as_bytes()));
        assert_eq!(a.text.lines().count(), a.rows + 1);
    }

    #[test]
    fn zipf_quota_is_exact_and_skewed() {
        let q = zipf_quota(10, 1.0, 1000);
        assert_eq!(q.len(), 1000);
        let count = |r: usize| q.iter().filter(|&&x| x == r).count();
        // 1000 / H_10 = 341.4 for rank 1, a tenth of that for rank 10.
        assert_eq!((count(0), count(9)), (341, 34));
        assert!(q.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn seeds_reorder_the_costly_requests_but_keep_them() {
        let csv = incumbents(1, &IncumbentsShape { groups: 20, staff: 3, months: 300 });
        let shape = ScriptShape { requests: 400, zipf_s: 1.0, past_depth: 4, curve_depth: 8 };
        let heavy = |seed| {
            let script = script(seed, &csv, &shape);
            assert_eq!(script.len(), 400);
            let mut past: Vec<String> = script
                .iter()
                .filter(|l| {
                    l.rsplit_once("c=").is_some_and(|(_, c)| c.parse::<u64>().is_ok_and(|c| c > 8))
                })
                .cloned()
                .collect();
            past.sort();
            (script, past)
        };
        let ((a, past_a), (b, past_b)) = (heavy(1), heavy(2));
        assert_ne!(a, b);
        assert_eq!(past_a.len(), 16);
        assert_eq!(past_a, past_b);
        let groups = |s: &[String]| {
            let mut g: Vec<String> =
                s.iter().filter_map(|l| l.split(' ').nth(1)).map(str::to_string).collect();
            g.sort_unstable();
            g
        };
        assert_eq!(groups(&a), groups(&b));
    }
}
