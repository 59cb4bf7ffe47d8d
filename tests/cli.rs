//! End-to-end tests of the `pta-cli` binary over CSV files.

use std::io::Write;
use std::process::{Command, Stdio};

const PROJ_CSV: &str = "Empl,Proj,Sal,t_start,t_end\n\
John,A,800,1,4\n\
Ann,A,400,3,6\n\
Tom,A,300,4,7\n\
John,B,500,4,5\n\
John,B,500,7,8\n";

const SCHEMA: &str = "Empl:str,Proj:str,Sal:int";

fn run_cli(args: &[&str], stdin: &str) -> (String, String, bool) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_pta-cli"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary built by the test harness");
    // A CLI that rejects its arguments may exit before it reads stdin.
    if let Err(e) = child.stdin.as_mut().expect("piped stdin").write_all(stdin.as_bytes()) {
        assert_eq!(e.kind(), std::io::ErrorKind::BrokenPipe, "write stdin: {e}");
    }
    let out = child.wait_with_output().expect("cli terminates");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn reduce_reproduces_fig_1d() {
    let (stdout, stderr, ok) = run_cli(
        &["reduce", "--schema", SCHEMA, "--group-by", "Proj", "--agg", "avg:Sal", "--size", "4"],
        PROJ_CSV,
    );
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("A,733.3333333333334,1,3"), "stdout: {stdout}");
    assert!(stdout.contains("A,375,4,7"));
    assert!(stderr.contains("SSE 49166.6667"));
}

#[test]
fn ita_command_emits_fig_1c() {
    let (stdout, _, ok) =
        run_cli(&["ita", "--schema", SCHEMA, "--group-by", "Proj", "--agg", "avg:Sal"], PROJ_CSV);
    assert!(ok);
    assert_eq!(stdout.lines().count(), 8, "header + 7 tuples");
    assert!(stdout.contains("A,800,1,2"));
    assert!(stdout.contains("B,500,7,8"));
}

#[test]
fn sta_command_emits_fig_1b() {
    let (stdout, _, ok) = run_cli(
        &[
            "sta",
            "--schema",
            SCHEMA,
            "--group-by",
            "Proj",
            "--agg",
            "avg:Sal",
            "--span-origin",
            "1",
            "--span-width",
            "4",
        ],
        PROJ_CSV,
    );
    assert!(ok);
    assert_eq!(stdout.lines().count(), 5, "header + 4 spans");
    assert!(stdout.contains("A,500,1,4"));
    assert!(stdout.contains("A,350,5,8"));
}

#[test]
fn error_bound_and_gap_policy_flags() {
    let (stdout, stderr, ok) = run_cli(
        &["reduce", "--schema", SCHEMA, "--group-by", "Proj", "--agg", "avg:Sal", "--error", "0.2"],
        PROJ_CSV,
    );
    assert!(ok, "stderr: {stderr}");
    assert_eq!(stdout.lines().count(), 5, "eps = 0.2 gives 4 tuples");

    let (stdout, stderr, ok) = run_cli(
        &[
            "reduce",
            "--schema",
            SCHEMA,
            "--group-by",
            "Proj",
            "--agg",
            "avg:Sal",
            "--size",
            "2",
            "--max-gap",
            "1",
        ],
        PROJ_CSV,
    );
    assert!(ok, "stderr: {stderr}");
    assert_eq!(stdout.lines().count(), 3, "gap tolerance reaches size 2");
    assert!(stdout.contains("B,500,4,8"));
}

/// `--dp-strategy` is accepted on `reduce` with every strategy name,
/// yields the identical Fig. 1(d) reduction, and rejects typos.
#[test]
fn dp_strategy_flag() {
    // `approx:0` falls through to the exact scan, so all four names
    // produce the identical Fig. 1(d) reduction and SSE.
    for strategy in ["scan", "monge", "auto", "approx:0"] {
        let (stdout, stderr, ok) = run_cli(
            &[
                "reduce",
                "--schema",
                SCHEMA,
                "--group-by",
                "Proj",
                "--agg",
                "avg:Sal",
                "--size",
                "4",
                "--dp-strategy",
                strategy,
            ],
            PROJ_CSV,
        );
        assert!(ok, "{strategy}: stderr: {stderr}");
        assert!(stdout.contains("A,733.3333333333334,1,3"), "{strategy}: stdout: {stdout}");
        assert!(stderr.contains("SSE 49166.6667"), "{strategy}");
    }
    let (_, stderr, ok) = run_cli(
        &[
            "reduce",
            "--schema",
            SCHEMA,
            "--agg",
            "avg:Sal",
            "--size",
            "4",
            "--dp-strategy",
            "smawk",
        ],
        PROJ_CSV,
    );
    assert!(!ok);
    assert!(stderr.contains("bad --dp-strategy"), "stderr: {stderr}");
    // The flag belongs to `reduce` only.
    let (_, stderr, ok) = run_cli(
        &["ita", "--schema", SCHEMA, "--agg", "avg:Sal", "--dp-strategy", "auto"],
        PROJ_CSV,
    );
    assert!(!ok);
    assert!(stderr.contains("unknown flag --dp-strategy"), "stderr: {stderr}");
}

/// Malformed `approx:<eps>` specs fail fast with the typed usage error —
/// negative, above 1, non-finite, empty, and non-numeric ε all reject —
/// and the approx spelling is no escape hatch onto other subcommands.
#[test]
fn dp_strategy_approx_rejects_malformed_eps() {
    for bad in ["approx:-0.1", "approx:1.5", "approx:NaN", "approx:inf", "approx:", "approx:x"] {
        let (_, stderr, ok) = run_cli(
            &[
                "reduce",
                "--schema",
                SCHEMA,
                "--agg",
                "avg:Sal",
                "--size",
                "4",
                "--dp-strategy",
                bad,
            ],
            PROJ_CSV,
        );
        assert!(!ok, "{bad} must be rejected");
        assert!(stderr.contains("bad --dp-strategy"), "{bad}: stderr: {stderr}");
        assert!(stderr.contains("approx[:eps]"), "{bad}: usage hint missing: {stderr}");
    }
    // A well-formed approx spec on a subcommand without the flag is the
    // unknown-flag error, same as any other strategy spelling.
    let (_, stderr, ok) = run_cli(
        &["compare", "--schema", SCHEMA, "--agg", "avg:Sal", "--dp-strategy", "approx:0.1"],
        PROJ_CSV,
    );
    assert!(!ok);
    assert!(stderr.contains("unknown flag --dp-strategy"), "stderr: {stderr}");
}

#[test]
fn greedy_algorithm_flag() {
    let (stdout, stderr, ok) = run_cli(
        &[
            "reduce",
            "--schema",
            SCHEMA,
            "--group-by",
            "Proj",
            "--agg",
            "avg:Sal",
            "--size",
            "4",
            "--algorithm",
            "greedy",
            "--delta",
            "inf",
        ],
        PROJ_CSV,
    );
    assert!(ok, "stderr: {stderr}");
    assert!(stderr.contains("SSE 63000"), "greedy error from Fig. 9: {stderr}");
    assert_eq!(stdout.lines().count(), 5);
}

#[test]
fn helpful_errors() {
    let (_, stderr, ok) = run_cli(&["reduce", "--schema", SCHEMA], PROJ_CSV);
    assert!(!ok);
    assert!(stderr.contains("--agg"));

    let (_, stderr, ok) = run_cli(&["reduce", "--schema", SCHEMA, "--agg", "avg:Sal"], PROJ_CSV);
    assert!(!ok);
    assert!(stderr.contains("--size") && stderr.contains("--error"));

    let (_, stderr, ok) = run_cli(
        &["reduce", "--schema", SCHEMA, "--group-by", "Proj", "--agg", "avg:Sal", "--size", "1"],
        PROJ_CSV,
    );
    assert!(!ok);
    assert!(stderr.contains("cmin"), "reports the reachable minimum: {stderr}");

    // A misspelled flag must fail loudly, not fall back to defaults
    // (e.g. `--method` instead of `--methods` would otherwise silently
    // compare the default method set).
    let (_, stderr, ok) = run_cli(
        &[
            "compare",
            "--schema",
            SCHEMA,
            "--group-by",
            "Proj",
            "--agg",
            "avg:Sal",
            "--method",
            "paa",
            "--sizes",
            "4",
        ],
        PROJ_CSV,
    );
    assert!(!ok);
    assert!(stderr.contains("unknown flag --method"), "stderr: {stderr}");
}

#[test]
fn compare_runs_the_section7_comparison() {
    let (stdout, stderr, ok) = run_cli(
        &[
            "compare",
            "--schema",
            SCHEMA,
            "--group-by",
            "Proj",
            "--agg",
            "avg:Sal",
            "--methods",
            "exact,greedy,atc",
            "--sizes",
            "4,5",
        ],
        PROJ_CSV,
    );
    assert!(ok, "stderr: {stderr}");
    assert!(stdout
        .starts_with("method,bound,requested,ratio_pct,size,sse,error_pct,wall_ms,timing,status"));
    // Fig. 1(d): the optimal 4-tuple reduction has SSE 49 166.67.
    assert!(stdout.contains("exact,size,4,,4,49166.66666666"), "stdout: {stdout}");
    assert_eq!(stdout.lines().count(), 1 + 3 * 2, "header + methods x bounds");
    // Size grids: exact/atc share one computation (flagged), the
    // streaming greedy times each bound itself.
    assert!(stdout.contains(",shared,ok") && stdout.contains(",per-bound,ok"), "{stdout}");
    assert!(stderr.contains("compared 3 methods over 2 bounds"), "stderr: {stderr}");

    // The series methods report n/a on the grouped input instead of
    // failing the run.
    let (stdout, _, ok) = run_cli(
        &[
            "compare",
            "--schema",
            SCHEMA,
            "--group-by",
            "Proj",
            "--agg",
            "avg:Sal",
            "--methods",
            "all",
            "--ratios",
            "50,100",
        ],
        PROJ_CSV,
    );
    assert!(ok);
    assert!(stdout.contains("paa,size,") && stdout.contains(",n/a"));
    // Ratio grids carry the requested ratio so rows map back onto the
    // fig14-style axis even when two ratios resolve to the same size.
    assert!(stdout.contains(",50,") && stdout.contains(",100,"), "stdout: {stdout}");

    // Exactly one grid flavor is required.
    let (_, stderr, ok) = run_cli(
        &["compare", "--schema", SCHEMA, "--group-by", "Proj", "--agg", "avg:Sal"],
        PROJ_CSV,
    );
    assert!(!ok);
    assert!(stderr.contains("--sizes"), "stderr: {stderr}");

    // Unknown methods name the registry.
    let (_, stderr, ok) = run_cli(
        &[
            "compare",
            "--schema",
            SCHEMA,
            "--group-by",
            "Proj",
            "--agg",
            "avg:Sal",
            "--methods",
            "nope",
            "--sizes",
            "4",
        ],
        PROJ_CSV,
    );
    assert!(!ok);
    assert!(stderr.contains("unknown summarizer") && stderr.contains("exact"));
}
