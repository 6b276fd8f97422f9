//! End-to-end tests of the `vgen` command-line tool.

use std::io::Write;
use std::process::{Command, Output};

fn vgen() -> Command {
    Command::new(env!("CARGO_BIN_EXE_vgen"))
}

fn write_temp(name: &str, content: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("vgen-cli-tests");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).expect("create file");
    f.write_all(content.as_bytes()).expect("write");
    path
}

const COUNTER: &str = "\
module counter(input clk, input reset, output reg [3:0] q);
always @(posedge clk) begin
  if (reset) q <= 4'd1;
  else if (q == 4'd12) q <= 4'd1;
  else q <= q + 4'd1;
end
endmodule
";

#[test]
fn check_accepts_valid_file() {
    let path = write_temp("ok.v", COUNTER);
    let out = vgen()
        .args(["check", path.to_str().expect("utf8")])
        .output()
        .expect("run");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("counter`: OK"));
}

#[test]
fn check_rejects_broken_file() {
    let path = write_temp("bad.v", "module m(input a output y); endmodule");
    let out = vgen()
        .args(["check", path.to_str().expect("utf8")])
        .output()
        .expect("run");
    assert!(!out.status.success());
}

/// A 10,000-term `^` chain overflowed the stack of every stage that
/// recurses over expressions; the parser now refuses it, so each command
/// exits normally with the depth cap named.
#[test]
fn deep_operator_chain_is_refused_not_an_abort() {
    let chain = vec!["a"; 10_000].join(" ^ ");
    let path = write_temp(
        "chain.v",
        &format!("module and_gate(input a, input b, output y);\nassign y = {chain};\nendmodule\n"),
    );
    let file = path.to_str().expect("utf8");
    let commands: [&[&str]; 4] = [
        &["check", file],
        &["lint", file],
        &["synth", file],
        &["eval", file, "--problem", "2"],
    ];
    for args in commands {
        let out = vgen().args(args).output().expect("run");
        let text = format!(
            "{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(out.status.code(), Some(1), "{args:?}: {text}");
        let refusal = format!(
            "expression deeper than {} levels",
            vgen::verilog::parser::MAX_EXPR_DEPTH
        );
        assert!(text.contains(&refusal), "{args:?}: {text}");
    }
}

/// A wire declared `[64'h7FFFFFFFFFFFFFFF:0]` is refused at the signal
/// width cap by `check` and by `synth`, which used to abort allocating it.
#[test]
fn huge_vector_is_refused_by_check_and_synth_not_an_abort() {
    let path = write_temp(
        "huge_vector.v",
        "module and_gate(input a, input b, output y);\nwire [64'h7FFFFFFFFFFFFFFF:0] w;\nassign y = a & b;\nendmodule\n",
    );
    let file = path.to_str().expect("utf8");
    for command in ["check", "synth"] {
        let out = vgen().args([command, file]).output().expect("run");
        let text = format!(
            "{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(out.status.code(), Some(1), "{command}: {text}");
        let refusal = format!(
            "exceeds the {}-bit limit",
            vgen::verilog::value::MAX_SIGNAL_BITS
        );
        assert!(text.contains(&refusal), "{command}: {text}");
    }
}

/// A 1,000-net `assign` chain passes every check; synthesis used to refuse
/// it at a resolve-depth limit and now resolves it from a work list.
#[test]
fn long_net_chain_synthesizes() {
    let mut src = String::from("module and_gate(input a, input b, output y);\n");
    for i in 0..1000 {
        let rhs = if i + 1 < 1000 {
            format!("c{}", i + 1)
        } else {
            "a & b".to_string()
        };
        src.push_str(&format!("wire c{i};\nassign c{i} = {rhs};\n"));
    }
    src.push_str("assign y = c0;\nendmodule\n");
    let path = write_temp("net_chain.v", &src);
    let out = vgen()
        .args(["eval", path.to_str().expect("utf8"), "--problem", "2"])
        .output()
        .expect("run");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("synthesizes:  yes"), "{text}");
    assert!(out.status.success(), "{text}");
}

/// A chain of 20,000 nested user-function calls overflowed the stack of
/// simulation and synthesis; both now refuse it at the call-height cap, so
/// each command exits normally with the cap named.
#[test]
fn nested_function_chain_is_refused_not_an_abort() {
    let mut src = String::from("module and_gate(input a, input b, output y);\n");
    for i in 0..20_000 {
        let rhs = if i + 1 < 20_000 {
            format!("f{}(x)", i + 1)
        } else {
            "x".to_string()
        };
        src.push_str(&format!(
            "function f{i}; input x; begin f{i} = {rhs}; end endfunction\n"
        ));
    }
    src.push_str("assign y = f0(a & b);\nendmodule\n");
    let path = write_temp("call_chain.v", &src);
    let file = path.to_str().expect("utf8");
    let refusal = format!(
        "function calls nested deeper than {} levels",
        vgen::verilog::parser::MAX_CALL_HEIGHT
    );
    let commands: [&[&str]; 3] = [
        &["sim", file],
        &["synth", file],
        &["eval", file, "--problem", "2"],
    ];
    for args in commands {
        let out = vgen().args(args).output().expect("run");
        let text = format!(
            "{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(out.status.code().is_some(), "{args:?} aborted: {text}");
        assert!(text.contains(&refusal), "{args:?}: {text}");
    }
}

#[test]
fn lint_clean_file_exits_zero() {
    let path = write_temp("lint_ok.v", COUNTER);
    let out = vgen()
        .args(["lint", path.to_str().expect("utf8")])
        .output()
        .expect("run");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("0 error(s)"), "{text}");
}

#[test]
fn lint_reports_hazards_with_positions() {
    let path = write_temp(
        "lint_racy.v",
        "module m(input a, input b, output y);\nassign y = a;\nassign y = b;\nendmodule\n",
    );
    let out = vgen()
        .args(["lint", path.to_str().expect("utf8")])
        .output()
        .expect("run");
    assert!(!out.status.success(), "errors must fail the command");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("error[multi-driven-net]"), "{text}");
    // rustc-style position: file:line:col on the offending driver.
    assert!(text.contains("lint_racy.v:3:8"), "{text}");
    assert!(text.contains("^"), "{text}");
}

#[test]
fn lint_json_is_machine_readable() {
    let latchy =
        "module m(input en, input d, output reg q);\nalways @* if (en) q = d;\nendmodule\n";
    let racy = "module m(input a, input b, output y);\nassign y = a;\nassign y = b;\nendmodule\n";
    let p1 = write_temp("lint_j1.v", latchy);
    let p2 = write_temp("lint_j2.v", racy);
    let out = vgen()
        .args([
            "lint",
            p1.to_str().expect("utf8"),
            p2.to_str().expect("utf8"),
            "--json",
        ])
        .output()
        .expect("run");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.trim_start().starts_with('['), "{text}");
    assert!(text.trim_end().ends_with(']'), "{text}");
    assert!(text.contains("\"rule\": \"inferred-latch\""), "{text}");
    assert!(text.contains("\"rule\": \"multi-driven-net\""), "{text}");
    assert!(text.contains("lint_j1.v"), "{text}");
    assert!(text.contains("lint_j2.v"), "{text}");
}

#[test]
fn lint_problems_golden_set_is_error_free() {
    let out = vgen().args(["lint", "--problems"]).output().expect("run");
    assert!(
        out.status.success(),
        "reference solutions must stay lint-error-free:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("34 file(s) linted"), "{text}");
    assert!(text.contains("0 error(s)"), "{text}");
}

#[test]
fn check_errors_carry_line_and_column() {
    let path = write_temp("bad_pos.v", "module m(input a output y); endmodule");
    let out = vgen()
        .args(["check", path.to_str().expect("utf8")])
        .output()
        .expect("run");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("bad_pos.v:1:"), "{err}");
}

#[test]
fn sim_runs_a_testbench() {
    let src = format!(
        "{COUNTER}\nmodule tb;\nreg clk, reset;\nwire [3:0] q;\n\
         counter dut(.clk(clk), .reset(reset), .q(q));\n\
         always #5 clk = ~clk;\ninitial begin\nclk = 0; reset = 1;\n\
         #12 reset = 0;\nrepeat (3) @(posedge clk);\n\
         $display(\"q=%0d\", q);\n$finish;\nend\nendmodule\n"
    );
    let path = write_temp("tb.v", &src);
    let out = vgen()
        .args(["sim", path.to_str().expect("utf8"), "--top", "tb"])
        .output()
        .expect("run");
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout), "q=3\n");
}

#[test]
fn synth_summarizes() {
    let path = write_temp("synth.v", COUNTER);
    let out = vgen()
        .args(["synth", path.to_str().expect("utf8")])
        .output()
        .expect("run");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("1 registers"), "{text}");
}

#[test]
fn eval_scores_a_candidate() {
    let path = write_temp("cand.v", COUNTER);
    let out = vgen()
        .args(["eval", path.to_str().expect("utf8"), "--problem", "6"])
        .output()
        .expect("run");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("functional:   yes"));
}

#[test]
fn eval_fails_wrong_candidate() {
    let wrong = COUNTER.replace("4'd12", "4'd11");
    let path = write_temp("wrong.v", &wrong);
    let out = vgen()
        .args(["eval", path.to_str().expect("utf8"), "--problem", "6"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("functional:   no"));
}

/// Every benchmark reference solution scores a pass through the guarded
/// single-file path, printing the verdict lines and nothing else.
#[test]
fn problem_ids_outside_both_sets_name_the_full_range() {
    let path = write_temp("range.v", COUNTER);
    let path = path.to_str().expect("utf8");
    for args in [
        vec!["eval", path, "--problem", "26"],
        vec!["eval", path, "--problem", "x"],
        vec!["prompt", "0"],
    ] {
        let out = vgen().args(&args).output().expect("run");
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("problem id must be 1-25"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn eval_scores_an_extended_set_problem() {
    let reference = vgen::problems::problem(20)
        .expect("problem 20 exists")
        .reference_source();
    let path = write_temp("gray.v", &reference);
    let out = vgen()
        .args(["eval", path.to_str().expect("utf8"), "--problem", "20"])
        .output()
        .expect("run");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{text}");
    assert!(text.contains("problem 20: Binary to Gray code"), "{text}");
    assert!(text.contains("functional:   yes"), "{text}");
}

#[test]
fn eval_scores_every_reference_solution_through_the_guard() {
    for p in vgen::problems::problems() {
        let src = p.reference_source();
        let path = write_temp(&format!("reference{:02}.v", p.id), &src);
        let out = vgen()
            .args(["eval", path.to_str().expect("utf8"), "--problem"])
            .arg(p.id.to_string())
            .output()
            .expect("run");
        assert!(
            out.status.success(),
            "problem {}: {}",
            p.id,
            String::from_utf8_lossy(&out.stdout)
        );
        let synth = if vgen::synth::synthesize_source(&src).is_ok() {
            "yes"
        } else {
            "no"
        };
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            format!(
                "problem {}: {}\n  compiles:     yes\n  synthesizes:  {synth}\n  functional:   yes\n",
                p.id, p.name
            )
        );
    }
}

/// Runs a journaled grid sweep in its own directory (so the `journal:`
/// line of the report is identical across runs) and returns
/// (stdout bytes, journal bytes).
fn grid_sweep(dir_tag: &str, jobs: &str, extra: &[&str]) -> (Vec<u8>, Vec<u8>) {
    let (out, journal) = grid_sweep_output(dir_tag, jobs, extra);
    (out.stdout, journal)
}

/// [`grid_sweep`] that returns the whole process output (stdout and
/// stderr) beside the journal bytes.
fn grid_sweep_output(dir_tag: &str, jobs: &str, extra: &[&str]) -> (Output, Vec<u8>) {
    let dir = std::env::temp_dir().join("vgen-cli-tests").join(dir_tag);
    std::fs::create_dir_all(&dir).expect("create sweep dir");
    let journal = dir.join("sweep.log");
    let _ = std::fs::remove_file(&journal);
    let mut args = vec!["eval", "--journal", "sweep.log", "--jobs", jobs];
    args.extend_from_slice(extra);
    let out = vgen().args(&args).current_dir(&dir).output().expect("run");
    assert!(
        out.status.success(),
        "sweep failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let bytes = std::fs::read(&journal).expect("journal exists");
    (out, bytes)
}

#[test]
fn eval_grid_reports_and_journals_are_jobs_invariant() {
    let (report1, journal1) = grid_sweep("jobs1", "1", &[]);
    let (report4, journal4) = grid_sweep("jobs4", "4", &[]);
    assert_eq!(
        report1, report4,
        "stdout report must be byte-identical across --jobs"
    );
    assert_eq!(
        journal1, journal4,
        "journal must be byte-identical across --jobs"
    );
}

#[test]
fn eval_grid_resumes_killed_parallel_run() {
    let (_, full_journal) = grid_sweep("resume", "4", &[]);
    // Truncate the journal as a SIGKILL mid-run would: keep the header,
    // a prefix of records, and a torn final line.
    let dir = std::env::temp_dir().join("vgen-cli-tests").join("resume");
    let journal = dir.join("sweep.log");
    let text = String::from_utf8(full_journal.clone()).expect("utf8 journal");
    let mut kept: Vec<&str> = text.lines().take(30).collect();
    kept.push("3,B,L,0.1"); // torn write
    std::fs::write(&journal, kept.join("\n")).expect("truncate journal");
    let out = vgen()
        .args(["eval", "--journal", "sweep.log", "--jobs", "3", "--resume"])
        .current_dir(&dir)
        .output()
        .expect("run");
    assert!(
        out.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let resumed = std::fs::read(&journal).expect("resumed journal");
    assert_eq!(
        resumed, full_journal,
        "resumed journal must match the uninterrupted run byte-for-byte"
    );
}

#[test]
fn eval_grid_rejects_bad_progress() {
    let out = vgen()
        .args(["eval", "--journal", "x.log", "--progress", "banana"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--progress"));
}

#[test]
fn eval_grid_accepts_equals_form_flags() {
    // `--progress=never` must parse like `--progress never` and must not
    // swallow a following argument as its value.
    let (report_eq, journal_eq) = grid_sweep("progress-eq", "2", &["--progress=never"]);
    let (report_sp, journal_sp) = grid_sweep("progress-sp", "2", &["--progress", "never"]);
    assert_eq!(report_eq, report_sp);
    assert_eq!(journal_eq, journal_sp);
}

#[test]
fn eval_grid_progress_line_goes_to_stderr_only() {
    // `--progress always` draws the progress line even into a pipe; it
    // must end on the full count and leave stdout and the journal as a
    // `--progress never` run writes them.
    let (always, journal_always) =
        grid_sweep_output("progress-always", "2", &["--progress", "always"]);
    let (never, journal_never) = grid_sweep_output("progress-never", "2", &["--progress", "never"]);
    let records = String::from_utf8(journal_always.clone())
        .expect("utf8 journal")
        .lines()
        .count()
        - 1;
    let stderr = String::from_utf8_lossy(&always.stderr);
    let last = format!("[eval] {records}/{records} checks");
    assert!(stderr.contains(&last), "no `{last}` in stderr: {stderr}");
    assert!(
        !String::from_utf8_lossy(&never.stderr).contains("checks/s"),
        "--progress never drew a progress line"
    );
    assert_eq!(always.stdout, never.stdout);
    assert_eq!(journal_always, journal_never);
}

#[test]
fn eval_grid_rejects_bad_jobs() {
    let out = vgen()
        .args(["eval", "--journal", "x.log", "--jobs", "banana"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--jobs"));
}

#[test]
fn prompt_prints_problem_text() {
    let out = vgen()
        .args(["prompt", "15", "--level", "H"])
        .output()
        .expect("run");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("module adv_fsm"));
    assert!(text.contains("S101"));
}

#[test]
fn problems_lists_both_sets() {
    let out = vgen().arg("problems").output().expect("run");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("ABRO FSM"));
    assert!(text.contains("Round-robin arbiter"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = vgen().arg("bogus").output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn sim_writes_vcd() {
    let src = "module t;\nreg a;\ninitial begin\n$dumpvars;\na = 0;\n#5 a = 1;\n$finish;\nend\nendmodule\n";
    let path = write_temp("vcd.v", src);
    let vcd_path = std::env::temp_dir().join("vgen-cli-tests").join("wave.vcd");
    let out = vgen()
        .args([
            "sim",
            path.to_str().expect("utf8"),
            "--vcd",
            vcd_path.to_str().expect("utf8"),
        ])
        .output()
        .expect("run");
    assert!(out.status.success());
    let vcd = std::fs::read_to_string(&vcd_path).expect("vcd written");
    assert!(vcd.contains("$enddefinitions"));
}
