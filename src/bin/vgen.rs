//! The `vgen` command-line tool: compile, simulate, synthesize and evaluate
//! Verilog files with the VGen-RS toolchain.
//!
//! ```text
//! vgen check <file.v>                    syntax + elaboration check
//! vgen lint <file.v>... [--json]         semantic lint (races, latches, ...)
//! vgen lint --problems [--json]          lint the 17 reference solutions
//! vgen sim <file.v> [--top M] [--vcd F]  run the event-driven simulator
//! vgen synth <file.v>                    synthesize and print a summary
//! vgen problems                          list the 17 benchmark problems
//! vgen prompt <id> [--level L|M|H]       print a problem's prompt
//! vgen eval <file.v> --problem <id>      score a candidate DUT
//! vgen eval --journal <path> [--resume]  journaled grid sweep (resumable)
//! ```

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    let Some(cmd) = it.next() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let rest: Vec<&String> = it.collect();
    let result = match cmd.as_str() {
        "check" => cmd_check(&rest),
        "lint" => cmd_lint(&rest),
        "sim" => cmd_sim(&rest),
        "synth" => cmd_synth(&rest),
        "problems" => cmd_problems(),
        "prompt" => cmd_prompt(&rest),
        "eval" => cmd_eval(&rest),
        "serve" => cmd_serve(&rest),
        "client" => cmd_client(&rest),
        "top" => cmd_top(&rest),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
vgen — the VGen-RS Verilog toolchain

USAGE:
  vgen check <file.v>                     syntax + elaboration check
  vgen lint <file.v>... [--json]          semantic lint: races, inferred
                                          latches, combinational loops,
                                          width hazards; exits non-zero on
                                          error-severity findings
  vgen lint --problems [--json]           lint every benchmark reference
                                          solution and testbench
  vgen sim <file.v> [--top M] [--vcd F] [--max-time N]
  vgen synth <file.v>                     synthesize, print netlist summary
  vgen problems                           list the benchmark problems
  vgen prompt <id> [--level L|M|H]        print a problem prompt
  vgen eval <file.v> --problem <id>       score a candidate DUT source
  vgen serve --socket PATH | --stdio      run the eval daemon (line-delimited
                                          JSON protocol; see DESIGN.md)
  vgen client --socket PATH '<json>'      send one request to a daemon and
                                          stream its events (eval reports go
                                          to stdout, byte-identical to the
                                          one-shot path)
  vgen top --socket PATH [--interval S] [--frames N]
                                          live daemon status: subscribes to
                                          the metrics stream and redraws a
                                          frame per interval (active
                                          requests with progress bars and
                                          ETA, stage p50/p99, pool
                                          utilization, fault counters); on
                                          a non-TTY it prints one summary
                                          line per interval; --frames N
                                          stops after N frames (default:
                                          until ^C)
  vgen eval --journal <path> [--resume] [--model NAME] [--tuning ft|pt] [--full]
            [--jobs N] [--no-dedup] [--trace FILE] [--metrics]
            [--progress auto|always|never]
            [--check-timeout SECS] [--retries N] [--fsync never|every|interval:N]
            [--chaos SPEC] [--chaos-seed N]
                                          sweep the family engine over the
                                          eval grid, journaling each record;
                                          --resume continues a killed run
                                          (recovery drops any torn/corrupt
                                          journal suffix and reports it);
                                          --jobs N checks completions on N
                                          worker threads (default: all
                                          cores); --no-dedup disables the
                                          duplicate-completion check cache;
                                          results are byte-identical for
                                          every N and cache setting;
                                          --check-timeout SECS bounds each
                                          check's wall clock — a check past
                                          the deadline is recorded as a
                                          timeout fault, not a verdict, and
                                          the sweep continues (note: real
                                          timeouts are machine-dependent,
                                          so timed-out reports are not
                                          byte-reproducible); --retries N
                                          retries timed-out checks with
                                          backoff before recording them;
                                          --fsync sets journal durability
                                          (default: never; flush-per-record
                                          always holds); --chaos SPEC
                                          injects deterministic faults
                                          (site[:param]%denom;... over
                                          sites check.panic, check.timeout,
                                          check.delay, task.panic,
                                          journal.torn) seeded by
                                          --chaos-seed; --trace FILE writes
                                          a Chrome trace_event JSON
                                          timeline (load in
                                          ui.perfetto.dev); --metrics
                                          prints per-stage wall-time
                                          percentiles and counters to
                                          stderr and writes them to
                                          <journal>.metrics.json;
                                          --progress controls the stderr
                                          progress line (default: auto,
                                          shown only on a TTY)
";

/// Flags that take no value (everything else consumes the next argument).
const BOOL_FLAGS: &[&str] = &[
    "--resume",
    "--full",
    "--json",
    "--problems",
    "--no-dedup",
    "--metrics",
    "--stdio",
    "--verbose",
];

/// Value of `--name value` or `--name=value`.
fn flag_value<'a>(rest: &'a [&String], name: &str) -> Option<&'a str> {
    for (i, a) in rest.iter().enumerate() {
        if *a == name {
            return rest.get(i + 1).map(|s| s.as_str());
        }
        if let Some(v) = a.strip_prefix(name).and_then(|v| v.strip_prefix('=')) {
            return Some(v);
        }
    }
    None
}

fn has_flag(rest: &[&String], name: &str) -> bool {
    rest.iter().any(|a| *a == name)
}

fn positional<'a>(rest: &'a [&String]) -> Vec<&'a str> {
    let mut out = Vec::new();
    let mut skip = false;
    for (i, a) in rest.iter().enumerate() {
        if skip {
            skip = false;
            continue;
        }
        if a.starts_with("--") {
            // `--name=value` is self-contained; `--name value` consumes
            // the next argument unless it's a value-less flag.
            skip =
                !a.contains('=') && !BOOL_FLAGS.contains(&a.as_str()) && rest.get(i + 1).is_some();
            continue;
        }
        out.push(a.as_str());
    }
    out
}

fn read_file(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
}

fn cmd_check(rest: &[&String]) -> Result<(), String> {
    let pos = positional(rest);
    let path = pos.first().ok_or("usage: vgen check <file.v>")?;
    let src = read_file(path)?;
    let file = vgen::verilog::parse(&src).map_err(|e| e.render_named(path, &src))?;
    for m in &file.modules {
        vgen::sim::elab::elaborate(&file, &m.name)
            .map_err(|e| format!("module `{}`: {e}", m.name))?;
        println!("module `{}`: OK", m.name);
    }
    Ok(())
}

/// One linted source: display name, text, and its report.
struct LintedFile {
    name: String,
    src: String,
    report: vgen::lint::LintReport,
}

fn cmd_lint(rest: &[&String]) -> Result<(), String> {
    let json = has_flag(rest, "--json");
    let mut linted: Vec<LintedFile> = Vec::new();
    if has_flag(rest, "--problems") {
        // The golden set: every reference solution and testbench.
        for p in vgen::problems::problems() {
            for (name, src) in [
                (format!("problem{:02}.v", p.id), p.reference_source()),
                (format!("problem{:02}_tb.v", p.id), p.testbench.to_string()),
            ] {
                let report =
                    vgen::lint::lint_source(&src).map_err(|e| e.render_named(&name, &src))?;
                linted.push(LintedFile { name, src, report });
            }
        }
    } else {
        let pos = positional(rest);
        if pos.is_empty() {
            return Err("usage: vgen lint <file.v>... [--json] | vgen lint --problems".into());
        }
        for path in pos {
            let src = read_file(path)?;
            let report = vgen::lint::lint_source(&src).map_err(|e| e.render_named(path, &src))?;
            linted.push(LintedFile {
                name: path.to_string(),
                src,
                report,
            });
        }
    }
    if json {
        print!("{}", lint_reports_json(&linted));
    } else {
        for f in &linted {
            print!("{}", f.report.render(&f.name, &f.src));
        }
        let errors: u32 = linted.iter().map(|f| f.report.error_count()).sum();
        let warnings: u32 = linted.iter().map(|f| f.report.warning_count()).sum();
        println!(
            "{} file(s) linted: {errors} error(s), {warnings} warning(s)",
            linted.len()
        );
    }
    if linted.iter().any(|f| f.report.has_errors()) {
        Err("lint reported errors".into())
    } else {
        Ok(())
    }
}

/// Merges per-file JSON diagnostic arrays into one flat array (each entry
/// already names its file).
fn lint_reports_json(linted: &[LintedFile]) -> String {
    let mut items: Vec<String> = Vec::new();
    for f in linted {
        let arr = f.report.to_json(&f.name, &f.src);
        let inner = arr
            .trim()
            .trim_start_matches('[')
            .trim_end_matches(']')
            .trim();
        if !inner.is_empty() {
            items.push(inner.to_string());
        }
    }
    if items.is_empty() {
        "[]\n".to_string()
    } else {
        format!("[\n  {}\n]\n", items.join(",\n  "))
    }
}

fn cmd_sim(rest: &[&String]) -> Result<(), String> {
    let pos = positional(rest);
    let path = pos.first().ok_or("usage: vgen sim <file.v> [--top M]")?;
    let src = read_file(path)?;
    let top = flag_value(rest, "--top");
    let max_time: u64 = flag_value(rest, "--max-time")
        .map(|v| v.parse().map_err(|_| "bad --max-time"))
        .transpose()?
        .unwrap_or(1_000_000);
    let config = vgen::sim::SimConfig {
        max_time,
        ..Default::default()
    };
    let out = vgen::sim::simulate(&src, top, config).map_err(|e| e.to_string())?;
    print!("{}", out.stdout);
    eprintln!(
        "[{} @ t={} after {} steps]",
        reason_str(&out.reason),
        out.time,
        out.steps
    );
    if let Some(vcd_path) = flag_value(rest, "--vcd") {
        match &out.vcd {
            Some(text) => {
                std::fs::write(vcd_path, text)
                    .map_err(|e| format!("cannot write `{vcd_path}`: {e}"))?;
                eprintln!("[wrote {vcd_path}]");
            }
            None => eprintln!("[no $dumpvars executed; VCD not written]"),
        }
    }
    Ok(())
}

fn reason_str(r: &vgen::sim::StopReason) -> String {
    use vgen::sim::StopReason::*;
    match r {
        Finish => "$finish".into(),
        Stop => "$stop".into(),
        Quiescent => "event queue empty".into(),
        TimeLimit => "time limit".into(),
        StepBudget => "step budget exhausted (hung?)".into(),
        Cancelled => "cancelled (check deadline)".into(),
        RuntimeError(m) => format!("runtime error: {m}"),
    }
}

fn cmd_synth(rest: &[&String]) -> Result<(), String> {
    let pos = positional(rest);
    let path = pos.first().ok_or("usage: vgen synth <file.v>")?;
    let src = read_file(path)?;
    let result = vgen::synth::synthesize_source(&src).map_err(|e| e.to_string())?;
    println!("{}", result.netlist.summary());
    let map = vgen::verilog::span::LineMap::new(&src);
    for w in &result.warnings {
        println!(
            "warning: {path}:{}: {}",
            map.line_col(w.span.start),
            w.message
        );
    }
    Ok(())
}

fn cmd_problems() -> Result<(), String> {
    println!("Paper benchmark (Table II):");
    for p in vgen::problems::problems() {
        println!("{:>2}  {:<12}  {}", p.id, p.difficulty.to_string(), p.name);
    }
    println!("\nExtended set (held out, not in the paper):");
    for p in vgen::problems::extended_problems() {
        println!("{:>2}  {:<12}  {}", p.id, p.difficulty.to_string(), p.name);
    }
    Ok(())
}

fn parse_level(s: Option<&str>) -> Result<vgen::problems::PromptLevel, String> {
    use vgen::problems::PromptLevel::*;
    match s.unwrap_or("M") {
        "L" | "l" | "low" => Ok(Low),
        "M" | "m" | "medium" => Ok(Medium),
        "H" | "h" | "high" => Ok(High),
        other => Err(format!("bad level `{other}` (use L, M or H)")),
    }
}

/// Looks up a problem by id, in the paper set or the extended set.
fn parse_problem(id: &str) -> Result<&'static vgen::problems::Problem, String> {
    let max = vgen::problems::problems().len() + vgen::problems::extended_problems().len();
    let bad = || format!("problem id must be 1-{max}");
    vgen::problems::problem(id.parse().map_err(|_| bad())?).ok_or_else(bad)
}

fn cmd_prompt(rest: &[&String]) -> Result<(), String> {
    let pos = positional(rest);
    let id = pos
        .first()
        .ok_or("usage: vgen prompt <id> [--level L|M|H]")?;
    let level = parse_level(flag_value(rest, "--level"))?;
    let p = parse_problem(id)?;
    print!("{}", p.prompt(level));
    Ok(())
}

fn cmd_eval(rest: &[&String]) -> Result<(), String> {
    if let Some(journal) = flag_value(rest, "--journal") {
        return cmd_eval_grid(rest, journal);
    }
    let pos = positional(rest);
    let path = pos
        .first()
        .ok_or("usage: vgen eval <file.v> --problem <id>")?;
    let p = parse_problem(flag_value(rest, "--problem").ok_or("missing --problem <id>")?)?;
    let full = read_file(path)?;
    // Extract just the DUT module (the file may also hold a testbench).
    let src = match vgen::verilog::parse(&full) {
        Ok(file) => match file.module(p.module_name) {
            Some(m) => full[m.span.start as usize..m.span.end as usize].to_string(),
            None => full.clone(),
        },
        Err(_) => full.clone(),
    };
    // Check and synthesis both run under the panic guard, so a harness
    // bug prints as a fault instead of aborting the CLI.
    let (outcome, synth) =
        vgen::core::synthcheck::check_tiers(p, &src, vgen::sim::SimConfig::default());
    let (compiled, functional) = (outcome.compiled(), outcome.passed());
    println!("problem {}: {}", p.id, p.name);
    println!("  compiles:     {}", yesno(compiled));
    println!("  synthesizes:  {}", yesno(synth == Ok(true)));
    println!("  functional:   {}", yesno(functional));
    use vgen::core::CheckOutcome::*;
    if let CompileFail(m) | SimulationFail(m) | HarnessFault(m) = &outcome {
        println!("  detail: {m}");
    }
    if let Err(m) = &synth {
        println!("  synthesis harness fault: {m}");
    }
    if functional {
        Ok(())
    } else {
        Err("candidate does not pass".into())
    }
}

/// Grid evaluation with an on-disk journal: sweep the calibrated family
/// engine over an evaluation grid, appending each record to `--journal` so
/// a killed run can be picked up again with `--resume`.
///
/// Since the service refactor this is a thin client of
/// [`vgen::serve::Service`] — the same code path the daemon runs — with a
/// sink that re-renders progress events as the classic stderr line. The
/// stdout report stays byte-identical to what the pre-service CLI
/// printed (the CI determinism gate diffs it).
fn cmd_eval_grid(rest: &[&String], journal: &str) -> Result<(), String> {
    use std::io::IsTerminal;
    use vgen::serve::{EvalRequest, EventSink, Service};

    let progress = match flag_value(rest, "--progress").unwrap_or("auto") {
        "auto" => std::io::stdout().is_terminal(),
        "always" => true,
        "never" => false,
        other => {
            return Err(format!(
                "bad --progress `{other}` (use auto, always or never)"
            ))
        }
    };
    let check_timeout = match flag_value(rest, "--check-timeout") {
        None => None,
        Some(t) => Some(
            t.parse::<f64>()
                .ok()
                .filter(|s| *s > 0.0 && s.is_finite())
                .ok_or_else(|| format!("bad --check-timeout `{t}` (positive seconds)"))?,
        ),
    };
    let retries = match flag_value(rest, "--retries") {
        None => 0,
        Some(r) => r
            .parse()
            .map_err(|_| format!("bad --retries `{r}` (use a non-negative integer)"))?,
    };
    let chaos_seed: u64 = match flag_value(rest, "--chaos-seed") {
        Some(seed) => seed
            .parse()
            .map_err(|_| format!("bad --chaos-seed `{seed}` (use an unsigned integer)"))?,
        None => 0,
    };
    let trace_path = flag_value(rest, "--trace");
    let metrics = has_flag(rest, "--metrics");
    let req = EvalRequest {
        journal: journal.to_string(),
        resume: has_flag(rest, "--resume"),
        model: flag_value(rest, "--model")
            .unwrap_or("CodeGen-16B")
            .to_string(),
        tuning: flag_value(rest, "--tuning").unwrap_or("ft").to_string(),
        full: has_flag(rest, "--full"),
        jobs: parse_jobs(flag_value(rest, "--jobs"))?,
        dedup: !has_flag(rest, "--no-dedup"),
        check_timeout,
        retries,
        chaos: flag_value(rest, "--chaos").map(str::to_string),
        chaos_seed,
        fsync: flag_value(rest, "--fsync").unwrap_or("never").to_string(),
        // Tracing is write-only from the pipeline's perspective: enabling
        // it cannot change a byte of the report or journal (CI verifies
        // this).
        metrics: trace_path.is_some() || metrics,
        seed: 42,
        progress_every: 1,
        problems: None,
        temperatures: None,
        ns: None,
        levels: None,
    };
    // Execution details go to stderr; the stdout report stays
    // byte-identical across worker counts and cache settings (the CI
    // determinism gate diffs it).
    let opts_probe = vgen::core::SweepOptions {
        jobs: req.jobs,
        ..Default::default()
    };
    eprintln!("[eval] {} worker(s)", opts_probe.effective_jobs());
    let sink: std::sync::Arc<dyn EventSink> = std::sync::Arc::new(CliSink::new(progress));
    let cancel = vgen::obs::CancelToken::unlimited();
    let outcome = Service.eval(&req, &cancel, &sink)?;
    if req.resume {
        let stats = &outcome.stats;
        let repairs = if stats.repaired_lines > 0 {
            format!(
                " ({} torn/corrupt line(s) dropped by recovery)",
                stats.repaired_lines
            )
        } else {
            String::new()
        };
        eprintln!(
            "[eval] resumed {} record(s) from journal{repairs}",
            stats.resumed_records
        );
    }
    eprintln!(
        "[eval] {} checks run, {} dedup cache hits ({:.0}%)",
        outcome.stats.checks_run,
        outcome.stats.cache_hits,
        outcome.stats.hit_rate() * 100.0
    );
    if let Some(report) = &outcome.obs {
        if let Some(path) = trace_path {
            std::fs::write(path, vgen::obs::trace::chrome_trace_json(report))
                .map_err(|e| format!("cannot write `{path}`: {e}"))?;
            eprintln!("[obs] wrote Chrome trace to {path}");
        }
        if metrics {
            eprint!("{}", vgen::obs::summary::render_metrics(report));
            let metrics_path = format!("{journal}.metrics.json");
            std::fs::write(&metrics_path, vgen::obs::summary::metrics_json(report))
                .map_err(|e| format!("cannot write `{metrics_path}`: {e}"))?;
            eprintln!("[obs] wrote metrics JSON to {metrics_path}");
        }
    }
    match outcome.report {
        Some(report) => {
            print!("{report}");
            Ok(())
        }
        None => Err(format!(
            "sweep cancelled after {} of {} record(s)",
            outcome.done, outcome.total
        )),
    }
}

/// Re-renders service progress events as the classic one-line stderr
/// progress display (throttled, with a checks/s rate over this run).
struct CliSink {
    enabled: bool,
    state: std::sync::Mutex<CliProgress>,
}

struct CliProgress {
    started: std::time::Instant,
    last_print: std::time::Instant,
    completed_this_run: usize,
    printed: bool,
}

impl CliSink {
    const PRINT_EVERY: std::time::Duration = std::time::Duration::from_millis(250);

    fn new(enabled: bool) -> Self {
        let now = std::time::Instant::now();
        CliSink {
            enabled,
            state: std::sync::Mutex::new(CliProgress {
                started: now,
                // Backdate so the first completed check prints immediately.
                last_print: now - Self::PRINT_EVERY,
                completed_this_run: 0,
                printed: false,
            }),
        }
    }
}

impl Drop for CliSink {
    fn drop(&mut self) {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.printed {
            eprintln!();
        }
    }
}

impl vgen::serve::EventSink for CliSink {
    fn event(&self, event: &vgen::serve::Event) {
        use vgen::serve::Event;
        match event {
            Event::Progress { done, total, .. } => {
                if !self.enabled {
                    return;
                }
                let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
                state.completed_this_run += 1;
                if state.last_print.elapsed() >= Self::PRINT_EVERY || done == total {
                    let rate = state.completed_this_run as f64
                        / state.started.elapsed().as_secs_f64().max(1e-9);
                    eprint!("\r[eval] {done}/{total} checks  {rate:.1} checks/s   ");
                    state.last_print = std::time::Instant::now();
                    state.printed = true;
                }
            }
            Event::Log { message } => eprintln!("[eval] {message}"),
            _ => {}
        }
    }
}

/// Runs the eval daemon on a unix socket (`--socket PATH`) or over
/// stdin/stdout (`--stdio`).
fn cmd_serve(rest: &[&String]) -> Result<(), String> {
    let opts = vgen::serve::DaemonOptions {
        verbose: has_flag(rest, "--verbose"),
    };
    if has_flag(rest, "--stdio") {
        return vgen::serve::serve_stdio().map_err(|e| e.to_string());
    }
    let socket = flag_value(rest, "--socket")
        .ok_or("usage: vgen serve --socket PATH [--verbose] | vgen serve --stdio")?;
    vgen::serve::serve_unix(std::path::Path::new(socket), &opts).map_err(|e| e.to_string())
}

/// Sends one JSON request line to a daemon socket, streams its events to
/// stderr, prints an eval report to stdout, and exits non-zero on an
/// `error`/`cancelled` terminal event.
fn cmd_client(rest: &[&String]) -> Result<(), String> {
    let socket = flag_value(rest, "--socket").ok_or("usage: vgen client --socket PATH '<json>'")?;
    let pos = positional(rest);
    let request = pos
        .first()
        .ok_or("usage: vgen client --socket PATH '<json>'")?;
    let mut events = std::io::stderr();
    let outcome =
        vgen::serve::request_over_unix(std::path::Path::new(socket), request, &mut events)
            .map_err(|e| e.to_string())?;
    if let Some(report) = &outcome.report {
        print!("{report}");
    }
    if outcome.ok {
        Ok(())
    } else {
        Err(format!("request failed: {}", outcome.terminal))
    }
}

/// Live terminal status view of a daemon: subscribes to the metrics
/// stream and renders one frame per interval. On a TTY each frame redraws
/// in place (ANSI home + clear); otherwise one summary line per interval,
/// so `vgen top ... --frames 3 | cat` works in scripts.
fn cmd_top(rest: &[&String]) -> Result<(), String> {
    use std::io::{BufRead, IsTerminal, Write};

    let socket = flag_value(rest, "--socket")
        .ok_or("usage: vgen top --socket PATH [--interval SECS] [--frames N]")?;
    let interval_s: f64 =
        match flag_value(rest, "--interval") {
            None => 1.0,
            Some(s) => s.parse::<f64>().ok().filter(|v| *v > 0.0).ok_or_else(|| {
                format!("bad --interval `{s}` (use a positive number of seconds)")
            })?,
        };
    let frames: u64 = match flag_value(rest, "--frames") {
        None => 0,
        Some(s) => s
            .parse()
            .map_err(|_| format!("bad --frames `{s}` (use a non-negative integer)"))?,
    };
    let interval_ms = (interval_s * 1000.0).round().max(10.0) as u64;

    // Retry while a just-launched daemon binds its socket (same window as
    // the client).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let stream = loop {
        match std::os::unix::net::UnixStream::connect(socket) {
            Ok(s) => break s,
            Err(e) => {
                if std::time::Instant::now() >= deadline {
                    return Err(format!("cannot connect to `{socket}`: {e}"));
                }
                std::thread::sleep(std::time::Duration::from_millis(100));
            }
        }
    };
    let mut write_half = stream.try_clone().map_err(|e| e.to_string())?;
    writeln!(
        write_half,
        "{{\"id\": 1, \"cmd\": \"subscribe\", \"interval_ms\": {interval_ms}, \"count\": {frames}}}"
    )
    .map_err(|e| e.to_string())?;
    write_half.flush().map_err(|e| e.to_string())?;

    let tty = std::io::stdout().is_terminal();
    let reader = std::io::BufReader::new(stream);
    for line in reader.lines() {
        let line = line.map_err(|e| e.to_string())?;
        if line.trim().is_empty() {
            continue;
        }
        let Ok(parsed) = vgen::serve::Json::parse(&line) else {
            continue;
        };
        match parsed.get("event").and_then(vgen::serve::Json::as_str) {
            Some("metrics") => {
                let Some(metrics) = parsed.get("metrics") else {
                    continue;
                };
                if tty {
                    // Home + clear-to-end redraw keeps the frame flicker-free.
                    print!("\x1b[H\x1b[2J{}", render_top_frame(metrics, socket));
                } else {
                    println!("{}", render_top_line(metrics));
                }
                std::io::stdout().flush().map_err(|e| e.to_string())?;
            }
            Some("done") => return Ok(()),
            Some("cancelled") => return Ok(()),
            Some("error") => {
                let msg = parsed
                    .get("message")
                    .and_then(vgen::serve::Json::as_str)
                    .unwrap_or("unknown error");
                return Err(format!("daemon error: {msg}"));
            }
            _ => {}
        }
    }
    Ok(())
}

/// One-line (non-TTY) rendering of a metrics frame.
fn render_top_line(metrics: &vgen::serve::Json) -> String {
    use vgen::serve::Json;
    let num = |key: &str| metrics.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    let counter = |key: &str| {
        metrics
            .get("counters")
            .and_then(|c| c.get(key))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    let active = match metrics.get("requests") {
        Some(Json::Arr(reqs)) => reqs.len(),
        _ => 0,
    };
    format!(
        "epoch {} active {} done {}/{} pass {} fail {} fault {} util {:.0}%",
        num("epoch") as u64,
        active,
        counter("sweep.items_done"),
        counter("sweep.items_total"),
        counter("sweep.items_pass"),
        counter("sweep.items_fail"),
        counter("sweep.items_fault"),
        num("utilization") * 100.0,
    )
}

/// Full-screen (TTY) rendering of a metrics frame.
fn render_top_frame(metrics: &vgen::serve::Json, socket: &str) -> String {
    use vgen::serve::Json;
    let num = |key: &str| metrics.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    let mut out = format!(
        "vgen top — {socket}   epoch {}   wall {:.1}s   utilization {:.0}%\n\n",
        num("epoch") as u64,
        num("wall_ns") / 1e9,
        num("utilization") * 100.0,
    );

    out.push_str("active requests:\n");
    match metrics.get("requests") {
        Some(Json::Arr(reqs)) if !reqs.is_empty() => {
            for r in reqs {
                let rnum = |key: &str| r.get(key).and_then(Json::as_f64).unwrap_or(0.0);
                let done = rnum("done") as u64;
                let total = rnum("total") as u64;
                let bar = progress_bar(done, total, 30);
                let eta = r
                    .get("eta_s")
                    .and_then(Json::as_f64)
                    .map(|e| format!("  eta {e:.0}s"))
                    .unwrap_or_default();
                out.push_str(&format!(
                    "  #{:<4} {:<6} {bar} {done}/{total}  pass {} fail {} fault {}{eta}\n",
                    rnum("id") as u64,
                    r.get("cmd").and_then(Json::as_str).unwrap_or("?"),
                    rnum("pass") as u64,
                    rnum("fail") as u64,
                    rnum("fault") as u64,
                ));
            }
        }
        _ => out.push_str("  (idle)\n"),
    }

    if let Some(Json::Obj(stages)) = metrics.get("stages") {
        if !stages.is_empty() {
            out.push_str(&format!(
                "\n{:<18} {:>8} {:>9} {:>9}\n",
                "stage (ms)", "count", "p50", "p99"
            ));
            for (name, h) in stages {
                let hnum = |key: &str| h.get(key).and_then(Json::as_f64).unwrap_or(0.0);
                out.push_str(&format!(
                    "{name:<18} {:>8} {:>9.3} {:>9.3}\n",
                    hnum("count") as u64,
                    hnum("p50_ns") / 1e6,
                    hnum("p99_ns") / 1e6,
                ));
            }
        }
    }

    if let Some(Json::Obj(counters)) = metrics.get("counters") {
        let interesting: Vec<_> = counters
            .iter()
            .filter(|(name, _)| {
                name.starts_with("sweep.")
                    || name.starts_with("serve.")
                    || name.starts_with("guard.")
                    || name.starts_with("fault.")
            })
            .collect();
        if !interesting.is_empty() {
            out.push_str("\ncounters:\n");
            for (name, n) in interesting {
                out.push_str(&format!("  {name:<24} {}\n", n.as_u64().unwrap_or(0)));
            }
        }
    }
    out
}

fn progress_bar(done: u64, total: u64, width: usize) -> String {
    let filled = if total == 0 {
        0
    } else {
        (done as usize * width) / total as usize
    }
    .min(width);
    format!("[{}{}]", "#".repeat(filled), "-".repeat(width - filled))
}

/// Parses `--jobs`: a positive worker count, or `0`/`auto`/absent for the
/// machine's available parallelism.
fn parse_jobs(arg: Option<&str>) -> Result<usize, String> {
    match arg {
        None | Some("auto") | Some("0") => Ok(0),
        Some(s) => s
            .parse::<usize>()
            .map_err(|_| format!("bad --jobs `{s}` (use a positive integer or `auto`)")),
    }
}

fn yesno(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "no"
    }
}
