//! `sim_throughput` — simulation hot-path throughput after the word-packed
//! `LogicVec` rewrite.
//!
//! Three measurements, written to `BENCH_sim.json` under
//! `target/experiments/` (and to a `--out` path for CI artifact pickup):
//!
//! 1. **Vector ops** — 64-, 128- and 256-bit and/or/xor/add/eq/lt throughput
//!    of the packed representation against an embedded per-bit baseline
//!    (the pre-rewrite one-`Logic`-per-bit loop). The 64-bit packed ops
//!    must be at least 3× the per-bit baseline or the binary exits
//!    non-zero; the wide (>64-bit, boxed-slice) floor is reported as
//!    `min_speedup_wide` for the regression tracker but is not a hard
//!    gate (wide words are where the word-parallel fast paths land).
//! 2. **Cycle-heavy simulation** — a clocked counter-bank testbench (eight
//!    processes, each chaining eight 64-bit accumulators per posedge) run
//!    through the full event loop, reported as simulated cycles and steps
//!    per second.
//! 3. **Dedup cache** — a quick evaluation sweep with the completion-dedup
//!    cache on vs off: hit rate and wall-clock both ways, with the runs
//!    compared for equality (the cache must never change results).
//!
//! ```text
//! cargo run --release -p vgen-bench --bin sim_throughput            # full
//! cargo run --release -p vgen-bench --bin sim_throughput -- --quick # CI smoke
//! ```

use std::hint::black_box;
use std::time::Instant;

use vgen_bench::write_artifact;
use vgen_core::{run_engine_sweep, EvalConfig, SweepHooks, SweepOptions, SweepStats};
use vgen_corpus::CorpusSource;
use vgen_lm::{FamilyEngine, ModelFamily, ModelId, Tuning};
use vgen_problems::PromptLevel;
use vgen_sim::SimConfig;
use vgen_verilog::value::LogicVec;

/// The pre-rewrite representation, kept here as the baseline under test:
/// one `Logic` per bit, operators as per-bit loops, arithmetic through
/// `to_u64`. Only the benchmarked subset is ported.
mod perbit {
    use vgen_verilog::value::Logic;

    pub struct PbVec {
        bits: Vec<Logic>,
    }

    impl PbVec {
        pub fn from_u64(v: u64, width: usize) -> Self {
            PbVec {
                bits: (0..width)
                    .map(|i| {
                        if i < 64 {
                            Logic::from_bool((v >> i) & 1 == 1)
                        } else {
                            Logic::Zero
                        }
                    })
                    .collect(),
            }
        }

        fn bit(&self, i: usize) -> Logic {
            self.bits.get(i).copied().unwrap_or(Logic::X)
        }

        fn has_unknown(&self) -> bool {
            self.bits.iter().any(|b| b.is_unknown())
        }

        fn to_u64(&self) -> Option<u64> {
            let mut v = 0u64;
            for (i, b) in self.bits.iter().enumerate() {
                match b.to_bool() {
                    Some(true) if i >= 64 => return None,
                    Some(true) => v |= 1 << i,
                    Some(false) => {}
                    None => return None,
                }
            }
            Some(v)
        }

        fn resize(&self, width: usize) -> PbVec {
            let mut bits = self.bits.clone();
            if width < bits.len() {
                bits.truncate(width);
            } else {
                let top = *bits.last().expect("non-empty");
                let ext = match top {
                    Logic::X => Logic::X,
                    Logic::Z => Logic::Z,
                    _ => Logic::Zero,
                };
                bits.resize(width, ext);
            }
            PbVec { bits }
        }

        fn bitwise2(&self, rhs: &PbVec, f: impl Fn(Logic, Logic) -> Logic) -> PbVec {
            let w = self.bits.len().max(rhs.bits.len());
            let a = self.resize(w);
            let b = rhs.resize(w);
            PbVec {
                bits: (0..w).map(|i| f(a.bit(i), b.bit(i))).collect(),
            }
        }

        pub fn bit_and(&self, rhs: &PbVec) -> PbVec {
            self.bitwise2(rhs, Logic::and)
        }

        pub fn bit_or(&self, rhs: &PbVec) -> PbVec {
            self.bitwise2(rhs, Logic::or)
        }

        pub fn bit_xor(&self, rhs: &PbVec) -> PbVec {
            self.bitwise2(rhs, Logic::xor)
        }

        pub fn add(&self, rhs: &PbVec) -> PbVec {
            let w = self.bits.len().max(rhs.bits.len());
            match (self.resize(w).to_u64(), rhs.resize(w).to_u64()) {
                (Some(a), Some(b)) => PbVec::from_u64(a.wrapping_add(b), w),
                _ => PbVec {
                    bits: vec![Logic::X; w],
                },
            }
        }

        pub fn eq_logic(&self, rhs: &PbVec) -> PbVec {
            let w = self.bits.len().max(rhs.bits.len());
            let a = self.resize(w);
            let b = rhs.resize(w);
            if a.has_unknown() || b.has_unknown() {
                return PbVec {
                    bits: vec![Logic::X],
                };
            }
            PbVec::from_u64((a.bits == b.bits) as u64, 1)
        }

        pub fn lt(&self, rhs: &PbVec) -> PbVec {
            let w = self.bits.len().max(rhs.bits.len());
            match (self.resize(w).to_u64(), rhs.resize(w).to_u64()) {
                (Some(a), Some(b)) => PbVec::from_u64((a < b) as u64, 1),
                _ => PbVec {
                    bits: vec![Logic::X],
                },
            }
        }
    }
}

/// One vector-op measurement: packed vs per-bit Mops/s and the ratio.
struct OpSample {
    op: &'static str,
    width: usize,
    packed_mops: f64,
    perbit_mops: f64,
    speedup: f64,
}

/// Times `iters` calls of `f`, returning ops/second.
fn ops_per_sec(iters: u64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    iters as f64 / start.elapsed().as_secs_f64()
}

fn measure_vector_ops(quick: bool) -> Vec<OpSample> {
    let packed_iters: u64 = if quick { 200_000 } else { 2_000_000 };
    let perbit_iters: u64 = if quick { 20_000 } else { 200_000 };
    let mut samples = Vec::new();
    for &width in &[64usize, 128, 256] {
        let pa = LogicVec::from_u64(0xDEAD_BEEF_CAFE_F00D, width);
        let pb = LogicVec::from_u64(0x0123_4567_89AB_CDEF, width);
        let ba = perbit::PbVec::from_u64(0xDEAD_BEEF_CAFE_F00D, width);
        let bb = perbit::PbVec::from_u64(0x0123_4567_89AB_CDEF, width);
        type PackedOp = fn(&LogicVec, &LogicVec) -> LogicVec;
        type PerbitOp = fn(&perbit::PbVec, &perbit::PbVec) -> perbit::PbVec;
        let ops: [(&'static str, PackedOp, PerbitOp); 6] = [
            ("and", LogicVec::bit_and, perbit::PbVec::bit_and),
            ("or", LogicVec::bit_or, perbit::PbVec::bit_or),
            ("xor", LogicVec::bit_xor, perbit::PbVec::bit_xor),
            ("add", LogicVec::add, perbit::PbVec::add),
            ("eq", LogicVec::eq_logic, perbit::PbVec::eq_logic),
            ("lt", LogicVec::lt, perbit::PbVec::lt),
        ];
        for (op, packed_f, perbit_f) in ops {
            let packed = ops_per_sec(packed_iters, || {
                black_box(packed_f(black_box(&pa), black_box(&pb)));
            });
            let perbit = ops_per_sec(perbit_iters, || {
                black_box(perbit_f(black_box(&ba), black_box(&bb)));
            });
            samples.push(OpSample {
                op,
                width,
                packed_mops: packed / 1e6,
                perbit_mops: perbit / 1e6,
                speedup: packed / perbit,
            });
        }
    }
    samples
}

/// Clocked processes sharing one clock, each owning a chain of 64-bit
/// accumulators (`PROCS` × `BANK` signals updated per posedge).
const PROCS: usize = 8;
const BANK: usize = 8;

/// The counter-bank testbench: exercises edge detection, the future-event
/// queue, and — at `PROCS * BANK` writes per cycle — the per-write wake
/// machinery, which re-scans every parked process per write. `acc0_0`
/// counts clock cycles, so the result is still checkable as a counter.
fn counter_testbench(cycles: u64) -> String {
    let mut src = String::from("module tb;\nreg clk;\n");
    for p in 0..PROCS {
        for i in 0..BANK {
            src.push_str(&format!("reg [63:0] acc{p}_{i};\n"));
        }
    }
    src.push_str("initial begin clk = 0; ");
    for p in 0..PROCS {
        for i in 0..BANK {
            src.push_str(&format!("acc{p}_{i} = 0; "));
        }
    }
    src.push_str("end\n");
    src.push_str("always #5 clk = ~clk;\n");
    for p in 0..PROCS {
        src.push_str("always @(posedge clk) begin\n");
        src.push_str(&format!("  acc{p}_0 = acc{p}_0 + 1;\n"));
        for i in 1..BANK {
            src.push_str(&format!("  acc{p}_{i} = acc{p}_{i} + acc{p}_{};\n", i - 1));
        }
        src.push_str("end\n");
    }
    src.push_str(&format!(
        "initial begin #{} $display(\"count=%d\", acc0_0); $finish; end\nendmodule\n",
        cycles * 10
    ));
    src
}

struct SimSample {
    cycles: u64,
    seconds: f64,
    steps: u64,
    cycles_per_sec: f64,
    steps_per_sec: f64,
}

fn measure_sim(quick: bool) -> SimSample {
    let cycles: u64 = if quick { 10_000 } else { 100_000 };
    let src = counter_testbench(cycles);
    let config = SimConfig::default()
        .with_max_time(cycles * 10 + 100)
        .with_max_steps(u64::MAX);
    let start = Instant::now();
    let out = vgen_sim::simulate(&src, Some("tb"), config).expect("counter testbench simulates");
    let seconds = start.elapsed().as_secs_f64();
    let expected = format!("count={:>20}", cycles);
    assert!(
        out.stdout.trim_end().ends_with(expected.trim()),
        "counter miscounted: {:?}",
        out.stdout
    );
    SimSample {
        cycles,
        seconds,
        steps: out.steps,
        cycles_per_sec: cycles as f64 / seconds,
        steps_per_sec: out.steps as f64 / seconds,
    }
}

struct DedupSample {
    stats: SweepStats,
    seconds_cache_on: f64,
    seconds_cache_off: f64,
}

fn sweep_engine() -> FamilyEngine {
    FamilyEngine::new(
        ModelId::new(ModelFamily::CodeGen16B, Tuning::FineTuned),
        CorpusSource::GithubOnly,
        42,
    )
}

fn measure_dedup(quick: bool) -> DedupSample {
    let cfg = EvalConfig {
        temperatures: vec![0.1],
        ns: vec![if quick { 4 } else { 10 }],
        levels: vec![PromptLevel::Low],
        problem_ids: (1..=17).collect(),
        sim: SimConfig::default(),
    };
    let on = SweepOptions::default();
    let off = SweepOptions {
        dedup: false,
        ..SweepOptions::default()
    };
    // Warm-up: builds the mutant banks both timed sweeps then take from the
    // memo, so the cache-on sweep does not pay for them alone.
    let hooks = SweepHooks::default();
    run_engine_sweep(&mut sweep_engine(), &cfg, None, &on, &hooks).expect("warm-up sweep");
    let start = Instant::now();
    let (run_on, stats) =
        run_engine_sweep(&mut sweep_engine(), &cfg, None, &on, &hooks).expect("cached sweep");
    let seconds_cache_on = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let (run_off, _) =
        run_engine_sweep(&mut sweep_engine(), &cfg, None, &off, &hooks).expect("uncached sweep");
    let seconds_cache_off = start.elapsed().as_secs_f64();
    assert_eq!(run_on, run_off, "dedup cache changed sweep results");
    DedupSample {
        stats,
        seconds_cache_on,
        seconds_cache_off,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned();

    println!(
        "sim_throughput: mode={}",
        if quick { "quick" } else { "full" }
    );

    let ops = measure_vector_ops(quick);
    println!("  vector ops (packed vs per-bit):");
    for s in &ops {
        println!(
            "    {:>3}/{:<3}  packed {:>9.1} Mops/s   per-bit {:>7.2} Mops/s   {:>6.1}x",
            s.op, s.width, s.packed_mops, s.perbit_mops, s.speedup
        );
    }
    let min_speedup_64 = ops
        .iter()
        .filter(|s| s.width == 64)
        .map(|s| s.speedup)
        .fold(f64::INFINITY, f64::min);
    let min_speedup_wide = ops
        .iter()
        .filter(|s| s.width > 64)
        .map(|s| s.speedup)
        .fold(f64::INFINITY, f64::min);

    let sim = measure_sim(quick);
    println!(
        "  simulation: {} cycles in {:.3}s = {:.0} cycles/s ({:.2} Msteps/s)",
        sim.cycles,
        sim.seconds,
        sim.cycles_per_sec,
        sim.steps_per_sec / 1e6
    );

    let dedup = measure_dedup(quick);
    println!(
        "  dedup cache: {} checks run, {} hits ({:.0}% hit rate), {:.3}s on vs {:.3}s off",
        dedup.stats.checks_run,
        dedup.stats.cache_hits,
        dedup.stats.hit_rate() * 100.0,
        dedup.seconds_cache_on,
        dedup.seconds_cache_off
    );

    let json = render_json(quick, &ops, min_speedup_64, min_speedup_wide, &sim, &dedup);
    write_artifact("BENCH_sim.json", &json);
    if let Some(path) = out_path {
        match std::fs::write(&path, &json) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("could not write {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    if min_speedup_64 < 3.0 {
        eprintln!(
            "FAIL: 64-bit packed ops only {min_speedup_64:.2}x the per-bit baseline (need 3x)"
        );
        std::process::exit(1);
    }
    println!("  64-bit packed speedup floor: {min_speedup_64:.1}x (>= 3x required)");
    println!(
        "  wide (>64-bit) packed speedup floor: {min_speedup_wide:.1}x (tracked, no hard gate)"
    );
}

/// Hand-rolled JSON (no serde in this environment): a stable, diffable
/// shape for the throughput trajectory.
fn render_json(
    quick: bool,
    ops: &[OpSample],
    min_speedup_64: f64,
    min_speedup_wide: f64,
    sim: &SimSample,
    dedup: &DedupSample,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"benchmark\": \"sim_throughput\",\n");
    out.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if quick { "quick" } else { "full" }
    ));
    out.push_str("  \"vector_ops\": [\n");
    for (i, s) in ops.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"op\": \"{}\", \"width\": {}, \"packed_mops\": {:.2}, \"perbit_mops\": {:.3}, \"speedup\": {:.2}}}{}\n",
            s.op,
            s.width,
            s.packed_mops,
            s.perbit_mops,
            s.speedup,
            if i + 1 < ops.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"min_speedup_64b\": {min_speedup_64:.2},\n"));
    out.push_str(&format!("  \"min_speedup_wide\": {min_speedup_wide:.2},\n"));
    out.push_str(&format!(
        "  \"simulation\": {{\"cycles\": {}, \"seconds\": {:.6}, \"steps\": {}, \"cycles_per_sec\": {:.1}, \"steps_per_sec\": {:.1}}},\n",
        sim.cycles, sim.seconds, sim.steps, sim.cycles_per_sec, sim.steps_per_sec
    ));
    out.push_str(&format!(
        "  \"dedup_cache\": {{\"checks_run\": {}, \"cache_hits\": {}, \"hit_rate\": {:.4}, \"seconds_cache_on\": {:.6}, \"seconds_cache_off\": {:.6}}}\n",
        dedup.stats.checks_run,
        dedup.stats.cache_hits,
        dedup.stats.hit_rate(),
        dedup.seconds_cache_on,
        dedup.seconds_cache_off
    ));
    out.push_str("}\n");
    out
}
