//! The event-driven scheduler.
//!
//! Implements the IEEE 1364 stratified event queue for the constructs the
//! benchmark needs: an **active** region (process resumption, blocking
//! assignments, continuous re-evaluation), an **inactive** region (`#0`
//! delays), an **NBA** region (non-blocking assignment commits) and a
//! **monitor** phase at the end of each time step. Future events live in a
//! min-heap of `(time, seq)`-stamped entries; the sequence counter keeps
//! wakeups at the same timestamp in FIFO order.
//!
//! Every process is a tiny VM over [`Instr`]; blocking
//! on a delay or event just parks the program counter.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

use vgen_verilog::value::LogicVec;

use crate::design::*;
use crate::interp::*;
use crate::systasks::{format_display, FormatValue};

/// Simulation limits: wall-clock-free safety nets against runaway designs
/// (LLM-generated code regularly contains unintentional infinite loops).
///
/// Construct via the `Default`-preserving builder so adding limits does not
/// break call sites:
///
/// ```
/// use vgen_sim::SimConfig;
/// let cfg = SimConfig::default().with_max_time(1000).with_max_steps(100_000);
/// assert_eq!(cfg.max_time, 1000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Simulation stops after this simulated time.
    pub max_time: u64,
    /// Total instruction budget across all processes.
    pub max_steps: u64,
    /// Byte cap on `$display`/`$write`/`$monitor` output; a flood degrades
    /// to [`StopReason::RuntimeError`] instead of unbounded allocation.
    pub max_output_bytes: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            max_time: 1_000_000,
            max_steps: 5_000_000,
            max_output_bytes: 1 << 20,
        }
    }
}

impl SimConfig {
    /// Returns the config with `max_time` replaced.
    pub fn with_max_time(mut self, max_time: u64) -> Self {
        self.max_time = max_time;
        self
    }

    /// Returns the config with `max_steps` replaced.
    pub fn with_max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }
}

/// Instructions executed between [`CancelToken`](vgen_obs::CancelToken)
/// polls. At tens of millions of interpreter steps per second this costs a
/// few thousand clock reads per second — unmeasurable — while a runaway
/// (but budget-legal) design observes its deadline within well under a
/// millisecond of work.
pub const CANCEL_POLL_STEPS: u64 = 4096;

/// Why the simulation ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StopReason {
    /// `$finish` was executed.
    Finish,
    /// `$stop` was executed (treated as a clean stop).
    Stop,
    /// No more events — the design quiesced.
    Quiescent,
    /// The configured `max_time` was reached.
    TimeLimit,
    /// The instruction budget ran out (infinite loop / hung design).
    StepBudget,
    /// A [`CancelToken`](vgen_obs::cancel::CancelToken) tripped — the
    /// supervising check's wall-clock deadline passed mid-simulation.
    Cancelled,
    /// A runtime error aborted the simulation.
    RuntimeError(String),
}

impl StopReason {
    /// Whether the run ended in a state the harness may trust: the design
    /// either finished cleanly or simply ran out of events.
    pub fn is_clean(&self) -> bool {
        matches!(
            self,
            StopReason::Finish | StopReason::Stop | StopReason::Quiescent
        )
    }
}

/// The result of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutput {
    /// Everything printed by `$display`/`$write`/`$monitor`.
    pub stdout: String,
    /// Final simulation time.
    pub time: u64,
    /// Why the run ended.
    pub reason: StopReason,
    /// Total instructions executed (for benchmarking).
    pub steps: u64,
    /// VCD waveform text, present when the design executed `$dumpvars`.
    pub vcd: Option<String>,
}

#[derive(Debug, Clone)]
enum Status {
    /// Queued somewhere; will resume at `pc`.
    Idle,
    /// Parked on an event list. `last` caches each term's previous value.
    Waiting { last: Vec<LogicVec> },
    /// Parked on a level-sensitive `wait (cond)`.
    WaitingCond,
    /// Finished.
    Done,
}

#[derive(Debug, Clone)]
struct ProcState {
    pc: usize,
    status: Status,
}

#[derive(Debug, Clone)]
struct MonitorSpec {
    args: Vec<EExpr>,
    /// `None` until the first end-of-step flush (which always prints).
    last_rendered: Option<String>,
}

/// A scheduled process wakeup. Ordered by `(time, seq)` so a min-heap pops
/// timestamps in order and, within one timestamp, in scheduling (FIFO) order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FutureEvent {
    time: u64,
    seq: u64,
    pid: ProcessId,
}

impl Ord for FutureEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for FutureEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Width of the calendar-wheel near window, one bit per timestamp.
const WHEEL_SLOTS: u64 = 64;

/// Two-level future-event queue: a 64-slot calendar wheel (bitmask-indexed,
/// O(1) next-event lookup) covers the near window `[base, base + 64)`; a
/// binary heap holds everything beyond it. Periodic delay loops
/// (`always #5 clk = ~clk`) live entirely in the wheel — no sift traffic —
/// while long one-shot delays pay the heap cost once. Events at one
/// timestamp stay in scheduling (FIFO) order: wheel slots append in `seq`
/// order and the far heap is `(time, seq)`-ordered, and refills always move
/// *every* far event inside the new window, so the heap never holds a
/// timestamp the wheel also covers.
#[derive(Debug)]
struct FutureQueue {
    /// First timestamp covered by the wheel window. Never exceeds the
    /// earliest pending event, and pushes never target the past, so slot
    /// lookups are a simple offset.
    base: u64,
    /// Bit `i` set ⇔ `slots[i]` is non-empty.
    mask: u64,
    /// FIFO wakeup lists for timestamps `base + i`.
    slots: [Vec<ProcessId>; WHEEL_SLOTS as usize],
    /// Events at or beyond `base + WHEEL_SLOTS`.
    far: BinaryHeap<Reverse<FutureEvent>>,
    /// Monotonic push counter: FIFO tie-break in `far` and the
    /// `sim.future_events` total.
    seq: u64,
    /// Live event count, for the queue-depth gauge.
    len: u64,
}

impl FutureQueue {
    fn new() -> Self {
        FutureQueue {
            base: 0,
            mask: 0,
            slots: std::array::from_fn(|_| Vec::new()),
            far: BinaryHeap::new(),
            seq: 0,
            len: 0,
        }
    }

    #[inline]
    fn push(&mut self, time: u64, pid: ProcessId) {
        debug_assert!(time >= self.base, "scheduling into the past");
        let seq = self.seq;
        self.seq += 1;
        self.len += 1;
        if time.wrapping_sub(self.base) < WHEEL_SLOTS {
            let idx = (time % WHEEL_SLOTS) as usize;
            self.mask |= 1 << idx;
            self.slots[idx].push(pid);
        } else {
            self.far.push(Reverse(FutureEvent { time, seq, pid }));
        }
    }

    /// Slides the window start to `to` and pulls every far event that the
    /// widened window now covers. Maintains the invariant that `far` never
    /// holds a timestamp inside `[base, base + WHEEL_SLOTS)` — which is what
    /// makes same-timestamp FIFO order hold: while the invariant does, a
    /// wheel push can never land in front of an older event still in `far`.
    #[inline]
    fn advance(&mut self, to: u64) {
        self.base = to;
        while let Some(&Reverse(ev)) = self.far.peek() {
            if ev.time.wrapping_sub(to) >= WHEEL_SLOTS {
                break;
            }
            self.far.pop();
            let idx = (ev.time % WHEEL_SLOTS) as usize;
            self.mask |= 1 << idx;
            self.slots[idx].push(ev.pid);
        }
    }

    /// Earliest pending timestamp, jumping the window forward (and pulling
    /// far events into it) when the wheel is exhausted.
    fn next_time(&mut self) -> Option<u64> {
        if self.mask == 0 {
            let to = self.far.peek()?.0.time;
            self.advance(to);
        }
        // Slots are indexed `time % WHEEL_SLOTS`; rotating the mask so the
        // window start sits at bit 0 turns "earliest pending" back into
        // trailing_zeros.
        let rot = self.mask.rotate_right((self.base % WHEEL_SLOTS) as u32);
        Some(self.base + u64::from(rot.trailing_zeros()))
    }

    /// Moves every event at `time` — which must be the value `next_time`
    /// just returned — into `active`, in scheduling order.
    fn drain_into(&mut self, time: u64, active: &mut VecDeque<ProcessId>) {
        // Everything before `time` has drained, so the window can start
        // here; advancing now keeps the far heap from accumulating events
        // as simulation time outruns a stationary window.
        self.advance(time);
        let idx = (time % WHEEL_SLOTS) as usize;
        self.mask &= !(1 << idx);
        let slot = &mut self.slots[idx];
        self.len -= slot.len() as u64;
        for pid in slot.drain(..) {
            active.push_back(pid);
        }
    }
}

/// The event-driven simulator.
///
/// ```
/// use vgen_sim::Simulator;
/// use vgen_verilog::parse;
/// let src = "module t; initial begin $display(\"hello\"); $finish; end endmodule";
/// let file = parse(src)?;
/// let design = vgen_sim::elab::elaborate(&file, "t")?;
/// let out = Simulator::new(design).run();
/// assert!(out.stdout.contains("hello"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Simulator {
    design: Arc<Design>,
    state: State,
    config: SimConfig,
    procs: Vec<ProcState>,
    active: VecDeque<ProcessId>,
    inactive: Vec<ProcessId>,
    nba: Vec<(ResolvedLValue, LogicVec)>,
    /// Reusable change buffer for NBA commits (recycles its capacity
    /// across time slots).
    nba_changes: Changes,
    future: FutureQueue,
    stdout: String,
    monitor: Option<MonitorSpec>,
    vcd: Option<crate::vcd::VcdRecorder>,
    steps: u64,
    stop: Option<StopReason>,
    cancel: vgen_obs::CancelToken,
    /// High-water mark of the future-event heap, emitted once at the end of
    /// the run instead of per `schedule_at` call.
    queue_depth_max: u64,
}

impl Simulator {
    /// Creates a simulator with default limits.
    pub fn new(design: Design) -> Self {
        Self::with_config(design, SimConfig::default())
    }

    /// Creates a simulator with explicit limits.
    pub fn with_config(design: Design, config: SimConfig) -> Self {
        let state = State::new(&design);
        let procs = design
            .processes
            .iter()
            .map(|_| ProcState {
                pc: 0,
                status: Status::Idle,
            })
            .collect();
        Simulator {
            state,
            config,
            procs,
            active: VecDeque::new(),
            inactive: Vec::new(),
            nba: Vec::new(),
            nba_changes: Changes::default(),
            future: FutureQueue::new(),
            stdout: String::new(),
            monitor: None,
            vcd: None,
            steps: 0,
            stop: None,
            cancel: vgen_obs::CancelToken::unlimited(),
            queue_depth_max: 0,
            design: Arc::new(design),
        }
    }

    /// Attaches a cooperative cancellation token. The scheduler polls it
    /// every [`CANCEL_POLL_STEPS`] instructions; when it trips, the run
    /// stops with [`StopReason::Cancelled`].
    pub fn cancelled_by(mut self, cancel: vgen_obs::CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Parks `pid` to resume at simulation time `time`. The queue-depth
    /// gauge is tracked locally and emitted once at the end of the run —
    /// `schedule_at` is too hot for a per-call metrics write.
    fn schedule_at(&mut self, time: u64, pid: ProcessId) {
        self.future.push(time, pid);
        self.queue_depth_max = self.queue_depth_max.max(self.future.len);
    }

    /// The elaborated design being simulated.
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// The current state (inspect after [`run`](Self::run)).
    pub fn state(&self) -> &State {
        &self.state
    }

    /// Runs to completion and returns the output.
    pub fn run(mut self) -> SimOutput {
        let _span = vgen_obs::span("simulate");
        // One refcount bump for the whole run: NBA commits borrow the
        // design while `&mut self` applies the writes.
        let design = Arc::clone(&self.design);
        // Time 0: every process starts.
        for i in 0..self.procs.len() {
            self.active.push_back(ProcessId(i as u32));
        }
        loop {
            // Drain one simulation time step.
            loop {
                if self.stop.is_some() {
                    break;
                }
                if let Some(pid) = self.active.pop_front() {
                    self.run_process(pid);
                } else if !self.inactive.is_empty() {
                    for pid in std::mem::take(&mut self.inactive) {
                        self.active.push_back(pid);
                    }
                } else if !self.nba.is_empty() {
                    self.commit_nba(&design);
                } else {
                    break;
                }
            }
            self.flush_monitor();
            if self.stop.is_some() {
                break;
            }
            // Advance time: move everything scheduled for the earliest
            // pending timestamp into the active region, in FIFO order.
            match self.future.next_time() {
                Some(t) => {
                    if t > self.config.max_time {
                        self.stop = Some(StopReason::TimeLimit);
                        break;
                    }
                    self.state.time = t;
                    self.future.drain_into(t, &mut self.active);
                }
                None => {
                    self.stop = Some(StopReason::Quiescent);
                    break;
                }
            }
        }
        vgen_obs::counter_add("sim.steps", self.steps);
        vgen_obs::counter_add("sim.future_events", self.future.seq);
        if self.future.seq > 0 {
            vgen_obs::gauge_max("sim.queue_depth", self.queue_depth_max);
        }
        SimOutput {
            vcd: self.vcd.take().map(|r| r.render(&self.design)),
            stdout: self.stdout,
            time: self.state.time,
            reason: self.stop.unwrap_or(StopReason::Quiescent),
            steps: self.steps,
        }
    }

    fn run_process(&mut self, pid: ProcessId) {
        let idx = pid.0 as usize;
        if matches!(self.procs[idx].status, Status::Done) {
            return;
        }
        self.procs[idx].status = Status::Idle;
        // Clone the `Arc`, not the instructions: the code stream stays
        // borrowable while `&mut self` evaluation runs.
        let design = Arc::clone(&self.design);
        let code = &design.processes[idx].code;
        loop {
            if self.steps >= self.config.max_steps {
                self.stop = Some(StopReason::StepBudget);
                return;
            }
            self.steps += 1;
            if self.steps.is_multiple_of(CANCEL_POLL_STEPS) && self.cancel.poll() {
                self.stop = Some(StopReason::Cancelled);
                return;
            }
            let pc = self.procs[idx].pc;
            let Some(instr) = code.get(pc) else {
                self.procs[idx].status = Status::Done;
                return;
            };
            match instr {
                Instr::Assign { lv, rhs } => {
                    let result = self.eval(rhs).and_then(|value| {
                        let resolved = resolve_lvalue(&self.design, &mut self.state, lv)?;
                        Ok((resolved, value))
                    });
                    match result {
                        Ok((resolved, value)) => {
                            let mut changes = Changes::default();
                            apply_write(
                                &self.design,
                                &mut self.state,
                                &resolved,
                                &value,
                                &mut changes,
                            );
                            self.procs[idx].pc = pc + 1;
                            self.propagate(&changes);
                        }
                        Err(e) => {
                            self.abort(e);
                            return;
                        }
                    }
                }
                Instr::AssignNba { lv, rhs } => {
                    let result = self.eval(rhs).and_then(|value| {
                        let resolved = resolve_lvalue(&self.design, &mut self.state, lv)?;
                        Ok((resolved, value))
                    });
                    match result {
                        Ok((resolved, value)) => {
                            self.nba.push((resolved, value));
                            self.procs[idx].pc = pc + 1;
                        }
                        Err(e) => {
                            self.abort(e);
                            return;
                        }
                    }
                }
                Instr::Jump(t) => {
                    self.procs[idx].pc = *t;
                }
                Instr::JumpIfFalse { cond, target } => match self.eval(cond) {
                    Ok(v) => {
                        self.procs[idx].pc = if v.truthiness() == Some(true) {
                            pc + 1
                        } else {
                            *target
                        };
                    }
                    Err(e) => {
                        self.abort(e);
                        return;
                    }
                },
                Instr::JumpIfNoMatch {
                    kind,
                    sel,
                    label,
                    target,
                } => {
                    let matched = self.eval(sel).and_then(|s| {
                        let l = self.eval(label)?;
                        Ok(match kind {
                            vgen_verilog::ast::CaseKind::Exact => s.case_eq(&l).to_u64() == Some(1),
                            vgen_verilog::ast::CaseKind::Z => s.case_matches(&l, false),
                            vgen_verilog::ast::CaseKind::X => s.case_matches(&l, true),
                        })
                    });
                    match matched {
                        Ok(true) => self.procs[idx].pc = pc + 1,
                        Ok(false) => self.procs[idx].pc = *target,
                        Err(e) => {
                            self.abort(e);
                            return;
                        }
                    }
                }
                Instr::Delay(amount) => {
                    let amt = match self.eval(amount) {
                        Ok(v) => v.to_u64().unwrap_or(0),
                        Err(e) => {
                            self.abort(e);
                            return;
                        }
                    };
                    self.procs[idx].pc = pc + 1;
                    if amt == 0 {
                        self.inactive.push(pid);
                    } else {
                        self.schedule_at(self.state.time + amt, pid);
                    }
                    return;
                }
                Instr::WaitEvent(sens) => {
                    if sens.terms.is_empty() && sens.mems.is_empty() {
                        // Nothing can ever wake this process.
                        self.procs[idx].status = Status::Done;
                        return;
                    }
                    let mut last = Vec::with_capacity(sens.terms.len());
                    for term in &sens.terms {
                        match self.eval(&term.expr) {
                            Ok(v) => last.push(v),
                            Err(e) => {
                                self.abort(e);
                                return;
                            }
                        }
                    }
                    self.procs[idx].pc = pc + 1;
                    self.procs[idx].status = Status::Waiting { last };
                    return;
                }
                Instr::WaitCond(cond) => match self.eval(cond) {
                    Ok(v) => {
                        if v.truthiness() == Some(true) {
                            self.procs[idx].pc = pc + 1;
                        } else {
                            self.procs[idx].status = Status::WaitingCond;
                            // pc stays on the WaitCond; re-checked on wake.
                            return;
                        }
                    }
                    Err(e) => {
                        self.abort(e);
                        return;
                    }
                },
                Instr::SysCall { name, args } => {
                    if let Err(e) = self.sys_task(idx, name, args) {
                        self.abort(e);
                        return;
                    }
                    self.procs[idx].pc = pc + 1;
                    if self.stop.is_some() {
                        return;
                    }
                }
                Instr::End => {
                    self.procs[idx].status = Status::Done;
                    return;
                }
            }
        }
    }

    fn eval(&mut self, e: &EExpr) -> Result<LogicVec, RuntimeError> {
        eval(&self.design, &mut self.state, e)
    }

    fn abort(&mut self, e: RuntimeError) {
        self.stop = Some(StopReason::RuntimeError(e.message));
    }

    /// Appends to the captured output, enforcing `max_output_bytes`: a
    /// `$display`/`$monitor` flood stops the run with a [`RuntimeError`]
    /// instead of allocating without bound.
    fn emit(&mut self, text: &str) {
        let cap = self.config.max_output_bytes;
        if self.stdout.len() + text.len() > cap {
            let mut cut = cap.saturating_sub(self.stdout.len()).min(text.len());
            while cut > 0 && !text.is_char_boundary(cut) {
                cut -= 1;
            }
            self.stdout.push_str(&text[..cut]);
            if self.stop.is_none() {
                self.stop = Some(StopReason::RuntimeError(format!(
                    "output limit exceeded ({cap} bytes); $display/$monitor flood?"
                )));
            }
            return;
        }
        self.stdout.push_str(text);
    }

    fn commit_nba(&mut self, design: &Design) {
        let mut changes = std::mem::take(&mut self.nba_changes);
        let mut pending = std::mem::take(&mut self.nba);
        for (lv, value) in pending.drain(..) {
            apply_write_owned(design, &mut self.state, &lv, value, &mut changes);
        }
        // Hand the drained queue's capacity back for the next slot.
        self.nba = pending;
        self.propagate(&changes);
        changes.signals.clear();
        changes.mems.clear();
        self.nba_changes = changes;
    }

    /// Wakes processes sensitive to any of `changes`.
    fn propagate(&mut self, changes: &Changes) {
        if changes.is_empty() {
            return;
        }
        if let Some(vcd) = &mut self.vcd {
            for (sig, _) in &changes.signals {
                vcd.record(
                    self.state.time,
                    *sig,
                    self.state.signals[sig.0 as usize].clone(),
                );
            }
        }
        for i in 0..self.procs.len() {
            match &self.procs[i].status {
                Status::Waiting { .. } => {
                    let pid = ProcessId(i as u32);
                    if self.check_wake(pid, changes) {
                        self.procs[i].status = Status::Idle;
                        self.active.push_back(pid);
                    }
                }
                Status::WaitingCond => {
                    // Re-run the process; the WaitCond instruction itself
                    // re-evaluates and re-parks if still false.
                    let pid = ProcessId(i as u32);
                    self.procs[i].status = Status::Idle;
                    self.active.push_back(pid);
                }
                _ => {}
            }
        }
    }

    /// Re-evaluates the sensitivity terms of a waiting process against the
    /// new state, updating its cached values; returns true if it must wake.
    fn check_wake(&mut self, pid: ProcessId, changes: &Changes) -> bool {
        let idx = pid.0 as usize;
        // The WaitEvent instruction sits just before the stored pc.
        let wait_pc = self.procs[idx].pc.saturating_sub(1);
        let design = Arc::clone(&self.design);
        let Instr::WaitEvent(sens) = &design.processes[idx].code[wait_pc] else {
            return true;
        };
        let mut woke = sens.mems.iter().any(|m| changes.mems.contains(m));
        // Disjoint borrows: the cached values live in `procs`, evaluation
        // only needs `state`, so the cache is refreshed in place.
        let Status::Waiting { last } = &mut self.procs[idx].status else {
            return true;
        };
        for (i, term) in sens.terms.iter().enumerate() {
            // Fast path: a bare signal term (`@(posedge clk)` and friends)
            // compares against the live value in place instead of cloning it
            // through the evaluator; the cache is only refreshed on change.
            if let EExpr::Signal(sid) = &term.expr {
                let now = &self.state.signals[sid.0 as usize];
                let prev = &last[i];
                if prev == now {
                    continue;
                }
                let triggered = match term.edge {
                    None => true,
                    Some(edge) => is_edge(prev.bit(0), now.bit(0), edge),
                };
                if triggered {
                    woke = true;
                }
                last[i] = now.clone();
                continue;
            }
            let Ok(now) = eval(&design, &mut self.state, &term.expr) else {
                continue;
            };
            let prev = &last[i];
            let triggered = match term.edge {
                None => *prev != now,
                Some(edge) => is_edge(prev.bit(0), now.bit(0), edge),
            };
            if triggered {
                woke = true;
            }
            // Keep the refreshed value so future comparisons see transitions.
            last[i] = now;
        }
        woke
    }

    fn flush_monitor(&mut self) {
        // Cheap early-out first: this runs once per time slot, and most
        // runs never register a $monitor.
        if self.monitor.is_none() {
            return;
        }
        // Take the spec out instead of cloning its argument expressions;
        // it is put back (possibly with a new cached rendering) below.
        let Some(mut spec) = self.monitor.take() else {
            return;
        };
        let rendered = match self.render_display(&spec.args) {
            Ok(s) => s,
            Err(_) => {
                self.monitor = Some(spec);
                return;
            }
        };
        if spec.last_rendered.as_deref() != Some(&rendered) {
            self.emit(&rendered);
            self.emit("\n");
            spec.last_rendered = Some(rendered);
        }
        self.monitor = Some(spec);
    }

    fn render_display(&mut self, args: &[EExpr]) -> Result<String, RuntimeError> {
        let mut fmt: Option<String> = None;
        let mut values = Vec::new();
        for (i, a) in args.iter().enumerate() {
            match a {
                EExpr::Str(s) if i == 0 => fmt = Some(s.clone()),
                EExpr::Str(s) => values.push(FormatValue::Str(s.clone())),
                other => values.push(FormatValue::Value(self.eval(other)?)),
            }
        }
        Ok(format_display(fmt.as_deref(), &values, &self.design.top))
    }

    fn sys_task(
        &mut self,
        proc_idx: usize,
        name: &str,
        args: &[EExpr],
    ) -> Result<(), RuntimeError> {
        match name {
            "display" | "displayb" | "displayh" | "strobe" => {
                let line = self.render_display(args)?;
                self.emit(&line);
                self.emit("\n");
            }
            "write" => {
                let line = self.render_display(args)?;
                self.emit(&line);
            }
            "error" | "warning" | "info" | "fatal" => {
                // SystemVerilog-style severity tasks appear in LLM output;
                // render like $display with a severity prefix.
                let line = self.render_display(args)?;
                self.emit(&format!("{}: {line}\n", name.to_uppercase()));
                if name == "fatal" && self.stop.is_none() {
                    self.stop = Some(StopReason::Finish);
                }
            }
            "monitor" => {
                // Registered now; first output happens at end of this time
                // step (IEEE 1364 §17.1).
                self.monitor = Some(MonitorSpec {
                    args: args.to_vec(),
                    last_rendered: None,
                });
            }
            "monitoron" | "monitoroff" => {}
            "finish" => self.stop = Some(StopReason::Finish),
            "stop" => self.stop = Some(StopReason::Stop),
            "dumpvars" => {
                if self.vcd.is_none() {
                    self.vcd = Some(crate::vcd::VcdRecorder::new(
                        self.state.time,
                        self.state.signals.clone(),
                    ));
                }
            }
            "dumpfile" | "dumpon" | "dumpoff" | "timeformat" => {}
            "readmemh" | "readmemb" => {
                return Err(RuntimeError::new(format!(
                    "${name} is not supported (no filesystem in the sandbox)"
                )))
            }
            other => {
                let _ = proc_idx;
                return Err(RuntimeError::new(format!("unknown system task `${other}`")));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elab::elaborate_first;
    use vgen_verilog::parse;

    fn run(src: &str) -> SimOutput {
        let f = parse(src).expect("parse");
        let d = elaborate_first(&f).expect("elab");
        Simulator::new(d).run()
    }

    #[test]
    fn hello_world() {
        let out =
            run("module t; initial begin $display(\"hello %0d\", 42); $finish; end endmodule");
        assert_eq!(out.stdout, "hello 42\n");
        assert_eq!(out.reason, StopReason::Finish);
    }

    #[test]
    fn delays_advance_time() {
        let out = run(
            "module t; initial begin #5 $display(\"a=%0t\", $time); #10 $display(\"b=%0t\", $time); $finish; end endmodule",
        );
        assert_eq!(out.stdout, "a=5\nb=15\n");
        assert_eq!(out.time, 15);
    }

    #[test]
    fn continuous_assign_tracks_inputs() {
        let out = run(
            "module t;\nreg a, b;\nwire y;\nassign y = a & b;\ninitial begin\n\
             a = 1; b = 0; #1 $display(\"y=%b\", y);\nb = 1; #1 $display(\"y=%b\", y);\n$finish; end\nendmodule",
        );
        assert_eq!(out.stdout, "y=0\ny=1\n");
    }

    #[test]
    fn clock_and_posedge_counter() {
        let out = run(
            "module t;\nreg clk, reset;\nreg [3:0] q;\n\
             always @(posedge clk) begin\nif (reset) q <= 0;\nelse q <= q + 1;\nend\n\
             initial begin\nclk = 0; reset = 1;\n#12 reset = 0;\n#100 $display(\"q=%0d\", q);\n$finish;\nend\n\
             always #5 clk = ~clk;\nendmodule",
        );
        // clk edges at 5,15,25,... reset drops at 12. Posedges at 15..105:
        // at t=112-ish we've counted edges 15,25,...,105 → 10 increments.
        assert_eq!(out.stdout, "q=10\n");
    }

    #[test]
    fn nonblocking_swap() {
        let out = run("module t;\nreg [3:0] a, b;\ninitial begin\na = 1; b = 2;\n\
             a <= b; b <= a;\n#1 $display(\"%0d %0d\", a, b);\n$finish;\nend\nendmodule");
        assert_eq!(out.stdout, "2 1\n");
    }

    #[test]
    fn blocking_vs_nonblocking_ordering() {
        let out = run(
            "module t;\nreg [3:0] a;\ninitial begin\na = 1;\na <= 5;\n\
             $display(\"before=%0d\", a);\n#0 $display(\"after=%0d\", a);\n$finish;\nend\nendmodule",
        );
        // The NBA commits after active events: the #0 re-activation still
        // precedes... no: #0 goes to inactive, which drains before NBA.
        assert_eq!(out.stdout, "before=1\nafter=1\n");
    }

    #[test]
    fn nba_visible_after_delay() {
        let out = run("module t;\nreg [3:0] a;\ninitial begin\na = 1;\na <= 5;\n\
             #1 $display(\"after=%0d\", a);\n$finish;\nend\nendmodule");
        assert_eq!(out.stdout, "after=5\n");
    }

    #[test]
    fn star_sensitivity_combinational() {
        let out = run("module t;\nreg a, b;\nreg y;\nalways @(*) y = a ^ b;\n\
             initial begin\na = 0; b = 0;\n#1 a = 1;\n#1 $display(\"y=%b\", y);\n\
             b = 1;\n#1 $display(\"y=%b\", y);\n$finish;\nend\nendmodule");
        assert_eq!(out.stdout, "y=1\ny=0\n");
    }

    #[test]
    fn case_statement_runtime() {
        let out = run("module t;\nreg [1:0] s;\nreg [3:0] y;\n\
             always @(*) begin\ncase (s)\n2'b00: y = 4'd1;\n2'b01: y = 4'd2;\n\
             default: y = 4'd9;\nendcase\nend\n\
             initial begin\ns = 0; #1 $display(\"%0d\", y);\ns = 1; #1 $display(\"%0d\", y);\n\
             s = 3; #1 $display(\"%0d\", y);\n$finish;\nend\nendmodule");
        assert_eq!(out.stdout, "1\n2\n9\n");
    }

    #[test]
    fn memory_read_write() {
        let out = run(
            "module t;\nreg [7:0] mem [0:7];\ninteger i;\ninitial begin\n\
             for (i = 0; i < 8; i = i + 1) mem[i] = i * 3;\n\
             $display(\"%0d %0d\", mem[0], mem[7]);\n$finish;\nend\nendmodule",
        );
        assert_eq!(out.stdout, "0 21\n");
    }

    #[test]
    fn hierarchical_instance_simulation() {
        let out = run(
            "module t;\nreg a, b;\nwire s, c;\nha u(.a(a), .b(b), .sum(s), .carry(c));\n\
             initial begin\na = 1; b = 1;\n#1 $display(\"s=%b c=%b\", s, c);\n$finish;\nend\nendmodule\n\
             module ha(input a, b, output sum, carry);\nassign sum = a ^ b;\nassign carry = a & b;\nendmodule",
        );
        assert_eq!(out.stdout, "s=0 c=1\n");
    }

    #[test]
    fn infinite_loop_hits_step_budget() {
        let f = parse("module t;\nreg x;\ninitial x = 0;\nalways begin x = ~x; end\nendmodule")
            .expect("parse");
        let d = elaborate_first(&f).expect("elab");
        let out = Simulator::with_config(
            d,
            SimConfig::default()
                .with_max_time(100)
                .with_max_steps(10_000),
        )
        .run();
        assert_eq!(out.reason, StopReason::StepBudget);
    }

    #[test]
    fn quiescent_without_finish() {
        let out = run("module t; reg a; initial a = 1; endmodule");
        assert_eq!(out.reason, StopReason::Quiescent);
    }

    #[test]
    fn time_limit() {
        let f = parse("module t;\nreg clk;\ninitial clk = 0;\nalways #5 clk = ~clk;\nendmodule")
            .expect("parse");
        let d = elaborate_first(&f).expect("elab");
        let out = Simulator::with_config(
            d,
            SimConfig::default()
                .with_max_time(50)
                .with_max_steps(1_000_000),
        )
        .run();
        assert_eq!(out.reason, StopReason::TimeLimit);
    }

    #[test]
    fn monitor_prints_on_change() {
        let out = run(
            "module t;\nreg [3:0] v;\ninitial begin\n$monitor(\"v=%0d\", v);\n\
             v = 1;\n#1 v = 2;\n#1 v = 2;\n#1 v = 3;\n#1 $finish;\nend\nendmodule",
        );
        // First output at the end of time step 0 (v already 1 by then);
        // repeated values are suppressed.
        assert_eq!(out.stdout, "v=1\nv=2\nv=3\n");
    }

    #[test]
    fn wait_statement() {
        let out = run(
            "module t;\nreg go;\ninitial begin\ngo = 0;\n#7 go = 1;\nend\n\
             initial begin\nwait (go);\n$display(\"went at %0t\", $time);\n$finish;\nend\nendmodule",
        );
        assert_eq!(out.stdout, "went at 7\n");
    }

    #[test]
    fn negedge_detection() {
        let out = run(
            "module t;\nreg clk;\nreg seen;\nalways @(negedge clk) begin\n\
             seen = 1;\n$display(\"neg at %0t\", $time);\n$finish;\nend\n\
             initial begin\nclk = 1;\n#5 clk = 0;\n#5 clk = 1;\nend\nendmodule",
        );
        // The x→1 transition at t=0 is a posedge (ignored); 1→0 at t=5 fires.
        assert_eq!(out.stdout, "neg at 5\n");
    }

    #[test]
    fn unknown_system_task_aborts() {
        let out = run("module t; initial $bogus(1); endmodule");
        assert!(matches!(out.reason, StopReason::RuntimeError(_)));
    }

    #[test]
    fn repeat_event_controls() {
        let out = run(
            "module t;\nreg clk;\ninitial clk = 0;\nalways #5 clk = ~clk;\n\
             initial begin\nrepeat (3) @(posedge clk);\n$display(\"t=%0t\", $time);\n$finish;\nend\nendmodule",
        );
        assert_eq!(out.stdout, "t=25\n");
    }

    #[test]
    fn xz_initial_state_propagates() {
        let out = run(
            "module t;\nreg a;\nwire y;\nassign y = a & 1'b1;\n\
             initial begin\n#1 $display(\"y=%b\", y);\na = 0;\n#1 $display(\"y=%b\", y);\n$finish;\nend\nendmodule",
        );
        assert_eq!(out.stdout, "y=x\ny=0\n");
    }

    #[test]
    fn intra_assignment_delay() {
        let out = run("module t;\nreg a, b;\ninitial begin\na = 1;\nb = #3 a;\n\
             $display(\"b=%b t=%0t\", b, $time);\n$finish;\nend\nendmodule");
        assert_eq!(out.stdout, "b=1 t=3\n");
    }

    #[test]
    fn dumpvars_produces_vcd() {
        let out = run(
            "module t;\nreg clk;\nreg [3:0] q;\ninitial begin\n$dumpvars;\n\
             clk = 0; q = 0;\n#5 clk = 1; q = 4'd3;\n#5 clk = 0;\n$finish;\nend\nendmodule",
        );
        let vcd = out.vcd.expect("dumpvars enables VCD");
        assert!(vcd.contains("$enddefinitions"));
        assert!(vcd.contains("$var wire 1"));
        assert!(vcd.contains("$var wire 4"));
        assert!(vcd.contains("#5"));
        assert!(vcd.contains("b0011"));
    }

    #[test]
    fn no_dumpvars_no_vcd() {
        let out = run("module t; initial $finish; endmodule");
        assert!(out.vcd.is_none());
    }

    #[test]
    fn user_function_in_continuous_assign() {
        let out = run("module t;\nreg [3:0] a;\nwire [3:0] y;\n\
             function [3:0] double;\ninput [3:0] v;\ndouble = v << 1;\nendfunction\n\
             assign y = double(a);\n\
             initial begin\na = 4'd3;\n#1 $display(\"y=%0d\", y);\n\
             a = 4'd5;\n#1 $display(\"y=%0d\", y);\n$finish;\nend\nendmodule");
        assert_eq!(out.stdout, "y=6\ny=10\n");
    }

    #[test]
    fn user_function_with_loop_and_local() {
        let out = run("module t;\nreg [7:0] a;\nreg [3:0] n;\n\
             function [3:0] popcount;\ninput [7:0] v;\ninteger i;\nbegin\n\
             popcount = 0;\nfor (i = 0; i < 8; i = i + 1)\n\
             popcount = popcount + {3'b000, v[i]};\nend\nendfunction\n\
             initial begin\na = 8'b1011_0110;\nn = popcount(a);\n\
             $display(\"n=%0d\", n);\n$finish;\nend\nendmodule");
        assert_eq!(out.stdout, "n=5\n");
    }

    #[test]
    fn function_calling_function() {
        let out = run(
            "module t;\nreg [3:0] x;\nwire [3:0] y;\n\
             function [3:0] inc;\ninput [3:0] v;\ninc = v + 1;\nendfunction\n\
             function [3:0] inc2;\ninput [3:0] v;\ninc2 = inc(inc(v));\nendfunction\n\
             assign y = inc2(x);\ninitial begin\nx = 4'd7;\n#1 $display(\"%0d\", y);\n$finish;\nend\nendmodule",
        );
        assert_eq!(out.stdout, "9\n");
    }

    #[test]
    fn recursive_function_is_runtime_error() {
        let out = run("module t;\nreg [3:0] x;\n\
             function [3:0] loopy;\ninput [3:0] v;\nloopy = loopy(v);\nendfunction\n\
             initial begin\nx = loopy(4'd1);\n$finish;\nend\nendmodule");
        assert!(matches!(out.reason, StopReason::RuntimeError(_)));
    }

    #[test]
    fn function_reading_module_signal_wakes_star_block() {
        // `limit` is read inside the function only; the @* block must still
        // re-evaluate when it changes.
        let out = run("module t;\nreg [3:0] a, limit;\nreg over;\n\
             function check;\ninput [3:0] v;\ncheck = (v > limit);\nendfunction\n\
             always @(*) over = check(a);\n\
             initial begin\na = 4'd5; limit = 4'd7;\n#1 $display(\"%b\", over);\n\
             limit = 4'd3;\n#1 $display(\"%b\", over);\n$finish;\nend\nendmodule");
        assert_eq!(out.stdout, "0\n1\n");
    }

    #[test]
    fn signed_arithmetic_end_to_end() {
        let out = run("module t;\nreg signed [7:0] a, b;\nwire signed [7:0] s;\n\
             assign s = a + b;\ninitial begin\na = -8'd100; b = -8'd50;\n\
             #1 $display(\"%0d\", s);\n$finish;\nend\nendmodule");
        // -150 wraps to 106 in 8 bits.
        assert_eq!(out.stdout, "106\n");
    }
}
