//! Netlist evaluation: cycle-accurate execution of a synthesized
//! [`Netlist`], used to prove netlists equivalent to the event-driven
//! simulator (and to measure activity).

use std::collections::HashMap;

use vgen_verilog::ast::Edge;
use vgen_verilog::value::{Logic, LogicVec};

use crate::netlist::{Cell, NetId, Netlist};

/// A netlist instance with live values on every net.
#[derive(Debug, Clone)]
pub struct NetlistSim {
    netlist: Netlist,
    values: Vec<LogicVec>,
    inputs: HashMap<String, NetId>,
    outputs: HashMap<String, NetId>,
    clk_state: HashMap<NetId, Logic>,
    /// Levelized combinational evaluation order (registers excluded):
    /// guarantees defs-before-uses even if cell construction order ever
    /// stops being SSA-topological.
    order: Vec<u32>,
    /// Combinational logic depth (number of levelized ranks).
    depth: u32,
}

impl NetlistSim {
    /// Creates a simulator with all nets at `x`.
    ///
    /// # Panics
    ///
    /// Panics on a combinational loop — lowering never produces one, so a
    /// loop here is a synthesis bug, not a property of the design.
    pub fn new(netlist: Netlist) -> Self {
        let values = netlist
            .nets
            .iter()
            .map(|n| LogicVec::unknown(n.width).with_signed(n.signed))
            .collect();
        let inputs = netlist.inputs.iter().cloned().collect();
        let outputs = netlist.outputs.iter().cloned().collect();
        let lev = netlist
            .levelize()
            .unwrap_or_else(|c| panic!("combinational loop through cell {c}"));
        let order = lev
            .order
            .iter()
            .copied()
            .filter(|&i| !netlist.cells[i as usize].is_register())
            .collect();
        NetlistSim {
            values,
            inputs,
            outputs,
            clk_state: HashMap::new(),
            order,
            depth: lev.depth,
            netlist,
        }
    }

    /// Combinational logic depth: the number of levelized ranks in the cone
    /// between registers.
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// The underlying netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Drives an input port. Also performs edge detection for clocks: if
    /// the new value completes an armed edge on any flop clock, call
    /// [`NetlistSim::step`] afterwards — or use [`NetlistSim::set_and_step`].
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist.
    pub fn set_input(&mut self, name: &str, value: LogicVec) {
        let id = *self
            .inputs
            .get(name)
            .unwrap_or_else(|| panic!("no input port `{name}`"));
        let width = self.netlist.net(id).width;
        self.values[id.0 as usize] = value.resize(width);
    }

    /// Reads an output port.
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist.
    pub fn output(&self, name: &str) -> LogicVec {
        let id = *self
            .outputs
            .get(name)
            .unwrap_or_else(|| panic!("no output port `{name}`"));
        self.values[id.0 as usize].clone()
    }

    /// Reads any net's current value.
    pub fn value(&self, id: NetId) -> &LogicVec {
        &self.values[id.0 as usize]
    }

    /// Propagates combinational logic (cells in topological order), applies
    /// active asynchronous resets, then propagates again so logic reading
    /// the reset registers sees their new values.
    pub fn settle(&mut self) {
        self.comb_pass();
        let mut any_reset = false;
        for i in 0..self.netlist.cells.len() {
            let Cell::Dff { q, reset, .. } = self.netlist.cells[i].clone() else {
                continue;
            };
            if let Some(r) = reset {
                let active = match r.edge {
                    Edge::Pos => self.values[r.signal.0 as usize].truthiness() == Some(true),
                    Edge::Neg => self.values[r.signal.0 as usize].truthiness() == Some(false),
                };
                if active {
                    let w = self.netlist.net(q).width;
                    let new = self.values[r.value.0 as usize].resize(w);
                    if self.values[q.0 as usize] != new {
                        self.values[q.0 as usize] = new;
                        any_reset = true;
                    }
                }
            }
        }
        if any_reset {
            self.comb_pass();
        }
    }

    fn comb_pass(&mut self) {
        for k in 0..self.order.len() {
            let cell = self.netlist.cells[self.order[k] as usize].clone();
            let out = cell.output();
            let v = self.eval_cell(&cell);
            let w = self.netlist.net(out).width;
            let signed = self.netlist.net(out).signed;
            self.values[out.0 as usize] = v.resize(w).with_signed(signed);
        }
    }

    /// Advances all flops whose clock net shows the armed edge relative to
    /// the last call, then settles. Returns how many flops ticked.
    pub fn step(&mut self) -> usize {
        self.settle();
        // Sample all d inputs first (NBA semantics), then commit.
        let mut updates: Vec<(NetId, LogicVec)> = Vec::new();
        for cell in &self.netlist.cells {
            let Cell::Dff {
                clk,
                edge,
                d,
                q,
                reset,
            } = cell
            else {
                continue;
            };
            let now = self.values[clk.0 as usize].bit(0);
            let prev = self.clk_state.get(clk).copied().unwrap_or(Logic::X);
            let fired = match edge {
                Edge::Pos => {
                    prev != now
                        && matches!(
                            (prev, now),
                            (Logic::Zero, Logic::One)
                                | (Logic::Zero, Logic::X)
                                | (Logic::X, Logic::One)
                                | (Logic::Z, Logic::One)
                                | (Logic::Zero, Logic::Z)
                        )
                }
                Edge::Neg => {
                    prev != now
                        && matches!(
                            (prev, now),
                            (Logic::One, Logic::Zero)
                                | (Logic::One, Logic::X)
                                | (Logic::X, Logic::Zero)
                                | (Logic::Z, Logic::Zero)
                                | (Logic::One, Logic::Z)
                        )
                }
            };
            let reset_active = reset.as_ref().is_some_and(|r| match r.edge {
                Edge::Pos => self.values[r.signal.0 as usize].truthiness() == Some(true),
                Edge::Neg => self.values[r.signal.0 as usize].truthiness() == Some(false),
            });
            if fired && !reset_active {
                updates.push((*q, self.values[d.0 as usize].clone()));
            }
        }
        // Record clock levels for the next edge detection.
        let clks: Vec<NetId> = self
            .netlist
            .cells
            .iter()
            .filter_map(|c| match c {
                Cell::Dff { clk, .. } => Some(*clk),
                _ => None,
            })
            .collect();
        for clk in clks {
            let lvl = self.values[clk.0 as usize].bit(0);
            self.clk_state.insert(clk, lvl);
        }
        let count = updates.len();
        for (q, v) in updates {
            let w = self.netlist.net(q).width;
            self.values[q.0 as usize] = v.resize(w);
        }
        self.settle();
        count
    }

    /// Convenience: drive an input then settle/step.
    pub fn set_and_step(&mut self, name: &str, value: LogicVec) -> usize {
        self.set_input(name, value);
        self.step()
    }

    fn eval_cell(&self, cell: &Cell) -> LogicVec {
        match cell {
            Cell::Const { value, .. } => value.clone(),
            Cell::Unary { op, a, .. } => op.apply(&self.values[a.0 as usize]),
            Cell::Binary { op, a, b, .. } => {
                op.apply(&self.values[a.0 as usize], &self.values[b.0 as usize])
            }
            Cell::Mux { sel, a, b, .. } => match self.values[sel.0 as usize].truthiness() {
                Some(true) => self.values[a.0 as usize].clone(),
                Some(false) => self.values[b.0 as usize].clone(),
                None => {
                    let a = &self.values[a.0 as usize];
                    let b = &self.values[b.0 as usize];
                    let w = a.width().max(b.width());
                    let a = a.resize(w);
                    let b = b.resize(w);
                    let bits = (0..w)
                        .map(|i| {
                            if a.bit(i) == b.bit(i) && !a.bit(i).is_unknown() {
                                a.bit(i)
                            } else {
                                Logic::X
                            }
                        })
                        .collect();
                    LogicVec::from_bits(bits, false)
                }
            },
            Cell::Concat { parts, .. } => {
                let mut acc: Option<LogicVec> = None;
                for p in parts {
                    let v = self.values[p.0 as usize].clone();
                    acc = Some(match acc {
                        None => v,
                        Some(a) => a.concat(&v),
                    });
                }
                acc.unwrap_or_else(|| LogicVec::unknown(1))
            }
            Cell::Slice { a, hi, lo, .. } => self.values[a.0 as usize].select(*hi, *lo),
            Cell::BitSelect {
                a,
                idx,
                lsb_index,
                descending,
                ..
            } => {
                let av = &self.values[a.0 as usize];
                match self.values[idx.0 as usize].to_i64() {
                    Some(i) => {
                        let pos = if *descending {
                            i - lsb_index
                        } else {
                            lsb_index - i
                        };
                        if pos >= 0 && (pos as usize) < av.width() {
                            LogicVec::from_bits(vec![av.bit(pos as usize)], false)
                        } else {
                            LogicVec::unknown(1)
                        }
                    }
                    None => LogicVec::unknown(1),
                }
            }
            Cell::Replicate { a, count, .. } => {
                self.values[a.0 as usize].replicate((*count).max(1))
            }
            Cell::Resize { a, .. } => self.values[a.0 as usize].clone(),
            Cell::Dff { .. } => unreachable!("flops handled in settle/step"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::synthesize;

    fn synth(src: &str) -> NetlistSim {
        let file = vgen_verilog::parse(src).expect("parse");
        let r = synthesize(&file.modules[0]).expect("synthesize");
        NetlistSim::new(r.netlist)
    }

    fn v(x: u64, w: usize) -> LogicVec {
        LogicVec::from_u64(x, w)
    }

    #[test]
    fn and_gate_truth_table() {
        let mut sim = synth("module m(input a, b, output y); assign y = a & b; endmodule");
        for (a, b, y) in [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 1)] {
            sim.set_input("a", v(a, 1));
            sim.set_input("b", v(b, 1));
            sim.settle();
            assert_eq!(sim.output("y").to_u64(), Some(y));
        }
    }

    #[test]
    fn mux_synthesis() {
        let mut sim =
            synth("module m(input a, b, sel, output y); assign y = sel ? b : a; endmodule");
        sim.set_input("a", v(1, 1));
        sim.set_input("b", v(0, 1));
        sim.set_input("sel", v(0, 1));
        sim.settle();
        assert_eq!(sim.output("y").to_u64(), Some(1));
        sim.set_input("sel", v(1, 1));
        sim.settle();
        assert_eq!(sim.output("y").to_u64(), Some(0));
    }

    #[test]
    fn comb_always_case() {
        let mut sim = synth(
            "module m(input [1:0] s, output reg [3:0] y);\n\
             always @(*) begin\ncase (s)\n2'b00: y = 4'd1;\n2'b01: y = 4'd2;\n\
             2'b10: y = 4'd4;\ndefault: y = 4'd8;\nendcase\nend\nendmodule",
        );
        for (s, y) in [(0u64, 1u64), (1, 2), (2, 4), (3, 8)] {
            sim.set_input("s", v(s, 2));
            sim.settle();
            assert_eq!(sim.output("y").to_u64(), Some(y), "s={s}");
        }
    }

    #[test]
    fn dff_counter_with_sync_reset() {
        let mut sim = synth(
            "module m(input clk, input reset, output reg [3:0] q);\n\
             always @(posedge clk) begin\nif (reset) q <= 0;\nelse q <= q + 1;\nend\nendmodule",
        );
        assert_eq!(sim.netlist().register_count(), 1);
        sim.set_input("reset", v(1, 1));
        sim.set_input("clk", v(0, 1));
        sim.step();
        sim.set_and_step("clk", v(1, 1)); // posedge with reset
        assert_eq!(sim.output("q").to_u64(), Some(0));
        sim.set_input("reset", v(0, 1));
        for expect in 1..=5u64 {
            sim.set_and_step("clk", v(0, 1));
            sim.set_and_step("clk", v(1, 1));
            assert_eq!(sim.output("q").to_u64(), Some(expect));
        }
    }

    #[test]
    fn dff_async_reset() {
        let mut sim = synth(
            "module m(input clk, input rst, output reg q);\n\
             always @(posedge clk or posedge rst) begin\n\
             if (rst) q <= 1'b0;\nelse q <= ~q;\nend\nendmodule",
        );
        // Async reset acts without a clock edge.
        sim.set_input("clk", v(0, 1));
        sim.set_input("rst", v(1, 1));
        sim.settle();
        assert_eq!(sim.output("q").to_u64(), Some(0));
        sim.set_input("rst", v(0, 1));
        sim.step();
        sim.set_and_step("clk", v(1, 1));
        assert_eq!(sim.output("q").to_u64(), Some(1));
        // Reset mid-flight.
        sim.set_input("rst", v(1, 1));
        sim.settle();
        assert_eq!(sim.output("q").to_u64(), Some(0));
    }

    #[test]
    fn enable_hold_becomes_mux() {
        let mut sim = synth(
            "module m(input clk, input ena, output reg [3:0] q);\n\
             always @(posedge clk) if (ena) q <= q + 1;\nendmodule",
        );
        sim.set_input("ena", v(0, 1));
        sim.set_input("clk", v(0, 1));
        sim.step();
        // q is x initially; enable it once to x+1 = x, so force a value by
        // counting from an enabled reset-free x is meaningless — instead
        // check the structure: one register, at least one mux.
        assert_eq!(sim.netlist().register_count(), 1);
        assert!(sim
            .netlist()
            .cells
            .iter()
            .any(|c| matches!(c, Cell::Mux { .. })));
    }

    #[test]
    fn function_inlines() {
        let mut sim = synth(
            "module m(input [3:0] a, output [3:0] y);\n\
             function [3:0] double;\ninput [3:0] v;\ndouble = v << 1;\nendfunction\n\
             assign y = double(a);\nendmodule",
        );
        sim.set_input("a", v(5, 4));
        sim.settle();
        assert_eq!(sim.output("y").to_u64(), Some(10));
        assert_eq!(sim.netlist().register_count(), 0);
    }

    #[test]
    fn for_loop_unrolls() {
        let mut sim = synth(
            "module m(input [7:0] a, output reg [3:0] n);\n\
             integer i;\n\
             always @(*) begin\nn = 0;\nfor (i = 0; i < 8; i = i + 1)\n\
             n = n + {3'b000, a[i]};\nend\nendmodule",
        );
        sim.set_input("a", v(0b1011_0110, 8));
        sim.settle();
        assert_eq!(sim.output("n").to_u64(), Some(5));
    }
}
