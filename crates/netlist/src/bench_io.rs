//! ISCAS-`.bench`-style text format.
//!
//! The grammar is the classic one used by the ISCAS-85/89 benchmark suites,
//! extended with `DFF@<domain>` for multi-clock designs, `XSOURCE`,
//! `CONST0`/`CONST1` and `MUX2`:
//!
//! ```text
//! # comment
//! INPUT(a)
//! OUTPUT(y)
//! g1 = NAND(a, b)
//! q  = DFF(g1)        # domain 0 by default
//! q2 = DFF@3(g1)      # domain 3
//! y  = BUF(q)
//! ```

use crate::{DomainId, GateKind, Netlist, NodeId};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Error from [`parse_bench`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BenchParseError {
    /// 1-based line number of the offending line (0 when not line-specific).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for BenchParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bench parse error at line {}: {}", self.line, self.message)
    }
}

impl Error for BenchParseError {}

fn err(line: usize, message: impl Into<String>) -> BenchParseError {
    BenchParseError { line, message: message.into() }
}

struct Assign {
    line: usize,
    lhs: String,
    kind: GateKind,
    domain: DomainId,
    args: Vec<String>,
}

/// Parses a `.bench`-style description into a [`Netlist`].
///
/// Signals may be used before they are defined (the format is unordered);
/// the parser resolves all references in a second pass.
///
/// # Errors
///
/// Returns a [`BenchParseError`] describing the first malformed or
/// unresolvable line.
///
/// # Example
///
/// ```
/// let text = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n";
/// let nl = lbist_netlist::parse_bench(text).unwrap();
/// assert_eq!(nl.inputs().len(), 2);
/// assert_eq!(nl.outputs().len(), 1);
/// ```
pub fn parse_bench(text: &str) -> Result<Netlist, BenchParseError> {
    // ---- pass 1: tokenize -------------------------------------------------
    let mut inputs: Vec<(usize, String)> = Vec::new();
    let mut outputs: Vec<(usize, String)> = Vec::new();
    let mut assigns: Vec<Assign> = Vec::new();

    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let stripped = raw.split('#').next().unwrap_or("").trim();
        if stripped.is_empty() {
            continue;
        }
        let upper = stripped.to_ascii_uppercase();
        if upper.starts_with("INPUT") && !stripped.contains('=') {
            inputs.push((line, inner_name(stripped, "INPUT").map_err(|m| err(line, m))?));
            continue;
        }
        if upper.starts_with("OUTPUT") && !stripped.contains('=') {
            outputs.push((line, inner_name(stripped, "OUTPUT").map_err(|m| err(line, m))?));
            continue;
        }
        let (lhs, rhs) =
            stripped.split_once('=').ok_or_else(|| err(line, "expected `name = GATE(args)`"))?;
        let lhs = lhs.trim().to_string();
        let rhs = rhs.trim();
        let open = rhs.find('(').ok_or_else(|| err(line, "missing `(` in gate expression"))?;
        if !rhs.ends_with(')') {
            return Err(err(line, "missing `)` in gate expression"));
        }
        let head = rhs[..open].trim();
        let args_str = &rhs[open + 1..rhs.len() - 1];
        let (kind_name, domain) = match head.split_once('@') {
            Some((k, d)) => {
                let dom: u16 =
                    d.trim().parse().map_err(|_| err(line, format!("bad domain index `{d}`")))?;
                (k.trim(), DomainId::new(dom))
            }
            None => (head, DomainId::default()),
        };
        let kind = GateKind::from_text_name(kind_name)
            .ok_or_else(|| err(line, format!("unknown gate `{kind_name}`")))?;
        if matches!(kind, GateKind::Input | GateKind::Output) {
            return Err(err(line, format!("{kind} cannot appear on the right-hand side")));
        }
        let args: Vec<String> = args_str
            .split(',')
            .map(str::trim)
            .filter(|a| !a.is_empty())
            .map(str::to_string)
            .collect();
        if !kind.accepts_fanins(args.len()) {
            return Err(err(line, format!("{kind} given {} fanin(s)", args.len())));
        }
        assigns.push(Assign { line, lhs, kind, domain, args });
    }

    // ---- pass 2: build nodes, then resolve fanins -------------------------
    let mut nl = Netlist::new("bench");
    let mut signals: HashMap<String, NodeId> = HashMap::new();
    for (line, name) in &inputs {
        if signals.contains_key(name) {
            return Err(err(*line, format!("signal `{name}` defined twice")));
        }
        signals.insert(name.clone(), nl.add_input(name));
    }
    // A dummy placeholder target so nodes can be created before their fanins
    // are known; every pin is rewired below, so the dummy ends up unread.
    let dummy = nl.add_const(false);
    for a in &assigns {
        if signals.contains_key(&a.lhs) {
            return Err(err(a.line, format!("signal `{}` defined twice", a.lhs)));
        }
        let id = match a.kind {
            GateKind::Dff => nl.add_dff(dummy, a.domain),
            _ => {
                let dummies = vec![dummy; a.args.len()];
                nl.try_add_gate(a.kind, &dummies).map_err(|e| err(a.line, e.to_string()))?
            }
        };
        nl.set_name(id, &a.lhs);
        signals.insert(a.lhs.clone(), id);
    }
    for a in &assigns {
        let id = signals[&a.lhs];
        for (pin, arg) in a.args.iter().enumerate() {
            let src = *signals
                .get(arg)
                .ok_or_else(|| err(a.line, format!("signal `{arg}` used but never defined")))?;
            nl.set_fanin(id, pin, src).expect("pin index in range by construction");
        }
    }
    for (line, name) in &outputs {
        let src = *signals
            .get(name)
            .ok_or_else(|| err(*line, format!("output `{name}` never defined")))?;
        let marker = format!("{name}__po");
        if let Some(taken) = nl.find(&marker) {
            return Err(err(
                *line,
                if nl.kind(taken) == GateKind::Output {
                    format!("output `{name}` declared twice")
                } else {
                    format!("output marker `{marker}` is already a signal name")
                },
            ));
        }
        nl.add_output(&marker, src);
    }
    Ok(nl)
}

fn inner_name(original: &str, kw: &str) -> Result<String, String> {
    let rest = original[kw.len()..].trim();
    let inner = rest
        .strip_prefix('(')
        .and_then(|r| r.strip_suffix(')'))
        .ok_or_else(|| format!("expected `{kw}(name)`"))?;
    let name = inner.trim();
    if name.is_empty() {
        return Err(format!("empty name in `{kw}(...)`"));
    }
    Ok(name.to_string())
}

/// Serialises a netlist to the `.bench`-style text format.
///
/// Nodes without explicit names are given synthetic `n<i>` names. Constant
/// nodes that drive nothing (e.g. the parser's placeholder) are skipped, so
/// the output round-trips through [`parse_bench`] to an isomorphic netlist.
pub fn to_bench(netlist: &Netlist) -> String {
    let fanouts = crate::Fanouts::compute(netlist);
    let mut out = String::new();
    out.push_str(&format!("# design {}\n", netlist.name()));
    let name_of = |id: NodeId| -> String {
        netlist.node_name(id).map(str::to_string).unwrap_or_else(|| format!("n{}", id.index()))
    };
    for &pi in netlist.inputs() {
        out.push_str(&format!("INPUT({})\n", name_of(pi)));
    }
    for &po in netlist.outputs() {
        let src = netlist.fanins(po)[0];
        out.push_str(&format!("OUTPUT({})\n", name_of(src)));
    }
    for id in netlist.ids() {
        let kind = netlist.kind(id);
        match kind {
            GateKind::Input | GateKind::Output => continue,
            GateKind::Const0 | GateKind::Const1 | GateKind::XSource if fanouts.degree(id) == 0 => {
                continue
            }
            GateKind::Dff => {
                let d = netlist.fanins(id)[0];
                let dom = netlist.domain(id).unwrap_or_default();
                if dom.index() == 0 {
                    out.push_str(&format!("{} = DFF({})\n", name_of(id), name_of(d)));
                } else {
                    out.push_str(&format!(
                        "{} = DFF@{}({})\n",
                        name_of(id),
                        dom.index(),
                        name_of(d)
                    ));
                }
            }
            _ => {
                let args: Vec<String> = netlist.fanins(id).iter().map(|&f| name_of(f)).collect();
                out.push_str(&format!(
                    "{} = {}({})\n",
                    name_of(id),
                    kind.text_name(),
                    args.join(", ")
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const C17_LIKE: &str = "\
# tiny test circuit
INPUT(g1)
INPUT(g2)
INPUT(g3)
OUTPUT(o1)
i1 = NAND(g1, g2)
i2 = NAND(g2, g3)
o1 = NAND(i1, i2)
";

    #[test]
    fn parses_simple_circuit() {
        let nl = parse_bench(C17_LIKE).unwrap();
        assert_eq!(nl.inputs().len(), 3);
        assert_eq!(nl.outputs().len(), 1);
        assert_eq!(nl.gate_count(), 3);
        assert!(nl.validate().is_ok());
    }

    #[test]
    fn forward_references_resolve() {
        let text = "INPUT(a)\nOUTPUT(y)\ny = NOT(mid)\nmid = BUF(a)\n";
        let nl = parse_bench(text).unwrap();
        assert!(nl.validate().is_ok());
        let y = nl.find("y").unwrap();
        let mid = nl.find("mid").unwrap();
        assert_eq!(nl.fanins(y), &[mid]);
        assert_eq!(nl.dffs().len(), 0);
    }

    #[test]
    fn dff_with_domain_round_trips() {
        let text = "INPUT(a)\nOUTPUT(q)\nq = DFF@2(a)\n";
        let nl = parse_bench(text).unwrap();
        let q = nl.find("q").unwrap();
        assert_eq!(nl.domain(q), Some(DomainId::new(2)));
        let re = parse_bench(&to_bench(&nl)).unwrap();
        let q2 = re.find("q").unwrap();
        assert_eq!(re.domain(q2), Some(DomainId::new(2)));
    }

    #[test]
    fn round_trip_preserves_structure() {
        let nl = parse_bench(C17_LIKE).unwrap();
        let re = parse_bench(&to_bench(&nl)).unwrap();
        assert_eq!(re.inputs().len(), nl.inputs().len());
        assert_eq!(re.outputs().len(), nl.outputs().len());
        assert_eq!(re.gate_count(), nl.gate_count());
        assert_eq!(re.dffs().len(), nl.dffs().len());
    }

    #[test]
    fn undefined_signal_is_reported() {
        let e = parse_bench("INPUT(a)\ny = NOT(ghost)\n").unwrap_err();
        assert!(e.to_string().contains("ghost"));
    }

    #[test]
    fn duplicate_definition_is_reported() {
        let e = parse_bench("INPUT(a)\na = NOT(a)\n").unwrap_err();
        assert!(e.message.contains("twice"));
    }

    /// An output listed twice, or a signal already carrying an output's
    /// marker name, is an error on the `OUTPUT` line, not a panic.
    #[test]
    fn duplicate_outputs_are_reported() {
        let e = parse_bench("INPUT(a)\nOUTPUT(y)\nOUTPUT(y)\ny = NOT(a)\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("twice"), "{e}");
        let e = parse_bench("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny__po = BUF(a)\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("y__po"), "{e}");
    }

    #[test]
    fn garbage_lines_are_reported_with_line_numbers() {
        let e = parse_bench("INPUT(a)\nwhat is this\n").unwrap_err();
        assert_eq!(e.line, 2);
        let e = parse_bench("INPUT(a)\ny = NOT a\n").unwrap_err();
        assert_eq!(e.line, 2);
        let e = parse_bench("INPUT(a)\ny = FROB(a)\n").unwrap_err();
        assert!(e.message.contains("FROB"));
    }

    #[test]
    fn arity_errors_are_reported() {
        let e = parse_bench("INPUT(a)\ny = NOT(a, a)\n").unwrap_err();
        assert!(e.message.contains("NOT"));
        let e = parse_bench("INPUT(a)\ny = AND(a)\n").unwrap_err();
        assert!(e.message.contains("AND"));
    }

    #[test]
    fn buff_alias_accepted() {
        let nl = parse_bench("INPUT(a)\nOUTPUT(y)\ny = BUFF(a)\n").unwrap();
        assert_eq!(nl.gate_count(), 1);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let nl = parse_bench("\n# hello\nINPUT(a) # trailing\nOUTPUT(a)\n\n").unwrap();
        assert_eq!(nl.inputs().len(), 1);
    }

    #[test]
    fn sequential_loop_parses() {
        // A two-flop ring: legal because the loop passes through DFFs.
        let text = "OUTPUT(q1)\nq1 = DFF(n1)\nq2 = DFF(q1)\nn1 = NOT(q2)\n";
        let nl = parse_bench(text).unwrap();
        assert!(nl.validate().is_ok());
        assert_eq!(nl.dffs().len(), 2);
    }

    #[test]
    fn xsource_and_consts_parse() {
        let text = "OUTPUT(y)\nx = XSOURCE()\nc = CONST1()\ny = AND(x, c)\n";
        let nl = parse_bench(text).unwrap();
        assert_eq!(nl.xsources().len(), 1);
        assert!(nl.validate().is_ok());
        // Unread parser placeholder must not leak into serialisation.
        let re = parse_bench(&to_bench(&nl)).unwrap();
        assert_eq!(re.xsources().len(), 1);
    }
}
