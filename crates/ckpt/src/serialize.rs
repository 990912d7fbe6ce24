//! Wire formats for netlists and fault lists.
//!
//! The BIST-as-a-service control plane accepts jobs as *bytes*: a core
//! arrives as a sealed [`KIND_NETLIST`] envelope (optionally with an
//! explicit fault list under [`KIND_FAULTS`]) and is reconstructed on
//! the serving side. The encoding is exact-arena: node order, fanin
//! wiring, clock domains and the I/O / flop / X-source rosters all
//! round-trip bit-identically, so
//! [`netlist_fingerprint`](crate::netlist_fingerprint) of the decoded
//! netlist equals the submitter's — the property the scheduler's
//! compiled-circuit cache and every checkpoint binding key off
//! (property-tested on random cores in `tests/`).
//!
//! Decoding is defensive: fanin indices are range-checked, gate arities
//! are validated, duplicate or missing names are rejected, and the
//! finished netlist must pass [`Netlist::validate`] — hostile bytes
//! produce a [`CkptError`], never a panic.

use crate::{CkptError, Decoder, Encoder};
use lbist_fault::{Fault, FaultKind};
use lbist_netlist::{DomainId, GateKind, Netlist, NodeId};

/// Envelope kind tag for serialized netlists.
pub const KIND_NETLIST: u16 = 3;
/// Envelope kind tag for serialized fault lists.
pub const KIND_FAULTS: u16 = 4;

/// Stable wire code for a gate kind: its position in [`GateKind::ALL`]
/// (an append-only array, so codes never shift).
fn kind_code(kind: GateKind) -> u8 {
    GateKind::ALL.iter().position(|&k| k == kind).expect("GateKind::ALL covers every kind") as u8
}

fn kind_from_code(code: u8) -> Result<GateKind, CkptError> {
    GateKind::ALL.get(code as usize).copied().ok_or(CkptError::Malformed("unknown gate-kind code"))
}

fn take_string(d: &mut Decoder<'_>) -> Result<String, CkptError> {
    String::from_utf8(d.take_bytes()?).map_err(|_| CkptError::Malformed("name is not UTF-8"))
}

/// Serializes a netlist payload (without the envelope): design name,
/// then every node in arena order (kind, fanins, domain for flops,
/// optional name).
pub fn encode_netlist(netlist: &Netlist) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_bytes(netlist.name().as_bytes());
    e.put_usize(netlist.len());
    for id in netlist.ids() {
        let kind = netlist.kind(id);
        e.put_u8(kind_code(kind));
        let fanins = netlist.fanins(id);
        e.put_usize(fanins.len());
        for &f in fanins {
            e.put_u64(f.index() as u64);
        }
        if kind == GateKind::Dff {
            e.put_u16(netlist.domain(id).map(|d| d.as_u16()).unwrap_or_default());
        }
        match netlist.node_name(id) {
            Some(name) => {
                e.put_bool(true);
                e.put_bytes(name.as_bytes());
            }
            None => e.put_bool(false),
        }
    }
    e.finish()
}

/// Reconstructs a netlist from [`encode_netlist`] bytes.
///
/// Nodes are rebuilt in arena order, so ids — and therefore the
/// structural fingerprint — are preserved exactly. Forward fanin
/// references (legal in the arena: scan insertion rewires after
/// creation) are entered through a placeholder and patched in a fixup
/// pass, mirroring how the `.bench` parser reconstructs them.
///
/// # Errors
///
/// [`CkptError::Malformed`] on out-of-range fanins, illegal arities,
/// missing or duplicate names, non-UTF-8 strings, or a decoded netlist
/// that fails structural validation; [`CkptError::Truncated`] when the
/// payload ends early.
pub fn decode_netlist(payload: &[u8]) -> Result<Netlist, CkptError> {
    let mut d = Decoder::new(payload);
    let mut netlist = Netlist::new(take_string(&mut d)?);
    // Capped like every length, so each in-range fanin index fits a
    // `NodeId`.
    let count = d.take_len("node count")?;
    // Forward references patched after every node exists: (node, pin, src).
    let mut fixups: Vec<(NodeId, usize, NodeId)> = Vec::new();
    for idx in 0..count {
        let kind = kind_from_code(d.take_u8()?)?;
        let num_fanins = d.take_usize()?;
        let fanin_count_ok =
            kind.accepts_fanins(num_fanins) || (kind == GateKind::Dff && num_fanins == 1);
        if !fanin_count_ok {
            return Err(CkptError::Malformed("fanin count illegal for gate kind"));
        }
        // Not pre-sized: the count is untrusted until its fanins are read.
        let mut fanins = Vec::new();
        for _ in 0..num_fanins {
            let f = d.take_u64()? as usize;
            if f >= count {
                return Err(CkptError::Malformed("fanin index out of range"));
            }
            fanins.push(NodeId::from_index(f));
        }
        let domain =
            if kind == GateKind::Dff { DomainId::new(d.take_u16()?) } else { DomainId::new(0) };
        let name = if d.take_bool()? { Some(take_string(&mut d)?) } else { None };
        if let Some(n) = &name {
            if netlist.find(n).is_some() {
                return Err(CkptError::Malformed("duplicate node name"));
            }
        }

        let id = match kind {
            GateKind::Input => {
                let n = name.as_deref().ok_or(CkptError::Malformed("unnamed primary input"))?;
                netlist.add_input(n)
            }
            GateKind::Output => {
                // `add_output` accepts a not-yet-created source, so no
                // placeholder is needed even for a forward reference.
                let n = name.as_deref().ok_or(CkptError::Malformed("unnamed primary output"))?;
                netlist.add_output(n, fanins[0])
            }
            GateKind::Dff => {
                // Created self-fed (a legal hold register), D pin
                // patched in the fixup pass — handles both forward and
                // backward D sources uniformly.
                let id = netlist.add_dff_floating(domain);
                fixups.push((id, 0, fanins[0]));
                id
            }
            GateKind::XSource => netlist.add_xsource(),
            GateKind::Const0 => netlist.add_const(false),
            GateKind::Const1 => netlist.add_const(true),
            _ => {
                let forward = fanins.iter().any(|f| f.index() >= idx);
                let id = if !forward {
                    netlist
                        .try_add_gate(kind, &fanins)
                        .map_err(|_| CkptError::Malformed("invalid gate construction"))?
                } else {
                    // A gate at index 0 cannot have a backward edge to
                    // stand in for its forward ones.
                    if idx == 0 {
                        return Err(CkptError::Malformed("forward fanin on the first node"));
                    }
                    let placeholder = NodeId::from_index(0);
                    let staged: Vec<NodeId> = fanins
                        .iter()
                        .map(|&f| if f.index() >= idx { placeholder } else { f })
                        .collect();
                    let id = netlist
                        .try_add_gate(kind, &staged)
                        .map_err(|_| CkptError::Malformed("invalid gate construction"))?;
                    for (pin, &f) in fanins.iter().enumerate() {
                        if f.index() >= idx {
                            fixups.push((id, pin, f));
                        }
                    }
                    id
                };
                id
            }
        };
        debug_assert_eq!(id.index(), idx, "arena order must be preserved");
        if let Some(n) = &name {
            netlist.set_name(id, n);
        }
    }
    for (node, pin, src) in fixups {
        netlist
            .set_fanin(node, pin, src)
            .map_err(|_| CkptError::Malformed("fixup fanin out of range"))?;
    }
    d.expect_end()?;
    netlist.validate().map_err(|_| CkptError::Malformed("decoded netlist failed validation"))?;
    Ok(netlist)
}

/// Seals a netlist into a self-describing [`KIND_NETLIST`] envelope —
/// the byte form jobs are submitted as.
pub fn seal_netlist(netlist: &Netlist) -> Vec<u8> {
    crate::seal(KIND_NETLIST, &encode_netlist(netlist))
}

/// Opens a [`seal_netlist`] envelope: magic/version/kind/checksum
/// validation, then the full decode.
pub fn open_netlist(bytes: &[u8]) -> Result<Netlist, CkptError> {
    decode_netlist(crate::open(bytes, KIND_NETLIST)?)
}

fn fault_kind_code(kind: FaultKind) -> u8 {
    match kind {
        FaultKind::StuckAt0 => 0,
        FaultKind::StuckAt1 => 1,
        FaultKind::SlowToRise => 2,
        FaultKind::SlowToFall => 3,
    }
}

fn fault_kind_from_code(code: u8) -> Result<FaultKind, CkptError> {
    match code {
        0 => Ok(FaultKind::StuckAt0),
        1 => Ok(FaultKind::StuckAt1),
        2 => Ok(FaultKind::SlowToRise),
        3 => Ok(FaultKind::SlowToFall),
        _ => Err(CkptError::Malformed("unknown fault-kind code")),
    }
}

/// Serializes a fault list payload (without the envelope), order
/// preserved — the order is part of the grading-checkpoint identity.
pub fn encode_faults(faults: &[Fault]) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_usize(faults.len());
    for f in faults {
        e.put_u64(f.node.index() as u64);
        match f.pin {
            Some(p) => {
                e.put_bool(true);
                e.put_u8(p);
            }
            None => e.put_bool(false),
        }
        e.put_u8(fault_kind_code(f.kind));
    }
    e.finish()
}

/// Reconstructs a fault list from [`encode_faults`] bytes.
///
/// Node indices are *not* range-checked here — the fault list travels
/// separately from its netlist; the consumer must check each
/// `fault.node` against the netlist it grades (the serve crate rejects
/// out-of-range faults at admission).
pub fn decode_faults(payload: &[u8]) -> Result<Vec<Fault>, CkptError> {
    let mut d = Decoder::new(payload);
    let count = d.take_usize()?;
    let mut faults = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        let node = u32::try_from(d.take_u64()?)
            .map_err(|_| CkptError::Malformed("fault node index exceeds u32"))?;
        let node = NodeId::from_index(node as usize);
        let pin = if d.take_bool()? { Some(d.take_u8()?) } else { None };
        let kind = fault_kind_from_code(d.take_u8()?)?;
        faults.push(match pin {
            Some(p) => Fault::branch(node, p, kind),
            None => Fault::stem(node, kind),
        });
    }
    d.expect_end()?;
    Ok(faults)
}

/// Seals a fault list into a [`KIND_FAULTS`] envelope.
pub fn seal_faults(faults: &[Fault]) -> Vec<u8> {
    crate::seal(KIND_FAULTS, &encode_faults(faults))
}

/// Opens a [`seal_faults`] envelope.
pub fn open_faults(bytes: &[u8]) -> Result<Vec<Fault>, CkptError> {
    decode_faults(crate::open(bytes, KIND_FAULTS)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist_fingerprint;

    /// A netlist exercising every construction path: named I/O, flops in
    /// two domains, constants, an X-source, and a forward fanin wired
    /// after creation (the scan-insertion idiom).
    fn fixture() -> Netlist {
        let mut nl = Netlist::new("fixture");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_gate(GateKind::And, &[a, b]);
        let ff0 = nl.add_dff(g, DomainId::new(0));
        let ff1 = nl.add_dff_floating(DomainId::new(1));
        let x = nl.add_xsource();
        let c = nl.add_const(true);
        let mux = nl.add_gate(GateKind::Mux2, &[c, ff0, x]);
        nl.set_name(mux, "sel_mux");
        let inv = nl.add_gate(GateKind::Not, &[mux]);
        nl.add_output("y", inv);
        // Forward-style rewiring: ff1's D pin points at a later node.
        nl.set_fanin(ff1, 0, inv).unwrap();
        nl.validate().unwrap();
        nl
    }

    #[test]
    fn netlist_round_trips_with_identical_fingerprint() {
        let nl = fixture();
        let decoded = decode_netlist(&encode_netlist(&nl)).unwrap();
        assert_eq!(netlist_fingerprint(&decoded), netlist_fingerprint(&nl));
        assert_eq!(decoded.name(), nl.name());
        assert_eq!(decoded.len(), nl.len());
        for id in nl.ids() {
            assert_eq!(decoded.kind(id), nl.kind(id));
            assert_eq!(decoded.fanins(id), nl.fanins(id));
            assert_eq!(decoded.domain(id), nl.domain(id));
            assert_eq!(decoded.node_name(id), nl.node_name(id));
        }
    }

    #[test]
    fn sealed_netlist_round_trips_and_rejects_wrong_kind() {
        let nl = fixture();
        let bytes = seal_netlist(&nl);
        let decoded = open_netlist(&bytes).unwrap();
        assert_eq!(netlist_fingerprint(&decoded), netlist_fingerprint(&nl));
        match open_faults(&bytes) {
            Err(CkptError::WrongKind { expected, found }) => {
                assert_eq!((expected, found), (KIND_FAULTS, KIND_NETLIST));
            }
            other => panic!("expected WrongKind, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_and_truncated_netlists_are_rejected() {
        let nl = fixture();
        let bytes = seal_netlist(&nl);
        // Flip one payload byte: the envelope checksum must catch it.
        let mut corrupt = bytes.clone();
        let last = corrupt.len() - 9; // inside the payload, before the checksum
        corrupt[last] ^= 0x40;
        assert!(open_netlist(&corrupt).is_err());
        // Truncation at every prefix length must error, never panic.
        for cut in 0..bytes.len() {
            assert!(open_netlist(&bytes[..cut]).is_err(), "prefix of {cut} bytes must fail");
        }
    }

    #[test]
    fn hostile_payloads_error_cleanly() {
        // Out-of-range fanin.
        let mut e = Encoder::new();
        e.put_bytes(b"evil");
        e.put_usize(1);
        e.put_u8(kind_code(GateKind::Output));
        e.put_usize(1);
        e.put_u64(7);
        e.put_bool(true);
        e.put_bytes(b"y");
        assert!(matches!(decode_netlist(&e.finish()), Err(CkptError::Malformed(_))));
        // Unknown kind code.
        let mut e = Encoder::new();
        e.put_bytes(b"evil");
        e.put_usize(1);
        e.put_u8(200);
        assert!(matches!(decode_netlist(&e.finish()), Err(CkptError::Malformed(_))));
        // Duplicate name.
        let mut e = Encoder::new();
        e.put_bytes(b"evil");
        e.put_usize(2);
        for _ in 0..2 {
            e.put_u8(kind_code(GateKind::Input));
            e.put_usize(0);
            e.put_bool(true);
            e.put_bytes(b"a");
        }
        assert!(matches!(decode_netlist(&e.finish()), Err(CkptError::Malformed(_))));
        // Unnamed input.
        let mut e = Encoder::new();
        e.put_bytes(b"evil");
        e.put_usize(1);
        e.put_u8(kind_code(GateKind::Input));
        e.put_usize(0);
        e.put_bool(false);
        assert!(matches!(decode_netlist(&e.finish()), Err(CkptError::Malformed(_))));
        // A combinational self-loop decodes structurally but must fail
        // validation.
        let mut e = Encoder::new();
        e.put_bytes(b"evil");
        e.put_usize(2);
        e.put_u8(kind_code(GateKind::Input));
        e.put_usize(0);
        e.put_bool(true);
        e.put_bytes(b"a");
        e.put_u8(kind_code(GateKind::Buf));
        e.put_usize(1);
        e.put_u64(1);
        e.put_bool(false);
        assert!(matches!(decode_netlist(&e.finish()), Err(CkptError::Malformed(_))));
    }

    /// A gate declaring a huge fanin count is rejected when its fanins
    /// run out of range, without pre-sizing for the declared count.
    #[test]
    fn huge_fanin_count_is_rejected() {
        let mut e = Encoder::new();
        e.put_bytes(b"evil");
        e.put_usize(2);
        e.put_u8(kind_code(GateKind::Input));
        e.put_usize(0);
        e.put_bool(true);
        e.put_bytes(b"a");
        e.put_u8(kind_code(GateKind::And));
        e.put_usize(1 << 61);
        e.put_u64(0);
        e.put_u64(9); // out of range for two nodes
        let sealed = crate::seal(KIND_NETLIST, &e.finish());
        assert!(matches!(open_netlist(&sealed), Err(CkptError::Malformed(_))));
    }

    /// A fault node index past `u32::MAX` is malformed, not a panic.
    #[test]
    fn fault_node_index_past_u32_is_rejected() {
        let mut e = Encoder::new();
        e.put_usize(1);
        e.put_u64(u64::from(u32::MAX) + 1);
        e.put_bool(false);
        e.put_u8(fault_kind_code(FaultKind::StuckAt0));
        let sealed = crate::seal(KIND_FAULTS, &e.finish());
        assert!(matches!(open_faults(&sealed), Err(CkptError::Malformed(_))));
    }

    #[test]
    fn fault_list_round_trips_in_order() {
        let faults = vec![
            Fault::stem(NodeId::from_index(3), FaultKind::StuckAt0),
            Fault::branch(NodeId::from_index(5), 1, FaultKind::StuckAt1),
            Fault::stem(NodeId::from_index(0), FaultKind::SlowToRise),
            Fault::branch(NodeId::from_index(9), 0, FaultKind::SlowToFall),
        ];
        let decoded = open_faults(&seal_faults(&faults)).unwrap();
        assert_eq!(decoded, faults);
    }

    #[test]
    fn fault_list_rejects_bad_kind_and_truncation() {
        let faults = vec![Fault::stem(NodeId::from_index(1), FaultKind::StuckAt0)];
        let mut payload = encode_faults(&faults);
        *payload.last_mut().unwrap() = 99; // fault-kind byte
        assert!(matches!(decode_faults(&payload), Err(CkptError::Malformed(_))));
        let bytes = seal_faults(&faults);
        for cut in 0..bytes.len() {
            assert!(open_faults(&bytes[..cut]).is_err());
        }
    }
}
