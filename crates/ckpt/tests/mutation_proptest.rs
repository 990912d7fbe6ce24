//! Mutation fuzzing of the workspace's outside inputs: sealed netlist
//! and fault-list payloads, and `.bench` text. Whatever the mutation,
//! decoding returns `Ok` or `Err` and never panics.
//!
//! Payloads are mutated *inside* the envelope and re-sealed, so the
//! checksum passes and the decoder itself reads every mutated byte
//! (`corruption_anywhere_is_rejected` flips bytes of the sealed
//! envelope, which the checksum rejects before any decoding).

use lbist_ckpt::{
    encode_faults, encode_netlist, open_faults, open_netlist, seal, KIND_FAULTS, KIND_NETLIST,
};
use lbist_cores::benchmarks::{c17, s27, C17_BENCH, S27_BENCH};
use lbist_cores::{CoreProfile, CpuCoreGenerator};
use lbist_fault::FaultUniverse;
use lbist_netlist::{parse_bench, Netlist};
use proptest::prelude::*;

/// Mutated inputs tried per case and per source; the generated core,
/// whose payloads are far larger, gets a tenth of them.
const MUTANTS_PER_CASE: usize = 200;

/// Words that stress length and index fields: zero, small counts, the
/// `u32` boundary, and values too large to allocate.
const EDGE_WORDS: [u64; 8] = [0, 1, 2, 0xFF, u32::MAX as u64, 1 << 32, 1 << 61, u64::MAX];

/// The netlists whose payloads are mutated, each with its mutant count.
fn netlists() -> [(Netlist, usize); 3] {
    let core = CpuCoreGenerator::new(CoreProfile::core_x().scaled(800), 3).generate();
    [(c17(), MUTANTS_PER_CASE), (s27(), MUTANTS_PER_CASE), (core, MUTANTS_PER_CASE / 10)]
}

/// Applies one to three mutations to `bytes`: overwrite a byte, overwrite
/// an 8-byte little-endian word (an edge value or a random one) at any
/// offset, or truncate.
fn mutate(bytes: &[u8], rng: &mut TestRng) -> Vec<u8> {
    let mut out = bytes.to_vec();
    for _ in 0..1 + rng.below(3) {
        if out.is_empty() {
            break;
        }
        let pos = rng.below(out.len() as u64) as usize;
        match rng.below(3) {
            0 => out[pos] = rng.next_u64() as u8,
            1 => {
                let word = match rng.below(2) {
                    0 => EDGE_WORDS[rng.below(EDGE_WORDS.len() as u64) as usize],
                    _ => rng.next_u64(),
                };
                let end = (pos + 8).min(out.len());
                out[pos..end].copy_from_slice(&word.to_le_bytes()[..end - pos]);
            }
            _ => out.truncate(pos),
        }
    }
    out
}

/// The characters `.bench` text is made of: the letters of its
/// keywords, signal names, digits, punctuation, whitespace and comments.
const BENCH_ALPHABET: &[u8] = b"ABCDEFIMNOPRSTUXgG0123456789@_()=,# \n";

/// Applies one or two character edits to `text`: replace, delete or
/// insert a character from [`BENCH_ALPHABET`].
fn mutate_bench(text: &str, rng: &mut TestRng) -> String {
    let mut out = text.as_bytes().to_vec();
    for _ in 0..1 + rng.below(2) {
        let pos = rng.below(out.len() as u64 + 1) as usize;
        let c = BENCH_ALPHABET[rng.below(BENCH_ALPHABET.len() as u64) as usize];
        match rng.below(3) {
            0 if pos < out.len() => out[pos] = c,
            1 if pos < out.len() => {
                out.remove(pos);
            }
            _ => out.insert(pos, c),
        }
    }
    String::from_utf8(out).expect("ASCII edits of ASCII text")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn mutated_netlist_payloads_never_panic(seed: u64) {
        let mut rng = TestRng::new(seed);
        for (netlist, mutants) in netlists() {
            let payload = encode_netlist(&netlist);
            for _ in 0..mutants {
                let sealed = seal(KIND_NETLIST, &mutate(&payload, &mut rng));
                if let Ok(decoded) = open_netlist(&sealed) {
                    prop_assert!(decoded.validate().is_ok(), "decoder let an invalid netlist out");
                }
            }
        }
    }

    #[test]
    fn mutated_fault_list_payloads_never_panic(seed: u64) {
        let mut rng = TestRng::new(seed);
        for (netlist, mutants) in netlists() {
            for universe in [FaultUniverse::stuck_at(&netlist), FaultUniverse::transition(&netlist)]
            {
                let payload = encode_faults(universe.faults());
                for _ in 0..mutants {
                    let sealed = seal(KIND_FAULTS, &mutate(&payload, &mut rng));
                    let _ = open_faults(&sealed);
                }
            }
        }
    }

    #[test]
    fn mutated_bench_text_never_panics(seed: u64) {
        let mut rng = TestRng::new(seed);
        for text in [C17_BENCH, S27_BENCH] {
            for _ in 0..MUTANTS_PER_CASE * 4 {
                let _ = parse_bench(&mutate_bench(text, &mut rng));
            }
        }
    }
}
