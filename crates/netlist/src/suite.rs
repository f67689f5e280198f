//! The benchmark suite used by the Table 3 reproduction.
//!
//! `s27` is the exact ISCAS'89 netlist (it is printed in full in the
//! benchmark literature and is small enough to verify by hand). The
//! remaining Table 3 circuits are *synthetic profile-matched* stand-ins
//! produced by [`crate::generator`], whose module docs give the
//! substitution rationale. Each synthetic circuit carries the suffix
//! `_syn` to make the substitution impossible to miss in any output.

use crate::circuit::Circuit;
use crate::generator::{generate, CircuitProfile};
use crate::parser::parse_bench;

/// The exact ISCAS'89 `s27` netlist: 4 PIs, 1 PO, 3 DFFs, 10 gates.
///
/// # Example
///
/// ```
/// let c = gdf_netlist::suite::s27();
/// assert_eq!(c.stats().num_gates, 10);
/// ```
pub fn s27() -> Circuit {
    const SRC: &str = "
        # s27 — ISCAS'89 sequential benchmark (exact netlist)
        INPUT(G0)
        INPUT(G1)
        INPUT(G2)
        INPUT(G3)
        OUTPUT(G17)
        G5 = DFF(G10)
        G6 = DFF(G11)
        G7 = DFF(G13)
        G14 = NOT(G0)
        G17 = NOT(G11)
        G8 = AND(G14, G6)
        G15 = OR(G12, G8)
        G16 = OR(G3, G8)
        G9 = NAND(G16, G15)
        G10 = NOR(G14, G11)
        G11 = NOR(G5, G9)
        G12 = NOR(G1, G7)
        G13 = NOR(G2, G12)
    ";
    parse_bench("s27", SRC).expect("embedded s27 netlist is valid")
}

/// Published profile of one Table 3 circuit:
/// `(name, pi, po, dff, gates, seed salt)`.
///
/// Counts follow the standard ISCAS'89 statistics tables; where
/// distributions disagree by a gate or two we use the most commonly cited
/// values. The paper's Table 3 rows appear in this order.
///
/// The *salt* disambiguates the per-circuit generation seed: a handful of
/// profiles draw a degenerate random instance (logic that is largely
/// robustly untestable) under salt 0, so a fixed salt was chosen once to
/// get a structurally typical instance. All salts are hard-coded — the
/// suite is fully deterministic.
pub const TABLE3_PROFILES: &[(&str, usize, usize, usize, usize, u64)] = &[
    ("s27", 4, 1, 3, 10, 0),
    ("s208", 10, 1, 8, 96, 2),
    ("s298", 3, 6, 14, 119, 0),
    ("s344", 9, 11, 15, 160, 0),
    ("s349", 9, 11, 15, 161, 0),
    ("s386", 7, 7, 6, 159, 0),
    ("s420", 18, 1, 16, 218, 1),
    ("s641", 35, 24, 19, 379, 0),
    ("s713", 35, 23, 19, 393, 0),
    ("s838", 34, 1, 32, 446, 0),
    ("s1196", 14, 14, 18, 529, 0),
    ("s1238", 14, 14, 18, 508, 0),
];

/// Paper's Table 3 reference numbers for side-by-side reporting:
/// `(name, tested, untestable, aborted, patterns, seconds_on_sparc10)`.
pub const TABLE3_PAPER_RESULTS: &[(&str, u32, u32, u32, u32, u32)] = &[
    ("s27", 39, 11, 13, 40, 0),
    ("s208", 112, 242, 13, 16, 90),
    ("s298", 164, 260, 163, 110, 452),
    ("s344", 313, 199, 1148, 100, 403),
    ("s349", 312, 211, 494, 101, 394),
    ("s386", 332, 335, 500, 77, 80),
    ("s420", 124, 584, 390, 32, 169),
    ("s641", 807, 136, 166, 211, 310),
    ("s713", 427, 395, 560, 432, 795),
    ("s838", 113, 1277, 292, 84, 522),
    ("s1196", 2114, 69, 152, 1533, 243),
    ("s1238", 2181, 136, 1533, 1524, 301),
];

/// Fixed generation seed so the synthetic suite is identical across runs
/// and machines.
pub const SUITE_SEED: u64 = 0x1995_0308; // DATE'95, paper starts at p. 308

/// Returns the benchmark circuit for a Table 3 row: the exact `s27`, or the
/// synthetic profile-matched stand-in `<name>_syn` otherwise. Returns
/// `None` for names not in [`TABLE3_PROFILES`].
pub fn table3_circuit(name: &str) -> Option<Circuit> {
    let &(n, pi, po, dff, gates, salt) = TABLE3_PROFILES.iter().find(|&&(n, ..)| n == name)?;
    if n == "s27" {
        return Some(s27());
    }
    let profile = CircuitProfile::new(
        format!("{n}_syn"),
        pi,
        po,
        dff,
        gates,
        SUITE_SEED ^ fxhash(n) ^ salt,
    );
    Some(generate(&profile))
}

/// All Table 3 circuits in paper order.
pub fn table3_suite() -> Vec<Circuit> {
    TABLE3_PROFILES
        .iter()
        .map(|&(name, ..)| table3_circuit(name).expect("profile exists"))
        .collect()
}

/// Embedded `.bench` sources beyond `s27`: **original** sequential
/// circuits written in the ISCAS'89 idiom (they are *not* published
/// benchmarks — the numbers are net counts, chosen to avoid colliding
/// with real ISCAS'89 names). Each is parsed by [`parse_bench`] on every
/// construction, so the suite and every campaign over it exercise the
/// parser, and each brings a different sequential shape to the scenario
/// mix:
///
/// * `s42` — a 3-bit binary counter with synchronous clear and decoded
///   outputs (carry-chain logic, classic re-convergence);
/// * `s77` — a 4-bit XOR-feedback shift register (LFSR) with a hold mode
///   and a comparator output (parity gates, hold multiplexers);
/// * `s119` — two interacting 3-bit registers (load/rotate vs. XOR-mix)
///   with an equality/greater-than comparator and an output mux (wide
///   AND/OR trees, deep state interaction).
pub const EXTRA_BENCHES: &[(&str, &str)] = &[
    (
        "s42",
        "
        # s42 — 3-bit binary counter, synchronous clear, decoded outputs
        INPUT(en)
        INPUT(clr)
        OUTPUT(z0)
        OUTPUT(z1)
        q0 = DFF(d0)
        q1 = DFF(d1)
        q2 = DFF(d2)
        nen = NOT(en)
        nclr = NOT(clr)
        t0 = XOR(q0, en)
        t1 = AND(q0, en)
        t2 = XOR(q1, t1)
        t3 = AND(q1, t1)
        t4 = XOR(q2, t3)
        d0 = AND(t0, nclr)
        d1 = AND(t2, nclr)
        d2 = AND(t4, nclr)
        z0 = NAND(q0, q2)
        z1 = NOR(q1, nen)
        ",
    ),
    (
        "s77",
        "
        # s77 — 4-bit LFSR with hold mode and comparator output
        INPUT(din)
        INPUT(hold)
        INPUT(mode)
        OUTPUT(match)
        OUTPUT(par)
        q0 = DFF(d0)
        q1 = DFF(d1)
        q2 = DFF(d2)
        q3 = DFF(d3)
        fb = XOR(q3, q2)
        inj = XOR(fb, din)
        nhold = NOT(hold)
        s0 = AND(inj, nhold)
        h0 = AND(q0, hold)
        d0 = OR(s0, h0)
        s1 = AND(q0, nhold)
        h1 = AND(q1, hold)
        d1 = OR(s1, h1)
        s2 = AND(q1, nhold)
        h2 = AND(q2, hold)
        d2 = OR(s2, h2)
        s3 = AND(q2, nhold)
        h3 = AND(q3, hold)
        d3 = OR(s3, h3)
        m0 = XNOR(q0, mode)
        m1 = XNOR(q1, mode)
        m2 = AND(m0, m1)
        m3 = NAND(q2, q3)
        match = AND(m2, m3)
        par = XOR(inj, q1)
        ",
    ),
    (
        "s119",
        "
        # s119 — dual 3-bit registers (load/rotate vs XOR-mix), comparator, mux
        INPUT(a0)
        INPUT(a1)
        INPUT(ld)
        INPUT(sel)
        OUTPUT(eq)
        OUTPUT(gt)
        OUTPUT(y)
        x0 = DFF(nx0)
        x1 = DFF(nx1)
        x2 = DFF(nx2)
        w0 = DFF(nw0)
        w1 = DFF(nw1)
        w2 = DFF(nw2)
        nld = NOT(ld)
        l0 = AND(a0, ld)
        r0 = AND(x2, nld)
        nx0 = OR(l0, r0)
        l1 = AND(a1, ld)
        r1 = AND(x0, nld)
        nx1 = OR(l1, r1)
        l2 = AND(sel, ld)
        r2 = AND(x1, nld)
        nx2 = OR(l2, r2)
        g0 = XOR(w0, x0)
        g1 = XOR(w1, x1)
        g2 = XOR(w2, x2)
        nw0 = AND(g0, nld)
        nw1 = OR(g1, l1)
        nw2 = XOR(g2, sel)
        e0 = XNOR(x0, w0)
        e1 = XNOR(x1, w1)
        e2 = XNOR(x2, w2)
        eq = AND(e0, e1, e2)
        nwb0 = NOT(w0)
        nwb1 = NOT(w1)
        nwb2 = NOT(w2)
        gt2 = AND(x2, nwb2)
        gt1 = AND(e2, x1, nwb1)
        gt0 = AND(e2, e1, x0, nwb0)
        gt = OR(gt2, gt1, gt0)
        nsel = NOT(sel)
        ym1 = AND(sel, x0)
        ym2 = AND(nsel, w0)
        y = OR(ym1, ym2)
        ",
    ),
];

/// Builds one embedded extra circuit by parsing its `.bench` source.
/// Returns `None` for names not in [`EXTRA_BENCHES`].
///
/// # Example
///
/// ```
/// let c = gdf_netlist::suite::extra_circuit("s42").unwrap();
/// assert_eq!(c.num_dffs(), 3);
/// ```
pub fn extra_circuit(name: &str) -> Option<Circuit> {
    let &(n, src) = EXTRA_BENCHES.iter().find(|&&(n, _)| n == name)?;
    Some(parse_bench(n, src).expect("embedded bench source is valid"))
}

/// The raw `.bench` source of an embedded extra circuit.
pub fn extra_bench_source(name: &str) -> Option<&'static str> {
    EXTRA_BENCHES
        .iter()
        .find(|&&(n, _)| n == name)
        .map(|&(_, src)| src)
}

/// All embedded extra circuits, parsed.
pub fn extra_suite() -> Vec<Circuit> {
    EXTRA_BENCHES
        .iter()
        .map(|&(name, _)| extra_circuit(name).expect("embedded"))
        .collect()
}

/// The full campaign suite: every Table 3 circuit followed by the
/// embedded `.bench`-sourced extras.
pub fn full_suite() -> Vec<Circuit> {
    let mut all = table3_suite();
    all.extend(extra_suite());
    all
}

/// Looks a suite circuit up by name: a Table 3 profile name (`"s27"`,
/// `"s298"`, …) or an embedded extra (`"s42"`, `"s77"`, `"s119"`). The
/// resolution artifact loaders use for `suite:<name>` references.
pub fn by_name(name: &str) -> Option<Circuit> {
    table3_circuit(name).or_else(|| extra_circuit(name))
}

/// Tiny deterministic string hash (FNV-1a) used to derive per-circuit seeds.
fn fxhash(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn s27_matches_published_structure() {
        let c = s27();
        let s = c.stats();
        assert_eq!(s.num_inputs, 4);
        assert_eq!(s.num_outputs, 1);
        assert_eq!(s.num_dffs, 3);
        assert_eq!(s.num_gates, 10);
        // Famous structural facts about s27:
        let g11 = c.node_by_name("G11").unwrap();
        assert!(c.node(g11).fanout().len() >= 2, "G11 is a fanout stem");
        let g17 = c.node_by_name("G17").unwrap();
        assert!(c.node(g17).is_output());
    }

    #[test]
    fn table3_profiles_all_generate() {
        for &(name, pi, _po, dff, gates, _salt) in TABLE3_PROFILES {
            let c = table3_circuit(name).unwrap();
            assert_eq!(c.num_inputs(), pi, "{name}");
            assert_eq!(c.num_dffs(), dff, "{name}");
            assert_eq!(c.num_gates(), gates, "{name}");
        }
    }

    #[test]
    fn synthetic_circuits_are_marked() {
        let c = table3_circuit("s298").unwrap();
        assert_eq!(c.name(), "s298_syn");
        assert_eq!(table3_circuit("s27").unwrap().name(), "s27");
    }

    #[test]
    fn unknown_circuit_is_none() {
        assert!(table3_circuit("s9234").is_none());
    }

    #[test]
    fn suite_is_deterministic() {
        let a = table3_circuit("s641").unwrap();
        let b = table3_circuit("s641").unwrap();
        assert_eq!(crate::writer::to_bench(&a), crate::writer::to_bench(&b));
    }

    #[test]
    fn extra_benches_parse_and_are_sequential() {
        for &(name, _) in EXTRA_BENCHES {
            let c = extra_circuit(name).unwrap();
            assert_eq!(c.name(), name);
            assert!(c.num_dffs() >= 3, "{name} is sequential");
            assert!(c.num_outputs() >= 2, "{name} has observation points");
            // Parsed fresh every time, deterministically.
            let again = extra_circuit(name).unwrap();
            assert_eq!(crate::writer::to_bench(&c), crate::writer::to_bench(&again));
        }
        assert_eq!(extra_suite().len(), EXTRA_BENCHES.len());
    }

    #[test]
    fn by_name_resolves_profiles_and_extras() {
        assert_eq!(by_name("s27").unwrap().name(), "s27");
        assert_eq!(by_name("s298").unwrap().name(), "s298_syn");
        assert_eq!(by_name("s77").unwrap().name(), "s77");
        assert!(by_name("nope").is_none());
        assert_eq!(
            full_suite().len(),
            TABLE3_PROFILES.len() + EXTRA_BENCHES.len()
        );
    }

    #[test]
    fn paper_results_cover_all_profiles() {
        for &(name, ..) in TABLE3_PROFILES {
            assert!(
                TABLE3_PAPER_RESULTS.iter().any(|&(n, ..)| n == name),
                "missing paper row for {name}"
            );
        }
    }
}
