//! Forced-path property suite for the alignment engine: the scalar twin
//! must return [`pfam_align::local_affine`]'s exact `Alignment` (score,
//! operations, both ranges), and the engine's accept/reject verdicts must
//! equal the reference full-DP criteria, on one shared corpus. The batch
//! kernel, where detected, is held to the scalar twin: whatever lanes a
//! pair shares a fill with, it must leave the twin's score, end cell and
//! direction bits on every real cell, and the batch entry must give
//! `judge`'s verdict. The engine held to the 16-lane body or to the scalar
//! twin is checked against the host's verdicts in `src/engine.rs`'s own
//! tests (`with_lanes` is test-only there).

mod shapes;

use proptest::prelude::*;

use pfam_align::{
    is_contained, local_affine, overlaps, AlignEngine, AlignEngineKind, AlignScratch, Anchor,
    ContainmentParams, OnePassFill, OverlapParams, PairQuery,
};
use pfam_seq::{ScoringScheme, SubstMatrix};
use shapes::{corpus, mutated_pair, ragged, tie_heavy, Pair};

/// The most pairs one `judge_batch` call takes: the 32-lane body's.
const MAX_GROUP: usize = 32;

/// Containment of `x` only.
const X_IN_Y: PairQuery = PairQuery { x_in_y: true, y_in_x: false, overlap: false };

fn residues(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..21, 0..max_len)
}

fn scheme(gap_open: i32, gap_extend: i32) -> ScoringScheme {
    ScoringScheme { matrix: SubstMatrix::blosum62().clone(), gap_open, gap_extend }
}

/// BLASTP default, cheap gaps, linear gaps (`open = ext`, every stay/open
/// tie), free extension.
fn gap_regimes() -> [ScoringScheme; 4] {
    [scheme(11, 1), scheme(4, 1), scheme(3, 3), scheme(2, 0)]
}

/// Does `s` get a vector kernel on this host?
fn vectorized(s: &ScoringScheme) -> bool {
    OnePassFill::detect(s).is_vector(1, 1)
}

/// The scalar twin, what a single pair runs on, against the reference.
fn assert_fills_match_reference(s: &ScoringScheme, pairs: &[Pair]) {
    let mut scratch = AlignScratch::new();
    let fill = OnePassFill::scalar(s);
    for (k, (x, y)) in pairs.iter().enumerate() {
        let what =
            format!("gaps {}/{}, pair {k} ({}x{})", s.gap_open, s.gap_extend, x.len(), y.len());
        assert_eq!(fill.align(x, y, &mut scratch), local_affine(x, y, s), "{what}");
        assert_eq!(fill.align(y, x, &mut scratch), local_affine(y, x, s), "{what}, flipped");
    }
}

#[test]
fn fills_equal_reference_alignment_on_the_corpus_under_every_gap_regime() {
    let pairs = corpus();
    for s in gap_regimes() {
        assert_fills_match_reference(&s, &pairs);
    }
}

/// `min(m,n)·max_score ≤ 15 000` is the last pair the `i16` kernel may
/// take: 1 363 residues under BLOSUM62 (`W:W` = 11). One residue more
/// must fall to the scalar twin, which must be exact on either side, on
/// the highest-scoring input there is.
#[test]
fn fills_are_exact_on_both_sides_of_the_score_limit() {
    let s = scheme(11, 1);
    let detected = OnePassFill::detect(&s);
    if vectorized(&s) {
        assert!(detected.is_vector(1363, 1500));
        assert!(!detected.is_vector(1364, 1500));
    }
    let w = 18u8; // tryptophan
    let (a, b) = mutated_pair(7, 1500, 0.08, 0.01);
    let pairs = vec![
        (vec![w; 1363], vec![w; 1363]),
        (vec![w; 1364], vec![w; 1364]),
        (a[..1363].to_vec(), b.clone()),
        (a[..1364].to_vec(), b),
    ];
    assert_fills_match_reference(&s, &pairs);
}

/// `open ≤ 2 048` is the penalty limit: `(2048, 2048)` runs on the vector
/// kernel with every penalty lane near saturation, `(2049, 2049)` must
/// fall to the scalar twin.
#[test]
fn fills_are_exact_on_both_sides_of_the_penalty_limit() {
    let pairs: Vec<Pair> = corpus().into_iter().step_by(5).collect();
    for (s, vector) in [(scheme(2048, 2048), true), (scheme(2049, 2049), false)] {
        // On a host without AVX2 every scheme is scalar.
        let vector = vector && vectorized(&scheme(11, 1));
        assert_eq!(OnePassFill::detect(&s).is_vector(50, 50), vector);
        assert_fills_match_reference(&s, &pairs);
    }
    // A scheme outside the kernel's ragged-batch argument (open < ext)
    // never reaches it.
    let s = scheme(1, 3);
    assert!(!vectorized(&s));
    assert_fills_match_reference(&s, &pairs);
}

/// Matrix entries must fit `i8` (the profile is built by byte shuffles):
/// ±127/−128 run on the vector kernel — where `min(m,n) ≤ 15 000 / 127` —
/// with scores near the `i16` cap, 128 falls to the scalar twin.
#[test]
fn fills_are_exact_on_both_sides_of_the_matrix_limit() {
    let pairs: Vec<Pair> = corpus().into_iter().step_by(3).collect();
    for (matched, vector) in [(127, true), (128, false)] {
        let s = ScoringScheme {
            matrix: SubstMatrix::uniform(matched, -128),
            gap_open: 11,
            gap_extend: 1,
        };
        let detected = OnePassFill::detect(&s);
        assert_eq!(detected.is_vector(118, 300), vector && vectorized(&scheme(11, 1)));
        assert!(!detected.is_vector(119, 300));
        assert_fills_match_reference(&s, &pairs);
    }
}

/// The identity guarantee: on the corpus the tiered verdicts equal the
/// reference full-DP verdicts for containment and overlap, whatever the
/// (ignored) anchor hint. (The forced widths — the 16-lane body, the
/// scalar twin — are held to the host's verdicts in `src/engine.rs`.)
#[test]
fn tiered_verdicts_match_reference_on_the_corpus() {
    let pairs = corpus();
    let (cp, op) = (ContainmentParams::default(), OverlapParams::default());
    let mut n_accepts = 0usize;
    for s in [scheme(11, 1), scheme(4, 1)] {
        let reference = AlignEngine::new(AlignEngineKind::Reference, s.clone(), cp, op);
        let tiered = AlignEngine::new(AlignEngineKind::Tiered, s.clone(), cp, op);
        for (k, (a, b)) in pairs.iter().enumerate() {
            let anchor = [None, Some(Anchor { x_pos: u32::MAX, y_pos: 0, len: 5 })][k % 2];
            let contained = reference.judge(a, b, X_IN_Y).x_in_y;
            let overlapping = reference.overlaps(a, b, anchor).accept;
            n_accepts += usize::from(contained) + usize::from(overlapping);
            assert_eq!(tiered.judge(a, b, X_IN_Y).x_in_y, contained, "pair {k}");
            assert_eq!(tiered.overlaps(a, b, anchor).accept, overlapping, "pair {k}");
        }
    }
    // The corpus must actually exercise both outcomes.
    assert!(n_accepts > 20, "only {n_accepts} accepting verdicts — the corpus is vacuous");
}

/// Counter invariants on the corpus: a pair either stops at the screen
/// (`0, m·n`), is rejected on its score (`m·n, m·n`) or is traced
/// (`m·n, 0`); the reference engine always reports the full rectangle.
#[test]
fn counters_follow_the_outcome_on_the_corpus() {
    let (cp, op) = (ContainmentParams::default(), OverlapParams::default());
    let tiered = AlignEngine::new(AlignEngineKind::Tiered, scheme(11, 1), cp, op);
    let reference = AlignEngine::new(AlignEngineKind::Reference, scheme(11, 1), cp, op);
    let mut tiers = [0usize; 4];
    for (a, b) in corpus() {
        let full = (a.len() as u64) * (b.len() as u64);
        let r = reference.overlaps(&a, &b, None);
        assert_eq!((r.cells_computed, r.cells_skipped), (full, 0));
        let o = tiered.overlaps(&a, &b, None);
        let c = tiered.judge(&a, &b, X_IN_Y);
        for (tier, computed, skipped, accept) in [
            (o.tier, o.cells_computed, o.cells_skipped, o.accept),
            (c.tier, c.cells_computed, c.cells_skipped, c.x_in_y),
        ] {
            let expected = match tier {
                0 => (0, full),
                1 => (full, full),
                3 => (full, 0),
                other => panic!("retired tier {other}"),
            };
            assert_eq!((computed, skipped), expected);
            assert!(tier == 3 || !accept, "a rejecting step accepted");
            tiers[tier as usize] += 1;
        }
    }
    assert!(tiers[0] > 0 && tiers[1] > 0 && tiers[3] > 0, "outcomes seen: {tiers:?}");
}

/// The combined entry on one pair: the `x`-in-`y` and overlap answers are
/// the single-criterion ones, the `y`-in-`x` answer is Definition 1 read
/// off `local_affine(x, y)`'s own statistics, every subset of the query
/// gives the same answers, and the fill is one rectangle however many
/// criteria were asked.
fn assert_judge_is_consistent(engines: &[AlignEngine], s: &ScoringScheme, x: &[u8], y: &[u8]) {
    let (cp, op) = (ContainmentParams::default(), OverlapParams::default());
    let full = (x.len() as u64) * (y.len() as u64);
    let aln = local_affine(x, y, s);
    let y_in_x = !aln.is_empty() && !y.is_empty() && {
        let st = aln.stats(x, y, &s.matrix);
        st.similarity() >= cp.min_similarity
            && st.coverage_of(st.y_span, y.len()) >= cp.min_coverage
    };
    let want = (is_contained(x, y, s, &cp), y_in_x, overlaps(x, y, s, &op));
    for (e, label) in engines.iter().zip(["reference", "tiered"]) {
        let what = format!("{label}/{} {}x{}", e.kernel_label(), x.len(), y.len());
        let all = e.judge(x, y, PairQuery { x_in_y: true, y_in_x: true, overlap: true });
        assert_eq!((all.x_in_y, all.y_in_x, all.overlap), want, "{what}");
        assert_eq!(e.overlaps(x, y, None).accept, want.2, "{what}: overlaps wrapper");
        assert!(all.cells_computed == 0 || all.cells_computed == full, "{what}: one rectangle");
        for bits in 0..8u8 {
            let ask =
                PairQuery { x_in_y: bits & 1 != 0, y_in_x: bits & 2 != 0, overlap: bits & 4 != 0 };
            let v = e.judge(x, y, ask);
            let got = (v.x_in_y, v.y_in_x, v.overlap);
            let masked = (ask.x_in_y && want.0, ask.y_in_x && want.1, ask.overlap && want.2);
            assert_eq!(got, masked, "{what}: {ask:?}");
            assert!(v.cells_computed <= all.cells_computed, "{what}: {ask:?} filled more");
        }
    }
}

fn judge_engines(s: &ScoringScheme) -> [AlignEngine; 2] {
    let (cp, op) = (ContainmentParams::default(), OverlapParams::default());
    [
        AlignEngine::new(AlignEngineKind::Reference, s.clone(), cp, op),
        AlignEngine::new(AlignEngineKind::Tiered, s.clone(), cp, op),
    ]
}

#[test]
fn judge_answers_every_criterion_off_one_fill() {
    let mut pairs = corpus();
    pairs.extend(tie_heavy());
    let mut n_y_in_x = 0usize;
    for s in [scheme(11, 1), scheme(4, 1)] {
        let engines = judge_engines(&s);
        for (x, y) in &pairs {
            assert_judge_is_consistent(&engines, &s, x, y);
            let second_side = PairQuery { y_in_x: true, ..PairQuery::default() };
            n_y_in_x += usize::from(engines[1].judge(x, y, second_side).y_in_x);
        }
    }
    assert!(n_y_in_x > 5, "only {n_y_in_x} second-side containments — the corpus is vacuous");
}

/// Every subset of the criteria.
fn queries() -> impl Iterator<Item = PairQuery> {
    (0..8u8).map(|b| PairQuery { x_in_y: b & 1 != 0, y_in_x: b & 2 != 0, overlap: b & 4 != 0 })
}

/// `pairs`, cut into batches of `lanes`, through the batch kernel and the
/// batch entry. Kernel: each lane's score, end cell and the direction bits
/// of every real cell are the scalar twin's for that pair alone (the batch
/// must be taken exactly when `vector` says the scheme and every pair are
/// inside the kernel's guard). Entry: on the host's fills each
/// `PairVerdict` — tier and cell counters included — is `judge`'s, for
/// every query, the same for all lanes or different from lane to lane,
/// however many of a group's lanes the kernel takes.
fn assert_batches_match(s: &ScoringScheme, pairs: &[Pair], lanes: usize, vector: bool) {
    let (cp, op) = (ContainmentParams::default(), OverlapParams::default());
    let (scalar, host) = (OnePassFill::scalar(s), OnePassFill::detect(s));
    let tiered = AlignEngine::new(AlignEngineKind::Tiered, s.clone(), cp, op);
    let reference = AlignEngine::new(AlignEngineKind::Reference, s.clone(), cp, op);
    let (mut a, mut b) = (AlignScratch::new(), AlignScratch::new());
    let all: Vec<PairQuery> = queries().collect();
    for (g, group) in pairs.chunks(lanes).enumerate() {
        let what = format!("gaps {}/{}, group {g} of {lanes}", s.gap_open, s.gap_extend);
        let filled: Vec<(&[u8], &[u8])> = group
            .iter()
            .filter(|(x, y)| !x.is_empty() && !y.is_empty())
            .map(|(x, y)| (&x[..], &y[..]))
            .collect();
        let probes = host.probe_batch(&filled, &mut a);
        assert_eq!(probes.is_some(), vector && !filled.is_empty(), "{what}: batch taken");
        for (k, probe) in probes.into_iter().flatten().enumerate() {
            let (x, y) = filled[k];
            let twin = scalar.probe(x, y, &mut b);
            assert_eq!((probe.score, probe.end), (twin.score, twin.end), "{what}: lane {k}");
            assert_eq!(probe.dirs.len(), x.len() * y.len());
            let cell = probe.dirs.iter().zip(&twin.dirs).position(|(p, t)| p != t);
            assert_eq!(
                cell,
                None,
                "{what}: lane {k} ({}x{}), first differing cell",
                x.len(),
                y.len()
            );
        }
        // One query for every lane, then a different one per lane.
        for round in 0..=all.len() {
            let ask = |k: usize| if round < all.len() { all[round] } else { all[(g + k) % 8] };
            let asked: Vec<(&[u8], &[u8], PairQuery)> =
                group.iter().enumerate().map(|(k, (x, y))| (&x[..], &y[..], ask(k))).collect();
            let alone: Vec<_> = asked.iter().map(|&(x, y, q)| tiered.judge(x, y, q)).collect();
            let mut out = Vec::new();
            tiered.judge_batch(&asked, &mut out);
            assert_eq!(out, alone, "{what}: {} entry, round {round}", tiered.kernel_label());
            for (v, &(x, y, q)) in alone.iter().zip(&asked) {
                let full = (x.len() * y.len()) as u64;
                assert!(v.cells_computed == 0 || v.cells_computed == full, "{what}: one rectangle");
                let r = reference.judge(x, y, q);
                assert_eq!((v.x_in_y, v.y_in_x, v.overlap), (r.x_in_y, r.y_in_x, r.overlap));
            }
        }
    }
}

#[test]
fn batch_kernel_equals_the_scalar_twin_lane_by_lane() {
    let mut pairs = ragged();
    pairs.extend(tie_heavy());
    pairs.extend(corpus().into_iter().step_by(4));
    for s in gap_regimes() {
        for lanes in [1, 2, 15, 16, 17, 31, MAX_GROUP] {
            // One batch size per scheme covers the whole list; the others
            // see its head, which holds every ragged shape.
            let n =
                if lanes == MAX_GROUP { pairs.len() } else { (2 * lanes.max(8)).min(pairs.len()) };
            assert_batches_match(&s, &pairs[..n], lanes, vectorized(&s));
        }
    }
}

/// The limits of `fills_are_exact_on_both_sides_of_*`, through batches: a
/// batch is taken up to each limit and refused past it — one lane over is
/// enough — and the batch entry answers either way.
#[test]
fn batch_kernel_is_exact_on_both_sides_of_the_limits() {
    let vector = vectorized(&scheme(11, 1));
    let (a, b) = mutated_pair(7, 150, 0.08, 0.01);
    // The side limits: 1 448 residues for the 32-lane body (one more goes
    // to the 16-lane body) and 2 048 for any batch, in `y` and then in
    // `x`. (Under BLOSUM62 the score limit's 1 363 residues bind the
    // shorter side.)
    let side = |len: usize| {
        vec![(a.clone(), b.clone()), (vec![3; 64], vec![3; len]), (vec![3; len], vec![3; 64])]
    };
    for len in [1448, 1449, 2048] {
        assert_batches_match(&scheme(11, 1), &side(len), 2, vector);
        assert_batches_match(&scheme(11, 1), &side(len), 3, vector);
    }
    assert_batches_match(&scheme(11, 1), &side(2049), 2, false);

    let pairs: Vec<Pair> = ragged().into_iter().take(MAX_GROUP).collect();
    assert_batches_match(&scheme(2048, 2048), &pairs, MAX_GROUP, vector);
    assert_batches_match(&scheme(2049, 2049), &pairs, MAX_GROUP, false);
    let short: Vec<Pair> =
        pairs.iter().filter(|(x, y)| x.len().min(y.len()) <= 118).cloned().collect();
    for (matched, vector) in [(127, vector), (128, false)] {
        let s = ScoringScheme {
            matrix: SubstMatrix::uniform(matched, -128),
            gap_open: 11,
            gap_extend: 1,
        };
        assert_batches_match(&s, &short, MAX_GROUP, vector);
        // The score limit under this matrix: min(m, n) ≤ 15 000 / 127.
        let limit = |len: usize| vec![(a.clone(), vec![9; len]), (vec![9; len], vec![9; len])];
        assert_batches_match(&s, &limit(118), 2, vector);
        assert_batches_match(&s, &limit(119), 2, false);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The combined entry agrees with the single criteria on arbitrary
    /// residue strings, on every engine.
    #[test]
    fn judge_is_consistent_on_random(x in residues(50), y in residues(50)) {
        let s = scheme(11, 1);
        assert_judge_is_consistent(&judge_engines(&s), &s, &x, &y);
    }

    /// The scalar twin reproduces the reference `Alignment` bit-for-bit
    /// on arbitrary residue strings (all 21 codes, `X` included).
    #[test]
    fn fills_equal_reference_alignment_on_random(x in residues(70), y in residues(70)) {
        let mut scratch = AlignScratch::new();
        for s in [scheme(11, 1), scheme(3, 3)] {
            let fill = OnePassFill::scalar(&s);
            prop_assert_eq!(fill.align(&x, &y, &mut scratch), local_affine(&x, &y, &s));
        }
    }

    /// Random batches: any number of lanes, any shapes, homologs among
    /// unrelated strings.
    #[test]
    fn batches_match_on_random(
        strings in prop::collection::vec((residues(60), residues(60)), 1..33),
        seed in 0u64..1000,
    ) {
        let mut pairs = strings;
        pairs.push(mutated_pair(seed, 20 + (seed as usize % 60), 0.1, 0.03));
        pairs.retain(|(x, y)| !x.is_empty() && !y.is_empty());
        pairs.truncate(MAX_GROUP);
        for s in [scheme(11, 1), scheme(3, 3)] {
            assert_batches_match(&s, &pairs, MAX_GROUP, vectorized(&s));
        }
    }

    /// Tiered and reference criteria agree on random (mostly dissimilar)
    /// sequence pairs.
    #[test]
    fn tiered_verdicts_match_reference_on_random(x in residues(50), y in residues(50)) {
        let s = scheme(11, 1);
        let (cp, op) = (ContainmentParams::default(), OverlapParams::default());
        let engine = AlignEngine::new(AlignEngineKind::Tiered, s.clone(), cp, op);
        prop_assert_eq!(
            engine.judge(&x, &y, X_IN_Y).x_in_y,
            is_contained(&x, &y, &s, &cp)
        );
        prop_assert_eq!(engine.overlaps(&x, &y, None).accept, overlaps(&x, &y, &s, &op));
    }
}
