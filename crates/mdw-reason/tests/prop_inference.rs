//! Property-based tests for the inference engine: soundness against a
//! transitive-closure oracle, monotonicity, fixpoint idempotence,
//! incremental-vs-full equivalence, and stacked-index-vs-rebuild
//! equivalence across delta-run folds and tombstones.

use proptest::prelude::*;

use mdw_rdf::store::Store;
use mdw_rdf::term::Term;
use mdw_rdf::triple::Triple;
use mdw_rdf::vocab;
use mdw_reason::{engine::FOLD_DIVISOR, Materialization, Rulebase};

/// A random ontology-ish graph: subclass edges over a small class pool plus
/// type edges from a small instance pool.
#[derive(Debug, Clone)]
struct RandomGraph {
    subclass: Vec<(u8, u8)>,
    types: Vec<(u8, u8)>,
}

fn random_graph() -> impl Strategy<Value = RandomGraph> {
    (
        proptest::collection::vec((0u8..8, 0u8..8), 0..16),
        proptest::collection::vec((0u8..6, 0u8..8), 0..10),
    )
        .prop_map(|(subclass, types)| RandomGraph { subclass, types })
}

fn class(i: u8) -> Term {
    Term::iri(format!("http://ex.org/C{i}"))
}

fn inst(i: u8) -> Term {
    Term::iri(format!("http://ex.org/x{i}"))
}

fn build(g: &RandomGraph) -> (Store, Rulebase) {
    let mut store = Store::new();
    store.create_model("m").unwrap();
    let rb = Rulebase::rdfs(store.dict_mut());
    for &(a, b) in &g.subclass {
        store
            .insert("m", &class(a), &Term::iri(vocab::rdfs::SUB_CLASS_OF), &class(b))
            .unwrap();
    }
    for &(x, c) in &g.types {
        store
            .insert("m", &inst(x), &Term::iri(vocab::rdf::TYPE), &class(c))
            .unwrap();
    }
    (store, rb)
}

/// Reference implementation: reflexive-free transitive closure of subclass
/// plus type inheritance, computed by Floyd–Warshall-style saturation.
#[allow(clippy::type_complexity)]
fn oracle(g: &RandomGraph) -> (Vec<(u8, u8)>, Vec<(u8, u8)>) {
    let mut sub = [[false; 8]; 8];
    for &(a, b) in &g.subclass {
        sub[a as usize][b as usize] = true;
    }
    for k in 0..8 {
        for i in 0..8 {
            for j in 0..8 {
                if sub[i][k] && sub[k][j] {
                    sub[i][j] = true;
                }
            }
        }
    }
    let mut types = [[false; 6]; 8];
    for &(x, c) in &g.types {
        types[c as usize][x as usize] = true;
    }
    let mut closed_types = types;
    for c in 0..8 {
        for d in 0..8 {
            if sub[c][d] {
                for x in 0..6 {
                    if types[c][x] {
                        closed_types[d][x] = true;
                    }
                }
            }
        }
    }
    let mut sub_pairs = Vec::new();
    for (i, row) in sub.iter().enumerate() {
        for (j, &v) in row.iter().enumerate() {
            if v {
                sub_pairs.push((i as u8, j as u8));
            }
        }
    }
    let mut type_pairs = Vec::new();
    for (c, row) in closed_types.iter().enumerate() {
        for (x, &v) in row.iter().enumerate() {
            if v {
                type_pairs.push((x as u8, c as u8));
            }
        }
    }
    (sub_pairs, type_pairs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn closure_matches_oracle(g in random_graph()) {
        let (store, rb) = build(&g);
        let m = Materialization::materialize(&store.model("m").unwrap().freeze(), &rb, store.dict());
        let graph = store.model("m").unwrap();
        let derived = m.derived();
        let entailed = |s: &Term, p: &str, o: &Term| -> bool {
            match (store.encode(s), store.encode(&Term::iri(p)), store.encode(o)) {
                (Some(s), Some(p), Some(o)) => {
                    let t = Triple::new(s, p, o);
                    graph.contains(t) || derived.contains(t)
                }
                _ => false,
            }
        };
        let (sub_pairs, type_pairs) = oracle(&g);
        // Completeness: every closure edge is entailed.
        for (a, b) in &sub_pairs {
            prop_assert!(
                entailed(&class(*a), vocab::rdfs::SUB_CLASS_OF, &class(*b)),
                "missing C{a} ⊑ C{b}"
            );
        }
        for (x, c) in &type_pairs {
            prop_assert!(
                entailed(&inst(*x), vocab::rdf::TYPE, &class(*c)),
                "missing x{x} : C{c}"
            );
        }
        // Soundness: every derived subclass/type triple is in the closure.
        let sub_p = store.encode(&Term::iri(vocab::rdfs::SUB_CLASS_OF));
        let ty_p = store.encode(&Term::iri(vocab::rdf::TYPE));
        for t in derived.iter() {
            let (s, p, o) = store.decode(t).unwrap();
            if Some(t.p) == sub_p {
                let a: u8 = s.label().trim_start_matches('C').parse().unwrap();
                let b: u8 = o.label().trim_start_matches('C').parse().unwrap();
                prop_assert!(sub_pairs.contains(&(a, b)), "unsound {a} ⊑ {b}");
            } else if Some(t.p) == ty_p {
                let x: u8 = s.label().trim_start_matches('x').parse().unwrap();
                let c: u8 = o.label().trim_start_matches('C').parse().unwrap();
                prop_assert!(type_pairs.contains(&(x, c)), "unsound x{x} : C{c}");
            } else {
                prop_assert!(false, "unexpected derived predicate {p}");
            }
        }
    }

    #[test]
    fn monotone_in_the_input(g in random_graph(), extra in random_graph()) {
        let (store_small, rb) = build(&g);
        let m_small =
            Materialization::materialize(&store_small.model("m").unwrap().freeze(), &rb, store_small.dict());

        // The larger graph contains g plus extra.
        let merged = RandomGraph {
            subclass: [g.subclass.clone(), extra.subclass.clone()].concat(),
            types: [g.types.clone(), extra.types.clone()].concat(),
        };
        let (store_big, rb_big) = build(&merged);
        let m_big =
            Materialization::materialize(&store_big.model("m").unwrap().freeze(), &rb_big, store_big.dict());

        // Every small-graph entailment survives (decoded comparison:
        // dictionaries differ between stores).
        for t in m_small.derived().iter() {
            let (s, p, o) = store_small.decode(t).unwrap();
            let (Some(s), Some(p), Some(o)) =
                (store_big.encode(s), store_big.encode(p), store_big.encode(o))
            else {
                prop_assert!(false, "term vanished in bigger store");
                unreachable!()
            };
            let t_big = Triple::new(s, p, o);
            prop_assert!(
                store_big.model("m").unwrap().contains(t_big) || m_big.derived().contains(t_big),
                "entailment lost when growing the graph"
            );
        }
    }

    #[test]
    fn fixpoint_is_idempotent(g in random_graph()) {
        let (store, rb) = build(&g);
        let m = Materialization::materialize(&store.model("m").unwrap().freeze(), &rb, store.dict());
        let mut enriched = store.model("m").unwrap().clone();
        for t in m.derived().iter() {
            enriched.insert(t);
        }
        let m2 = Materialization::materialize(&enriched.freeze(), &rb, store.dict());
        prop_assert_eq!(m2.derived().len(), 0);
    }

    #[test]
    fn incremental_equals_full(g in random_graph(), split in 0usize..20) {
        // Insert a prefix, materialize, then extend with the rest —
        // the result must equal materializing everything at once.
        let all_triples: Vec<(Term, Term, Term)> = g
            .subclass
            .iter()
            .map(|&(a, b)| (class(a), Term::iri(vocab::rdfs::SUB_CLASS_OF), class(b)))
            .chain(
                g.types
                    .iter()
                    .map(|&(x, c)| (inst(x), Term::iri(vocab::rdf::TYPE), class(c))),
            )
            .collect();
        let split = split.min(all_triples.len());

        let mut store = Store::new();
        store.create_model("m").unwrap();
        let rb = Rulebase::rdfs(store.dict_mut());
        for (s, p, o) in &all_triples[..split] {
            store.insert("m", s, p, o).unwrap();
        }
        let mut m = Materialization::materialize(&store.model("m").unwrap().freeze(), &rb, store.dict());
        let mut new_encoded = Vec::new();
        for (s, p, o) in &all_triples[split..] {
            if store.insert("m", s, p, o).unwrap() {
                new_encoded.push(Triple::new(
                    store.encode(s).unwrap(),
                    store.encode(p).unwrap(),
                    store.encode(o).unwrap(),
                ));
            }
        }
        m.extend(&store.model("m").unwrap().freeze(), &rb, store.dict(), &new_encoded);

        let full = Materialization::materialize(&store.model("m").unwrap().freeze(), &rb, store.dict());
        let inc: Vec<Triple> = m.derived().iter().collect();
        let fl: Vec<Triple> = full.derived().iter().collect();
        prop_assert_eq!(inc, fl);
    }

    #[test]
    fn stacked_extensions_equal_rebuild(
        g in random_graph(),
        extra in proptest::collection::vec((any::<bool>(), 0u8..8, 0u8..8), 24..32),
        promote in 1usize..24,
        pick in any::<usize>(),
    ) {
        // Ballast: 64 derived rows, so the delta run has room to stack
        // (a one-row delivery stays under 64 / FOLD_DIVISOR) before it
        // folds; every delivery adds one ballast row, so the run crosses
        // the fold threshold within the sequence.
        let (mut store, rb) = build(&g);
        let ty = Term::iri(vocab::rdf::TYPE);
        let sub = Term::iri(vocab::rdfs::SUB_CLASS_OF);
        let ballast = |i: usize| Term::iri(format!("http://ex.org/b{i}"));
        let (b0, b1) = (Term::iri("http://ex.org/Ballast0"), Term::iri("http://ex.org/Ballast1"));
        store.insert("m", &b0, &sub, &b1).unwrap();
        for i in 0..64 {
            store.insert("m", &ballast(i), &ty, &b0).unwrap();
        }
        let mut m = Materialization::materialize(&store.model("m").unwrap().freeze(), &rb, store.dict());
        let (mut stacked, mut folds) = (0, 0);
        for (step, &(with_random, a, b)) in extra.iter().enumerate() {
            let mut facts = vec![(ballast(64 + step), ty.clone(), b0.clone())];
            // The first delivery is the ballast row alone, so the run
            // stacks at least once.
            if with_random && step > 0 {
                facts.push(if a % 2 == 0 {
                    (class(a), sub.clone(), class(b))
                } else {
                    (inst(a % 6), ty.clone(), class(b))
                });
            }
            // One delivery asserts a triple the index derived: a tombstone
            // must hide it from the index.
            let promoted = (step == promote).then(|| {
                let rows: Vec<Triple> = m.derived().iter().collect();
                rows[pick % rows.len()]
            });
            if let Some(t) = promoted {
                let (s, p, o) = store.decode(t).unwrap();
                facts.push((s.clone(), p.clone(), o.clone()));
            }
            let mut new_encoded = Vec::new();
            for (s, p, o) in &facts {
                if store.insert("m", s, p, o).unwrap() {
                    new_encoded.push(Triple::new(
                        store.encode(s).unwrap(),
                        store.encode(p).unwrap(),
                        store.encode(o).unwrap(),
                    ));
                }
            }
            let was_stacked = m.derived().is_stacked();
            m.extend(&store.model("m").unwrap().freeze(), &rb, store.dict(), &new_encoded);
            let derived = m.derived();
            prop_assert!(derived.deltas().len() <= 1, "stack depth {}", derived.deltas().len());
            if derived.is_stacked() {
                stacked += 1;
                let run = &derived.deltas()[0];
                prop_assert!(run.ops() * FOLD_DIVISOR <= derived.index().len());
            } else if was_stacked {
                folds += 1;
            }
            if let Some(t) = promoted {
                prop_assert!(!derived.contains(t), "asserted triple still in the index");
            }
            let full = Materialization::materialize(&store.model("m").unwrap().freeze(), &rb, store.dict());
            let inc: Vec<Triple> = derived.iter().collect();
            let fl: Vec<Triple> = full.derived().iter().collect();
            prop_assert_eq!(m.stats().derived, inc.len());
            prop_assert_eq!(inc, fl, "diverged after delivery {}", step);
        }
        prop_assert!(stacked > 0 && folds > 0, "stacked {} times, folded {} times", stacked, folds);
    }
}
