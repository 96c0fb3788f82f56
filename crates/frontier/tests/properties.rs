//! Property-based tests: frontier conversions preserve the active set.

use essentials_frontier::{convert, DenseFrontier, Frontier, SparseFrontier, VertexFrontier};
use essentials_graph::VertexId;
use proptest::prelude::*;

fn arb_ids(universe: usize) -> impl Strategy<Value = Vec<VertexId>> {
    prop::collection::vec(0..universe as VertexId, 0..400)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sparse_dense_round_trip_is_set_semantics(ids in arb_ids(256)) {
        let s = SparseFrontier::from_vec(ids.clone());
        let d = convert::sparse_to_dense(&s, 256);
        let back = convert::dense_to_sparse(&d);
        let mut expected = ids.clone();
        expected.sort_unstable();
        expected.dedup();
        prop_assert_eq!(back.into_vec(), expected.clone());
        prop_assert_eq!(d.len(), expected.len());
        for v in 0..256u32 {
            prop_assert_eq!(d.contains(v), expected.contains(&v));
        }
    }

    #[test]
    fn uniquify_equals_sort_dedup(ids in arb_ids(64)) {
        let mut f = SparseFrontier::from_vec(ids.clone());
        f.uniquify();
        let mut expected = ids;
        expected.sort_unstable();
        expected.dedup();
        prop_assert_eq!(f.into_vec(), expected);
    }

    #[test]
    fn vertex_frontier_interface_is_representation_independent(ids in arb_ids(128)) {
        let sparse = VertexFrontier::Sparse(SparseFrontier::from_vec(ids.clone()));
        let dense = {
            let d = DenseFrontier::new(128);
            for &v in &ids {
                d.insert(v);
            }
            VertexFrontier::Dense(d)
        };
        let mut distinct = ids.clone();
        distinct.sort_unstable();
        distinct.dedup();
        // Dense reports set cardinality; sparse reports multiset length —
        // the *membership* interface is what must agree.
        prop_assert_eq!(dense.len(), distinct.len());
        for v in 0..128u32 {
            prop_assert_eq!(sparse.contains(v), dense.contains(v));
        }
        // Representation switches preserve the set.
        let round = VertexFrontier::Sparse(sparse.into_sparse())
            .into_dense(128);
        prop_assert_eq!(round.len(), distinct.len());
    }

    #[test]
    fn dense_remove_then_len_is_consistent(
        ids in arb_ids(64),
        removals in arb_ids(64),
    ) {
        let d = DenseFrontier::new(64);
        let mut model = std::collections::BTreeSet::new();
        for &v in &ids {
            d.insert(v);
            model.insert(v);
        }
        for &v in &removals {
            let did = d.remove(v);
            prop_assert_eq!(did, model.remove(&v));
        }
        prop_assert_eq!(d.len(), model.len());
        prop_assert_eq!(d.iter().collect::<Vec<_>>(), model.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn word_decode_paths_agree_with_iter(
        // Universe deliberately off the word boundary most of the time so
        // the tail word is exercised; 0 ids covers the empty extreme.
        universe in 1usize..600,
        ids in prop::collection::vec(0..600u32, 0..600),
    ) {
        let d = DenseFrontier::new(universe);
        let mut model = std::collections::BTreeSet::new();
        for &v in &ids {
            if (v as usize) < universe {
                d.insert(v);
                model.insert(v);
            }
        }
        let expected: Vec<VertexId> = model.into_iter().collect();
        // Word-at-a-time decode.
        let mut via_words = Vec::new();
        d.for_each_active(|v| via_words.push(v));
        prop_assert_eq!(&via_words, &expected);
        // Word-at-a-time conversion, both the allocating and reusing forms.
        prop_assert_eq!(convert::dense_to_sparse(&d).into_vec(), expected.clone());
        let mut reused = vec![0u32; 3]; // dirty storage must be cleared
        convert::dense_to_sparse_into(&d, &mut reused);
        prop_assert_eq!(&reused, &expected);
        // Full extreme: set_all covers the whole universe including the tail.
        d.set_all();
        prop_assert_eq!(d.len(), universe);
        let mut full = Vec::new();
        d.for_each_active(|v| full.push(v));
        prop_assert_eq!(full, (0..universe as VertexId).collect::<Vec<_>>());
    }

    #[test]
    fn dense_word_ops_match_set_algebra(
        universe in 1usize..300,
        a_ids in prop::collection::vec(0..300u32, 0..300),
        b_ids in prop::collection::vec(0..300u32, 0..300),
    ) {
        use std::collections::BTreeSet;
        let a = DenseFrontier::new(universe);
        let b = DenseFrontier::new(universe);
        let sa: BTreeSet<u32> = a_ids.iter().copied().filter(|&v| (v as usize) < universe).collect();
        let sb: BTreeSet<u32> = b_ids.iter().copied().filter(|&v| (v as usize) < universe).collect();
        for &v in &sa { a.insert(v); }
        for &v in &sb { b.insert(v); }
        a.union_with(&b);
        prop_assert_eq!(a.len(), sa.union(&sb).count());
        prop_assert_eq!(a.iter().collect::<Vec<_>>(), sa.union(&sb).copied().collect::<Vec<_>>());
        a.and_not(&b);
        prop_assert_eq!(a.len(), sa.difference(&sb).count());
        prop_assert_eq!(a.iter().collect::<Vec<_>>(), sa.difference(&sb).copied().collect::<Vec<_>>());
    }
}
