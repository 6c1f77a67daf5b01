//! Property-based tests for [`Name`] ancestry and bailiwick helpers.
//!
//! The resolver's acceptance rules (DESIGN.md §6c) are built
//! on exactly three primitives — `is_subdomain_of`,
//! `is_strict_subdomain_of` and `parent` — so their algebra is
//! load-bearing for every bailiwick decision: a hole here is a cache
//! poisoning hole.

use dns_wire::name::Name;
use proptest::prelude::*;

/// Strategy: a valid DNS label (1..=15 arbitrary octets).
fn label() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 1..=15)
}

/// Strategy: a valid name of 0..=5 labels.
fn name() -> impl Strategy<Value = Name> {
    proptest::collection::vec(label(), 0..=5)
        .prop_map(|labels| Name::from_labels(labels).expect("short labels fit"))
}

/// The label-suffix definition of ancestry, independent of the
/// implementation under test.
fn is_suffix(anc: &Name, n: &Name) -> bool {
    let a: Vec<&[u8]> = anc.labels().collect();
    let b: Vec<&[u8]> = n.labels().collect();
    a.len() <= b.len() && a[..] == b[b.len() - a.len()..]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn subdomain_matches_label_suffix_definition(a in name(), b in name()) {
        prop_assert_eq!(a.is_subdomain_of(&b), is_suffix(&b, &a));
    }

    #[test]
    fn subdomain_is_reflexive_strict_is_not(n in name()) {
        prop_assert!(n.is_subdomain_of(&n));
        prop_assert!(!n.is_strict_subdomain_of(&n));
    }

    #[test]
    fn strict_subdomain_iff_subdomain_and_unequal(a in name(), b in name()) {
        prop_assert_eq!(
            a.is_strict_subdomain_of(&b),
            a.is_subdomain_of(&b) && a != b
        );
    }

    #[test]
    fn subdomain_is_transitive(a in name(), b in name(), c in name()) {
        if a.is_subdomain_of(&b) && b.is_subdomain_of(&c) {
            prop_assert!(a.is_subdomain_of(&c));
        }
    }

    #[test]
    fn subdomain_is_antisymmetric(a in name(), b in name()) {
        if a.is_subdomain_of(&b) && b.is_subdomain_of(&a) {
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn everything_is_under_the_root(n in name()) {
        prop_assert!(n.is_subdomain_of(&Name::root()));
        prop_assert_eq!(n.is_strict_subdomain_of(&Name::root()), !n.is_root());
    }

    #[test]
    fn parent_chain_walks_to_root(n in name()) {
        // The ancestor chain has exactly label_count + 1 members (the
        // name itself down to the root), each a strict ancestor of the
        // previous, with label_count decreasing by exactly one.
        let mut seen = 0usize;
        let mut cur = n.clone();
        while let Some(p) = cur.parent() {
            prop_assert!(cur.is_strict_subdomain_of(&p));
            prop_assert!(n.is_subdomain_of(&p));
            prop_assert_eq!(p.label_count() + 1, cur.label_count());
            seen += 1;
            cur = p;
        }
        prop_assert!(cur.is_root());
        prop_assert_eq!(seen, n.label_count());
    }

    #[test]
    fn prepend_label_inverts_parent(n in name(), l in label()) {
        if let Ok(child) = n.prepend_label(&l) {
            prop_assert_eq!(child.parent().unwrap(), n.clone());
            prop_assert!(child.is_strict_subdomain_of(&n));
            prop_assert_eq!(child.label_count(), n.label_count() + 1);
        }
    }

    #[test]
    fn concat_lands_in_the_suffix_bailiwick(a in name(), b in name()) {
        if let Ok(joined) = a.concat(&b) {
            prop_assert!(joined.is_subdomain_of(&b));
            prop_assert_eq!(joined.label_count(), a.label_count() + b.label_count());
            // strip_suffix inverts concat.
            let stripped = joined.strip_suffix(&b).expect("suffix present");
            let again = Name::from_labels(stripped).unwrap().concat(&b).unwrap();
            prop_assert_eq!(again, joined);
        }
    }

    #[test]
    fn ancestors_sort_before_descendants_canonically(a in name(), l in label()) {
        if let Ok(child) = a.prepend_label(&l) {
            prop_assert_eq!(a.canonical_cmp(&child), std::cmp::Ordering::Less);
        }
    }

    #[test]
    fn unrelated_siblings_are_never_in_bailiwick(a in name(), l1 in label(), l2 in label()) {
        // Two distinct children of the same parent can never contain one
        // another — the core of the referral-progress check. (Labels are
        // case-folded by `Name`, so compare them case-insensitively.)
        if !l1.eq_ignore_ascii_case(&l2) {
            if let (Ok(c1), Ok(c2)) = (a.prepend_label(&l1), a.prepend_label(&l2)) {
                prop_assert!(!c1.is_subdomain_of(&c2));
                prop_assert!(!c2.is_subdomain_of(&c1));
            }
        }
    }
}
