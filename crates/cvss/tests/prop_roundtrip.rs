//! Property-based tests for the CVSS scoring equations.

use proptest::prelude::*;
use redeval_cvss::v2::{AccessComplexity, AccessVector, Authentication, BaseVector, Impact};

fn any_v2() -> impl Strategy<Value = BaseVector> {
    (
        prop_oneof![
            Just(AccessVector::Local),
            Just(AccessVector::AdjacentNetwork),
            Just(AccessVector::Network)
        ],
        prop_oneof![
            Just(AccessComplexity::High),
            Just(AccessComplexity::Medium),
            Just(AccessComplexity::Low)
        ],
        prop_oneof![
            Just(Authentication::Multiple),
            Just(Authentication::Single),
            Just(Authentication::None)
        ],
        any_impact(),
        any_impact(),
        any_impact(),
    )
        .prop_map(|(av, ac, au, c, i, a)| BaseVector::new(av, ac, au, c, i, a))
}

fn any_impact() -> impl Strategy<Value = Impact> {
    prop_oneof![
        Just(Impact::None),
        Just(Impact::Partial),
        Just(Impact::Complete)
    ]
}

proptest! {
    #[test]
    fn v2_roundtrip(v in any_v2()) {
        let s = v.to_vector_string();
        let parsed: BaseVector = s.parse().unwrap();
        prop_assert_eq!(parsed, v);
    }

    #[test]
    fn v2_scores_in_range(v in any_v2()) {
        prop_assert!((0.0..=10.0).contains(&v.base_score()));
        prop_assert!((0.0..=10.0).contains(&v.impact_subscore()));
        prop_assert!((0.0..=10.0).contains(&v.exploitability_subscore()));
        prop_assert!((0.0..=1.0).contains(&v.attack_success_probability()));
    }

    #[test]
    fn v2_zero_impact_means_zero_base(v in any_v2()) {
        if v.confidentiality == Impact::None
            && v.integrity == Impact::None
            && v.availability == Impact::None
        {
            prop_assert_eq!(v.base_score(), 0.0);
        } else {
            prop_assert!(v.impact_subscore() > 0.0);
        }
    }

    #[test]
    fn v2_monotone_in_access_vector(v in any_v2()) {
        // Widening the access vector never lowers the score.
        let mut wider = v;
        wider.access_vector = AccessVector::Network;
        prop_assert!(wider.base_score() >= v.base_score() - 1e-9);
    }
}
