//! Property-based tests for the LPM trie: behavioural equivalence with a
//! naive model, and insert/remove round-trips.

use std::net::Ipv4Addr;

use proptest::prelude::*;

use netkit_router::routing::{PrefixTrie, RouteEntry, RoutingTable};

/// The obviously-correct model: scan all prefixes, pick the longest
/// match.
fn mask(len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - len as u32)
    }
}

fn model_lookup(routes: &[(u32, u8, u16)], addr: u32) -> Option<u16> {
    routes
        .iter()
        .filter(|(net, len, _)| addr & mask(*len) == *net & mask(*len))
        .max_by_key(|(_, len, _)| *len)
        .map(|(_, _, v)| *v)
}

/// Normalised prefixes: host bits zeroed so duplicates collapse the same
/// way in the model and the trie.
fn prefix_strategy() -> impl Strategy<Value = (u32, u8, u16)> {
    (any::<u32>(), 0u8..=32, any::<u16>()).prop_map(|(net, len, v)| (net & mask(len), len, v))
}

proptest! {
    #[test]
    fn trie_agrees_with_naive_model(
        routes in proptest::collection::vec(prefix_strategy(), 0..64),
        probes in proptest::collection::vec(any::<u32>(), 0..64),
    ) {
        let mut trie = PrefixTrie::new(32);
        // Later inserts replace earlier ones for the same prefix — mirror
        // that in the model by keeping only the last entry per prefix.
        let mut dedup: Vec<(u32, u8, u16)> = Vec::new();
        for (net, len, v) in &routes {
            trie.insert((*net as u128) << 96, *len, *v);
            dedup.retain(|(n, l, _)| !(n == net && l == len));
            dedup.push((*net, *len, *v));
        }
        for probe in probes {
            let got = trie.lookup((probe as u128) << 96).copied();
            let want = model_lookup(&dedup, probe);
            prop_assert_eq!(got, want, "probe {:#010x}", probe);
        }
    }

    #[test]
    fn insert_then_remove_restores_previous_answers(
        base in proptest::collection::vec(prefix_strategy(), 0..32),
        extra in prefix_strategy(),
        probes in proptest::collection::vec(any::<u32>(), 0..32),
    ) {
        // Skip cases where `extra` collides with a base prefix (removal
        // would then expose the base entry, not "restore nothing").
        prop_assume!(!base.iter().any(|(n, l, _)| *n == extra.0 && *l == extra.1));

        let mut trie = PrefixTrie::new(32);
        for (net, len, v) in &base {
            trie.insert((*net as u128) << 96, *len, *v);
        }
        let before: Vec<Option<u16>> =
            probes.iter().map(|p| trie.lookup((*p as u128) << 96).copied()).collect();

        let (net, len, v) = extra;
        prop_assert_eq!(trie.insert((net as u128) << 96, len, v), None);
        prop_assert_eq!(trie.remove((net as u128) << 96, len), Some(v));

        let after: Vec<Option<u16>> =
            probes.iter().map(|p| trie.lookup((*p as u128) << 96).copied()).collect();
        prop_assert_eq!(before, after);
    }

    #[test]
    fn routing_table_v4_matches_trie_semantics(
        routes in proptest::collection::vec(prefix_strategy(), 1..32),
        probe in any::<u32>(),
    ) {
        let mut table = RoutingTable::new();
        let mut dedup: Vec<(u32, u8, u16)> = Vec::new();
        for (net, len, port) in &routes {
            table.insert(
                Ipv4Addr::from(*net).into(),
                *len,
                RouteEntry { egress: *port, next_hop: None },
            );
            dedup.retain(|(n, l, _)| !(n == net && l == len));
            dedup.push((*net, *len, *port));
        }
        let got = table.lookup(Ipv4Addr::from(probe).into()).map(|e| e.egress);
        prop_assert_eq!(got, model_lookup(&dedup, probe));
    }

    #[test]
    fn len_tracks_distinct_prefixes(
        routes in proptest::collection::vec(prefix_strategy(), 0..64),
    ) {
        let mut trie = PrefixTrie::new(32);
        let mut seen = std::collections::HashSet::new();
        for (net, len, v) in &routes {
            trie.insert((*net as u128) << 96, *len, *v);
            seen.insert((*net, *len));
        }
        prop_assert_eq!(trie.len(), seen.len());
    }
}
