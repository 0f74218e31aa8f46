//! Longest-prefix-match routing tables.
//!
//! A binary trie keyed on address bits, generic over prefix width so the
//! same engine serves IPv4 (32 bits) and IPv6 (128 bits). Route lookup is
//! the per-packet hot operation of the forwarding experiments, so the
//! trie keeps nodes small and the walk allocation-free.

use std::fmt;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// A route's action: where the packet leaves and via whom.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RouteEntry {
    /// Egress port index.
    pub egress: u16,
    /// Next-hop address (`None` for directly connected destinations).
    pub next_hop: Option<IpAddr>,
}

#[derive(Debug)]
struct TrieNode<T> {
    children: [Option<Box<TrieNode<T>>>; 2],
    value: Option<T>,
}

impl<T> Default for TrieNode<T> {
    fn default() -> Self {
        Self {
            children: [None, None],
            value: None,
        }
    }
}

/// A binary longest-prefix-match trie over up to 128-bit keys.
///
/// Keys are stored MSB-first in a `u128`; IPv4 addresses occupy the top
/// 32 bits.
pub struct PrefixTrie<T> {
    root: TrieNode<T>,
    max_bits: u8,
    len: usize,
}

impl<T> PrefixTrie<T> {
    /// Creates an empty trie for prefixes of at most `max_bits` bits.
    pub fn new(max_bits: u8) -> Self {
        assert!(max_bits <= 128, "prefix width beyond 128 bits");
        Self {
            root: TrieNode::default(),
            max_bits,
            len: 0,
        }
    }

    fn bit(key: u128, index: u8) -> usize {
        ((key >> (127 - index)) & 1) as usize
    }

    /// Inserts (or replaces) a prefix of `len` bits; returns the previous
    /// value if the prefix was present.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the trie's width.
    pub fn insert(&mut self, key: u128, len: u8, value: T) -> Option<T> {
        assert!(len <= self.max_bits, "prefix longer than trie width");
        let mut node = &mut self.root;
        for i in 0..len {
            let b = Self::bit(key, i);
            node = node.children[b].get_or_insert_with(Box::default);
        }
        let old = node.value.replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Removes a prefix; returns its value if present.
    pub fn remove(&mut self, key: u128, len: u8) -> Option<T> {
        let mut node = &mut self.root;
        for i in 0..len {
            let b = Self::bit(key, i);
            node = node.children[b].as_deref_mut()?;
        }
        let removed = node.value.take();
        if removed.is_some() {
            self.len -= 1;
        }
        removed
    }

    /// The value stored for exactly this prefix, if any.
    pub(crate) fn get(&self, key: u128, len: u8) -> Option<&T> {
        let mut node = &self.root;
        for i in 0..len {
            node = node.children[Self::bit(key, i)].as_deref()?;
        }
        node.value.as_ref()
    }

    /// Longest-prefix lookup for a full-width key.
    pub fn lookup(&self, key: u128) -> Option<&T> {
        let mut node = &self.root;
        let mut best = node.value.as_ref();
        for i in 0..self.max_bits {
            let b = Self::bit(key, i);
            match node.children[b].as_deref() {
                Some(child) => {
                    node = child;
                    if node.value.is_some() {
                        best = node.value.as_ref();
                    }
                }
                None => break,
            }
        }
        best
    }

    /// Number of stored prefixes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the trie is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<T> fmt::Debug for PrefixTrie<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PrefixTrie({} prefixes, {} bits)",
            self.len, self.max_bits
        )
    }
}

/// Why a textual prefix was rejected by [`RoutingTable::try_add`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixParseError {
    /// The offending prefix text.
    pub prefix: String,
    /// What was wrong with it.
    pub reason: String,
}

impl fmt::Display for PrefixParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad prefix `{}`: {}", self.prefix, self.reason)
    }
}

impl std::error::Error for PrefixParseError {}

/// Parses `addr/len` into the row it keys: the address masked to its
/// length, the length within its family's width. The one reading of a
/// textual prefix — [`RoutingTable::try_add`], the route element's
/// table and the description validator all read prefixes through it.
pub(crate) fn parse_prefix(prefix: &str) -> Result<(IpAddr, u8), PrefixParseError> {
    let bad = |reason: &str| PrefixParseError {
        prefix: prefix.to_owned(),
        reason: reason.to_owned(),
    };
    let (addr, len) = prefix
        .split_once('/')
        .ok_or_else(|| bad("expected `address/length`"))?;
    let len: u8 = len
        .parse()
        .map_err(|_| bad("prefix length is not a number in 0..=255"))?;
    // A `width`-bit mask of the top `len` bits, in the result's low bits.
    let keep = |width: u32| u128::MAX.checked_shl(width - u32::from(len)).unwrap_or(0);
    let net = match addr.parse().map_err(|_| bad("unparsable address"))? {
        IpAddr::V4(_) if len > 32 => return Err(bad("IPv4 prefix length exceeds 32")),
        IpAddr::V6(_) if len > 128 => return Err(bad("IPv6 prefix length exceeds 128")),
        IpAddr::V4(a) => Ipv4Addr::from(u32::from(a) & keep(32) as u32).into(),
        IpAddr::V6(a) => Ipv6Addr::from(u128::from(a) & keep(128)).into(),
    };
    Ok((net, len))
}

fn v4_key(addr: Ipv4Addr) -> u128 {
    (u32::from(addr) as u128) << 96
}

fn v6_key(addr: Ipv6Addr) -> u128 {
    u128::from(addr)
}

/// A dual-stack routing table with longest-prefix-match semantics.
///
/// # Examples
///
/// ```
/// use netkit_router::routing::{RouteEntry, RoutingTable};
///
/// let mut table = RoutingTable::new();
/// table.insert("10.0.0.0".parse()?, 8, RouteEntry { egress: 1, next_hop: None });
/// table.insert("10.1.0.0".parse()?, 16, RouteEntry { egress: 2, next_hop: None });
/// let hit = table.lookup("10.1.2.3".parse()?).unwrap();
/// assert_eq!(hit.egress, 2); // longest prefix wins
/// # Ok::<(), std::net::AddrParseError>(())
/// ```
pub struct RoutingTable {
    v4: PrefixTrie<RouteEntry>,
    v6: PrefixTrie<RouteEntry>,
}

impl Default for RoutingTable {
    fn default() -> Self {
        Self::new()
    }
}

impl RoutingTable {
    /// Creates an empty dual-stack table.
    pub fn new() -> Self {
        Self {
            v4: PrefixTrie::new(32),
            v6: PrefixTrie::new(128),
        }
    }

    /// Adds a route from a textual prefix (`"10.0.0.0/8"` or
    /// `"2001:db8::/32"`), rejecting malformed input — the fallible
    /// twin of [`Self::add`] for untrusted/route-protocol input (same
    /// shape as `FilterPattern::try_src`/`try_dst`). Returns the
    /// replaced entry, if the prefix was already present.
    ///
    /// # Errors
    ///
    /// Fails on a missing `/`, an unparsable address or length, or a
    /// length exceeding the family width (32 for IPv4, 128 for IPv6).
    pub fn try_add(
        &mut self,
        prefix: &str,
        entry: RouteEntry,
    ) -> Result<Option<RouteEntry>, PrefixParseError> {
        let (net, len) = parse_prefix(prefix)?;
        Ok(self.insert(net, len, entry))
    }

    /// Adds a route from a textual prefix (`"10.0.0.0/8"` or
    /// `"2001:db8::/32"`); routes through [`Self::try_add`].
    ///
    /// # Panics
    ///
    /// Panics on malformed prefixes (intended for static
    /// configuration); use [`Self::try_add`] for untrusted input.
    pub fn add(&mut self, prefix: &str, entry: RouteEntry) {
        self.try_add(prefix, entry).expect("valid prefix");
    }

    /// Installs (or replaces) the route for `net/len`; returns the
    /// replaced entry. Panics if `len` exceeds the family's width.
    pub fn insert(&mut self, net: IpAddr, len: u8, entry: RouteEntry) -> Option<RouteEntry> {
        match net {
            IpAddr::V4(a) => self.v4.insert(v4_key(a), len, entry),
            IpAddr::V6(a) => self.v6.insert(v6_key(a), len, entry),
        }
    }

    /// Removes the route for exactly `net/len`; returns it.
    pub fn remove(&mut self, net: IpAddr, len: u8) -> Option<RouteEntry> {
        match net {
            IpAddr::V4(a) => self.v4.remove(v4_key(a), len),
            IpAddr::V6(a) => self.v6.remove(v6_key(a), len),
        }
    }

    /// The route installed for exactly `net/len`, if any (no
    /// longest-prefix fallback).
    pub(crate) fn get(&self, net: IpAddr, len: u8) -> Option<RouteEntry> {
        match net {
            IpAddr::V4(a) => self.v4.get(v4_key(a), len),
            IpAddr::V6(a) => self.v6.get(v6_key(a), len),
        }
        .copied()
    }

    /// Longest-prefix lookup for either family.
    pub fn lookup(&self, addr: IpAddr) -> Option<RouteEntry> {
        match addr {
            IpAddr::V4(a) => self.v4.lookup(v4_key(a)).copied(),
            IpAddr::V6(a) => self.v6.lookup(v6_key(a)).copied(),
        }
    }

    /// `(v4 routes, v6 routes)` counts.
    pub fn len(&self) -> (usize, usize) {
        (self.v4.len(), self.v6.len())
    }

    /// True if both families are empty.
    pub fn is_empty(&self) -> bool {
        self.v4.is_empty() && self.v6.is_empty()
    }
}

impl fmt::Debug for RoutingTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (v4, v6) = self.len();
        write!(f, "RoutingTable({v4} v4, {v6} v6)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(egress: u16) -> RouteEntry {
        RouteEntry {
            egress,
            next_hop: None,
        }
    }

    #[test]
    fn longest_prefix_wins() {
        let mut t = RoutingTable::new();
        t.add("0.0.0.0/0", e(0));
        t.add("10.0.0.0/8", e(1));
        t.add("10.1.0.0/16", e(2));
        t.add("10.1.2.0/24", e(3));
        assert_eq!(t.lookup("10.1.2.3".parse().unwrap()).unwrap().egress, 3);
        assert_eq!(t.lookup("10.1.9.9".parse().unwrap()).unwrap().egress, 2);
        assert_eq!(t.lookup("10.200.0.1".parse().unwrap()).unwrap().egress, 1);
        assert_eq!(t.lookup("8.8.8.8".parse().unwrap()).unwrap().egress, 0);
    }

    #[test]
    fn no_default_means_no_route() {
        let mut t = RoutingTable::new();
        t.add("10.0.0.0/8", e(1));
        assert!(t.lookup("8.8.8.8".parse().unwrap()).is_none());
    }

    #[test]
    fn host_routes_are_exact() {
        let mut t = RoutingTable::new();
        t.add("10.0.0.5/32", e(7));
        assert_eq!(t.lookup("10.0.0.5".parse().unwrap()).unwrap().egress, 7);
        assert!(t.lookup("10.0.0.6".parse().unwrap()).is_none());
    }

    #[test]
    fn replace_returns_old_entry() {
        let mut t = RoutingTable::new();
        assert_eq!(t.insert("10.0.0.0".parse().unwrap(), 8, e(1)), None);
        assert_eq!(t.insert("10.0.0.0".parse().unwrap(), 8, e(2)), Some(e(1)));
        assert_eq!(t.len(), (1, 0));
    }

    #[test]
    fn remove_restores_shorter_match() {
        let mut t = RoutingTable::new();
        t.add("10.0.0.0/8", e(1));
        t.add("10.1.0.0/16", e(2));
        assert_eq!(t.lookup("10.1.0.1".parse().unwrap()).unwrap().egress, 2);
        assert_eq!(t.remove("10.1.0.0".parse().unwrap(), 16), Some(e(2)));
        assert_eq!(t.lookup("10.1.0.1".parse().unwrap()).unwrap().egress, 1);
        assert_eq!(t.remove("10.1.0.0".parse().unwrap(), 16), None);
    }

    #[test]
    fn v6_lookup() {
        let mut t = RoutingTable::new();
        t.add("2001:db8::/32", e(1));
        t.add("2001:db8:1::/48", e(2));
        assert_eq!(
            t.lookup("2001:db8:1::9".parse().unwrap()).unwrap().egress,
            2
        );
        assert_eq!(
            t.lookup("2001:db8:2::9".parse().unwrap()).unwrap().egress,
            1
        );
        assert!(t.lookup("2002::1".parse().unwrap()).is_none());
    }

    #[test]
    fn families_are_independent() {
        let mut t = RoutingTable::new();
        t.add("0.0.0.0/0", e(4));
        assert!(t.lookup("2001:db8::1".parse().unwrap()).is_none());
        t.add("::/0", e(6));
        assert_eq!(t.lookup("2001:db8::1".parse().unwrap()).unwrap().egress, 6);
        assert_eq!(t.lookup("9.9.9.9".parse().unwrap()).unwrap().egress, 4);
    }

    #[test]
    fn try_add_rejects_malformed_prefixes() {
        let mut t = RoutingTable::new();
        for (prefix, reason_bit) in [
            ("10.0.0.0", "address/length"),
            ("10.0.0.0/x", "not a number"),
            ("10.0.0.0/256", "not a number"),
            ("nonsense/8", "unparsable address"),
            ("10.0.0.0/33", "exceeds 32"),
            ("2001:db8::/129", "exceeds 128"),
        ] {
            let err = t.try_add(prefix, e(1)).unwrap_err();
            assert!(
                err.reason.contains(reason_bit),
                "{prefix}: unexpected reason `{}`",
                err.reason
            );
            assert_eq!(err.prefix, prefix);
            assert!(err.to_string().contains(prefix));
        }
        assert!(t.is_empty(), "rejected prefixes must not be installed");
    }

    #[test]
    fn try_add_accepts_and_reports_replacement() {
        let mut t = RoutingTable::new();
        assert_eq!(t.try_add("10.0.0.0/8", e(1)), Ok(None));
        assert_eq!(t.try_add("10.0.0.0/8", e(2)), Ok(Some(e(1))));
        assert_eq!(t.try_add("2001:db8::/32", e(3)), Ok(None));
        assert_eq!(t.lookup("10.1.2.3".parse().unwrap()).unwrap().egress, 2);
        assert_eq!(t.lookup("2001:db8::9".parse().unwrap()).unwrap().egress, 3);
    }

    #[test]
    #[should_panic(expected = "valid prefix")]
    fn add_panics_via_try_add() {
        RoutingTable::new().add("not-a-prefix", e(1));
    }

    #[test]
    fn dense_table_lookups() {
        let mut t = RoutingTable::new();
        for i in 0..=255u8 {
            t.insert(Ipv4Addr::new(10, i, 0, 0).into(), 16, e(i as u16));
        }
        assert_eq!(t.len().0, 256);
        for i in (0..=255u8).step_by(17) {
            let hit = t.lookup(IpAddr::V4(Ipv4Addr::new(10, i, 3, 4))).unwrap();
            assert_eq!(hit.egress, i as u16);
        }
    }
}
