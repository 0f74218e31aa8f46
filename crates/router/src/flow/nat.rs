//! NAT44: source NAT with deterministic port-block allocation.

use std::fmt;
use std::net::{IpAddr, Ipv4Addr};
use std::sync::Arc;

use netkit_packet::batch::PacketBatch;
use netkit_packet::flow::{FlowKey, ParsedFlow};
use netkit_packet::packet::Packet;
use opencom::component::{Component, ComponentCore, Registrar};
use opencom::counters;
use opencom::receptacle::Receptacle;
use parking_lot::Mutex;

use crate::api::{emit, BatchResult, Exit, Exits, IPacketPush, Output, PushError, IPACKET_PUSH};
use crate::elements::element_core;

use super::rewrite::{rewrite_ipv4_endpoint, RewriteSide};
use super::table::{FlowClock, FlowTable};

/// Configuration for [`Nat44`].
#[derive(Clone, Copy, Debug)]
pub struct Nat44Config {
    /// The external (public) IPv4 address bindings translate to.
    pub external_ip: Ipv4Addr,
    /// First external port of the pool.
    pub port_base: u16,
    /// Number of port blocks in the pool.
    pub blocks: u16,
    /// Ports per block. The pool spans
    /// `port_base .. port_base + blocks × block_size`.
    pub block_size: u16,
    /// Flow-table bound (each binding holds two entries).
    pub table_capacity: usize,
    /// Idle timeout in [`FlowClock`] ticks (`u64::MAX` disables).
    pub idle_timeout: u64,
}

impl Default for Nat44Config {
    fn default() -> Self {
        Self {
            external_ip: Ipv4Addr::new(192, 0, 2, 1),
            port_base: 10_000,
            blocks: 64,
            block_size: 64,
            table_capacity: 8_192,
            idle_timeout: u64::MAX,
        }
    }
}

counters! {
    /// Lifetime counters for a [`Nat44`].
    pub struct Nat44Stats {
        /// Outbound packets translated.
        translated_out,
        /// Inbound packets reverse-translated.
        translated_in,
        /// Packets passed through untouched (non-IPv4 / port-less).
        passthrough,
        /// Packets dropped: no free external port.
        exhausted,
        /// Inbound packets dropped: no binding.
        unbound,
    }
}

/// One direction of a NAT binding.
#[derive(Clone, Copy, Debug)]
enum NatEntry {
    /// Keyed by the canonical *inside* tuple.
    Forward {
        /// Allocated external port (index into the pool).
        ext_port: u16,
        /// The paired reverse entry's key.
        pair: FlowKey,
    },
    /// Keyed by the canonical *outside* tuple.
    Reverse {
        /// The inside endpoint to restore on inbound traffic.
        inside_ip: Ipv4Addr,
        /// The inside port to restore.
        inside_port: u16,
        /// The paired forward entry's key.
        pair: FlowKey,
    },
}

struct NatInner {
    table: FlowTable<NatEntry>,
    /// Port-pool occupancy, indexed by `port - port_base`.
    used: Vec<bool>,
    used_count: usize,
}

impl NatInner {
    /// Unlinks whatever an eviction left dangling: the pair entry, and
    /// the external port if a forward binding died.
    fn unlink(&mut self, cfg: &Nat44Config, entry: NatEntry) {
        let pair_key = match entry {
            NatEntry::Forward { ext_port, pair } => {
                self.release(cfg, ext_port);
                pair
            }
            NatEntry::Reverse { pair, .. } => pair,
        };
        if let Some(NatEntry::Forward { ext_port, .. }) =
            self.table.remove(pair_key.rss_hash(), &pair_key)
        {
            self.release(cfg, ext_port);
        }
    }

    fn release(&mut self, cfg: &Nat44Config, port: u16) {
        let idx = (port - cfg.port_base) as usize;
        if self.used[idx] {
            self.used[idx] = false;
            self.used_count -= 1;
        }
    }

    /// Deterministic port-block allocation: the flow hash picks a home
    /// block and a preferred slot inside it; probing walks the pool
    /// linearly from there. A pure function of (hash, free set) — a
    /// binding re-created from scratch (e.g. after a shard migration
    /// re-homed the flow) lands on the same external port whenever it
    /// is still free.
    fn alloc(&mut self, cfg: &Nat44Config, hash: u64) -> Option<u16> {
        let total = cfg.blocks as usize * cfg.block_size as usize;
        if self.used_count >= total {
            return None;
        }
        let block = (hash % cfg.blocks as u64) as usize;
        let slot = ((hash >> 32) % cfg.block_size as u64) as usize;
        let start = block * cfg.block_size as usize + slot;
        for i in 0..total {
            let idx = (start + i) % total;
            if !self.used[idx] {
                self.used[idx] = true;
                self.used_count += 1;
                return Some(cfg.port_base + idx as u16);
            }
        }
        None
    }
}

/// Source-NAT element (NAT44).
///
/// Outbound IPv4 UDP/TCP traffic (anything not addressed *to* the
/// external IP) gets its source endpoint rewritten to
/// `external_ip : allocated-port`; inbound traffic addressed to the
/// external IP is matched against the paired reverse entry and
/// restored. Bindings are per-flow (symmetric NAT), held as **paired
/// forward/reverse entries** in one bounded [`FlowTable`]; evicting
/// either side unlinks its pair and frees the port.
///
/// Packets the NAT cannot serve are *dropped with a verdict* through
/// the normal batch paths: [`PushError::Exhausted`] when the external
/// port pool has no free slot, [`PushError::Veto`] for inbound traffic
/// with no binding. Non-IPv4 and port-less frames pass through
/// untouched.
///
/// Per packet the NAT reads the stamped flow record
/// ([`ParsedFlow::of`] — no parse) and an outbound hit costs one table
/// probe; the rewrite keeps the record true for whatever runs next.
/// IPv4 fragments pass through untouched (counted `passthrough`): only
/// a first fragment carries ports at all, and translating some
/// fragments of a datagram but not others would break reassembly.
///
/// Bindings are reclaimed three ways: LRU pressure in the bounded
/// table (eviction unlinks the pair and frees the port), an observed
/// TCP RST in either direction (immediate teardown — the connection is
/// dead and the port goes straight back to the pool), and [`sweep`]
/// (idle-timeout expiry; `get_mut`'s lazy expiry hides stale entries
/// from lookups but leaves their ports allocated until a sweep walks
/// the corpses out). A `FIN` does **not** tear the binding down
/// inline: the FIN/ACK handshake still needs the reverse mapping, so
/// half-closed flows age out via the idle timeout instead.
///
/// [`sweep`]: Nat44::sweep
///
/// Deployment note: rewriting changes the flow tuple, so the external
/// side of a binding hashes differently from the inside flow. The
/// deterministic port-*block* allocation exists so a deployment can
/// dedicate port blocks per shard and steer inbound traffic by
/// destination-port block back to the shard holding the binding.
pub struct Nat44 {
    core: ComponentCore,
    out: Receptacle<dyn IPacketPush>,
    cfg: Nat44Config,
    inner: Mutex<NatInner>,
    clock: FlowClock,
}

impl Nat44 {
    /// Creates a NAT with the given configuration.
    pub fn new(cfg: Nat44Config) -> Arc<Self> {
        let pool = cfg.blocks as usize * cfg.block_size as usize;
        assert!(
            cfg.port_base as usize + pool <= u16::MAX as usize + 1,
            "port pool must fit in u16"
        );
        Arc::new(Self {
            core: element_core("netkit.Nat44").counting::<Nat44Stats>(),
            out: Receptacle::single("out", IPACKET_PUSH),
            inner: Mutex::new(NatInner {
                table: FlowTable::new(cfg.table_capacity, cfg.idle_timeout),
                used: vec![false; pool],
                used_count: 0,
            }),
            cfg,
            clock: FlowClock::new(),
        })
    }

    /// Lifetime counters.
    pub fn stats(&self) -> Nat44Stats {
        self.core.counters().read()
    }

    /// Live bindings (each binding is one forward + one reverse entry).
    pub fn bindings(&self) -> usize {
        self.inner.lock().table.len() / 2
    }

    /// External ports currently allocated.
    pub fn ports_in_use(&self) -> usize {
        self.inner.lock().used_count
    }

    /// The external port a flow (given by either direction's tuple) is
    /// bound to, if any.
    pub fn binding(&self, key: &FlowKey) -> Option<u16> {
        let inner = self.inner.lock();
        match inner.table.peek(key.rss_hash(), &key.canonical()) {
            Some(NatEntry::Forward { ext_port, .. }) => Some(*ext_port),
            _ => None,
        }
    }

    /// Reclaims idle-expired bindings and returns their external ports
    /// to the pool. Returns the number of ports freed.
    ///
    /// The flow table expires entries lazily: an idle-timed-out
    /// binding stops matching lookups immediately, but its slots — and
    /// crucially its **allocated external port** — linger until LRU
    /// pressure reaches them. Under churn that lag manifests as
    /// spurious [`PushError::Exhausted`] drops while the pool is
    /// nominally free. Call this from the control plane (e.g. a
    /// control-turn tick) to walk the corpses out eagerly.
    pub fn sweep(&self) -> usize {
        let mut inner = self.inner.lock();
        let now = self.clock.now();
        let before = inner.used_count;
        for (_, corpse) in inner.table.expire_idle(now) {
            inner.unlink(&self.cfg, corpse);
        }
        before - inner.used_count
    }

    /// Translates one packet in place, tallying the outcome into
    /// `counts`. `Err` = dropped with that verdict.
    fn translate(
        &self,
        inner: &mut NatInner,
        pkt: &mut Packet,
        counts: &mut Nat44Stats,
    ) -> Result<(), PushError> {
        // Only IPv4 traffic with real ports is translated.
        let Some(flow) = ParsedFlow::of(pkt).filter(ParsedFlow::has_ports) else {
            counts.passthrough += 1;
            return Ok(());
        };
        let now = self.clock.advance(pkt.meta.timestamp_ns);
        // An RST in either direction kills the connection: translate
        // the packet (the peer still needs to see it), then tear the
        // binding down and return the port to the pool immediately.
        let rst = flow.tcp_flags().is_some_and(|f| f.rst());
        let (key, hash) = (flow.key(), flow.hash());
        let ckey = key.canonical();
        if flow.dst() == self.cfg.external_ip {
            // Inbound: restore the inside endpoint from the binding.
            let entry = inner.table.get_mut(hash, &ckey, now).copied();
            let Some(NatEntry::Reverse {
                inside_ip,
                inside_port,
                pair,
            }) = entry
            else {
                counts.unbound += 1;
                return Err(PushError::Veto("nat44: no binding".into()));
            };
            // Keep the pair's lifetimes coupled.
            inner.table.get_mut(pair.rss_hash(), &pair, now);
            rewrite_ipv4_endpoint(pkt, RewriteSide::Dst, inside_ip, inside_port);
            counts.translated_in += 1;
            if rst {
                if let Some(e) = inner.table.remove(hash, &ckey) {
                    inner.unlink(&self.cfg, e);
                }
            }
            return Ok(());
        }
        // Outbound: find or create the binding — one probe on a hit.
        let ext_port = match inner.table.get_mut(hash, &ckey, now).copied() {
            Some(NatEntry::Forward { ext_port, .. }) => ext_port,
            Some(NatEntry::Reverse { .. }) => {
                // Tuple collision with an outside key — treat as
                // unservable rather than corrupt the binding.
                return Err(PushError::Veto("nat44: tuple collision".into()));
            }
            None => {
                let Some(ext_port) = inner.alloc(&self.cfg, hash) else {
                    counts.exhausted += 1;
                    return Err(PushError::Exhausted("nat44 external-port pool"));
                };
                // The outside flow as the remote peer will send it:
                // remote endpoint -> external_ip:ext_port.
                let reverse_key = FlowKey {
                    src: key.dst,
                    dst: IpAddr::V4(self.cfg.external_ip),
                    protocol: key.protocol,
                    src_port: key.dst_port,
                    dst_port: ext_port,
                }
                .canonical();
                let fwd = inner
                    .table
                    .get_or_insert_with(hash, ckey, now, || NatEntry::Forward {
                        ext_port,
                        pair: reverse_key,
                    });
                let fwd_evicted = fwd.evicted;
                let rev = inner.table.get_or_insert_with(
                    reverse_key.rss_hash(),
                    reverse_key,
                    now,
                    || NatEntry::Reverse {
                        inside_ip: flow.src(),
                        inside_port: flow.src_port(),
                        pair: ckey,
                    },
                );
                let rev_evicted = rev.evicted;
                for (_, corpse) in fwd_evicted.into_iter().chain(rev_evicted) {
                    inner.unlink(&self.cfg, corpse);
                }
                ext_port
            }
        };
        rewrite_ipv4_endpoint(pkt, RewriteSide::Src, self.cfg.external_ip, ext_port);
        counts.translated_out += 1;
        if rst {
            if let Some(e) = inner.table.remove(hash, &ckey) {
                inner.unlink(&self.cfg, e);
            }
        }
        Ok(())
    }
}

impl IPacketPush for Nat44 {
    fn push_batch(&self, mut batch: PacketBatch) -> BatchResult {
        let mut counts = Nat44Stats::default();
        let mut exits = Exits::new(0);
        {
            // One lock for the whole burst.
            let mut inner = self.inner.lock();
            for (i, pkt) in batch.packets_mut().iter_mut().enumerate() {
                if let Err(e) = self.translate(&mut inner, pkt, &mut counts) {
                    exits.set(i, Exit::Drop(Err(e)));
                }
            }
        }
        self.core.counters().flush(counts);
        emit(batch, &exits, &[Output::new(&self.out, Ok(()))])
    }
}

impl Component for Nat44 {
    fn core(&self) -> &ComponentCore {
        &self.core
    }
    fn publish(self: Arc<Self>, reg: &Registrar<'_>) {
        let push: Arc<dyn IPacketPush> = self.clone();
        reg.expose(IPACKET_PUSH, &push);
        reg.receptacle(&self.out);
    }
    fn footprint_bytes(&self) -> usize {
        let inner = self.inner.lock();
        std::mem::size_of::<Self>() + inner.table.footprint_bytes() + inner.used.capacity()
    }
}

impl fmt::Debug for Nat44 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Nat44({} bindings, {} ports in use, {:?})",
            self.bindings(),
            self.ports_in_use(),
            self.stats()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netkit_packet::headers::TcpFlags;
    use netkit_packet::packet::PacketBuilder;

    fn nat() -> Arc<Nat44> {
        Nat44::new(Nat44Config {
            external_ip: "192.0.2.1".parse().unwrap(),
            port_base: 40_000,
            blocks: 4,
            block_size: 4,
            table_capacity: 64,
            idle_timeout: u64::MAX,
        })
    }

    fn udp(src: &str, dst: &str, sport: u16, dport: u16) -> Packet {
        PacketBuilder::udp_v4(src, dst, sport, dport).build()
    }

    #[test]
    fn outbound_snat_then_inbound_restore() {
        let n = nat();
        let out_pkt = udp("10.0.0.5", "203.0.113.9", 5555, 80);
        let inside_key = FlowKey::from_packet(&out_pkt).unwrap();
        n.push(out_pkt).unwrap();
        let ext_port = n.binding(&inside_key).expect("binding created");
        assert!((40_000..40_016).contains(&ext_port));
        assert_eq!(n.bindings(), 1);
        assert_eq!(n.ports_in_use(), 1);

        // The reply, addressed to the external endpoint, is restored.
        let reply = udp("203.0.113.9", "192.0.2.1", 80, ext_port);
        n.push(reply).unwrap();
        let stats = n.stats();
        assert_eq!((stats.translated_out, stats.translated_in), (1, 1));
    }

    #[test]
    fn allocation_is_deterministic_per_flow() {
        // Two independent NAT instances fed the same flow sequence
        // produce identical bindings — allocation is a pure function
        // of (flow hash, free set), which is what lets a binding
        // re-establish identically after a shard migration.
        let (a, b) = (nat(), nat());
        for inst in [&a, &b] {
            for s in 0..8u16 {
                inst.push(udp("10.0.0.5", "203.0.113.9", 5000 + s, 80))
                    .unwrap();
            }
        }
        for s in 0..8u16 {
            let key = FlowKey::from_packet(&udp("10.0.0.5", "203.0.113.9", 5000 + s, 80)).unwrap();
            assert_eq!(a.binding(&key), b.binding(&key), "flow {s}");
            assert!(a.binding(&key).is_some());
        }
        // Re-pushing reuses bindings: no new ports.
        a.push(udp("10.0.0.5", "203.0.113.9", 5000, 80)).unwrap();
        assert_eq!(a.ports_in_use(), 8);
    }

    #[test]
    fn port_exhaustion_drops_with_verdict() {
        let n = Nat44::new(Nat44Config {
            external_ip: "192.0.2.1".parse().unwrap(),
            port_base: 40_000,
            blocks: 1,
            block_size: 2,
            table_capacity: 64,
            idle_timeout: u64::MAX,
        });
        n.push(udp("10.0.0.1", "203.0.113.9", 1001, 80)).unwrap();
        n.push(udp("10.0.0.2", "203.0.113.9", 1002, 80)).unwrap();
        let err = n.push(udp("10.0.0.3", "203.0.113.9", 1003, 80));
        assert!(matches!(err, Err(PushError::Exhausted(_))));
        assert_eq!(n.stats().exhausted, 1);
    }

    #[test]
    fn unbound_inbound_drops_with_verdict() {
        let n = nat();
        let err = n.push(udp("203.0.113.9", "192.0.2.1", 80, 40_001));
        assert!(matches!(err, Err(PushError::Veto(_))));
        assert_eq!(n.stats().unbound, 1);
    }

    #[test]
    fn eviction_unlinks_the_pair_and_frees_the_port() {
        // Table bound of 4 = two bindings; the third binding evicts
        // the oldest pair entirely and releases its port.
        let n = Nat44::new(Nat44Config {
            external_ip: "192.0.2.1".parse().unwrap(),
            port_base: 40_000,
            blocks: 4,
            block_size: 4,
            table_capacity: 4,
            idle_timeout: u64::MAX,
        });
        for s in 0..3u16 {
            n.push(udp("10.0.0.9", "203.0.113.9", 2000 + s, 80))
                .unwrap();
        }
        assert!(n.ports_in_use() <= 2, "evicted binding released its port");
        assert!(n.inner.lock().table.len() <= 4);
    }

    fn tcp(src: &str, dst: &str, sport: u16, dport: u16, flags: TcpFlags) -> Packet {
        PacketBuilder::tcp_v4(src, dst, sport, dport)
            .tcp_flags(flags)
            .build()
    }

    #[test]
    fn rst_tears_the_binding_down_in_either_direction() {
        let n = nat();
        // Outbound RST after establishment frees the port.
        n.push(tcp("10.0.0.5", "203.0.113.9", 5555, 80, TcpFlags::SYN))
            .unwrap();
        assert_eq!(n.ports_in_use(), 1);
        n.push(tcp("10.0.0.5", "203.0.113.9", 5555, 80, TcpFlags::RST))
            .unwrap();
        assert_eq!((n.bindings(), n.ports_in_use()), (0, 0));

        // Inbound RST (from the remote peer) frees the port too.
        let syn = tcp("10.0.0.6", "203.0.113.9", 6666, 80, TcpFlags::SYN);
        let key = FlowKey::from_packet(&syn).unwrap();
        n.push(syn).unwrap();
        let ext = n.binding(&key).unwrap();
        n.push(tcp("203.0.113.9", "192.0.2.1", 80, ext, TcpFlags::RST))
            .unwrap();
        assert_eq!((n.bindings(), n.ports_in_use()), (0, 0));

        // A FIN does NOT tear down inline: the close handshake still
        // needs the mapping.
        n.push(tcp("10.0.0.7", "203.0.113.9", 7777, 80, TcpFlags::SYN))
            .unwrap();
        n.push(tcp(
            "10.0.0.7",
            "203.0.113.9",
            7777,
            80,
            TcpFlags::FIN | TcpFlags::ACK,
        ))
        .unwrap();
        assert_eq!(n.ports_in_use(), 1);
    }

    #[test]
    fn churn_cycles_the_pool_past_block_capacity() {
        // Pool of exactly 2 ports (1 block × 2). Each round opens two
        // TCP flows (filling the pool), proves the third is refused
        // with the *typed* exhaustion verdict, then resets both flows
        // and proves the ports came back. Twelve rounds with distinct
        // tuples cycle total allocations to 24 — 12× the pool — so any
        // leaked port (the pre-reclamation bug) fails the run within
        // one round of leaking.
        let n = Nat44::new(Nat44Config {
            external_ip: "192.0.2.1".parse().unwrap(),
            port_base: 40_000,
            blocks: 1,
            block_size: 2,
            table_capacity: 64,
            idle_timeout: u64::MAX,
        });
        for round in 0..12u16 {
            let base = 1000 + round * 10;
            for i in 0..2 {
                n.push(tcp("10.0.0.8", "203.0.113.9", base + i, 80, TcpFlags::SYN))
                    .unwrap();
            }
            assert_eq!(n.ports_in_use(), 2, "round {round}: pool full");
            let err = n.push(tcp("10.0.0.8", "203.0.113.9", base + 2, 80, TcpFlags::SYN));
            assert!(
                matches!(err, Err(PushError::Exhausted("nat44 external-port pool"))),
                "round {round}: typed exhaustion verdict, got {err:?}"
            );
            for i in 0..2 {
                n.push(tcp("10.0.0.8", "203.0.113.9", base + i, 80, TcpFlags::RST))
                    .unwrap();
            }
            assert_eq!(
                (n.bindings(), n.ports_in_use()),
                (0, 0),
                "round {round}: teardown reclaimed the pool"
            );
        }
        assert_eq!(n.stats().exhausted, 12);
        assert_eq!(n.stats().translated_out, 12 * 4);
    }

    #[test]
    fn sweep_reclaims_idle_expired_ports() {
        // Lazy expiry hides idle bindings from lookups but leaves
        // their ports allocated; sweep() walks them out.
        let n = Nat44::new(Nat44Config {
            external_ip: "192.0.2.1".parse().unwrap(),
            port_base: 40_000,
            blocks: 1,
            block_size: 2,
            table_capacity: 64,
            idle_timeout: 10,
        });
        for (i, sport) in [9001u16, 9002].into_iter().enumerate() {
            let mut p = udp("10.0.0.9", "203.0.113.9", sport, 80);
            p.meta.timestamp_ns = 1 + i as u64;
            n.push(p).unwrap();
        }
        assert_eq!(n.ports_in_use(), 2);
        // A much-later arrival advances the clock past the idle
        // timeout; the pool is still *nominally* exhausted because the
        // expired bindings' ports were never released.
        let mut late = udp("10.0.0.9", "203.0.113.9", 9003, 80);
        late.meta.timestamp_ns = 1_000;
        assert!(matches!(n.push(late), Err(PushError::Exhausted(_))));
        assert_eq!(n.ports_in_use(), 2, "lazy expiry leaves ports allocated");

        assert_eq!(n.sweep(), 2);
        assert_eq!((n.bindings(), n.ports_in_use()), (0, 0));

        // And the pool serves new flows again.
        let mut fresh = udp("10.0.0.9", "203.0.113.9", 9004, 80);
        fresh.meta.timestamp_ns = 1_001;
        n.push(fresh).unwrap();
        assert_eq!(n.ports_in_use(), 1);
    }

    #[test]
    fn batch_path_mixes_verdicts_in_order() {
        let n = Nat44::new(Nat44Config {
            external_ip: "192.0.2.1".parse().unwrap(),
            port_base: 40_000,
            blocks: 1,
            block_size: 1,
            table_capacity: 64,
            idle_timeout: u64::MAX,
        });
        let batch: PacketBatch = vec![
            udp("10.0.0.1", "203.0.113.9", 1001, 80), // gets the only port
            udp("10.0.0.2", "203.0.113.9", 1002, 80), // exhausted
            Packet::from_slice(&[0u8; 14]),           // passthrough
        ]
        .into_iter()
        .collect();
        let result = n.push_batch(batch);
        assert_eq!(result.len(), 3);
        assert!(result.verdicts[0].is_ok());
        assert!(matches!(result.verdicts[1], Err(PushError::Exhausted(_))));
        assert!(result.verdicts[2].is_ok());
        assert_eq!(n.stats().passthrough, 1);
    }
}
