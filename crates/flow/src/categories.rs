//! Address → service/category resolution.
//!
//! Flow analysis needs to answer "who received this output?". The paper
//! answers via cluster naming; the simulator can also answer from ground
//! truth; a serving deployment answers from a frozen
//! [`ClusterSnapshot`]. The [`ServiceResolver`] trait abstracts all three,
//! so the balance/theft/track entry points run unchanged against a live
//! [`AddressDirectory`] or a reloaded snapshot artifact.

use fistful_chain::resolve::AddressId;
use fistful_core::cluster::Clustering;
use fistful_core::naming::NamingReport;
use fistful_core::snapshot::ClusterSnapshot;

/// Anything that can resolve an address to a service name and category.
///
/// Implemented by [`AddressDirectory`] (dense per-address tables built from
/// naming or ground truth) and by [`ClusterSnapshot`] (two array reads into
/// the frozen artifact). Every flow entry point that needs attribution —
/// [`balance_series`](crate::balance::balance_series),
/// [`track_theft_indexed`](crate::theft::track_theft_indexed),
/// [`service_arrivals`](crate::track::service_arrivals) — takes
/// `&impl ServiceResolver`, so a decoded snapshot can be queried directly
/// without rebuilding any per-address table.
pub trait ServiceResolver {
    /// The service name an address resolves to, if any.
    fn service(&self, addr: AddressId) -> Option<&str>;

    /// The category an address resolves to, if any.
    fn category(&self, addr: AddressId) -> Option<&str>;
}

impl ServiceResolver for ClusterSnapshot {
    fn service(&self, addr: AddressId) -> Option<&str> {
        self.service_of(addr)
    }

    fn category(&self, addr: AddressId) -> Option<&str> {
        self.category_of(addr)
    }
}

/// Per-address service name and category, resolved once up front.
///
/// The `(service, category)` strings are *interned*: each distinct pair is
/// stored once in an entry table, and every address carries only a `u32`
/// slot into it. A directory covering millions of addresses named after a
/// few thousand clusters therefore holds a few thousand strings, not
/// millions — and construction from a snapshot or naming report clones one
/// string pair per *cluster*, never per address. Resolution is two array
/// reads and never allocates.
#[derive(Debug, Clone, Default)]
pub struct AddressDirectory {
    /// Distinct `(service, category)` pairs, in first-interned order.
    entries: Vec<(Option<String>, Option<String>)>,
    /// Per address: index into `entries`, or [`UNRESOLVED`].
    slots: Vec<u32>,
}

/// Slot value for addresses with neither a service nor a category.
const UNRESOLVED: u32 = u32::MAX;

/// Interning helper used by the constructors: maps each distinct pair to
/// its entry slot, creating entries on first sight.
#[derive(Default)]
struct Interner {
    entries: Vec<(Option<String>, Option<String>)>,
    index: std::collections::HashMap<(Option<String>, Option<String>), u32>,
}

impl Interner {
    fn slot(&mut self, pair: (Option<String>, Option<String>)) -> u32 {
        if pair == (None, None) {
            return UNRESOLVED;
        }
        if let Some(&slot) = self.index.get(&pair) {
            return slot;
        }
        let slot = self.entries.len() as u32;
        assert!(slot != UNRESOLVED, "entry table full");
        self.entries.push(pair.clone());
        self.index.insert(pair, slot);
        slot
    }
}

impl AddressDirectory {
    /// Builds from a clustering plus its naming report — the paper's
    /// pipeline: an address inherits its cluster's name. Each named
    /// cluster's strings are interned once; addresses share the entry.
    pub fn from_naming(clustering: &Clustering, names: &NamingReport) -> AddressDirectory {
        let mut interner = Interner::default();
        let mut cluster_slot: std::collections::HashMap<u32, u32> =
            std::collections::HashMap::new();
        let slots = clustering
            .assignment
            .iter()
            .map(|&cluster| {
                *cluster_slot.entry(cluster).or_insert_with(|| {
                    match names.names.get(&cluster) {
                        Some(name) => interner.slot((
                            Some(name.clone()),
                            names.categories.get(&cluster).cloned(),
                        )),
                        None => UNRESOLVED,
                    }
                })
            })
            .collect();
        AddressDirectory { entries: interner.entries, slots }
    }

    /// Materializes a dense directory from a frozen snapshot. Prefer
    /// passing the snapshot itself to the flow entry points (it implements
    /// [`ServiceResolver`]); this copy is for callers that need an owned
    /// per-address table. The snapshot already stores each cluster's
    /// strings once, and so does the directory: one interned entry per
    /// distinct named pair, one `u32` per address.
    pub fn from_snapshot(snapshot: &ClusterSnapshot) -> AddressDirectory {
        let mut interner = Interner::default();
        // One slot per cluster, cloned from the snapshot exactly once.
        let cluster_slots: Vec<u32> = (0..snapshot.cluster_count() as u32)
            .map(|c| {
                let info = snapshot.info(c).expect("cluster id in range");
                interner.slot((info.name.clone(), info.category.clone()))
            })
            .collect();
        let slots = (0..snapshot.address_count() as AddressId)
            .map(|addr| {
                snapshot
                    .cluster_of(addr)
                    .map_or(UNRESOLVED, |c| cluster_slots[c as usize])
            })
            .collect();
        AddressDirectory { entries: interner.entries, slots }
    }

    /// Builds from explicit per-address `(service, category)` pairs
    /// (e.g. simulator ground truth). Repeated pairs are interned to one
    /// entry.
    pub fn from_pairs(pairs: Vec<(Option<String>, Option<String>)>) -> AddressDirectory {
        let mut interner = Interner::default();
        let slots = pairs.into_iter().map(|pair| interner.slot(pair)).collect();
        AddressDirectory { entries: interner.entries, slots }
    }

    fn entry(&self, addr: AddressId) -> Option<&(Option<String>, Option<String>)> {
        let slot = *self.slots.get(addr as usize)?;
        self.entries.get(slot as usize)
    }

    /// The service name an address resolves to, if any. Two array reads;
    /// never allocates.
    pub fn service(&self, addr: AddressId) -> Option<&str> {
        self.entry(addr)?.0.as_deref()
    }

    /// The category an address resolves to, if any. Two array reads; never
    /// allocates.
    pub fn category(&self, addr: AddressId) -> Option<&str> {
        self.entry(addr)?.1.as_deref()
    }

    /// Number of addresses covered.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if no addresses are covered.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Count of addresses with a resolved service.
    pub fn resolved_count(&self) -> usize {
        self.slots
            .iter()
            .filter(|&&s| {
                self.entries
                    .get(s as usize)
                    .is_some_and(|(service, _)| service.is_some())
            })
            .count()
    }

    /// Number of distinct interned `(service, category)` entries — bounded
    /// by the number of distinct named clusters, not by the address count.
    pub fn interned_entries(&self) -> usize {
        self.entries.len()
    }
}

impl ServiceResolver for AddressDirectory {
    fn service(&self, addr: AddressId) -> Option<&str> {
        AddressDirectory::service(self, addr)
    }

    fn category(&self, addr: AddressId) -> Option<&str> {
        AddressDirectory::category(self, addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fistful_core::cluster::Clusterer;
    use fistful_core::naming::name_clusters;
    use fistful_core::tagdb::{Tag, TagDb, TagSource};
    use fistful_core::testutil::TestChain;

    #[test]
    fn from_pairs_lookup() {
        let dir = AddressDirectory::from_pairs(vec![
            (Some("Mt. Gox".into()), Some("exchange".into())),
            (None, None),
        ]);
        assert_eq!(dir.service(0), Some("Mt. Gox"));
        assert_eq!(dir.category(0), Some("exchange"));
        assert_eq!(dir.service(1), None);
        assert_eq!(dir.resolved_count(), 1);
        assert_eq!(dir.len(), 2);
        // Out of range is None, not a panic.
        assert_eq!(dir.service(99), None);
    }

    #[test]
    fn from_pairs_interns_repeated_entries() {
        let gox = || (Some("Mt. Gox".to_string()), Some("exchange".to_string()));
        let dir = AddressDirectory::from_pairs(vec![gox(), (None, None), gox(), gox()]);
        assert_eq!(dir.len(), 4);
        assert_eq!(dir.resolved_count(), 3);
        // Three resolved addresses, one stored string pair.
        assert_eq!(dir.interned_entries(), 1);
        // All three resolve to the *same allocation*: resolution hands out
        // borrowed interned strings, it never clones per address or per
        // call.
        let a = dir.service(0).unwrap();
        let b = dir.service(2).unwrap();
        let c = dir.service(3).unwrap();
        assert!(std::ptr::eq(a, b) && std::ptr::eq(b, c));
        assert!(std::ptr::eq(dir.category(0).unwrap(), dir.category(3).unwrap()));
    }

    #[test]
    fn from_snapshot_clones_per_cluster_not_per_address() {
        let mut t = TestChain::new();
        let cb1 = t.coinbase(1, 50);
        let cb2 = t.coinbase(2, 50);
        let cb3 = t.coinbase(3, 50);
        // H1 cluster {1,2,3} (co-spent inputs): tagged. Addresses 4-9 pad
        // the address space.
        t.tx(&[(cb1, 0), (cb2, 0), (cb3, 0)], &[(4, 150)]);
        for a in 5..10 {
            t.coinbase(a, 1);
        }
        let clustering = Clusterer::h1_only().run(&t.chain);
        let mut db = TagDb::new();
        db.add(Tag {
            address: t.id(1),
            service: "Mt. Gox".into(),
            category: "exchange".into(),
            source: TagSource::OwnTransaction,
        });
        let names = name_clusters(&clustering, &db);
        let snapshot = ClusterSnapshot::build(&t.chain, &clustering, &names);
        let dir = AddressDirectory::from_snapshot(&snapshot);

        assert_eq!(dir.len(), snapshot.address_count());
        // The entry table is bounded by the cluster count, not the address
        // count — the old implementation cloned a String pair per address.
        assert!(dir.interned_entries() <= snapshot.named_cluster_count());
        assert_eq!(dir.interned_entries(), 1);
        // Every address of the tagged cluster borrows the same allocation.
        let s1 = dir.service(t.id(1)).unwrap();
        let s2 = dir.service(t.id(2)).unwrap();
        assert!(std::ptr::eq(s1, s2));
        assert_eq!(dir.resolved_count(), 3);
    }

    #[test]
    fn snapshot_resolves_like_the_directory_it_froze() {
        let mut t = TestChain::new();
        let cb1 = t.coinbase(1, 50);
        let cb2 = t.coinbase(2, 50);
        t.tx(&[(cb1, 0), (cb2, 0)], &[(3, 100)]);
        let clustering = Clusterer::h1_only().run(&t.chain);
        let mut db = TagDb::new();
        db.add(Tag {
            address: t.id(1),
            service: "Mt. Gox".into(),
            category: "exchange".into(),
            source: TagSource::OwnTransaction,
        });
        let names = name_clusters(&clustering, &db);
        let snapshot = ClusterSnapshot::build(&t.chain, &clustering, &names);
        let from_naming = AddressDirectory::from_naming(&clustering, &names);
        let from_snapshot = AddressDirectory::from_snapshot(&snapshot);

        for addr in 0..t.chain.address_count() as AddressId {
            // The snapshot as a resolver, the materialized copy, and the
            // naming-built directory all agree.
            assert_eq!(ServiceResolver::service(&snapshot, addr), from_naming.service(addr));
            assert_eq!(from_snapshot.service(addr), from_naming.service(addr));
            assert_eq!(ServiceResolver::category(&snapshot, addr), from_naming.category(addr));
            assert_eq!(from_snapshot.category(addr), from_naming.category(addr));
        }
        // The co-spending cluster {1,2} carries the tag; 3 is unnamed.
        assert_eq!(ServiceResolver::service(&snapshot, t.id(2)), Some("Mt. Gox"));
        assert_eq!(ServiceResolver::service(&snapshot, t.id(3)), None);
    }
}
