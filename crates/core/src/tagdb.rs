//! Ground-truth address tags.
//!
//! Tags label an address as belonging to a named real-world service. The
//! paper obtained them three ways, in decreasing reliability: by transacting
//! with services directly (§3.1), from self-submitted collections such as
//! `blockchain.info/tags`, and by scraping forums (§3.2).

use fistful_chain::resolve::AddressId;
use std::collections::HashSet;

/// Where a tag came from; determines its reliability weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TagSource {
    /// We transacted with the service ourselves and observed the address.
    OwnTransaction,
    /// Self-submitted (e.g. a signature on a forum, blockchain.info/tags).
    SelfSubmitted,
    /// Scraped from forum threads; requires due diligence.
    Forum,
}

impl TagSource {
    /// Voting weight used by cluster naming.
    pub fn reliability(self) -> f64 {
        match self {
            TagSource::OwnTransaction => 1.0,
            TagSource::SelfSubmitted => 0.6,
            TagSource::Forum => 0.4,
        }
    }
}

/// A single address tag.
#[derive(Debug, Clone, PartialEq)]
pub struct Tag {
    /// The tagged address.
    pub address: AddressId,
    /// The service name (e.g. "Mt. Gox").
    pub service: String,
    /// The service category (e.g. "exchange", "gambling").
    pub category: String,
    /// Provenance.
    pub source: TagSource,
}

/// A collection of tags.
#[derive(Debug, Clone, Default)]
pub struct TagDb {
    tags: Vec<Tag>,
}

impl TagDb {
    /// An empty database.
    pub fn new() -> TagDb {
        TagDb::default()
    }

    /// Adds a tag.
    pub fn add(&mut self, tag: Tag) {
        self.tags.push(tag);
    }

    /// Number of tags.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// True if no tags are present.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// All tags.
    pub fn tags(&self) -> &[Tag] {
        &self.tags
    }

    /// Distinct service names present.
    pub fn services(&self) -> HashSet<&str> {
        self.tags.iter().map(|t| t.service.as_str()).collect()
    }

    /// Tags restricted to a source.
    pub fn tags_from(&self, source: TagSource) -> impl Iterator<Item = &Tag> {
        self.tags.iter().filter(move |t| t.source == source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag(addr: AddressId, service: &str, category: &str, source: TagSource) -> Tag {
        Tag { address: addr, service: service.into(), category: category.into(), source }
    }

    #[test]
    fn add_and_query() {
        let mut db = TagDb::new();
        db.add(tag(1, "Mt. Gox", "exchange", TagSource::OwnTransaction));
        db.add(tag(1, "Mt. Gox", "exchange", TagSource::Forum));
        db.add(tag(2, "Satoshi Dice", "gambling", TagSource::OwnTransaction));
        assert_eq!(db.len(), 3);
        assert_eq!(db.services().len(), 2);
        assert_eq!(db.tags_from(TagSource::OwnTransaction).count(), 2);
        assert_eq!(db.tags()[2].service, "Satoshi Dice");
    }

    #[test]
    fn reliability_ordering() {
        assert!(TagSource::OwnTransaction.reliability() > TagSource::SelfSubmitted.reliability());
        assert!(TagSource::SelfSubmitted.reliability() > TagSource::Forum.reliability());
    }

    #[test]
    fn source_filter() {
        let mut db = TagDb::new();
        db.add(tag(1, "A", "wallet", TagSource::OwnTransaction));
        db.add(tag(2, "B", "wallet", TagSource::Forum));
        assert_eq!(db.tags_from(TagSource::Forum).count(), 1);
        assert_eq!(db.tags_from(TagSource::OwnTransaction).count(), 1);
        assert_eq!(db.tags_from(TagSource::SelfSubmitted).count(), 0);
    }
}
