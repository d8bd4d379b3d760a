#![warn(missing_docs)]

//! # acctrade-crawler
//!
//! The paper's data-collection module (§3.2), rebuilt: a JavaScript-free
//! stand-in for the authors' Selenium crawler that speaks to the simulated
//! marketplaces over [`acctrade_net`] and parses their HTML with
//! [`acctrade_html`].
//!
//! * [`extract`] — per-dialect extraction adapters (offer pages, listing
//!   indexes, price strings);
//! * [`frontier`] — the depth-first crawl frontier with a visited set;
//! * [`crawl`] — the marketplace crawler: storefront → listing pages →
//!   every offer, exactly the §3.2 strategy;
//! * [`steal`] — the sharded work-stealing parallel engine: one
//!   (marketplace, platform-chain) shard per work unit, per-worker
//!   steal deques, per-shard deterministic lanes;
//! * [`merge`] — the canonical `(virtual timestamp, stable tiebreak)`
//!   record order that makes parallel output byte-identical to
//!   sequential output;
//! * [`schedule`] — the Feb–Jun iteration scheduler (Figure 2's
//!   collection iterations);
//! * [`resolve`] — the profile resolver: queries platform APIs for
//!   metadata and timelines of visible accounts, and re-queries them for
//!   the §8 efficacy audit;
//! * [`underground`] — the manual Tor collector (registration, CAPTCHA,
//!   link-walking, ≤5 pages / ≤25 postings per platform);
//! * [`record`] — dataset records and JSON export;
//! * [`persist`] — the durable campaign store: every record streamed
//!   into an `acctrade-store` WAL plus per-iteration checkpoints, so an
//!   interrupted campaign resumes byte-identically.

pub mod crawl;
#[cfg(test)]
mod differential;
pub mod extract;
pub mod frontier;
pub mod merge;
pub mod persist;
pub mod record;
pub mod resolve;
pub mod schedule;
pub mod steal;
pub mod underground;

pub use crawl::MarketplaceCrawler;
pub use persist::{ApiOutcomeRecord, CampaignCheckpoint, CampaignStore, ShardCursor};
pub use record::{Dataset, OfferRecord, PostRecord, ProfileRecord, UndergroundRecord};
pub use resolve::ProfileResolver;
pub use schedule::{CampaignProgress, CrawlCampaign, IterationSnapshot};
pub use steal::{IterationRun, ShardJob, ShardOutcome, WorkerReport};
pub use underground::UndergroundCollector;
