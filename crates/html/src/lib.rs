#![warn(missing_docs)]

//! # acctrade-html
//!
//! A small HTML engine: a one-pass tolerant parser into an arena DOM, a
//! CSS-ish selector engine, a renderer, and a [`dom::Builder`] that page
//! templates write HTML through.
//!
//! The reproduced paper crawled marketplace listing pages with
//! Selenium-driven Chrome. Our simulated marketplaces render genuine HTML
//! and the crawler genuinely parses it — so extraction bugs, malformed
//! markup, and selector drift are all real phenomena in this reproduction,
//! not stubs. The subset implemented covers everything the marketplace
//! templates emit: elements, attributes, text, comments, void elements, and
//! entity escaping.
//!
//! Both sides of a page are on the crawl's hot path, so neither builds more
//! than it needs. The parser appends nodes to an arena in document order,
//! each with its parent and the end of its subtree, and borrows text and
//! attribute values from the input unless an entity had to be decoded. The
//! builder writes escaped HTML straight into one `String`, with no tree in
//! between.
//!
//! ```
//! use acctrade_html::{parse, Selector};
//!
//! let doc = parse(r#"<div class="offer"><a href="/offer/7">IG account</a></div>"#);
//! let sel = Selector::parse("div.offer a").unwrap();
//! let links = doc.select(&sel);
//! assert_eq!(links[0].attr("href"), Some("/offer/7"));
//! assert_eq!(links[0].text(), "IG account");
//! ```

pub mod dom;
pub mod escape;
#[cfg(test)]
mod oracle;
pub mod parser;
pub mod select;

pub use dom::{Document, ElementRef, NodeId};
pub use escape::{escape_attr, escape_text, unescape};
pub use parser::parse;
pub use select::Selector;
