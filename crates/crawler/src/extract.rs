//! Per-dialect extraction adapters.
//!
//! The eleven marketplaces render three HTML dialects (card grid, table,
//! flat list); real crawlers carry per-site logic and so does this one.
//! Each adapter turns an offer page into an [`OfferRecord`] and a listing
//! index into offer links plus a next-page link.

use crate::record::OfferRecord;
use acctrade_html::{parse, Document, Selector};
use acctrade_market::config::MarketplaceId;
use acctrade_market::site::Dialect;
use std::sync::LazyLock;

/// Links discovered on a listing-index page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexPage {
    /// Offer-page paths (`/offer/<id>`).
    pub offer_paths: Vec<String>,
    /// Path of the next page, when pagination continues.
    pub next_path: Option<String>,
}

/// Compile a selector literal.
pub(crate) fn sel(s: &str) -> Selector {
    Selector::parse(s).expect("static selector") // conformance: allow(panic-policy) — callers pass valid selector literals, exercised in tests
}

/// Every link: index, storefront and forum pages all navigate by `a`.
pub(crate) static LINKS: LazyLock<Selector> = LazyLock::new(|| sel("a"));

/// Parse a listing-index page (all dialects share link structure enough
/// for one pass: any link to `/offer/` counts, `a.next` paginates).
pub fn parse_index(html: &str) -> IndexPage {
    let doc = parse(html);
    let mut offer_paths = Vec::new();
    let mut next_path = None;
    for a in doc.select(&LINKS) {
        let Some(href) = a.attr("href") else { continue };
        if href.starts_with("/offer/") {
            offer_paths.push(href.to_string());
        } else if a.has_class("next") {
            next_path = Some(href.to_string());
        }
    }
    IndexPage { offer_paths, next_path }
}

/// Parse a storefront page into the platform listing paths it links.
pub fn parse_storefront(html: &str) -> Vec<String> {
    let doc = parse(html);
    doc.select(&LINKS)
        .into_iter()
        .filter_map(|a| a.attr("href"))
        .filter(|h| h.starts_with("/listings/"))
        .map(|h| h.to_string())
        .collect()
}

/// Parse a price string like `$1,234.50` into USD.
pub fn parse_price(text: &str) -> Option<f64> {
    let start = text.find('$')?;
    let number: String = text[start + 1..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == ',' || *c == '.')
        .filter(|c| *c != ',')
        .collect();
    if number.is_empty() {
        return None;
    }
    number.parse().ok()
}

/// Extract the handle from a profile URL (`http://host/<handle>`).
pub(crate) fn handle_from_profile_link(link: &str) -> Option<String> {
    let url = acctrade_net::url::Url::parse(link).ok()?;
    let handle = url.path().trim_start_matches('/');
    if handle.is_empty() {
        None
    } else {
        Some(handle.to_string())
    }
}

/// Extract an offer page into a record skeleton (caller fills URL,
/// marketplace, time, iteration).
pub fn parse_offer(market: MarketplaceId, html: &str) -> OfferRecord {
    let doc = parse(html);
    let mut record = OfferRecord {
        marketplace: market.name().to_string(),
        offer_url: String::new(),
        title: String::new(),
        seller: None,
        seller_country: None,
        price_usd: None,
        platform: None,
        category: None,
        claimed_followers: None,
        claims_verified: false,
        monthly_revenue_usd: None,
        income_source: None,
        description: None,
        profile_link: None,
        handle: None,
        collected_unix: 0,
        iteration: 0,
    };
    match market.dialect() {
        Dialect::Cards => extract_cards(&doc, &mut record),
        Dialect::Table => extract_table(&doc, &mut record),
        Dialect::List => extract_list(&doc, &mut record),
    }
    if let Some(link) = &record.profile_link {
        record.handle = handle_from_profile_link(link);
    }
    record
}

/// Text of the first match, when non-empty.
pub(crate) fn text_of(doc: &Document<'_>, selector: &Selector) -> Option<String> {
    doc.select_first(selector).map(|e| e.text()).filter(|t| !t.is_empty())
}

fn href_of(doc: &Document<'_>, selector: &Selector) -> Option<String> {
    doc.select_first(selector).and_then(|e| e.attr("href").map(str::to_string))
}

/// Per-field offer-page selectors of the card-grid and flat-list
/// dialects, compiled once.
struct FieldPlan {
    title: Selector,
    price: Selector,
    platform: Selector,
    seller: Selector,
    country: Selector,
    category: Selector,
    followers: Selector,
    verified: Selector,
    revenue: Selector,
    income_source: Selector,
    description: Selector,
    profile: Selector,
}

/// The card-grid dialect marks each field with a class.
static CARDS: LazyLock<FieldPlan> = LazyLock::new(|| FieldPlan {
    title: sel("h1.offer-title"),
    price: sel("span.price"),
    platform: sel("span.platform"),
    seller: sel(".seller a"),
    country: sel(".seller .country"),
    category: sel("span.category"),
    followers: sel("span.followers"),
    verified: sel("span.badge-verified"),
    revenue: sel("span.revenue"),
    income_source: sel("span.income-source"),
    description: sel("div.description"),
    profile: sel("a.profile-link"),
});

fn extract_cards(doc: &Document<'_>, r: &mut OfferRecord) {
    let p = &*CARDS;
    r.title = text_of(doc, &p.title).unwrap_or_default();
    r.price_usd = text_of(doc, &p.price).as_deref().and_then(parse_price);
    r.platform = text_of(doc, &p.platform);
    r.seller = doc.select_first(&p.seller).map(|e| e.text());
    r.seller_country = text_of(doc, &p.country);
    r.category = text_of(doc, &p.category);
    r.claimed_followers = text_of(doc, &p.followers).and_then(|t| t.parse().ok());
    r.claims_verified = doc.select_first(&p.verified).is_some();
    r.monthly_revenue_usd = text_of(doc, &p.revenue).as_deref().and_then(parse_price);
    r.income_source = text_of(doc, &p.income_source);
    r.description = text_of(doc, &p.description);
    r.profile_link = href_of(doc, &p.profile);
}

/// The table dialect's offer-page selectors, compiled once.
struct TablePlan {
    title: Selector,
    fields: Selector,
    profile: Selector,
}

static TABLE: LazyLock<TablePlan> = LazyLock::new(|| TablePlan {
    title: sel("h1"),
    fields: sel("#offer-fields"),
    profile: sel("a.profile"),
});

fn extract_table(doc: &Document<'_>, r: &mut OfferRecord) {
    let p = &*TABLE;
    r.title = text_of(doc, &p.title).unwrap_or_default();
    // <dl> of dt/dd pairs; an unpaired last child is ignored.
    if let Some(dl) = doc.select_first(&p.fields) {
        let mut children = dl.children();
        while let (Some(key), Some(value)) = (children.next(), children.next()) {
            let value = value.text();
            match key.text().as_str() {
                "Price" => r.price_usd = parse_price(&value),
                "Platform" => r.platform = Some(value),
                "Seller" => r.seller = Some(value),
                "Country" => r.seller_country = Some(value),
                "Category" => r.category = Some(value),
                "Followers" => r.claimed_followers = value.parse().ok(),
                "Verified" => r.claims_verified = value == "yes",
                "Monthly revenue" => r.monthly_revenue_usd = parse_price(&value),
                "Income source" => r.income_source = Some(value),
                "Description" => r.description = Some(value),
                _ => {}
            }
        }
    }
    r.profile_link = href_of(doc, &p.profile);
}

/// The flat-list dialect marks each field `[data-field=…]`.
static LIST: LazyLock<FieldPlan> = LazyLock::new(|| FieldPlan {
    title: sel("[data-field=title]"),
    price: sel("[data-field=price]"),
    platform: sel("[data-field=platform]"),
    seller: sel("[data-field=seller]"),
    country: sel("[data-field=country]"),
    category: sel("[data-field=category]"),
    followers: sel("[data-field=followers]"),
    verified: sel("[data-field=verified]"),
    revenue: sel("[data-field=revenue]"),
    income_source: sel("[data-field=income-source]"),
    description: sel("[data-field=description]"),
    profile: sel("a[data-field=profile]"),
});

fn extract_list(doc: &Document<'_>, r: &mut OfferRecord) {
    let p = &*LIST;
    r.title = text_of(doc, &p.title).unwrap_or_default();
    r.price_usd = text_of(doc, &p.price).as_deref().and_then(parse_price);
    r.platform = text_of(doc, &p.platform);
    r.seller = text_of(doc, &p.seller);
    r.seller_country = text_of(doc, &p.country);
    r.category = text_of(doc, &p.category);
    r.claimed_followers = text_of(doc, &p.followers).and_then(|t| t.parse().ok());
    r.claims_verified = text_of(doc, &p.verified).as_deref() == Some("true");
    r.monthly_revenue_usd = text_of(doc, &p.revenue).as_deref().and_then(parse_price);
    r.income_source = text_of(doc, &p.income_source);
    r.description = text_of(doc, &p.description);
    r.profile_link = href_of(doc, &p.profile);
}

#[cfg(test)]
mod tests {
    use super::*;
    use acctrade_market::lifecycle::MarketState;
    use acctrade_market::listing::{Listing, Monetization};
    use acctrade_market::seller::Seller;
    use acctrade_market::site::MarketplaceSite;
    use acctrade_net::http::Request;
    use acctrade_net::server::{RequestCtx, Service};
    use acctrade_net::url::Url;
    use acctrade_social::platform::Platform;
    use foundation::sync::RwLock;
    use std::sync::Arc;

    /// Render a real offer page for a market and extract it back —
    /// roundtrip through the genuine site templates.
    fn roundtrip(market: MarketplaceId) -> OfferRecord {
        let state = Arc::new(RwLock::new(MarketState::new(market)));
        {
            let mut s = state.write();
            let sid = s.next_seller_id();
            let mut seller = Seller::new(sid, "megaseller");
            seller.country = Some("Turkey".into());
            s.add_seller(seller);
            let lid = s.next_listing_id();
            let mut l = Listing::new(lid, market, Platform::TikTok, sid, 1_234.5);
            l.title = "TikTok dance page 2.1M".into();
            l.category = Some("Humor/Memes".into());
            l.claimed_followers = Some(2_100_000);
            l.description = Some("Fresh and ready for promotion.".into());
            l.monetization = Some(Monetization {
                monthly_revenue_usd: 136.0,
                income_source: "Google AdSense".into(),
            });
            l.profile_link = Some("http://tiktok.example/dance.page99".into());
            s.add_listing(l);
        }
        let site = MarketplaceSite::new(state);
        let req = Request::get(Url::parse(&format!("http://{}/offer/1", market.host())).unwrap());
        let resp = site.handle(&req, &RequestCtx::test());
        parse_offer(market, &resp.text())
    }

    #[test]
    fn extracts_all_three_dialects() {
        for market in [
            MarketplaceId::Accsmarket, // cards
            MarketplaceId::FameSwap,   // table
            MarketplaceId::Z2U,        // list
        ] {
            let r = roundtrip(market);
            assert_eq!(r.title, "TikTok dance page 2.1M", "{market:?}");
            assert_eq!(r.price_usd, Some(1_234.5), "{market:?}");
            assert_eq!(r.platform.as_deref(), Some("TikTok"), "{market:?}");
            assert_eq!(r.seller.as_deref(), Some("megaseller"), "{market:?}");
            assert_eq!(r.seller_country.as_deref(), Some("Turkey"), "{market:?}");
            assert_eq!(r.category.as_deref(), Some("Humor/Memes"), "{market:?}");
            assert_eq!(r.claimed_followers, Some(2_100_000), "{market:?}");
            assert_eq!(r.monthly_revenue_usd, Some(136.0), "{market:?}");
            assert_eq!(r.income_source.as_deref(), Some("Google AdSense"), "{market:?}");
            assert_eq!(
                r.profile_link.as_deref(),
                Some("http://tiktok.example/dance.page99"),
                "{market:?}"
            );
            assert_eq!(r.handle.as_deref(), Some("dance.page99"), "{market:?}");
        }
    }

    #[test]
    fn hidden_seller_market_extracts_no_seller() {
        let r = roundtrip(MarketplaceId::SocialTradia);
        assert!(r.seller.is_none());
        assert!(r.seller_country.is_none());
        assert_eq!(r.price_usd, Some(1_234.5));
    }

    #[test]
    fn price_parsing_variants() {
        assert_eq!(parse_price("$157"), Some(157.0));
        assert_eq!(parse_price("$1,234.50"), Some(1_234.5));
        assert_eq!(parse_price("$50,000,000"), Some(50_000_000.0));
        assert_eq!(parse_price("$136/month"), Some(136.0));
        assert_eq!(parse_price("price: $7 only"), Some(7.0));
        assert_eq!(parse_price("free"), None);
        assert_eq!(parse_price("$"), None);
    }

    #[test]
    fn handle_extraction() {
        assert_eq!(
            handle_from_profile_link("http://instagram.example/fashion.daily"),
            Some("fashion.daily".to_string())
        );
        assert_eq!(handle_from_profile_link("http://instagram.example/"), None);
        assert_eq!(handle_from_profile_link("not a url"), None);
    }

    #[test]
    fn index_parsing_with_pagination() {
        let html = r#"<div><a class="offer-link" href="/offer/3">a</a>
            <a href="/offer/4">b</a><a class="next" href="/listings/x?page=1">next</a>
            <a href="/other">skip</a></div>"#;
        let page = parse_index(html);
        assert_eq!(page.offer_paths, vec!["/offer/3", "/offer/4"]);
        assert_eq!(page.next_path.as_deref(), Some("/listings/x?page=1"));
    }

    #[test]
    fn storefront_parsing() {
        let html = r#"<nav><a class="platform-link" href="/listings/instagram">IG</a>
            <a class="platform-link" href="/listings/tiktok">TT</a>
            <a href="/about">about</a></nav>"#;
        let paths = parse_storefront(html);
        assert_eq!(paths, vec!["/listings/instagram", "/listings/tiktok"]);
    }
}
