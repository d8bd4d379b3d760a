//! Differential proof for the crawl's HTML hot path.
//!
//! `old` below is the extraction code as it stood before the selectors were
//! compiled once per dialect, kept verbatim and run over the HTML engine as
//! it stood then (`acctrade-html`'s test oracle, compiled here through
//! `#[path]`). The property renders pages through the real marketplace and
//! forum templates from random listings and posts, and demands the same DOM
//! (by `Debug` and by `render()`) and the same records from both.

#[path = "../../html/src/oracle.rs"]
mod html_oracle;

mod old {
    //! Extraction before the compiled plans, verbatim but for its imports.

    use super::html_oracle::{parse, Document, Selector};
    use crate::extract::{handle_from_profile_link, parse_price, IndexPage};
    use crate::record::{OfferRecord, UndergroundRecord};
    use crate::underground::parse_date;
    use acctrade_market::config::MarketplaceId;
    use acctrade_market::site::Dialect;
    use acctrade_social::platform::Platform;

    pub fn parse_index(html: &str) -> IndexPage {
        let doc = parse(html);
        let links = doc.select(&Selector::parse("a").expect("static selector"));
        let mut offer_paths = Vec::new();
        let mut next_path = None;
        for a in links {
            let Some(href) = a.attr("href") else { continue };
            if href.starts_with("/offer/") {
                offer_paths.push(href.to_string());
            } else if a.has_class("next") {
                next_path = Some(href.to_string());
            }
        }
        IndexPage { offer_paths, next_path }
    }

    pub fn parse_storefront(html: &str) -> Vec<String> {
        let doc = parse(html);
        doc.select(&Selector::parse("a").expect("static selector"))
            .into_iter()
            .filter_map(|a| a.attr("href"))
            .filter(|h| h.starts_with("/listings/"))
            .map(|h| h.to_string())
            .collect()
    }

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

    fn sel(s: &str) -> Selector {
        Selector::parse(s).expect("static selector")
    }

    fn text_of(doc: &Document, selector: &str) -> Option<String> {
        doc.select_first(&sel(selector)).map(|e| e.text()).filter(|t| !t.is_empty())
    }

    fn extract_cards(doc: &Document, r: &mut OfferRecord) {
        r.title = text_of(doc, "h1.offer-title").unwrap_or_default();
        r.price_usd = text_of(doc, "span.price").as_deref().and_then(parse_price);
        r.platform = text_of(doc, "span.platform");
        r.seller = doc.select_first(&sel(".seller a")).map(|e| e.text());
        r.seller_country = text_of(doc, ".seller .country");
        r.category = text_of(doc, "span.category");
        r.claimed_followers = text_of(doc, "span.followers").and_then(|t| t.parse().ok());
        r.claims_verified = doc.select_first(&sel("span.badge-verified")).is_some();
        r.monthly_revenue_usd = text_of(doc, "span.revenue").as_deref().and_then(parse_price);
        r.income_source = text_of(doc, "span.income-source");
        r.description = text_of(doc, "div.description");
        r.profile_link = doc
            .select_first(&sel("a.profile-link"))
            .and_then(|e| e.attr("href").map(str::to_string));
    }

    fn extract_table(doc: &Document, r: &mut OfferRecord) {
        r.title = text_of(doc, "h1").unwrap_or_default();
        // <dl> of dt/dd pairs.
        let dl = doc.select_first(&sel("#offer-fields"));
        if let Some(dl) = dl {
            let children = dl.children();
            let mut i = 0;
            while i + 1 < children.len() {
                let key = children[i].text();
                let value = children[i + 1].text();
                match key.as_str() {
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
                i += 2;
            }
        }
        r.profile_link = doc
            .select_first(&sel("a.profile"))
            .and_then(|e| e.attr("href").map(str::to_string));
    }

    fn extract_list(doc: &Document, r: &mut OfferRecord) {
        let field = |name: &str| {
            doc.select_first(&sel(&format!("[data-field={name}]")))
                .map(|e| e.text())
                .filter(|t| !t.is_empty())
        };
        r.title = field("title").unwrap_or_default();
        r.price_usd = field("price").as_deref().and_then(parse_price);
        r.platform = field("platform");
        r.seller = field("seller");
        r.seller_country = field("country");
        r.category = field("category");
        r.claimed_followers = field("followers").and_then(|t| t.parse().ok());
        r.claims_verified = field("verified").as_deref() == Some("true");
        r.monthly_revenue_usd = field("revenue").as_deref().and_then(parse_price);
        r.income_source = field("income-source");
        r.description = field("description");
        r.profile_link = doc
            .select_first(&sel("a[data-field=profile]"))
            .and_then(|e| e.attr("href").map(str::to_string));
    }

    pub fn extract_thread_links(html: &str) -> Vec<String> {
        let doc = parse(html);
        doc.select(&Selector::parse("a").expect("static selector"))
            .into_iter()
            .filter_map(|a| a.attr("href"))
            .filter(|h| h.starts_with("/thread/"))
            .map(str::to_string)
            .collect()
    }

    pub fn parse_thread(market: &str, url: &str, html: &str) -> Option<UndergroundRecord> {
        let doc = parse(html);
        let sel = |s: &str| Selector::parse(s).expect("static selector");
        let text = |s: &str| doc.select_first(&sel(s)).map(|e| e.text()).filter(|t| !t.is_empty());
        let title = text(".title")?;
        Some(UndergroundRecord {
            market: market.to_string(),
            url: url.to_string(),
            title,
            body: text(".body").unwrap_or_default(),
            author: text(".author").unwrap_or_default(),
            platform: text(".platform").and_then(|p| Platform::parse(&p)).map(|p| p.name().to_string()),
            published_unix: text(".date").and_then(|d| parse_date(&d)),
            replies: text(".replies").and_then(|r| r.parse().ok()),
            price_usd: text(".price").as_deref().and_then(crate::extract::parse_price),
            quantity: text(".quantity").and_then(|q| q.parse().ok()),
            screenshot: true,
        })
    }
}

use crate::extract::{parse_index, parse_offer, parse_storefront};
use crate::underground::{extract_thread_links, parse_thread};
use acctrade_html::parse;
use acctrade_market::config::{MarketplaceId, ALL_MARKETPLACES};
use acctrade_market::lifecycle::MarketState;
use acctrade_market::listing::{Listing, Monetization};
use acctrade_market::seller::Seller;
use acctrade_market::site::{Dialect, MarketplaceSite};
use acctrade_market::underground::{UndergroundForum, UndergroundPost, ALL_UNDERGROUND};
use acctrade_net::client::Client;
use acctrade_net::http::{Request, Status};
use acctrade_net::server::{RequestCtx, Service};
use acctrade_net::sim::SimNet;
use acctrade_net::tor::TorDirectory;
use acctrade_net::url::Url;
use acctrade_social::platform::ALL_PLATFORMS;
use foundation::rng::{ChaCha8Rng, SeedableRng};
use foundation::sync::RwLock;
use std::sync::Arc;

/// Field values that stress the templates and extractors: escapes,
/// whitespace runs, non-ASCII, empty strings, and the table dialect's own
/// keys.
const STRINGS: &[&str] = &[
    "",
    "TikTok dance page 2.1M",
    "R&B <3 \"quoted\" & 'single'",
    "  spaced   out\ttext\n",
    "prix élevé — 你好",
    "&amp; literal",
    "Price",
    "Seller",
    "a > b",
    "nbsp\u{a0}inside",
];

const PRICES: &[f64] = &[0.0, 0.99, 7.0, 136.25, 298.0, 1_234.5, 50_000_000.0];

/// Draws values from a case's random words.
struct Draw<'a>(std::slice::Iter<'a, u64>);

impl Draw<'_> {
    fn pick(&mut self, n: usize) -> usize {
        (self.0.next().copied().unwrap_or(0) % n as u64) as usize
    }

    fn coin(&mut self) -> bool {
        self.pick(2) == 0
    }

    fn string(&mut self) -> String {
        STRINGS[self.pick(STRINGS.len())].to_string()
    }

    fn opt_string(&mut self) -> Option<String> {
        self.coin().then(|| self.string())
    }
}

/// New and old parse give the same tree, and so the same rendering.
fn assert_same_dom(html: &str) {
    let (new, old) = (parse(html), html_oracle::parse(html));
    assert_eq!(format!("{new:?}"), format!("{old:?}"), "{html}");
    assert_eq!(new.render(), old.render(), "{html}");
}

/// A market with random sellers and listings: every page it serves, and
/// the DOM and every extractor's output compared on each.
fn check_market(market: MarketplaceId, d: &mut Draw<'_>) {
    let state = Arc::new(RwLock::new(MarketState::new(market)));
    {
        let mut s = state.write();
        let mut sellers = Vec::new();
        for _ in 0..1 + d.pick(3) {
            let sid = s.next_seller_id();
            let mut seller = Seller::new(sid, d.string());
            seller.country = d.opt_string();
            s.add_seller(seller);
            sellers.push(sid);
        }
        for _ in 0..1 + d.pick(30) {
            let lid = s.next_listing_id();
            let platform = ALL_PLATFORMS[d.pick(ALL_PLATFORMS.len())];
            let sid = sellers[d.pick(sellers.len())];
            let mut l = Listing::new(lid, market, platform, sid, PRICES[d.pick(PRICES.len())]);
            l.title = d.string();
            l.category = d.opt_string();
            l.claimed_followers = d.coin().then(|| d.pick(3_000_000) as u64);
            l.claims_verified = d.coin();
            l.description = d.opt_string();
            l.monetization = d.coin().then(|| Monetization {
                monthly_revenue_usd: PRICES[d.pick(PRICES.len())],
                income_source: d.string(),
            });
            l.profile_link = d.coin().then(|| format!("http://{}.example/{}", platform.name(), d.pick(99)));
            s.add_listing(l);
        }
    }
    let site = MarketplaceSite::new(state);
    let get = |path: &str| {
        let url = Url::parse(&format!("http://{}{path}", market.host())).expect("valid url");
        site.handle(&Request::get(url), &RequestCtx::test()).text()
    };
    let mut paths = vec!["/".to_string()];
    let mut i = 0;
    while let Some(path) = paths.get(i).cloned() {
        i += 1;
        let html = get(&path);
        assert_same_dom(&html);
        let storefront = parse_storefront(&html);
        assert_eq!(storefront, old::parse_storefront(&html));
        let index = parse_index(&html);
        assert_eq!(index, old::parse_index(&html));
        assert_eq!(parse_offer(market, &html), old::parse_offer(market, &html), "{html}");
        if path == "/" {
            paths.extend(storefront);
        } else {
            paths.extend(index.next_path);
            paths.extend(index.offer_paths);
        }
    }
}

/// A forum with random posts, browsed by a manual persona: every page it
/// serves compared like the market pages, plus the thread extractors.
fn check_forum(d: &mut Draw<'_>, seed: u64) {
    let id = ALL_UNDERGROUND[d.pick(ALL_UNDERGROUND.len())];
    let posts = (0..1 + d.pick(14))
        .map(|i| UndergroundPost {
            id: i as u64 + 1,
            market: id,
            author: d.string(),
            title: d.string(),
            body: d.string(),
            platform: ALL_PLATFORMS[d.pick(ALL_PLATFORMS.len())],
            price_usd: d.coin().then(|| PRICES[d.pick(PRICES.len())]),
            quantity: d.pick(500) as u32,
            published_unix: d.coin().then(|| 1_700_000_000 + d.pick(99_999_999) as i64),
            replies: d.pick(50) as u32,
            contact: d.string(),
        })
        .collect();
    let forum = UndergroundForum::new(id, posts);
    let host = forum.config().host.clone();
    let net = SimNet::new(seed);
    net.register(&host, forum);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let circuit = TorDirectory::default_consensus().build_circuit(&mut rng);
    let client = Client::new(&net, "tor-browser").manual(seed).via_tor(circuit);
    let get = |path: &str| {
        client
            .get(&format!("http://{host}{path}"))
            .ok()
            .filter(|r| r.status == Status::Ok)
            .map(|r| r.text())
    };
    if get("/register").is_none() {
        return;
    }
    let mut paths = vec!["/".to_string(), "/search?q=account".to_string()];
    let mut i = 0;
    while let Some(path) = paths.get(i).cloned() {
        i += 1;
        let Some(html) = get(&path) else { continue };
        assert_same_dom(&html);
        let links = extract_thread_links(&html);
        assert_eq!(links, old::extract_thread_links(&html));
        let url = format!("http://{host}{path}");
        assert_eq!(parse_thread("m", &url, &html), old::parse_thread("m", &url, &html), "{html}");
        for link in links.into_iter().chain(parse_index(&html).next_path) {
            if !paths.contains(&link) {
                paths.push(link);
            }
        }
        if path == "/" {
            paths.push("/section/accounts".to_string());
        }
    }
}

foundation::prop_check! {
    /// Every template page of a random market of each dialect and of a
    /// random forum parses to the DOM the old parser built, and every
    /// extractor returns the record the per-page selector parsing returned.
    fn template_pages_match_the_old_engine(
        words in foundation::check::vec(foundation::check::any_u64(), 0..1024),
    ) {
        let mut d = Draw(words.iter());
        for dialect in [Dialect::Cards, Dialect::Table, Dialect::List] {
            let markets: Vec<MarketplaceId> =
                ALL_MARKETPLACES.into_iter().filter(|m| m.dialect() == dialect).collect();
            check_market(markets[d.pick(markets.len())], &mut d);
        }
        check_forum(&mut d, words.first().copied().unwrap_or(0));
    }
}
