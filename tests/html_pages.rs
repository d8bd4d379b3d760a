//! Golden digests for the HTML the marketplaces and forums serve and for
//! what the crawler extracts from it. A change to the page templates, the
//! parser, the selector engine or the extractors that moves a single byte
//! or field fails here.
//!
//! Every value was computed at commit 0a56c33, when `Builder` still built a
//! DOM and rendered it, the parser still tokenized into a vector first, and
//! the extractors parsed each selector on every page.

use acctrade::crawler::extract::{parse_index, parse_offer, parse_storefront};
use acctrade::crawler::underground::UndergroundCollector;
use acctrade::market::config::MarketplaceId;
use acctrade::market::site::MarketplaceSite;
use acctrade::net::client::Client;
use acctrade::net::http::{Request, Status};
use acctrade::net::server::{RequestCtx, Service};
use acctrade::net::sim::SimNet;
use acctrade::net::tor::TorDirectory;
use acctrade::net::url::Url;
use acctrade::telemetry::digest64;
use acctrade::workload::world::{World, WorldParams};
use foundation::rng::{ChaCha8Rng, SeedableRng};
use std::sync::Arc;

const SEED: u64 = 0x5EED;

fn world() -> World {
    World::generate(WorldParams::small(SEED))
}

fn get(site: &MarketplaceSite, market: MarketplaceId, path: &str) -> String {
    let url = Url::parse(&format!("http://{}{path}", market.host())).expect("valid url");
    let resp = site.handle(&Request::get(url), &RequestCtx::test());
    assert_eq!(resp.status, Status::Ok, "{market:?} {path}");
    resp.text()
}

/// The storefront, the first and last index page of the platform with the
/// most index pages, and the first offer on that first index page.
fn market_pages(world: &World, market: MarketplaceId) -> Vec<(String, String)> {
    let site = MarketplaceSite::new(Arc::clone(&world.markets[&market]));
    let storefront = get(&site, market, "/");
    let mut chains: Vec<Vec<String>> = Vec::new();
    for listing in parse_storefront(&storefront) {
        let mut chain = vec![get(&site, market, &listing)];
        while let Some(next) = parse_index(chain.last().expect("non-empty")).next_path {
            chain.push(get(&site, market, &next));
        }
        chains.push(chain);
    }
    // The first of the longest chains.
    let longest = chains.iter().map(Vec::len).max().expect("a stocked platform");
    let chain = chains.into_iter().find(|c| c.len() == longest).expect("a longest chain");
    let (first, last) = (chain[0].clone(), chain[longest - 1].clone());
    let offer_path = parse_index(&first).offer_paths.into_iter().next().expect("an offer");
    let offer = get(&site, market, &offer_path);
    vec![
        (format!("{market:?} storefront"), storefront),
        (format!("{market:?} first index"), first),
        (format!("{market:?} last index"), last),
        (format!("{market:?} offer"), offer),
    ]
}

/// One market per dialect that shows its sellers, and one that hides them.
/// No table-dialect market hides sellers, so the table dialect's second
/// market is another seller-showing one.
const MARKETS: [MarketplaceId; 6] = [
    MarketplaceId::Accsmarket,
    MarketplaceId::SocialTradia,
    MarketplaceId::FameSwap,
    MarketplaceId::MidMan,
    MarketplaceId::Z2U,
    MarketplaceId::SwapSocials,
];

#[test]
fn marketplace_pages_and_their_records_match_the_dom_built_templates() {
    let world = world();
    let mut pages = Vec::new();
    for market in MARKETS {
        pages.extend(market_pages(&world, market).into_iter().map(|p| (market, p)));
    }
    let mut got = Vec::new();
    let mut records = String::new();
    for (market, (label, html)) in &pages {
        got.push(format!("{label}: {}", digest64(html)));
        records.push_str(&format!("{:?}\n", parse_storefront(html)));
        records.push_str(&format!("{:?}\n", parse_index(html)));
        records.push_str(&format!("{:?}\n", parse_offer(*market, html)));
    }
    got.push(format!("records: {}", digest64(&records)));
    let want = [
        "Accsmarket storefront: 6a999349651151ed",
        "Accsmarket first index: f1a85653de1d957b",
        "Accsmarket last index: 3551254dd445827e",
        "Accsmarket offer: 42f24c99b9299ca3",
        "SocialTradia storefront: f21432a4972749c3",
        "SocialTradia first index: 4bbfb22a32bcf16f",
        "SocialTradia last index: 21b90a7789f019e3",
        "SocialTradia offer: 1738a0cb79688998",
        "FameSwap storefront: 3452a04e9bc1feff",
        "FameSwap first index: 9eae239889580b03",
        "FameSwap last index: 060f24d79f960979",
        "FameSwap offer: fb4a588a2eed6845",
        "MidMan storefront: 2ebba7e259db3515",
        "MidMan first index: 07598453e98d2cc9",
        "MidMan last index: 07598453e98d2cc9",
        "MidMan offer: 9b119299691315a6",
        "Z2U storefront: bc91e54390fad60e",
        "Z2U first index: 09dbaf2ffc7d68c8",
        "Z2U last index: 541a67c5046bf17f",
        "Z2U offer: 83db2fe7111e16d6",
        "SwapSocials storefront: a920423d719b7f90",
        "SwapSocials first index: 8da834ff172b1d66",
        "SwapSocials last index: 8da834ff172b1d66",
        "SwapSocials offer: 99f6ed65e6be194a",
        "records: 567fadd9d0f4cc6e",
    ];
    assert_eq!(got, want);
}

#[test]
fn forum_thread_page_and_forum_records_match_the_dom_built_templates() {
    let world = world();
    let net = SimNet::new(SEED);
    world.deploy(&net);
    let forum = world.forums.iter().find(|f| f.config().name == "Nexus").expect("Nexus");
    let host = forum.config().host.clone();
    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    let circuit = TorDirectory::default_consensus().build_circuit(&mut rng);
    let client = Client::new(&net, "tor-browser").manual(SEED).via_tor(circuit);

    // The manual persona's path to a thread: register, index, section.
    assert_eq!(client.get(&format!("http://{host}/register")).unwrap().status, Status::Ok);
    client.get(&format!("http://{host}/")).unwrap();
    let section = client.get(&format!("http://{host}/section/accounts")).unwrap().text();
    let start = section.find("/thread/").expect("a thread link");
    let end = start + section[start..].find('"').expect("closing quote");
    let thread = client.get(&format!("http://{host}{}", &section[start..end])).unwrap().text();

    let (records, stats) = UndergroundCollector::new(&client, host, "Nexus").collect();
    let got = [
        format!("thread: {}", digest64(&thread)),
        format!("records: {}", digest64(&format!("{records:?}{stats:?}"))),
    ];
    assert_eq!(got, ["thread: d32ed0bfde3196d7", "records: 2446355e2af70546"]);
}
