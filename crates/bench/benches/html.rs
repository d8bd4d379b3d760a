//! HTML hot-path benches: the three per-page costs of the crawl, over the
//! real offer pages of one market per template dialect (card grid, table,
//! flat list) in a bench-scale world. `html/render_offer_pages` is the
//! server side (route, template, `Builder`), `html/parse_offer_pages` the
//! DOM parse alone, and `crawler/extract_offer_pages` the crawler's parse
//! plus extraction. Each iteration handles every page once. Results land
//! in `BENCH_report.json` with every other bench, and `BENCH_budget.json`
//! caps the three medians.

use acctrade_bench::BENCH_SCALE;
use acctrade_crawler::extract::{parse_index, parse_offer, parse_storefront};
use acctrade_html::parse;
use acctrade_market::config::MarketplaceId;
use acctrade_market::site::MarketplaceSite;
use acctrade_net::http::{Request, Status};
use acctrade_net::server::{RequestCtx, Service};
use acctrade_net::url::Url;
use acctrade_workload::world::{World, WorldParams};
use foundation::bench::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

/// One market per dialect.
const MARKETS: [MarketplaceId; 3] =
    [MarketplaceId::Accsmarket, MarketplaceId::FameSwap, MarketplaceId::Z2U];

/// Offer pages per market.
const PAGES_PER_MARKET: usize = 100;

fn request(market: MarketplaceId, path: &str) -> Request {
    Request::get(Url::parse(&format!("http://{}{path}", market.host())).expect("valid url"))
}

/// The first offer paths a crawl of `market` reaches, index by index.
fn offer_paths(site: &MarketplaceSite, market: MarketplaceId) -> Vec<String> {
    let get = |path: &str| site.handle(&request(market, path), &RequestCtx::test()).text();
    let mut paths = Vec::new();
    for listing in parse_storefront(&get("/")) {
        let mut next = Some(listing);
        while let Some(page) = next.filter(|_| paths.len() < PAGES_PER_MARKET) {
            let index = parse_index(&get(&page));
            paths.extend(index.offer_paths);
            next = index.next_path;
        }
    }
    paths.truncate(PAGES_PER_MARKET);
    paths
}

fn bench_html(c: &mut Criterion) {
    let world = World::generate(WorldParams { seed: 0x47A1, scale: BENCH_SCALE });
    let mut sites = Vec::new();
    let mut pages = Vec::new();
    for market in MARKETS {
        let site = MarketplaceSite::new(Arc::clone(&world.markets[&market]));
        let requests: Vec<Request> =
            offer_paths(&site, market).iter().map(|p| request(market, p)).collect();
        for req in &requests {
            let resp = site.handle(req, &RequestCtx::test());
            assert_eq!(resp.status, Status::Ok);
            pages.push((market, resp.text()));
        }
        sites.push((site, requests));
    }
    let bytes: usize = pages.iter().map(|(_, p)| p.len()).sum();
    eprintln!("[html] {} offer pages, {bytes} bytes, 3 dialects", pages.len());

    let mut group = c.benchmark_group("html");
    group.sample_size(20);
    group.bench_function("parse_offer_pages", |b| {
        b.iter(|| {
            for (_, page) in &pages {
                black_box(parse(black_box(page)));
            }
        })
    });
    group.bench_function("render_offer_pages", |b| {
        b.iter(|| {
            for (site, requests) in &sites {
                for req in requests {
                    black_box(site.handle(black_box(req), &RequestCtx::test()));
                }
            }
        })
    });
    group.finish();

    let mut group = c.benchmark_group("crawler");
    group.sample_size(20);
    group.bench_function("extract_offer_pages", |b| {
        b.iter(|| {
            for (market, page) in &pages {
                black_box(parse_offer(*market, black_box(page)));
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_html);
criterion_main!(benches);
