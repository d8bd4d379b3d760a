//! Underground (dark-web) marketplaces — §4.2.
//!
//! The paper inspected eight onion markets; two (ARES Market, MGM Grand)
//! had no accounts for sale, leaving six for analysis. All "required user
//! registration and implemented complex, site-specific, non-standard
//! CAPTCHAs", and "attempts to access pages not linked within the current
//! page resulted in blocks" — which is why the authors collected these
//! markets *manually*.
//!
//! [`UndergroundForum`] reproduces all three frictions:
//!
//! * reachable only over the Tor overlay (`.onion` host);
//! * a CAPTCHA-gated registration wall issuing a session cookie;
//! * link-restricted navigation: a session may only fetch paths that were
//!   linked from a page it has already seen (or found via `/search`).

use acctrade_html::dom::Builder;
use acctrade_net::captcha::{CaptchaGate, CaptchaKind, Challenge};
use acctrade_net::client::{
    captcha_kind_header_value, request_token, CAPTCHA_KIND_HEADER, CAPTCHA_NONCE_HEADER,
};
use acctrade_net::http::{Request, Response, Status};
use acctrade_net::server::{RequestCtx, Service};
use acctrade_net::tor::onion_address;
use acctrade_social::platform::Platform;
use foundation::sync::Mutex;
use std::collections::{HashMap, HashSet};

/// The eight inspected underground markets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum UndergroundId {
    /// Dark matter.
    DarkMatter,
    /// Kerberos.
    Kerberos,
    /// Nexus.
    Nexus,
    /// Torzon market.
    TorzonMarket,
    /// We the north.
    WeTheNorth,
    /// Black pyramid.
    BlackPyramid,
    /// Ares market.
    AresMarket,
    /// Mgm grand.
    MgmGrand,
}

/// All underground markets in §4.2 order.
pub const ALL_UNDERGROUND: [UndergroundId; 8] = [
    UndergroundId::DarkMatter,
    UndergroundId::Kerberos,
    UndergroundId::Nexus,
    UndergroundId::TorzonMarket,
    UndergroundId::WeTheNorth,
    UndergroundId::BlackPyramid,
    UndergroundId::AresMarket,
    UndergroundId::MgmGrand,
];

/// Static configuration of one underground market.
#[derive(Debug, Clone)]
pub struct UndergroundConfig {
    /// Id.
    pub id: UndergroundId,
    /// Name.
    pub name: &'static str,
    /// Deterministic v3 onion address.
    pub host: String,
    /// Does the market currently list social media accounts? (ARES and
    /// MGM Grand do not — §4.2.)
    pub sells_accounts: bool,
    /// CAPTCHA family at the registration wall.
    pub captcha: CaptchaKind,
    /// Platforms this market's listings cover.
    pub platforms: &'static [Platform],
    /// Account-sale posts observed in the paper.
    pub paper_posts: usize,
    /// Distinct sellers behind those posts.
    pub paper_sellers: usize,
}

impl UndergroundId {
    /// The market's configuration.
    pub fn config(self) -> UndergroundConfig {
        use UndergroundId::*;
        let (name, seed, sells, captcha, platforms, posts, sellers): (
            &'static str,
            u64,
            bool,
            CaptchaKind,
            &'static [Platform],
            usize,
            usize,
        ) = match self {
            DarkMatter => (
                "Dark Matter",
                0xDA2D,
                true,
                CaptchaKind::SitePuzzle,
                &[Platform::YouTube, Platform::TikTok, Platform::X],
                5,
                3,
            ),
            Kerberos => (
                "Kerberos",
                0xCE4B,
                true,
                CaptchaKind::ImageGrid,
                &[Platform::TikTok, Platform::X],
                2,
                2,
            ),
            Nexus => (
                "Nexus",
                0x4E05,
                true,
                CaptchaKind::SitePuzzle,
                &[Platform::Instagram, Platform::X, Platform::TikTok],
                37,
                4,
            ),
            TorzonMarket => (
                "Torzon Market",
                0x7042,
                true,
                CaptchaKind::DistortedText,
                &[Platform::Instagram, Platform::TikTok, Platform::YouTube],
                4,
                2,
            ),
            WeTheNorth => (
                "We The North",
                0x3707,
                true,
                CaptchaKind::SitePuzzle,
                &[Platform::TikTok],
                15,
                1,
            ),
            BlackPyramid => (
                "Black Pyramid",
                0xB1AC,
                true,
                CaptchaKind::ImageGrid,
                &[Platform::YouTube],
                2,
                2,
            ),
            AresMarket => (
                "ARES Market",
                0xA4E5,
                false,
                CaptchaKind::SitePuzzle,
                &[],
                0,
                0,
            ),
            MgmGrand => ("MGM Grand", 0x3636, false, CaptchaKind::ImageGrid, &[], 0, 0),
        };
        UndergroundConfig {
            id: self,
            name,
            host: onion_address(seed),
            sells_accounts: sells,
            captcha,
            platforms,
            paper_posts: posts,
            paper_sellers: sellers,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        self.config().name
    }
}

/// One forum post advertising accounts.
#[derive(Debug, Clone, PartialEq)]
pub struct UndergroundPost {
    /// Id.
    pub id: u64,
    /// Market.
    pub market: UndergroundId,
    /// Author.
    pub author: String,
    /// Title.
    pub title: String,
    /// Body text — §4.2's similarity analysis runs on this.
    pub body: String,
    /// Platform.
    pub platform: Platform,
    /// Listing price; underground pricing "can be unclear when purchasing
    /// in bulk".
    pub price_usd: Option<f64>,
    /// Accounts in the bundle (bulk sales).
    pub quantity: u32,
    /// Publication date — some forums omit it.
    pub published_unix: Option<i64>,
    /// Replies.
    pub replies: u32,
    /// Off-platform contact (payments are "agreed upon on a different
    /// channel").
    pub contact: String,
}

struct Session {
    /// Paths this session has been shown links to.
    allowed: HashSet<String>,
}

impl Session {
    fn new() -> Session {
        let mut allowed = HashSet::new();
        allowed.insert("/".to_string());
        allowed.insert("/register".to_string());
        allowed.insert("/search".to_string());
        Session { allowed }
    }
}

/// The forum web application for one underground market.
pub struct UndergroundForum {
    config: UndergroundConfig,
    posts: Vec<UndergroundPost>,
    gate: Mutex<CaptchaGate>,
    issued: Mutex<Vec<Challenge>>,
    sessions: Mutex<HashMap<String, Session>>,
    next_session: Mutex<u64>,
    page_size: usize,
}

impl UndergroundForum {
    /// Build a forum from its config and post inventory.
    pub fn new(id: UndergroundId, posts: Vec<UndergroundPost>) -> UndergroundForum {
        let config = id.config();
        assert!(
            posts.iter().all(|p| p.market == id),
            "posts must belong to this market"
        );
        let gate = CaptchaGate::new(config.captcha, 0x6A7E ^ id as u64);
        UndergroundForum {
            config,
            posts,
            gate: Mutex::new(gate),
            issued: Mutex::new(Vec::new()),
            sessions: Mutex::new(HashMap::new()),
            next_session: Mutex::new(1),
            page_size: 10,
        }
    }

    /// The market's configuration.
    pub fn config(&self) -> &UndergroundConfig {
        &self.config
    }

    /// Posts on this forum (ground truth; tests and the workload use it).
    pub fn posts(&self) -> &[UndergroundPost] {
        &self.posts
    }

    fn session_of(&self, req: &Request) -> Option<String> {
        let cookie = req.headers.get("cookie")?;
        cookie
            .split(';')
            .filter_map(|p| p.trim().split_once('='))
            .find(|(k, _)| *k == "sid")
            .map(|(_, v)| v.to_string())
    }

    fn challenge_response(&self) -> Response {
        let ch = self.gate.lock().issue();
        let resp = Response::status(Status::Unauthorized)
            .with_header(CAPTCHA_KIND_HEADER, captcha_kind_header_value(ch.kind))
            .with_header(CAPTCHA_NONCE_HEADER, ch.nonce.to_string())
            .with_text("solve the challenge to register");
        self.issued.lock().push(ch);
        resp
    }

    fn register(&self, req: &Request) -> Response {
        if let Some(token) = request_token(req) {
            let ok = {
                let gate = self.gate.lock();
                self.issued.lock().iter().any(|ch| gate.verify(ch, token))
            };
            if ok {
                let sid = {
                    let mut n = self.next_session.lock();
                    *n += 1;
                    format!("{:016x}", acctrade_net::captcha::splitmix64(*n))
                };
                self.sessions.lock().insert(sid.clone(), Session::new());
                return Response::ok()
                    .with_header("set-cookie", format!("sid={sid}; Path=/"))
                    .with_html("<html><body>welcome to the market</body></html>");
            }
        }
        self.challenge_response()
    }

    /// Record all paths linked from a page into the session's allowed set,
    /// then return the page.
    fn serve_linking(&self, sid: &str, html: String, linked: Vec<String>) -> Response {
        if let Some(session) = self.sessions.lock().get_mut(sid) {
            for path in linked {
                session.allowed.insert(path);
            }
        }
        Response::ok().with_html(html)
    }

    fn index(&self, sid: &str) -> Response {
        let mut b = Builder::new();
        let mut linked = Vec::new();
        b.open("html").open("body");
        b.leaf("h1", self.config.name);
        b.open("ul").attr("class", "sections");
        for section in ["accounts", "social-media", "digital-goods"] {
            let path = format!("/section/{section}");
            b.open("li");
            b.open("a").attr("href", path.clone()).text(section).close();
            b.close();
            linked.push(path);
        }
        b.close().close().close();
        self.serve_linking(sid, b.finish(), linked)
    }

    fn section_posts(&self, section: &str) -> Vec<&UndergroundPost> {
        match section {
            // Both dedicated sections list the account posts (forums file
            // them inconsistently; the paper browsed both kinds).
            "accounts" | "social-media" => self.posts.iter().collect(),
            _ => Vec::new(),
        }
    }

    fn section(&self, sid: &str, section: &str, page: usize) -> Response {
        let posts = self.section_posts(section);
        let total_pages = posts.len().div_ceil(self.page_size).max(1);
        if page >= total_pages && page != 0 {
            return Response::not_found("no such page");
        }
        let slice = posts.iter().skip(page * self.page_size).take(self.page_size);
        let mut b = Builder::new();
        let mut linked = Vec::new();
        b.open("html").open("body");
        b.leaf("h2", &format!("{section} — page {}", page + 1));
        b.open("ul").attr("class", "threads");
        for p in slice {
            let path = format!("/thread/{}", p.id);
            b.open("li");
            b.open("a").attr("href", path.clone()).text(&p.title).close();
            b.open("span").attr("class", "author").text(&p.author).close();
            b.close();
            linked.push(path);
        }
        b.close();
        if page + 1 < total_pages {
            let next = format!("/section/{section}?page={}", page + 1);
            b.open("a").attr("class", "next").attr("href", next.clone()).text("older").close();
            linked.push(format!("/section/{section}"));
        }
        b.close().close();
        self.serve_linking(sid, b.finish(), linked)
    }

    fn thread(&self, sid: &str, id: u64) -> Response {
        let Some(p) = self.posts.iter().find(|p| p.id == id) else {
            return Response::not_found("thread not found");
        };
        let mut b = Builder::new();
        b.open("html").open("body");
        b.open("div").attr("class", "post");
        b.open("h1").attr("class", "title").text(&p.title).close();
        b.open("span").attr("class", "author").text(&p.author).close();
        b.open("span").attr("class", "platform").text(p.platform.name()).close();
        if let Some(price) = p.price_usd {
            b.open("span").attr("class", "price").text(crate::site::format_price(price)).close();
        }
        b.open("span").attr("class", "quantity").text(p.quantity.to_string()).close();
        if let Some(ts) = p.published_unix {
            b.open("span")
                .attr("class", "date")
                .text(acctrade_net::clock::format_date(ts))
                .close();
        }
        b.open("div").attr("class", "body").text(&p.body).close();
        b.open("span").attr("class", "contact").text(&p.contact).close();
        b.open("span").attr("class", "replies").text(p.replies.to_string()).close();
        b.close().close().close();
        self.serve_linking(sid, b.finish(), Vec::new())
    }

    fn search(&self, sid: &str, query: &str) -> Response {
        let q = query.to_ascii_lowercase();
        let hits: Vec<&UndergroundPost> = self
            .posts
            .iter()
            .filter(|p| {
                p.title.to_ascii_lowercase().contains(&q) || p.body.to_ascii_lowercase().contains(&q)
            })
            .collect();
        let mut b = Builder::new();
        let mut linked = Vec::new();
        b.open("html").open("body");
        b.leaf("h2", &format!("search: {query}"));
        b.open("ul").attr("class", "results");
        for p in hits {
            let path = format!("/thread/{}", p.id);
            b.open("li");
            b.open("a").attr("href", path.clone()).text(&p.title).close();
            b.close();
            linked.push(path);
        }
        b.close().close().close();
        self.serve_linking(sid, b.finish(), linked)
    }
}

impl Service for UndergroundForum {
    fn handle(&self, req: &Request, _ctx: &RequestCtx) -> Response {
        let path = req.url.path();
        if path == "/register" {
            return self.register(req);
        }
        // Everything else requires a session.
        let Some(sid) = self.session_of(req) else {
            return self.challenge_response();
        };
        if !self.sessions.lock().contains_key(&sid) {
            return self.challenge_response();
        }
        // Link-restricted navigation.
        let allowed = self
            .sessions
            .lock()
            .get(&sid)
            .map(|s| s.allowed.contains(path))
            .unwrap_or(false);
        if !allowed {
            return Response::status(Status::Forbidden)
                .with_text("direct navigation blocked: page not linked from your session");
        }
        if path == "/" {
            return self.index(&sid);
        }
        if let Some(section) = path.strip_prefix("/section/") {
            let page = req
                .url
                .query_param("page")
                .and_then(|p| p.parse().ok())
                .unwrap_or(0usize);
            return self.section(&sid, section, page);
        }
        if let Some(id) = path.strip_prefix("/thread/").and_then(|s| s.parse::<u64>().ok()) {
            return self.thread(&sid, id);
        }
        if path == "/search" {
            let q = req.url.query_param("q").unwrap_or_default();
            return self.search(&sid, &q);
        }
        Response::not_found("no such page")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acctrade_net::prelude::*;
    use acctrade_net::tor::TorDirectory;
    use foundation::rng::SeedableRng;
    use foundation::rng::ChaCha8Rng;
    use std::sync::Arc;

    fn sample_posts(market: UndergroundId, n: usize) -> Vec<UndergroundPost> {
        (0..n as u64)
            .map(|i| UndergroundPost {
                id: i + 1,
                market,
                author: format!("vendor{}", i % 3),
                title: format!("Selling aged TikTok account #{i}"),
                body: "Aged TikTok account, organic followers, full email access, fast delivery."
                    .to_string(),
                platform: Platform::TikTok,
                price_usd: Some(40.0),
                quantity: 1,
                published_unix: Some(1_710_000_000),
                replies: 2,
                contact: "t.me/vendor_handle".into(),
            })
            .collect()
    }

    fn setup(n_posts: usize) -> (Arc<SimNet>, String, Client) {
        let id = UndergroundId::Nexus;
        let forum = UndergroundForum::new(id, sample_posts(id, n_posts));
        let host = forum.config().host.clone();
        let net = SimNet::new(3);
        net.register(&host, forum);
        let dir = TorDirectory::default_consensus();
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let client = Client::new(&net, "tor-browser")
            .manual(11)
            .via_tor(dir.build_circuit(&mut rng));
        (net, host, client)
    }

    #[test]
    fn registration_wall_and_session() {
        let (_net, host, client) = setup(3);
        // First contact on any page: challenge.
        let resp = client.get(&format!("http://{host}/register")).unwrap();
        // Manual client solves the captcha in-flight, so we land registered.
        assert_eq!(resp.status, Status::Ok);
        assert!(resp.headers.get("set-cookie").is_some());
        // Now the index is reachable with the cookie.
        let index = client.get(&format!("http://{host}/")).unwrap();
        assert_eq!(index.status, Status::Ok);
        assert!(index.text().contains("Nexus"));
    }

    #[test]
    fn automated_clients_cannot_enter() {
        let id = UndergroundId::Kerberos;
        let forum = UndergroundForum::new(id, sample_posts(id, 1));
        let host = forum.config().host.clone();
        let net = SimNet::new(4);
        net.register(&host, forum);
        let dir = TorDirectory::default_consensus();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        // Automated persona: rides Tor but won't solve CAPTCHAs.
        let bot = Client::new(&net, "crawler").via_tor(dir.build_circuit(&mut rng));
        let resp = bot.get(&format!("http://{host}/register")).unwrap();
        assert_eq!(resp.status, Status::Unauthorized);
        let resp = bot.get(&format!("http://{host}/")).unwrap();
        assert_eq!(resp.status, Status::Unauthorized);
    }

    #[test]
    fn direct_navigation_blocked_until_linked() {
        let (_net, host, client) = setup(3);
        client.get(&format!("http://{host}/register")).unwrap();
        // Jumping straight to a thread: blocked.
        let resp = client.get(&format!("http://{host}/thread/1")).unwrap();
        assert_eq!(resp.status, Status::Forbidden);
        // Walk the links: index -> section -> thread.
        client.get(&format!("http://{host}/")).unwrap();
        let section = client.get(&format!("http://{host}/section/accounts")).unwrap();
        assert_eq!(section.status, Status::Ok);
        let thread = client.get(&format!("http://{host}/thread/1")).unwrap();
        assert_eq!(thread.status, Status::Ok);
        assert!(thread.text().contains("aged tiktok account") || thread.text().contains("Aged TikTok account"));
    }

    #[test]
    fn section_pagination() {
        let (_net, host, client) = setup(25);
        client.get(&format!("http://{host}/register")).unwrap();
        client.get(&format!("http://{host}/")).unwrap();
        let p0 = client.get(&format!("http://{host}/section/accounts")).unwrap();
        assert!(p0.text().contains("older"));
        let p1 = client.get(&format!("http://{host}/section/accounts?page=1")).unwrap();
        assert_eq!(p1.status, Status::Ok);
        let p2 = client.get(&format!("http://{host}/section/accounts?page=2")).unwrap();
        assert_eq!(p2.status, Status::Ok);
        let p3 = client.get(&format!("http://{host}/section/accounts?page=9")).unwrap();
        assert_eq!(p3.status, Status::NotFound);
    }

    #[test]
    fn search_reveals_threads() {
        let (_net, host, client) = setup(5);
        client.get(&format!("http://{host}/register")).unwrap();
        let results = client.get(&format!("http://{host}/search?q=tiktok")).unwrap();
        assert_eq!(results.status, Status::Ok);
        assert!(results.text().contains("/thread/"));
        // Search results grant access to the found threads.
        let thread = client.get(&format!("http://{host}/thread/2")).unwrap();
        assert_eq!(thread.status, Status::Ok);
    }

    #[test]
    fn inactive_markets_have_no_posts() {
        let cfg = UndergroundId::AresMarket.config();
        assert!(!cfg.sells_accounts);
        assert_eq!(cfg.paper_posts, 0);
        // Six of eight sell accounts.
        let selling = ALL_UNDERGROUND.iter().filter(|m| m.config().sells_accounts).count();
        assert_eq!(selling, 6);
        // Paper total: 65 posts across the six.
        let total: usize = ALL_UNDERGROUND.iter().map(|m| m.config().paper_posts).sum();
        assert_eq!(total, 65);
    }

    #[test]
    fn onion_hosts_are_stable_and_distinct() {
        let mut hosts: Vec<String> = ALL_UNDERGROUND.iter().map(|m| m.config().host).collect();
        assert!(hosts.iter().all(|h| h.ends_with(".onion")));
        let n = hosts.len();
        hosts.sort();
        hosts.dedup();
        assert_eq!(hosts.len(), n);
        assert_eq!(UndergroundId::Nexus.config().host, UndergroundId::Nexus.config().host);
    }
}
