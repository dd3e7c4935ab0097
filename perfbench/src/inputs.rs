//! Seeded inputs.  The program receives only what these functions
//! generate.  Every input is built from the datagen seed the
//! repository's own benchmarks and ROADMAP figures use; `--seed`
//! reorders the nations' provinces, picks the province feeds and orders
//! the sessions, so every seed gets inputs of the same shape.

use std::path::PathBuf;

use tpiin::datagen::{self, MutationStream, MutationStreamConfig};
use tpiin::model::{
    CompanyId, InfluenceRecord, InvestmentRecord, PersonId, SourceRegistry, TradingRecord,
};

/// Datagen seed of the reference nations and the day-0 province.
pub const BASE_SEED: u64 = 20170417;

/// The `nation-<scale>` registry of `seed`: the reference nation
/// (datagen seed 20170417) with its provinces registered in the seed's
/// order.
///
/// The reference nation has provinces, intra- and cross-province
/// trading, planted inter-province rings and their pattern-free
/// controls, as the repository's own benchmarks build it; both the
/// province count and the per-province population scale with `scale`.
/// Its shape does not vary with the seed: across independent datagen
/// seeds nation-0.5 mines 85,779 to 109,006 rules groups, and the cost
/// and heap of every workload follow that count.
pub fn nation(scale: f64, seed: u64) -> SourceRegistry {
    reorder_provinces(
        &tpiin_bench::fixtures::nation_registry(scale, BASE_SEED),
        seed,
    )
}

/// Province `i` of a nation registry: every entity name carries the
/// `P<i>:` prefix of the province it was absorbed from.
fn province_of(name: &str) -> usize {
    name.strip_prefix('P')
        .and_then(|rest| rest.split_once(':'))
        .and_then(|(i, _)| i.parse().ok())
        .unwrap_or_else(|| panic!("`{name}` carries no province prefix"))
}

/// An isomorphic copy of a nation registry in which the provinces are
/// registered in a seeded order, as if the generator had absorbed them
/// in that order.  Persons and companies keep their order within a
/// province, so they take new ids block by block; each province's own
/// records keep their order and follow its block, and the records that
/// span provinces (cross-province trading, rings, controls) come last,
/// as they do in the generator.  Names, roles, tax rates and every
/// relation stay with their entities, so what is mined keeps its shape
/// while ids and record order change with the seed.
pub fn reorder_provinces(registry: &SourceRegistry, seed: u64) -> SourceRegistry {
    let person_province: Vec<usize> = registry
        .persons()
        .map(|(_, p)| province_of(&p.name))
        .collect();
    let company_province: Vec<usize> = registry
        .companies()
        .map(|(_, c)| province_of(&c.name))
        .collect();
    let provinces = company_province.iter().max().map_or(0, |&p| p + 1);
    let rates = registry.company_tax_rates();

    // Each province as a registry of its own, in province-local ids.
    let mut blocks: Vec<SourceRegistry> = (0..provinces).map(|_| SourceRegistry::new()).collect();
    let mut person_local = Vec::with_capacity(person_province.len());
    for (id, p) in registry.persons() {
        person_local.push(blocks[person_province[id.index()]].add_person(p.name.clone(), p.roles));
    }
    let mut company_local = Vec::with_capacity(company_province.len());
    for (id, c) in registry.companies() {
        let block = &mut blocks[company_province[id.index()]];
        let local = block.add_company(c.name.clone());
        if let Some(rates) = &rates {
            block.set_company_tax_rate(local, rates[id.index()]);
        }
        company_local.push(local);
    }
    let (pp, cp) = (
        |p: PersonId| person_province[p.index()],
        |c: CompanyId| company_province[c.index()],
    );
    let (pl, cl) = (
        |p: PersonId| person_local[p.index()],
        |c: CompanyId| company_local[c.index()],
    );
    for i in registry.interdependencies() {
        assert_eq!(pp(i.a), pp(i.b), "interdependencies stay within a province");
        blocks[pp(i.a)].add_interdependence(pl(i.a), pl(i.b), i.kind);
    }
    for r in registry.influences() {
        assert_eq!(
            pp(r.person),
            cp(r.company),
            "influences stay within a province"
        );
        blocks[cp(r.company)].add_influence(InfluenceRecord {
            person: pl(r.person),
            company: cl(r.company),
            ..*r
        });
    }
    for r in registry.investments() {
        assert_eq!(
            cp(r.investor),
            cp(r.investee),
            "investments stay within a province"
        );
        blocks[cp(r.investor)].add_investment(InvestmentRecord {
            investor: cl(r.investor),
            investee: cl(r.investee),
            ..*r
        });
    }
    let mut spanning = Vec::new();
    for r in registry.tradings() {
        if cp(r.seller) == cp(r.buyer) {
            blocks[cp(r.seller)].add_trading(TradingRecord {
                seller: cl(r.seller),
                buyer: cl(r.buyer),
                ..*r
            });
        } else {
            spanning.push(*r);
        }
    }

    let mut order: Vec<usize> = (0..provinces).collect();
    Rng::new(seed).shuffle(&mut order);
    let mut out = SourceRegistry::with_capacity(registry.person_count(), registry.company_count());
    out.reserve_records(
        registry.influences().len(),
        registry.investments().len(),
        registry.tradings().len(),
    );
    let mut company_base = vec![0u32; provinces];
    for &p in &order {
        company_base[p] = out.company_count() as u32;
        out.absorb(&blocks[p], "");
    }
    let renumber = |c: CompanyId| CompanyId(company_base[cp(c)] + cl(c).0);
    for r in spanning {
        out.add_trading(TradingRecord {
            seller: renumber(r.seller),
            buyer: renumber(r.buyer),
            ..r
        });
    }
    out
}

/// Batches in a `province-0.5` mutation feed.
pub const FEED_BATCHES: usize = 20;
/// Candidate feeds in one seed's pool.
pub const FEED_POOL: u64 = 48;

fn feed_config(datagen_seed: u64) -> MutationStreamConfig {
    MutationStreamConfig {
        scale: 0.5,
        seed: datagen_seed,
        batches: FEED_BATCHES,
        records_per_batch: 64,
        planted_groups: 3,
    }
}

/// The reference day-0 province-0.5 registry (datagen seed 20170417, no
/// trading) that every feed replays over.
///
/// It does not vary with the seed: its structure alone moves the
/// per-batch cost of a whole feed fourfold between datagen seeds.
pub fn province_day0() -> SourceRegistry {
    datagen::generate_mutation_stream(&feed_config(BASE_SEED)).base
}

/// Feed `j` of `seed`'s pool over `day0`: 20 batches of 64 trading
/// records each, benign company churn every fourth batch and three
/// evasion rings planted in the second half.
///
/// The generator draws a feed's records from the registry's entity
/// counts only, and those are the same for every seed, so any seed's
/// feed replays over the reference registry.
pub fn province_feed(day0: &SourceRegistry, seed: u64, j: u64) -> MutationStream {
    let pool_seed = BASE_SEED
        .wrapping_add(seed.wrapping_mul(FEED_POOL))
        .wrapping_add(j);
    let mut stream = datagen::generate_mutation_stream(&feed_config(pool_seed));
    assert_eq!(
        (stream.base.person_count(), stream.base.company_count()),
        (day0.person_count(), day0.company_count()),
        "province-0.5 entity counts do not depend on the seed"
    );
    stream.base = day0.clone();
    stream
}

/// Directory for files a run writes (snapshots, span logs); inside the
/// benchmark's own directory, ignored by git.
pub fn work_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("work");
    std::fs::create_dir_all(&dir).expect("creating the benchmark's work directory");
    dir
}

/// SplitMix64: picks session targets without depending on the
/// program's own generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(BASE_SEED.wrapping_add(seed) ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}
