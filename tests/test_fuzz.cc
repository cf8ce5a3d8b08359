/**
 * @file
 * Randomized operation fuzzing of the coherence core.
 *
 * Thousands of random load/store/flush operations from random cores
 * over a small address pool, against deliberately tiny caches so
 * evictions, back-invalidations and directory churn happen
 * constantly. After every single step the full invariant checker
 * must stay silent. The grid suite repeats the run across every
 * replacement policy x inclusivity mode x LLC index function so the
 * pluggable-hierarchy seams face the same churn as the defaults.
 * Companion suites check a cache's residency index against a full
 * scan and fuzz LineMap against std::unordered_map as a reference
 * model.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/line_map.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "mem/memory_system.hh"

namespace csim
{
namespace
{

/**
 * Quiet timing plus miniature caches: a 64-line pool then thrashes
 * every level, reaching eviction and victim paths a realistic
 * geometry would only hit with huge traces.
 */
SystemConfig
fuzzConfig()
{
    SystemConfig cfg;
    cfg.timing.jitterSd = 0.0;
    cfg.timing.longTailProb = 0.0;
    cfg.l1 = CacheGeometry{2 * 1024, 2};
    cfg.l2 = CacheGeometry{4 * 1024, 4};
    // 48 KiB / (4 * 64) = 192 sets: exercises the non-power-of-two
    // modulo indexing path just like the real 12288-set LLC.
    cfg.llc = CacheGeometry{48 * 1024, 4};
    cfg.seed = 99;
    return cfg;
}

/** One fuzzed machine run; returns after @p steps clean steps. */
void
fuzzRun(SystemConfig cfg, std::uint64_t rng_seed, int steps)
{
    cfg.validate();
    MemorySystem mem(cfg);
    Rng rng(rng_seed);
    const PAddr base = 0x4000'0000;
    constexpr int poolLines = 64;
    Tick now = 0;

    for (int i = 0; i < steps; ++i) {
        const auto core = static_cast<CoreId>(
            rng.range(0, cfg.numCores() - 1));
        const PAddr addr =
            base + static_cast<PAddr>(rng.range(0, poolLines - 1)) *
                       lineBytes +
            static_cast<PAddr>(rng.range(0, lineBytes - 1));
        now += 50;
        const auto op = rng.range(0, 9);
        if (op < 5)
            mem.load(core, addr, now);
        else if (op < 8)
            mem.store(core, addr, now);
        else
            mem.flush(core, addr, now);

        const std::string bad = mem.checkInvariants();
        ASSERT_EQ(bad, "")
            << "step " << i << " op " << op << " core " << core
            << " addr " << addr;
    }
}

TEST(OpFuzz, MesiInclusiveDirectory)
{
    fuzzRun(fuzzConfig(), 1001, 10'000);
}

TEST(OpFuzz, MesiNonInclusive)
{
    SystemConfig cfg = fuzzConfig();
    cfg.inclusivity = Inclusivity::nine;
    fuzzRun(cfg, 1002, 10'000);
}

TEST(OpFuzz, MesifInclusive)
{
    SystemConfig cfg = fuzzConfig();
    cfg.flavor = CoherenceFlavor::mesif;
    fuzzRun(cfg, 1003, 10'000);
}

TEST(OpFuzz, MoesiInclusive)
{
    SystemConfig cfg = fuzzConfig();
    cfg.flavor = CoherenceFlavor::moesi;
    fuzzRun(cfg, 1004, 10'000);
}

TEST(OpFuzz, MoesiNonInclusiveSnoop)
{
    SystemConfig cfg = fuzzConfig();
    cfg.flavor = CoherenceFlavor::moesi;
    cfg.inclusivity = Inclusivity::nine;
    cfg.lookup = CoherenceLookup::snoop;
    fuzzRun(cfg, 1005, 10'000);
}

// Every replacement policy x inclusivity mode x LLC index function
// must survive the same churn the defaults do. Miniature caches with
// power-of-two geometry (so plru is legal everywhere) keep the full
// grid cheap; the invariant checker runs after every step inside
// fuzzRun, which in exclusive mode also rejects any line valid in
// both the LLC and a private cache.
TEST(OpFuzz, HierarchyAxesGrid)
{
    std::uint64_t salt = 0;
    for (const ReplPolicy repl :
         {ReplPolicy::lru, ReplPolicy::plru, ReplPolicy::random,
          ReplPolicy::srrip}) {
        for (const Inclusivity inc :
             {Inclusivity::inclusive, Inclusivity::nine,
              Inclusivity::exclusive}) {
            for (const IndexFn idx :
                 {IndexFn::linear, IndexFn::xorFold, IndexFn::remap,
                  IndexFn::mirage}) {
                SystemConfig cfg = fuzzConfig();
                // Power-of-two sets/ways at every level so TreePlru
                // accepts the geometry; still tiny enough to thrash.
                cfg.l1 = CacheGeometry{2 * 1024, 2};
                cfg.l2 = CacheGeometry{4 * 1024, 4};
                cfg.llc = CacheGeometry{32 * 1024, 4};
                cfg.replacement = repl;
                cfg.inclusivity = inc;
                cfg.llcIndex = idx;
                // Short enough that remap rekeys several times
                // mid-run, long enough to transmit between keys.
                cfg.remapPeriod = 700;
                SCOPED_TRACE(msgCat(
                    "repl=", replPolicyName(repl),
                    " inclusivity=", inclusivityName(inc),
                    " index=", indexFnName(idx)));
                fuzzRun(cfg, 2000 + salt, 1'500);
                ++salt;
            }
        }
    }
}

// The exclusive-LLC protocol gets a longer dedicated soak on the
// default non-power-of-two geometry: the acceptance bar is that no
// line is ever simultaneously valid in the LLC and a private cache,
// which checkInvariants() enforces after every step.
TEST(OpFuzz, ExclusiveLlcSoak)
{
    SystemConfig cfg = fuzzConfig();
    cfg.inclusivity = Inclusivity::exclusive;
    fuzzRun(cfg, 1006, 10'000);
    cfg.flavor = CoherenceFlavor::moesi;
    fuzzRun(cfg, 1007, 10'000);
}

// Dynamic remapping on the default geometry: rekeys must preserve
// every coherence invariant while cycling the whole LLC through the
// regular victim paths.
TEST(OpFuzz, RemapRekeySoak)
{
    SystemConfig cfg = fuzzConfig();
    cfg.llcIndex = IndexFn::remap;
    cfg.remapPeriod = 500;
    fuzzRun(cfg, 1008, 10'000);
}

/**
 * Pinned rekeys. A remap-mode machine rekeys every `period` ops
 * while a seeded load/store/flush stream from both sockets keeps
 * dirty and privately held lines resident, so every rekey drives
 * back-invalidations and writebacks through the LLC victim path in
 * the order the LLC walk visits its lines. The mem and coherence
 * trace, every access result and, after each rekey, the counters
 * are hashed against digests recorded from the full-array walk.
 */
struct PinnedRekeyCase
{
    Inclusivity inclusivity;
    ReplPolicy replacement;
    std::uint64_t seed;
    std::uint64_t digest;
};

std::uint64_t
fnv(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint64_t
hashStats(std::uint64_t h, const MemStats &s)
{
    for (const std::uint64_t v :
         {s.loads, s.stores, s.flushes, s.l1Hits, s.l2Hits,
          s.localLlcServes, s.localOwnerForwards, s.remoteLlcServes,
          s.remoteOwnerForwards, s.dramAccesses, s.writebacks,
          s.backInvalidations, s.upgrades, s.queueWaitCycles})
        h = fnv(h, v);
    return h;
}

std::uint64_t
rekeyDigest(const PinnedRekeyCase &pc)
{
    SystemConfig cfg = fuzzConfig();
    cfg.inclusivity = pc.inclusivity;
    cfg.replacement = pc.replacement;
    cfg.llcIndex = IndexFn::remap;
    constexpr int period = 250;
    cfg.remapPeriod = period;
    cfg.validate();
    MemorySystem mem(cfg);

    std::uint64_t h = 0xcbf29ce484222325ULL;
    mem.trace().subscribe(
        categoryBit(TraceCategory::mem) |
            categoryBit(TraceCategory::coherence),
        [&h](const TraceEvent &ev) {
            h = fnv(h, static_cast<std::uint64_t>(ev.type));
            h = fnv(h, static_cast<std::uint64_t>(ev.category));
            h = fnv(h, static_cast<std::uint64_t>(ev.core));
            h = fnv(h, ev.when);
            h = fnv(h, ev.addr);
            h = fnv(h, ev.a);
            h = fnv(h, ev.b);
        });

    Rng rng(pc.seed);
    const PAddr base = 0x4000'0000;
    // Two cores per socket touch more lines than a private L2
    // holds, so private victims write back into the LLC (or, in
    // exclusive mode, fill it) and leave dirty lines there.
    constexpr int poolLines = 160;
    const CoreId cores[] = {cfg.coreOf(0, 0), cfg.coreOf(0, 1),
                            cfg.coreOf(1, 0), cfg.coreOf(1, 1)};
    Tick now = 0;
    int rekeys = 0;
    int rekeysWithDirtyAndPrivate = 0;
    for (int i = 0; i < 24 * period; ++i) {
        // What a rekey inside this op would evict: a dirty LLC line
        // and a line some private cache holds.
        bool dirty = false;
        for (int s = 0; s < cfg.sockets; ++s) {
            mem.llcOf(s).forEachLine([&dirty](const CacheLine &line) {
                dirty = dirty || line.dirty;
            });
        }
        bool held = false;
        for (int l = 0; l < poolLines && !held; ++l) {
            const LineSnapshot snap = mem.inspect(
                base + static_cast<PAddr>(l) * lineBytes);
            for (const Mesi m : snap.priv)
                held = held || m != Mesi::invalid;
        }
        const std::uint64_t gen = mem.llcIndexGeneration();
        const CoreId core = cores[rng.range(0, 3)];
        const PAddr addr =
            base + static_cast<PAddr>(rng.range(0, poolLines - 1)) *
                       lineBytes;
        now += 50;
        const auto op = rng.range(0, 9);
        AccessResult r;
        if (op < 4)
            r = mem.load(core, addr, now);
        else if (op < 8)
            r = mem.store(core, addr, now);
        else
            r = mem.flush(core, addr, now);
        h = fnv(h, r.latency);
        h = fnv(h, static_cast<std::uint64_t>(r.servedBy));
        if (mem.llcIndexGeneration() != gen) {
            ++rekeys;
            if (dirty && held)
                ++rekeysWithDirtyAndPrivate;
            h = hashStats(h, mem.stats());
            EXPECT_EQ(mem.checkInvariants(), "") << "op " << i;
        }
    }
    EXPECT_GE(rekeys, 24);
    // The first rekey may come before any private victim has filled
    // an exclusive LLC; every later one must find both kinds.
    EXPECT_GE(rekeysWithDirtyAndPrivate, rekeys - 1);
    return hashStats(h, mem.stats());
}

TEST(PinnedRekey, RemapRekeysMatchRecordedDigests)
{
    const PinnedRekeyCase cases[] = {
        {Inclusivity::inclusive, ReplPolicy::lru, 31,
         548167080567260150ULL},
        {Inclusivity::exclusive, ReplPolicy::lru, 32,
         6736766899883214897ULL},
        {Inclusivity::inclusive, ReplPolicy::srrip, 33,
         1935155515652467166ULL},
        {Inclusivity::exclusive, ReplPolicy::random, 34,
         14659942136229279503ULL},
    };
    for (const PinnedRekeyCase &pc : cases) {
        EXPECT_EQ(rekeyDigest(pc), pc.digest)
            << inclusivityName(pc.inclusivity) << " "
            << replPolicyName(pc.replacement);
    }
}

/**
 * Check a cache's residency index against a brute-force scan: the
 * occupancy must equal the count of pool lines find() locates and the
 * reference set's size, and forEachLine must visit every resident
 * line once, in slot order (strictly ascending slot addresses, so
 * sets ascending and ways ascending within a set).
 */
void
expectIndexMatchesScan(const Cache &c, const std::set<PAddr> &ref,
                       PAddr base, int pool_lines)
{
    std::size_t found = 0;
    for (int l = 0; l < pool_lines; ++l) {
        if (c.find(base + static_cast<PAddr>(l) * lineBytes))
            ++found;
    }
    ASSERT_EQ(found, ref.size());
    ASSERT_EQ(c.occupancy(), found);
    std::vector<const CacheLine *> seen;
    c.forEachLine([&seen](const CacheLine &line) {
        seen.push_back(&line);
    });
    ASSERT_EQ(seen.size(), found);
    for (std::size_t i = 0; i < seen.size(); ++i) {
        ASSERT_TRUE(ref.count(seen[i]->addr)) << seen[i]->addr;
        ASSERT_EQ(c.find(seen[i]->addr), seen[i]);
        if (i > 0) {
            ASSERT_LT(seen[i - 1], seen[i]);
            ASSERT_LE(c.setIndex(seen[i - 1]->addr),
                      c.setIndex(seen[i]->addr));
        }
    }
}

// Random insert/evict/invalidate/clear/rekey sequences over caches
// with more than 64 sets (a multi-word occupied-set bitmap), under
// the builtin LRU and a policy object, with power-of-two linear,
// modulo linear and remap index functions. A rekey evicts through
// forEachLine then installs a new key, as MemorySystem::rekeyNow
// does.
TEST(CacheFuzz, ResidencyIndexMatchesFullScan)
{
    struct Shape
    {
        unsigned sets;
        IndexFn index;
    };
    const Shape shapes[] = {{128, IndexFn::linear},
                            {96, IndexFn::linear},
                            {96, IndexFn::remap}};
    constexpr unsigned ways = 2;
    constexpr int poolLines = 400;
    const PAddr base = 0x10'0000;
    std::uint64_t seed = 7000;
    for (const Shape &shape : shapes) {
        for (const ReplPolicy policy :
             {ReplPolicy::lru, ReplPolicy::srrip}) {
            SCOPED_TRACE(msgCat("sets=", shape.sets,
                                " index=", indexFnName(shape.index),
                                " repl=", replPolicyName(policy)));
            std::unique_ptr<IndexFunction> fn;
            if (shape.index != IndexFn::linear) {
                fn = std::make_unique<IndexFunction>(shape.index,
                                                     shape.sets, seed);
            }
            Cache c("c", CacheGeometry{shape.sets * ways * lineBytes,
                                       ways},
                    policy, seed, std::move(fn));
            std::set<PAddr> ref;
            Rng rng(seed++);
            int evictions = 0;
            int rekeys = 0;
            for (int i = 0; i < 6'000; ++i) {
                const PAddr addr =
                    base + static_cast<PAddr>(
                               rng.range(0, poolLines - 1)) *
                               lineBytes;
                const auto op = rng.range(0, 999);
                if (op < 600) {
                    if (CacheLine *line = c.find(addr)) {
                        c.touch(*line);
                    } else {
                        Victim v;
                        c.insert(addr, Mesi::shared, &v);
                        if (v.valid) {
                            ASSERT_EQ(ref.erase(v.line.addr), 1u);
                            ++evictions;
                        }
                        ref.insert(addr);
                    }
                } else if (op < 995) {
                    ASSERT_EQ(c.invalidate(addr), ref.erase(addr) > 0);
                } else if (op < 997) {
                    c.clear();
                    ref.clear();
                } else {
                    std::vector<PAddr> resident;
                    c.forEachLine([&resident](const CacheLine &line) {
                        resident.push_back(line.addr);
                    });
                    for (const PAddr a : resident)
                        ASSERT_TRUE(c.invalidate(a));
                    ref.clear();
                    if (c.indexFunction())
                        c.indexFunction()->rekey(rng.next());
                    ++rekeys;
                }
                expectIndexMatchesScan(c, ref, base, poolLines);
                if (HasFatalFailure())
                    return;
            }
            EXPECT_GT(evictions, 100);
            EXPECT_GT(rekeys, 5);
        }
    }
}

// LineMap vs std::unordered_map as a reference model: random
// insert/erase/lookup sequences over a small key pool (high
// collision pressure) must agree at every step, including full
// iteration contents.
TEST(LineMapFuzz, MatchesUnorderedMapReference)
{
    LineMap map(16);
    std::unordered_map<PAddr, std::uint32_t> ref;
    Rng rng(4242);
    for (int i = 0; i < 50'000; ++i) {
        const PAddr key =
            static_cast<PAddr>(rng.range(0, 255)) * lineBytes;
        const auto op = rng.range(0, 9);
        if (op < 5) {
            const auto v =
                static_cast<std::uint32_t>(rng.range(1, 1 << 20));
            map[key] |= v;
            ref[key] |= v;
        } else if (op < 8) {
            ASSERT_EQ(map.erase(key), ref.erase(key) > 0) << key;
        } else {
            const auto it = ref.find(key);
            ASSERT_EQ(map.lookup(key),
                      it == ref.end() ? 0u : it->second)
                << key;
            const std::uint32_t *p = map.find(key);
            ASSERT_EQ(p != nullptr, it != ref.end()) << key;
        }
        ASSERT_EQ(map.size(), ref.size());
    }
    // Full-contents equivalence at the end.
    std::size_t seen = 0;
    map.forEach([&](PAddr key, std::uint32_t value) {
        ++seen;
        const auto it = ref.find(key);
        ASSERT_NE(it, ref.end()) << key;
        ASSERT_EQ(it->second, value) << key;
    });
    ASSERT_EQ(seen, ref.size());
}

TEST(LineMapFuzz, GrowthAndClear)
{
    LineMap map;
    for (PAddr i = 0; i < 10'000; ++i)
        map[i * lineBytes] = static_cast<std::uint32_t>(i + 1);
    ASSERT_EQ(map.size(), 10'000u);
    for (PAddr i = 0; i < 10'000; ++i)
        ASSERT_EQ(map.lookup(i * lineBytes),
                  static_cast<std::uint32_t>(i + 1));
    map.clear();
    ASSERT_TRUE(map.empty());
    ASSERT_EQ(map.lookup(0), 0u);
}

} // namespace
} // namespace csim
