// HNSW tests: exactness on small sets, recall against brute force on
// clustered data (parameterized over ef), dynamic update correctness (the
// property SpiderCache depends on: embeddings drift every epoch), degree
// queries, and robustness to edge cases.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "ann/bruteforce.hpp"
#include "ann/hnsw.hpp"
#include "tensor/simd.hpp"
#include "util/rng.hpp"

namespace spider::ann {
namespace {

std::vector<float> random_point(util::Rng& rng, std::size_t dim,
                                double center = 0.0) {
    std::vector<float> p(dim);
    for (float& x : p) x = static_cast<float>(rng.normal(center, 1.0));
    return p;
}

TEST(BruteForce, ExactNearestNeighbors) {
    BruteForceIndex index{2};
    index.upsert(0, std::vector<float>{0.0F, 0.0F});
    index.upsert(1, std::vector<float>{1.0F, 0.0F});
    index.upsert(2, std::vector<float>{5.0F, 0.0F});
    const auto found = index.knn(std::vector<float>{0.1F, 0.0F}, 2);
    ASSERT_EQ(found.size(), 2U);
    EXPECT_EQ(found[0].label, 0U);
    EXPECT_EQ(found[1].label, 1U);
    EXPECT_NEAR(found[0].distance, 0.1F, 1e-5);
}

TEST(BruteForce, UpsertReplacesVector) {
    BruteForceIndex index{1};
    index.upsert(7, std::vector<float>{0.0F});
    index.upsert(7, std::vector<float>{10.0F});
    EXPECT_EQ(index.size(), 1U);
    const auto found = index.knn(std::vector<float>{10.0F}, 1);
    EXPECT_EQ(found[0].label, 7U);
    EXPECT_NEAR(found[0].distance, 0.0F, 1e-5);
}

TEST(Hnsw, EmptyAndSingle) {
    HnswConfig config;
    config.dim = 3;
    HnswIndex index{config};
    EXPECT_EQ(index.size(), 0U);
    EXPECT_TRUE(index.knn(std::vector<float>{0, 0, 0}, 5).empty());

    index.upsert(42, std::vector<float>{1, 2, 3});
    EXPECT_TRUE(index.contains(42));
    const auto found = index.knn(std::vector<float>{1, 2, 3}, 1);
    ASSERT_EQ(found.size(), 1U);
    EXPECT_EQ(found[0].label, 42U);
    EXPECT_NEAR(found[0].distance, 0.0F, 1e-6);
}

TEST(Hnsw, FindsSelfAfterInsert) {
    HnswConfig config;
    config.dim = 8;
    HnswIndex index{config};
    util::Rng rng{7};
    std::vector<std::vector<float>> points;
    for (std::uint32_t i = 0; i < 200; ++i) {
        points.push_back(random_point(rng, 8));
        index.upsert(i, points.back());
    }
    // Every point finds itself as its nearest neighbor.
    for (std::uint32_t i = 0; i < 200; ++i) {
        const auto found = index.knn(points[i], 1);
        ASSERT_FALSE(found.empty());
        EXPECT_EQ(found[0].label, i) << "point " << i;
    }
}

class HnswRecallTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HnswRecallTest, RecallAtLeast90PercentVsBruteForce) {
    const std::size_t ef = GetParam();
    const std::size_t dim = 16;
    const std::size_t n = 600;
    const std::size_t k = 10;

    HnswConfig config;
    config.dim = dim;
    config.M = 12;
    config.ef_construction = 80;
    HnswIndex index{config};
    BruteForceIndex exact{dim};
    util::Rng rng{11};

    // Clustered data (the hard case for graph indexes, and the shape of
    // trained embeddings).
    for (std::uint32_t i = 0; i < n; ++i) {
        const double center = static_cast<double>(i % 5) * 3.0;
        const std::vector<float> p = random_point(rng, dim, center);
        index.upsert(i, p);
        exact.upsert(i, p);
    }

    double recall_sum = 0.0;
    const int queries = 50;
    for (int q = 0; q < queries; ++q) {
        const std::vector<float> query =
            random_point(rng, dim, static_cast<double>(q % 5) * 3.0);
        const auto approx = index.knn(query, k, ef);
        const auto truth = exact.knn(query, k);
        std::set<std::uint32_t> truth_set;
        for (const Neighbor& nb : truth) truth_set.insert(nb.label);
        int found = 0;
        for (const Neighbor& nb : approx) {
            found += truth_set.contains(nb.label) ? 1 : 0;
        }
        recall_sum += static_cast<double>(found) / static_cast<double>(k);
    }
    const double recall = recall_sum / queries;
    EXPECT_GE(recall, 0.90) << "ef=" << ef;
}

INSTANTIATE_TEST_SUITE_P(EfSweep, HnswRecallTest,
                         ::testing::Values(32, 64, 128));

TEST(Hnsw, ResultsSortedByDistance) {
    HnswConfig config;
    config.dim = 4;
    HnswIndex index{config};
    util::Rng rng{13};
    for (std::uint32_t i = 0; i < 300; ++i) {
        index.upsert(i, random_point(rng, 4));
    }
    const auto found = index.knn(random_point(rng, 4), 20);
    for (std::size_t i = 1; i < found.size(); ++i) {
        EXPECT_LE(found[i - 1].distance, found[i].distance);
    }
}

TEST(Hnsw, UpdateMovesPoint) {
    HnswConfig config;
    config.dim = 2;
    HnswIndex index{config};
    util::Rng rng{17};
    // Cluster at origin plus one wanderer.
    for (std::uint32_t i = 0; i < 100; ++i) {
        index.upsert(i, random_point(rng, 2, 0.0));
    }
    index.upsert(999, std::vector<float>{50.0F, 50.0F});

    auto far_query = std::vector<float>{49.0F, 49.0F};
    EXPECT_EQ(index.knn(far_query, 1)[0].label, 999U);

    // Move the wanderer into the cluster; far queries must stop finding it
    // close, near queries must now see it.
    index.upsert(999, std::vector<float>{0.1F, 0.1F});
    EXPECT_EQ(index.size(), 101U);
    const auto near_hits = index.knn(std::vector<float>{0.1F, 0.1F}, 1);
    EXPECT_EQ(near_hits[0].label, 999U);
    const auto far_hits = index.knn(far_query, 1);
    EXPECT_GT(far_hits[0].distance, 50.0F);
}

TEST(Hnsw, MassUpdateKeepsRecall) {
    // The SpiderCache workload: every point drifts every "epoch".
    const std::size_t dim = 8;
    const std::size_t n = 300;
    HnswConfig config;
    config.dim = dim;
    HnswIndex index{config};
    BruteForceIndex exact{dim};
    util::Rng rng{19};

    std::vector<std::vector<float>> points;
    for (std::uint32_t i = 0; i < n; ++i) {
        points.push_back(random_point(rng, dim));
        index.upsert(i, points[i]);
        exact.upsert(i, points[i]);
    }
    // Three rounds of full drift.
    for (int round = 0; round < 3; ++round) {
        for (std::uint32_t i = 0; i < n; ++i) {
            for (float& x : points[i]) {
                x += static_cast<float>(rng.normal(0.0, 0.2));
            }
            index.upsert(i, points[i]);
            exact.upsert(i, points[i]);
        }
    }
    EXPECT_EQ(index.size(), n);

    double recall_sum = 0.0;
    const std::size_t k = 5;
    for (int q = 0; q < 40; ++q) {
        const auto query = random_point(rng, dim);
        const auto approx = index.knn(query, k, 64);
        const auto truth = exact.knn(query, k);
        std::set<std::uint32_t> truth_set;
        for (const Neighbor& nb : truth) truth_set.insert(nb.label);
        int found = 0;
        for (const Neighbor& nb : approx) {
            found += truth_set.contains(nb.label) ? 1 : 0;
        }
        recall_sum += static_cast<double>(found) / static_cast<double>(k);
    }
    EXPECT_GE(recall_sum / 40.0, 0.85);
}

TEST(Hnsw, DegreeIsBoundedByLinkBudget) {
    HnswConfig config;
    config.dim = 4;
    config.M = 6;
    HnswIndex index{config};
    util::Rng rng{23};
    for (std::uint32_t i = 0; i < 400; ++i) {
        index.upsert(i, random_point(rng, 4));
    }
    for (std::uint32_t i = 0; i < 400; ++i) {
        EXPECT_LE(index.degree(i), config.M * 2);
    }
    EXPECT_EQ(index.degree(12345), 0U);  // absent label
}

TEST(Hnsw, VectorOfReturnsStoredData) {
    HnswConfig config;
    config.dim = 3;
    HnswIndex index{config};
    const std::vector<float> v = {1.5F, -2.5F, 3.5F};
    index.upsert(5, v);
    const auto stored = index.vector_of(5);
    ASSERT_TRUE(stored.has_value());
    EXPECT_EQ(std::vector<float>(stored->begin(), stored->end()), v);
    EXPECT_FALSE(index.vector_of(6).has_value());
}

TEST(Hnsw, MemoryGrowsWithInserts) {
    HnswConfig config;
    config.dim = 16;
    HnswIndex index{config};
    util::Rng rng{29};
    const std::size_t before = index.memory_bytes();
    for (std::uint32_t i = 0; i < 100; ++i) {
        index.upsert(i, random_point(rng, 16));
    }
    EXPECT_GT(index.memory_bytes(), before + 100 * 16 * sizeof(float));
}

TEST(Hnsw, RejectsBadConfigAndInput) {
    HnswConfig bad_dim;
    bad_dim.dim = 0;
    EXPECT_THROW(HnswIndex{bad_dim}, std::invalid_argument);

    HnswConfig bad_m;
    bad_m.M = 1;
    EXPECT_THROW(HnswIndex{bad_m}, std::invalid_argument);

    HnswConfig ok;
    ok.dim = 4;
    HnswIndex index{ok};
    EXPECT_THROW(index.upsert(0, std::vector<float>{1.0F}),
                 std::invalid_argument);
    EXPECT_THROW(index.knn(std::vector<float>{1.0F}, 1),
                 std::invalid_argument);
}

TEST(Hnsw, DistanceCounterAdvances) {
    HnswConfig config;
    config.dim = 4;
    HnswIndex index{config};
    util::Rng rng{31};
    for (std::uint32_t i = 0; i < 50; ++i) {
        index.upsert(i, random_point(rng, 4));
    }
    const std::uint64_t before = index.distance_computations();
    index.knn(random_point(rng, 4), 5);
    EXPECT_GT(index.distance_computations(), before);
}

TEST(Hnsw, UpdatingEntryPointSurvives) {
    // Repeatedly update label 0 (often the entry point) to stress the
    // entry-point reassignment path.
    HnswConfig config;
    config.dim = 2;
    HnswIndex index{config};
    util::Rng rng{37};
    for (std::uint32_t i = 0; i < 50; ++i) {
        index.upsert(i, random_point(rng, 2));
    }
    for (int round = 0; round < 10; ++round) {
        index.upsert(0, random_point(rng, 2));
        const auto found = index.knn(random_point(rng, 2), 3);
        EXPECT_EQ(found.size(), 3U);
    }
}

TEST(Hnsw, DuplicatePointsAllRetrievable) {
    HnswConfig config;
    config.dim = 2;
    HnswIndex index{config};
    const std::vector<float> same = {1.0F, 1.0F};
    for (std::uint32_t i = 0; i < 10; ++i) {
        index.upsert(i, same);
    }
    const auto found = index.knn(same, 10, 64);
    EXPECT_EQ(found.size(), 10U);
    for (const Neighbor& nb : found) {
        EXPECT_NEAR(nb.distance, 0.0F, 1e-6);
    }
}

// The scoring phase fans knn across a thread pool (hnsw.hpp phase
// contract); 8 threads x 1000 queries against a fixed graph must return
// exactly the serial answers, and the shared distance counter must not
// lose increments. Run under -DSPIDER_TSAN=ON to check for data races.
TEST(Hnsw, ConcurrentKnnMatchesSerial) {
    constexpr std::size_t kDim = 16;
    constexpr std::size_t kPopulation = 2000;
    constexpr std::size_t kQueries = 1000;
    constexpr std::size_t kThreads = 8;

    HnswConfig config;
    config.dim = kDim;
    HnswIndex index{config};
    util::Rng rng{71};
    for (std::uint32_t i = 0; i < kPopulation; ++i) {
        index.upsert(i, random_point(rng, kDim, static_cast<double>(i % 8)));
    }

    std::vector<std::vector<float>> queries;
    queries.reserve(kQueries);
    for (std::size_t q = 0; q < kQueries; ++q) {
        queries.push_back(random_point(rng, kDim, static_cast<double>(q % 8)));
    }

    // One serial pass measures both the expected answers and the exact
    // distance-computation count of a pass (the counter also includes
    // construction, so deltas are what's comparable).
    std::vector<std::vector<Neighbor>> serial(kQueries);
    const std::uint64_t comps_start = index.distance_computations();
    for (std::size_t q = 0; q < kQueries; ++q) {
        serial[q] = index.knn(queries[q], 10);
    }
    const std::uint64_t delta_serial =
        index.distance_computations() - comps_start;

    std::vector<std::vector<Neighbor>> parallel(kQueries);
    const std::uint64_t comps_before = index.distance_computations();
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (std::size_t q = t; q < kQueries; q += kThreads) {
                parallel[q] = index.knn(queries[q], 10);
            }
        });
    }
    for (auto& th : threads) th.join();
    const std::uint64_t delta_parallel =
        index.distance_computations() - comps_before;

    for (std::size_t q = 0; q < kQueries; ++q) {
        ASSERT_EQ(parallel[q].size(), serial[q].size()) << "query " << q;
        for (std::size_t r = 0; r < serial[q].size(); ++r) {
            EXPECT_EQ(parallel[q][r].label, serial[q][r].label)
                << "query " << q << " rank " << r;
            EXPECT_EQ(parallel[q][r].distance, serial[q][r].distance)
                << "query " << q << " rank " << r;
        }
    }
    // Search is deterministic per query, so the relaxed-atomic counter must
    // see exactly one pass worth of increments.
    EXPECT_EQ(delta_parallel, delta_serial);
}

struct ChurnTrace {
    std::uint64_t hash = 0;
    std::uint64_t distances = 0;
};

void normalize(std::vector<float>& p) {
    double norm_sq = 0.0;
    for (float x : p) norm_sq += static_cast<double>(x) * x;
    const auto inv = static_cast<float>(1.0 / std::sqrt(norm_sq));
    for (float& x : p) x *= inv;
}

// The SpiderCache access pattern in miniature: every round drifts every
// embedding, re-upserts it, then asks each point for its neighbourhood.
// Folds every label, the bit pattern of every distance and each node's
// final layer-0 degree into one FNV-1a hash, so any change to the graph,
// to a search's visiting order or to a distance shows up.
ChurnTrace run_churn_trace(std::size_t dim) {
    constexpr std::uint32_t kPopulation = 1500;
    constexpr int kRounds = 4;
    HnswConfig config;
    config.dim = dim;
    HnswIndex index{config};
    util::Rng rng{2024};

    std::vector<std::vector<float>> points;
    points.reserve(kPopulation);
    for (std::uint32_t i = 0; i < kPopulation; ++i) {
        points.push_back(random_point(rng, dim, static_cast<double>(i % 6)));
        normalize(points.back());
        index.upsert(i, points.back());
    }

    std::uint64_t hash = 0xCBF29CE484222325ULL;
    const auto fold = [&hash](std::uint64_t word) {
        hash = (hash ^ word) * 0x100000001B3ULL;
    };
    for (int round = 0; round < kRounds; ++round) {
        for (std::uint32_t i = 0; i < kPopulation; ++i) {
            for (float& x : points[i]) {
                x += static_cast<float>(rng.normal(0.0, 0.15));
            }
            normalize(points[i]);
            index.upsert(i, points[i]);
        }
        for (std::uint32_t i = 0; i < kPopulation; ++i) {
            for (const Neighbor& nb : index.knn(points[i], 32, 48)) {
                fold(nb.label);
                fold(std::bit_cast<std::uint32_t>(nb.distance));
            }
        }
    }
    for (std::uint32_t i = 0; i < kPopulation; ++i) fold(index.degree(i));
    return {hash, index.distance_computations()};
}

// Pins the exact graph work of upsert and knn: the expected values were
// captured from the reference implementation, once per kernel table
// (summation order differs between AVX2+FMA and the portable kernels, so
// distances differ in their last bits). Dim 20 runs the kernels' tails.
TEST(Hnsw, ChurnTraceMatchesParent) {
    struct Expected {
        std::size_t dim;
        ChurnTrace avx2;
        ChurnTrace portable;
    };
    const Expected cases[] = {
        {32, {1312015727052646988ULL, 33577506},
         {13872269119574883916ULL, 33577506}},
        {20, {7318193598166290072ULL, 27684562},
         {7657640348876915395ULL, 27684562}},
    };
    const bool avx2 = tensor::simd::avx2_active();
    for (const Expected& c : cases) {
        const ChurnTrace got = run_churn_trace(c.dim);
        const ChurnTrace& want = avx2 ? c.avx2 : c.portable;
        EXPECT_EQ(got.hash, want.hash) << "dim " << c.dim;
        EXPECT_EQ(got.distances, want.distances) << "dim " << c.dim;
    }
}

// One writer upserts (fresh labels and updates) while three readers run
// knn: the phase lock must keep every answer well formed, and the shared
// counter, bumped once per call, must equal the sum of what each call
// reports for itself. Run under -DSPIDER_TSAN=ON to check the writer's
// scratch and the counter for data races.
TEST(Hnsw, ConcurrentUpsertAndKnnInterleave) {
    constexpr std::size_t kDim = 16;
    constexpr std::uint32_t kSeed = 400;
    constexpr std::uint32_t kWrites = 600;
    constexpr std::size_t kReaders = 3;
    constexpr std::size_t kQueriesPerReader = 300;
    constexpr std::size_t kK = 10;

    HnswConfig config;
    config.dim = kDim;
    HnswIndex index{config};
    util::Rng rng{83};
    for (std::uint32_t i = 0; i < kSeed; ++i) {
        index.upsert(i, random_point(rng, kDim, static_cast<double>(i % 4)));
    }
    std::vector<std::vector<float>> writes;
    for (std::uint32_t w = 0; w < kWrites; ++w) {
        writes.push_back(random_point(rng, kDim, static_cast<double>(w % 4)));
    }
    std::vector<std::vector<float>> queries;
    for (std::size_t q = 0; q < kReaders * kQueriesPerReader; ++q) {
        queries.push_back(random_point(rng, kDim, static_cast<double>(q % 4)));
    }

    const std::uint64_t before = index.distance_computations();
    std::vector<std::uint64_t> reported(kReaders + 1, 0);
    std::atomic<int> bad_answers{0};
    std::vector<std::thread> threads;
    threads.emplace_back([&] {
        for (std::uint32_t w = 0; w < kWrites; ++w) {
            // Alternate fresh inserts with in-place updates.
            const std::uint32_t label = w % 2 == 0 ? kSeed + w : w % kSeed;
            index.upsert(label, writes[w]);
            reported[kReaders] += HnswIndex::last_call_distance_computations();
        }
    });
    for (std::size_t r = 0; r < kReaders; ++r) {
        threads.emplace_back([&, r] {
            for (std::size_t q = 0; q < kQueriesPerReader; ++q) {
                const auto found =
                    index.knn(queries[r * kQueriesPerReader + q], kK);
                reported[r] += HnswIndex::last_call_distance_computations();
                const bool sorted = std::is_sorted(
                    found.begin(), found.end(),
                    [](const Neighbor& a, const Neighbor& b) {
                        return a.distance < b.distance;
                    });
                if (found.size() != kK || !sorted) ++bad_answers;
            }
        });
    }
    for (auto& th : threads) th.join();

    EXPECT_EQ(bad_answers.load(), 0);
    std::uint64_t sum = 0;
    for (std::uint64_t n : reported) sum += n;
    EXPECT_GT(sum, 0U);
    EXPECT_EQ(index.distance_computations() - before, sum);
}

}  // namespace
}  // namespace spider::ann
