// SSD block store suite (DESIGN.md §14): segment-file round trips,
// rotation + reopen of sealed segments, torn-tail and corrupted-CRC
// recovery, bloom FPR against the theoretical bound, whole-segment GC,
// and kill -9 payload durability (flushed bytes come back identical).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "storage/ssd_block_store.hpp"

namespace spider::storage {
namespace {

namespace fs = std::filesystem;

class SsdBlockStoreTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = fs::temp_directory_path() /
               ("spider_blockstore_test_" + std::to_string(::getpid()) +
                "_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name());
        fs::remove_all(dir_);
    }
    void TearDown() override { fs::remove_all(dir_); }

    [[nodiscard]] SsdBlockStoreConfig config(
        std::size_t segment_bytes = 4U << 20) const {
        SsdBlockStoreConfig c;
        c.dir = dir_.string();
        c.segment_bytes = segment_bytes;
        return c;
    }

    static std::vector<std::uint8_t> payload_for(std::uint32_t id,
                                                 std::size_t size = 64) {
        std::vector<std::uint8_t> bytes(size);
        std::mt19937 rng{id * 2654435761U + 1};
        for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
        return bytes;
    }

    [[nodiscard]] std::size_t segment_files() const {
        std::size_t n = 0;
        for (const auto& entry : fs::directory_iterator(dir_)) {
            if (entry.path().extension() == ".spb") ++n;
        }
        return n;
    }

    fs::path dir_;
};

TEST_F(SsdBlockStoreTest, RejectsEmptyDirectory) {
    EXPECT_THROW(SsdBlockStore{SsdBlockStoreConfig{}},
                 std::invalid_argument);
}

TEST_F(SsdBlockStoreTest, RoundTripsPayloadsAndOverwriteWins) {
    SsdBlockStore store{config()};
    for (std::uint32_t id = 0; id < 100; ++id) {
        store.write(id, payload_for(id));
    }
    EXPECT_EQ(store.live_items(), 100U);
    for (std::uint32_t id = 0; id < 100; ++id) {
        const auto got = store.read(id);
        ASSERT_TRUE(got.has_value()) << id;
        EXPECT_EQ(*got, payload_for(id)) << id;
    }
    EXPECT_FALSE(store.read(5000).has_value());

    // Overwrite: the newest version wins even before any flush.
    const auto updated = payload_for(7, 128);
    store.write(7, updated);
    EXPECT_EQ(store.live_items(), 100U);
    EXPECT_EQ(store.read(7).value(), updated);
}

TEST_F(SsdBlockStoreTest, RotationSealsSegmentsAndReopenReadsThemBack) {
    constexpr std::size_t kSegment = 8 * 1024;  // forces many rotations
    {
        SsdBlockStore store{config(kSegment)};
        for (std::uint32_t id = 0; id < 400; ++id) {
            store.write(id, payload_for(id));
        }
        store.flush();
        EXPECT_GE(store.stats().segments_sealed, 3U);
        EXPECT_GT(store.segment_count(), 1U);
        EXPECT_GT(store.sealed_bytes(), 0U);
    }
    // Fresh process: recovery rebuilds the owner map from headers,
    // trailers, and sealed indexes alone.
    SsdBlockStore store{config(kSegment)};
    EXPECT_EQ(store.live_items(), 400U);
    EXPECT_EQ(store.stats().recovered_records, 400U);
    EXPECT_EQ(store.stats().dropped_tail_records, 0U);
    for (std::uint32_t id = 0; id < 400; ++id) {
        const auto got = store.read(id);
        ASSERT_TRUE(got.has_value()) << id;
        EXPECT_EQ(*got, payload_for(id)) << id;
    }
}

TEST_F(SsdBlockStoreTest, TornTailIsTruncatedAndPrefixSurvives) {
    fs::path active;
    {
        SsdBlockStore store{config()};
        for (std::uint32_t id = 0; id < 10; ++id) {
            store.write(id, payload_for(id));
        }
        store.flush();
        for (const auto& entry : fs::directory_iterator(dir_)) {
            active = entry.path();
        }
    }
    // Chop mid-record, the way a crash mid-write leaves the file.
    const auto size = fs::file_size(active);
    fs::resize_file(active, size - 5);

    SsdBlockStore store{config()};
    EXPECT_EQ(store.stats().dropped_tail_records, 1U);
    EXPECT_EQ(store.live_items(), 9U);
    for (std::uint32_t id = 0; id < 9; ++id) {
        EXPECT_EQ(store.read(id).value(), payload_for(id)) << id;
    }
    EXPECT_FALSE(store.read(9).has_value());

    // The store keeps working after the truncated recovery.
    store.write(9, payload_for(9));
    store.flush();
    EXPECT_EQ(store.read(9).value(), payload_for(9));
}

TEST_F(SsdBlockStoreTest, CorruptedRecordCrcEndsTheRecoveryScan) {
    fs::path active;
    std::uint64_t flushed = 0;
    {
        SsdBlockStore store{config()};
        for (std::uint32_t id = 0; id < 10; ++id) {
            store.write(id, payload_for(id));
        }
        store.flush();
        for (const auto& entry : fs::directory_iterator(dir_)) {
            active = entry.path();
            flushed = fs::file_size(active);
        }
    }
    // Flip one byte inside the last record's payload: the frame length
    // is intact but the CRC no longer matches.
    {
        std::fstream f{active, std::ios::in | std::ios::out |
                                   std::ios::binary};
        f.seekp(static_cast<std::streamoff>(flushed - 3));
        char byte = 0;
        f.seekg(static_cast<std::streamoff>(flushed - 3));
        f.read(&byte, 1);
        byte = static_cast<char>(byte ^ 0xFF);
        f.seekp(static_cast<std::streamoff>(flushed - 3));
        f.write(&byte, 1);
    }

    SsdBlockStore store{config()};
    EXPECT_EQ(store.stats().dropped_tail_records, 1U);
    EXPECT_EQ(store.live_items(), 9U);
    for (std::uint32_t id = 0; id < 9; ++id) {
        EXPECT_EQ(store.read(id).value(), payload_for(id)) << id;
    }
    EXPECT_FALSE(store.read(9).has_value());
}

TEST_F(SsdBlockStoreTest, BloomSkipsAbsentIdsWithoutTouchingDisk) {
    SsdBlockStore store{config()};
    for (std::uint32_t id = 0; id < 1000; ++id) {
        store.write(id, payload_for(id, 32));
    }
    store.seal_active();  // bloom is exact after seal
    const std::uint64_t disk_before = store.stats().disk_reads;
    for (std::uint32_t id = 100000; id < 101000; ++id) {
        EXPECT_FALSE(store.read(id).has_value());
    }
    // Bloom-gated: the overwhelming majority of absent probes do zero
    // disk reads (each FP costs at most one index-block read).
    const std::uint64_t fp = store.stats().bloom_false_positives;
    EXPECT_LE(store.stats().disk_reads - disk_before, fp);
    EXPECT_GT(store.stats().bloom_skips, 900U);
}

TEST_F(SsdBlockStoreTest, BloomFalsePositiveRateWithinTwiceTheoretical) {
    constexpr std::size_t kKeys = 4000;
    constexpr std::size_t kProbes = 40000;
    constexpr std::size_t kBitsPerKey = 10;
    BloomFilter bloom{kKeys, kBitsPerKey};
    for (std::uint32_t id = 0; id < kKeys; ++id) bloom.add(id);
    for (std::uint32_t id = 0; id < kKeys; ++id) {
        EXPECT_TRUE(bloom.maybe_contains(id)) << id;  // no false negatives
    }
    std::size_t false_positives = 0;
    for (std::uint32_t id = 1000000; id < 1000000 + kProbes; ++id) {
        if (bloom.maybe_contains(id)) ++false_positives;
    }
    const double fpr =
        static_cast<double>(false_positives) / static_cast<double>(kProbes);
    const double theoretical = BloomFilter::theoretical_fpr(kBitsPerKey);
    EXPECT_GT(theoretical, 0.0);
    EXPECT_LE(fpr, 2.0 * theoretical)
        << "measured " << fpr << " vs theoretical " << theoretical;
}

TEST_F(SsdBlockStoreTest, ZeroBitsPerKeyDisablesTheFilter) {
    BloomFilter bloom{100, 0};
    EXPECT_TRUE(bloom.maybe_contains(42));  // always maybe
    BloomFilter empty{100, 10};
    EXPECT_FALSE(empty.maybe_contains(42));  // nothing added yet
}

TEST_F(SsdBlockStoreTest, GcDeletesFullyStaleSegments) {
    constexpr std::size_t kSegment = 8 * 1024;
    SsdBlockStore store{config(kSegment)};
    for (std::uint32_t id = 0; id < 100; ++id) {
        store.write(id, payload_for(id));
    }
    store.seal_active();
    const std::size_t sealed_before = store.sealed_bytes();
    const std::size_t segments_before = store.segment_count();
    ASSERT_GT(sealed_before, 0U);

    // Overwriting every id makes the old segments fully stale; erase
    // behaves the same way. Whole-segment GC deletes their files.
    for (std::uint32_t id = 0; id < 100; ++id) {
        store.write(id, payload_for(id, 96));
    }
    store.flush();
    EXPECT_GT(store.stats().segments_collected, 0U);
    EXPECT_LT(store.segment_count(), segments_before + 2);
    EXPECT_EQ(segment_files(), store.segment_count());
    // Everything still reads back — from the new copies.
    for (std::uint32_t id = 0; id < 100; ++id) {
        EXPECT_EQ(store.read(id).value(), payload_for(id, 96)) << id;
    }

    // Erase-driven GC: stale-only sealed segments vanish entirely.
    store.seal_active();
    const auto collected_before = store.stats().segments_collected;
    for (std::uint32_t id = 0; id < 100; ++id) store.erase(id);
    EXPECT_GT(store.stats().segments_collected, collected_before);
    EXPECT_EQ(store.live_items(), 0U);
}

TEST_F(SsdBlockStoreTest, KillMinusNineKeepsFlushedPayloadsByteIdentical) {
    SsdBlockStore store{config()};
    for (std::uint32_t id = 0; id < 50; ++id) {
        store.write(id, payload_for(id));
    }
    store.flush();  // durable horizon
    for (std::uint32_t id = 50; id < 80; ++id) {
        store.write(id, payload_for(id));  // page cache only
    }
    store.drop_unflushed();  // kill -9 + restart recovery

    EXPECT_EQ(store.live_items(), 50U);
    for (std::uint32_t id = 0; id < 50; ++id) {
        const auto got = store.read(id);
        ASSERT_TRUE(got.has_value()) << id;
        EXPECT_EQ(*got, payload_for(id)) << id;
    }
    for (std::uint32_t id = 50; id < 80; ++id) {
        EXPECT_FALSE(store.read(id).has_value()) << id;
    }
    // The reborn store accepts new writes on the recovered tail.
    store.write(90, payload_for(90));
    EXPECT_EQ(store.read(90).value(), payload_for(90));
}

TEST_F(SsdBlockStoreTest, ClearRemovesEveryFileAndStartsEmpty) {
    SsdBlockStore store{config(8 * 1024)};
    for (std::uint32_t id = 0; id < 200; ++id) {
        store.write(id, payload_for(id));
    }
    store.flush();
    ASSERT_GT(segment_files(), 0U);
    store.clear();
    EXPECT_EQ(store.live_items(), 0U);
    EXPECT_EQ(store.sealed_bytes(), 0U);
    EXPECT_FALSE(store.read(0).has_value());
    store.write(1, payload_for(1));
    EXPECT_EQ(store.read(1).value(), payload_for(1));
}

TEST_F(SsdBlockStoreTest, ContainsTracksLivenessNotDiskBytes) {
    SsdBlockStore store{config()};
    store.write(1, payload_for(1));
    EXPECT_TRUE(store.contains(1));
    store.erase(1);
    EXPECT_FALSE(store.contains(1));
    // Bytes may still sit in the active segment (LSM tombstone horizon);
    // liveness is the owner map's call, which is what the tier consults.
}

// drop_oldest_sealed() walks only the oldest segment's own id list. Ids
// are rewritten across segments (stale entries in older lists), written
// twice into one segment (repeats in one list) and erased; segments are
// delimited by seal_active(), so a model owner map knows where each live
// id sits. Every call must return exactly the ascending ids a brute-force
// scan of that map gives, and the store must agree with a fresh reopen of
// the directory. Run once as written and once after drop_unflushed(),
// whose recovery rebuilds the lists from the on-disk indexes and scan.
// Erases are not durable (the tier's WAL owns liveness), so a reopen
// brings erased ids back from their newest segment.
TEST_F(SsdBlockStoreTest, DropOldestSealedReturnsExactlyTheSegmentsLiveIds) {
    for (const bool reopen : {false, true}) {
        SCOPED_TRACE(reopen ? "after reopen" : "as written");
        fs::remove_all(dir_);
        SsdBlockStore store{config()};  // 4 MiB: no automatic rotation
        std::map<std::uint32_t, std::uint64_t> owner;  // id -> segment seq
        std::map<std::uint32_t, std::uint64_t> written;  // erases ignored
        std::uint64_t seq = 1;
        std::mt19937 rng{5};
        for (std::uint32_t s = 0; s < 6; ++s) {
            for (int w = 0; w < 60; ++w) {
                const std::uint32_t id = rng() % 150;
                store.write(id, payload_for(id));
                owner[id] = written[id] = seq;
            }
            // Never rewritten or erased, so no segment is collected early.
            const std::uint32_t twice = 1000 + s;
            store.write(twice, payload_for(twice));
            store.write(twice, payload_for(twice, 80));
            owner[twice] = written[twice] = seq;
            if (s == 3) {
                for (std::uint32_t id = 0; id < 30; id += 3) {
                    store.erase(id);
                    owner.erase(id);
                }
            }
            store.seal_active();
            ++seq;
        }
        for (std::uint32_t id = 200; id < 210; ++id) {  // active: never dropped
            store.write(id, payload_for(id));
            owner[id] = written[id] = seq;
        }
        store.flush();
        if (reopen) {
            store.drop_unflushed();
            owner = written;
        }
        ASSERT_EQ(store.live_items(), owner.size());

        for (int call = 0;; ++call) {
            std::uint64_t oldest = seq;  // the active segment's seq: none
            for (const auto& [id, at] : owner) oldest = std::min(oldest, at);
            std::vector<std::uint32_t> want;
            for (const auto& [id, at] : owner) {
                if (at == oldest && oldest != seq) want.push_back(id);
            }
            const std::vector<std::uint32_t> got = store.drop_oldest_sealed();
            ASSERT_EQ(got, want) << "call " << call;
            if (want.empty()) break;
            for (const std::uint32_t id : want) owner.erase(id);
            EXPECT_EQ(store.live_items(), owner.size());
            const SsdBlockStore fresh{config()};
            EXPECT_EQ(fresh.bytes_used(), store.bytes_used());
            if (reopen) {  // as written, the erased ids would come back
                EXPECT_EQ(fresh.live_items(), store.live_items());
                EXPECT_EQ(fresh.live_ids(), store.live_ids());
            }
        }
        EXPECT_EQ(store.sealed_bytes(), 0U);
        EXPECT_EQ(store.live_items(), 10U);
    }
}

std::string hex_of(const std::string& bytes) {
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string out;
    for (const char c : bytes) {
        const auto b = static_cast<unsigned char>(c);
        out += kDigits[b >> 4];
        out += kDigits[b & 15];
    }
    return out;
}

// Pins the on-disk segment format byte for byte: header, two record
// frames ([len][crc][id | payload]), the sealed index block and the
// trailer. The expected bytes were captured before record framing moved
// into wire::append_frame, so the change is provably format-neutral.
TEST_F(SsdBlockStoreTest, SealedSegmentBytesMatchGolden) {
    {
        SsdBlockStore store{config()};
        const std::vector<std::uint8_t> a = {1, 2, 3, 4, 5};
        const std::vector<std::uint8_t> b = {0xFE, 0xED, 0xFA, 0xCE, 0x00,
                                             0x11, 0x22, 0x33, 0x44};
        store.write(0x0A0B0C0D, a);
        store.write(7, b);
        store.seal_active();
    }
    std::ifstream is{dir_ / "seg-000000000001.spb", std::ios::binary};
    ASSERT_TRUE(is);
    const std::string bytes{std::istreambuf_iterator<char>{is},
                            std::istreambuf_iterator<char>{}};
    EXPECT_EQ(hex_of(bytes),
              "534250530100000001000000000000000900000036c7165c0d0c0b0a01020304"
              "050d0000004a75eb1407000000feedface001122334402000000070000002100"
              "000000000000150000000d0c0b0a1000000000000000110000002400000064ab"
              "4e540dd0a15e");
}

}  // namespace
}  // namespace spider::storage
