#pragma once

// Shared on-disk framing helpers for the persistence layer.
//
// Both the residency WAL (wal.cpp) and the SSD block store
// (ssd_block_store.cpp) frame every record as
//
//     [u32 payload_len][u32 checksum32(payload)][payload]
//
// with the same SplitMix64-derived checksum, so a torn or corrupt tail is
// detected identically in both files and the recovery scans share one
// discipline: a bad frame ends replay, everything before it is intact.
// Both write their frames through append_frame().

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>

namespace spider::storage::wire {

/// SplitMix64 finalizer (same mix as the fault model's draw stream).
[[nodiscard]] inline std::uint64_t mix64(std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

[[nodiscard]] inline std::uint32_t checksum32(const char* data,
                                              std::size_t len) {
    std::uint64_t h = 0x5CA1AB1EULL ^ len;
    std::size_t i = 0;
    for (; i + 8 <= len; i += 8) {
        std::uint64_t chunk = 0;
        std::memcpy(&chunk, data + i, 8);
        h = mix64(h ^ chunk);
    }
    std::uint64_t tail = 0;
    if (i < len) {
        std::memcpy(&tail, data + i, len - i);
        h = mix64(h ^ tail);
    }
    return static_cast<std::uint32_t>(h ^ (h >> 32));
}

template <typename T>
void put(std::string& out, T value) {
    char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    out.append(bytes, sizeof(T));
}

/// Appends one `[u32 len][u32 checksum32(body)][body]` frame to `out`
/// in place: `write_body(out)` appends the body straight after an 8-byte
/// placeholder, which is then patched with the body's length and
/// checksum. The bytes equal framing a separately built body.
template <typename WriteBody>
void append_frame(std::string& out, WriteBody&& write_body) {
    const std::size_t start = out.size();
    out.append(8, '\0');
    write_body(out);
    const std::size_t body = start + 8;
    const auto len = static_cast<std::uint32_t>(out.size() - body);
    const std::uint32_t sum = checksum32(out.data() + body, len);
    std::memcpy(out.data() + start, &len, sizeof(len));
    std::memcpy(out.data() + start + 4, &sum, sizeof(sum));
}

template <typename T>
[[nodiscard]] bool get(const std::string& in, std::size_t& off, T& value) {
    if (off + sizeof(T) > in.size()) return false;
    std::memcpy(&value, in.data() + off, sizeof(T));
    off += sizeof(T);
    return true;
}

[[nodiscard]] inline std::string read_file(const std::string& path) {
    std::ifstream is{path, std::ios::binary};
    if (!is) return {};
    std::string bytes{std::istreambuf_iterator<char>{is},
                      std::istreambuf_iterator<char>{}};
    return bytes;
}

inline void write_file(const std::string& path, const std::string& bytes,
                       std::ios::openmode mode) {
    std::ofstream os{path, std::ios::binary | mode};
    if (!os) {
        throw std::runtime_error("storage: cannot open " + path +
                                 " for writing");
    }
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!os) throw std::runtime_error("storage: short write to " + path);
}

}  // namespace spider::storage::wire
