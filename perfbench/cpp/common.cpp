#include "common.hpp"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "tensor/simd.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

void Outcome::expect(bool condition, const std::string& what) {
    if (condition) return;
    correct = false;
    problems.push_back(what);
    std::cerr << "perfbench: check failed: " << what << "\n";
}

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double rank =
        std::ceil(std::clamp(q, 0.0, 100.0) / 100.0 *
                  static_cast<double>(values.size()));
    const std::size_t index =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return values[std::min(index, values.size() - 1)];
}

void pin_thread(int tid, std::size_t slot) {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    }
    if (cpus.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[slot % cpus.size()], &one);
    (void)::sched_setaffinity(tid, sizeof one, &one);
}

PinnedScope::PinnedScope(std::size_t slot)
    : have_saved_{::sched_getaffinity(0, sizeof saved_, &saved_) == 0} {
    pin_thread(0, slot);
}

PinnedScope::~PinnedScope() {
    if (have_saved_) (void)::sched_setaffinity(0, sizeof saved_, &saved_);
}

double peak_rss_mib() {
    std::ifstream status{"/proc/self/status"};
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields{line.substr(6)};
            double kib = 0.0;
            fields >> kib;
            return kib / 1024.0;
        }
    }
    return 0.0;
}

std::string json_number(double value) {
    if (!std::isfinite(value)) return "null";
    std::array<char, 64> buf{};
    // Whole numbers print without an exponent; everything else in the
    // shortest form that reads back to the same double.
    const bool whole = value == std::floor(value) && std::abs(value) < 1e15;
    const auto [end, ec] =
        whole ? std::to_chars(buf.data(), buf.data() + buf.size(), value,
                              std::chars_format::fixed)
              : std::to_chars(buf.data(), buf.data() + buf.size(), value);
    if (ec != std::errc{}) return "null";
    return {buf.data(), end};
}

std::string json_string(const std::string& text) {
    std::string out = "\"";
    for (const char c : text) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    out += ' ';
                } else {
                    out += c;
                }
        }
    }
    return out + "\"";
}

std::string header_json(const Args& args) {
    cpu_set_t set;
    CPU_ZERO(&set);
    const int usable =
        sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
    std::ostringstream os;
    os << "{\"cores\": " << std::thread::hardware_concurrency()
       << ", \"usable_cores\": " << usable
       << ", \"isa\": "
       << json_string(spider::tensor::simd::active_kernels().name)
       << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
       << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
       << ", \"commit\": " << json_string(args.commit)
       << ", \"workload\": " << json_string(args.workload)
       << ", \"seed\": " << args.seed
       << ", \"seconds\": " << json_number(args.seconds)
       << ", \"trace\": " << (args.trace ? "true" : "false") << "}";
    return os.str();
}

ScratchDir::ScratchDir(const std::filesystem::path& parent,
                       const std::string& tag)
    : path_{parent / (tag + "-" + std::to_string(::getpid()))} {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
}

ScratchDir::~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
}

}  // namespace perfbench
