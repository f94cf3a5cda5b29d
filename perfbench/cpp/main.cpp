// perfbench: one workload, one process.
//
//   perfbench --workload train-spider|train-tiered|serve-mixed --seed N
//             --seconds S --trace 0|1 [--out-dir DIR] [--commit ID]
//
// Prints a line with the result header and the run's details, then, as the
// last line, {"correct", "attempted", "failed", "metrics"}; the same record
// goes to DIR/results/. Exit 2 on bad arguments, 1 when the run could not
// finish.

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Args;
using perfbench::Metric;
using perfbench::Outcome;

int usage(const std::string& problem) {
    std::cerr << "perfbench: " << problem << "\n"
              << "usage: perfbench --workload train-spider|train-tiered|"
                 "serve-mixed --seed N --seconds S --trace 0|1 "
                 "[--out-dir DIR] [--commit ID]\n";
    return 2;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
    std::ostringstream os;
    os << "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i != 0) os << ", ";
        os << perfbench::json_string(metrics[i].name) << ": {\"value\": "
           << perfbench::json_number(metrics[i].value)
           << ", \"unit\": " << perfbench::json_string(metrics[i].unit) << "}";
    }
    os << "}";
    return os.str();
}

std::string result_json(const Outcome& out) {
    std::ostringstream os;
    os << "{\"correct\": " << (out.correct ? "true" : "false")
       << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
       << ", \"metrics\": " << metrics_json(out.metrics) << "}";
    return os.str();
}

std::string record_json(const Args& args, const Outcome& out) {
    std::ostringstream os;
    os << "{\"header\": " << perfbench::header_json(args)
       << ", \"details\": " << metrics_json(out.details) << ", \"problems\": [";
    for (std::size_t i = 0; i < out.problems.size(); ++i) {
        if (i != 0) os << ", ";
        os << perfbench::json_string(out.problems[i]);
    }
    os << "]}";
    return os.str();
}

}  // namespace

int main(int argc, char** argv) {
    Args args;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) return usage("missing value for " + flag);
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                args.workload = value;
            } else if (flag == "--seed") {
                args.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                args.seconds = std::stod(value);
            } else if (flag == "--trace") {
                if (value != "0" && value != "1") {
                    return usage("--trace takes 0 or 1");
                }
                args.trace = value == "1";
                have_trace = true;
            } else if (flag == "--out-dir") {
                args.out_dir = value;
            } else if (flag == "--commit") {
                args.commit = value;
            } else {
                return usage("unknown flag " + flag);
            }
        } catch (const std::exception&) {
            return usage("bad value for " + flag + ": " + value);
        }
    }
    if (!have_trace || args.workload.empty()) {
        return usage("--workload and --trace are required");
    }
    if (!(args.seconds > 0.0)) return usage("--seconds must be > 0");

    Outcome out;
    try {
        if (args.workload == "train-spider") {
            out = perfbench::run_train_spider(args);
        } else if (args.workload == "train-tiered") {
            out = perfbench::run_train_tiered(args);
        } else if (args.workload == "serve-mixed") {
            out = perfbench::run_serve_mixed(args);
        } else {
            return usage("unknown workload " + args.workload);
        }
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << args.workload << " failed: " << e.what()
                  << "\n";
        return 1;
    }

    if (args.trace) out.detail("peak_rss_mb", perfbench::peak_rss_mib(), "MiB");
    const std::string record = record_json(args, out);
    const std::string result = result_json(out);
    const std::filesystem::path dir =
        std::filesystem::path{args.out_dir} / "results";
    std::filesystem::create_directories(dir);
    std::ofstream file{dir / (args.workload + "-seed" +
                              std::to_string(args.seed) + "-trace" +
                              (args.trace ? "1" : "0") + ".json")};
    file << "{\"record\": " << record << ", \"result\": " << result << "}\n";
    std::cout << record << "\n" << result << std::endl;
    return 0;
}
