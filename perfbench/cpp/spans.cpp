#include "spans.hpp"

#include <array>
#include <fstream>

namespace perfbench {

namespace {

constexpr std::array<const char*, static_cast<std::size_t>(SpanName::kCount)>
    kNames{
        "sim.step",          "sim.epoch_begin",      "sim.epoch_end",
        "client.flush",      "core.epoch_order",     "core.end_epoch",
        "core.score_batch",  "ann.upsert",           "cache.lookup",
        "cache.admit",       "cache.rescore",        "cache.homophily",
        "cache.lru_touch",   "cache.lru_admit",      "nn.forward",
        "nn.backward",       "nn.evaluate",          "data.gather",
        "storage.ssd_read",  "storage.ssd_append",   "storage.ssd_flush",
        "storage.remote_fetch", "storage.wal_append", "storage.wal_compact",
        "storage.recovery",  "server.miss_hook",     "server.payload_read",
    };

}  // namespace

const char* to_string(SpanName name) {
    return kNames.at(static_cast<std::size_t>(name));
}

bool is_root(SpanName name) {
    return name == SpanName::kStep || name == SpanName::kEpochBegin ||
           name == SpanName::kEpochEnd || name == SpanName::kFlush;
}

std::size_t SpanLog::open(SpanName name, std::uint32_t tag) {
    const std::size_t index = spans_.size();
    Span span;
    span.name = name;
    span.tag = tag;
    span.parent = stack_.empty() ? -1 : stack_.back();
    if (stack_.empty() && is_root(name)) request_ = ++requests_opened_;
    span.request = stack_.empty() && !is_root(name) ? 0 : request_;
    stack_.push_back(static_cast<std::int32_t>(index));
    span.start_ns = tracer_.now_ns();
    spans_.push_back(span);
    return index;
}

void SpanLog::close(std::size_t index) {
    spans_[index].end_ns = tracer_.now_ns();
    if (!stack_.empty()) stack_.pop_back();
}

SpanLog& Tracer::new_log(std::string thread) {
    return logs_.emplace_back(*this, static_cast<std::uint32_t>(logs_.size()),
                              std::move(thread));
}

std::vector<LayerStat> Tracer::layer_stats() const {
    std::vector<LayerStat> stats(static_cast<std::size_t>(SpanName::kCount));
    for (const SpanLog& log : logs_) {
        const std::deque<Span>& spans = log.spans();
        std::vector<double> child_ns(spans.size(), 0.0);
        for (const Span& span : spans) {
            if (span.parent >= 0) {
                child_ns[static_cast<std::size_t>(span.parent)] +=
                    static_cast<double>(span.end_ns - span.start_ns);
            }
        }
        for (std::size_t i = 0; i < spans.size(); ++i) {
            LayerStat& stat = stats[static_cast<std::size_t>(spans[i].name)];
            const auto dur =
                static_cast<double>(spans[i].end_ns - spans[i].start_ns);
            ++stat.calls;
            stat.total_ns += dur;
            stat.self_ns += dur - child_ns[i];
        }
    }
    return stats;
}

double Tracer::layer_covered_ns() const {
    double covered = 0.0;
    for (const SpanLog& log : logs_) {
        const std::deque<Span>& spans = log.spans();
        for (const Span& span : spans) {
            if (is_root(span.name)) continue;
            const bool top =
                span.parent < 0 ||
                is_root(spans[static_cast<std::size_t>(span.parent)].name);
            if (top) {
                covered += static_cast<double>(span.end_ns - span.start_ns);
            }
        }
    }
    return covered;
}

std::size_t Tracer::span_count() const {
    std::size_t total = 0;
    for (const SpanLog& log : logs_) total += log.spans().size();
    return total;
}

std::size_t Tracer::dump_csv(const std::filesystem::path& file,
                             std::size_t max_spans) const {
    std::ofstream os{file};
    os << "thread,index,request,parent,name,start_ns,end_ns,tag\n";
    // Every thread gets an equal share of the budget, so a busy thread
    // cannot crowd the others out of the dump.
    const std::size_t per_log =
        logs_.empty() ? 0 : max_spans / logs_.size();
    std::size_t written = 0;
    for (const SpanLog& log : logs_) {
        const std::deque<Span>& spans = log.spans();
        for (std::size_t i = 0; i < spans.size() && i < per_log;
             ++i, ++written) {
            const Span& s = spans[i];
            os << log.thread() << ',' << i << ',' << log.request_id(s) << ','
               << s.parent << ',' << to_string(s.name) << ',' << s.start_ns
               << ',' << s.end_ns << ',' << s.tag << '\n';
        }
    }
    return written;
}

}  // namespace perfbench
