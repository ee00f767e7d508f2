#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "common/json.hpp"

namespace wirebench {

Quantile
quantile(std::vector<double> samples, double q)
{
    Quantile out;
    out.samples = samples.size();
    if (samples.empty())
        return out;
    std::sort(samples.begin(), samples.end());
    const double n = static_cast<double>(samples.size());
    const size_t rank = std::clamp<size_t>(
        static_cast<size_t>(std::ceil(q * n)), 1, samples.size());
    out.value = samples[rank - 1];
    out.beyond = samples.size() - rank;
    out.valid = q <= 0.5 || out.beyond >= kMinBeyond;
    return out;
}

int64_t
SpanRecorder::begin(const char *name, int64_t parent, uint64_t key)
{
    if (!enabled_)
        return -1;
    const int64_t start = nowNs(Clock::now());
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{name, start, -1, parent, key});
    return static_cast<int64_t>(spans_.size()) - 1;
}

void
SpanRecorder::end(int64_t id)
{
    endAt(id, Clock::now());
}

void
SpanRecorder::endAt(int64_t id, Clock::time_point when)
{
    if (id < 0)
        return;
    const int64_t stop = nowNs(when);
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<size_t>(id)].endNs = stop;
}

std::map<std::string, double>
SpanRecorder::selfTimes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::vector<size_t>> children(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].parent >= 0)
            children[static_cast<size_t>(spans_[i].parent)].push_back(i);

    std::map<std::string, double> totals;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        if (span.endNs < span.startNs)
            continue; // never closed
        // Union of the children's intervals, clipped to this span.
        std::vector<std::pair<int64_t, int64_t>> covered;
        for (size_t c : children[i]) {
            const Span &child = spans_[c];
            if (child.endNs < child.startNs)
                continue;
            covered.emplace_back(std::max(child.startNs, span.startNs),
                                 std::min(child.endNs, span.endNs));
        }
        std::sort(covered.begin(), covered.end());
        int64_t covered_ns = 0, reach = span.startNs;
        for (const auto &[from, to] : covered) {
            const int64_t lo = std::max(from, reach);
            if (to > lo) {
                covered_ns += to - lo;
                reach = to;
            }
        }
        totals[span.name] +=
            static_cast<double>(span.endNs - span.startNs - covered_ns);
    }
    return totals;
}

bool
SpanRecorder::writeTrace(const std::string &path) const
{
    std::string out = "{\"traceEvents\":[";
    {
        std::lock_guard<std::mutex> lock(mutex_);
        bool first = true;
        char buf[256];
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            if (s.endNs < s.startNs)
                continue;
            if (!first)
                out += ',';
            first = false;
            out += "{\"name\":\"";
            nebula::json::appendEscaped(out, s.name);
            std::snprintf(buf, sizeof buf,
                          "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                          "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                          "\"parent\":%lld,\"key\":%llu}}",
                          s.startNs / 1e3, (s.endNs - s.startNs) / 1e3, i,
                          static_cast<long long>(s.parent),
                          static_cast<unsigned long long>(s.key));
            out += buf;
        }
    }
    out += "]}\n";
    std::ofstream file(path, std::ios::binary);
    file << out;
    return static_cast<bool>(file);
}

void
MetricSheet::set(const std::string &name, double value,
                 const std::string &unit)
{
    metrics_.push_back({name, {value, unit}});
}

std::string
MetricSheet::resultLine(bool correct, uint64_t attempted,
                        uint64_t failed) const
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    char buf[64];
    bool first = true;
    for (const auto &[name, entry] : metrics_) {
        if (!first)
            out += ", ";
        first = false;
        // Non-finite values are not JSON; they print as null and the
        // wrapper rejects them.
        if (std::isfinite(entry.first))
            std::snprintf(buf, sizeof buf, "%.17g", entry.first);
        else
            std::snprintf(buf, sizeof buf, "null");
        out += "\"";
        nebula::json::appendEscaped(out, name);
        out += "\": {\"value\": ";
        out += buf;
        out += ", \"unit\": \"";
        nebula::json::appendEscaped(out, entry.second);
        out += "\"}";
    }
    out += "}}";
    return out;
}

} // namespace wirebench
