/**
 * @file
 * Measurement plumbing shared by the benchmark's wire phases and its
 * per-layer ledger: a quantile helper that refuses tail percentiles a
 * sample cannot support, an in-memory span recorder, and the metric
 * sheet printed as the benchmark's result line.
 */

#ifndef WIREBENCH_HARNESS_HPP
#define WIREBENCH_HARNESS_HPP

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace wirebench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** A tail percentile needs at least this many samples beyond it. */
constexpr size_t kMinBeyond = 10;

/** One order statistic and the sample it rests on. */
struct Quantile
{
    double value = 0.0;
    size_t samples = 0; //!< sample count
    size_t beyond = 0;  //!< samples ranked above the reported one
    bool valid = false; //!< false: empty, or a tail without kMinBeyond
};

/**
 * Nearest-rank quantile @p q of @p samples (rank ceil(q * n)). A tail
 * quantile (q > 0.5) is refused (valid == false) unless at least
 * kMinBeyond samples rank above it, so a reported p99 always has ten or
 * more slower observations behind it; a median needs one sample.
 */
Quantile quantile(std::vector<double> samples, double q);

/** One recorded interval; parent is an index into the same log or -1. */
struct Span
{
    const char *name = "";
    int64_t startNs = 0;
    int64_t endNs = 0;
    int64_t parent = -1;
    uint64_t key = 0; //!< request key for wire spans (0 otherwise)
};

/**
 * In-memory span log owned by the benchmark. A disabled recorder
 * ignores every call, so untraced runs pay one branch per span site.
 */
class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span now; returns its id (-1 when disabled). */
    int64_t begin(const char *name, int64_t parent = -1, uint64_t key = 0);

    /** Close span @p id now (no-op for -1). */
    void end(int64_t id);

    /** Close span @p id at an instant measured elsewhere. */
    void endAt(int64_t id, Clock::time_point when);

    /**
     * Total self time (ns) per span name: each span's duration minus the
     * part of it its child spans cover.
     */
    std::map<std::string, double> selfTimes() const;

    /** Chrome trace-event JSON of every closed span; false on I/O error. */
    bool writeTrace(const std::string &path) const;

  private:
    int64_t nowNs(Clock::time_point when) const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   when - origin_)
            .count();
    }

    bool enabled_;
    Clock::time_point origin_ = Clock::now();
    mutable std::mutex mutex_;
    std::deque<Span> spans_; //!< no reallocation copies under the lock
};

/** RAII span on a recorder. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, const char *name, int64_t parent = -1)
        : rec_(rec), id_(rec.begin(name, parent))
    {
    }
    ~ScopedSpan() { rec_.end(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int64_t id() const { return id_; }

  private:
    SpanRecorder &rec_;
    int64_t id_;
};

/**
 * A collector thread that handles pushed items strictly in push order,
 * so a handler that waits on each item's reply stamps it as it lands.
 * The destructor (and finish()) handles what was pushed and joins.
 */
template <typename Item>
class InOrderCollector
{
  public:
    explicit InOrderCollector(std::function<void(Item &)> handler)
        : handler_(std::move(handler)), thread_([this] { loop(); })
    {
    }
    ~InOrderCollector() { stop(); }
    InOrderCollector(const InOrderCollector &) = delete;
    InOrderCollector &operator=(const InOrderCollector &) = delete;

    void push(Item item)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            queue_.push_back(std::move(item));
            ++inflight_;
        }
        cv_.notify_all();
    }

    /** Block until fewer than @p n items are unhandled (or it failed). */
    void waitBelow(size_t n)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return inflight_ < n || failed_; });
    }

    /** True once the handler has thrown; the sender should stop. */
    bool failed()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return failed_;
    }

    /** Handle everything pushed, join, and rethrow a handler failure. */
    void finish()
    {
        stop();
        if (failure_)
            std::rethrow_exception(failure_);
    }

  private:
    void stop()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            done_ = true;
        }
        cv_.notify_all();
        if (thread_.joinable())
            thread_.join();
    }

    void loop()
    {
        try {
            for (;;) {
                Item item;
                {
                    std::unique_lock<std::mutex> lock(mutex_);
                    cv_.wait(lock, [&] { return !queue_.empty() || done_; });
                    if (queue_.empty())
                        return;
                    item = std::move(queue_.front());
                    queue_.pop_front();
                }
                handler_(item);
                {
                    std::lock_guard<std::mutex> lock(mutex_);
                    --inflight_;
                }
                cv_.notify_all();
            }
        } catch (...) {
            failure_ = std::current_exception(); // read after join
            {
                std::lock_guard<std::mutex> lock(mutex_);
                failed_ = true;
            }
            cv_.notify_all();
        }
    }

    std::function<void(Item &)> handler_;
    std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<Item> queue_;
    size_t inflight_ = 0;
    bool done_ = false;
    bool failed_ = false;
    std::exception_ptr failure_;
    std::thread thread_; //!< last: starts after the members it uses
};

/** Named metrics with units, printed as the result line. */
class MetricSheet
{
  public:
    void set(const std::string &name, double value, const std::string &unit);

    /**
     * The benchmark's final line: {"correct", "attempted", "failed",
     * "metrics": {name: {"value", "unit"}}}, every value at full
     * precision.
     */
    std::string resultLine(bool correct, uint64_t attempted,
                           uint64_t failed) const;

  private:
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics_;
};

} // namespace wirebench

#endif // WIREBENCH_HARNESS_HPP
