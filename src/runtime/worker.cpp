#include "runtime/worker.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>

#include "common/logging.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "reliability/health.hpp"

namespace nebula {

namespace {

double
secondsSince(std::chrono::steady_clock::time_point start,
             std::chrono::steady_clock::time_point end)
{
    return std::chrono::duration<double>(end - start).count();
}

// Latency histogram shape shared by all workers so the engine-level
// merge is bin-exact: 0..250 ms in 500 half-ms buckets.
constexpr double kLatencyLoMs = 0.0;
constexpr double kLatencyHiMs = 250.0;
constexpr int kLatencyBuckets = 500;

// Batch-size histogram shape, likewise shared for bin-exact merges.
constexpr double kBatchLo = 0.0;
constexpr double kBatchHi = 64.0;
constexpr int kBatchBuckets = 64;

bool
sameShape(const Tensor &a, const Tensor &b)
{
    if (a.rank() != b.rank())
        return false;
    for (int d = 0; d < a.rank(); ++d)
        if (a.dim(d) != b.dim(d))
            return false;
    return true;
}

/** Message of the exception being handled (call only inside a catch). */
std::string
currentExceptionMessage()
{
    try {
        throw;
    } catch (const std::exception &e) {
        return e.what();
    } catch (...) {
        return "replica threw a non-std exception";
    }
}

} // namespace

Worker::Worker(int id, std::unique_ptr<ChipReplica> replica,
               BoundedQueue<QueueItem> *queue, const EngineConfig &config,
               CompletionFn onComplete, RestartFn superviseRestart)
    : id_(id), resultWorkerId_(config.numWorkers > 0 ? id : -1),
      replica_(std::move(replica)), queue_(queue), config_(config),
      health_(config.health && config.health->config().enabled
                  ? config.health.get()
                  : nullptr),
      onComplete_(std::move(onComplete)),
      superviseRestart_(std::move(superviseRestart)),
      stats_("worker" + std::to_string(id)),
      requestsStat_(stats_.scalar("requests")),
      latencyStat_(stats_.scalar("latency_ms")),
      serviceStat_(stats_.scalar("service_ms")),
      waitStat_(stats_.scalar("wait_ms")),
      spikesStat_(stats_.scalar("spikes")),
      latencyHist_(stats_.histogram("latency_ms.hist", kLatencyLoMs,
                                    kLatencyHiMs, kLatencyBuckets)),
      serviceHist_(stats_.histogram("service_ms.hist", kLatencyLoMs,
                                    kLatencyHiMs, kLatencyBuckets)),
      waitHist_(stats_.histogram("wait_ms.hist", kLatencyLoMs,
                                 kLatencyHiMs, kLatencyBuckets))
{
}

void
Worker::start()
{
    thread_ = std::thread([this] { loop(); });
}

void
Worker::join()
{
    if (thread_.joinable())
        thread_.join();
}

void
Worker::shed(QueueItem &item, RuntimeErrorKind kind,
             const std::string &message, double wait_seconds)
{
    const char *stat = "failures";
    const char *metric = "runtime.replica_fault";
    const char *instant = "request.failed";
    if (kind == RuntimeErrorKind::Cancelled) {
        stat = "cancelled";
        metric = "runtime.cancelled";
        instant = "request.cancelled";
    } else if (kind == RuntimeErrorKind::Timeout) {
        stat = "timeouts";
        metric = "runtime.timeout";
        instant = "request.timeout";
    }
    stats_.scalar(stat).inc();
    obs::MetricsRegistry::global().counter(metric).inc();
    obs::recordInstant("runtime", instant, config_.traceRequests);

    InferenceResult result;
    result.id = item.request.id;
    result.workerId = resultWorkerId_;
    result.queueSeconds = wait_seconds;
    result.error = kind;
    result.errorMessage = message;
    item.promise.set_value(std::move(result));
}

void
Worker::loop()
{
    obs::setThreadName("worker" + std::to_string(id_));
    NEBULA_DEBUG("runtime", "worker", id_, " started");
    const int max_batch = config_.batching.maxBatch;
    while (auto item = queue_->pop()) {
        // The batch gather only engages when the engine asks for it AND
        // the current replica coalesces requests into one chip walk;
        // checked per dequeue because the supervisor / health monitor
        // may swap the replica for a non-batching fallback at any time.
        if (max_batch <= 1 || !replica_->supportsBatch()) {
            serve({&*item, 1});
            continue;
        }

        // Deadline-aware gather window: hold the first request for at
        // most maxWaitUs while draining more, but never into the
        // earliest deadline among the requests already held -- the
        // window closes a slack margin (estimated flush time plus a
        // slice of the remaining budget) BEFORE that deadline, so a
        // held request always flushes with time left to evaluate and
        // is never pushed past its deadline by the gather itself.
        const auto gather_start = std::chrono::steady_clock::now();
        auto deadline_cap = [&](std::chrono::steady_clock::time_point
                                    deadline) {
            const double remaining =
                std::max(0.0, secondsSince(gather_start, deadline));
            const double slack = std::max(
                {2.0 * flushEwmaSec_, 0.1 * remaining, 100e-6});
            return deadline -
                   std::chrono::duration_cast<
                       std::chrono::steady_clock::duration>(
                       std::chrono::duration<double>(slack));
        };
        auto window_end = gather_start + std::chrono::microseconds(
                                             config_.batching.maxWaitUs);
        if (item->hasDeadline)
            window_end = std::min(window_end, deadline_cap(item->deadline));

        std::vector<QueueItem> batch;
        batch.reserve(static_cast<size_t>(max_batch));
        batch.push_back(std::move(*item));
        while (static_cast<int>(batch.size()) < max_batch) {
            QueueItem next;
            if (queue_->tryPop(next)) {
                if (next.hasDeadline)
                    window_end =
                        std::min(window_end, deadline_cap(next.deadline));
                batch.push_back(std::move(next));
                continue;
            }
            if (std::chrono::steady_clock::now() >= window_end)
                break;
            if (!queue_->popUntil(next, window_end))
                break; // window elapsed, or closed and drained
            if (next.hasDeadline)
                window_end =
                    std::min(window_end, deadline_cap(next.deadline));
            batch.push_back(std::move(next));
        }
        serve(batch);
    }
    NEBULA_DEBUG("runtime", "worker", id_, " draining done, exiting");
}

void
Worker::serve(std::span<QueueItem> items)
{
    // Non-evaluated terminal outcomes, checked when the items are taken
    // up: a cancelled or expired request is shed without touching the
    // replica -- under overload this is what keeps the tail of the
    // queue from wasting chip time on answers nobody can use. (A gather
    // window never outlives a held deadline, but a deadline can expire
    // right at its boundary and a cancel can land during it.)
    const auto taken = std::chrono::steady_clock::now();
    live_.clear();
    for (QueueItem &item : items) {
        const double wait = secondsSince(item.enqueued, taken);
        if (item.request.cancel &&
            item.request.cancel->load(std::memory_order_acquire)) {
            shed(item, RuntimeErrorKind::Cancelled,
                 "request cancelled before evaluation", wait);
            onComplete_(-1.0);
        } else if (item.hasDeadline && taken > item.deadline) {
            shed(item, RuntimeErrorKind::Timeout, "deadline expired in queue",
                 wait);
            onComplete_(-1.0);
        } else {
            live_.push_back(&item);
        }
    }

    // Same-model is guaranteed (one engine, one replica prototype) but
    // image shapes may still differ: each same-shape group is one
    // runBatch call. The partition is stable, so a group keeps the
    // queue order of its requests.
    auto first = live_.begin();
    while (first != live_.end()) {
        const QueueItem *lead = *first;
        const auto last = std::stable_partition(
            first, live_.end(), [lead](const QueueItem *item) {
                return sameShape(item->request.image, lead->request.image);
            });
        const std::span<QueueItem *> group(first, last);
        first = last;
        const auto start = std::chrono::steady_clock::now();
        const int n = static_cast<int>(group.size());

        // A group of one is traced as a `request` span carrying its id
        // and queue wait; a real batch as one `batch.flush` span over
        // the shared chip walk, plus the batch-size metrics. Either is
        // a sampling root: TraceConfig::sampleEvery applies to it and
        // suppresses the chip/noc spans nested inside the replica call
        // when it is sampled out.
        const bool solo = n == 1;
        obs::TraceSpan span("runtime", solo ? "request" : "batch.flush",
                            config_.traceRequests, /*sampled_root=*/true);
        if (solo) {
            span.arg("id", static_cast<double>(group[0]->request.id));
            span.arg("wait_ms", 1e3 * secondsSince(group[0]->enqueued, start));
        } else {
            span.arg("size", static_cast<double>(n));
            stats_.scalar("batch.size").sample(static_cast<double>(n));
            stats_
                .histogram("batch.size.hist", kBatchLo, kBatchHi,
                           kBatchBuckets)
                .sample(static_cast<double>(n));
            auto &registry = obs::MetricsRegistry::global();
            registry.counter("runtime.batch.flush").inc();
            registry.observe("runtime.batch.size", static_cast<double>(n),
                             kBatchLo, kBatchHi, kBatchBuckets);
        }
        // Distributed-trace hop per request: a request carrying wire
        // trace context links its evaluation into the client/server flow.
        requests_.clear();
        for (QueueItem *item : group) {
            obs::recordFlowStep("runtime", "request.flow",
                                item->request.traceId, config_.traceRequests);
            requests_.push_back(&item->request);
        }
        // Sampling the queue depth takes the queue mutex: only pay for
        // it when a trace session is actually recording.
        if (config_.traceRequests)
            obs::recordCounter("queue.depth",
                               static_cast<double>(queue_->size()),
                               config_.traceRequests);

        std::vector<InferenceResult> results;
        std::string fault;
        bool faulted = false;
        try {
            results = replica_->runBatch(requests_);
        } catch (...) {
            faulted = true;
            fault = currentExceptionMessage();
        }
        const double walk_seconds =
            secondsSince(start, std::chrono::steady_clock::now());

        // Replica time of the whole group: the shared walk plus every
        // hedged ABFT re-run. Each request's own service time is the
        // walk it rode plus its own re-run, if any.
        double busy = walk_seconds;
        bool violated = false;
        if (faulted) {
            for (QueueItem *item : group)
                shed(*item, RuntimeErrorKind::ReplicaFault, fault,
                     secondsSince(item->enqueued, start));
            ++consecutiveFaults_;
        } else {
            NEBULA_ASSERT(results.size() == group.size(),
                          "replica returned wrong batch result count");
            for (int i = 0; i < n; ++i) {
                QueueItem &item = *group[static_cast<size_t>(i)];
                InferenceResult &result = results[static_cast<size_t>(i)];
                double service = walk_seconds;
                // ABFT verdict check before any bookkeeping fields are
                // filled (the batched walk attributes checksum
                // comparisons per image): a hedged re-run replaces the
                // whole result, and its time is billed to this request.
                if (result.integrity.violations > 0 && result.ok()) {
                    violated = true;
                    const auto redo = std::chrono::steady_clock::now();
                    handleViolation(item, result);
                    const double redo_seconds =
                        secondsSince(redo, std::chrono::steady_clock::now());
                    service += redo_seconds;
                    busy += redo_seconds;
                }
                const double wait = secondsSince(item.enqueued, start);
                result.id = item.request.id;
                result.workerId = resultWorkerId_;
                result.queueSeconds = wait;
                result.serviceSeconds = service;

                requestsStat_.inc();
                latencyStat_.sample(1e3 * (wait + service));
                serviceStat_.sample(1e3 * service);
                waitStat_.sample(1e3 * wait);
                latencyHist_.sample(1e3 * (wait + service));
                serviceHist_.sample(1e3 * service);
                waitHist_.sample(1e3 * wait);
                spikesStat_.add(static_cast<double>(result.spikes));

                item.promise.set_value(std::move(result));
            }
            span.arg("service_ms", 1e3 * busy);
            flushEwmaSec_ = flushEwmaSec_ <= 0.0
                                ? busy
                                : flushEwmaSec_ + 0.2 * (busy - flushEwmaSec_);
            consecutiveFaults_ = 0;
        }

        // Probes run after the callers have their answers, so the canary
        // cost lands on the worker, not on any request's latency. One
        // escalated probe per group no matter how many items were
        // flagged (detection already proved this replica computes wrong
        // sums; the probe targets the replica, not the requests), and
        // one periodic probe after a successful evaluation. Either may
        // repair or swap replica_ (demotion).
        if (health_ && violated)
            probeHealth(/*escalated=*/true);
        if (health_ && !faulted)
            probeHealth(/*escalated=*/false);

        // Restart BEFORE completion accounting: once the last onComplete
        // lands, waitIdle may return, and a quiesced engine must already
        // reflect any supervisor restart this group earned -- the next
        // group then runs on the fresh replica too.
        maybeRestartReplica();

        // One completion per request keeps the engine's submitted_ /
        // completed_ quiesce accounting balanced. The admission EWMA
        // predicts per-request queue drain, and a batch retires n
        // requests in one walk: it gets each request's share.
        const double share = faulted ? -1.0 : busy / n;
        for (int i = 0; i < n; ++i)
            onComplete_(share);
    }
}

void
Worker::handleViolation(const QueueItem &item, InferenceResult &result)
{
    auto &registry = obs::MetricsRegistry::global();
    stats_.scalar("abft.violations").inc();
    registry.counter("abft.request_violations").inc();
    obs::recordInstant("runtime", "abft.violation", config_.traceRequests);

    if (!config_.abft.reExecute || !config_.abft.fallback)
        return;
    // Deadline-aware hedging: once the request's budget has lapsed, a
    // re-run can only turn a flagged-but-delivered answer into a late
    // one. The flagged original (with integrity.violations set) is the
    // better outcome -- the client sees the corruption verdict.
    if (item.hasDeadline &&
        std::chrono::steady_clock::now() > item.deadline)
        return;
    if (!abftFallback_) {
        abftFallback_ = config_.abft.fallback(id_);
        if (!abftFallback_)
            return;
    }
    try {
        // Exactly one re-execution attempt, with the request's own
        // seed (carried inside item.request), so a stochastic SNN
        // re-run is reproducible.
        InferenceResult redo = abftFallback_->run(item.request);
        // The redo keeps the original's detection verdict: the client
        // must see that checksums ran and flagged this request, not a
        // blank report from the checksum-free fallback.
        redo.integrity.checks += result.integrity.checks;
        redo.integrity.violations += result.integrity.violations;
        redo.integrity.reExecuted = true;
        result = std::move(redo);
        stats_.scalar("abft.reexecutions").inc();
        registry.counter("abft.reexecutions").inc();
        obs::recordInstant("runtime", "abft.reexecute",
                           config_.traceRequests);
    } catch (...) {
        // A faulting fallback must not unseat the flagged original:
        // the promise chain still delivers a typed answer either way.
        registry.counter("abft.reexec_fault").inc();
    }
}

void
Worker::probeHealth(bool escalated)
{
    try {
        if (escalated)
            health_->probeNow(id_, replica_);
        else
            health_->afterRequest(id_, replica_);
    } catch (...) {
        // The promises are already satisfied: a throwing probe must be
        // absorbed here, accounted as a fault (feeding the supervisor),
        // and never reach shed(), which would set a promise twice.
        stats_.scalar("probe_failures").inc();
        obs::MetricsRegistry::global().counter("health.probe_fault").inc();
        obs::recordInstant("runtime", "health.probe_fault",
                           config_.traceRequests);
        ++consecutiveFaults_;
    }
}

void
Worker::maybeRestartReplica()
{
    if (config_.maxConsecutiveFaults > 0 &&
        consecutiveFaults_ >= config_.maxConsecutiveFaults) {
        NEBULA_DEBUG("runtime", "worker", id_, " restarting after ",
                     consecutiveFaults_, " consecutive faults");
        stats_.scalar("restarts").inc();
        replica_ = superviseRestart_(id_, std::move(replica_));
        NEBULA_ASSERT(replica_, "supervisor returned null replica");
        consecutiveFaults_ = 0;
    }
}

} // namespace nebula
