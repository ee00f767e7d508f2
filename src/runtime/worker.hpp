/**
 * @file
 * Worker of the inference engine: owns a private chip replica and
 * worker-local stats, and serve() is the engine's one request path.
 * In a pool the worker's thread pops requests (or gathers micro-batches)
 * from the shared bounded queue and serves them; in inline mode
 * (numWorkers == 0) the thread never starts and submit() calls serve()
 * on the caller's thread, so both modes run the same code. All
 * per-request accounting is worker-local; the engine merges it only
 * after the pool has quiesced, so the hot path takes no locks beyond
 * the queue's own.
 *
 * Lifecycle hardening: every served request reaches a typed terminal
 * outcome -- evaluated (ok), expired (Timeout), cancelled (Cancelled)
 * or failed (ReplicaFault) -- and the promise is always fulfilled with
 * a value, never broken and never an exception. A replica that throws
 * repeatedly is quarantined and replaced by the supervisor callback;
 * the optional health monitor probes the replica between requests and
 * may swap it too (repair / demotion).
 */

#ifndef NEBULA_RUNTIME_WORKER_HPP
#define NEBULA_RUNTIME_WORKER_HPP

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.hpp"
#include "runtime/config.hpp"
#include "runtime/replica.hpp"
#include "runtime/request.hpp"
#include "runtime/request_queue.hpp"

namespace nebula {

/** One worker: a private replica, local stats and (in a pool) a thread. */
class Worker
{
  public:
    /**
     * Fired after each served request has been fully accounted (promise
     * fulfilled, worker-local stats written, health probe done).
     * @p service_seconds is the request's share of the replica time, or
     * a negative value when the request was shed without evaluation
     * (timeout / cancel / fault) -- the engine's service-time EWMA skips
     * those.
     */
    using CompletionFn = std::function<void(double service_seconds)>;

    /**
     * Supervisor restart: called after EngineConfig::maxConsecutiveFaults
     * consecutive faults with the poisoned replica; returns its freshly
     * programmed replacement.
     */
    using RestartFn = std::function<std::unique_ptr<ChipReplica>(
        int worker_id, std::unique_ptr<ChipReplica> old)>;

    /**
     * @param id       0-based worker id (doubles as the health slot).
     * @param replica  Private chip replica (takes ownership).
     * @param queue    Shared request queue (not owned).
     * @param config   The engine's configuration (not owned).
     */
    Worker(int id, std::unique_ptr<ChipReplica> replica,
           BoundedQueue<QueueItem> *queue, const EngineConfig &config,
           CompletionFn onComplete, RestartFn superviseRestart);

    Worker(const Worker &) = delete;
    Worker &operator=(const Worker &) = delete;

    /** Launch the thread (runs until the queue closes and drains). */
    void start();

    /** Join the thread (must follow queue close; no-op if never started). */
    void join();

    /**
     * Serve dequeued items -- one popped request, a gathered batch, or an
     * inline submit. Cancelled and expired items are shed with typed
     * outcomes; the rest are grouped by image shape and each group is one
     * ChipReplica::runBatch call (solo is a group of one), followed by
     * per-item ABFT hedging, stats and promise settlement, then one
     * escalated probe, one periodic probe and a supervisor check per
     * group, and finally one completion callback per item.
     */
    void serve(std::span<QueueItem> items);

    int id() const { return id_; }

    /**
     * Worker-local request statistics. Safe to read only while the
     * worker is quiescent (engine guarantees this via waitIdle).
     */
    const StatGroup &stats() const { return stats_; }

    const ChipReplica &replica() const { return *replica_; }

    /**
     * Mutable replica access for the engine's quiesced administration
     * paths (withReplicas). Same quiescence contract as stats().
     */
    std::unique_ptr<ChipReplica> &replicaSlot() { return replica_; }

  private:
    void loop();

    /** Supervisor restart once the consecutive-fault threshold is hit. */
    void maybeRestartReplica();

    /**
     * Handle a result that came back with ABFT violations: bill the
     * abft.* metrics, optionally re-execute on the fallback replica
     * (bounded to one attempt, skipped when the deadline has lapsed),
     * replacing @p result with the fallback's answer.
     */
    void handleViolation(const QueueItem &item, InferenceResult &result);

    /**
     * Health probe of this slot after the group's promises are settled:
     * immediate (@p escalated, after an ABFT violation) or the periodic
     * afterRequest cadence. A throwing probe is absorbed and counted as
     * a fault, never re-touching a settled promise.
     */
    void probeHealth(bool escalated);

    /** Fulfil @p item with a typed non-evaluated terminal outcome. */
    void shed(QueueItem &item, RuntimeErrorKind kind,
              const std::string &message, double wait_seconds);

    int id_;
    int resultWorkerId_; //!< id_ in a pool, -1 for inline results
    std::unique_ptr<ChipReplica> replica_;
    BoundedQueue<QueueItem> *queue_;
    const EngineConfig &config_;
    HealthMonitor *health_; //!< null unless a monitor is enabled
    CompletionFn onComplete_;
    RestartFn superviseRestart_;
    int consecutiveFaults_ = 0;

    /** Lazily built fallback replica for ABFT re-execution. */
    std::unique_ptr<ChipReplica> abftFallback_;

    /**
     * EWMA of recent replica evaluation times (whole group, seconds);
     * sizes the slack margin the gather window keeps clear of any held
     * deadline.
     */
    double flushEwmaSec_ = 0.0;

    /** serve() scratch, kept to reuse its capacity across calls. */
    std::vector<QueueItem *> live_;
    std::vector<const InferenceRequest *> requests_;

    StatGroup stats_;

    /**
     * Cached references into stats_, bound once in the constructor
     * (std::map nodes are stable, so they survive later stat
     * creation): the per-request hot path skips the string-keyed
     * lookups that would otherwise run ~10 times per request.
     */
    ScalarStat &requestsStat_;
    ScalarStat &latencyStat_;
    ScalarStat &serviceStat_;
    ScalarStat &waitStat_;
    ScalarStat &spikesStat_;
    Histogram &latencyHist_;
    Histogram &serviceHist_;
    Histogram &waitHist_;

    std::thread thread_;
};

} // namespace nebula

#endif // NEBULA_RUNTIME_WORKER_HPP
