/**
 * @file
 * Batch-equivalence suite for the dynamic micro-batching path. Pins
 * three layers of the stack to the solo evaluation they must reproduce
 * bit-for-bit:
 *
 *  - circuit: CrossbarArray::evaluateIdealBatch per-window currents AND
 *    per-window energies against standalone evaluateIdeal, across 650+
 *    seeded random cases including faulted / write-verified / spare-
 *    column-remapped arrays (failures shrink to a minimal reproducer);
 *  - arch: NebulaChip::runAnnBatch logits against runAnn on MLP, conv
 *    (LeNet5) and depthwise (MobileNet) models, plus per-image activity
 *    attribution summing to the whole-batch stats delta;
 *  - runtime: the worker's deadline-aware gather window -- forced
 *    multi-request batches are bit-identical to a sequential chip, no
 *    request is ever starved past its deadline by the window, flush-time
 *    expiry/cancellation yield typed outcomes, a poisoned batch replica
 *    faults typed and recovers via supervisor restart, and random
 *    arrivals x deadlines x shed policies always resolve every future.
 *
 * The suite runs under ThreadSanitizer in CI (NEBULA_SANITIZE=thread).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "arch/chip.hpp"
#include "nn/datasets.hpp"
#include "nn/models.hpp"
#include "nn/quantize.hpp"
#include "runtime/engine.hpp"
#include "runtime/replica.hpp"
#include "testing/reference_crossbar.hpp"

namespace nebula {
namespace testing {
namespace {

constexpr double kCycle = 110e-9;

/** Run @p cases seeded cases; shrink and report the first failure. */
void
runCases(int cases, uint64_t seed_base,
         const std::function<CaseConfig(uint64_t)> &generate,
         const CasePredicate &mismatch)
{
    for (int k = 0; k < cases; ++k) {
        const uint64_t seed = seed_base + static_cast<uint64_t>(k);
        const CaseConfig config = generate(seed);
        const std::string detail = mismatch(config);
        if (detail.empty())
            continue;
        std::string min_detail;
        const CaseConfig minimal = shrinkCase(config, mismatch, &min_detail);
        FAIL() << "batch-equivalence mismatch: " << detail
               << "\n  original: " << config.describe()
               << "\n  minimal:  " << minimal.describe()
               << "\n  minimal mismatch: " << min_detail;
    }
}

/**
 * Compare a batched evaluation against per-window solo evaluateIdeal:
 * currents and per-window energies bit-exact, total energy equal to the
 * ascending-order sum of the per-window energies.
 */
std::string
compareBatchToSolo(const CaseConfig &config, int min_batch, int max_batch)
{
    BuiltCase built = buildCase(config);
    Rng rng(config.seed ^ 0xb47c41ull);
    const int rows = built.xbar->rows();
    const int cols = built.xbar->cols();
    const int batch = rng.uniformInt(min_batch, max_batch);
    std::vector<double> windows(static_cast<size_t>(batch) * rows);
    for (auto &v : windows)
        v = rng.bernoulli(config.sparsity) ? 0.0 : rng.uniform(0.0, 1.0);

    const CrossbarBatchEval got =
        built.xbar->evaluateIdealBatch(windows, batch, kCycle);
    if (got.currents.size() != static_cast<size_t>(batch) * cols)
        return "batched currents size mismatch";
    if (got.energies.size() != static_cast<size_t>(batch))
        return "per-window energies size mismatch";

    std::vector<double> window(static_cast<size_t>(rows));
    double energy_sum = 0.0;
    for (int b = 0; b < batch; ++b) {
        std::copy_n(windows.begin() + static_cast<size_t>(b) * rows, rows,
                    window.begin());
        const CrossbarEval solo = built.xbar->evaluateIdeal(window, kCycle);
        for (int c = 0; c < cols; ++c) {
            const double batched =
                got.currents[static_cast<size_t>(b) * cols + c];
            if (batched != solo.currents[static_cast<size_t>(c)]) {
                std::ostringstream out;
                out << "window " << b << " col " << c << ": batched "
                    << batched << " != solo "
                    << solo.currents[static_cast<size_t>(c)];
                return out.str();
            }
        }
        if (got.energies[static_cast<size_t>(b)] != solo.energy) {
            std::ostringstream out;
            out << "window " << b << " energy: batched "
                << got.energies[static_cast<size_t>(b)] << " != solo "
                << solo.energy;
            return out.str();
        }
        energy_sum += got.energies[static_cast<size_t>(b)];
    }
    if (got.energy != energy_sum)
        return "total energy is not the ascending sum of per-window "
               "energies";
    return std::string();
}

// ---------------------------------------------------------------------
// Circuit layer: 650 seeded differential cases (500+ required), solo vs
// batch-of-2..8 bit-exact, including faulted / remapped arrays.
// ---------------------------------------------------------------------

TEST(BatchingDifferential, PerWindowCurrentsAndEnergiesMatchSoloBitExact)
{
    // randomCase sweeps geometry, spare columns, fault maps, mitigations
    // and input sparsity; batch-of-2 covers the smallest coalesced case
    // and 8 crosses the kernel's 4-window register-blocking boundary.
    runCases(500, 7000, randomCase, [](const CaseConfig &config) {
        return compareBatchToSolo(config, 2, 8);
    });
}

TEST(BatchingDifferential, FaultedRepairedArraysBatchBitExact)
{
    // Force the reliability machinery on every case: stuck cells,
    // write-verify and spare-column remapping must be invisible to the
    // batched kernel (it reads the same remapped conductance view).
    runCases(
        150, 7600,
        [](uint64_t seed) {
            CaseConfig config = randomCase(seed);
            config.withFaults = true;
            config.writeVerify = true;
            config.repair = true;
            if (config.spareCols == 0)
                config.spareCols = 1;
            return config;
        },
        [](const CaseConfig &config) {
            return compareBatchToSolo(config, 2, 6);
        });
}

// ---------------------------------------------------------------------
// Chip layer: runAnnBatch vs solo runAnn, per-image attribution.
// ---------------------------------------------------------------------

bool
bitIdentical(const Tensor &a, const Tensor &b)
{
    if (a.size() != b.size())
        return false;
    for (long long i = 0; i < a.size(); ++i)
        if (a[i] != b[i])
            return false;
    return true;
}

/**
 * Program @p net onto a chip, run @p images solo and batched, and
 * require bit-identical logits plus exact per-image stats attribution
 * (counters exact, energies to FP-accumulation tolerance).
 */
void
expectBatchMatchesSolo(Network &net, const Tensor &calibration,
                       const std::vector<Tensor> &images)
{
    const QuantizationResult quant = quantizeNetwork(net, calibration);

    NebulaChip chip;
    chip.programAnn(net, quant);

    std::vector<Tensor> solo;
    solo.reserve(images.size());
    for (const Tensor &image : images)
        solo.push_back(chip.runAnn(image));

    const ChipStats before = chip.stats();
    const AnnBatchResult batch = chip.runAnnBatch(images);
    const ChipStats after = chip.stats();

    ASSERT_EQ(batch.logits.size(), images.size());
    ASSERT_EQ(batch.perImage.size(), images.size());
    for (size_t i = 0; i < images.size(); ++i)
        EXPECT_TRUE(bitIdentical(batch.logits[i], solo[i]))
            << "batched logits diverged from solo on image " << i;

    // The per-image activity slices must sum to the whole-batch delta:
    // counters exactly, energies to FP-reassociation tolerance (the
    // per-image slices accumulate in a different order than the chip's
    // running totals).
    ChipStats sum;
    for (const ChipStats &s : batch.perImage)
        sum.merge(s);
    EXPECT_EQ(sum.crossbarEvals, after.crossbarEvals - before.crossbarEvals);
    EXPECT_EQ(sum.adcConversions,
              after.adcConversions - before.adcConversions);
    EXPECT_EQ(sum.nocPackets, after.nocPackets - before.nocPackets);
    const double xbar_delta = after.crossbarEnergy - before.crossbarEnergy;
    EXPECT_NEAR(sum.crossbarEnergy, xbar_delta,
                1e-9 * std::max(1.0, std::abs(xbar_delta)));
    const double noc_delta = after.nocEnergy - before.nocEnergy;
    EXPECT_NEAR(sum.nocEnergy, noc_delta,
                1e-9 * std::max(1.0, std::abs(noc_delta)));
    for (const ChipStats &s : batch.perImage) {
        EXPECT_GT(s.crossbarEvals, 0);
        EXPECT_GT(s.crossbarEnergy, 0.0);
    }
}

TEST(BatchingChip, RunAnnBatchMatchesSoloMlp)
{
    SyntheticDigits data(16, 12, /*seed=*/9);
    Network net = buildMlp3(12, 1, 10, /*seed=*/3);
    std::vector<Tensor> images;
    for (int i = 0; i < 6; ++i)
        images.push_back(data.image(i));
    expectBatchMatchesSolo(net, data.firstImages(8), images);
}

TEST(BatchingChip, RunAnnBatchMatchesSoloConv)
{
    // LeNet5 exercises the batched Conv window path (image-major
    // per-output-row windows).
    SyntheticDigits data(8, 12, /*seed=*/21);
    Network net = buildLenet5(12, 1, 10, /*seed=*/997);
    std::vector<Tensor> images;
    for (int i = 0; i < 3; ++i)
        images.push_back(data.image(i));
    expectBatchMatchesSolo(net, data.firstImages(4), images);
}

TEST(BatchingChip, RunAnnBatchMatchesSoloDepthwise)
{
    // MobileNet exercises the batched depthwise-conv path (per-group
    // windows with group conductance offsets).
    SyntheticTextures data(8, 10, 16, 3, /*seed=*/2301);
    Network net = buildMobilenetV1(16, 3, 10, 0.25f, /*seed=*/43);
    std::vector<Tensor> images;
    for (int i = 0; i < 2; ++i)
        images.push_back(data.image(i));
    expectBatchMatchesSolo(net, data.firstImages(4), images);
}

// ---------------------------------------------------------------------
// Runtime layer: the worker's gather window and flush semantics.
// ---------------------------------------------------------------------

/** Shared engine prototypes (untrained MLP: bit-exactness needs none). */
struct Prototypes
{
    SyntheticDigits data{48, 12, /*seed=*/9};
    Network quantNet;
    QuantizationResult quant;

    Prototypes()
        : quantNet(buildMlp3(12, 1, 10, /*seed=*/3)),
          quant(quantizeNetwork(quantNet, data.firstImages(16)))
    {
    }
};

Prototypes &
protos()
{
    static Prototypes p;
    return p;
}

/**
 * Pass-through wrapper that blocks inside solo run() until released.
 * Used as a "plug": the first request parks the single worker inside
 * the replica while the test queues more requests behind it, so the
 * next gather deterministically drains a multi-request batch. Forwards
 * supportsBatch/runBatch so the wrapped replica still coalesces.
 */
class GatedBatchReplica : public ChipReplica
{
  public:
    GatedBatchReplica(std::unique_ptr<ChipReplica> base,
                      std::atomic<bool> *release, std::atomic<int> *entered)
        : base_(std::move(base)), release_(release), entered_(entered)
    {
    }

    InferenceResult run(const InferenceRequest &request) override
    {
        entered_->fetch_add(1, std::memory_order_acq_rel);
        while (!release_->load(std::memory_order_acquire))
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        return base_->run(request);
    }

    bool supportsBatch() const override { return base_->supportsBatch(); }

    std::vector<InferenceResult>
    runBatch(const std::vector<const InferenceRequest *> &requests) override
    {
        return base_->runBatch(requests);
    }

    const ChipStats *chipStats() const override { return base_->chipStats(); }
    void clearStats() override { base_->clearStats(); }
    const char *mode() const override { return base_->mode(); }

  private:
    std::unique_ptr<ChipReplica> base_;
    std::atomic<bool> *release_;
    std::atomic<int> *entered_;
};

/**
 * Batch-capable replica whose first @p poisoned_replicas instances
 * throw on every evaluation; supervisor restarts then produce healthy
 * pass-through instances from the same factory.
 */
class PoisonedBatchReplica : public ChipReplica
{
  public:
    PoisonedBatchReplica(std::unique_ptr<ChipReplica> base, bool poisoned)
        : base_(std::move(base)), poisoned_(poisoned)
    {
    }

    InferenceResult run(const InferenceRequest &request) override
    {
        if (poisoned_)
            throw std::runtime_error("batch replica poisoned");
        return base_->run(request);
    }

    bool supportsBatch() const override { return base_->supportsBatch(); }

    std::vector<InferenceResult>
    runBatch(const std::vector<const InferenceRequest *> &requests) override
    {
        if (poisoned_)
            throw std::runtime_error("batch replica poisoned");
        return base_->runBatch(requests);
    }

    const char *mode() const override { return base_->mode(); }

  private:
    std::unique_ptr<ChipReplica> base_;
    bool poisoned_;
};

TEST(BatchingRuntime, ForcedBatchBitIdenticalToSequentialChip)
{
    Prototypes &p = protos();
    const int n = 6;

    NebulaChip reference;
    reference.programAnn(p.quantNet, p.quant);
    std::vector<Tensor> expected;
    for (int i = 0; i < n; ++i)
        expected.push_back(reference.runAnn(p.data.image(i)));

    std::atomic<bool> release{false};
    std::atomic<int> entered{0};
    ReplicaFactory base = makeAnnReplicaFactory(p.quantNet, p.quant);
    ReplicaFactory factory = [&, base](int worker_id) {
        return std::make_unique<GatedBatchReplica>(base(worker_id), &release,
                                                   &entered);
    };

    EngineConfig cfg;
    cfg.numWorkers = 1; // deterministic batch formation
    cfg.queueCapacity = 16;
    cfg.batching.maxBatch = 8;
    cfg.batching.maxWaitUs = 0; // drain-only: no added latency
    InferenceEngine engine(cfg, factory);

    // Plug the worker, queue the real requests behind it, release.
    auto plug = engine.submit(p.data.image(n));
    while (entered.load(std::memory_order_acquire) == 0)
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    std::vector<std::future<InferenceResult>> futures;
    for (int i = 0; i < n; ++i)
        futures.push_back(engine.submit(p.data.image(i)));
    release.store(true, std::memory_order_release);

    EXPECT_TRUE(plug.get().ok());
    for (int i = 0; i < n; ++i) {
        const InferenceResult result = futures[static_cast<size_t>(i)].get();
        ASSERT_TRUE(result.ok()) << result.errorMessage;
        EXPECT_TRUE(bitIdentical(result.logits,
                                 expected[static_cast<size_t>(i)]))
            << "batched engine logits diverged on image " << i;
        EXPECT_EQ(result.predictedClass,
                  expected[static_cast<size_t>(i)].argmaxRow(0));
        EXPECT_EQ(result.workerId, 0);
    }

    // The gather actually coalesced: a multi-request flush was recorded.
    StatGroup stats = engine.runtimeStats();
    ASSERT_TRUE(stats.hasScalar("batch.size"));
    EXPECT_GE(stats.scalarAt("batch.size").max(),
              static_cast<double>(n));
    engine.shutdown();
}

TEST(BatchingRuntime, SubmitBatchMatchesIndividualSubmits)
{
    Prototypes &p = protos();
    const int n = 8;
    std::vector<Tensor> images;
    for (int i = 0; i < n; ++i)
        images.push_back(p.data.image(i));

    EngineConfig cfg;
    cfg.numWorkers = 2;
    cfg.batching.maxBatch = 4;
    cfg.batching.maxWaitUs = 200;

    std::vector<Tensor> via_batch;
    {
        InferenceEngine engine(cfg,
                               makeAnnReplicaFactory(p.quantNet, p.quant));
        auto futures = engine.submitBatch(images);
        for (auto &f : futures) {
            InferenceResult r = f.get();
            ASSERT_TRUE(r.ok()) << r.errorMessage;
            via_batch.push_back(std::move(r.logits));
        }
        engine.shutdown();
    }
    {
        InferenceEngine engine(cfg,
                               makeAnnReplicaFactory(p.quantNet, p.quant));
        for (int i = 0; i < n; ++i) {
            InferenceResult r = engine.submit(images[static_cast<size_t>(i)])
                                    .get();
            ASSERT_TRUE(r.ok()) << r.errorMessage;
            EXPECT_TRUE(bitIdentical(r.logits,
                                     via_batch[static_cast<size_t>(i)]))
                << "submitBatch vs N x submit diverged on image " << i;
        }
        engine.shutdown();
    }
}

TEST(BatchingRuntime, FlushShedsExpiredAndCancelledTyped)
{
    Prototypes &p = protos();

    std::atomic<bool> release{false};
    std::atomic<int> entered{0};
    ReplicaFactory base = makeAnnReplicaFactory(p.quantNet, p.quant);
    ReplicaFactory factory = [&, base](int worker_id) {
        return std::make_unique<GatedBatchReplica>(base(worker_id), &release,
                                                   &entered);
    };

    EngineConfig cfg;
    cfg.numWorkers = 1;
    cfg.queueCapacity = 16;
    cfg.batching.maxBatch = 8;
    cfg.batching.maxWaitUs = 0;
    InferenceEngine engine(cfg, factory);

    auto plug = engine.submit(p.data.image(0));
    while (entered.load(std::memory_order_acquire) == 0)
        std::this_thread::sleep_for(std::chrono::microseconds(100));

    // A: deadline that expires while the worker is still plugged.
    InferenceRequest expired;
    expired.image = p.data.image(1);
    expired.deadlineNs = 20ull * 1000 * 1000; // 20 ms
    auto expired_future = engine.submit(std::move(expired));

    // B: cancelled while queued.
    InferenceRequest cancelled;
    cancelled.image = p.data.image(2);
    cancelled.cancel = std::make_shared<std::atomic<bool>>(false);
    CancelFlag cancel_flag = cancelled.cancel;
    auto cancelled_future = engine.submit(std::move(cancelled));
    cancel_flag->store(true, std::memory_order_release);

    // C: healthy request in the same gather.
    auto ok_future = engine.submit(p.data.image(3));

    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    release.store(true, std::memory_order_release);

    EXPECT_TRUE(plug.get().ok());
    const InferenceResult expired_result = expired_future.get();
    EXPECT_EQ(expired_result.error, RuntimeErrorKind::Timeout);
    const InferenceResult cancelled_result = cancelled_future.get();
    EXPECT_EQ(cancelled_result.error, RuntimeErrorKind::Cancelled);
    const InferenceResult ok_result = ok_future.get();
    ASSERT_TRUE(ok_result.ok()) << ok_result.errorMessage;

    NebulaChip reference;
    reference.programAnn(p.quantNet, p.quant);
    EXPECT_TRUE(bitIdentical(ok_result.logits,
                             reference.runAnn(p.data.image(3))));
    engine.shutdown();
}

TEST(BatchingRuntime, GatherWindowNeverStarvesLoneDeadlineRequest)
{
    Prototypes &p = protos();

    EngineConfig cfg;
    cfg.numWorkers = 1;
    cfg.batching.maxBatch = 8;
    cfg.batching.maxWaitUs = 2u * 1000 * 1000; // 2 s gather window
    InferenceEngine engine(cfg, makeAnnReplicaFactory(p.quantNet, p.quant));

    // A lone request with a 300 ms budget and an empty queue: the
    // window must close a slack margin before the deadline and the
    // request must be evaluated, not held to expiry or for the full
    // 2 s window.
    const auto start = std::chrono::steady_clock::now();
    InferenceRequest request;
    request.image = p.data.image(0);
    request.deadlineNs = 300ull * 1000 * 1000;
    const InferenceResult result = engine.submit(std::move(request)).get();
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    ASSERT_TRUE(result.ok())
        << "gather window starved a lone deadline request: "
        << result.errorMessage;
    EXPECT_LT(elapsed, 1.5);
    engine.shutdown();
}

TEST(BatchingRuntime, PoisonedBatchReplicaFaultsTypedAndRecovers)
{
    Prototypes &p = protos();

    std::atomic<int> built{0};
    ReplicaFactory base = makeAnnReplicaFactory(p.quantNet, p.quant);
    ReplicaFactory factory = [&, base](int worker_id) {
        const bool poisoned =
            built.fetch_add(1, std::memory_order_acq_rel) == 0;
        return std::make_unique<PoisonedBatchReplica>(base(worker_id),
                                                      poisoned);
    };

    EngineConfig cfg;
    cfg.numWorkers = 1;
    cfg.queueCapacity = 16;
    cfg.maxConsecutiveFaults = 1;
    cfg.batching.maxBatch = 4;
    cfg.batching.maxWaitUs = 100;
    InferenceEngine engine(cfg, factory);

    // First wave hits the poisoned replica: every future resolves to a
    // typed outcome (fault or ok after restart), never a broken promise.
    std::vector<std::future<InferenceResult>> wave1;
    for (int i = 0; i < 4; ++i)
        wave1.push_back(engine.submit(p.data.image(i)));
    int faults = 0;
    for (auto &f : wave1) {
        const InferenceResult r = f.get();
        EXPECT_TRUE(r.ok() || r.error == RuntimeErrorKind::ReplicaFault);
        faults += r.error == RuntimeErrorKind::ReplicaFault ? 1 : 0;
    }
    EXPECT_GE(faults, 1);
    engine.waitIdle();
    EXPECT_GE(engine.workerRestarts(), 1u);

    // Second wave runs on the restarted healthy replica and still
    // batches bit-identically to the sequential reference.
    NebulaChip reference;
    reference.programAnn(p.quantNet, p.quant);
    std::vector<std::future<InferenceResult>> wave2;
    for (int i = 0; i < 4; ++i)
        wave2.push_back(engine.submit(p.data.image(i)));
    for (int i = 0; i < 4; ++i) {
        const InferenceResult r = wave2[static_cast<size_t>(i)].get();
        ASSERT_TRUE(r.ok()) << r.errorMessage;
        EXPECT_TRUE(bitIdentical(r.logits,
                                 reference.runAnn(p.data.image(i))));
    }
    engine.shutdown();
}

TEST(BatchingRuntime, RandomArrivalsDeadlinesPoliciesAlwaysResolveTyped)
{
    Prototypes &p = protos();
    const ShedPolicy policies[] = {ShedPolicy::Block,
                                   ShedPolicy::RejectWhenFull,
                                   ShedPolicy::DeadlineAware};

    for (uint64_t seed = 0; seed < 6; ++seed) {
        Rng rng(seed ^ 0xf022ba7c4ull);
        EngineConfig cfg;
        cfg.numWorkers = rng.uniformInt(1, 3);
        cfg.queueCapacity = 8;
        cfg.shedPolicy = policies[rng.uniformInt(0, 2)];
        cfg.batching.maxBatch = rng.uniformInt(1, 6);
        cfg.batching.maxWaitUs =
            static_cast<uint64_t>(rng.uniformInt(0, 10)) * 100;
        InferenceEngine engine(cfg,
                               makeAnnReplicaFactory(p.quantNet, p.quant));

        std::mutex mutex;
        std::vector<std::future<InferenceResult>> futures;
        auto producer = [&](uint64_t thread_seed) {
            Rng local(thread_seed);
            for (int i = 0; i < 12; ++i) {
                InferenceRequest request;
                request.image = p.data.image(local.uniformInt(0, 15));
                const int roll = local.uniformInt(0, 9);
                if (roll < 3)
                    request.deadlineNs = static_cast<uint64_t>(
                        local.uniformInt(1, 50)) * 1000 * 1000;
                CancelFlag cancel;
                if (roll >= 8) {
                    cancel = std::make_shared<std::atomic<bool>>(false);
                    request.cancel = cancel;
                }
                auto future = engine.submit(std::move(request));
                if (cancel)
                    cancel->store(true, std::memory_order_release);
                {
                    std::lock_guard<std::mutex> lock(mutex);
                    futures.push_back(std::move(future));
                }
                if (local.uniformInt(0, 3) == 0)
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(local.uniformInt(0, 300)));
            }
        };
        std::thread a(producer, seed * 2 + 1), b(producer, seed * 2 + 2);
        a.join();
        b.join();

        for (auto &f : futures) {
            const InferenceResult r = f.get();
            // Healthy replicas: the only terminal outcomes are ok and
            // the admission/deadline/cancel sheds.
            EXPECT_TRUE(r.ok() || r.error == RuntimeErrorKind::Timeout ||
                        r.error == RuntimeErrorKind::Shed ||
                        r.error == RuntimeErrorKind::Cancelled)
                << "unexpected outcome: " << r.errorMessage;
            if (r.ok()) {
                EXPECT_EQ(r.logits.size(), 10);
            }
        }
        engine.shutdown();
        EXPECT_EQ(engine.submitted(), engine.completed());
    }
}

} // namespace
} // namespace testing
} // namespace nebula
