/**
 * @file
 * Serving-throughput study for the concurrent inference runtime:
 * images/sec of the worker-pool engine at 1, 2, 4 and 8 workers on the
 * paper's MLP workload (quantized, ANN mode, synthetic digits), with
 * speedup relative to one worker and the mean request latency. Scaling
 * tops out at the machine's core count: on an N-core host the curve
 * should be near-linear up to N workers and flat beyond.
 *
 * Also measures the fast evaluation paths against fixed comparators in
 * the same binary, so the recorded ratios are machine-relative and CI
 * can regress on them without depending on absolute host speed:
 * `snn.speedup` (MLP) and `snn.conv.speedup` (LeNet-5) time the
 * preplanned SNN pipeline against the chip's shared layer walk on the
 * same chip, and `ann.speedup` times the batched crossbar kernel
 * against the naive src/testing oracle over LeNet-5 conv1 ANN windows.
 * Every paired measurement alternates its two sides over three rounds
 * and keeps each side's best.
 *
 * Also measures resilience under overload (shed/timeout ratios for a
 * burst against RejectWhenFull admission control and a tight deadline)
 * and closed-loop recovery from retention decay: the recorded
 * `resilience.recovery_ratio` is deterministically 1.0 because repair
 * re-programs the same weights onto the same crossbars, and CI
 * regresses on it alongside the speedups.
 *
 * Also microbenchmarks the per-request engine overhead (inline mode vs
 * a direct chip call) so queue/promise costs stay visible.
 *
 * Set NEBULA_BENCH_TINY=1 to shrink every study to smoke-test size
 * (small batches, short SNN windows) for CI.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "circuit/driver.hpp"
#include "common/table.hpp"
#include "nn/conv.hpp"
#include "nn/datasets.hpp"
#include "nn/models.hpp"
#include "nn/quantize.hpp"
#include "nn/trainer.hpp"
#include "reliability/fault_model.hpp"
#include "reliability/health.hpp"
#include "runtime/engine.hpp"
#include "runtime/replica.hpp"
#include "snn/convert.hpp"
#include "testing/chip_access.hpp"
#include "testing/reference_crossbar.hpp"

#include "bench_common.hpp"

namespace nebula {
namespace {

/** CI smoke-test mode: tiny shapes, same code paths. */
bool
tinyMode()
{
    const char *env = std::getenv("NEBULA_BENCH_TINY");
    return env != nullptr && env[0] == '1';
}

/** Quantized MLP prototype + images, built once. */
struct Workload
{
    SyntheticDigits data{256, 16, /*seed=*/5};
    Network net;
    Network floatNet; //!< pre-quantization clone (SNN conversion source)
    QuantizationResult quant;
    std::vector<Tensor> images;

    Workload() : net(buildMlp3(16, 1, 10, /*seed=*/11))
    {
        // A few SGD epochs lift clean accuracy well above chance so the
        // resilience study's clean/degraded/recovered rows measure real
        // classification loss -- an untrained net pins every pass at
        // ~0.09 (pure chance) and hides the decay it is probing for.
        TrainConfig tc;
        tc.epochs = 3;
        SgdTrainer trainer(tc);
        trainer.train(net, data);
        floatNet = net.clone();
        quant = quantizeNetwork(net, data.firstImages(64));
        for (int i = 0; i < data.size(); ++i)
            images.push_back(data.image(i));
    }
};

Workload &
workload()
{
    static Workload w;
    return w;
}

/**
 * Best rate of each side over three rounds that alternate the sides:
 * host speed drifts over the tens of milliseconds one measurement
 * takes, and alternating puts both sides under the same drift.
 */
std::array<double, 2>
alternatingBest(const std::function<double()> &a,
                const std::function<double()> &b)
{
    std::array<double, 2> best = {0.0, 0.0};
    for (int round = 0; round < 3; ++round) {
        best[0] = std::max(best[0], a());
        best[1] = std::max(best[1], b());
    }
    return best;
}

/**
 * Items per second of the fastest of three timed repetitions, each
 * calling @p fn (which handles @p items items per call) until the
 * repetition has lasted at least @p min_seconds (0: one call).
 */
double
bestOf3Rate(double items, const std::function<void()> &fn,
            double min_seconds = 0.0)
{
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
        const auto start = std::chrono::steady_clock::now();
        double seconds = 0.0;
        int calls = 0;
        do {
            fn();
            ++calls;
            seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
        } while (seconds < min_seconds);
        best = std::max(best, calls * items / seconds);
    }
    return best;
}

/**
 * Shortest timed repetition of a serving study: the tiny sections last
 * about a millisecond, short enough for one scheduler slice to move a
 * gated ratio by a third, so each repetition repeats its submit loop
 * for at least this long.
 */
constexpr double kMinServingRepSeconds = 0.02;

/**
 * A warmed-up MLP serving engine kept for repeated timing: a paired
 * study builds one per side and times it in every round, so each round
 * compares the same two engines rather than a freshly built pair.
 */
std::unique_ptr<InferenceEngine>
makeThroughputEngine(int workers, const BatchingConfig &batching = {})
{
    Workload &w = workload();
    EngineConfig cfg;
    cfg.numWorkers = workers;
    cfg.queueCapacity = 2 * w.images.size();
    cfg.batching = batching;
    auto engine = std::make_unique<InferenceEngine>(
        cfg, makeAnnReplicaFactory(w.net, w.quant));

    // Warm-up: fault in every replica's code/data paths.
    for (auto &f : engine->submitBatch({w.images[0], w.images[1]}))
        f.get();
    return engine;
}

/** Images/sec of @p engine over @p batches saturated workload batches. */
double
measureThroughput(InferenceEngine &engine, int batches)
{
    Workload &w = workload();
    // Best-of-3 repetitions of at least kMinServingRepSeconds each: a
    // single scheduler preemption on a small CI host can still slow one
    // repetition. The fastest repetition is the least-disturbed one;
    // ratios between studies stay meaningful because every study
    // rejects interference the same way.
    return bestOf3Rate(
        static_cast<double>(batches) * w.images.size(),
        [&] {
            for (int b = 0; b < batches; ++b)
                for (auto &future : engine.submitBatch(w.images))
                    future.get();
        },
        kMinServingRepSeconds);
}

/** Mean request latency (ms) over everything @p engine served. */
double
meanLatencyMs(InferenceEngine &engine)
{
    return engine.runtimeStats().scalarAt("latency_ms").mean();
}

/** Mean flushed batch size of @p engine (1 when it never batched). */
double
meanBatchSize(InferenceEngine &engine)
{
    const StatGroup stats = engine.runtimeStats();
    return stats.hasScalar("batch.size") ? stats.scalarAt("batch.size").mean()
                                         : 1.0;
}

void
printThroughputStudy()
{
    const unsigned cores = std::thread::hardware_concurrency();
    Table table("Serving throughput vs worker count (MLP, ANN mode, " +
                    std::to_string(workload().images.size()) +
                    "-image batches; host has " + std::to_string(cores) +
                    " core(s))",
                {"workers", "images/sec", "speedup vs 1", "mean latency "
                                                          "(ms)"});

    double base = 0.0;
    const std::vector<int> worker_counts =
        tinyMode() ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};
    const int batches = tinyMode() ? 1 : 2;
    for (int workers : worker_counts) {
        const auto engine = makeThroughputEngine(workers);
        const double rate = measureThroughput(*engine, batches);
        const double latency_ms = meanLatencyMs(*engine);
        engine->shutdown();
        if (workers == 1)
            base = rate;
        bench::record("images_per_sec.w" + std::to_string(workers), rate);
        bench::record("mean_latency_ms.w" + std::to_string(workers),
                      latency_ms);
        table.row()
            .add(static_cast<long long>(workers))
            .add(rate, 1)
            .add(formatRatio(rate / base))
            .add(latency_ms, 3);
    }
    table.print(std::cout);
    std::cout << "\nSpeedup saturates at the host core count (" << cores
              << "); >2x at 4 workers requires >= 4 cores.\n\n";
}

/**
 * Dynamic micro-batching study at the 2-worker operating point the
 * committed baselines pin: the same saturated offered load served with
 * the gather window off vs on (drain-only, maxWaitUs = 0 -- the worker
 * coalesces whatever is already queued, adding no latency): one engine
 * per side, alternated over three rounds. The recorded
 * `throughput.w2.speedup.batched` ratio divides out host speed, so CI
 * regresses on it; `batch.mean_size.w2` documents how large the windows
 * actually got under this load (over all rounds, as are the latencies).
 */
void
printBatchedThroughputStudy()
{
    const int batches = tinyMode() ? 1 : 2;

    BatchingConfig bc;
    bc.maxBatch = 32;
    bc.maxWaitUs = 0;
    const auto solo_engine = makeThroughputEngine(2);
    const auto batched_engine = makeThroughputEngine(2, bc);
    const std::array<double, 2> rates = alternatingBest(
        [&] { return measureThroughput(*solo_engine, batches); },
        [&] { return measureThroughput(*batched_engine, batches); });
    const double lat_solo = meanLatencyMs(*solo_engine);
    const double lat_batched = meanLatencyMs(*batched_engine);
    const double mean_batch = meanBatchSize(*batched_engine);
    solo_engine->shutdown();
    batched_engine->shutdown();
    const double solo = rates[0];
    const double batched = rates[1];
    const double speedup = batched / solo;

    bench::record("images_per_sec.w2.batched", batched);
    bench::record("batch.mean_size.w2", mean_batch);
    bench::record("throughput.w2.speedup.batched", speedup);

    Table table("Dynamic micro-batching, 2 workers (maxBatch=32, "
                "drain-only window)",
                {"config", "images/sec", "mean batch", "mean latency (ms)",
                 "speedup"});
    table.row()
        .add("unbatched")
        .add(solo, 1)
        .add("1.00")
        .add(lat_solo, 3)
        .add("1.00x");
    table.row()
        .add("batched")
        .add(batched, 1)
        .add(formatDouble(mean_batch, 2))
        .add(lat_batched, 3)
        .add(formatRatio(speedup));
    table.print(std::cout);
    std::cout << "\nDrain-only batching amortizes the conductance-view "
                 "stream across every request already queued; under a "
                 "saturated queue the window fills to maxBatch.\n\n";
}

/**
 * A warmed-up single-worker engine built from @p factory, sized for
 * @p images queued requests; like makeThroughputEngine(), one per side
 * of a paired study.
 */
std::unique_ptr<InferenceEngine>
makeServingEngine(const ReplicaFactory &factory, int images,
                  const BatchingConfig &batching = {})
{
    EngineConfig cfg;
    cfg.numWorkers = 1;
    cfg.queueCapacity = static_cast<size_t>(2 * images + 4);
    cfg.batching = batching;
    auto engine = std::make_unique<InferenceEngine>(cfg, factory);
    engine->submit(workload().images[0]).get(); // warm-up
    return engine;
}

/** Images/sec of @p engine serving the first @p images workload images. */
double
measureServingRate(InferenceEngine &engine, int images)
{
    Workload &w = workload();
    std::vector<Tensor> batch(w.images.begin(), w.images.begin() + images);
    // Best-of-3, for the same reason as measureThroughput: the fastest
    // repetition is the one the host scheduler disturbed least.
    return bestOf3Rate(
        images,
        [&] {
            for (auto &future : engine.submitBatch(batch))
                future.get();
        },
        kMinServingRepSeconds);
}

/**
 * SNN images/sec of @p model on one chip, plan vs shared layer walk:
 * direct runSnn calls with fixed encoder seeds, so both sides do the
 * same work, and ChipAccess to reach the walk on the same chip.
 */
std::array<double, 2>
snnPlanVsWalk(SpikingModel model, int images, int timesteps)
{
    Workload &w = workload();
    NebulaChip chip;
    chip.programSnn(model);
    auto side = [&](bool plan) {
        return bestOf3Rate(images, [&] {
            for (int i = 0; i < images; ++i) {
                const Tensor &image = w.images[static_cast<size_t>(i)];
                const uint64_t seed = 1000 + static_cast<uint64_t>(i);
                if (plan)
                    chip.runSnn(image, timesteps, seed);
                else
                    testing::ChipAccess::runSnnWalk(chip, image, timesteps,
                                                    seed);
            }
        });
    };
    return alternatingBest([&] { return side(false); },
                           [&] { return side(true); });
}

/**
 * Windows/sec of the batched crossbar kernel vs the naive src/testing
 * oracle on LeNet-5 conv1 in ANN mode: the layer's weights programmed
 * the way the chip maps them, and every image's DAC-quantized 5x5
 * windows evaluated one output row per evaluateIdealBatch call, as the
 * chip's layer walk issues them.
 */
std::array<double, 2>
annConvKernelVsReference(const Network &lenet, int images)
{
    Workload &w = workload();
    const auto &conv = static_cast<const Conv2d &>(lenet.layer(0));
    const Tensor &weight = *conv.constParameters()[0];
    const int rf = conv.receptiveField();
    const int kernels = conv.numKernels();
    const int k = conv.kernel(), pad = conv.padding();

    CrossbarParams xp;
    xp.rows = rf;
    xp.cols = kernels;
    xp.readVoltage = 0.75;
    const float scale = std::max(weight.maxAbs(), 1e-6f);
    std::vector<float> cells(static_cast<size_t>(rf) * kernels);
    for (int r = 0; r < rf; ++r)
        for (int j = 0; j < kernels; ++j)
            cells[static_cast<size_t>(r) * kernels + j] =
                weight[static_cast<long long>(j) * rf + r] / scale;
    CrossbarArray xbar(xp);
    xbar.programWeights(cells);

    const DacDriver dac(4, 0.75);
    const int side = w.images[0].dim(1);
    const int out = side + 2 * pad - k + 1;
    std::vector<std::vector<double>> rows; // one output row of windows
    for (int i = 0; i < images; ++i) {
        const Tensor &image = w.images[static_cast<size_t>(i)];
        for (int oh = 0; oh < out; ++oh) {
            std::vector<double> row(static_cast<size_t>(out) * rf, 0.0);
            for (int ow = 0; ow < out; ++ow)
                for (int kh = 0; kh < k; ++kh)
                    for (int kw = 0; kw < k; ++kw) {
                        const int ih = oh - pad + kh, iw = ow - pad + kw;
                        if (ih < 0 || ih >= side || iw < 0 || iw >= side)
                            continue;
                        row[static_cast<size_t>(ow) * rf + kh * k + kw] =
                            dac.normalizedOutput(
                                dac.quantize(image[ih * side + iw]));
                    }
            rows.push_back(std::move(row));
        }
    }

    const double windows = static_cast<double>(rows.size()) * out;
    double sink = 0.0;
    auto batched = [&] {
        return bestOf3Rate(windows, [&] {
            for (const auto &row : rows)
                sink += xbar.evaluateIdealBatch(row, out, 110e-9).energy;
        });
    };
    auto reference = [&] {
        std::vector<double> window(static_cast<size_t>(rf));
        return bestOf3Rate(windows, [&] {
            for (const auto &row : rows)
                for (int ow = 0; ow < out; ++ow) {
                    std::copy_n(row.begin() +
                                    static_cast<std::ptrdiff_t>(ow) * rf,
                                rf, window.begin());
                    sink += testing::referenceIdeal(xbar, window, 110e-9)
                                .energy;
                }
        });
    };
    const std::array<double, 2> rates = alternatingBest(reference, batched);
    benchmark::DoNotOptimize(sink);
    return rates;
}

/**
 * Fast-path study: each fast path against a fixed comparator in this
 * binary. SNN: the preplanned pipeline vs the shared layer walk on the
 * same chip (MLP and LeNet-5). ANN: the batched crossbar kernel vs the
 * naive oracle on LeNet-5 conv1 windows, plus the served ANN engine
 * with and without the micro-batch gather window.
 */
void
printFastPathStudy()
{
    Workload &w = workload();
    const bool tiny = tinyMode();
    const int snn_images = tiny ? 12 : 64;
    const int snn_timesteps = tiny ? 6 : 16;
    const int conv_images = tiny ? 8 : 32;
    const int ann_images = tiny ? 24 : 128;
    const int kernel_images = tiny ? 8 : 32;

    Table table("Fast evaluation paths vs fixed comparators (SNN MLP " +
                    std::to_string(snn_images) + " / LeNet-5 " +
                    std::to_string(conv_images) + " images x T=" +
                    std::to_string(snn_timesteps) + " on one chip; ANN " +
                    "conv1 kernel over " + std::to_string(kernel_images) +
                    " images; served ANN " + std::to_string(ann_images) +
                    " images, 1 worker)",
                {"mode", "path", "rate", "speedup"});

    Network clone = w.floatNet.clone();
    const std::array<double, 2> snn_rates = snnPlanVsWalk(
        convertToSnn(clone, w.data.firstImages(32)), snn_images,
        snn_timesteps);
    const double snn_speedup = snn_rates[1] / snn_rates[0];
    bench::record("snn.images_per_sec.walk", snn_rates[0]);
    bench::record("snn.images_per_sec.fast", snn_rates[1]);
    bench::record("snn.speedup", snn_speedup);
    table.row().add("snn mlp").add("layer walk").add(snn_rates[0], 1).add(
        "1.00x");
    table.row().add("snn mlp").add("plan").add(snn_rates[1], 1).add(
        formatRatio(snn_speedup));

    // Conv SNN (LeNet-5 at 16x16): the plan scatters input spikes into
    // the conv windows they touch and runs pools and IF layers on
    // preallocated buffers.
    Network lenet = buildLenet5(16, 1, 10, /*seed=*/11);
    const std::array<double, 2> conv_rates = snnPlanVsWalk(
        convertToSnn(lenet, w.data.firstImages(32)), conv_images,
        snn_timesteps);
    const double conv_speedup = conv_rates[1] / conv_rates[0];
    bench::record("snn.conv.images_per_sec.walk", conv_rates[0]);
    bench::record("snn.conv.images_per_sec.fast", conv_rates[1]);
    bench::record("snn.conv.speedup", conv_speedup);
    table.row()
        .add("snn lenet5")
        .add("layer walk")
        .add(conv_rates[0], 1)
        .add("1.00x");
    table.row()
        .add("snn lenet5")
        .add("plan")
        .add(conv_rates[1], 1)
        .add(formatRatio(conv_speedup));

    const std::array<double, 2> kernel_rates =
        annConvKernelVsReference(lenet, kernel_images);
    const double ann_speedup = kernel_rates[1] / kernel_rates[0];
    bench::record("ann.windows_per_sec.reference", kernel_rates[0]);
    bench::record("ann.windows_per_sec.batched", kernel_rates[1]);
    bench::record("ann.speedup", ann_speedup);
    table.row()
        .add("ann conv1 windows")
        .add("naive oracle")
        .add(kernel_rates[0], 1)
        .add("1.00x");
    table.row()
        .add("ann conv1 windows")
        .add("batched kernel")
        .add(kernel_rates[1], 1)
        .add(formatRatio(ann_speedup));

    // The served ANN path with and without the micro-batch gather
    // window: under a saturated queue the worker flushes whole windows
    // through the batched GEMM-style kernels.
    BatchingConfig bc;
    bc.maxBatch = 32;
    bc.maxWaitUs = 0;
    const ReplicaFactory factory = makeAnnReplicaFactory(w.net, w.quant);
    const auto solo_engine = makeServingEngine(factory, ann_images);
    const auto batched_engine =
        makeServingEngine(factory, ann_images, bc);
    const std::array<double, 2> ann_rates = alternatingBest(
        [&] { return measureServingRate(*solo_engine, ann_images); },
        [&] { return measureServingRate(*batched_engine, ann_images); });
    const double ann_mean_batch = meanBatchSize(*batched_engine);
    solo_engine->shutdown();
    batched_engine->shutdown();
    const double ann_batch_gain = ann_rates[1] / ann_rates[0];
    bench::record("ann.images_per_sec.fast", ann_rates[0]);
    bench::record("ann.images_per_sec.batched", ann_rates[1]);
    bench::record("ann.speedup.batched", ann_batch_gain);
    bench::record("batch.mean_size", ann_mean_batch);
    table.row().add("ann served").add("solo").add(ann_rates[0], 1).add(
        "1.00x");
    table.row()
        .add("ann served")
        .add("batched")
        .add(ann_rates[1], 1)
        .add(formatRatio(ann_batch_gain));

    table.print(std::cout);
    std::cout << "\nRates are images/sec, or crossbar windows/sec for the "
                 "conv1 rows. Differential tests pin every fast path to "
                 "its comparator bit for bit. The batched served row "
                 "gathers drain-only windows (mean size "
              << formatDouble(ann_mean_batch, 2)
              << "); `ann.speedup.batched` compares it against solo "
                 "serving.\n\n";
}

/**
 * Overload + closed-loop-recovery study.
 *
 * Overload: a burst far larger than the queue is thrown at a small
 * pool under RejectWhenFull (recording `overload.shed.ratio`) and
 * under a tight per-request deadline (recording
 * `overload.timeout.ratio`). The ratios are load-dependent
 * observability numbers, not regression-gated -- they exist so the
 * BENCH artifact shows how admission control behaved on this host.
 *
 * Recovery: an inline engine with the HealthMonitor attached serves an
 * accuracy pass, has its live crossbars re-programmed under a
 * retention-decay ramp via withReplicas (the silent-drift scenario),
 * serves a degraded pass during which a canary probe catches the drift
 * and repairs in place, then serves a recovered pass. Repair is a
 * clean re-programming of the same weights, so the recovered pass is
 * bit-identical to the clean one and `resilience.recovery_ratio`
 * (recovered correct / clean correct) is deterministically 1.0 -- CI
 * regresses on it.
 */
void
printResilienceStudy()
{
    Workload &w = workload();
    const bool tiny = tinyMode();

    // -- overload: shed + timeout ratios under a burst -------------------
    const int burst = tiny ? 64 : 256;
    std::vector<Tensor> images;
    for (int i = 0; i < burst; ++i)
        images.push_back(w.images[static_cast<size_t>(i) % w.images.size()]);

    long long shed = 0;
    long long shed_delivered = 0;
    {
        EngineConfig cfg;
        cfg.numWorkers = 2;
        cfg.queueCapacity = 16;
        cfg.shedPolicy = ShedPolicy::RejectWhenFull;
        InferenceEngine engine(cfg, makeAnnReplicaFactory(w.net, w.quant));
        for (auto &future : engine.submitBatch(images)) {
            const InferenceResult result = future.get();
            if (result.ok())
                ++shed_delivered;
            else if (result.error == RuntimeErrorKind::Shed)
                ++shed;
        }
        engine.shutdown();
    }

    long long timeouts = 0;
    long long deadline_delivered = 0;
    {
        EngineConfig cfg;
        cfg.numWorkers = 1;
        cfg.queueCapacity = images.size() + 4;
        cfg.defaultDeadlineNs = 1000000; // 1 ms: the burst tail expires
        InferenceEngine engine(cfg, makeAnnReplicaFactory(w.net, w.quant));
        for (auto &future : engine.submitBatch(images)) {
            const InferenceResult result = future.get();
            if (result.ok())
                ++deadline_delivered;
            else if (result.error == RuntimeErrorKind::Timeout)
                ++timeouts;
        }
        engine.shutdown();
    }

    const double shed_ratio = static_cast<double>(shed) / burst;
    const double timeout_ratio = static_cast<double>(timeouts) / burst;
    bench::record("overload.shed.ratio", shed_ratio);
    bench::record("overload.timeout.ratio", timeout_ratio);

    Table overload("Overload: " + std::to_string(burst) +
                       "-request burst vs admission control",
                   {"policy", "delivered", "shed", "timeouts", "ratio"});
    overload.row()
        .add("reject-when-full (q=16, 2 workers)")
        .add(shed_delivered)
        .add(shed)
        .add(0ll)
        .add(formatDouble(shed_ratio, 3) + " shed");
    overload.row()
        .add("1 ms deadline (1 worker)")
        .add(deadline_delivered)
        .add(0ll)
        .add(timeouts)
        .add(formatDouble(timeout_ratio, 3) + " timeout");
    overload.print(std::cout);

    // -- closed-loop recovery --------------------------------------------
    const int eval_images = tiny ? 32 : 128;
    HealthConfig hc;
    hc.probeEvery = 16;
    hc.tolerance = 1e-6;
    hc.repairWith = {}; // repair = clean re-programming pass
    std::vector<Tensor> canaries;
    canaries.push_back(w.images[0]);
    canaries.push_back(w.images[1]);
    auto health = std::make_shared<HealthMonitor>(hc, std::move(canaries));

    EngineConfig cfg;
    cfg.numWorkers = 0; // inline: deterministic probe schedule
    cfg.health = health;
    InferenceEngine engine(cfg, makeAnnReplicaFactory(w.net, w.quant));

    const auto countCorrect = [&]() {
        std::vector<Tensor> batch(w.images.begin(),
                                  w.images.begin() + eval_images);
        long long correct = 0;
        auto futures = engine.submitBatch(batch);
        for (int i = 0; i < eval_images; ++i) {
            const InferenceResult result =
                futures[static_cast<size_t>(i)].get();
            if (result.ok() && result.predictedClass == w.data.label(i))
                ++correct;
        }
        return correct;
    };

    const long long clean = countCorrect();

    ReliabilityConfig decay; // aged crossbars: walls relaxed mid-service
    decay.faults = std::make_shared<RetentionDecayFaultModel>(
        /*elapsed=*/5.0, /*tau=*/1.0, /*sigma=*/0.3);
    engine.withReplicas(
        [&](ChipReplica &replica) { replica.reprogram(decay); });

    const long long degraded = countCorrect();
    const long long recovered = countCorrect();
    engine.shutdown();

    const double recovery_ratio =
        static_cast<double>(recovered) / std::max(1ll, clean);
    bench::record("resilience.accuracy.clean",
                  static_cast<double>(clean) / eval_images);
    bench::record("resilience.accuracy.degraded",
                  static_cast<double>(degraded) / eval_images);
    bench::record("resilience.accuracy.recovered",
                  static_cast<double>(recovered) / eval_images);
    bench::record("resilience.recovery_ratio", recovery_ratio);

    Table recovery("Closed-loop recovery: retention decay injected "
                   "mid-run, canary probe every " +
                       std::to_string(hc.probeEvery) + " requests (" +
                       std::to_string(eval_images) + " images/pass)",
                   {"phase", "correct", "accuracy"});
    recovery.row().add("clean").add(clean).add(
        formatDouble(100.0 * clean / eval_images, 1) + "%");
    recovery.row().add("decayed").add(degraded).add(
        formatDouble(100.0 * degraded / eval_images, 1) + "%");
    recovery.row().add("recovered").add(recovered).add(
        formatDouble(100.0 * recovered / eval_images, 1) + "%");
    recovery.print(std::cout);

    std::cout << "\nhealth: " << health->probes() << " probes, "
              << health->degradations() << " degradation(s), "
              << health->repairs() << " repair(s); recovery ratio "
              << formatDouble(recovery_ratio, 3)
              << " (repair re-programs the same weights, so recovered "
                 "== clean exactly)\n\n";
}

/** Per-request overhead: inline engine vs direct chip call. */
void
BM_EngineInlineRequest(benchmark::State &state)
{
    Workload &w = workload();
    EngineConfig cfg;
    cfg.numWorkers = 0;
    InferenceEngine engine(cfg, makeAnnReplicaFactory(w.net, w.quant));
    size_t i = 0;
    for (auto _ : state) {
        auto future = engine.submit(w.images[i++ % w.images.size()]);
        benchmark::DoNotOptimize(future.get().predictedClass);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineInlineRequest)->Unit(benchmark::kMicrosecond);

void
BM_EnginePoolRequest(benchmark::State &state)
{
    Workload &w = workload();
    EngineConfig cfg;
    cfg.numWorkers = static_cast<int>(state.range(0));
    InferenceEngine engine(cfg, makeAnnReplicaFactory(w.net, w.quant));
    size_t i = 0;
    for (auto _ : state) {
        auto future = engine.submit(w.images[i++ % w.images.size()]);
        benchmark::DoNotOptimize(future.get().predictedClass);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EnginePoolRequest)->Arg(1)->Arg(4)->Unit(
    benchmark::kMicrosecond);

} // namespace
} // namespace nebula

int
main(int argc, char **argv)
{
    nebula::printThroughputStudy();
    nebula::printBatchedThroughputStudy();
    nebula::printFastPathStudy();
    nebula::printResilienceStudy();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    nebula::bench::writeBenchSummary(argv[0]);
    return 0;
}
