/**
 * @file
 * Fast-path state-management tests: the crossbar EvalCache must never
 * serve stale derived state after programming, fault injection, or
 * mitigation-driven column remapping, and the chip / functional SNN
 * backends must consume identical per-request encoder seed streams.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <sstream>

#include "arch/chip.hpp"
#include "nn/activations.hpp"
#include "nn/conv.hpp"
#include "nn/linear.hpp"
#include "nn/models.hpp"
#include "nn/pooling.hpp"
#include "reliability/campaign.hpp"
#include "runtime/request.hpp"
#include "snn/snn_sim.hpp"
#include "testing/chip_access.hpp"
#include "testing/reference_crossbar.hpp"

namespace nebula {
namespace testing {
namespace {

constexpr double kCycle = 110e-9;

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

/** Random weights in [-1, 1] for a rows x cols array. */
std::vector<float>
randomWeights(int rows, int cols, uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> w(static_cast<size_t>(rows) * cols);
    for (auto &v : w)
        v = static_cast<float>(rng.uniform(-1.0, 1.0));
    return w;
}

std::vector<double>
rampInputs(int rows)
{
    std::vector<double> inputs(static_cast<size_t>(rows));
    for (int i = 0; i < rows; ++i)
        inputs[static_cast<size_t>(i)] =
            0.1 + 0.8 * static_cast<double>(i) / std::max(rows - 1, 1);
    return inputs;
}

TEST(CrossbarCache, FaultInjectionAfterEvalIsNotStale)
{
    CrossbarParams params;
    params.rows = 16;
    params.cols = 8;
    CrossbarArray xbar(params);
    xbar.programWeights(randomWeights(16, 8, 11));

    const auto inputs = rampInputs(16);
    // First evaluation builds the cache.
    const CrossbarEval before = xbar.evaluateIdeal(inputs, kCycle);
    EXPECT_TRUE(compareEval(before, referenceIdeal(xbar, inputs, kCycle),
                            0.0)
                    .empty());

    // Break a column and a row *after* the cache was built. The open
    // lines change what evaluation reads without any reprogramming.
    FaultMap map(16, 8);
    map.setColOpen(3);
    map.setRowOpen(5);
    xbar.injectFaults(std::move(map));

    const CrossbarEval after = xbar.evaluateIdeal(inputs, kCycle);
    EXPECT_TRUE(compareEval(after, referenceIdeal(xbar, inputs, kCycle),
                            0.0)
                    .empty())
        << "cached conductances served after fault injection";
    EXPECT_EQ(after.currents[3], 0.0);
    EXPECT_NE(before.currents[3], after.currents[3]);

    // The sparse path reads the same cache.
    SpikeVector all_rows;
    for (int i = 0; i < 16; ++i)
        all_rows.push_back(i);
    const CrossbarEval sparse = xbar.evaluateSparse(all_rows, kCycle);
    const std::vector<double> ones(16, 1.0);
    EXPECT_TRUE(
        compareEval(sparse, referenceIdeal(xbar, ones, kCycle), 0.0)
            .empty());
}

TEST(CrossbarCache, ReprogramAfterEvalIsNotStale)
{
    CrossbarParams params;
    params.rows = 12;
    params.cols = 6;
    CrossbarArray xbar(params);
    const auto inputs = rampInputs(12);

    xbar.programWeights(randomWeights(12, 6, 21));
    const CrossbarEval first = xbar.evaluateIdeal(inputs, kCycle);

    xbar.programWeights(randomWeights(12, 6, 22));
    const CrossbarEval second = xbar.evaluateIdeal(inputs, kCycle);

    EXPECT_TRUE(compareEval(second, referenceIdeal(xbar, inputs, kCycle),
                            0.0)
                    .empty())
        << "cached conductances served after reprogramming";
    EXPECT_FALSE(compareEval(first, second, 0.0).empty())
        << "different weights should change the currents";
}

TEST(CrossbarCache, MitigatedProgramRemapsCacheView)
{
    // Write-verify + spare-column repair: programming remaps a broken
    // column onto a spare, so the cached logical view must follow the
    // new remap table, not the one from the previous build.
    CrossbarParams params;
    params.rows = 16;
    params.cols = 8;
    params.spareCols = 2;
    CrossbarArray xbar(params);
    const auto inputs = rampInputs(16);
    const auto weights = randomWeights(16, 8, 31);

    ProgrammingConfig clean;
    clean.writeVerify.enabled = true;
    xbar.program(weights, clean);
    const CrossbarEval before = xbar.evaluateIdeal(inputs, kCycle);
    EXPECT_TRUE(compareEval(before, referenceIdeal(xbar, inputs, kCycle),
                            0.0)
                    .empty());
    EXPECT_EQ(xbar.sparesUsed(), 0);

    FaultMap map(16, 8 + 2);
    map.setColOpen(2); // logical column 2 broken -> repairable
    xbar.injectFaults(std::move(map));

    ProgrammingConfig mitigated;
    mitigated.writeVerify.enabled = true;
    mitigated.repair.enabled = true;
    const ProgramReport report = xbar.program(weights, mitigated);
    ASSERT_EQ(report.repairedColumns, 1);
    EXPECT_EQ(xbar.sparesUsed(), 1);
    EXPECT_NE(xbar.physicalColumn(2), 2);

    const CrossbarEval repaired = xbar.evaluateIdeal(inputs, kCycle);
    EXPECT_TRUE(
        compareEval(repaired, referenceIdeal(xbar, inputs, kCycle), 0.0)
            .empty())
        << "cache did not follow the spare-column remap";
    // The repaired column carries real current again (spare is healthy).
    EXPECT_NE(repaired.currents[2], 0.0);
}

/**
 * Spike-evaluate two windows of @p xbar in one evaluateSpikeWindows
 * call -- every row, and every other row -- and compare each against
 * the oracle on its densified window. Returns the first mismatch or "".
 */
std::string
spikeWindowsMismatch(const CrossbarArray &xbar)
{
    const int rows = xbar.rows();
    const int cols = xbar.cols();
    std::vector<int> lists(2 * static_cast<size_t>(rows));
    std::vector<int> counts = {rows, 0};
    for (int i = 0; i < rows; ++i) {
        lists[static_cast<size_t>(i)] = i;
        if (i % 2 == 0)
            lists[static_cast<size_t>(rows + counts[1]++)] = i;
    }
    std::vector<double> currents(2 * static_cast<size_t>(cols));
    std::vector<double> energies(2);
    std::vector<CrossbarCheck> checks(2);
    xbar.evaluateSpikeWindows(lists.data(), static_cast<size_t>(rows),
                              counts.data(), 2, kCycle, currents.data(),
                              energies.data(), checks.data());
    for (int w = 0; w < 2; ++w) {
        std::vector<double> dense(static_cast<size_t>(rows), 0.0);
        for (int a = 0; a < counts[static_cast<size_t>(w)]; ++a)
            dense[static_cast<size_t>(
                lists[static_cast<size_t>(w * rows + a)])] = 1.0;
        CrossbarEval got;
        for (int j = 0; j < cols; ++j)
            got.currents.push_back(currents[static_cast<size_t>(j * 2 + w)]);
        got.energy = energies[static_cast<size_t>(w)];
        got.check = checks[static_cast<size_t>(w)];
        const std::string detail =
            compareEval(got, referenceIdeal(xbar, dense, kCycle), 0.0);
        if (!detail.empty())
            return "window " + std::to_string(w) + ": " + detail;
    }
    return {};
}

/** A 12 x 10 SNN array with the ABFT column: two 8-wide table blocks. */
CrossbarParams
spikeArrayParams()
{
    CrossbarParams params;
    params.rows = 12;
    params.cols = 10;
    params.abft = true;
    return params;
}

TEST(CrossbarCache, SpikeTableFollowsCellUpdates)
{
    CrossbarArray xbar(spikeArrayParams());
    xbar.programWeights(randomWeights(12, 10, 41));
    const std::vector<double> ones(12, 1.0);
    SpikeVector all_rows(12);
    std::iota(all_rows.begin(), all_rows.end(), 0);

    // The first spike evaluation builds the spike table.
    const CrossbarEval before = xbar.evaluateSparse(all_rows, kCycle);
    ASSERT_EQ(spikeWindowsMismatch(xbar), "");

    const UpdateReport report =
        xbar.updateCells({{0, 1, 3}, {5, 9, -4}, {11, 0, 2}});
    ASSERT_GT(report.levelSteps, 0);

    EXPECT_EQ(spikeWindowsMismatch(xbar), "")
        << "spike table served after updateCells";
    const CrossbarEval after = xbar.evaluateSparse(all_rows, kCycle);
    EXPECT_EQ(compareEval(after, referenceIdeal(xbar, ones, kCycle), 0.0),
              "");
    EXPECT_NE(compareEval(after, before, 0.0), "")
        << "the updates should change the currents";
}

TEST(CrossbarCache, SpikeTableFollowsFaultInjection)
{
    CrossbarParams params = spikeArrayParams();
    params.spareCols = 2;
    CrossbarArray xbar(params);
    const auto weights = randomWeights(12, 10, 43);
    xbar.programWeights(weights);
    const std::vector<double> ones(12, 1.0);
    SpikeVector all_rows(12);
    std::iota(all_rows.begin(), all_rows.end(), 0);

    const CrossbarEval before = xbar.evaluateSparse(all_rows, kCycle);
    ASSERT_EQ(spikeWindowsMismatch(xbar), "");

    // Open lines break the array after the table was built.
    FaultMap map(12, 10 + 2);
    map.setColOpen(3);
    map.setRowOpen(5);
    xbar.injectFaults(std::move(map));

    EXPECT_EQ(spikeWindowsMismatch(xbar), "")
        << "spike table served after fault injection";
    const CrossbarEval after = xbar.evaluateSparse(all_rows, kCycle);
    EXPECT_EQ(compareEval(after, referenceIdeal(xbar, ones, kCycle), 0.0),
              "");
    EXPECT_EQ(after.currents[3], 0.0);
    EXPECT_NE(before.currents[3], 0.0);

    // The mitigation flow then moves column 3 onto a spare and rewrites
    // every cell: the table must follow the new remap and conductances.
    ProgrammingConfig mitigated;
    mitigated.repair.enabled = true;
    xbar.program(weights, mitigated);
    ASSERT_GE(xbar.sparesUsed(), 1);
    EXPECT_EQ(spikeWindowsMismatch(xbar), "")
        << "spike table served after repair";
    const CrossbarEval repaired = xbar.evaluateSparse(all_rows, kCycle);
    EXPECT_EQ(
        compareEval(repaired, referenceIdeal(xbar, ones, kCycle), 0.0), "");
    EXPECT_NE(repaired.currents[3], 0.0);
}

/** Bit-for-bit equality of two doubles (distinguishes -0.0, NaNs). */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** First difference between two SNN runs and their chip stats, or "". */
std::string
snnRunMismatch(const SnnRunResult &a, const ChipStats &sa,
               const SnnRunResult &b, const ChipStats &sb)
{
    if (a.logits.shape() != b.logits.shape())
        return "logits shape";
    if (a.logits.size() > 0 &&
        std::memcmp(a.logits.data(), b.logits.data(),
                    static_cast<size_t>(a.logits.size()) * sizeof(float)) !=
            0)
        return "logits";
    if (a.ifSpikes != b.ifSpikes)
        return "ifSpikes";
    if (a.ifNeurons != b.ifNeurons)
        return "ifNeurons";
    if (a.totalSpikes != b.totalSpikes)
        return "totalSpikes";
    if (!sameBits(a.inputRate, b.inputRate))
        return "inputRate";
    for (size_t k = 0; k < a.ifActivity.size(); ++k)
        if (!sameBits(a.ifActivity[k], b.ifActivity[k]))
            return "ifActivity";
    if (sa.crossbarEvals != sb.crossbarEvals)
        return "crossbarEvals";
    if (sa.adcConversions != sb.adcConversions)
        return "adcConversions";
    if (sa.spikes != sb.spikes)
        return "spikes";
    if (!sameBits(sa.crossbarEnergy, sb.crossbarEnergy))
        return "crossbarEnergy";
    if (sa.nocPackets != sb.nocPackets)
        return "nocPackets";
    if (!sameBits(sa.nocEnergy, sb.nocEnergy))
        return "nocEnergy";
    if (sa.abftChecks != sb.abftChecks)
        return "abftChecks";
    if (sa.abftViolations != sb.abftViolations)
        return "abftViolations";
    return "";
}

/**
 * A seeded random conv SNN: conv (k 1-4, stride 1-2, pad 0..k-1,
 * sometimes more than 128 kernels, i.e. several column groups), IF
 * layers with random threshold / reset / leak / refractory, average
 * pools with or without an IF after them (fractional drive into the
 * next weight layer), sometimes two weight layers back to back, then a
 * Flatten + Linear head, with Kaiming weights.
 */
struct ConvSnnCase
{
    SpikingModel model;
    Tensor image;
    int timesteps = 1;
    uint64_t encoderSeed = 0;
    bool abft = false;
    double sigma = 0.0;
    ReliabilityConfig rel;
    std::string desc;
};

ConvSnnCase
randomConvSnnCase(uint64_t seed)
{
    Rng rng(seed);
    ConvSnnCase cs;
    std::ostringstream desc;
    const bool wide = rng.bernoulli(0.08);
    int c = rng.uniformInt(1, 3);
    int h = rng.uniformInt(wide ? 3 : 4, wide ? 5 : 9);
    int w = rng.uniformInt(wide ? 3 : 4, wide ? 5 : 9);
    desc << "in " << c << "x" << h << "x" << w << ":";
    cs.image = Tensor({c, h, w});
    for (long long i = 0; i < cs.image.size(); ++i)
        cs.image[i] = rng.bernoulli(0.2) ? 0.0f
                                         : static_cast<float>(rng.uniform());

    Network &net = cs.model.net;
    auto addIf = [&]() {
        IfOptions opts;
        if (rng.bernoulli(0.3))
            opts.leak = static_cast<float>(rng.uniform(0.05, 0.5));
        if (rng.bernoulli(0.3))
            opts.refractory = rng.uniformInt(1, 3);
        const float vth = static_cast<float>(rng.uniform(0.3, 1.5));
        const ResetMode reset =
            rng.bernoulli(0.5) ? ResetMode::Zero : ResetMode::Subtract;
        net.add<IfLayer>(vth, reset, opts);
        cs.model.ifLayerIndices.push_back(net.numLayers() - 1);
        desc << " if(" << vth << (reset == ResetMode::Zero ? ",0" : ",s")
             << "," << opts.leak << "," << opts.refractory << ")";
    };
    auto addConv = [&](int out_c) {
        const int k = rng.uniformInt(1, std::min(4, std::min(h, w) + 2));
        const int stride = rng.uniformInt(1, 2);
        int pad = rng.uniformInt(0, k - 1);
        while (h + 2 * pad < k || w + 2 * pad < k)
            ++pad;
        net.add<Conv2d>(c, out_c, k, stride, pad)->initKaiming(rng);
        desc << " conv" << c << "->" << out_c << "(k" << k << ",s" << stride
             << ",p" << pad << ")";
        c = out_c;
        h = (h + 2 * pad - k) / stride + 1;
        w = (w + 2 * pad - k) / stride + 1;
    };

    addConv(wide ? rng.uniformInt(129, 136) : rng.uniformInt(1, 8));
    if (rng.bernoulli(0.85))
        addIf();
    if (std::min(h, w) >= 2 && rng.bernoulli(0.6)) {
        net.add<AvgPool2d>(2);
        desc << " avgpool2";
        h /= 2;
        w /= 2;
        if (rng.bernoulli(0.5))
            addIf();
    }
    if (rng.bernoulli(0.6)) {
        addConv(rng.uniformInt(1, 10));
        if (rng.bernoulli(0.8))
            addIf();
    }
    net.add<Flatten>();
    desc << " flatten";
    const int features = c * h * w;
    const int hidden = rng.uniformInt(2, 12);
    net.add<Linear>(features, hidden)->initKaiming(rng);
    desc << " fc" << features << "->" << hidden;
    if (rng.bernoulli(0.5)) {
        addIf();
        const int classes = rng.uniformInt(2, 10);
        net.add<Linear>(hidden, classes)->initKaiming(rng);
        desc << " fc" << hidden << "->" << classes;
        if (rng.bernoulli(0.15))
            addIf();
    }
    // One forward pass gives the conv layers their geometry (mapping
    // reads output positions).
    net.forward(cs.image.reshaped({1, cs.image.dim(0), cs.image.dim(1),
                                   cs.image.dim(2)}),
                false);
    cs.model.resetState();

    cs.timesteps = rng.uniformInt(1, 6);
    cs.encoderSeed = rng.next();
    cs.abft = rng.bernoulli(0.4);
    cs.sigma = rng.bernoulli(0.25) ? 0.05 : 0.0;
    const int faults = rng.uniformInt(0, 3);
    if (faults == 1)
        cs.rel.faults = std::make_shared<StuckAtFaultModel>(0.05);
    else if (faults == 2)
        cs.rel.faults = std::make_shared<LineOpenFaultModel>(0.05, 0.05);
    cs.rel.faultSeed = rng.next();
    if (cs.rel.faults && rng.bernoulli(0.5)) {
        cs.rel.spareCols = 2;
        cs.rel.repair.enabled = true;
    }
    desc << " | T=" << cs.timesteps << " abft=" << cs.abft
         << " sigma=" << cs.sigma << " faults=" << faults
         << " spares=" << cs.rel.spareCols;
    cs.desc = desc.str();
    return cs;
}

TEST(SnnFastPlan, ConvPlanMatchesGenericWalkBitExact)
{
    // The preplanned path against the shared layer walk (reached
    // through ChipAccess on an identically programmed chip): logits,
    // spike counts, input rate and every ChipStats field must agree
    // bit for bit.
    constexpr int kCases = 520;
    int planned = 0;
    for (int n = 0; n < kCases; ++n) {
        const uint64_t seed = 0x5c0a7ull + static_cast<uint64_t>(n);
        ConvSnnCase cs = randomConvSnnCase(seed);
        SnnRunResult runs[2];
        ChipStats stats[2];
        for (int plan = 0; plan < 2; ++plan) {
            NebulaConfig config;
            config.abft = cs.abft;
            NebulaChip chip(config, cs.sigma, /*seed=*/seed);
            chip.setReliability(cs.rel);
            chip.programSnn(cs.model);
            ASSERT_TRUE(chip.snnFastPlanUsable()) << cs.desc;
            planned += plan;
            // Two runs per chip: the second reuses the bound plan and
            // must fold into the same cumulative stats.
            auto run = [&](uint64_t encoder_seed) {
                return plan ? chip.runSnn(cs.image, cs.timesteps,
                                          encoder_seed)
                            : ChipAccess::runSnnWalk(chip, cs.image,
                                                     cs.timesteps,
                                                     encoder_seed);
            };
            run(cs.encoderSeed ^ 1);
            runs[plan] = run(cs.encoderSeed);
            stats[plan] = chip.stats();
        }
        const std::string detail =
            snnRunMismatch(runs[1], stats[1], runs[0], stats[0]);
        ASSERT_TRUE(detail.empty())
            << "case " << n << " (seed " << seed << "): plan vs generic "
            << "walk differ in " << detail << "\n  " << cs.desc;
    }
    EXPECT_EQ(planned, kCases);
}

TEST(SnnFastPlan, UnsupportedLayersKeepGenericWalk)
{
    // MaxPool and depthwise conv have no plan stage: the chip must
    // report the plan unusable and serve the generic walk. (The walk's
    // crossbar kernels are pinned to the naive oracle by the
    // differential tests.)
    for (int variant = 0; variant < 2; ++variant) {
        Rng rng(900 + variant);
        SpikingModel model;
        Network &net = model.net;
        if (variant == 0) {
            net.add<Conv2d>(1, 4, 3, 1, 1)->initKaiming(rng);
            net.add<IfLayer>();
            model.ifLayerIndices.push_back(1);
            net.add<MaxPool2d>(2);
        } else {
            net.add<DwConv2d>(1, 3, 1, 1)->initKaiming(rng);
            net.add<IfLayer>();
            model.ifLayerIndices.push_back(1);
        }
        net.add<Flatten>();
        const int features = variant == 0 ? 4 * 3 * 3 : 6 * 6;
        net.add<Linear>(features, 5)->initKaiming(rng);
        Tensor image({1, 6, 6});
        for (long long i = 0; i < image.size(); ++i)
            image[i] = static_cast<float>(rng.uniform());
        net.forward(image.reshaped({1, 1, 6, 6}), false);
        model.resetState();

        NebulaChip chip;
        chip.programSnn(model);
        EXPECT_FALSE(chip.snnFastPlanUsable()) << "variant " << variant;
        chip.runSnn(image, 5, /*encoder_seed=*/17);
        EXPECT_GT(chip.stats().crossbarEvals, 0) << "variant " << variant;
    }
}

TEST(SnnFastPlan, ServedTopologiesArePlanned)
{
    // Every served SNN topology (MLP and LeNet-5) runs the plan.
    SyntheticDigits data(8, 16, 61);
    for (const char *name : {"mlp3", "lenet5"}) {
        Network net = std::string(name) == "mlp3"
                          ? buildMlp3(16, 1, 10, 63)
                          : buildLenet5(16, 1, 10, 63);
        SpikingModel model = convertToSnn(net, data.firstImages(4));
        NebulaChip chip;
        chip.programSnn(model);
        EXPECT_TRUE(chip.snnFastPlanUsable()) << name;
    }
}

TEST(SeedDeterminism, ChipAndFunctionalShareEncoderStream)
{
    SyntheticDigits data(24, 8, 41);
    Network net = buildMlp3(8, 1, 10, 43);
    SpikingModel chip_model = convertToSnn(net, data.firstImages(8));
    SpikingModel sim_model = convertToSnn(net, data.firstImages(8));

    NebulaChip chip;
    chip.programSnn(chip_model);
    SnnSimulator sim(sim_model);

    const Tensor image = data.image(0);
    constexpr int kSteps = 12;
    for (uint64_t id = 0; id < 4; ++id) {
        // The seed each backend would receive for request `id`.
        const uint64_t seed = deriveRequestSeed(/*salt=*/77, id);
        const SnnRunResult on_chip = chip.runSnn(image, kSteps, seed);
        const SnnRunResult functional = sim.run(image, kSteps, seed);

        // Identical seeds must drive identical Poisson input trains on
        // both backends (the logits differ -- the chip quantizes).
        EXPECT_EQ(on_chip.inputRate, functional.inputRate)
            << "encoder streams diverged for request " << id;

        // And each backend is a pure function of (state, image, seed).
        const SnnRunResult chip_again = chip.runSnn(image, kSteps, seed);
        const SnnRunResult sim_again = sim.run(image, kSteps, seed);
        EXPECT_TRUE(bitIdentical(on_chip.logits, chip_again.logits));
        EXPECT_TRUE(bitIdentical(functional.logits, sim_again.logits));
        EXPECT_EQ(on_chip.totalSpikes, chip_again.totalSpikes);
        EXPECT_EQ(functional.totalSpikes, sim_again.totalSpikes);
    }
}

TEST(SeedDeterminism, FunctionalCampaignIsWorkerCountInvariant)
{
    // The functional SNN leg now runs through the engine with
    // per-request seeds (previously a sequential stream forked from the
    // fault seed), so its accuracy cannot depend on worker scheduling.
    SyntheticDigits train(60, 8, 51);
    SyntheticDigits test(16, 8, 52);
    Network net = buildMlp3(8, 1, 10, 53);

    CampaignConfig config;
    config.images = 12;
    config.timesteps = 10;
    config.rates = {0.02};
    config.seeds = {5};
    config.mitigations = {MitigationSpec::none()};
    config.runAnn = false;
    config.runSnn = true;

    config.numWorkers = 1;
    const CampaignResult serial = runFunctionalCampaign(
        net, train.firstImages(16), test, config);
    config.numWorkers = 4;
    const CampaignResult parallel = runFunctionalCampaign(
        net, train.firstImages(16), test, config);

    ASSERT_EQ(serial.rows.size(), parallel.rows.size());
    for (size_t i = 0; i < serial.rows.size(); ++i) {
        EXPECT_EQ(serial.rows[i].correct, parallel.rows[i].correct);
        EXPECT_EQ(serial.rows[i].accuracy, parallel.rows[i].accuracy);
    }
}

} // namespace
} // namespace testing
} // namespace nebula
