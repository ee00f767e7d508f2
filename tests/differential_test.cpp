/**
 * @file
 * Differential tests pinning the crossbar fast evaluation paths (cached
 * ideal, sparse spike-driven, spike windows, batched, parasitic-with-
 * workspace) to the naive reference model in src/testing. Each path
 * sweeps hundreds of seeded random cases over geometry, spare columns,
 * fault maps, mitigations and input sparsity; a mismatch is shrunk to a
 * minimal reproducer before being reported.
 */

#include <gtest/gtest.h>

#include <functional>

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
        FAIL() << "differential mismatch: " << detail
               << "\n  original: " << config.describe()
               << "\n  minimal:  " << minimal.describe()
               << "\n  minimal mismatch: " << min_detail;
    }
}

TEST(Differential, IdealMatchesReferenceBitExact)
{
    runCases(
        600, 1000, randomCase, [](const CaseConfig &config) {
            BuiltCase built = buildCase(config);
            const CrossbarEval got =
                built.xbar->evaluateIdeal(built.inputs, kCycle);
            const CrossbarEval want =
                referenceIdeal(*built.xbar, built.inputs, kCycle);
            return compareEval(got, want, 0.0);
        });
}

TEST(Differential, SparseMatchesReferenceBitExact)
{
    // Spike-driven path: active-row list against the densified naive
    // evaluation, across sparsity levels from near-dense to one spike.
    runCases(
        600, 3000,
        [](uint64_t seed) {
            CaseConfig config = randomCase(seed);
            config.snnMode = true;
            return config;
        },
        [](const CaseConfig &config) {
            BuiltCase built = buildCase(config);
            const CrossbarEval got =
                built.xbar->evaluateSparse(built.active, kCycle);
            const CrossbarEval want =
                referenceIdeal(*built.xbar, built.inputs, kCycle);
            std::string detail = compareEval(got, want, 0.0);
            if (!detail.empty())
                return "sparse vs reference: " + detail;
            // And against the dense fast path, which must be identical.
            const CrossbarEval dense =
                built.xbar->evaluateIdeal(built.inputs, kCycle);
            detail = compareEval(got, dense, 0.0);
            if (!detail.empty())
                return "sparse vs dense fast path: " + detail;
            return std::string();
        });
}

TEST(Differential, SpikeWindowsMatchReferenceBitExact)
{
    // The event-driven conv path: several spike windows of one array in
    // one evaluateSpikeWindows call (plane-major currents, per-window
    // energies and ABFT verdicts), each window against the oracle on its
    // densified 0/1 window and against a standalone evaluateSparseInto.
    // Windows are empty, all rows, or random at the case's sparsity; half
    // the cases carry the ABFT checksum column.
    int narrow = 0, wide = 0, abft = 0, faults = 0, repair = 0;
    int variation = 0, empty = 0, full = 0;
    runCases(
        520, 7000,
        [&](uint64_t seed) {
            CaseConfig config = randomCase(seed);
            config.snnMode = true;
            config.abft = Rng(seed ^ 0xabf8ull).bernoulli(0.5);
            narrow += config.cols < 8;
            wide += config.cols > 8;
            abft += config.abft;
            faults += config.withFaults;
            repair += config.repair;
            variation += config.variationSigma > 0.0;
            return config;
        },
        [&](const CaseConfig &config) {
            BuiltCase built = buildCase(config);
            const CrossbarArray &xbar = *built.xbar;
            const int rows = xbar.rows();
            const int cols = xbar.cols();
            Rng rng(config.seed ^ 0x5b1ceull);
            const int windows = rng.uniformInt(1, 8);
            std::vector<int> lists(static_cast<size_t>(windows) * rows);
            std::vector<int> counts(static_cast<size_t>(windows), 0);
            for (int w = 0; w < windows; ++w) {
                const int kind = rng.uniformInt(0, 3);
                empty += kind == 0;
                full += kind == 1;
                for (int i = 0; i < rows; ++i)
                    if (kind == 1 ||
                        (kind > 1 && !rng.bernoulli(config.sparsity)))
                        lists[static_cast<size_t>(w) * rows +
                              counts[static_cast<size_t>(w)]++] = i;
            }

            std::vector<double> currents(static_cast<size_t>(cols) *
                                         windows);
            std::vector<double> energies(static_cast<size_t>(windows));
            std::vector<CrossbarCheck> checks(static_cast<size_t>(windows));
            xbar.evaluateSpikeWindows(lists.data(), static_cast<size_t>(rows),
                                      counts.data(), windows, kCycle,
                                      currents.data(), energies.data(),
                                      checks.data());
            CrossbarEval sparse;
            for (int w = 0; w < windows; ++w) {
                const int *active = &lists[static_cast<size_t>(w) * rows];
                const int n = counts[static_cast<size_t>(w)];
                std::vector<double> dense(static_cast<size_t>(rows), 0.0);
                for (int a = 0; a < n; ++a)
                    dense[static_cast<size_t>(active[a])] = 1.0;
                CrossbarEval got;
                for (int j = 0; j < cols; ++j)
                    got.currents.push_back(
                        currents[static_cast<size_t>(j) * windows + w]);
                got.energy = energies[static_cast<size_t>(w)];
                got.check = checks[static_cast<size_t>(w)];

                const std::string where =
                    "window " + std::to_string(w) + " (" +
                    std::to_string(n) + " rows) ";
                std::string detail = compareEval(
                    got, referenceIdeal(xbar, dense, kCycle), 0.0);
                if (!detail.empty())
                    return where + "vs reference: " + detail;
                xbar.evaluateSparseInto(active, n, kCycle, sparse);
                detail = compareEval(got, sparse, 0.0);
                if (!detail.empty())
                    return where + "vs evaluateSparseInto: " + detail;
            }
            return std::string();
        });
    // The generator must have reached every regime the kernel handles.
    EXPECT_GT(narrow, 0);
    EXPECT_GT(wide, 0);
    EXPECT_GT(abft, 100);
    EXPECT_GT(faults, 100);
    EXPECT_GT(repair, 50);
    EXPECT_GT(variation, 50);
    EXPECT_GT(empty, 100);
    EXPECT_GT(full, 100);
}

/** First field where two ABFT verdicts differ bit for bit, or "". */
std::string
checkMismatch(const CrossbarCheck &got, const CrossbarCheck &want)
{
    if (got.checks != want.checks)
        return "checks";
    if (got.violations != want.violations)
        return "violations";
    if (got.residual != want.residual)
        return "residual";
    if (got.tolerance != want.tolerance)
        return "tolerance";
    return "";
}

TEST(Differential, BatchMatchesSingleEvalBitExact)
{
    // Batches of 1-3 run only the leftover-window (solo kernel) path;
    // 4-6 add one register-tiled group of four. Half the cases carry
    // the ABFT checksum column, whose per-window verdicts must match a
    // standalone evaluation too.
    runCases(
        250, 4000,
        [](uint64_t seed) {
            CaseConfig config = randomCase(seed);
            config.abft = Rng(seed ^ 0xabf7ull).bernoulli(0.5);
            return config;
        },
        [](const CaseConfig &config) {
            BuiltCase built = buildCase(config);
            Rng rng(config.seed ^ 0xba7c4ull);
            const int rows = built.xbar->rows();
            const int cols = built.xbar->cols();
            const int batch = rng.uniformInt(1, 6);
            std::vector<double> windows(
                static_cast<size_t>(batch) * rows);
            for (auto &v : windows)
                v = rng.bernoulli(config.sparsity)
                        ? 0.0
                        : rng.uniform(0.0, 1.0);

            const CrossbarBatchEval got =
                built.xbar->evaluateIdealBatch(windows, batch, kCycle);
            if (got.checks.size() !=
                (config.abft ? static_cast<size_t>(batch) : 0))
                return std::string("batch verdict count");
            CrossbarEval want_all;
            want_all.currents.reserve(static_cast<size_t>(batch) * cols);
            std::vector<double> window(static_cast<size_t>(rows));
            for (int b = 0; b < batch; ++b) {
                std::copy_n(windows.begin() +
                                static_cast<size_t>(b) * rows,
                            rows, window.begin());
                const CrossbarEval one =
                    built.xbar->evaluateIdeal(window, kCycle);
                want_all.currents.insert(want_all.currents.end(),
                                         one.currents.begin(),
                                         one.currents.end());
                want_all.energy += one.energy;
                if (config.abft) {
                    const std::string field = checkMismatch(
                        got.checks[static_cast<size_t>(b)], one.check);
                    if (!field.empty())
                        return "window " + std::to_string(b) +
                               " ABFT verdict differs in " + field;
                }
            }
            CrossbarEval got_flat;
            got_flat.currents = got.currents;
            got_flat.energy = got.energy;
            return compareEval(got_flat, want_all, 0.0);
        });
}

TEST(Differential, ParasiticMatchesReferenceWithinTolerance)
{
    // Full nodal solves stay small so every case converges well inside
    // the iteration budget; the workspace-reusing production solver
    // must agree with the fresh-storage reference to solver precision.
    runCases(
        500, 5000,
        [](uint64_t seed) {
            CaseConfig config = randomCase(seed);
            Rng rng(seed ^ 0x9a4aull);
            config.rows = rng.uniformInt(1, 10);
            config.cols = rng.uniformInt(1, 8);
            config.spareCols = std::min(config.spareCols, 2);
            config.repair = config.repair && config.spareCols > 0;
            return config;
        },
        [](const CaseConfig &config) {
            BuiltCase built = buildCase(config);
            const CrossbarEval got =
                built.xbar->evaluateParasitic(built.inputs, kCycle);
            const CrossbarEval want = referenceParasitic(
                *built.xbar, built.inputs, kCycle);
            return compareEval(got, want, 1e-8);
        });
}

TEST(Differential, ParasiticWorkspaceReuseIsRepeatable)
{
    // Back-to-back solves share the cached workspace; any residue from
    // the first solve leaking into the second would show here.
    runCases(
        60, 6000,
        [](uint64_t seed) {
            CaseConfig config = randomCase(seed);
            Rng rng(seed ^ 0x9a4bull);
            config.rows = rng.uniformInt(1, 10);
            config.cols = rng.uniformInt(1, 8);
            return config;
        },
        [](const CaseConfig &config) {
            BuiltCase built = buildCase(config);
            const CrossbarEval first =
                built.xbar->evaluateParasitic(built.inputs, kCycle);
            const CrossbarEval second =
                built.xbar->evaluateParasitic(built.inputs, kCycle);
            return compareEval(second, first, 0.0);
        });
}

} // namespace
} // namespace testing
} // namespace nebula
