/**
 * @file
 * Differential tests pinning the crossbar fast evaluation paths (cached
 * ideal, sparse spike-driven, batched, parasitic-with-workspace) to the
 * naive reference model in src/testing. Each path sweeps hundreds of
 * seeded random cases over geometry, spare columns, fault maps,
 * mitigations and input sparsity; a mismatch is shrunk to a minimal
 * reproducer before being reported.
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
