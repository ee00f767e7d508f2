#include "circuit/crossbar.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.hpp"
#include "common/simd.hpp"
#include "device/synapse_device.hpp"

namespace nebula {

namespace {

/**
 * Accumulate four crossbar rows into the per-column current totals.
 * Each column's partial sum stays in a register across the four adds
 * instead of round-tripping through memory once per row, and the adds
 * still happen in ascending row order per column -- bit-identical to
 * four passes of accumulateRow().
 */
NEBULA_TARGET_CLONES void
accumulateRows4(double *out, int cols, double v, const double *r0,
                const double *r1, const double *r2, const double *r3)
{
    for (int j = 0; j < cols; ++j) {
        double s = out[j];
        s += v * r0[j];
        s += v * r1[j];
        s += v * r2[j];
        s += v * r3[j];
        out[j] = s;
    }
}

/** Accumulate one crossbar row into the per-column current totals. */
NEBULA_TARGET_CLONES void
accumulateRow(double *out, int cols, double v, const double *row)
{
    for (int j = 0; j < cols; ++j)
        out[j] += v * row[j];
}

/**
 * Register-tiled single-window kernel: one tile of up to 16 column
 * accumulators lives in registers across the whole active-row walk, so
 * the inner loop issues one conductance load per 4 columns instead of a
 * load+store round-trip on the output row per crossbar row. Each
 * column's partial sum still grows in ascending active-row order --
 * bit-identical to a row-major accumulateRow walk -- because FP
 * addition order per output element is unchanged; only where the
 * partial lives (register vs memory) differs.
 *
 * @param dense   Dense conductance cache, row-major with @p stride.
 * @param active  Ascending row indices with nonzero drive voltage.
 * @param va      Drive voltage per active row (parallel to @p active).
 * @param out     Output columns [j0, j0+width); width <= 16.
 */
NEBULA_TARGET_CLONES void
soloColsTile16(const double *dense, size_t stride, const int *active,
               int n_active, const double *va, int j0, double *out)
{
    // Two 8-wide accumulator streams rather than one flat 16-element
    // tile: this is the loop shape GCC's vectorizer reliably maps onto
    // one full-width register per stream across every clone ISA.
    double acc0[8] = {};
    double acc1[8] = {};
    for (int a = 0; a < n_active; ++a) {
        const double v = va[a];
        const double *g =
            dense + static_cast<size_t>(active[a]) * stride + j0;
        for (int t = 0; t < 8; ++t) {
            acc0[t] += v * g[t];
            acc1[t] += v * g[8 + t];
        }
    }
    for (int t = 0; t < 8; ++t) {
        out[j0 + t] = acc0[t];
        out[j0 + 8 + t] = acc1[t];
    }
}

/** Remainder-width variant of soloColsTile16 (width < 16). */
NEBULA_TARGET_CLONES void
soloColsTileN(const double *dense, size_t stride, const int *active,
              int n_active, const double *va, int j0, int width,
              double *out)
{
    double acc[16] = {};
    for (int a = 0; a < n_active; ++a) {
        const double v = va[a];
        const double *g =
            dense + static_cast<size_t>(active[a]) * stride + j0;
        for (int t = 0; t < width; ++t)
            acc[t] += v * g[t];
    }
    for (int t = 0; t < width; ++t)
        out[j0 + t] = acc[t];
}

/**
 * Register-tiled four-window kernel (the GEMM-style micro-kernel of the
 * batched evaluation): a 4-window x 8-column accumulator tile is held
 * in registers across the whole row walk, so each conductance element
 * is loaded once per tile and feeds four multiply-add streams with no
 * output traffic in the inner loop. Per (window, column) the partial
 * sum still grows in ascending active-row order, and rows every window
 * leaves dark are skipped -- a zero drive voltage only ever contributes
 * an exact +0.0 to the non-negative partials -- so every window remains
 * bit-identical to a standalone accumulateRow walk.
 *
 * @param active Ascending row indices where at least one window drives.
 * @param va     Packed per-active-row voltages: va[4*a + w] for window w.
 * @param out    Window 0's output columns [j0, j0+width); windows 1..3
 *               follow at +out_stride each. width <= 8.
 */
NEBULA_TARGET_CLONES void
windowColsTile4x8(const double *dense, size_t stride, const int *active,
                  int n_active, const double *va, int j0, double *out,
                  size_t out_stride)
{
    double acc[4][8] = {};
    for (int a = 0; a < n_active; ++a) {
        const double v0 = va[4 * a + 0];
        const double v1 = va[4 * a + 1];
        const double v2 = va[4 * a + 2];
        const double v3 = va[4 * a + 3];
        const double *g =
            dense + static_cast<size_t>(active[a]) * stride + j0;
        for (int t = 0; t < 8; ++t) {
            const double gg = g[t];
            acc[0][t] += v0 * gg;
            acc[1][t] += v1 * gg;
            acc[2][t] += v2 * gg;
            acc[3][t] += v3 * gg;
        }
    }
    for (int w = 0; w < 4; ++w)
        for (int t = 0; t < 8; ++t)
            out[static_cast<size_t>(w) * out_stride + j0 + t] =
                acc[w][t];
}

/** Remainder-width variant of windowColsTile4x8 (width < 8). */
NEBULA_TARGET_CLONES void
windowColsTile4xN(const double *dense, size_t stride, const int *active,
                  int n_active, const double *va, int j0, int width,
                  double *out, size_t out_stride)
{
    double acc[4][8] = {};
    for (int a = 0; a < n_active; ++a) {
        const double v0 = va[4 * a + 0];
        const double v1 = va[4 * a + 1];
        const double v2 = va[4 * a + 2];
        const double v3 = va[4 * a + 3];
        const double *g =
            dense + static_cast<size_t>(active[a]) * stride + j0;
        for (int t = 0; t < width; ++t) {
            const double gg = g[t];
            acc[0][t] += v0 * gg;
            acc[1][t] += v1 * gg;
            acc[2][t] += v2 * gg;
            acc[3][t] += v3 * gg;
        }
    }
    for (int w = 0; w < 4; ++w)
        for (int t = 0; t < width; ++t)
            out[static_cast<size_t>(w) * out_stride + j0 + t] =
                acc[w][t];
}

/** Energy of one full-drive program pulse (paper device parameters). */
double
programPulseEnergy()
{
    static const double energy = SynapseDevice().pulseEnergy();
    return energy;
}

} // namespace

CrossbarArray::CrossbarArray(const CrossbarParams &params)
    : p_(params), cell_(params.mtj),
      updateRng_(params.variationSeed ^ 0x757064ull)
{
    NEBULA_ASSERT(p_.rows > 0 && p_.cols > 0, "bad crossbar geometry");
    NEBULA_ASSERT(p_.spareCols >= 0, "negative spare column count");
    NEBULA_ASSERT(p_.levels >= 2, "need at least 2 conductance levels");
    gMid_ = 0.5 * (cell_.conductanceP() + cell_.conductanceAp());
    gHalfSwing_ = 0.5 * (cell_.conductanceP() - cell_.conductanceAp());
    // +1: the extra column is the shared reference column at G_mid.
    // With abft a second extra column holds the row checksum; every
    // cell at G_mid encodes zero weight, whose row-sum checksum is
    // also G_mid, so the blank array satisfies the identity.
    conductance_.assign(static_cast<size_t>(p_.rows) * physicalStride(),
                        gMid_);
    remap_.resize(static_cast<size_t>(p_.cols));
    std::iota(remap_.begin(), remap_.end(), 0);
}

double &
CrossbarArray::cellAt(int row, int phys_col)
{
    return conductance_[static_cast<size_t>(row) * physicalStride() +
                        phys_col];
}

double
CrossbarArray::cellAt(int row, int phys_col) const
{
    return conductance_[static_cast<size_t>(row) * physicalStride() +
                        phys_col];
}

void
CrossbarArray::injectFaults(FaultMap faults)
{
    NEBULA_ASSERT(faults.rows() == p_.rows &&
                      faults.cols() == physicalDataCols(),
                  "fault map geometry mismatch: got ", faults.rows(), "x",
                  faults.cols(), " want ", p_.rows, "x", physicalDataCols());
    faults_ = std::move(faults);
    // Open lines change what evaluation reads even without reprogramming.
    invalidateCache();
}

const CellFault &
CrossbarArray::faultAt(int row, int phys_col) const
{
    static const CellFault kNone{};
    return faults_.empty() ? kNone : faults_.cell(row, phys_col);
}

bool
CrossbarArray::openAt(int row, int phys_col) const
{
    return !faults_.empty() &&
           (faults_.rowOpen(row) || faults_.colOpen(phys_col));
}

void
CrossbarArray::planRepair(const ProgrammingConfig &config,
                          ProgramReport &report)
{
    std::iota(remap_.begin(), remap_.end(), 0);
    if (!config.repair.enabled || p_.spareCols <= 0 || faults_.empty())
        return;

    // Post-manufacture test knows the defect map; rank physical columns
    // by the defects the selected programming flow cannot correct.
    const int phys = physicalDataCols();
    std::vector<int> defects(static_cast<size_t>(phys));
    for (int p = 0; p < phys; ++p)
        defects[static_cast<size_t>(p)] =
            faults_.columnDefectCount(p, config.writeVerify.enabled);

    std::vector<char> spare_free(static_cast<size_t>(phys), 0);
    for (int s = p_.cols; s < phys; ++s)
        spare_free[static_cast<size_t>(s)] = 1;

    // Worst logical columns pick their spare first.
    std::vector<int> order(static_cast<size_t>(p_.cols));
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return defects[static_cast<size_t>(a)] >
               defects[static_cast<size_t>(b)];
    });

    for (int j : order) {
        const int victim = defects[static_cast<size_t>(j)];
        if (victim <= config.repair.faultThreshold)
            break; // sorted: nothing worse follows
        int best = -1;
        for (int s = p_.cols; s < phys; ++s) {
            if (!spare_free[static_cast<size_t>(s)])
                continue;
            if (best < 0 || defects[static_cast<size_t>(s)] <
                                defects[static_cast<size_t>(best)])
                best = s;
        }
        // A spare is only worth taking when strictly healthier.
        if (best >= 0 && defects[static_cast<size_t>(best)] < victim) {
            spare_free[static_cast<size_t>(best)] = 0;
            remap_[static_cast<size_t>(j)] = best;
            ++report.repairedColumns;
        } else {
            ++report.irreparableColumns;
        }
    }
}

void
CrossbarArray::programCell(int row, int phys_col, int level,
                           const ProgrammingConfig &config,
                           const GaussianVariabilityModel &noise, Rng &rng,
                           ProgramReport &report)
{
    const int top = p_.levels - 1;
    const double step = 2.0 * gHalfSwing_ / top;
    const double g_lo = 0.25 * cell_.conductanceAp();
    const double g_hi = 2.0 * cell_.conductanceP();
    const double g_target = gMid_ + (2.0 * level / top - 1.0) * gHalfSwing_;
    ++report.cells;

    if (openAt(row, phys_col)) {
        // Unwritable either way; closed loop detects the open line on
        // the first verify read and gives up.
        ++report.pulses;
        report.programEnergy += programPulseEnergy();
        if (config.writeVerify.enabled)
            ++report.failedCells;
        cellAt(row, phys_col) = 0.0;
        return;
    }

    const CellFault fault = faultAt(row, phys_col);
    const double stuck_value = fault.kind == FaultKind::StuckHigh
                                   ? cell_.conductanceP()
                                   : cell_.conductanceAp();

    if (!config.writeVerify.enabled) {
        // Open loop: one pulse, take whatever the device lands on.
        ++report.pulses;
        report.programEnergy += programPulseEnergy();
        double g;
        if (fault.stuck()) {
            g = stuck_value;
        } else {
            int level_eff = level;
            if (fault.kind == FaultKind::Drift)
                level_eff = std::clamp(level + fault.drift, 0, top);
            g = gMid_ + (2.0 * level_eff / top - 1.0) * gHalfSwing_;
            if (p_.variationSigma > 0.0)
                g *= noise.programFactor(rng);
            if (fault.kind == FaultKind::Decay)
                g = gMid_ + (g - gMid_) * fault.decay;
            g = std::clamp(g, g_lo, g_hi);
        }
        cellAt(row, phys_col) = g;
        return;
    }

    // Closed loop: program -> sense -> trim. The controller corrects the
    // aim point by the sensed error, so systematic offsets (pinning
    // drift) cancel; per-pulse write noise shrinks as 1/pulse (trim
    // pulses displace the wall less). Retry pulses give a softly pinned
    // wall a depin chance; hard stuck cells and opens never converge.
    const WriteVerifyConfig &wv = config.writeVerify;
    const double tolerance = wv.toleranceLevels * step;
    double aim = g_target;
    double landed = stuck_value;
    bool freed = !fault.stuck();
    bool ok = false;

    for (int pulse = 1; pulse <= wv.maxPulses; ++pulse) {
        ++report.pulses;
        report.programEnergy += programPulseEnergy();
        if (!freed && pulse > 1 && !fault.hard &&
            rng.bernoulli(wv.depinProbability))
            freed = true;
        if (!freed) {
            landed = stuck_value;
        } else {
            const double factor =
                1.0 + (noise.programFactor(rng) - 1.0) / pulse;
            landed = aim * factor;
            if (fault.kind == FaultKind::Drift)
                landed += fault.drift * step;
            landed = std::clamp(landed, g_lo, g_hi);
        }
        if (std::abs(landed - g_target) <= tolerance) {
            ok = true;
            break;
        }
        aim = std::clamp(aim + (g_target - landed), g_lo, g_hi);
    }
    if (!ok)
        ++report.failedCells;

    // Retention decay acts after programming; verification cannot see it.
    if (fault.kind == FaultKind::Decay)
        landed = gMid_ + (landed - gMid_) * fault.decay;
    cellAt(row, phys_col) = landed;
}

bool
CrossbarArray::updateCell(int row, int phys_col, int current, int target,
                          const ProgrammingConfig &config,
                          const GaussianVariabilityModel &noise,
                          UpdateReport &report)
{
    const int top = p_.levels - 1;
    const double step = 2.0 * gHalfSwing_ / top;
    const double g_lo = 0.25 * cell_.conductanceAp();
    const double g_hi = 2.0 * cell_.conductanceP();
    const double g_target = gMid_ + (2.0 * target / top - 1.0) * gHalfSwing_;

    if (openAt(row, phys_col)) {
        // The line is broken: the pulse is spent, nothing moves.
        ++report.pulses;
        report.updateEnergy += programPulseEnergy();
        ++report.blockedCells;
        return false;
    }
    const CellFault fault = faultAt(row, phys_col);
    if (fault.stuck()) {
        // The single-level update pulse is gentler than the full program
        // waveform, so a pinned wall stays pinned (no depin escalation
        // on the incremental path; program() is the repair tool).
        ++report.pulses;
        report.updateEnergy += programPulseEnergy();
        ++report.blockedCells;
        return false;
    }

    const int moved = std::abs(target - current);
    if (moved == 0)
        return false;

    if (!config.writeVerify.enabled) {
        // Open loop: one pulse per level step, and the final pulse lands
        // exactly as programCell()'s open-loop write of the same target
        // level would -- drift offset, variation, decay, clamp in the
        // same order, so the differential tests can pin updateCells() to
        // a whole-array re-program().
        report.pulses += moved;
        report.updateEnergy += moved * programPulseEnergy();
        int level_eff = target;
        if (fault.kind == FaultKind::Drift)
            level_eff = std::clamp(target + fault.drift, 0, top);
        double g = gMid_ + (2.0 * level_eff / top - 1.0) * gHalfSwing_;
        if (p_.variationSigma > 0.0)
            g *= noise.programFactor(updateRng_);
        if (fault.kind == FaultKind::Decay)
            g = gMid_ + (g - gMid_) * fault.decay;
        g = std::clamp(g, g_lo, g_hi);
        cellAt(row, phys_col) = g;
        return true;
    }

    // Closed loop: the traversal steps are open pulses, the arrival
    // pulse starts programCell()'s program -> sense -> trim controller
    // (same aim correction, same 1/pulse noise shrink, same budget).
    report.pulses += moved - 1;
    report.updateEnergy += (moved - 1) * programPulseEnergy();

    const WriteVerifyConfig &wv = config.writeVerify;
    const double tolerance = wv.toleranceLevels * step;
    double aim = g_target;
    double landed = g_target;
    bool ok = false;
    for (int pulse = 1; pulse <= wv.maxPulses; ++pulse) {
        ++report.pulses;
        report.updateEnergy += programPulseEnergy();
        const double factor =
            1.0 + (noise.programFactor(updateRng_) - 1.0) / pulse;
        landed = aim * factor;
        if (fault.kind == FaultKind::Drift)
            landed += fault.drift * step;
        landed = std::clamp(landed, g_lo, g_hi);
        if (std::abs(landed - g_target) <= tolerance) {
            ok = true;
            break;
        }
        aim = std::clamp(aim + (g_target - landed), g_lo, g_hi);
    }
    if (!ok)
        ++report.failedCells;

    // Retention decay acts after programming; verification cannot see it.
    if (fault.kind == FaultKind::Decay)
        landed = gMid_ + (landed - gMid_) * fault.decay;
    cellAt(row, phys_col) = landed;
    return true;
}

UpdateReport
CrossbarArray::updateCells(const std::vector<CellUpdate> &updates,
                           const ProgrammingConfig &config)
{
    UpdateReport report;
    const GaussianVariabilityModel noise(p_.variationSigma);
    const int top = p_.levels - 1;
    bool touched = false;
    // Per-row sum of intended level movement, for the checksum column.
    std::vector<long long> row_delta;
    if (p_.abft)
        row_delta.assign(static_cast<size_t>(p_.rows), 0);
    for (const CellUpdate &u : updates) {
        NEBULA_ASSERT(u.row >= 0 && u.row < p_.rows && u.col >= 0 &&
                          u.col < p_.cols,
                      "cell update out of range: (", u.row, ", ", u.col,
                      ") on ", p_.rows, "x", p_.cols);
        if (u.delta == 0)
            continue;
        ++report.cells;
        const int current = levelAt(u.row, u.col);
        int target = current + u.delta;
        if (target < 0 || target > top) {
            target = std::clamp(target, 0, top);
            ++report.clampedCells;
        }
        report.levelSteps += std::abs(target - current);
        if (p_.abft)
            row_delta[static_cast<size_t>(u.row)] += target - current;
        if (updateCell(u.row, remap_[static_cast<size_t>(u.col)], current,
                       target, config, noise, report))
            touched = true;
    }
    if (p_.abft) {
        // Keep the checksum column tracking the *intended* state: one
        // exact verification write per touched row, billed like any
        // other pulse. A stuck/open data cell that swallowed its update
        // leaves the array deviating from intent, so the divergence the
        // checksum now reports is a true corruption, not a bookkeeping
        // artifact.
        const int chk = physicalDataCols() + 1;
        for (int i = 0; i < p_.rows; ++i) {
            const long long d = row_delta[static_cast<size_t>(i)];
            if (d == 0)
                continue;
            ++report.pulses;
            report.updateEnergy += programPulseEnergy();
            cellAt(i, chk) +=
                (2.0 * d / top / p_.cols) * gHalfSwing_;
            touched = true;
        }
    }
    if (touched)
        invalidateCache();
    return report;
}

UpdateReport
CrossbarArray::applyDelta(int row, int col, int delta,
                          const ProgrammingConfig &config)
{
    return updateCells({CellUpdate{row, col, delta}}, config);
}

int
CrossbarArray::levelAt(int row, int col) const
{
    const double norm = (conductanceAt(row, col) - gMid_) / gHalfSwing_;
    const int top = p_.levels - 1;
    const int level = static_cast<int>(std::lround((norm + 1.0) / 2.0 * top));
    return std::clamp(level, 0, top);
}

ProgramReport
CrossbarArray::program(const std::vector<float> &weights,
                       const ProgrammingConfig &config)
{
    NEBULA_ASSERT(weights.size() ==
                      static_cast<size_t>(p_.rows) * p_.cols,
                  "weight matrix size mismatch: got ", weights.size(),
                  " want ", p_.rows * p_.cols);

    ProgramReport report;
    invalidateCache();
    planRepair(config, report);

    const GaussianVariabilityModel noise(p_.variationSigma);
    Rng rng(p_.variationSeed);
    const int top = p_.levels - 1;
    const int ref = physicalDataCols();

    for (int i = 0; i < p_.rows; ++i) {
        double wq_sum = 0.0;
        for (int j = 0; j < p_.cols; ++j) {
            const double w = std::clamp<double>(
                weights[static_cast<size_t>(i) * p_.cols + j], -1.0, 1.0);
            // Quantize to the discrete DW pinning states.
            const int level =
                static_cast<int>(std::lround((w + 1.0) / 2.0 * top));
            wq_sum += 2.0 * level / top - 1.0;
            programCell(i, remap_[static_cast<size_t>(j)], level, config,
                        noise, rng, report);
        }
        // Reference column stays at G_mid (possibly with variation too).
        double gref = gMid_;
        if (p_.variationSigma > 0.0)
            gref *= noise.programFactor(rng);
        if (!faults_.empty() && faults_.rowOpen(i))
            gref = 0.0;
        cellAt(i, ref) = gref;
        if (p_.abft) {
            // Checksum column: the row-sum of the intended quantized
            // weights, scaled into the cell swing so it can be sensed
            // as one ordinary column current. Written through the
            // closed verification loop with an uncapped pulse budget
            // (one column per array can afford it), so it lands on
            // target exactly -- detection compares the noisy data
            // columns against this trusted expectation. A broken row
            // line is driven from the dedicated verification driver,
            // so the checksum cell is NOT zeroed with the data cells:
            // the dead row then reads 0 on the data side but keeps a
            // nonzero expectation, which is exactly the violation.
            ++report.pulses;
            report.programEnergy += programPulseEnergy();
            cellAt(i, ref + 1) =
                gMid_ + (wq_sum / p_.cols) * gHalfSwing_;
        }
    }
    return report;
}

void
CrossbarArray::programWeights(const std::vector<float> &weights)
{
    program(weights, ProgrammingConfig{});
}

int
CrossbarArray::physicalColumn(int col) const
{
    NEBULA_ASSERT(col >= 0 && col < p_.cols, "column out of range");
    return remap_[static_cast<size_t>(col)];
}

int
CrossbarArray::sparesUsed() const
{
    int used = 0;
    for (int p : remap_)
        used += p >= p_.cols;
    return used;
}

double
CrossbarArray::conductanceAt(int row, int col) const
{
    NEBULA_ASSERT(row >= 0 && row < p_.rows && col >= 0 && col <= p_.cols,
                  "conductanceAt out of range");
    const int phys = col == p_.cols ? physicalDataCols()
                                    : remap_[static_cast<size_t>(col)];
    return cellAt(row, phys);
}

double
CrossbarArray::weightAt(int row, int col) const
{
    return (conductanceAt(row, col) - gMid_) / gHalfSwing_;
}

double
CrossbarArray::physicalConductanceAt(int row, int phys_col) const
{
    NEBULA_ASSERT(row >= 0 && row < p_.rows && phys_col >= 0 &&
                      phys_col < physicalStride(),
                  "physicalConductanceAt out of range");
    return cellAt(row, phys_col);
}

double
CrossbarArray::currentScale() const
{
    return p_.readVoltage * gHalfSwing_;
}

double
CrossbarArray::maxColumnCurrent() const
{
    return p_.readVoltage * cell_.conductanceP() * p_.rows;
}

const CrossbarArray::EvalCache &
CrossbarArray::evalCache() const
{
    EvalCache &c = cache_;
    if (c.valid)
        return c;

    const int rows = p_.rows;
    const int cols = p_.cols;
    const int ref = physicalDataCols();
    c.dense.resize(static_cast<size_t>(rows) * cols);
    c.refCol.resize(static_cast<size_t>(rows));
    c.rowGsum.resize(static_cast<size_t>(rows));
    for (int i = 0; i < rows; ++i) {
        const double *row =
            &conductance_[static_cast<size_t>(i) * physicalStride()];
        double *dense = &c.dense[static_cast<size_t>(i) * cols];
        // Summation order (logical columns, then reference) matches the
        // naive reference model so the cached energy term is
        // bit-identical to it.
        double row_g = 0.0;
        for (int j = 0; j < cols; ++j) {
            const double g = row[remap_[static_cast<size_t>(j)]];
            dense[j] = g;
            row_g += g;
        }
        c.refCol[static_cast<size_t>(i)] = row[ref];
        c.rowGsum[static_cast<size_t>(i)] = row_g + row[ref];
    }
    if (p_.abft) {
        // Checksum column view, and its read dissipation folded into
        // the per-row conductance totals: the column is sensed on
        // every evaluation, so its ohmic energy is billed with the
        // data and reference columns.
        c.chkCol.resize(static_cast<size_t>(rows));
        for (int i = 0; i < rows; ++i) {
            const double g_chk =
                conductance_[static_cast<size_t>(i) * physicalStride() +
                             ref + 1];
            c.chkCol[static_cast<size_t>(i)] = g_chk;
            c.rowGsum[static_cast<size_t>(i)] += g_chk;
        }
    }

    c.colOpen.assign(static_cast<size_t>(cols), 0);
    c.anyColOpen = false;
    if (!faults_.empty()) {
        for (int j = 0; j < cols; ++j) {
            if (faults_.colOpen(remap_[static_cast<size_t>(j)])) {
                c.colOpen[static_cast<size_t>(j)] = 1;
                c.anyColOpen = true;
            }
        }
    }
    c.valid = true;
    return c;
}

CrossbarEval
CrossbarArray::evaluateIdeal(const std::vector<double> &inputs,
                             double duration) const
{
    NEBULA_ASSERT(inputs.size() == static_cast<size_t>(p_.rows),
                  "input vector size mismatch");
    CrossbarEval eval;
    evaluateIdealInto(inputs.data(), duration, eval);
    return eval;
}

void
CrossbarArray::evaluateIdealInto(const double *inputs, double duration,
                                 CrossbarEval &eval) const
{
    eval.currents.resize(static_cast<size_t>(p_.cols));
    const int n_active = soloWindow(inputs, eval.currents.data());
    eval.energy = finishWindow(eval.currents.data(), cache_.active.data(),
                               n_active, cache_.va.data(), 1, duration,
                               eval.check);
}

int
CrossbarArray::soloWindow(const double *inputs, double *out) const
{
    const EvalCache &c = evalCache();
    const int cols = p_.cols;

    // Active-row gather: the tiles below walk only driven rows.
    std::vector<int> &active = cache_.active;
    std::vector<double> &va = cache_.va;
    active.clear();
    va.clear();
    for (int i = 0; i < p_.rows; ++i) {
        const double v = std::clamp(inputs[i], 0.0, 1.0) * p_.readVoltage;
        if (v == 0.0)
            continue;
        active.push_back(i);
        va.push_back(v);
    }
    const int n_active = static_cast<int>(active.size());

    // Column currents through the register-tiled kernel: per column the
    // partial sum accumulates in ascending row order, the order of the
    // naive reference, so results are bit-identical to it.
    int j = 0;
    for (; j + 16 <= cols; j += 16)
        soloColsTile16(c.dense.data(), static_cast<size_t>(cols),
                       active.data(), n_active, va.data(), j, out);
    if (j < cols)
        soloColsTileN(c.dense.data(), static_cast<size_t>(cols),
                      active.data(), n_active, va.data(), j, cols - j, out);
    return n_active;
}

double
CrossbarArray::finishWindow(double *out, const int *active, int n_active,
                            const double *va, size_t va_stride,
                            double duration, CrossbarCheck &check) const
{
    const EvalCache &c = cache_;
    // Reference column and dissipation: ascending active-row chains,
    // separate from the column-current walk.
    double ref_current = 0.0;
    double power = 0.0;
    for (int a = 0; a < n_active; ++a) {
        const double v = va[static_cast<size_t>(a) * va_stride];
        const size_t i = static_cast<size_t>(active[a]);
        ref_current += v * c.refCol[i];
        power += v * v * c.rowGsum[i];
    }
    for (int j = 0; j < p_.cols; ++j)
        out[j] -= ref_current;
    if (c.anyColOpen) {
        // An open source-line disconnects the neuron input entirely: it
        // integrates nothing, rather than the bare reference current.
        for (int j = 0; j < p_.cols; ++j)
            if (c.colOpen[static_cast<size_t>(j)])
                out[j] = 0.0;
    }
    check = CrossbarCheck{};
    if (p_.abft) {
        // Checksum read-out: the same ascending chain as the reference
        // column, so the verdict does not depend on which kernel
        // produced the column currents.
        double chk_current = 0.0;
        double vsq = 0.0;
        for (int a = 0; a < n_active; ++a) {
            const double v = va[static_cast<size_t>(a) * va_stride];
            chk_current += v * c.chkCol[static_cast<size_t>(active[a])];
            vsq += v * v;
        }
        check = makeCheck(out, chk_current, ref_current, vsq);
    }
    return power * duration;
}

CrossbarEval
CrossbarArray::evaluateSparse(const SpikeVector &active,
                              double duration) const
{
    CrossbarEval eval;
    evaluateSparseInto(active, duration, eval);
    return eval;
}

void
CrossbarArray::evaluateSparseInto(const SpikeVector &active,
                                  double duration, CrossbarEval &eval) const
{
    evaluateSparseInto(active.data(), static_cast<int>(active.size()),
                       duration, eval);
}

void
CrossbarArray::evaluateSparseInto(const int *active, int n_active,
                                  double duration, CrossbarEval &eval) const
{
    const EvalCache &c = evalCache();
    const int cols = p_.cols;
    const double v = p_.readVoltage;
    eval.currents.assign(cols, 0.0);

    double *out = eval.currents.data();
    int a = 0;
    for (; a + 4 <= n_active; a += 4) {
        const int i0 = active[a], i1 = active[a + 1];
        const int i2 = active[a + 2], i3 = active[a + 3];
        NEBULA_ASSERT(i0 >= 0 && i3 < p_.rows, "active row out of range");
        accumulateRows4(out, cols, v,
                        &c.dense[static_cast<size_t>(i0) * cols],
                        &c.dense[static_cast<size_t>(i1) * cols],
                        &c.dense[static_cast<size_t>(i2) * cols],
                        &c.dense[static_cast<size_t>(i3) * cols]);
    }
    for (; a < n_active; ++a) {
        const int i = active[a];
        NEBULA_ASSERT(i >= 0 && i < p_.rows, "active row out of range");
        accumulateRow(out, cols, v,
                      &c.dense[static_cast<size_t>(i) * cols]);
    }
    // Every spike drives its row at the full read voltage: one shared
    // voltage (stride 0) for the epilogue.
    eval.energy =
        finishWindow(out, active, n_active, &v, 0, duration, eval.check);
}

CrossbarBatchEval
CrossbarArray::evaluateIdealBatch(const std::vector<double> &inputs,
                                  int batch, double duration) const
{
    NEBULA_ASSERT(batch > 0, "empty evaluation batch");
    NEBULA_ASSERT(inputs.size() ==
                      static_cast<size_t>(batch) * p_.rows,
                  "batched input size mismatch");

    const int cols = p_.cols;
    const int rows = p_.rows;
    const EvalCache &c = evalCache();
    CrossbarBatchEval eval;
    eval.currents.resize(static_cast<size_t>(batch) * cols);
    eval.energies.resize(static_cast<size_t>(batch));
    if (p_.abft)
        eval.checks.resize(static_cast<size_t>(batch));
    auto finish = [&](int b, const int *active, int n_active,
                      const double *va, size_t va_stride) {
        CrossbarCheck check;
        const double energy = finishWindow(
            &eval.currents[static_cast<size_t>(b) * cols], active, n_active,
            va, va_stride, duration, check);
        eval.energies[static_cast<size_t>(b)] = energy;
        eval.energy += energy;
        if (p_.abft)
            eval.checks[static_cast<size_t>(b)] = check;
    };

    // Register-tiled groups of four windows (the batched GEMM-style
    // path): gather the rows at least one window drives, pack the four
    // voltages per active row, then walk column tiles whose 4x8
    // accumulator block lives in registers across the whole row walk.
    // Per (window, column) the partial sum still grows in ascending row
    // order -- a zero-voltage row only ever contributes an exact +0.0
    // to the non-negative partials -- so each window stays bit-identical
    // to a standalone evaluateIdeal. Image windows share a lot of dark
    // rows (blank borders, post-ReLU zeros), so the shared active list
    // also skips most of the work the solo path skips.
    std::vector<int> &active = cache_.active;
    std::vector<double> &va = cache_.va;
    int b = 0;
    for (; b + 4 <= batch; b += 4) {
        const double *in = &inputs[static_cast<size_t>(b) * rows];
        active.clear();
        va.clear();
        for (int i = 0; i < rows; ++i) {
            double v[4];
            for (int w = 0; w < 4; ++w)
                v[w] = std::clamp(in[static_cast<size_t>(w) * rows + i],
                                  0.0, 1.0) *
                       p_.readVoltage;
            if (v[0] == 0.0 && v[1] == 0.0 && v[2] == 0.0 && v[3] == 0.0)
                continue;
            active.push_back(i);
            va.insert(va.end(), v, v + 4);
        }
        const int n_active = static_cast<int>(active.size());
        double *out = &eval.currents[static_cast<size_t>(b) * cols];
        int j = 0;
        for (; j + 8 <= cols; j += 8)
            windowColsTile4x8(c.dense.data(), static_cast<size_t>(cols),
                              active.data(), n_active, va.data(), j, out,
                              static_cast<size_t>(cols));
        if (j < cols)
            windowColsTile4xN(c.dense.data(), static_cast<size_t>(cols),
                              active.data(), n_active, va.data(), j,
                              cols - j, out, static_cast<size_t>(cols));
        // The epilogue walks the shared active rows with this window's
        // voltage column; the other windows' rows add exact zeros.
        for (int w = 0; w < 4; ++w)
            finish(b + w, active.data(), n_active, va.data() + w, 4);
    }
    // Leftover windows (and a batch of one) take the solo kernel.
    for (; b < batch; ++b) {
        const int n_active =
            soloWindow(&inputs[static_cast<size_t>(b) * rows],
                       &eval.currents[static_cast<size_t>(b) * cols]);
        finish(b, active.data(), n_active, va.data(), 1);
    }
    return eval;
}

CrossbarCheck
CrossbarArray::makeCheck(const double *currents, double chk_current,
                         double ref_current, double vsq_sum) const
{
    CrossbarCheck check;
    check.checks = 1;

    // ABFT identity: every data cell holds G_mid + wq*dG/2 and the
    // checksum cell holds G_mid + (sum_j wq)/cols * dG/2, so on a clean
    // array  sum_j I_j(raw) == cols * I_chk  exactly. The reference
    // current appears cols times on both sides of the subtracted form
    // and cancels algebraically, taking its programming noise with it.
    double observed = 0.0;
    for (int j = 0; j < p_.cols; ++j)
        observed += currents[j];
    const double expected =
        static_cast<double>(p_.cols) * (chk_current - ref_current);
    check.residual = std::abs(observed - expected);

    // Tolerance floor: half a conductance LSB at full read drive --
    // the same quantum the column ADC resolves, so anything under it
    // is invisible to the readout anyway. On top, 6 sigma of the
    // accumulated programming variation: per-cell noise is an
    // independent zero-mean factor of spread sigma on a conductance
    // bounded by G_max, and the residual sums cols cells per driven
    // row, giving Var <= sigma^2 * G_max^2 * cols * sum_i v_i^2.
    const double step_g = 2.0 * gHalfSwing_ / (p_.levels - 1);
    double tol = 0.5 * p_.readVoltage * step_g;
    if (p_.variationSigma > 0.0) {
        const double g_max = gMid_ + gHalfSwing_;
        tol += 6.0 * p_.variationSigma * g_max *
               std::sqrt(static_cast<double>(p_.cols) * vsq_sum);
    }
    check.tolerance = tol;
    check.violations = check.residual > tol ? 1 : 0;
    return check;
}

CrossbarEval
CrossbarArray::evaluateParasitic(const std::vector<double> &inputs,
                                 double duration, int max_iters,
                                 double tolerance) const
{
    NEBULA_ASSERT(inputs.size() == static_cast<size_t>(p_.rows),
                  "input vector size mismatch");

    const int rows = p_.rows;
    const int cols = physicalStride(); // data + spares + reference
    const double gw = 1.0 / p_.wireResistance;

    // Node voltages: vr (bit-line side) and vc (source-line side). The
    // solver workspace lives in the eval cache so repeated solves (the
    // supply-voltage ablation sweeps) stop churning the allocator; it
    // is fully re-initialized below, so results are unchanged.
    std::vector<double> &vr = cache_.vr;
    std::vector<double> &vc = cache_.vc;
    std::vector<double> &source = cache_.source;
    vr.assign(static_cast<size_t>(rows) * cols, 0.0);
    vc.assign(static_cast<size_t>(rows) * cols, 0.0);
    source.resize(static_cast<size_t>(rows));
    for (int i = 0; i < rows; ++i)
        source[static_cast<size_t>(i)] =
            std::clamp(inputs[i], 0.0, 1.0) * p_.readVoltage;

    auto g = [&](int i, int j) {
        return conductance_[static_cast<size_t>(i) * cols + j];
    };
    auto idx = [&](int i, int j) {
        return static_cast<size_t>(i) * cols + j;
    };

    // Initial guess: ideal voltages (sources on rows, ground on columns).
    for (int i = 0; i < rows; ++i)
        for (int j = 0; j < cols; ++j)
            vr[idx(i, j)] = source[i];

    double delta = 0.0;
    for (int iter = 0; iter < max_iters; ++iter) {
        delta = 0.0;
        for (int i = 0; i < rows; ++i) {
            for (int j = 0; j < cols; ++j) {
                // Row node (i, j): neighbors are the driver (j == 0),
                // adjacent row nodes, and the cell to the column node.
                double num = g(i, j) * vc[idx(i, j)];
                double den = g(i, j);
                if (j == 0) {
                    num += gw * source[i];
                    den += gw;
                } else {
                    num += gw * vr[idx(i, j - 1)];
                    den += gw;
                }
                if (j + 1 < cols) {
                    num += gw * vr[idx(i, j + 1)];
                    den += gw;
                }
                const double nv = num / den;
                delta = std::max(delta, std::abs(nv - vr[idx(i, j)]));
                vr[idx(i, j)] = nv;

                // Column node (i, j): neighbors are adjacent column nodes
                // and ground (the spin neuron's magneto-metallic input)
                // at the bottom (i == rows - 1).
                double cnum = g(i, j) * vr[idx(i, j)];
                double cden = g(i, j);
                if (i > 0) {
                    cnum += gw * vc[idx(i - 1, j)];
                    cden += gw;
                }
                if (i + 1 < rows) {
                    cnum += gw * vc[idx(i + 1, j)];
                    cden += gw;
                } else {
                    // bottom node tied to ground through one wire segment
                    cden += gw;
                }
                const double ncv = cnum / cden;
                delta = std::max(delta, std::abs(ncv - vc[idx(i, j)]));
                vc[idx(i, j)] = ncv;
            }
        }
        if (delta < tolerance)
            break;
    }

    CrossbarEval eval;
    eval.currents.assign(p_.cols, 0.0);
    // Column output current = bottom node voltage / wire segment to gnd.
    const double ref = vc[idx(rows - 1, physicalDataCols())] * gw;
    for (int j = 0; j < p_.cols; ++j) {
        const int p = remap_[static_cast<size_t>(j)];
        if (!faults_.empty() && faults_.colOpen(p)) {
            eval.currents[static_cast<size_t>(j)] = 0.0;
            continue;
        }
        eval.currents[static_cast<size_t>(j)] =
            vc[idx(rows - 1, p)] * gw - ref;
    }

    // Power delivered by the row drivers.
    double power = 0.0;
    for (int i = 0; i < rows; ++i)
        power += source[i] * (source[i] - vr[idx(i, 0)]) * gw;
    eval.energy = power * duration;
    return eval;
}

} // namespace nebula
