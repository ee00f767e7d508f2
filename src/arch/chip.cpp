#include "arch/chip.hpp"

#include <algorithm>
#include <cmath>

#include "arch/pipeline.hpp"
#include "circuit/driver.hpp"
#include "common/logging.hpp"
#include "common/simd.hpp"
#include "nn/activations.hpp"
#include "nn/conv.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "snn/encoder.hpp"

namespace nebula {

namespace {

/**
 * Publish the static shape of a freshly programmed network into the
 * global metrics registry: fabric occupancy gauges plus per-layer
 * utilization and pipeline depth. Program time only -- never on the
 * inference path.
 */
void
publishMappingMetrics(const char *mode, const NebulaConfig &config,
                      const NetworkMapping &mapping)
{
    auto &registry = obs::MetricsRegistry::global();
    registry.gauge("chip.layers").set(
        static_cast<double>(mapping.layers.size()));
    registry.gauge("chip.cores").set(
        static_cast<double>(mapping.totalCores()));
    registry.gauge("chip.crossbars").set(
        static_cast<double>(mapping.totalAcs()));

    PipelineModel pipeline(config);
    for (const LayerMapping &layer : mapping.layers) {
        const obs::Labels labels = {
            {"layer", std::to_string(layer.layerIndex)}};
        registry.gauge("chip.layer.utilization", labels)
            .set(layer.utilization);
        registry.gauge("chip.layer.pipeline_stages", labels)
            .set(static_cast<double>(pipeline.stagesFor(layer)));
    }
    NEBULA_DEBUG("chip", mode, " programmed: ", mapping.layers.size(),
                 " weight layers on ", mapping.totalCores(), " cores / ",
                 mapping.totalAcs(), " crossbars");
}

/**
 * Reconstruct real-unit pre-activations from one column group's
 * normalized sums: out[j * stride] = currents[j] / kappa * scale +
 * bias[j] (stride 1 for a Linear row, the output plane size for a conv
 * window). The division by kappa is kept a division (not a reciprocal
 * multiply) so the result stays bit-identical to the generic walk's
 * emit.
 */
NEBULA_TARGET_CLONES void
emitAffine(float *out, size_t stride, const float *bias,
           const double *currents, int n, double kappa, double scale)
{
    // The contiguous (Linear) case gets its own loop so the divides
    // vectorize; a strided store would keep them scalar.
    if (stride == 1) {
        for (int j = 0; j < n; ++j)
            out[j] =
                static_cast<float>(currents[j] / kappa * scale + bias[j]);
        return;
    }
    for (int j = 0; j < n; ++j)
        out[static_cast<size_t>(j) * stride] =
            static_cast<float>(currents[j] / kappa * scale + bias[j]);
}

/** Element count of a tensor shape. */
long long
shapeElements(const std::vector<int> &shape)
{
    long long n = 1;
    for (int d : shape)
        n *= d;
    return n;
}

/**
 * CSR table of the (output, tap) pairs each input coordinate feeds
 * along one conv axis: input i reaches output o through tap t when
 * o * stride - pad + t == i, recorded as {o * out_scale, t * tap_scale}.
 */
template <class Tap>
void
buildConvTaps(int in, int out, int k, int stride, int pad, int out_scale,
              int tap_scale, std::vector<int> &start, std::vector<Tap> &taps)
{
    start.assign(static_cast<size_t>(in) + 1, 0);
    taps.clear();
    for (int i = 0; i < in; ++i) {
        for (int t = 0; t < k; ++t) {
            const int num = i + pad - t;
            if (num < 0 || num % stride != 0 || num / stride >= out)
                continue;
            taps.push_back({num / stride * out_scale, t * tap_scale});
        }
        start[static_cast<size_t>(i) + 1] = static_cast<int>(taps.size());
    }
}

} // namespace

void
ChipStats::merge(const ChipStats &other)
{
    crossbarEvals += other.crossbarEvals;
    adcConversions += other.adcConversions;
    spikes += other.spikes;
    crossbarEnergy += other.crossbarEnergy;
    nocPackets += other.nocPackets;
    nocEnergy += other.nocEnergy;
    abftChecks += other.abftChecks;
    abftViolations += other.abftViolations;
}

EnergyBreakdown
estimateEnergyBreakdown(const ChipStats &before, const ChipStats &after,
                        Mode mode)
{
    const ComponentDb &db = componentDb();
    const double cycle = db.cycleTime();
    const double evals =
        static_cast<double>(after.crossbarEvals - before.crossbarEvals);
    const double conversions =
        static_cast<double>(after.adcConversions - before.adcConversions);

    EnergyBreakdown out;
    out.crossbarJ = after.crossbarEnergy - before.crossbarEnergy;
    out.nocJ = after.nocEnergy - before.nocEnergy;
    // One crossbar evaluation keeps its 1/crossbarsPerCore share of the
    // core's driver bank (ANN DAC array vs. SNN spike drivers) and
    // neuron units busy for one cycle; one ADC conversion is one ADC
    // active for one cycle.
    const double driver_power =
        mode == Mode::ANN ? db.annDacPower() : db.snnDriverPower();
    out.driverJ = evals * driver_power / db.crossbarsPerCore() * cycle;
    out.neuronJ = evals * db.neuronUnitPower() / db.crossbarsPerCore() * cycle;
    out.adcJ = conversions * db.adcPower() * cycle;
    return out;
}

NebulaChip::NebulaChip(const NebulaConfig &config, double variation_sigma,
                       uint64_t seed)
    : config_(config), variationSigma_(variation_sigma), seed_(seed),
      mapper_(config), runSeeds_(seed ^ 0xc41bu)
{
    NocConfig noc_cfg;
    noc_cfg.width = config_.meshWidth;
    noc_cfg.height = config_.meshHeight;
    noc_ = MeshNoc(noc_cfg);
}

void
NebulaChip::programCrossbar(CrossbarArray &xbar,
                            const std::vector<float> &cells)
{
    if (rel_.faults) {
        FaultMap map(xbar.rows(), xbar.cols() + xbar.params().spareCols);
        rel_.faults->sampleInto(
            map, deriveFaultSeed(rel_.faultSeed,
                                 static_cast<uint64_t>(crossbarIndex_)));
        xbar.injectFaults(std::move(map));
    }
    ++crossbarIndex_;

    ProgrammingConfig pc;
    pc.writeVerify = rel_.writeVerify;
    pc.repair = rel_.repair;
    programReport_.merge(xbar.program(cells, pc));
}

float
NebulaChip::mappedWeightScale(int k) const
{
    NEBULA_ASSERT(k >= 0 && k < mappedLayerCount(),
                  "mapped layer index out of range: ", k);
    return layers_[static_cast<size_t>(k)].weightScale;
}

UpdateReport
NebulaChip::updateMappedLayer(int k,
                              const std::vector<WeightCellUpdate> &ups,
                              const ProgrammingConfig &config)
{
    NEBULA_ASSERT(k >= 0 && k < mappedLayerCount(),
                  "mapped layer index out of range: ", k);
    MappedLayer &layer = layers_[static_cast<size_t>(k)];
    NEBULA_ASSERT(layer.dwKernelsPerAc == 0,
                  "incremental updates not supported for diagonal-packed "
                  "depthwise layers");
    obs::TraceSpan span("learning", "layer.update", config_.traceChip);
    span.arg("layer", static_cast<double>(layer.map.layerIndex));

    const int m = config_.atomicSize;
    const int rf = layer.source->receptiveField();
    const int kernels = layer.source->numKernels();
    const int top = mappedLevels() - 1;

    // Bucket the updates per column group so each crossbar gets one
    // updateCells pass (one cache invalidation per touched group).
    std::vector<std::vector<CellUpdate>> per_group(layer.groups.size());
    for (const WeightCellUpdate &u : ups) {
        NEBULA_ASSERT(u.kernel >= 0 && u.kernel < kernels && u.r >= 0 &&
                          u.r < rf,
                      "weight cell update out of range: kernel ", u.kernel,
                      " r ", u.r);
        const size_t g = static_cast<size_t>(u.kernel / m);
        CrossbarArray &xbar = *layer.groups[g];
        const int col = u.kernel % m;
        const int target = std::clamp(u.targetLevel, 0, top);
        const int delta = target - xbar.levelAt(u.r, col);
        if (delta == 0)
            continue;
        per_group[g].push_back(CellUpdate{u.r, col, delta});
    }

    UpdateReport report;
    for (size_t g = 0; g < per_group.size(); ++g) {
        if (per_group[g].empty())
            continue;
        report.merge(layer.groups[g]->updateCells(per_group[g], config));
    }

    // Bias lives in the digital periphery: re-sync it from the source
    // network so host-side bias learning takes effect pulse-free.
    const auto params = layer.source->constParameters();
    if (params.size() > 1) {
        const Tensor &b = *params[1];
        layer.bias.assign(b.data(), b.data() + b.size());
    }

    updateReport_.merge(report);
    auto &registry = obs::MetricsRegistry::global();
    registry.counter("learning.update.cells")
        .inc(static_cast<double>(report.cells));
    registry.counter("learning.update.pulses")
        .inc(static_cast<double>(report.pulses));
    registry.counter("learning.update.energy_j").inc(report.updateEnergy);
    span.arg("cells", static_cast<double>(report.cells));
    span.arg("pulses", static_cast<double>(report.pulses));
    return report;
}

NebulaChip::MappedLayer
NebulaChip::mapWeightLayer(const Layer &layer, int index,
                           float weight_scale, Mode mode)
{
    MappedLayer mapped;
    mapped.source = &layer;
    mapped.map = mapper_.mapLayer(layer, index);
    mapped.weightScale = weight_scale > 0 ? weight_scale : 1.0f;

    CrossbarParams xp;
    xp.levels = 1 << config_.precisionBits;
    xp.readVoltage = mode == Mode::ANN ? 0.75 : 0.25;
    xp.variationSigma = variationSigma_;
    xp.variationSeed = seed_ + static_cast<uint64_t>(index) * 977;
    xp.spareCols = rel_.spareCols;
    xp.abft = config_.abft;

    const int m = config_.atomicSize;
    const auto params = layer.constParameters();
    const Tensor &w = *params[0];
    if (params.size() > 1) {
        const Tensor &b = *params[1];
        mapped.bias.assign(b.data(), b.data() + b.size());
    } else {
        mapped.bias.assign(static_cast<size_t>(layer.numKernels()), 0.0f);
    }

    const int rf = layer.receptiveField();
    const int kernels = layer.numKernels();

    if (layer.kind() == LayerKind::DwConv && rf <= m) {
        // Diagonal packing: kpa kernels per crossbar, disjoint row blocks.
        const int kpa = std::max(1, m / rf);
        mapped.dwKernelsPerAc = kpa;
        const int groups = (kernels + kpa - 1) / kpa;
        for (int g = 0; g < groups; ++g) {
            const int local = std::min(kpa, kernels - g * kpa);
            xp.rows = local * rf;
            xp.cols = local;
            std::vector<float> cells(
                static_cast<size_t>(xp.rows) * xp.cols, 0.0f);
            for (int j = 0; j < local; ++j) {
                const int kernel = g * kpa + j;
                for (int r = 0; r < rf; ++r) {
                    cells[static_cast<size_t>(j * rf + r) * xp.cols + j] =
                        w[static_cast<long long>(kernel) * rf + r] /
                        mapped.weightScale;
                }
            }
            auto xbar = std::make_unique<CrossbarArray>(xp);
            programCrossbar(*xbar, cells);
            mapped.groups.push_back(std::move(xbar));
        }
    } else {
        const int groups = (kernels + m - 1) / m;
        for (int g = 0; g < groups; ++g) {
            const int local = std::min(m, kernels - g * m);
            xp.rows = rf;
            xp.cols = local;
            std::vector<float> cells(static_cast<size_t>(rf) * local, 0.0f);
            for (int r = 0; r < rf; ++r)
                for (int j = 0; j < local; ++j)
                    cells[static_cast<size_t>(r) * local + j] =
                        w[static_cast<long long>(g * m + j) * rf + r] /
                        mapped.weightScale;
            auto xbar = std::make_unique<CrossbarArray>(xp);
            programCrossbar(*xbar, cells);
            mapped.groups.push_back(std::move(xbar));
        }
    }
    return mapped;
}

void
NebulaChip::programAnn(Network &net, const QuantizationResult &quant)
{
    annNet_ = &net;
    snnModel_ = nullptr;
    layers_.clear();
    fastPlan_ = SnnFastPlan();
    mapping_ = mapper_.map(net);
    clearStats();
    programReport_ = ProgramReport();
    updateReport_ = UpdateReport();
    crossbarIndex_ = 0;

    for (const LayerQuantInfo &info : quant.layers) {
        Layer &layer = net.layer(info.layerIndex);
        MappedLayer mapped = mapWeightLayer(layer, info.layerIndex,
                                            info.weightMax, Mode::ANN);
        mapped.inputCeiling = info.actCeiling;

        // Output ceiling: the next ClippedRelu before another weight
        // layer, if any.
        for (int j = info.layerIndex + 1; j < net.numLayers(); ++j) {
            if (net.layer(j).isWeightLayer())
                break;
            NEBULA_ASSERT(net.layer(j).kind() != LayerKind::Relu,
                          "programAnn requires a quantized network");
            if (net.layer(j).kind() == LayerKind::ClippedRelu) {
                mapped.outputCeiling =
                    static_cast<ClippedRelu &>(net.layer(j)).ceiling();
                mapped.hasActivation = true;
                break;
            }
        }

        // One saturating-ReLU neuron unit per column group.
        if (mapped.hasActivation) {
            const double ceiling_alg =
                mapped.outputCeiling /
                (mapped.weightScale * mapped.inputCeiling);
            for (auto &group : mapped.groups) {
                NeuronUnitParams np;
                np.count = group->cols();
                np.levels = 1 << config_.precisionBits;
                np.window = config_.cycleTime;
                auto nu = std::make_unique<ReluNeuronUnit>(np);
                nu->calibrate(group->currentScale(), ceiling_alg);
                mapped.nus.push_back(std::move(nu));
            }
        }
        layers_.push_back(std::move(mapped));
    }
    publishMappingMetrics("ann", config_, mapping_);
}

void
NebulaChip::evaluateLayerBatch(MappedLayer &layer, std::vector<Tensor> &xs,
                               bool binary,
                               std::vector<ChipStats> &per_image)
{
    const int nimg = static_cast<int>(xs.size());
    NEBULA_ASSERT(nimg > 0 && per_image.size() == xs.size(),
                  "per-image stats vector mismatch");
    obs::TraceSpan span("chip", "layer.eval", config_.traceChip);
    span.arg("layer", static_cast<double>(layer.map.layerIndex));
    span.arg("batch", static_cast<double>(nimg));
    const long long evals_before = stats_.crossbarEvals;

    const Layer &src = *layer.source;
    const DacDriver dac(config_.precisionBits, 0.75);
    const float in_ceiling = binary ? 1.0f : layer.inputCeiling;
    const int levels = 1 << config_.precisionBits;
    const float step = layer.hasActivation
                           ? layer.outputCeiling / (levels - 1)
                           : 0.0f;

    // The DAC has only `levels` distinct outputs: tabulate them once
    // so the per-element normalize is a clamp + quantize + load. Spike
    // drivers (binary) take the clamped value as is.
    std::vector<double> dac_out(static_cast<size_t>(levels));
    for (int c = 0; c < levels; ++c)
        dac_out[static_cast<size_t>(c)] = dac.normalizedOutput(c);
    auto normalize = [&](float v) {
        double x =
            std::clamp(static_cast<double>(v) / in_ceiling, 0.0, 1.0);
        if (!binary)
            x = dac_out[static_cast<size_t>(dac.quantize(x))];
        return x;
    };
    // A conv input element is gathered into up to k*k overlapping
    // windows: normalize it once per image, not once per gather.
    std::vector<std::vector<double>> norm(static_cast<size_t>(nimg));
    for (int b = 0; b < nimg; ++b) {
        const Tensor &x = xs[static_cast<size_t>(b)];
        auto &n = norm[static_cast<size_t>(b)];
        n.resize(static_cast<size_t>(x.size()));
        for (long long i = 0; i < x.size(); ++i)
            n[static_cast<size_t>(i)] = normalize(x[i]);
    }

    // Per-column bias drive is window-invariant: hoist its divide out
    // of the per-window loop. Lazily built per group on first use.
    std::vector<std::vector<double>> bias_drive(layer.groups.size());
    auto biasDrive = [&](size_t g, int group_offset,
                         double kappa) -> const double * {
        auto &bd = bias_drive[g];
        if (bd.empty()) {
            const int cols = layer.groups[g]->cols();
            bd.resize(static_cast<size_t>(cols));
            for (int j = 0; j < cols; ++j)
                bd[static_cast<size_t>(j)] =
                    kappa *
                    layer.bias[static_cast<size_t>(group_offset + j)] /
                    (layer.weightScale * in_ceiling);
        }
        return bd.data();
    };
    // Scratch shared across windows/groups (grow-only, no per-window
    // allocation).
    std::vector<int> codes;
    std::vector<double> currents;

    /**
     * Evaluate one column group for @p batch windows spanning the
     * whole image batch (@p per_img consecutive windows per image,
     * image-major) and emit (window, kernel, value). With a following
     * activation the column currents plus the periphery bias injection
     * pass through the group's saturating-ReLU neuron unit; otherwise
     * the raw weighted sum is reconstructed in real units for the
     * ADC/RU path. Every window goes through the same expression
     * sequence whatever the batch, so values are bit-identical to a
     * batch of one.
     */
    const bool use_nu = layer.hasActivation && !binary;
    auto evalGroupBatch = [&](size_t g, int group_offset,
                              const std::vector<double> &windows,
                              int batch, int per_img, auto &&emit) {
        CrossbarArray &xbar = *layer.groups[g];
        const CrossbarBatchEval eval =
            xbar.evaluateIdealBatch(windows, batch, config_.cycleTime);
        stats_.crossbarEvals += batch;
        stats_.crossbarEnergy += eval.energy;
        for (int b = 0; b < batch; ++b) {
            ChipStats &ps = per_image[static_cast<size_t>(b / per_img)];
            ++ps.crossbarEvals;
            ps.crossbarEnergy += eval.energies[static_cast<size_t>(b)];
            if (config_.abft) {
                // Per-window verdicts attribute to the image whose
                // window raised them, so a batched violation flags
                // only the affected request. The checksum read-out is
                // digitized with the data columns: one more conversion.
                const CrossbarCheck &check =
                    eval.checks[static_cast<size_t>(b)];
                stats_.abftChecks += check.checks;
                stats_.abftViolations += check.violations;
                stats_.adcConversions += check.checks;
                ps.abftChecks += check.checks;
                ps.abftViolations += check.violations;
                ps.adcConversions += check.checks;
            }
        }
        const double kappa = xbar.currentScale();
        const int cols = xbar.cols();
        currents.resize(static_cast<size_t>(cols));
        for (int b = 0; b < batch; ++b) {
            const double *cur =
                eval.currents.data() + static_cast<size_t>(b) * cols;
            if (use_nu) {
                const double *bias_cur =
                    biasDrive(g, group_offset, kappa);
                for (int j = 0; j < cols; ++j)
                    currents[static_cast<size_t>(j)] =
                        cur[j] + bias_cur[j];
                codes.resize(static_cast<size_t>(cols));
                layer.nus[g]->evaluateInto(currents.data(), cols,
                                           codes.data());
                for (int j = 0; j < cols; ++j)
                    emit(b, group_offset + j,
                         static_cast<float>(
                             codes[static_cast<size_t>(j)] * step));
            } else {
                for (int j = 0; j < cols; ++j) {
                    const double sum_norm = cur[j] / kappa;
                    emit(b, group_offset + j,
                         static_cast<float>(
                             sum_norm * layer.weightScale * in_ceiling +
                             layer.bias[static_cast<size_t>(group_offset +
                                                            j)]));
                }
            }
        }
    };

    const int kernels = src.numKernels();
    std::vector<Tensor> outs;
    outs.reserve(static_cast<size_t>(nimg));
    std::vector<float *> out_ptrs(static_cast<size_t>(nimg));
    auto addOutput = [&](std::vector<int> shape) {
        outs.emplace_back(Tensor(std::move(shape)));
        out_ptrs[outs.size() - 1] = outs.back().data();
    };

    if (src.kind() == LayerKind::Linear) {
        const auto &fc = static_cast<const Linear &>(src);
        const long long in_f = fc.inFeatures();
        std::vector<double> windows(static_cast<size_t>(nimg) * in_f);
        for (int b = 0; b < nimg; ++b) {
            NEBULA_ASSERT(xs[static_cast<size_t>(b)].size() == in_f,
                          "linear input mismatch on chip");
            std::copy(norm[static_cast<size_t>(b)].begin(),
                      norm[static_cast<size_t>(b)].end(),
                      windows.begin() + static_cast<size_t>(b) * in_f);
            addOutput({1, kernels});
        }
        for (size_t g = 0; g < layer.groups.size(); ++g)
            evalGroupBatch(g, static_cast<int>(g) * config_.atomicSize,
                           windows, nimg, 1,
                           [&](int b, int kernel, float value) {
                               out_ptrs[static_cast<size_t>(b)][kernel] =
                                   value;
                           });
    } else if (src.kind() == LayerKind::Conv) {
        const auto &conv = static_cast<const Conv2d &>(src);
        const int k = conv.kernel(), stride = conv.stride(),
                  pad = conv.padding();
        const int in_c = conv.inChannels();
        const int in_h = xs[0].dim(2), in_w = xs[0].dim(3);
        const int out_h = (in_h + 2 * pad - k) / stride + 1;
        const int out_w = (in_w + 2 * pad - k) / stride + 1;
        const int rf_conv = conv.receptiveField();

        for (int b = 0; b < nimg; ++b) {
            NEBULA_ASSERT(xs[static_cast<size_t>(b)].dim(2) == in_h &&
                              xs[static_cast<size_t>(b)].dim(3) == in_w,
                          "mixed image shapes in one micro-batch");
            addOutput({1, kernels, out_h, out_w});
        }

        auto gatherWindow = [&](const std::vector<double> &n, int oh,
                                int ow, double *window) {
            size_t r = 0;
            for (int c = 0; c < in_c; ++c)
                for (int kh = 0; kh < k; ++kh)
                    for (int kw = 0; kw < k; ++kw, ++r) {
                        const int ih = oh * stride - pad + kh;
                        const int iw = ow * stride - pad + kw;
                        window[r] =
                            (ih < 0 || ih >= in_h || iw < 0 || iw >= in_w)
                                ? 0.0
                                : n[static_cast<size_t>(
                                      (static_cast<long long>(c) * in_h +
                                       ih) *
                                          in_w +
                                      iw)];
                    }
        };

        // ANN mode: one output row of windows per image per crossbar
        // call, image-major, so the cached conductance matrix streams
        // once per nimg * out_w windows. Spike mode: one window per
        // call, every group before the next window -- the order
        // SnnFastPlan bills energy in, which keeps the two paths'
        // ChipStats bit-identical.
        const int positions = out_h * out_w;
        const int span_w = binary ? 1 : out_w;
        std::vector<double> windows(static_cast<size_t>(nimg) * span_w *
                                    rf_conv);
        for (int p0 = 0; p0 < positions; p0 += span_w) {
            for (int b = 0; b < nimg; ++b)
                for (int s = 0; s < span_w; ++s)
                    gatherWindow(norm[static_cast<size_t>(b)],
                                 (p0 + s) / out_w, (p0 + s) % out_w,
                                 windows.data() +
                                     (static_cast<size_t>(b) * span_w + s) *
                                         rf_conv);
            for (size_t g = 0; g < layer.groups.size(); ++g)
                evalGroupBatch(
                    g, static_cast<int>(g) * config_.atomicSize, windows,
                    nimg * span_w, span_w,
                    [&](int w, int kernel, float value) {
                        out_ptrs[static_cast<size_t>(w / span_w)]
                                [static_cast<size_t>(kernel) * positions +
                                 p0 + w % span_w] = value;
                    });
        }
    } else if (src.kind() == LayerKind::DwConv) {
        const auto &conv = static_cast<const DwConv2d &>(src);
        const int k = conv.kernel(), stride = conv.stride(),
                  pad = conv.padding();
        const int channels = conv.channels();
        const int in_h = xs[0].dim(2), in_w = xs[0].dim(3);
        const int out_h = (in_h + 2 * pad - k) / stride + 1;
        const int out_w = (in_w + 2 * pad - k) / stride + 1;
        const int kpa = layer.dwKernelsPerAc;
        NEBULA_ASSERT(kpa > 0, "depthwise layer not diagonal-packed");

        for (int b = 0; b < nimg; ++b) {
            NEBULA_ASSERT(xs[static_cast<size_t>(b)].dim(2) == in_h &&
                              xs[static_cast<size_t>(b)].dim(3) == in_w,
                          "mixed image shapes in one micro-batch");
            addOutput({1, channels, out_h, out_w});
        }

        std::vector<double> windows;
        for (int oh = 0; oh < out_h; ++oh) {
            for (int ow = 0; ow < out_w; ++ow) {
                for (size_t g = 0; g < layer.groups.size(); ++g) {
                    CrossbarArray &xbar = *layer.groups[g];
                    const int local = xbar.cols();
                    const int rows = xbar.rows();
                    windows.assign(static_cast<size_t>(nimg) * rows,
                                   0.0);
                    for (int b = 0; b < nimg; ++b) {
                        const auto &n = norm[static_cast<size_t>(b)];
                        double *window =
                            windows.data() +
                            static_cast<size_t>(b) * rows;
                        for (int j = 0; j < local; ++j) {
                            const int c = static_cast<int>(g) * kpa + j;
                            size_t r = static_cast<size_t>(j) * k * k;
                            for (int kh = 0; kh < k; ++kh)
                                for (int kw = 0; kw < k; ++kw, ++r) {
                                    const int ih = oh * stride - pad + kh;
                                    const int iw = ow * stride - pad + kw;
                                    window[r] =
                                        (ih < 0 || ih >= in_h || iw < 0 ||
                                         iw >= in_w)
                                            ? 0.0
                                            : n[static_cast<size_t>(
                                                  (static_cast<long long>(
                                                       c) *
                                                       in_h +
                                                   ih) *
                                                      in_w +
                                                  iw)];
                                }
                        }
                    }
                    evalGroupBatch(g, static_cast<int>(g) * kpa, windows,
                                   nimg, 1,
                                   [&](int b, int kernel, float value) {
                                       out_ptrs[static_cast<size_t>(b)]
                                               [(static_cast<size_t>(
                                                     kernel) *
                                                     out_h +
                                                 oh) *
                                                    out_w +
                                                ow] = value;
                                   });
                }
            }
        }
    } else {
        NEBULA_PANIC("unsupported weight layer on chip: ", src.name());
    }
    span.arg("crossbar_evals",
             static_cast<double>(stats_.crossbarEvals - evals_before));
    xs = std::move(outs);
}

Tensor
NebulaChip::runAnn(const Tensor &image)
{
    return std::move(runAnnBatch({image}).logits.front());
}

AnnBatchResult
NebulaChip::runAnnBatch(const std::vector<Tensor> &images)
{
    NEBULA_ASSERT(annNet_, "no ANN programmed");
    AnnBatchResult result;
    const int nimg = static_cast<int>(images.size());

    // Kernel-friendly block size: the batched crossbar kernels already
    // amortize the conductance stream across 4-window register tiles,
    // so wider layer walks buy no further arithmetic -- they only grow
    // the per-layer window/current buffers past L1. Blocks of 8 images
    // measured fastest on the development host; splitting is exact
    // (each block is an independent full-precision walk).
    constexpr int kImageBlock = 8;
    if (nimg > kImageBlock) {
        result.perImage.reserve(static_cast<size_t>(nimg));
        result.logits.reserve(static_cast<size_t>(nimg));
        for (int s = 0; s < nimg; s += kImageBlock) {
            const int n = std::min(kImageBlock, nimg - s);
            std::vector<Tensor> block(images.begin() + s,
                                      images.begin() + s + n);
            AnnBatchResult part = runAnnBatch(block);
            for (auto &t : part.logits)
                result.logits.push_back(std::move(t));
            for (auto &ps : part.perImage)
                result.perImage.push_back(ps);
        }
        return result;
    }

    result.perImage.assign(static_cast<size_t>(nimg), ChipStats());
    if (nimg == 0)
        return result;
    Network &net = *annNet_;

    std::vector<Tensor> xs;
    xs.reserve(static_cast<size_t>(nimg));
    for (const Tensor &image : images) {
        std::vector<int> batched;
        batched.push_back(1);
        for (int d = 0; d < image.rank(); ++d)
            batched.push_back(image.dim(d));
        xs.push_back(image.reshaped(batched));
    }

    const long long evals_before = stats_.crossbarEvals;
    const long long adc_before = stats_.adcConversions;
    const long long checks_before = stats_.abftChecks;
    const long long violations_before = stats_.abftViolations;

    size_t next_mapped = 0;
    for (int i = 0; i < net.numLayers(); ++i) {
        Layer &layer = net.layer(i);
        if (layer.isWeightLayer()) {
            NEBULA_ASSERT(next_mapped < layers_.size(),
                          "unmapped weight layer");
            MappedLayer &mapped = layers_[next_mapped++];
            evaluateLayerBatch(mapped, xs, false, result.perImage);
            if (!mapped.hasActivation) {
                // Output layer: partial sums digitized by the ADC.
                for (int b = 0; b < nimg; ++b) {
                    const long long n = xs[static_cast<size_t>(b)].size();
                    stats_.adcConversions += n;
                    result.perImage[static_cast<size_t>(b)]
                        .adcConversions += n;
                }
                obs::recordInstant("chip", "adc.convert",
                                   config_.traceChip);
            }
            // Inter-layer traffic: 4-bit activations to the next core,
            // one packet per image exactly as the solo walk bills.
            obs::TraceSpan noc_span("noc", "transfer", config_.traceChip);
            long long bits = 0;
            for (int b = 0; b < nimg; ++b) {
                const long long image_bits =
                    xs[static_cast<size_t>(b)].size() *
                    config_.precisionBits;
                bits += image_bits;
                const double joules =
                    noc_.transferEnergy({0, 0}, {1, 0}, image_bits);
                stats_.nocPackets++;
                stats_.nocEnergy += joules;
                ChipStats &ps = result.perImage[static_cast<size_t>(b)];
                ps.nocPackets++;
                ps.nocEnergy += joules;
            }
            noc_span.arg("bits", static_cast<double>(bits));
        } else if (layer.kind() == LayerKind::ClippedRelu) {
            // Already applied by the preceding layer's neuron units.
            continue;
        } else {
            for (int b = 0; b < nimg; ++b)
                xs[static_cast<size_t>(b)] =
                    layer.forward(xs[static_cast<size_t>(b)], false);
        }
    }
    auto &registry = obs::MetricsRegistry::global();
    registry.counter("chip.crossbar_evals")
        .inc(static_cast<double>(stats_.crossbarEvals - evals_before));
    registry.counter("chip.adc_conversions")
        .inc(static_cast<double>(stats_.adcConversions - adc_before));
    if (config_.abft) {
        registry.counter("abft.checks")
            .inc(static_cast<double>(stats_.abftChecks - checks_before));
        registry.counter("abft.violations")
            .inc(static_cast<double>(stats_.abftViolations -
                                     violations_before));
    }
    result.logits = std::move(xs);
    return result;
}

void
NebulaChip::programSnn(SpikingModel &model)
{
    snnModel_ = &model;
    annNet_ = nullptr;
    layers_.clear();
    mapping_ = mapper_.map(model.net);
    clearStats();
    programReport_ = ProgramReport();
    updateReport_ = UpdateReport();
    crossbarIndex_ = 0;

    for (int i = 0; i < model.net.numLayers(); ++i) {
        Layer &layer = model.net.layer(i);
        if (!layer.isWeightLayer())
            continue;
        const Tensor &w = *layer.parameters()[0];
        const float scale = std::max(w.maxAbs(), 1e-6f);
        MappedLayer mapped = mapWeightLayer(layer, i, scale, Mode::SNN);
        mapped.inputCeiling = 1.0f; // binary spike inputs
        layers_.push_back(std::move(mapped));
    }
    buildSnnFastPlan();
    publishMappingMetrics("snn", config_, mapping_);
}

void
NebulaChip::buildSnnFastPlan()
{
    fastPlan_ = SnnFastPlan();
    if (!snnModel_)
        return;
    Network &net = snnModel_->net;

    std::vector<SnnFastStage> stages;
    size_t next_mapped = 0;
    for (int i = 0; i < net.numLayers(); ++i) {
        Layer &layer = net.layer(i);
        SnnFastStage stage;
        stage.kind = layer.kind();
        stage.layer = &layer;
        switch (stage.kind) {
        case LayerKind::Flatten:
            // Shape-only; bindSnnFastPlan folds it into the buffers.
            continue;
        case LayerKind::Conv:
        case LayerKind::Linear:
            stage.layerIndex = next_mapped++;
            // Binary drivers straight from the encoder or an IF layer;
            // anything else (a pool, another weight layer) is fractional.
            stage.spikeInput =
                stages.empty() || stages.back().kind == LayerKind::If;
            if (!stages.empty() && stages.back().kind == LayerKind::If)
                stages.back().scanSpikes = true;
            break;
        case LayerKind::If: {
            const IfOptions &opts =
                static_cast<IfLayer &>(layer).options();
            stage.plainIf = opts.leak == 0.0f && opts.refractory == 0;
            [[fallthrough]];
        }
        case LayerKind::AvgPool:
            // Dense consumers: the encoder emits only a spike list.
            if (stages.empty())
                return;
            break;
        default:
            return; // unsupported topology: keep the generic walk
        }
        stages.push_back(std::move(stage));
    }
    if (stages.empty() || next_mapped != layers_.size())
        return;

    fastPlan_.stages = std::move(stages);
    fastPlan_.usable = true;
}

void
NebulaChip::bindSnnFastPlan(const std::vector<int> &in_shape)
{
    SnnFastPlan &plan = fastPlan_;
    Network &net = snnModel_->net;
    std::vector<int> shape = in_shape;
    SnnFastStage *prev = nullptr;
    size_t next = 0;
    for (int i = 0; i < net.numLayers(); ++i) {
        if (net.layer(i).kind() == LayerKind::Flatten) {
            shape = {1, static_cast<int>(shapeElements(shape))};
            if (prev)
                prev->out.reshape(shape);
            continue;
        }
        SnnFastStage &stage = plan.stages[next++];
        stage.inShape = shape;
        switch (stage.kind) {
        case LayerKind::Linear: {
            const auto &fc = static_cast<const Linear &>(*stage.layer);
            NEBULA_ASSERT(shapeElements(shape) == fc.inFeatures(),
                          "input size does not match the programmed SNN");
            stage.out = Tensor({1, fc.numKernels()});
            break;
        }
        case LayerKind::Conv: {
            const auto &conv = static_cast<const Conv2d &>(*stage.layer);
            NEBULA_ASSERT(shape.size() == 4 &&
                              shape[1] == conv.inChannels(),
                          "conv input does not match the programmed SNN");
            stage.k = conv.kernel();
            stage.stride = conv.stride();
            stage.pad = conv.padding();
            stage.inC = shape[1];
            stage.inH = shape[2];
            stage.inW = shape[3];
            stage.outH =
                (stage.inH + 2 * stage.pad - stage.k) / stage.stride + 1;
            stage.outW =
                (stage.inW + 2 * stage.pad - stage.k) / stage.stride + 1;
            stage.rf = conv.receptiveField();
            stage.out =
                Tensor({1, conv.numKernels(), stage.outH, stage.outW});
            const size_t windows =
                static_cast<size_t>(stage.outH) * stage.outW;
            if (stage.spikeInput) {
                buildConvTaps(stage.inH, stage.outH, stage.k, stage.stride,
                              stage.pad, stage.outW, stage.k, stage.tapH,
                              stage.tapsH);
                buildConvTaps(stage.inW, stage.outW, stage.k, stage.stride,
                              stage.pad, 1, 1, stage.tapW, stage.tapsW);
                stage.rows.assign(windows * stage.rf, 0);
                stage.counts.assign(windows, 0);
            } else {
                stage.window.assign(static_cast<size_t>(stage.rf), 0.0);
            }
            break;
        }
        case LayerKind::If:
            stage.out = Tensor(shape);
            break;
        case LayerKind::AvgPool: {
            const auto &pool = static_cast<const AvgPool2d &>(*stage.layer);
            NEBULA_ASSERT(shape.size() == 4, "pooling expects NCHW");
            const int out_h = pool.outSize(shape[2]);
            const int out_w = pool.outSize(shape[3]);
            NEBULA_ASSERT(out_h > 0 && out_w > 0,
                          "pooling output collapsed");
            stage.out = Tensor({1, shape[1], out_h, out_w});
            break;
        }
        default:
            NEBULA_PANIC("layer kind outside the SNN fast plan");
        }
        if (stage.kind == LayerKind::Conv ||
            stage.kind == LayerKind::Linear) {
            if (!stage.spikeInput)
                stage.norm.assign(static_cast<size_t>(shapeElements(shape)),
                                  0.0);
            stage.nocEnergy =
                noc_.transferEnergy({0, 0}, {1, 0}, stage.out.size());
        }
        shape = stage.out.shape();
        prev = &stage;
    }
    plan.boundShape = in_shape;
}

void
NebulaChip::snnFastWindow(MappedLayer &layer, const int *rows, int n_rows,
                          const double *dense, float *out,
                          size_t out_stride)
{
    CrossbarEval &eval = fastPlan_.evalWs;
    for (size_t g = 0; g < layer.groups.size(); ++g) {
        CrossbarArray &xbar = *layer.groups[g];
        if (dense)
            xbar.evaluateIdealInto(dense, config_.cycleTime, eval);
        else
            xbar.evaluateSparseInto(rows, n_rows, config_.cycleTime, eval);
        ++stats_.crossbarEvals;
        stats_.crossbarEnergy += eval.energy;
        if (config_.abft) {
            stats_.abftChecks += eval.check.checks;
            stats_.abftViolations += eval.check.violations;
            stats_.adcConversions += eval.check.checks;
        }
        // Same expression sequence as the layer walk's non-NU emit with
        // binary drivers: in_ceiling == 1 exactly, so folding it away
        // leaves emitAffine() bit-identical to the generic walk.
        const size_t offset = g * static_cast<size_t>(config_.atomicSize);
        emitAffine(out + offset * out_stride, out_stride,
                   layer.bias.data() + offset, eval.currents.data(),
                   xbar.cols(), xbar.currentScale(),
                   static_cast<double>(layer.weightScale));
    }
}

void
NebulaChip::snnFastWeightStage(SnnFastStage &stage, const float *in)
{
    MappedLayer &layer = layers_[stage.layerIndex];
    float *out = stage.out.data();
    {
        obs::TraceSpan span("chip", "layer.eval", config_.traceChip);
        span.arg("layer", static_cast<double>(layer.map.layerIndex));
        const long long evals_before = stats_.crossbarEvals;

        if (!stage.spikeInput) {
            // The generic walk's normalize with in_ceiling == 1:
            // v / 1.0 is exact, leaving the clamp.
            for (size_t i = 0; i < stage.norm.size(); ++i)
                stage.norm[i] = std::clamp(static_cast<double>(in[i]),
                                           0.0, 1.0);
        }
        const SpikeVector &active = fastPlan_.active;
        if (stage.kind == LayerKind::Linear) {
            snnFastWindow(layer, active.data(),
                          static_cast<int>(active.size()),
                          stage.spikeInput ? nullptr : stage.norm.data(),
                          out, 1);
        } else if (stage.spikeInput) {
            // Scatter: walking spikes in ascending (c, ih, iw) order
            // appends rows (c * k + kh) * k + kw in ascending order to
            // every window, exactly the list the generic gather builds.
            const int rf = stage.rf;
            const int kk = stage.k * stage.k;
            const int plane = stage.inH * stage.inW;
            int *rows = stage.rows.data();
            int *counts = stage.counts.data();
            std::fill(stage.counts.begin(), stage.counts.end(), 0);
            for (const int i : active) {
                const int c = i / plane;
                const int rem = i - c * plane;
                const int ih = rem / stage.inW;
                const int iw = rem - ih * stage.inW;
                const int c_base = c * kk;
                for (int a = stage.tapH[static_cast<size_t>(ih)];
                     a < stage.tapH[static_cast<size_t>(ih) + 1]; ++a) {
                    const ConvTap th = stage.tapsH[static_cast<size_t>(a)];
                    for (int b = stage.tapW[static_cast<size_t>(iw)];
                         b < stage.tapW[static_cast<size_t>(iw) + 1]; ++b) {
                        const ConvTap tw =
                            stage.tapsW[static_cast<size_t>(b)];
                        const int w = th.out + tw.out;
                        rows[static_cast<size_t>(w) * rf + counts[w]++] =
                            c_base + th.tap + tw.tap;
                    }
                }
            }
            const int windows = stage.outH * stage.outW;
            for (int w = 0; w < windows; ++w)
                snnFastWindow(layer, rows + static_cast<size_t>(w) * rf,
                              counts[w], nullptr, out + w,
                              static_cast<size_t>(windows));
        } else {
            // Fractional input: the generic walk's dense window gather.
            const double *norm = stage.norm.data();
            const int windows = stage.outH * stage.outW;
            for (int w = 0; w < windows; ++w) {
                const int ih0 = w / stage.outW * stage.stride - stage.pad;
                const int iw0 = w % stage.outW * stage.stride - stage.pad;
                double *r = stage.window.data();
                for (int c = 0; c < stage.inC; ++c)
                    for (int ih = ih0; ih < ih0 + stage.k; ++ih)
                        for (int iw = iw0; iw < iw0 + stage.k; ++iw)
                            *r++ = ih < 0 || ih >= stage.inH || iw < 0 ||
                                           iw >= stage.inW
                                       ? 0.0
                                       : norm[(static_cast<size_t>(c) *
                                                   stage.inH +
                                               ih) *
                                                  stage.inW +
                                              iw];
                snnFastWindow(layer, nullptr, 0, stage.window.data(),
                              out + w, static_cast<size_t>(windows));
            }
        }
        span.arg("crossbar_evals",
                 static_cast<double>(stats_.crossbarEvals - evals_before));
    }
    obs::TraceSpan noc_span("noc", "transfer", config_.traceChip);
    noc_span.arg("bits", static_cast<double>(stage.out.size()));
    stats_.nocPackets++;
    stats_.nocEnergy += stage.nocEnergy;
}

long long
NebulaChip::snnFastStep(PoissonEncoder &encoder, int t,
                        SnnRunResult &result)
{
    SnnFastPlan &plan = fastPlan_;
    obs::TraceSpan step_span("chip", "timestep", config_.traceChip);
    step_span.arg("t", static_cast<double>(t));
    {
        obs::TraceSpan encode_span("snn", "encode", config_.traceChip);
        encoder.encodeActive(plan.encPlan, plan.active);
    }
    const long long input_spikes =
        static_cast<long long>(plan.active.size());

    const float *in = nullptr; // previous stage's output
    for (SnnFastStage &stage : plan.stages) {
        float *out = stage.out.data();
        switch (stage.kind) {
        case LayerKind::Conv:
        case LayerKind::Linear:
            snnFastWeightStage(stage, in);
            break;
        case LayerKind::If: {
            auto &neuron = static_cast<IfLayer &>(*stage.layer);
            const long long n = stage.out.size();
            if (stage.plainIf)
                neuron.stepPlain(in, out, n);
            else
                neuron.step(in, out, n);
            if (stage.scanSpikes) {
                plan.active.clear();
                for (long long i = 0; i < n; ++i)
                    if (out[i] != 0.0f)
                        plan.active.push_back(static_cast<int>(i));
            }
            break;
        }
        case LayerKind::AvgPool:
            static_cast<const AvgPool2d &>(*stage.layer)
                .poolPlanes(in, out, stage.inShape[1], stage.inShape[2],
                            stage.inShape[3]);
            break;
        default:
            break;
        }
        in = out;
    }

    obs::TraceSpan acc_span("snn", "accumulate", config_.traceChip);
    const Tensor &logits = plan.stages.back().out;
    if (t == 0)
        result.logits = logits;
    else
        result.logits.add(logits);
    return input_spikes;
}

SnnRunResult
NebulaChip::runSnn(const Tensor &image, int timesteps)
{
    return runSnn(image, timesteps, runSeeds_.next());
}

SnnRunResult
NebulaChip::runSnn(const Tensor &image, int timesteps,
                   uint64_t encoder_seed)
{
    NEBULA_ASSERT(snnModel_, "no SNN programmed");
    NEBULA_ASSERT(timesteps > 0, "need at least one timestep");
    SpikingModel &model = *snnModel_;
    model.resetState();

    PoissonEncoder encoder(1.0, encoder_seed);

    std::vector<int> batched;
    batched.push_back(1);
    for (int d = 0; d < image.rank(); ++d)
        batched.push_back(image.dim(d));

    SnnRunResult result;
    result.timesteps = timesteps;
    long long input_spikes = 0;
    const long long evals_before = stats_.crossbarEvals;
    const long long checks_before = stats_.abftChecks;
    const long long violations_before = stats_.abftViolations;

    // The preplanned pipeline runs the same arithmetic without the
    // per-step tensor churn, and emits the same trace spans, so a trace
    // sees the path that is served. Other topologies take the shared
    // layer walk with a batch of one.
    const bool use_plan = fastPlan_.usable;
    if (use_plan) {
        if (fastPlan_.boundShape != batched)
            bindSnnFastPlan(batched);
        for (SnnFastStage &stage : fastPlan_.stages)
            if (stage.kind == LayerKind::If)
                static_cast<IfLayer &>(*stage.layer)
                    .ensureState(stage.inShape);
        encoder.buildPlan(image, fastPlan_.encPlan);
    }

    std::vector<Tensor> xs(1);            // the walk's batch of one
    std::vector<ChipStats> per_image(1); // unread: stats_ bills the same
    for (int t = 0; t < timesteps; ++t) {
        if (use_plan) {
            input_spikes += snnFastStep(encoder, t, result);
            continue;
        }
        obs::TraceSpan step_span("chip", "timestep", config_.traceChip);
        step_span.arg("t", static_cast<double>(t));

        Tensor spikes;
        {
            obs::TraceSpan encode_span("snn", "encode", config_.traceChip);
            spikes = encoder.encode(image);
        }
        input_spikes += static_cast<long long>(spikes.sum());
        xs[0] = spikes.reshaped(batched);

        size_t next_mapped = 0;
        for (int i = 0; i < model.net.numLayers(); ++i) {
            Layer &layer = model.net.layer(i);
            if (layer.isWeightLayer()) {
                NEBULA_ASSERT(next_mapped < layers_.size(),
                              "unmapped weight layer");
                evaluateLayerBatch(layers_[next_mapped++], xs, true,
                                   per_image);
                const long long bits = xs[0].size();
                obs::TraceSpan noc_span("noc", "transfer",
                                        config_.traceChip);
                noc_span.arg("bits", static_cast<double>(bits));
                stats_.nocPackets++;
                stats_.nocEnergy += noc_.transferEnergy({0, 0}, {1, 0}, bits);
            } else {
                xs[0] = layer.forward(xs[0], false);
            }
        }
        obs::TraceSpan acc_span("snn", "accumulate", config_.traceChip);
        if (t == 0)
            result.logits = xs[0];
        else
            result.logits.add(xs[0]);
    }

    result.inputRate =
        static_cast<double>(input_spikes) / (image.size() * timesteps);
    for (size_t k = 0; k < model.ifLayerIndices.size(); ++k) {
        IfLayer &layer = model.ifLayer(static_cast<int>(k));
        result.ifSpikes.push_back(layer.spikeCount());
        result.ifNeurons.push_back(layer.neuronCount());
        result.totalSpikes += layer.spikeCount();
        const double neurons = std::max<long long>(layer.neuronCount(), 1);
        result.ifActivity.push_back(layer.spikeCount() /
                                    (neurons * timesteps));
    }
    stats_.spikes += result.totalSpikes;
    auto &registry = obs::MetricsRegistry::global();
    registry.counter("chip.crossbar_evals")
        .inc(static_cast<double>(stats_.crossbarEvals - evals_before));
    registry.counter("chip.spikes")
        .inc(static_cast<double>(result.totalSpikes));
    if (config_.abft) {
        registry.counter("abft.checks")
            .inc(static_cast<double>(stats_.abftChecks - checks_before));
        registry.counter("abft.violations")
            .inc(static_cast<double>(stats_.abftViolations -
                                     violations_before));
    }
    return result;
}

} // namespace nebula
