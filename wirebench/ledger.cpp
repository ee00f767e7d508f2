/**
 * @file
 * Per-layer ledger of the traced run. Every number here comes from
 * timing calls into a module's public functions from this file, each
 * call wrapped in a span of the benchmark's own recorder; the *_ns and
 * *_us figures are span self times. Replays run after the wire phases,
 * on replicas built by the same ServableLoader factory the registry
 * uses, so they measure the kernels that are served. Counts (crossbar
 * evaluations, ADC conversions, spikes, packets, pulses, densities) are
 * exact for a fixed seed.
 */

#include <algorithm>
#include <functional>
#include <future>
#include <set>
#include <thread>

#include "arch/mapping.hpp"
#include "bench.hpp"
#include "circuit/driver.hpp"
#include "nn/conv.hpp"
#include "runtime/engine.hpp"
#include "serving/protocol.hpp"
#include "snn/encoder.hpp"

using namespace nebula;
using namespace nebula::serving;

namespace wirebench {

namespace {

/** Span names must outlive the recorder; intern the built ones. */
const char *
intern(const std::string &name)
{
    static std::set<std::string> names;
    return names.insert(name).first->c_str();
}

double
selfNs(const std::map<std::string, double> &totals, const std::string &name)
{
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second;
}

/** Images the chip replay runs per pass, by servable cost. */
int
chipImages(const ServableModelSpec &spec)
{
    if (spec.family == "mlp3")
        return spec.mode == "snn" ? 128 : 512;
    return spec.mode == "snn" ? 32 : 96;
}

constexpr int kPasses = 3;
constexpr int kBatch = 8;

// ---------------------------------------------------------------- serving

void
codecLedger(const LedgerInput &in, SpanRecorder &rec, MetricSheet &sheet,
            std::vector<std::string> &errors)
{
    const ServableModelSpec spec = specOf(in.workload.replay);
    WireRequest req;
    req.corrId = 42;
    parseWireMode(spec.mode, req.mode);
    req.timesteps = spec.mode == "snn" ? kTimesteps : 0;
    req.seed = requestSeed(in.seed, 0);
    req.tenant = "paced0";
    req.model = spec.family;
    req.image = in.pool.image(0);

    WireResponse resp;
    resp.corrId = 42;
    resp.predictedClass = in.pool.label(0);
    resp.serverMs = 0.5;
    resp.logits = Tensor({1, spec.classes});
    for (int c = 0; c < spec.classes; ++c)
        resp.logits[c] = 0.125f * static_cast<float>(c);

    const std::vector<uint8_t> req_frame = encodeRequestFrame(req);
    const std::vector<uint8_t> resp_frame = encodeResponseFrame(resp);

    constexpr int kBlocks = 48, kCalls = 128;
    const int64_t root = rec.begin("ledger.serving.codec");
    size_t sink = 0;
    WireRequest dreq;
    WireResponse dresp;
    bool decoded_ok = true;
    for (int b = 0; b < kBlocks; ++b) {
        {
            ScopedSpan s(rec, "serving.encode", root);
            for (int i = 0; i < kCalls; ++i)
                sink += encodeRequestFrame(req).size() +
                        encodeResponseFrame(resp).size();
        }
        ScopedSpan s(rec, "serving.decode", root);
        for (int i = 0; i < kCalls; ++i) {
            FrameHeader h;
            decoded_ok &= decodeHeader(req_frame.data(), kHeaderBytes,
                                       1u << 24, h) == WireStatus::Ok;
            decoded_ok &= decodeRequestBody(req_frame.data() + kHeaderBytes,
                                            req_frame.size() - kHeaderBytes,
                                            dreq) == WireStatus::Ok;
            decoded_ok &=
                decodeHeader(resp_frame.data(), kHeaderBytes, 1u << 24, h) ==
                WireStatus::Ok;
            decoded_ok &=
                decodeResponseBody(resp_frame.data() + kHeaderBytes,
                                   resp_frame.size() - kHeaderBytes,
                                   dresp) == WireStatus::Ok;
        }
    }
    rec.end(root);
    if (sink != static_cast<size_t>(kBlocks) * kCalls *
                    (req_frame.size() + resp_frame.size()))
        errors.push_back("codec: frame size changed between encodes");
    if (!decoded_ok || dreq.image.raw() != req.image.raw() ||
        dresp.logits.raw() != resp.logits.raw())
        errors.push_back("codec: round trip is not bit-exact");

    const auto totals = rec.selfTimes();
    const double calls = static_cast<double>(kBlocks) * kCalls;
    sheet.set("serving.encode_ns", selfNs(totals, "serving.encode") / calls,
              "ns");
    sheet.set("serving.decode_ns", selfNs(totals, "serving.decode") / calls,
              "ns");
    sheet.set("serving.frame_bytes",
              static_cast<double>(req_frame.size() + resp_frame.size()),
              "bytes");
}

/**
 * Swap-ins timed through ModelRegistry::acquire of a non-resident id.
 * One resident slot, so every acquire of another model swaps; a
 * one-model workload gets a fresh registry per sample.
 */
void
swapLedger(const LedgerInput &in, SpanRecorder &rec, MetricSheet &sheet)
{
    RegistryConfig config = registryConfig(in.workload);
    config.residentCapacity = 1;
    const std::vector<std::string> &ids = in.workload.models;
    const int64_t root = rec.begin("ledger.serving.swap");
    std::vector<double> ms;
    long long pulses = 0, swaps = 0;
    auto timedAcquire = [&](ModelRegistry &registry, const std::string &id) {
        const Clock::time_point t0 = Clock::now();
        {
            ScopedSpan s(rec, "serving.acquire", root);
            registry.acquire(id);
        }
        ms.push_back(1e3 * secondsBetween(t0, Clock::now()));
    };
    if (ids.size() == 1) {
        for (int r = 0; r < kPasses; ++r) {
            ModelRegistry registry(config);
            timedAcquire(registry, ids[0]);
            pulses += registry.totalSwapCost().pulses;
            swaps += static_cast<long long>(registry.swapIns());
        }
    } else {
        ModelRegistry registry(config);
        for (int r = 0; r < 4; ++r)
            for (const std::string &id : ids)
                timedAcquire(registry, id);
        pulses = registry.totalSwapCost().pulses;
        swaps = static_cast<long long>(registry.swapIns());
    }
    rec.end(root);
    sheet.set("serving.swap_ms_p50", quantile(ms, 0.5).value, "ms");
    sheet.set("serving.swap_pulses",
              swaps > 0 ? static_cast<double>(pulses) /
                              static_cast<double>(swaps)
                        : 0.0,
              "count");
}

// ---------------------------------------------------------------- runtime

/**
 * In-process InferenceEngine at the paced rate, no wire: submit on
 * schedule from this thread, collect in order on another.
 */
void
runtimeLedger(const LedgerInput &in, SpanRecorder &rec, MetricSheet &sheet,
              std::vector<std::string> &errors)
{
    const Workload &w = in.workload;
    const ServableModelSpec spec = specOf(w.replay);
    const RegistryConfig config = registryConfig(w);
    EngineConfig engine_config = config.engine;
    engine_config.numWorkers = kWorkers;
    auto &loader = ServableLoader::global();
    if (w.abft)
        engine_config.abft.fallback = loader.makeFallbackFactory(spec);
    InferenceEngine engine(engine_config,
                           loader.makeFactory(spec, config.reliability,
                                              chipConfig(w)));

    auto request = [&](int image) {
        InferenceRequest r;
        r.image = in.pool.image(image % in.pool.size());
        if (spec.mode == "snn") {
            r.timesteps = kTimesteps;
            r.seed = requestSeed(in.seed, image % in.pool.size());
        }
        return r;
    };
    for (int i = 0; i < 16; ++i) // warm-up, not timed
        engine.submit(request(i)).get();
    const StatGroup warm = engine.runtimeStats();

    const int count = std::clamp(static_cast<int>(in.pacedRate), 200, 3000);
    const auto interval = std::chrono::duration<double>(1.0 / in.pacedRate);
    struct Sent
    {
        std::future<InferenceResult> result;
        Clock::time_point submitted;
        int64_t span = -1;
    };
    std::vector<double> latency_us, queue_us, service_us;
    long long failed = 0;
    const int64_t root = rec.begin("ledger.runtime");
    InOrderCollector<Sent> collector([&](Sent &s) {
        const InferenceResult r = s.result.get();
        const Clock::time_point arrival = Clock::now();
        rec.endAt(s.span, arrival);
        if (!r.ok()) {
            ++failed;
            return;
        }
        latency_us.push_back(1e6 * secondsBetween(s.submitted, arrival));
        queue_us.push_back(1e6 * r.queueSeconds);
        service_us.push_back(1e6 * r.serviceSeconds);
    });
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < count && !collector.failed(); ++i) {
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(interval * i));
        Sent s;
        s.span = rec.begin("runtime.request", root);
        s.submitted = Clock::now();
        s.result = engine.submit(request(i));
        collector.push(std::move(s));
    }
    collector.finish();
    rec.end(root);
    if (failed > 0)
        errors.push_back("runtime replay: " + std::to_string(failed) +
                         " request(s) failed");

    // Mean dispatch size: flushes of two or more are sampled as
    // "batch.size"; everything else ran solo.
    const StatGroup stats = engine.runtimeStats();
    auto batched = [](const StatGroup &g, bool count_of) {
        if (!g.hasScalar("batch.size"))
            return 0.0;
        const ScalarStat &s = g.scalarAt("batch.size");
        return count_of ? static_cast<double>(s.count()) : s.sum();
    };
    const double flushes = batched(stats, true) - batched(warm, true);
    const double in_batches = batched(stats, false) - batched(warm, false);
    const double dispatches =
        flushes + (static_cast<double>(count) - in_batches);
    sheet.set("runtime.latency_us_p50", quantile(latency_us, 0.5).value,
              "us");
    sheet.set("runtime.queue_us_p50", quantile(queue_us, 0.5).value, "us");
    sheet.set("runtime.service_us_p50", quantile(service_us, 0.5).value,
              "us");
    sheet.set("runtime.batch_mean_size",
              dispatches > 0 ? static_cast<double>(count) / dispatches : 0.0,
              "count");
    engine.shutdown();
}

// ---------------------------------------------------------------- chip

/** A chip programmed the way the serving replica's is. */
struct ReplayChip
{
    std::unique_ptr<ChipReplica> replica; //!< ANN: owns the chip
    std::unique_ptr<SpikingModel> model;  //!< SNN: the programmed model
    std::unique_ptr<NebulaChip> own;      //!< SNN: the chip
    NebulaChip *chip = nullptr;
};

ReplayChip
replayChip(const ServableModelSpec &spec, const Workload &w)
{
    const RegistryConfig config = registryConfig(w);
    auto &loader = ServableLoader::global();
    ReplayChip out;
    if (spec.mode == "ann") {
        out.replica =
            loader.makeFactory(spec, config.reliability, chipConfig(w))(0);
        out.chip = out.replica->tunableChip();
    } else {
        // SnnChipReplica does not expose its chip; build it the same
        // way: same config, chip seed, reliability and converted model.
        out.model = std::make_unique<SpikingModel>(loader.spiking(spec));
        out.own = std::make_unique<NebulaChip>(chipConfig(w), 0.0,
                                               spec.chipSeed);
        out.own->setReliability(config.reliability);
        out.own->programSnn(*out.model);
        out.chip = out.own.get();
    }
    if (out.chip == nullptr)
        throw std::runtime_error("no chip behind " + spec.id());
    return out;
}

void
chipLedger(const LedgerInput &in, SpanRecorder &rec, MetricSheet &sheet,
           std::vector<std::string> &errors)
{
    const Workload &w = in.workload;
    const ServableModelSpec spec = specOf(w.replay);
    const bool snn = spec.mode == "snn";
    ReplayChip replay = replayChip(spec, w);
    NebulaChip &chip = *replay.chip;
    const int images = chipImages(spec);

    ChipStats counts;
    double energy_j = 0.0;
    const int64_t root = rec.begin("ledger.chip");
    for (int pass = 0; pass < kPasses; ++pass) {
        for (int i = 0; i < images; ++i) {
            const Tensor &image = in.pool.image(i);
            const ChipStats before = chip.stats();
            if (snn) {
                ScopedSpan s(rec, "chip.runSnn", root);
                chip.runSnn(image, kTimesteps, requestSeed(in.seed, i));
            } else {
                ScopedSpan s(rec, "chip.runAnn", root);
                chip.runAnn(image);
            }
            if (pass > 0)
                continue;
            const ChipStats after = chip.stats();
            energy_j += estimateEnergyBreakdown(before, after,
                                                snn ? Mode::SNN : Mode::ANN)
                            .total();
        }
        if (pass == 0)
            counts = chip.stats();
    }
    rec.end(root);

    // runAnnBatch has no SNN form: SNN workloads time it on the ANN
    // servable of the same family.
    ServableModelSpec ann = spec;
    ann.mode = "ann";
    ReplayChip batch_replay = snn ? replayChip(ann, w) : ReplayChip();
    NebulaChip &batch_chip = snn ? *batch_replay.chip : chip;
    const int batches = chipImages(ann) / kBatch;
    const int64_t batch_root = rec.begin("ledger.chip.batch");
    for (int pass = 0; pass < kPasses; ++pass)
        for (int b = 0; b < batches; ++b) {
            std::vector<Tensor> xs;
            for (int i = 0; i < kBatch; ++i)
                xs.push_back(in.pool.image(b * kBatch + i));
            AnnBatchResult out;
            {
                ScopedSpan s(rec, "chip.runAnnBatch", batch_root);
                out = batch_chip.runAnnBatch(xs);
            }
            if (pass > 0)
                continue;
            // Batching contract: each image's logits equal a solo run.
            for (int i = 0; i < kBatch; ++i)
                if (batch_chip.runAnn(xs[static_cast<size_t>(i)]).raw() !=
                    out.logits[static_cast<size_t>(i)].raw()) {
                    errors.push_back("chip: runAnnBatch differs from runAnn");
                    break;
                }
        }
    rec.end(batch_root);

    const auto totals = rec.selfTimes();
    const double solo_ns = selfNs(totals, snn ? "chip.runSnn" : "chip.runAnn");
    const double per = static_cast<double>(images);
    sheet.set("chip.ns_per_image", solo_ns / (per * kPasses), "ns");
    sheet.set("chip.batch_ns_per_image",
              selfNs(totals, "chip.runAnnBatch") /
                  (static_cast<double>(batches) * kBatch * kPasses),
              "ns");
    sheet.set("chip.ns_per_xbar_eval",
              solo_ns / (static_cast<double>(counts.crossbarEvals) * kPasses),
              "ns");
    sheet.set("chip.xbar_evals_per_image",
              static_cast<double>(counts.crossbarEvals) / per, "count");
    sheet.set("chip.adc_per_image",
              static_cast<double>(counts.adcConversions) / per, "count");
    sheet.set("chip.spikes_per_image",
              static_cast<double>(counts.spikes) / per, "count");
    sheet.set("chip.noc_packets_per_image",
              static_cast<double>(counts.nocPackets) / per, "count");
    sheet.set("chip.energy_uj_per_image", 1e6 * energy_j / per, "uJ");
    sheet.set("abft.checks_per_image",
              static_cast<double>(counts.abftChecks) / per, "count");
    sheet.set("abft.violations", static_cast<double>(counts.abftViolations),
              "count");
    if (counts.abftViolations > 0)
        errors.push_back("chip: " + std::to_string(counts.abftViolations) +
                         " ABFT violation(s) on clean arrays");
}

/** chip.runAnn of a lenet5/ann replica with NebulaConfig::abft on / off. */
void
abftLedger(const LedgerInput &in, SpanRecorder &rec, MetricSheet &sheet)
{
    Workload on = in.workload, off = in.workload;
    on.abft = true;
    off.abft = false;
    const ServableModelSpec spec = specOf("lenet5/ann");
    ReplayChip with = replayChip(spec, on), without = replayChip(spec, off);
    const int64_t root = rec.begin("ledger.abft");
    for (int pass = 0; pass < kPasses; ++pass)
        for (int i = 0; i < 32; ++i) {
            {
                ScopedSpan s(rec, "abft.on.runAnn", root);
                with.chip->runAnn(in.pool.image(i));
            }
            ScopedSpan s(rec, "abft.off.runAnn", root);
            without.chip->runAnn(in.pool.image(i));
        }
    rec.end(root);
    const auto totals = rec.selfTimes();
    sheet.set("abft.read_overhead",
              selfNs(totals, "abft.on.runAnn") /
                  selfNs(totals, "abft.off.runAnn"),
              "ratio");
}

// ---------------------------------------------------------------- circuit

/** One mapped weight layer rebuilt as bare crossbar arrays. */
struct CircuitLayer
{
    const Layer *layer = nullptr;
    int netIndex = 0;
    int rf = 0;
    std::vector<std::unique_ptr<CrossbarArray>> groups;
    float inputScale = 1.0f; //!< ANN: activation ceiling feeding it
};

/**
 * Arrays of each weight layer's mapped geometry (LayerMapper, as
 * NebulaChip::mapping() reports it): rf rows, up to atomicSize kernels
 * per column group, the layer's weights normalized into [-1, 1].
 */
std::vector<CircuitLayer>
buildCircuit(const Network &net, const QuantizationResult *quant, bool snn,
             const Workload &w)
{
    const NebulaConfig chip = chipConfig(w);
    const NetworkMapping mapping = LayerMapper(chip).map(net);
    std::vector<CircuitLayer> out;
    size_t k = 0;
    for (int i = 0; i < net.numLayers(); ++i) {
        const Layer &layer = net.layer(i);
        if (!layer.isWeightLayer())
            continue;
        if (layer.kind() != LayerKind::Conv &&
            layer.kind() != LayerKind::Linear)
            throw std::runtime_error("circuit ledger: unsupported layer " +
                                     layer.name());
        if (k >= mapping.layers.size() || mapping.layers[k].layerIndex != i)
            throw std::runtime_error("circuit ledger: mapping mismatch");
        const LayerMapping &map = mapping.layers[k];
        CircuitLayer cl;
        cl.layer = &layer;
        cl.netIndex = i;
        cl.rf = map.rf;
        const Tensor &weights = *layer.constParameters()[0];
        float scale = weights.maxAbs();
        if (quant != nullptr) {
            scale = quant->layers[k].weightMax;
            cl.inputScale = quant->layers[k].actCeiling;
        }
        scale = scale > 0 ? scale : 1.0f;
        const int m = chip.atomicSize;
        for (int g = 0; g < map.columnGroups; ++g) {
            CrossbarParams xp;
            xp.levels = 1 << chip.precisionBits;
            xp.readVoltage = snn ? 0.25 : 0.75;
            xp.rows = map.rf;
            xp.cols = std::min(m, map.kernels - g * m);
            xp.abft = chip.abft;
            std::vector<float> cells(static_cast<size_t>(xp.rows) * xp.cols);
            for (int r = 0; r < xp.rows; ++r)
                for (int j = 0; j < xp.cols; ++j)
                    cells[static_cast<size_t>(r) * xp.cols + j] =
                        weights[static_cast<long long>(g * m + j) * map.rf +
                                r] /
                        scale;
            auto xbar = std::make_unique<CrossbarArray>(xp);
            xbar->programWeights(cells);
            cl.groups.push_back(std::move(xbar));
        }
        out.push_back(std::move(cl));
        ++k;
    }
    return out;
}

/**
 * One crossbar call per column group: batch == 0 drives the spike rows
 * in `active` (evaluateSparse), batch == 1 the dense `drive`
 * (evaluateIdeal), batch > 1 that many row-major windows
 * (evaluateIdealBatch).
 */
struct Call
{
    std::vector<double> drive;
    SpikeVector active;
    int batch = 1;
};

/**
 * The crossbar calls of one layer for one input tensor, grouped as the
 * chip groups them: ANN conv windows one output row per batched call,
 * spike windows sparse unless an averaging layer made them fractional.
 * Adds each window's active and total rows to the density tallies.
 */
void
gather(const CircuitLayer &cl, const Tensor &input, bool snn,
       const std::function<double(float)> &normalize,
       std::vector<Call> &calls, double &active_rows, double &total_rows)
{
    int out_h = 1, out_w = 1;
    std::function<double(int, int, int)> at; // (oh, ow, row) -> drive
    if (cl.layer->kind() == LayerKind::Linear) {
        at = [&](int, int, int r) { return normalize(input[r]); };
    } else {
        const auto &conv = static_cast<const Conv2d &>(*cl.layer);
        const int k = conv.kernel(), stride = conv.stride(),
                  pad = conv.padding();
        const int in_h = input.dim(2), in_w = input.dim(3);
        out_h = (in_h + 2 * pad - k) / stride + 1;
        out_w = (in_w + 2 * pad - k) / stride + 1;
        at = [&, k, stride, pad, in_h, in_w](int oh, int ow, int r) {
            const int c = r / (k * k), kh = (r / k) % k, kw = r % k;
            const int ih = oh * stride - pad + kh;
            const int iw = ow * stride - pad + kw;
            if (ih < 0 || ih >= in_h || iw < 0 || iw >= in_w)
                return 0.0;
            return normalize(
                input[(static_cast<long long>(c) * in_h + ih) * in_w + iw]);
        };
    }
    for (int oh = 0; oh < out_h; ++oh) {
        Call row_call;
        row_call.batch = out_w;
        for (int ow = 0; ow < out_w; ++ow) {
            Call call;
            bool binary = true;
            for (int r = 0; r < cl.rf; ++r) {
                const double v = at(oh, ow, r);
                call.drive.push_back(v);
                if (v == 0.0)
                    continue;
                binary &= v == 1.0;
                call.active.push_back(r);
            }
            active_rows += static_cast<double>(call.active.size());
            total_rows += cl.rf;
            if (snn) {
                call.batch = binary ? 0 : 1;
                if (binary)
                    call.drive.clear();
                calls.push_back(std::move(call));
            } else {
                row_call.drive.insert(row_call.drive.end(),
                                      call.drive.begin(), call.drive.end());
            }
        }
        if (!snn)
            calls.push_back(std::move(row_call));
    }
}

void
circuitLedger(const LedgerInput &in, const std::string &family,
              SpanRecorder &rec, MetricSheet &sheet)
{
    const Workload &w = in.workload;
    const bool snn = specOf(w.replay).mode == "snn";
    ServableModelSpec spec = specOf(family + "/ann");
    spec.mode = snn ? "snn" : "ann";
    auto &loader = ServableLoader::global();
    const NebulaConfig chip = chipConfig(w);
    const double cycle = chip.cycleTime;
    const int images = snn ? 8 : 24;

    QuantizedServable quantized;
    SpikingModel spiking;
    Network *net = nullptr;
    if (snn) {
        spiking = loader.spiking(spec);
        net = &spiking.net;
    } else {
        quantized = loader.quantized(spec);
        net = &quantized.net;
    }
    std::vector<CircuitLayer> layers =
        buildCircuit(*net, snn ? nullptr : &quantized.quant, snn, w);
    const DacDriver dac(chip.precisionBits, 0.75);

    // Capture every layer's inputs with forwardCollect first (not
    // timed); SNN inputs are the converted model's own spike maps over
    // the request's timesteps.
    std::vector<std::vector<std::vector<Call>>> work(
        static_cast<size_t>(images),
        std::vector<std::vector<Call>>(layers.size()));
    std::vector<double> active_rows(layers.size(), 0.0),
        total_rows(layers.size(), 0.0);
    for (int img = 0; img < images; ++img) {
        const Tensor &image = in.pool.image(img);
        std::vector<int> batched = {1};
        for (int d : image.shape())
            batched.push_back(d);
        PoissonEncoder encoder(1.0, requestSeed(in.seed, img));
        if (snn)
            spiking.resetState();
        for (int t = 0; t < (snn ? kTimesteps : 1); ++t) {
            const Tensor x = snn ? encoder.encode(image).reshaped(batched)
                                 : image.reshaped(batched);
            std::vector<Tensor> outputs;
            net->forwardCollect(x, outputs);
            for (size_t l = 0; l < layers.size(); ++l) {
                const CircuitLayer &cl = layers[l];
                const Tensor &input =
                    cl.netIndex == 0
                        ? x
                        : outputs[static_cast<size_t>(cl.netIndex - 1)];
                const double scale = cl.inputScale;
                gather(
                    cl, input, snn,
                    [&](float v) {
                        const double x01 = std::clamp(
                            static_cast<double>(v) / scale, 0.0, 1.0);
                        return snn ? x01
                                   : dac.normalizedOutput(dac.quantize(x01));
                    },
                    work[static_cast<size_t>(img)][l], active_rows[l],
                    total_rows[l]);
            }
        }
    }

    // Timed: only the crossbar calls, one span per (image, layer).
    std::vector<const char *> names;
    for (size_t l = 0; l < layers.size(); ++l)
        names.push_back(
            intern("circuit." + family + ".L" + std::to_string(l)));
    double sink = 0.0;
    const int64_t root = rec.begin(intern("ledger.circuit." + family));
    for (int pass = 0; pass < kPasses; ++pass)
        for (int img = 0; img < images; ++img)
            for (size_t l = 0; l < layers.size(); ++l) {
                ScopedSpan s(rec, names[l], root);
                for (const Call &call : work[static_cast<size_t>(img)][l])
                    for (const auto &xbar : layers[l].groups) {
                        if (call.batch == 0)
                            sink += xbar->evaluateSparse(call.active, cycle)
                                        .energy;
                        else if (call.batch == 1)
                            sink +=
                                xbar->evaluateIdeal(call.drive, cycle).energy;
                        else
                            sink += xbar->evaluateIdealBatch(call.drive,
                                                             call.batch, cycle)
                                        .energy;
                    }
            }
    rec.end(root);
    if (!(sink >= 0.0))
        throw std::runtime_error("circuit ledger: non-finite energy");

    const auto totals = rec.selfTimes();
    double all = 0.0;
    for (const char *name : names)
        all += selfNs(totals, name);
    for (size_t l = 0; l < layers.size(); ++l) {
        const std::string base =
            "circuit." + family + ".L" + std::to_string(l);
        const double ns = selfNs(totals, names[l]);
        sheet.set(base + ".ns_per_image",
                  ns / (static_cast<double>(images) * kPasses), "ns");
        sheet.set(base + ".input_density", active_rows[l] / total_rows[l],
                  "ratio");
        sheet.set(base + ".share", all > 0 ? ns / all : 0.0, "ratio");
    }
}

// ---------------------------------------------------------------- snn

/** PoissonEncoder::encode on the run's images, one span per image. */
void
encoderLedger(const LedgerInput &in, SpanRecorder &rec, MetricSheet &sheet)
{
    constexpr int kImages = 64;
    const int steps = kTimesteps;
    double spikes = 0.0, pixels = 0.0, sink = 0.0;
    const int64_t root = rec.begin("ledger.snn");
    for (int pass = 0; pass < kPasses; ++pass)
        for (int i = 0; i < kImages; ++i) {
            const Tensor &image = in.pool.image(i);
            PoissonEncoder encoder(1.0, requestSeed(in.seed, i));
            ScopedSpan s(rec, "snn.encode", root);
            for (int t = 0; t < steps; ++t) {
                const Tensor out = encoder.encode(image);
                const double fired = out.sum();
                sink += fired;
                if (pass == 0) {
                    spikes += fired;
                    pixels += static_cast<double>(out.size());
                }
            }
        }
    rec.end(root);
    (void)sink;
    const auto totals = rec.selfTimes();
    sheet.set("snn.encode_ns_per_step",
              selfNs(totals, "snn.encode") /
                  (static_cast<double>(kImages) * steps * kPasses),
              "ns");
    sheet.set("snn.input_spike_density", spikes / pixels, "ratio");
}

} // namespace

void
runLedger(const LedgerInput &in, SpanRecorder &rec, MetricSheet &sheet,
          std::vector<std::string> &errors)
{
    codecLedger(in, rec, sheet, errors);
    swapLedger(in, rec, sheet);
    runtimeLedger(in, rec, sheet, errors);
    chipLedger(in, rec, sheet, errors);
    abftLedger(in, rec, sheet);
    for (const char *family : {"lenet5", "mlp3"})
        circuitLedger(in, family, rec, sheet);
    encoderLedger(in, rec, sheet);
}

} // namespace wirebench
