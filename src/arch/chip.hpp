/**
 * @file
 * Functional on-chip inference: executes a quantized ANN or a converted
 * SNN through the actual circuit models -- programmed DW-MTJ crossbar
 * arrays (with quantized conductances, optional device variation),
 * multi-level DAC / 1-bit spike drivers, and saturating-ReLU neuron
 * units -- following the layer mapping the LayerMapper produces.
 *
 * The spiking path computes column currents through the crossbars and
 * integrates membranes with the algorithmic IF model; circuit-level
 * tests (NeuronUnitCircuit.*) establish that the DW-MTJ neuron device
 * matches that model to within pinning quantization, so the chip
 * simulator does not instantiate per-output-position device objects.
 *
 * Used by the integration tests and the quickstart example to show the
 * full device -> circuit -> architecture -> algorithm stack agreeing
 * with the functional simulator.
 */

#ifndef NEBULA_ARCH_CHIP_HPP
#define NEBULA_ARCH_CHIP_HPP

#include <memory>
#include <vector>

#include "arch/energy_breakdown.hpp"
#include "arch/energy_model.hpp"
#include "arch/mapping.hpp"
#include "circuit/crossbar.hpp"
#include "circuit/neuron_unit.hpp"
#include "nn/quantize.hpp"
#include "noc/noc.hpp"
#include "reliability/mitigation.hpp"
#include "snn/convert.hpp"
#include "snn/snn_sim.hpp"

namespace nebula {

namespace testing {
struct ChipAccess;
} // namespace testing

/** Counters gathered while running on the chip model. */
struct ChipStats
{
    long long crossbarEvals = 0;   //!< column-group evaluations
    long long adcConversions = 0;  //!< output-layer + spill conversions
    long long spikes = 0;          //!< SNN spikes emitted
    double crossbarEnergy = 0.0;   //!< device-level ohmic energy (J)
    long long nocPackets = 0;      //!< inter-layer transfers
    double nocEnergy = 0.0;        //!< J
    long long abftChecks = 0;      //!< checksum-column comparisons
    long long abftViolations = 0;  //!< comparisons exceeding tolerance

    /**
     * Accumulate another chip's counters into this one. Every field is
     * an additive total, so merging per-replica stats equals the stats
     * one chip would have gathered serving all requests itself; the
     * inference runtime uses this to aggregate worker-local counters
     * without locking the per-request path.
     */
    void merge(const ChipStats &other);
};

/**
 * Attribute the activity between two ChipStats snapshots (taken around
 * one inference on a worker-owned chip) to components as joules.
 * Crossbar/NoC energy is the measured delta; ADC, driver and neuron
 * joules price the delta's op counts at Table III powers over one
 * cycle (per-crossbar-eval share of a core's driver bank and neuron
 * units, per-conversion ADC activity) -- the energy_model methodology
 * applied to live counters instead of projected layer walks.
 */
EnergyBreakdown estimateEnergyBreakdown(const ChipStats &before,
                                        const ChipStats &after, Mode mode);

/**
 * Result of one micro-batched ANN run: per-image logits plus the
 * per-image slice of the chip activity, so callers can attribute
 * energy/metrics to individual requests after a shared batched
 * evaluation. Summing perImage equals the chip's stats() delta for
 * the whole batch.
 */
struct AnnBatchResult
{
    std::vector<Tensor> logits;      //!< one (1, classes) row per image
    std::vector<ChipStats> perImage; //!< per-image activity deltas
};

/** The NEBULA chip functional model. */
class NebulaChip
{
  public:
    explicit NebulaChip(const NebulaConfig &config = {},
                        double variation_sigma = 0.0, uint64_t seed = 5);

    /**
     * Program a quantized ANN (output of quantizeNetwork) onto ANN-mode
     * crossbars. The network must contain no plain (unclipped) ReLUs.
     */
    void programAnn(Network &net, const QuantizationResult &quant);

    /**
     * Run one (C, H, W) image through the programmed ANN: runAnnBatch()
     * on a batch of one.
     */
    Tensor runAnn(const Tensor &image);

    /**
     * Run a micro-batch of same-shape images through the programmed
     * ANN in one layer-by-layer walk. Weight layers stream each cached
     * conductance matrix once per batch (GEMM-style multi-window
     * kernels) instead of once per image, so the matrix traffic is
     * amortized across the batch. Per-image logits are bit-identical
     * to runAnn() on the same chip state: every window goes through
     * the identical clamp/DAC/crossbar/neuron-unit expression
     * sequence, only grouped differently. Per-image activity is
     * returned alongside so callers can split energy attribution; each
     * image's energy is the sum of its own windows' energies.
     */
    AnnBatchResult runAnnBatch(const std::vector<Tensor> &images);

    /** Program a converted spiking model onto SNN-mode crossbars. */
    void programSnn(SpikingModel &model);

    /**
     * Run one image for T timesteps through the programmed SNN, using
     * the chip's internal seed stream for the Poisson input encoder
     * (results depend on how many runs preceded this one).
     */
    SnnRunResult runSnn(const Tensor &image, int timesteps);

    /**
     * Run one image for T timesteps with an explicit encoder seed.
     * Output is a pure function of (programmed state, image, timesteps,
     * seed) -- the call-order-independent form the concurrent runtime
     * uses so results stay bit-exact across worker replicas.
     */
    SnnRunResult runSnn(const Tensor &image, int timesteps,
                        uint64_t encoder_seed);

    /**
     * Attach a reliability scenario; takes effect at the next
     * programAnn/programSnn. Every crossbar then samples a private
     * FaultMap from ReliabilityConfig::faultSeed (decorrelated per
     * array, reproducible given the seed and the network shape) and is
     * programmed with the configured mitigations. Reprogramming the
     * same network resamples identical maps.
     */
    void setReliability(ReliabilityConfig rel) { rel_ = std::move(rel); }
    const ReliabilityConfig &reliability() const { return rel_; }

    /**
     * Aggregate programming accounting (pulses, failed cells, repairs,
     * program energy) of the last programAnn/programSnn.
     */
    const ProgramReport &programReport() const { return programReport_; }

    /**
     * One weight-cell update at network granularity: move the cell that
     * holds weight element (kernel, r) of a mapped layer to an absolute
     * conductance level (clamped to the device range). The chip resolves
     * the crossbar group and logical column the mapper placed it on.
     */
    struct WeightCellUpdate
    {
        int kernel = 0;      //!< output kernel index in the layer
        int r = 0;           //!< receptive-field (input) index
        int targetLevel = 0; //!< absolute level in [0, levels-1]
    };

    /** Number of mapped weight layers (programming order). */
    int mappedLayerCount() const { return static_cast<int>(layers_.size()); }

    /** |w| normalization used on mapped layer @p k's cells. */
    float mappedWeightScale(int k) const;

    /** Conductance levels per cell (1 << precisionBits). */
    int mappedLevels() const { return 1 << config_.precisionBits; }

    /**
     * Incrementally reprogram cells of mapped weight layer @p k through
     * CrossbarArray::updateCells -- faults/remap respected, EvalCache
     * invalidated, every pulse billed. Also re-reads the layer's bias
     * from the source network (bias lives in the digital periphery, so
     * host-side bias updates take effect without pulses). Not supported
     * for diagonal-packed depthwise layers.
     */
    UpdateReport updateMappedLayer(int k,
                                   const std::vector<WeightCellUpdate> &ups,
                                   const ProgrammingConfig &config = {});

    /** Aggregate incremental-update accounting since the last program. */
    const UpdateReport &updateReport() const { return updateReport_; }

    /**
     * True when the programmed SNN runs the preplanned, allocation-free
     * timestep path; false means the shared layer walk.
     */
    bool snnFastPlanUsable() const { return fastPlan_.usable; }

    const ChipStats &stats() const { return stats_; }
    void clearStats() { stats_ = ChipStats(); }

    /** Mapping of the currently programmed network. */
    const NetworkMapping &mapping() const { return mapping_; }

    const NebulaConfig &config() const { return config_; }

  private:
    /** Runs the shared SNN layer walk on a plannable net (tests, bench). */
    friend struct testing::ChipAccess;

    /** One weight layer programmed onto crossbar column groups. */
    struct MappedLayer
    {
        const Layer *source = nullptr;  //!< layer in the programmed net
        LayerMapping map;
        std::vector<std::unique_ptr<CrossbarArray>> groups;
        std::vector<std::unique_ptr<ReluNeuronUnit>> nus; //!< per group
        std::vector<float> bias;  //!< real-unit bias per kernel
        float weightScale = 1.0f; //!< |w| normalization used on the cells
        float inputCeiling = 1.0f;  //!< a_max of the incoming activation
        float outputCeiling = 0.0f; //!< a_max after the following ReLU
        bool hasActivation = false;
        int dwKernelsPerAc = 0;     //!< >0 for diagonal-packed depthwise
    };

    /** Program one weight layer's crossbars. */
    MappedLayer mapWeightLayer(const Layer &layer, int index,
                               float weight_scale, Mode mode);

    /**
     * Sample this crossbar's fault map (if a fault model is attached)
     * and program it with the configured mitigations, accumulating the
     * report. Crossbars are numbered in programming order, so the maps
     * are deterministic for a given network and faultSeed.
     */
    void programCrossbar(CrossbarArray &xbar,
                         const std::vector<float> &cells);

    /**
     * The chip's one layer walk: replace each xs[b] (same-shape
     * real-unit inputs) with the mapped weight layer's real-unit
     * output, (1, K, H', W') or (1, K), evaluating the images' windows
     * of a column group through evaluateIdealBatch calls. Solo ANN
     * inference and the SNN walk are batches of one. Crossbar evals,
     * energy and ABFT verdicts go into stats_ and, per window, into
     * the owning image's @p per_image entry.
     * @param binary True when inputs are spike maps (SNN drivers): no
     *               DAC quantization, unit input ceiling, no neuron
     *               unit, and convs evaluate one window per call.
     */
    void evaluateLayerBatch(MappedLayer &layer, std::vector<Tensor> &xs,
                            bool binary, std::vector<ChipStats> &per_image);

    /** One (output index, kernel tap) pair an input row/column feeds. */
    struct ConvTap
    {
        int out = 0; //!< window offset contributed (oh * out_w, or ow)
        int tap = 0; //!< receptive-field offset contributed (kh * k, or kw)
    };

    /**
     * One stage of the pre-resolved fast SNN pipeline: a mapped Conv or
     * Linear layer, an IF layer or an average pool (Flatten stages are
     * folded into their neighbours' buffer shapes). Geometry and every
     * buffer are sized once per input shape by bindSnnFastPlan(), so a
     * timestep allocates nothing.
     */
    struct SnnFastStage
    {
        LayerKind kind = LayerKind::Linear; //!< Conv, Linear, If, AvgPool
        Layer *layer = nullptr;   //!< source layer in the programmed net
        size_t layerIndex = 0;    //!< Conv/Linear: into layers_
        bool spikeInput = false;  //!< Conv/Linear: fed encoder/IF spikes
        bool scanSpikes = false;  //!< If: a weight stage reads its spikes
        bool plainIf = false;     //!< If: qualifies for stepPlain()
        std::vector<int> inShape; //!< input shape as the generic walk sees it
        Tensor out;               //!< output, in the generic walk's shape
        double nocEnergy = 0.0;   //!< Conv/Linear: per-step transfer (J)

        // Conv geometry (k, stride, pad; input C/H/W; output H/W).
        int k = 0, stride = 1, pad = 0;
        int inC = 0, inH = 0, inW = 0, outH = 0, outW = 0;
        int rf = 0; //!< receptive field, c * k * k rows

        /**
         * Spike scatter tables: taps of input row ih are tapsH[tapH[ih],
         * tapH[ih + 1]), likewise for input column iw, so an input
         * spike lands in its windows without a division.
         */
        std::vector<int> tapH, tapW;
        std::vector<ConvTap> tapsH, tapsW;
        std::vector<int> rows;   //!< rf active-row slots per window
        std::vector<int> counts; //!< active rows per window this step

        std::vector<double> norm;   //!< fractional input: drive factors
        std::vector<double> window; //!< fractional conv: one window
    };

    /**
     * Fast SNN execution plan, built at programSnn() time for pipelines
     * of Conv, Linear, AvgPool, IF and Flatten layers (every paper MLP
     * and LeNet topology). Runs the identical per-timestep arithmetic as
     * the shared layer walk (evaluateLayerBatch with a batch of one) --
     * the same affine reconstruction expression, the same IF update,
     * crossbar kernels pinned bit-identical to it -- through
     * preallocated buffers:
     *  - a weight stage fed by binary spikes (encoder or IF) drives only
     *    the active rows; a conv stage scatters each ascending input
     *    spike into the windows it touches, which leaves every window's
     *    row list ascending, so per-column summation order (currents,
     *    energy, ABFT verdicts) matches the walk's gather bit-for-bit;
     *  - a weight stage fed fractional values (an average pool, or a
     *    weight layer with no IF between) evaluates dense, which the
     *    crossbar pins bit-identical to sparse on binary windows.
     * fastpath_test (through testing::ChipAccess) and golden_test pin
     * it to the walk bit-for-bit; any other layer (DwConv, MaxPool,
     * BatchNorm, ...) keeps the walk (usable == false).
     */
    struct SnnFastPlan
    {
        bool usable = false;
        std::vector<int> boundShape; //!< input shape the buffers fit
        std::vector<SnnFastStage> stages;
        SpikeVector active;        //!< active-row workspace
        CrossbarEval evalWs;       //!< crossbar result workspace
        PoissonEncoder::EncodePlan encPlan; //!< per-run encode plan
    };

    /** Build fastPlan_ for the programmed SNN (or mark it unusable). */
    void buildSnnFastPlan();

    /** Size the plan's geometry and buffers for one input shape. */
    void bindSnnFastPlan(const std::vector<int> &in_shape);

    /**
     * One fast-plan timestep: encode (from the plan built for this
     * run's image), run every stage, fold the logits into @p result.
     * Returns the input spike count.
     */
    long long snnFastStep(PoissonEncoder &encoder, int t,
                          SnnRunResult &result);

    /** One plan weight stage on dense input @p in (or the spike list). */
    void snnFastWeightStage(SnnFastStage &stage, const float *in);

    /**
     * Evaluate every column group of @p layer for one input window --
     * @p n_rows active rows at @p rows, or dense drive factors at
     * @p dense when non-null -- billing stats_ as the layer walk does
     * and emitting kernel j's pre-activation at out[j * out_stride].
     */
    void snnFastWindow(MappedLayer &layer, const int *rows, int n_rows,
                       const double *dense, float *out, size_t out_stride);

    NebulaConfig config_;
    double variationSigma_;
    uint64_t seed_;
    ReliabilityConfig rel_;
    ProgramReport programReport_;
    UpdateReport updateReport_;
    int crossbarIndex_ = 0; //!< programming-order counter for fault seeds
    LayerMapper mapper_;
    MeshNoc noc_;

    Network *annNet_ = nullptr;
    SpikingModel *snnModel_ = nullptr;
    std::vector<MappedLayer> layers_; //!< one per weight layer, in order
    SnnFastPlan fastPlan_;
    NetworkMapping mapping_;
    ChipStats stats_;
    Rng runSeeds_;
};

} // namespace nebula

#endif // NEBULA_ARCH_CHIP_HPP
