/**
 * @file
 * Workload definitions and the declarations the benchmark's wire
 * phases (main.cpp) and per-layer ledger (ledger.cpp) share.
 */

#ifndef WIREBENCH_BENCH_HPP
#define WIREBENCH_BENCH_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"
#include "nn/datasets.hpp"
#include "serving/registry.hpp"

namespace wirebench {

/** Engine workers per resident model, on every workload. */
constexpr int kWorkers = 2;

/** SNN evidence window (timesteps), on every workload. */
constexpr int kTimesteps = 20;

/** Registry resident slots, on every workload. */
constexpr size_t kResidentSlots = 2;

/** Drain-only micro-batch cap, on every workload (SNN replicas run solo). */
constexpr int kMaxBatch = 8;

/** One serving set-up the benchmark drives. */
struct Workload
{
    std::string name;
    std::vector<std::string> models; //!< catalog ids, served in order
    std::string replay; //!< servable the chip/runtime ledger replays
    int runLength = 0;  //!< requests per model before a switch
    bool abft = false;  //!< RegistryConfig::abft
    int window = 16;    //!< capacity phase: in flight per connection
    /** Capacity phase: consecutive Ok replies per throughput window. */
    int rateWindow = 0;
};

/** The workload named @p name, or null. */
const Workload *findWorkload(const std::string &name);

/** Catalog spec of servable @p id (default training knobs). */
nebula::serving::ServableModelSpec specOf(const std::string &id);

/** The registry configuration the workload serves with. */
nebula::serving::RegistryConfig registryConfig(const Workload &w);

/** Chip configuration the registry programs the workload's replicas with. */
nebula::NebulaConfig chipConfig(const Workload &w);

/** Everything the per-layer ledger replays against. */
struct LedgerInput
{
    const Workload &workload;
    const nebula::Dataset &pool; //!< the run's generated images
    uint64_t seed = 0;           //!< workload seed
    double pacedRate = 0.0;      //!< runtime replay arrival rate (1/s)
};

/**
 * Replay each module's public calls single-threaded (runtime replay:
 * the engine's own workers) and fill the per-layer metrics. Appends a
 * message to @p errors for every output check that fails.
 */
void runLedger(const LedgerInput &in, SpanRecorder &rec, MetricSheet &sheet,
               std::vector<std::string> &errors);

/** Seed the SNN encoder of pool image @p index gets on the wire. */
uint64_t requestSeed(uint64_t workload_seed, int index);

} // namespace wirebench

#endif // WIREBENCH_BENCH_HPP
