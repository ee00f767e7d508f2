/**
 * @file
 * Wire-to-crossbar benchmark program. One run stands the real serving
 * stack up in-process (ServableLoader -> ModelRegistry -> ServingServer
 * on loopback), drives one workload over real sockets with
 * ServingClient from two connections, checks every reply, and prints
 * one JSON result line.
 *
 *   --trace 0: warm-up, then up to eight rounds of a closed-loop
 *              capacity phase and an open-loop paced phase; prints the
 *              end-to-end metrics.
 *   --trace 1: each round runs the capacity phase untraced and traced
 *              (trace overhead) and a traced paced phase; then the
 *              per-layer ledger (ledger.cpp); prints the per-layer
 *              metrics.
 *
 * Each connection has a sender thread and a collector thread. Replies
 * are in order per connection, so the collector stamps each one as it
 * lands; a paced request is timed from its scheduled send instant.
 *
 * Usage (run.py passes the workload's fixed rate, limit and floor from
 * workloads.json):
 *   wirebench --workload NAME --seed N --seconds S --trace 0|1
 *             --rate R --limit-ms L --accuracy-floor A [--trace-out F]
 *   wirebench --setup-only --workload NAME   (prints setup_s)
 *   wirebench --selftest                     (checks the quantile helper)
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <exception>
#include <future>
#include <iostream>
#include <memory>
#include <numeric>
#include <thread>

#include "bench.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/replica.hpp"
#include "serving/client.hpp"
#include "serving/server.hpp"

using namespace nebula;
using namespace nebula::serving;

namespace wirebench {

namespace {

/** Taken during static initialization: the process start for setup_s. */
const Clock::time_point kProcessStart = Clock::now();

/** Host-speed probe: chunks before and after set-up, reps per chunk. */
constexpr int kCalibrationChunks = 8;
constexpr int kCalibrationReps = 125;

/**
 * Chunk time of the probe while the reference host (4-vCPU 2.1 GHz Xeon
 * VM) was quiet; it read 3.6-4.6 ms then and 6-7 ms under load. setup_s
 * is set-up wall time scaled to this speed.
 */
constexpr double kReferenceChunkS = 0.004;

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> table = [] {
        std::vector<Workload> t;
        Workload w;
        w.name = "mlp3-ann-wire";
        w.models = {"mlp3/ann"};
        w.replay = "mlp3/ann";
        w.rateWindow = 2500;
        t.push_back(w);

        w = Workload();
        w.name = "lenet5-ann-conv";
        w.models = {"lenet5/ann"};
        w.replay = "lenet5/ann";
        w.rateWindow = 1000;
        t.push_back(w);

        w = Workload();
        w.name = "lenet5-snn-conv";
        w.models = {"lenet5/snn"};
        w.replay = "lenet5/snn";
        w.window = 8;
        w.rateWindow = 100;
        t.push_back(w);

        w = Workload();
        w.name = "mixed-swap-abft";
        w.models = {"mlp3/ann", "mlp3/snn", "lenet5/ann"};
        w.replay = "lenet5/ann";
        w.runLength = 512;
        w.abft = true;
        w.window = 8;
        w.rateWindow = 3 * w.runLength;
        t.push_back(w);
        return t;
    }();
    return table;
}

/** At most this many rounds of capacity then paced traffic per run. */
constexpr int kMaxRounds = 8;

/** Paced replies per round, so each round's p90 has >= 10 beyond it. */
constexpr double kMinRoundSamples = 200.0;

/** Shortest capacity phase: room for whole throughput windows. */
constexpr double kMinCapacityPhaseS = 0.5;

/** Pool images per run; large enough that accuracy is steady by seed. */
constexpr int kPoolImages = 4096;

/** Held-out dataset seed: disjoint from the training seed (1). */
uint64_t
poolSeed(uint64_t workload_seed)
{
    return 1000003ull + workload_seed * 7919ull;
}

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    double rate = 0.0;
    double limitMs = 0.0;
    double accuracyFloor = 0.0;
    std::string traceOut;
    bool setupOnly = false;
    bool selftest = false;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    try {
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *v = nullptr;
        if (flag == "--setup-only") {
            a.setupOnly = true;
        } else if (flag == "--selftest") {
            a.selftest = true;
        } else if ((v = value()) == nullptr) {
            return false;
        } else if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed") {
            a.seed = std::stoull(v);
        } else if (flag == "--seconds") {
            a.seconds = std::stod(v);
        } else if (flag == "--trace") {
            a.trace = std::string(v) == "1";
        } else if (flag == "--rate") {
            a.rate = std::stod(v);
        } else if (flag == "--limit-ms") {
            a.limitMs = std::stod(v);
        } else if (flag == "--accuracy-floor") {
            a.accuracyFloor = std::stod(v);
        } else if (flag == "--trace-out") {
            a.traceOut = v;
        } else {
            return false;
        }
    }
    } catch (const std::exception &) { // stoull/stod on a bad value
        return false;
    }
    return true;
}

/** The stack one run serves from. */
struct Stack
{
    std::shared_ptr<ModelRegistry> registry;
    std::unique_ptr<ServingServer> server;
};

/**
 * Train, quantize or convert, and program every catalog model, then
 * start the server. The loader caches in memory only, so every process
 * does the same work here.
 */
Stack
standUp(const Workload &w)
{
    Stack stack;
    stack.registry = std::make_shared<ModelRegistry>(registryConfig(w));
    for (const std::string &id : w.models)
        if (!stack.registry->acquire(id))
            throw std::runtime_error("catalog rejected " + id);
    ServerConfig config;
    stack.server = std::make_unique<ServingServer>(config, stack.registry);
    stack.server->start();
    return stack;
}

/** In-process answer of an ANN servable for one pool image. */
struct Reference
{
    int predicted = -1;
    std::vector<float> logits;
};

/** Connections per run, each kept open across every phase. */
constexpr int kConnections = 2;

/** State every connection of a phase shares; read-only but the clients. */
struct WireContext
{
    const Workload &workload;
    const Dataset &pool;
    uint64_t seed;
    /** One client per connection; each used by one sender at a time. */
    std::vector<std::unique_ptr<ServingClient>> clients;
    /** Per catalog model: ANN references by pool image (empty for SNN). */
    std::vector<std::vector<Reference>> references;
    std::vector<ServableModelSpec> specs;
    std::vector<WireMode> modes;
};

/** One phase's plan. */
struct PhasePlan
{
    bool paced = false;
    double seconds = 0.0;     //!< capacity: how long new sends start
    int requestsPerConn = 0;  //!< paced: fixed count per connection
    double ratePerConn = 0.0; //!< paced: arrivals per second
    int firstRequest = 0;     //!< paced: index of the first request
    std::string tenantPrefix; //!< tenant = prefix + connection index
    double limitMs = 0.0;     //!< paced: latency limit
};

/** Tallies of one phase (merged across connections). */
struct PhaseStats
{
    uint64_t sent = 0, ok = 0, untyped = 0;
    uint64_t mismatched = 0, top1 = 0, withinLimit = 0;
    uint64_t abftViolations = 0, abftReExecuted = 0;
    std::vector<double> latencyMs; //!< paced Ok: scheduled send -> reply
    std::vector<double> okAt;      //!< Ok reply arrivals, s from start
    std::vector<double> lagMs;     //!< paced: actual - scheduled send
    std::vector<double> serverMs;  //!< Ok: WireResponse::serverMs
    std::vector<double> wireTaxUs; //!< Ok: client RTT - serverMs
    std::vector<std::string> problems;
    Clock::time_point start{};

    void merge(PhaseStats &&o)
    {
        sent += o.sent;
        ok += o.ok;
        untyped += o.untyped;
        mismatched += o.mismatched;
        top1 += o.top1;
        withinLimit += o.withinLimit;
        abftViolations += o.abftViolations;
        abftReExecuted += o.abftReExecuted;
        auto append = [](std::vector<double> &to, std::vector<double> &from) {
            to.insert(to.end(), from.begin(), from.end());
        };
        append(latencyMs, o.latencyMs);
        append(okAt, o.okAt);
        append(lagMs, o.lagMs);
        append(serverMs, o.serverMs);
        append(wireTaxUs, o.wireTaxUs);
        for (std::string &p : o.problems)
            if (problems.size() < 8)
                problems.push_back(std::move(p));
    }
};

struct Pending
{
    std::future<WireResponse> reply;
    Clock::time_point scheduled;
    Clock::time_point sent;
    int image = 0;
    size_t model = 0;
    int64_t span = -1;
};

void
score(const WireContext &ctx, const PhasePlan &plan, const Pending &p,
      const WireResponse &r, Clock::time_point arrival, PhaseStats &out)
{
    if (r.status == WireStatus::ConnectionLost ||
        r.status == WireStatus::SendFailed) {
        ++out.untyped;
        if (out.problems.size() < 8)
            out.problems.push_back(std::string("untyped outcome ") +
                                   toString(r.status));
        return;
    }
    if (r.status != WireStatus::Ok)
        return; // typed refusal: counted as sent - ok
    ++out.ok;
    const double rtt_ms = 1e3 * secondsBetween(p.sent, arrival);
    out.serverMs.push_back(r.serverMs);
    out.wireTaxUs.push_back(1e3 * (rtt_ms - r.serverMs));
    out.okAt.push_back(secondsBetween(out.start, arrival));
    if (plan.paced) {
        const double ms = 1e3 * secondsBetween(p.scheduled, arrival);
        out.latencyMs.push_back(ms);
        if (ms <= plan.limitMs)
            ++out.withinLimit;
    }
    if (r.predictedClass == ctx.pool.label(p.image))
        ++out.top1;
    out.abftViolations += r.integrityViolation() ? 1 : 0;
    out.abftReExecuted += r.integrityReExecuted() ? 1 : 0;

    const std::vector<Reference> &refs = ctx.references[p.model];
    if (refs.empty())
        return; // SNN: checked by accuracy only
    const Reference &ref = refs[static_cast<size_t>(p.image)];
    const bool same =
        r.predictedClass == ref.predicted &&
        static_cast<size_t>(r.logits.size()) == ref.logits.size() &&
        std::memcmp(r.logits.data(), ref.logits.data(),
                    ref.logits.size() * sizeof(float)) == 0;
    if (!same) {
        ++out.mismatched;
        if (out.problems.size() < 8)
            out.problems.push_back(
                ctx.specs[p.model].id() + " image " +
                std::to_string(p.image) + ": reply differs from the "
                "in-process replica");
    }
}

/**
 * Drive one connection for one phase: this thread sends, a collector
 * thread resolves replies in order and stamps them on arrival.
 *
 * Paced request n of connection c serves model (n / runLength + c) and
 * image 2n + c: the connections keep in step at a fixed rate. Capacity
 * requests draw n from @p next, shared by both connections, and serve
 * model n / runLength and image n, so both connections switch model
 * together and every switch is one swap-in, however the connections'
 * speeds differ.
 */
PhaseStats
runConnection(const WireContext &ctx, const PhasePlan &plan, int conn,
              Clock::time_point start, std::atomic<int> &next,
              SpanRecorder &rec)
{
    PhaseStats out;
    out.start = start;
    ServingClient &client = *ctx.clients[static_cast<size_t>(conn)];
    const Workload &w = ctx.workload;
    const std::string tenant = plan.tenantPrefix + std::to_string(conn);

    PhaseStats scored; // written by the collector thread only
    scored.start = start;
    InOrderCollector<Pending> collector([&](Pending &p) {
        const WireResponse reply = p.reply.get();
        const Clock::time_point arrival = Clock::now();
        rec.endAt(p.span, arrival);
        score(ctx, plan, p, reply, arrival, scored);
    });

    const auto interval = std::chrono::duration<double>(
        plan.paced ? 1.0 / plan.ratePerConn : 0.0);
    // The two connections interleave their paced schedules.
    const auto offset = interval * (0.5 * conn);
    const auto stop_at =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(plan.seconds));
    const int pool = ctx.pool.size();

    std::this_thread::sleep_until(start);
    for (int i = 0;; ++i) {
        Clock::time_point scheduled;
        if (plan.paced) {
            if (i >= plan.requestsPerConn)
                break;
            scheduled = start + std::chrono::duration_cast<Clock::duration>(
                                    offset + interval * i);
            std::this_thread::sleep_until(scheduled);
        } else {
            collector.waitBelow(static_cast<size_t>(w.window));
            scheduled = Clock::now();
            if (scheduled >= stop_at)
                break;
        }
        if (collector.failed())
            break;
        const int n = plan.paced ? plan.firstRequest + i : next++;
        const int shift = plan.paced ? conn : 0;
        const size_t model =
            w.runLength > 0
                ? static_cast<size_t>(n / w.runLength + shift) %
                      w.models.size()
                : 0;
        const int image = (plan.paced ? 2 * n + conn : n) % pool;
        ServeOptions options;
        if (ctx.modes[model] == WireMode::Snn) {
            options.timesteps = kTimesteps;
            options.seed = requestSeed(ctx.seed, image);
        }
        Pending p;
        p.scheduled = scheduled;
        p.image = image;
        p.model = model;
        const uint64_t key =
            (static_cast<uint64_t>(conn) << 32) | static_cast<uint32_t>(i);
        p.span = rec.begin("wire.rtt", -1, key);
        p.sent = Clock::now();
        const int64_t send = rec.begin("loadgen.send", p.span, key);
        p.reply = client.inferAsync(tenant, ctx.specs[model].family,
                                    ctx.modes[model], ctx.pool.image(image),
                                    options);
        rec.end(send);
        if (plan.paced)
            out.lagMs.push_back(1e3 * secondsBetween(scheduled, p.sent));
        ++out.sent;
        collector.push(std::move(p));
    }
    collector.finish();
    out.merge(std::move(scored));
    return out;
}

/** Run one phase on both connections; returns the merged tallies. */
PhaseStats
runPhase(const WireContext &ctx, const PhasePlan &plan, SpanRecorder &rec)
{
    std::vector<PhaseStats> per(kConnections);
    std::vector<std::exception_ptr> failures(kConnections);
    // Leave the threads time to start before the first scheduled send.
    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
    std::atomic<int> next{0};
    std::vector<std::thread> senders;
    for (int c = 0; c < kConnections; ++c)
        senders.emplace_back([&, c] {
            const auto i = static_cast<size_t>(c);
            try {
                per[i] = runConnection(ctx, plan, c, start, next, rec);
            } catch (...) {
                failures[i] = std::current_exception();
            }
        });
    for (std::thread &t : senders)
        t.join();
    for (const std::exception_ptr &failure : failures)
        if (failure)
            std::rethrow_exception(failure);
    PhaseStats total;
    total.start = start;
    for (PhaseStats &p : per)
        total.merge(std::move(p));
    return total;
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Joules and inferences billed to the tenants of @p prefix. */
std::pair<double, double>
billed(const std::string &prefix)
{
    auto &m = obs::MetricsRegistry::global();
    double joules = 0.0, inferences = 0.0;
    for (int c = 0; c < kConnections; ++c) {
        const obs::Labels tenant = {{"tenant", prefix + std::to_string(c)}};
        joules += m.counterValue("telemetry.tenant.energy_j", tenant);
        inferences += m.counterValue("telemetry.tenant.inferences", tenant);
    }
    return {joules, inferences};
}

/**
 * Host-speed probe for setup_s: a fixed float kernel owned by the
 * benchmark (64x64 matrix products), timed in kCalibrationChunks chunks.
 * Set-up is single-threaded and CPU-bound, and the shared host's core
 * speed drifts by up to 2x over seconds to minutes as other machines'
 * load comes and goes; this kernel slows down with it. Returns each
 * chunk's seconds.
 */
std::vector<double>
calibrationChunks()
{
    constexpr int n = 64;
    std::vector<float> a(n * n), b(n * n), c(n * n, 0.0f);
    for (int i = 0; i < n * n; ++i) {
        a[i] = static_cast<float>(i % 17) * 0.01f;
        b[i] = static_cast<float>(i % 13) * 0.02f;
    }
    std::vector<double> chunks;
    for (int chunk = 0; chunk < kCalibrationChunks; ++chunk) {
        const Clock::time_point t0 = Clock::now();
        for (int rep = 0; rep < kCalibrationReps; ++rep)
            for (int i = 0; i < n; ++i)
                for (int k = 0; k < n; ++k) {
                    const float aik = a[i * n + k];
                    for (int j = 0; j < n; ++j)
                        c[i * n + j] += aik * b[k * n + j];
                }
        chunks.push_back(secondsBetween(t0, Clock::now()));
    }
    volatile float sink = c[n + 1]; // keep the products
    (void)sink;
    return chunks;
}

int
selftest()
{
    int failures = 0;
    auto expect = [&](bool ok, const char *what) {
        if (!ok) {
            std::cerr << "selftest: " << what << "\n";
            ++failures;
        }
    };
    std::vector<double> small(100), large(1100);
    for (size_t i = 0; i < small.size(); ++i)
        small[i] = static_cast<double>(i);
    for (size_t i = 0; i < large.size(); ++i)
        large[i] = static_cast<double>(large.size() - i);
    const Quantile refused = quantile(small, 0.99);
    expect(!refused.valid && refused.samples == 100 && refused.beyond == 1,
           "p99 of 100 samples must be refused and report its count");
    const Quantile p99 = quantile(large, 0.99);
    expect(p99.valid && p99.samples == 1100 && p99.beyond == 11 &&
               p99.value == 1089.0,
           "p99 of 1100 samples must rest on 11 samples beyond it");
    const Quantile p50 = quantile(small, 0.5);
    expect(p50.valid && p50.value == 49.0, "p50 of 0..99 is 49");
    expect(!quantile({}, 0.5).valid, "an empty sample has no median");
    std::cout << (failures == 0 ? "selftest ok\n" : "selftest FAILED\n");
    return failures == 0 ? 0 : 1;
}

} // namespace

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

ServableModelSpec
specOf(const std::string &id)
{
    ServableModelSpec spec;
    if (!parseServableId(id, spec))
        throw std::runtime_error("unknown servable " + id);
    return spec;
}

RegistryConfig
registryConfig(const Workload &w)
{
    RegistryConfig config;
    for (const std::string &id : w.models)
        config.catalog.push_back(specOf(id));
    config.residentCapacity = kResidentSlots;
    config.workersPerModel = kWorkers;
    config.engine.defaultTimesteps = kTimesteps;
    config.engine.batching.maxBatch = kMaxBatch;
    config.engine.batching.maxWaitUs = 0; // drain-only
    config.abft = w.abft;
    return config;
}

NebulaConfig
chipConfig(const Workload &w)
{
    NebulaConfig chip;
    chip.abft = w.abft; // what ModelRegistry::acquire programs with
    return chip;
}

uint64_t
requestSeed(uint64_t workload_seed, int index)
{
    uint64_t z = workload_seed * 0x9e3779b97f4a7c15ull +
                 static_cast<uint64_t>(index) + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return (z ^ (z >> 31)) | 1; // 0 would ask the engine to derive one
}

} // namespace wirebench

using namespace wirebench;

/** One run of a workload; throws on a failure that is not a check. */
static int
runBenchmark(const Args &args)
{
    const Workload *wp = findWorkload(args.workload);
    if (wp == nullptr) {
        std::cerr << "unknown workload '" << args.workload << "'\n";
        return 2;
    }
    const Workload &w = *wp;

    // Set-up wall time, from process start, without the speed probe
    // that brackets it; setup_s is that time at the reference host speed.
    std::vector<double> chunks = calibrationChunks();
    Stack stack = standUp(w);
    const double setup_wall_s =
        secondsBetween(kProcessStart, Clock::now()) -
        std::accumulate(chunks.begin(), chunks.end(), 0.0);
    for (double c : calibrationChunks())
        chunks.push_back(c);
    const double host_chunk_s = quantile(chunks, 0.5).value;
    const double setup_s = setup_wall_s * kReferenceChunkS / host_chunk_s;
    std::cout << "set-up: " << setup_wall_s << " s wall, speed probe "
              << 1e3 * host_chunk_s << " ms/chunk (reference "
              << 1e3 * kReferenceChunkS << ")\n";
    if (args.setupOnly) {
        stack.server->stop();
        MetricSheet sheet;
        sheet.set("setup_s", setup_s, "s");
        std::cout << sheet.resultLine(true, 1, 0) << std::endl;
        return 0;
    }
    if (args.rate <= 0.0 || args.limitMs <= 0.0 || args.seconds <= 0.0) {
        std::cerr << "--rate, --limit-ms and --seconds must be positive\n";
        return 2;
    }

    // Inputs: a held-out synthetic digit pool generated from the seed.
    const SyntheticDigits pool(kPoolImages, 16, poolSeed(args.seed));

    WireContext ctx{w, pool, args.seed, {}, {}, {}, {}};
    for (int c = 0; c < kConnections; ++c) {
        ctx.clients.push_back(std::make_unique<ServingClient>());
        if (!ctx.clients.back()->connect("127.0.0.1",
                                         stack.server->port())) {
            std::cerr << "could not connect to the server\n";
            return 1;
        }
    }
    const RegistryConfig reg_config = registryConfig(w);
    for (const ServableModelSpec &spec : reg_config.catalog) {
        ctx.specs.push_back(spec);
        WireMode mode;
        parseWireMode(spec.mode, mode);
        ctx.modes.push_back(mode);
        std::vector<Reference> refs;
        if (spec.mode == "ann") {
            // Same factory, reliability and chip config as the registry.
            std::unique_ptr<ChipReplica> replica =
                ServableLoader::global().makeFactory(
                    spec, reg_config.reliability, chipConfig(w))(0);
            for (int i = 0; i < pool.size(); ++i) {
                InferenceRequest req;
                req.image = pool.image(i);
                const InferenceResult res = replica->run(req);
                refs.push_back({res.predictedClass, res.logits.raw()});
            }
        }
        ctx.references.push_back(std::move(refs));
    }

    SpanRecorder untraced(false);
    SpanRecorder traced(args.trace);
    MetricSheet sheet;
    std::vector<std::string> errors;
    auto absorb = [&](const PhaseStats &p, const char *phase) {
        for (const std::string &problem : p.problems)
            errors.push_back(std::string(phase) + ": " + problem);
        if (p.untyped > 0)
            errors.push_back(std::string(phase) + ": " +
                             std::to_string(p.untyped) +
                             " untyped outcome(s)");
        if (p.mismatched > 0)
            errors.push_back(std::string(phase) + ": " +
                             std::to_string(p.mismatched) +
                             " ANN repl(ies) differ from the replica");
        if (p.abftViolations > 0)
            errors.push_back(std::string(phase) + ": " +
                             std::to_string(p.abftViolations) +
                             " ABFT violation(s) on clean arrays");
    };

    PhasePlan warm;
    warm.seconds = std::min(0.5, 0.05 * args.seconds);
    warm.tenantPrefix = "warm";
    absorb(runPhase(ctx, warm, untraced), "warm-up");

    // The measured time is cut into rounds of capacity then paced
    // traffic, and each latency is the median of its per-round values:
    // host noise that lasts a few seconds then moves a few rounds, not
    // the figure.
    const double paced_share = args.trace ? 0.5 : 0.6;
    const double capacity_share = args.trace ? 0.25 : 1.0 - paced_share;
    const int rounds = std::clamp(
        std::min(static_cast<int>(args.rate * paced_share * args.seconds /
                                  kMinRoundSamples),
                 static_cast<int>(capacity_share * args.seconds /
                                  kMinCapacityPhaseS)),
        1, kMaxRounds);
    const double round_s = args.seconds / rounds;
    PhasePlan paced;
    paced.paced = true;
    paced.ratePerConn = args.rate / 2.0;
    paced.requestsPerConn = std::max(
        1, static_cast<int>(
               std::lround(paced.ratePerConn * paced_share * round_s)));
    paced.tenantPrefix = "paced";
    paced.limitMs = args.limitMs;

    PhasePlan capacity;
    capacity.tenantPrefix = "cap";
    capacity.seconds = capacity_share * round_s;
    PhasePlan plain = capacity; // traced run: the untraced twin
    capacity.tenantPrefix = args.trace ? "captraced" : "cap";

    uint64_t attempted = 0, failed = 0;
    const uint64_t swaps_before = stack.registry->swapIns();
    // Capacity is read in windows of rateWindow consecutive Ok replies,
    // from the phase's first reply until it stops sending.
    auto addWindowRates = [&](const PhaseStats &p, std::vector<double> &into) {
        std::vector<double> t = p.okAt;
        std::sort(t.begin(), t.end());
        t.erase(std::lower_bound(t.begin(), t.end(), capacity.seconds),
                t.end());
        const auto n = static_cast<size_t>(w.rateWindow);
        for (size_t k = n; k < t.size(); k += n)
            into.push_back(static_cast<double>(n) / (t[k] - t[k - n]));
    };
    auto tally = [&](PhaseStats &&p, PhaseStats &into, const char *phase) {
        absorb(p, phase);
        attempted += p.sent;
        failed += p.sent - p.ok;
        into.merge(std::move(p));
    };

    PhaseStats cap_all, paced_all, plain_all;
    std::vector<double> rates, plain_rates, p50s, p90s;
    bool tails_valid = true;
    double cpu_used = 0.0; // paced rounds only: a fixed offered load
    for (int r = 0; r < rounds; ++r) {
        if (args.trace) {
            PhaseStats p = runPhase(ctx, plain, untraced);
            addWindowRates(p, plain_rates);
            tally(std::move(p), plain_all, "capacity (untraced)");
        }
        PhaseStats cap = runPhase(ctx, capacity, traced);
        addWindowRates(cap, rates);
        tally(std::move(cap), cap_all, "capacity");

        paced.firstRequest = r * paced.requestsPerConn;
        const double cpu_before = cpuSeconds();
        PhaseStats pc = runPhase(ctx, paced, traced);
        cpu_used += cpuSeconds() - cpu_before;
        const Quantile q90 = quantile(pc.latencyMs, 0.90);
        tails_valid = tails_valid && q90.valid;
        p50s.push_back(quantile(pc.latencyMs, 0.50).value);
        p90s.push_back(q90.value);
        tally(std::move(pc), paced_all, "paced");
    }

    auto median = [](const std::vector<double> &v) {
        return quantile(v, 0.5).value;
    };
    // Host contention only ever slows a window, and on the shared host
    // it comes and goes within a run: the upper quartile of the windows
    // is the rate the stack sustains when the host lets it run.
    const double throughput = quantile(rates, 0.75).value;
    if (rates.empty())
        errors.push_back("no complete capacity window");
    const Quantile p99 = quantile(paced_all.latencyMs, 0.99);
    const Quantile lag = quantile(paced_all.lagMs, 0.99);
    const double accuracy =
        paced_all.ok > 0 ? static_cast<double>(paced_all.top1) /
                               static_cast<double>(paced_all.ok)
                         : 0.0;
    if (accuracy < args.accuracyFloor)
        errors.push_back("accuracy " + std::to_string(accuracy) +
                         " below its floor " +
                         std::to_string(args.accuracyFloor));
    if (!tails_valid)
        errors.push_back("a round's p90 has fewer than " +
                         std::to_string(kMinBeyond) + " samples beyond it");

    std::cout << "workload " << w.name << " seed " << args.seed
              << (args.trace ? " (traced)" : "") << ", " << rounds
              << " rounds\n"
              << "  capacity: " << cap_all.sent << " sent, " << cap_all.ok
              << " ok, " << throughput << " images/s (upper quartile of "
              << rates.size() << " windows of " << w.rateWindow
              << " replies; median " << median(rates) << ")\n"
              << "  paced @ " << args.rate << "/s: " << paced_all.sent
              << " sent, " << paced_all.ok << " ok; medians of rounds: p50 "
              << median(p50s) << " ms, p90 " << median(p90s)
              << " ms; pooled p99 " << p99.value << " ms (" << p99.samples
              << " samples, " << p99.beyond << " beyond it"
              << (p99.valid ? "" : ": refused") << "); send lag p99 "
              << lag.value << " ms\n"
              << "  swap-ins during traffic: "
              << stack.registry->swapIns() - swaps_before << "\n";

    if (!args.trace) {
        const auto [joules, inferences] = billed("paced");
        sheet.set("setup_s", setup_s, "s");
        sheet.set("throughput_ips", throughput, "images/s");
        sheet.set("slo_attainment",
                  static_cast<double>(paced_all.withinLimit) /
                      static_cast<double>(paced_all.sent),
                  "ratio");
        sheet.set("ok_ratio",
                  static_cast<double>(attempted - failed) /
                      static_cast<double>(attempted),
                  "ratio");
        sheet.set("accuracy", accuracy, "ratio");
        // The server bills each solo request the difference of two
        // running chip totals, so its last bits depend on how much that
        // replica served before; nine significant digits are exact.
        char energy[32];
        std::snprintf(energy, sizeof energy, "%.9g",
                      inferences > 0 ? 1e6 * joules / inferences : 0.0);
        sheet.set("energy_uj_per_image", std::stod(energy), "uJ");
        sheet.set("cpu_us_per_image",
                  1e6 * cpu_used / static_cast<double>(paced_all.ok),
                  "us");
    } else {
        sheet.set("trace.overhead",
                  throughput / quantile(plain_rates, 0.75).value,
                  "ratio");
        sheet.set("serving.latency_p50_ms", median(p50s), "ms");
        sheet.set("serving.latency_p90_ms", median(p90s), "ms");
        sheet.set("serving.latency_p99_ms", p99.value, "ms");
        if (!p99.valid)
            errors.push_back("latency p99 refused: " +
                             std::to_string(p99.beyond) +
                             " samples beyond it of " +
                             std::to_string(p99.samples));
        sheet.set("loadgen.lag_p99_ms", lag.value, "ms");
        if (!lag.valid)
            errors.push_back("send-lag p99 refused: too few samples");
        sheet.set("serving.server_ms_p50",
                  quantile(paced_all.serverMs, 0.5).value, "ms");
        sheet.set("serving.wire_tax_us_p50",
                  quantile(paced_all.wireTaxUs, 0.5).value, "us");
        sheet.set("serving.swap_ins",
                  static_cast<double>(stack.registry->swapIns() -
                                      swaps_before),
                  "count");
        sheet.set("abft.reexecuted",
                  static_cast<double>(cap_all.abftReExecuted +
                                      paced_all.abftReExecuted),
                  "count");
    }

    ctx.clients.clear(); // closes both connections
    // The wire phases are over: stop serving before the ledger so its
    // single-threaded replays have the host to themselves.
    stack.server->stop();
    stack.registry->shutdown();

    if (args.trace) {
        const LedgerInput in{w, pool, args.seed, args.rate};
        try {
            runLedger(in, traced, sheet, errors);
        } catch (const std::exception &e) {
            errors.push_back(std::string("ledger: ") + e.what());
        }
        if (!args.traceOut.empty() && !traced.writeTrace(args.traceOut))
            errors.push_back("could not write " + args.traceOut);
    }
    if (obs::TraceSession::enabled())
        errors.push_back("an obs::TraceSession was started during the run");
    if (!args.trace)
        sheet.set("peak_rss_mb", peakRssMb(), "MB");

    for (const std::string &e : errors)
        std::cerr << "CHECK FAILED: " << e << "\n";
    const bool correct = errors.empty();
    std::cout << sheet.resultLine(correct, attempted, failed) << std::endl;
    return correct ? 0 : 1;
}

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::cerr << "usage: wirebench --workload NAME --seed N --seconds S"
                     " --trace 0|1 --rate R --limit-ms L"
                     " --accuracy-floor A [--trace-out FILE]\n"
                     "       wirebench --setup-only --workload NAME\n"
                     "       wirebench --selftest\n";
        return 2;
    }
    if (args.selftest)
        return selftest();

    // An active session (e.g. auto-started by NEBULA_TRACE) switches the
    // chip to its instrumented SNN walk: the run would not measure the
    // kernels that are served.
    if (obs::TraceSession::enabled()) {
        std::cerr << "refusing to run: an obs::TraceSession is active "
                     "(unset NEBULA_TRACE)\n";
        return 3;
    }
    try {
        return runBenchmark(args);
    } catch (const std::exception &e) {
        std::cerr << "wirebench: " << e.what() << "\n";
        return 1;
    }
}
