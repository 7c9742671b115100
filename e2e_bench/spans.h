/**
 * @file
 * In-memory span recorder for the traced run. The benchmark wraps
 * each call it makes into a layer's public function in a Span; spans
 * never nest, so a span's self time is its duration, and on the one
 * replay thread the spans plus the unattributed residual add up to
 * the replay's wall time. A disabled recorder reads no clock, which is
 * how the untraced twin of a replay measures the tracing overhead.
 */

#ifndef MHP_E2E_SPANS_H
#define MHP_E2E_SPANS_H

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

/** The repository modules on the measured paths. */
enum class Layer : uint8_t
{
    Trace,
    Workload,
    Core,
    Analysis,
    Service,
    Count,
};

const char *layerName(Layer layer);

/** One kind of call into a layer; its metric name is `<name>_s`. */
enum class Op : uint8_t
{
    TraceOpen,         ///< TraceMap::open
    TraceTake,         ///< TraceMapSource::take
    WorkloadGen,       ///< generator construction + event pulls
    CoreIngest,        ///< HardwareProfiler::onEvents
    CoreDrain,         ///< HardwareProfiler::endInterval
    CoreExact,         ///< PerfectProfiler ingest + interval close
    AnalysisScore,     ///< scoreInterval
    AnalysisWrite,     ///< ProfileWriter open/writeInterval/close
    AnalysisCell,      ///< SweepRunner::runCellResilient
    ServiceEncode,     ///< service_wire encode*
    ServiceDecode,     ///< service_wire decode*
    ServiceIngest,     ///< ServiceCore::ingest / connectTenant
    ServiceTick,       ///< ServiceCore::tick / finishTenant
    ServiceCommit,     ///< ServiceState::commit
    ServiceCheckpoint, ///< ServiceState::checkpoint / recover
    ServiceQuery,      ///< ServiceCore::query / stats
    Count,
};

const char *opName(Op op);
Layer opLayer(Op op);

class Tracer
{
  public:
    explicit Tracer(bool enabled) : on(enabled) {}

    bool enabled() const { return on; }

    /** Open the wall-time window the closure is checked against. */
    void start();
    void stop();
    double wallS() const { return wall; }

    /** Busy seconds and call count of one op. */
    double busyS(Op op) const;
    uint64_t count(Op op) const;

    /** Self time of every span of one layer. */
    double layerS(Layer layer) const;

    /** Wall minus every span: the replay's own glue. */
    double residualS() const;

    /** Busy seconds of each span of one op, in record order. */
    std::vector<double> durations(Op op) const;

    /** Write every span as TSV (op, layer, request, start, end ns). */
    void dump(const std::string &path) const;

    /** Times one call; `request` ties spans of one frame/interval. */
    class Span
    {
      public:
        Span(Tracer &tracer, Op op, uint64_t request = 0);
        ~Span();
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        Tracer &tracer;
        Op op;
        uint64_t request;
        int64_t t0 = 0;
    };

  private:
    struct Record
    {
        Op op;
        uint64_t request;
        int64_t t0;
        int64_t t1;
    };

    const bool on;
    double wall = 0;
    int64_t windowStart = 0;

    /** Guards `records`: the sweep's cell pass records from workers. */
    mutable std::mutex mutex;
    std::vector<Record> records;
};

/** Nanoseconds on the steady clock. */
int64_t steadyNs();

} // namespace e2e

#endif // MHP_E2E_SPANS_H
