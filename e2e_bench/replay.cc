#include <algorithm>
#include <cstdio>

#include "analysis/error_metrics.h"
#include "workloads.h"

namespace e2e {

namespace {

/** Unit of a per-layer metric, by its name. */
std::string
unitFor(const std::string &name)
{
    if (name.rfind("share.", 0) == 0 || name.rfind("closure.", 0) == 0 ||
        name == "trace_overhead_frac" || name == "analysis.sweep_util")
        return "ratio";
    if (name == "core.ingest_ns_per_event")
        return "ns/event";
    if (name == "service.batches_per_commit")
        return "batches/commit";
    if (name.size() > 2 && name.compare(name.size() - 2, 2, "_s") == 0)
        return "s";
    if (name.find("bytes") != std::string::npos)
        return "bytes";
    if (name == "service.queue_depth_p99")
        return "events";
    return "count";
}

} // namespace

ReplayedInterval
replayInterval(Tracer &tracer, mhp::StreamCursor &cursor, Op pullOp,
               mhp::PerfectProfiler &perfect,
               mhp::HardwareProfiler &profiler, uint64_t length,
               uint64_t batch, uint64_t threshold, uint64_t request)
{
    using namespace mhp;
    ReplayedInterval out;
    uint64_t consumed = 0;
    while (consumed < length) {
        TupleSpan chunk;
        {
            Tracer::Span s(tracer, pullOp, request);
            chunk = cursor.take(
                static_cast<size_t>(std::min(batch, length - consumed)));
        }
        {
            Tracer::Span s(tracer, Op::CoreExact, request);
            perfect.onEvents(chunk.data(), chunk.size());
        }
        {
            Tracer::Span s(tracer, Op::CoreIngest, request);
            profiler.onEvents(chunk.data(), chunk.size());
        }
        consumed += chunk.size();
    }
    {
        Tracer::Span s(tracer, Op::CoreDrain, request);
        out.snapshot = profiler.endInterval();
    }
    std::unordered_map<Tuple, uint64_t, TupleHash> truth;
    {
        Tracer::Span s(tracer, Op::CoreExact, request);
        truth = perfect.takeCounts();
    }
    {
        Tracer::Span s(tracer, Op::AnalysisScore, request);
        out.score = scoreInterval(truth, out.snapshot, threshold);
    }
    Tracer::Span s(tracer, Op::CoreExact, request);
    // Move-assigning a fresh map frees nodes and buckets inside the span.
    truth = std::unordered_map<Tuple, uint64_t, TupleHash>();
    return out;
}

void
addBusy(Sample &sample, const Tracer &tracer)
{
    for (size_t i = 0; i < static_cast<size_t>(Op::Count); ++i) {
        const Op op = static_cast<Op>(i);
        if (tracer.count(op) > 0)
            sample[std::string(opName(op)) + "_s"] = tracer.busyS(op);
    }
}

void
addShares(Sample &sample, const Tracer &tracer, double wallS,
          double residualS)
{
    for (size_t i = 0; i < static_cast<size_t>(Layer::Count); ++i) {
        const Layer layer = static_cast<Layer>(i);
        sample[std::string("share.") + layerName(layer)] =
            tracer.layerS(layer) / wallS;
    }
    sample["share.residual"] = residualS / wallS;
}

void
reportSamples(Report &report, const std::vector<Sample> &samples,
              const std::vector<double> &tracedWalls,
              const std::vector<double> &untracedWalls)
{
    std::map<std::string, std::vector<double>> values;
    for (const Sample &s : samples)
        for (const auto &[name, value] : s)
            values[name].push_back(value);
    const std::string n = "median of " + std::to_string(samples.size()) +
                          " traced replays";
    for (const auto &[name, v] : values)
        report.metric(name, median(v), unitFor(name), n);
    const double overhead = median(tracedWalls) / median(untracedWalls) - 1;
    report.metric("trace_overhead_frac", overhead, "ratio",
                  "traced / untraced replay wall - 1");

    const double residual = median(values["closure.residual_frac"]);
    char detail[160];
    std::snprintf(detail, sizeof(detail),
                  "spans + residual = replay wall; residual %.4f of wall, "
                  "tolerance %.2f",
                  residual, kClosureTolerance);
    report.check("layer_spans_add_up",
                 residual >= 0 && residual <= kClosureTolerance, detail);
}

} // namespace e2e
