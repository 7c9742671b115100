#include "spans.h"

#include <chrono>
#include <fstream>

namespace e2e {

namespace {

struct OpInfo
{
    const char *name;
    Layer layer;
};

constexpr OpInfo kOps[] = {
    {"trace.open", Layer::Trace},
    {"trace.take", Layer::Trace},
    {"workload.gen", Layer::Workload},
    {"core.ingest", Layer::Core},
    {"core.drain", Layer::Core},
    {"core.exact", Layer::Core},
    {"analysis.score", Layer::Analysis},
    {"analysis.mhp_write", Layer::Analysis},
    {"analysis.cell", Layer::Analysis},
    {"service.encode", Layer::Service},
    {"service.decode", Layer::Service},
    {"service.ingest", Layer::Service},
    {"service.tick", Layer::Service},
    {"service.commit", Layer::Service},
    {"service.checkpoint", Layer::Service},
    {"service.query", Layer::Service},
};
static_assert(sizeof(kOps) / sizeof(kOps[0]) ==
              static_cast<size_t>(Op::Count));

} // namespace

const char *
layerName(Layer layer)
{
    static const char *const names[] = {"trace", "workload", "core",
                                        "analysis", "service"};
    return names[static_cast<size_t>(layer)];
}

const char *
opName(Op op)
{
    return kOps[static_cast<size_t>(op)].name;
}

Layer
opLayer(Op op)
{
    return kOps[static_cast<size_t>(op)].layer;
}

int64_t
steadyNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
Tracer::start()
{
    windowStart = steadyNs();
}

void
Tracer::stop()
{
    wall = static_cast<double>(steadyNs() - windowStart) * 1e-9;
}

double
Tracer::busyS(Op op) const
{
    std::lock_guard<std::mutex> lock(mutex);
    int64_t ns = 0;
    for (const Record &r : records)
        if (r.op == op)
            ns += r.t1 - r.t0;
    return static_cast<double>(ns) * 1e-9;
}

uint64_t
Tracer::count(Op op) const
{
    std::lock_guard<std::mutex> lock(mutex);
    uint64_t n = 0;
    for (const Record &r : records)
        n += r.op == op ? 1 : 0;
    return n;
}

double
Tracer::layerS(Layer layer) const
{
    double s = 0;
    for (size_t i = 0; i < static_cast<size_t>(Op::Count); ++i)
        if (opLayer(static_cast<Op>(i)) == layer)
            s += busyS(static_cast<Op>(i));
    return s;
}

double
Tracer::residualS() const
{
    double spans = 0;
    for (size_t i = 0; i < static_cast<size_t>(Layer::Count); ++i)
        spans += layerS(static_cast<Layer>(i));
    return wall - spans;
}

std::vector<double>
Tracer::durations(Op op) const
{
    std::lock_guard<std::mutex> lock(mutex);
    std::vector<double> out;
    for (const Record &r : records)
        if (r.op == op)
            out.push_back(static_cast<double>(r.t1 - r.t0) * 1e-9);
    return out;
}

void
Tracer::dump(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex);
    std::ofstream out(path);
    out << "op\tlayer\trequest\tstart_ns\tend_ns\n";
    for (const Record &r : records)
        out << opName(r.op) << '\t' << layerName(opLayer(r.op)) << '\t'
            << r.request << '\t' << r.t0 - windowStart << '\t'
            << r.t1 - windowStart << '\n';
}

Tracer::Span::Span(Tracer &tracer, Op op, uint64_t request)
    : tracer(tracer), op(op), request(request)
{
    if (tracer.on)
        t0 = steadyNs();
}

Tracer::Span::~Span()
{
    if (!tracer.on)
        return;
    const int64_t t1 = steadyNs();
    std::lock_guard<std::mutex> lock(tracer.mutex);
    tracer.records.push_back({op, request, t0, t1});
}

} // namespace e2e
