/**
 * @file
 * The three workloads. Each generates its inputs from the seed,
 * measures for the requested seconds, checks every output against an
 * in-process reference built outside the timed region, and adds its
 * metrics to the report: end-to-end metrics when untraced, per-layer
 * metrics from traced replays otherwise.
 */

#ifndef MHP_E2E_WORKLOADS_H
#define MHP_E2E_WORKLOADS_H

#include <map>
#include <string>
#include <vector>

#include "analysis/error_metrics.h"
#include "common.h"
#include "core/perfect_profiler.h"
#include "spans.h"
#include "trace/source.h"

namespace e2e {

void runTraceToMhp(const Args &args, Report &report);
void runDaemonDurable(const Args &args, Report &report);
void runSweepSuite(const Args &args, Report &report);

/**
 * One timed sweep_suite sweep in this process (the child side of
 * runSweepSuite): prints `sweep setup_s=… wall_s=… completed=…
 * quarantined=…` and leaves the cell results in `checkpoint`.
 */
int runSweepOnce(uint64_t seed, uint64_t intervals,
                 const std::string &checkpoint);

/** One replayed interval's captured candidates and their score. */
struct ReplayedInterval
{
    mhp::IntervalSnapshot snapshot;
    mhp::IntervalScore score;
};

/**
 * One interval of runIntervalsStream's pipeline with the drain not
 * overlapped, a span around every call: chunk pulls (recorded as
 * `pullOp`, the layer that produces the events), exact counts,
 * profiler ingest and drain, then scoring.
 */
ReplayedInterval
replayInterval(Tracer &tracer, mhp::StreamCursor &cursor, Op pullOp,
               mhp::PerfectProfiler &perfect,
               mhp::HardwareProfiler &profiler, uint64_t length,
               uint64_t batch, uint64_t threshold, uint64_t request);

/** Largest residual share of wall time the closure check accepts. */
constexpr double kClosureTolerance = 0.10;

/** Per-layer metric values of one traced replay, by metric name. */
using Sample = std::map<std::string, double>;

/** `<op>_s` busy seconds of each op the tracer saw. */
void addBusy(Sample &sample, const Tracer &tracer);

/**
 * `share.<layer>` (layer self time ÷ wallS) for every layer and
 * `share.residual` (residualS ÷ wallS): together they sum to 1.
 */
void addShares(Sample &sample, const Tracer &tracer, double wallS,
               double residualS);

/**
 * Print the per-name median over `samples` (unit by naming rule) and
 * check the closure: the median replay's residual share must lie in
 * [0, kClosureTolerance]. Also reports `trace_overhead_frac` from
 * `tracedWalls` ÷ `untracedWalls` medians.
 */
void reportSamples(Report &report, const std::vector<Sample> &samples,
                   const std::vector<double> &tracedWalls,
                   const std::vector<double> &untracedWalls);

} // namespace e2e

#endif // MHP_E2E_WORKLOADS_H
