/**
 * @file
 * trace_to_mhp: a seeded gcc value trace (.mht) through mhprof_run
 * with the default profiler config and threading, exactly as a user
 * runs it. The traced run replays the same trace serially in-process
 * through the same public calls, with a span around each.
 */

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "analysis/interval_runner.h"
#include "analysis/profile_io.h"
#include "core/config.h"
#include "core/factory.h"
#include "core/perfect_profiler.h"
#include "trace/trace_io.h"
#include "trace/trace_map.h"
#include "workload/benchmarks.h"
#include "workloads.h"

namespace e2e {

namespace {

using namespace mhp;

constexpr uint64_t kBatch = 4096; // mhprof_run's default --batch

/** What a run must reproduce, from the serial library path. */
struct Reference
{
    std::string digest;
    double avgErrorPct = 0;
    double candidatesPerInterval = 0;
    RunResult result;
};

Reference
buildReference(const std::string &trace, const std::string &out,
               const ProfilerConfig &cfg, uint64_t intervals)
{
    auto map = TraceMap::open(trace);
    if (!map.isOk()) {
        std::fprintf(stderr, "mhprof_e2e: %s\n",
                     map.status().toString().c_str());
        std::exit(2);
    }
    TraceMapSource cursor(*map);
    auto profiler = makeProfiler(cfg);
    StreamRunOptions options;
    options.batchSize = kBatch;
    options.keepSnapshots = true;
    RunOutput run = runIntervalsStream(cursor, {profiler.get()},
                                       cfg.intervalLength,
                                       cfg.thresholdCount(), intervals,
                                       options);
    {
        ProfileWriter writer(out, (*map)->kind(), cfg.intervalLength,
                             cfg.thresholdCount());
        for (const IntervalSnapshot &snap : run.snapshots[0])
            (void)writer.writeInterval(snap);
        (void)writer.close();
    }
    Reference ref;
    ref.digest = hexDigest(readFile(out));
    ref.avgErrorPct = run.results[0].averageErrorPercent();
    ref.candidatesPerInterval = run.results[0].meanHardwareCandidates();
    ref.result = std::move(run.results[0]);
    return ref;
}

/** Counts of one replay, beside the tracer's spans. */
struct ReplayOut
{
    RunResult result;
    uint64_t events = 0;
    uint64_t intervals = 0;
    uint64_t candidates = 0;
};

/**
 * The serial form of mhprof_run's trace path (runIntervalsStream with
 * the drain not overlapped, then ProfileWriter), one span per call.
 */
ReplayOut
replay(Tracer &tracer, const std::string &trace, const std::string &out,
       const ProfilerConfig &cfg, uint64_t intervals)
{
    ReplayOut r;
    r.result.profilerName = "replay";
    const uint64_t length = cfg.intervalLength;
    const uint64_t threshold = cfg.thresholdCount();
    tracer.start();
    std::shared_ptr<const TraceMap> map;
    {
        Tracer::Span s(tracer, Op::TraceOpen);
        map = std::move(*TraceMap::open(trace));
    }
    auto profiler = makeProfiler(cfg);
    PerfectProfiler perfect(threshold);
    TraceMapSource cursor(map);
    std::unique_ptr<ProfileWriter> writer;
    {
        Tracer::Span s(tracer, Op::AnalysisWrite);
        writer = std::make_unique<ProfileWriter>(out, map->kind(), length,
                                                 threshold);
    }
    for (uint64_t k = 0; k < intervals; ++k) {
        ReplayedInterval done = replayInterval(
            tracer, cursor, Op::TraceTake, perfect, *profiler, length,
            kBatch, threshold, k);
        r.result.intervals.push_back(done.score);
        {
            Tracer::Span s(tracer, Op::AnalysisWrite, k);
            (void)writer->writeInterval(done.snapshot);
        }
        r.candidates += done.snapshot.size();
        r.events += length;
        ++r.intervals;
    }
    {
        Tracer::Span s(tracer, Op::AnalysisWrite);
        (void)writer->close();
    }
    tracer.stop();
    return r;
}

} // namespace

void
runTraceToMhp(const Args &args, Report &report)
{
    const ProfilerConfig cfg; // mhprof_run's defaults: mh4 C1R0P1 2048e
    const uint64_t intervals = args.scale.traceEvents / cfg.intervalLength;
    const uint64_t events = intervals * cfg.intervalLength;
    const std::string trace = "gcc.mht";

    {
        auto source = makeValueWorkload("gcc", args.seed);
        TraceWriter writer(trace, ProfileKind::Value);
        pump(*source, writer, events);
        if (const Status st = writer.close(); !st.isOk()) {
            std::fprintf(stderr, "mhprof_e2e: %s\n",
                         st.toString().c_str());
            std::exit(2);
        }
    }
    warmPageCache(trace);
    report.info("input trace=gcc events=" + std::to_string(events) +
                " intervals=" + std::to_string(intervals) + " config=" +
                cfg.describe());

    std::vector<std::string> digests;
    std::vector<std::vector<IntervalScore>> replayScores;
    const double t0 = nowS();
    if (!args.trace) {
        const std::string tool = args.toolsDir + "/mhprof_run";
        const std::vector<std::string> setupArgv = {
            tool, "--trace=" + trace, "--intervals=0", "--out=setup.mhp"};
        const std::vector<std::string> runArgv = {
            tool, "--trace=" + trace,
            "--intervals=" + std::to_string(intervals), "--out=run.mhp"};
        std::vector<double> setupWalls, runWalls, rss;
        uint64_t failedRuns = 0;
        for (unsigned rep = 0;
             rep < args.scale.minReps || nowS() - t0 < args.seconds;
             ++rep) {
            const ChildResult setup = runChild(setupArgv, "mhprof_run.log");
            const ChildResult run = runChild(runArgv, "mhprof_run.log");
            setupWalls.push_back(setup.wallS);
            runWalls.push_back(run.wallS);
            rss.push_back(run.peakRssMb);
            if (setup.exitCode != 0 || run.exitCode != 0)
                ++failedRuns;
            digests.push_back(hexDigest(readFile("run.mhp")));
            std::filesystem::remove("run.mhp");
        }
        std::string perRun = "runs wall_s";
        for (double w : runWalls)
            perRun += " " + std::to_string(w);
        report.info(perRun);
        report.attempted(runWalls.size());
        report.failed(failedRuns);
        const std::string n = "n=" + std::to_string(runWalls.size());
        report.metric("setup_s", median(setupWalls), "s",
                      "median of " + n + " zero-interval runs");
        report.metric("events_per_s",
                      static_cast<double>(events) / median(runWalls),
                      "events/s", "median run wall, " + n);
        report.metric("peak_rss_mb", median(rss), "MiB",
                      "mhprof_run ru_maxrss, " + n);
        report.metric("failed_frac",
                      static_cast<double>(failedRuns) /
                          static_cast<double>(runWalls.size()),
                      "ratio", n + " trace runs");
    } else {
        std::vector<Sample> samples;
        std::vector<double> traced, untraced;
        for (unsigned rep = 0;
             rep < args.scale.minReps || nowS() - t0 < args.seconds;
             ++rep) {
            Tracer off(false);
            replay(off, trace, "replay.mhp", cfg, intervals);
            untraced.push_back(off.wallS());
            digests.push_back(hexDigest(readFile("replay.mhp")));

            Tracer on(true);
            const ReplayOut r =
                replay(on, trace, "replay.mhp", cfg, intervals);
            traced.push_back(on.wallS());
            digests.push_back(hexDigest(readFile("replay.mhp")));
            replayScores.push_back(r.result.intervals);
            on.dump(args.spanDump);

            Sample s;
            addBusy(s, on);
            addShares(s, on, on.wallS(), on.residualS());
            s["trace.bytes"] = static_cast<double>(r.events * sizeof(Tuple));
            s["core.events"] = static_cast<double>(r.events);
            s["core.intervals"] = static_cast<double>(r.intervals);
            s["core.candidates"] = static_cast<double>(r.candidates);
            s["closure.residual_frac"] = on.residualS() / on.wallS();
            s["core.ingest_ns_per_event"] =
                on.busyS(Op::CoreIngest) * 1e9 /
                static_cast<double>(r.events);
            s["analysis.mhp_bytes"] =
                static_cast<double>(readFile("replay.mhp").size());
            samples.push_back(std::move(s));
        }
        report.attempted(traced.size());
        reportSamples(report, samples, traced, untraced);
    }

    const Reference ref = buildReference(trace, "ref.mhp", cfg, intervals);
    const std::string want =
        args.injectMismatch ? ref.digest + "-perturbed" : ref.digest;
    uint64_t mismatches = 0;
    for (const std::string &d : digests)
        mismatches += d == want ? 0 : 1;
    report.check("mhp_bytes_equal_serial_reference", mismatches == 0,
                 std::to_string(digests.size() - mismatches) + "/" +
                     std::to_string(digests.size()) +
                     " outputs match digest " + ref.digest);
    if (args.trace) {
        size_t same = 0;
        for (const auto &scores : replayScores)
            same += scores == ref.result.intervals ? 1 : 0;
        report.check("replay_scores_equal_reference",
                     same == replayScores.size(),
                     std::to_string(same) + "/" +
                         std::to_string(replayScores.size()) + " replays");
    }
    char sim[256];
    std::snprintf(sim, sizeof(sim),
                  "sim avg_error_pct=%.6f candidates_per_interval=%.6f "
                  "mhp_digest=%s",
                  ref.avgErrorPct, ref.candidatesPerInterval,
                  ref.digest.c_str());
    report.info(sim);
}

} // namespace e2e
