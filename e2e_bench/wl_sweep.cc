/**
 * @file
 * sweep_suite: in-process SweepRunner::runResilient with a checkpoint
 * journal over the paper's design space — the 8 suite benchmarks x 4
 * design points (best single-hash, best multi-hash with 2 and with 4
 * tables, mh4 without conservative update) at 100K-event intervals
 * and a 0.1% threshold: 32 equal-size cells on min(4, nproc) threads.
 *
 * The traced run times each cell's runCellResilient on the same
 * threads (cell latency, stragglers, utilization), then replays every
 * cell serially through the public calls inside it — generator pulls,
 * profiler ingest and drain, exact counts, scoring — with a span
 * around each.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis/sweep_journal.h"
#include "analysis/sweep_runner.h"
#include "core/factory.h"
#include "core/perfect_profiler.h"
#include "support/parallel.h"
#include "workload/benchmarks.h"
#include "workloads.h"

namespace e2e {

namespace {

using namespace mhp;

constexpr uint64_t kIntervalLength = 100'000;
constexpr double kThreshold = 0.001;

/** Cells the output check recomputes with SweepRunner::run(1). */
constexpr size_t kSampleCells[] = {0, 13, 22, 31};

SweepPlan
suitePlan(uint64_t seed, uint64_t intervals)
{
    SweepPlan plan;
    plan.benchmarks = benchmarkNames();
    ProfilerConfig mh2 = bestMultiHashConfig(kIntervalLength, kThreshold);
    mh2.numHashTables = 2;
    ProfilerConfig c0 = bestMultiHashConfig(kIntervalLength, kThreshold);
    c0.conservativeUpdate = false;
    plan.configs = {
        {"sh-best", bestSingleHashConfig(kIntervalLength, kThreshold)},
        {"mh2-best", mh2},
        {"mh4-best", bestMultiHashConfig(kIntervalLength, kThreshold)},
        {"mh4-C0", c0},
    };
    plan.intervals = intervals;
    plan.workloadSeed = seed;
    return plan;
}

/** A cell's outcome without the plan-relative indices. */
bool
sameCell(SweepCellResult a, SweepCellResult b)
{
    a.benchmarkIndex = b.benchmarkIndex = 0;
    a.configIndex = b.configIndex = 0;
    a.intervalLengthIndex = b.intervalLengthIndex = 0;
    return a == b;
}

/**
 * Recompute one cell with the plain parallel engine at one thread, on
 * a one-benchmark, one-config plan.
 */
SweepCellResult
referenceCell(const SweepPlan &plan, size_t cell)
{
    const size_t configs = plan.configs.size();
    SweepPlan one = plan;
    one.benchmarks = {plan.benchmarks[cell / configs]};
    one.configs = {plan.configs[cell % configs]};
    return SweepRunner(one).run(1).front();
}

/** Simulated statistics of the whole sweep (seed-determined). */
std::string
simStats(const std::vector<SweepCellResult> &cells)
{
    double err = 0, cand = 0;
    for (const SweepCellResult &c : cells) {
        err += c.run.averageErrorPercent();
        cand += c.run.meanHardwareCandidates();
    }
    const double n = static_cast<double>(cells.size());
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "sim avg_error_pct=%.6f candidates_per_interval=%.6f",
                  err / n, cand / n);
    return buf;
}

/**
 * One cell's pipeline exactly as runIntervalsStream runs it (drain
 * not overlapped), with the generator pulled through the same staging
 * cursor the sweep uses.
 */
std::vector<IntervalScore>
replayCell(Tracer &tracer, const SweepPlan &plan, size_t cell)
{
    const size_t configs = plan.configs.size();
    const std::string &bench = plan.benchmarks[cell / configs];
    const ProfilerConfig &cfg = plan.configs[cell % configs].config;
    const uint64_t threshold = cfg.thresholdCount();
    std::vector<IntervalScore> out;

    std::unique_ptr<EventSource> source;
    std::unique_ptr<EventSourceCursor> cursor;
    {
        Tracer::Span s(tracer, Op::WorkloadGen, cell);
        source = makeValueWorkload(bench, plan.workloadSeed);
        cursor = std::make_unique<EventSourceCursor>(
            *source, static_cast<size_t>(
                         std::min(plan.batchSize, cfg.intervalLength)));
    }
    auto profiler = makeProfiler(cfg);
    PerfectProfiler perfect(threshold);
    for (uint64_t k = 0; k < plan.intervals; ++k)
        out.push_back(
            replayInterval(tracer, *cursor, Op::WorkloadGen, perfect,
                           *profiler, cfg.intervalLength, plan.batchSize,
                           threshold, cell)
                .score);
    return out;
}

/** What one sweep-once child reports on its stdout. */
struct SweepOnce
{
    double setupS = 0;
    double wallS = 0;
    size_t completed = 0;
    size_t quarantined = 0;
};

bool
parseSweepOnce(const std::vector<uint8_t> &bytes, SweepOnce &out)
{
    const std::string text(bytes.begin(), bytes.end());
    return std::sscanf(text.c_str(),
                       "sweep setup_s=%lf wall_s=%lf completed=%zu "
                       "quarantined=%zu",
                       &out.setupS, &out.wallS, &out.completed,
                       &out.quarantined) == 4;
}

} // namespace

int
runSweepOnce(uint64_t seed, uint64_t intervals,
             const std::string &checkpoint)
{
    const SweepPlan plan = suitePlan(seed, intervals);
    // Set-up is microseconds, so time a batch and divide.
    constexpr int kSetupBatch = 200;
    uint64_t sink = 0;
    const double s0 = nowS();
    for (int i = 0; i < kSetupBatch; ++i)
        sink += SweepRunner(plan).planFingerprint();
    const double setupS = (nowS() - s0) / kSetupBatch;

    SweepResilienceOptions options;
    options.threads = benchThreads();
    options.checkpointPath = checkpoint;
    const double w0 = nowS();
    StatusOr<SweepReport> swept = SweepRunner(plan).runResilient(options);
    const double wallS = nowS() - w0;
    if (!swept.isOk()) {
        std::fprintf(stderr, "mhprof_e2e: sweep failed: %s\n",
                     swept.status().toString().c_str());
        return 1;
    }
    std::printf("sweep setup_s=%.9g wall_s=%.9g completed=%llu "
                "quarantined=%zu fingerprints=%016llx\n",
                setupS, wallS,
                static_cast<unsigned long long>(swept->completedCells),
                swept->quarantined.size(),
                static_cast<unsigned long long>(sink));
    return swept->interrupted ? 1 : 0;
}

void
runSweepSuite(const Args &args, Report &report)
{
    const SweepPlan plan = suitePlan(args.seed, args.scale.sweepIntervals);
    SweepResilienceOptions options;
    options.threads = benchThreads();
    options.checkpointPath = "sweep.ckpt";
    const size_t cells = SweepRunner(plan).cellCount();
    const uint64_t eventsPerCell = plan.intervals * kIntervalLength;
    report.info("input benchmarks=8 configs=4 cells=" +
                std::to_string(cells) + " intervals_per_cell=" +
                std::to_string(plan.intervals) +
                " interval_length=100000 threshold=0.1% threads=" +
                std::to_string(options.threads));

    // Outputs kept per repetition; the references are built after
    // timing ends.
    std::vector<std::vector<SweepCellResult>> samples; // kSampleCells
    std::vector<SweepCellResult> firstReport;
    uint64_t attempted = 0, failedCells = 0;
    bool complete = true;
    std::vector<Sample> layerSamples;
    std::vector<double> traced, untraced;
    std::vector<std::vector<IntervalScore>> replayed;

    const double t0 = nowS();
    if (!args.trace) {
        // Each sweep runs in a fresh process (this binary, sweep-once
        // mode), so its peak RSS is the sweep's own; its results come
        // back through the checkpoint journal it writes.
        const std::vector<std::string> childArgv = {
            "/proc/self/exe", "--sweep-once",
            "--seed=" + std::to_string(args.seed),
            "--intervals=" + std::to_string(plan.intervals),
            "--checkpoint=" + options.checkpointPath};
        const uint64_t fingerprint = SweepRunner(plan).planFingerprint();
        std::vector<double> setupS, walls, rss;
        for (unsigned rep = 0;
             rep < args.scale.minReps || nowS() - t0 < args.seconds;
             ++rep) {
            std::filesystem::remove(options.checkpointPath);
            std::filesystem::remove("sweep-once.out");
            const ChildResult child = runChild(childArgv, "sweep-once.out");
            SweepOnce once;
            const bool parsed = parseSweepOnce(
                readFile("sweep-once.out"), once);
            StatusOr<LoadedCheckpoint> journal = loadSweepCheckpoint(
                options.checkpointPath, fingerprint, cells);
            attempted += cells;
            if (child.exitCode != 0 || !parsed || !journal.isOk()) {
                failedCells += cells;
                complete = false;
                continue;
            }
            setupS.push_back(once.setupS);
            walls.push_back(once.wallS);
            rss.push_back(child.peakRssMb);
            failedCells += once.quarantined;
            complete = complete && once.completed == cells &&
                       journal->completed.size() == cells;
            std::vector<SweepCellResult> picked;
            for (size_t c : kSampleCells)
                picked.push_back(journal->completed[c]);
            samples.push_back(std::move(picked));
            if (firstReport.empty())
                for (size_t c = 0; c < cells; ++c)
                    firstReport.push_back(journal->completed[c]);
        }
        std::string perRun = "runs wall_s";
        for (double w : walls)
            perRun += " " + std::to_string(w);
        report.info(perRun);
        const std::string n = "n=" + std::to_string(walls.size());
        report.metric("setup_s", median(setupS), "s",
                      "SweepRunner construction + plan fingerprint, "
                      "median of " + n + " batches of 200");
        report.metric("events_per_s",
                      static_cast<double>(cells * eventsPerCell) /
                          median(walls),
                      "events/s", "median sweep wall, " + n);
        report.metric("cells_per_s",
                      static_cast<double>(cells) / median(walls), "cells/s",
                      "median sweep wall, " + n);
        report.metric("peak_rss_mb", median(rss), "MiB",
                      "sweep process ru_maxrss, median of " + n);
    } else {
        for (unsigned rep = 0;
             rep < args.scale.minReps || nowS() - t0 < args.seconds;
             ++rep) {
            // Cell pass: the sweep's own retry loop per cell on the
            // sweep's threads, one span per cell.
            const SweepRunner runner(plan);
            Tracer cellTracer(true);
            std::vector<SweepCellResult> results(cells);
            std::vector<char> ok(cells, 0);
            cellTracer.start();
            parallelFor(
                cells,
                [&](size_t cell) {
                    Tracer::Span s(cellTracer, Op::AnalysisCell, cell);
                    CellOutcome out = runner.runCellResilient(cell, options);
                    ok[cell] = out.status.isOk() ? 1 : 0;
                    results[cell] = std::move(out.result);
                },
                options.threads, /*grain=*/1);
            cellTracer.stop();
            attempted += cells;
            for (char c : ok)
                failedCells += c ? 0 : 1;
            std::vector<SweepCellResult> picked;
            for (size_t c : kSampleCells)
                picked.push_back(results[c]);
            samples.push_back(std::move(picked));

            // Layer pass: every cell serially, untraced then traced.
            Tracer off(false), on(true);
            off.start();
            for (size_t cell = 0; cell < cells; ++cell)
                replayCell(off, plan, cell);
            off.stop();
            on.start();
            replayed.clear();
            for (size_t cell = 0; cell < cells; ++cell)
                replayed.push_back(replayCell(on, plan, cell));
            on.stop();
            on.dump(args.spanDump);
            untraced.push_back(off.wallS());
            traced.push_back(on.wallS());
            if (firstReport.empty())
                firstReport = std::move(results);

            Sample s;
            addBusy(s, on);
            addShares(s, on, on.wallS(), on.residualS());
            s["closure.residual_frac"] = on.residualS() / on.wallS();
            const std::vector<double> cellS =
                cellTracer.durations(Op::AnalysisCell);
            double busy = 0;
            for (double d : cellS)
                busy += d;
            s["analysis.cell_p50_s"] = median(cellS);
            s["analysis.cell_max_s"] =
                *std::max_element(cellS.begin(), cellS.end());
            s["analysis.sweep_util"] =
                busy / (options.threads * cellTracer.wallS());
            s["workload.events"] = static_cast<double>(cells * eventsPerCell);
            s["core.events"] = static_cast<double>(cells * eventsPerCell);
            s["core.intervals"] =
                static_cast<double>(cells * plan.intervals);
            s["core.ingest_ns_per_event"] =
                on.busyS(Op::CoreIngest) * 1e9 /
                static_cast<double>(cells * eventsPerCell);
            double candidates = 0;
            for (const SweepCellResult &c : firstReport)
                candidates += c.run.meanHardwareCandidates() *
                              static_cast<double>(c.run.intervals.size());
            s["core.candidates"] = candidates;
            layerSamples.push_back(std::move(s));
        }
    }
    std::filesystem::remove(options.checkpointPath);

    report.attempted(attempted);
    report.failed(failedCells);
    report.check("sweep_complete", complete && failedCells == 0,
                 std::to_string(attempted - failedCells) + "/" +
                     std::to_string(attempted) + " cells, none quarantined");
    size_t mismatches = 0;
    for (size_t i = 0; i < std::size(kSampleCells); ++i) {
        SweepCellResult want = referenceCell(plan, kSampleCells[i]);
        if (args.injectMismatch)
            want.eventsConsumed += 1;
        for (const std::vector<SweepCellResult> &rep : samples)
            mismatches += sameCell(rep[i], want) ? 0 : 1;
    }
    report.check("sample_cells_equal_run_1_thread", mismatches == 0,
                 "cells 0,13,22,31 of " + std::to_string(samples.size()) +
                     " sweeps");
    if (args.trace) {
        size_t replayMismatch = 0;
        for (size_t c = 0; c < replayed.size(); ++c)
            replayMismatch +=
                replayed[c] == firstReport[c].run.intervals ? 0
                                                                      : 1;
        report.check("replay_cells_equal_sweep", replayMismatch == 0,
                     std::to_string(replayed.size()) + " cells");
        reportSamples(report, layerSamples, traced, untraced);
    } else {
        report.metric("failed_frac",
                      static_cast<double>(failedCells) /
                          static_cast<double>(std::max<uint64_t>(1, attempted)),
                      "ratio", std::to_string(attempted) + " cells");
    }
    report.info(simStats(firstReport));
}

} // namespace e2e
