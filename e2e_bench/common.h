/**
 * @file
 * Shared plumbing of the end-to-end benchmark program: arguments, the
 * metric report, order statistics, child processes with their peak
 * RSS, and the run context.
 */

#ifndef MHP_E2E_COMMON_H
#define MHP_E2E_COMMON_H

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

/** Sizes of one workload run; `tiny` is the self-check's scale. */
struct Scale
{
    uint64_t traceEvents = 0;   ///< trace_to_mhp: events in the .mht
    uint64_t tenantEvents = 0;  ///< daemon_durable: events per tenant
    uint64_t sweepIntervals = 0; ///< sweep_suite: intervals per cell
    unsigned minReps = 0;       ///< repetitions even past --seconds
};

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string toolsDir; ///< holds mhprof_run and mhprofd
    std::string workDir;  ///< scratch inputs/outputs of this run
    std::string spanDump; ///< where the traced run writes its spans
    Scale scale;
    /** Perturb every reference so the output check must fail. */
    bool injectMismatch = false;
};

/** Seconds on the steady clock. */
inline double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Median (mean of the middle pair for even sizes); 0 when empty. */
double median(std::vector<double> v);

/**
 * Nearest-rank percentile, p in (0, 100]; 0 when empty. Callers state
 * the sample count beside it.
 */
double percentile(std::vector<double> v, double p);

/**
 * Collects metrics and checks. Every metric prints as a text line
 * `metric <name> <value> <unit>` (with an optional note, such as a
 * sample count); run.py turns those lines into the final JSON line
 * the benchmark contract asks for, in BENCHMARK.json's names and units.
 */
class Report
{
  public:
    void metric(const std::string &name, double value,
                const std::string &unit, const std::string &note = "");

    /** Record one output check; a failed one fails the run. */
    void check(const std::string &what, bool ok,
               const std::string &detail = "");

    /** Free-form line (context, simulated statistics). */
    void info(const std::string &line);

    void attempted(uint64_t n) { attemptedOps += n; }
    void failed(uint64_t n) { failedOps += n; }

    bool correct() const { return checksRun > 0 && checksFailed == 0; }

    /** `result correct=<0|1> attempted=<n> failed=<n>`. */
    void printResult() const;

  private:
    uint64_t checksRun = 0;
    uint64_t checksFailed = 0;
    uint64_t attemptedOps = 0;
    uint64_t failedOps = 0;
};

/** A finished child process. */
struct ChildResult
{
    int exitCode = -1;   ///< -1: killed by a signal
    double wallS = 0;    ///< spawn to reap
    double peakRssMb = 0; ///< the child's own ru_maxrss, in MiB
};

/**
 * Start `argv[0]` with `argv`, stdout/stderr redirected to `logPath`
 * (appended). Returns the pid; exits the benchmark on fork failure.
 */
pid_t spawnChild(const std::vector<std::string> &argv,
                 const std::string &logPath);

/** Reap `pid`, reporting its exit code and peak RSS. */
ChildResult reapChild(pid_t pid, double spawnedAtS);

/** Run a child to completion. */
ChildResult runChild(const std::vector<std::string> &argv,
                     const std::string &logPath);

/** Whole file as bytes; empty on error. */
std::vector<uint8_t> readFile(const std::string &path);

/** FNV-1a 64 digest as 16 hex digits. */
std::string hexDigest(const std::vector<uint8_t> &bytes);

/** Read every page of a file once, so timed runs start warm. */
void warmPageCache(const std::string &path);

/** Filesystem type name of the directory holding `path`. */
std::string filesystemType(const std::string &path);

/** One `context ...` line: nproc, ISA tier, build, governor, seed. */
std::string runContext(const Args &args);

/** Aggregate CPU time counters from /proc/stat (zeros if unreadable). */
struct CpuTimes
{
    uint64_t total = 0;
    uint64_t iowait = 0;
    uint64_t steal = 0;
};
CpuTimes readCpuTimes();

/**
 * `host cpu_steal_frac=… iowait_frac=…` over [since, now]: how much of
 * the machine other guests and the disk took while this run measured.
 */
std::string hostLoadSince(const CpuTimes &since);

/** Worker threads the workloads use: min(4, nproc). */
unsigned benchThreads();

} // namespace e2e

#endif // MHP_E2E_COMMON_H
