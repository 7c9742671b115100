/**
 * @file
 * mhprof_e2e — the end-to-end benchmark program. run.py builds it and
 * calls it as
 *
 *   mhprof_e2e --workload=<trace_to_mhp|daemon_durable|sweep_suite>
 *              --seed=<n> --seconds=<s> --trace=<0|1>
 *              --tools=<dir with mhprof_run, mhprofd> --work=<dir>
 *              [--scale=full|tiny] [--span-dump=<file>]
 *              [--inject-mismatch]
 *   mhprof_e2e --sweep-once --seed=<n> --intervals=<n> --checkpoint=<f>
 *
 * It prints `context`, `input`, `metric`, `check` and `sim` lines and
 * ends with `result correct=<0|1> attempted=<n> failed=<n>`; run.py
 * turns those into the contract's JSON line. Exit code 0 only when
 * every output check passed.
 */

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "workloads.h"

namespace e2e {

namespace {

/** Sizes: `full` is what the benchmark measures, `tiny` self-checks. */
Scale
scaleFor(const std::string &name)
{
    if (name == "tiny")
        return {200'000, 81'920, 1, 1};
    if (name == "full")
        return {4'000'000, 1'048'576, 4, 3};
    std::fprintf(stderr, "mhprof_e2e: --scale must be full or tiny\n");
    std::exit(2);
}

bool
parseFlag(const char *arg, const char *flag, std::string &value)
{
    const size_t n = std::strlen(flag);
    if (std::strncmp(arg, flag, n) != 0 || arg[n] != '=')
        return false;
    value = arg + n + 1;
    return true;
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    std::string scale = "full", v;
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (parseFlag(a, "--workload", v))
            args.workload = v;
        else if (parseFlag(a, "--seed", v))
            args.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (parseFlag(a, "--seconds", v))
            args.seconds = std::strtod(v.c_str(), nullptr);
        else if (parseFlag(a, "--trace", v))
            args.trace = v == "1";
        else if (parseFlag(a, "--tools", v))
            args.toolsDir = v;
        else if (parseFlag(a, "--work", v))
            args.workDir = v;
        else if (parseFlag(a, "--span-dump", v))
            args.spanDump = v;
        else if (parseFlag(a, "--scale", v))
            scale = v;
        else if (std::strcmp(a, "--inject-mismatch") == 0)
            args.injectMismatch = true;
        else {
            std::fprintf(stderr, "mhprof_e2e: unknown argument %s\n", a);
            std::exit(2);
        }
    }
    if (args.toolsDir.empty() || args.workDir.empty() ||
        !(args.seconds > 0)) {
        std::fprintf(stderr, "mhprof_e2e: need --tools, --work and "
                             "--seconds > 0\n");
        std::exit(2);
    }
    args.scale = scaleFor(scale);
    // Child processes and the socket are named relative to the work
    // dir (Unix socket paths are short), so resolve the rest first.
    args.toolsDir = std::filesystem::absolute(args.toolsDir).string();
    args.workDir = std::filesystem::absolute(args.workDir).string();
    if (args.spanDump.empty())
        args.spanDump = "/dev/null";
    else
        args.spanDump = std::filesystem::absolute(args.spanDump).string();
    return args;
}

} // namespace

} // namespace e2e

int
main(int argc, char **argv)
{
    using namespace e2e;
    if (argc == 5 && std::strcmp(argv[1], "--sweep-once") == 0) {
        std::string seed, intervals, checkpoint;
        if (parseFlag(argv[2], "--seed", seed) &&
            parseFlag(argv[3], "--intervals", intervals) &&
            parseFlag(argv[4], "--checkpoint", checkpoint))
            return runSweepOnce(std::strtoull(seed.c_str(), nullptr, 10),
                                std::strtoull(intervals.c_str(), nullptr, 10),
                                checkpoint);
    }
    const Args args = parseArgs(argc, argv);

    // Numbers from a non-Release build are not a baseline.
    if (std::strcmp(MHPROF_E2E_BUILD_TYPE, "Release") != 0) {
        std::fprintf(stderr,
                     "mhprof_e2e: build type %s is not Release; refusing "
                     "to measure\n",
                     MHPROF_E2E_BUILD_TYPE);
        return 2;
    }

    std::filesystem::create_directories(args.workDir);
    if (::chdir(args.workDir.c_str()) != 0) {
        std::perror("mhprof_e2e: chdir");
        return 2;
    }

    Report report;
    report.info(runContext(args));
    const CpuTimes start = readCpuTimes();
    if (args.workload == "trace_to_mhp")
        runTraceToMhp(args, report);
    else if (args.workload == "daemon_durable")
        runDaemonDurable(args, report);
    else if (args.workload == "sweep_suite")
        runSweepSuite(args, report);
    else {
        std::fprintf(stderr, "mhprof_e2e: unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }
    report.info(hostLoadSince(start));
    report.printResult();
    return report.correct() ? 0 : 1;
}
