#include "common.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "support/bytes.h"
#include "support/cpu.h"

namespace e2e {

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
    const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit, const std::string &note)
{
    std::printf("metric %s %.17g %s%s%s\n", name.c_str(), value,
                unit.c_str(), note.empty() ? "" : "  # ",
                note.c_str());
}

void
Report::check(const std::string &what, bool ok, const std::string &detail)
{
    ++checksRun;
    if (!ok)
        ++checksFailed;
    std::printf("check %s %s%s%s\n", what.c_str(), ok ? "ok" : "FAILED",
                detail.empty() ? "" : ": ", detail.c_str());
}

void
Report::info(const std::string &line)
{
    std::printf("%s\n", line.c_str());
}

void
Report::printResult() const
{
    std::printf("result correct=%d attempted=%llu failed=%llu\n",
                correct() ? 1 : 0,
                static_cast<unsigned long long>(attemptedOps),
                static_cast<unsigned long long>(failedOps));
    std::fflush(stdout);
}

pid_t
spawnChild(const std::vector<std::string> &argv, const std::string &logPath)
{
    std::vector<char *> cargv;
    for (const std::string &a : argv)
        cargv.push_back(const_cast<char *>(a.c_str()));
    cargv.push_back(nullptr);
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = fork();
    if (pid < 0) {
        std::perror("mhprof_e2e: fork");
        std::exit(2);
    }
    if (pid == 0) {
        const int fd =
            ::open(logPath.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
        if (fd >= 0) {
            ::dup2(fd, STDOUT_FILENO);
            ::dup2(fd, STDERR_FILENO);
            ::close(fd);
        }
        ::execv(cargv[0], cargv.data());
        std::_Exit(127);
    }
    return pid;
}

ChildResult
reapChild(pid_t pid, double spawnedAtS)
{
    ChildResult r;
    int status = 0;
    rusage usage{};
    while (::wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
    }
    r.wallS = nowS() - spawnedAtS;
    r.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    r.peakRssMb = static_cast<double>(usage.ru_maxrss) / 1024.0;
    return r;
}

ChildResult
runChild(const std::vector<std::string> &argv, const std::string &logPath)
{
    const double t0 = nowS();
    return reapChild(spawnChild(argv, logPath), t0);
}

std::vector<uint8_t>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                                std::istreambuf_iterator<char>());
}

std::string
hexDigest(const std::vector<uint8_t> &bytes)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(
                      mhp::fnv1a64(bytes.data(), bytes.size())));
    return buf;
}

void
warmPageCache(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return;
    std::vector<char> buf(1 << 20);
    while (::read(fd, buf.data(), buf.size()) > 0) {
    }
    ::close(fd);
}

std::string
filesystemType(const std::string &path)
{
    struct statfs fs{};
    if (::statfs(path.c_str(), &fs) != 0)
        return "unknown";
    switch (static_cast<unsigned long>(fs.f_type)) {
      case 0xEF53UL:
        return "ext4";
      case 0x01021994UL:
        return "tmpfs";
      case 0x794c7630UL:
        return "overlayfs";
      case 0x9123683EUL:
        return "btrfs";
      case 0x58465342UL:
        return "xfs";
      default: {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "0x%lx",
                      static_cast<unsigned long>(fs.f_type));
        return buf;
      }
    }
}

unsigned
benchThreads()
{
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    return std::min(4u, hw);
}

std::string
runContext(const Args &args)
{
    std::string governor = "unavailable";
    std::ifstream gov(
        "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor");
    if (gov)
        std::getline(gov, governor);
    std::ostringstream out;
    out << "context workload=" << args.workload << " seed=" << args.seed
        << " nproc=" << std::thread::hardware_concurrency()
        << " threads=" << benchThreads()
        << " isa=" << mhp::isaTierName(mhp::activeIsaTier())
        << " build=" << MHPROF_E2E_BUILD_TYPE << " compiler=\""
        << MHPROF_E2E_COMPILER << "\" governor=" << governor
        << " workdir_fs=" << filesystemType(args.workDir)
        << " traced=" << (args.trace ? 1 : 0);
    return out.str();
}

CpuTimes
readCpuTimes()
{
    CpuTimes t;
    std::ifstream in("/proc/stat");
    std::string cpu;
    uint64_t v[8] = {};
    if (in >> cpu && cpu == "cpu") {
        for (uint64_t &x : v)
            in >> x;
        for (uint64_t x : v)
            t.total += x;
        t.iowait = v[4];
        t.steal = v[7];
    }
    return t;
}

std::string
hostLoadSince(const CpuTimes &since)
{
    const CpuTimes now = readCpuTimes();
    const double total =
        static_cast<double>(std::max<uint64_t>(1, now.total - since.total));
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "host cpu_steal_frac=%.4f iowait_frac=%.4f",
                  static_cast<double>(now.steal - since.steal) / total,
                  static_cast<double>(now.iowait - since.iowait) / total);
    return buf;
}

} // namespace e2e
