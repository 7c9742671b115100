/**
 * @file
 * daemon_durable: one benchmark process, four connections to a fresh
 * `mhprofd --state-dir` with default options. Three ingest tenants
 * stream pre-generated gcc, go and vortex value streams in 4096-event
 * Events frames, stop-and-wait (a closed loop); the fourth connection
 * is a closed-loop reader sending top-10 Snapshot queries round-robin
 * over the tenants until ingest ends.
 *
 * The traced run replays the same frames in-process through
 * ServiceCore and ServiceState, one daemon-loop iteration at a time,
 * with a span around each call; the untraced mhprofd wall minus that
 * replay is the socket/poll-loop residual.
 */

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "analysis/interval_runner.h"
#include "analysis/snapshot_text.h"
#include "core/config.h"
#include "core/factory.h"
#include "service/daemon.h"
#include "service/service_wire.h"
#include "service/wal.h"
#include "support/wire.h"
#include "trace/tuple_span.h"
#include "workload/benchmarks.h"
#include "workloads.h"

namespace e2e {

namespace {

using namespace mhp;

constexpr uint64_t kFrameEvents = 4096;
constexpr uint64_t kReaderTop = 10;
constexpr uint64_t kIoTimeoutMs = 10'000;
const char *const kTenantBenchmarks[] = {"gcc", "go", "vortex"};
constexpr size_t kTenants = 3;

/** One ingest tenant's pre-generated stream and its reference. */
struct TenantInput
{
    std::string benchmark;
    std::vector<Tuple> events;
    IntervalSnapshot lastInterval; ///< reference final snapshot
    uint64_t intervals = 0;        ///< reference completed intervals
};

uint64_t
monotonicMs()
{
    return static_cast<uint64_t>(nowS() * 1000.0);
}

WireTenantHello
helloFor(const std::string &name, const ProfilerConfig &cfg)
{
    WireTenantHello hello;
    hello.tenant = name;
    hello.kind = static_cast<uint8_t>(ProfileKind::Value);
    hello.config = cfg;
    return hello; // default quota, as mhprof_client sends
}

WireQuery
snapshotQuery(const std::string &tenant, uint64_t top)
{
    WireQuery q;
    q.what = static_cast<uint8_t>(ServiceQueryWhat::Snapshot);
    q.tenant = tenant;
    q.top = top;
    return q;
}

/** Build each tenant's reference with the library's serial runner. */
void
buildReferences(std::vector<TenantInput> &inputs, const ProfilerConfig &cfg)
{
    for (TenantInput &in : inputs) {
        TupleSpanSource cursor(TupleSpan(in.events.data(), in.events.size()));
        auto profiler = makeProfiler(cfg);
        StreamRunOptions options;
        options.keepSnapshots = true;
        RunOutput run = runIntervalsStream(
            cursor, {profiler.get()}, cfg.intervalLength,
            cfg.thresholdCount(), in.events.size() / cfg.intervalLength,
            options);
        in.intervals = run.intervalsCompleted;
        in.lastInterval = run.snapshots[0].empty()
                              ? IntervalSnapshot{}
                              : run.snapshots[0].back();
    }
}

/** What a final Snapshot of a fully drained tenant must carry. */
bool
finalSnapshotMatches(const TenantInput &in, const WireSnapshot &snap,
                     bool perturb)
{
    IntervalSnapshot want = applySnapshotQuery(in.lastInterval, Query{}, 0);
    if (perturb)
        want.push_back({Tuple{}, 1});
    return snap.intervals == in.intervals && snap.candidates == want;
}

/** Send one frame and wait for its reply. */
Status
roundTrip(WireConn &conn, ServiceMsg type, const ByteBuffer &payload,
          WireFrame &reply)
{
    MHP_RETURN_IF_ERROR(
        conn.send(static_cast<uint8_t>(type), payload, kIoTimeoutMs));
    return conn.recv(reply, kIoTimeoutMs);
}

/** Everything one untraced mhprofd run measured. */
struct DaemonRun
{
    double setupS = 0;
    double windowS = 0; ///< first Events sent .. last GoodbyeAck
    double peakRssMb = 0;
    uint64_t accepted = 0;
    uint64_t frames = 0;
    uint64_t failedFrames = 0;
    uint64_t queries = 0;
    uint64_t failedQueries = 0;
    std::vector<double> ackMs;
    std::vector<double> queryMs;
    bool finalSnapshotsOk = false;
    bool accountingOk = false;
    bool exitedCleanly = false;
    std::string error;
};

/** One stop-and-wait ingest tenant on its own connection and thread. */
struct IngestClient
{
    uint64_t frames = 0;
    uint64_t failedFrames = 0;
    uint64_t accepted = 0;
    std::vector<double> ackMs;
    double firstSendS = 0;
    double goodbyeAckS = 0;
    std::string error;

    void
    run(const std::string &socket, const std::string &name,
        const TenantInput &in, const ProfilerConfig &cfg, std::latch &ready)
    {
        auto fail = [&](const std::string &why) {
            if (error.empty())
                error = name + ": " + why;
        };
        StatusOr<WireConn> conn = WireConn::connect(socket, kServiceFrameCap);
        bool ok = conn.isOk();
        WireFrame reply;
        if (ok) {
            ByteBuffer hello;
            encodeHello(hello, helloFor(name, cfg));
            const Status st =
                roundTrip(*conn, ServiceMsg::Hello, hello, reply);
            ok = st.isOk() &&
                 reply.type == static_cast<uint8_t>(ServiceMsg::HelloAck);
            if (!ok)
                fail("Hello refused: " + st.toString());
        } else {
            fail(conn.status().toString());
        }
        ready.arrive_and_wait(); // every tenant admitted before load
        if (!ok)
            return;

        const size_t total = in.events.size();
        ackMs.reserve(total / kFrameEvents + 1);
        uint64_t seq = 0;
        for (size_t at = 0; at < total; at += kFrameEvents) {
            const size_t n = std::min<size_t>(kFrameEvents, total - at);
            ByteBuffer payload;
            encodeEvents(payload, ++seq, TupleSpan(in.events.data() + at, n));
            const double t0 = nowS();
            if (seq == 1)
                firstSendS = t0;
            const Status st =
                roundTrip(*conn, ServiceMsg::Events, payload, reply);
            ackMs.push_back((nowS() - t0) * 1e3);
            ++frames;
            WireEventsAck ack;
            const bool isAck =
                st.isOk() &&
                (reply.type == static_cast<uint8_t>(ServiceMsg::EventsAck) ||
                 reply.type == static_cast<uint8_t>(ServiceMsg::Pushback)) &&
                decodeEventsAck(reply.payload.data(), reply.payload.size(),
                                ack)
                    .isOk();
            if (!isAck) {
                ++failedFrames;
                fail("Events seq " + std::to_string(seq) + " not acked");
                return;
            }
            accepted += ack.accepted;
            if (ack.dropped > 0)
                ++failedFrames; // dropped events fail the frame
            if (ack.retryAfterMs > 0) // Pushback: back off as asked
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(ack.retryAfterMs));
        }
        const Status st =
            roundTrip(*conn, ServiceMsg::Goodbye, ByteBuffer{}, reply);
        goodbyeAckS = nowS();
        if (!st.isOk() ||
            reply.type != static_cast<uint8_t>(ServiceMsg::GoodbyeAck))
            fail("no GoodbyeAck");
    }
};

/** The closed-loop reader on the fourth connection and thread. */
struct Reader
{
    uint64_t queries = 0;
    uint64_t failedQueries = 0;
    std::vector<double> queryMs;
    std::string error;

    void
    run(const std::string &socket, const std::vector<std::string> &names,
        std::latch &ready, const std::atomic<size_t> &ingestDone)
    {
        StatusOr<WireConn> conn = WireConn::connect(socket, kServiceFrameCap);
        ready.arrive_and_wait();
        if (!conn.isOk()) {
            error = "reader: " + conn.status().toString();
            return;
        }
        std::vector<ByteBuffer> payloads(names.size());
        for (size_t i = 0; i < names.size(); ++i)
            encodeQuery(payloads[i], snapshotQuery(names[i], kReaderTop));
        WireFrame reply;
        for (size_t k = 0; ingestDone.load() < names.size(); ++k) {
            const double t0 = nowS();
            const Status st = roundTrip(*conn, ServiceMsg::Query,
                                        payloads[k % names.size()], reply);
            queryMs.push_back((nowS() - t0) * 1e3);
            ++queries;
            WireSnapshot snap;
            if (!st.isOk() ||
                reply.type != static_cast<uint8_t>(ServiceMsg::Snapshot) ||
                !decodeSnapshot(reply.payload.data(), reply.payload.size(),
                                snap, kReaderTop)
                     .isOk()) {
                ++failedQueries;
                error = "reader: query " + std::to_string(k) + " failed";
                return;
            }
        }
    }
};

/**
 * The four closed loops, one thread each (at most nproc): three
 * tenants as independent clients would send, plus the reader.
 */
void
driveLoad(const std::string &socket, const std::vector<std::string> &names,
          const std::vector<TenantInput> &inputs, const ProfilerConfig &cfg,
          DaemonRun &out)
{
    std::latch ready(static_cast<std::ptrdiff_t>(inputs.size() + 1));
    std::atomic<size_t> ingestDone{0};
    std::vector<IngestClient> clients(inputs.size());
    Reader reader;
    std::vector<std::thread> threads;
    for (size_t i = 0; i < inputs.size(); ++i)
        threads.emplace_back([&, i] {
            clients[i].run(socket, names[i], inputs[i], cfg, ready);
            ingestDone.fetch_add(1);
        });
    threads.emplace_back([&] { reader.run(socket, names, ready, ingestDone); });
    for (std::thread &t : threads)
        t.join();

    double first = 1e300, last = 0;
    for (const IngestClient &c : clients) {
        out.frames += c.frames;
        out.failedFrames += c.failedFrames;
        out.accepted += c.accepted;
        out.ackMs.insert(out.ackMs.end(), c.ackMs.begin(), c.ackMs.end());
        first = std::min(first, c.firstSendS);
        last = std::max(last, c.goodbyeAckS);
        if (out.error.empty())
            out.error = c.error;
    }
    out.windowS = last - first;
    out.queries = reader.queries;
    out.failedQueries = reader.failedQueries;
    out.queryMs = std::move(reader.queryMs);
    if (out.error.empty())
        out.error = reader.error;
}

/** Query final snapshots and the stats table after ingest. */
void
checkFinalState(const std::string &socket,
                const std::vector<std::string> &names,
                const std::vector<TenantInput> &inputs, bool perturb,
                DaemonRun &out)
{
    StatusOr<WireConn> conn = WireConn::connect(socket, kServiceFrameCap);
    if (!conn.isOk())
        return;
    WireFrame reply;
    out.finalSnapshotsOk = true;
    for (size_t i = 0; i < names.size(); ++i) {
        ByteBuffer q;
        encodeQuery(q, snapshotQuery(names[i], 0));
        WireSnapshot snap;
        const bool got =
            roundTrip(*conn, ServiceMsg::Query, q, reply).isOk() &&
            reply.type == static_cast<uint8_t>(ServiceMsg::Snapshot) &&
            decodeSnapshot(reply.payload.data(), reply.payload.size(), snap,
                           kServiceFrameCap / 24 + 1)
                .isOk();
        out.finalSnapshotsOk = out.finalSnapshotsOk && got &&
                               finalSnapshotMatches(inputs[i], snap, perturb);
    }
    WireQuery statsReq;
    statsReq.what = static_cast<uint8_t>(ServiceQueryWhat::Stats);
    ByteBuffer q;
    encodeQuery(q, statsReq);
    std::vector<TenantStatsRow> rows;
    if (!roundTrip(*conn, ServiceMsg::Query, q, reply).isOk() ||
        !decodeStats(reply.payload.data(), reply.payload.size(), rows)
             .isOk())
        return;
    size_t seen = 0;
    bool ok = true;
    for (const TenantStatsRow &row : rows) {
        const auto it = std::find(names.begin(), names.end(), row.name);
        if (it == names.end())
            continue;
        ++seen;
        const TenantInput &in = inputs[static_cast<size_t>(it - names.begin())];
        ok = ok && row.arrived == row.accepted + row.dropped() &&
             row.dropped() == 0 && row.ingested == in.events.size();
    }
    out.accountingOk = ok && seen == names.size();
}

/** Spawn until the first Stats reply: includes cold-start recover(). */
double
waitUntilServing(const std::string &socket, double spawnedAtS)
{
    WireQuery statsReq;
    statsReq.what = static_cast<uint8_t>(ServiceQueryWhat::Stats);
    ByteBuffer payload;
    encodeQuery(payload, statsReq);
    while (nowS() - spawnedAtS < 30) {
        StatusOr<WireConn> conn = WireConn::connect(socket, kServiceFrameCap);
        WireFrame reply;
        if (conn.isOk() &&
            roundTrip(*conn, ServiceMsg::Query, payload, reply).isOk() &&
            reply.type == static_cast<uint8_t>(ServiceMsg::Stats))
            return nowS() - spawnedAtS;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return -1;
}

DaemonRun
runDaemonOnce(const Args &args, const std::vector<TenantInput> &inputs,
              const ProfilerConfig &cfg, unsigned rep)
{
    DaemonRun out;
    const std::string socket = "d" + std::to_string(rep) + ".sock";
    const std::string stateDir = "state-" + std::to_string(rep);
    std::filesystem::remove_all(stateDir);
    std::filesystem::remove(socket);
    std::vector<std::string> names;
    for (const TenantInput &in : inputs)
        names.push_back(in.benchmark + "-s" + std::to_string(args.seed) +
                        "-r" + std::to_string(rep));

    const double spawned = nowS();
    const pid_t pid = spawnChild({args.toolsDir + "/mhprofd",
                                  "--socket=" + socket,
                                  "--state-dir=" + stateDir},
                                 "mhprofd.log");
    out.setupS = waitUntilServing(socket, spawned);

    if (out.setupS > 0) {
        driveLoad(socket, names, inputs, cfg, out);
        checkFinalState(socket, names, inputs, args.injectMismatch, out);
    } else {
        out.error = "mhprofd never served";
    }

    ::kill(pid, SIGTERM);
    const ChildResult child = reapChild(pid, spawned);
    out.peakRssMb = child.peakRssMb;
    out.exitedCleanly = child.exitCode == 0;
    std::filesystem::remove_all(stateDir);
    std::filesystem::remove(socket);
    return out;
}

/** A replay step the real daemon would never fail: stop the run. */
void
require(const Status &st, const char *what)
{
    if (!st.isOk()) {
        std::fprintf(stderr, "mhprof_e2e: replay %s: %s\n", what,
                     st.toString().c_str());
        std::exit(2);
    }
}

template <typename T>
T &
require(StatusOr<T> &v, const char *what)
{
    require(v.status(), what);
    return *v;
}

/** Counts of one in-process replay, beside its tracers' spans. */
struct ReplayOut
{
    uint64_t batches = 0;
    uint64_t commits = 0;
    uint64_t checkpoints = 0;
    uint64_t walBytes = 0;
    uint64_t pushbacks = 0;
    uint64_t dropped = 0;
    std::vector<double> queueDepth;
    bool finalSnapshotsOk = false;
    bool accountingOk = false;
};

uint64_t
walSegmentBytes(const std::string &dir, uint64_t epoch)
{
    std::error_code ec;
    const auto size = std::filesystem::file_size(
        dir + "/wal-" + std::to_string(epoch) + ".log", ec);
    return ec ? 0 : static_cast<uint64_t>(size);
}

/**
 * The daemon's loop with every client ready each iteration: one
 * Events frame per streaming tenant, a Goodbye (finishTenant) for a
 * tenant that is done, one reader query while ingest lasts, then
 * tick, group commit, and a checkpoint when the WAL asks for one —
 * the order runDaemon() handles them in. Client-side encoding happens
 * before the window, on `client`.
 */
ReplayOut
replayDaemon(Tracer &daemon, Tracer &client,
             const std::vector<TenantInput> &inputs,
             const ProfilerConfig &cfg, const std::string &stateDir,
             bool perturb)
{
    ReplayOut r;
    std::filesystem::remove_all(stateDir);
    std::filesystem::create_directories(stateDir);
    ServiceOptions options;
    options.stateDir = stateDir;
    ServiceCore core(options);
    ServiceState state(stateDir, options.checkpointWalBytes);
    core.attachState(&state);
    RecoveryReport recovered;
    require(state.recover(core, recovered), "recover");
    std::vector<uint64_t> ids;
    for (const TenantInput &in : inputs) {
        StatusOr<WireHelloAck> ack =
            core.connectTenant(helloFor(in.benchmark, cfg));
        ids.push_back(require(ack, "connectTenant").tenantId);
    }
    require(state.commit(), "commit");

    std::vector<std::vector<ByteBuffer>> frames(inputs.size());
    std::vector<ByteBuffer> queries(inputs.size());
    for (size_t t = 0; t < inputs.size(); ++t) {
        const std::vector<Tuple> &ev = inputs[t].events;
        uint64_t seq = 0;
        for (size_t at = 0; at < ev.size(); at += kFrameEvents) {
            ByteBuffer payload;
            Tracer::Span s(client, Op::ServiceEncode, seq + 1);
            encodeEvents(payload, ++seq,
                         TupleSpan(ev.data() + at,
                                   std::min<size_t>(kFrameEvents,
                                                    ev.size() - at)));
            frames[t].push_back(std::move(payload));
        }
        Tracer::Span s(client, Op::ServiceEncode);
        encodeQuery(queries[t], snapshotQuery(inputs[t].benchmark, kReaderTop));
    }

    const uint64_t maxBatch = options.maxFrameBytes / sizeof(Tuple) + 1;
    std::vector<size_t> next(inputs.size(), 0);
    std::vector<bool> done(inputs.size(), false);
    size_t finished = 0;
    uint64_t k = 0;
    daemon.start();
    while (finished < inputs.size()) {
        for (size_t t = 0; t < inputs.size(); ++t) {
            if (next[t] < frames[t].size()) {
                const ByteBuffer &frame = frames[t][next[t]++];
                WireEvents batch;
                {
                    Tracer::Span s(daemon, Op::ServiceDecode, next[t]);
                    require(decodeEvents(frame.data(), frame.size(), batch,
                                         maxBatch),
                            "decodeEvents");
                }
                Tracer::Span s(daemon, Op::ServiceIngest, next[t]);
                StatusOr<WireEventsAck> ack = core.ingest(
                    ids[t], batch.seq,
                    TupleSpan(batch.events.data(), batch.events.size()),
                    monotonicMs());
                const WireEventsAck &accounted = require(ack, "ingest");
                ByteBuffer reply;
                encodeEventsAck(reply, accounted);
                ++r.batches;
                r.dropped += accounted.dropped;
                r.pushbacks += accounted.retryAfterMs != 0 ? 1 : 0;
                r.queueDepth.push_back(
                    static_cast<double>(accounted.queuedEvents));
            } else if (!done[t]) {
                Tracer::Span s(daemon, Op::ServiceTick);
                core.finishTenant(ids[t]);
                ByteBuffer reply;
                encodeGoodbyeAck(reply,
                                 core.statsRow(*core.registry().byId(ids[t])));
                done[t] = true;
                ++finished;
            }
        }
        if (finished < inputs.size()) {
            const ByteBuffer &payload = queries[k % inputs.size()];
            WireQuery request;
            {
                Tracer::Span s(daemon, Op::ServiceDecode, k);
                require(decodeQuery(payload.data(), payload.size(), request),
                        "decodeQuery");
            }
            Tracer::Span s(daemon, Op::ServiceQuery, k);
            StatusOr<WireSnapshot> snap =
                core.query(ids[k % inputs.size()], request);
            ByteBuffer reply;
            encodeSnapshot(reply, require(snap, "query"));
            ++k;
        }
        {
            Tracer::Span s(daemon, Op::ServiceTick);
            core.tick();
        }
        const bool dirty = state.dirty();
        {
            Tracer::Span s(daemon, Op::ServiceCommit);
            require(state.commit(), "commit");
        }
        r.commits += dirty ? 1 : 0;
        if (state.wantCheckpoint()) {
            r.walBytes += walSegmentBytes(stateDir, state.epoch());
            Tracer::Span s(daemon, Op::ServiceCheckpoint);
            require(state.checkpoint(core), "checkpoint");
            ++r.checkpoints;
        }
    }
    daemon.stop();
    r.walBytes += walSegmentBytes(stateDir, state.epoch());

    r.finalSnapshotsOk = true;
    r.accountingOk = true;
    for (size_t t = 0; t < inputs.size(); ++t) {
        StatusOr<WireSnapshot> snap =
            core.query(ids[t], snapshotQuery(inputs[t].benchmark, 0));
        r.finalSnapshotsOk = r.finalSnapshotsOk && snap.isOk() &&
                             finalSnapshotMatches(inputs[t], *snap, perturb);
        const TenantStatsRow row =
            core.statsRow(*core.registry().byId(ids[t]));
        r.accountingOk = r.accountingOk &&
                         row.arrived == row.accepted + row.dropped() &&
                         row.ingested == inputs[t].events.size();
    }
    std::filesystem::remove_all(stateDir);
    return r;
}

/**
 * The tenants' profiler work alone, as tick() does it (256-event
 * drain quanta clipped to interval ends): ServiceCore keeps its
 * profilers private, so their ingest and drain are timed here on the
 * same streams and config, outside the daemon window.
 */
bool
probeCore(Tracer &tracer, const std::vector<TenantInput> &inputs,
          const ProfilerConfig &cfg)
{
    const uint64_t quantum = ServiceOptions{}.drainQuantum;
    bool ok = true;
    tracer.start();
    for (const TenantInput &in : inputs) {
        auto profiler = makeProfiler(cfg);
        IntervalSnapshot last;
        uint64_t inInterval = 0;
        for (size_t at = 0; at < in.events.size();) {
            const size_t n = static_cast<size_t>(std::min<uint64_t>(
                {quantum, in.events.size() - at,
                 cfg.intervalLength - inInterval}));
            {
                Tracer::Span s(tracer, Op::CoreIngest);
                profiler->onEvents(in.events.data() + at, n);
            }
            at += n;
            inInterval += n;
            if (inInterval == cfg.intervalLength) {
                Tracer::Span s(tracer, Op::CoreDrain);
                last = profiler->endInterval();
                inInterval = 0;
            }
        }
        ok = ok && last == in.lastInterval;
    }
    tracer.stop();
    return ok;
}

} // namespace

void
runDaemonDurable(const Args &args, Report &report)
{
    const ProfilerConfig cfg; // mhprof_client's default tenant config
    const uint64_t perTenant =
        args.scale.tenantEvents / kFrameEvents * kFrameEvents;
    std::vector<TenantInput> inputs;
    for (const char *bench : kTenantBenchmarks) {
        TenantInput in;
        in.benchmark = bench;
        auto source = makeValueWorkload(bench, args.seed);
        in.events.reserve(perTenant);
        for (uint64_t i = 0; i < perTenant; ++i)
            in.events.push_back(source->next());
        inputs.push_back(std::move(in));
    }
    report.info("input tenants=gcc,go,vortex events_per_tenant=" +
                std::to_string(perTenant) + " frame_events=" +
                std::to_string(kFrameEvents) + " config=" + cfg.describe() +
                " state_dir_fs=" + filesystemType("."));
    // References come first here: they are in-process and the timed
    // program is the separate mhprofd process.
    buildReferences(inputs, cfg);
    std::vector<uint8_t> simBytes;
    size_t finalCandidates = 0;
    for (const TenantInput &in : inputs) {
        for (const CandidateCount &c : in.lastInterval)
            for (uint64_t v : {c.tuple.first, c.tuple.second, c.count})
                for (int b = 0; b < 8; ++b)
                    simBytes.push_back(static_cast<uint8_t>(v >> (8 * b)));
        finalCandidates += in.lastInterval.size();
    }
    report.info("sim final_candidates=" + std::to_string(finalCandidates) +
                " final_snapshot_digest=" + hexDigest(simBytes));

    const double t0 = nowS();
    std::vector<DaemonRun> runs;
    std::vector<Sample> samples;
    std::vector<double> traced, untraced;
    bool replayOk = true;
    for (unsigned rep = 0;
         rep < args.scale.minReps || nowS() - t0 < args.seconds; ++rep) {
        runs.push_back(runDaemonOnce(args, inputs, cfg, rep));
        if (!args.trace)
            continue;

        Tracer offDaemon(false), offClient(false);
        replayDaemon(offDaemon, offClient, inputs, cfg, "replay-state",
                     args.injectMismatch);
        untraced.push_back(offDaemon.wallS());

        Tracer on(true), client(true);
        const ReplayOut r = replayDaemon(on, client, inputs, cfg,
                                         "replay-state", args.injectMismatch);
        traced.push_back(on.wallS());
        replayOk = replayOk && r.finalSnapshotsOk && r.accountingOk;
        on.dump(args.spanDump);

        Sample s;
        addBusy(s, on);
        s["service.encode_s"] = client.busyS(Op::ServiceEncode);
        const double e2eWall = runs.back().windowS;
        const double loopResidual = e2eWall - on.wallS();
        addShares(s, on, e2eWall, on.residualS());
        s["share.loop_residual"] = loopResidual / e2eWall;
        s["closure.residual_frac"] = on.residualS() / on.wallS();
        s["service.loop_residual_s"] = loopResidual;
        s["service.commits"] = static_cast<double>(r.commits);
        s["service.batches_per_commit"] =
            static_cast<double>(r.batches) /
            static_cast<double>(std::max<uint64_t>(1, r.commits));
        s["service.wal_bytes"] = static_cast<double>(r.walBytes);
        s["service.checkpoints"] = static_cast<double>(r.checkpoints);
        s["service.pushbacks"] = static_cast<double>(r.pushbacks);
        s["service.dropped_events"] = static_cast<double>(r.dropped);
        s["service.queue_depth_p99"] = percentile(r.queueDepth, 99);
        samples.push_back(std::move(s));
    }

    // Per-frame and per-query outcomes across every run.
    std::vector<double> setup, rates, rss, ackMs, queryMs;
    uint64_t frames = 0, failedFrames = 0, queries = 0, failedQueries = 0;
    bool snapshotsOk = true, accountingOk = true, cleanExit = true;
    std::string firstError;
    for (const DaemonRun &r : runs) {
        setup.push_back(r.setupS);
        rates.push_back(static_cast<double>(r.accepted) / r.windowS);
        rss.push_back(r.peakRssMb);
        ackMs.insert(ackMs.end(), r.ackMs.begin(), r.ackMs.end());
        queryMs.insert(queryMs.end(), r.queryMs.begin(), r.queryMs.end());
        frames += r.frames;
        failedFrames += r.failedFrames;
        queries += r.queries;
        failedQueries += r.failedQueries;
        snapshotsOk = snapshotsOk && r.finalSnapshotsOk;
        accountingOk = accountingOk && r.accountingOk;
        cleanExit = cleanExit && r.exitedCleanly;
        if (firstError.empty())
            firstError = r.error;
    }
    std::string perRun = "runs events_per_s";
    for (double r : rates)
        perRun += " " + std::to_string(static_cast<uint64_t>(r));
    report.info(perRun);
    report.attempted(frames + queries);
    report.failed(failedFrames + failedQueries);
    report.check("mhprofd_protocol", firstError.empty(), firstError);
    report.check("final_snapshots_equal_runIntervalsStream", snapshotsOk,
                 std::to_string(runs.size()) + " runs x " +
                     std::to_string(kTenants) + " tenants");
    report.check("arrived_eq_accepted_plus_dropped", accountingOk,
                 "and no event dropped");
    report.check("mhprofd_clean_exit", cleanExit, "SIGTERM drain, exit 0");

    if (!args.trace) {
        const std::string n = "n=" + std::to_string(runs.size()) + " daemons";
        report.metric("setup_s", median(setup), "s",
                      "spawn to first Stats reply, median of " + n);
        report.metric("events_per_s", median(rates), "events/s",
                      "accepted events / first Events..last GoodbyeAck, "
                      "median of " + n);
        report.metric("ack_p50_ms", percentile(ackMs, 50), "ms",
                      "n=" + std::to_string(ackMs.size()) + " frames");
        report.metric("ack_p99_ms", percentile(ackMs, 99), "ms",
                      "n=" + std::to_string(ackMs.size()) + " frames");
        report.metric("query_p50_ms", percentile(queryMs, 50), "ms",
                      "n=" + std::to_string(queryMs.size()) + " queries");
        report.metric("query_p99_ms", percentile(queryMs, 99), "ms",
                      "n=" + std::to_string(queryMs.size()) + " queries");
        report.metric("peak_rss_mb", median(rss), "MiB",
                      "mhprofd ru_maxrss, median of " + n);
        report.metric("failed_frac",
                      static_cast<double>(failedFrames + failedQueries) /
                          static_cast<double>(
                              std::max<uint64_t>(1, frames + queries)),
                      "ratio",
                      std::to_string(frames) + " frames + " +
                          std::to_string(queries) + " queries");
        return;
    }

    Tracer core(true);
    const bool probeOk = probeCore(core, inputs, cfg);
    report.check("replay_matches_reference", replayOk,
                 "in-process ServiceCore replay: final snapshots and "
                 "accounting");
    report.check("core_probe_matches_reference", probeOk);
    uint64_t events = 0;
    for (const TenantInput &in : inputs)
        events += in.events.size();
    for (Sample &s : samples) {
        s["core.ingest_s"] = core.busyS(Op::CoreIngest);
        s["core.drain_s"] = core.busyS(Op::CoreDrain);
        s["core.ingest_ns_per_event"] =
            core.busyS(Op::CoreIngest) * 1e9 / static_cast<double>(events);
        s["core.events"] = static_cast<double>(events);
        s["core.intervals"] = static_cast<double>(core.count(Op::CoreDrain));
    }
    reportSamples(report, samples, traced, untraced);
}

} // namespace e2e
