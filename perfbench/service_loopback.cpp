/**
 * @file
 * Workload service-loopback: a bfly_serve process (2 shards, 2 workers)
 * on a Unix socket, apart from this load generator, so that its memory
 * is measured on its own. Two MonitorClient connections in one process
 * run a closed loop in lock-step rounds: each round both clients stream
 * one heartbeat-marked trace of ~1M events, and the reference kernel
 * runs between rounds while the server is idle.
 *
 * The session mix is six ADDRCHECK sessions over the paper programs
 * (ingest-heavy, few records) and two TAINTCHECK sessions over
 * makeTaintMix (report-heavy, tens of thousands of records) per cycle.
 * The per-session cap is raised so these traces fit: the mux holds a
 * session's whole decoded trace at 40 B/event before it analyses it.
 */

#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#include <memory>
#include <sstream>
#include <thread>

#include "butterfly/window.hpp"
#include "calibration.hpp"
#include "lifeguards/addrcheck.hpp"
#include "lifeguards/addrcheck_oracle.hpp"
#include "lifeguards/taintcheck.hpp"
#include "lifeguards/taintcheck_oracle.hpp"
#include "memmodel/interleaver.hpp"
#include "service/analyzer.hpp"
#include "service/client.hpp"
#include "spans.hpp"
#include "trace/log_codec.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace bfly;
using namespace bfly::service;

namespace {

constexpr unsigned kThreads = 4;
constexpr std::size_t kEpoch = 2048;
constexpr std::size_t kServerWorkers = 2;
constexpr std::size_t kMinSessions = 100;

/** Cycle order: taint sessions spread so no round pairs two of them. */
constexpr int kMix[] = {0, -1, 1, 2, 3, -2, 4, 5}; // >=0 paper, <0 taint
constexpr std::size_t kMixSize = sizeof(kMix) / sizeof(kMix[0]);

struct Input
{
    std::string name;
    SessionSpec spec;
    Trace marked;
    RemoteReport reference;
    std::uint64_t events = 0;
    std::uint64_t oracleErrors = 0;
    std::uint64_t falsePositives = 0;
    std::uint64_t blocksPass1 = 0; ///< traced runs only
    std::uint64_t blocksPass2 = 0;
};

std::size_t
instrPerThread(const Options &opt)
{
    return opt.quick ? 25000 : 250000;
}

Input
buildInput(const Options &opt, std::size_t slot, Tracer &tracer,
           Outcome &out)
{
    Input in;
    const int which = kMix[slot];
    const bool taint = which < 0;
    WorkloadConfig wc;
    wc.numThreads = kThreads;
    wc.instrPerThread = instrPerThread(opt);
    wc.phaseEvents = 9000;
    wc.warmupNops = 3 * kEpoch;
    wc.seed = programSeed(slot);

    Workload w;
    {
        Tracer::Scope span(tracer, "workloads.generate");
        if (taint) {
            w = makeTaintMix(wc);
        } else {
            w = paperWorkloads()[static_cast<std::size_t>(which)].second(wc);
            plantBugs(w, wc.seed);
        }
    }
    in.name = taint ? "taint-mix" + std::to_string(-which)
                    : paperWorkloads()[static_cast<std::size_t>(which)].first;
    Trace trace;
    {
        Tracer::Scope span(tracer, "memmodel.interleave");
        Rng rng(mixSeed(opt.seed, 500 + slot));
        trace = interleave(w.programs, InterleaveConfig{}, rng);
    }
    out.check(sameEventsAsGenerated(w.programs, trace),
              in.name + ": interleaved trace differs from generated events");
    {
        Tracer::Scope span(tracer, "trace.slice");
        const EpochLayout layout =
            EpochLayout::byGlobalSeq(trace, kEpoch * kThreads);
        in.marked = withHeartbeatMarkers(trace, layout);
    }
    in.events = trace.instructionCount();

    in.spec.lifeguard = static_cast<std::uint8_t>(
        taint ? Lifeguard::TaintCheck : Lifeguard::AddrCheck);
    in.spec.numThreads = kThreads;
    in.spec.granularity = taint ? 4 : 8;
    in.spec.heapBase = w.heapBase;
    in.spec.heapLimit = w.heapLimit;
    in.spec.globalH = kEpoch * kThreads;
    in.spec.windowEpochs = 4;

    const EpochLayout source = EpochLayout::fromHeartbeats(in.marked);
    {
        Tracer::Scope span(tracer, "service.analyze_reference");
        in.reference = analyzeReference(in.spec, in.marked, source);
    }

    std::vector<ErrorRecord> errors;
    {
        Tracer::Scope span(tracer, "lifeguards.oracle");
        if (taint) {
            TaintCheckConfig tc;
            tc.granularity = in.spec.granularity;
            TaintCheckOracle oracle(tc);
            oracle.runOnTrace(trace);
            errors = oracle.errors().records();
        } else {
            AddrCheckConfig ac;
            ac.granularity = in.spec.granularity;
            ac.heapBase = in.spec.heapBase;
            ac.heapLimit = in.spec.heapLimit;
            AddrCheckOracle oracle(ac);
            oracle.runOnTrace(trace);
            errors = oracle.errors().records();
            out.check(errors.size() >= kPlantedBugs,
                      in.name + ": oracle found fewer errors than were "
                                "planted");
        }
    }
    in.oracleErrors = errors.size();
    in.falsePositives = falsePositives(in.reference.records, errors);
    std::vector<ErrorRecord> flagged = in.reference.records;
    if (opt.inject == "drop-flag")
        flagged = withoutCatchOf(flagged, errors, in.spec.granularity);
    out.check(missedErrors(flagged, errors, in.spec.granularity) == 0,
              in.name + ": " + (taint ? "TAINTCHECK" : "ADDRCHECK") +
                  " missed an oracle error");
    if (opt.inject == "alter-reference" && slot == 0 &&
        !in.reference.records.empty())
        in.reference.records.front().addr ^= 8;

    if (tracer.enabled()) {
        // In-process breakdown of what a session costs the server.
        for (const ThreadTrace &tt : in.marked.threads) {
            std::vector<std::uint8_t> bytes;
            {
                Tracer::Scope span(tracer, "trace.encode");
                bytes = encodeEvents(tt.events);
            }
            Tracer::Scope span(tracer, "trace.decode");
            decodeEvents(bytes);
        }
        {
            WorkerPool pool(kServerWorkers);
            Tracer::Scope span(tracer, "service.analyze_streaming");
            analyzeStreaming(in.spec, in.marked, pool);
        }
        if (taint) {
            TaintCheckConfig tc;
            tc.granularity = in.spec.granularity;
            ButterflyTaintCheck driver(source, tc);
            timedSchedule(source, driver, tracer,
                          "lifeguards.taintcheck.pass1",
                          "lifeguards.taintcheck.pass2",
                          "lifeguards.taintcheck.finalize", &in.blocksPass1,
                          &in.blocksPass2);
        } else {
            AddrCheckConfig ac;
            ac.granularity = in.spec.granularity;
            ac.heapBase = in.spec.heapBase;
            ac.heapLimit = in.spec.heapLimit;
            ButterflyAddrCheck driver(source, ac);
            timedSchedule(source, driver, tracer,
                          "lifeguards.addrcheck.pass1",
                          "lifeguards.addrcheck.pass2",
                          "lifeguards.addrcheck.finalize", &in.blocksPass1,
                          &in.blocksPass2);
        }
    }
    return in;
}

/** The bfly_serve child process and its stdout pipe. */
class Server
{
  public:
    Server(const std::string &binary, const std::string &socket)
        : socket_(socket)
    {
        int fds[2];
        if (::pipe(fds) != 0)
            return;
        const std::vector<std::string> args = {
            binary,       "--unix",      socket,       "--workers",
            std::to_string(kServerWorkers), "--shards", "2",
            "--session-mb", "96",         "--budget-mb", "512",
            "--quiet"};
        std::vector<char *> argv;
        for (const std::string &a : args)
            argv.push_back(const_cast<char *>(a.c_str()));
        argv.push_back(nullptr);
        std::vector<char *> envp;
        for (char **e = environ; *e; ++e)
            envp.push_back(*e);
        envp.push_back(const_cast<char *>(kMallocEnv));
        envp.push_back(nullptr);
        pid_ = ::fork();
        if (pid_ == 0) {
            // The server must not outlive the benchmark.
            ::prctl(PR_SET_PDEATHSIG, SIGTERM);
            ::dup2(fds[1], STDOUT_FILENO);
            ::close(fds[0]);
            ::close(fds[1]);
            ::execve(argv[0], argv.data(), envp.data());
            ::_exit(127);
        }
        ::close(fds[1]);
        out_ = fds[0];
    }

    ~Server()
    {
        stop();
        if (out_ >= 0)
            ::close(out_);
    }

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Wait until the server accepts connections. */
    bool
    waitReady()
    {
        const Clock::time_point t0 = Clock::now();
        while (pid_ > 0 && secondsSince(t0) < 30) {
            MonitorClient probe;
            if (probe.connectUnix(socket_))
                return true;
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1; // died before listening
                return false;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        return false;
    }

    /** SIGTERM, collect the exit stats, reap. @return peak RSS in MiB. */
    double
    stop()
    {
        if (pid_ <= 0)
            return 0;
        const double peak = peakRssMib(pid_);
        ::kill(pid_, SIGTERM);
        char buf[4096];
        ssize_t n;
        while ((n = ::read(out_, buf, sizeof(buf))) > 0 ||
               (n < 0 && errno == EINTR))
            if (n > 0)
                stats_.append(buf, static_cast<std::size_t>(n));
        int status = 0;
        while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
        }
        pid_ = -1;
        ::unlink(socket_.c_str());
        exitedCleanly_ = WIFEXITED(status) && WEXITSTATUS(status) == 0;
        return peak;
    }

    bool exitedCleanly() const { return exitedCleanly_; }

    /** Peak resident set so far, in MiB (0 once stopped). */
    double peakSoFar() const { return pid_ > 0 ? peakRssMib(pid_) : 0; }

    /** Value of @p key= in the exit stats line containing @p where. */
    std::uint64_t
    stat(const std::string &where, const std::string &key) const
    {
        std::istringstream lines(stats_);
        std::string line;
        while (std::getline(lines, line)) {
            if (line.find(where) == std::string::npos)
                continue;
            const std::size_t at = line.find(" " + key + "=");
            if (at != std::string::npos)
                return std::strtoull(line.c_str() + at + key.size() + 2,
                                     nullptr, 10);
        }
        return 0;
    }

  private:
    std::string socket_;
    pid_t pid_ = -1;
    int out_ = -1;
    std::string stats_;
    bool exitedCleanly_ = false;
};

struct SessionRecord
{
    double raw = 0;
    RunResult result;
};

} // namespace

Outcome
runServiceLoopback(const Options &opt, Tracer &tracer)
{
    Outcome out;
    std::vector<Input> inputs;
    const std::string socket =
        "perfbench-" + std::to_string(::getpid()) + ".sock";
    std::unique_ptr<Server> server;
    {
        Tracer::Scope span(tracer, "setup");
        for (std::size_t i = 0; i < kMixSize; ++i)
            inputs.push_back(buildInput(opt, i, tracer, out));
        Tracer::Scope start(tracer, "service.server_start");
        // The server binary is built beside this one.
        const std::string self = selfExe();
        server = std::make_unique<Server>(
            self.substr(0, self.rfind('/')) + "/perfbench_serve", socket);
        if (!server->waitReady()) {
            out.check(false, "bfly_serve did not start");
            return out;
        }
    }
    const double setupRaw = secondsSince(opt.start);
    Calibrator cal;
    const Timed setup = cal.scale(setupRaw);

    Series latencies;
    double busyRaw = 0, busy = 0, events = 0;
    std::uint64_t ok = 0, busyRetries = 0, logBytes = 0;
    std::size_t cycles = 0;
    double firstCyclePeak = 0;
    const Clock::time_point loopStart = Clock::now();
    while (cycles == 0 ||
           (!opt.quick && (out.attempted < kMinSessions ||
                           secondsSince(loopStart) < opt.seconds))) {
        Tracer::Scope cycle(tracer, "cycle");
        for (std::size_t r = 0; r + 1 < kMixSize; r += 2) {
            SessionRecord rec[2];
            const Clock::time_point t0 = Clock::now();
            Clock::time_point ends[2];
            {
                std::thread clients[2];
                for (int c = 0; c < 2; ++c) {
                    clients[c] = std::thread([&, c] {
                        const Input &in = inputs[r + c];
                        const Clock::time_point s0 = Clock::now();
                        MonitorClient client;
                        if (client.connectUnix(socket))
                            rec[c].result = client.run(in.spec, in.marked);
                        else
                            rec[c].result.error = "connect failed";
                        ends[c] = Clock::now();
                        rec[c].raw =
                            std::chrono::duration<double>(ends[c] - s0)
                                .count();
                    });
                }
                for (std::thread &t : clients)
                    t.join();
            }
            const double roundRaw = secondsSince(t0);
            for (int c = 0; c < 2; ++c)
                tracer.record(c ? "service.session.b" : "service.session.a",
                              t0, ends[c], c + 1);
            const double factor = cal.nextFactor();
            busyRaw += roundRaw;
            busy += roundRaw * factor;
            for (int c = 0; c < 2; ++c) {
                const Input &in = inputs[r + c];
                const RunResult &res = rec[c].result;
                ++out.attempted;
                busyRetries += res.busyRetries;
                logBytes += res.logBytesSent;
                if (!res.ok) {
                    ++out.failed;
                    continue;
                }
                ++ok;
                latencies.push({rec[c].raw, rec[c].raw * factor});
                events += static_cast<double>(in.events);
                out.check(res.summary.status == SummaryStatus::Complete,
                          in.name + ": session summary is not Complete");
                out.check(res.report.identical(in.reference),
                          in.name + ": remote report differs from "
                                    "analyzeReference");
            }
        }
        if (++cycles == 1)
            firstCyclePeak = server->peakSoFar();
    }

    const double peakRss = server->stop();
    out.check(server->exitedCleanly(), "bfly_serve did not exit cleanly");
    out.check(server->stat("completed=", "completed") == ok,
              "server completed count differs from the client's "
              "successful sessions");

    if (!tracer.enabled()) {
        addEndToEnd(out, cal, setup, events, busyRaw, busy, latencies,
                    peakRss);
        out.addDetail("service.cycles", static_cast<double>(cycles), "count");
        out.addDetail("service.first_cycle_peak_rss_mib", firstCyclePeak,
                      "MiB");
        return out;
    }

    const double f = cal.typicalFactor();
    const auto sum2 = [&](const std::string &layer) {
        return f * (tracer.total("lifeguards.addrcheck." + layer) +
                    tracer.total("lifeguards.taintcheck." + layer));
    };
    LayerFigures lf;
    lf.kernelRaw = cal.medianKernel();
    lf.generate = f * tracer.total("workloads.generate");
    lf.interleave = f * tracer.total("memmodel.interleave");
    lf.slice = f * tracer.total("trace.slice");
    lf.oracle = f * tracer.total("lifeguards.oracle");
    lf.schedule = f * tracer.total("butterfly.schedule");
    lf.pass1 = sum2("pass1");
    lf.pass2 = sum2("pass2");
    lf.finalize = sum2("finalize");
    for (const Input &in : inputs) {
        lf.events += in.events;
        lf.epochs += in.reference.epochs;
        lf.flags += in.reference.records.size();
        lf.oracleErrors += in.oracleErrors;
        lf.falsePositives += in.falsePositives;
        lf.blocksPass1 += in.blocksPass1;
        lf.blocksPass2 += in.blocksPass2;
    }
    lf.busyRetries = busyRetries;
    lf.logBytesSent = logBytes / cycles;
    for (int s = 0; s < 2; ++s) {
        const std::string shard = "shard=" + std::to_string(s) + " ";
        lf.shardAssigned[s] = server->stat(shard, "assigned");
        lf.shardCompleted[s] = server->stat(shard, "completed");
        out.addDetail("service.shard" + std::to_string(s) + "_busy_sent",
                      static_cast<double>(server->stat(shard, "busy_sent")),
                      "count");
    }
    addPerLayer(out, lf);
    for (const char *layer :
         {"trace.encode", "trace.decode", "service.analyze_streaming",
          "service.analyze_reference", "service.server_start",
          "lifeguards.addrcheck.pass1", "lifeguards.addrcheck.pass2",
          "lifeguards.addrcheck.finalize", "lifeguards.taintcheck.pass1",
          "lifeguards.taintcheck.pass2", "lifeguards.taintcheck.finalize"})
        out.addDetail(std::string(layer) + "_s", f * tracer.total(layer),
                      "s");
    out.addDetail("traced.events_per_s", events / busy, "events/s");
    out.addDetail("traced.session_p50_s",
                  hdQuantile(latencies.calibrated, 0.5), "s",
                  latencies.size());
    out.addDetail("service.cycles", static_cast<double>(cycles), "count");
    return out;
}

} // namespace perfbench
