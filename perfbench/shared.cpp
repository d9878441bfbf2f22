/**
 * @file
 * What the three workloads share: bug planting, the checks computed apart
 * from the program, peak-RSS reading, and the metric names they print.
 */

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unordered_set>

#include "calibration.hpp"
#include "spans.hpp"
#include "workloads.hpp"
#include "workloads/bugs.hpp"

namespace perfbench {

using bfly::Addr;
using bfly::ErrorRecord;

namespace {

std::pair<Addr, Addr>
keyRange(const ErrorRecord &r, unsigned granularity)
{
    const Addr lo = r.addr / granularity;
    const Addr hi = (r.addr + (r.size > 0 ? r.size - 1 : 0)) / granularity;
    return {lo, hi};
}

std::uint64_t
eventKey(const ErrorRecord &r)
{
    return (static_cast<std::uint64_t>(r.tid) << 48) ^ r.index;
}

bool
catches(const ErrorRecord &flag, const ErrorRecord &error,
        unsigned granularity)
{
    if (eventKey(flag) == eventKey(error))
        return true;
    const auto [flo, fhi] = keyRange(flag, granularity);
    const auto [elo, ehi] = keyRange(error, granularity);
    return flo <= ehi && elo <= fhi;
}

} // namespace

std::string
selfExe()
{
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    return n > 0 ? std::string(buf, static_cast<std::size_t>(n)) : "";
}

double
peakRssMib(int pid)
{
    char path[64];
    if (pid)
        std::snprintf(path, sizeof(path), "/proc/%d/status", pid);
    else
        std::snprintf(path, sizeof(path), "/proc/self/status");
    std::FILE *f = std::fopen(path, "r");
    if (!f)
        return 0;
    char line[256];
    double kib = 0;
    while (std::fgets(line, sizeof(line), f))
        if (std::strncmp(line, "VmHWM:", 6) == 0)
            kib = std::strtod(line + 6, nullptr);
    std::fclose(f);
    return kib / 1024.0;
}

void
plantBugs(bfly::Workload &w, std::uint64_t seed)
{
    bfly::Rng rng(mixSeed(seed, 0xb06));
    bfly::injectBugs(w, bfly::BugKind::UseAfterFree, 2, rng);
    bfly::injectBugs(w, bfly::BugKind::DoubleFree, 1, rng);
    bfly::injectBugs(w, bfly::BugKind::UnallocatedAccess, 1, rng);
    // injectBugs plants from heapLimit + 0x1000 on, 64 bytes apiece.
    w.heapLimit += 0x10000;
}

std::size_t
missedErrors(const std::vector<ErrorRecord> &flagged,
             const std::vector<ErrorRecord> &oracle, unsigned granularity)
{
    std::unordered_set<std::uint64_t> events;
    std::unordered_set<Addr> keys;
    for (const ErrorRecord &r : flagged) {
        events.insert(eventKey(r));
        const auto [lo, hi] = keyRange(r, granularity);
        for (Addr k = lo; k <= hi; ++k)
            keys.insert(k);
    }
    std::size_t missed = 0;
    for (const ErrorRecord &e : oracle) {
        if (events.count(eventKey(e)))
            continue;
        bool covered = false;
        const auto [lo, hi] = keyRange(e, granularity);
        for (Addr k = lo; k <= hi && !covered; ++k)
            covered = keys.count(k) != 0;
        missed += !covered;
    }
    return missed;
}

std::size_t
falsePositives(const std::vector<ErrorRecord> &flagged,
               const std::vector<ErrorRecord> &oracle)
{
    std::unordered_set<std::uint64_t> errors;
    for (const ErrorRecord &e : oracle)
        errors.insert(eventKey(e));
    std::size_t fp = 0;
    for (const ErrorRecord &r : flagged)
        fp += errors.count(eventKey(r)) == 0;
    return fp;
}

std::vector<ErrorRecord>
withoutCatchOf(const std::vector<ErrorRecord> &flagged,
               const std::vector<ErrorRecord> &oracle, unsigned granularity)
{
    if (oracle.empty())
        return flagged;
    std::vector<ErrorRecord> kept;
    for (const ErrorRecord &r : flagged)
        if (!catches(r, oracle.front(), granularity))
            kept.push_back(r);
    return kept;
}

bool
sameEventsAsGenerated(const std::vector<std::vector<bfly::Event>> &programs,
                      const bfly::Trace &trace)
{
    if (programs.size() != trace.numThreads())
        return false;
    std::unordered_set<std::uint64_t> gseqs;
    for (std::size_t t = 0; t < programs.size(); ++t) {
        const auto &want = programs[t];
        const auto &got = trace.threads[t].events;
        if (want.size() != got.size())
            return false;
        for (std::size_t i = 0; i < want.size(); ++i) {
            const bfly::Event &a = want[i];
            const bfly::Event &b = got[i];
            if (a.kind != b.kind || a.nsrc != b.nsrc || a.size != b.size ||
                a.site != b.site || a.addr != b.addr || a.src0 != b.src0 ||
                a.src1 != b.src1)
                return false;
            if (!gseqs.insert(b.gseq).second)
                return false;
        }
    }
    return true;
}

double
since(const Tracer &tracer, const std::map<std::string, double> &base,
      const std::string &name)
{
    const auto it = base.find(name);
    return tracer.total(name) - (it == base.end() ? 0.0 : it->second);
}

void
addEndToEnd(Outcome &out, const Calibrator &cal, Timed setup, double events,
            double busyRaw, double busyCalibrated, const Series &sessions,
            double peakRssMib)
{
    const std::size_t n = sessions.size();
    out.check(peakRssMib > 0, "could not measure the peak RSS");
    out.add("setup_s", setup.calibrated, "s");
    out.add("events_per_s", events / busyCalibrated, "events/s", n);
    out.add("session_p50_s", hdQuantile(sessions.calibrated, 0.5), "s", n);
    out.add("session_p90_s", hdQuantile(sessions.calibrated, 0.9), "s", n);
    out.add("peak_rss_mib", peakRssMib, "MiB");
    out.addDetail("raw.setup_s", setup.raw, "s");
    out.addDetail("raw.events_per_s", events / busyRaw, "events/s", n);
    out.addDetail("raw.session_p50_s", hdQuantile(sessions.raw, 0.5), "s", n);
    out.addDetail("raw.session_p90_s", hdQuantile(sessions.raw, 0.9), "s", n);
    out.addDetail("plain.session_p50_s", quantile(sessions.calibrated, 0.5),
                  "s", n);
    out.addDetail("plain.session_p90_s", quantile(sessions.calibrated, 0.9),
                  "s", n);
    out.addDetail("bench.reference_kernel_s", cal.medianKernel(), "s",
                  cal.kernelRuns());
}

void
addPerLayer(Outcome &out, const LayerFigures &f)
{
    out.add("bench.reference_kernel_s", f.kernelRaw, "s");
    out.add("workloads.generate_s", f.generate, "s");
    out.add("memmodel.interleave_s", f.interleave, "s");
    out.add("trace.slice_s", f.slice, "s");
    out.add("butterfly.schedule_s", f.schedule, "s");
    out.add("lifeguards.pass1_s", f.pass1, "s");
    out.add("lifeguards.pass2_s", f.pass2, "s");
    out.add("lifeguards.finalize_s", f.finalize, "s");
    out.add("lifeguards.oracle_s", f.oracle, "s");
    const auto count = [&](const char *name, std::uint64_t v) {
        out.add(name, static_cast<double>(v), "count");
    };
    count("trace.events", f.events);
    count("trace.epochs", f.epochs);
    count("butterfly.blocks_pass1", f.blocksPass1);
    count("butterfly.blocks_pass2", f.blocksPass2);
    count("lifeguards.flags", f.flags);
    count("lifeguards.oracle_errors", f.oracleErrors);
    count("lifeguards.false_positives", f.falsePositives);
    count("service.busy_retries", f.busyRetries);
    out.add("service.log_bytes_sent", static_cast<double>(f.logBytesSent),
            "B");
    count("service.shard0_assigned", f.shardAssigned[0]);
    count("service.shard1_assigned", f.shardAssigned[1]);
    count("service.shard0_completed", f.shardCompleted[0]);
    count("service.shard1_completed", f.shardCompleted[1]);
}

} // namespace perfbench
