/**
 * @file
 * The benchmark's three workloads and the checks they share.
 *
 * Each workload builds its inputs from --seed, times its monitoring
 * for --seconds in whole rounds, checks every output against a
 * computation made apart from the program, and returns its metrics.
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "lifeguards/report.hpp"
#include "trace/trace.hpp"
#include "workloads/workload.hpp"

namespace perfbench {

class Calibrator;
class Tracer;

Outcome runAddrcheckPaper(const Options &opt, Tracer &tracer);
Outcome runDataflowDefcheck(const Options &opt, Tracer &tracer);
Outcome runServiceLoopback(const Options &opt, Tracer &tracer);

/** --rss-probe: one pass of the workload's monitoring, nothing else. */
void probeAddrcheckPaper(const Options &opt);
void probeDataflowDefcheck(const Options &opt);

/**
 * Re-run this binary with --rss-probe and return the child's peak
 * resident set in MiB (0 if it could not run or exited nonzero).
 */
double peakRssOfProbe(const Options &opt);

/** Path of this executable ("" if unreadable). */
std::string selfExe();

/**
 * Environment of the processes whose peak_rss_mib is measured (the
 * server, the --rss-probe child). glibc raises its mmap threshold each
 * time a large mmapped block is freed, after which large blocks come
 * from the heap and the peak depends on the order of frees: it moved 5%
 * and 10% between runs. Pinning the threshold at its default value makes
 * the peak track the program's live data.
 */
inline constexpr const char *kMallocEnv = "MALLOC_MMAP_THRESHOLD_=131072";

/**
 * Peak resident set (VmHWM) of process @p pid, or of this process when
 * @p pid is 0, in MiB; 0 if unreadable. VmHWM belongs to the address
 * space the process got at exec. getrusage's ru_maxrss would not do: it
 * keeps the high-water mark of the parent's memory from before exec.
 */
double peakRssMib(int pid = 0);

/**
 * The per-layer figures every workload reports when traced, under the
 * same names on every workload. Times are calibrated seconds per pass
 * over the workload's input set: set-up layers (generate, interleave,
 * slice, oracle) from the set-up pass, the analysis layers per round of
 * the timed loop. The pass times sum every AnalysisDriver the workload
 * runs in process; the workload-specific split is printed as detail.
 */
struct LayerFigures
{
    double kernelRaw = 0;
    double generate = 0;
    double interleave = 0;
    double slice = 0;
    double schedule = 0;
    double pass1 = 0;
    double pass2 = 0;
    double finalize = 0;
    double oracle = 0;
    std::uint64_t events = 0;
    std::uint64_t epochs = 0;
    std::uint64_t blocksPass1 = 0;
    std::uint64_t blocksPass2 = 0;
    std::uint64_t flags = 0;
    std::uint64_t oracleErrors = 0;
    std::uint64_t falsePositives = 0;
    std::uint64_t busyRetries = 0;
    std::uint64_t logBytesSent = 0;
    std::uint64_t shardAssigned[2] = {0, 0};
    std::uint64_t shardCompleted[2] = {0, 0};
};

void addPerLayer(Outcome &out, const LayerFigures &f);

/**
 * The end-to-end metrics of an untraced run, calibrated, with their raw
 * counterparts as detail. @p busyRaw / @p busyCalibrated are the
 * monitoring seconds that @p events took.
 */
void addEndToEnd(Outcome &out, const Calibrator &cal, Timed setup,
                 double events, double busyRaw, double busyCalibrated,
                 const Series &sessions, double peakRssMib);

/** Seconds recorded under layer @p name since @p base was taken. */
double since(const Tracer &tracer, const std::map<std::string, double> &base,
             const std::string &name);

/** Bugs plantBugs() plants: intra-thread, so errors in every ordering. */
inline constexpr std::size_t kPlantedBugs = 4;

/**
 * Plant two use-after-frees, a double free and a wild read into @p w,
 * placed by @p seed, and widen its heap window over them: the paper
 * programs are race-free, and a zero-false-negative check needs errors
 * to catch.
 */
void plantBugs(bfly::Workload &w, std::uint64_t seed);

// -- checks computed apart from the program ------------------------------

/**
 * Oracle errors that @p flagged misses: an oracle record counts as
 * caught if the same event is flagged or a flagged record covers an
 * overlapping metadata key (Theorems 6.1/6.2 allow the error to be
 * attributed to another instruction of the same race).
 */
std::size_t missedErrors(const std::vector<bfly::ErrorRecord> &flagged,
                         const std::vector<bfly::ErrorRecord> &oracle,
                         unsigned granularity);

/** Flagged events the oracle did not flag. */
std::size_t falsePositives(const std::vector<bfly::ErrorRecord> &flagged,
                           const std::vector<bfly::ErrorRecord> &oracle);

/**
 * For the self-test's "drop-flag" fault: @p flagged without every
 * record that would catch the first of @p oracle's errors.
 */
std::vector<bfly::ErrorRecord>
withoutCatchOf(const std::vector<bfly::ErrorRecord> &flagged,
               const std::vector<bfly::ErrorRecord> &oracle,
               unsigned granularity);

/** True if @p trace holds exactly @p programs' events, thread by thread
 *  in program order, each stamped with a distinct global sequence. */
bool sameEventsAsGenerated(
    const std::vector<std::vector<bfly::Event>> &programs,
    const bfly::Trace &trace);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
