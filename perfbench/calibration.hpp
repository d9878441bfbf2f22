/**
 * @file
 * Reference-kernel calibration.
 *
 * On a shared machine the same single-threaded analysis pass runs at two
 * speed levels about 35% apart, each lasting seconds, and thread CPU time
 * moves with wall time, so neither preemption nor CPU placement explains
 * it. A fixed kernel timed next to each repetition moves with the same
 * level. Every timed repetition is therefore bracketed by kernel runs and
 * reported as raw * kNominalSeconds / kernel, where kernel is the mean of
 * the kernel runs just before and after it: the unit stays seconds, and
 * a level shift cancels. The raw kernel times are kept so that a change
 * which slows the machine for everyone (threads left spinning) shows.
 */

#ifndef PERFBENCH_CALIBRATION_HPP
#define PERFBENCH_CALIBRATION_HPP

#include <cstdint>
#include <vector>

#include "common.hpp"

namespace perfbench {

/**
 * Hash-set inserts and probes plus a sort over benchmark-owned buffers
 * (5 MiB). Shares no code with the program and allocates nothing while
 * it is timed.
 */
class ReferenceKernel
{
  public:
    /** The kernel's duration on the reference machine (a 4-CPU x86-64
     *  container, Release build, fast level). */
    static constexpr double kNominalSeconds = 0.0125;

    ReferenceKernel();

    /** Run the kernel once; returns its wall time in seconds. */
    double run();

  private:
    std::vector<std::uint64_t> table_;
    std::vector<std::uint64_t> keys_;
    std::uint64_t sink_ = 0;
};

/** Brackets timed items with kernel runs and scales them. */
class Calibrator
{
  public:
    Calibrator();

    /** Time @p fn; returns its raw and calibrated durations. */
    template <typename Fn>
    Timed
    time(Fn &&fn)
    {
        const Clock::time_point t0 = Clock::now();
        fn();
        const double raw = secondsSince(t0);
        return {raw, raw * nextFactor()};
    }

    /** Run the kernel and return kNominalSeconds divided by the mean of
     *  this and the previous kernel time: the factor for the work that
     *  ran between them. */
    double nextFactor();

    /** Scale a raw duration that just ended. */
    Timed scale(double raw) { return {raw, raw * nextFactor()}; }

    /** Median raw kernel time of this process. */
    double medianKernel() const { return median(kernels_); }

    /** kNominalSeconds / medianKernel(): the run's typical factor, for
     *  per-layer times that are not bracketed one by one. */
    double typicalFactor() const
    {
        return ReferenceKernel::kNominalSeconds / medianKernel();
    }

    std::size_t kernelRuns() const { return kernels_.size(); }

  private:
    ReferenceKernel kernel_;
    std::vector<double> kernels_;
    double last_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_CALIBRATION_HPP
