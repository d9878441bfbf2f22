/**
 * @file
 * Traced-run instrumentation, recorded from the benchmark's own code
 * around its calls into the program's modules.
 *
 * A Tracer keeps per-layer totals and, when tracing, a list of spans
 * (name, start, end, parent) held in memory and written at the end of
 * the run as Chrome trace JSON, which ui.perfetto.dev loads. TimedDriver
 * is a forwarding AnalysisDriver that times each pass-1, pass-2 and
 * finalize call of the driver it wraps, so the window scheduler's own
 * time is the schedule's duration minus its driver calls.
 */

#ifndef PERFBENCH_SPANS_HPP
#define PERFBENCH_SPANS_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "butterfly/window.hpp"
#include "common.hpp"

namespace perfbench {

class Tracer
{
  public:
    explicit Tracer(bool enabled);

    bool enabled() const { return enabled_; }

    /** RAII span: adds its duration to the layer total @p name and,
     *  when tracing, records it with its parent. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tracer_;
        const char *name_;
        Clock::time_point start_;
        std::int64_t index_ = -1;
    };

    /** Add [@p start, @p end) to layer @p name and record it as a span
     *  on lane @p lane, child of the innermost open Scope. Used for
     *  calls timed outside a Scope, such as client threads' sessions. */
    void record(const char *name, Clock::time_point start,
                Clock::time_point end, int lane = 0);

    /** Add @p seconds to layer @p name without recording a span. */
    void addTotal(const char *name, double seconds)
    {
        totals_[name] += seconds;
    }

    /** Per-layer totals so far (to take differences over a phase). */
    const std::map<std::string, double> &totals() const { return totals_; }

    /** Total seconds recorded under @p name (0 if none). */
    double total(const std::string &name) const;

    /** Write the spans as Chrome trace JSON. @return false on error. */
    bool writeChromeTrace(const std::string &path) const;

    std::size_t spanCount() const { return spans_.size(); }

  private:
    struct Span
    {
        const char *name;
        std::int64_t startNs;
        std::int64_t endNs;
        std::int64_t parent;
        int lane;
    };

    /** Spans kept for the trace file; totals are kept beyond it. */
    static constexpr std::size_t kMaxSpans = std::size_t{1} << 20;

    std::int64_t nanos(Clock::time_point t) const;

    bool enabled_;
    Clock::time_point origin_ = Clock::now();
    std::map<std::string, double> totals_;
    std::vector<Span> spans_;
    std::vector<std::int64_t> open_; ///< stack of open span indices
};

/** Forwarding AnalysisDriver that times every call into @p inner. */
class TimedDriver : public bfly::AnalysisDriver
{
  public:
    /** Calls land in the layers named @p pass1, @p pass2, @p finalize
     *  (beginPass counts as pass time of the pass it begins). */
    TimedDriver(bfly::AnalysisDriver &inner, Tracer &tracer,
                const char *pass1, const char *pass2,
                const char *finalize);

    void pass1(const bfly::BlockView &block) override;
    void pass2(const bfly::BlockView &block) override;
    void finalizeEpoch(bfly::EpochId l) override;
    void beginPass(bfly::EpochId l, bool second) override;
    void setBatchMode(bool enabled) override;
    bool finalizeAfterPass2() const override;
    bool pass2ReadsOwnNextPass1() const override;

    /** Seconds spent inside @p inner's hooks. */
    double driverSeconds() const { return driverSeconds_; }
    std::uint64_t blocksPass1() const { return blocks1_; }
    std::uint64_t blocksPass2() const { return blocks2_; }

  private:
    template <typename Fn> void timed(const char *name, Fn &&fn);

    bfly::AnalysisDriver &inner_;
    Tracer &tracer_;
    const char *pass1_;
    const char *pass2_;
    const char *finalize_;
    double driverSeconds_ = 0;
    std::uint64_t blocks1_ = 0;
    std::uint64_t blocks2_ = 0;
};

/**
 * Run the barrier window schedule over @p layout with @p driver wrapped
 * in a TimedDriver, adding the scheduler's own time (schedule minus
 * driver calls) to "butterfly.schedule". Returns the schedule's wall
 * time in seconds.
 */
double timedSchedule(const bfly::EpochLayout &layout,
                     bfly::AnalysisDriver &driver, Tracer &tracer,
                     const char *pass1, const char *pass2,
                     const char *finalize, std::uint64_t *blocks1 = nullptr,
                     std::uint64_t *blocks2 = nullptr);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HPP
