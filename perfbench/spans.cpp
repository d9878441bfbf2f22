#include "spans.hpp"

#include <cstdio>

namespace perfbench {

Tracer::Tracer(bool enabled) : enabled_(enabled) {}

std::int64_t
Tracer::nanos(Clock::time_point t) const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
}

Tracer::Scope::Scope(Tracer &tracer, const char *name)
    : tracer_(tracer), name_(name), start_(Clock::now())
{
    if (tracer_.enabled_ && tracer_.spans_.size() < kMaxSpans) {
        const std::int64_t parent =
            tracer_.open_.empty() ? -1 : tracer_.open_.back();
        index_ = static_cast<std::int64_t>(tracer_.spans_.size());
        tracer_.spans_.push_back(
            {name_, tracer_.nanos(start_), -1, parent, 0});
        tracer_.open_.push_back(index_);
    }
}

Tracer::Scope::~Scope()
{
    const Clock::time_point end = Clock::now();
    tracer_.totals_[name_] +=
        std::chrono::duration<double>(end - start_).count();
    if (index_ >= 0) {
        tracer_.spans_[static_cast<std::size_t>(index_)].endNs =
            tracer_.nanos(end);
        tracer_.open_.pop_back();
    }
}

void
Tracer::record(const char *name, Clock::time_point start,
               Clock::time_point end, int lane)
{
    totals_[name] += std::chrono::duration<double>(end - start).count();
    if (enabled_ && spans_.size() < kMaxSpans) {
        const std::int64_t parent = open_.empty() ? -1 : open_.back();
        spans_.push_back({name, nanos(start), nanos(end), parent, lane});
    }
}

double
Tracer::total(const std::string &name) const
{
    const auto it = totals_.find(name);
    return it == totals_.end() ? 0.0 : it->second;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    std::fprintf(f, "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
                    "\"args\":{\"name\":\"perfbench\"}}");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.endNs < 0)
            continue; // still open: the run ended inside it
        std::fprintf(f,
                     ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%zu,\"parent\":%lld}}",
                     s.name, s.lane + 1, static_cast<double>(s.startNs) / 1e3,
                     static_cast<double>(s.endNs - s.startNs) / 1e3, i,
                     static_cast<long long>(s.parent));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

TimedDriver::TimedDriver(bfly::AnalysisDriver &inner, Tracer &tracer,
                         const char *pass1, const char *pass2,
                         const char *finalize)
    : inner_(inner), tracer_(tracer), pass1_(pass1), pass2_(pass2),
      finalize_(finalize)
{}

template <typename Fn>
void
TimedDriver::timed(const char *name, Fn &&fn)
{
    const Clock::time_point t0 = Clock::now();
    fn();
    const Clock::time_point t1 = Clock::now();
    driverSeconds_ += std::chrono::duration<double>(t1 - t0).count();
    tracer_.record(name, t0, t1);
}

void
TimedDriver::pass1(const bfly::BlockView &block)
{
    ++blocks1_;
    timed(pass1_, [&] { inner_.pass1(block); });
}

void
TimedDriver::pass2(const bfly::BlockView &block)
{
    ++blocks2_;
    timed(pass2_, [&] { inner_.pass2(block); });
}

void
TimedDriver::finalizeEpoch(bfly::EpochId l)
{
    timed(finalize_, [&] { inner_.finalizeEpoch(l); });
}

void
TimedDriver::beginPass(bfly::EpochId l, bool second)
{
    timed(second ? pass2_ : pass1_, [&] { inner_.beginPass(l, second); });
}

void
TimedDriver::setBatchMode(bool enabled)
{
    inner_.setBatchMode(enabled);
}

bool
TimedDriver::finalizeAfterPass2() const
{
    return inner_.finalizeAfterPass2();
}

bool
TimedDriver::pass2ReadsOwnNextPass1() const
{
    return inner_.pass2ReadsOwnNextPass1();
}

double
timedSchedule(const bfly::EpochLayout &layout, bfly::AnalysisDriver &driver,
              Tracer &tracer, const char *pass1, const char *pass2,
              const char *finalize, std::uint64_t *blocks1,
              std::uint64_t *blocks2)
{
    TimedDriver timed(driver, tracer, pass1, pass2, finalize);
    const Clock::time_point t0 = Clock::now();
    {
        Tracer::Scope span(tracer, "butterfly.window_schedule");
        bfly::WindowSchedule().run(layout, timed);
    }
    const double wall = secondsSince(t0);
    // The scheduler's own time has no span: it lies between the calls.
    tracer.addTotal("butterfly.schedule", wall - timed.driverSeconds());
    if (blocks1)
        *blocks1 += timed.blocksPass1();
    if (blocks2)
        *blocks2 += timed.blocksPass2();
    return wall;
}

} // namespace perfbench
