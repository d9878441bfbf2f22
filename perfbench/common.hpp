/**
 * @file
 * Shared types of the repository benchmark: run options, the outcome a
 * workload hands back to main(), and small statistics helpers.
 */

#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20;
    bool trace = false;
    /** Small inputs and one round: the self-test's configuration. */
    bool quick = false;
    /** Deliberate fault in the benchmark's own inputs to its checks
     *  (self-test): "drop-flag", "drop-oracle-error" or
     *  "alter-reference". Empty = none. */
    std::string inject;
    /** Child mode: do one pass of the workload's monitoring and exit,
     *  so the parent can read this process's peak RSS. */
    bool rssProbe = false;
    /** Where a traced run writes its spans (Chrome/Perfetto JSON). */
    std::string traceOut;
    /** Process start, for setup_s. */
    Clock::time_point start = Clock::now();
};

/** One reported number. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
    std::size_t samples = 1;
};

/** What a workload hands back to main(). */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Failed correctness checks (empty = correct). */
    std::vector<std::string> failures;
    /** The metrics the final JSON line carries (end-to-end untraced,
     *  per-layer traced). */
    std::vector<Metric> metrics;
    /** Workload-specific breakdown printed above the JSON line only. */
    std::vector<Metric> detail;

    void
    check(bool ok, const std::string &what)
    {
        if (!ok)
            failures.push_back(what);
    }

    void
    add(const std::string &name, double value, const std::string &unit,
        std::size_t samples = 1)
    {
        metrics.push_back({name, value, unit, samples});
    }

    void
    addDetail(const std::string &name, double value,
              const std::string &unit, std::size_t samples = 1)
    {
        detail.push_back({name, value, unit, samples});
    }
};

/** Quantile by linear interpolation between order statistics. */
inline double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/**
 * Harrell-Davis estimate of quantile @p q: a Beta-weighted mean of all
 * order statistics. A run's sessions are whole rounds over a few input
 * kinds of distinct cost, so a plain order statistic sits on the edge
 * between two kinds and takes the extreme sample of one of them; this
 * estimate averages the neighbourhood instead and repeats far better
 * from run to run.
 */
inline double
hdQuantile(std::vector<double> v, double q)
{
    const std::size_t n = v.size();
    if (n < 2)
        return n ? v[0] : 0;
    std::sort(v.begin(), v.end());
    const double a = q * static_cast<double>(n + 1);
    const double b = (1 - q) * static_cast<double>(n + 1);
    const double lbeta = std::lgamma(a) + std::lgamma(b) - std::lgamma(a + b);
    const auto pdf = [&](double x) {
        if (x <= 0 || x >= 1)
            return 0.0; // a, b > 1 for n >= 9 and q in [0.1, 0.9]
        return std::exp((a - 1) * std::log(x) + (b - 1) * std::log1p(-x) -
                        lbeta);
    };
    // Weight of order statistic i: the Beta(a, b) mass on
    // [i/n, (i+1)/n], by Simpson's rule.
    constexpr int kSteps = 32;
    double sum = 0, total = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const double lo = static_cast<double>(i) / static_cast<double>(n);
        const double h = 1.0 / static_cast<double>(n * kSteps);
        double w = pdf(lo) + pdf(lo + kSteps * h);
        for (int k = 1; k < kSteps; ++k)
            w += (k % 2 ? 4 : 2) * pdf(lo + k * h);
        w *= h / 3;
        sum += w * v[i];
        total += w;
    }
    return sum / total;
}

/** One timed repetition: its wall time and its calibrated time. */
struct Timed
{
    double raw = 0;
    double calibrated = 0;
};

/** Timed repetitions of one kind, raw and calibrated. */
struct Series
{
    std::vector<double> raw;
    std::vector<double> calibrated;

    void
    push(Timed t)
    {
        raw.push_back(t.raw);
        calibrated.push_back(t.calibrated);
    }

    std::size_t size() const { return raw.size(); }
};

/**
 * Generator seed of a workload's @p slot-th program. The programs are
 * fixed, as a benchmark suite's inputs are; --seed picks how they
 * interleave (mixSeed), which is what differs between real runs of the
 * same parallel program.
 */
inline std::uint64_t
programSeed(std::size_t slot)
{
    return slot + 1;
}

/** Deterministic 64-bit mix for deriving per-input seeds from --seed. */
inline std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + salt + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace perfbench

#endif // PERFBENCH_COMMON_HPP
