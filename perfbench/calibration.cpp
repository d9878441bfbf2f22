#include "calibration.hpp"

#include <algorithm>

namespace perfbench {

namespace {

constexpr std::size_t kTableBits = 19;
constexpr std::size_t kKeys = std::size_t{1} << 17;

std::uint64_t
splitmix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

ReferenceKernel::ReferenceKernel()
    : table_(std::size_t{1} << kTableBits), keys_(kKeys)
{}

double
ReferenceKernel::run()
{
    const Clock::time_point t0 = Clock::now();
    const std::size_t mask = table_.size() - 1;
    const auto slot = [&](std::uint64_t k) {
        return static_cast<std::size_t>((k * 0x9e3779b97f4a7c15ull) >>
                                        (64 - kTableBits)) &
               mask;
    };

    for (std::size_t i = 0; i < keys_.size(); ++i)
        keys_[i] = splitmix(i) | 1; // 0 marks an empty slot
    std::fill(table_.begin(), table_.end(), 0);

    for (std::uint64_t k : keys_) {
        std::size_t s = slot(k);
        while (table_[s] != 0 && table_[s] != k)
            s = (s + 1) & mask;
        table_[s] = k;
    }
    std::uint64_t hits = 0;
    for (std::uint64_t k : keys_) {
        // One probe that hits and one that (almost always) misses.
        for (std::uint64_t q : {k, k ^ 0x10}) {
            std::size_t s = slot(q);
            while (table_[s] != 0 && table_[s] != q)
                s = (s + 1) & mask;
            hits += table_[s] == q;
        }
    }
    std::sort(keys_.begin(), keys_.end());
    sink_ += hits + keys_[keys_.size() / 2];
    return secondsSince(t0);
}

Calibrator::Calibrator()
{
    kernel_.run(); // first touch of the buffers
    last_ = kernel_.run();
    kernels_.push_back(last_);
}

double
Calibrator::nextFactor()
{
    const double next = kernel_.run();
    kernels_.push_back(next);
    const double k = 0.5 * (last_ + next);
    last_ = next;
    return ReferenceKernel::kNominalSeconds / k;
}

} // namespace perfbench
