#include "common/rng.hh"

#include <cmath>

#include "common/logging.hh"

namespace pipedepth
{

namespace
{

std::uint64_t
splitmix64(std::uint64_t &x)
{
    std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t x = seed;
    for (auto &s : s_)
        s = splitmix64(x);
    // An all-zero state would be absorbing; splitmix64 of any seed
    // cannot produce four zeros, but guard anyway.
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0)
        s_[0] = 1;
}

std::size_t
Rng::weighted(const std::vector<double> &weights)
{
    double total = 0.0;
    for (double w : weights) {
        PP_ASSERT(w >= 0.0, "negative weight in Rng::weighted");
        total += w;
    }
    PP_ASSERT(total > 0.0, "Rng::weighted requires a positive weight");
    double x = uniform() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        x -= weights[i];
        if (x < 0.0)
            return i;
    }
    // Floating-point accumulation can leave x == 0 at the end; return
    // the last index with positive weight.
    for (std::size_t i = weights.size(); i-- > 0;) {
        if (weights[i] > 0.0)
            return i;
    }
    PP_PANIC("unreachable in Rng::weighted");
}

std::uint64_t
Rng::geometric(double p)
{
    return Geometric(p).draw(*this);
}

Geometric::Geometric(double p) : log_q_(0.0)
{
    if (p >= 1.0)
        return;
    if (p <= 0.0)
        p = 1e-12;
    log_q_ = std::log1p(-p);
}

std::uint64_t
Geometric::draw(Rng &rng) const
{
    if (log_q_ == 0.0)
        return 0;
    const double u = 1.0 - rng.uniform(); // in (0, 1]
    const double k = std::floor(std::log(u) / log_q_);
    if (k < 0.0)
        return 0;
    if (k > 1e18)
        return static_cast<std::uint64_t>(1e18);
    return static_cast<std::uint64_t>(k);
}

double
Rng::gaussian()
{
    if (has_cached_gauss_) {
        has_cached_gauss_ = false;
        return cached_gauss_;
    }
    double u1, u2;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cached_gauss_ = r * std::sin(theta);
    has_cached_gauss_ = true;
    return r * std::cos(theta);
}

Rng
Rng::fork()
{
    return Rng(next() ^ 0xd1b54a32d192ed03ULL);
}

} // namespace pipedepth
