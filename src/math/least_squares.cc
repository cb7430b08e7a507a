#include "math/least_squares.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "math/optimize.hh"
#include "math/roots.hh"

namespace pipedepth
{

std::vector<double>
solveLinear(std::vector<double> a, std::vector<double> b)
{
    const std::size_t n = b.size();
    PP_ASSERT(a.size() == n * n, "solveLinear: A must be n x n");

    auto at = [&a, n](std::size_t r, std::size_t c) -> double & {
        return a[r * n + c];
    };

    for (std::size_t col = 0; col < n; ++col) {
        // Partial pivot.
        std::size_t pivot = col;
        for (std::size_t r = col + 1; r < n; ++r) {
            if (std::fabs(at(r, col)) > std::fabs(at(pivot, col)))
                pivot = r;
        }
        PP_ASSERT(std::fabs(at(pivot, col)) > 1e-300,
                  "solveLinear: singular system at column ", col);
        if (pivot != col) {
            for (std::size_t c = 0; c < n; ++c)
                std::swap(at(pivot, c), at(col, c));
            std::swap(b[pivot], b[col]);
        }
        // Eliminate below.
        for (std::size_t r = col + 1; r < n; ++r) {
            const double factor = at(r, col) / at(col, col);
            if (factor == 0.0)
                continue;
            for (std::size_t c = col; c < n; ++c)
                at(r, c) -= factor * at(col, c);
            b[r] -= factor * b[col];
        }
    }

    std::vector<double> x(n, 0.0);
    for (std::size_t r = n; r-- > 0;) {
        double acc = b[r];
        for (std::size_t c = r + 1; c < n; ++c)
            acc -= at(r, c) * x[c];
        x[r] = acc / at(r, r);
    }
    return x;
}

Poly
fitPolynomial(const std::vector<double> &xs, const std::vector<double> &ys,
              int degree)
{
    PP_ASSERT(xs.size() == ys.size(), "x/y size mismatch");
    PP_ASSERT(degree >= 0, "negative degree");
    PP_ASSERT(xs.size() >= static_cast<std::size_t>(degree) + 1,
              "not enough samples for a degree-", degree, " fit");

    const std::size_t n = static_cast<std::size_t>(degree) + 1;
    // Normal equations: (V^T V) c = V^T y with Vandermonde V.
    std::vector<double> ata(n * n, 0.0);
    std::vector<double> aty(n, 0.0);
    std::vector<double> powers(2 * n - 1);
    for (std::size_t s = 0; s < xs.size(); ++s) {
        powers[0] = 1.0;
        for (std::size_t k = 1; k < powers.size(); ++k)
            powers[k] = powers[k - 1] * xs[s];
        for (std::size_t r = 0; r < n; ++r) {
            aty[r] += powers[r] * ys[s];
            for (std::size_t c = 0; c < n; ++c)
                ata[r * n + c] += powers[r + c];
        }
    }
    return Poly(solveLinear(std::move(ata), std::move(aty)));
}

PowerLawFit
fitPowerLaw(const std::vector<double> &xs, const std::vector<double> &ys)
{
    PP_ASSERT(xs.size() == ys.size(), "x/y size mismatch");
    PP_ASSERT(xs.size() >= 2, "need at least 2 samples");
    std::vector<double> lx(xs.size()), ly(ys.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
        PP_ASSERT(xs[i] > 0.0 && ys[i] > 0.0,
                  "power-law fit requires positive samples");
        lx[i] = std::log(xs[i]);
        ly[i] = std::log(ys[i]);
    }
    const Poly line = fitPolynomial(lx, ly, 1);

    PowerLawFit fit;
    fit.k = line.coeff(1);
    fit.c = std::exp(line.coeff(0));

    std::vector<double> pred(lx.size());
    for (std::size_t i = 0; i < lx.size(); ++i)
        pred[i] = line(lx[i]);
    fit.r2 = rSquared(ly, pred);
    return fit;
}

CubicPeak
fitCubicPeak(const std::vector<double> &xs, const std::vector<double> &ys)
{
    CubicPeak out;
    if (xs.size() < 4) // the cubic is undetermined: no peak
        return out;
    out.cubic = fitPolynomial(xs, ys, 3);

    const auto [lo_it, hi_it] = std::minmax_element(xs.begin(), xs.end());
    const double lo = *lo_it;
    const double hi = *hi_it;

    // Candidates: endpoints plus interior critical points.
    double best_x = lo;
    double best_v = out.cubic(lo);
    bool interior = false;
    if (out.cubic(hi) > best_v) {
        best_x = hi;
        best_v = out.cubic(hi);
    }
    for (double c : realRoots(out.cubic.derivative())) {
        if (c > lo && c < hi && out.cubic(c) > best_v) {
            best_x = c;
            best_v = out.cubic(c);
            interior = true;
        }
    }
    out.x = best_x;
    out.value = best_v;
    out.interior = interior;
    return out;
}

double
fitScaleFactor(const std::vector<double> &ys, const std::vector<double> &ts)
{
    PP_ASSERT(ys.size() == ts.size(), "size mismatch");
    double num = 0.0, den = 0.0;
    for (std::size_t i = 0; i < ys.size(); ++i) {
        num += ys[i] * ts[i];
        den += ts[i] * ts[i];
    }
    PP_ASSERT(den > 0.0, "cannot scale an all-zero template");
    return num / den;
}

double
rSquared(const std::vector<double> &ys, const std::vector<double> &ts)
{
    PP_ASSERT(ys.size() == ts.size() && !ys.empty(), "size mismatch");
    double mean = 0.0;
    for (double y : ys)
        mean += y;
    mean /= static_cast<double>(ys.size());
    double ss_tot = 0.0, ss_res = 0.0;
    for (std::size_t i = 0; i < ys.size(); ++i) {
        ss_tot += (ys[i] - mean) * (ys[i] - mean);
        ss_res += (ys[i] - ts[i]) * (ys[i] - ts[i]);
    }
    if (ss_tot == 0.0)
        return ss_res == 0.0 ? 1.0 : 0.0;
    return 1.0 - ss_res / ss_tot;
}

} // namespace pipedepth
