/**
 * @file
 * Linear least squares, polynomial fitting, power-law fitting and the
 * cubic-peak extraction method the paper uses on simulation data.
 *
 * The paper finds each workload's simulated optimum by "a blind least
 * squares fit to a cubic function" of the metric-vs-depth samples and
 * taking the peak of the fitted cubic (Sec. 4); fitCubicPeak()
 * reproduces exactly that. Figure 3's latch-growth exponent is a
 * power-law fit, reproduced by fitPowerLaw().
 */

#ifndef PIPEDEPTH_MATH_LEAST_SQUARES_HH
#define PIPEDEPTH_MATH_LEAST_SQUARES_HH

#include <vector>

#include "math/poly.hh"

namespace pipedepth
{

/**
 * Solve the dense linear system A x = b with partial-pivot Gaussian
 * elimination. A is row-major n x n. Aborts on a singular system.
 */
std::vector<double> solveLinear(std::vector<double> a,
                                std::vector<double> b);

/**
 * Least-squares fit of a degree-@p degree polynomial to samples
 * (x[i], y[i]) via the normal equations. Requires at least degree+1
 * samples.
 */
Poly fitPolynomial(const std::vector<double> &xs,
                   const std::vector<double> &ys, int degree);

/** Result of a power-law fit y = c * x^k. */
struct PowerLawFit
{
    double c = 0.0; //!< multiplier
    double k = 0.0; //!< exponent
    double r2 = 0.0; //!< coefficient of determination in log space
};

/**
 * Fit y = c * x^k by linear regression of log y on log x. All samples
 * must be strictly positive.
 */
PowerLawFit fitPowerLaw(const std::vector<double> &xs,
                        const std::vector<double> &ys);

/** Result of a cubic fit and peak extraction. */
struct CubicPeak
{
    Poly cubic;          //!< the fitted cubic
    double x = 0.0;      //!< location of the peak inside the data range
    double value = 0.0;  //!< fitted value at the peak
    bool interior = false; //!< peak strictly inside [min x, max x]
};

/**
 * The paper's simulated-optimum extraction: least-squares cubic fit to
 * (x, y), then the location of the maximum of the cubic on the convex
 * hull of the sampled x range. If the cubic is monotone on the range,
 * the best endpoint is returned with interior = false. Below 4
 * samples the cubic is undetermined: x = 0 ("no peak"), not interior.
 */
CubicPeak fitCubicPeak(const std::vector<double> &xs,
                       const std::vector<double> &ys);

/**
 * Best scale factor s minimizing sum_i (y[i] - s * t[i])^2 — the
 * paper's "only adjustable parameter being the overall scale factor"
 * when overlaying theory curves on simulation data (Fig. 4).
 */
double fitScaleFactor(const std::vector<double> &ys,
                      const std::vector<double> &ts);

/** Coefficient of determination of predictions t against samples y. */
double rSquared(const std::vector<double> &ys,
                const std::vector<double> &ts);

} // namespace pipedepth

#endif // PIPEDEPTH_MATH_LEAST_SQUARES_HH
