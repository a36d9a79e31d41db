#include "stats/descriptive.hh"

#include <algorithm>
#include <cmath>

#include "support/logging.hh"

namespace pca::stats
{

double
mean(const std::vector<double> &xs)
{
    pca_assert(!xs.empty());
    double sum = 0;
    for (double x : xs)
        sum += x;
    return sum / static_cast<double>(xs.size());
}

double
variance(const std::vector<double> &xs)
{
    if (xs.size() < 2)
        return 0.0;
    double m = mean(xs);
    double ss = 0;
    for (double x : xs)
        ss += (x - m) * (x - m);
    return ss / static_cast<double>(xs.size() - 1);
}

double
stddev(const std::vector<double> &xs)
{
    return std::sqrt(variance(xs));
}

namespace
{

/** quantile() of a sample sorted already. */
double
sortedQuantile(const std::vector<double> &xs, double q)
{
    pca_assert(!xs.empty());
    pca_assert(q >= 0.0 && q <= 1.0);
    if (xs.size() == 1)
        return xs[0];
    // R type-7: h = (n - 1) q; interpolate between floor(h), floor(h)+1.
    double h = (static_cast<double>(xs.size()) - 1.0) * q;
    auto lo = static_cast<std::size_t>(std::floor(h));
    auto hi = std::min(lo + 1, xs.size() - 1);
    double frac = h - std::floor(h);
    return xs[lo] + frac * (xs[hi] - xs[lo]);
}

} // namespace

double
quantile(std::vector<double> xs, double q)
{
    std::sort(xs.begin(), xs.end());
    return sortedQuantile(xs, q);
}

double
median(const std::vector<double> &xs)
{
    return quantile(xs, 0.5);
}

double
minOf(const std::vector<double> &xs)
{
    pca_assert(!xs.empty());
    return *std::min_element(xs.begin(), xs.end());
}

double
maxOf(const std::vector<double> &xs)
{
    pca_assert(!xs.empty());
    return *std::max_element(xs.begin(), xs.end());
}

Summary
summarize(const std::vector<double> &xs)
{
    pca_assert(!xs.empty());
    Summary s;
    s.n = xs.size();
    s.min = minOf(xs);
    // One sorted copy serves all three quantiles.
    std::vector<double> sorted = xs;
    std::sort(sorted.begin(), sorted.end());
    s.q1 = sortedQuantile(sorted, 0.25);
    s.median = sortedQuantile(sorted, 0.5);
    s.q3 = sortedQuantile(sorted, 0.75);
    s.max = maxOf(xs);
    s.mean = mean(xs);
    s.stddev = stddev(xs);
    return s;
}

} // namespace pca::stats
