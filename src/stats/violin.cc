#include "stats/violin.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "support/logging.hh"
#include "support/strutil.hh"

namespace pca::stats
{

namespace
{

/** kernelDensity() of a sample whose summary @p s is known. */
Density
densityOf(const std::vector<double> &xs, const Summary &s, int points)
{
    pca_assert(points >= 2);
    double spread = std::min(s.stddev, s.iqr() / 1.34);
    if (spread <= 0)
        spread = std::max(s.stddev, 1e-9);
    double bw = 0.9 * spread
        * std::pow(static_cast<double>(xs.size()), -0.2);
    if (bw <= 0)
        bw = 1e-9;

    Density d;
    d.bandwidth = bw;
    d.lo = s.min - 3 * bw;
    d.hi = s.max + 3 * bw;
    d.at.assign(points, 0.0);

    const double step = (d.hi - d.lo) / (points - 1);
    const double norm = 1.0
        / (static_cast<double>(xs.size()) * bw * std::sqrt(2.0 * M_PI));
    // Samples such as error counts repeat a few values: evaluate the
    // kernel once per (grid point, distinct value) and add it in
    // sample order, 0.0 beyond 8 bandwidths, so each sum is
    // bit-identical to adding exp() per sample. Slot 0 holds NaN, the
    // value of a degraded run, which is never within reach.
    std::vector<double> distinct{std::numeric_limits<double>::quiet_NaN()};
    std::map<double, std::size_t> slotOf;
    std::vector<std::size_t> slot;
    slot.reserve(xs.size());
    for (double x : xs) {
        std::size_t k = 0;
        if (!std::isnan(x)) {
            k = slotOf.try_emplace(x, distinct.size()).first->second;
            if (k == distinct.size())
                distinct.push_back(x);
        }
        slot.push_back(k);
    }
    std::vector<double> kernel(distinct.size());
    for (int i = 0; i < points; ++i) {
        double g = d.lo + i * step;
        for (std::size_t j = 0; j < distinct.size(); ++j) {
            double z = (g - distinct[j]) / bw;
            kernel[j] = std::abs(z) < 8.0 ? std::exp(-0.5 * z * z) : 0.0;
        }
        double acc = 0;
        for (std::size_t k : slot)
            acc += kernel[k];
        d.at[i] = acc * norm;
    }
    return d;
}

} // namespace

Density
kernelDensity(const std::vector<double> &xs, int points)
{
    return densityOf(xs, summarize(xs), points);
}

Violin
makeViolin(const std::vector<double> &xs, int points)
{
    Violin v;
    v.summary = summarize(xs);
    v.density = densityOf(xs, v.summary, points);
    return v;
}

void
renderViolin(std::ostream &os, const std::string &label, const Violin &v,
             int width, int half_height)
{
    pca_assert(width >= 10 && half_height >= 1);
    const Density &d = v.density;

    // Resample density on 'width' columns.
    std::vector<double> cols(width, 0.0);
    for (int c = 0; c < width; ++c) {
        double frac = static_cast<double>(c) / (width - 1);
        double idx = frac * (static_cast<double>(d.at.size()) - 1);
        auto lo = static_cast<std::size_t>(idx);
        auto hi = std::min(lo + 1, d.at.size() - 1);
        double t = idx - static_cast<double>(lo);
        cols[c] = d.at[lo] + t * (d.at[hi] - d.at[lo]);
    }
    double peak = *std::max_element(cols.begin(), cols.end());
    if (peak <= 0)
        peak = 1;

    os << label << '\n';
    for (int r = half_height; r >= -half_height; --r) {
        std::string row(width, ' ');
        for (int c = 0; c < width; ++c) {
            double h = cols[c] / peak * half_height;
            if (r == 0)
                row[c] = h > 0.05 ? '+' : '-';
            else if (std::abs(r) <= h)
                row[c] = '*';
        }
        os << "  " << row << '\n';
    }

    auto col = [&](double val) {
        double frac = (val - d.lo) / (d.hi - d.lo);
        int c = static_cast<int>(std::lround(frac * (width - 1)));
        return std::clamp(c, 0, width - 1);
    };
    std::string marks(width, ' ');
    marks[col(v.summary.q1)] = '[';
    marks[col(v.summary.q3)] = ']';
    marks[col(v.summary.median)] = '#';
    os << "  " << marks << "   ([ ] quartiles, # median)\n";
    os << "  range [" << fmtDouble(v.summary.min, 1) << ", "
       << fmtDouble(v.summary.max, 1) << "], median "
       << fmtDouble(v.summary.median, 1) << ", IQR "
       << fmtDouble(v.summary.iqr(), 1) << '\n';
}

} // namespace pca::stats
