/**
 * @file
 * Fixed-bin histogram, used by benches for mode detection (Fig 11's
 * bimodal cycle counts) and distribution printing.
 */

#ifndef PCA_STATS_HISTOGRAM_HH
#define PCA_STATS_HISTOGRAM_HH

#include <cstddef>
#include <ostream>
#include <vector>

namespace pca::stats
{

/** Equal-width histogram over [lo, hi]. */
class Histogram
{
  public:
    /** @param bins number of bins (>= 1); [lo, hi] must be nonempty. */
    Histogram(double lo, double hi, std::size_t bins);

    /** Add one observation; out-of-range values clamp to end bins. */
    void add(double x);

    /** Add many observations. */
    void addAll(const std::vector<double> &xs);

    std::size_t count(std::size_t bin) const { return counts.at(bin); }
    std::size_t total() const { return totalCount; }

    /** Centre value of a bin. */
    double binCenter(std::size_t bin) const;

    /**
     * Indexes of local maxima whose count is at least @p min_frac of
     * the total — a crude mode detector for multimodality checks.
     */
    std::vector<std::size_t> modes(double min_frac = 0.05) const;

    /** Print as rows of "center count bar". */
    void print(std::ostream &os, int bar_width = 40) const;

  private:
    double lo, hi;
    std::vector<std::size_t> counts;
    std::size_t totalCount = 0;
};

} // namespace pca::stats

#endif // PCA_STATS_HISTOGRAM_HH
