/**
 * @file
 * Unit tests for the statistics module: descriptive stats, box/violin
 * summaries, regression, special functions, ANOVA, histogram.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>

#include "stats/anova.hh"
#include "stats/boxplot.hh"
#include "stats/descriptive.hh"
#include "stats/distributions.hh"
#include "stats/histogram.hh"
#include "stats/regression.hh"
#include "stats/violin.hh"
#include "support/random.hh"

namespace pca::stats
{
namespace
{

TEST(Descriptive, MeanAndVariance)
{
    const std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
    EXPECT_DOUBLE_EQ(mean(xs), 5.0);
    EXPECT_NEAR(variance(xs), 32.0 / 7.0, 1e-12);
    EXPECT_NEAR(stddev(xs), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Descriptive, VarianceOfSingletonIsZero)
{
    EXPECT_DOUBLE_EQ(variance({42.0}), 0.0);
}

TEST(Descriptive, MedianOddEven)
{
    EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
    EXPECT_DOUBLE_EQ(median({4, 1, 2, 3}), 2.5);
}

TEST(Descriptive, QuantileType7MatchesR)
{
    // R: quantile(c(1,2,3,4), c(.25,.5,.75)) -> 1.75 2.50 3.25
    std::vector<double> xs{1, 2, 3, 4};
    EXPECT_NEAR(quantile(xs, 0.25), 1.75, 1e-12);
    EXPECT_NEAR(quantile(xs, 0.50), 2.50, 1e-12);
    EXPECT_NEAR(quantile(xs, 0.75), 3.25, 1e-12);
}

TEST(Descriptive, QuantileEndpoints)
{
    std::vector<double> xs{5, 1, 9};
    EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 9.0);
}

TEST(Descriptive, SummaryFields)
{
    const std::vector<double> xs{1, 2, 3, 4, 100};
    const Summary s = summarize(xs);
    EXPECT_EQ(s.n, 5u);
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 100.0);
    EXPECT_DOUBLE_EQ(s.median, 3.0);
    EXPECT_DOUBLE_EQ(s.iqr(), s.q3 - s.q1);
    EXPECT_DOUBLE_EQ(s.mean, 22.0);
}

/**
 * summarize() sorts one copy for all three quantiles: each equals
 * quantile() called alone, bit for bit, on samples of error-like
 * integers with many ties (duplicate order statistics put the
 * interpolation between equal and unequal neighbours).
 */
TEST(Descriptive, OneSortSummaryEqualsPerCallQuantiles)
{
    Rng rng(29);
    for (const std::size_t n : {1, 2, 3, 4, 5, 7, 12, 101, 1000}) {
        std::vector<double> xs;
        for (std::size_t i = 0; i < n; ++i)
            xs.push_back(static_cast<double>(rng.nextBelow(7)) * 50 +
                         (rng.nextBelow(10) == 0 ? 1e4 : 0));
        SCOPED_TRACE("n=" + std::to_string(n));
        const Summary s = summarize(xs);
        EXPECT_EQ(s.q1, quantile(xs, 0.25));
        EXPECT_EQ(s.median, quantile(xs, 0.5));
        EXPECT_EQ(s.q3, quantile(xs, 0.75));
        EXPECT_EQ(s.min, minOf(xs));
        EXPECT_EQ(s.max, maxOf(xs));
        // The violin reuses that summary for its density.
        const Violin v = makeViolin(xs);
        EXPECT_EQ(v.summary.q1, s.q1);
        EXPECT_EQ(v.summary.median, s.median);
        EXPECT_EQ(v.summary.q3, s.q3);
        EXPECT_EQ(v.density.at, kernelDensity(xs).at);
        EXPECT_EQ(v.density.bandwidth, kernelDensity(xs).bandwidth);
    }
}

TEST(Descriptive, EmptySamplePanics)
{
    EXPECT_THROW(mean({}), std::logic_error);
    EXPECT_THROW(summarize({}), std::logic_error);
}

TEST(BoxPlotTest, WhiskersAndOutliers)
{
    // Q1=2, Q3=4, IQR=2 -> fences at -1 and 7; 100 is an outlier.
    const std::vector<double> xs{1, 2, 3, 4, 5, 100};
    const BoxPlot bp = makeBoxPlot(xs);
    EXPECT_DOUBLE_EQ(bp.whiskerLo, 1.0);
    EXPECT_DOUBLE_EQ(bp.whiskerHi, 5.0);
    ASSERT_EQ(bp.outliers.size(), 1u);
    EXPECT_DOUBLE_EQ(bp.outliers[0], 100.0);
}

TEST(BoxPlotTest, NoOutliersForTightData)
{
    const BoxPlot bp = makeBoxPlot({1, 2, 3, 4, 5});
    EXPECT_TRUE(bp.outliers.empty());
    EXPECT_DOUBLE_EQ(bp.whiskerLo, 1.0);
    EXPECT_DOUBLE_EQ(bp.whiskerHi, 5.0);
}

TEST(BoxPlotTest, RenderProducesRowPerBox)
{
    std::ostringstream os;
    renderBoxPlots(os, {"a", "b"},
                   {makeBoxPlot({1, 2, 3}), makeBoxPlot({2, 3, 4})});
    int lines = 0;
    for (char c : os.str())
        lines += c == '\n';
    EXPECT_GE(lines, 3); // two rows + axis
}

TEST(ViolinTest, DensityIntegratesToOne)
{
    Rng r(3);
    std::vector<double> xs;
    for (int i = 0; i < 500; ++i)
        xs.push_back(r.nextGaussian() * 10 + 50);
    const Density d = kernelDensity(xs, 256);
    const double step = (d.hi - d.lo) / (d.at.size() - 1.0);
    double integral = 0;
    for (double v : d.at)
        integral += v * step;
    EXPECT_NEAR(integral, 1.0, 0.05);
}

TEST(ViolinTest, PeakNearMode)
{
    Rng r(4);
    std::vector<double> xs;
    for (int i = 0; i < 2000; ++i)
        xs.push_back(r.nextGaussian() + 7.0);
    const Density d = kernelDensity(xs, 256);
    std::size_t best = 0;
    for (std::size_t i = 1; i < d.at.size(); ++i)
        if (d.at[i] > d.at[best])
            best = i;
    const double step = (d.hi - d.lo) / (d.at.size() - 1.0);
    EXPECT_NEAR(d.lo + best * step, 7.0, 0.5);
}

/**
 * The grid sums as one exp() per sample, skipping tails beyond 8
 * bandwidths: the reference kernelDensity must match bit for bit.
 */
std::vector<double>
perSampleDensity(const std::vector<double> &xs, const Density &d)
{
    const double bw = d.bandwidth;
    const double step = (d.hi - d.lo) / (d.at.size() - 1.0);
    const double norm = 1.0
        / (static_cast<double>(xs.size()) * bw * std::sqrt(2.0 * M_PI));
    std::vector<double> at(d.at.size());
    for (std::size_t i = 0; i < at.size(); ++i) {
        double g = d.lo + static_cast<int>(i) * step;
        double acc = 0;
        for (double x : xs) {
            double z = (g - x) / bw;
            if (std::abs(z) < 8.0)
                acc += std::exp(-0.5 * z * z);
        }
        at[i] = acc * norm;
    }
    return at;
}

void
expectBitIdentical(const std::vector<double> &xs)
{
    const Density d = kernelDensity(xs);
    const std::vector<double> ref = perSampleDensity(xs, d);
    ASSERT_EQ(ref.size(), d.at.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
        EXPECT_EQ(std::memcmp(&ref[i], &d.at[i], sizeof(double)), 0)
            << "grid point " << i << ": " << ref[i] << " vs "
            << d.at[i];
}

TEST(ViolinTest, BulkDensityMatchesPerSampleSumsWithDuplicates)
{
    // Error counts: a few values, repeated in no particular order.
    expectBitIdentical({5, 3, 5, 1200, 3, 3, 7, 5, 1200, 40, 3, 7, 5});
    Rng r(9);
    std::vector<double> xs;
    for (int i = 0; i < 3000; ++i)
        xs.push_back(static_cast<double>(r.nextBelow(50) * 37 % 211));
    expectBitIdentical(xs);
}

TEST(ViolinTest, BulkDensityMatchesPerSampleSumsOnOneValue)
{
    expectBitIdentical({7, 7, 7, 7, 7});
    expectBitIdentical({-0.0, 0.0, -0.0});
}

TEST(ViolinTest, BulkDensityMatchesPerSampleSumsBeyondEightBandwidths)
{
    // Two far clusters: most grid points see only skipped tails.
    expectBitIdentical({0, 0, 1, 1, 2, 1e6, 1e6 + 1, 1e6, 1e6 + 2});
    // A degraded run's NaN adds nothing, as before.
    expectBitIdentical(
        {4, 4, 5, std::numeric_limits<double>::quiet_NaN(), 5, 9});
}

TEST(ViolinTest, RenderRuns)
{
    std::ostringstream os;
    renderViolin(os, "demo", makeViolin({1, 2, 2, 3, 3, 3, 4, 9}));
    EXPECT_NE(os.str().find("demo"), std::string::npos);
    EXPECT_NE(os.str().find("median"), std::string::npos);
}

TEST(Regression, ExactLine)
{
    std::vector<double> xs, ys;
    for (int i = 0; i < 10; ++i) {
        xs.push_back(i);
        ys.push_back(3.0 * i + 2.0);
    }
    const LinearFit f = linearFit(xs, ys);
    EXPECT_NEAR(f.slope, 3.0, 1e-12);
    EXPECT_NEAR(f.intercept, 2.0, 1e-12);
    EXPECT_NEAR(f.r2, 1.0, 1e-12);
}

TEST(Regression, NoisyLineRecoversSlope)
{
    Rng r(5);
    std::vector<double> xs, ys;
    for (int i = 0; i < 2000; ++i) {
        const double x = r.nextDouble() * 1e6;
        xs.push_back(x);
        ys.push_back(0.002 * x + r.nextGaussian() * 50.0);
    }
    const LinearFit f = linearFit(xs, ys);
    EXPECT_NEAR(f.slope, 0.002, 2e-5);
    EXPECT_GT(f.r2, 0.95);
}

TEST(Regression, FlatLine)
{
    const LinearFit f = linearFit({1, 2, 3, 4}, {5, 5, 5, 5});
    EXPECT_DOUBLE_EQ(f.slope, 0.0);
    EXPECT_DOUBLE_EQ(f.intercept, 5.0);
}

TEST(Regression, RejectsDegenerateInput)
{
    EXPECT_THROW(linearFit({1}, {2}), std::logic_error);
    EXPECT_THROW(linearFit({2, 2, 2}, {1, 2, 3}), std::logic_error);
}

TEST(Distributions, LogGammaKnownValues)
{
    EXPECT_NEAR(logGamma(1.0), 0.0, 1e-10);
    EXPECT_NEAR(logGamma(2.0), 0.0, 1e-10);
    EXPECT_NEAR(logGamma(5.0), std::log(24.0), 1e-9);
    EXPECT_NEAR(logGamma(0.5), std::log(std::sqrt(M_PI)), 1e-9);
}

TEST(Distributions, IncompleteBetaEdges)
{
    EXPECT_DOUBLE_EQ(incompleteBeta(2, 3, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(incompleteBeta(2, 3, 1.0), 1.0);
    // I_x(1,1) = x.
    EXPECT_NEAR(incompleteBeta(1, 1, 0.37), 0.37, 1e-10);
}

TEST(Distributions, IncompleteBetaSymmetry)
{
    // I_x(a,b) = 1 - I_{1-x}(b,a).
    const double v = incompleteBeta(2.5, 4.0, 0.3);
    EXPECT_NEAR(v, 1.0 - incompleteBeta(4.0, 2.5, 0.7), 1e-10);
}

TEST(Distributions, FCdfKnownValues)
{
    // F(1,1): P(F <= 1) = 0.5.
    EXPECT_NEAR(fCdf(1.0, 1, 1), 0.5, 1e-9);
    // Median of F(d,d) is 1 for any d.
    EXPECT_NEAR(fCdf(1.0, 10, 10), 0.5, 1e-9);
    // R: pf(4.0, 3, 20) ~ 0.97778.
    EXPECT_NEAR(fCdf(4.0, 3, 20), 0.97778, 2e-4);
}

TEST(Distributions, SurvivalComplementsCdf)
{
    EXPECT_NEAR(fCdf(2.5, 4, 30) + fSf(2.5, 4, 30), 1.0, 1e-12);
}

TEST(Distributions, StudentTMatchesNormalForLargeDof)
{
    EXPECT_NEAR(tCdf(1.96, 1e6), normalCdf(1.96), 1e-4);
    EXPECT_NEAR(tCdf(0.0, 7), 0.5, 1e-12);
}

TEST(Distributions, NormalCdfKnownValues)
{
    EXPECT_NEAR(normalCdf(0.0), 0.5, 1e-12);
    EXPECT_NEAR(normalCdf(1.6448536), 0.95, 1e-6);
}

std::vector<Observation>
syntheticAnovaData()
{
    // Factor A strongly shifts the response; factor B does nothing.
    Rng r(99);
    std::vector<Observation> data;
    for (const char *a : {"a0", "a1", "a2"}) {
        for (const char *b : {"b0", "b1"}) {
            for (int rep = 0; rep < 40; ++rep) {
                Observation obs;
                obs.levels = {a, b};
                double base = a[1] == '0' ? 0 : (a[1] == '1' ? 50 : 90);
                obs.response = base + r.nextGaussian() * 3.0;
                data.push_back(obs);
            }
        }
    }
    return data;
}

TEST(Anova, DetectsSignificantFactor)
{
    const auto res = anova({"A", "B"}, syntheticAnovaData());
    EXPECT_TRUE(res.significant("A"));
    EXPECT_LT(res.factors[0].pValue, 1e-10);
}

TEST(Anova, IgnoresIrrelevantFactor)
{
    const auto res = anova({"A", "B"}, syntheticAnovaData());
    EXPECT_FALSE(res.significant("B"));
    EXPECT_GT(res.factors[1].pValue, 0.01);
}

TEST(Anova, DegreesOfFreedomAddUp)
{
    const auto data = syntheticAnovaData();
    const auto res = anova({"A", "B"}, data);
    std::size_t dof = res.residualDof;
    for (const auto &row : res.factors)
        dof += row.dof;
    EXPECT_EQ(dof, data.size() - 1);
}

TEST(Anova, SumOfSquaresPartition)
{
    const auto res = anova({"A", "B"}, syntheticAnovaData());
    double explained = res.residualSumSq;
    for (const auto &row : res.factors)
        explained += row.sumSq;
    // Main effects + residual == total for balanced designs.
    EXPECT_NEAR(explained, res.totalSumSq,
                1e-6 * res.totalSumSq + 1e-6);
}

TEST(Anova, UnknownFactorPanics)
{
    const auto res = anova({"A", "B"}, syntheticAnovaData());
    EXPECT_THROW(res.significant("Z"), std::logic_error);
}

TEST(Anova, PrintContainsFactors)
{
    std::ostringstream os;
    anova({"A", "B"}, syntheticAnovaData()).print(os);
    EXPECT_NE(os.str().find("A"), std::string::npos);
    EXPECT_NE(os.str().find("Residuals"), std::string::npos);
    EXPECT_NE(os.str().find("Pr(>F)"), std::string::npos);
}

TEST(HistogramTest, CountsAndCenters)
{
    Histogram h(0, 10, 10);
    h.addAll({0.5, 1.5, 1.6, 9.9});
    EXPECT_EQ(h.total(), 4u);
    EXPECT_EQ(h.count(0), 1u);
    EXPECT_EQ(h.count(1), 2u);
    EXPECT_EQ(h.count(9), 1u);
    EXPECT_NEAR(h.binCenter(0), 0.5, 1e-12);
}

TEST(HistogramTest, ClampsOutOfRange)
{
    Histogram h(0, 10, 5);
    h.add(-5);
    h.add(25);
    EXPECT_EQ(h.count(0), 1u);
    EXPECT_EQ(h.count(4), 1u);
}

TEST(HistogramTest, DetectsBimodality)
{
    Histogram h(0, 100, 20);
    Rng r(42);
    for (int i = 0; i < 500; ++i) {
        h.add(20 + r.nextGaussian() * 2);
        h.add(70 + r.nextGaussian() * 2);
    }
    const auto modes = h.modes(0.05);
    EXPECT_EQ(modes.size(), 2u);
}

TEST(HistogramTest, SingleModeForUnimodalData)
{
    Histogram h(0, 100, 20);
    Rng r(43);
    for (int i = 0; i < 1000; ++i)
        h.add(50 + r.nextGaussian() * 3);
    EXPECT_EQ(h.modes(0.05).size(), 1u);
}

} // namespace
} // namespace pca::stats
