/**
 * @file
 * Tests for the calibration-based error compensator (§9,
 * Najafzadeh-style null probes made quantitative).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/compensate.hh"
#include "harness/microbench.hh"
#include "harness/session.hh"

namespace pca::core
{
namespace
{

using harness::AccessPattern;
using harness::CountingMode;
using harness::HarnessConfig;
using harness::HarnessSession;
using harness::Interface;
using harness::LoopBench;

HarnessConfig
baseConfig(CountingMode mode = CountingMode::UserKernel)
{
    HarnessConfig cfg;
    cfg.processor = cpu::Processor::Core2Duo;
    cfg.iface = Interface::Pc;
    cfg.pattern = AccessPattern::StartRead;
    cfg.mode = mode;
    cfg.ioInterrupts = false;
    cfg.preemptProb = 0.0;
    return cfg;
}

Compensator::Options
quickOptions()
{
    Compensator::Options opt;
    opt.nullRuns = 7;
    opt.loopSizes = {1000000, 4000000, 8000000};
    opt.runsPerSize = 4;
    return opt;
}

TEST(Compensate, FixedOverheadMatchesNullError)
{
    const auto cfg = baseConfig();
    const auto comp = Compensator::calibrate(cfg, quickOptions());
    // pc start-read u+k on CD: ~200 instructions.
    EXPECT_GT(comp.fixedOverhead(), 100.0);
    EXPECT_LT(comp.fixedOverhead(), 400.0);
}

TEST(Compensate, SlopeMatchesDurationError)
{
    const auto comp =
        Compensator::calibrate(baseConfig(), quickOptions());
    // u+k slope on CD ~ 0.002/iteration = ~0.0007/instruction.
    EXPECT_GT(comp.slopePerInstruction(), 0.0001);
    EXPECT_LT(comp.slopePerInstruction(), 0.003);
}

TEST(Compensate, UserModeSlopeIsZero)
{
    const auto comp = Compensator::calibrate(
        baseConfig(CountingMode::User), quickOptions());
    EXPECT_LT(comp.slopePerInstruction(), 1e-5);
}

TEST(Compensate, CorrectsShortMeasurements)
{
    const auto cfg = baseConfig();
    const auto comp = Compensator::calibrate(cfg, quickOptions());
    HarnessConfig run_cfg = cfg;
    run_cfg.seed = 777;
    const LoopBench bench(5000);
    const auto m = HarnessSession(run_cfg, bench).run();
    const double raw_err = std::abs(
        static_cast<double>(m.delta()) -
        static_cast<double>(m.expected));
    const double comp_err = std::abs(
        comp.compensate(m) - static_cast<double>(m.expected));
    EXPECT_LT(comp_err, raw_err / 3);
    EXPECT_LT(comp_err, 60.0);
}

TEST(Compensate, CorrectsLongMeasurements)
{
    const auto cfg = baseConfig();
    const auto comp = Compensator::calibrate(cfg, quickOptions());
    HarnessConfig run_cfg = cfg;
    run_cfg.seed = 888;
    const LoopBench bench(3000000);
    const auto m = HarnessSession(run_cfg, bench).run();
    const double truth = static_cast<double>(m.expected);
    const double raw_rel =
        std::abs(static_cast<double>(m.delta()) - truth) / truth;
    const double comp_rel =
        std::abs(comp.compensate(m) - truth) / truth;
    EXPECT_LT(comp_rel, raw_rel);
    EXPECT_LT(comp_rel, 0.001); // within 0.1% after compensation
}

TEST(Compensate, WorksAcrossInterfaces)
{
    for (auto iface : {Interface::Pm, Interface::PHpm,
                       Interface::PLpc}) {
        auto cfg = baseConfig();
        cfg.iface = iface;
        const auto comp = Compensator::calibrate(cfg, quickOptions());
        HarnessConfig run_cfg = cfg;
        run_cfg.seed = 999;
        const LoopBench bench(100000);
        const auto m = HarnessSession(run_cfg, bench).run();
        const double comp_err = std::abs(
            comp.compensate(m) - static_cast<double>(m.expected));
        // A single short run sees 0 or 1 timer ticks while the
        // compensator subtracts the *average* interrupt share: the
        // residual is bounded by roughly one tick handler.
        EXPECT_LT(comp_err, 900.0)
            << harness::interfaceCode(iface);
    }
}

TEST(Compensate, RejectsDegenerateOptions)
{
    Compensator::Options opt;
    opt.nullRuns = 1;
    EXPECT_THROW(Compensator::calibrate(baseConfig(), opt),
                 std::logic_error);
}

} // namespace
} // namespace pca::core
