/**
 * @file
 * Unit tests for the PMU: MSR interface, event selects, privilege
 * masks, fixed counters, TSC.
 */

#include <gtest/gtest.h>

#include "cpu/microarch.hh"
#include "cpu/pmu.hh"
#include "support/status.hh"

namespace pca::cpu
{
namespace
{

Pmu
makeK8Pmu()
{
    return Pmu(microArch(Processor::AthlonX2));
}

TEST(PmuTest, CounterCountsMatchTable1)
{
    EXPECT_EQ(Pmu(microArch(Processor::PentiumD)).numProg(), 18);
    EXPECT_EQ(Pmu(microArch(Processor::Core2Duo)).numProg(), 2);
    EXPECT_EQ(Pmu(microArch(Processor::AthlonX2)).numProg(), 4);
    EXPECT_EQ(Pmu(microArch(Processor::Core2Duo)).numFixed(), 3);
    EXPECT_EQ(Pmu(microArch(Processor::AthlonX2)).numFixed(), 0);
}

TEST(PmuTest, EncodeDecodeEvtSel)
{
    const auto sel = Pmu::encodeEvtSel(EventType::BrInstRetired,
                                       PlMask::UserKernel, true);
    EXPECT_TRUE(sel & Pmu::selUsrBit);
    EXPECT_TRUE(sel & Pmu::selOsBit);
    EXPECT_TRUE(sel & Pmu::selEnableBit);
    EXPECT_EQ(Pmu::decodeEvent(sel), EventType::BrInstRetired);
}

TEST(PmuTest, WrmsrConfiguresCounter)
{
    Pmu pmu = makeK8Pmu();
    pmu.wrmsr(Pmu::msrEvtSelBase + 1,
              Pmu::encodeEvtSel(EventType::IcacheMiss, PlMask::User,
                                true));
    const auto &c = pmu.progCounter(1);
    EXPECT_EQ(c.event, EventType::IcacheMiss);
    EXPECT_EQ(c.pl, PlMask::User);
    EXPECT_TRUE(c.enabled);
    EXPECT_FALSE(pmu.progCounter(0).enabled);
}

TEST(PmuTest, RdmsrRoundTrip)
{
    Pmu pmu = makeK8Pmu();
    const auto sel = Pmu::encodeEvtSel(EventType::InstrRetired,
                                       PlMask::Kernel, true);
    pmu.wrmsr(Pmu::msrEvtSelBase, sel);
    EXPECT_EQ(pmu.rdmsr(Pmu::msrEvtSelBase), sel);
    pmu.wrmsr(Pmu::msrPmcBase, 1234);
    EXPECT_EQ(pmu.rdmsr(Pmu::msrPmcBase), 1234u);
}

TEST(PmuTest, CountRespectsEventType)
{
    Pmu pmu = makeK8Pmu();
    pmu.wrmsr(Pmu::msrEvtSelBase,
              Pmu::encodeEvtSel(EventType::InstrRetired,
                                PlMask::UserKernel, true));
    pmu.count(EventType::InstrRetired, Mode::User, 5);
    pmu.count(EventType::BrInstRetired, Mode::User, 3);
    EXPECT_EQ(pmu.rdpmc(0), 5u);
}

TEST(PmuTest, CountRespectsPlMask)
{
    Pmu pmu = makeK8Pmu();
    pmu.wrmsr(Pmu::msrEvtSelBase,
              Pmu::encodeEvtSel(EventType::InstrRetired, PlMask::User,
                                true));
    pmu.wrmsr(Pmu::msrEvtSelBase + 1,
              Pmu::encodeEvtSel(EventType::InstrRetired,
                                PlMask::Kernel, true));
    pmu.wrmsr(Pmu::msrEvtSelBase + 2,
              Pmu::encodeEvtSel(EventType::InstrRetired,
                                PlMask::UserKernel, true));
    pmu.count(EventType::InstrRetired, Mode::User, 10);
    pmu.count(EventType::InstrRetired, Mode::Kernel, 4);
    EXPECT_EQ(pmu.rdpmc(0), 10u);
    EXPECT_EQ(pmu.rdpmc(1), 4u);
    EXPECT_EQ(pmu.rdpmc(2), 14u);
}

TEST(PmuTest, DisabledCounterStaysZero)
{
    Pmu pmu = makeK8Pmu();
    pmu.wrmsr(Pmu::msrEvtSelBase,
              Pmu::encodeEvtSel(EventType::InstrRetired,
                                PlMask::UserKernel, false));
    pmu.count(EventType::InstrRetired, Mode::User, 7);
    EXPECT_EQ(pmu.rdpmc(0), 0u);
}

TEST(PmuTest, StoppingFreezesValue)
{
    Pmu pmu = makeK8Pmu();
    pmu.wrmsr(Pmu::msrEvtSelBase,
              Pmu::encodeEvtSel(EventType::InstrRetired,
                                PlMask::UserKernel, true));
    pmu.count(EventType::InstrRetired, Mode::User, 3);
    pmu.wrmsr(Pmu::msrEvtSelBase,
              Pmu::encodeEvtSel(EventType::InstrRetired,
                                PlMask::UserKernel, false));
    pmu.count(EventType::InstrRetired, Mode::User, 9);
    EXPECT_EQ(pmu.rdpmc(0), 3u);
}

TEST(PmuTest, TscAdvancesWithCycles)
{
    Pmu pmu = makeK8Pmu();
    EXPECT_EQ(pmu.rdtsc(), 0u);
    pmu.addCycles(100, Mode::User);
    pmu.addCycles(50, Mode::Kernel);
    EXPECT_EQ(pmu.rdtsc(), 150u);
}

TEST(PmuTest, CycleEventCountsPerMode)
{
    Pmu pmu = makeK8Pmu();
    pmu.wrmsr(Pmu::msrEvtSelBase,
              Pmu::encodeEvtSel(EventType::CpuClkUnhalted,
                                PlMask::Kernel, true));
    pmu.addCycles(100, Mode::User);
    pmu.addCycles(40, Mode::Kernel);
    EXPECT_EQ(pmu.rdpmc(0), 40u);
}

TEST(PmuTest, FixedCountersOnCore2)
{
    Pmu pmu(microArch(Processor::Core2Duo));
    // Enable fixed counter 0 (instructions) for user+kernel: nibble
    // 0b0011.
    pmu.wrmsr(Pmu::msrFixedCtrCtrl, 0x3);
    pmu.count(EventType::InstrRetired, Mode::User, 6);
    EXPECT_EQ(pmu.rdpmc(Pmu::rdpmcFixedBit | 0), 6u);
    // Fixed counter 1 (cycles) was not enabled.
    pmu.addCycles(10, Mode::User);
    EXPECT_EQ(pmu.rdpmc(Pmu::rdpmcFixedBit | 1), 0u);
}

TEST(PmuTest, WriteCounterValueViaMsr)
{
    Pmu pmu = makeK8Pmu();
    pmu.wrmsr(Pmu::msrPmcBase + 2, 999);
    EXPECT_EQ(pmu.rdpmc(2), 999u);
    pmu.setProgValue(2, 0);
    EXPECT_EQ(pmu.rdpmc(2), 0u);
}

TEST(PmuTest, ResetClearsEverything)
{
    Pmu pmu = makeK8Pmu();
    pmu.wrmsr(Pmu::msrEvtSelBase,
              Pmu::encodeEvtSel(EventType::InstrRetired,
                                PlMask::UserKernel, true));
    pmu.count(EventType::InstrRetired, Mode::User, 3);
    pmu.addCycles(10, Mode::User);
    pmu.reset();
    EXPECT_EQ(pmu.rdpmc(0), 0u);
    EXPECT_EQ(pmu.rdtsc(), 0u);
    EXPECT_FALSE(pmu.progCounter(0).enabled);
}

/** Expects @p fn to throw a StatusError of @p code. */
template <typename Fn>
void
expectStatusError(Fn &&fn, StatusCode code)
{
    try {
        fn();
        ADD_FAILURE() << "no StatusError thrown";
    } catch (const StatusError &e) {
        EXPECT_EQ(e.status().code(), code) << e.what();
    }
}

TEST(PmuTest, BadMsrPanics)
{
    Pmu pmu = makeK8Pmu();
    expectStatusError([&] { pmu.wrmsr(0xdead, 0); },
                      StatusCode::NotFound);
    expectStatusError([&] { pmu.rdmsr(0xdead); }, StatusCode::NotFound);
}

TEST(PmuTest, BadRdpmcPanics)
{
    Pmu pmu = makeK8Pmu();
    expectStatusError([&] { pmu.rdpmc(99); }, StatusCode::NotFound);
    expectStatusError([&] { pmu.rdpmc(Pmu::rdpmcFixedBit | 5); },
                      StatusCode::NotFound);
}

TEST(PmuTest, BadEventIdPanics)
{
    Pmu pmu = makeK8Pmu();
    expectStatusError([&] { pmu.wrmsr(Pmu::msrEvtSelBase, 0xff); },
                      StatusCode::InvalidArgument);
}

TEST(MicroArchTest, Table1Frequencies)
{
    EXPECT_DOUBLE_EQ(microArch(Processor::PentiumD).ghz, 3.0);
    EXPECT_DOUBLE_EQ(microArch(Processor::Core2Duo).ghz, 2.4);
    EXPECT_DOUBLE_EQ(microArch(Processor::AthlonX2).ghz, 2.2);
}

TEST(MicroArchTest, TimerPeriodIsMillisecond)
{
    // HZ=1000: one tick per 1/1000 s.
    const auto &cd = microArch(Processor::Core2Duo);
    EXPECT_EQ(cd.timerPeriodCycles(), 2400000u);
}

TEST(MicroArchTest, ProcessorCodes)
{
    EXPECT_STREQ(processorCode(Processor::PentiumD), "PD");
    EXPECT_STREQ(processorCode(Processor::Core2Duo), "CD");
    EXPECT_STREQ(processorCode(Processor::AthlonX2), "K8");
    EXPECT_EQ(allProcessors().size(), 3u);
}

} // namespace
} // namespace pca::cpu
