/**
 * @file
 * Tests for the data-side memory hierarchy (L1D, unified L2, D-TLB)
 * and the Korn-style micro-benchmarks' analytical event models.
 */

#include <gtest/gtest.h>

#include "harness/machine.hh"
#include "harness/microbench.hh"
#include "harness/session.hh"
#include "isa/assembler.hh"

namespace pca::cpu
{
namespace
{

using harness::AccessPattern;
using harness::ArrayWalkBench;
using harness::CountingMode;
using harness::HarnessConfig;
using harness::HarnessSession;
using harness::Interface;
using harness::LinearBench;
using harness::Machine;
using harness::MachineConfig;
using isa::Assembler;
using isa::Reg;

MachineConfig
quiet(Processor proc = Processor::AthlonX2)
{
    MachineConfig cfg;
    cfg.processor = proc;
    cfg.iface = Interface::Pm;
    cfg.interruptsEnabled = false;
    return cfg;
}

TEST(MemHier, ColdLoadMissesEverything)
{
    Machine m(quiet());
    Assembler a("main");
    a.movImm(Reg::Esi, 0x20000000).load(Reg::Ebx, Reg::Esi, 0).halt();
    m.addUserBlock(a.take());
    m.finalize();
    m.run();
    EXPECT_EQ(m.core().rawEvents(EventType::DcacheMiss, Mode::User),
              1u);
    EXPECT_EQ(m.core().rawEvents(EventType::L2Miss, Mode::User),
              1u + m.core().rawEvents(EventType::IcacheMiss,
                                      Mode::User));
    EXPECT_EQ(m.core().rawEvents(EventType::DtlbMiss, Mode::User),
              1u);
}

TEST(MemHier, WarmLoadHits)
{
    Machine m(quiet());
    Assembler a("main");
    a.movImm(Reg::Esi, 0x20000000)
        .load(Reg::Ebx, Reg::Esi, 0)
        .load(Reg::Ebx, Reg::Esi, 8)  // same line
        .load(Reg::Ebx, Reg::Esi, 32) // same line
        .halt();
    m.addUserBlock(a.take());
    m.finalize();
    m.run();
    EXPECT_EQ(m.core().rawEvents(EventType::DcacheMiss, Mode::User),
              1u);
    EXPECT_EQ(m.core().rawEvents(EventType::DcacheAccess, Mode::User),
              3u);
}

TEST(MemHier, L1MissL2HitAfterEviction)
{
    // K8 L1D: 512 sets, 2 ways, 64B lines. Three lines mapping to
    // the same set evict the first from L1 but it stays in L2.
    Machine m(quiet(Processor::AthlonX2));
    const std::int64_t way_stride = 512 * 64; // one L1 "way" apart
    Assembler a("main");
    a.movImm(Reg::Esi, 0x20000000);
    for (int i = 0; i < 3; ++i)
        a.load(Reg::Ebx, Reg::Esi, i * way_stride);
    a.load(Reg::Ebx, Reg::Esi, 0); // L1 miss (evicted), L2 hit
    a.halt();
    m.addUserBlock(a.take());
    m.finalize();
    m.run();
    EXPECT_EQ(m.core().rawEvents(EventType::DcacheMiss, Mode::User),
              4u);
    // Only the three cold misses reached memory.
    const auto icache_l2 =
        m.core().rawEvents(EventType::IcacheMiss, Mode::User);
    EXPECT_EQ(m.core().rawEvents(EventType::L2Miss, Mode::User),
              3u + icache_l2);
}

TEST(MemHier, DcacheMissPenaltyVisibleInCycles)
{
    auto cycles_for = [](int stride) {
        Machine m(quiet());
        Assembler a("main");
        a.movImm(Reg::Esi, 0x20000000).movImm(Reg::Eax, 0);
        int loop = a.label();
        a.load(Reg::Ebx, Reg::Esi, 0)
            .addImm(Reg::Esi, stride)
            .addImm(Reg::Eax, 1)
            .cmpImm(Reg::Eax, 2000)
            .jne(loop)
            .halt();
        m.addUserBlock(a.take());
        m.finalize();
        return m.run().cycles;
    };
    // A 64-byte stride misses every load; an 8-byte stride one in 8.
    EXPECT_GT(cycles_for(64), cycles_for(8) + 2000u * 12u / 2u);
}

TEST(MemHier, StackTrafficStaysCached)
{
    Machine m(quiet());
    Assembler a("main");
    a.movImm(Reg::Eax, 7);
    for (int i = 0; i < 50; ++i)
        a.push(Reg::Eax).pop(Reg::Ebx);
    a.halt();
    m.addUserBlock(a.take());
    m.finalize();
    m.run();
    // 100 accesses, but only the first touches a cold line.
    EXPECT_EQ(m.core().rawEvents(EventType::DcacheAccess, Mode::User),
              100u);
    EXPECT_LE(m.core().rawEvents(EventType::DcacheMiss, Mode::User),
              2u);
}

TEST(KornModels, LinearBenchInstructionAndIcacheModel)
{
    const LinearBench bench(4096);
    const auto &k8 = microArch(Processor::AthlonX2);
    EXPECT_EQ(bench.expectedInstructions(), 4096u);
    EXPECT_EQ(*bench.expectedEvents(EventType::IcacheMiss, k8), 64u);
    EXPECT_EQ(*bench.expectedEvents(EventType::ItlbMiss, k8), 1u);
    EXPECT_FALSE(
        bench.expectedEvents(EventType::BrInstRetired, k8));
}

TEST(KornModels, ArrayWalkModels)
{
    const auto &k8 = microArch(Processor::AthlonX2);
    const ArrayWalkBench walk(1024, 16);
    EXPECT_EQ(*walk.expectedEvents(EventType::DcacheAccess, k8),
              1024u);
    // 1024 * 16B = 16 KiB = 256 lines = 4 pages.
    EXPECT_EQ(*walk.expectedEvents(EventType::DcacheMiss, k8), 256u);
    EXPECT_EQ(*walk.expectedEvents(EventType::DtlbMiss, k8), 4u);

    const ArrayWalkBench big_stride(64, 4096);
    EXPECT_EQ(*big_stride.expectedEvents(EventType::DcacheMiss, k8),
              64u);
    EXPECT_EQ(*big_stride.expectedEvents(EventType::DtlbMiss, k8),
              64u);
}

TEST(KornModels, MeasuredIcacheMissesMatchLinearModel)
{
    HarnessConfig cfg;
    cfg.processor = Processor::AthlonX2;
    cfg.iface = Interface::Pm;
    cfg.pattern = AccessPattern::ReadRead;
    cfg.mode = CountingMode::User;
    cfg.primaryEvent = EventType::IcacheMiss;
    cfg.interruptsEnabled = false;
    const LinearBench bench(8192);
    const auto m = HarnessSession(cfg, bench).run();
    const auto expected = *bench.expectedEvents(
        EventType::IcacheMiss, microArch(Processor::AthlonX2));
    EXPECT_NEAR(static_cast<double>(m.delta()),
                static_cast<double>(expected), 3.0);
}

TEST(KornModels, MeasuredDcacheMissesMatchWalkModel)
{
    HarnessConfig cfg;
    cfg.processor = Processor::Core2Duo;
    cfg.iface = Interface::Pm;
    cfg.pattern = AccessPattern::ReadRead;
    cfg.mode = CountingMode::User;
    cfg.primaryEvent = EventType::DcacheMiss;
    cfg.interruptsEnabled = false;
    const ArrayWalkBench bench(2048, 64);
    const auto m = HarnessSession(cfg, bench).run();
    EXPECT_NEAR(static_cast<double>(m.delta()), 2048.0, 4.0);
}

TEST(KornModels, MeasuredDtlbMissesMatchWalkModel)
{
    HarnessConfig cfg;
    cfg.processor = Processor::PentiumD;
    cfg.iface = Interface::Pm;
    cfg.pattern = AccessPattern::ReadRead;
    cfg.mode = CountingMode::User;
    cfg.primaryEvent = EventType::DtlbMiss;
    cfg.interruptsEnabled = false;
    const ArrayWalkBench bench(256, 4096);
    const auto m = HarnessSession(cfg, bench).run();
    EXPECT_NEAR(static_cast<double>(m.delta()), 256.0, 3.0);
}

TEST(KornModels, LinearBenchRejectsZero)
{
    EXPECT_THROW(LinearBench(0), std::logic_error);
}

} // namespace
} // namespace pca::cpu
