/**
 * @file
 * Micro-benchmarks with analytically known event counts (§3.4 of the
 * paper): the null benchmark (zero instructions), the loop benchmark
 * of Figure 3 (1 + 3·MAX instructions), plus an array-walk extension
 * in the spirit of Korn et al.'s cache benchmarks.
 */

#ifndef PCA_HARNESS_MICROBENCH_HH
#define PCA_HARNESS_MICROBENCH_HH

#include <optional>
#include <string>

#include "cpu/event.hh"
#include "cpu/microarch.hh"
#include "isa/assembler.hh"
#include "support/types.hh"

namespace pca::harness
{

/**
 * A benchmark embedded inline in the measurement harness, exactly as
 * the paper embeds gcc inline assembly: the benchmark's instructions
 * become part of the harness code block, so its address depends on
 * everything emitted before it.
 */
class MicroBenchmark
{
  public:
    virtual ~MicroBenchmark() = default;

    virtual std::string name() const = 0;

    /** Emit the benchmark's instructions into the harness block. */
    virtual void emit(isa::Assembler &a) const = 0;

    /**
     * Analytical model of the benchmark's retired user
     * instructions — the ground truth the measured count is
     * compared against.
     */
    virtual Count expectedInstructions() const = 0;

    /**
     * Analytical model for other events where one exists (Korn et
     * al.'s methodology: compare measured cache/TLB events against
     * expected counts). Returns nothing when no model applies.
     * Values are first-execution (cold-cache) expectations and may
     * be off by a line or page at the block boundaries.
     */
    virtual std::optional<Count>
    expectedEvents(cpu::EventType ev, const cpu::MicroArch &arch) const
    {
        if (ev == cpu::EventType::InstrRetired)
            return expectedInstructions();
        (void)arch;
        return std::nullopt;
    }
};

/** Empty block: zero instructions, zero expected events. */
class NullBench : public MicroBenchmark
{
  public:
    std::string name() const override { return "null"; }
    void emit(isa::Assembler &a) const override { (void)a; }
    Count expectedInstructions() const override { return 0; }
};

/**
 * The loop of the paper's Figure 3:
 * @code
 * movl $0, %eax
 * .loop: addl $1, %eax
 *        cmpl $MAX, %eax
 *        jne .loop
 * @endcode
 * Executes exactly 1 + 3·MAX instructions and clobbers EAX.
 */
class LoopBench : public MicroBenchmark
{
  public:
    explicit LoopBench(Count iterations);

    std::string name() const override { return "loop"; }
    void emit(isa::Assembler &a) const override;
    Count expectedInstructions() const override;

    Count iterations() const { return iters; }

  private:
    Count iters;
};

/**
 * Pointer-free array walk: strided loads over a region — Korn et
 * al.'s d-cache/TLB benchmark. Executes 2 + 5·n instructions and
 * touches a predictable set of cache lines and pages.
 */
class ArrayWalkBench : public MicroBenchmark
{
  public:
    ArrayWalkBench(Count elements, int stride_bytes);

    std::string name() const override { return "array-walk"; }
    void emit(isa::Assembler &a) const override;
    Count expectedInstructions() const override;
    std::optional<Count>
    expectedEvents(cpu::EventType ev,
                   const cpu::MicroArch &arch) const override;

    Count bytesTouched() const
    {
        return elements * static_cast<Count>(strideBytes);
    }

  private:
    Count elements;
    int strideBytes;
};

/**
 * Korn et al.'s first micro-benchmark: a linear sequence of @p n
 * single-byte instructions, for estimating L1 instruction cache
 * misses analytically (a cold straight-line run touches
 * n / line-size i-cache lines).
 */
class LinearBench : public MicroBenchmark
{
  public:
    explicit LinearBench(Count instructions);

    std::string name() const override { return "linear"; }
    void emit(isa::Assembler &a) const override;
    Count expectedInstructions() const override { return n; }
    std::optional<Count>
    expectedEvents(cpu::EventType ev,
                   const cpu::MicroArch &arch) const override;

  private:
    Count n;
};

} // namespace pca::harness

#endif // PCA_HARNESS_MICROBENCH_HH
