/**
 * @file
 * Interface host callbacks (Opcode::HostOp) use to touch simulated
 * architectural state.
 */

#ifndef PCA_ISA_CONTEXT_HH
#define PCA_ISA_CONTEXT_HH

#include <cstdint>

#include "isa/inst.hh"

namespace pca::isa
{

/**
 * The host-side state a core's HostOp callbacks act on (the kernel,
 * for kernel text). Code shared by several machines captures no
 * state of its own: its callbacks find the machine they run on
 * through CpuContext::hostEnv().
 */
class HostEnv
{
  public:
    virtual ~HostEnv() = default;
};

/**
 * Narrow view of the executing core offered to HostOp callbacks.
 *
 * Host callbacks are the simulator's data-plumbing escape hatch: the
 * kernel's syscall dispatch, copying counter values into the harness,
 * and similar stateful work. They carry no architectural cost; the
 * instructions around them model the cost.
 */
class CpuContext
{
  public:
    virtual ~CpuContext() = default;

    /**
     * The host state of the machine this core belongs to (null if
     * none is attached).
     */
    virtual HostEnv *hostEnv() const { return nullptr; }

    /** Read a general-purpose register. */
    virtual std::uint64_t getReg(Reg r) const = 0;

    /** Write a general-purpose register. */
    virtual void setReg(Reg r, std::uint64_t v) = 0;

    /**
     * Redirect execution to the entry of block @p block, an id of
     * the linked program (kernel host ops take theirs from the
     * kernel image, resolved when it was built).
     */
    virtual void jumpTo(int block) = 0;

    /** Current privilege mode. */
    virtual Mode mode() const = 0;

    /** Core cycle counter (for kernel bookkeeping like jiffies). */
    virtual Cycles cycles() const = 0;
};

} // namespace pca::isa

#endif // PCA_ISA_CONTEXT_HH
