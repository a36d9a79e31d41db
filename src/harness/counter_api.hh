/**
 * @file
 * Uniform adapter over the six counter access interfaces, exposing
 * the four operations the access patterns of Table 2 are built from:
 * setup, (reset+)start, read, and stop+read.
 */

#ifndef PCA_HARNESS_COUNTER_API_HH
#define PCA_HARNESS_COUNTER_API_HH

#include <memory>
#include <vector>

#include "cpu/event.hh"
#include "harness/machine.hh"
#include "isa/assembler.hh"
#include "obs/attribution.hh"
#include "support/types.hh"

namespace pca::harness
{

/** Where a read's values land (the harness's c0 / c1 variables). */
struct CaptureSink
{
    std::vector<Count> values;
    Count tsc = 0;
    int captures = 0;

    /**
     * Per slot, the mode x class split latched by the same RDPMC that
     * produced values[slot] (value-consistent: the two deltas between
     * captures agree exactly).
     */
    std::vector<obs::ModeAttrCounts> split;

    /** Primary (slot 0) counter value; 0 if never captured. */
    Count primary() const { return values.empty() ? 0 : values[0]; }

    /** Forget the captures, keeping the buffers for the next run. */
    void
    clear()
    {
        values.clear();
        split.clear();
        tsc = 0;
        captures = 0;
    }
};

/** Counter configuration for one measurement. */
struct ApiConfig
{
    std::vector<cpu::EventType> events; //!< slot 0 = measured event
    PlMask pl = PlMask::UserKernel;
    bool tsc = true; //!< perfctr: include TSC (enables fast reads)
};

/**
 * One measurement interface bound to a Machine. Implementations emit
 * the user-space code of the respective API into the harness block.
 */
class CounterApi
{
  public:
    virtual ~CounterApi() = default;

    /** One-time session setup (open/create/init/program). */
    virtual void emitSetup(isa::Assembler &a) = 0;

    /** Reset counters to zero and start counting. */
    virtual void emitStart(isa::Assembler &a) = 0;

    /** Read without disturbing the counters. */
    virtual void emitRead(isa::Assembler &a, CaptureSink *sink) = 0;

    /** Stop counting, then read the frozen values. */
    virtual void emitStopAndRead(isa::Assembler &a,
                                 CaptureSink *sink) = 0;
};

/** Build the adapter for the machine's configured interface. */
std::unique_ptr<CounterApi> makeCounterApi(Machine &machine,
                                           const ApiConfig &cfg);

} // namespace pca::harness

#endif // PCA_HARNESS_COUNTER_API_HH
