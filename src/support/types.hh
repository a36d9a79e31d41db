/**
 * @file
 * Fundamental scalar types shared across the pca simulator.
 */

#ifndef PCA_SUPPORT_TYPES_HH
#define PCA_SUPPORT_TYPES_HH

#include <cstdint>

namespace pca
{

/** Byte address in the simulated flat address space. */
using Addr = std::uint64_t;

/** Processor clock cycles. */
using Cycles = std::uint64_t;

/** Event counter values (instructions, misses, ...). */
using Count = std::uint64_t;

/** Signed count used for error values (measured - expected). */
using SCount = std::int64_t;

/**
 * Processor privilege level. The paper distinguishes user-mode,
 * kernel-mode, and user+kernel event counting, so the privilege level
 * at which every simulated instruction retires is tracked explicitly.
 */
enum class Mode : std::uint8_t
{
    User,   //!< CPL 3, application code
    Kernel, //!< CPL 0, kernel entry/exit, syscalls, interrupt handlers
};

/**
 * Privilege-level mask attached to a performance counter
 * configuration: which modes the counter counts in (USR/OS bits of
 * the IA32 event-select MSR).
 */
enum class PlMask : std::uint8_t
{
    None = 0,
    User = 1,        //!< count only while CPL = 3
    Kernel = 2,      //!< count only while CPL = 0
    UserKernel = 3,  //!< count in both modes
};

constexpr PlMask
operator|(PlMask a, PlMask b)
{
    return static_cast<PlMask>(static_cast<int>(a) | static_cast<int>(b));
}

/** Does mask @p m include privilege mode @p mode? */
inline bool
plMaskIncludes(PlMask m, Mode mode)
{
    int bit = (mode == Mode::User) ? 1 : 2;
    return (static_cast<int>(m) & bit) != 0;
}

} // namespace pca

#endif // PCA_SUPPORT_TYPES_HH
