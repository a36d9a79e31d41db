/**
 * @file
 * Guest data memory: the 64-bit words the simulated program stores,
 * by byte address. An address nothing was stored at reads as 0.
 */

#ifndef PCA_CPU_MEMORY_HH
#define PCA_CPU_MEMORY_HH

#include <cstdint>
#include <vector>

#include "support/types.hh"

namespace pca::cpu
{

/**
 * Sparse guest memory: an open-addressed hash table (linear probing)
 * whose storage survives clear(). A slot holds a word only while its
 * stamp equals the table's generation, so clear() is one increment:
 * a reboot frees and allocates nothing, and a table that grew for one
 * run keeps its size for the next. Stores never delete, so a probe
 * ends at the first slot of another generation. The table doubles
 * once more than half its slots hold words.
 */
class GuestMemory
{
  public:
    GuestMemory() : slots(minSlots) {}

    /** The word at @p addr (0 if none was stored since clear()). */
    std::uint64_t
    load(Addr addr) const
    {
        for (std::size_t i = home(addr);; i = (i + 1) & mask()) {
            const Slot &s = slots[i];
            if (s.gen != gen)
                return 0;
            if (s.addr == addr)
                return s.value;
        }
    }

    /** Store @p value at @p addr. */
    void
    store(Addr addr, std::uint64_t value)
    {
        std::size_t i = home(addr);
        for (; slots[i].gen == gen; i = (i + 1) & mask()) {
            if (slots[i].addr == addr) {
                slots[i].value = value;
                return;
            }
        }
        slots[i] = Slot{addr, value, gen};
        if (++live * 2 > slots.size())
            grow();
    }

    /** Forget every word, keeping the storage. */
    void
    clear()
    {
        live = 0;
        ++gen; // 64 bits: never wraps back to a stamp in use
    }

    /** Words stored since clear(). */
    std::size_t size() const { return live; }

    /** Slots allocated (a power of two; never shrinks). */
    std::size_t capacity() const { return slots.size(); }

  private:
    struct Slot
    {
        Addr addr = 0;
        std::uint64_t value = 0;
        std::uint64_t gen = 0;
    };

    static constexpr std::size_t minSlots = 64;

    std::size_t mask() const { return slots.size() - 1; }

    /** Fibonacci hashing: stack words 8 bytes apart spread evenly. */
    std::size_t
    home(Addr addr) const
    {
        return static_cast<std::size_t>(
                   (addr * 0x9e3779b97f4a7c15ULL) >> 32) &
            mask();
    }

    void
    grow()
    {
        std::vector<Slot> old(slots.size() * 2);
        old.swap(slots);
        for (const Slot &s : old) {
            if (s.gen != gen)
                continue;
            std::size_t i = home(s.addr);
            while (slots[i].gen == gen)
                i = (i + 1) & mask();
            slots[i] = s;
        }
    }

    std::vector<Slot> slots;
    std::uint64_t gen = 1; //!< slots start at 0: none is live
    std::size_t live = 0;
};

} // namespace pca::cpu

#endif // PCA_CPU_MEMORY_HH
