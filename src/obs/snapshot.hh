/**
 * @file
 * Live SPC snapshot export: the software performance counter block
 * published to a small mmap'd file that an external reader can poll
 * while the simulator runs — the Open MPI SPC mmap idiom. Torn reads
 * are prevented seqlock-style: the writer bumps a sequence word to
 * odd before touching the body and to even after; a reader retries
 * until it sees the same even sequence on both sides of its copy.
 * The file is versioned so future layouts (the planned pca_serve
 * daemon) can evolve without breaking old readers.
 */

#ifndef PCA_OBS_SNAPSHOT_HH
#define PCA_OBS_SNAPSHOT_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "support/status.hh"
#include "support/types.hh"

namespace pca::obs
{

/** On-disk layout constants (layout version 1). */
namespace snapfmt
{
constexpr char magic[8] = {'P', 'C', 'A', 'S', 'P', 'C', '1', '\0'};
constexpr std::uint32_t layoutVersion = 1;
constexpr std::size_t nameBytes = 32;

struct Header
{
    char magic[8];
    std::uint32_t version;
    std::uint32_t numCounters;
    std::uint64_t seq;       //!< seqlock word (odd = write in flight)
    std::uint64_t publishes; //!< total publish() calls
    char pad[32];            //!< reserved; keeps the body 64B-aligned
};

struct Record
{
    char name[nameBytes];
    std::uint64_t value;
};
} // namespace snapfmt

/** One decoded snapshot. */
struct SpcSnapshot
{
    std::uint64_t seq = 0;
    std::uint64_t publishes = 0;
    std::vector<std::pair<std::string, Count>> counters;
};

/**
 * Creates (or truncates) the snapshot file sized for @p num_counters
 * records and publishes into it. Single writer; any number of
 * concurrent readers.
 */
class SpcSnapshotWriter
{
  public:
    /** Fatals if the file cannot be created or mapped. */
    SpcSnapshotWriter(const std::string &path,
                      std::size_t num_counters);
    ~SpcSnapshotWriter();

    SpcSnapshotWriter(const SpcSnapshotWriter &) = delete;
    SpcSnapshotWriter &operator=(const SpcSnapshotWriter &) = delete;

    /** Publish the current values of all SPC counters. */
    void publish();

    /**
     * Publish arbitrary (name, value) rows — the torn-read test's
     * entry point. @p values must hold numCounters() entries.
     */
    void publishValues(const std::vector<std::string> &names,
                       const std::vector<Count> &values);

    std::size_t numCounters() const { return nCounters; }
    const std::string &path() const { return filePath; }

  private:
    std::string filePath;
    std::size_t nCounters;
    int fd = -1;
    void *mem = nullptr;
    std::size_t mapLen = 0;
    std::uint64_t publishCount = 0;
};

/**
 * Maps an existing snapshot file read-only and takes torn-free
 * copies of it.
 */
class SpcSnapshotReader
{
  public:
    ~SpcSnapshotReader();

    SpcSnapshotReader() = default;
    SpcSnapshotReader(const SpcSnapshotReader &) = delete;
    SpcSnapshotReader &operator=(const SpcSnapshotReader &) = delete;

    /** Map @p path; fails on missing file or bad magic/version. */
    Status open(const std::string &path);

    /**
     * One consistent snapshot. Retries while a write is in flight;
     * fails with Unavailable if the writer never quiesces within the
     * retry budget.
     */
    StatusOr<SpcSnapshot> read() const;

  private:
    int fd = -1;
    void *mem = nullptr;
    std::size_t mapLen = 0;
    std::size_t nCounters = 0;
};

} // namespace pca::obs

#endif // PCA_OBS_SNAPSHOT_HH
