/**
 * @file
 * Crash-consistent study checkpoints.
 *
 * Long sweeps die — OOM kills, preempted batch slots, ^C — and
 * re-measuring hours of completed points is the expensive way to
 * recover. A StudyCheckpoint appends one JSONL record per completed
 * factor point (fsync'd, CRC32-tagged) to a file named by
 * PCA_CHECKPOINT; a relaunched study with the same identity loads
 * the file, drops any torn tail (a record killed mid-write fails
 * its CRC and is discarded), skips the completed points, and — by
 * construction — emits final tables byte-identical to an
 * uninterrupted run at any thread count: records store exactly what
 * table emission consumes (the %a hex-float value for bit-exact
 * round-trips, the attribution key cells, the degraded note), and
 * emission is point-ordered either way.
 *
 * One file holds every study of an exhibit as a list of sections. A
 * header line opens each: it pins the study name, an identity string
 * (seed, runs, point count, fault plan fingerprint, ...), and the
 * point count. A study loads the records of every section whose
 * header is its own and never another identity's; its own records
 * follow its header, which it appends before its first record unless
 * its section ends the file.
 */

#ifndef PCA_CORE_CHECKPOINT_HH
#define PCA_CORE_CHECKPOINT_HH

#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace pca::core
{

/** One run's outcome, exactly as the study table will emit it. */
struct CheckpointRun
{
    bool ok = false;

    /** Table value (error or cycles); meaningless when !ok. */
    double value = 0.0;

    /** Attribution key cells, in column order; empty when unused. */
    std::vector<std::string> attr;

    /** "degraded:<code>:<cause>" note; empty when ok. */
    std::string note;
};

/** A completed factor point: its runs, in run order. */
using PointRecord = std::vector<CheckpointRun>;

/**
 * Append-only checkpoint for one study invocation. Thread-safe:
 * record() is called from worker threads as points complete (append
 * order varies with scheduling; resume correctness only needs the
 * set, not the order). Every record is one write + flush + fsync,
 * so a SIGKILL can tear at most the final line — which the CRC
 * check drops on load.
 */
class StudyCheckpoint
{
  public:
    /**
     * Open (resuming) or create @p path for @p points points of
     * study @p study under @p identity. The records of every section
     * with a matching header (same study, identity and point count)
     * load; the torn tail (if any) is truncated away. Sections of
     * other identities are kept but not read. A file whose first
     * line is no header warns and restarts the checkpoint from
     * scratch.
     */
    static std::unique_ptr<StudyCheckpoint>
    open(const std::string &path, const std::string &study,
         const std::string &identity, std::size_t points);

    /**
     * open(getenv("PCA_CHECKPOINT"), ..., identity(), ...); null when
     * the variable is unset or empty — the studies' one-liner. The
     * identity is built only when a checkpoint opens.
     */
    static std::unique_ptr<StudyCheckpoint>
    openFromEnv(const std::string &study,
                const std::function<std::string()> &identity,
                std::size_t points);

    ~StudyCheckpoint();

    StudyCheckpoint(const StudyCheckpoint &) = delete;
    StudyCheckpoint &operator=(const StudyCheckpoint &) = delete;

    /** Did a prior invocation complete point @p point? */
    bool completed(std::size_t point) const;

    /** The loaded record for @p point (null unless completed). */
    const PointRecord *get(std::size_t point) const;

    /** Points completed so far (loaded + recorded). */
    std::size_t completedCount() const;

    /**
     * Durably append point @p point's record. Thread-safe;
     * feeds checkpoint_points_written.
     */
    void record(std::size_t point, const PointRecord &rec);

    const std::string &path() const { return filePath; }

  private:
    StudyCheckpoint(std::string path, std::string study,
                    std::string identity, std::size_t points);

    bool loadExisting();

    std::string filePath;
    std::string studyName;
    std::string identity;
    std::size_t numPoints;
    std::FILE *file = nullptr;
    /** Append our header before the next record. */
    bool headerPending = true;
    std::vector<std::optional<PointRecord>> loaded;
    std::size_t doneCount = 0;
    mutable std::mutex mtx;
};

} // namespace pca::core

#endif // PCA_CORE_CHECKPOINT_HH
