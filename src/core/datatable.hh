/**
 * @file
 * Tidy data table: one row per measurement with string-typed factor
 * keys and a numeric response — the shape the paper's R analyses
 * consume. Supports filtering, group-by summaries, ANOVA export,
 * and CSV output.
 */

#ifndef PCA_CORE_DATATABLE_HH
#define PCA_CORE_DATATABLE_HH

#include <ostream>
#include <string>
#include <vector>

#include "stats/anova.hh"

namespace pca::core
{

/** One observation: factor levels plus the response value. */
struct DataRow
{
    std::vector<std::string> keys;
    double value = 0;

    /**
     * Row annotation; empty for a healthy measurement. Degraded
     * factor points (a run that failed even after retries) carry
     * "degraded:<code>:<cause>" here instead of silently vanishing
     * from the table.
     */
    std::string note;

    bool degraded() const { return !note.empty(); }
};

/** A group produced by DataTable::groupBy. */
struct DataGroup
{
    std::vector<std::string> keys; //!< levels of the group columns
    std::vector<double> values;
};

/** Column-named collection of DataRows. */
class DataTable
{
  public:
    /**
     * @param key_columns factor column names
     * @param value_name response column name (for printing/CSV)
     */
    explicit DataTable(std::vector<std::string> key_columns,
                       std::string value_name = "value");

    /** Append one observation. */
    void add(std::vector<std::string> keys, double value);

    /** Append one annotated (typically degraded) observation. */
    void add(std::vector<std::string> keys, double value,
             std::string note);

    /** Rows whose note is non-empty. */
    std::size_t degradedCount() const;

    /** Append all rows of another table (same columns). */
    void append(const DataTable &other);

    std::size_t size() const { return rowStore.size(); }
    bool empty() const { return rowStore.empty(); }
    const std::vector<DataRow> &rows() const { return rowStore; }
    const std::vector<std::string> &keyColumns() const
    {
        return keyCols;
    }

    /** Index of a key column; panics if absent. */
    std::size_t columnIndex(const std::string &name) const;

    /** Rows where @p column equals @p value. */
    DataTable filtered(const std::string &column,
                       const std::string &value) const;

    /** All response values. */
    std::vector<double> values() const;

    /**
     * Group rows by the given columns; groups are ordered by first
     * appearance.
     */
    std::vector<DataGroup>
    groupBy(const std::vector<std::string> &columns) const;

    /** Export as ANOVA observations over the given factor columns. */
    std::vector<stats::Observation>
    toObservations(const std::vector<std::string> &factors) const;

    /**
     * Write all rows as CSV (header first). A trailing "status"
     * column (ok / degraded:...) appears only when some row carries a
     * note, so fault-free output is byte-identical to tables that
     * never heard of degradation.
     */
    void writeCsv(std::ostream &os) const;

  private:
    std::vector<std::string> keyCols;
    std::string valueName;
    std::vector<DataRow> rowStore;
};

} // namespace pca::core

#endif // PCA_CORE_DATATABLE_HH
