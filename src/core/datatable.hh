/**
 * @file
 * Tidy data table: one row per measurement with string-typed factor
 * keys and a numeric response — the shape the paper's R analyses
 * consume. Stored the way R stores a factor: each key column keeps
 * its levels once, in first-use order, plus one integer code per row;
 * the values sit in one vector and the notes are sparse. Supports
 * filtering, group-by summaries, ANOVA export, and CSV output.
 */

#ifndef PCA_CORE_DATATABLE_HH
#define PCA_CORE_DATATABLE_HH

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "stats/anova.hh"

namespace pca::core
{

/** One observation, materialized: factor levels plus the response. */
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

/** Column-named table of coded factor rows. */
class DataTable
{
  public:
    /**
     * @param key_columns factor column names
     * @param value_name response column name (for printing/CSV)
     */
    explicit DataTable(std::vector<std::string> key_columns,
                       std::string value_name = "value");

    /** Append one observation; a non-empty @p note marks it degraded. */
    void add(const std::vector<std::string> &keys, double value,
             std::string note = {});

    /**
     * Code of @p level in key column @p col, interning it on first
     * use. Interning the level of the previous call costs one string
     * compare.
     */
    std::uint32_t intern(std::size_t col, std::string_view level);

    /** Append one observation given as one intern() code per column. */
    void addCodes(const std::vector<std::uint32_t> &codes, double value,
                  std::string note = {});

    /** Make room for @p n rows in all. */
    void reserve(std::size_t n);

    /** Rows whose note is non-empty. */
    std::size_t degradedCount() const { return notes.size(); }

    /** Append all rows of another table (same columns). */
    void append(const DataTable &other);

    std::size_t size() const { return vals.size(); }
    bool empty() const { return vals.empty(); }
    const std::vector<std::string> &keyColumns() const
    {
        return keyCols;
    }

    /** Index of a key column; panics if absent. */
    std::size_t columnIndex(const std::string &name) const;

    /** Level of key column @p col at row @p row. */
    const std::string &cell(std::size_t row, std::size_t col) const
    {
        return levels[col].names[codes[col][row]];
    }

    /** Response value of row @p row. */
    double value(std::size_t row) const { return vals[row]; }

    /** Every row, materialized in order. */
    std::vector<DataRow> rows() const;

    /** Rows where @p column equals @p value. */
    DataTable filtered(const std::string &column,
                       const std::string &value) const;

    /** All response values. */
    std::vector<double> values() const { return vals; }

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
    /** One key column's levels, each stored once, in first-use order. */
    struct Levels
    {
        std::vector<std::string> names;
        std::map<std::string, std::uint32_t, std::less<>> codeOf;
        std::uint32_t last = 0; //!< intern()'s memo
    };

    std::vector<std::string> keyCols;
    std::string valueName;
    std::vector<Levels> levels;                    //!< per key column
    std::vector<std::vector<std::uint32_t>> codes; //!< per key column
    std::vector<double> vals;
    /** (row, note) of each degraded row, in row order. */
    std::vector<std::pair<std::size_t, std::string>> notes;
};

} // namespace pca::core

#endif // PCA_CORE_DATATABLE_HH
