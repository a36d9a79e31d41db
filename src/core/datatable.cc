#include "core/datatable.hh"

#include <map>

#include "support/logging.hh"
#include "support/strutil.hh"

namespace pca::core
{

DataTable::DataTable(std::vector<std::string> key_columns,
                     std::string value_name)
    : keyCols(std::move(key_columns)), valueName(std::move(value_name))
{
    pca_assert(!keyCols.empty());
}

void
DataTable::add(std::vector<std::string> keys, double value)
{
    add(std::move(keys), value, std::string());
}

void
DataTable::add(std::vector<std::string> keys, double value,
               std::string note)
{
    if (keys.size() != keyCols.size())
        pca_panic("row has ", keys.size(), " keys, table has ",
                  keyCols.size(), " columns");
    rowStore.push_back({std::move(keys), value, std::move(note)});
}

std::size_t
DataTable::degradedCount() const
{
    std::size_t n = 0;
    for (const auto &row : rowStore)
        n += row.degraded() ? 1 : 0;
    return n;
}

void
DataTable::append(const DataTable &other)
{
    pca_assert(other.keyCols == keyCols);
    rowStore.insert(rowStore.end(), other.rowStore.begin(),
                    other.rowStore.end());
}

std::size_t
DataTable::columnIndex(const std::string &name) const
{
    for (std::size_t i = 0; i < keyCols.size(); ++i)
        if (keyCols[i] == name)
            return i;
    pca_panic("no column named '", name, "'");
}

DataTable
DataTable::filtered(const std::string &column,
                    const std::string &value) const
{
    const std::size_t idx = columnIndex(column);
    DataTable out(keyCols, valueName);
    for (const auto &row : rowStore)
        if (row.keys[idx] == value)
            out.rowStore.push_back(row);
    return out;
}

std::vector<double>
DataTable::values() const
{
    std::vector<double> out;
    out.reserve(rowStore.size());
    for (const auto &row : rowStore)
        out.push_back(row.value);
    return out;
}

std::vector<DataGroup>
DataTable::groupBy(const std::vector<std::string> &columns) const
{
    std::vector<std::size_t> idx;
    idx.reserve(columns.size());
    for (const auto &c : columns)
        idx.push_back(columnIndex(c));

    std::vector<DataGroup> groups;
    std::map<std::vector<std::string>, std::size_t> seen;
    for (const auto &row : rowStore) {
        std::vector<std::string> key;
        key.reserve(idx.size());
        for (std::size_t i : idx)
            key.push_back(row.keys[i]);
        auto it = seen.find(key);
        if (it == seen.end()) {
            seen.emplace(key, groups.size());
            groups.push_back({key, {row.value}});
        } else {
            groups[it->second].values.push_back(row.value);
        }
    }
    return groups;
}

std::vector<stats::Observation>
DataTable::toObservations(const std::vector<std::string> &factors) const
{
    std::vector<std::size_t> idx;
    for (const auto &f : factors)
        idx.push_back(columnIndex(f));

    std::vector<stats::Observation> out;
    out.reserve(rowStore.size());
    for (const auto &row : rowStore) {
        stats::Observation obs;
        obs.response = row.value;
        for (std::size_t i : idx)
            obs.levels.push_back(row.keys[i]);
        out.push_back(std::move(obs));
    }
    return out;
}

void
DataTable::writeCsv(std::ostream &os) const
{
    const bool annotated = degradedCount() > 0;
    os << join(keyCols, ",") << ',' << valueName;
    if (annotated)
        os << ",status";
    os << '\n';
    for (const auto &row : rowStore) {
        os << join(row.keys, ",") << ',' << fmtDouble(row.value, 6);
        if (annotated)
            os << ',' << (row.degraded() ? row.note : "ok");
        os << '\n';
    }
}

} // namespace pca::core
