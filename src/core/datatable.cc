#include "core/datatable.hh"

#include <algorithm>
#include <unordered_map>

#include "support/logging.hh"
#include "support/strutil.hh"

namespace pca::core
{

DataTable::DataTable(std::vector<std::string> key_columns,
                     std::string value_name)
    : keyCols(std::move(key_columns)), valueName(std::move(value_name)),
      levels(keyCols.size()), codes(keyCols.size())
{
    pca_assert(!keyCols.empty());
}

void
DataTable::add(const std::vector<std::string> &keys, double value,
               std::string note)
{
    if (keys.size() != keyCols.size())
        pca_panic("row has ", keys.size(), " keys, table has ",
                  keyCols.size(), " columns");
    std::vector<std::uint32_t> row;
    for (std::size_t c = 0; c < keys.size(); ++c)
        row.push_back(intern(c, keys[c]));
    addCodes(row, value, std::move(note));
}

std::uint32_t
DataTable::intern(std::size_t col, std::string_view level)
{
    Levels &l = levels[col];
    if (l.last < l.names.size() && l.names[l.last] == level)
        return l.last;
    auto it = l.codeOf.find(level);
    if (it == l.codeOf.end()) {
        it = l.codeOf.emplace(std::string(level), l.names.size()).first;
        l.names.emplace_back(level);
    }
    return l.last = it->second;
}

void
DataTable::addCodes(const std::vector<std::uint32_t> &row, double value,
                    std::string note)
{
    pca_assert(row.size() == keyCols.size());
    for (std::size_t c = 0; c < row.size(); ++c)
        pca_assert(row[c] < levels[c].names.size());
    for (std::size_t c = 0; c < row.size(); ++c)
        codes[c].push_back(row[c]);
    vals.push_back(value);
    if (!note.empty())
        notes.emplace_back(vals.size() - 1, std::move(note));
}

void
DataTable::reserve(std::size_t n)
{
    for (auto &col : codes)
        col.reserve(n);
    vals.reserve(n);
}

void
DataTable::append(const DataTable &other)
{
    pca_assert(other.keyCols == keyCols);
    const std::size_t base = size();
    for (std::size_t c = 0; c < keyCols.size(); ++c) {
        std::vector<std::uint32_t> recode;
        for (const std::string &name : other.levels[c].names)
            recode.push_back(intern(c, name));
        for (std::uint32_t code : other.codes[c])
            codes[c].push_back(recode[code]);
    }
    vals.insert(vals.end(), other.vals.begin(), other.vals.end());
    for (const auto &[row, text] : other.notes)
        notes.emplace_back(base + row, text);
}

std::size_t
DataTable::columnIndex(const std::string &name) const
{
    for (std::size_t i = 0; i < keyCols.size(); ++i)
        if (keyCols[i] == name)
            return i;
    pca_panic("no column named '", name, "'");
}

std::vector<DataRow>
DataTable::rows() const
{
    std::vector<DataRow> out(size());
    for (std::size_t r = 0; r < out.size(); ++r) {
        for (std::size_t c = 0; c < keyCols.size(); ++c)
            out[r].keys.push_back(cell(r, c));
        out[r].value = vals[r];
    }
    for (const auto &[row, text] : notes)
        out[row].note = text;
    return out;
}

DataTable
DataTable::filtered(const std::string &column,
                    const std::string &value) const
{
    const std::size_t idx = columnIndex(column);
    DataTable out(keyCols, valueName);
    out.levels = levels;
    const auto it = levels[idx].codeOf.find(value);
    if (it == levels[idx].codeOf.end())
        return out;

    std::vector<std::size_t> keep;
    keep.reserve(size());
    for (std::size_t r = 0; r < size(); ++r)
        if (codes[idx][r] == it->second)
            keep.push_back(r);
    for (std::size_t c = 0; c < keyCols.size(); ++c) {
        out.codes[c].resize(keep.size());
        for (std::size_t k = 0; k < keep.size(); ++k)
            out.codes[c][k] = codes[c][keep[k]];
    }
    out.vals.resize(keep.size());
    for (std::size_t k = 0; k < keep.size(); ++k)
        out.vals[k] = vals[keep[k]];
    // Both lists are sorted, so one merge finds the kept notes.
    auto k = keep.begin();
    for (const auto &[row, text] : notes) {
        k = std::lower_bound(k, keep.end(), row);
        if (k != keep.end() && *k == row)
            out.notes.emplace_back(
                static_cast<std::size_t>(k - keep.begin()), text);
    }
    return out;
}

std::vector<DataGroup>
DataTable::groupBy(const std::vector<std::string> &columns) const
{
    // Number the distinct code prefixes one column at a time; each
    // pass hands out ids in first-appearance order, so the last
    // pass's ids are the groups' first-appearance ranks.
    std::vector<std::uint32_t> gid(size(), 0);
    std::vector<std::size_t> idx;
    for (const auto &name : columns) {
        idx.push_back(columnIndex(name));
        std::unordered_map<std::uint64_t, std::uint32_t> ids;
        for (std::size_t r = 0; r < size(); ++r) {
            const std::uint64_t key =
                std::uint64_t{gid[r]} << 32 | codes[idx.back()][r];
            gid[r] = ids.try_emplace(key, ids.size()).first->second;
        }
    }

    std::vector<DataGroup> groups;
    for (std::size_t r = 0; r < size(); ++r) {
        if (gid[r] == groups.size()) {
            DataGroup g;
            for (std::size_t c : idx)
                g.keys.push_back(cell(r, c));
            groups.push_back(std::move(g));
        }
        groups[gid[r]].values.push_back(vals[r]);
    }
    return groups;
}

std::vector<stats::Observation>
DataTable::toObservations(const std::vector<std::string> &factors) const
{
    std::vector<std::size_t> idx;
    for (const auto &f : factors)
        idx.push_back(columnIndex(f));

    std::vector<stats::Observation> out(size());
    for (std::size_t r = 0; r < out.size(); ++r) {
        out[r].response = vals[r];
        for (std::size_t c : idx)
            out[r].levels.push_back(cell(r, c));
    }
    return out;
}

void
DataTable::writeCsv(std::ostream &os) const
{
    const bool annotated = !notes.empty();
    os << join(keyCols, ",") << ',' << valueName;
    if (annotated)
        os << ",status";
    os << '\n';
    auto next_note = notes.begin();
    std::string line;
    for (std::size_t r = 0; r < size(); ++r) {
        line.clear();
        for (std::size_t c = 0; c < keyCols.size(); ++c)
            line.append(cell(r, c)).push_back(',');
        line += fmtDouble(vals[r], 6);
        if (annotated) {
            line.push_back(',');
            if (next_note != notes.end() && next_note->first == r)
                line += (next_note++)->second;
            else
                line += "ok";
        }
        line.push_back('\n');
        os << line;
    }
}

} // namespace pca::core
