#include "bench_util/table.hh"

#include <iomanip>
#include <sstream>

namespace persim {

void
TextTable::header(std::vector<std::string> cells)
{
    header_ = std::move(cells);
}

void
TextTable::row(std::vector<std::string> cells)
{
    rows_.push_back(std::move(cells));
}

std::string
TextTable::render() const
{
    std::vector<std::size_t> widths;
    auto widen = [&widths](const std::vector<std::string> &cells) {
        if (cells.size() > widths.size())
            widths.resize(cells.size(), 0);
        for (std::size_t i = 0; i < cells.size(); ++i)
            widths[i] = std::max(widths[i], cells[i].size());
    };
    widen(header_);
    for (const auto &row : rows_)
        widen(row);

    std::ostringstream oss;
    auto emit = [&oss, &widths](const std::vector<std::string> &cells) {
        for (std::size_t i = 0; i < cells.size(); ++i) {
            if (i > 0)
                oss << "  ";
            oss << std::left << std::setw(static_cast<int>(widths[i]))
                << cells[i];
        }
        oss << "\n";
    };
    if (!header_.empty()) {
        emit(header_);
        std::size_t total = 0;
        for (std::size_t i = 0; i < widths.size(); ++i)
            total += widths[i] + (i > 0 ? 2 : 0);
        oss << std::string(total, '-') << "\n";
    }
    for (const auto &row : rows_)
        emit(row);
    return oss.str();
}

std::string
formatDouble(double value, int digits)
{
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(digits) << value;
    return oss.str();
}

std::string
formatRate(double per_second)
{
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(3);
    if (per_second >= 1e6) {
        oss << per_second / 1e6 << " M/s";
    } else if (per_second >= 1e3) {
        oss << per_second / 1e3 << " K/s";
    } else {
        oss << per_second << " /s";
    }
    return oss.str();
}

std::string
formatRate(double count, double seconds)
{
    return seconds > 0.0 ? formatRate(count / seconds) : "-";
}

} // namespace persim
