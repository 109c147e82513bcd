/**
 * @file
 * Fixed-width table rendering for experiment reports.
 */

#ifndef PERSIM_BENCH_UTIL_TABLE_HH
#define PERSIM_BENCH_UTIL_TABLE_HH

#include <string>
#include <vector>

namespace persim {

/** Accumulates rows of cells and renders them column-aligned. */
class TextTable
{
  public:
    /** Set the header row. */
    void header(std::vector<std::string> cells);

    /** Append a data row. */
    void row(std::vector<std::string> cells);

    /** Render with columns padded to their widest cell. */
    std::string render() const;

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format a double with @p digits significant decimal places. */
std::string formatDouble(double value, int digits = 3);

/** Format a rate as "X.XXX M/s" style (K/s and /s below a million). */
std::string formatRate(double per_second);

/** Format @p count per @p seconds as formatRate does; "-" when no time
    was measured. */
std::string formatRate(double count, double seconds);

} // namespace persim

#endif // PERSIM_BENCH_UTIL_TABLE_HH
