/**
 * @file
 * Plain-text table formatter bench/paper uses to print paper-style
 * result tables (one row per benchmark).
 */

#ifndef TCFILL_COMMON_TABLE_HH
#define TCFILL_COMMON_TABLE_HH

#include <ostream>
#include <string>
#include <vector>

namespace tcfill
{

/** Builds an aligned text table with a header row and separator. */
class TextTable
{
  public:
    explicit TextTable(std::vector<std::string> header);

    /** Append a data row; must match the header's column count. */
    void addRow(std::vector<std::string> row);

    /** Convenience: format a double with @p prec decimals. */
    static std::string num(double v, int prec = 2);

    /** Format a value as a percentage string, e.g. "17.3%". */
    static std::string pct(double fraction, int prec = 1);

    void print(std::ostream &os) const;

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace tcfill

#endif // TCFILL_COMMON_TABLE_HH
