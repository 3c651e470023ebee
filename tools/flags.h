// Declarative command-line flags, shared by operb_cli and operb_server.
//
// A tool keeps one defaults-initialised options struct and one table
// with a row per flag: its name, value name, help text, group bits and
// a setter that parses the value into the struct. Parse() applies argv
// in order, so a later flag edits what an earlier one set, and ORs the
// group bits of every applied row into a mask the tool checks its
// cross-flag rules against. PrintUsage() prints the help text from the
// same rows, so the usage text and the parser cannot drift apart.

#ifndef OPERB_TOOLS_FLAGS_H_
#define OPERB_TOOLS_FLAGS_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <string_view>

#include "api/spec.h"

namespace operb::flags {

/// Applies one flag's value to the options struct it was bound to;
/// `value` is nullptr for a switch. Returns "" on success, else the
/// one-line diagnostic Parse() prints after "<program>: ".
using Setter =
    std::function<std::string(std::string_view flag, const char* value)>;

/// One row of a flag table. A row with an empty name is a section
/// heading: PrintUsage() prints its help text and Parse() skips it.
struct Flag {
  std::string name;        ///< e.g. "--zeta"
  std::string value_name;  ///< e.g. "METERS"; empty for a switch
  std::string help;        ///< usage text; each '\n' starts an indented line
  unsigned group = 0;      ///< bits OR-ed into the mask of groups seen
  Setter set;
};

/// A section heading row.
Flag Heading(std::string text);

/// Strict decimal parse: digits only, so no sign, space or overflow
/// (strtoull alone would wrap "-5" to 2^64 - 5).
bool ParseDecimal(std::string_view text, std::uint64_t* out);

/// Strict finite-double parse: the whole string, and no inf or nan.
bool ParseFinite(const char* text, double* out);

/// The diagnostic of a bad value: "FLAG must be WHAT, got 'VALUE'".
std::string MustBe(std::string_view flag, std::string_view what,
                   const char* value);

/// Stores the value as given.
Setter String(std::string* out);

/// A flag without a value; sets `*out = to`.
Setter Switch(bool* out, bool to = true);

/// A whole SimplifierSpec string (README.md "Public API"); the diagnostic
/// is the parser's Status.
Setter Spec(api::SimplifierSpec* out);

/// An integer in [lo, hi]. `what` replaces "an integer in LO..HI" in the
/// diagnostic.
template <typename Int>
Setter Integer(Int* out, std::uint64_t lo, std::uint64_t hi,
               std::string what = {}) {
  if (what.empty()) {
    what = "an integer in " + std::to_string(lo) + ".." + std::to_string(hi);
  }
  return [=](std::string_view flag, const char* value) -> std::string {
    std::uint64_t n = 0;
    if (!ParseDecimal(value, &n) || n < lo || n > hi) {
      return MustBe(flag, what, value);
    }
    *out = static_cast<Int>(n);
    return {};
  };
}

/// A finite double no smaller than `min`; `what` names it in the
/// diagnostic.
Setter Finite(double* out, std::string what,
              double min = std::numeric_limits<double>::lowest());

enum class Outcome { kRun, kHelp, kUsageError };

/// Applies argv[1..argc) to the rows of `table` in order, ORing each
/// applied row's group into `*seen`. `--help` or `-h` stops at once with
/// kHelp. An unknown flag, a missing value or a bad value prints one
/// line, "<program>: ...", to stderr and returns kUsageError.
Outcome Parse(std::string_view program, std::span<const Flag> table,
              int argc, char** argv, unsigned* seen);

/// Prints `title`, then every row of `table` (flag, value name and help
/// aligned in two columns), then the --help row.
void PrintUsage(std::FILE* out, std::string_view title,
                std::span<const Flag> table);

}  // namespace operb::flags

#endif  // OPERB_TOOLS_FLAGS_H_
