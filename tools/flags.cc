#include "flags.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <system_error>
#include <utility>

namespace operb::flags {

Flag Heading(std::string text) { return Flag{{}, {}, std::move(text), 0, {}}; }

bool ParseDecimal(std::string_view text, std::uint64_t* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

bool ParseFinite(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0' && std::isfinite(*out);
}

std::string MustBe(std::string_view flag, std::string_view what,
                   const char* value) {
  return std::string(flag) + " must be " + std::string(what) + ", got '" +
         value + "'";
}

Setter String(std::string* out) {
  return [out](std::string_view, const char* value) {
    *out = value;
    return std::string();
  };
}

Setter Switch(bool* out, bool to) {
  return [out, to](std::string_view, const char*) {
    *out = to;
    return std::string();
  };
}

Setter Spec(api::SimplifierSpec* out) {
  return [out](std::string_view, const char* value) -> std::string {
    Result<api::SimplifierSpec> parsed = api::SimplifierSpec::Parse(value);
    if (!parsed.ok()) return parsed.status().ToString();
    *out = std::move(parsed).value();
    return {};
  };
}

Setter Finite(double* out, std::string what, double min) {
  return [=](std::string_view flag, const char* value) -> std::string {
    double v = 0.0;
    if (!ParseFinite(value, &v) || v < min) return MustBe(flag, what, value);
    *out = v;
    return {};
  };
}

Outcome Parse(std::string_view program, std::span<const Flag> table,
              int argc, char** argv, unsigned* seen) {
  const auto fail = [&](const std::string& message) {
    std::fprintf(stderr, "%.*s: %s\n", static_cast<int>(program.size()),
                 program.data(), message.c_str());
    return Outcome::kUsageError;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") return Outcome::kHelp;
    const auto row = std::find_if(table.begin(), table.end(),
                                  [&](const Flag& f) {
                                    return !f.name.empty() && f.name == arg;
                                  });
    if (row == table.end()) {
      return fail("unknown argument '" + std::string(arg) + "'");
    }
    const char* value = nullptr;
    if (!row->value_name.empty()) {
      if (i + 1 >= argc) return fail(row->name + " requires a value");
      value = argv[++i];
    }
    if (const std::string error = row->set(arg, value); !error.empty()) {
      return fail(error);
    }
    *seen |= row->group;
  }
  return Outcome::kRun;
}

void PrintUsage(std::FILE* out, std::string_view title,
                std::span<const Flag> table) {
  // Help text starts in column 24; a longer label is followed by two
  // spaces instead.
  constexpr std::size_t kLabelWidth = 22;
  std::fprintf(out, "%.*s\n", static_cast<int>(title.size()), title.data());
  for (const Flag& flag : table) {
    if (flag.name.empty()) {
      std::fprintf(out, "\n%s\n", flag.help.c_str());
      continue;
    }
    std::string label = flag.name;
    if (!flag.value_name.empty()) label += " " + flag.value_name;
    std::string line = "  " + label;
    line.append(label.size() < kLabelWidth ? kLabelWidth - label.size() : 2,
                ' ');
    for (const char c : flag.help) {
      line += c;
      if (c == '\n') line.append(kLabelWidth + 2, ' ');
    }
    std::fprintf(out, "%s\n", line.c_str());
  }
  std::fprintf(out, "  --help                this text\n");
}

}  // namespace operb::flags
