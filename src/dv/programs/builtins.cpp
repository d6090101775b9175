#include "dv/programs/builtins.h"

#include <fstream>
#include <sstream>

#include "common/check.h"

namespace deltav::dv::programs {

bool program_is_path(const std::string& program) {
  if (program.find('/') != std::string::npos) return true;
  return program.size() > 3 &&
         program.compare(program.size() - 3, 3, ".dv") == 0;
}

const char* builtin_program_source(const std::string& name) {
  for (const auto& p : kBuiltinPrograms)
    if (name == p.name) return p.source;
  std::ostringstream names;
  for (const auto& p : kBuiltinPrograms)
    names << (&p == kBuiltinPrograms.data() ? "" : ", ") << p.name;
  DV_FAIL("unknown built-in program '" << name << "' (try " << names.str()
                                       << ")");
}

std::string load_program_source(const std::string& program) {
  DV_CHECK_MSG(!program.empty(), "empty program spec");
  if (!program_is_path(program)) return builtin_program_source(program);
  std::ifstream in(program);
  DV_CHECK_MSG(in.good(), "cannot open ΔV source '" << program << "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::map<std::string, Value> parse_params(const std::string& spec) {
  std::map<std::string, Value> params;
  std::istringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    const auto eq = item.find('=');
    DV_CHECK_MSG(eq != std::string::npos && eq > 0,
                 "params expect name=value, got '" << item << "'");
    const std::string name = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    std::size_t used = 0;
    try {
      if (value.find('.') != std::string::npos) {
        params[name] = Value::of_float(std::stod(value, &used));
      } else {
        params[name] = Value::of_int(std::stoll(value, &used));
      }
    } catch (const std::logic_error&) {
      used = 0;
    }
    DV_CHECK_MSG(used > 0 && used == value.size(),
                 "param '" << item << "' has a malformed value");
  }
  return params;
}

}  // namespace deltav::dv::programs
