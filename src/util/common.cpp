#include "util/common.hpp"

#include <cstring>
#include <sstream>

namespace dv::detail {

void fail(const char* kind, const char* expr, const char* file, int line,
          const std::string& msg) {
  // A failed requirement is a user-level error: the message alone. Only
  // internal invariants name the expression and its source location.
  if (std::strcmp(kind, "requirement") == 0) throw Error(msg);
  std::ostringstream os;
  os << "dragonviz " << kind << " failed: " << msg << " [" << expr << " at "
     << file << ":" << line << "]";
  throw Error(os.str());
}

}  // namespace dv::detail
