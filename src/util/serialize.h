#ifndef AIDA_UTIL_SERIALIZE_H_
#define AIDA_UTIL_SERIALIZE_H_

#include <string>

#include "util/status.h"

namespace aida::util {

/// Writes `data` to `path`, replacing any existing file.
Status WriteFile(const std::string& path, const std::string& data);

/// Reads the full contents of `path`.
StatusOr<std::string> ReadFile(const std::string& path);

}  // namespace aida::util

#endif  // AIDA_UTIL_SERIALIZE_H_
