#ifndef DIAL_TESTS_PRIVATE_DIR_H_
#define DIAL_TESTS_PRIVATE_DIR_H_

#include <gtest/gtest.h>
#include <stdlib.h>

#include <filesystem>
#include <string>
#include <system_error>

#include "util/logging.h"

/// \file
/// A scratch directory private to the running test process. A fixed name
/// under `testing::TempDir()` is shared with every earlier run and build on
/// the machine, so a model cache kept there can hand a test weights that
/// today's code would never produce. This one is created empty on first use
/// and removed when the process exits.

namespace dial::test_internal {

inline const std::string& PrivateDir() {
  static const struct Dir {
    Dir() {
      std::string pattern = testing::TempDir() + "/dial_test_XXXXXX";
      DIAL_CHECK(::mkdtemp(pattern.data()) != nullptr)
          << "cannot create a private dir under " << testing::TempDir();
      path = pattern;
    }
    ~Dir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
    std::string path;
  } dir;
  return dir.path;
}

}  // namespace dial::test_internal

#endif  // DIAL_TESTS_PRIVATE_DIR_H_
