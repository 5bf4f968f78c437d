/**
 * @file
 * A per-test scratch directory, <gtest TempDir>/<suite>.<test>.<pid>:
 * made empty, and removed with its contents when the test ends.
 */

#ifndef MBUS_TESTS_TEMP_DIR_HH
#define MBUS_TESTS_TEMP_DIR_HH

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <system_error>

#include <unistd.h>

namespace mbus {
namespace test {

class TempDir
{
  public:
    TempDir()
    {
        const ::testing::TestInfo *t =
            ::testing::UnitTest::GetInstance()->current_test_info();
        root_ /= std::string(t->test_suite_name()) + "." + t->name() +
                 "." + std::to_string(::getpid());
        std::filesystem::remove_all(root_);
        std::filesystem::create_directories(root_);
    }
    ~TempDir()
    {
        std::error_code ec; // Never throw from teardown.
        std::filesystem::remove_all(root_, ec);
    }
    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;

    std::string dir() const { return root_.string(); }
    /** @p name inside the directory; nothing is created. */
    std::string path(const std::string &name) const
    {
        return (root_ / name).string();
    }

  private:
    std::filesystem::path root_{::testing::TempDir()};
};

} // namespace test
} // namespace mbus

#endif // MBUS_TESTS_TEMP_DIR_HH
