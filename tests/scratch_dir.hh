/**
 * @file
 * A private scratch directory for one test. It is created with
 * mkdtemp under the system temporary directory (TMPDIR) and removed,
 * with everything in it, when the test ends. Tests that write files
 * name them inside it instead of using fixed paths, so two test
 * processes running at once (ctest -j) never share a file.
 */

#ifndef TESTS_SCRATCH_DIR_HH
#define TESTS_SCRATCH_DIR_HH

#include <stdlib.h>

#include <cerrno>
#include <filesystem>
#include <string>
#include <system_error>

namespace supmon
{
namespace test
{

class ScratchDir
{
  public:
    ScratchDir()
    {
        std::string tmpl =
            (std::filesystem::temp_directory_path() / "supmon-XXXXXX")
                .string();
        if (!::mkdtemp(tmpl.data()))
            throw std::system_error(errno, std::generic_category(),
                                    "mkdtemp " + tmpl);
        dir = tmpl;
    }

    ~ScratchDir()
    {
        std::error_code ignored;
        std::filesystem::remove_all(dir, ignored);
    }

    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    /** The directory itself. */
    const std::string &
    path() const
    {
        return dir;
    }

    /** Path of @p name inside the directory (not created). */
    std::string
    path(const std::string &name) const
    {
        return dir + "/" + name;
    }

  private:
    std::string dir;
};

} // namespace test
} // namespace supmon

#endif // TESTS_SCRATCH_DIR_HH
