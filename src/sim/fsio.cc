#include "sim/fsio.hh"

#include <charconv>
#include <cstdio>
#include <fstream>

namespace mbus {
namespace sim {

bool
atomicWriteFile(const std::string &path,
                const std::function<void(std::ostream &)> &emit)
{
    std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            return false;
        emit(os);
        os.flush();
        if (!os.good())
            return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

bool
atomicWriteFile(const std::string &path, const std::string &bytes)
{
    return atomicWriteFile(path, [&](std::ostream &os) {
        os.write(bytes.data(),
                 static_cast<std::streamsize>(bytes.size()));
    });
}

char *
formatDouble(double v, char *buf)
{
    return std::to_chars(buf, buf + kDoubleChars, v,
                         std::chars_format::general, 17)
        .ptr;
}

std::string
formatDouble(double v)
{
    char buf[kDoubleChars];
    return std::string(buf, formatDouble(v, buf));
}

} // namespace sim
} // namespace mbus
