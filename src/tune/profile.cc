#include "tune/profile.hh"

#include <fstream>
#include <thread>

#include "hash/sha256xN.hh"

namespace herosign::tune
{

HostFingerprint
HostFingerprint::current()
{
    HostFingerprint fp;
    fp.cores = std::thread::hardware_concurrency();
    switch (laneDispatch().backend) {
    case LaneBackend::Avx512: fp.dispatch = "avx512"; break;
    case LaneBackend::Avx2: fp.dispatch = "avx2"; break;
    case LaneBackend::Scalar: fp.dispatch = "portable"; break;
    }
    fp.cpuModel = "unknown";
#ifdef __linux__
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        const auto pos = line.find("model name");
        if (pos != std::string::npos) {
            const auto colon = line.find(':');
            if (colon != std::string::npos) {
                size_t b = colon + 1;
                while (b < line.size() && line[b] == ' ')
                    ++b;
                fp.cpuModel = line.substr(b);
            }
            break;
        }
    }
#endif
    return fp;
}

std::string
activeProfileHash()
{
    return {};
}

} // namespace herosign::tune
