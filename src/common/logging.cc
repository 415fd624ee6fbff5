#include "common/logging.hh"

#include <atomic>
#include <cstdio>

namespace triq
{

namespace
{

std::atomic<bool> quietFlag{false};

} // namespace

void
setQuiet(bool quiet)
{
    quietFlag.store(quiet);
}

void
detail::emit(const char *level, const std::string &msg)
{
    if (!quietFlag.load())
        std::fprintf(stderr, "%s: %s\n", level, msg.c_str());
}

} // namespace triq
